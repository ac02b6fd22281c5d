import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first ``python`` code block under a ``##`` heading of the README."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    """The quick start runs as printed and prints what its comment says."""
    block = readme_block("Library quick start")
    exec(compile(block, f"{README}: Library quick start", "exec"), {})
    printed = capsys.readouterr().out
    (comment,) = re.findall(r"print\(p\.value\)\s+# (.*)", block)
    assert printed == f"{comment}\n" == "2487/10000\n"
