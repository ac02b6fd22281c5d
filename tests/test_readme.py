import re
import shlex
from pathlib import Path

from visitprob import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str = "python") -> str:
    """The first ``language`` code block under a ``##`` heading of the README."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    """The quick start runs as printed and prints what its comment says."""
    block = readme_block("Library quick start")
    exec(compile(block, f"{README}: Library quick start", "exec"), {})
    printed = capsys.readouterr().out
    (comment,) = re.findall(r"print\(p\.value\)\s+# (.*)", block)
    assert printed == f"{comment}\n" == "2487/10000\n"


def test_cli_examples_run(capsys):
    """Every command of the CLI block exits 0, and the two outputs its
    comments state are what the commands print."""
    block = readme_block("CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("visitprob ")]
    assert [argv[1] for argv in commands] == [
        "prob", "dist", "oracle", "oracle", "simulate", "validate"
    ]
    printed = {}
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        printed.setdefault(argv[1], []).append(capsys.readouterr().out)
    prob_comment, census_comment = re.findall(r"# -> (.*)", block)
    assert printed["prob"] == [f"{prob_comment}\n"]
    assert prob_comment == "P(N1 = 2 | N = 4) = 0.375 = 3/8   [mode: exact]"
    assert census_comment.startswith("j=1..4 with counts 1, 9, 9, 1 ")
    census = printed["oracle"][1]
    assert re.findall(r"j=(\d+)\s+count=(\d+)", census) == [
        ("1", "1"), ("2", "9"), ("3", "9"), ("4", "1")
    ]
