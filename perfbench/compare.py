"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Reads the untraced result files (``*-trace0.json``) that run.py wrote into
each directory.  For every workload and every metric in their tables it
prints each side's median and quartiles and the head's change against the
base median; a metric declared in BENCHMARK.json is marked ``WORSE`` when
it got worse by more than its bound, and ``unresolved`` when the base's own
spread is wider than the bound.

Refuses, with exit code 2, to compare files made with different kernel
backends: compiled kernels run about 65 times faster than the pure-Python
ones, so such a difference says nothing about a change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    files = sorted(Path(directory).glob("*-trace0.json"))
    if not files:
        raise SystemExit(f"error: no *-trace0.json result files in {directory}")
    return [json.loads(f.read_text()) for f in files]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(base_dir: str, head_dir: str) -> int:
    base, head = load(base_dir), load(head_dir)
    backends = {r["environment"]["kernel_backend"] for r in base + head}
    if len(backends) != 1:
        print(f"error: results mix kernel backends {sorted(backends)}; not comparable", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rules = {m["name"]: m for m in declared}
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in head}):
        sides = [[r for r in rs if r["workload"] == workload] for rs in (base, head)]
        print(f"{workload}: {len(sides[0])} base runs, {len(sides[1])} head runs")
        for metric, entry in sides[0][0]["report"].items():
            b = summary([r["report"][metric]["value"] for r in sides[0]])
            h = summary([r["report"][metric]["value"] for r in sides[1]])
            change = (h[1] - b[1]) / b[1] if b[1] else 0.0
            verdict = ""
            rule = rules.get(metric)
            if rule is not None:
                sign = 1 if rule["better"] == "lower" else -1
                if b[1] and (b[2] - b[0]) / b[1] > rule["bound"]:
                    verdict = "unresolved"
                elif sign * change > rule["bound"]:
                    verdict, worse = "WORSE", worse + 1
                else:
                    verdict = "within bound"
            print(
                f"  {metric:<28} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                f"  head {h[1]:.6g} [{h[0]:.6g}, {h[2]:.6g}]"
                f"  {change:+.1%} {entry['unit']}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1], sys.argv[2]))
