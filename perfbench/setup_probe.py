"""Time one fresh-process set-up: import visitprob and build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED [--rss]

Prints the seconds spent importing visitprob and in the workload's
constructor, then the seconds of the calibration loop run right after it
(see calibration.py).  Importing the benchmark's own modules is left out,
so the first figure is the program's set-up cost alone.

With ``--rss`` the process then runs the workload's first pass, untimed
and unchecked, keeping every output of the pass as the timed passes do,
and prints its peak resident memory in MiB as a third figure.  No check
reference exists in this process, so the figure is the program's memory
for set-up plus one pass, whatever the number of passes a timed run fits.
"""

import os
import resource
import sys
import time


def main(name: str, seed: int, rss: bool) -> list[float]:
    started = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import visitprob  # noqa: F401

    imported = time.perf_counter()
    import workloads

    loaded = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    workload = workload(workloads.program(workload.USES_CLI), seed)
    out = [(imported - started) + (time.perf_counter() - loaded)]
    from calibration import loop_seconds

    out.append(loop_seconds())
    if rss:
        results = [call.run() for call in workload.calls(0)]  # noqa: F841 (held, as in a pass)
        out.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


if __name__ == "__main__":
    print(*map(repr, main(sys.argv[1], int(sys.argv[2]), "--rss" in sys.argv[3:])))
