"""Benchmark for visitprob: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # all four

One call at a time, on one thread, in this process: each call into
visitprob's public functions is timed from outside and its output checked
right after its pass, outside the timed region; then only the call's
kind, seconds and error are kept.  Passes repeat until ``--seconds`` of
passes have been timed (at least three; at least two when traced).
Set-up is timed in fresh processes (``setup_probe.py``), half of them
before and half after the passes; the first of them also runs one pass
and gives ``peak_rss_mb``.  A busy shared machine moves raw times by more
than any useful bound, so the two gated times are corrected by a fixed
loop (``calibration.py``): ``wall_rel`` is the pass time divided by the
time of the loop, run once per second of timed calls, each side the mean
of its faster half, and ``setup_s`` is the median over set-up samples of
the set-up time divided by the loop time in the same process, in nominal
seconds.  Every other time, and ``wall_s`` and ``setup_raw_s``, is in raw
seconds.

With ``--trace 0`` every pass runs the program unmodified and the last
line of output carries the end-to-end metrics declared in BENCHMARK.json.
With ``--trace 1`` passes alternate between untraced and traced ones
(wrappers from ``tracing.py`` around every layer's calls); the last line
carries the per-layer metrics and ``trace.overhead_s``, the traced minus
the untraced median pass time.  End-to-end numbers are never taken from
traced passes.

Before the last line a table prints every metric of the workload by
name, with its unit, and the environment.  A result file with the same
content goes to ``--out`` (default ``.perfbench/`` at the repository
root), with the spans of a traced run beside it; ``compare.py`` reads
these files.

Operations that raise are counted as failed, never re-raised; a run in
which a timed operation failed is not ``correct``.  The known-defect
probe of ``dist_float_log`` runs once per pass, untimed, and counts only
in the table's ``fail_frac``, which therefore depends on which operations
fail and not on how many passes fit; the last line's ``attempted`` and
``failed`` count the timed operations.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import NOMINAL_S, Calibration, fast_half, loop_seconds
from tracing import Tracer
from workloads import WORKLOADS, Op, program as load_program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 4  # before the passes, and again after them
FAILURES_SHOWN = 10


def environment(program) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": program.kernels.backend_name(),
        "numpy": numpy,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def setup_samples(name: str, seed: int, rss: bool) -> tuple[list[tuple[float, float]], float]:
    """(set-up seconds, calibration loop seconds) from fresh processes and,
    if ``rss``, the peak RSS in MiB of the first, which then also runs one
    pass."""
    times, peak = [], 0.0
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
        proc = subprocess.run(
            argv + (["--rss"] if rss and i == 0 else []),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        figures = [float(x) for x in proc.stdout.splitlines()[-1].split()]
        times.append((figures[0], figures[1]))
        if rss and i == 0:
            peak = figures[2]
    return times, peak


def run_pass(calls, tracer, calibration) -> tuple[float, list]:
    """Time each call, with ``tracer`` installed if given, running the
    calibration loop between calls when it is due.  A call that raises is
    recorded as failed.  Returns the pass time (the sum of the call times)
    and, per call, (call, result, error class name, seconds)."""
    done = []
    if tracer is not None:
        tracer.install()
    try:
        for call in calls:
            t0 = perf_counter()
            try:
                result, error = call.run(), None
            except Exception as exc:  # counted in failed / fail_frac, never re-raised
                result, error = None, type(exc).__name__
            seconds = perf_counter() - t0
            done.append((call, result, error, seconds))
            if calibration is not None:
                calibration.timed(seconds)
    finally:
        if tracer is not None:
            tracer.remove()
    return sum(seconds for *_, seconds in done), done


def check_pass(workload, done, index, ops, problems) -> None:
    """Check a pass's outputs, then keep one Op per call and drop the output."""
    for call, result, error, seconds in done:
        if error is None:
            try:
                problem = workload.verify(call, result)
            except Exception as exc:  # an output the check cannot read is a wrong output
                problem = f"{call.kind}: check raised {exc!r}"
            if problem is not None:
                problems.append(problem)
        ops.append(Op(call.kind, index, seconds, error, call.work))


def measure(workload, seconds: float, tracer) -> tuple[list, list, list, list, Calibration]:
    """Run passes until ``seconds`` of them are timed, each followed by the
    workload's probes.  Returns the timed ops, the probe ops, the check
    problems, per pass (traced, seconds), and the run's calibration."""
    ops: list = []
    probe_ops: list = []
    problems: list = []
    passes: list[tuple[bool, float]] = []
    index, timed = 0, 0.0
    min_passes = 2 if tracer else 3
    calibration = Calibration()
    while index < min_passes or timed < seconds:
        traced = tracer is not None and index % 2 == 1
        # A traced pass repeats the inputs of the untraced pass before it,
        # so the two differ only by the tracing.
        calls = workload.calls(index // 2 if tracer else index)
        gc.collect()
        wall, done = run_pass(calls, tracer if traced else None, calibration)
        passes.append((traced, wall))
        check_pass(workload, done, index, ops, problems)
        _, done = run_pass(workload.probes(), None, None)
        check_pass(workload, done, index, probe_ops, problems)
        timed += wall
        index += 1
    calibration.samples.append(loop_seconds())
    return ops, probe_ops, problems, passes, calibration


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:>16.6g}  {unit}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    program = load_program(cls.USES_CLI)
    if Path(program.visitprob.__file__).resolve().parent != SRC / "visitprob":
        print(f"error: imported visitprob from {program.visitprob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(program)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = cls(program, args.seed)
    setup, peak_rss_mb = setup_samples(args.workload, args.seed, rss=True)
    workload.prepare()
    tracer = Tracer(program) if args.trace else None
    ops, probe_ops, problems, passes, calibration = measure(workload, args.seconds, tracer)
    # Machine speed changes over seconds; samples on both sides of the
    # passes see more of it than one burst does.
    setup += setup_samples(args.workload, args.seed, rss=False)[0]
    failed = sum(op.error is not None for op in ops)
    probe_failed = sum(op.error is not None for op in probe_ops)
    probes: dict[str, dict[str, int]] = {}  # probe kind -> outcome -> passes
    for op in probe_ops:
        outcomes = probes.setdefault(op.kind, {})
        outcomes[op.error or "returned"] = outcomes.get(op.error or "returned", 0) + 1

    walls = {traced: [w for t, w in passes if t is traced] for traced in (False, True)}
    untraced = [op for op in ops if not passes[op.index][0]]
    report = {
        "setup_s": (statistics.median(s / c * NOMINAL_S for s, c in setup), "s"),
        "setup_raw_s": (statistics.median(s for s, _ in setup), "s"),
        "wall_s": (statistics.median(walls[False]), "s"),
        "wall_rel": (fast_half(walls[False]) / fast_half(calibration.samples), "1"),
        **workload.report(untraced),
        "fail_frac": ((failed + probe_failed) / (len(ops) + len(probe_ops)), "1"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "calibration_s": (fast_half(calibration.samples), "s"),
    }
    layers = {}
    if tracer is not None:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        layers = tracer.metrics(declared["per_layer"], len(walls[True]), overhead)

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    source = layers if args.trace else report
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted}
    result = {
        # A timed call that raised leaves its pass short of the work the
        # other runs timed, so the run's figures are not comparable either.
        "correct": not problems and not failed,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }

    print(f"workload {cls.NAME}  seed {args.seed}  trace {args.trace}  passes {len(walls[False])}"
          f" untraced + {len(walls[True])} traced")
    print(f"  why: {cls.WHY}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"  setup samples: {len(setup)}; calibration samples: {len(calibration.samples)};"
          " wall_rel = faster-half mean pass seconds / calibration_s (calibration.py)")
    print_table("end-to-end (untraced passes):", report)
    for kind, outcomes in probes.items():
        print(f"  probe {kind} (untimed, once per pass): {outcomes}")
    if layers:
        print_table("per layer (traced passes; counts and times per traced pass):", layers)
        print("  closed_form.terms_computed.* are computed from summation_limits, not counted")
    for problem in problems[:FAILURES_SHOWN]:
        print(f"  CHECK FAILED: {problem}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cls.NAME}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": cls.NAME,
        "why": cls.WHY,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": [{"setup": s, "calibration": c} for s, c in setup],
        "passes": [{"traced": t, "wall_s": w} for t, w in passes],
        "calibration_samples_s": calibration.samples,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "probes": probes,
        "problems": problems,
        "result": result,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; their tables, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1):
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench"))
    args = parser.parse_args(argv)
    if not (SRC / "visitprob" / "__init__.py").is_file():
        print(f"error: no visitprob sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
