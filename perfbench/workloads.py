"""The four workloads: inputs drawn from the seed, timed calls, output checks.

Each workload is chosen so that one group of visitprob layers does most
of its work there and little in the others; ``WHY`` on each class records
the reason.  A pass is a list of calls whose inputs are drawn from
``(seed, pass index)`` before the pass is timed, so every pass asks for
different results and no pass can be answered from an earlier one.  Each
output is checked right after its pass, outside the timed region, against
a source that does not run the code under test where one exists: pinned
digests and golden histograms recorded at the seed commit
(``golden.json``) and the integer recursion in ``reference.py``.  Only
each call's kind, pass, seconds, error and work count are kept after that.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from reference import Reference, digest

FLOAT_TOL = 1e-11  # max relative error of a float mass against the reference
LOG_TOL = 1e-10  # max absolute error of a logspace mass against the reference
FLOAT_FLOOR = 1e-290  # float masses below this are held to absolute error


def program(with_cli: bool) -> SimpleNamespace:
    """Import visitprob (and its CLI when asked); the modules every workload calls."""
    import visitprob
    from visitprob import chain_model, closed_form, combinatorics, kernels, numerics, oracle

    modules = SimpleNamespace(
        visitprob=visitprob,
        chain_model=chain_model,
        closed_form=closed_form,
        combinatorics=combinatorics,
        kernels=kernels,
        numerics=numerics,
        oracle=oracle,
    )
    if with_cli:
        from visitprob import cli

        modules.cli = cli
    return modules


def load_golden() -> dict:
    return json.loads(Path(__file__).with_name("golden.json").read_text())


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    expect: object = None  # what ``verify`` needs to check the result
    work: int = 0  # trajectories or paths the call walks, for the rates


@dataclass
class Op:
    """A call that ran: what the metrics need once its output is checked."""

    kind: str
    index: int  # pass index
    seconds: float
    error: str | None  # exception class name when the call raised
    work: int


def _fractions(spec) -> list[Fraction]:
    return [Fraction(s) for s in spec]


def _random_chain(rng: random.Random, denominators) -> tuple[str, str, str]:
    """(p01, p10, p1) with the given denominators and random interior numerators."""
    return tuple(f"{rng.randint(1, d - 1)}/{d}" for d in denominators)


def _median_per_pass(ops, kind) -> float:
    """Median over passes of the mean seconds per ``kind`` call in the pass."""
    per_pass: dict[int, list[float]] = {}
    for op in ops:
        if op.kind == kind:
            per_pass.setdefault(op.index, []).append(op.seconds)
    return statistics.median(sum(v) / len(v) for v in per_pass.values())


def _rate(ops) -> float:
    """Work units (trajectories or paths) per second over ``ops``."""
    return sum(op.work for op in ops) / sum(op.seconds for op in ops)


class Workload:
    NAME = ""
    WHY = ""
    USES_CLI = False

    def __init__(self, program: SimpleNamespace, seed: int) -> None:
        self.p = program
        self.seed = seed

    def prepare(self) -> None:
        """Build check references; runs after set-up is timed, before any pass."""

    def calls(self, index: int) -> list[Call]:
        raise NotImplementedError

    def probes(self) -> list[Call]:
        """Known-defect probes: run once per pass, untimed, counted only in fail_frac."""
        return []

    def verify(self, call: Call, result: object) -> str | None:
        """None when ``result`` of ``call`` is right, else what is wrong."""
        raise NotImplementedError

    def report(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    # Shared by the two distribution workloads: variant ``o`` of a chain is
    # the chain or its label swap, asked for S1 or S0 visits.  Its masses
    # are the base chain's S1 masses, reversed when exactly one is flipped.
    def _variant(self, chain, swapped, o):
        state = self.p.chain_model.State
        swap, to_s0 = bool(o & 1), bool(o & 2)
        return (swapped if swap else chain), (state.S0 if to_s0 else state.S1), swap != to_s0

    def _dist_call(self, kind, n, chain, swapped, o, expect) -> Call:
        cf = self.p.closed_form
        used, target, reverse = self._variant(chain, swapped, o)
        return Call(kind, lambda: cf.visit_distribution(n, target, used), (expect, reverse))


class DistExact(Workload):
    NAME = "dist_exact"
    WHY = (
        "Exact visit_distribution at N=200 loads BinomialTable, big-integer Fraction "
        "arithmetic and the exact term loop, and touches no kernel, CLI or logspace "
        "code; integer-numerator and lattice gains must show here."
    )
    N = 200
    CHAINS = (("3/10", "2/5", "1/2"), ("13/97", "41/89", "29/83"))

    def __init__(self, program, seed):
        super().__init__(program, seed)
        cm = program.chain_model
        self.golden = load_golden()["exact_sha256"]
        self.chains = []
        for spec in self.CHAINS:
            chain = cm.build_chain(*spec)
            self.chains.append((",".join(spec), chain, cm.swap_labels(chain)))

    def calls(self, index):
        return [
            self._dist_call("exact_dist", self.N, chain, swapped, self.seed + index + c, key)
            for c, (key, chain, swapped) in enumerate(self.chains)
        ]

    def verify(self, call, result):
        key, reverse = call.expect
        masses = [m.value for m in result.mass]
        if reverse:
            masses.reverse()
        if len(masses) != self.N + 1 or not all(isinstance(m, Fraction) for m in masses):
            return f"{key}: not {self.N + 1} exact masses"
        if digest(masses) != self.golden[key]:
            return f"{key}: digest differs from the one pinned at the seed commit"
        return None

    def report(self, ops):
        return {"exact_dist_s": (_median_per_pass(ops, "exact_dist"), "s")}


class DistFloatLog(Workload):
    NAME = "dist_float_log"
    WHY = (
        "Float and logspace visit_distribution at N=1000 load float binomial rows, "
        "Neumaier sums, log_binomial/lgamma and log-sum-exp, and no Fraction or "
        "BinomialTable code; float/logspace gains show here and leave dist_exact alone."
    )
    N = 1000
    CHAINS = (
        ("3/10", "2/5", "1/2"),
        ("1/4", "1/3", "2/5"),
        ("2/5", "3/10", "1/3"),
        ("1/3", "1/4", "3/5"),
    )
    # Float mode fails with NaN on this input at the seed commit (its binomial
    # rows overflow past row 1029); the probe tracks that defect.
    PROBE_N = 1100
    PROBE_CHAIN = ("3/10", "2/5", "1/2")

    def __init__(self, program, seed):
        super().__init__(program, seed)
        cm, mode = program.chain_model, program.numerics.NumericMode
        self.spec = self.CHAINS[seed % len(self.CHAINS)]
        self.chains = {}
        for m in (mode.FLOAT, mode.LOGSPACE):
            chain = cm.build_chain(*self.spec, mode=m)
            self.chains[m.value] = (chain, cm.swap_labels(chain))
        self.probe_chain = cm.build_chain(*self.PROBE_CHAIN, mode=mode.FLOAT)
        self.max_err = {"float": 0.0, "logspace": 0.0}

    def prepare(self):
        self.reference = Reference(self.N, *_fractions(self.spec))

    def calls(self, index):
        o = self.seed // len(self.CHAINS) + index
        return [
            self._dist_call(f"{mode}_dist", self.N, *self.chains[mode], o, self.N)
            for mode in ("float", "logspace")
        ]

    def probes(self):
        cf, state = self.p.closed_form, self.p.chain_model.State
        return [
            Call(
                f"probe_float_n{self.PROBE_N}",
                lambda: cf.visit_distribution(self.PROBE_N, state.S1, self.probe_chain),
                (self.PROBE_N, False),
            )
        ]

    def verify(self, call, result):
        n, reverse = call.expect
        if n == self.N:
            reference = self.reference
        else:  # the probe returned: check it, at its own horizon
            reference = Reference(n, *_fractions(self.PROBE_CHAIN))
        values = [m.value for m in result.mass]
        if reverse:
            values.reverse()
        if len(values) != n + 1:
            return f"{call.kind}: {len(values)} masses for N={n}"
        if call.kind == "logspace_dist":
            err, tol = max(reference.log_abs_errors(values)), LOG_TOL
        else:
            err, tol = max(reference.float_rel_errors(values, FLOAT_FLOOR)), FLOAT_TOL
        mode = call.kind.removesuffix("_dist")
        if mode in self.max_err:
            self.max_err[mode] = max(self.max_err[mode], err)
        return None if err <= tol else f"{call.kind}: error {err!r} above {tol!r}"

    def report(self, ops):
        return {
            "float_dist_s": (_median_per_pass(ops, "float_dist"), "s"),
            "logspace_dist_s": (_median_per_pass(ops, "logspace_dist"), "s"),
            "float_max_rel_err": (self.max_err["float"], "1"),
            "logspace_max_abs_log_err": (self.max_err["logspace"], "1"),
        }


class Referees(Workload):
    NAME = "referees"
    WHY = (
        "The seeded simulator (N=8 x 1e5 and N=40 x 2e4 trajectories) and the "
        "enumeration referees (float N=18, exact and logspace N=14, census) load "
        "kernels and the oracle walks with almost no closed-form work; the "
        "counter-based simulator must show here."
    )
    FLOAT_N = 18
    N = 14
    # Exact enumeration costs more with larger denominators, so they are
    # fixed and only the numerators are drawn.
    DENOMINATORS = (12, 11, 10)

    def __init__(self, program, seed):
        super().__init__(program, seed)
        golden = load_golden()
        self.histograms = golden["simulate"]
        self.sim_seeds = [int(s) for s in self.histograms["8x100000"]]
        self.sim_chain = program.chain_model.build_chain(*golden["simulate_chain"])

    def calls(self, index):
        p = self.p
        orc, cm, mode, state = p.oracle, p.chain_model, p.numerics.NumericMode, p.chain_model.State
        rng = random.Random(f"referees/{self.seed}/{index}")
        sim_seed = self.sim_seeds[(self.seed + index) % len(self.sim_seeds)]
        out = [
            Call(
                "simulate",
                lambda n=n, trials=trials: orc.simulate(n, self.sim_chain, trials, sim_seed),
                (n, trials, sim_seed),
                trials,
            )
            for n, trials in ((8, 100_000), (40, 20_000))
        ]
        for m, n in ((mode.FLOAT, self.FLOAT_N), (mode.EXACT, self.N), (mode.LOGSPACE, self.N)):
            spec = _random_chain(rng, self.DENOMINATORS)
            chain = cm.build_chain(*spec, mode=m)
            out.append(
                Call(
                    "enumerate",
                    lambda n=n, chain=chain: orc.oracle_distribution(n, state.S1, chain),
                    (m.value, n, spec, chain),
                    2**n,
                )
            )
        chain = cm.build_chain(*_random_chain(rng, self.DENOMINATORS))
        k, initial, final = rng.randint(0, self.N), state(rng.randint(0, 1)), state(rng.randint(0, 1))
        out.append(
            Call(
                "census",
                lambda: orc.census_by_j(self.N, k, initial, final, chain),
                (k, initial, final),
                2**self.N,
            )
        )
        return out

    def verify(self, call, result):
        if call.kind == "simulate":
            n, trials, sim_seed = call.expect
            if list(result.counts) != self.histograms[f"{n}x{trials}"][str(sim_seed)]:
                return f"simulate {n}x{trials} seed {sim_seed}: histogram differs from golden"
            return None
        if call.kind == "census":
            k, initial, final = call.expect
            got = {j: (c.count, c.transitions) for j, c in result.items()}
            cells = self.p.closed_form.term_census(k, self.N, initial, final)
            want = {j: (c.count, c.transitions) for j, c in cells.items()}
            return None if got == want else f"census k={k}: differs from term_census"
        mode, n, spec, chain = call.expect
        values = [m.value for m in result.mass]
        if mode == "exact":
            closed = self.p.closed_form.visit_distribution(n, self.p.chain_model.State.S1, chain)
            if values != [m.value for m in closed.mass]:
                return f"exact oracle N={n} {spec}: not bit-equal to the closed form"
            return None
        reference = Reference(n, *_fractions(spec))
        if mode == "float":
            err, tol = max(reference.float_rel_errors(values, FLOAT_FLOOR)), FLOAT_TOL
        else:
            err, tol = max(reference.log_abs_errors(values)), LOG_TOL
        return None if err <= tol else f"{mode} oracle N={n} {spec}: error {err!r} above {tol!r}"

    def report(self, ops):
        sims = [op for op in ops if op.kind == "simulate"]
        walks = [op for op in ops if op.kind in ("enumerate", "census")]
        return {
            "sim_traj_per_s": (_rate(sims), "1/s"),
            "enum_paths_per_s": (_rate(walks), "1/s"),
        }


class CliSmall(Workload):
    NAME = "cli_small"
    WHY = (
        "240 in-process cli.main prob/dist calls at N 2-64 (exact mode by default), "
        "seeded random rational chains, text/json/csv output, plus one validate; "
        "parsing, table set-up and formatting dominate, so per-call set-up added "
        "for large N shows here as a regression, and chain_model and cli are measured."
    )
    DIST_CALLS = 80
    PROB_CALLS = 160
    MAX_N = 64
    MAX_DEN = 16
    FORMATS = ("text", "json", "csv")
    VALIDATE = ["validate", "--grid", "coarse", "--n-max", "8"]
    USES_CLI = True

    def calls(self, index):
        rng = random.Random(f"cli_small/{self.seed}/{index}")
        # The same spread of N in every pass keeps pass times comparable.
        jobs = [
            (command, 2 + ((self.MAX_N - 2) * i) // (count - 1))
            for command, count in (("dist", self.DIST_CALLS), ("prob", self.PROB_CALLS))
            for i in range(count)
        ]
        rng.shuffle(jobs)
        out = []
        for command, n in jobs:
            spec = _random_chain(rng, [rng.randint(2, self.MAX_DEN) for _ in range(3)])
            state, fmt = rng.randint(0, 1), rng.choice(self.FORMATS)
            argv = [command, "--p01", spec[0], "--p10", spec[1], "--p1", spec[2], "--n", str(n)]
            argv += ["--state", str(state), "--format", fmt]
            k = None
            if command == "prob":
                k = rng.randint(0, n)
                argv += ["--k", str(k)]
            out.append(Call("query", self._main(argv), (command, fmt, n, k, state, spec)))
        out.append(Call("validate", self._main(self.VALIDATE)))
        return out

    def _main(self, argv):
        cli = self.p.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run

    def verify(self, call, result):
        code, text, err = result
        if code != 0:
            return f"{call.kind} exited {code}: {err.strip()}"
        if call.kind == "validate":
            last = text.rstrip().rsplit("\n", 1)[-1]
            return None if last.endswith(" 0 FAIL") else f"validate: {last}"
        command, fmt, n, k, state, spec = call.expect
        want = Reference(n, *_fractions(spec)).fractions()
        if state == 0:
            want.reverse()
        if command == "prob":
            want = [want[k]]
        try:
            values, total = _printed_exact(command, fmt, text)
            ok = [Fraction(v) for v in values] == want and total in (None, "1/1")
        except (ValueError, KeyError, IndexError) as exc:
            return f"{command} {fmt}: unreadable output ({exc!r})"
        return None if ok else f"{command} {fmt} N={n} {spec}: printed masses differ from the reference"

    def report(self, ops):
        queries = sorted(op.seconds for op in ops if op.kind == "query")
        return {
            "queries_per_s": (len(queries) / sum(queries), "1/s"),
            "query_p50_ms": (statistics.median(queries) * 1e3, "ms"),
            "query_p95_ms": (statistics.quantiles(queries, n=20)[18] * 1e3, "ms"),
            "query_samples": (len(queries), "count"),
            "validate_s": (_median_per_pass(ops, "validate"), "s"),
        }


def _printed_exact(command: str, fmt: str, text: str) -> tuple[list[str], str | None]:
    """The exact ``num/den`` masses a prob/dist call printed, and the printed
    normalization sum where the format carries one."""
    if fmt == "json":
        record = json.loads(text)
        if command == "prob":
            return [record["results"]["exact"]], None
        return [row["exact"] for row in record["rows"]], record["normalization"]["exact"]
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "# visitprob schema 1":
            raise ValueError(f"bad csv comment line {lines[0]!r}")
        col = lines[1].split(",").index("exact")
        rows = [line.split(",")[col] for line in lines[2:]]
        if command == "prob":
            return rows, None
        return rows[:-1], rows[-1]
    if command == "prob":  # P(N1 = k | N = n) = 0.25 = 1/4   [mode: exact]
        return [lines[0].split(" = ")[-1].split()[0]], None
    return [line.split()[-1] for line in lines[1:-1]], None  # "  k=3    0.25  1/4"


WORKLOADS = {w.NAME: w for w in (DistExact, DistFloatLog, Referees, CliSmall)}
