"""Command-line surface: evaluation, enumeration, simulation, validation.

Each command echoes its parsed inputs in canonical form (probabilities as
reduced fractions), so any emitted record can be re-run verbatim and will
reproduce its results field.  Exit codes: 0 success, 1 validation
failure, 2 usage error, 3 enumeration guard, 4 numerical failure (a
backend overflowed), 141 the reader closed the output pipe early, as
``| head`` does (128 + SIGPIPE, the status a shell reports for it).

Output formats: ``text`` (human), ``json`` (one self-describing object per
invocation, schema_version "1"), ``csv`` (a projection of the JSON rows,
prefixed by the versioned comment line ``# visitprob schema 1``).
Wall-clock diagnostics are opt-in (``--timing``) so that fixed-seed runs
produce byte-identical output.

Every command returns its exit code, its record body, its CSV columns and
rows, and its text renderer; ``main`` adds the record header, times the
command for ``--timing`` and emits the chosen format.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

from visitprob import kernels
from visitprob.chain_model import ChainSpec, State, VisitQuery, build_chain, swap_labels
from visitprob.closed_form import (
    FLOAT_MAX_HORIZON,
    VisitDistribution,
    summation_limits,
    visit_distribution,
    visit_probability,
)
from visitprob.errors import (
    BackendMismatchError,
    EnumerationGuardError,
    NumericalError,
    ParameterError,
    VisitProbError,
)
from visitprob.numerics import NumericMode, ProbValue, _fraction_text, _int_text, _is_int
from visitprob.oracle import census_by_j, oracle_distribution, simulate, total_variation

SCHEMA_VERSION = "1"
CSV_COMMENT = "# visitprob schema 1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_NUMERICAL = 4

_EXACT_MODE_MAX_N = 64  # default to exact arithmetic up to here, logspace beyond


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _decimal17(frac: Fraction) -> str:
    """Decimal rendering of an exact rational, 17 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 17
        return str(Decimal(frac.numerator) / Decimal(frac.denominator))


# The fields a probability prints, by mode, each rendered from the raw
# value: the decimal probability, then the reduced fraction (EXACT) or the
# natural log (LOGSPACE).  JSON fields and CSV columns both read this table.
_PROB_FIELDS = {
    NumericMode.EXACT: {
        "probability": _decimal17,
        "exact": lambda f: f"{_int_text(f.numerator)}/{_int_text(f.denominator)}",
    },
    NumericMode.FLOAT: {"probability": repr},
    NumericMode.LOGSPACE: {"probability": lambda v: repr(math.exp(v)), "log": repr},
}


def _prob_fields(pv: ProbValue) -> dict:
    return {name: field(pv.value) for name, field in _PROB_FIELDS[pv.mode].items()}


def _monomial_string(tc) -> str:
    parts = []
    for name, e in (("p11", tc.n11), ("p10", tc.n10), ("p01", tc.n01), ("p00", tc.n00)):
        if e == 1:
            parts.append(name)
        elif e > 0:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def _emit(record: dict, fmt: str, columns: list[str], rows: list[dict], text) -> None:
    if fmt == "json":
        print(json.dumps(record, indent=2))
    elif fmt == "csv":
        print(CSV_COMMENT)
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row.get(c, "")) for c in columns))
    else:
        text()


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _resolve_mode(args) -> NumericMode:
    if args.mode is not None:
        return NumericMode(args.mode)
    return NumericMode.EXACT if args.n <= _EXACT_MODE_MAX_N else NumericMode.LOGSPACE


def _chain_inputs(args, mode: NumericMode) -> tuple[ChainSpec, dict]:
    chain = build_chain(args.p01, args.p10, args.p1, mode)
    p01, p10, p1 = map(_fraction_text, chain.exact)
    return chain, {"p01": p01, "p10": p10, "p1": p1, "n": args.n, "mode": mode.value}


def _term_count(k: int, n: int) -> int:
    """The closed form's count of interior terms behind one probability value,
    2c1 + c2 + c3 over its four branch sums, with 1 for a boundary k.

    It counts the terms of the formula, not the engine's steps: every mode
    evaluates both masses of a pair (k, n-k) from three pair sums of
    c1 + c2 + c3 terms in all.
    """
    if k == 0 or k == n:
        return 1
    lim = summation_limits(k, n)
    return 2 * lim.c1 + lim.c2 + lim.c3


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, record body, CSV columns, rows, text)
# ---------------------------------------------------------------------------


def cmd_prob(args) -> tuple:
    mode = _resolve_mode(args)
    chain, inputs = _chain_inputs(args, mode)
    query = VisitQuery(args.n, args.k, State(args.state))
    results = _prob_fields(visit_probability(query, chain))
    inputs.update({"k": args.k, "state": args.state})
    body = {
        "inputs": inputs,
        "results": results,
        "diagnostics": {"terms": _term_count(args.k, args.n)},
    }

    def text() -> None:
        extra = f" = {results['exact']}" if "exact" in results else ""
        print(
            f"P(N{args.state} = {args.k} | N = {args.n})"
            f" = {results['probability']}{extra}   [mode: {mode.value}]"
        )

    return EXIT_OK, body, ["k", *_PROB_FIELDS[mode]], [{"k": args.k, **results}], text


def _distribution_output(
    inputs: dict, dist: VisitDistribution, diagnostics: dict, header: str
) -> tuple:
    """Shared output of ``dist`` and ``oracle``: one row per k plus a sum row."""
    rows = [{"k": k, **_prob_fields(m)} for k, m in enumerate(dist.mass)]
    total = dist.total()
    deviation = repr(total.to_float() - 1.0)
    normalization = {**_prob_fields(total), "deviation": deviation}
    body = {
        "inputs": inputs,
        "rows": rows,
        "normalization": normalization,
        "diagnostics": diagnostics,
    }

    def text() -> None:
        print(header)
        for row in rows:
            extra = f"  {row['exact']}" if "exact" in row else ""
            print(f"  k={row['k']:<4d} {row['probability']}{extra}")
        print(f"  sum = {normalization['probability']}  (deviation {deviation})")

    columns = ["k", *_PROB_FIELDS[dist.mode], "deviation"]
    return EXIT_OK, body, columns, rows + [{"k": "sum", **normalization}], text


def cmd_dist(args) -> tuple:
    mode = _resolve_mode(args)
    chain, inputs = _chain_inputs(args, mode)
    inputs["state"] = args.state
    dist = visit_distribution(args.n, State(args.state), chain)
    terms = sum(_term_count(k, args.n) for k in range(args.n + 1))
    header = f"P(N{args.state} = k | N = {args.n})   [mode: {mode.value}]"
    return _distribution_output(inputs, dist, {"terms": terms}, header)


def _census_output(args, mode: NumericMode, chain: ChainSpec, inputs: dict) -> tuple:
    """``oracle --census``: one row per S1->S0 transition count j."""
    if args.k is None or args.initial is None or args.final is None:
        raise ParameterError("--census requires --k, --initial and --final")
    inputs.update({"k": args.k, "initial": args.initial, "final": args.final})
    cells = census_by_j(args.n, args.k, State(args.initial), State(args.final), chain)
    rows = []
    for j, cell in cells.items():
        tc = cell.transitions
        rows.append(
            {
                "j": j,
                "count": cell.count,
                "n11": tc.n11,
                "n10": tc.n10,
                "n01": tc.n01,
                "n00": tc.n00,
                "monomial": _monomial_string(tc),
                **{f"term_{name}": v for name, v in _prob_fields(cell.term).items()},
            }
        )
    body = {
        "inputs": inputs,
        "rows": rows,
        "diagnostics": {"paths": 2**args.n, "cells": len(rows)},
    }
    columns = ["j", "count", "n11", "n10", "n01", "n00", "monomial"]
    columns += [f"term_{name}" for name in _PROB_FIELDS[mode]]

    def text() -> None:
        print(
            f"paths {State(args.initial).name} -> ... -> {State(args.final).name}"
            f" with {args.k} visits to S1, N = {args.n}, grouped by"
            f" S1->S0 transition count"
        )
        for row in rows:
            print(
                f"  j={row['j']}  count={row['count']:<6d} {row['monomial']}"
                f"  term={row['term_probability']}"
            )
        print(f"  total paths: {sum(r['count'] for r in rows)}")

    return EXIT_OK, body, columns, rows, text


def cmd_oracle(args) -> tuple:
    mode = _resolve_mode(args)
    chain, inputs = _chain_inputs(args, mode)
    if args.census:
        return _census_output(args, mode, chain, inputs)
    inputs["state"] = args.state
    dist = oracle_distribution(args.n, State(args.state), chain)
    header = (
        f"enumeration: P(N{args.state} = k | N = {args.n}) over {2**args.n} paths"
        f"   [mode: {mode.value}]"
    )
    return _distribution_output(inputs, dist, {"paths": 2**args.n}, header)


def cmd_simulate(args) -> tuple:
    chain, inputs = _chain_inputs(args, NumericMode.FLOAT)
    inputs.update({"state": args.state, "trials": args.trials, "seed": args.seed})
    target = State(args.state)
    result = simulate(args.n, chain, args.trials, args.seed)
    empirical = result.empirical_distribution(target)
    # The simulation has no horizon limit; the float reference does.
    ref_mode = NumericMode.LOGSPACE if args.n > FLOAT_MAX_HORIZON else NumericMode.FLOAT
    reference = visit_distribution(args.n, target, chain.as_mode(ref_mode))
    tv = total_variation(empirical, reference)
    counts = list(result.counts if target is State.S1 else result.counts[::-1])
    rows = [
        {
            "k": k,
            "count": counts[k],
            "frequency": repr(emp.value),
            "reference": repr(ref.to_float()),
        }
        for k, (emp, ref) in enumerate(zip(empirical.mass, reference.mass))
    ]
    body = {
        "inputs": inputs,
        "rows": rows,
        "results": {"counts": counts, "total_variation": repr(tv)},
        "diagnostics": {"backend": kernels.backend_name()},
    }

    def text() -> None:
        print(
            f"simulation: {args.trials} trajectories, N = {args.n}, seed {args.seed}"
            f"   [{kernels.backend_name()} kernel]"
        )
        for row in rows:
            print(
                f"  k={row['k']:<4d} count={row['count']:<10d}"
                f" freq={row['frequency']:<22s} closed-form={row['reference']}"
            )
        print(f"  total-variation distance vs closed form: {tv}")

    return EXIT_OK, body, ["k", "count", "frequency", "reference"], rows, text


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

_GRIDS = {
    "coarse": (Fraction(0), Fraction(1, 2), Fraction(1)),
    "fine": (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)),
}
_FLOAT_NORMALIZATION_TOL = 1e-9


def _chain_label(p01: Fraction, p10: Fraction, p1: Fraction) -> str:
    return f"p01={p01} p10={p10} p1={p1}"


def _values(dist: VisitDistribution) -> list:
    return [m.value for m in dist.mass]


def run_validation(n_max: int, grid: str) -> tuple[list[dict], dict]:
    """Cross-engine and symmetry checks over a rational parameter grid.

    Returns (case rows, summary).  Statuses: ``exact-equal`` for bit-exact
    checks, ``within-tol`` for the float normalization check, ``FAIL``
    otherwise (with both values in the detail field).
    """
    if not _is_int(n_max) or n_max < 1:
        raise ParameterError(f"--n-max must be a positive integer, got {n_max}")
    try:
        values = _GRIDS[grid]
    except KeyError:
        raise ParameterError(f"unknown grid {grid!r}; choose coarse or fine") from None
    cases: list[dict] = []

    def case(check: str, label: str, n: int, ok: bool, detail: str = "", tol: bool = False):
        status = ("within-tol" if tol else "exact-equal") if ok else "FAIL"
        cases.append(
            {"check": check, "chain": label, "n": n, "status": status, "detail": detail}
        )

    def per_k(check: str, label: str, n: int, left: list, right: list, names: tuple):
        """A case that two mass lists are equal at every k; its detail shows
        the first k where they differ."""
        bad = next((k for k, (a, b) in enumerate(zip(left, right)) if a != b), None)
        detail = "" if bad is None else f"k={bad}: {names[0]}={left[bad]} {names[1]}={right[bad]}"
        case(check, label, n, bad is None, detail)

    for p01, p10, p1 in product(values, repeat=3):
        label = _chain_label(p01, p10, p1)
        chain = build_chain(p01, p10, p1)
        swapped = swap_labels(chain)
        for n in range(1, n_max + 1):
            closed = visit_distribution(n, State.S1, chain)
            mass = _values(closed)
            oracle = _values(oracle_distribution(n, State.S1, chain))
            per_k("oracle-equality", label, n, mass, oracle, ("closed", "oracle"))

            total = closed.total().value
            case("normalization", label, n, total == 1, "" if total == 1 else f"sum={total}")

            s0 = _values(visit_distribution(n, State.S0, chain))
            per_k("complement-symmetry", label, n, s0, mass[::-1], ("S0", "S1[n-k]"))
            via_swap = _values(visit_distribution(n, State.S1, swapped))
            per_k("label-swap-symmetry", label, n, s0, via_swap, ("S0", "swapped-S1"))

    interior = [v for v in values if 0 < v < 1]
    for p01, p10, p1 in product(interior, repeat=3):
        label = _chain_label(p01, p10, p1)
        fchain = build_chain(p01, p10, p1, NumericMode.FLOAT)
        total = visit_distribution(n_max, State.S1, fchain).total().value
        dev = abs(total - 1.0)
        case(
            "float-normalization",
            label,
            n_max,
            dev <= _FLOAT_NORMALIZATION_TOL,
            f"sum={total!r}",
            tol=True,
        )

    summary: dict[str, int] = {"exact-equal": 0, "within-tol": 0, "FAIL": 0}
    for c in cases:
        summary[c["status"]] += 1
    return cases, summary


def cmd_validate(args) -> tuple:
    cases, summary = run_validation(args.n_max, args.grid)
    body = {"inputs": {"n_max": args.n_max, "grid": args.grid}, "cases": cases, "summary": summary}

    def text() -> None:
        print(f"validation grid={args.grid} n_max={args.n_max}: {len(cases)} cases")
        for c in cases:
            line = f"  [{c['status']:<11s}] {c['check']:<22s} n={c['n']:<3d} {c['chain']}"
            if c["detail"]:
                line += f"  {c['detail']}"
            print(line)
        print(
            f"summary: {summary['exact-equal']} exact-equal,"
            f" {summary['within-tol']} within-tol, {summary['FAIL']} FAIL"
        )

    code = EXIT_VALIDATION if summary["FAIL"] else EXIT_OK
    return code, body, ["check", "chain", "n", "status", "detail"], cases, text


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visitprob",
        description=(
            "Visit-count distributions for two-state Markov chains: closed form, "
            "exhaustive enumeration, and seeded simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    output.add_argument(
        "--timing", action="store_true", help="include wall-clock diagnostics in output"
    )

    chain = argparse.ArgumentParser(add_help=False)
    chain.add_argument("--p01", required=True, help="P(S0 -> S1), as 'a/b' or decimal")
    chain.add_argument("--p10", required=True, help="P(S1 -> S0), as 'a/b' or decimal")
    chain.add_argument("--p1", required=True, help="initial probability of S1")
    chain.add_argument("--n", required=True, type=int, help="horizon (occupied positions)")

    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument(
        "--mode",
        choices=("exact", "float", "logspace"),
        default=None,
        help="numeric backend (default: exact for N <= 64, logspace above)",
    )

    p = sub.add_parser("prob", parents=[chain, mode, output], help="one closed-form probability")
    p.add_argument("--k", required=True, type=int, help="visit count")
    p.add_argument("--state", type=int, choices=(0, 1), default=1, help="target state")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("dist", parents=[chain, mode, output], help="full closed-form distribution")
    p.add_argument("--state", type=int, choices=(0, 1), default=1, help="target state")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser(
        "oracle", parents=[chain, mode, output], help="exhaustive-enumeration distribution or census"
    )
    p.add_argument("--state", type=int, choices=(0, 1), default=1, help="target state")
    p.add_argument("--census", action="store_true", help="group paths by S1->S0 transition count")
    p.add_argument("--k", type=int, default=None, help="visit count (census)")
    p.add_argument("--initial", type=int, choices=(0, 1), default=None, help="initial state (census)")
    p.add_argument("--final", type=int, choices=(0, 1), default=None, help="final state (census)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", parents=[chain, output], help="seeded Monte Carlo histogram")
    p.add_argument("--trials", type=int, default=100_000, help="number of trajectories")
    p.add_argument("--seed", type=int, default=1, help="64-bit generator seed")
    p.add_argument("--state", type=int, choices=(0, 1), default=1, help="target state")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", parents=[output], help="cross-engine validation over a grid")
    p.add_argument("--n-max", dest="n_max", type=int, default=12, help="largest horizon checked")
    p.add_argument("--grid", choices=("coarse", "fine"), default="coarse", help="parameter grid")
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    process: building it costs about as much as a small exact query.
    Parsing leaves no state in it; each call gets a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, body, columns, rows, text = args.func(args)
    except EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParameterError, BackendMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VisitProbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    record = {"schema_version": SCHEMA_VERSION, "command": args.command, **body}
    if args.timing:
        record.setdefault("diagnostics", {})["elapsed_s"] = round(
            time.perf_counter() - started, 6
        )
    try:
        _emit(record, args.format, columns, rows, text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # exit does not raise again, and report it as a shell would SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
