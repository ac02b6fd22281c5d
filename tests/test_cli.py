import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from visitprob import cli
from visitprob.chain_model import State, VisitQuery, build_chain
from visitprob.closed_form import _Evaluator, _pair_masses, summation_limits, visit_probability
from visitprob.numerics import NumericMode


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def module_env():
    """The environment of a fresh interpreter that imports the same
    visitprob as this process, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    """``python -m visitprob`` in a fresh interpreter (``module_env``)."""
    return subprocess.run(
        [sys.executable, "-m", "visitprob", *argv],
        capture_output=True,
        text=True,
        env=module_env(),
    )


SYM = ["--p01", "1/2", "--p10", "1/2", "--p1", "1/2"]
GENERIC = ["--p01", "3/10", "--p10", "2/5", "--p1", "1/2"]


class TestProb:
    def test_uniform_chain_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", *SYM, "--n", "4", "--k", "2", "--mode", "exact", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["results"]["exact"] == "3/8"
        assert record["schema_version"] == "1"

    def test_start_in_s1_single_transition(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--p01", "1/4", "--p10", "2/5", "--p1", "1",
            "--n", "2", "--k", "1", "--state", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["exact"] == "2/5"  # p10

    def test_k_above_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "prob", *SYM, "--n", "8", "--k", "9")
        assert code == 2
        assert "k must be an integer in [0, 8], got 9" in err

    def test_bad_probability_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "prob", "--p01", "1.2", "--p10", "1/2", "--p1", "1/2", "--n", "2", "--k", "1"
        )
        assert code == 2
        assert "p01" in err

    def test_float_overflow_is_numerical_error(self, capsys):
        code, _, err = run_cli(
            capsys, "prob", *GENERIC, "--n", "1036", "--k", "518", "--mode", "float"
        )
        assert code == 4
        assert "N=1036" in err and "--mode logspace" in err

    def test_default_mode_rule(self, capsys):
        _, out, _ = run_cli(capsys, "prob", *SYM, "--n", "64", "--k", "1", "--format", "json")
        assert json.loads(out)["inputs"]["mode"] == "exact"
        _, out, _ = run_cli(capsys, "prob", *SYM, "--n", "65", "--k", "1", "--format", "json")
        assert json.loads(out)["inputs"]["mode"] == "logspace"

    def test_round_trip_reproduces_results(self, capsys):
        _, out, _ = run_cli(
            capsys, "prob", *GENERIC, "--n", "9", "--k", "4", "--format", "json"
        )
        first = json.loads(out)
        inputs = first["inputs"]
        _, out2, _ = run_cli(
            capsys,
            "prob",
            "--p01", inputs["p01"], "--p10", inputs["p10"], "--p1", inputs["p1"],
            "--n", str(inputs["n"]), "--k", str(inputs["k"]),
            "--state", str(inputs["state"]), "--mode", inputs["mode"],
            "--format", "json",
        )
        assert json.loads(out2)["results"] == first["results"]


class TestDist:
    def test_uniform_chain_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", *SYM, "--n", "4", "--mode", "exact", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# visitprob schema 1"
        assert lines[1].split(",")[0] == "k"
        body = [line.split(",") for line in lines[2:]]
        assert [row[2] for row in body[:5]] == ["1/16", "1/4", "3/8", "1/4", "1/16"]
        assert body[5][0] == "sum"

    def test_single_position(self, capsys):
        _, out, _ = run_cli(capsys, "dist", *GENERIC, "--n", "1", "--format", "json")
        rows = json.loads(out)["rows"]
        assert [r["exact"] for r in rows] == ["1/2", "1/2"]

    def test_matches_oracle_rows(self, capsys):
        _, closed, _ = run_cli(capsys, "dist", *GENERIC, "--n", "8", "--format", "json")
        _, brute, _ = run_cli(capsys, "oracle", *GENERIC, "--n", "8", "--format", "json")
        closed_rows = json.loads(closed)["rows"]
        brute_rows = json.loads(brute)["rows"]
        assert [r["exact"] for r in closed_rows] == [r["exact"] for r in brute_rows]

    def test_csv_is_projection_of_json(self, capsys):
        """Column by column, CSV prints each JSON row's fields and an empty
        cell where a row has none (every ``dist`` and ``oracle`` row but the
        sum row has no deviation), for prob, dist, oracle and the census in
        every mode.  A census with no matching path prints the header of one
        with paths: the term fields come from the mode, not from a row."""
        census = ["oracle", "--census", *GENERIC, "--n", "4", "--initial", "1", "--final", "0"]
        runs = {
            "prob": ["prob", *GENERIC, "--n", "5", "--k", "2"],
            "dist": ["dist", *GENERIC, "--n", "5"],
            "oracle": ["oracle", *GENERIC, "--n", "5"],
            "census": [*census, "--k", "2"],
            "empty census": [*census, "--k", "0"],
        }
        for mode in ("exact", "float", "logspace"):
            headers, empty_cells = {}, 0
            for name, argv in runs.items():
                argv = [*argv, "--mode", mode]
                _, jtext, _ = run_cli(capsys, *argv, "--format", "json")
                _, ctext, _ = run_cli(capsys, *argv, "--format", "csv")
                record = json.loads(jtext)
                if name == "prob":
                    rows = [{"k": record["inputs"]["k"], **record["results"]}]
                elif name in ("dist", "oracle"):
                    rows = [*record["rows"], {"k": "sum", **record["normalization"]}]
                else:
                    rows = record["rows"]
                comment, header, *lines = ctext.splitlines()
                assert comment == "# visitprob schema 1"
                headers[name] = header = header.split(",")
                assert len(lines) == len(rows)
                for row, line in zip(rows, lines):
                    assert set(row) <= set(header)
                    cells = line.split(",")
                    assert cells == [str(row.get(column, "")) for column in header]
                    empty_cells += cells.count("")
            assert headers["empty census"] == headers["census"]
            assert headers["census"][-1] == {"exact": "term_exact", "float": "term_probability",
                                             "logspace": "term_log"}[mode]
            assert empty_cells > 0

    def test_normalization_row(self, capsys):
        _, out, _ = run_cli(capsys, "dist", *GENERIC, "--n", "6", "--format", "json")
        norm = json.loads(out)["normalization"]
        assert norm["exact"] == "1/1"
        assert float(norm["deviation"]) == 0.0


class TestOracleCommand:
    def test_census_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--census", *GENERIC,
            "--n", "8", "--k", "4", "--initial", "1", "--final", "0", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {r["j"]: r["count"] for r in rows} == {1: 1, 2: 9, 3: 9, 4: 1}
        assert rows[1]["monomial"] == "p11^2 p10^2 p01 p00^2"

    def test_census_requires_cell_flags(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--census", *GENERIC, "--n", "8")
        assert code == 2 and "--census" in err

    def test_single_position(self, capsys):
        _, out, _ = run_cli(capsys, "oracle", *GENERIC, "--n", "1", "--format", "json")
        assert [r["exact"] for r in json.loads(out)["rows"]] == ["1/2", "1/2"]

    def test_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", *GENERIC, "--n", "26")
        assert code == 3
        assert "2**26" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_census_past_the_recursion_depth(self, capsys, monkeypatch, fmt):
        monkeypatch.setenv("VISITPROB_ENUM_GUARD", "2000")
        code, out, err = run_cli(
            capsys, "oracle", "--census", *GENERIC, "--n", "1500", "--k", "1",
            "--initial", "1", "--final", "0", "--format", fmt,
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            rows = json.loads(out)["rows"]
            assert [(r["j"], r["count"], r["n00"]) for r in rows] == [(1, 1, 1498)]

    @pytest.mark.parametrize("n, k, paths", [("8", "4", 20), ("14285", "1", 1)])
    def test_census_diagnostics_count_the_paths_built(self, capsys, monkeypatch, n, k, paths):
        """``diagnostics.paths`` is the sum of the cells' counts, the text
        output's "total paths".  At N = 14285, 2**N would pass the int-to-str
        digit limit, and the JSON record would not print."""
        monkeypatch.setenv("VISITPROB_ENUM_GUARD", "20000")
        census = ["oracle", "--census", *GENERIC, "--n", n, "--k", k]
        census += ["--initial", "1", "--final", "0"]
        code, out, err = run_cli(capsys, *census, "--format", "json")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["diagnostics"] == {"paths": paths, "cells": len(record["rows"])}
        assert sum(r["count"] for r in record["rows"]) == paths
        assert run_cli(capsys, *census)[1].endswith(f"  total paths: {paths}\n")

    def test_distribution_past_the_recursion_depth_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("VISITPROB_ENUM_GUARD", "2000")
        code, out, err = run_cli(capsys, "oracle", *GENERIC, "--n", "1500")
        assert (code, out) == (3, "")
        assert err.startswith("error: horizon 1500 ") and "Traceback" not in err


class TestSimulateCommand:
    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", *GENERIC, "--n", "6", "--trials", "1000", "--seed", "42",
                "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_output_matches_frozen_digest(self, capsys):
        """The stdout bytes of one fixed run.  Its counts and frequencies
        were frozen when the simulator ran one trajectory at a time; its
        float reference column and total variation follow the closed form's
        float bits."""
        code, out, _ = run_cli(
            capsys, "simulate", *GENERIC, "--n", "40", "--trials", "5000",
            "--seed", "18446744073709551615", "--format", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "be47c8aead3a8dfbdeb3aef4bfc4e6d4d5fc157b4f2d41da638abdc839997ce6"
        )

    def test_deterministic_chain_matches_closed_form(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--p01", "1/4", "--p10", "0", "--p1", "1",
            "--n", "5", "--trials", "500", "--seed", "3", "--format", "json",
        )
        record = json.loads(out)
        assert record["results"]["counts"][-1] == 500
        assert float(record["results"]["total_variation"]) == 0.0

    def test_inputs_echoed(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", *GENERIC, "--n", "4", "--trials", "100", "--seed", "9",
            "--format", "json",
        )
        inputs = json.loads(out)["inputs"]
        assert inputs["trials"] == 100 and inputs["seed"] == 9
        assert inputs["p01"] == "3/10"

    def test_float_overflow_falls_back_to_logspace_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", *GENERIC, "--n", "1100", "--trials", "3", "--format", "json",
        )
        assert code == 0
        assert sum(json.loads(out)["results"]["counts"]) == 3

    def test_logspace_reference_is_the_logspace_distribution(self, capsys):
        """Past the float horizon the reference is the chain's LOGSPACE
        distribution, converted from the exact parameters as ``dist`` builds
        it, so the two print the same doubles."""
        _, sim, _ = run_cli(
            capsys, "simulate", *GENERIC, "--n", "1100", "--trials", "3", "--format", "json",
        )
        _, dist, _ = run_cli(
            capsys, "dist", *GENERIC, "--n", "1100", "--mode", "logspace", "--format", "json",
        )
        reference = [row["reference"] for row in json.loads(sim)["rows"]]
        assert reference == [row["probability"] for row in json.loads(dist)["rows"]]


class TestValidateCommand:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--n-max", "3", "--grid", "coarse", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["summary"]["FAIL"] == 0
        assert record["summary"]["exact-equal"] > 0
        statuses = {c["status"] for c in record["cases"]}
        assert statuses <= {"exact-equal", "within-tol"}
        assert {c["check"] for c in record["cases"]} == {
            "oracle-equality",
            "normalization",
            "complement-symmetry",
            "label-swap-symmetry",
            "float-normalization",
        }

    def test_nmax_zero_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--n-max", "0")
        assert code == 2 and "n-max" in err

    def test_mutated_engine_fails(self, capsys, monkeypatch):
        """Negative control: a perturbed closed form must be caught."""
        real = cli.visit_distribution

        def broken(n, target, chain):
            d = real(n, target, chain)
            if n == 2 and target is State.S1:
                mass = list(d.mass)
                mass[0], mass[-1] = mass[-1], mass[0]
                return type(d)(d.horizon_n, d.target, d.mode, tuple(mass))
            return d

        monkeypatch.setattr(cli, "visit_distribution", broken)
        code, out, _ = run_cli(
            capsys, "validate", "--n-max", "2", "--grid", "coarse", "--format", "json"
        )
        assert code == 1
        record = json.loads(out)
        assert record["summary"]["FAIL"] > 0
        failing = [c for c in record["cases"] if c["status"] == "FAIL"]
        assert failing and all(c["detail"] for c in failing)


@pytest.mark.parametrize("mode", list(NumericMode))
@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_term_count_is_the_evaluators_count(mode, n):
    """``diagnostics.terms`` is the closed form's count of the interior terms
    behind one probability, 2c1 + c2 + c3; a boundary k has none and is
    reported as 1.  Every mode evaluates one pair (m, n-m) at once from three
    pair sums: the S1->S0 and S0->S1 branches share one sum of c1 terms,
    formed once for both masses, so the pair evaluates the count of either
    mass less c1.  A whole distribution sums every pair so in FLOAT and
    LOGSPACE; EXACT sums only the pairs m = 1 and 2 so and counts one
    recurrence step per sum for every other m, so ``diagnostics.terms``
    counts the formula's terms, not the engine's work."""
    ev = _Evaluator(build_chain("3/10", "2/5", "1/2", mode), n)
    ev.visit_probability(0, State.S1)
    ev.visit_probability(n, State.S1)
    assert (cli._term_count(0, n), cli._term_count(n, n), ev.terms_evaluated) == (1, 1, 0)
    pairs = range(1, n // 2 + 1)
    for m in pairs:
        before = ev.terms_evaluated
        ev._pair((m, n - m) if 2 * m < n else (m,))
        evaluated = ev.terms_evaluated - before
        shared = summation_limits(m, n).c1
        assert cli._term_count(m, n) == cli._term_count(n - m, n) == evaluated + shared
    alone = [m for m in pairs if mode is not NumericMode.EXACT or m < 3]
    before = ev.terms_evaluated
    _pair_masses(ev, pairs)
    assert ev.terms_evaluated - before == sum(
        cli._term_count(m, n) - summation_limits(m, n).c1 for m in alone
    ) + 3 * (len(pairs) - len(alone))


def test_term_count_formula_is_the_summation_limits():
    """4*min(k, n-k) - 1 - [2k = n] is 2c1 + c2 + c3 of every interior k."""
    for n in range(2, 301):
        for k in range(1, n):
            lim = summation_limits(k, n)
            assert cli._term_count(k, n) == 2 * lim.c1 + lim.c2 + lim.c3, (k, n)


class TestTextOutput:
    def test_prob_text(self, capsys):
        _, out, _ = run_cli(capsys, "prob", *SYM, "--n", "4", "--k", "2")
        assert "3/8" in out

    def test_timing_flag_adds_diagnostics(self, capsys):
        _, out, _ = run_cli(
            capsys, "prob", *SYM, "--n", "4", "--k", "2", "--format", "json", "--timing"
        )
        assert "elapsed_s" in json.loads(out)["diagnostics"]


def test_module_entry_point():
    proc = run_module("prob", *SYM, "--n", "4", "--k", "2", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["exact"] == "3/8"


def test_closed_pipe_exits_quietly():
    """A reader that stops after one line, as ``| head -1`` does, ends the
    run with 141 (128 + SIGPIPE, as a shell reports it) and no traceback,
    not with 1, which means a validation failure.  The record (about
    280 KiB) is far larger than a pipe's buffer, so the write does fail."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "visitprob", "dist", *GENERIC, "--n", "390",
         "--mode", "exact", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), first, err) == (141, b"{\n", b"")


# One process runs these in order through cli.main, which reuses one parser.
# Each stdout is pinned by its sha256 (the usage error prints none).
PARSER_REUSE_SEQUENCE = [
    (
        ["prob", *GENERIC, "--n", "9", "--k", "4", "--timing"],
        0,
        "10a6e7e068c2283d1a241461f723febe27f2a20baab2197b9775f6cdd314e59f",
    ),
    (
        ["prob", *GENERIC, "--n", "9", "--k", "4", "--format", "json"],
        0,
        "3608538fffb891c7a3e4ee2c57dacc0d1f26e236041c48f3d8414ceca70bddb5",
    ),
    (
        ["prob", *GENERIC, "--n", "9", "--k", "four", "--format", "json"],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["dist", *GENERIC, "--n", "6", "--state", "0", "--format", "csv"],
        0,
        "20f45bdc40ae08c4494b52da60bf7f597e36f9968bfa9afd2b22607b76023503",
    ),
    (
        ["validate", "--n-max", "3", "--format", "json"],
        0,
        "fc8be658ac207006a3f930e2dd89e86bb1e07f5eadecb8b2281eec3a2f9fce2b",
    ),
]


def test_parser_reuse_leaks_nothing_between_calls(capsys, monkeypatch):
    """A flag, a format or a failed parse in one call must not show in the
    next: each call's output equals a fresh interpreter's, byte for byte."""
    # argparse wraps usage text to the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    for argv, want_code, want_digest in PARSER_REUSE_SEQUENCE:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_module(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == want_code
        assert hashlib.sha256(out.encode()).hexdigest() == want_digest


# sha256 of `dist --n 1000` stdout for the GENERIC chain (default logspace,
# and float), each equal to the one-process loop's.  Large distributions
# fork a child; these runs write to a pipe with PYTHONUNBUFFERED unset, so
# stdout is block-buffered and a child that flushed its copy of the buffer
# would print the text twice.
LARGE_DIST_RUNS = [
    (
        [],
        "P(N1 = k | N = 1000)",
        "0199ca103f2e7ce669692ba01a0cbe78f9055553a63490eb875cff1d6fda142a",
    ),
    (
        ["--mode", "float", "--format", "json"],
        '"schema_version"',
        "6e59add48644320561a47679ed354dc67860303543aa16cd583b8fa0add823c1",
    ),
]


@pytest.mark.parametrize("extra, marker, want_digest", LARGE_DIST_RUNS)
def test_large_dist_output_printed_once(monkeypatch, extra, marker, want_digest):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    proc = run_module("dist", "--n", "1000", *GENERIC, *extra)
    assert proc.returncode == 0
    assert proc.stdout.count(marker) == 1
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want_digest


# Chains whose exact values have more digits than the interpreter converts
# between int and str (sys.get_int_max_str_digits(), 4300 by default): the
# skewed chain's masses at N = 2300, and every mass of a chain with p1 = 1e-5000.
SKEWED_2300 = [
    "--p01", "13/97", "--p10", "41/89", "--p1", "29/83", "--n", "2300", "--mode", "exact"
]
TINY_P1 = ["--p01", "1/3", "--p10", "1/2", "--p1", "1e-5000", "--n", "3"]
FORMATS = ("text", "json", "csv")


class TestLongIntegers:
    @pytest.mark.parametrize(
        "argv, want_code",
        [
            (["dist", *SKEWED_2300, "--format", "csv"], 0),
            *((["prob", *SKEWED_2300, "--k", "1000", "--format", f], 0) for f in FORMATS),
            *((["dist", *TINY_P1, "--format", f], 0) for f in FORMATS),
            (["dist", "--p01", "1e5000", "--p10", "1/2", "--p1", "1/2", "--n", "3"], 2),
            (["oracle", "--p01", "1/3", "--p10", "1/2", "--p1", "1/2", "--n", "20000"], 3),
        ],
    )
    def test_exit_code_without_traceback(self, capsys, argv, want_code):
        code, _, err = run_cli(capsys, *argv)
        assert code == want_code
        assert "Traceback" not in err

    def test_errors_name_the_input_as_given(self, capsys):
        for p01 in ("1e5000", "1e400"):
            _, _, err = run_cli(
                capsys, "dist", "--p01", p01, "--p10", "1/2", "--p1", "1/2", "--n", "3"
            )
            assert err == f"error: p01 must be in [0, 1], got {p01}\n"
        _, _, err = run_cli(capsys, "oracle", *SYM, "--n", "20000")
        assert err == (
            "error: horizon 20000 would enumerate 2**20000 trajectories, above the guard of 25\n"
        )

    def test_echoed_input_reruns_verbatim(self, capsys):
        _, first, _ = run_cli(capsys, "dist", *TINY_P1, "--format", "json")
        p1 = json.loads(first)["inputs"]["p1"]
        assert len(p1) > 5000
        argv = [a if a != "1e-5000" else p1 for a in TINY_P1]
        assert run_cli(capsys, "dist", *argv, "--format", "json")[1] == first

    def test_long_exact_field_is_the_library_fraction(self, capsys):
        _, out, _ = run_cli(capsys, "prob", *SKEWED_2300, "--k", "1000", "--format", "json")
        num, den = json.loads(out)["results"]["exact"].split("/")
        assert len(num) > 4300 and len(den) > 4300
        chain = build_chain("13/97", "41/89", "29/83")
        want = visit_probability(VisitQuery(2300, 1000), chain).value
        assert (int(Decimal(num)), int(Decimal(den))) == (want.numerator, want.denominator)
