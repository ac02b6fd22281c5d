"""Spans around the calls into each visitprob layer, for the traced run.

Wrappers are installed wherever a layer function is looked up when it is
called: its own module and every module that imported it by name
(``closed_form`` binds ``BinomialTable`` and ``log_binomial``, ``cli``
binds ``visit_distribution`` and ``build_chain``; ``oracle`` reaches the
kernels through ``kernels.``).  They are removed again after each traced
pass, so untraced passes run the program unmodified.

Each call records one span (name, start, end, parent) in memory.  A span's
self time is its duration minus the time of its child spans.  The one hot
leaf, ``log_binomial`` (two calls per logspace term, about 2e6 per
distribution at N=1000), is aggregated per call into counters instead of
being stored span by span; its time still counts as child time of the
enclosing span.  The wrappers' own cost lands in the self time of the
span that encloses them, which is why ``trace.overhead_s`` is reported:
at N=1000 the logspace self time roughly doubles under tracing.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

MODES = ("exact", "float", "logspace")

# ratio metric -> (time span, work counter), over all traced passes
_RATIOS = {
    **{
        f"closed_form.ns_per_term.{m}": (
            f"closed_form.visit_distribution.{m}",
            f"closed_form.terms_computed.{m}",
        )
        for m in MODES
    },
    "kernels.simulate_counts.ns_per_draw": (
        "kernels.simulate_counts",
        "kernels.simulate_counts.draws",
    ),
    "kernels.enumerate_visit_mass.ns_per_path": (
        "kernels.enumerate_visit_mass",
        "kernels.enumerate_visit_mass.paths",
    ),
}


def _chain_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["chain"]


class Tracer:
    """In-memory spans and counters for the calls into visitprob."""

    def __init__(self, program) -> None:
        self.program = program
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.leaves: set[str] = set()
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def _wrap(self, name, fn, work=None):
        """``name`` is a string or a function of the call's arguments;
        ``work(args, kwargs)`` returns counters to add for the call."""

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if work is not None:
                # Counting is tracer work: charge it to no layer's self time.
                start = perf_counter()
                self.counts.update(work(args, kwargs))
                if self._stack:
                    self._stack[-1][2] += perf_counter() - start
            return self._span(label, fn, args, kwargs)

        return wrapper

    def _leaf(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            duration = perf_counter() - start
            calls[name] += 1
            self_s[name] += duration
            if stack:
                stack[-1][2] += duration
            return result

        self.leaves.add(name)
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, attr, wrapper, *modules):
        original = getattr(modules[0], attr)
        for module in modules:
            if module is not None and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._restore.append((module, attr, original))

    def install(self) -> None:
        p = self.program
        cm, cb, nu, cf = p.chain_model, p.combinatorics, p.numerics, p.closed_form
        orc, ke, pkg = p.oracle, p.kernels, p.visitprob
        cli = sys.modules.get("visitprob.cli")
        limits = cf.summation_limits

        def terms(args, kwargs):
            n = args[0]
            total = 0
            for k in range(1, n):
                lim = limits(k, n)
                total += 2 * lim.c1 + lim.c2 + lim.c3
            return {f"closed_form.terms_computed.{_chain_arg(args, kwargs).mode.value}": total}

        w = self._wrap
        self._patch("build_chain", w("chain_model.build_chain", cm.build_chain), cm, cli, pkg)
        self._patch(
            "BinomialTable",
            w(
                "combinatorics.BinomialTable",
                cf.BinomialTable,
                lambda a, kw: {"combinatorics.BinomialTable.cells": (a[0] + 1) * (a[0] + 2) // 2},
            ),
            cf,
        )
        self._patch(
            "log_binomial", self._leaf("combinatorics.log_binomial", cb.log_binomial), cf, cb, pkg
        )
        self._patch("sum_values", w("numerics.sum_values", nu.sum_values), nu, cf, pkg)
        self._patch(
            "visit_distribution",
            w(
                lambda a, kw: f"closed_form.visit_distribution.{_chain_arg(a, kw).mode.value}",
                cf.visit_distribution,
                terms,
            ),
            cf,
            cli,
            pkg,
        )
        self._patch(
            "visit_probability",
            w("closed_form.visit_probability", cf.visit_probability),
            cf,
            cli,
            pkg,
        )
        self._patch(
            "simulate",
            w(
                "oracle.simulate",
                orc.simulate,
                lambda a, kw: {"oracle.simulate.trajectories": a[2]},
            ),
            orc,
            cli,
            pkg,
        )
        self._patch(
            "simulate_counts",
            w(
                "kernels.simulate_counts",
                ke.simulate_counts,
                lambda a, kw: {"kernels.simulate_counts.draws": a[0] * a[4]},
            ),
            ke,
        )
        self._patch(
            "oracle_distribution",
            w(
                "oracle.oracle_distribution",
                orc.oracle_distribution,
                lambda a, kw: {"oracle.oracle_distribution.paths": 2 ** a[0]},
            ),
            orc,
            cli,
            pkg,
        )
        self._patch("census_by_j", w("oracle.census_by_j", orc.census_by_j), orc, cli, pkg)
        self._patch(
            "enumerate_visit_mass",
            w(
                "kernels.enumerate_visit_mass",
                ke.enumerate_visit_mass,
                lambda a, kw: {"kernels.enumerate_visit_mass.paths": 2 ** a[0]},
            ),
            ke,
        )
        if cli is not None:
            main = cli.main

            def traced_main(*args, **kwargs):
                out = sys.stdout
                before = out.tell()
                try:
                    return self._span("cli.main", main, args, kwargs)
                finally:
                    self.counts["cli.main.output_bytes"] += out.tell() - before

            self._patch("main", traced_main, cli)

    def remove(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(
        self, declared: list[dict], traced_passes: int, overhead_s: float
    ) -> dict[str, tuple[float, str]]:
        """The ``declared`` per-layer metrics (BENCHMARK.json's ``per_layer``
        entries), per traced pass unless a metric is a ratio."""
        out = {}
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            if name in _RATIOS:
                span, work = _RATIOS[name]
                base = self.counts[work]
                value = self.self_s[span] * 1e9 / base if base else 0.0
            elif name == "trace.overhead_s":
                value = overhead_s
            else:
                layer, _, field = name.rpartition(".")
                if field == "self_s":
                    value = self.self_s[layer] / traced_passes
                elif field == "calls":
                    value = self.calls[layer] / traced_passes
                else:
                    value = self.counts[name] / traced_passes
            out[name] = (value, unit)
        return out

    def write(self, path) -> None:
        """Spans with times relative to the first span, plus leaf totals."""
        origin = self.spans[0][1] if self.spans else 0.0
        record = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [(n, s - origin, e - origin, p) for n, s, e, p in self.spans],
            "leaves": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in self.leaves
            },
        }
        with open(path, "w") as f:
            json.dump(record, f)
