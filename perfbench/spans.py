"""In-memory span tracing from the benchmark's own files.

Each traced name is wrapped at the module where its callers look it up
(``bootstrap.ordered_map``, not ``_parallel.ordered_map``), so the
package itself carries no instrumentation. A span records its name,
start, end and the index of the span that was open when it began. The
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from copgof import bootstrap, copulas, inference, numerics, simulation, survival

PIOS_SPAN = "inference.compute_statistic.pios"


def _kind_name(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return f"inference.compute_statistic.{kind.lower()}"


def _count_rows(counters, args, kwargs, result):
    u1 = args[2] if len(args) > 2 else kwargs["u1"]
    counters["copulas.loglik_vec.rows"] += int(np.size(u1))


def _count_fit(counters, args, kwargs, result):
    counters["inference.fit_pmle.evaluations"] += result.n_evaluations
    counters["inference.fit_pmle.nonconverged"] += int(not result.converged)


def _count_replicates(counters, args, kwargs, result):
    # bootstrap_reports hands ordered_map one task per replicate
    counters["bootstrap.replicates"] += len(result)


def _label(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[1]}.{attr}"


# (module, attribute, span name or None for "module.attribute", hook)
TRACED = (
    (simulation, "ordered_map", None, None),
    (simulation, "generate_scenario_dataset", None, None),
    (bootstrap, "bootstrap_reports", None, None),
    (bootstrap, "ordered_map", None, _count_replicates),
    (bootstrap, "generate_bootstrap_dataset", None, None),
    (copulas, "sample_pairs", None, None),
    (survival, "pseudo_observations", None, None),
    (survival, "kaplan_meier", None, None),
    (survival, "empirical_kendall_tau", None, None),
    (copulas, "tau_to_theta", None, None),
    (inference, "fit_pmle", None, _count_fit),
    (numerics, "maximize_1d", None, None),
    (copulas, "loglik_vec", None, _count_rows),
    (inference, "compute_statistic", _kind_name, None),
    (copulas, "score_vec", None, None),
    (copulas, "hessian_vec", None, None),
    (numerics, "binorm_cdf", None, None),
)

SPAN_NAMES = tuple(
    [_label(m, attr) for m, attr, name, _ in TRACED if name is None]
    + [f"inference.compute_statistic.{k}" for k in inference.STATISTIC_KINDS])


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """An explicit span around one benchmark task."""
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced name by its wrapper; restore on exit."""
        originals = []
        try:
            for module, attr, name, hook in TRACED:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name or _label(module, attr), hook))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus the time its child spans
        cover. ``inference.fit_pmle`` calls nested under a pios
        statistic are also summed apart as leave-one-out refits.
        """
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        loo = {"calls": 0, "total_s": 0.0}
        in_pios = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
            under = parent >= 0 and (in_pios[parent] or self.spans[parent][0] == PIOS_SPAN)
            in_pios.append(under)
            if under and name == "inference.fit_pmle":
                loo["calls"] += 1
                loo["total_s"] += dur
        out["inference.fit_pmle.loo"] = loo
        return out

    def write(self, path, t0: float) -> None:
        """One JSON array per line: name, start and end in seconds after
        t0, parent line index (-1 for a root)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent]) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one,
    median of a few repeats."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop", None)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))
