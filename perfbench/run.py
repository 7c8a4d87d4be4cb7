"""Seeded end-to-end benchmark of copgof, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload test-c40 --seed 1 --seconds 20 --trace 0

The workloads are listed in BENCHMARK.json, with the reason each was
chosen. A run builds one round of tasks from --seed, runs its first task
once to warm up, then repeats the round, at least once, until --seconds
have passed. Every round has the same inputs, so the figures of a run
are medians over rounds and the counts per round are exact.

--trace 0 prints the end-to-end metrics. Their times are corrected for
contention from other tenants of the host (see speed.py); each round's
raw wall time, CPU time and corrected time are recorded side by side.
set-up time is the median corrected wall time of SETUP_PROBES fresh
interpreters that import copgof and build the inputs (see probe.py).

--trace 1 wraps the traced names (see spans.py) and prints per-layer
calls, self and total seconds and counts per round, from raw wall time.
The tracing overhead is the measured cost of one traced call times the
spans per round, over the round's wall time. Spans are kept in memory
and written to perfbench/results/<workload>.spans.jsonl at the end.

Outputs are checked on every run: each round must repeat the outputs of
the first round and of the warm-up exactly, p-values must lie in [0, 1]
and at least 80% of the bootstrap replicates must be used. At the
default seed every theta-hat, statistic and p-value is also compared with
perfbench/reference.json, and the CLI's ``test`` report on the golden
sample is compared byte for byte with tests/golden/test_report.json.
``--write-reference`` rewrites the reference entry of one workload at
the default seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. attempted counts the tests and bootstrap
replicates of one round, and failed the tests that raised and the
replicates dropped in it. Every round repeats the same inputs, so both
depend on the seed only, not on how many rounds fit in the time. A full
record of the run, with per-round wall and CPU time side by side, goes
to perfbench/results/<workload>.trace<0|1>.json.

Only this process and its set-up probes are measured, through
time.perf_counter, time.process_time and getrusage; nothing traces the
machine. COPULA_GOF_THREADS is forced to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
GOLDEN = ROOT / "tests" / "golden"

os.environ["COPULA_GOF_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np      # noqa: E402
import scipy            # noqa: E402

import copgof           # noqa: E402
from copgof import cli  # noqa: E402

if not Path(copgof.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"copgof was imported from {copgof.__file__}, not from {ROOT / 'src'}")

import spans            # noqa: E402
import speed            # noqa: E402
import workloads        # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 5
# theta-hat and statistics compare relative to max(1, |reference|) and
# p-values absolutely: a refit that moves the optimum within the solver's
# xatol=1e-8 on the unconstrained scale passes, and 2*(1-Phi(z)) is
# quantized near 1e-16, so tiny p-values need an absolute tolerance
VALUE_TOL = 1e-5
P_TOL = 1e-5
MIN_REPLICATE_FRACTION = 0.8
CLI_GOLDEN_ARGS = ["test", "--input", str(GOLDEN / "clayton_c20.csv"),
                   "--family", "clayton", "--b", "40", "--seed", "11"]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite this workload's reference outputs at the default seed")
    return p.parse_args(argv)


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "COPULA_GOF_THREADS": os.environ["COPULA_GOF_THREADS"],
        "measured": "this process and its set-up probes only; no machine-wide tracing",
        "worker_scaling": "omitted: the host has 2 shared cores",
    }


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and contention-corrected wall times of fresh interpreters that
    import copgof and build the workload's inputs. Each probe measures
    the host's speed in its own process and reports it (see probe.py)."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    raw, corrected = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        probe = json.loads(out.stdout)
        raw.append(wall)
        corrected.append((wall - probe["kernel_s"]) * probe["speed"])
    return raw, corrected


# ---------------------------------------------------------------- checks

class Checker:
    """Counts output comparisons and describes each mismatch."""

    def __init__(self):
        self.checks = 0
        self.mismatches: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.mismatches.append(what)

    def invariants(self, records: list[dict], where: str) -> None:
        for r in records:
            if "error" in r:
                continue
            if "p_value" in r:
                self.expect(0.0 <= r["p_value"] <= 1.0,
                            f"{where}: p={r['p_value']} outside [0, 1] for {r}")
                self.expect(r["b_used"] >= MIN_REPLICATE_FRACTION * r["b"],
                            f"{where}: b_used={r['b_used']} below 0.8*B for {r}")
            else:
                for key in ("rejection_rate", "selection_rate"):
                    self.expect(0.0 <= r[key] <= 1.0,
                                f"{where}: {key}={r[key]} outside [0, 1] for {r}")

    def same(self, got: list, want: list, where: str) -> None:
        self.expect(got == want, f"{where}: outputs differ between identical runs")

    def reference(self, got: list[list[dict]], want: list[list[dict]]) -> None:
        self.expect(len(got) == len(want),
                    f"reference: {len(got)} tasks, reference has {len(want)}")
        for t, (g_task, w_task) in enumerate(zip(got, want)):
            self.expect(len(g_task) == len(w_task),
                        f"reference: task {t} has {len(g_task)} records, "
                        f"reference has {len(w_task)}")
            for g, w in zip(g_task, w_task):
                for key, wv in w.items():
                    gv = g.get(key)
                    if isinstance(wv, float):
                        tol = P_TOL if key == "p_value" else VALUE_TOL * max(1.0, abs(wv))
                        ok = gv is not None and abs(gv - wv) <= tol
                    else:
                        ok = gv == wv
                    self.expect(ok, f"reference: task {t} {w.get('family')} "
                                    f"{w.get('kind')} {key}: got {gv!r}, want {wv!r}")

    def cli_golden(self) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(CLI_GOLDEN_ARGS)
        want = (GOLDEN / "test_report.json").read_text()
        self.expect(rc == 0 and buf.getvalue() == want,
                    f"cli golden: exit {rc}, report differs from tests/golden/test_report.json")


# ---------------------------------------------------------------- running

@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    corrected_s: float | None = None    # with a Speedometer only
    records: list[list[dict]] = field(default_factory=list)
    tally: workloads.Tally = field(default_factory=workloads.Tally)


def _run_round(tasks, tracer: spans.Tracer | None, meter: speed.Speedometer | None) -> Round:
    rnd = Round()
    with tracer.installed() if tracer else contextlib.nullcontext():
        w0, c0 = time.perf_counter(), time.process_time()
        for task in tasks:
            with tracer.root("bench.task") if tracer else contextlib.nullcontext():
                res = task.run()
            rnd.records.append(res.records)
            rnd.tally.add(res.tally)
        w1, c1 = time.perf_counter(), time.process_time()
    rnd.wall_s, rnd.cpu_s = w1 - w0, c1 - c0
    if meter:
        rnd.corrected_s = meter.corrected(w0, w1)
    return rnd


def _run_rounds(tasks, seconds: float, tracer, meter) -> list[Round]:
    """Repeat the round, at least once, until the time is up."""
    rounds = []
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < t_end:
        rounds.append(_run_round(tasks, tracer, meter))
    return rounds


def _end_to_end(rounds: list[Round], setup: list[float]) -> dict:
    per = rounds[0].tally
    times = [r.corrected_s for r in rounds]
    med = statistics.median
    return {
        "setup_s": (med(setup), "s"),
        "replicates_per_s": (med(per.replicates_used / t for t in times), "1/s"),
        "test_s_p50": (med(t / per.tests for t in times), "s"),
        "datasets_per_s": (med(per.datasets / t for t in times), "1/s"),
        "refits_per_s": (med(per.fits / t for t in times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_round(total: float, n: int):
    """Average over n identical rounds; exact integers stay integers."""
    if isinstance(total, int) and total % n == 0:
        return total // n
    return total / n


def _per_layer(rounds: list[Round], tracer: spans.Tracer) -> dict:
    n = len(rounds)
    out = {}
    for name, entry in tracer.summary().items():
        if name == "bench.task":
            continue
        for key, value in entry.items():
            out[f"{name}.{key}"] = (_per_round(value, n), "count" if key == "calls" else "s")
    c = tracer.counters
    fits = out["inference.fit_pmle.calls"][0] * n
    out["copulas.loglik_vec.rows"] = (_per_round(c["copulas.loglik_vec.rows"], n), "count")
    out["inference.fit_pmle.evals_per_fit"] = (
        c["inference.fit_pmle.evaluations"] / fits if fits else 0.0, "evals/fit")
    out["inference.fit_pmle.nonconverged"] = (
        _per_round(c["inference.fit_pmle.nonconverged"], n), "count")
    replicates = c["bootstrap.replicates"]
    generated = out["bootstrap.generate_bootstrap_dataset.calls"][0] * n
    out["bootstrap.replicates"] = (_per_round(replicates, n), "count")
    out["bootstrap.retries"] = (_per_round(generated - replicates, n), "count")
    wall = statistics.fmean(r.wall_s for r in rounds)
    spans_per_round = _per_round(len(tracer.spans), n)
    out["round.wall_s"] = (wall, "s")
    out["round.cpu_s"] = (statistics.fmean(r.cpu_s for r in rounds), "s")
    out["round.spans"] = (spans_per_round, "count")
    out["tracing_overhead_frac"] = (spans_per_round * spans.span_cost() / wall, "fraction")
    return out


def _write_reference(workload: str, tasks) -> None:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[workload] = {"seed": DEFAULT_SEED, "tasks": [t.run().records for t in tasks]}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workload} reference at seed {DEFAULT_SEED} to {REFERENCE}")


def main(argv=None) -> int:
    args = _parse(argv)
    build = workloads.WORKLOADS[args.workload]
    if args.write_reference:
        _write_reference(args.workload, build(DEFAULT_SEED))
        return 0

    checker = Checker()
    checker.cli_golden()
    setup_raw, setup = _setup_seconds(args.workload, args.seed) if args.trace == 0 else ([], [])
    tasks = build(args.seed)
    warm = tasks[0].run().records

    tracer = spans.Tracer() if args.trace else None
    meter = None if args.trace else speed.Speedometer()
    t0 = time.perf_counter()
    with meter.running() if meter else contextlib.nullcontext():
        rounds = _run_rounds(tasks, args.seconds, tracer, meter)

    first = rounds[0].records
    checker.same(first[0], warm, "warm-up vs round 0, task 0")
    per = rounds[0].tally
    for i, rnd in enumerate(rounds[1:], start=1):
        checker.same(rnd.records, first, f"round {i} vs round 0")
        checker.same(vars(rnd.tally), vars(per), f"round {i} vs round 0 counts")
    for t, records in enumerate(first):
        checker.invariants(records, f"task {t}")
    if args.seed == DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text()).get(args.workload)
        checker.expect(ref is not None, f"reference.json has no entry for {args.workload}")
        if ref is not None:
            checker.reference(first, ref["tasks"])

    if tracer is None:
        metrics = _end_to_end(rounds, setup)
    else:
        metrics = _per_layer(rounds, tracer)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(RESULTS / f"{args.workload}.spans.jsonl", t0)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "setup_probes_s": setup_raw,
        "setup_probes_corrected_s": setup,
        "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "corrected_s": r.corrected_s}
                   for r in rounds],
        "per_round": vars(per),
        "failed_frac": per.failed / per.attempted,
        "output_checks": checker.checks,
        "output_mismatches": len(checker.mismatches),
        "mismatches": checker.mismatches[:50],
        "metrics": metrics,
    }
    (RESULTS / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(rounds)} rounds of {len(tasks)} tasks")
    print("environment " + json.dumps(record["environment"]))
    for i, r in enumerate(rounds):
        corrected = f"  corrected {r.corrected_s:8.4f} s" if meter else ""
        print(f"round {i:2d}  wall {r.wall_s:8.4f} s  cpu {r.cpu_s:8.4f} s{corrected}")
    print(f"per round: {per.tests} tests ({per.failed_tests} failed), "
          f"{per.replicates_used}/{per.replicates} replicates used, "
          f"{per.fits} fits, {per.datasets} datasets, "
          f"failed_frac {per.failed}/{per.attempted} = {per.failed / per.attempted!r}")
    print(f"output checks {checker.checks}, output_mismatches {len(checker.mismatches)}")
    for line in checker.mismatches[:20]:
        print(f"  MISMATCH {line}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": not checker.mismatches, "attempted": per.attempted,
                      "failed": per.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
