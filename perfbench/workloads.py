"""Benchmark workloads: seeded inputs and the tasks of one round.

A round is a fixed list of tasks built from the seed. Every round of a
run repeats the same inputs, so counts per round are exact and any
difference between the outputs of two rounds is a determinism failure.
Each workload calls the public library API the way a user or a Monte
Carlo study does. B and the number of samples per round are sized so
that the cost differences between samples of different seeds average
out within a round: a round takes one and a half to five seconds on a
2-core host, except gaussian-c40's ten tests of about 1.4 seconds each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from copgof import bootstrap, numerics, simulation, survival
from copgof.bootstrap import BootstrapConfig, BootstrapError
from copgof.copulas import Family, LikelihoodError
from copgof.inference import InferenceError
from copgof.simulation import Scenario, StudyConfig

STAT_ERRORS = (InferenceError, LikelihoodError, BootstrapError,
               numerics.NumericsError, survival.SurvivalError)

ARCHIMEDEAN = (Family.CLAYTON, Family.FRANK, Family.JOE, Family.GUMBEL)
GOF_KINDS = ("ir", "white", "logim")
TAU = 0.5


@dataclass
class Tally:
    """Work done by one task or round, counted from the returned outputs."""
    tests: int = 0
    failed_tests: int = 0
    replicates: int = 0        # bootstrap replicates requested
    replicates_used: int = 0
    fits: int = 0              # pseudo-MLE fits that entered a result
    datasets: int = 0

    def add(self, other: "Tally") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def attempted(self) -> int:
        return self.tests + self.replicates

    @property
    def failed(self) -> int:
        return self.failed_tests + (self.replicates - self.replicates_used)


@dataclass
class TaskResult:
    records: list[dict] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)


def _report_record(family: Family, kind: str, report) -> dict:
    return {"family": family.value, "kind": kind,
            "theta_hat": report.theta_hat,
            "statistic": report.statistic.value,
            "p_value": report.p_value,
            "b": report.b_requested, "b_used": report.b_used}


@dataclass(frozen=True)
class GofTask:
    """One ``bootstrap_reports`` call: the library form of ``copgof test``."""
    pairs: tuple
    family: Family
    config: BootstrapConfig
    kinds: tuple[str, ...]

    def run(self) -> TaskResult:
        res = TaskResult(tally=Tally(tests=1, replicates=self.config.b, datasets=1))
        try:
            reports = bootstrap.bootstrap_reports(self.pairs, self.family,
                                                  self.config, kinds=self.kinds)
        except STAT_ERRORS as exc:
            res.tally.failed_tests = 1
            res.records.append({"family": self.family.value,
                                "error": type(exc).__name__})
            return res
        b_used = next(iter(reports.values())).b_used
        # pios refits every one of the n rows out of each fitted sample
        loo = len(self.pairs) if "pios" in self.kinds else 0
        res.tally.replicates_used = b_used
        res.tally.fits = (1 + b_used) * (1 + loo)
        res.records = [_report_record(self.family, k, r) for k, r in reports.items()]
        return res


@dataclass(frozen=True)
class StudyTask:
    """One ``run_rejection_study`` call: the library form of ``copgof simulate``.

    The study returns rates only, so the task reads every test's report
    on its way back through ``simulation``'s lookup of
    ``bootstrap.bootstrap_reports``.
    """
    scenario: Scenario
    nulls: tuple[Family, ...]
    config: StudyConfig

    def run(self) -> TaskResult:
        res = TaskResult(tally=Tally(datasets=self.config.replications))
        inner = bootstrap.bootstrap_reports

        def capture(pairs, family, config, *args, **kwargs):
            res.tally.tests += 1
            res.tally.replicates += config.b
            try:
                reports = inner(pairs, family, config, *args, **kwargs)
            except STAT_ERRORS as exc:
                res.tally.failed_tests += 1
                res.records.append({"family": family.value,
                                    "error": type(exc).__name__})
                raise
            b_used = next(iter(reports.values())).b_used
            res.tally.replicates_used += b_used
            res.tally.fits += 1 + b_used
            res.records.extend(_report_record(family, k, r) for k, r in reports.items())
            return reports

        bootstrap.bootstrap_reports = capture
        try:
            rows = simulation.run_rejection_study(self.scenario, self.nulls, self.config)
        finally:
            bootstrap.bootstrap_reports = inner
        for row in rows:
            res.records.append({
                "family": row.null_family.value, "kind": row.test,
                "rejection_rate": row.rejection_rate,
                "selection_rate": row.selection_rate,
                "replications": row.replications, "failures": row.failures})
        return res


def _scenario_pairs(family: Family, n: int, censoring: str, seed: int, k: int) -> tuple:
    scenario = Scenario(family, TAU, n, censoring)
    return tuple(simulation.generate_scenario_dataset(scenario, seed, replicate=k))


def _gof_round(families, n, censoring, datasets, b, kinds, seed):
    tasks = []
    for k in range(datasets):
        for fam in families:
            pairs = _scenario_pairs(fam, n, censoring, seed, k)
            config = BootstrapConfig(b=b, seed=numerics.derive_seed(seed, k))
            tasks.append(GofTask(pairs, fam, config, kinds))
    return tasks


def _study_round(seed):
    scenario = Scenario(Family.FRANK, TAU, 60, "none")
    config = StudyConfig(replications=24, b=20, seed=seed, kinds=GOF_KINDS)
    return [StudyTask(scenario, ARCHIMEDEAN, config)]


# workload name -> (seed -> tasks of one round); BENCHMARK.json says why
# each workload is there and which roadmap item it exposes
WORKLOADS = {
    # each Archimedean family is both the true and the null family
    "test-c40": lambda seed: _gof_round(ARCHIMEDEAN, 300, "c40", 3, 20,
                                        GOF_KINDS, seed),
    "gaussian-c40": lambda seed: _gof_round((Family.GAUSSIAN,), 300, "c40", 10, 2,
                                            GOF_KINDS, seed),
    "study-n60": _study_round,
    "pios-test": lambda seed: _gof_round((Family.CLAYTON, Family.FRANK), 100, "c20",
                                         4, 2, ("pios",), seed),
}
