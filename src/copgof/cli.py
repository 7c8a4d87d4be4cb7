"""Command-line interface.

Subcommands: test (one-family goodness-of-fit), select (rank candidate
families), fit (parameter estimate only), km (marginal Kaplan-Meier
curve), simulate (Monte Carlo study: rejection rates over a grid of true
families and censoring levels, or one scenario's null distribution).
JSON goes to stdout with floats at 12 significant digits; CSV schemas
are fixed. Diagnostics, such as the null distribution's summary, go to
stderr.

Exit codes: 0 success, 1 input, parse or output failure (an unreadable
--input, one that is not UTF-8 text, or an unwritable --output), 2
statistical failure (any ``StatisticalError``), 64 usage error (a bad
argument or COPULA_GOF_THREADS). argparse checks every argument, family
names included, so a usage error comes before any input is read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from . import _parallel, bootstrap, copulas, inference, simulation, survival
from .bootstrap import BootstrapConfig
from .copulas import Family
from .numerics import StatisticalError
from .survival import CensoredPair, CensoredSample

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STATISTICAL = 2
EXIT_USAGE = 64

DATA_HEADER = ["x1", "x2", "d1", "d2"]
KM_CSV_HEADER = ["time", "survival", "n_at_risk"]


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> float:
    return float(f"{float(x):.12g}")


def read_data_csv(path) -> CensoredSample:
    """The sample in the UTF-8 CSV file ``path``, with or without a
    byte-order mark. A file that cannot be read, is not UTF-8 text or
    does not hold the data table is an InputError naming it."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            pairs = _read_rows(path, reader)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc.reason} "
                             f"(byte 0x{exc.object[exc.start]:02x})") from None
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if not pairs:
        raise InputError(f"{path}: no data rows")
    return survival.as_sample(pairs)


def _read_rows(path, reader) -> list[CensoredPair]:
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    if [h.strip().lower() for h in header] != DATA_HEADER:
        raise InputError(
            f"{path}: line 1: expected header {','.join(DATA_HEADER)}, "
            f"got {','.join(header)}")
    pairs = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise InputError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
        try:
            x1, x2 = float(row[0]), float(row[1])
            d1, d2 = int(row[2]), int(row[3])
            pairs.append(CensoredPair(x1, x2, d1, d2))
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
    return pairs


# argparse types: a UsageError passes argparse's type handling unchanged,
# where a ValueError would lose its message
def _parse_family(name: str) -> Family:
    try:
        return Family.parse(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_list(raw: str, parse, noun: str) -> list:
    """The entries of a comma list, each through ``parse``, in first-seen
    order; a repeated entry is dropped with a warning."""
    items = []
    for tok in raw.split(","):
        if not tok.strip():
            continue
        item = parse(tok)
        if item in items:
            print(f"warning: duplicate {noun} {tok.strip()} ignored", file=sys.stderr)
        else:
            items.append(item)
    if not items:
        raise UsageError(f"no {noun} given")
    return items


def _parse_families(raw: str) -> list[Family]:
    return _parse_list(raw, _parse_family, "family")


def _bootstrap_config(args) -> BootstrapConfig:
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"alpha must lie in (0, 1), got {args.alpha}")
    try:
        return BootstrapConfig(
            b=args.b, seed=args.seed,
            common_censoring=args.censoring_model == "common")
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _report_json(report: bootstrap.GofReport, alpha: float) -> dict:
    return {
        "family": report.family.value,
        "theta_hat": _fmt(report.theta_hat),
        "statistic": {
            "kind": report.statistic.kind,
            "value": _fmt(report.statistic.value),
            "null_mean": _fmt(report.statistic.null_value),
        },
        "sigma_b": _fmt(report.sigma_b),
        "p_value": _fmt(report.p_value),
        "b": report.b_used,
        "seed": report.seed,
        "n": report.n,
        "censoring_rates": [_fmt(r) for r in report.censoring_rates],
        "degenerate": report.degenerate,
        "decision_at": {"alpha": _fmt(alpha), "reject": report.reject(alpha)},
    }


@contextlib.contextmanager
def _output(path):
    """A text stream on ``path``, or stdout when no path is given. A path
    that cannot be opened for writing is an InputError."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    with fh:
        yield fh


def _check_output(path) -> None:
    """Raise the InputError of ``_output`` now, before the computation,
    when ``path`` cannot be opened for writing. An existing file is left
    as it was, and a file this check creates is removed again."""
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _emit_json(obj, path=None) -> None:
    with _output(path) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def cmd_test(args) -> int:
    config = _bootstrap_config(args)
    sample = read_data_csv(args.input)
    _check_output(args.output)
    report, = bootstrap.bootstrap_reports(sample, args.family, config,
                                          kinds=(args.statistic,)).values()
    _emit_json(_report_json(report, args.alpha), args.output)
    return EXIT_OK


def cmd_select(args) -> int:
    config = _bootstrap_config(args)
    sample = read_data_csv(args.input)
    _check_output(args.output)
    result = bootstrap.select_copula(sample, args.families, config, kind=args.statistic)
    ranking = []
    for entry in result.entries:
        if entry.report is not None:
            item = _report_json(entry.report, args.alpha)
            item["error"] = None
        else:
            item = {"family": entry.family.value, "error": entry.error}
        ranking.append(item)
    best = result.best
    _emit_json({
        "selected": best.family.value if best.report is not None else None,
        "ranking": ranking,
    }, args.output)
    if best.report is None:
        print("error: every candidate family failed", file=sys.stderr)
        return EXIT_STATISTICAL
    return EXIT_OK


def cmd_fit(args) -> int:
    family, initial_theta = args.family, args.initial_theta
    if initial_theta is not None:
        try:
            copulas.CopulaModel(family, initial_theta)
        except ValueError as exc:
            raise UsageError(f"--initial-theta: {exc}") from None
    sample = read_data_csv(args.input)
    _check_output(args.output)
    fit = inference.fit_pmle(family, survival.pseudo_observations(sample),
                             initial_theta=initial_theta)
    _emit_json({
        "family": family.value,
        "theta_hat": _fmt(fit.theta_hat),
        "tau_hat": _fmt(copulas.theta_to_tau(family, fit.theta_hat)),
        "loglik": _fmt(fit.loglik),
        "n": fit.n,
        "converged": fit.converged,
    }, args.output)
    return EXIT_OK


def cmd_km(args) -> int:
    sample = read_data_csv(args.input)
    if args.margin == 1:
        curve = survival.kaplan_meier(sample.x1, sample.d1)
    else:
        curve = survival.kaplan_meier(sample.x2, sample.d2)
    rows = [KM_CSV_HEADER]
    for t, s, r in zip(curve.jump_times, curve.values, curve.n_at_risk):
        rows.append([f"{t:.12g}", f"{s:.12g}", str(int(r))])
    with _output(args.output) as fh:
        fh.write("\n".join(",".join(row) for row in rows) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    levels = _parse_list(args.censoring, str.strip, "censoring level")
    tests = args.tests or {"rejection": "ir,white,logim", "null": "ir"}[args.mode]
    kinds = tuple(k.strip() for k in tests.split(",") if k.strip())
    try:
        # the grid in the order of its CSV rows: family outer, level inner
        scenarios = [simulation.Scenario(fam, args.tau, args.n, level)
                     for fam in args.true_family for level in levels]
        cfg = simulation.StudyConfig(replications=args.replications, b=args.b,
                                     alpha=args.alpha, seed=args.seed, kinds=kinds)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.mode == "null":
        if args.null_families is not None:
            raise UsageError("--null-families applies to rejection mode only; "
                             "null mode fits the true family")
        # the QQ CSV names none of these, so it holds one of each
        for noun, given in (("true family", [f.value for f in args.true_family]),
                            ("censoring level", levels), ("statistic kind", cfg.kinds)):
            if len(given) > 1:
                raise UsageError(f"null mode takes one {noun}, got {','.join(given)}")
    _check_output(args.output)
    if args.mode == "rejection":
        rows = [row for scenario in scenarios
                for row in simulation.run_rejection_study(
                    scenario, args.null_families or [scenario.true_family], cfg)]
        with _output(args.output) as fh:
            simulation.write_rejection_csv(rows, fh)
        return EXIT_OK
    dist, = simulation.run_null_distribution(scenarios[0], cfg).values()
    with _output(args.output) as fh:
        simulation.write_qq_csv(dist, fh)
    _print_null_summary(dist)
    return EXIT_OK


def _print_null_summary(dist: simulation.NullDistribution) -> None:
    """Print to stderr the statistic's mean and sd over the kept
    replicates, and the KS test of their p-values against uniformity."""
    # imported here only: at module level, scipy.stats would take every
    # process that imports this module from 82 to 101 MB resident
    # (CPython 3.11, scipy 1.17)
    from scipy import stats

    m = dist.statistics.size
    line = (f"{dist.kind}: {m} replicate{'s' if m > 1 else ''}, "
            f"statistic mean {dist.statistics.mean():.4f}")
    # the sample sd needs two values; numpy warns and gives NaN at one
    if m > 1:
        line += f", sd {dist.statistics.std(ddof=1):.4f}"
    ks = stats.kstest(dist.p_values, "uniform")
    print(line, file=sys.stderr)
    print(f"KS uniformity of p-values: D={ks.statistic:.4f}, p={ks.pvalue:.4f}",
          file=sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(prog="copgof",
                     description="Goodness-of-fit tests for bivariate survival "
                                 "copulas under right censoring.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_stat=True):
        p.add_argument("--input", required=True, help="CSV with header x1,x2,d1,d2")
        p.add_argument("--output", default=None, help="write result here instead of stdout")
        if with_stat:
            p.add_argument("--statistic", default="ir",
                           choices=inference.STATISTIC_KINDS)
            p.add_argument("--b", type=int, default=200,
                           help="bootstrap replicates (default 200)")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--alpha", type=float, default=0.05)
            p.add_argument("--censoring-model", choices=("common", "per-margin"),
                           default="common", help="the bootstrap's censoring times: "
                           "one per pair (default) or one per margin")

    p_test = sub.add_parser("test", help="test one null copula family")
    add_common(p_test)
    p_test.add_argument("--family", required=True, type=_parse_family)
    p_test.set_defaults(fn=cmd_test)

    p_sel = sub.add_parser("select", help="rank candidate families by p-value")
    add_common(p_sel)
    p_sel.add_argument("--families", required=True, type=_parse_families,
                       help="comma-separated candidate families")
    p_sel.set_defaults(fn=cmd_select)

    p_fit = sub.add_parser("fit", help="pseudo-maximum-likelihood estimate only")
    add_common(p_fit, with_stat=False)
    p_fit.add_argument("--family", required=True, type=_parse_family)
    p_fit.add_argument("--initial-theta", type=float, metavar="FLOAT",
                       help="search start in the family's domain (default: from Kendall's tau)")
    p_fit.set_defaults(fn=cmd_fit)

    p_km = sub.add_parser("km", help="marginal Kaplan-Meier curve as CSV")
    add_common(p_km, with_stat=False)
    p_km.add_argument("--margin", type=int, choices=(1, 2), default=1)
    p_km.set_defaults(fn=cmd_km)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo size/power study",
        description="Rejection mode tests every null family on the data of each "
                    "(true family, censoring level) pair, family outer, and writes "
                    "one rejection-rate CSV. Null mode takes one true family, one "
                    "level and one kind and no null families, writes the statistic's "
                    "QQ CSV, and prints its mean and sd and a KS uniformity test of "
                    "its p-values to stderr.")
    p_sim.add_argument("--mode", choices=("rejection", "null"), default="rejection")
    p_sim.add_argument("--true-family", required=True, type=_parse_families,
                       help="comma-separated true families; null mode takes one")
    p_sim.add_argument("--tau", type=float, default=0.5)
    p_sim.add_argument("--n", type=int, default=100)
    levels = ",".join(simulation.CENSORING_LEVELS)
    p_sim.add_argument("--censoring", default="none",
                       help=f"comma-separated levels from {levels} (default none); "
                            "null mode takes one")
    p_sim.add_argument("--null-families", default=None, type=_parse_families,
                       help="comma-separated null families (default: each true family); "
                            "rejection mode only")
    p_sim.add_argument("--tests", help="comma-separated statistic kinds (default "
                       "ir,white,logim); null mode takes one (default ir)")
    p_sim.add_argument("--replications", type=int, default=100)
    p_sim.add_argument("--b", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            _parallel.worker_count()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StatisticalError as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
