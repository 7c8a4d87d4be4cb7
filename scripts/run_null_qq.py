#!/usr/bin/env python3
"""Null sampling distribution of a statistic with normal quantiles.

Simulates the true-equals-null scenario, collects the statistic across
replicates, and writes a QQ CSV (sorted statistics against standard
normal plotting positions). Also prints a KS uniformity check of the
bootstrap p-values.

Example:
    python scripts/run_null_qq.py --family gaussian --n 300 \
        --replications 100 --out qq.csv
"""

import argparse
import sys

from scipy import stats as sstats

from copgof.copulas import Family
from copgof.simulation import (Scenario, StudyConfig, run_null_distribution,
                               write_qq_csv)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="gaussian")
    ap.add_argument("--tau", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--censoring", default="none")
    ap.add_argument("--replications", type=int, default=100)
    ap.add_argument("--b", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--test", default="ir")
    ap.add_argument("--out", default="qq.csv")
    args = ap.parse_args()

    scenario = Scenario(Family.parse(args.family), args.tau, args.n,
                        args.censoring)
    cfg = StudyConfig(replications=args.replications, b=args.b,
                      seed=args.seed, kinds=(args.test,))
    dist = run_null_distribution(scenario, cfg)[cfg.kinds[0]]
    ks = sstats.kstest(dist.p_values, "uniform")
    print(f"{args.test}: {dist.statistics.size} replicates, statistic "
          f"mean {dist.statistics.mean():.4f}, sd {dist.statistics.std(ddof=1):.4f}")
    print(f"KS uniformity of p-values: D={ks.statistic:.4f}, p={ks.pvalue:.4f}")
    with open(args.out, "w", newline="") as fh:
        write_qq_csv(dist, fh)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
