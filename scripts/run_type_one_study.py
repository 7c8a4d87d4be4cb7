#!/usr/bin/env python3
"""Empirical type-I error of the goodness-of-fit tests.

Runs the true-equals-null scenario over a grid of families and
censoring levels and writes one rejection-rate CSV. Worker count comes
from COPULA_GOF_THREADS.

Example:
    python scripts/run_type_one_study.py --n 100 --replications 100 \
        --b 200 --families clayton,frank,gaussian --out type_one.csv
"""

import argparse
import sys
import time

from copgof.copulas import Family
from copgof.simulation import (REJECTION_CSV_HEADER, Scenario, StudyConfig,
                               run_rejection_study, write_rejection_csv)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", default="clayton,frank,gaussian")
    ap.add_argument("--tau", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--censoring", default="none,c20,c40",
                    help="comma-separated levels from none,c20,c40,c70")
    ap.add_argument("--replications", type=int, default=100)
    ap.add_argument("--b", type=int, default=200)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tests", default="ir,white,logim")
    ap.add_argument("--out", default="type_one.csv")
    args = ap.parse_args()

    families = [Family.parse(f) for f in args.families.split(",")]
    levels = [c.strip() for c in args.censoring.split(",")]
    kinds = tuple(k.strip() for k in args.tests.split(","))

    all_rows = []
    for fam in families:
        for level in levels:
            scenario = Scenario(fam, args.tau, args.n, level)
            cfg = StudyConfig(replications=args.replications, b=args.b,
                              alpha=args.alpha, seed=args.seed, kinds=kinds)
            t0 = time.time()
            rows = run_rejection_study(scenario, [fam], cfg)
            all_rows.extend(rows)
            for row in rows:
                print(f"{fam.value:9s} {level:5s} {row.test:6s} "
                      f"rejection {row.rejection_rate:.3f} "
                      f"({row.replications} reps, {time.time() - t0:.0f}s)")
    with open(args.out, "w", newline="") as fh:
        write_rejection_csv(all_rows, fh)
    print(f"wrote {args.out} ({','.join(REJECTION_CSV_HEADER)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
