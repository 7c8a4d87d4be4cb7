#!/usr/bin/env python3
"""Rejection and selection rates of the goodness-of-fit tests.

For each true family and censoring level, data come from the true
copula and every null family is tested on each replicate. By default
each true family is tested against itself, which gives the empirical
type-I error; a list of nulls gives the power against misspecified
families and how often each attains the largest p-value (the selection
rate). Writes one rejection-rate CSV. Worker count comes from
COPULA_GOF_THREADS.

Examples:
    python scripts/run_rejection_study.py --true-families clayton,frank,gaussian \
        --censoring none,c20,c40 --n 100 --out type_one.csv
    python scripts/run_rejection_study.py --true-families clayton --tau 0.7 \
        --nulls clayton,frank,joe,gumbel --n 300 --tests ir --out power.csv
"""

import argparse
import sys
import time

from copgof.copulas import Family
from copgof.simulation import (Scenario, StudyConfig, run_rejection_study,
                               write_rejection_csv)


def _families(raw: str) -> list[Family]:
    return [Family.parse(f) for f in raw.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--true-families", default="clayton")
    ap.add_argument("--nulls", default=None,
                    help="comma-separated null families (default: each true family)")
    ap.add_argument("--censoring", default="none",
                    help="comma-separated levels from none,c20,c40,c70")
    ap.add_argument("--tau", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--replications", type=int, default=100)
    ap.add_argument("--b", type=int, default=200)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tests", default="ir,white,logim")
    ap.add_argument("--out", default="rejection.csv")
    args = ap.parse_args()

    nulls = _families(args.nulls) if args.nulls else None
    cfg = StudyConfig(replications=args.replications, b=args.b, alpha=args.alpha,
                      seed=args.seed, kinds=tuple(k.strip() for k in args.tests.split(",")))
    t0 = time.time()
    all_rows = []
    for fam in _families(args.true_families):
        for level in (c.strip() for c in args.censoring.split(",")):
            rows = run_rejection_study(Scenario(fam, args.tau, args.n, level),
                                       nulls or [fam], cfg)
            all_rows.extend(rows)
            for row in rows:
                print(f"true {fam.value:9s} null {row.null_family.value:9s} {level:5s} "
                      f"{row.test:6s} rejection {row.rejection_rate:.3f} "
                      f"selection {row.selection_rate:.3f} ({row.replications} reps, "
                      f"{time.time() - t0:.0f}s)")
    with open(args.out, "w", newline="") as fh:
        write_rejection_csv(all_rows, fh)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
