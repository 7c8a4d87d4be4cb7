#!/usr/bin/env python3
"""Power of the tests against misspecified null families.

Data come from one true copula; every candidate null family is tested
on each replicate. The CSV also reports how often each family attains
the largest p-value (the selection rate).

Example:
    python scripts/run_power_study.py --true-family clayton --tau 0.7 \
        --nulls clayton,frank,joe,gumbel --n 300 --out power.csv
"""

import argparse
import sys
import time

from copgof.copulas import Family
from copgof.simulation import (Scenario, StudyConfig, run_rejection_study,
                               write_rejection_csv)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--true-family", default="clayton")
    ap.add_argument("--tau", type=float, default=0.7)
    ap.add_argument("--nulls", default="clayton,frank,joe,gumbel")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--censoring", default="none")
    ap.add_argument("--replications", type=int, default=50)
    ap.add_argument("--b", type=int, default=200)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tests", default="ir")
    ap.add_argument("--out", default="power.csv")
    args = ap.parse_args()

    scenario = Scenario(Family.parse(args.true_family), args.tau,
                        args.n, args.censoring)
    nulls = [Family.parse(f) for f in args.nulls.split(",")]
    kinds = tuple(k.strip() for k in args.tests.split(","))
    cfg = StudyConfig(replications=args.replications, b=args.b,
                      alpha=args.alpha, seed=args.seed, kinds=kinds)
    t0 = time.time()
    rows = run_rejection_study(scenario, nulls, cfg)
    for row in rows:
        print(f"null {row.null_family.value:9s} {row.test:6s} "
              f"rejection {row.rejection_rate:.3f} "
              f"selection {row.selection_rate:.3f}")
    with open(args.out, "w", newline="") as fh:
        write_rejection_csv(rows, fh)
    print(f"wrote {args.out} ({time.time() - t0:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
