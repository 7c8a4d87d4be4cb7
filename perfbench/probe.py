"""Set-up probe: a fresh interpreter that imports copgof and builds one
workload's inputs, the cost a user pays before the first test.

    python3 perfbench/probe.py <workload> <seed>

run.py starts it several times and times each from outside. While it
runs, a Speedometer (see speed.py) times the host's speed in this
process, so the probe prints one JSON line with the kernel's own seconds
and the mean speed, and run.py corrects the probe's wall time with them.
Only numpy is imported before the meter starts.
"""

import json
import os
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    meter = speed.Speedometer()
    with meter.running():
        t0 = time.perf_counter()
        os.environ["COPULA_GOF_THREADS"] = "1"
        sys.path.insert(0, str(ROOT / "src"))
        import workloads
        workloads.WORKLOADS[workload](seed)
        t1 = time.perf_counter()
    print(json.dumps({"kernel_s": sum(k for _, k in meter.samples),
                      "speed": meter.speed(t0, t1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
