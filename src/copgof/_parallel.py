"""Deterministic worker-pool map.

The worker count comes from COPULA_GOF_THREADS (default 1). Results are
returned in task order regardless of completion order, and every task
carries its own random stream, so output is identical for any worker
count. A map called inside a pool worker (the bootstrap inside a study
replicate) runs serially there: the outer map already holds the workers.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor


def worker_count() -> int:
    raw = os.environ.get("COPULA_GOF_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"COPULA_GOF_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"COPULA_GOF_THREADS must be positive, got {n}")
    return n


def ordered_map(fn, tasks):
    """Apply fn over tasks, preserving task order in the results."""
    tasks = list(tasks)
    n = worker_count()
    in_worker = multiprocessing.parent_process() is not None
    if in_worker or n == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * n))
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))
