"""Optional process-level parallelism for independent Monte Carlo trials.

Trials carry their own derived seeds, so results are identical whatever the
execution order or worker count; parallelism only changes wall time.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def run_trials(worker, payloads, workers: int = 1) -> list:
    """Map a top-level worker over payloads in order, on at most one process per payload and CPU."""
    payloads = list(payloads)
    workers = min(workers, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(p) for p in payloads]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(payloads) // (workers * 4))
            return list(pool.map(worker, payloads, chunksize=chunk))
    except (OSError, PermissionError):
        # restricted environments: fall back to in-process execution
        return [worker(p) for p in payloads]
