"""Optional process-level parallelism for independent Monte Carlo trials.

Trials carry their own derived seeds, so results are identical whatever the
execution order or worker count; parallelism only changes wall time.
"""

from __future__ import annotations

import contextlib
import os
import sys

_scope = None  # [ExitStack, pool or None] while a pool_scope is open


def __getattr__(name):
    # PEP 562: the pool class (and multiprocessing) loads only when a batch needs it
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextlib.contextmanager
def pool_scope():
    """Share one process pool among the run_trials calls inside; an inner scope joins the open one.

    The first batch that needs two or more workers starts the pool; the scope's exit closes it."""
    global _scope
    if _scope is not None:
        yield
        return
    with contextlib.ExitStack() as stack:
        _scope = [stack, None]
        try:
            yield
        finally:
            _scope = None


def run_trials(worker, payloads, workers: int = 1) -> list:
    """Map a top-level worker over payloads in order, on at most one process per payload and CPU."""
    payloads = list(payloads)
    workers = min(workers, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(p) for p in payloads]
    with pool_scope():
        try:
            if _scope[1] is None:
                # read through the module, so a replaced pool class is the one started
                pool_class = sys.modules[__name__].ProcessPoolExecutor
                _scope[1] = _scope[0].enter_context(pool_class(max_workers=workers))
            # one chunk per worker: trials cost alike, and each chunk is a round trip
            return list(_scope[1].map(worker, payloads, chunksize=-(-len(payloads) // workers)))
        except OSError:
            # restricted environments: fall back to in-process execution
            return [worker(p) for p in payloads]
