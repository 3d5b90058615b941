import pytest

from hfactor import parallel


def _square(x):
    return x * x


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the pool with an in-process stand-in that records max_workers."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    return sizes


# (requested workers, payloads, os.cpu_count(), pool sizes started)
@pytest.mark.parametrize(
    "workers, payloads, cpus, started",
    [
        (100000, 4, 2, [2]),
        (100000, 4, 8, [4]),
        (3, 10, 8, [3]),
        (2, 1, 8, []),
        (100000, 10, 1, []),
        (100000, 10, None, []),
        (1, 10, 8, []),
    ],
)
def test_pool_is_capped_by_payloads_and_cpus(workers, payloads, cpus, started, pool_sizes,
                                             monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert parallel.run_trials(_square, range(payloads), workers) == [
        x * x for x in range(payloads)
    ]
    assert pool_sizes == started


def test_pool_failure_falls_back_to_serial(monkeypatch):
    class BrokenPool:
        def __init__(self, max_workers):
            raise OSError("no processes")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    assert parallel.run_trials(_square, [1, 2, 3], 3) == [1, 4, 9]
