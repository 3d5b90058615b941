import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture
def pool_events(monkeypatch):
    """Stand-in pool on four CPUs that records its start, each map and its exit."""
    events = []

    class EventPool:
        def __init__(self, max_workers):
            events.append(("start", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append(("exit",))
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            events.append(("map", len(items), chunksize))
            return map(fn, items)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", EventPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    return events


def test_batches_in_one_scope_share_one_pool(pool_events):
    with parallel.pool_scope():
        assert parallel.run_trials(_square, range(8), 2) == [x * x for x in range(8)]
        assert parallel.run_trials(_square, range(5), 1) == [x * x for x in range(5)]
        with parallel.pool_scope():
            assert parallel.run_trials(_square, range(3), 2) == [0, 1, 4]
        assert pool_events == [("start", 2), ("map", 8, 4), ("map", 3, 2)]
    assert pool_events[3:] == [("exit",)]


def test_batch_outside_a_scope_closes_its_own_pool(pool_events):
    assert parallel.run_trials(_square, range(10), 3) == [x * x for x in range(10)]
    # one chunk per worker
    assert pool_events == [("start", 3), ("map", 10, 4), ("exit",)]


def _fail(x):
    raise ValueError(x)


def test_failing_batch_closes_the_scope_pool(pool_events):
    with pytest.raises(ValueError):
        with parallel.pool_scope():
            parallel.run_trials(_fail, range(4), 2)
    assert pool_events == [("start", 2), ("map", 4, 2), ("exit",)]
    # the next batch starts a pool of its own
    assert parallel.run_trials(_square, range(2), 2) == [0, 1]
    assert pool_events[3:] == [("start", 2), ("map", 2, 1), ("exit",)]


def _run_python(script, tmp_path):
    (tmp_path / "k2.txt").write_text("graph 2\n0 1\n")
    src = str(Path(parallel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


NO_POOL_MODULES = (
    "import sys\n"
    "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
    "assert not loaded, loaded\n"
)


@pytest.mark.parametrize(
    "script",
    [
        # serial batches, the second capped to one worker by its single payload
        "from hfactor import parallel\n"
        "assert parallel.run_trials(abs, [-1, -2], 1) == [1, 2]\n"
        "assert parallel.run_trials(abs, [-3], 8) == [3]\n",
        "import hfactor.cli\n"
        "assert hfactor.cli.main(['count', '--pattern', 'k2.txt', '--n', '6', '--workers', '2']) == 0\n",
    ],
    ids=["run_trials", "cli-count"],
)
def test_serial_runs_never_load_the_pool(script, tmp_path):
    proc = _run_python(script + NO_POOL_MODULES, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_pooled_command_closes_its_one_pool_before_main_returns(tmp_path):
    script = (
        "import multiprocessing, os\n"
        "from hfactor import cli, parallel\n"
        "events = []\n"
        "class CountedPool(parallel.ProcessPoolExecutor):\n"
        "    def __init__(self, max_workers):\n"
        "        events.append('start')\n"
        "        super().__init__(max_workers=max_workers)\n"
        "    def __exit__(self, *exc):\n"
        "        events.append('exit')\n"
        "        return super().__exit__(*exc)\n"
        "parallel.ProcessPoolExecutor = CountedPool\n"
        "assert cli.main(['models', '--pattern', 'k2.txt', '--n', '8', '--p', '0.5',\n"
        "                 '--trials', '20', '--seed', '3', '--sweep', '--workers', '2']) == 0\n"
        "pooled = os.cpu_count() > 1\n"
        "assert events == (['start', 'exit'] if pooled else []), events\n"
        "assert parallel._scope is None and not multiprocessing.active_children()\n"
    )
    proc = _run_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["sweep"]
