"""Wall-clock scaling of the parallel executor.

The acceptance bar for `repro.exp`: a 4-worker run of a Table III x
STANDARD_MODELS grid finishes in wall-clock time bounded by the slowest
cells, not the sum -- >= 2x faster than serial on >= 4 real cores.

Process fan-out cannot beat serial execution on a single core (the
workers just time-slice it), so the measurement self-skips when the
machine does not have the cores to show it; correctness of the parallel
path (identical results) is covered unconditionally by
``test_determinism.py``.
"""

import os
import signal
import time

import pytest

from repro.core.models import STANDARD_MODELS
from repro.exp import ParallelExecutor, run_grid
from repro.sim.config import MachineConfig
from repro.workloads import SUITE

# Wall-clock measurement over the full grid: opt in with `-m slow`.
pytestmark = pytest.mark.slow

#: hard cap per test; a wedged worker pool must fail, not hang CI.
HARD_TIMEOUT_S = 600


@pytest.fixture(autouse=True)
def _hard_timeout():
    """SIGALRM-based hard timeout (no pytest-timeout in the image)."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX: no guard available
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {HARD_TIMEOUT_S}s hard timeout"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.skipif(
    _available_cpus() < 4,
    reason=f"needs >= 4 cores to demonstrate scaling "
           f"(have {_available_cpus()})",
)
def test_four_workers_halve_the_grid_wall_clock():
    machine = MachineConfig(num_cores=4)
    grid = dict(machine=machine, ops_per_thread=60)

    start = time.perf_counter()
    serial = run_grid(SUITE, STANDARD_MODELS, **grid)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_grid(SUITE, STANDARD_MODELS,
                        executor=ParallelExecutor(jobs=4), **grid)
    t_parallel = time.perf_counter() - start

    for key in serial.runs:
        assert serial.runs[key].fingerprint() == parallel.runs[key].fingerprint()

    speedup = t_serial / t_parallel
    assert speedup >= 2.0, (
        f"4-worker grid ran {speedup:.2f}x serial "
        f"({t_serial:.1f}s vs {t_parallel:.1f}s)"
    )


def test_parallel_never_changes_results_even_on_one_core():
    """The unconditional half of the bar: fan-out is always safe."""
    machine = MachineConfig(num_cores=2)
    serial = run_grid(
        SUITE[:2], STANDARD_MODELS[:2], machine, ops_per_thread=15
    )
    parallel = run_grid(
        SUITE[:2], STANDARD_MODELS[:2], machine, ops_per_thread=15,
        executor=ParallelExecutor(jobs=2),
    )
    assert {
        k: v.fingerprint() for k, v in serial.runs.items()
    } == {
        k: v.fingerprint() for k, v in parallel.runs.items()
    }
