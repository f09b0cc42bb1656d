"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.api import (
    Acquire,
    Compute,
    DFence,
    Load,
    OFence,
    PMAllocator,
    Release,
    Store,
)
from repro.core.machine import Machine
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry

# Tier-1 passes or fails the same tests on every run: every @given test
# draws its examples from a fixed seed, and no example database carries
# failures from one run into the next.  A fixed seed can miss what a
# random run would find, so known counterexamples are pinned with
# @example.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def stats() -> StatsRegistry:
    return StatsRegistry()


@pytest.fixture
def config() -> MachineConfig:
    """A small, fast machine: 2 cores, 2 MCs, Table II latencies."""
    return MachineConfig(num_cores=2)


@pytest.fixture
def config4() -> MachineConfig:
    return MachineConfig(num_cores=4)


def make_machine(
    hardware: HardwareModel = HardwareModel.ASAP,
    persistency: PersistencyModel = PersistencyModel.RELEASE,
    num_cores: int = 2,
    **config_kwargs,
) -> Machine:
    config = MachineConfig(num_cores=num_cores, **config_kwargs)
    return Machine(config, RunConfig(hardware=hardware, persistency=persistency))


def simple_writer(heap: PMAllocator, num_stores: int = 8, epoch_every: int = 2):
    """A single-thread program: ordered stores ending in a dfence."""
    buf = heap.alloc(64 * num_stores)

    def program():
        for i in range(num_stores):
            yield Store(buf + 64 * i, 64)
            if (i + 1) % epoch_every == 0:
                yield OFence()
            yield Compute(30)
        yield DFence()

    return program()


def locked_pair(heap: PMAllocator, iters: int = 6):
    """Two programs passing one lock, creating cross-thread deps."""
    lock = heap.alloc_lock()
    shared = heap.alloc(64)

    def make(tid):
        private = heap.alloc(64 * 4)

        def program():
            for i in range(iters):
                yield Acquire(lock)
                yield Load(shared, 8)
                yield Store(shared, 8)
                yield OFence()
                yield Store(private + 64 * (i % 4), 8)
                yield Release(lock)
                yield Compute(60)
            yield DFence()

        return program()

    return [make(0), make(1)]
