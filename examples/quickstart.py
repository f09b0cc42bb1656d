#!/usr/bin/env python3
"""Quickstart: run one program on ASAP and read the core statistics.

Builds the paper's Table II machine (scaled down to one core), runs a
small transactional loop (log -> data -> commit marker, the classic
persistent-memory update pattern), and prints the runtime together with
the seven artifact-appendix statistics (Table VI).

Run:  python examples/quickstart.py
"""

from repro import (
    DFence,
    HardwareModel,
    Machine,
    MachineConfig,
    OFence,
    PMAllocator,
    RunConfig,
    Store,
)
from repro.core.api import Compute


def transactional_program(heap: PMAllocator, transactions: int = 50):
    """log record -> ofence -> data update -> ofence -> commit -> dfence."""
    log = heap.alloc_lines(16)
    table = heap.alloc_lines(32)
    marker = heap.alloc_lines(1)

    def program():
        for tx in range(transactions):
            yield Compute(150)  # figure out what to write
            yield Store(log + (tx % 16) * 64, 64)  # journal entry
            yield OFence()  # log before data
            yield Store(table + (tx % 32) * 64, 32)  # the update itself
            yield OFence()  # data before commit
            yield Store(marker, 8)  # commit record
            yield DFence()  # durable before replying
            yield Compute(100)  # reply to client

    return program()


def main() -> None:
    config = MachineConfig(num_cores=1)
    run_config = RunConfig(hardware=HardwareModel.ASAP)

    heap = PMAllocator()
    machine = Machine(config, run_config)
    result = machine.run([transactional_program(heap)])

    print("model:    ASAP (release persistency)")
    print(f"runtime:  {result.runtime_cycles} cycles "
          f"({result.runtime_ns:.0f} ns at 2 GHz)")
    print(f"drained:  {result.drain_cycles} cycles")
    print()
    print("Table VI statistics:")
    for name, value in result.table_vi().items():
        print(f"  {name:20s} = {value}")
    print()
    print("Interpretation: totSpecWrites counts flushes that left the")
    print("persist buffer before their epoch was safe -- ASAP's eager")
    print("flushing at work.  Each one that found pristine memory made an")
    print("undo record (totalUndo), the recovery information that unwinds")
    print("speculation if power fails.")


if __name__ == "__main__":
    main()
