"""Memory-system substrate: NVM devices, WPQs, and memory controllers.

The paper's machine (Table II) has two memory controllers, each with a
16-entry Write Pending Queue (WPQ) inside the ADR persistence domain and a
32-entry Recovery Table (the recovery table itself lives in
:mod:`repro.core.recovery_table`; the controller here accepts it as a
pluggable flush handler so this substrate stays independent of the paper's
contribution).

Each controller's ``adr_value`` is the one record of which write is
durable; the WPQ and the NVM device model occupancy and timing only.
"""

from repro.mem.interleave import AddressMap
from repro.mem.nvm import NVMDevice, XPBuffer
from repro.mem.wpq import WritePendingQueue
from repro.mem.controller import (
    FlushPacket,
    FlushResponse,
    MemoryController,
    ResponseKind,
)

__all__ = [
    "AddressMap",
    "FlushPacket",
    "FlushResponse",
    "MemoryController",
    "NVMDevice",
    "ResponseKind",
    "WritePendingQueue",
    "XPBuffer",
]
