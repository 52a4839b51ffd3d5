"""Cycle-level DDR4 memory-system simulator.

This subpackage is the Ramulator-equivalent substrate the RecNMP evaluation
is built on.  It models:

* DDR4-2400 device timing (Table I of the paper) and
  :class:`~repro.dram.timing.DDR4State`, the one bank and rank state
  layout of the controller and the rank-NMPs,
* the host-side FR-FCFS memory controller with an open-page policy, the
  DDR4 baseline every speedup is normalised against,
* Intel Skylake-style physical-to-DRAM address mapping,
* DRAM access energy.

The :class:`MemoryController` holds its channel's bank and rank state in a
``DDR4State`` of lists, beside its C/A clock, data bus and last data rank,
and runs each drain as one loop over them; the per-object bank, rank and
channel model lives on as the test reference.  It schedules from a per-rank
readiness cache, and checks every command it issues against a fresh
computation from that flat state (bank timing, tRRD, tFAW, tCCD, the rank
and channel data buses with the rank-switch penalty, the C/A slot) before
the command changes any state, and raises unless that computation gives
exactly the cycle the command was picked for.
:class:`DramSystem` decodes a whole trace at once and hands each channel's
controller its bursts as int columns; a single channel takes a trace of
byte addresses through :meth:`MemoryController.process_trace`.  Requests
and commands are never objects: a burst is a row of those columns, and
each command is issued inside the drain loop.
"""

from repro.dram.timing import DDR4Timing, DDR4_2400
from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping
from repro.dram.controller import MemoryController, ControllerStats
from repro.dram.system import DramSystem, DramSystemConfig
from repro.dram.energy import DramEnergyModel, DramEnergyParameters

__all__ = [
    "DDR4Timing",
    "DDR4_2400",
    "MemoryGeometry",
    "SkylakeAddressMapping",
    "MemoryController",
    "ControllerStats",
    "DramSystem",
    "DramSystemConfig",
    "DramEnergyModel",
    "DramEnergyParameters",
]
