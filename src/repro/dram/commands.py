"""DRAM command and memory-request definitions."""

import enum
import itertools
from dataclasses import dataclass, field


class CommandType(enum.Enum):
    """Low-level DDR commands issued on the C/A bus."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"


class RequestType(enum.Enum):
    """High-level memory request types from the host or the NMP packets."""

    READ = "READ"
    WRITE = "WRITE"


_request_counter = itertools.count()


@dataclass
class MemoryRequest:
    """A host-visible memory request (a cacheline-sized read or write).

    Attributes
    ----------
    physical_address:
        Byte address in the physical address space.
    request_type:
        READ or WRITE.
    size_bytes:
        Access size; DRAM services it in 64-byte bursts.
    arrival_cycle:
        Cycle the request entered the controller queue.
    completion_cycle:
        Cycle the last data beat returned (filled in by the controller).
    metadata:
        Free-form dictionary for annotations (table id, pooling id, ...).
    """

    physical_address: int
    request_type: RequestType = RequestType.READ
    size_bytes: int = 64
    arrival_cycle: int = 0
    completion_cycle: int = -1
    request_id: int = field(default_factory=lambda: next(_request_counter))
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.physical_address < 0:
            raise ValueError("physical_address must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")

    @property
    def latency_cycles(self):
        """Queueing + service latency in cycles (valid after completion)."""
        if self.completion_cycle < 0:
            raise ValueError("request %d has not completed" % self.request_id)
        return self.completion_cycle - self.arrival_cycle

    def num_bursts(self):
        """Number of 64-byte DRAM bursts needed to service this request."""
        return max(1, -(-self.size_bytes // 64))
