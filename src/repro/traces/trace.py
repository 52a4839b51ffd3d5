"""Trace containers: per-table lookup streams and their combination.

An :class:`EmbeddingTrace` is the sequence of row indices looked up in one
embedding table.  A :class:`CombinedTrace` interleaves several per-table
traces the way a co-located production host sees them (Comb-8 / Comb-16 /
Comb-32 / Comb-64 in the paper's Fig. 7 and Fig. 12).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EmbeddingTrace:
    """Lookup trace for one embedding table.

    Attributes
    ----------
    table_id:
        Identifier of the table.
    indices:
        The sequence of row indices accessed, in program order.
    num_rows:
        Number of rows in the table the indices refer to.
    name:
        Human-readable trace name (e.g. ``"T3"``).
    """

    table_id: int
    indices: np.ndarray
    num_rows: int
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1:
            raise ValueError("indices must be a 1-D sequence")
        if self.num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.num_rows):
            raise ValueError("trace contains out-of-range indices")

    def __len__(self):
        return int(self.indices.shape[0])


class CombinedTrace:
    """Interleaving of several per-table traces on one machine.

    The interleaving is round-robin in blocks of ``block_size`` lookups,
    approximating concurrent SLS threads of co-located models taking turns
    on the memory system (the paper's Comb-N methodology: N tables share the
    machine and their accesses interleave).
    """

    def __init__(self, traces, block_size=1):
        if not traces:
            raise ValueError("need at least one trace to combine")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.traces = list(traces)
        self.block_size = int(block_size)

    def __len__(self):
        return sum(len(trace) for trace in self.traces)

    def interleaved(self):
        """Yield ``(table_id, row_index)`` pairs in interleaved order."""
        positions = [0] * len(self.traces)
        remaining = len(self)
        while remaining:
            progressed = False
            for slot, trace in enumerate(self.traces):
                start = positions[slot]
                if start >= len(trace):
                    continue
                stop = min(start + self.block_size, len(trace))
                for index in trace.indices[start:stop]:
                    yield slot, int(index)
                consumed = stop - start
                positions[slot] = stop
                remaining -= consumed
                progressed = True
            if not progressed:
                break
