"""RankCache: the memory-side cache inside each rank-NMP module.

Differences to a plain CPU cache (Section III-A / III-D of the paper):

* It caches whole embedding vectors keyed by their DRAM address (Daddr).
* The ``LocalityBit`` carried by each NMP instruction decides whether a
  missing vector is *allocated* in the cache or bypasses it entirely;
  low-locality lookups therefore cannot evict hot vectors.
* Embedding tables are read-only during inference, so there is no dirty
  state or write-back path.
"""

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class RankCacheStats:
    """Counters for RankCache behaviour."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0

    @property
    def lookups(self):
        """All lookups including bypassed ones."""
        return self.hits + self.misses + self.bypasses

    @property
    def hit_rate(self):
        """Hit rate over all lookups (bypasses count as misses)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class RankCache:
    """LRU cache of embedding vectors with locality-hint bypass.

    Parameters
    ----------
    capacity_bytes:
        Cache capacity (the paper finds 128 KB optimal, sweeps 8 KB-1 MB).
    vector_size_bytes:
        Size of one cached embedding vector (64-256 B in production).
    access_latency_cycles:
        Lookup latency in DRAM cycles (Table I: 1 cycle).
    """

    def __init__(self, capacity_bytes=128 * 1024, vector_size_bytes=64,
                 access_latency_cycles=1):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if vector_size_bytes <= 0:
            raise ValueError("vector_size_bytes must be positive")
        if access_latency_cycles < 0:
            raise ValueError("access_latency_cycles must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self.vector_size_bytes = int(vector_size_bytes)
        self.access_latency_cycles = int(access_latency_cycles)
        self.num_entries = max(1, capacity_bytes // vector_size_bytes)
        self._entries = OrderedDict()
        self.stats = RankCacheStats()

    # ------------------------------------------------------------------ #
    def lookup(self, dram_address, locality_hint=True):
        """Look up an embedding vector by DRAM address.

        Returns True on hit.  On a miss the vector is allocated only when
        ``locality_hint`` is set; otherwise the access bypasses the cache
        (counted separately) and DRAM must be read either way.
        """
        if dram_address < 0:
            raise ValueError("dram_address must be non-negative")
        if dram_address in self._entries:
            self._entries.move_to_end(dram_address)
            self.stats.hits += 1
            return True
        if not locality_hint:
            self.stats.bypasses += 1
            return False
        self.stats.misses += 1
        if len(self._entries) >= self.num_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[dram_address] = None
        return False

    def contains(self, dram_address):
        """True if the vector is resident (no recency update)."""
        return dram_address in self._entries

    def flush(self):
        """Drop all cached vectors (statistics retained)."""
        self._entries.clear()

    def reset_stats(self):
        self.stats = RankCacheStats()

    @property
    def occupancy(self):
        """Number of vectors currently resident."""
        return len(self._entries)

    @property
    def hit_rate(self):
        return self.stats.hit_rate
