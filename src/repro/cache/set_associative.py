"""Set-associative LRU cache simulator.

Used for the embedding-table locality study of Section II-F: the paper sweeps
cache capacity (8-64 MB, 64 B lines, 4-way, LRU) for temporal locality and
cacheline size (64-512 B at 16 MB) for spatial locality.
"""

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss counters for a cache simulation."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """N-way set-associative cache with true-LRU replacement.

    Parameters
    ----------
    capacity_bytes:
        Total cache capacity in bytes.
    line_size_bytes:
        Cacheline size in bytes (power of two).
    associativity:
        Number of ways per set.
    """

    def __init__(self, capacity_bytes, line_size_bytes=64, associativity=4):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if line_size_bytes <= 0 or line_size_bytes & (line_size_bytes - 1):
            raise ValueError("line_size_bytes must be a positive power of two")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        num_lines = capacity_bytes // line_size_bytes
        if num_lines == 0:
            raise ValueError("capacity smaller than one cacheline")
        if num_lines % associativity:
            raise ValueError(
                "capacity (%d lines) not divisible by associativity %d"
                % (num_lines, associativity))
        self.capacity_bytes = int(capacity_bytes)
        self.line_size_bytes = int(line_size_bytes)
        self.associativity = int(associativity)
        self.num_sets = num_lines // associativity
        # Each set is an OrderedDict mapping tag -> None; the insertion order
        # encodes recency (last item = most recently used).
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    def _locate(self, address):
        line = address // self.line_size_bytes
        set_index = line % self.num_sets
        tag = line // self.num_sets
        return set_index, tag

    def access(self, address):
        """Simulate one access; returns True on hit, False on miss."""
        if address < 0:
            raise ValueError("address must be non-negative")
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.associativity:
            cache_set.popitem(last=False)
            self.stats.evictions += 1
        cache_set[tag] = None
        return False

    def access_many(self, addresses):
        """Simulate a sequence of accesses; returns the number of hits."""
        hits = 0
        for address in addresses:
            if self.access(int(address)):
                hits += 1
        return hits

    def contains(self, address):
        """True if the line holding ``address`` is resident (no side effect)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def flush(self):
        """Invalidate the whole cache, keeping statistics."""
        for cache_set in self._sets:
            cache_set.clear()

    def reset_stats(self):
        """Zero the hit/miss counters."""
        self.stats = CacheStats()

    @property
    def resident_lines(self):
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self):
        return self.stats.hit_rate
