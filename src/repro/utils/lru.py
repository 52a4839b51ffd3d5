"""A small thread-safe LRU mapping with hit/miss accounting.

An :class:`collections.OrderedDict` bounded to ``max_entries``,
least-recently-used eviction, and hit/miss counters for diagnostics.
It is the process-wide DDR4 baseline memo of
:mod:`repro.perf.baseline_cache`, and it bounds the serving cluster's
per-batch service-time cache and the interpolating service model's
calibration grids, which would otherwise grow without limit on long
trace replays.
"""

import threading
from collections import OrderedDict

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    max_entries:
        Capacity bound; inserting beyond it evicts the least recently
        used entry.  Must be positive.
    """

    def __init__(self, max_entries=1024):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def get(self, key, default=None):
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key, value):
        """Insert or refresh ``key``, evicting LRU entries over capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self):
        """Drop every entry and zero the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def export_entries(self):
        """Snapshot the cache as ``(key, value)`` pairs, LRU first.

        The worker-to-parent merge primitive of the parallel serving
        paths and of
        :func:`repro.perf.baseline_cache.export_baseline_entries`: a
        worker exports the entries its simulations produced so the
        parent can fold them back with :meth:`merge_entries`.
        """
        with self._lock:
            return list(self._entries.items())

    def merge_entries(self, pairs, hits=0, misses=0):
        """Merge ``(key, value)`` pairs from a worker-side cache.

        Existing entries win (the first simulation of a composition is
        authoritative; a re-merged identical value is a no-op either
        way), merged entries count as freshly used, and the capacity
        bound is enforced after the merge.  ``hits``/``misses`` fold the
        worker's counter deltas into this cache's statistics.
        """
        with self._lock:
            for key, value in pairs:
                if key not in self._entries:
                    self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self._hits += int(hits)
            self._misses += int(misses)

    def stats(self):
        """``{"entries", "max_entries", "hits", "misses"}`` snapshot."""
        with self._lock:
            return {"entries": len(self._entries),
                    "max_entries": self.max_entries,
                    "hits": self._hits,
                    "misses": self._misses}

    def __getstate__(self):
        """Pickle support: the lock is recreated on unpickle.

        Lets objects holding an LRU (service-time models, cluster
        sweep specs) cross a process boundary; the entries travel with
        the cache, the lock does not.
        """
        with self._lock:
            return {"max_entries": self.max_entries,
                    "entries": list(self._entries.items()),
                    "hits": self._hits,
                    "misses": self._misses}

    def __setstate__(self, state):
        self.max_entries = state["max_entries"]
        self._entries = OrderedDict(state["entries"])
        self._lock = threading.Lock()
        self._hits = state["hits"]
        self._misses = state["misses"]
