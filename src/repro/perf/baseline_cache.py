"""Memoised DDR4 baseline simulation.

Every speedup the paper reports is normalised against the host DDR4 system
running the *same* physical-address trace.  Sweeps that vary only the RecNMP
side (cache capacity, packet size, scheduling policy, channel count) used to
re-run that baseline cycle simulation from scratch on every call, which
dominated their runtime.  This module runs the baseline through a keyed LRU
cache: the key captures the trace content and the full DRAM configuration,
so a repeated (trace, config) pair returns the stored
:class:`~repro.dram.system.DramSystemResult` without re-simulating.

The cache is process-wide and thread-safe.  Process-backend workers keep
their own copy and export new entries for the parent to merge
(:func:`merge_baseline_entries`).  Results must be treated as read-only
by callers, which all current callers honour.
"""

import dataclasses
import hashlib

import numpy as np

from repro.dram.system import DramSystem
from repro.utils.lru import LRUCache

_CACHE = LRUCache(128)


def trace_fingerprint(physical_addresses):
    """Stable digest of a physical-address trace (content, not identity)."""
    array = np.asarray(physical_addresses, dtype=np.int64)
    digest = hashlib.sha1(array.tobytes()).hexdigest()
    return digest, int(array.size)


def _config_fingerprint(config):
    """Stable digest of the DRAM configuration, or None if there is none.

    Dataclass reprs (including the nested timing dataclass) are
    content-stable and carry the class qualname, so they key safely.  A
    non-dataclass timing object's default repr embeds a memory address --
    unstable across runs and reusable across objects -- so such configs are
    reported as un-keyable and the caller skips the cache.
    """
    if dataclasses.is_dataclass(config) and \
            dataclasses.is_dataclass(config.timing):
        # repro-lint: allow-fingerprint-hygiene (guarded above: only content-stable dataclass reprs reach this line; everything else keys as None)
        return repr(config)
    return None


def baseline_cache_key(config, physical_addresses, request_bytes,
                       outstanding_per_channel):
    """Cache key covering the trace and every DRAM configuration field.

    Returns None when the configuration cannot be keyed safely (see
    :func:`_config_fingerprint`).
    """
    config_key = _config_fingerprint(config)
    if config_key is None:
        return None
    digest, size = trace_fingerprint(physical_addresses)
    return (config_key, request_bytes, outstanding_per_channel, digest,
            size)


def run_baseline_trace(config, physical_addresses, request_bytes=64,
                       outstanding_per_channel=32, use_cache=True):
    """Run (or replay) the DDR4 baseline for a physical-address trace.

    Parameters mirror :meth:`repro.dram.system.DramSystem.run_trace`;
    ``config`` is the :class:`~repro.dram.system.DramSystemConfig`.  With
    ``use_cache`` (the default) the simulation result is memoised.
    """
    key = None
    if use_cache:
        key = baseline_cache_key(config, physical_addresses, request_bytes,
                                 outstanding_per_channel)
    if key is not None:
        result = _CACHE.get(key)
        if result is not None:
            return result
    # Simulate outside the cache lock: two threads racing on the same key
    # at most duplicate the work, they never corrupt the cache.
    result = DramSystem(config).run_trace(
        physical_addresses, request_bytes=request_bytes,
        outstanding_per_channel=outstanding_per_channel)
    if key is not None:
        _CACHE.put(key, result)
    return result


def export_baseline_entries():
    """Snapshot the cache as a list of picklable ``(key, result)`` pairs.

    Used by the process execution backend
    (:mod:`repro.core.backend`): a worker process exports the entries its
    channel simulation produced so the parent can merge them back and
    later dispatches (on any backend) replay the stored baselines.
    """
    return _CACHE.export_entries()


def merge_baseline_entries(pairs, hits=0, misses=0):
    """Merge worker-side ``(key, result)`` pairs into this process's cache.

    Existing entries win (first simulation of a trace is authoritative;
    re-merging an identical result is a no-op either way), merged entries
    count as freshly used for LRU purposes, and the bound is enforced
    after the merge.  ``hits``/``misses`` fold the workers' counter deltas
    into the process-wide statistics so cache-effectiveness reports stay
    meaningful under the process backend.
    """
    _CACHE.merge_entries(pairs, hits=hits, misses=misses)


def clear_baseline_cache():
    """Drop every memoised baseline result and zero the hit counters."""
    _CACHE.clear()


def baseline_cache_stats():
    """Return ``{"entries", "hits", "misses"}`` for the process-wide cache."""
    stats = _CACHE.stats()
    return {name: stats[name] for name in ("entries", "hits", "misses")}
