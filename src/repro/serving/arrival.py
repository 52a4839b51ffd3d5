"""Request arrival processes and serving-query generation.

A serving node receives a stream of inference *queries*; each query gathers
embeddings from several tables (one SLS request per table).  This module
models when queries arrive -- a Poisson process at a target QPS, or a replay
of recorded inter-arrival gaps -- and materialises the queries themselves
from the per-table lookup traces in :mod:`repro.traces`.
"""

import hashlib
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.serving.query_columns import query_columns_from_traces


@dataclass
class ServingQuery:
    """One user-facing inference query.

    Attributes
    ----------
    query_id:
        Monotonic identifier (also the tie-breaker for deterministic order).
    arrival_us:
        Arrival time at the serving frontend, in microseconds.
    requests:
        The query's SLS requests (one per embedding table it touches).
    deadline_us:
        Optional *absolute* completion deadline (same clock as
        ``arrival_us``).  ``None`` means the query carries no SLO;
        deadlines are typically assigned by an
        :class:`~repro.serving.slo.SLOPolicy` rather than set by hand.
    """

    query_id: int
    arrival_us: float
    requests: list = field(default_factory=list)
    deadline_us: float = None

    @property
    def total_lookups(self):
        return sum(request.total_lookups for request in self.requests)

    def fingerprint(self):
        """Content digest of the query's lookups (arrival-independent).

        Two queries with the same tables and indices share a fingerprint
        even when they are distinct objects with different arrival times --
        the key the serving cluster memoises batch service times under.
        """
        if not hasattr(self, "_fingerprint"):
            digest = hashlib.sha1()
            for request in self.requests:
                digest.update(str(request.table_id).encode())
                digest.update(np.ascontiguousarray(request.indices).tobytes())
                digest.update(np.ascontiguousarray(request.lengths).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint


def _require_finite(**values):
    """Reject NaN and infinite parameters by name.

    A NaN slips past every ``<= 0`` guard (all its comparisons are
    false), so arrival processes, SLO policies and admission controllers
    check finiteness before their range checks.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


class _CumulativeGapStream:
    """Resumable arrival stream over per-chunk gap vectors.

    Subclasses define ``_next_gaps(count)``, the next inter-arrival
    gaps; this base turns them into absolute times with a carried clock.
    The carry is summed *inside* the ``cumsum`` (as a leading element),
    so the sequential association matches one global ``cumsum`` over the
    whole gap stream -- ``take(a)`` then ``take(b)`` is bit-identical to
    one ``take(a + b)``.
    """

    def __init__(self):
        self._now_us = 0.0

    def take(self, count):
        """The next ``count`` arrival times (us), continuing the stream."""
        if count < 0:
            raise ValueError("count must be non-negative")
        gaps = self._next_gaps(count)
        times = np.cumsum(np.concatenate(([self._now_us], gaps)))[1:]
        if count:
            self._now_us = float(times[-1])
        return times


class _PoissonArrivalStream(_CumulativeGapStream):
    """Resumable draw-order-preserving Poisson arrival stream."""

    def __init__(self, process):
        super().__init__()
        self._rng = np.random.default_rng(process.seed)
        self._mean_gap_us = 1e6 / process.rate_qps

    def _next_gaps(self, count):
        return self._rng.exponential(self._mean_gap_us, size=count)


class _TraceReplayArrivalStream(_CumulativeGapStream):
    """Resumable cycled-gap replay stream."""

    def __init__(self, process):
        super().__init__()
        self._gaps_us = process.gaps_us
        self._offset = 0

    def _next_gaps(self, count):
        size = self._gaps_us.size
        positions = (self._offset + np.arange(count, dtype=np.int64)) \
            % size
        self._offset = int((self._offset + count) % size)
        return self._gaps_us[positions]


class _MMPPArrivalStream:
    """Resumable two-state MMPP arrival stream, one step per draw.

    Replays the per-draw scalar loop of
    :meth:`MMPPArrivalProcess.arrival_times_us` over a blocked draw
    buffer: one draw per state sojourn, one per candidate gap --
    including the discarded overflow gap that ends a state -- consumed
    in exactly the order the scalar loop drew them.  Blocked
    ``standard_exponential`` refills consume the generator's bit stream
    exactly like repeated scalar draws, and ``exponential(scale)``
    equals ``scale * standard_exponential()`` draw for draw, so the
    generated times are bit-identical.  Each step is O(1): a sojourn
    costs its own arrivals plus the overflow draw, never a pass over the
    rest of the buffer.  When a ``take`` quota fills mid-state the
    overflow draw is *not* consumed (the scalar loop stops before
    drawing it); the next ``take`` resumes inside the same sojourn.
    """

    def __init__(self, process, block=8192):
        self._rng = np.random.default_rng(process.seed)
        self._block = int(block)
        self._draws = iter(())          # unconsumed buffered draws
        self._mean_sojourn_us = (process.mean_low_us, process.mean_high_us)
        self._mean_gap_us = (1e6 / process.rate_low_qps,
                             1e6 / process.rate_high_qps)
        self._high = False              # start in the (longer) low state
        self._limit_us = None           # end of the in-progress sojourn
        self._t_us = 0.0                # last arrival, or the state start

    def _refill(self):
        # Iterating a memoryview yields plain floats without boxing the
        # whole block up front.
        return iter(memoryview(
            self._rng.standard_exponential(self._block)))

    def take(self, count):
        """The next ``count`` arrival times (us), continuing the stream."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out = array("d")
        append = out.append
        draws = self._draws
        high, limit_us, t_us = self._high, self._limit_us, self._t_us
        remaining = count
        while remaining:
            if limit_us is None:
                draw = next(draws, None)
                if draw is None:
                    draws = self._refill()
                    continue
                limit_us = t_us + draw * self._mean_sojourn_us[high]
            scale = self._mean_gap_us[high]
            for draw in draws:
                candidate = t_us + draw * scale
                # Arrivals stay in the state while t <= limit (a query
                # landing exactly at the boundary still belongs to the
                # sojourn); the overflow draw is consumed and discarded
                # -- the leftover gap is memoryless -- and the next
                # sojourn starts at this one's end.
                if candidate > limit_us:
                    t_us, limit_us, high = limit_us, None, not high
                    break
                t_us = candidate
                append(candidate)
                remaining -= 1
                if not remaining:
                    break
            else:
                draws = self._refill()
        self._draws = draws
        self._high, self._limit_us, self._t_us = high, limit_us, t_us
        return np.array(out, dtype=np.float64)


class PoissonArrivalProcess:
    """Memoryless arrivals at a target rate (the classic traffic model)."""

    def __init__(self, rate_qps, seed=None):
        _require_finite(rate_qps=rate_qps)
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        self.rate_qps = float(rate_qps)
        self.seed = seed

    def arrival_times_us(self, num_queries):
        """Cumulative arrival times (us) of ``num_queries`` queries."""
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        return self.stream().take(num_queries)

    def stream(self):
        """Resumable arrival stream: ``take(a)`` then ``take(b)`` equals
        ``arrival_times_us(a + b)`` bit for bit."""
        return _PoissonArrivalStream(self)


class TraceReplayArrivalProcess:
    """Replay recorded inter-arrival gaps (cycled when the trace is short).

    ``rate_scale`` compresses (>1) or stretches (<1) the recorded gaps,
    which is how a QPS sweep replays the same production burstiness at
    different offered loads.
    """

    def __init__(self, inter_arrival_us, rate_scale=1.0):
        gaps = np.asarray(inter_arrival_us, dtype=np.float64)
        if gaps.size == 0:
            raise ValueError("need at least one inter-arrival gap")
        if not np.isfinite(gaps).all():
            raise ValueError("inter-arrival gaps must be finite")
        if (gaps < 0).any():
            raise ValueError("inter-arrival gaps must be non-negative")
        _require_finite(rate_scale=rate_scale)
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        self.gaps_us = gaps / rate_scale

    @classmethod
    def from_mmpp(cls, rate_qps, num_queries, seed=None, burstiness=4.0,
                  high_fraction=0.25):
        """Replay one recorded bursty (MMPP) gap sample at ``rate_qps``.

        Records ``num_queries`` inter-arrival gaps from a reference
        :class:`MMPPArrivalProcess` once and rate-scales them to the
        offered load -- so a QPS sweep replays the *same* burst shape at
        every point, unlike a re-drawn MMPP.  The shared recipe behind
        ``--arrival trace`` and the overload benchmark's trace-replay
        arm.  The first gap equals the first recorded arrival time, so
        the replay starts from the recorded stream's initial lull.
        """
        _require_finite(rate_qps=rate_qps)
        reference_qps = 1_000.0
        recorded = MMPPArrivalProcess.from_mean(
            reference_qps, burstiness=burstiness,
            high_fraction=high_fraction,
            seed=seed).arrival_times_us(num_queries)
        gaps = np.diff(recorded, prepend=0.0)
        return cls(gaps, rate_scale=rate_qps / reference_qps)

    @property
    def mean_rate_qps(self):
        mean_gap = float(self.gaps_us.mean())
        return 1e6 / mean_gap if mean_gap > 0 else float("inf")

    def arrival_times_us(self, num_queries):
        """Cumulative arrival times (us) of ``num_queries`` queries."""
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        return self.stream().take(num_queries)

    def stream(self):
        """Resumable arrival stream continuing the gap cycle across takes."""
        return _TraceReplayArrivalStream(self)


class MMPPArrivalProcess:
    """Two-state Markov-modulated Poisson process (bursty arrivals).

    The process alternates between a *low* and a *high* state; sojourn
    times in each state are exponential (``mean_low_us`` /
    ``mean_high_us``) and arrivals within a state are Poisson at that
    state's rate.  The result is overdispersed traffic -- bursts at
    ``rate_high_qps`` separated by lulls at ``rate_low_qps`` -- which is
    the regime where FIFO queues build deep backlogs that unconditional
    Poisson sweeps never exercise.  Deterministic for a fixed seed.
    """

    def __init__(self, rate_high_qps, rate_low_qps, mean_high_us,
                 mean_low_us, seed=None):
        _require_finite(rate_high_qps=rate_high_qps,
                        rate_low_qps=rate_low_qps,
                        mean_high_us=mean_high_us, mean_low_us=mean_low_us)
        if rate_high_qps <= 0 or rate_low_qps <= 0:
            raise ValueError("state rates must be positive")
        if rate_high_qps < rate_low_qps:
            raise ValueError("rate_high_qps must be >= rate_low_qps")
        if mean_high_us <= 0 or mean_low_us <= 0:
            raise ValueError("mean state sojourns must be positive")
        self.rate_high_qps = float(rate_high_qps)
        self.rate_low_qps = float(rate_low_qps)
        self.mean_high_us = float(mean_high_us)
        self.mean_low_us = float(mean_low_us)
        self.seed = seed

    @classmethod
    def from_mean(cls, mean_rate_qps, burstiness=4.0, high_fraction=0.25,
                  cycle_arrivals=64, seed=None):
        """Construct from a target mean rate and a burstiness shape.

        ``burstiness`` is the high/low rate ratio, ``high_fraction`` the
        fraction of time spent in the high state, and ``cycle_arrivals``
        the expected arrivals per low+high cycle (sets the sojourn time
        scale relative to the mean inter-arrival gap).  The time-averaged
        rate equals ``mean_rate_qps`` exactly, so sweeps can scale the
        offered load without changing the burst shape.
        """
        _require_finite(mean_rate_qps=mean_rate_qps, burstiness=burstiness,
                        high_fraction=high_fraction,
                        cycle_arrivals=cycle_arrivals)
        if mean_rate_qps <= 0:
            raise ValueError("mean_rate_qps must be positive")
        if burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")
        if not 0.0 < high_fraction < 1.0:
            raise ValueError("high_fraction must be in (0, 1)")
        if cycle_arrivals <= 0:
            raise ValueError("cycle_arrivals must be positive")
        rate_low = mean_rate_qps / (high_fraction * burstiness
                                    + (1.0 - high_fraction))
        rate_high = burstiness * rate_low
        cycle_us = cycle_arrivals * 1e6 / mean_rate_qps
        return cls(rate_high_qps=rate_high, rate_low_qps=rate_low,
                   mean_high_us=high_fraction * cycle_us,
                   mean_low_us=(1.0 - high_fraction) * cycle_us,
                   seed=seed)

    @property
    def mean_rate_qps(self):
        """Time-averaged arrival rate of the modulated process."""
        high_weight = self.mean_high_us
        low_weight = self.mean_low_us
        return (self.rate_high_qps * high_weight
                + self.rate_low_qps * low_weight) \
            / (high_weight + low_weight)

    def arrival_times_us(self, num_queries):
        """Cumulative arrival times (us) of ``num_queries`` queries.

        Walks a blocked draw buffer one draw at a time
        (:class:`_MMPPArrivalStream`); bit-identical to the original
        per-draw scalar loop, which ``tests/test_arrival_streams.py``
        keeps as the pinned specification.
        """
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        return self.stream().take(num_queries)

    def stream(self):
        """Resumable arrival stream: ``take(a)`` then ``take(b)`` equals
        ``arrival_times_us(a + b)`` bit for bit."""
        return _MMPPArrivalStream(self)


def queries_from_traces(traces, num_queries, arrivals, batch_size=4,
                        pooling_factor=20, start_id=0):
    """Materialise serving queries from per-table embedding traces.

    Each query carries one SLS request per trace (``batch_size`` poolings of
    ``pooling_factor`` lookups), sliced from that table's trace in order and
    cycled when the trace runs out -- so the query stream preserves each
    table's locality structure.  ``batch_size`` and ``pooling_factor``
    accept a per-trace sequence as well as a scalar: differently sized
    requests per table produce the skewed table loads that
    replication-aware sharding targets.  ``arrivals`` is an arrival
    process or a precomputed array of arrival times in microseconds.
    The queries are read off :func:`query_columns_from_traces`, so the
    object and column forms of a stream are row-for-row identical.
    """
    columns = query_columns_from_traces(traces, num_queries, arrivals,
                                        batch_size, pooling_factor, start_id)
    row_requests = columns.provider.row_requests
    return [ServingQuery(query_id=query_id, arrival_us=arrival_us,
                         requests=row_requests(row))
            for query_id, arrival_us, row in zip(
                columns.query_id.tolist(), columns.arrival_us.tolist(),
                columns.rows.tolist())]
