"""Blocked/streamed arrival generation vs the pinned scalar loops.

The arrival processes in :mod:`repro.serving.arrival` were rewritten
from scalar accumulation loops to draw-order-preserving generators over
blocked draws, with chunked ``stream()`` counterparts.  Reports all over the
repo are keyed on exact arrival times, so the rewrite must be *bitwise*
identical: this module keeps verbatim copies of the retired scalar
loops as the specification and pins the new one-shot and chunked paths
against them over seeds, burst shapes and take patterns (including
empty takes and take sizes that split state sojourns mid-burst, end
exactly on a sojourn boundary or drain the draw buffer exactly).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.arrival import (
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    TraceReplayArrivalProcess,
    _MMPPArrivalStream,
)


def legacy_poisson_times(process, num_queries):
    """Pre-rewrite Poisson one-shot (kept verbatim as the spec)."""
    rng = np.random.default_rng(process.seed)
    mean_gap_us = 1e6 / process.rate_qps
    gaps = rng.exponential(mean_gap_us, size=num_queries)
    return np.cumsum(gaps)


def legacy_mmpp_times(process, num_queries):
    """Pre-rewrite MMPP scalar loop (kept verbatim as the spec)."""
    rng = np.random.default_rng(process.seed)
    times = []
    now_us = 0.0
    high = False                    # start in the (longer) low state
    while len(times) < num_queries:
        rate_qps = process.rate_high_qps if high else process.rate_low_qps
        mean_sojourn = process.mean_high_us if high \
            else process.mean_low_us
        sojourn_us = rng.exponential(mean_sojourn)
        mean_gap_us = 1e6 / rate_qps
        t = now_us
        while len(times) < num_queries:
            t += rng.exponential(mean_gap_us)
            if t > now_us + sojourn_us:
                break
            times.append(t)
        now_us += sojourn_us
        high = not high
    return np.asarray(times[:num_queries], dtype=np.float64)


def legacy_replay_times(process, num_queries):
    """Pre-rewrite trace-replay tiling (kept verbatim as the spec)."""
    repeats = -(-num_queries // process.gaps_us.size) if num_queries \
        else 0
    gaps = np.tile(process.gaps_us, max(repeats, 1))[:num_queries]
    return np.cumsum(gaps)


def chunked_times(process, num_queries, chunks):
    """Drain ``num_queries`` arrivals via stream().take() pieces."""
    stream = process.stream()
    pieces, taken = [], 0
    for count in chunks:
        count = min(count, num_queries - taken)
        pieces.append(stream.take(count))
        taken += count
        if taken == num_queries:
            break
    while taken < num_queries:
        pieces.append(stream.take(min(1000, num_queries - taken)))
        taken += len(pieces[-1])
    return np.concatenate(pieces) if pieces else np.empty(0)


TAKE_PATTERNS = (
    [10_000],                       # one shot through the stream
    [1, 1, 5, 0, 64, 997, 10_000],  # ragged, with an empty take
    [250] * 40,                     # steady chunks
)


class TestPoisson:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("size", [0, 1, 100, 5000])
    def test_oneshot_matches_legacy(self, seed, size):
        process = PoissonArrivalProcess(rate_qps=150_000.0, seed=seed)
        assert np.array_equal(process.arrival_times_us(size),
                              legacy_poisson_times(process, size))

    @pytest.mark.parametrize("chunks", TAKE_PATTERNS)
    def test_stream_matches_oneshot(self, chunks):
        process = PoissonArrivalProcess(rate_qps=150_000.0, seed=3)
        expected = process.arrival_times_us(4000)
        assert np.array_equal(chunked_times(process, 4000, chunks),
                              expected)


class TestMMPP:
    SHAPES = (
        dict(rate_high_qps=400_000.0, rate_low_qps=40_000.0,
             mean_high_us=1_000.0, mean_low_us=5_000.0),
        dict(rate_high_qps=120_000.0, rate_low_qps=120_000.0,
             mean_high_us=50.0, mean_low_us=50.0),
        dict(rate_high_qps=1_000_000.0, rate_low_qps=1_000.0,
             mean_high_us=10_000.0, mean_low_us=100.0),
    )

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("size", [0, 1, 7, 100, 3000])
    def test_oneshot_matches_legacy_loop(self, shape, seed, size):
        process = MMPPArrivalProcess(seed=seed, **shape)
        assert np.array_equal(process.arrival_times_us(size),
                              legacy_mmpp_times(process, size))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chunks", TAKE_PATTERNS)
    def test_stream_matches_oneshot(self, shape, chunks):
        process = MMPPArrivalProcess(seed=11, **shape)
        expected = process.arrival_times_us(4000)
        assert np.array_equal(chunked_times(process, 4000, chunks),
                              expected)

    def test_from_mean_stream_round_trip(self):
        process = MMPPArrivalProcess.from_mean(200_000.0, seed=2)
        expected = legacy_mmpp_times(process, 2500)
        assert np.array_equal(process.arrival_times_us(2500), expected)
        assert np.array_equal(chunked_times(process, 2500, [333] * 10),
                              expected)


class TestTraceReplay:
    def _process(self):
        rng = np.random.default_rng(9)
        gaps = rng.integers(1, 40, size=257).astype(np.float64)
        return TraceReplayArrivalProcess(gaps)

    @pytest.mark.parametrize("size", [0, 1, 256, 257, 258, 5000])
    def test_oneshot_matches_legacy(self, size):
        process = self._process()
        assert np.array_equal(process.arrival_times_us(size),
                              legacy_replay_times(process, size))

    @pytest.mark.parametrize("chunks", TAKE_PATTERNS)
    def test_stream_matches_oneshot(self, chunks):
        process = self._process()
        expected = process.arrival_times_us(4000)
        assert np.array_equal(chunked_times(process, 4000, chunks),
                              expected)

    def test_streams_are_independent(self):
        # Each stream() starts from the beginning of the gap cycle.
        process = self._process()
        first = process.stream().take(100)
        second = process.stream().take(100)
        assert np.array_equal(first, second)


class _DrawLog:
    """Generator proxy recording the scale of every exponential draw."""

    def __init__(self, rng):
        self._rng = rng
        self.scales = []

    def exponential(self, scale):
        self.scales.append(scale)
        return self._rng.exponential(scale)


def logged_legacy_mmpp_times(process, num_queries, monkeypatch):
    """The legacy spec's times plus the scale of each draw it made."""
    real_default_rng = np.random.default_rng
    logs = []

    def logging_rng(seed):
        logs.append(_DrawLog(real_default_rng(seed)))
        return logs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", logging_rng)
        times = legacy_mmpp_times(process, num_queries)
    return times, logs[0].scales


def take_boundaries(process, scales, block):
    """Arrival counts at which the legacy loop just ended a sojourn's
    last arrival, and those at which it just used the last draw of a
    ``block``-draw refill on an arrival."""
    sojourn_scales = {process.mean_low_us, process.mean_high_us}
    is_sojourn = [scale in sojourn_scales for scale in scales]
    arrivals_after = []             # arrivals emitted once draw i is used
    arrivals = 0
    for i, sojourn in enumerate(is_sojourn):
        # A gap draw followed by a sojourn draw is the discarded
        # overflow that ended its state; every other gap is an arrival.
        overflow = i + 1 < len(is_sojourn) and is_sojourn[i + 1]
        if not sojourn and not overflow:
            arrivals += 1
        arrivals_after.append(arrivals)
    sojourn_ends = [arrivals_after[i - 1]
                    for i in range(1, len(is_sojourn)) if is_sojourn[i]]
    refill_ends = [arrivals_after[i]
                   for i in range(block - 1, len(scales) - 1, block)
                   if not is_sojourn[i] and not is_sojourn[i + 1]]
    return sojourn_ends, refill_ends


def takes_ending_at(boundaries, num_queries):
    """Take sizes whose running totals hit every boundary, then drain."""
    sizes, taken = [], 0
    for boundary in sorted(set(boundaries)) + [num_queries]:
        sizes.append(boundary - taken)
        taken = boundary
    return sizes


def drain(stream, sizes):
    pieces = [stream.take(size) for size in sizes]
    return np.concatenate(pieces) if pieces else np.empty(0)


class TestMMPPRefills:
    """Takes that cross the 8192-draw buffer refills of the stream."""

    BLOCK = 8192
    SIZE = 30_000

    def _process(self):
        return MMPPArrivalProcess.from_mean(1.96e6, burstiness=4, seed=4)

    def test_long_stream_matches_legacy_loop(self, monkeypatch):
        process = self._process()
        expected, scales = logged_legacy_mmpp_times(process, self.SIZE,
                                                    monkeypatch)
        assert len(scales) > 3 * self.BLOCK
        assert np.array_equal(process.arrival_times_us(self.SIZE),
                              expected)
        assert np.array_equal(
            chunked_times(process, self.SIZE, [4093] * 8), expected)

    def test_takes_ending_on_sojourn_and_refill_boundaries(
            self, monkeypatch):
        process = self._process()
        expected, scales = logged_legacy_mmpp_times(process, self.SIZE,
                                                    monkeypatch)
        sojourn_ends, refill_ends = take_boundaries(process, scales,
                                                    self.BLOCK)
        assert len(sojourn_ends) > 100 and len(refill_ends) >= 3
        for boundaries in (sojourn_ends, refill_ends,
                           sojourn_ends + refill_ends):
            sizes = takes_ending_at(boundaries, self.SIZE)
            assert np.array_equal(drain(process.stream(), sizes),
                                  expected)

    @pytest.mark.parametrize("block", [1, 2, 3, 17])
    def test_tiny_blocks_match_legacy_loop(self, block):
        # Refills every few draws land on every kind of draw: sojourn
        # starts, arrivals and the overflow that ends a state.
        process = MMPPArrivalProcess.from_mean(200_000.0, seed=8)
        expected = legacy_mmpp_times(process, 600)
        for sizes in ([600], [1] * 600, [0, 5, 0, 37, 558]):
            stream = _MMPPArrivalStream(process, block=block)
            assert np.array_equal(drain(stream, sizes), expected)

    @settings(max_examples=60, deadline=None)
    @given(rate_low_qps=st.floats(1e3, 1e6),
           burstiness=st.floats(1.0, 200.0),
           mean_high_us=st.floats(1.0, 1e4),
           mean_low_us=st.floats(1.0, 1e4),
           seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.integers(0, 400), max_size=10),
           block=st.sampled_from([1, 2, 5, 64, 8192]))
    def test_random_takes_match_legacy_loop(self, rate_low_qps, burstiness,
                                            mean_high_us, mean_low_us,
                                            seed, sizes, block):
        process = MMPPArrivalProcess(
            rate_high_qps=rate_low_qps * burstiness,
            rate_low_qps=rate_low_qps, mean_high_us=mean_high_us,
            mean_low_us=mean_low_us, seed=seed)
        expected = legacy_mmpp_times(process, sum(sizes))
        stream = _MMPPArrivalStream(process, block=block)
        assert np.array_equal(drain(stream, sizes), expected)


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestNonFiniteParameters:
    """NaN passes every ``<= 0`` guard, so finiteness is checked first."""

    MMPP = dict(rate_high_qps=400_000.0, rate_low_qps=40_000.0,
                mean_high_us=1_000.0, mean_low_us=5_000.0)
    FROM_MEAN = dict(mean_rate_qps=200_000.0, burstiness=4.0,
                     high_fraction=0.25, cycle_arrivals=64)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_poisson_rate(self, value):
        with pytest.raises(ValueError, match="rate_qps must be finite"):
            PoissonArrivalProcess(value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", sorted(MMPP))
    def test_mmpp_parameters(self, name, value):
        with pytest.raises(ValueError, match=name + " must be finite"):
            MMPPArrivalProcess(**dict(self.MMPP, **{name: value}))

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", sorted(FROM_MEAN))
    def test_from_mean_parameters(self, name, value):
        with pytest.raises(ValueError, match=name + " must be finite"):
            MMPPArrivalProcess.from_mean(
                **dict(self.FROM_MEAN, **{name: value}))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_trace_replay_gaps(self, value):
        with pytest.raises(ValueError, match="gaps must be finite"):
            TraceReplayArrivalProcess([1.0, value])

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_trace_replay_rate_scale(self, value):
        with pytest.raises(ValueError, match="rate_scale must be finite"):
            TraceReplayArrivalProcess([1.0, 2.0], rate_scale=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_from_mmpp_rate(self, value):
        with pytest.raises(ValueError, match="rate_qps must be finite"):
            TraceReplayArrivalProcess.from_mmpp(value, 16, seed=0)

    def test_finite_parameters_still_accepted(self):
        assert PoissonArrivalProcess(1.0).rate_qps == 1.0
        assert MMPPArrivalProcess(**self.MMPP).mean_rate_qps > 0
        assert MMPPArrivalProcess.from_mean(**self.FROM_MEAN) \
            .mean_rate_qps == pytest.approx(200_000.0)
        assert TraceReplayArrivalProcess([0.0, 1.0]).gaps_us.size == 2
