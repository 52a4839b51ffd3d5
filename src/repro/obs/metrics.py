"""Metric primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the one place a serving stack publishes
numbers into: the cluster's simulation counters, per-run latency
histograms, and *collectors* -- callables polled at snapshot time that
pull stats out of components owning their own accounting (the
service-time LRU, the sqlite store).  Collectors are the
zero-hot-path-overhead half of the design: nothing in a simulation loop
ever formats or copies a stat dict; :meth:`MetricsRegistry.snapshot`
does all the reading when somebody actually asks.

Everything here is simulation-deterministic: metric values derive only
from simulated quantities (no wall clock), and snapshots iterate names
in sorted order so two identical runs serialise byte-identical JSON.
"""

import math

import numpy as np

#: Default histogram buckets: 4 per decade from 1 us to 10 s, a span
#: that covers batching delays through saturated-queue latencies.
DEFAULT_LATENCY_BUCKETS_US = tuple(
    round(10.0 ** (exponent / 4.0), 6)
    for exponent in range(0, 29))


class Counter:
    """A monotonically increasing count (queries served, batches formed)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._value = 0

    @property
    def value(self):
        return self._value

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for "
                             "values that fall")
        self._value += amount

    def reset(self):
        self._value = 0


class Gauge:
    """A point-in-time value (last run's utilisation, max queue depth)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self):
        return self._value

    def set(self, value):
        self._value = float(value)

    def reset(self):
        self._value = 0.0


class Histogram:
    """Fixed-bucket histogram with O(1) memory at any sample count.

    ``buckets`` are ascending upper bounds; an implicit +inf bucket
    catches the overflow.  :meth:`observe_many` bins a whole numpy
    vector in one ``searchsorted`` pass -- the engines hand over their
    per-query latency arrays directly.  :meth:`quantile` interpolates
    linearly inside the winning bucket, which is an *estimate*: exact
    percentiles stay in the :class:`ServingReport`; the histogram is for
    cross-run aggregation and the metrics snapshot.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "_min", "_max")

    def __init__(self, name, buckets=DEFAULT_LATENCY_BUCKETS_US, help=""):
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value):
        self.observe_many([value])

    def observe_many(self, values):
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        if not np.all(np.isfinite(array)):
            raise ValueError("histogram %s observed a non-finite value"
                             % self.name)
        indices = np.searchsorted(self.buckets, array, side="left")
        self._counts += np.bincount(indices,
                                    minlength=self._counts.size)
        self._sum += float(array.sum())
        self._count += int(array.size)
        self._min = min(self._min, float(array.min()))
        self._max = max(self._max, float(array.max()))

    @property
    def count(self):
        return self._count

    @property
    def sum(self):
        return self._sum

    @property
    def mean(self):
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q):
        """Estimated ``q``-quantile (0..1) by in-bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._count:
            return 0.0
        target = q * self._count
        cumulative = 0
        lower = 0.0 if self._min > 0.0 else self._min
        for index, count in enumerate(self._counts):
            if not count:
                continue
            upper = self.buckets[index] if index < len(self.buckets) \
                else self._max
            upper = min(upper, self._max)
            lower = max(lower, self._min) if cumulative == 0 else lower
            if cumulative + count >= target:
                fraction = (target - cumulative) / count
                return float(lower + fraction * (upper - lower))
            cumulative += count
            lower = upper
        return float(self._max)

    def reset(self):
        self._counts[:] = 0
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def snapshot(self):
        """JSON-safe summary of the distribution."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [list(pair) for pair in
                        zip(self.buckets,
                            self._counts[:-1].tolist())],
            "overflow": int(self._counts[-1]),
        }


def observe_finite(histogram, values):
    """Observe only the finite entries of ``values``.

    The analytic engine reports infinite waits/latencies for unstable
    queues; histograms stay finite, so publishers route sample vectors
    through this filter instead of crashing an over-offered run.
    """
    array = np.asarray(values, dtype=np.float64)
    finite = array[np.isfinite(array)]
    histogram.observe_many(finite)


class MetricsRegistry:
    """Named metrics plus snapshot-time collectors.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same object (and a different
    metric kind under an existing name is an error), so publishers can
    cache the returned handle and pay one attribute call per update.
    """

    def __init__(self):
        self._metrics = {}
        self._collectors = {}

    # ------------------------------------------------------------------ #
    def _get_or_create(self, kind, name, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    "metric %r is a %s, not a %s"
                    % (name, type(existing).__name__, kind.__name__))
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name, help=""):
        return self._get_or_create(Counter, name,
                                   lambda: Counter(name, help))

    def gauge(self, name, help=""):
        return self._get_or_create(Gauge, name, lambda: Gauge(name, help))

    def histogram(self, name, buckets=DEFAULT_LATENCY_BUCKETS_US, help=""):
        return self._get_or_create(
            Histogram, name, lambda: Histogram(name, buckets, help))

    def register_collector(self, name, collect):
        """Register ``collect() -> dict`` polled at snapshot time.

        The lazy half of the registry: components that already keep
        their own counters (the service-time LRU, the sqlite store)
        expose them through a collector instead of double-counting on
        the hot path.  Re-registering a name replaces the collector.
        """
        if not callable(collect):
            raise ValueError("collector %r must be callable" % name)
        self._collectors[name] = collect

    # ------------------------------------------------------------------ #
    def get(self, name):
        """The metric registered under ``name`` (KeyError when absent)."""
        return self._metrics[name]

    def names(self):
        """Sorted names of the registered metrics."""
        return sorted(self._metrics)

    def snapshot(self):
        """One JSON-safe dict of everything: the metrics export format.

        ``counters`` / ``gauges`` / ``histograms`` map sorted metric
        names to values; ``collected`` holds each collector's dict.
        ``python -m repro report`` pretty-prints exactly this shape.
        """
        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        collected = {name: dict(self._collectors[name]())
                     for name in sorted(self._collectors)}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "collected": collected}

    def reset(self):
        """Zero every counter, gauge and histogram (collectors stay)."""
        for name in sorted(self._metrics):
            self._metrics[name].reset()
