"""Random index distributions used to synthesise embedding lookup traces.

The paper evaluates RecNMP both on fully random traces (worst-case locality)
and on production traces that exhibit *modest temporal reuse* (Fig. 7).  The
production traces themselves are proprietary, so this module provides the
building blocks for synthetic equivalents:

* :class:`UniformGenerator` -- uniformly random indices (the "random" trace).
* :class:`ZipfGenerator` -- power-law popularity, the classic skewed-access
  model for recommendation item popularity.
* :class:`HotSetGenerator` -- an explicit hot-set mixture (a small fraction of
  rows absorbs a configurable fraction of accesses) which gives direct control
  over the temporal hit-rate a cache of a given size will observe.
"""

import numpy as np


class UniformGenerator:
    """Generate uniformly random row indices in ``[0, num_rows)``."""

    def __init__(self, num_rows, seed=None):
        if num_rows <= 0:
            raise ValueError("num_rows must be positive, got %r" % (num_rows,))
        self.num_rows = int(num_rows)
        self._rng = np.random.default_rng(seed)

    def sample(self, count):
        """Return ``count`` random indices as an int64 numpy array."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._rng.integers(0, self.num_rows, size=count, dtype=np.int64)


class ZipfGenerator:
    """Generate Zipf-distributed row indices.

    Row ``k`` (0-based rank) is drawn with probability proportional to
    ``1 / (k + 1) ** alpha``.  A random permutation optionally maps popularity
    rank to actual row id so that hot rows are spread over the table rather
    than clustered at the front (matching how hashing places hot entities in
    real embedding tables).
    """

    def __init__(self, num_rows, alpha=1.05, seed=None, permute=True):
        if num_rows <= 0:
            raise ValueError("num_rows must be positive, got %r" % (num_rows,))
        if alpha <= 0:
            raise ValueError("alpha must be positive, got %r" % (alpha,))
        self.num_rows = int(num_rows)
        self.alpha = float(alpha)
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, self.num_rows + 1, dtype=np.float64)
        weights = ranks ** (-self.alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if permute:
            self._permutation = self._rng.permutation(self.num_rows)
        else:
            self._permutation = None

    def sample(self, count):
        """Return ``count`` Zipf-distributed indices as an int64 array."""
        if count < 0:
            raise ValueError("count must be non-negative")
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u, side="left")
        ranks = np.clip(ranks, 0, self.num_rows - 1)
        if self._permutation is not None:
            return self._permutation[ranks].astype(np.int64)
        return ranks.astype(np.int64)


class HotSetGenerator:
    """Hot-set mixture: a ``hot_fraction`` of rows receives ``hot_probability``
    of the accesses, the rest are uniform over the cold rows.

    This gives direct, analytic control of the temporal locality a cache will
    observe: with a hot set that fits in the cache, the steady-state hit rate
    approaches ``hot_probability``.
    """

    def __init__(self, num_rows, hot_fraction=0.001, hot_probability=0.5,
                 seed=None):
        if num_rows <= 0:
            raise ValueError("num_rows must be positive, got %r" % (num_rows,))
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_probability <= 1.0:
            raise ValueError("hot_probability must be in [0, 1]")
        self.num_rows = int(num_rows)
        self.hot_fraction = float(hot_fraction)
        self.hot_probability = float(hot_probability)
        self._rng = np.random.default_rng(seed)
        hot_count = max(1, int(round(self.num_rows * self.hot_fraction)))
        self._hot_rows = self._rng.choice(self.num_rows, size=hot_count,
                                          replace=False).astype(np.int64)
        self.hot_count = hot_count

    def sample(self, count):
        """Return ``count`` indices drawn from the hot/cold mixture."""
        if count < 0:
            raise ValueError("count must be non-negative")
        is_hot = self._rng.random(count) < self.hot_probability
        hot_picks = self._rng.integers(0, self.hot_count, size=count)
        cold_picks = self._rng.integers(0, self.num_rows, size=count,
                                        dtype=np.int64)
        result = np.where(is_hot, self._hot_rows[hot_picks], cold_picks)
        return result.astype(np.int64)
