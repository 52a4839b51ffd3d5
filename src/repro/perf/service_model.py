"""Batch-size-aware service-time models for the serving layer.

The cycle simulator is the serving bottleneck: every distinct batch
composition costs a full RecNMP simulation.  The closed-form engine only
ever needed a few dozen batches, but the event engine
(:mod:`repro.serving.events`) is cheap enough to replay hundreds of
thousands of batches -- if their service times do not each cost a cycle
simulation.  A :class:`ServiceTimeModel` decides how the service times
of a :class:`~repro.serving.query_columns.BatchColumns` are obtained:

* :class:`ExactServiceModel` -- resolve every batch through
  :meth:`ShardedServingCluster.service_times_us` (memoised by batch
  content).
* :class:`InterpolatingServiceModel` -- calibrate a (poolings x
  pooling-factor) grid of simulated service times *once* per cluster,
  then answer every batch by bilinear interpolation on its total
  poolings and mean pooling factor.  Turns an O(batches)
  number of cycle simulations into O(grid), which is what makes
  million-query event runs tractable.

The grid memoisation reuses the keyed-LRU pattern of
:mod:`repro.perf.baseline_cache` via :class:`repro.utils.LRUCache`.
"""

import abc

import numpy as np

from repro.utils.lru import LRUCache


class ServiceTimeModel(abc.ABC):
    """Strategy interface: (cluster, batches) -> service times in us."""

    #: Registry name of the model (``"exact"`` / ``"interp"``).
    name = "service-model"

    @abc.abstractmethod
    def service_times_us(self, cluster, batches):
        """Per-batch service times of ``batches`` on ``cluster``, in
        microseconds (the engine-facing call).

        ``batches`` is a
        :class:`~repro.serving.query_columns.BatchColumns`.
        """

    def describe(self):
        """Human-readable one-line description of the model."""
        return self.name


class ExactServiceModel(ServiceTimeModel):
    """Simulate every batch composition (the PR-1 behaviour).

    Exact mode's cost is one cycle simulation per distinct batch
    composition, so it scales directly with the simulator hot path and
    the cluster's *node-level* execution backend:
    ``ShardedServingCluster(backend="process")`` fans the per-node shard
    simulations of each batch out to worker processes, so an N-node
    batch uses up to N cores while staying bit-identical to serial.  The compiled
    command-issue kernels plus node-level parallelism are what make
    exact (non-interpolated) service times affordable for long
    event-engine runs.
    """

    name = "exact"

    def service_times_us(self, cluster, batches):
        """Resolve every batch through the cluster in one call.

        The cluster's batched path fingerprints every batch up front,
        collapses duplicate compositions, answers cache/store hits in
        place and fans only the unique misses out through its node-level
        backend as one flat job list -- bit-identical to the
        one-batch-at-a-time loop, without serialising the event engine
        on each simulation in turn.
        """
        return cluster.service_times_us(batches)


class InterpolatingServiceModel(ServiceTimeModel):
    """Interpolate service times from a calibrated grid of simulations.

    The grid spans (batch size x pooling factor): for every per-query
    request shape observed -- ``b`` poolings per table at ``p`` lookups
    each -- one *row* of batches with ``batch_sizes`` queries of that
    shape is simulated exactly, and every later batch with that shape is
    answered by interpolating its ``total_poolings`` along the row
    (linear extrapolation past the last grid point).  Batches issue one
    SLS request per query per table, so calibration batches are composed
    of real multi-query batches, preserving the per-request dispatch
    overheads a single merged request would hide.

    Parameters
    ----------
    traces:
        Per-table :class:`EmbeddingTrace` list the calibration batches
        are materialised from -- use the same traces (or the same
        generator settings) as the workload being served, so the grid
        preserves the workload's locality structure.
    batch_sizes:
        Queries per calibration batch (the grid's batch-size axis).
    pooling_factors:
        Pooling factors to snap observed batches onto.  ``None`` (the
        default) calibrates one row per distinct observed (rounded)
        pooling factor; a tuple restricts rows to those values and
        interpolates between the two bracketing rows.
    max_grids:
        LRU bound on per-cluster calibration grids held by this model.
    """

    name = "interp"

    def __init__(self, traces, batch_sizes=(1, 2, 4, 8, 16, 32),
                 pooling_factors=None, max_grids=8):
        if not traces:
            raise ValueError("need at least one calibration trace")
        if len(batch_sizes) < 2:
            raise ValueError("need at least two batch-size grid points")
        self.traces = list(traces)
        self.batch_sizes = tuple(sorted(set(int(b) for b in batch_sizes)))
        if any(b <= 0 for b in self.batch_sizes):
            raise ValueError("batch-size grid points must be positive")
        self.pooling_factors = None if pooling_factors is None else \
            tuple(sorted(set(int(p) for p in pooling_factors)))
        self._grids = LRUCache(max_entries=max_grids)
        self._exact_calls = 0
        self._interpolated_calls = 0
        self._extrapolated_batches = 0

    # ------------------------------------------------------------------ #
    def _calibration_row(self, cluster, poolings, pooling_factor):
        """Simulated service times over the batch-size grid at one shape."""
        from repro.serving.query_columns import (
            BatchColumns,
            query_columns_from_traces,
        )

        shortest = min(len(trace) for trace in self.traces)
        if poolings * pooling_factor > shortest:
            raise ValueError(
                "calibration traces too short: need %d lookups per table "
                "for a %dx%d request, shortest trace has %d"
                % (poolings * pooling_factor, poolings, pooling_factor,
                   shortest))
        xs, values = [], []
        for batch_size in self.batch_sizes:
            columns = query_columns_from_traces(
                self.traces, batch_size, np.zeros(batch_size),
                batch_size=poolings, pooling_factor=pooling_factor)
            batch = BatchColumns(columns, [0], [0.0], [0.0], [0])
            xs.append(float(columns.poolings.sum()))
            values.append(cluster.service_time_us(batch[0]))
            self._exact_calls += 1
        return np.asarray(xs), np.asarray(values)

    def _grid_for(self, cluster):
        """The per-cluster grid of calibrated rows, keyed by query shape.

        Entries hold a strong reference to their cluster: ``id()`` alone
        could be reused by a new cluster after the old one is collected
        and silently serve a grid calibrated on different hardware.  The
        reference pins at most ``max_grids`` clusters, and the identity
        check recalibrates if an id is ever reused anyway.
        """
        # repro-lint: allow-fingerprint-hygiene (identity memo, not a persisted key: the entry pins a strong reference and the `is cluster` re-check below recalibrates on id reuse)
        key = id(cluster)
        entry = self._grids.get(key)
        if entry is not None and entry[0] is cluster:
            return entry[1]
        grid = {}
        self._grids.put(key, (cluster, grid))
        return grid

    def _row(self, grid, cluster, poolings, pooling_factor):
        key = (poolings, pooling_factor)
        if key not in grid:
            grid[key] = self._calibration_row(cluster, poolings,
                                              pooling_factor)
        return grid[key]

    @staticmethod
    def _interp_row_vector(row, total_poolings):
        """Row lookup over a total-poolings array, with linear
        extrapolation past the last grid point.

        Returns ``(values, beyond)``; ``beyond`` masks the extrapolated
        elements.
        """
        xs, values = row
        result = np.interp(total_poolings, xs, values)
        beyond = total_poolings > xs[-1]
        if beyond.any():
            slope = (values[-1] - values[-2]) / (xs[-1] - xs[-2])
            result[beyond] = values[-1] \
                + slope * (total_poolings[beyond] - xs[-1])
        return result, beyond

    def _pf_rows_for(self, observed_pf):
        """The pooling-factor row(s) answering an observed factor."""
        if self.pooling_factors is None:
            return (observed_pf,)
        # Bracket the observed pooling factor with permitted rows; clamp
        # to the nearest row outside the grid (never extrapolate across
        # the whole pooling-factor range).
        below = [p for p in self.pooling_factors if p <= observed_pf]
        above = [p for p in self.pooling_factors if p >= observed_pf]
        if not below:
            return (above[0],)
        if not above:
            return (below[-1],)
        return tuple(sorted({below[-1], above[0]}))

    def service_times_us(self, cluster, batches):
        """Whole-chunk batch answering (the engine-facing call).

        Per-batch request, pooling and lookup totals come from
        :meth:`~repro.serving.query_columns.BatchColumns.totals`.  Each
        batch's shape is its per-request poolings and mean pooling
        factor, rounded half-to-even like ``round``.  Shape groups
        calibrate their missing grid rows in first-encounter order --
        the calibration sequence of a one-batch-at-a-time loop -- and
        are answered with one vectorised row interpolation each.
        """
        count = len(batches)
        if not count:
            return []
        num_requests, total_poolings, total_lookups = batches.totals()
        if not num_requests.all():
            raise ValueError(
                "batch carries no SLS requests; cannot derive a "
                "calibration shape for the interpolating service model")
        mean_pf = np.divide(total_lookups, total_poolings,
                            out=np.zeros(count), where=total_poolings > 0)
        shapes = np.maximum(np.rint(np.stack(
            [total_poolings / num_requests, mean_pf], axis=1)), 1)
        shapes, first, inverse = np.unique(
            shapes.astype(np.int64), axis=0, return_index=True,
            return_inverse=True)
        inverse = inverse.reshape(-1)
        points = total_poolings.astype(np.float64)
        grid = self._grid_for(cluster)
        out = np.empty(count, dtype=np.float64)
        for group in np.argsort(first):
            poolings, observed_pf = shapes[group].tolist()
            members = np.flatnonzero(inverse == group)
            pf_rows = self._pf_rows_for(observed_pf)
            values, beyond = self._interp_row_vector(
                self._row(grid, cluster, poolings, pf_rows[0]),
                points[members])
            if len(pf_rows) == 2:
                low, high = pf_rows
                value_high, beyond_high = self._interp_row_vector(
                    self._row(grid, cluster, poolings, high),
                    points[members])
                weight = (observed_pf - low) / (high - low)
                values = values + weight * (value_high - values)
                beyond |= beyond_high
            out[members] = values
            self._extrapolated_batches += int(np.count_nonzero(beyond))
        self._interpolated_calls += count
        return out.tolist()

    def stats(self):
        """Calibration-vs-interpolation call accounting.

        ``extrapolated_batches`` counts answered batches whose total
        poolings lie past the last calibrated grid point (linear
        extrapolation rather than interpolation).
        """
        return {"exact_calls": self._exact_calls,
                "interpolated_calls": self._interpolated_calls,
                "extrapolated_batches": self._extrapolated_batches,
                "grids": len(self._grids)}

    def __getstate__(self):
        """Pickle without the calibration grids.

        Grid entries pin their clusters (see :meth:`_grid_for`), so a
        pickled model would drag whole clusters -- backends, pools and
        all -- across the process boundary.  A model shipped to a sweep
        worker therefore starts cold and recalibrates against the
        worker's own cluster, which is exactly the grid it needs.
        """
        state = self.__dict__.copy()
        state["_grids"] = self._grids.max_entries
        return state

    def __setstate__(self, state):
        state = dict(state)
        state["_grids"] = LRUCache(max_entries=state["_grids"])
        self.__dict__.update(state)


#: Model registry: name -> class (interp needs constructor arguments, so
#: resolve_service_model only instantiates the argument-free exact model).
SERVICE_MODELS = {"exact": ExactServiceModel,
                  "interp": InterpolatingServiceModel}


def resolve_service_model(model):
    """Normalise a ``service_model=`` argument into a model instance.

    Accepts ``None`` or ``"exact"`` (a fresh :class:`ExactServiceModel`),
    a ready :class:`ServiceTimeModel` instance, or a model class with a
    zero-argument constructor.  ``"interp"`` must be passed as an
    instance because it needs calibration traces.
    """
    if model is None:
        return ExactServiceModel()
    if isinstance(model, ServiceTimeModel):
        return model
    if isinstance(model, type) and issubclass(model, ServiceTimeModel):
        return model()
    if model == "exact":
        return ExactServiceModel()
    if model == "interp":
        raise ValueError("the interpolating model needs calibration traces;"
                         " pass an InterpolatingServiceModel instance")
    raise ValueError("unknown service model %r; available: %s"
                     % (model, ", ".join(sorted(SERVICE_MODELS))))
