"""The layer ledger: which public functions make up each layer, and the
per-layer metrics computed from a traced run.

Each layer is a set of :class:`~span_ledger.Probe` targets, named after
the module that owns them.  A layer's host time is the self time of its
spans (children subtracted), divided by the unit the layer works in:
queries for the stages before batching, batches for resolution and the
queue engine, simulated instructions for the cycle simulator, and DDR
accesses for the baseline.  Counts come from the program's public
results and stats, or from the arguments and results the probes see.
"""

from repro.core.memory_controller import NMPMemoryController
from repro.core.multi_channel import MultiChannelRecNMP
from repro.core.packet_generator import PacketGenerator
from repro.core.processing_unit import RecNMPChannel
from repro.core.simulator import RecNMPSimulator
from repro.dram.system import DramSystem
from repro.perf.service_model import InterpolatingServiceModel
from repro.perf.service_store import ServiceTimeStore
from repro.serving import event_kernels
from repro.serving.batcher import BatchingFrontend
from repro.serving.cluster import ShardedServingCluster
from repro.serving.engine import ServingEngine
from repro.serving.query_columns import QueryStream
from repro.serving.slo import SLOPolicy
from repro.systems.base import EmbeddingSystem

from span_ledger import Probe

#: ``(metric, layer, unit key, unit)``: host self time per unit of work.
TIME_METRICS = (
    ("query_columns.take_us_per_query", "query_columns.take", "queries",
     "us/query"),
    ("slo.assign_us_per_query", "slo.assign", "queries", "us/query"),
    ("admission.mask_us_per_query", "admission.mask", "queries",
     "us/query"),
    ("batcher.form_us_per_query", "batcher.form", "admitted", "us/query"),
    ("service_model.interp_us_per_batch", "service_model.interp",
     "batches", "us/batch"),
    ("event_kernels.queue_us_per_batch", "event_kernels.queue", "batches",
     "us/batch"),
    ("events.summarize_us_per_batch", "events.summarize", "batches",
     "us/batch"),
    ("cluster.simulate_self_us_per_query", "cluster.simulate", "queries",
     "us/query"),
    ("cluster.resolve_us_per_batch", "cluster.resolve", "batches",
     "us/batch"),
    ("service_store.us_per_batch", "service_store", "batches", "us/batch"),
    ("systems.run_us_per_inst", "systems.run", "insts", "us/inst"),
    ("simulator.reset_us_per_inst", "simulator.reset", "insts", "us/inst"),
    ("packet_generator.us_per_inst", "packet_generator", "insts",
     "us/inst"),
    ("memory_controller.dispatch_us_per_inst",
     "memory_controller.dispatch", "insts", "us/inst"),
    ("rank_nmp.execute_us_per_inst", "rank_nmp.execute", "insts",
     "us/inst"),
    ("dram.baseline_us_per_access", "dram.baseline", "dram_accesses",
     "us/access"),
)

#: ``(metric, unit, better)`` of the deterministic counts and the two
#: figures that describe the traced run itself.
COUNT_METRICS = (
    ("service_model.calibration_sims", "count", "lower"),
    ("batcher.queries_per_batch", "query/batch", "higher"),
    ("admission.shed_frac", "fraction", "lower"),
    ("cluster.cache_hit_rate", "fraction", "higher"),
    ("cluster.exact_sims_per_batch", "sim/batch", "lower"),
    ("packet_generator.insts_per_packet", "inst/packet", "higher"),
    ("rank_nmp.packed_frac", "fraction", "higher"),
    ("rank_nmp.cache_hit_rate", "fraction", "higher"),
    ("dram.speedup_vs_ddr4", "ratio", "higher"),
    ("ledger.unattributed_frac", "fraction", "lower"),
    ("ledger.trace_overhead_frac", "fraction", "lower"),
)


def metric_units():
    """Every per-layer metric name mapped to its unit."""
    units = {name: unit for name, _, _, unit in TIME_METRICS}
    units.update((name, unit) for name, unit, _ in COUNT_METRICS)
    return units


# --------------------------------------------------------------------- #
# Probes                                                                #
# --------------------------------------------------------------------- #
def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_object_packet(counts, args, kwargs, result):
    count = len(_argument(args, kwargs, 1, "packet").instructions)
    counts["insts"] += count


def _count_packed(counts, args, kwargs, result):
    count = len(_argument(args, kwargs, 1, "packed"))
    counts["insts"] += count
    counts["insts_packed"] += count


def _count_packets(counts, args, kwargs, result):
    counts["packets"] += len(result)
    counts["packet_insts"] += sum(len(packet) for packet in result)


def _count_dram(counts, args, kwargs, result):
    counts["dram_accesses"] += len(
        _argument(args, kwargs, 1, "physical_addresses"))


def _count_system(counts, args, kwargs, result):
    counts["system_lookups"] += result.num_lookups
    counts["rank_cache_hits"] += result.cache_hit_rate * result.num_lookups


def _defining_classes(base, attribute):
    """``base`` and its subclasses that implement ``attribute`` themselves."""
    found, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        function = cls.__dict__.get(attribute)
        if function is not None \
                and not getattr(function, "__isabstractmethod__", False):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def probes():
    """Every wrapped entry point, grouped into layers."""
    listed = [
        Probe(QueryStream, "take", "query_columns.take"),
        Probe(event_kernels, "admission_mask", "admission.mask"),
        Probe(BatchingFrontend, "form_batch_columns", "batcher.form"),
        Probe(BatchingFrontend, "form_batches", "batcher.form"),
        Probe(InterpolatingServiceModel, "service_times_us",
              "service_model.interp"),
        Probe(event_kernels, "fifo_queue_times", "event_kernels.queue"),
        Probe(event_kernels, "edf_queue_times", "event_kernels.queue"),
        Probe(ShardedServingCluster, "simulate", "cluster.simulate"),
        Probe(ShardedServingCluster, "service_times_us", "cluster.resolve"),
        Probe(ServiceTimeStore, "get", "service_store"),
        Probe(ServiceTimeStore, "put_many", "service_store"),
        Probe(MultiChannelRecNMP, "run_requests", "systems.run"),
        Probe(RecNMPSimulator, "reset", "simulator.reset"),
        Probe(PacketGenerator, "packets_for_requests", "packet_generator",
              _count_packets),
        Probe(NMPMemoryController, "dispatch", "memory_controller.dispatch"),
        Probe(RecNMPChannel, "execute_packet", "rank_nmp.execute",
              _count_object_packet),
        Probe(RecNMPChannel, "execute_packed", "rank_nmp.execute",
              _count_packed),
        Probe(DramSystem, "run_trace", "dram.baseline", _count_dram),
    ]
    listed += [Probe(cls, "assign_deadlines_columns", "slo.assign")
               for cls in _defining_classes(SLOPolicy,
                                            "assign_deadlines_columns")]
    listed += [Probe(cls, "summarize", "events.summarize")
               for cls in _defining_classes(ServingEngine, "summarize")]
    listed += [Probe(cls, "run", "systems.run", _count_system)
               for cls in _defining_classes(EmbeddingSystem, "run")]
    return listed


# --------------------------------------------------------------------- #
# Metrics                                                               #
# --------------------------------------------------------------------- #
def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(self_seconds, units, counts, extra):
    """The ledger's metric values from one or more traced repetitions.

    ``self_seconds`` maps layer -> summed self time, ``units`` the
    workload's summed work counts, ``counts`` the probes' summed tallies
    and ``extra`` the figures read outside the traced region
    (``calibration_sims``, ``speedup_vs_ddr4``, ``unattributed_frac``,
    ``trace_overhead_frac``).  Layers a workload never calls read 0.
    """
    units = dict(units)
    units.update(insts=counts["insts"],
                 dram_accesses=counts["dram_accesses"])
    values = {name: _ratio(self_seconds.get(layer, 0.0) * 1e6, units[key])
              for name, layer, key, _ in TIME_METRICS}
    values.update({
        "service_model.calibration_sims": extra["calibration_sims"],
        "batcher.queries_per_batch": _ratio(units["admitted"],
                                            units["batches"]),
        "admission.shed_frac": _ratio(units["shed"], units["queries"]),
        "cluster.cache_hit_rate": _ratio(units["cache_hits"],
                                         units["cache_lookups"]),
        "cluster.exact_sims_per_batch": _ratio(units["exact_sims"],
                                               units["batches"]),
        "packet_generator.insts_per_packet": _ratio(counts["packet_insts"],
                                                    counts["packets"]),
        "rank_nmp.packed_frac": _ratio(counts["insts_packed"],
                                       counts["insts"]),
        "rank_nmp.cache_hit_rate": _ratio(counts["rank_cache_hits"],
                                          counts["system_lookups"]),
        "dram.speedup_vs_ddr4": extra["speedup_vs_ddr4"],
        "ledger.unattributed_frac": extra["unattributed_frac"],
        "ledger.trace_overhead_frac": extra["trace_overhead_frac"],
    })
    return values
