"""Figure 16: RecNMP vs TensorDIMM vs Chameleon vs the host baseline.

Regenerates the comparison across memory configurations (1x2, 1x4, 2x2,
4x2), on random and production traces.  All four systems are built by name
through the unified registry (:mod:`repro.systems`) -- RecNMP is simulated,
TensorDIMM and Chameleon use their analytical models grounded on the
simulated host cycle count.  Paper claims checked: RecNMP scales with rank
count while the others only scale with DIMM count, RecNMP wins at every
configuration, and only RecNMP benefits from the locality of production
traces.
"""

from workloads import (
    format_table,
    production_requests,
    random_requests,
    run_system,
)

CONFIGS = ((1, 2), (1, 4), (2, 2), (4, 2))


def compute_fig16():
    workloads = {
        "random": random_requests(num_tables=8, batch=8, pooling=40, seed=0),
        "production": production_requests(num_tables=8, batch=8, pooling=40,
                                          seed=0),
    }
    rows = []
    for num_dimms, ranks_per_dimm in CONFIGS:
        label = "%dx%d" % (num_dimms, ranks_per_dimm)
        population = dict(num_dimms=num_dimms, ranks_per_dimm=ranks_per_dimm)
        for trace, requests in workloads.items():
            speedups = {
                name: run_system(name, requests,
                                 **population).speedup_vs_baseline
                for name in ("recnmp-opt", "tensordimm", "chameleon")
            }
            rows.append((label, trace,
                         round(speedups["recnmp-opt"], 2),
                         round(speedups["tensordimm"], 2),
                         round(speedups["chameleon"], 2)))
    return rows


def bench_fig16_comparison(benchmark):
    rows = benchmark.pedantic(compute_fig16, rounds=1, iterations=1)
    print()
    print(format_table(
        "Fig. 16 -- memory latency speedup over the host baseline",
        ["config", "trace", "RecNMP-opt", "TensorDIMM", "Chameleon"], rows))
    by_key = {(r[0], r[1]): r for r in rows}
    # RecNMP wins over both prior designs at the full 4x2 configuration.
    assert by_key[("4x2", "production")][2] > \
        by_key[("4x2", "production")][3] > by_key[("4x2", "production")][4]
    # Rank-level scaling: RecNMP improves from 1x2 to 1x4, the DIMM-level
    # designs do not.
    assert by_key[("1x4", "production")][2] > \
        by_key[("1x2", "production")][2]
    assert by_key[("1x4", "production")][3] == \
        by_key[("1x2", "production")][3]
    # Only RecNMP extracts extra performance from production-trace locality.
    assert by_key[("4x2", "production")][2] > by_key[("4x2", "random")][2]
    assert by_key[("4x2", "production")][3] == by_key[("4x2", "random")][3]
    assert by_key[("4x2", "production")][4] == by_key[("4x2", "random")][4]
