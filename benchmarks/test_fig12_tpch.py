"""Figure 12 — TPC-H execution time (Q1, Q6, Q19) with and without RSWS.

The paper splits each query's cost into scan nodes vs other nodes and
finds (a) the verifiability overhead is concentrated almost entirely in
the scan nodes (where the ReadSet/WriteSet updates happen), (b) the
SGX-resident execution engine itself adds nothing, so (c) the relative
overhead is small for computation-bound plans (Q19 nested-loop: ~9%)
and largest for scan-bound ones (Q1/Q6: up to ~39%).

Run ``python benchmarks/test_fig12_tpch.py`` for the table.
"""

import pytest

from _harness import (
    FIG12_QUERIES,
    SCALE,
    build_tpch,
    obs_scope,
    print_fig12_table,
    print_metrics_breakdown,
    run_fig12,
    write_bench_json,
)
from repro.workloads.tpch import QUERIES

SCALE_FACTOR = 0.0005 * SCALE  # 3000 lineitems, 100 parts at scale 1


@pytest.fixture(scope="module")
def databases():
    return {
        "VeriDB (w/ RSWS)": build_tpch(True, SCALE_FACTOR),
        "Baseline": build_tpch(False, SCALE_FACTOR),
    }


@pytest.mark.parametrize("label,query,hint", FIG12_QUERIES)
@pytest.mark.parametrize("config", ["VeriDB (w/ RSWS)", "Baseline"])
def test_fig12_query(benchmark, databases, label, query, hint, config):
    db = databases[config]
    sql = QUERIES[query]
    result = benchmark(lambda: db.sql(sql, join_hint=hint))
    benchmark.extra_info["scan_s"] = round(result.scan_seconds(), 4)
    benchmark.extra_info["other_s"] = round(result.other_seconds(), 4)


def test_fig12_shape():
    """The robust qualitative claims of Figure 12.

    Strict assertions target the scan-bound Q1 (3000-row verified scan,
    the strongest signal); the noisier join queries get sanity margins —
    individual wall-clock runs at this scale jitter by ~10-20%.
    """
    rows = run_fig12(SCALE_FACTOR, repeats=5)
    by_key = {(r["query"], r["config"]): r for r in rows}

    q1_veridb = by_key[("Q1", "VeriDB (w/ RSWS)")]
    q1_baseline = by_key[("Q1", "Baseline")]
    # verifiability visibly costs on the scan-bound query...
    assert q1_veridb["total_s"] > q1_baseline["total_s"] * 1.05
    # ...and the extra cost sits in the scan nodes, not the engine
    scan_delta = q1_veridb["scan_s"] - q1_baseline["scan_s"]
    other_delta = q1_veridb["other_s"] - q1_baseline["other_s"]
    assert scan_delta > other_delta

    # scan time dominates every plan's verified configuration
    for label, _, _ in FIG12_QUERIES:
        veridb = by_key[(label, "VeriDB (w/ RSWS)")]
        baseline = by_key[(label, "Baseline")]
        assert veridb["scan_s"] > veridb["other_s"]
        # the verified run is never meaningfully cheaper (sanity margin)
        assert veridb["total_s"] > baseline["total_s"] * 0.85


def main():
    with obs_scope() as registry:
        rows = run_fig12(SCALE_FACTOR, repeats=5)
        print_fig12_table(rows)
        print(
            "(paper: overhead dominated by scan nodes; 9% for Q19/NL up to "
            "39% for scan-bound queries)"
        )
        # keyed by query then configuration, so the perf-trend gate can
        # compare each (query, config) timing with its baseline
        queries: dict = {}
        for row in rows:
            queries.setdefault(row["query"], {})[row["config"]] = {
                key: row[key] for key in ("total_s", "scan_s", "other_s")
            }
        write_bench_json(
            "fig12_tpch",
            {"queries": queries, "scale_factor": SCALE_FACTOR},
        )
        print_metrics_breakdown(registry)


if __name__ == "__main__":
    main()
