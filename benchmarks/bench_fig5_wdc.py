"""Paper Fig. 5: WDC12 (128B edges) from 100 to 400 ranks.

The paper's flagship runs: the benchmark algorithms on the largest
publicly available graph, with the total split into computation and
communication (maximum over ranks).  Overall times scale ~2x from 100
to 400 ranks — the expected O(sqrt(p)) factor — with communication
improving less than computation.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentRow, comm_split, format_rows, make_engine, run_algorithm
from repro.graph import load

ALGOS = ["BFS", "PR", "CC"]
RANKS = [100, 200, 400]
TARGET_EDGES = 1 << 17


def _run() -> list[ExperimentRow]:
    ds = load("WDC", target_edges=TARGET_EDGES, seed=3)
    rows = []
    for algo in ALGOS:
        for p in RANKS:
            engine = make_engine(ds, p)
            rows.append(
                run_algorithm(
                    algo,
                    engine,
                    experiment="fig5",
                    dataset="WDC",
                    full_scale_edges=ds.meta.n_edges,
                )
            )
    return rows


@pytest.mark.xfail(
    strict=True,
    reason="CC comp speed-up 1.23 <= 1.3 (100 -> 400 ranks): CC labels by original "
    "id since PR 5; ROADMAP item 1 (label by relabeled GID) must flip this",
)
def test_fig5_wdc_scaling(benchmark, record_results, run_once):
    rows = run_once(benchmark, _run)
    by_key = {(r.algorithm, r.n_ranks): r for r in rows}
    lines = [format_rows(rows, "Fig. 5 — WDC12 computation/communication, 100-400 ranks")]
    lines.append("")
    lines.append("speedups 100 -> 400 ranks (expected ~2x = sqrt(4)):")
    for algo in ALGOS:
        t100 = by_key[(algo, 100)]
        t400 = by_key[(algo, 400)]
        # Comp/comm splits from the exact per-iteration traces (they
        # sum to the clock totals bit-for-bit; the byte columns come
        # from measured counter deltas, not time-share apportioning).
        s100, s400 = comm_split(t100), comm_split(t400)
        total_speedup = t100.time_total / t400.time_total
        comp_speedup = s100["compute_s"] / s400["compute_s"]
        comm_speedup = s100["comm_s"] / max(s400["comm_s"], 1e-12)
        lines.append(
            f"  {algo:>4}: total {total_speedup:4.2f}x  comp {comp_speedup:4.2f}x  "
            f"comm {comm_speedup:4.2f}x  "
            f"[{s400['bytes']:,} B over {s400['iterations']} iters at 400]"
        )
        # Paper: "achieving speedups of about 2x for all algorithms".
        assert 1.3 < total_speedup < 3.5, (algo, total_speedup)
        # Computation and communication both continue to scale (paper:
        # "computation and communication also scales for all
        # algorithms").  The paper additionally observes communication
        # improving somewhat less than computation; in the simulation
        # the two are close enough that their ordering varies by
        # algorithm, so only the both-scale property is asserted (see
        # EXPERIMENTS.md).
        assert comp_speedup > 1.3, algo
        assert comm_speedup > 1.2, algo
    record_results("fig5_wdc", "\n".join(lines), rows=rows)
