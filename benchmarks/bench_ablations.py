"""Ablation benches for the design choices the paper fixes.

Three knobs the paper sets once and argues for in prose; each ablation
verifies the choice is load-bearing in the model:

* **dense->sparse switch threshold** — the paper switches at
  ``N / max(R, C)`` updated vertices, "to ensure that communication
  volume is always being saved" (§3.3.1);
* **Manhattan Collapse** — near-perfect edge balance vs. the naive
  vertex-per-thread kernel whose warps run at hub speed (§3.4.2);
* **striped vertex distribution** — "comparable load balance to a
  random distribution without ... varying group sizes", far better
  than contiguous blocks on inputs whose hubs cluster by ID (§3.4.2).
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.algorithms import connected_components
from repro.bench import make_engine
from repro.cluster import AIMOS
from repro.core.engine import Engine
from repro.graph import chung_lu_powerlaw, load
from repro.graph.partition.twod import partition_2d
from repro.comm.grid import Grid2D
from repro.patterns.switching import SwitchPolicy


def test_switch_threshold_ablation(benchmark, record_results, run_once):
    """Sweep the switch threshold factor around the paper's 1.0."""

    def _run():
        ds = load("GSH", target_edges=1 << 16, seed=12)
        paper_threshold = SwitchPolicy.threshold.fget
        times = {}
        for factor in (0.1, 0.5, 1.0, 2.0, 8.0):
            engine = make_engine(ds, 16)
            # The cutoff is the paper's constant, not an algorithm
            # option: the ablation scales it inside the policy every
            # run builds.
            scaled = property(lambda self, f=factor: f * paper_threshold(self))
            with mock.patch.object(SwitchPolicy, "threshold", scaled):
                res = connected_components(engine, direction="push", mode="switch")
            times[factor] = res.timings.total
        return times

    times = run_once(benchmark, _run)
    lines = ["Ablation — dense->sparse switch threshold factor (CC push, GSH)"]
    for f, t in sorted(times.items()):
        lines.append(f"  factor {f:>4}: {t:8.3f}s")
    paper = times[1.0]
    # The paper's setting is within 25% of the best factor tried: the
    # threshold is robust (the paper picks it analytically, not tuned).
    assert paper <= min(times.values()) * 1.25, times
    record_results("ablation_switch_threshold", "\n".join(lines))


def test_manhattan_collapse_ablation(benchmark, record_results, run_once):
    """Manhattan Collapse vs naive vertex-per-thread on skewed queues."""

    def _run():
        g = chung_lu_powerlaw(20000, 300_000, gamma=1.9, seed=3)
        cluster = AIMOS.scaled(33e9 / g.n_edges)
        out = {}
        for mode in ("manhattan", "vertex"):
            engine = Engine(g, 16, cluster=cluster, load_balance=mode)
            res = connected_components(engine, direction="push")
            out[mode] = res.timings.compute
        return out

    comp = run_once(benchmark, _run)
    ratio = comp["vertex"] / comp["manhattan"]
    lines = [
        "Ablation — GPU load balance (CC compute time, heavy-skew input)",
        f"  Manhattan Collapse : {comp['manhattan']:8.3f}s",
        f"  vertex-per-thread  : {comp['vertex']:8.3f}s",
        f"  collapse speedup   : {ratio:.2f}x",
    ]
    # The paper: "computational load balance is almost fully optimized";
    # the naive kernel must be substantially slower on power-law queues.
    assert ratio > 2.0, comp
    record_results("ablation_manhattan", "\n".join(lines))


def test_vertex_distribution_ablation(benchmark, record_results, run_once):
    """Striped vs random vs contiguous-block vertex distributions."""

    def _run():
        # An input whose hubs cluster at low IDs (no relabeling) is the
        # adversarial case for block distributions the paper guards
        # against.
        rng = np.random.default_rng(5)
        n, m = 8000, 120_000
        w = (np.arange(n) + 10.0) ** -0.6
        cdf = np.cumsum(w) / w.sum()
        src = np.searchsorted(cdf, rng.random(m))
        dst = np.searchsorted(cdf, rng.random(m))
        from repro.graph import Graph

        g = Graph.from_edges(src, dst, n)
        grid = Grid2D(4, 4)
        out = {}
        for dist in ("striped", "random", "block"):
            part = partition_2d(g, grid, distribution=dist, seed=7)
            edges = np.array([b.n_local_edges for b in part.blocks])
            out[dist] = float(edges.max() / edges.mean())
        return out

    imb = run_once(benchmark, _run)
    lines = ["Ablation — vertex distribution: block edge imbalance (max/mean)"]
    for dist, v in imb.items():
        lines.append(f"  {dist:>8}: {v:5.2f}")
    # Paper §3.4.2: striped ~ random, both far better than blocks.
    assert imb["striped"] < 1.5 * imb["random"], imb
    assert imb["block"] > 1.5 * imb["striped"], imb
    record_results("ablation_distribution", "\n".join(lines))
