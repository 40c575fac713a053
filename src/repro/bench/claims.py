"""The paper's claims as one table: ``python -m repro claims``.

:data:`EXPERIMENTS` names the runs behind the paper's figures and
tables (one function each, deterministic: modeled time repeats exactly
on any host).  :data:`CLAIMS` is the table of qualitative claims they
must reproduce — who wins, by roughly what factor, where curves bend —
one :class:`Claim` per row, with the paper's bound written into the
row's inequality.  :func:`run_claims` runs every experiment once and
evaluates every row; a row that loops over instances (datasets,
algorithms, shapes) names each instance that fails.

The report (schema ``repro.claims.v1``) stores every modeled value a
row compares as a hex float, so the committed ``tests/claims_golden.json``
turns a cost-model, clock or algorithm edit into a diff of named rows::

    python -m repro claims --out tests/claims_golden.json

Besides the rows, the experiments carry checks that raise: a strong
scaling run whose per-iteration trace does not sum to the run's clock
totals is a broken measurement, not a bent curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence
from unittest import mock

import numpy as np

from ..algorithms import (
    CC_VARIANTS, betweenness, bfs, connected_components, core_numbers,
    greedy_coloring, pagerank, sssp,
)
from ..baselines import cc_1d, cc_15d, spmv_bfs, spmv_cc, spmv_engine, spmv_pagerank
from ..cluster import AIMOS, GENERIC_PROFILE, ZEPY
from ..comm.grid import Grid2D
from ..core.engine import Engine
from ..graph import Graph, chung_lu_powerlaw, load
from ..graph.datasets import REGISTRY, DatasetMeta
from ..graph.partition.twod import partition_2d
from ..patterns.switching import SwitchPolicy
from .harness import (
    ExperimentRow, grid_for, make_engine, run_algorithm, strong_scaling, weak_scaling,
)
from .reporting import comm_split
from .scaling import (
    estimate_2d_memory, estimate_generic_substrate_memory, estimate_la_backend_memory,
)

__all__ = ["SCHEMA", "Claim", "EXPERIMENTS", "CLAIMS", "evaluate", "run_claims"]

SCHEMA = "repro.claims.v1"

#: (R, C) shapes of Fig. 7's 256-rank sweep.
FIG7_SHAPES = ((2, 128), (4, 64), (8, 32), (16, 16), (32, 8), (64, 4), (128, 2))
#: Fig. 6's ablation ladder, in order.
FIG6_ORDER = ("Base", "+SP", "+SP+SW", "+SP+SW+VQ", "+All+Push")


def _split(row: ExperimentRow) -> dict[str, float]:
    """A row's modeled total and its comm / compute split, summed from
    the exact per-iteration trace; raises unless the trace reproduces
    the run's clock totals."""
    split = comm_split(row)
    for lane, total in (("comm_s", row.time_comm), ("compute_s", row.time_compute)):
        if not math.isclose(split[lane], total, rel_tol=1e-12, abs_tol=1e-12):
            raise AssertionError(
                f"{row.dataset} {row.algorithm} @ {row.n_ranks}: trace {lane} "
                f"{split[lane]!r} != clock {total!r}"
            )
    return {"total": row.time_total, "comm": split["comm_s"], "compute": split["compute_s"]}


# -- experiments -----------------------------------------------------------


def fig3(
    datasets: Sequence[str] = ("TW", "FR", "CW", "GSH"),
    algos: Sequence[str] = ("BFS", "PR", "CC"),
    ranks: Sequence[int] = (1, 4, 16, 64, 256),
) -> dict:
    """Strong scaling of BFS, PR, CC (2^16-edge stand-ins, seed 1)."""
    return {
        (ds, row.algorithm, row.n_ranks): _split(row)
        for ds in datasets
        for row in strong_scaling(
            ds, algos, ranks, target_edges=1 << 16, experiment="fig3", seed=1
        )
    }


def fig4() -> dict:
    """Weak scaling on RMAT and Erdos-Renyi (2^11 vertices per rank)."""
    return {
        (row.dataset[:4], row.algorithm, row.n_ranks): row.time_total
        for family in ("RMAT", "RAND")
        for row in weak_scaling(
            family, ("BFS", "PR", "CC"), (1, 4, 16, 64),
            vertices_per_rank=1 << 11, experiment="fig4", seed=2,
        )
    }


def fig5() -> dict:
    """WDC stand-in (2^17 edges) on 100, 200, 400 ranks."""
    ds = load("WDC", target_edges=1 << 17, seed=3)
    return {
        (algo, p): _split(
            run_algorithm(algo, make_engine(ds, p), experiment="fig5",
                          dataset="WDC", full_scale_edges=ds.meta.n_edges)
        )
        for algo in ("BFS", "PR", "CC")
        for p in (100, 200, 400)
    }


def fig6() -> dict:
    """The CC ablation ladder on 16 ranks (2^17-edge GSH / WDC)."""
    out = {}
    for abbr in ("GSH", "WDC"):
        ds = load(abbr, target_edges=1 << 17, seed=4)
        for name in FIG6_ORDER:
            res = connected_components(make_engine(ds, 16), **CC_VARIANTS[name])
            out[(abbr, name)] = res.timings.total
    return out


def fig7(
    datasets: Sequence[str] = ("FR", "GSH"), shapes: Sequence[tuple] = FIG7_SHAPES
) -> dict:
    """CC push over (R, C) shapes of 256 ranks (2^17 edges, seed 5)."""
    out = {}
    for abbr in datasets:
        ds = load(abbr, target_edges=1 << 17, seed=5)
        for r, c in shapes:
            engine = make_engine(ds, 256, grid=Grid2D(R=r, C=c))
            out[(abbr, (r, c))] = connected_components(engine, direction="push").timings.total
    return out


def fig8() -> dict:
    """MWM / LP / PJ strong scaling, 1 to 256 ranks (2^16 edges)."""
    return {
        (ds, row.algorithm, row.n_ranks): row.time_total
        for ds in ("TW", "FR")
        for row in strong_scaling(
            ds, ("MWM", "LP", "PJ"), (1, 4, 16, 64, 256),
            target_edges=1 << 16, experiment="fig8", seed=6,
        )
    }


def fig9() -> dict:
    """Ours vs the Gluon-like substrate profile, 1 to 256 ranks."""
    out = {}
    for abbr in ("TW", "FR", "RMAT28"):
        ds = load(abbr, target_edges=1 << 16, seed=7)
        cluster = AIMOS.scaled(ds.scale_factor)
        for algo in ("PR", "CC", "BFS"):
            for p in (1, 4, 16, 64, 256):
                for system, kw in (("ours", {}), ("gluon", {"profile": GENERIC_PROFILE})):
                    engine = Engine(ds.graph, grid=grid_for(p), cluster=cluster, **kw)
                    row = run_algorithm(algo, engine, full_scale_edges=ds.meta.n_edges)
                    out[(abbr, algo, system, p)] = row.time_total
    return out


def fig10() -> dict:
    """Ours vs the CuGraph-like LA backend: RMAT26 on 4x A100 (zepy)."""
    ds = load("RMAT26", target_edges=1 << 17, seed=8)
    cluster = ZEPY.scaled(ds.scale_factor)
    root = int(np.argmax(ds.graph.degrees()))
    runs = {
        "PR": (lambda e: pagerank(e, iterations=20), lambda e: spmv_pagerank(e, iterations=20)),
        "CC": (connected_components, spmv_cc),
        "BFS": (lambda e: bfs(e, root=root), lambda e: spmv_bfs(e, root=root)),
    }
    return {
        algo: {
            "ours": ours(Engine(ds.graph, 4, cluster=cluster)).timings.total,
            "cugraph": la(spmv_engine(ds.graph, 4, cluster=cluster)).timings.total,
        }
        for algo, (ours, la) in runs.items()
    }


def headline() -> dict:
    """Projected full-scale TEPS of every algorithm: WDC on 400 ranks."""
    ds = load("WDC", target_edges=1 << 17, seed=9, weighted=True)
    return {
        algo: run_algorithm(
            algo, make_engine(ds, 400), full_scale_edges=ds.meta.n_edges
        ).teps
        for algo in ("BFS", "CC", "PR", "MWM", "LP", "PJ")
    }


def _rmat_meta(scale: int) -> DatasetMeta:
    return DatasetMeta(
        name=f"rmat{scale}", abbr=f"RMAT{scale}",
        n_vertices=1 << scale, n_edges=16 << scale, kind="rmat",
    )


def memory() -> dict:
    """Analytic per-rank footprints: who can load which full-size input."""
    out = {f"ours/{a}@{p}": estimate_2d_memory(REGISTRY[a], p, AIMOS)
           for a, p in (("TW", 1), ("FR", 1), ("TW", 256), ("FR", 256),
                        ("CW", 256), ("GSH", 256), ("WDC", 400))}
    for a in ("TW", "FR", "CW", "GSH"):
        out[f"gluon/{a}@256"] = estimate_generic_substrate_memory(REGISTRY[a], 256, AIMOS)
    out["gluon/RMAT28@256"] = estimate_generic_substrate_memory(_rmat_meta(28), 256, AIMOS)
    for scale in (26, 28):
        out[f"cugraph/RMAT{scale}@4"] = estimate_la_backend_memory(_rmat_meta(scale), 4, ZEPY)
    return out


def messages() -> dict:
    """Serialized messages per exchange round of CC, 1D vs 2D (TW, 2^15 edges)."""
    ds = load("TW", target_edges=1 << 15, seed=10)
    cluster = AIMOS.scaled(ds.scale_factor)
    out = {}
    for p in (4, 16, 64):
        e1 = Engine(ds.graph, grid=Grid2D(R=1, C=p), cluster=cluster)
        cc_1d(e1)
        a2a = e1.counters.by_kind["alltoallv"]
        out[("1D", p)] = a2a.serial_messages / a2a.calls
        e2 = Engine(ds.graph, grid=grid_for(p), cluster=cluster)
        connected_components(e2)
        # groups run concurrently: a stage serializes one group's
        # messages, and a round is the two stages of an iteration
        agv = e2.counters.by_kind["allgatherv"]
        out[("2D", p)] = agv.serial_messages / agv.calls * 2
    return out


def families() -> dict:
    """CC through the 1D, 1.5D and 2D layouts (TW, 2^15 edges)."""
    ds = load("TW", target_edges=1 << 15, seed=13)
    cluster = AIMOS.scaled(ds.scale_factor)
    out = {}
    for p in (4, 16, 64):
        oned = Engine(ds.graph, grid=Grid2D(R=1, C=p), cluster=cluster)
        twod = Engine(ds.graph, grid=grid_for(p), cluster=cluster)
        for family, engine, run in (
            ("1D", oned, cc_1d),
            ("1.5D", oned, cc_15d),
            ("2D", twod, connected_components),
        ):
            res = run(engine)
            if family == "2D":
                state = int((engine.fleet.col_stop - engine.fleet.col_start).sum())
            else:  # the ghost directory, plus every rank's copy of the hubs
                state = res.extra["n_ghosts"] + res.extra.get("n_hubs", 0) * p
            out[(family, p)] = {
                "time": res.timings.total,
                "msgs": engine.counters.total_serial_messages,
                "state": state,
            }
    return out


def extended() -> dict:
    """SSSP, k-core, coloring, sampled BC strong scaling (GSH, 2^15 edges)."""
    ds = load("GSH", target_edges=1 << 15, seed=21, weighted=True)
    root = int(np.argmax(ds.graph.degrees()))
    runs = {
        "SSSP": lambda e: sssp(e, root=root),
        "KCORE": core_numbers,
        "COLOR": lambda e: greedy_coloring(e, seed=1),
        "BC-16": lambda e: betweenness(e, k_samples=16, seed=3),
    }
    return {
        (name, p): fn(make_engine(ds, p)).timings.total
        for name, fn in runs.items()
        for p in (1, 4, 16, 64)
    }


def switch_threshold() -> dict:
    """CC push on GSH (16 ranks) with the dense->sparse cutoff scaled."""
    ds = load("GSH", target_edges=1 << 16, seed=12)
    paper = SwitchPolicy.threshold.fget
    out = {}
    for factor in (0.1, 0.5, 1.0, 2.0, 8.0):
        engine = make_engine(ds, 16)
        scaled = property(lambda self, f=factor: f * paper(self))
        with mock.patch.object(SwitchPolicy, "threshold", scaled):
            out[factor] = connected_components(engine, direction="push").timings.total
    return out


def load_balance() -> dict:
    """CC compute time, Manhattan Collapse vs vertex-per-thread (skewed input)."""
    g = chung_lu_powerlaw(20000, 300_000, gamma=1.9, seed=3)
    cluster = AIMOS.scaled(33e9 / g.n_edges)
    return {
        mode: connected_components(
            Engine(g, 16, cluster=cluster, load_balance=mode), direction="push"
        ).timings.compute
        for mode in ("manhattan", "vertex")
    }


def distribution() -> dict:
    """Block edge imbalance (max / mean) of three vertex distributions on
    an input whose hubs cluster at low ids."""
    rng = np.random.default_rng(5)
    n, m = 8000, 120_000
    cdf = np.cumsum((np.arange(n) + 10.0) ** -0.6)
    cdf /= cdf[-1]
    g = Graph.from_edges(np.searchsorted(cdf, rng.random(m)),
                         np.searchsorted(cdf, rng.random(m)), n)
    out = {}
    for dist in ("striped", "random", "block"):
        part = partition_2d(g, Grid2D(4, 4), distribution=dist, seed=7)
        edges = np.array([b.n_local_edges for b in part.blocks])
        out[dist] = float(edges.max() / edges.mean())
    return out


EXPERIMENTS: dict[str, Callable[[], Any]] = {
    f.__name__: f
    for f in (fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, headline, memory,
              messages, families, extended, switch_threshold, load_balance,
              distribution)
}


# -- claims ----------------------------------------------------------------

#: ``data -> [(instance, {name: modeled value}, holds)]``.
Instances = Callable[[Any], Iterable[tuple[str, dict[str, float], bool]]]


@dataclass(frozen=True)
class Claim:
    """One row: a paper claim as an inequality over one experiment."""

    id: str
    figure: str
    experiment: str
    workload: str
    inequality: str
    instances: Instances


def _series(data: dict, *ps) -> Iterator[tuple[tuple, list]]:
    """``(series, [value at p for p in ps])`` for every series (a key
    minus its last element) that holds all of ``ps``."""
    for s in dict.fromkeys(k[:-1] for k in data):
        if all(s + (p,) in data for p in ps):
            yield s, [data[s + (p,)] for p in ps]


def _group(data: dict, n: int = 1) -> dict:
    """``{key[:n]: {rest of key: value}}``."""
    out: dict = {}
    for k, v in data.items():
        rest = k[n:]
        out.setdefault(k[:n], {})[rest[0] if len(rest) == 1 else rest] = v
    return out


def _scaling(lo: int, hi: int, test, algos=None, field: Optional[str] = None) -> Instances:
    """Every series at ``lo`` and ``hi`` ranks: ``test(T_lo, T_hi)``."""

    def instances(data):
        for s, (a, b) in _series(data, lo, hi):
            if algos is None or s[-1] in algos:
                if field:
                    a, b = a[field], b[field]
                name = field or "T"
                yield " ".join(s), {f"{name}@{lo}": a, f"{name}@{hi}": b}, test(a, b)

    return instances


def _comm_dominates(data):
    for s, (v,) in _series(data, 256):
        yield " ".join(s), {"comm@256": v["comm"], "compute@256": v["compute"]}, (
            v["comm"] > v["compute"]
        )


def _weak(algos, test) -> Instances:
    """``test(T(p) / (sqrt(p) T(1)))`` for every weak-scaled series."""

    def instances(data):
        for (family, algo), (t1, *ts) in _series(data, 1, 4, 16, 64):
            if algo in algos:
                for p, t in zip((4, 16, 64), ts):
                    yield f"{family} {algo} p={p}", {"T@1": t1, f"T@{p}": t}, (
                        test(t / (math.sqrt(p) * t1))
                    )

    return instances


def _weak_growth(data):
    for (family, algo), (t1, t64) in _series(data, 1, 64):
        limit = 40 if algo == "BFS" else 16
        yield f"{family} {algo}", {"T@1": t1, "T@64": t64}, t64 < limit * t1


def _ladder(data):
    for (abbr,), t in _group(data).items():
        for earlier, later in zip(FIG6_ORDER, FIG6_ORDER[1:]):
            yield f"{abbr} {earlier} -> {later}", {earlier: t[earlier], later: t[later]}, (
                t[later] < t[earlier]
            )


def _ladder_total(data):
    base, full = FIG6_ORDER[0], FIG6_ORDER[-1]
    for (abbr,), t in _group(data).items():
        yield abbr, {base: t[base], full: t[full]}, t[base] / t[full] > 5.0


def _t(shape) -> str:
    return "T({},{})".format(*shape)


def _shapes(fn) -> Instances:
    """Fig. 7: ``fn(times by shape)`` yields ``(suffix, values, holds)``
    for each dataset."""

    def instances(data):
        for (abbr,), times in _group(data).items():
            for suffix, values, holds in fn(times):
                yield abbr + suffix, values, holds

    return instances


def _vs_best(shape, test):
    def fn(times):
        if set(FIG7_SHAPES) <= set(times):
            best = min(times.values())
            yield "", {_t(shape): times[shape], "best": best}, test(times[shape], best)

    return fn


def _near_vs_square(times):
    if (32, 8) in times and (16, 16) in times:
        a, b = times[(32, 8)], times[(16, 16)]
        yield "", {_t((32, 8)): a, _t((16, 16)): b}, max(a, b) / min(a, b) < 2.0


def _reduce_direction(times):
    for r, c in ((32, 8), (64, 4), (128, 2)):
        if (r, c) in times and (c, r) in times:
            a, b = times[(r, c)], times[(c, r)]
            yield f" ({r},{c})", {_t((r, c)): a, _t((c, r)): b}, a < b


def _beats(winner: str, loser: str) -> Instances:
    """Fig. 8: ``winner``'s 1 -> 256 speed-up above ``loser``'s."""

    def instances(data):
        for (ds,), t in _group(data).items():
            values = {f"{a}@{p}": t[(a, p)] for a in (winner, loser) for p in (1, 256)}
            yield ds, values, t[(winner, 1)] / t[(winner, 256)] > t[(loser, 1)] / t[(loser, 256)]

    return instances


def _gluon(ps, test) -> Instances:
    """Fig. 9: ``test({(system, p): T})`` per dataset and algorithm."""

    def instances(data):
        for s, t in _group(data, 2).items():
            values = {f"{sys}@{p}": t[(sys, p)] for p in ps for sys in ("ours", "gluon")}
            yield " ".join(s), values, test(t)

    return instances


def _gluon_stalls(data):
    groups = _group(data, 2)
    values = {
        f"{' '.join(s)} gluon@{p}": t[("gluon", p)] for s, t in groups.items() for p in (64, 256)
    }
    stalled = sum(t[("gluon", 256)] > 0.9 * t[("gluon", 64)] for t in groups.values())
    yield "stalled tests", values, stalled >= len(groups) // 2 + 1


def _la(algo: str, test) -> Instances:
    def instances(data):
        t = data[algo]
        yield algo, t, test(t["ours"], t["cugraph"])

    return instances


def _gteps(test) -> Instances:
    def instances(data):
        gteps = {algo: teps / 1e9 for algo, teps in data.items()}
        yield "WDC@400", gteps, test(gteps)

    return instances


#: Whether each framework loads each full-size input (paper §5.1, §5.7).
MEMORY_EXPECTED = {
    "ours/TW@1": True, "ours/FR@1": True, "ours/TW@256": True, "ours/FR@256": True,
    "ours/CW@256": True, "ours/GSH@256": True, "ours/WDC@400": True,
    "gluon/TW@256": True, "gluon/FR@256": True, "gluon/RMAT28@256": True,
    "gluon/CW@256": False, "gluon/GSH@256": False,
    "cugraph/RMAT26@4": True, "cugraph/RMAT28@4": False,
}


def _memory(data):
    for key, want in MEMORY_EXPECTED.items():
        est = data[key]
        yield key, {"bytes_per_rank": est.bytes_per_rank, "capacity": est.capacity}, (
            est.fits == want
        )


def _messages(family: str, test) -> Instances:
    def instances(data):
        for (fam, p), msgs in data.items():
            if fam == family:
                yield f"{fam} p={p}", {"msgs": msgs}, test(msgs, p)

    return instances


def _over(a: str, b: str, factor: float = 1.0, field: Optional[str] = None) -> Instances:
    """``a > factor * b`` at 64 ranks."""

    def instances(data):
        x, y = data[(a, 64)], data[(b, 64)]
        if field:
            x, y = x[field], y[field]
        yield f"{a} vs {b} @ 64", {a: x, b: y}, x > factor * y

    return instances


def _single(name: str, test) -> Instances:
    """One instance over a flat ``{label: value}`` experiment."""
    return lambda data: [(name, {str(k): v for k, v in data.items()}, test(data))]


_F3 = ("Fig. 3", "fig3", "TW/FR/CW/GSH x BFS/PR/CC, 2^16 edges, 1-256 ranks")
_F4 = ("Fig. 4", "fig4", "RMAT/RAND x BFS/PR/CC, 2^11 vertices per rank, 1-64 ranks")
_F5 = ("Fig. 5", "fig5", "WDC x BFS/PR/CC, 2^17 edges, 100 -> 400 ranks")
_F6 = ("Fig. 6", "fig6", "GSH/WDC CC ablation ladder, 2^17 edges, 16 ranks")
_F7 = ("Fig. 7", "fig7", "FR/GSH CC push, 2^17 edges, every R x C = 256")
_F8 = ("Fig. 8", "fig8", "TW/FR x MWM/LP/PJ, 2^16 edges, 1 -> 256 ranks")
_F9 = ("Fig. 9", "fig9", "TW/FR/RMAT28 x PR/CC/BFS, ours vs Gluon-like, 1-256 ranks")
_F10 = ("Fig. 10", "fig10", "RMAT26 on 4x A100 (zepy), ours vs CuGraph-like")
_HL = ("Headline", "headline", "WDC x BFS/CC/PR/MWM/LP/PJ on 400 ranks, full-scale GTEPS")
_MSG = ("§2", "messages", "CC serialized messages per exchange round, TW, 4-64 ranks")
_FAM = ("§1-2", "families", "CC through the 1D / 1.5D / 2D engines, TW")

CLAIMS: list[Claim] = [
    Claim("fig3.sqrt_speedup", *_F3, "1.5 < T@16 / T@256 < 1.5 * sqrt(256 / 16)",
          _scaling(16, 256, lambda a, b: 1.5 < a / b < 1.5 * math.sqrt(256 / 16), field="total")),
    Claim("fig3.scales", *_F3, "T@256 < T@1",
          _scaling(1, 256, lambda a, b: b < a, field="total")),
    Claim("fig3.halves", *_F3, "T@256 < T@1 / 2 (PR, CC)",
          _scaling(1, 256, lambda a, b: b < a / 2, algos=("PR", "CC"), field="total")),
    Claim("fig3.comm_dominates", *_F3, "comm@256 > compute@256", _comm_dominates),
    Claim("fig4.bfs_sqrt", *_F4, "T@p / (sqrt(p) * T@1) < 4.0 (BFS)",
          _weak(("BFS",), lambda r: r < 4.0)),
    Claim("fig4.sqrt", *_F4, "T@p / (sqrt(p) * T@1) < 1.4 (PR, CC)",
          _weak(("PR", "CC"), lambda r: r < 1.4)),
    Claim("fig4.sublinear", *_F4, "T@64 < 40 * T@1 (BFS), 16 * T@1 (PR, CC)", _weak_growth),
    Claim("fig5.total", *_F5, "1.3 < total@100 / total@400 < 3.5",
          _scaling(100, 400, lambda a, b: 1.3 < a / b < 3.5, field="total")),
    Claim("fig5.compute", *_F5, "compute@100 / compute@400 > 1.3",
          _scaling(100, 400, lambda a, b: a / b > 1.3, field="compute")),
    Claim("fig5.comm", *_F5, "comm@100 / max(comm@400, 1e-12) > 1.2",
          _scaling(100, 400, lambda a, b: a / max(b, 1e-12) > 1.2, field="comm")),
    Claim("fig6.each_step", *_F6, "T(later step) < T(earlier step)", _ladder),
    Claim("fig6.total", *_F6, "T(Base) / T(+All+Push) > 5.0", _ladder_total),
    Claim("fig7.square_near_best", *_F7, "T(16,16) < 1.6 * best",
          _shapes(_vs_best((16, 16), lambda t, best: t < 1.6 * best))),
    Claim("fig7.tall_near_best", *_F7, "T(32,8) < 1.6 * best",
          _shapes(_vs_best((32, 8), lambda t, best: t < 1.6 * best))),
    Claim("fig7.near_vs_square", *_F7, "max / min of T(32,8), T(16,16) < 2.0",
          _shapes(_near_vs_square)),
    Claim("fig7.wide_wall", *_F7, "T(2,128) > 1.8 * best",
          _shapes(_vs_best((2, 128), lambda t, best: t > 1.8 * best))),
    Claim("fig7.tall_wall", *_F7, "T(128,2) > 1.8 * best",
          _shapes(_vs_best((128, 2), lambda t, best: t > 1.8 * best))),
    Claim("fig7.reduce_direction", *_F7, "T(R,C) < T(C,R) for (32,8), (64,4), (128,2)",
          _shapes(_reduce_direction)),
    Claim("fig8.scales", *_F8, "T@256 < T@1", _scaling(1, 256, lambda a, b: b < a)),
    Claim("fig8.lp_over_mwm", *_F8, "speed-up(LP) > speed-up(MWM)", _beats("LP", "MWM")),
    Claim("fig8.lp_over_pj", *_F8, "speed-up(LP) > speed-up(PJ)", _beats("LP", "PJ")),
    Claim("fig8.mwm_progress", *_F8, "T@1 / T@256 > 1.2 (MWM)",
          _scaling(1, 256, lambda a, b: a / b > 1.2, algos=("MWM",))),
    Claim("fig8.pj_progress", *_F8, "T@1 / T@256 > 1.2 (PJ)",
          _scaling(1, 256, lambda a, b: a / b > 1.2, algos=("PJ",))),
    Claim("fig9.parity_1", *_F9, "gluon@1 / ours@1 < 1.05",
          _gluon((1,), lambda t: t[("gluon", 1)] / t[("ours", 1)] < 1.05)),
    Claim("fig9.parity_4", *_F9, "gluon@4 / ours@4 < 1.5",
          _gluon((4,), lambda t: t[("gluon", 4)] / t[("ours", 4)] < 1.5)),
    Claim("fig9.network", *_F9, "gluon@256 / ours@256 > 1.5",
          _gluon((256,), lambda t: t[("gluon", 256)] / t[("ours", 256)] > 1.5)),
    Claim("fig9.degrades", *_F9, "gluon@256 / ours@256 > gluon@4 / ours@4",
          _gluon((4, 256), lambda t: t[("gluon", 256)] / t[("ours", 256)]
                 > t[("gluon", 4)] / t[("ours", 4)])),
    Claim("fig9.ours_scales", *_F9, "ours@256 < ours@64",
          _gluon((64, 256), lambda t: t[("ours", 256)] < t[("ours", 64)])),
    Claim("fig9.gluon_stalls", *_F9, "gluon@256 > 0.9 * gluon@64 on a majority (>= 5 of 9)",
          _gluon_stalls),
    Claim("fig10.pr", *_F10, "1.1 < ours / cugraph < 2.2 (PR)",
          _la("PR", lambda ours, la: 1.1 < ours / la < 2.2)),
    Claim("fig10.cc", *_F10, "cugraph / ours > 1.5 (CC)",
          _la("CC", lambda ours, la: la / ours > 1.5)),
    Claim("fig10.bfs", *_F10, "cugraph / ours > 1.5 (BFS)",
          _la("BFS", lambda ours, la: la / ours > 1.5)),
    Claim("headline.fastest", *_HL, "5.0 < max GTEPS < 500.0",
          _gteps(lambda g: 5.0 < max(g.values()) < 500.0)),
    Claim("headline.slowest", *_HL, "0.5 < min GTEPS < 60.0",
          _gteps(lambda g: 0.5 < min(g.values()) < 60.0)),
    Claim("headline.spread", *_HL, "max GTEPS / min GTEPS > 3.0",
          _gteps(lambda g: max(g.values()) / min(g.values()) > 3.0)),
    Claim("headline.bfs_over_lp", *_HL, "GTEPS(BFS) >= GTEPS(LP)",
          _gteps(lambda g: g["BFS"] >= g["LP"])),
    Claim("memory.fits", "§5.1, §5.7", "memory", "analytic footprints of full-size inputs",
          "(bytes_per_rank <= capacity) == paper outcome", _memory),
    Claim("messages.1d_quadratic", *_MSG, "1D msgs == p * (p - 1)",
          _messages("1D", lambda m, p: m == p * (p - 1))),
    Claim("messages.2d_sqrt", *_MSG, "2D msgs <= 4 * sqrt(p)",
          _messages("2D", lambda m, p: m <= 4 * p**0.5)),
    Claim("messages.crossover", *_MSG, "1D msgs > 10 * 2D msgs at 64 ranks",
          _over("1D", "2D", 10)),
    Claim("families.messages", *_FAM, "1D msgs > 5 * 2D msgs at 64 ranks",
          _over("1D", "2D", 5, "msgs")),
    Claim("families.hub_state", *_FAM, "1D ghost state > 1.5D ghost state at 64 ranks",
          _over("1D", "1.5D", field="state")),
    Claim("families.2d_over_1d", *_FAM, "T(1D) > T(2D) at 64 ranks",
          _over("1D", "2D", field="time")),
    Claim("families.2d_over_15d", *_FAM, "T(1.5D) > T(2D) at 64 ranks",
          _over("1.5D", "2D", field="time")),
    Claim("extended.scales", "Extended", "extended",
          "GSH x SSSP/KCORE/COLOR/BC-16, 2^15 edges, 1 -> 64 ranks", "T@64 < T@1",
          _scaling(1, 64, lambda a, b: b < a)),
    Claim("ablation.switch_threshold", "Ablation", "switch_threshold",
          "CC push on GSH, 16 ranks, cutoff x 0.1 .. 8", "T(x1.0) <= 1.25 * min T",
          _single("GSH", lambda d: d[1.0] <= 1.25 * min(d.values()))),
    Claim("ablation.manhattan", "Ablation", "load_balance",
          "CC push compute, Chung-Lu gamma 1.9, 16 ranks",
          "compute(vertex) / compute(manhattan) > 2.0",
          _single("chung-lu", lambda d: d["vertex"] / d["manhattan"] > 2.0)),
    Claim("ablation.striped_vs_random", "Ablation", "distribution",
          "block edge imbalance on 4x4, hubs at low ids",
          "imbalance(striped) < 1.5 * imbalance(random)",
          _single("4x4", lambda d: d["striped"] < 1.5 * d["random"])),
    Claim("ablation.block_vs_striped", "Ablation", "distribution",
          "block edge imbalance on 4x4, hubs at low ids",
          "imbalance(block) > 1.5 * imbalance(striped)",
          _single("4x4", lambda d: d["block"] > 1.5 * d["striped"])),
]


def evaluate(claim: Claim, data: Any) -> dict:
    """One report row: the claim's instances, each instance's modeled
    values as hex floats, and the instances that fail.  A row with no
    instance fails."""
    values, failing = {}, []
    for name, vals, holds in claim.instances(data):
        values[name] = {k: float(v).hex() for k, v in vals.items()}
        if not holds:
            failing.append(name)
    return {
        "id": claim.id,
        "figure": claim.figure,
        "workload": claim.workload,
        "inequality": claim.inequality,
        "values": values,
        "failing": failing,
        "pass": bool(values) and not failing,
    }


def run_claims() -> dict:
    """Run every experiment :data:`CLAIMS` needs, once, and evaluate
    every row (schema :data:`SCHEMA`)."""
    data: dict[str, Any] = {}
    rows = []
    for claim in CLAIMS:
        if claim.experiment not in data:
            data[claim.experiment] = EXPERIMENTS[claim.experiment]()
        rows.append(evaluate(claim, data[claim.experiment]))
    return {
        "schema": SCHEMA,
        "total": len(rows),
        "failed": sum(not r["pass"] for r in rows),
        "rows": rows,
    }
