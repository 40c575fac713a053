"""Wall-clock performance harness with a persisted trajectory file.

The figure benches report *modeled* (virtual) time; this harness
measures how fast the simulator itself runs on the host — the quantity
the vectorized kernel layer (:mod:`repro.kernels`) exists to improve.
Results append to ``BENCH_simulator.json`` at the repo root so the
wall-clock trajectory of the codebase persists across changes: every
entry records the machine-independent protocol (graph scale, rank
count, repeats) next to best/mean seconds per primitive and per
algorithm, and successive entries make regressions visible as diffs.

Protocol (fixed so entries stay comparable):

* graph: ``rmat(scale, seed=1)`` (default scale 14, ~2.6 M directed
  edges after symmetrization), engine with ``ranks`` ranks;
* primitives: fused ``scatter_reduce`` (min over every edge target),
  ``manhattan_schedule`` over the full degree array, ``expand_csr`` of
  every row, one ``dense_pull`` and one ``sparse_push`` exchange;
* algorithms: BFS from root 0, 20-iteration PageRank, and
  color-propagation CC, each timed end-to-end (engine construction
  excluded, fresh state per repeat).

Run via ``python -m repro perf`` or :func:`run_perf` directly.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, Optional

import numpy as np

from ..core.engine import Engine
from ..graph.generators import rmat
from ..kernels import scatter_reduce
from ..patterns.dense import dense_pull
from ..patterns.sparse import sparse_push
from ..queueing.frontier import expand_csr
from ..queueing.manhattan import manhattan_schedule

__all__ = [
    "SCHEMA",
    "run_perf",
    "measure_batched",
    "measure_modeled",
    "append_entry",
    "load_trajectory",
]

#: Trajectory file schema identifier (bump on incompatible change).
SCHEMA = "repro.bench.simulator.v1"


def _timed(fn: Callable[[], object], repeats: int,
           setup: Optional[Callable[[], object]] = None) -> dict:
    """Best/mean wall seconds of ``fn`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "repeats": repeats,
    }


def measure_primitives(graph, engine: Engine, repeats: int = 5) -> dict:
    """Wall-time the hot primitives on ``graph`` / ``engine``."""
    rng = np.random.default_rng(0)
    n = graph.n_vertices
    lids = graph.indices.astype(np.int64)
    vals = rng.random(lids.size)
    state = np.empty(n)

    def reset_state():
        state[...] = np.inf

    out = {
        "scatter_reduce_min": _timed(
            lambda: scatter_reduce(state, lids, vals, "min"),
            repeats, setup=reset_state,
        ),
        "manhattan_schedule": _timed(
            lambda: manhattan_schedule(graph.degrees()), repeats
        ),
        "expand_csr": _timed(
            lambda: expand_csr(
                graph.indptr, graph.indices,
                np.arange(n, dtype=np.int64),
            ),
            repeats,
        ),
    }

    engine.alloc("perf_x", np.float64, fill=1.0)
    out["dense_pull"] = _timed(
        lambda: dense_pull(engine, "perf_x", op="min"), repeats
    )
    engine.alloc("perf_y", np.float64, fill=10.0)
    queues = []
    for ctx in engine:
        cs = ctx.col_slice
        k = max(1, (cs.stop - cs.start) // 10)
        queues.append(
            np.sort(rng.choice(np.arange(cs.start, cs.stop), k, replace=False))
        )
    out["sparse_push"] = _timed(
        lambda: sparse_push(engine, "perf_y", queues, op="min"), repeats
    )
    engine.free("perf_x")
    engine.free("perf_y")
    return out


def measure_algorithms(engine: Engine, repeats: int = 3) -> dict:
    """Wall-time BFS / PageRank / CC end-to-end on ``engine``."""
    from ..algorithms.bfs import bfs
    from ..algorithms.components import connected_components
    from ..algorithms.pagerank import pagerank

    return {
        "BFS": _timed(lambda: bfs(engine, root=0), repeats),
        "PR": _timed(lambda: pagerank(engine, iterations=20), repeats),
        "CC": _timed(lambda: connected_components(engine), repeats),
    }


def measure_modeled(graph, ranks: int) -> dict:
    """Modeled (virtual) clock comparison: blocking vs overlapped.

    Unlike the wall-clock sections, these numbers come from the
    simulator's virtual clocks — the quantity split-phase collectives
    exist to improve.  Each algorithm runs twice on fresh engines, once
    blocking and once with ``overlap=True``; the overlap model
    guarantees identical values/counters/compute/comm lanes, so the
    only legitimate difference is the total (shrunk by the hidden time
    the ``overlap`` lane reports).
    """
    from ..algorithms.bfs import bfs
    from ..algorithms.components import connected_components
    from ..algorithms.pagerank import pagerank
    from ..baselines.spmv import spmv_pagerank

    runners = {
        "BFS": lambda e: bfs(e, root=0),
        "PR": lambda e: pagerank(e, iterations=20),
        "CC": lambda e: connected_components(e),
        "SpMV": lambda e: spmv_pagerank(e, iterations=20),
    }
    out = {}
    for name, run in runners.items():
        modes = {}
        for mode, overlap in (("blocking", False), ("overlapped", True)):
            e = Engine(graph, n_ranks=ranks, overlap=overlap)
            t = run(e).timings
            modes[mode] = {
                "total_s": t.total,
                "compute_s": t.compute,
                "comm_s": t.comm,
                "overlap_s": t.overlap,
                "overlap_fraction": t.overlap_fraction,
            }
        modes["speedup"] = (
            modes["blocking"]["total_s"] / modes["overlapped"]["total_s"]
            if modes["overlapped"]["total_s"]
            else 1.0
        )
        out[name] = modes
    return out


def measure_batched(
    graph,
    ranks: int,
    ks: tuple = (4, 8, 16),
    repeats: int = 3,
) -> dict:
    """Batched k-source BFS vs k sequential runs (wall clock).

    For each ``k`` the roots are the ``k`` highest-degree vertices
    (stable order, so the protocol is reproducible), and both modes run
    on identically configured engines:

    * **sequential** — ``k`` independent ``bfs`` runs back-to-back;
    * **batched** — one ``bfs_batch`` over all ``k`` roots.

    Each section records wall time, the sparse-collective
    (``allgatherv``) call counts from :class:`~repro.comm.counters.
    CommCounters` — the α-amortization the batch exists to win — and a
    ``bit_identical`` flag confirming per-lane parents/levels match the
    sequential runs exactly.
    """
    from ..algorithms.batch import bfs_batch
    from ..algorithms.bfs import bfs

    deg = graph.degrees()
    order = np.argsort(-deg, kind="stable")
    out = {}
    for k in ks:
        k = int(min(k, graph.n_vertices))
        roots = [int(v) for v in order[:k]]
        engine = Engine(graph, n_ranks=ranks)
        seq_state = {}

        def run_seq():
            calls = 0
            results = []
            for r in roots:
                res = bfs(engine, r)
                calls += res.counters.get("allgatherv", {}).get("calls", 0)
                results.append((res.values, res.extra["levels"]))
            seq_state["calls"] = calls
            seq_state["results"] = results

        seq_t = _timed(run_seq, repeats)

        batch_state = {}

        def run_batch():
            res = bfs_batch(engine, roots)
            batch_state["calls"] = res.counters.get(
                "allgatherv", {}
            ).get("calls", 0)
            batch_state["res"] = res

        batch_t = _timed(run_batch, repeats)

        bres = batch_state["res"]
        identical = all(
            np.array_equal(bres.values[:, j], pv)
            and np.array_equal(bres.extra["levels"][:, j], lv)
            for j, (pv, lv) in enumerate(seq_state["results"])
        )
        seq_calls = seq_state["calls"]
        batch_calls = batch_state["calls"]
        out[f"k{k}"] = {
            "k": k,
            "roots": roots,
            "sequential": seq_t,
            "batched": batch_t,
            "speedup": (
                seq_t["best_s"] / batch_t["best_s"]
                if batch_t["best_s"]
                else 1.0
            ),
            "allgatherv_calls": {
                "sequential": seq_calls,
                "batched": batch_calls,
                "ratio": seq_calls / max(batch_calls, 1),
            },
            "bit_identical": bool(identical),
        }
    return out


def run_perf(
    scale: int = 14,
    ranks: int = 16,
    repeats: int = 3,
    label: str = "",
    primitives: bool = True,
    modeled: bool = False,
    batch: bool = False,
    batch_ks: tuple = (4, 8, 16),
) -> dict:
    """Run the full protocol; return one trajectory entry.

    ``modeled=True`` adds a ``"modeled"`` section comparing the
    virtual-clock totals blocking vs overlapped (see
    :func:`measure_modeled`); it lives outside ``"algorithms"`` so the
    wall-clock trajectory's shape stays stable.

    ``batch=True`` adds a ``"batched"`` section comparing batched
    k-source BFS against k sequential runs for each ``k`` in
    ``batch_ks`` (see :func:`measure_batched`).
    """
    graph = rmat(scale, seed=1)
    engine = Engine(graph, n_ranks=ranks)
    entry = {
        "label": label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "protocol": {
            "graph": f"rmat({scale}, seed=1)",
            "scale": scale,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
            "ranks": ranks,
            "repeats": repeats,
            "host_cpus": os.cpu_count() or 1,
        },
        "algorithms": measure_algorithms(engine, repeats=repeats),
    }
    if primitives:
        entry["primitives"] = measure_primitives(
            graph, engine, repeats=max(repeats, 5)
        )
    if modeled:
        entry["modeled"] = measure_modeled(graph, ranks)
    if batch:
        entry["batched"] = measure_batched(
            graph, ranks, ks=batch_ks, repeats=repeats
        )
    return entry


def load_trajectory(path) -> dict:
    """Load (or initialize) a trajectory file."""
    path = pathlib.Path(path)
    if path.exists():
        data = json.loads(path.read_text())
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"{path} has schema {data.get('schema')!r}, expected {SCHEMA!r}"
            )
        return data
    return {"schema": SCHEMA, "entries": []}


def append_entry(path, entry: dict) -> dict:
    """Append ``entry`` to the trajectory at ``path`` (created if new)."""
    path = pathlib.Path(path)
    data = load_trajectory(path)
    data["entries"].append(entry)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return data
