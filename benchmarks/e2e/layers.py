"""Which functions of each layer are wrapped, and how span tables turn
into the per-layer metrics named in ``BENCHMARK.json``.

A layer is a package under ``src/repro/``.  Per-element helpers
(``LocalMap.row_offset`` and friends, ``VirtualClocks.add_compute``) are
deliberately not wrapped: they run thousands of times per op and their
time belongs to the caller's self time.
"""

from __future__ import annotations

import numpy as np

from spans import Target, self_times

__all__ = ["TARGETS", "OP_BUCKET", "pass_layer_sums", "SELF_METRICS", "COUNT_METRICS"]

#: Bucket of the benchmark's own root span around each algorithm call;
#: its self time is what no wrapped layer accounts for.
OP_BUCKET = "algorithms.glue"


def _n_lids(args, kwargs, result) -> int:
    lids = kwargs["lids"] if "lids" in kwargs else args[1]
    return int(np.asarray(lids).size)


def _n_values(args, kwargs, result) -> int:
    values = kwargs["values"] if "values" in kwargs else args[0]
    return int(np.asarray(values).size)


def _n_edges_out(args, kwargs, result) -> int:
    return int(result[1].size)


def _ckpt_bytes(args, kwargs, result) -> int:
    return int(result.nbytes)


_COMM = "repro.comm.collectives.Communicator."
_CLOCKS = "repro.comm.clocks.VirtualClocks."
_ENGINE = "repro.core.engine.Engine."

TARGETS = (
    [
        Target("graph.rmat", "repro.graph.generators.rmat"),
        Target("graph.partition_2d", "repro.graph.partition.twod.partition_2d"),
        Target("graph.engine_init", _ENGINE + "__init__"),
        Target("queueing.manhattan", "repro.queueing.manhattan.manhattan_schedule"),
        Target("queueing.expand", "repro.queueing.frontier.expand_block", _n_edges_out),
        Target("kernels.scatter", "repro.kernels.scatter.scatter_reduce", _n_lids),
        Target(
            "kernels.scatter_lanes",
            "repro.kernels.scatter.scatter_reduce_lanes",
            _n_lids,
        ),
        Target("kernels.unique", "repro.kernels.scatter.unique_bounded", _n_values),
        Target("patterns.sparse", "repro.patterns.sparse.sparse_push"),
        Target("patterns.sparse", "repro.patterns.sparse.sparse_pull"),
        Target("patterns.sparse", "repro.patterns.sparse.propagate_active_pull"),
        Target("patterns.dense", "repro.patterns.dense.dense_push"),
        Target("patterns.dense", "repro.patterns.dense.dense_pull"),
        Target("patterns.dense", "repro.patterns.dense.dense_exchange"),
        Target("patterns.lanes", "repro.patterns.sparse.sparse_push_lanes"),
        Target("patterns.lanes", "repro.patterns.dense.dense_exchange_lanes"),
    ]
    + [
        Target("comm.collective", _COMM + name)
        for name in (
            "allreduce",
            "broadcast",
            "grouped_broadcast",
            "allgatherv",
            "sendrecv",
            "alltoallv",
            "start_allreduce",
            "start_allgatherv",
            "start_alltoallv",
            "wait",
        )
    ]
    + [
        Target("comm.clocks", _CLOCKS + name)
        for name in (
            "sync_group",
            "issue_collective",
            "complete_collective",
            "mark_iteration",
        )
    ]
    + [
        Target("core.boundary", _ENGINE + "superstep_boundary"),
        # `foreach` is a one-line call into `map_ranks`; wrapping it too
        # would only nest two spans per fan-out.
        Target("core.rank_glue", _ENGINE + "map_ranks"),
        Target("core.charge", _ENGINE + "charge_edges"),
        Target("core.charge", _ENGINE + "charge_vertices"),
        Target("core.schedule_stats", _ENGINE + "schedule_stats"),
        Target(
            "faults.checkpoint",
            "repro.faults.checkpoint.CheckpointManager.maybe_save",
        ),
        Target(
            "faults.checkpoint_save",
            "repro.faults.checkpoint.CheckpointManager.save",
            _ckpt_bytes,
        ),
        Target("faults.ledger", "repro.faults.integrity.IntegrityLedger.on_boundary"),
        Target("faults.health", "repro.faults.health.HealthMonitor.observe"),
    ]
)

#: metric name -> buckets whose self time it sums
SELF_METRICS = {
    "graph.rmat_s": ("graph.rmat",),
    "graph.partition_2d_s": ("graph.partition_2d",),
    "graph.engine_init_self_s": ("graph.engine_init",),
    "queueing.manhattan_self_s": ("queueing.manhattan",),
    "queueing.expand_self_s": ("queueing.expand",),
    "kernels.scatter_self_s": ("kernels.scatter",),
    "kernels.scatter_lanes_self_s": ("kernels.scatter_lanes",),
    "kernels.unique_self_s": ("kernels.unique",),
    "patterns.sparse_self_s": ("patterns.sparse",),
    "patterns.dense_self_s": ("patterns.dense",),
    "patterns.lanes_self_s": ("patterns.lanes",),
    "comm.collective_self_s": ("comm.collective",),
    "comm.clocks_self_s": ("comm.clocks",),
    "core.boundary_self_s": ("core.boundary",),
    "core.rank_glue_self_s": ("core.rank_glue",),
    "core.charge_self_s": ("core.charge", "core.schedule_stats"),
    "faults.checkpoint_self_s": ("faults.checkpoint", "faults.checkpoint_save"),
    "faults.ledger_self_s": ("faults.ledger",),
    "faults.health_self_s": ("faults.health",),
    "algorithms.glue_self_s": (OP_BUCKET,),
}

#: metric name -> (bucket, "calls" | "work")
COUNT_METRICS = {
    "queueing.manhattan_calls": ("queueing.manhattan", "calls"),
    "queueing.expand_edges": ("queueing.expand", "work"),
    "kernels.scatter_calls": ("kernels.scatter", "calls"),
    "kernels.scatter_elems": ("kernels.scatter", "work"),
    "kernels.scatter_lanes_calls": ("kernels.scatter_lanes", "calls"),
    "kernels.scatter_lanes_elems": ("kernels.scatter_lanes", "work"),
    "patterns.sparse_calls": ("patterns.sparse", "calls"),
    "patterns.dense_calls": ("patterns.dense", "calls"),
    "patterns.lanes_calls": ("patterns.lanes", "calls"),
    "core.boundaries": ("core.boundary", "calls"),
    "core.map_calls": ("core.rank_glue", "calls"),
    "faults.checkpoint_saves": ("faults.checkpoint_save", "calls"),
    "faults.checkpoint_bytes": ("faults.checkpoint_save", "work"),
    "faults.ledger_checks": ("faults.ledger", "calls"),
}


def pass_layer_sums(table: np.ndarray, buckets: list[str]) -> dict:
    """Reduce one pass's spans to ``{"self_ns": {bucket: ns}, "calls":
    {bucket: n}, "work": {bucket: n}, "op_ns": total}``.

    ``parent`` indices must be relative to ``table``.  ``calls`` counts
    outermost spans only (``dense_pull`` calling ``dense_exchange`` is
    one dense exchange).  A ``map_ranks`` fan-out issued by a fault hook
    is charged to the hook, not to ``core.rank_glue``: the CRC work of
    the integrity ledger runs inside such a closure and would otherwise
    vanish from ``faults.*``.
    """
    names = sorted(set(buckets))
    index = {name: i for i, name in enumerate(names)}
    bucket_of_target = np.array([index[b] for b in buckets], dtype=np.int64)
    bucket = bucket_of_target[table[:, 0]]
    parent = table[:, 3]
    parent_bucket = np.where(parent >= 0, bucket[np.maximum(parent, 0)], -1)

    fault_ids = [i for name, i in index.items() if name.startswith("faults.")]
    hooked = (bucket == index.get("core.rank_glue", -2)) & np.isin(
        parent_bucket, fault_ids
    )
    bucket = np.where(hooked, parent_bucket, bucket)

    self_ns = self_times(table)
    outermost = bucket != parent_bucket
    n = len(names)
    self_by = np.bincount(bucket, weights=self_ns, minlength=n)
    calls_by = np.bincount(bucket[outermost], minlength=n)
    work_by = np.bincount(bucket, weights=table[:, 5], minlength=n)
    roots = parent < 0
    return {
        "self_ns": {name: int(self_by[i]) for name, i in index.items()},
        "calls": {name: int(calls_by[i]) for name, i in index.items()},
        "work": {name: int(work_by[i]) for name, i in index.items()},
        "op_ns": int((table[roots, 2] - table[roots, 1]).sum()),
    }
