"""The BSP execution engine binding a partitioned graph to a cluster.

An :class:`Engine` is the public entry point of the library: it
partitions a graph over a 2D grid of simulated GPU ranks on a chosen
machine, and provides the algorithms with

* per-rank :class:`~repro.core.context.RankContext` objects,
* a :class:`~repro.comm.collectives.Communicator` with virtual-time
  accounting,
* kernel charging that runs the Manhattan-collapse (or naive) schedule
  through the machine's cost model.

Typical usage::

    from repro import Engine, algorithms
    from repro.graph import rmat

    engine = Engine(rmat(14), n_ranks=16)      # square 4x4 grid on AiMOS
    result = algorithms.pagerank(engine, iterations=20)
    print(result.timings.total, result.timings.comm_fraction)
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..cluster.config import AIMOS, ClusterConfig
from ..cluster.costmodel import NCCL_PROFILE, CommProfile, CostModel
from ..cluster.device import VirtualGPU
from ..cluster.topology import Topology
from ..comm.clocks import VirtualClocks
from ..comm.collectives import Communicator
from ..comm.counters import CommCounters
from ..comm.grid import Grid2D, square_grid
from ..graph.csr import Graph
from ..graph.partition.twod import TwoDPartition, partition_2d
from ..queueing.manhattan import manhattan_schedule, vertex_per_thread_balance
from .context import RankContext
from .fleet import Fleet
from .hooks import BOUNDARY_PHASES, Boundary, BoundaryHook
from .result import TimingReport

__all__ = ["Engine", "NoCheckpointError"]


class NoCheckpointError(LookupError):
    """``resume=True`` with no checkpoint to resume from."""


class Engine:
    """Distributed 2D graph-processing engine over simulated GPUs.

    Parameters
    ----------
    graph:
        Input graph (treated as already symmetrized; see
        :meth:`repro.graph.csr.Graph.from_edges`).
    n_ranks:
        Total GPUs; must be a perfect square unless ``grid`` is given.
    grid:
        Explicit ``Grid2D`` for non-square layouts (paper Fig. 7).
    cluster:
        Machine model (default AiMOS).
    distribution:
        Vertex-to-row-group distribution: ``"striped"`` (paper
        default), ``"random"``, or ``"block"``.
    profile:
        Communication substrate profile; swap in ``GENERIC_PROFILE``
        for the Gluon-like baseline.
    load_balance:
        ``"manhattan"`` (paper default) or ``"vertex"`` for the naive
        per-thread expansion (used by the Fig. 6 ablation).
    memory_scale:
        Multiplier on modeled allocations, to account full-scale
        dataset footprints while simulating a scaled stand-in.
    enforce_memory:
        Raise :class:`~repro.cluster.device.DeviceMemoryError` on
        over-subscription instead of just recording it.
    overlap:
        Run the comm/compute-overlap variants of the block-sweep hot
        loops: patterns issue collectives split-phase
        (``Communicator.start_*``) and hide apply-phase compute behind
        the in-flight exchanges.  Values, counters, and the compute and
        comm lanes stay bit-identical to a blocking run; only the total
        drops (by the time recorded in the ``overlap`` lane).  See
        docs/MODEL.md.
    executor:
        Kept for old callers: ``None`` or ``"serial"``, ignored; any
        other value raises ``ValueError``.
    """

    def __init__(
        self,
        graph: Graph,
        n_ranks: Optional[int] = None,
        grid: Optional[Grid2D] = None,
        cluster: ClusterConfig = AIMOS,
        distribution: str = "striped",
        profile: CommProfile = NCCL_PROFILE,
        load_balance: str = "manhattan",
        memory_scale: float = 1.0,
        enforce_memory: bool = False,
        seed: int = 0,
        overlap: bool = False,
        *,
        executor: Optional[str] = None,
    ):
        if executor not in (None, "serial"):
            raise ValueError(
                f"executor={executor!r}: the host runs the ranks one at a "
                f"time and the executor axis is gone (ROADMAP item 3, "
                f"docs/PERF.md); pass None or 'serial'"
            )
        if grid is None:
            if n_ranks is None:
                raise ValueError("pass n_ranks or an explicit grid")
            grid = square_grid(n_ranks)
        elif n_ranks is not None and n_ranks != grid.n_ranks:
            raise ValueError(
                f"n_ranks={n_ranks} disagrees with grid ({grid.n_ranks} ranks)"
            )
        if load_balance not in ("manhattan", "vertex"):
            raise ValueError("load_balance must be 'manhattan' or 'vertex'")

        self.graph = graph
        self.grid = grid
        self.cluster = cluster
        self.load_balance = load_balance
        self.overlap = bool(overlap)
        # Everything (besides graph/grid) a rebuild on a new
        # grid needs to reproduce this engine's configuration — the
        # elastic-recovery seam (see rebuild_on_grid).
        self._rebuild_args = dict(
            cluster=cluster,
            distribution=distribution,
            profile=profile,
            load_balance=load_balance,
            memory_scale=memory_scale,
            enforce_memory=enforce_memory,
            seed=seed,
            overlap=self.overlap,
        )
        self.partition: TwoDPartition = partition_2d(
            graph, grid, distribution=distribution, seed=seed
        )
        self.topology = Topology(cluster, grid.n_ranks)
        self.costmodel = CostModel(cluster.gpu, self.topology, profile)
        # Memoized ScheduleStats for repeated identical queue expansions
        # (dense iterations re-schedule the same full queue every time).
        # Keys are scoped by (graph identity, grid shape, distribution,
        # seed, load-balance model) so the dict can be *shared* across
        # rebuild_on_grid generations: an elastic shrink that later
        # revisits a previous grid hits that grid's warm entries instead
        # of re-running every schedule from cold.
        self._schedule_scope = (
            id(graph),
            grid.R,
            grid.C,
            distribution,
            seed,
            load_balance,
        )
        self._schedule_cache: dict[tuple, object] = {}
        self.counters = CommCounters()
        self.clocks = VirtualClocks(grid.n_ranks, counters=self.counters)
        self.comm = Communicator(self.costmodel, self.clocks, self.counters)
        # Superstep-boundary hooks (see repro.core.hooks; the hook
        # classes live in repro.faults), keyed by slot in attach order,
        # and the phase-ordered firing plan derived from them.
        self._hooks: dict[str, BoundaryHook] = {}
        self._pipeline: list[tuple[str, BoundaryHook]] = []
        # Spares delivered by consumed ``recover`` specs and not yet
        # adopted by a grow; carried across rebuild_on_grid.
        self.spare_ranks = 0
        # Regrid events recorded by elastic recovery; the list is
        # *shared* across rebuild_on_grid generations so the final
        # engine's fault_events tells the whole run's story.
        self._regrid_events: list[dict] = []
        # The cluster and grid are immutable: computed once, eagerly.
        self._stage_sharing = self._compute_stage_sharing()
        #: The rank-stacked view the fused supersteps run on.
        self.fleet = Fleet(self.partition)
        self.contexts: list[RankContext] = [
            RankContext(
                block,
                VirtualGPU(
                    rank=block.rank,
                    spec=cluster.gpu,
                    scale_factor=memory_scale,
                    enforce=enforce_memory,
                ),
                self.fleet,
            )
            for block in self.partition.blocks
        ]
        self._row_groups = [grid.row_group_ranks(i) for i in range(grid.C)]
        self._col_groups = [grid.col_group_ranks(i) for i in range(grid.R)]
        # (over, payload bytes) -> (groups, NIC sharing) of reduce_partials
        self._reduction_layouts: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # rank / group access
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.grid.n_ranks

    def ctx(self, rank: int) -> RankContext:
        return self.contexts[rank]

    def __iter__(self) -> Iterator[RankContext]:
        return iter(self.contexts)

    def row_groups(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(ID_R, ranks)`` for every row group."""
        return enumerate(self._row_groups)

    def col_groups(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(ID_C, ranks)`` for every column group."""
        return enumerate(self._col_groups)

    # ------------------------------------------------------------------
    # rank execution
    # ------------------------------------------------------------------
    def map_ranks(self, fn, ranks: Optional[Sequence[int]] = None) -> list:
        """Run ``fn(ctx)`` for every rank (or a subset), one rank at a
        time; return the results in rank order.

        This is the superstep fan-out.  ``fn`` must touch only state
        owned by its rank — the context's arrays, the rank's own
        :class:`VirtualClocks` lane (``charge_edges``/``charge_vertices``
        with ``ctx.rank``), and per-rank slots of caller-held lists
        indexed by ``ctx.rank`` — and must never run a collective; the
        call returns once every closure finished (the barrier before
        the collective).  The :class:`~repro.core.fleet.Fleet` fuses a
        step into one pass over all ranks only under this contract.
        """
        contexts = (
            self.contexts
            if ranks is None
            else [self.contexts[r] for r in ranks]
        )
        return [fn(ctx) for ctx in contexts]

    def foreach(self, fn, ranks: Optional[Sequence[int]] = None) -> None:
        """:meth:`map_ranks` for in-place closures (results discarded)."""
        self.map_ranks(fn, ranks=ranks)

    def stage_nic_sharing(self, axis: str) -> int:
        """NIC sharing when all groups of one axis communicate at once.

        In a BSP stage every row (or column) group runs its collective
        concurrently, so a node's NIC is shared by as many *distinct*
        groups as have members on that node: the 6 consecutive ranks of
        an AiMOS node belong to up to 6 different column groups (heavy
        sharing) but usually to a single row group (row groups are
        consecutive ranks).  This is why the paper's Fig. 7 advises
        biasing the reduction direction toward fewer ranks.
        """
        if axis not in ("row", "col"):
            raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
        return self._stage_sharing[axis]

    def _compute_stage_sharing(self) -> dict[str, int]:
        g = self.cluster.node.gpus_per_node
        R = self.grid.R
        sharing = {"row": 1, "col": 1}
        for node in range(self.topology.n_nodes()):
            members = [
                r for r in range(node * g, min((node + 1) * g, self.n_ranks))
            ]
            sharing["row"] = max(sharing["row"], len({r // R for r in members}))
            sharing["col"] = max(sharing["col"], len({r % R for r in members}))
        return sharing

    # ------------------------------------------------------------------
    # global values from per-rank partials
    # ------------------------------------------------------------------
    def reduce_partials(self, partials, op: str = "sum", over: str = "rows"):
        """Reduce per-rank partials (``op`` ``"sum"`` / ``"max"``) to the
        global value the loop reads; returns ``(value, wait)``.

        ``partials[r]``, a scalar or lane vector, covers rank ``r``'s row
        window (``over="rows"``): the windows of one column group
        partition the vertices, so a stage of column-group AllReduces
        (2⌈log₂ C⌉ tree steps, not 2⌈log₂ p⌉) or the all-rank call fed by
        the first column group, whichever the cost model charges less
        (once per payload size; a tie keeps the all-rank call), gives
        the global value.  ``over="ranks"``: sets disjoint across all
        ranks, always the all-rank call.  ``value`` is final at return;
        an overlapped engine issues split-phase and ``wait()`` completes.
        """
        if op not in ("sum", "max") or over not in ("rows", "ranks"):
            raise ValueError(f"op {op!r}, over {over!r}: need sum/max, rows/ranks")
        buf = np.array(partials, dtype=np.float64).reshape(self.n_ranks, -1)
        key = (over, buf[0].nbytes)
        if key not in self._reduction_layouts:
            everyone, cost = list(range(self.n_ranks)), self.costmodel.allreduce_time
            sharing = self.stage_nic_sharing("col")
            stage = max(cost(g, key[1], sharing) for g in self._col_groups)
            self._reduction_layouts[key] = (
                (self._col_groups, sharing)
                if over == "rows" and stage < cost(everyone, key[1])
                else ([everyone], 1)
            )
        groups, sharing = self._reduction_layouts[key]
        if over == "rows" and len(groups) == 1:  # first column group only
            identity = 0.0 if op == "sum" else -np.inf
            buf[np.arange(self.n_ranks) % self.grid.R != 0] = identity
        buffers = [[buf[r] for r in ranks] for ranks in groups]
        handles = []
        if self.overlap:
            handles = self.comm.start_allreduce_stage(groups, buffers, op, sharing)
        else:
            self.comm.allreduce_stage(groups, buffers, op, sharing)
        value = buf[0] if np.ndim(partials) > 1 else float(buf[0, 0])
        return value, lambda: [self.comm.wait(handle) for handle in handles]

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    def alloc(
        self, name: str, dtype=np.float64, fill=0, width: Optional[int] = None
    ) -> list[np.ndarray]:
        """Allocate (or re-initialize) state ``name`` on every rank, all
        of it filled with ``fill``; returns the per-rank arrays.

        Each rank's array spans its LID space ``[0, N_T)``, the layout
        all communication patterns assume; ``width=k`` makes it a
        C-contiguous ``(N_T, k)`` lane array (one column per batched
        query lane).  A state the run already holds in this form is
        re-filled in place; otherwise a new array is charged to every
        rank's device as ``state.<name>``.  The state lives until the
        run ends: :meth:`free`, or the next :meth:`reset_timers`.
        """
        if self.fleet.alloc(name, dtype, fill, width):
            label = f"state.{name}"
            for ctx in self.contexts:
                ctx.device.release(label)
                ctx.device.charge(label, ctx.arrays[name].nbytes)
        return self.states(name)

    def states(self, name: str) -> list[np.ndarray]:
        """Every rank's array of state ``name``; a ``KeyError`` names
        the allocated states when there is none (a typo'd state name
        fails loudly, listing what *does* exist)."""
        self.fleet.stacked(name)
        return [ctx.arrays[name] for ctx in self.contexts]

    def free(self, name: str) -> None:
        self.fleet.stacked(name)  # a KeyError names the allocated states
        self.fleet.free(name)
        for ctx in self.contexts:
            ctx.device.release(f"state.{name}")

    def scatter_global(self, name: str, vec: np.ndarray, dtype=None) -> list[np.ndarray]:
        """Distribute a global per-vertex vector into a named state
        array on every rank (row and column windows filled).  A 2-D
        ``(n, k)`` input distributes each lane column."""
        vec = np.asarray(vec)
        width = vec.shape[1] if vec.ndim == 2 else None
        out = self.alloc(name, dtype=dtype or vec.dtype, width=width)
        for ctx, arr in zip(self.contexts, out):
            arr[...] = self.partition.scatter_global(vec, ctx.rank)
        return out

    def gather(self, name: str) -> np.ndarray:
        """Collect a named state into a global original-order vector."""
        return self.partition.gather_row_state(self.states(name))

    # ------------------------------------------------------------------
    # kernel charging
    # ------------------------------------------------------------------
    def schedule_stats(
        self,
        queue_degrees: np.ndarray,
        cache_key: Optional[str] = None,
        rank: int = -1,
        segments: Optional[np.ndarray] = None,
    ):
        """Run the configured schedule model over a queue's degrees.

        ``cache_key`` memoizes the resulting :class:`ScheduleStats`
        per ``(rank, cache_key)``: dense iterations expand the identical
        full queue every time (PageRank runs 20 identical schedules per
        rank), so callers passing a stable key for a *static* degree
        array skip the recomputation entirely.  The caller guarantees
        the degrees for a given key never change (local degrees are
        fixed by the partition).

        With ``segments`` (per-rank queue lengths), ``queue_degrees``
        is the rank-major concatenation of every rank's queue and the
        stats carry one array entry per rank, from one segmented pass.
        """
        if cache_key is not None:
            key = self._schedule_scope + (rank, cache_key)
            stats = self._schedule_cache.get(key)
            if stats is not None:
                return stats
        schedule = (
            manhattan_schedule
            if self.load_balance == "manhattan"
            else vertex_per_thread_balance
        )
        if segments is None:
            stats = schedule(queue_degrees)
        else:
            stats = schedule(queue_degrees, segments=segments)
        if cache_key is not None:
            self._schedule_cache[key] = stats
        return stats

    def charge_edges(
        self,
        rank: Optional[int],
        queue_degrees: np.ndarray,
        work_per_edge: float = 1.0,
        extra_vertices: int = 0,
        launches: int = 1,
        cache_key: Optional[str] = None,
        segments: Optional[np.ndarray] = None,
    ) -> None:
        """Charge an edge-expansion kernel over a vertex queue.

        The load-balance efficiency comes from the configured schedule
        model (Manhattan collapse vs. naive vertex-per-thread); pass
        ``cache_key`` when the queue is a static full-queue expansion
        (see :meth:`schedule_stats`).

        ``rank=None`` charges every rank at once: ``queue_degrees`` is
        the rank-major concatenation of the per-rank queues and
        ``segments`` their lengths.  Each rank is charged exactly what
        its own call would charge (an empty queue still pays its
        launch).
        """
        if rank is None:
            if segments is None:
                raise ValueError("charging every rank at once needs `segments`")
            stats = self.schedule_stats(
                queue_degrees, cache_key=cache_key, segments=segments
            )
            n_queue = np.asarray(segments, dtype=np.int64)
        else:
            stats = self.schedule_stats(queue_degrees, cache_key=cache_key, rank=rank)
            n_queue = len(queue_degrees)
        t = self.costmodel.kernel_time(
            n_vertices=n_queue + extra_vertices,
            n_edges=stats.total_edges,
            work_per_edge=work_per_edge,
            balance=stats.balance,
            launches=launches,
        )
        self._add_compute(rank, t)

    def charge_vertices(
        self, rank: Optional[int], n_vertices, launches: int = 1
    ) -> None:
        """Charge a per-vertex kernel (queue builds, initialization).

        ``rank=None`` charges every rank at once, ``n_vertices[r]``
        vertices on rank ``r``.
        """
        t = self.costmodel.kernel_time(
            n_vertices=n_vertices, launches=launches
        )
        self._add_compute(rank, t)

    def _add_compute(self, rank: Optional[int], seconds) -> None:
        if rank is None:
            self.clocks.add_compute_all(seconds)
        else:
            self.clocks.add_compute(rank, seconds)

    # ------------------------------------------------------------------
    # robustness: superstep-boundary hooks (repro.core.hooks, repro.faults)
    # ------------------------------------------------------------------
    def attach(self, hook: BoundaryHook) -> None:
        """Attach a boundary hook (replacing any hook in the same slot).

        Hooks fire at every :meth:`superstep_boundary` in
        :data:`~repro.core.hooks.BOUNDARY_PHASES` order, whatever order
        they were attached in, and follow the run through
        :meth:`restore`, :meth:`reset_timers` and
        :meth:`rebuild_on_grid`.  The named entry points below are this
        method under the name of what they attach.
        """
        self._hooks[hook.slot] = hook
        self._plan_pipeline()
        hook.on_attach(self)

    #: Save a checkpoint at every (interval-matching) boundary:
    #: a :class:`~repro.faults.checkpoint.CheckpointManager`.
    attach_checkpoints = attach
    #: Sample per-rank progress at every boundary: a
    #: :class:`~repro.faults.health.HealthMonitor` (attaching
    #: (re)baselines it against this engine's current clocks).
    attach_health = attach
    #: Decide demote/grow at every boundary, raising
    #: :class:`~repro.faults.injector.RankDemotion` /
    #: :class:`~repro.faults.injector.SpareArrival`: an
    #: :class:`~repro.faults.health.AutoscaleRecovery`.
    attach_autoscaler = attach
    #: Verify state-array integrity at boundaries, before the
    #: boundary's checkpoint is saved: an
    #: :class:`~repro.faults.integrity.IntegrityLedger`.
    attach_integrity = attach

    def _plan_pipeline(self) -> None:
        self._pipeline = [
            (phase, hook)
            for phase in BOUNDARY_PHASES
            for hook in self._hooks.values()
            if phase in hook.phases
        ]

    def attach_faults(self, faults, max_retries: int = 4):
        """Guard every collective with a fault-injecting
        :class:`~repro.faults.injector.FaultInjector` (it sets
        ``engine.comm.guard``; ``engine.comm`` stays a plain
        :class:`~repro.comm.collectives.Communicator`), retrying a
        disrupted attempt up to ``max_retries`` times.

        ``faults`` is a :class:`~repro.faults.plan.FaultPlan` or an
        already-built :class:`~repro.faults.injector.FaultInjector`.
        Returns the injector (for event inspection).  Imported lazily —
        ``repro.faults`` sits above the core in the layer order.
        """
        from ..faults.injector import FaultInjector

        if isinstance(faults, FaultInjector):
            injector = faults
        else:
            bad = [
                s
                for s in faults
                if s.rank is not None and s.rank >= self.n_ranks
            ]
            if bad:
                listing = ", ".join(
                    f"{s.kind}@superstep {s.superstep} rank={s.rank}"
                    for s in bad
                )
                raise ValueError(
                    f"fault plan targets ranks outside this engine's "
                    f"[0, {self.n_ranks}): {listing}"
                )
            injector = FaultInjector(faults)
        injector.max_retries = max_retries
        self.attach(injector)
        return injector

    @property
    def checkpoints(self):
        return self._hooks.get("checkpoints")

    @property
    def health(self):
        return self._hooks.get("health")

    @property
    def integrity(self):
        return self._hooks.get("integrity")

    @property
    def fault_events(self) -> list:
        """Fault events observed by the attached injector, plus any
        elastic regrid events, as plain dicts — trace rows and reports
        attach these."""
        inj = self._hooks.get("faults")
        events = [e.as_dict() for e in inj.events] if inj is not None else []
        events.extend(self._regrid_events)
        events.sort(key=lambda e: e.get("superstep", 0))
        return events

    def record_event(self, event: dict) -> None:
        """Record one robustness event (regrid, health transition,
        demotion, grow, hold, checkpoint skip, ...; build it with
        :class:`~repro.faults.plan.FaultEvent`); it surfaces through
        :attr:`fault_events` and therefore on trace rows, which file it
        under its ``"superstep"``."""
        self._regrid_events.append(event)

    def rebuild_on_grid(self, grid: Grid2D) -> "Engine":
        """Build a fresh engine for the same graph on a new grid.

        The elastic-recovery seam: the new engine re-partitions the
        graph with the original distribution/seed/cluster/profile
        configuration, carries the communication counters and virtual
        clocks forward
        (:meth:`VirtualClocks.align_state` reshapes the per-rank lanes
        onto the new rank count), and re-attaches every boundary hook,
        so remaining planned faults, the checkpoint series, the health
        ledger (re-baselined: rank identities changed) and the rest
        follow the run onto the new grid.  Regrid-event history is
        shared, not copied.
        """
        new = Engine(self.graph, grid=grid, **self._rebuild_args)
        # Share (don't copy) the schedule cache: entries are keyed by
        # grid scope, so a later regrid back onto a previously-used grid
        # starts warm instead of re-deriving every schedule.
        new._schedule_cache = self._schedule_cache
        new.counters.load_state(self.counters.state_dict())
        new.clocks.load_state(
            VirtualClocks.align_state(self.clocks.state_dict(), grid.n_ranks)
        )
        for hook in self._hooks.values():
            new.attach(hook)
        new.spare_ranks = self.spare_ranks
        new._regrid_events = self._regrid_events
        return new

    def superstep_boundary(self, algo: str = "", state: Optional[Callable] = None):
        """Mark the end of a BSP superstep.

        This is the robustness-aware replacement for calling
        ``engine.clocks.mark_iteration()`` directly: it records the
        iteration mark (returning the phase-time delta, as before) and
        then fires every attached boundary hook, phase by phase in
        :data:`~repro.core.hooks.BOUNDARY_PHASES` order — see there for
        what the order guarantees.  ``state`` returns the algorithm's
        loop state for the checkpoint, grid-independent (scalars, lane
        vectors, vertex sets by original id); it is called only when a
        checkpoint is saved (``None``: nothing to save).  Algorithms
        call this exactly once per superstep.
        """
        delta = self.clocks.mark_iteration()
        if self._pipeline:
            boundary = Boundary(len(self.clocks.iteration_marks), algo, state)
            for phase, hook in self._pipeline:
                hook.on_phase(phase, self, boundary)
        return delta

    def restore(self, ckpt) -> None:
        """Restore engine state from a
        :class:`~repro.faults.checkpoint.Checkpoint`, in place.

        Each saved state is re-allocated through :meth:`alloc` (so
        device ledgers stay consistent; a state already held in the
        saved dtype and width keeps its arrays) and every rank's saved
        slice is copied in; counters and clocks are restored
        bit-exactly, and every attached hook realigns itself with the
        rewound run.  Afterwards the engine holds exactly the
        checkpoint's states: whatever else the run allocated is freed.
        """
        saved = ckpt.states[0]
        for name in [n for n in self.ctx(0).arrays if n not in saved]:
            self.free(name)
        for name, arr in saved.items():
            views = self.alloc(
                name, arr.dtype, width=arr.shape[1] if arr.ndim == 2 else None
            )
            for view, per_rank in zip(views, ckpt.states):
                view[...] = per_rank[name]
        self.counters.load_state(ckpt.counters)
        self.clocks.load_state(ckpt.clocks)
        for hook in self._hooks.values():
            hook.on_restore(self, ckpt)

    def resume_from_checkpoint(self, algo: str) -> dict:
        """Restore from the attached manager's latest checkpoint.

        Returns a fresh copy of the algorithm loop state saved with the
        checkpoint.  Raises :class:`NoCheckpointError` when there is
        nothing to resume from (no manager attached, or no checkpoint
        saved yet) and ``ValueError`` for a checkpoint tagged with
        another algorithm (a batch's tag names its sources).
        """
        mgr = self.checkpoints
        ckpt = mgr.latest() if mgr is not None else None
        if ckpt is None:
            raise NoCheckpointError(f"no checkpoint to resume {algo!r} from")
        if ckpt.algo != algo:
            raise ValueError(
                f"latest checkpoint belongs to {ckpt.algo!r}, "
                f"cannot resume {algo!r} from it"
            )
        self.restore(ckpt)
        return copy.deepcopy(ckpt.algo_state)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def reset_timers(self) -> None:
        """Zero all clocks and counters (before a timed run).

        Resets **in place**: ``engine.counters``, ``engine.clocks``,
        and ``engine.comm`` keep their identities, so a
        :class:`~repro.core.trace.TraceRecorder` or any caller holding
        a reference observes the reset instead of silently watching an
        orphaned object.  Robustness state resets with the run: every
        attached hook starts over (the fault injector re-arms its plan,
        stale checkpoints from a previous run are dropped, ...).

        This call is where a *run* begins, and the run owns its state:
        every state array is freed here (and released from the device
        ledgers), so the fleet holds only what the run allocates from
        now on, and a run's checkpoints, integrity checks, memflip
        targets and modeled hook charges do not depend on what ran on
        this engine before.  Read a run's results (:meth:`gather`)
        before the next run begins, and allocate state *after* calling
        this (every algorithm in :mod:`repro.algorithms` does).
        """
        self.counters.reset()
        self.clocks.reset()
        self._regrid_events.clear()
        self.spare_ranks = 0
        for name in list(self.ctx(0).arrays):
            self.free(name)
        for hook in self._hooks.values():
            hook.on_reset(self)

    def timing_report(self) -> TimingReport:
        snap = self.clocks.snapshot()
        # per-iteration deltas from the cumulative marks
        marks = self.clocks.iteration_marks
        deltas = []
        prev = None
        for m in marks:
            deltas.append(m if prev is None else m - prev)
            prev = m
        return TimingReport(
            total=snap.total,
            compute=snap.compute,
            comm=snap.comm,
            per_iteration=tuple(deltas),
            recovery=self.clocks.recovery_total,
            regrid=self.clocks.regrid_total,
            overlap=self.clocks.overlap_total,
            certify=self.clocks.certify_total,
        )

    def memory_report(self) -> dict[int, float]:
        """Peak modeled memory utilization per rank."""
        return {ctx.rank: ctx.device.utilization() for ctx in self.contexts}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine({self.grid}, cluster={self.cluster.name}, "
            f"N={self.graph.n_vertices}, M={self.graph.n_edges})"
        )
