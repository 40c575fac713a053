"""Ratchets for the ROADMAP's "Fleet everywhere" direction.

Every ``map_ranks(`` / ``foreach(`` call site under ``src/repro``
(outside their definitions in ``core/engine.py``) is a per-rank Python
fan-out the roadmap wants written against the fleet instead.  The
ceiling below is what the last conversion left; a PR that converts more
lowers it, and none may raise it.  The same holds for a read of the
per-rank contexts (``engine.ctx(``, ``.contexts``, ``for ctx in
engine``) outside ``core/``: state, geometry and blocks are all on the
fleet and the partition.

The host side is single-threaded: the simulated ranks are the
parallelism, and a fused superstep is one vectorized pass over all of
them.  No module under ``src/repro`` imports ``threading``,
``concurrent.futures`` or ``queue``.

A queue cut into per-rank lists or joined from them (``fleet.split(``
/ ``fleet.stack(`` anywhere under ``src/repro``) is per-rank bookkeeping
the stacked patterns no longer need; those conversions only go down.

Every ``except`` clause under ``src/repro`` is a place an error can be
swallowed or retyped; their count only goes down too.

The host's copy of the graph structure is what bounds the input a run
can afford: the index and data bytes it holds per stored edge only go
down.

A run owns its state: after one op, the fleet holds the next op's
arrays and nothing an earlier op allocated — neither in the run nor
among the buffers a run keeps for the next one to refill.

There is one engine: only ``core/engine.py`` builds the clocks, the
communicator and the counters a run is modeled on.  The few other
modules that build one of them build no engine (a bare communicator's
default counters, an elastic regrid's arithmetic on a checkpoint's
clock lanes, betweenness summing its per-source BFS counters), and
that list only shrinks.

Every modeled communication second goes through the ``Communicator``
in ``comm/``: a clock sync or a counter record written anywhere else is
a collective charged by hand, which the fault guard never sees, and
there are none.

A convergence count or flag is reduced through one engine method
(``Engine.reduce_partials``), which picks the cheaper of a
column-group stage and the all-rank call.  Any other AllReduce of one
value replicated on every rank (``[... for _ in ranks]``) is a
hand-built all-rank flag, and those only go down.

Code that only tests call is not part of the system: the top-level
functions and classes under ``src/repro`` (outside ``reference/``, the
serial oracles and test graphs) that nothing in the package itself,
the benchmarks, the examples or CI reaches only go down, and so do
the public methods and properties of their classes.  A tool or a
reference only tests use lives under ``tests/``.

CI prints the same census (the fan-out sites, the per-rank context
reads, the per-rank queue conversions, the modules that use threads,
the ``except`` clauses, the index bytes per edge, the state bytes held
after two ops, the modules that build clocks, a communicator or
counters, the hand-charged collectives, the hand-built all-rank flags,
the test-only definitions and methods, and the source line count the
ROADMAP quotes) so the numbers are reproducible::

    python tests/test_census.py
"""

from __future__ import annotations

import ast
import functools
import os
import re
import sys
import textwrap

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
FAN_OUT = re.compile(r"\b(?:map_ranks|foreach)\(")
#: Where the definitions live; the fan-out ratchet counts everywhere else.
FAN_OUT_HOME = os.path.join("core", "engine.py")

#: 66 before CC / SSSP became vertex programs and LP / k-core /
#: coloring / matching instances of the 2.5D pattern (PR 17); 48 before
#: the dense lane pack / unpack and the BFS state allocation left the
#: per-rank executor (PR 20).
#: 44 before the BFS root seed became one stacked write; 43 before
#: state initialization (coloring, matching, k-core, vertex programs)
#: and the batch root seeds became stacked writes; 37 before pointer
#: jumping built its home tables from one original-order vector; 36
#: before ``pagerank_batch`` went; 35 before the vertex program's local
#: compute and ``propagate_active_pull`` ran on the stacked queue; 31
#: before the 2.5D reduction, coloring's winner histograms, matching
#: and pointer jumping's forest and final sync ran on the fleet; 18
#: before ``alltoallv`` got its stage form and the packet swaps and
#: pointer jumping's jump loop ran on the fleet; 13 before PageRank's
#: dangling mass rode the dense pull's row-group AllReduce.  Counted
#: under ``algorithms/``, ``patterns/`` and ``core/program.py`` only
#: until then; over all of ``src/repro`` it was 16 (the SpMV baselines
#: held 4 more) before the SpMV baselines and triangle counting ran on
#: the fleet; 9 before ``bfs_batch`` built its GID table and stamped
#: levels and cut its next frontier on the fleet.  What is left is the
#: lane path's expansions and exchange: ``algorithms/batch.py`` and
#: ``patterns/sparse.py::sparse_push_lanes``.
FAN_OUT_CEILING = 7

CONTEXT_READ = re.compile(r"\bengine\.ctx\(|\.contexts\b|\bfor ctx in engine\b")
#: 20 before the SpMV baselines, triangle counting, the integrity
#: ledger, the checkpoint save and the claims bench read the fleet and
#: the partition instead; 7 before ``bfs_batch`` counted its pull
#: lanes' fresh cells as one stacked count and read its row offsets and
#: frontier degrees from the fleet.  What is left is
#: ``sparse_push_lanes``' and the memflip injector's
#: (``apply_memflip(ctx, spec)``).
CONTEXT_READ_CEILING = 2

REDUCE_PARTIALS = re.compile(r"(?<!def )\breduce_partials\(")
#: ``Engine.reduce_partials(`` call sites under ``src/repro``: the
#: global reads no dense exchange precedes (pointer jumping, the 1D
#: baseline, PageRank's ``tol=``).  6 while BFS's bottom-up levels, the
#: vertex program's dense steps and ``bfs_batch``'s pull lanes reduced
#: their counts in a stage of their own, not as the dense exchange's
#: Broadcast tail.
REDUCE_PARTIALS_CEILING = 3

QUEUE_CONVERSION = re.compile(r"\bfleet\.(?:split|stack)\(")
#: 11 while ``sparse_push`` / ``sparse_pull`` took and returned per-rank
#: lists and BFS cut its frontier into one every superstep; 7 while the
#: vertex program converted around its per-rank local compute and BFS
#: around its checkpoint's queue; 5 while the 2.5D pattern cut its
#: histograms' queue and joined its changed rows, and matching joined
#: its mutual pairs; 2 while PageRank cut its dangling cells per rank.
#: What is left converts at a per-rank caller's own edge (the lane
#: twins' queues).
QUEUE_CONVERSION_CEILING = 1

THREADS = re.compile(
    r"^\s*(?:import|from)\s+(?:threading|concurrent|queue)(?:[\s.]|$)"
)

EXCEPT = re.compile(r"^\s*except\b")
#: 17 before the on-disk checkpoint format and its writer thread went.
EXCEPT_CEILING = 8

#: Bytes per stored edge of the structure arrays the host holds for
#: ``rmat(12)`` on 2x2 (see :func:`index_bytes_per_edge`).  28 while the
#: graph and the partition held ``int64`` ids and ``Fleet.csr`` a rebased
#: ``int32`` copy: 8 + 8 + 4, plus the unit data's 8.
INDEX_BYTES_PER_EDGE_CEILING = 16

#: State bytes the fleet holds after ``bfs_batch(k=4)`` then
#: ``sssp_batch(k=2)`` on ``rmat(10)``, 2x2 (see
#: :func:`held_state_bytes`): ``sssp_batch``'s ``dist``, 3,072 stacked
#: LIDs x 2 lanes x 8 bytes.  270,336 while an engine kept every array
#: an earlier run allocated (``bfs_batch``'s ``parent``, ``level`` and
#: ``deg``).  The degrees are graph structure now
#: (``Fleet.cell_degrees``, charged once with the CSR), so no run holds
#: a ``deg`` state; the measurement did not move, as ``dist`` alone was
#: held already.
HELD_STATE_BYTES_CEILING = 49_152

#: The classes an engine is built from (see :func:`engine_part_sites`).
ENGINE_PARTS = ("VirtualClocks", "Communicator", "CommCounters")
#: The modules allowed to construct one: the engine, and the three that
#: build one part and no engine.  ``baselines/oned_engine.py`` and
#: ``baselines/onefive.py`` built all three until the 1D and 1.5D
#: baselines ran on the engine's 1xp grid.
ENGINE_PART_BUILDERS = frozenset({
    os.path.join("core", "engine.py"),
    os.path.join("comm", "collectives.py"),  # a bare Communicator's counters
    os.path.join("faults", "elastic.py"),  # a checkpoint's clock lanes
    os.path.join("algorithms", "betweenness.py"),  # per-source BFS counters
})

#: ``clocks.sync_*(`` / ``counters.record(`` calls under ``src/repro``
#: outside ``comm/`` (see :func:`comm_charge_sites`).  4 while triangle
#: counting charged its row and column broadcasts by hand.
COMM_CHARGE = re.compile(r"\b(?:clocks\.sync_\w+|counters\.record)\(")
COMM_CHARGE_CEILING = 0

#: AllReduce calls of a replicated one-value buffer (see
#: :func:`flag_reduction_sites`): the cuGraph model's two in
#: ``baselines/spmv.py``.  12 before the convergence counts of BFS, the
#: vertex-program loop, ``bfs_batch``, PageRank's ``tol=``, pointer
#: jumping and the 1D baselines went through ``Engine.reduce_partials``
#: (the three that forked on overlap had two calls each).
FLAG_REDUCTION_CEILING = 2
ALLREDUCE_CALLS = frozenset({
    "allreduce", "start_allreduce", "allreduce_stage", "start_allreduce_stage",
})

#: Top-level definitions under ``src/repro`` that nothing outside
#: ``tests/`` reaches (see :func:`only_tests_reach`).  24 before
#: ``gluon_engine``, ``make_packets`` and ``estimate_1d_memory`` went
#: and the serial oracles and test graphs moved into ``reference/``;
#: 16 before the 1D baseline's ``bfs_1d`` and ``pagerank_1d`` went with
#: its engine; 14 before ``VertexQueue`` and ``HashTable`` went with
#: their modules; 12 before ``pagerank_batch`` went; 11 before
#: ``pseudo_diameter``, ``run_bfs_batch``, ``harmonic_mean_teps``, the
#: ``graph/io.py`` readers and writers, ``evaluate_partition``,
#: ``cap_degrees`` and ``kcore_subgraph`` went.  What is left,
#: ``sample_bfs_roots``, waits for ROADMAP item 20 to make it live.
TEST_ONLY_DEFS_CEILING = 1

#: Public methods and properties under ``src/repro`` that nothing
#: outside ``tests/`` reaches (see :func:`methods_only_tests_reach`).
#: 18 when this ratchet came in: ``Graph.permute`` / ``from_scipy``,
#: ``VirtualClocks.barrier``, ``TimingReport.overlap_fraction``,
#: ``LocalMap.row_gid`` / ``owns_col_gid``, ``FaultPlan.for_superstep``,
#: ``Engine.memory_report``, ``IntegrityLedger.last_good``,
#: ``TraceRecorder.to_jsonl``, ``LinkSpec.transfer_time``,
#: ``ClusterConfig.with_gpu``, ``Grid2D.row_group_of`` /
#: ``col_group_of`` and four members of the per-rank device view
#: ``VirtualGPU`` (plus ``PartitionMetrics.compute_efficiency``, which
#: went with its module).
TEST_ONLY_METHODS_CEILING = 0

#: Source lines under ``src/repro/faults/`` (see :func:`package_lines`),
#: the largest package.  2,833 while a checkpoint kept every rank's
#: windows and a regrid re-expressed them through a restore path of its
#: own (``gather_checkpoint_state``).
FAULTS_LINES_CEILING = 2_777

#: Where a reach counts from, and the inline scripts of CI's workflows.
REACH_SCOPES = ("src", "benchmarks", "examples")
CI_SCRIPT = re.compile(r"<<\s*'EOF'\n(.*?)\n\s*EOF", re.S)
#: A string constant that names something: an identifier or a dotted
#: path of them.
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _python_files(path: str):
    if os.path.isfile(path):
        yield path
    for root, _, files in os.walk(path):
        yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def _sites(pattern: re.Pattern, skip=lambda rel: False) -> dict[str, int]:
    """Per-file count of ``pattern`` matches under ``src/repro``,
    outside the files ``skip`` names."""
    sites = {}
    for path in _python_files(SRC):
        rel = os.path.relpath(path, SRC)
        if skip(rel):
            continue
        n = sum(len(pattern.findall(line)) for line in _lines(path))
        if n:
            sites[rel] = n
    return sites


def fan_out_sites() -> dict[str, int]:
    """Per-file count of rank fan-out call sites outside their
    definitions."""
    return _sites(FAN_OUT, lambda rel: rel == FAN_OUT_HOME)


def context_read_sites() -> dict[str, int]:
    """Per-file count of per-rank context reads outside ``core/``."""
    return _sites(CONTEXT_READ, lambda rel: rel.startswith("core" + os.sep))


def reduce_partials_sites() -> dict[str, int]:
    """Per-file count of ``reduce_partials(`` calls (not the
    definition)."""
    return _sites(REDUCE_PARTIALS)


def queue_conversion_sites() -> dict[str, int]:
    """Per-file count of ``fleet.split(`` / ``fleet.stack(`` calls."""
    return _sites(QUEUE_CONVERSION)


def threaded_modules() -> list[str]:
    """Modules under ``src/repro`` that import a threading library."""
    return sorted(
        os.path.relpath(path, SRC)
        for path in _python_files(SRC)
        if any(THREADS.match(line) for line in _lines(path))
    )


def except_clauses() -> int:
    """``except`` clauses under ``src/repro``."""
    return sum(
        1
        for path in _python_files(SRC)
        for line in _lines(path)
        if EXCEPT.match(line)
    )


def index_bytes_per_edge() -> float:
    """Index and data bytes per stored edge of ``Graph.indices``,
    ``TwoDPartition.indices`` and both ``Fleet.csr`` forms (indices, and
    the unit form's data), each buffer counted once.  The weighted
    form's data is the partition's edge weights, the graph's payload
    rather than its structure, and is not counted."""
    import numpy as np

    from repro import Engine
    from repro.comm.grid import Grid2D
    from repro.graph import rmat

    graph = rmat(12, seed=1).with_random_weights(seed=1)
    fleet = Engine(graph, grid=Grid2D(R=2, C=2)).fleet
    unit, weighted = fleet.csr(), fleet.csr(weighted=True)
    held: list = []
    for arr in (
        graph.indices,
        fleet.partition.indices,
        unit.matrix.indices,
        unit.matrix.data,
        weighted.matrix.indices,
    ):
        if not any(np.shares_memory(arr, other) for other in held):
            held.append(arr)
    return sum(arr.nbytes for arr in held) / graph.n_edges


def held_state_bytes() -> int:
    """Bytes of every state buffer the fleet holds — the run's and those
    kept for the next run — after a weighted ``rmat(10)`` on 2x2 ran
    ``bfs_batch`` (4 roots), then ``sssp_batch`` (2 roots)."""
    from repro import Engine, algorithms
    from repro.comm.grid import Grid2D
    from repro.graph import rmat

    graph = rmat(10, seed=1).with_random_weights(seed=1)
    engine = Engine(graph, grid=Grid2D(R=2, C=2))
    algorithms.bfs_batch(engine, [0, 1, 2, 3])
    algorithms.sssp_batch(engine, [0, 1])
    return sum(buf.nbytes for buf in engine.fleet.buffers())


def engine_part_sites() -> dict[str, int]:
    """Per module under ``src/repro``: calls constructing one of
    :data:`ENGINE_PARTS`."""
    sites = {}
    for path in _python_files(SRC):
        tree = ast.parse("".join(_lines(path)))
        n = sum(
            1
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ENGINE_PARTS
        )
        if n:
            sites[os.path.relpath(path, SRC)] = n
    return sites


def comm_charge_sites() -> dict[str, int]:
    """Per module under ``src/repro``, outside ``comm/``: calls that
    sync clocks or record counters by hand."""
    sites = {}
    for path in _python_files(SRC):
        rel = os.path.relpath(path, SRC)
        if rel.startswith("comm" + os.sep):
            continue
        n = sum(len(COMM_CHARGE.findall(line)) for line in _lines(path))
        if n:
            sites[rel] = n
    return sites


def _replicated(node: ast.AST) -> bool:
    """A list comprehension whose element ignores the rank:
    ``[... for _ in ...]``."""
    return (
        isinstance(node, ast.ListComp)
        and len(node.generators) == 1
        and getattr(node.generators[0].target, "id", None) == "_"
    )


def flag_reduction_sites() -> dict[str, int]:
    """Per module under ``src/repro``: AllReduce calls whose buffers are
    one value replicated on every rank, built in place or bound to a
    name in the same function."""
    sites = {}
    for path in _python_files(SRC):
        tree = ast.parse("".join(_lines(path)))
        n = 0
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            replicated = {
                t.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and _replicated(node.value)
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            n += sum(
                1
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) in ALLREDUCE_CALLS
                and any(
                    _replicated(arg) or getattr(arg, "id", None) in replicated
                    for arg in node.args
                )
            )
        if n:
            sites[os.path.relpath(path, SRC)] = n
    return sites


def _all_strings(tree: ast.AST) -> set[int]:
    """``id()`` of the string constants in ``__all__`` assignments: a
    re-export list names what it exports, it does not reach it."""
    return {
        id(elt)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
    }


def _reaches(tree: ast.AST):
    """``(name, line)`` of every ``Name`` / ``Attribute`` in ``tree``,
    and of the parts of every string constant that is an identifier or
    a dotted path (outside ``__all__``): a benchmark names the
    functions it wraps as ``"repro.…"`` paths or builds them from
    strings, and a report reads its fields by name."""
    skip = _all_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and DOTTED.fullmatch(node.value)
            and id(node) not in skip
        ):
            yield from ((part, node.lineno) for part in node.value.split("."))


@functools.lru_cache(maxsize=None)
def _reach_index():
    """Where each name is reached — ``name -> [(path, line)]`` over
    ``src/``, ``benchmarks/``, ``examples/`` and a CI workflow's inline
    scripts (line 0) — and the modules under ``src/repro`` outside
    ``reference/`` whose definitions the ratchets count, as
    ``(path, tree)``."""
    reach: dict[str, list[tuple[str, int]]] = {}
    modules = []
    for scope in REACH_SCOPES:
        for path in _python_files(os.path.join(ROOT, scope)):
            tree = ast.parse("".join(_lines(path)))
            for name, line in _reaches(tree):
                reach.setdefault(name, []).append((path, line))
            if path.startswith(SRC) and os.sep + "reference" + os.sep not in path:
                modules.append((path, tree))
    for root, _, files in os.walk(os.path.join(ROOT, ".github")):
        for f in files:
            text = "".join(_lines(os.path.join(root, f)))
            for script in CI_SCRIPT.findall(text):
                for name, _ in _reaches(ast.parse(textwrap.dedent(script))):
                    reach.setdefault(name, []).append((f, 0))
    return reach, modules


def _unreached(path: str, node: ast.AST) -> bool:
    """Is ``node`` (a definition in ``path``) reached from nowhere but
    its own body?"""
    reach, _ = _reach_index()
    return not any(
        where != path or not node.lineno <= line <= node.end_lineno
        for where, line in reach.get(node.name, ())
    )


def only_tests_reach() -> list[str]:
    """Top-level functions and classes under ``src/repro``, outside
    ``reference/``, that nothing in ``src/``, ``benchmarks/``,
    ``examples/`` or a CI workflow's inline scripts reaches (see
    :func:`_reaches`).  A definition's own body does not count, and
    neither do ``__all__`` lists or ``__init__`` re-exports."""
    _, modules = _reach_index()
    return sorted(
        f"{os.path.relpath(path, SRC)}::{node.name}"
        for path, tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _unreached(path, node)
    )


def methods_only_tests_reach() -> list[str]:
    """Public methods and properties of the top-level classes counted by
    :func:`only_tests_reach` that nothing outside ``tests/`` reaches,
    by the same rule.  A method shares its name with every other
    definition of that name: one reached by its namesake's callers is
    not listed."""
    _, modules = _reach_index()
    return sorted(
        f"{os.path.relpath(path, SRC)}::{cls.name}.{node.name}"
        for path, tree in modules
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and _unreached(path, node)
    )


def package_lines() -> dict[str, int]:
    """Source lines per top-level package under ``src/repro`` (its
    loose modules counted together)."""
    out: dict[str, int] = {}
    for path in _python_files(SRC):
        top, sep, _ = os.path.relpath(path, SRC).partition(os.sep)
        name = f"{top}/" if sep else "top-level modules"
        out[name] = out.get(name, 0) + len(_lines(path))
    return out


def source_lines() -> int:
    return sum(package_lines().values())


def suite_lines() -> int:
    """Lines of Python under ``tests/`` (printed only: a ceiling on
    test lines would penalise new tests)."""
    return sum(len(_lines(path)) for path in _python_files(os.path.join(ROOT, "tests")))


def test_rank_fan_out_sites_only_go_down():
    sites = fan_out_sites()
    assert sum(sites.values()) <= FAN_OUT_CEILING, sites


def test_per_rank_context_reads_only_go_down():
    sites = context_read_sites()
    assert sum(sites.values()) <= CONTEXT_READ_CEILING, sites


def test_reduce_partials_calls_only_go_down():
    sites = reduce_partials_sites()
    assert sum(sites.values()) <= REDUCE_PARTIALS_CEILING, sites


def test_queue_conversions_only_go_down():
    sites = queue_conversion_sites()
    assert sum(sites.values()) <= QUEUE_CONVERSION_CEILING, sites


def _scaleout_engine():
    from repro import Engine
    from repro.comm.grid import Grid2D
    from repro.graph import rmat

    return Engine(rmat(9, seed=1), grid=Grid2D(R=16, C=16))


def test_a_second_bfs_refills_the_first_one_s_buffers():
    """A run's state buffers are kept by name for the next run: a second
    BFS on a 16x16 engine refills the first one's, and answers alike."""
    from repro import algorithms

    engine = _scaleout_engine()
    first = algorithms.bfs(engine, root=3)
    held = {name: engine.fleet.stacked(name) for name in engine.ctx(0).arrays}
    assert sorted(held) == ["level", "parent"]
    again = algorithms.bfs(engine, root=3)
    for name, buf in held.items():
        assert engine.fleet.stacked(name) is buf, name
    assert np.array_equal(first.values, again.values)
    assert np.array_equal(first.extra["levels"], again.extra["levels"])
    assert first.timings == again.timings


def test_an_op_of_another_kind_holds_nothing_of_the_first():
    """Nothing a BFS allocated survives a connected-components run's
    first superstep boundary: neither as the run's state nor as a kept
    buffer — from then on the fleet holds exactly the run's arrays."""
    from repro import algorithms
    from repro.core.hooks import BoundaryHook

    engine = _scaleout_engine()
    algorithms.bfs(engine, root=3)
    # referenced here, so no array made later can take one of their ids
    bfs_held = engine.fleet.buffers()
    bfs_buffers = {id(buf) for buf in bfs_held}
    held = []

    class Probe(BoundaryHook):
        slot, phases = "probe", ("observe",)

        def on_phase(self, phase, engine, boundary):
            run = {id(engine.fleet.stacked(name)) for name in engine.ctx(0).arrays}
            held.append(({id(buf) for buf in engine.fleet.buffers()}, run))

    engine.attach(Probe())
    algorithms.connected_components(engine)
    first, run = held[0]
    assert first == run and not first & bfs_buffers


def test_no_module_uses_threads():
    assert threaded_modules() == []


def test_except_clauses_only_go_down():
    assert except_clauses() <= EXCEPT_CEILING


def test_index_bytes_per_edge_only_go_down():
    assert index_bytes_per_edge() <= INDEX_BYTES_PER_EDGE_CEILING


def test_held_state_bytes_only_go_down():
    assert held_state_bytes() <= HELD_STATE_BYTES_CEILING


def test_only_the_engine_builds_clocks_communicator_counters():
    sites = engine_part_sites()
    assert set(sites) <= ENGINE_PART_BUILDERS, sites


def test_comm_is_charged_only_inside_comm():
    sites = comm_charge_sites()
    assert sum(sites.values()) <= COMM_CHARGE_CEILING, sites


def test_hand_built_all_rank_flags_only_go_down():
    sites = flag_reduction_sites()
    assert sum(sites.values()) <= FLAG_REDUCTION_CEILING, sites


def test_definitions_only_tests_reach_only_go_down():
    defs = only_tests_reach()
    assert len(defs) <= TEST_ONLY_DEFS_CEILING, defs


def test_methods_only_tests_reach_only_go_down():
    methods = methods_only_tests_reach()
    assert len(methods) <= TEST_ONLY_METHODS_CEILING, methods


def test_faults_lines_only_go_down():
    assert package_lines()["faults/"] <= FAULTS_LINES_CEILING


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(SRC))
    sites = fan_out_sites()
    for name, n in sorted(sites.items()):
        print(f"{n:4d}  {name}")
    total = sum(sites.values())
    print(f"{total:4d}  map_ranks( / foreach( sites (ceiling {FAN_OUT_CEILING})")
    reads = context_read_sites()
    for name, n in sorted(reads.items()):
        print(f"{n:4d}  {name}")
    print(
        f"{sum(reads.values()):4d}  engine.ctx( / .contexts / for ctx in engine "
        f"reads outside core/ (ceiling {CONTEXT_READ_CEILING})"
    )
    reductions = reduce_partials_sites()
    for name, n in sorted(reductions.items()):
        print(f"{n:4d}  {name}")
    print(
        f"{sum(reductions.values()):4d}  reduce_partials( calls "
        f"(ceiling {REDUCE_PARTIALS_CEILING})"
    )
    conversions = queue_conversion_sites()
    for name, n in sorted(conversions.items()):
        print(f"{n:4d}  {name}")
    print(
        f"{sum(conversions.values()):4d}  fleet.split( / fleet.stack( sites "
        f"(ceiling {QUEUE_CONVERSION_CEILING})"
    )
    print(f"threads imported by: {', '.join(threaded_modules()) or 'none'}")
    print(f"{except_clauses():4d}  except clauses (ceiling {EXCEPT_CEILING})")
    print(
        f"{index_bytes_per_edge():4g}  host index + data bytes per stored edge "
        f"(ceiling {INDEX_BYTES_PER_EDGE_CEILING})"
    )
    print(
        f"{held_state_bytes():4d}  state bytes held (the run's and kept) after "
        f"bfs_batch, sssp_batch "
        f"(ceiling {HELD_STATE_BYTES_CEILING})"
    )
    parts = engine_part_sites()
    for name, n in sorted(parts.items()):
        flag = "" if name in ENGINE_PART_BUILDERS else "  (not allowed)"
        print(f"{n:4d}  {name}{flag}")
    print(f"{len(parts):4d}  modules building {' / '.join(ENGINE_PARTS)}")
    charges = comm_charge_sites()
    for name, n in sorted(charges.items()):
        print(f"{n:4d}  {name}")
    print(
        f"{sum(charges.values()):4d}  clocks.sync_*( / counters.record( calls "
        f"outside comm/ (ceiling {COMM_CHARGE_CEILING})"
    )
    flags = flag_reduction_sites()
    for name, n in sorted(flags.items()):
        print(f"{n:4d}  {name}")
    print(
        f"{sum(flags.values()):4d}  hand-built all-rank flag AllReduces "
        f"(ceiling {FLAG_REDUCTION_CEILING})"
    )
    defs = only_tests_reach()
    for name in defs:
        print(f"      {name}")
    print(
        f"{len(defs):4d}  top-level definitions only tests reach "
        f"(ceiling {TEST_ONLY_DEFS_CEILING})"
    )
    methods = methods_only_tests_reach()
    for name in methods:
        print(f"      {name}")
    print(
        f"{len(methods):4d}  public methods and properties only tests reach "
        f"(ceiling {TEST_ONLY_METHODS_CEILING})"
    )
    for name, n in sorted(package_lines().items(), key=lambda kv: -kv[1]):
        ceiling = f" (ceiling {FAULTS_LINES_CEILING})" if name == "faults/" else ""
        print(f"{n:6d}  {name}{ceiling}")
    print(f"{source_lines()} lines under src/repro")
    tests = suite_lines()
    print(f"{tests} lines under tests/, {tests / source_lines():.2f}x src/repro")
