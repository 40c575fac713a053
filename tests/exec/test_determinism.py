"""Determinism across host rank order and overlap.

A ``map_ranks`` closure touches only its own rank's state (the
contract the fleet's fused supersteps rest on), so every algorithm, run
on the same graph and grid, must produce bit-identical values, timing
totals and communication-counter summaries whether ``map_ranks`` visits
the ranks forward or in reverse.  The ``threaded`` tests are that
check, under the ids they had when the reversed leg was a thread pool.
An overlapped run must match a blocking one in everything but a total
that may only shrink.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.graph import rmat

from ..conftest import rank_order


def _graph():
    return rmat(10, edgefactor=8, seed=5)


@pytest.fixture(scope="module")
def graph():
    return _graph()


def _bfs(e):
    from repro.algorithms.bfs import bfs

    return bfs(e, root=0)


def _pagerank(e):
    from repro.algorithms.pagerank import pagerank

    return pagerank(e, iterations=10)


def _components(e):
    from repro.algorithms.components import connected_components

    return connected_components(e)


def _labelprop(e):
    from repro.algorithms.labelprop import label_propagation

    return label_propagation(e, iterations=5)


def _pointerjump(e):
    from repro.algorithms.pointerjump import pointer_jumping

    return pointer_jumping(e)


def _coloring(e):
    from repro.algorithms.coloring import greedy_coloring

    return greedy_coloring(e)


def _kcore(e):
    from repro.algorithms.kcore import core_numbers

    return core_numbers(e)


def _triangles(e):
    from repro.algorithms.triangles import triangle_count

    return triangle_count(e)


def _betweenness(e):
    from repro.algorithms.betweenness import betweenness

    return betweenness(e, k_samples=3)


def _matching(e):
    from repro.algorithms.matching import max_weight_matching

    return max_weight_matching(e)


def _sssp(e):
    from repro.algorithms.sssp import sssp

    return sssp(e, root=0)


def _program(e):
    from repro.core.program import VertexProgram, run_vertex_program

    prog = VertexProgram(
        name="mrl",
        init=lambda og: og.astype(np.float64),
        op="min",
    )
    return run_vertex_program(e, prog)


def _spmv_pagerank(e):
    from repro.baselines.spmv import spmv_pagerank

    return spmv_pagerank(e, iterations=5)


def _spmv_cc(e):
    from repro.baselines.spmv import spmv_cc

    return spmv_cc(e)


def _spmv_bfs(e):
    from repro.baselines.spmv import spmv_bfs

    return spmv_bfs(e, root=0)


UNWEIGHTED = {
    "bfs": _bfs,
    "pagerank": _pagerank,
    "components": _components,
    "labelprop": _labelprop,
    "pointerjump": _pointerjump,
    "coloring": _coloring,
    "kcore": _kcore,
    "triangles": _triangles,
    "betweenness": _betweenness,
    "program": _program,
    "spmv_pagerank": _spmv_pagerank,
    "spmv_cc": _spmv_cc,
    "spmv_bfs": _spmv_bfs,
}
WEIGHTED = {
    "matching": _matching,
    "sssp": _sssp,
}


def _run(name, overlap=False, order="forward"):
    """``name`` on a fresh 16-rank engine (weighted graph for
    :data:`WEIGHTED`)."""
    graph = _graph()
    if name in WEIGHTED:
        graph = graph.with_random_weights(seed=9)
    runner = WEIGHTED.get(name) or UNWEIGHTED[name]
    engine = Engine(graph, 16, overlap=overlap)
    with rank_order(order):
        return runner(engine)


def _assert_identical(a, b, name):
    if a.values is None:
        assert b.values is None
    else:
        assert np.array_equal(a.values, b.values), f"{name}: values differ"
    assert a.iterations == b.iterations, f"{name}: iteration counts differ"
    assert a.timings.total == b.timings.total, f"{name}: total time differs"
    assert a.timings.compute == b.timings.compute, f"{name}: compute differs"
    assert a.timings.comm == b.timings.comm, f"{name}: comm time differs"
    assert a.counters == b.counters, f"{name}: comm counters differ"


@pytest.fixture(scope="module")
def run():
    """:func:`_run`, each configuration once per module (the blocking
    and overlapped forward runs serve two tests each)."""
    return functools.lru_cache(maxsize=None)(_run)


@pytest.mark.parametrize("name", sorted(UNWEIGHTED))
def test_threaded_matches_serial(run, name):
    """Ranks visited in reverse: the same run, bit for bit."""
    _assert_identical(run(name), run(name, order="reversed"), name)


@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_threaded_matches_serial_weighted(run, name):
    _assert_identical(run(name), run(name, order="reversed"), name)


def _assert_overlap_equivalent(blocking, overlapped, name):
    """Blocking vs overlapped: everything bit-identical except the
    total, which may only shrink — by exactly the time the overlap lane
    reports as hidden behind compute."""
    if blocking.values is None:
        assert overlapped.values is None
    else:
        assert np.array_equal(blocking.values, overlapped.values), (
            f"{name}: values differ"
        )
    assert blocking.iterations == overlapped.iterations, f"{name}: iterations"
    assert blocking.timings.compute == overlapped.timings.compute, (
        f"{name}: compute lane differs"
    )
    assert blocking.timings.comm == overlapped.timings.comm, (
        f"{name}: comm lane differs"
    )
    assert blocking.counters == overlapped.counters, f"{name}: counters differ"
    assert blocking.timings.overlap == 0.0, f"{name}: blocking run hid comm"
    assert 0.0 <= overlapped.timings.overlap <= overlapped.timings.comm, (
        f"{name}: hid more than comm"
    )
    assert overlapped.timings.total <= blocking.timings.total, (
        f"{name}: overlapped run slower than blocking"
    )


@pytest.mark.parametrize("name", sorted(UNWEIGHTED))
def test_overlapped_matches_blocking(run, name):
    _assert_overlap_equivalent(run(name), run(name, overlap=True), name)


@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_overlapped_matches_blocking_weighted(run, name):
    _assert_overlap_equivalent(run(name), run(name, overlap=True), name)


@pytest.mark.parametrize("name", sorted(UNWEIGHTED))
def test_overlapped_threaded_matches_overlapped_serial(run, name):
    """Overlap and rank order compose: an overlapped run is fully
    deterministic (totals included) whichever way the ranks are
    visited."""
    a = run(name, overlap=True)
    b = run(name, overlap=True, order="reversed")
    _assert_identical(a, b, name)
    assert a.timings.overlap == b.timings.overlap, f"{name}: overlap differs"


def _assert_overlap_hides_comm(run, name):
    """The overlapped run hides some comm behind compute, and so finishes
    no later than the blocking run, which hides none."""
    blocking, overlapped = run(name), run(name, overlap=True)
    assert blocking.timings.overlap == 0.0, name
    assert overlapped.timings.overlap > 0.0, name
    assert 0.0 < overlapped.timings.overlap <= overlapped.timings.comm, name
    assert overlapped.timings.total <= blocking.timings.total, name


#: What still issues a collective split-phase, with compute to hide it
#: behind.
HIDING = ["bfs", "components", "kcore", "labelprop", "matching", "pointerjump", "sssp"]


@pytest.mark.parametrize("name", HIDING)
def test_overlap_hides_comm(run, name):
    """Overlap must actually hide time, not just stay correct."""
    _assert_overlap_hides_comm(run, name)


def _assert_overlap_changes_nothing(run, name):
    """A run with no split-phase collective: the overlapped run is the
    blocking run, totals included."""
    blocking, overlapped = run(name), run(name, overlap=True)
    assert np.array_equal(blocking.values, overlapped.values), name
    assert overlapped.timings.overlap == 0.0, name
    assert overlapped.timings.total == blocking.timings.total, name


def test_overlap_changes_nothing_on_pagerank(run):
    """PageRank's dangling mass rides the dense pull's row-group
    AllReduce, which blocks: it has nothing left to hide."""
    _assert_overlap_changes_nothing(run, "pagerank")


def test_overlap_changes_nothing_on_spmv_pagerank(run):
    """Nor has the cuGraph model's SpMV PageRank (the baseline the
    paper's PageRank is compared against), which folds it the same
    way."""
    _assert_overlap_changes_nothing(run, "spmv_pagerank")


def test_repeated_threaded_runs_identical(graph):
    """A second run on the same engine, ranks visited in reverse, repeats
    the first bit for bit."""
    engine = Engine(graph, 16)
    first = _bfs(engine)
    with rank_order("reversed"):
        second = _bfs(engine)
    _assert_identical(first, second, "bfs-repeat")


def test_env_spec_matches_explicit(graph, monkeypatch):
    """``REPRO_EXECUTOR`` is read by nothing: a run under it is the run
    without it."""
    monkeypatch.setenv("REPRO_EXECUTOR", "threads:4")
    a = _bfs(Engine(graph, 16))
    b = _bfs(Engine(graph, 16, executor="serial"))
    _assert_identical(a, b, "bfs-env")
