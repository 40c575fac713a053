"""Cross-executor determinism suite (the executor's core contract).

Every algorithm, run on the same graph and grid, must produce
bit-identical values, timing totals, and communication-counter
summaries under the serial and the threaded executor.  The threaded
runs force ``max_workers=4`` because the contract must hold regardless
of host core count (``ThreadedExecutor()`` defaults to
``os.cpu_count()``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.exec import SerialExecutor, ThreadedExecutor
from repro.graph import rmat


@pytest.fixture(scope="module")
def graph():
    return rmat(10, edgefactor=8, seed=5)


@pytest.fixture(scope="module")
def wgraph(graph):
    return graph.with_random_weights(seed=9)


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


@pytest.mark.parametrize("name", sorted(UNWEIGHTED))
def test_threaded_matches_serial(graph, name):
    runner = UNWEIGHTED[name]
    a = runner(Engine(graph, 16, executor=SerialExecutor()))
    b = runner(Engine(graph, 16, executor=ThreadedExecutor(max_workers=4)))
    _assert_identical(a, b, name)


@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_threaded_matches_serial_weighted(wgraph, name):
    runner = WEIGHTED[name]
    a = runner(Engine(wgraph, 16, executor=SerialExecutor()))
    b = runner(Engine(wgraph, 16, executor=ThreadedExecutor(max_workers=4)))
    _assert_identical(a, b, name)


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
    assert overlapped.timings.overlap >= 0.0
    assert overlapped.timings.total <= blocking.timings.total, (
        f"{name}: overlapped run slower than blocking"
    )


@pytest.mark.parametrize("name", sorted(UNWEIGHTED))
def test_overlapped_matches_blocking(graph, name):
    # overlap=False explicitly: the blocking reference must stay
    # blocking even when the suite runs under REPRO_OVERLAP=1.
    runner = UNWEIGHTED[name]
    blocking = runner(
        Engine(graph, 16, executor=SerialExecutor(), overlap=False)
    )
    overlapped = runner(
        Engine(graph, 16, executor=SerialExecutor(), overlap=True)
    )
    _assert_overlap_equivalent(blocking, overlapped, name)


@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_overlapped_matches_blocking_weighted(wgraph, name):
    runner = WEIGHTED[name]
    blocking = runner(
        Engine(wgraph, 16, executor=SerialExecutor(), overlap=False)
    )
    overlapped = runner(
        Engine(wgraph, 16, executor=SerialExecutor(), overlap=True)
    )
    _assert_overlap_equivalent(blocking, overlapped, name)


@pytest.mark.parametrize("name", sorted(UNWEIGHTED))
def test_overlapped_threaded_matches_overlapped_serial(graph, name):
    """Overlap and the threaded executor compose: an overlapped run is
    fully deterministic (totals included) across executors."""
    runner = UNWEIGHTED[name]
    a = runner(Engine(graph, 16, executor=SerialExecutor(), overlap=True))
    b = runner(
        Engine(
            graph, 16, executor=ThreadedExecutor(max_workers=4), overlap=True
        )
    )
    _assert_identical(a, b, name)
    assert a.timings.overlap == b.timings.overlap, f"{name}: overlap differs"


def test_overlap_hides_comm_on_pagerank(graph):
    """PageRank's dangling AllReduce and stage-pipelined exchanges must
    actually hide time, not just stay correct."""
    overlapped = _pagerank(Engine(graph, 16, overlap=True))
    assert overlapped.timings.overlap > 0.0
    assert 0.0 < overlapped.timings.overlap_fraction <= 1.0


def test_overlap_env_var(graph, monkeypatch):
    from repro.core.engine import OVERLAP_ENV_VAR

    monkeypatch.setenv(OVERLAP_ENV_VAR, "1")
    from_env = _pagerank(Engine(graph, 16))
    explicit = _pagerank(Engine(graph, 16, overlap=True))
    _assert_identical(from_env, explicit, "pagerank-env")
    assert from_env.timings.overlap > 0.0


def test_repeated_threaded_runs_identical(graph):
    """The threaded executor is deterministic run-to-run, not just
    serial-vs-threaded."""
    runs = [
        _bfs(Engine(graph, 16, executor=ThreadedExecutor(max_workers=4)))
        for _ in range(2)
    ]
    _assert_identical(runs[0], runs[1], "bfs-repeat")


def test_env_spec_matches_explicit(graph, monkeypatch):
    from repro.exec import ENV_VAR

    monkeypatch.setenv(ENV_VAR, "threads:4")
    a = _bfs(Engine(graph, 16))  # resolved from environment
    b = _bfs(Engine(graph, 16, executor=SerialExecutor()))
    _assert_identical(a, b, "bfs-env")
