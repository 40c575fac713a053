"""Every root, start and source goes through ``validate_roots``.

A non-integer id is refused rather than truncated (``1.5`` must not run
root 1), a bool is not an id, an out-of-range id names the range, and a
source list may not repeat a vertex.  ``bfs`` / ``bfs_batch`` also
refuse switching parameters the direction rule would divide by.
The superstep bound of ``connected_components`` / ``sssp`` /
``sssp_batch`` follows the same rule: an integer >= 1 or ``None`` (no
bound), never a value coerced into a superstep count; so do the loop
bounds of the complex reductions and pointer jumping under their own
names (``label_propagation(iterations=)`` has no ``None``).
"""

from __future__ import annotations

import inspect
import re

import numpy as np
import pytest

import repro.algorithms as algorithms
import repro.baselines as baselines
from repro.algorithms import (
    betweenness,
    bfs,
    bfs_batch,
    connected_components,
    core_numbers,
    greedy_coloring,
    label_propagation,
    max_weight_matching,
    pointer_jumping,
    sssp,
    sssp_batch,
)
from repro.core.engine import Engine
from repro.graph import rmat

N = 64

#: (bad id, what the error says) for a single root.
BAD_ROOT = [
    (1.5, "integer"),
    (np.float64(2.0), "integer"),
    (True, "integer"),
    (-1, "out of range"),
    (N, "out of range"),
]

#: (bad id list, what the error says) for a source list.
BAD_LIST = [
    ([0.5, 1.2], "integer"),
    ([1.5], "integer"),
    ([True, False], "integer"),
    ([0, N], "out of range"),
    ([3, 3], "duplicate"),
    ([], "non-empty"),
]


@pytest.fixture(scope="module")
def graph():
    return rmat(6, seed=3)


@pytest.fixture(scope="module")
def wgraph(graph):
    return graph.with_random_weights(seed=9)


@pytest.mark.parametrize("root, msg", BAD_ROOT)
def test_bfs_rejects_bad_root(graph, root, msg):
    with pytest.raises(ValueError, match=msg):
        bfs(Engine(graph, 4), root)


@pytest.mark.parametrize("root, msg", BAD_ROOT)
def test_sssp_rejects_bad_root(wgraph, root, msg):
    with pytest.raises(ValueError, match=msg):
        sssp(Engine(wgraph, 4), root)


#: The parameters that take vertex ids, and whether they take a list.
ID_PARAMS = {"root": False, "roots": True, "sources": True}


def _id_entry_points():
    """``(name, fn, id parameter)`` of every function in
    ``repro.algorithms.__all__`` and ``repro.baselines.__all__`` that
    takes vertex ids, read from its signature."""
    for module in (algorithms, baselines):
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            for param in inspect.signature(fn).parameters:
                if param in ID_PARAMS:
                    yield name, fn, param


@pytest.mark.parametrize("bad", [-1, N, 2.5, True], ids=repr)
@pytest.mark.parametrize(
    "fn, param",
    [pytest.param(fn, param, id=f"{name}-{param}") for name, fn, param in _id_entry_points()],
)
def test_every_id_parameter_refuses_a_bad_id(wgraph, fn, param, bad):
    """No entry point runs from a negative, out-of-range, fractional or
    boolean vertex id: each raises ``ValueError``."""
    assert wgraph.n_vertices == N
    args = {"engine": Engine(wgraph, 4), "n": N}
    call = {p: args[p] for p in inspect.signature(fn).parameters if p in args}
    with pytest.raises(ValueError):
        fn(**call, **{param: [bad] if ID_PARAMS[param] else bad})


@pytest.mark.parametrize("roots, msg", BAD_LIST)
def test_bfs_batch_rejects_bad_roots(graph, roots, msg):
    with pytest.raises(ValueError, match=msg):
        bfs_batch(Engine(graph, 4), roots)


@pytest.mark.parametrize("sources, msg", BAD_LIST)
def test_sssp_batch_rejects_bad_sources(wgraph, sources, msg):
    with pytest.raises(ValueError, match=msg):
        sssp_batch(Engine(wgraph, 4), sources)


@pytest.mark.parametrize("sources, msg", BAD_LIST)
def test_betweenness_rejects_bad_sources(graph, sources, msg):
    with pytest.raises(ValueError, match=msg):
        betweenness(Engine(graph, 4), sources=sources)


def test_integer_ids_of_any_width_are_accepted(graph):
    want = bfs(Engine(graph, 4), 3).values
    assert np.array_equal(bfs(Engine(graph, 4), np.int32(3)).values, want)
    assert np.array_equal(bfs(Engine(graph, 4), np.uint8(3)).values, want)
    got = betweenness(Engine(graph, 4), sources=np.array([1, 2], dtype=np.uint16))
    ref = betweenness(Engine(graph, 4), sources=[1, 2])
    assert np.array_equal(got.values, ref.values)


#: (bad bound, what the error says): each once ran a superstep count
#: of its own (0 and -1 one, 2.5 three, True one).
BAD_BOUND = [
    (0, "got 0"),
    (-1, "got -1"),
    (2.5, "not 2.5"),
    (np.float64(2.0), f"not {np.float64(2.0)!r}"),
    (True, "not True"),
]

BOUNDED = {
    "cc": lambda g, w, bound: connected_components(Engine(g, 4), max_iterations=bound),
    "sssp": lambda g, w, bound: sssp(Engine(w, 4), 0, max_iterations=bound),
    "sssp_batch": lambda g, w, bound: sssp_batch(Engine(w, 4), [0, 5], max_iterations=bound),
}


@pytest.mark.parametrize("bound, msg", BAD_BOUND)
@pytest.mark.parametrize("algo", sorted(BOUNDED))
def test_bad_superstep_bound_is_refused(graph, wgraph, algo, bound, msg):
    with pytest.raises(ValueError, match=re.escape(f"max_iterations must be an integer >= 1, {msg}")):
        BOUNDED[algo](graph, wgraph, bound)


@pytest.mark.parametrize("algo", sorted(BOUNDED))
def test_superstep_bound_is_kept_as_given(graph, wgraph, algo):
    """``None`` runs to convergence, an integer bounds the supersteps —
    any integer type."""
    free = BOUNDED[algo](graph, wgraph, None)
    assert free.iterations > 2
    for bound in (2, np.int32(2)):
        assert BOUNDED[algo](graph, wgraph, bound).iterations == 2


#: Loop bounds by the name their entry point gives them.
NAMED_BOUNDS = {
    "label_propagation": (
        "iterations", lambda g, w, b: label_propagation(Engine(g, 4), iterations=b)
    ),
    "core_numbers": (
        "max_iterations", lambda g, w, b: core_numbers(Engine(g, 4), max_iterations=b)
    ),
    "greedy_coloring": (
        "max_rounds", lambda g, w, b: greedy_coloring(Engine(g, 4), max_rounds=b)
    ),
    "max_weight_matching": (
        "max_rounds", lambda g, w, b: max_weight_matching(Engine(w, 4), max_rounds=b)
    ),
    "pointer_jumping": (
        "max_iterations", lambda g, w, b: pointer_jumping(Engine(g, 4), max_iterations=b)
    ),
}


@pytest.mark.parametrize("bound, msg", BAD_BOUND)
@pytest.mark.parametrize("algo", sorted(NAMED_BOUNDS))
def test_bad_loop_bound_is_refused(graph, wgraph, algo, bound, msg):
    name, run = NAMED_BOUNDS[algo]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1, {msg}")):
        run(graph, wgraph, bound)


@pytest.mark.parametrize("algo", sorted(NAMED_BOUNDS))
def test_loop_bound_is_kept_as_given(graph, wgraph, algo):
    """The default runs more than two steps (``None``: to convergence),
    an integer bounds them — any integer type."""
    _, run = NAMED_BOUNDS[algo]
    free = run(graph, wgraph, 20 if algo == "label_propagation" else None)
    assert free.iterations > 2
    for bound in (2, np.int32(2)):
        assert run(graph, wgraph, bound).iterations == 2
