"""Every count, fraction and bound of a public entry point is checked.

The table below names, for every parameter of every function in
``repro.algorithms.__all__`` and ``repro.baselines.__all__`` and of the
boundary hooks' and the recovery's constructors (``HOOKS``), the rule
it follows — or why it follows none of them (an id, a seed, a flag).
The test reads the parameters from ``inspect.signature``, so a new
parameter without a row fails :func:`test_every_parameter_has_a_rule`
instead of silently coercing a user's value, and a row no parameter
takes any more fails :func:`test_every_rule_names_a_parameter`.

Each ruled parameter is fed the candidates ``0``, ``-1``, ``2.5``,
``True`` and the out-of-interval fraction ``1.5``; every candidate its
rule refuses must raise a ``ValueError`` that names the parameter.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.algorithms as algorithms
import repro.baselines as baselines
from repro import faults
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import rmat


def _real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )


def _integer(value) -> bool:
    return _real(value) and isinstance(value, (int, np.integer))


#: rule -> which values it accepts
RULES = {
    "count": lambda v: _integer(v) and v >= 1,  # None too, where it is the default
    "count0": lambda v: _integer(v) and v >= 0,
    "fraction": lambda v: _real(v) and 0 <= v <= 1,
    "positive": lambda v: _real(v) and v > 0,  # None too, where it is the default
    "real0": lambda v: _real(v) and v >= 0,
    "unit": lambda v: _real(v) and 0 < v <= 1,
}

#: A parameter that is no count, fraction or bound, and what it is.
EXEMPT = "exempt"

#: Parameter name -> rule, or ``(EXEMPT, why)``.
TABLE = {
    # counts and bounds
    "max_iterations": "count",
    "iterations": "count",
    "max_rounds": "count",
    "k_samples": "count",
    "n_ranks": "count",
    "hub_threshold": "count0",
    # fractions and positive reals
    "damping": "fraction",
    "tol": "positive",
    # the boundary hooks and the recovery
    "interval": "count",
    "keep": "count",
    "repair_budget": "count0",
    "chronic_after": "count",
    "max_recoveries": "count0",
    "hysteresis": "count0",
    "checkpoint_bw": "positive",
    "hash_bw": "positive",
    "exchange_bw": "positive",
    "suspect_s": "positive",
    "latency_s": "real0",
    "rel_threshold": "real0",
    "alpha": "unit",
    # ids and seeds: validate_roots (tests/algorithms/test_root_validation.py)
    "root": (EXEMPT, "a vertex id: validate_roots"),
    "roots": (EXEMPT, "vertex ids: validate_roots"),
    "sources": (EXEMPT, "vertex ids: validate_roots"),
    "seed": (EXEMPT, "any integer seeds the generator"),
    "n": (EXEMPT, "validate_roots' id range, the graph's vertex count"),
    # inputs, flags, choices and labels
    "engine": (EXEMPT, "the engine the entry point runs on"),
    "graph": (EXEMPT, "the input graph"),
    "cluster": (EXEMPT, "a ClusterConfig"),
    "kwargs": (EXEMPT, "Engine options"),
    "colors": (EXEMPT, "the answer being checked"),
    "personalization": (EXEMPT, "a teleport vector, checked by length"),
    "resume": (EXEMPT, "a flag"),
    "normalized": (EXEMPT, "a flag"),
    "weighted": (EXEMPT, "a flag"),
    "use_queue": (EXEMPT, "a flag"),
    "direction": (EXEMPT, "a named choice"),
    "mode": (EXEMPT, "a named choice"),
    "policy": (EXEMPT, "a named choice"),
    "monitor": (EXEMPT, "a HealthMonitor"),
    "what": (EXEMPT, "the name an error message uses"),
}

#: Candidates fed to every ruled parameter.
CANDIDATES = (0, -1, 2.5, True, 1.5)

GRAPH = rmat(6, seed=1).with_random_weights(seed=2)

#: Entry points that run on a 1 x p grid.
ONE_BY_P = {"cc_1d", "cc_15d", "layout_1d"}

#: Values for the required arguments that are not under test.
REQUIRED = {
    "engine": None,  # built per call
    "graph": GRAPH,
    "root": 0,
    "roots": [0, 1],
    "sources": [0, 5],
    "n_ranks": 4,
    "n": GRAPH.n_vertices,
    "colors": np.zeros(GRAPH.n_vertices, dtype=np.int64),
}


#: The constructors of the boundary hooks and the recovery.
HOOKS = ("CheckpointManager", "IntegrityLedger", "HealthMonitor", "Recovery")


def _entry_points():
    for module in (algorithms, baselines):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield name, obj
    for name in HOOKS:
        yield name, getattr(faults, name)


def _parameters():
    for name, fn in _entry_points():
        for param in inspect.signature(fn).parameters.values():
            yield name, fn, param


def _cases():
    for name, fn, param in _parameters():
        rule = TABLE.get(param.name)
        if not isinstance(rule, str):
            continue
        for value in CANDIDATES:
            if not RULES[rule](value):
                yield pytest.param(fn, param.name, value, id=f"{name}-{param.name}={value!r}")


def _call(fn, param: str, value):
    engine = Engine(GRAPH, grid=Grid2D(R=1, C=4) if fn.__name__ in ONE_BY_P else Grid2D(R=2, C=2))
    args = {}
    for p in inspect.signature(fn).parameters.values():
        if p.name == param or p.default is not p.empty or p.kind is p.VAR_KEYWORD:
            continue
        args[p.name] = engine if p.name == "engine" else REQUIRED[p.name]
    return fn(**args, **{param: value})


def test_every_parameter_has_a_rule():
    missing = sorted(f"{name}({p.name})" for name, _, p in _parameters() if p.name not in TABLE)
    assert not missing, f"parameters with no rule in TABLE: {missing}"
    assert set(RULES) >= {r for r in TABLE.values() if isinstance(r, str)}


def test_every_rule_names_a_parameter():
    stale = sorted(set(TABLE) - {p.name for _, _, p in _parameters()})
    assert not stale, f"rows in TABLE that no entry point takes: {stale}"


@pytest.mark.parametrize("fn, param, value", list(_cases()))
def test_bad_value_is_refused_naming_the_parameter(fn, param, value):
    with pytest.raises(ValueError, match=rf"\b{param}\b"):
        _call(fn, param, value)
