"""The benchmark's span targets resolve against this source tree.

``benchmarks/e2e/layers.py`` names, by dotted path, every function the
benchmark wraps to time a layer.  A name that no longer resolves is
silently absent from every traced slice (``trace.absent_targets``), so a
source change that deletes or renames a wrapped function must fail
here, in tier-1, rather than only in the benchmark's own smoke test.

Four names were already absent when this test was written — the
``Communicator`` wrappers that the stage calls replaced.  The set of
unresolved names may shrink (the benchmark is re-pointed at the stage
methods) but must not grow.  Read-only: nothing under
``benchmarks/e2e`` is modified.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")

#: The wrapped names that did not resolve when this test was written.
KNOWN_ABSENT = frozenset(
    "repro.comm.collectives.Communicator." + name
    for name in ("broadcast", "grouped_broadcast", "allgatherv", "sendrecv")
)


def _load(name: str):
    """Import ``benchmarks/e2e/<name>.py`` under its own module name (the
    way the benchmark's scripts import each other)."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(E2E, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def benchmark_targets() -> list[str]:
    """Every dotted name in ``layers.TARGETS``."""
    saved = {name: sys.modules.get(name) for name in ("spans", "layers")}
    try:
        _load("spans")
        return [target.dotted for target in _load("layers").TARGETS]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def resolves(dotted: str) -> bool:
    """Does ``dotted`` name a function of ``repro`` — a module-level
    function, or one defined on the class itself?"""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        if owner is None:
            return False
        fn = (
            vars(owner).get(parts[-1])
            if isinstance(owner, type)
            else getattr(owner, parts[-1], None)
        )
        return isinstance(fn, types.FunctionType)
    return False


def test_the_target_table_is_read():
    targets = benchmark_targets()
    assert len(targets) > 20 and all(t.startswith("repro.") for t in targets)


def test_no_wrapped_name_goes_missing():
    unresolved = {t for t in benchmark_targets() if not resolves(t)}
    assert unresolved <= KNOWN_ABSENT, sorted(unresolved - KNOWN_ABSENT)


def test_a_deleted_function_would_be_caught():
    assert resolves("repro.comm.collectives.Communicator.start_allgatherv")
    assert resolves("repro.patterns.sparse.sparse_push")
    assert not resolves("repro.patterns.sparse.no_such_exchange")
    assert not resolves("repro.comm.collectives.Communicator.sendrecv")
