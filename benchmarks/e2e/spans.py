"""Host-side spans recorded from outside the program.

The benchmark wraps the layers' public functions from its own files
(the program carries no instrumentation).  ``Tracer.install`` takes
dotted target names such as ``repro.kernels.scatter.scatter_reduce`` or
``repro.comm.collectives.Communicator.allgatherv`` and

* for a module-level function, rebinds it in every loaded ``repro.*``
  module that holds *that very object* as a global (consumers write
  ``from ..kernels import scatter_reduce``, so patching the defining
  module alone would miss them);
* for a method, replaces the attribute on its class.

A target that no longer resolves is reported in ``Tracer.absent`` and
otherwise ignored, so a refactor may delete a function without touching
the benchmark.  ``pause`` restores every binding and ``resume`` puts
the wrappers back, which lets one process alternate traced and untraced
passes.

Each span is six integers ``target_id, start_ns, end_ns, parent, op,
work``: ``parent`` is the index of the enclosing span (-1 at top
level), ``op`` the identifier set through ``Tracer.set_op`` when the
span started, and ``work`` an optional count extracted from the call
(elements scattered, edges expanded, bytes checkpointed).  Spans live
in memory, in one flat list of integers (a list per span would hand the
garbage collector hundreds of thousands of containers to scan, and the
traced run would measure that), until the slice ends.  Single-threaded
by design: the benchmark runs the serial executor only.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["Target", "Tracer", "self_times"]

#: integers per span
WIDTH = 6

#: ``work(args, kwargs, result) -> int``
WorkFn = Callable[[tuple, dict, object], int]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``bucket`` names the per-layer metric
    family its time is reported under."""

    bucket: str
    dotted: str
    work: Optional[WorkFn] = None


def _resolve(dotted: str):
    """Return ``(owner, attr_name, function)`` or ``None`` if any part
    of the dotted path is gone.  ``owner`` is a module or a class."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:]
        for name in rest[:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        fn = vars(owner).get(rest[-1]) if isinstance(owner, type) else getattr(
            owner, rest[-1], None
        )
        if not isinstance(fn, types.FunctionType):
            return None
        return owner, rest[-1], fn
    return None


class Tracer:
    def __init__(self):
        self._data: list[int] = []  # WIDTH integers per span
        self.buckets: list[str] = []  # target_id -> bucket
        self.absent: list[str] = []
        self._stack = [-1]
        self._op = [-1]
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)

    # -- span recording -------------------------------------------------
    def wrap(self, bucket: str, fn, work: Optional[WorkFn] = None):
        """Return ``fn`` wrapped so every call records a span under
        ``bucket`` (also used directly for the benchmark's own op
        calls, which are the root spans)."""
        self.buckets.append(bucket)
        tid = len(self.buckets) - 1
        data, stack, op, now = self._data, self._stack, self._op, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            base = len(data)
            stack.append(base // WIDTH)
            data.extend((tid, now(), 0, stack[-2], op[0], 0))
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    data[base + 5] = work(args, kwargs, result)
                return result
            finally:
                stack.pop()
                data[base + 2] = now()

        return wrapper

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    # -- patching --------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Resolve ``targets``, build their wrappers and switch them on."""
        for target in targets:
            found = _resolve(target.dotted)
            if found is None:
                self.absent.append(target.dotted)
                continue
            owner, name, fn = found
            wrapper = self.wrap(target.bucket, fn, target.work)
            if isinstance(owner, type):
                self._patches.append((owner, name, fn, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))
        self.resume()

    def resume(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def pause(self) -> None:
        """Restore every original binding (the wrappers are kept, so
        traced and untraced passes can alternate in one process)."""
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- export ----------------------------------------------------------
    def table(self) -> np.ndarray:
        """All spans as an ``(n, WIDTH)`` int64 array (columns as in the
        module docstring)."""
        return np.asarray(self._data, dtype=np.int64).reshape(-1, WIDTH)

    def save(self, path: str, table: np.ndarray) -> None:
        """Write ``table`` (from :meth:`table`) with its legend."""
        np.savez_compressed(
            path,
            spans=table,
            columns=np.array(["target", "start_ns", "end_ns", "parent", "op", "work"]),
            buckets=np.array(self.buckets),
            absent=np.array(self.absent, dtype=str),
        )


def self_times(table: np.ndarray) -> np.ndarray:
    """Per-span self time in ns: duration minus the part of it the
    span's direct children cover (children never overlap each other in
    a single-threaded run, so their durations add)."""
    dur = table[:, 2] - table[:, 1]
    parent = table[:, 3]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(table)
    ).astype(np.int64)
    return dur - covered
