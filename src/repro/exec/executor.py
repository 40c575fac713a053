"""Pluggable rank execution: run per-rank superstep closures.

The paper's BSP structure makes the per-rank work of a superstep
independent until the collective: each rank reads and writes only its
own :class:`~repro.core.context.RankContext` state and charges only
its own :class:`~repro.comm.clocks.VirtualClocks` lane.  The simulator
exploits that the same way a real multi-GPU runtime does — by fanning
the per-rank closures out across workers and barriering before the
collective.  Since the hot per-rank work is numpy (which releases the
GIL), plain threads give real concurrency on multi-core hosts without
any pickling or shared-memory choreography.

Determinism contract (see ``docs/PERF.md``):

* a closure passed to :meth:`RankExecutor.map` touches only the state
  owned by its rank — its context arrays, its clock lane, and data
  reachable from its item;
* results are returned **in submission order**, regardless of
  completion order;
* collectives never run inside the executor — they mutate shared
  counters and perform cross-rank clock synchronization, and stay
  sequential in the engine.

Under this contract every algorithm produces bit-identical values,
``TimingReport`` totals, and ``CommCounters`` whichever executor runs
it (enforced by ``tests/exec/test_determinism.py``).

Selection::

    Engine(graph, n_ranks=16, executor="threads")      # explicit
    REPRO_EXECUTOR=threads:8 python -m repro perf ...  # environment
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "RankExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "resolve_executor",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``Engine(executor=None)``.
ENV_VAR = "REPRO_EXECUTOR"


class RankExecutor:
    """Interface: run a closure over per-rank items, results in order."""

    #: short name recorded in bench metadata
    name = "abstract"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item; return results in item order.

        Implementations must complete *every* call before returning
        (the superstep barrier) and must not reorder results.
        """
        raise NotImplementedError

    @property
    def workers(self) -> int:
        """Degree of concurrency (1 for serial execution)."""
        return 1

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(RankExecutor):
    """Run every rank in submission order on the calling thread.

    This is the historical behavior of the ``for ctx in engine:``
    loops and the default executor.
    """

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadedExecutor(RankExecutor):
    """Fan per-rank closures across a shared ``ThreadPoolExecutor``.

    The pool is created lazily on first use and reused across
    supersteps (pool startup per superstep would dwarf the per-rank
    work).  Results are collected by waiting on each future in
    submission order — a full barrier that also preserves rank order,
    so callers see exactly the serial result list.

    ``max_workers=None`` sizes the pool to ``os.cpu_count()``.  With a
    single worker (or a single item) the closure runs inline, so a
    threaded engine on a 1-CPU host degenerates to serial execution
    without pool overhead.
    """

    name = "threads"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"invalid executor spec ThreadedExecutor(max_workers="
                f"{max_workers!r}): worker count must be >= 1; "
                f"valid forms: 'serial', 'threads', 'threads:N' "
                f"(integer N >= 1)"
            )
        # Explicit None check: ``max_workers or ...`` would silently
        # turn a (hypothetical future) falsy value into the CPU count.
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._max_workers

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if self._max_workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-rank",
            )
        futures = [self._pool.submit(fn, item) for item in items]
        # .result() re-raises worker exceptions; collecting in
        # submission order is both the barrier and the ordering.
        return [f.result() for f in futures]

    def close(self) -> None:
        """Stop the workers and join them (idempotent)."""
        self._shutdown(wait=True)

    def _shutdown(self, wait: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __del__(self):
        # Never join from a finalizer.  The cyclic GC runs it on
        # whichever thread happens to allocate — one of this pool's own
        # workers, or a thread that is still starting and holds the
        # interpreter's thread-registry lock the workers need in order
        # to exit — and the join then never returns.  Waking the
        # workers is enough: they exit on their own.
        try:
            self._shutdown(wait=False)
        except Exception:  # interpreter teardown: attributes may be gone
            pass


def resolve_executor(spec: "RankExecutor | str | None" = None) -> RankExecutor:
    """Turn an executor spec into a :class:`RankExecutor`.

    ``spec`` may be an executor instance (returned as-is), a string
    (``"serial"``, ``"threads"``, or ``"threads:N"`` for an explicit
    worker count), or ``None`` — in which case the ``REPRO_EXECUTOR``
    environment variable is consulted and an unset variable means
    serial execution.
    """
    if isinstance(spec, RankExecutor):
        return spec
    if spec is None:
        spec = os.environ.get(ENV_VAR) or "serial"
    if not isinstance(spec, str):
        raise TypeError(
            f"executor must be a RankExecutor, a string, or None; got {spec!r}"
        )
    text = spec.strip().lower()
    if text in ("", "serial"):
        return SerialExecutor()
    if text == "threads":
        return ThreadedExecutor()
    valid = "valid forms: 'serial', 'threads', 'threads:N' (integer N >= 1)"
    if text.startswith("threads:"):
        raw = text.split(":", 1)[1]
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(
                f"invalid executor spec {spec!r}: worker count {raw!r} "
                f"is not an integer; {valid}"
            ) from None
        if count < 1:
            raise ValueError(
                f"invalid executor spec {spec!r}: worker count must be "
                f">= 1, got {count}; {valid}"
            )
        return ThreadedExecutor(max_workers=count)
    raise ValueError(f"unknown executor spec {spec!r}; {valid}")
