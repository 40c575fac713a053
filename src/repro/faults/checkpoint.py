"""Superstep checkpointing: snapshot, prune, restore.

A checkpoint captures everything a resumed run needs to be
*bit-identical* to a run that never crashed:

* every named per-rank state array of the run
  (``RankContext.run_arrays``; what a previous run left registered on
  the engine is not the run's to restore),
* the exact :class:`~repro.comm.counters.CommCounters` state,
* the full :class:`~repro.comm.clocks.VirtualClocks` state including
  iteration marks and counter snapshots (so per-iteration traces
  reconstruct exactly across the crash), and
* the algorithm's loop state (frontier flags, iteration counters,
  switch-policy state, ...), supplied by the algorithm at each
  ``Engine.superstep_boundary`` call.

Checkpoints live in memory by default (``CheckpointManager.latest()``
feeds in-process recovery); with ``directory=`` they are *also*
pickled to disk as ``ckpt_NNNNNN.pkl`` so a separate process can
resume — the campaign CLI uses the in-memory path, the disk path is
for crash-the-whole-process scenarios and is covered by tests.

The snapshot cost model is honest about scale: ``save`` charges every
rank's clock with ``bytes / checkpoint_bw`` virtual seconds (device →
host snapshot at PCIe-ish bandwidth), so checkpoint-interval tradeoffs
show up in timing reports the way they would on the real cluster.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import queue
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..core.hooks import Boundary, BoundaryHook
from .plan import FaultEvent

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointCorruption",
    "CheckpointManager",
]

#: Format tag embedded in every checkpoint (bump on layout changes).
CHECKPOINT_SCHEMA = "repro.checkpoint.v1"


class CheckpointCorruption(RuntimeError):
    """A checkpoint file on disk failed its integrity check.

    Raised by :meth:`CheckpointManager.load` instead of letting a
    truncated or bit-flipped pickle surface as an opaque
    ``UnpicklingError`` (or, worse, unpickle into garbage).  Carries
    the offending ``path`` and, for digest mismatches, the
    ``expected``/``actual`` sha256 hex digests.
    """

    def __init__(
        self,
        path: str,
        expected: Optional[str] = None,
        actual: Optional[str] = None,
        detail: str = "",
    ):
        self.path = path
        self.expected = expected
        self.actual = actual
        if expected is not None and actual is not None:
            msg = (
                f"checkpoint {path} is corrupt: sha256 mismatch "
                f"(expected {expected}, actual {actual})"
            )
        else:
            msg = f"checkpoint {path} is corrupt: {detail or 'unreadable'}"
        super().__init__(msg)


@dataclass
class Checkpoint:
    """One recoverable snapshot at a superstep boundary.

    The partition-layout fields (``grid``, ``perm``, ``localmaps``)
    record the exact 2D layout the per-rank ``states`` were captured
    under — elastic recovery migrates a checkpoint onto a different
    surviving grid using *the checkpoint's own* layout, which may
    differ from the engine's current one after a previous regrid.
    """

    superstep: int
    algo: str
    states: list[dict[str, np.ndarray]]
    counters: dict
    clocks: dict
    algo_state: dict[str, Any] = field(default_factory=dict)
    #: ``(R, C)`` of the grid the states were captured on.
    grid: Optional[tuple[int, int]] = None
    #: Original-GID -> relabeled-GID permutation of that layout.
    perm: Optional[np.ndarray] = None
    #: Per-rank :class:`~repro.graph.localmap.LocalMap` of that layout.
    localmaps: Optional[list] = None
    schema: str = CHECKPOINT_SCHEMA

    @property
    def nbytes(self) -> int:
        """Total snapshotted state-array bytes (cost-model input)."""
        return int(
            sum(a.nbytes for per_rank in self.states for a in per_rank.values())
        )


class _AsyncWriter:
    """Double-buffered background executor for checkpoint disk I/O.

    A single daemon thread drains a FIFO of thunks (writes and prune
    deletions, so a deletion never overtakes the write it follows); a
    two-slot semaphore bounds the writes in flight — the classic double
    buffer: one checkpoint may still be draining to disk while the next
    save snapshots, but a third save blocks until a slot frees.  A
    worker exception is stashed and re-raised on the next submit or
    :meth:`flush`, so I/O failures surface on the run, not silently.
    """

    #: writes admitted before a save blocks (double buffering)
    n_slots = 2

    def __init__(self):
        self._queue: "queue.Queue" = queue.Queue()
        self._slots = threading.Semaphore(self.n_slots)
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-ckpt-writer", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                fn, releases_slot = item
                try:
                    fn()
                except BaseException as exc:  # noqa: BLE001 - re-raised on next op
                    if self._error is None:
                        self._error = exc
                finally:
                    if releases_slot:
                        self._slots.release()
            finally:
                self._queue.task_done()

    def _check(self) -> None:
        if self._error is not None:
            exc, self._error = self._error, None
            raise RuntimeError("async checkpoint write failed") from exc

    def submit(self, fn, *, is_write: bool) -> None:
        self._check()
        if is_write:
            self._slots.acquire()
        self._queue.put((fn, is_write))

    def flush(self) -> None:
        """Block until every queued operation has completed."""
        self._queue.join()
        self._check()

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join()


class CheckpointManager(BoundaryHook):
    """Owns the checkpoint series for one run.

    Attach with ``engine.attach_checkpoints(manager)``; it fires in the
    ``checkpoint`` boundary phase — after integrity verification, so
    every kept checkpoint is verified-good, and before any demote/grow
    decision, so recovery drains from the boundary it was decided at.

    Parameters
    ----------
    interval:
        Save every ``interval`` supersteps (1 = every boundary).
    directory:
        When set, checkpoints are additionally pickled there.
    keep:
        Retain at most this many checkpoints (oldest pruned first) —
        recovery only ever needs the latest, the second-newest guards
        against a crash *during* a save.
    checkpoint_bw:
        Modeled snapshot bandwidth in bytes/s, charged per rank on
        every save (default 12 GB/s, PCIe 3.0 x16-ish).  ``None``
        disables cost charging (tests that compare against fault-free
        runs without checkpointing use this).
    async_write:
        Pickle to disk on a background writer thread instead of inline
        (double-buffered; see :class:`_AsyncWriter`).  The modeled cost
        is unchanged either way — ``save`` charges only the device →
        host copy-out, because once the snapshot is in host memory the
        drain to disk proceeds off the critical path.  Every write is
        atomic (temp file + ``os.replace``), so ``restore`` /
        :meth:`latest_on_disk` never observe a partial file; call
        :meth:`flush` to force pending writes out (e.g. before reading
        the directory from another process).
    """

    def __init__(
        self,
        interval: int = 1,
        directory: Optional[str] = None,
        keep: int = 2,
        checkpoint_bw: Optional[float] = 12e9,
        async_write: bool = False,
    ):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.interval = interval
        self.directory = directory
        self.keep = keep
        self.checkpoint_bw = checkpoint_bw
        self.checkpoints: list[Checkpoint] = []
        self.saves = 0
        self._writer: Optional[_AsyncWriter] = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            if async_write:
                self._writer = _AsyncWriter()

    slot = "checkpoints"
    phases = ("checkpoint",)

    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        if boundary.state is not None:
            self.maybe_save(
                engine, boundary.superstep, boundary.algo, boundary.state
            )

    def on_reset(self, engine) -> None:
        # Stale checkpoints describe state the new run will overwrite.
        self.clear()

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------
    def due(self, superstep: int) -> bool:
        """Does ``superstep`` fall on the configured interval?"""
        return superstep % self.interval == 0

    def maybe_save(
        self, engine, superstep: int, algo: str, state: dict[str, Any]
    ) -> Optional[Checkpoint]:
        """Save if ``superstep`` falls on the configured interval."""
        if not self.due(superstep):
            return None
        return self.save(engine, superstep, algo, state)

    def save(
        self, engine, superstep: int, algo: str, state: dict[str, Any]
    ) -> Checkpoint:
        """Snapshot the engine at ``superstep`` (unconditionally)."""
        states = [
            {name: arr.copy() for name, arr in ctx.run_arrays.items()}
            for ctx in engine.contexts
        ]
        # Charge the snapshot cost BEFORE capturing the clock state:
        # the checkpoint must embed its own cost, or a restored run
        # would be missing time the uninterrupted run was charged.
        # Each rank drains its own state at checkpoint bandwidth; the
        # time lands in the recovery lane (resilience overhead).
        if self.checkpoint_bw:
            for rank, per_rank in enumerate(states):
                nbytes = sum(a.nbytes for a in per_rank.values())
                engine.clocks.add_stall(rank, nbytes / self.checkpoint_bw)
        part = engine.partition
        ckpt = Checkpoint(
            superstep=superstep,
            algo=algo,
            states=states,
            counters=engine.counters.state_dict(),
            clocks=engine.clocks.state_dict(),
            # deepcopy so later loop mutation can't reach into history;
            # loop state is small (flags, counters, policy objects)
            algo_state=copy.deepcopy(state),
            grid=(engine.grid.R, engine.grid.C),
            perm=part.perm.copy(),
            localmaps=[blk.localmap for blk in part.blocks],
        )
        self.checkpoints.append(ckpt)
        self.saves += 1
        if self.directory is not None:
            self._write(ckpt)
        self._prune()
        return ckpt

    def _write(self, ckpt: Checkpoint) -> str:
        """Write one checkpoint to disk (inline or on the async writer).

        Either way the write is atomic — see :meth:`_write_sync` — so a
        crash mid-write can never leave a torn file at the final path.
        """
        path = os.path.join(self.directory, f"ckpt_{ckpt.superstep:06d}.pkl")
        if self._writer is not None:
            self._writer.submit(
                lambda: self._write_sync(ckpt, path), is_write=True
            )
        else:
            self._write_sync(ckpt, path)
        return path

    def _write_sync(self, ckpt: Checkpoint, path: str) -> None:
        """Pickle one checkpoint to disk inside an integrity envelope.

        The envelope embeds the sha256 of the pickled checkpoint bytes
        so :meth:`load` can tell a bit-flipped or truncated file from a
        healthy one instead of unpickling garbage.  The bytes go to a
        temporary file in the same directory and are renamed into place
        with ``os.replace``: a crash mid-write leaves the previous
        checkpoint at ``path`` untouched (the temp file is debris, not
        damage — :meth:`latest_on_disk` ignores it).
        """
        payload = pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "schema": CHECKPOINT_SCHEMA,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=os.path.dirname(path) or ".",
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    def adopt(self, ckpt: Checkpoint) -> None:
        """Replace the series with an externally produced checkpoint.

        Elastic recovery migrates the latest checkpoint onto a new
        grid and hands it back here; older same-run checkpoints
        describe a layout that no longer exists, so the series resets
        to exactly this one (written to disk too, when configured).
        """
        self.checkpoints = [ckpt]
        if self.directory is not None:
            self._write(ckpt)

    def _prune(self) -> None:
        while len(self.checkpoints) > self.keep:
            old = self.checkpoints.pop(0)
            if self.directory is not None:
                path = os.path.join(
                    self.directory, f"ckpt_{old.superstep:06d}.pkl"
                )
                # Deletions ride the same FIFO as writes so a prune can
                # never remove a file whose (re)write is still queued.
                if self._writer is not None:
                    self._writer.submit(
                        lambda p=path: os.path.exists(p) and os.remove(p),
                        is_write=False,
                    )
                elif os.path.exists(path):
                    os.remove(path)

    def flush(self) -> None:
        """Wait for every pending async write/delete to hit the disk.

        No-op for synchronous managers.  Raises if a background write
        failed since the last operation.
        """
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        """Flush pending I/O and stop the background writer (idempotent)."""
        if self._writer is not None:
            self._writer.flush()
            self._writer.close()
            self._writer = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def clear(self) -> None:
        """Drop in-memory checkpoints (disk files are left for
        post-mortems; a fresh run overwrites them superstep by
        superstep)."""
        self.checkpoints.clear()
        self.saves = 0

    @staticmethod
    def load(path: str) -> Checkpoint:
        """Load one pickled checkpoint from disk.

        Verifies the integrity envelope before unpickling the payload:
        any truncation, bit flip, or non-envelope content raises
        :class:`CheckpointCorruption` (never a raw pickle error).  A
        healthy payload with the wrong schema tag still raises
        ``ValueError`` — that is a version problem, not damage.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            envelope = pickle.loads(data)
        except Exception as exc:
            raise CheckpointCorruption(
                path, detail=f"unreadable envelope ({exc})"
            ) from exc
        if (
            not isinstance(envelope, dict)
            or "sha256" not in envelope
            or "payload" not in envelope
        ):
            raise CheckpointCorruption(
                path, detail="not a checkpoint integrity envelope"
            )
        actual = hashlib.sha256(envelope["payload"]).hexdigest()
        if actual != envelope["sha256"]:
            raise CheckpointCorruption(
                path, expected=envelope["sha256"], actual=actual
            )
        try:
            ckpt = pickle.loads(envelope["payload"])
        except Exception as exc:  # pragma: no cover - digest catches this
            raise CheckpointCorruption(
                path, detail=f"payload failed to unpickle ({exc})"
            ) from exc
        if not isinstance(ckpt, Checkpoint):
            raise ValueError(f"{path} does not contain a Checkpoint")
        if ckpt.schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"checkpoint schema mismatch: {path} has {ckpt.schema!r}, "
                f"expected {CHECKPOINT_SCHEMA!r}"
            )
        return ckpt

    @classmethod
    def latest_on_disk(
        cls,
        directory: str,
        engine=None,
        events: Optional[list] = None,
    ) -> Optional[Checkpoint]:
        """Load the newest healthy ``ckpt_*.pkl`` in ``directory``.

        Corrupt files are skipped newest-first, so a partially written
        final checkpoint falls back to its predecessor; returns
        ``None`` when nothing healthy remains.  Each skip is
        *structured*, not silent: a ``checkpoint-skip`` event naming
        the path and the sha256 mismatch is appended to ``events``
        (when given) and recorded on ``engine`` (when given) so it
        surfaces through ``Engine.fault_events`` — silently resuming
        from an older superstep than the operator expects is exactly
        the kind of surprise the fault ledger exists to prevent.  A
        ``UserWarning`` is still emitted for callers with neither.
        """
        try:
            names = sorted(
                n
                for n in os.listdir(directory)
                if n.startswith("ckpt_") and n.endswith(".pkl")
            )
        except FileNotFoundError:
            return None
        for name in reversed(names):
            path = os.path.join(directory, name)
            try:
                return cls.load(path)
            except CheckpointCorruption as exc:
                try:
                    superstep = int(name[len("ckpt_") : -len(".pkl")])
                except ValueError:
                    superstep = 0
                event = FaultEvent(
                    "checkpoint-skip", None, superstep, "checkpoint",
                    extra={
                        "path": path,
                        "sha256_expected": exc.expected,
                        "sha256_actual": exc.actual,
                        "detail": str(exc),
                    },
                ).as_dict()
                if events is not None:
                    events.append(event)
                if engine is not None:
                    engine.record_event(event)
                warnings.warn(f"skipping corrupt checkpoint: {exc}")
        return None
