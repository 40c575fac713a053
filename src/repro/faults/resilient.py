"""Resilient collectives: detection, retry, and failure escalation.

:class:`ResilientCommunicator` decorates
:class:`~repro.comm.collectives.Communicator` — same interface, so
engines, patterns, and algorithms are oblivious — and guards every
collective with the fault protocol:

1. **Crash check.**  If the injector has a crashed rank in the group,
   the collective raises :class:`~repro.faults.injector.RankFailure`
   immediately (a dead peer cannot participate); the engine's
   checkpoint/restore machinery is the recovery path.
2. **Straggler stalls.**  Scheduled stalls advance the straggling
   rank's clock before the collective, so the whole group waits on it
   (BSP semantics come from the underlying ``sync_group``).
3. **Attempt loop.**  Each attempt asks the injector whether it is
   disrupted.  A *transient* disruption simply fails; a *corruption*
   disruption actually flips a bit in a scratch copy of the payload and
   relies on a CRC32 checksum mismatch to detect it — modeling
   end-to-end payload verification, not oracle knowledge.  Every failed
   attempt charges exponential-backoff recovery time to the group's
   virtual clocks; exceeding ``max_retries`` escalates to
   :class:`RankFailure`.

Retries deliberately do **not** inflate :class:`CommCounters` — the
counters feed the paper's message-complexity claims, which describe the
algorithm, not the weather.  Retry cost is visible instead in the
clocks' ``recovery`` lane and in the recorded
:class:`~repro.faults.plan.FaultEvent` rows.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ..comm.collectives import BroadcastCall, CollectiveHandle, Communicator
from .injector import FaultInjector, RankFailure
from .plan import FaultEvent, FaultSpec

__all__ = ["GuardedHandle", "ResilientCommunicator"]


@dataclass
class GuardedHandle:
    """A split-phase handle whose fault protocol runs at ``wait``.

    Detection is end-to-end: a corruption or transient disruption of an
    in-flight collective only surfaces when the receiver verifies the
    payload, i.e. at completion — so the crash check, CRC verification,
    and retry/backoff loop all run inside
    :meth:`ResilientCommunicator.wait`, with retries charged to the
    recovery lane exactly as on the blocking path.
    """

    inner: CollectiveHandle
    payload: list[np.ndarray]

    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.inner.ranks

    @property
    def result(self):
        return self.inner.result


def _payload_checksum(arrays: Sequence[np.ndarray]) -> int:
    """CRC32 over the byte stream of a collective's payload."""
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


def _flip_bit(arrays: Sequence[np.ndarray], bit: int) -> list[np.ndarray]:
    """Copy the payload and flip one bit (wrapped to the total size)."""
    copies = [np.ascontiguousarray(a).copy() for a in arrays]
    total_bits = sum(c.nbytes for c in copies) * 8
    if total_bits == 0:
        return copies
    bit = bit % total_bits
    for c in copies:
        nbits = c.nbytes * 8
        if bit < nbits:
            flat = c.view(np.uint8).reshape(-1)
            flat[bit // 8] ^= np.uint8(1 << (bit % 8))
            break
        bit -= nbits
    return copies


class ResilientCommunicator:
    """Fault-tolerant decorator over :class:`Communicator`.

    Exposes the same collective methods plus passthrough ``costmodel``
    / ``clocks`` / ``counters`` attributes, so it can stand in for the
    inner communicator anywhere (``Engine.comm`` in particular).  A
    stage call guards each group as its own collective, in group order.
    """

    #: per-attempt base backoff, in virtual seconds (doubles each retry)
    backoff_base_s = 1e-4

    def __init__(
        self,
        inner: Communicator,
        injector: FaultInjector,
        max_retries: int = 4,
    ):
        self.inner = inner
        self.injector = injector
        self.max_retries = max_retries

    # passthroughs — everything that reads accounting state keeps
    # working against the wrapped communicator
    @property
    def costmodel(self):
        return self.inner.costmodel

    @property
    def clocks(self):
        return self.inner.clocks

    @property
    def counters(self):
        return self.inner.counters

    # ------------------------------------------------------------------
    # the guard
    # ------------------------------------------------------------------
    def _guard(
        self,
        kind: str,
        ranks: Sequence[int],
        payload: Sequence[np.ndarray],
    ) -> None:
        """Run the fault protocol for one collective launch.

        Raises :class:`RankFailure` on a crash or an exhausted retry
        budget; returns normally when the collective may proceed.
        """
        inj = self.injector
        step = inj.superstep

        crash = inj.crash_among(kind, ranks)
        if crash is not None:
            inj.record(
                FaultEvent(
                    kind="crash",
                    rank=crash.rank,
                    superstep=step,
                    collective=kind,
                    fatal=True,
                )
            )
            raise RankFailure(crash.rank, step, kind, fault_kind="crash")

        for spec in inj.stragglers_for(kind, ranks):
            self.clocks.add_stall(spec.rank, spec.delay_s)
            inj.record(
                FaultEvent(
                    kind="straggler",
                    rank=spec.rank,
                    superstep=step,
                    collective=kind,
                    recovery_s=spec.delay_s,
                )
            )

        attempt = 0
        while True:
            spec = inj.next_disruption(kind, ranks)
            if spec is None:
                return
            attempt += 1
            detected = True
            if spec.kind == "corruption":
                # Real detection: flip a bit in a scratch copy of the
                # payload and compare checksums.  (A flip the checksum
                # misses would be silent corruption — CRC32 catches
                # every single-bit flip, so detected is always True
                # here, but the machinery is honest about *how*.)
                clean = _payload_checksum(payload)
                damaged = _payload_checksum(_flip_bit(payload, spec.bit))
                detected = damaged != clean or not payload
            backoff = self.backoff_base_s * (2 ** (attempt - 1))
            self.clocks.charge_recovery(ranks, backoff)
            if attempt > self.max_retries:
                inj.record(
                    FaultEvent(
                        kind=spec.kind,
                        rank=spec.rank,
                        superstep=step,
                        collective=kind,
                        retries=attempt,
                        recovery_s=backoff,
                        detected=detected,
                        fatal=True,
                    )
                )
                raise RankFailure(
                    spec.rank,
                    step,
                    kind,
                    fault_kind=spec.kind,
                    retries=attempt,
                )
            inj.record(
                FaultEvent(
                    kind=spec.kind,
                    rank=spec.rank,
                    superstep=step,
                    collective=kind,
                    retries=attempt,
                    recovery_s=backoff,
                    detected=detected,
                )
            )

    # ------------------------------------------------------------------
    # decorated collectives
    # ------------------------------------------------------------------
    def _stage(self, kind, groups, payloads, move, checked=None):
        """The inner stage, each group's ``move`` behind the guard (over
        ``checked(payload)``) as a call of its own would be."""

        def guarded(ranks, payload):
            self._guard(kind, ranks, payload if checked is None else checked(payload))
            return move(ranks, payload)

        return self.inner._stage(groups, payloads, guarded)

    def allreduce(self, ranks, buffers, op="sum", nic_sharing=1):
        self.allreduce_stage([ranks], [buffers], op=op, nic_sharing=nic_sharing)

    def allreduce_stage(self, groups, buffers, op="sum", nic_sharing=1):
        move = partial(self.inner._allreduce_core, op=op, nic_sharing=nic_sharing)
        self._stage("allreduce", groups, buffers, move)

    def broadcast(self, ranks, buffers, root_pos, nic_sharing=1):
        self._guard("broadcast", ranks, buffers)
        return self.inner.broadcast(
            ranks, buffers, root_pos, nic_sharing=nic_sharing
        )

    def grouped_broadcast(self, ranks, calls: Sequence[BroadcastCall], nic_sharing=1):
        self.grouped_broadcast_stage([ranks], [calls], nic_sharing=nic_sharing)

    def grouped_broadcast_stage(self, groups, calls, nic_sharing=1):
        move = partial(self.inner._grouped_broadcast_core, nic_sharing=nic_sharing)
        self._stage(
            "grouped_broadcast", groups, calls, move, lambda c: [x.src for x in c]
        )

    def allgatherv(self, ranks, send_buffers, nic_sharing=1):
        return self.allgatherv_stage([ranks], [send_buffers], nic_sharing)[0]

    def allgatherv_stage(self, groups, send_buffers, nic_sharing=1):
        move = partial(self.inner._allgatherv_core, nic_sharing=nic_sharing)
        return self._stage("allgatherv", groups, send_buffers, move)

    def sendrecv(self, src_rank, dst_rank, payload):
        self._guard("sendrecv", [src_rank, dst_rank], [np.asarray(payload)])
        return self.inner.sendrecv(src_rank, dst_rank, payload)

    def alltoallv(self, ranks, send_matrix, nic_sharing=1):
        flat = [np.asarray(b) for row in send_matrix for b in row]
        self._guard("alltoallv", ranks, flat)
        return self.inner.alltoallv(ranks, send_matrix, nic_sharing=nic_sharing)

    # ------------------------------------------------------------------
    # decorated split-phase collectives (guarded at wait time)
    # ------------------------------------------------------------------
    def start_allreduce(self, ranks, buffers, op="sum", nic_sharing=1):
        h = self.inner.start_allreduce(ranks, buffers, op=op, nic_sharing=nic_sharing)
        # Verify the reduced payload the group ends up holding.
        return GuardedHandle(h, [np.asarray(b) for b in buffers])

    def start_allgatherv(self, ranks, send_buffers, nic_sharing=1):
        h = self.inner.start_allgatherv(ranks, send_buffers, nic_sharing=nic_sharing)
        return GuardedHandle(h, [np.asarray(h.result)])

    def start_allgatherv_stage(self, groups, send_buffers, nic_sharing=1):
        handles = self.inner.start_allgatherv_stage(groups, send_buffers, nic_sharing)
        return [GuardedHandle(h, [np.asarray(h.result)]) for h in handles]

    def start_alltoallv(self, ranks, send_matrix, nic_sharing=1):
        h = self.inner.start_alltoallv(ranks, send_matrix, nic_sharing=nic_sharing)
        return GuardedHandle(h, [np.asarray(b) for b in h.result])

    def wait(self, handle: GuardedHandle):
        """Complete a guarded split-phase collective.

        Runs the full fault protocol first — a crashed participant
        raises :class:`RankFailure`, stragglers stall, and disrupted
        attempts retry with exponential backoff charged through
        ``charge_recovery`` (so retry time lands in the recovery lane
        and, by advancing the group clocks before completion, counts as
        overlap-window time rather than inflating the collective's own
        comm charge).  Counters were recorded once at issue; retries
        never inflate them.
        """
        self._guard(handle.kind, list(handle.ranks), handle.payload)
        return self.inner.wait(handle.inner)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResilientCommunicator(max_retries={self.max_retries}, "
            f"plan={len(self.injector.plan)} faults)"
        )
