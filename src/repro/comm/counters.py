"""Message and volume accounting for collectives.

The paper's central communication-scaling argument (§2.2) is stated in
message counts and volumes: a 1D all-to-all needs O(p^2) messages,
while 2D group collectives need O(sqrt(p)) serialized messages per
group and O(p) in total, at the price of up to O(N / sqrt(p))
communicated state per rank.  These counters make both quantities
observable so the scaling benches (and tests) can verify them.

Two message notions are tracked:

* ``serial_messages`` — the latency-chain length of an operation (ring
  steps for a collective, ``k-1`` for an all-to-all participant).  This
  is the count the paper's O(p) vs O(p^2) argument refers to.
* ``transfers`` — every point-to-point send issued, including the
  pipelined concurrent ones.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["OpStats", "CommCounters"]


@dataclass
class OpStats:
    """Aggregate statistics for one collective kind."""

    calls: int = 0
    serial_messages: int = 0
    transfers: int = 0
    bytes: int = 0

    def add(self, serial_messages: int, transfers: int, nbytes: int) -> None:
        self.calls += 1
        self.serial_messages += serial_messages
        self.transfers += transfers
        self.bytes += int(nbytes)


@dataclass
class CommCounters:
    """Per-kind communication statistics for one run."""

    by_kind: dict[str, OpStats] = field(default_factory=lambda: defaultdict(OpStats))

    def record(
        self, kind: str, serial_messages: int, transfers: int, nbytes: int
    ) -> None:
        """Count one call of ``kind``.

        ``nbytes`` is the group's total traffic, summed over members.
        For the ring collectives that is ring traffic: an AllReduce of
        ``n`` bytes over ``k`` members records ``2 · n · (k − 1)`` (a
        reduce-scatter and an allgather, each member sending ``k − 1``
        chunks of ``n / k``), and an AllGather(v) of ``total`` bytes
        records ``total · (k − 1)`` (each member receives all but its
        own part).  The counters count the ring also where the cost
        model charges a tree."""
        self.by_kind[kind].add(serial_messages, transfers, nbytes)

    def reset(self) -> None:
        """Drop all recorded statistics, preserving identity (holders
        of this object observe the reset)."""
        self.by_kind.clear()

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    @property
    def total_serial_messages(self) -> int:
        return sum(s.serial_messages for s in self.by_kind.values())

    @property
    def total_transfers(self) -> int:
        return sum(s.transfers for s in self.by_kind.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.by_kind.values())

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.by_kind.values())

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, dict[str, int]]:
        """Plain nested-dict copy of the per-kind statistics (also what
        :meth:`~repro.comm.clocks.VirtualClocks.mark_iteration` keeps)."""
        return {kind: dict(vars(s)) for kind, s in self.by_kind.items()}

    def load_state(self, state: Mapping[str, Mapping[str, int]]) -> None:
        """Restore a :meth:`state_dict` snapshot in place (identity is
        preserved: holders of this object observe the restore)."""
        self.by_kind.clear()
        for kind, stats in state.items():
            self.by_kind[kind] = OpStats(**dict(stats))

    def merge(self, other: "CommCounters") -> None:
        """Accumulate another run's counters into this one."""
        for kind, stats in other.by_kind.items():
            agg = self.by_kind[kind]
            agg.calls += stats.calls
            agg.serial_messages += stats.serial_messages
            agg.transfers += stats.transfers
            agg.bytes += stats.bytes

    def summary(self) -> dict[str, dict[str, int]]:
        """Plain-dict view for reports: :meth:`state_dict` by kind name."""
        return dict(sorted(self.state_dict().items()))
