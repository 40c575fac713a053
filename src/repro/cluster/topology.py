"""Rank placement and link resolution for a simulated cluster.

Ranks are placed densely onto nodes in order: rank ``r`` lives on node
``r // gpus_per_node`` in slot ``r % gpus_per_node``.  That mirrors the
paper's MPI launch, where consecutive ranks fill a node before spilling
to the next one (and is why the paper sees a jump between 4- and 16-rank
runs: 4 ranks fit on one node and never touch the network).

The topology answers two questions for the cost model:

* :meth:`Topology.link` — the slowest-layer point-to-point link between
  two ranks (NVLink inside an island, CPU path across islands on one
  node, NIC across nodes).
* :meth:`Topology.group_profile` — the bottleneck alpha/beta profile of
  a *group* of ranks running a ring collective, including NIC
  contention when several GPUs of one node talk over the same NIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import ClusterConfig, LinkSpec

__all__ = ["Placement", "GroupProfile", "Topology"]


@dataclass(frozen=True)
class Placement:
    """Physical location of a rank."""

    rank: int
    node: int
    slot: int
    island: int  # NVLink island index within the node


@dataclass(frozen=True)
class GroupProfile:
    """Bottleneck communication profile of a rank group.

    Attributes
    ----------
    size:
        Number of ranks in the group.
    latency_s:
        Worst per-step latency along the group's ring.
    bandwidth_Bps:
        Effective bottleneck bandwidth of the ring, after NIC
        contention.
    crosses_network:
        True when the group spans more than one node.
    """

    size: int
    latency_s: float
    bandwidth_Bps: float
    crosses_network: bool


class Topology:
    """Maps ranks of a ``ClusterConfig`` onto nodes and resolves links."""

    def __init__(self, config: ClusterConfig, n_ranks: int):
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        self.config = config
        self.n_ranks = int(n_ranks)
        # group_profile is a pure function of (ranks, nic_sharing) for a
        # fixed topology, and the BSP stages ask for the same handful of
        # row/column groups every iteration — memoize, keyed by the
        # rank sequence as the caller spelled it.
        self._profile_cache: dict[tuple, GroupProfile] = {}

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def placement(self, rank: int) -> Placement:
        """Node/slot/island placement for ``rank``."""
        self._check(rank)
        g = self.config.node.gpus_per_node
        node, slot = divmod(rank, g)
        island = slot // self.config.node.nvlink_group_size
        return Placement(rank=rank, node=node, slot=slot, island=island)

    def n_nodes(self) -> int:
        return self.config.nodes_for(self.n_ranks)

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")

    # ------------------------------------------------------------------
    # link resolution
    # ------------------------------------------------------------------
    def link(self, r1: int, r2: int) -> LinkSpec:
        """Point-to-point link between two ranks.

        Same NVLink island -> NVLink; same node across islands -> the
        CPU path; different nodes -> NIC (the CPU path is traversed too,
        but the NIC dominates both latency and bandwidth and the model
        folds the CPU hop into the NIC numbers).
        """
        if r1 == r2:
            # Device-local copy; model as NVLink-speed (memcpy D2D).
            return self.config.node.nvlink
        p1, p2 = self.placement(r1), self.placement(r2)
        node = self.config.node
        if p1.node != p2.node:
            return node.nic
        if p1.island != p2.island:
            return node.cpu_path
        return node.nvlink

    # ------------------------------------------------------------------
    # group profiles
    # ------------------------------------------------------------------
    def group_profile(self, ranks: Sequence[int], nic_sharing: int = 1) -> GroupProfile:
        """Bottleneck ring profile for a collective over ``ranks``.

        The ring is taken in sorted rank order (NCCL builds rings over
        the physical order), so a node's members occupy one contiguous
        ring segment and its NIC carries a single in/out flow per
        collective.  Contention therefore comes from *concurrent*
        collectives: when a BSP stage runs one collective per row or
        column group simultaneously, a node's NIC is shared by every
        group with a member on that node.  Callers pass that count as
        ``nic_sharing`` (see ``Engine.stage_nic_sharing``).
        """
        # The BSP stages ask for the same few groups, spelled the same
        # way, thousands of times: look the spelling up before
        # canonicalizing it.
        key = (tuple(ranks), nic_sharing)
        profile = self._profile_cache.get(key)
        if profile is None:
            profile = self._profile_cache[key] = self._ring_profile(
                sorted(set(int(r) for r in key[0])), nic_sharing
            )
        return profile

    def _ring_profile(self, ranks: list[int], nic_sharing: int) -> GroupProfile:
        """:meth:`group_profile` of a sorted, de-duplicated group."""
        if not ranks:
            raise ValueError("empty rank group")
        if nic_sharing < 1:
            raise ValueError(f"nic_sharing must be >= 1, got {nic_sharing}")
        for r in ranks:
            self._check(r)
        if len(ranks) == 1:
            nvl = self.config.node.nvlink
            return GroupProfile(
                size=1,
                latency_s=nvl.latency_s,
                bandwidth_Bps=nvl.bandwidth_Bps,
                crosses_network=False,
            )

        worst_latency = 0.0
        best_case_bw = float("inf")
        crosses = False
        n = len(ranks)
        for i in range(n):
            a, b = ranks[i], ranks[(i + 1) % n]
            link = self.link(a, b)
            worst_latency = max(worst_latency, link.latency_s)
            best_case_bw = min(best_case_bw, link.bandwidth_Bps)
            if self.placement(a).node != self.placement(b).node:
                crosses = True

        bw = best_case_bw
        if crosses and self.config.node.nic_contention and nic_sharing > 1:
            bw = min(bw, self.config.node.nic.bandwidth_Bps / nic_sharing)
        return GroupProfile(
            size=n, latency_s=worst_latency, bandwidth_Bps=bw, crosses_network=crosses
        )
