"""Analytic time model for kernels and collectives.

The simulator executes every data movement and reduction for real (in
NumPy), so algorithm *results* are exact; this module supplies the
*virtual time* each operation would have taken on the modeled machine.
Collectives use standard ring alpha-beta models (the algorithms NCCL
uses at these scales); kernels use a launch + throughput model with an
explicit load-balance efficiency term so that the paper's Manhattan
Collapse ablation is expressible.

Two "communication substrate" profiles are provided:

* :data:`NCCL_PROFILE` — lightweight, NCCL-like: collectives cost the
  bare ring model, grouped broadcasts aggregate into one launch.
* :data:`GENERIC_PROFILE` — a Gluon-like general-purpose substrate:
  per-destination message overhead (metadata, serialization through
  host memory) and a volume inflation factor.  The paper attributes
  Gluon-GPU's scaling collapse past ~64 ranks to exactly this overhead
  (paper §5.7); the profile lets the baseline reproduce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import GPUSpec
from .topology import GroupProfile, Topology

__all__ = ["CommProfile", "NCCL_PROFILE", "GENERIC_PROFILE", "CostModel"]


@dataclass(frozen=True)
class CommProfile:
    """Overheads a communication substrate adds on top of the wire.

    Attributes
    ----------
    name:
        Profile name for reports.
    per_message_s:
        Fixed host-side cost charged per message (per destination for
        point-to-point, per collective step otherwise).
    volume_factor:
        Multiplier on communicated bytes (metadata framing, padding,
        staging copies through host memory).
    grouped_calls:
        Whether multiple broadcasts in one exchange aggregate into a
        single launch (NCCL group calls).  When False each broadcast
        pays its own latency term.
    """

    name: str
    per_message_s: float
    volume_factor: float
    grouped_calls: bool
    per_message_on_node_s: float | None = None
    sync_overhead_per_rank_s: float = 0.0

    def message_overhead(self, crosses_network: bool) -> float:
        """Per-message cost, cheaper on-node when the profile says so.

        Generic substrates pay their serialization/metadata cost mostly
        on the network path (paper Fig. 9: Gluon matches on one node
        and collapses across the network); on-node they ride fast
        peer-to-peer copies.
        """
        if not crosses_network and self.per_message_on_node_s is not None:
            return self.per_message_on_node_s
        return self.per_message_s


#: Lightweight 2D-optimized communications (the paper's approach).
NCCL_PROFILE = CommProfile(
    name="nccl", per_message_s=4.0e-6, volume_factor=1.0, grouped_calls=True
)

#: Generic-substrate communications (Gluon-like baseline).
#: ``sync_overhead_per_rank_s`` models the per-exchange global
#: coordination a substrate supporting *arbitrary* distributions must
#: run (proxy/mirror table synchronization across all hosts); its cost
#: grows with the host count, which is what makes Gluon-GPU stop
#: scaling past ~64 ranks in the paper's Fig. 9 while matching
#: HPCGraph-GPU on a single node.
#:
#: The Fig. 9 comparator is the paper's own engine on this profile,
#: ``Engine(graph, n_ranks, profile=GENERIC_PROFILE)``: Gluon also
#: supports a 2D cartesian vertex cut, so partitioning, kernels and
#: algorithms are the same and compute is identical — which is why the
#: two match at 1-4 ranks.  Only the substrate differs (per-message
#: metadata, host-staged serialization, no aggregated group calls), so
#: any divergence in Fig. 9 is substrate overhead alone, mirroring the
#: paper's diagnosis.
GENERIC_PROFILE = CommProfile(
    name="generic",
    per_message_s=60.0e-6,
    volume_factor=1.35,
    grouped_calls=False,
    per_message_on_node_s=6.0e-6,
    sync_overhead_per_rank_s=120.0e-6,
)


class CostModel:
    """Computes virtual seconds for kernels and collectives.

    Parameters
    ----------
    gpu:
        GPU model executing kernels.
    topology:
        Placement/link resolver for the current run.
    profile:
        Substrate overhead profile (default NCCL-like).
    """

    def __init__(
        self,
        gpu: GPUSpec,
        topology: Topology,
        profile: CommProfile = NCCL_PROFILE,
    ):
        self.gpu = gpu
        self.topology = topology
        self.profile = profile

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def kernel_time(
        self,
        n_vertices: int = 0,
        n_edges: int = 0,
        work_per_edge: float = 1.0,
        balance: float = 1.0,
        launches: int = 1,
    ) -> float:
        """Time of a per-rank GPU kernel.

        Parameters
        ----------
        n_vertices, n_edges:
            Items the kernel touches.
        work_per_edge:
            Relative cost of the per-edge operation (1.0 = one
            compare-and-update; Label Propagation hash inserts are ~4x).
        balance:
            Load-balance efficiency in (0, 1]; 1.0 means perfectly
            balanced edge work (Manhattan Collapse), lower values model
            warp divergence from per-vertex thread assignment.
        launches:
            Number of kernel launches charged.

        ``n_vertices``, ``n_edges``, ``balance`` and ``launches`` may be
        arrays with one entry per rank (the rank-fused supersteps charge
        a whole fleet at once); every entry then goes through exactly the
        scalar expression, so the result equals per-rank calls bit for
        bit.
        """
        if isinstance(balance, np.ndarray):
            if np.any((balance <= 0.0) | (balance > 1.0)):
                raise ValueError(f"balance must be in (0, 1], got {balance}")
        elif balance <= 0.0 or balance > 1.0:
            raise ValueError(f"balance must be in (0, 1], got {balance}")
        t = launches * self.gpu.kernel_launch_s
        t = t + n_vertices / self.gpu.vertex_rate
        t = t + (n_edges * work_per_edge) / (self.gpu.edge_rate * balance)
        return t

    def spmv_time(self, n_edges: int, n_vertices: int = 0) -> float:
        """Time of a tuned SpMV over ``n_edges`` (linear-algebra path)."""
        return (
            self.gpu.kernel_launch_s
            + n_vertices / self.gpu.vertex_rate
            + n_edges / self.gpu.spmv_edge_rate
        )

    # ------------------------------------------------------------------
    # collectives (ring alpha-beta models)
    # ------------------------------------------------------------------
    def _step_alpha(self, prof: GroupProfile) -> float:
        return prof.latency_s + self.profile.message_overhead(prof.crosses_network)

    def _sync_overhead(self) -> float:
        """Global coordination charged per collective (generic
        substrates only; zero for the NCCL-like profile)."""
        return self.profile.sync_overhead_per_rank_s * self.topology.n_ranks

    def allreduce_time(
        self, ranks: Sequence[int], nbytes: int, nic_sharing: int = 1
    ) -> float:
        """AllReduce of ``nbytes`` (per rank) over ``ranks``.

        NCCL picks the algorithm by size: a bandwidth-optimal ring
        (reduce-scatter + all-gather, ``2(k-1)`` steps moving
        ``nbytes/k`` each) or a latency-optimal double tree
        (``2 ceil(log2 k)`` steps moving the whole payload).  The model
        takes the cheaper of the two, as the library would.
        """
        prof = self.topology.group_profile(ranks, nic_sharing=nic_sharing)
        k = prof.size
        if k <= 1:
            return self.gpu.kernel_launch_s
        nbytes = nbytes * self.profile.volume_factor
        alpha = self._step_alpha(prof)
        ring = 2 * (k - 1) * alpha + 2 * nbytes * (k - 1) / (k * prof.bandwidth_Bps)
        tree = 2 * math.ceil(math.log2(k)) * alpha + 2 * nbytes / prof.bandwidth_Bps
        return min(ring, tree) + self._sync_overhead()

    def broadcast_time(
        self, ranks: Sequence[int], nbytes: int, nic_sharing: int = 1
    ) -> float:
        """Pipelined ring Broadcast of ``nbytes`` from one root."""
        prof = self.topology.group_profile(ranks, nic_sharing=nic_sharing)
        k = prof.size
        if k <= 1:
            return self.gpu.kernel_launch_s
        nbytes = nbytes * self.profile.volume_factor
        alpha = self._step_alpha(prof)
        ring = (k - 1) * alpha + nbytes / prof.bandwidth_Bps
        ceil_log = math.ceil(math.log2(k))
        tree = ceil_log * alpha + ceil_log * nbytes / prof.bandwidth_Bps
        return min(ring, tree) + self._sync_overhead()

    def grouped_broadcast_time(
        self, ranks: Sequence[int], nbytes_each: Sequence[int], nic_sharing: int = 1
    ) -> float:
        """A set of broadcasts over the same group, possibly aggregated.

        With NCCL group calls the broadcasts share launches and
        pipeline; the cost is one latency term plus the summed volume.
        A generic substrate pays each broadcast separately.
        """
        if not nbytes_each:
            return 0.0
        if self.profile.grouped_calls:
            prof = self.topology.group_profile(ranks, nic_sharing=nic_sharing)
            k = prof.size
            if k <= 1:
                return self.gpu.kernel_launch_s
            total = sum(nbytes_each) * self.profile.volume_factor
            alpha = self._step_alpha(prof)
            ring = (k - 1) * alpha + total / prof.bandwidth_Bps
            ceil_log = math.ceil(math.log2(k))
            tree = ceil_log * alpha + ceil_log * total / prof.bandwidth_Bps
            return min(ring, tree) + self._sync_overhead()
        return sum(
            self.broadcast_time(ranks, nb, nic_sharing=nic_sharing)
            for nb in nbytes_each
        )

    def allgather_time(
        self, ranks: Sequence[int], nbytes_total: int, nic_sharing: int = 1
    ) -> float:
        """Ring AllGather; ``nbytes_total`` is the summed payload."""
        prof = self.topology.group_profile(ranks, nic_sharing=nic_sharing)
        k = prof.size
        if k <= 1:
            return self.gpu.kernel_launch_s
        nbytes_total = nbytes_total * self.profile.volume_factor
        alpha = self._step_alpha(prof)
        # Bruck-style log-step variant for small payloads, ring for big.
        vol = nbytes_total * (k - 1) / (k * prof.bandwidth_Bps)
        ring = (k - 1) * alpha + vol
        tree = math.ceil(math.log2(k)) * alpha + vol
        return min(ring, tree) + self._sync_overhead()

    def alltoall_time(
        self, ranks: Sequence[int], nbytes_per_pair: float, nic_sharing: int = 1
    ) -> float:
        """Naive all-to-all: each rank exchanges with every other rank.

        Used by the 1D baselines.  The O(p^2) message count is
        what the paper's 2D method is designed to avoid; each rank
        serializes its ``k-1`` sends over its injection link.
        """
        prof = self.topology.group_profile(ranks, nic_sharing=nic_sharing)
        k = prof.size
        if k <= 1:
            return self.gpu.kernel_launch_s
        nbytes = nbytes_per_pair * self.profile.volume_factor
        alpha = self._step_alpha(prof)
        return (k - 1) * (alpha + nbytes / prof.bandwidth_Bps) + self._sync_overhead()
