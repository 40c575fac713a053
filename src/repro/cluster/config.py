"""Hardware descriptions for the simulated GPU clusters.

The paper's experiments run on two machines:

* **AiMOS** (RPI): nodes with 2x IBM Power9 CPUs and 6x NVIDIA 32 GB V100
  GPUs.  On a node, each CPU hosts a triple of GPUs interconnected with
  NVLink; traffic between triples, and all network traffic, moves through
  the CPU.  Nodes are connected with EDR InfiniBand.
* **zepy**: a workstation with 4x NVIDIA A100 GPUs (used for the CuGraph
  comparison, paper Fig. 10).

This module captures those machines as plain frozen dataclasses.  All
quantities are SI (seconds, bytes, bytes/second, items/second).  The
numbers are calibrated to public microbenchmarks of the respective parts
(NVLink2 ~50 GB/s effective per direction, EDR IB 100 Gb/s per node,
V100 graph kernels ~1-3 GTEPS); the reproduction targets the *shape* of
the paper's results, for which the ratios between these quantities are
what matters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "GPUSpec",
    "LinkSpec",
    "NodeSpec",
    "ClusterConfig",
    "V100",
    "A100",
    "AIMOS",
    "ZEPY",
    "DGX",
]


@dataclass(frozen=True)
class GPUSpec:
    """Compute characteristics of one GPU model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"V100-32GB"``.
    memory_bytes:
        Device memory capacity.
    edge_rate:
        Edges processed per second by a simple memory-bound graph kernel
        (one compare-and-update per edge) at full occupancy and perfect
        load balance.
    vertex_rate:
        Vertices touched per second for per-vertex work (queue builds,
        state initialization).
    kernel_launch_s:
        Fixed host-side overhead per kernel launch.
    spmv_edge_rate:
        Edges/s for a tuned sparse matrix-vector product (used by the
        linear-algebra baseline, which trades generality for speed).
    """

    name: str
    memory_bytes: int
    edge_rate: float
    vertex_rate: float
    kernel_launch_s: float
    spmv_edge_rate: float


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point communication link.

    ``latency_s`` is the one-way small-message latency and
    ``bandwidth_Bps`` the achievable large-message bandwidth in bytes
    per second.
    """

    latency_s: float
    bandwidth_Bps: float


@dataclass(frozen=True)
class NodeSpec:
    """Topology of a single multi-GPU node.

    Attributes
    ----------
    gpus_per_node:
        Number of GPUs installed in the node.
    nvlink_group_size:
        GPUs per NVLink island.  On AiMOS each Power9 CPU hosts a triple
        of NVLinked V100s; crossing islands goes through the CPU.
    nvlink / cpu_path:
        Links used inside an island and between islands, respectively.
    nic:
        The node's network interface (shared by all its GPUs).
    nic_contention:
        If True, the NIC bandwidth is divided among the node's GPUs that
        participate in a collective simultaneously.
    """

    gpus_per_node: int
    nvlink_group_size: int
    nvlink: LinkSpec
    cpu_path: LinkSpec
    nic: LinkSpec
    nic_contention: bool = True


@dataclass(frozen=True)
class ClusterConfig:
    """A whole machine: one node type replicated and networked."""

    name: str
    gpu: GPUSpec
    node: NodeSpec

    def scaled(self, factor: float) -> "ClusterConfig":
        """A machine whose throughputs are divided by ``factor``.

        The reproduction simulates datasets ``factor``x smaller than the
        paper's (see ``repro.graph.datasets``).  Dividing every
        *throughput* — kernel rates and link bandwidths — by the same
        factor while keeping latencies and launch overheads restores the
        paper's operating regime: per-item work and per-byte transfer
        cost relative to fixed overheads are exactly what they would be
        at full scale, so timing *shapes* (crossovers, who wins,
        comm/comp split) are preserved.  Modeled absolute times then
        read as full-scale estimates.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")

        def slow_link(link: LinkSpec) -> LinkSpec:
            return replace(link, bandwidth_Bps=link.bandwidth_Bps / factor)

        gpu = replace(
            self.gpu,
            edge_rate=self.gpu.edge_rate / factor,
            vertex_rate=self.gpu.vertex_rate / factor,
            spmv_edge_rate=self.gpu.spmv_edge_rate / factor,
        )
        node = replace(
            self.node,
            nvlink=slow_link(self.node.nvlink),
            cpu_path=slow_link(self.node.cpu_path),
            nic=slow_link(self.node.nic),
        )
        return replace(self, gpu=gpu, node=node, name=f"{self.name}/scaled{factor:g}")

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpus_per_node

    def nodes_for(self, n_ranks: int) -> int:
        """Number of nodes needed to host ``n_ranks`` GPUs."""
        g = self.node.gpus_per_node
        return (n_ranks + g - 1) // g


#: NVIDIA V100 32 GB (AiMOS node GPU).
V100 = GPUSpec(
    name="V100-32GB",
    memory_bytes=32 * 2**30,
    edge_rate=3.0e9,
    vertex_rate=12.0e9,
    kernel_launch_s=8.0e-6,
    spmv_edge_rate=4.5e9,
)

#: NVIDIA A100 (zepy workstation GPU).
A100 = GPUSpec(
    name="A100-40GB",
    memory_bytes=40 * 2**30,
    edge_rate=6.0e9,
    vertex_rate=24.0e9,
    kernel_launch_s=6.0e-6,
    spmv_edge_rate=9.0e9,
)

#: AiMOS at RPI: 6x V100 per node, NVLink triples, EDR InfiniBand.
AIMOS = ClusterConfig(
    name="aimos",
    gpu=V100,
    node=NodeSpec(
        gpus_per_node=6,
        nvlink_group_size=3,
        nvlink=LinkSpec(latency_s=5.0e-6, bandwidth_Bps=50.0e9),
        cpu_path=LinkSpec(latency_s=15.0e-6, bandwidth_Bps=10.0e9),
        nic=LinkSpec(latency_s=25.0e-6, bandwidth_Bps=12.5e9),
        nic_contention=True,
    ),
)

#: DGX A100: 8 GPUs fully connected through NVSwitch (the paper cites
#: DGX-class systems as the exception to its latency concerns, §1).
DGX = ClusterConfig(
    name="dgx",
    gpu=A100,
    node=NodeSpec(
        gpus_per_node=8,
        nvlink_group_size=8,  # NVSwitch: one all-to-all island
        nvlink=LinkSpec(latency_s=3.0e-6, bandwidth_Bps=300.0e9),
        cpu_path=LinkSpec(latency_s=8.0e-6, bandwidth_Bps=25.0e9),
        nic=LinkSpec(latency_s=15.0e-6, bandwidth_Bps=25.0e9),
        nic_contention=True,
    ),
)

#: zepy: single node with 4x A100 on NVLink (no network).
ZEPY = ClusterConfig(
    name="zepy",
    gpu=A100,
    node=NodeSpec(
        gpus_per_node=4,
        nvlink_group_size=4,
        nvlink=LinkSpec(latency_s=4.0e-6, bandwidth_Bps=100.0e9),
        cpu_path=LinkSpec(latency_s=10.0e-6, bandwidth_Bps=20.0e9),
        nic=LinkSpec(latency_s=25.0e-6, bandwidth_Bps=12.5e9),
        nic_contention=True,
    ),
)
