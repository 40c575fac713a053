"""Machine configuration tests."""

from repro.cluster import AIMOS, ZEPY, A100, V100


class TestGPUSpecs:
    def test_v100_capacity_matches_paper(self):
        # AiMOS nodes carry 32 GB V100s (paper §5).
        assert V100.memory_bytes == 32 * 2**30

    def test_a100_is_faster_than_v100(self):
        assert A100.edge_rate > V100.edge_rate
        assert A100.spmv_edge_rate > V100.spmv_edge_rate

    def test_spmv_rate_beats_general_rate(self):
        # The tuned LA kernel must outrun the general model for the
        # Fig. 10 PageRank relation to hold.
        assert V100.spmv_edge_rate > V100.edge_rate
        assert A100.spmv_edge_rate > A100.edge_rate


class TestLinkSpec:
    def test_nvlink_faster_than_cpu_path(self):
        node = AIMOS.node
        assert node.nvlink.bandwidth_Bps > node.cpu_path.bandwidth_Bps
        assert node.nvlink.latency_s < node.cpu_path.latency_s

    def test_network_is_slowest_layer(self):
        node = AIMOS.node
        assert node.nic.latency_s > node.cpu_path.latency_s


class TestClusterConfig:
    def test_aimos_matches_paper_node(self):
        # 6 V100s per node, NVLink triples (paper §5).
        assert AIMOS.gpus_per_node == 6
        assert AIMOS.node.nvlink_group_size == 3
        assert AIMOS.gpu is V100

    def test_zepy_matches_paper_workstation(self):
        assert ZEPY.gpus_per_node == 4
        assert ZEPY.gpu is A100

    def test_nodes_for(self):
        assert AIMOS.nodes_for(1) == 1
        assert AIMOS.nodes_for(6) == 1
        assert AIMOS.nodes_for(7) == 2
        assert AIMOS.nodes_for(400) == 67


class TestDGX:
    def test_nvswitch_single_island(self):
        from repro.cluster import DGX, Topology

        assert DGX.gpus_per_node == 8
        topo = Topology(DGX, 16)
        # all 8 on-node pairs ride NVSwitch (one island)
        assert topo.link(0, 7) == DGX.node.nvlink
        assert topo.link(0, 8) == DGX.node.nic

    def test_dgx_collectives_faster_on_node(self):
        from repro.cluster import AIMOS, DGX, CostModel, Topology

        dgx = CostModel(DGX.gpu, Topology(DGX, 8))
        aimos = CostModel(AIMOS.gpu, Topology(AIMOS, 6))
        # paper §1: latency concerns apply "outside of specialized
        # systems such as the DGX"
        assert dgx.allreduce_time(list(range(8)), 10**7) < aimos.allreduce_time(
            list(range(6)), 10**7
        )

    def test_runs_algorithms(self):
        import numpy as np

        from repro import Engine, algorithms
        from repro.cluster import DGX
        from repro.graph import rmat
        from repro.reference import serial

        g = rmat(7, seed=1)
        res = algorithms.connected_components(Engine(g, 4, cluster=DGX))
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(g)),
        )
