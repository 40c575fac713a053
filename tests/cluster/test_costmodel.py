"""Cost model tests: kernels and ring collectives."""

import pytest

from repro.cluster import (
    AIMOS,
    GENERIC_PROFILE,
    NCCL_PROFILE,
    CostModel,
    Topology,
)


@pytest.fixture
def model():
    return CostModel(AIMOS.gpu, Topology(AIMOS, 24))


@pytest.fixture
def generic_model():
    return CostModel(AIMOS.gpu, Topology(AIMOS, 24), GENERIC_PROFILE)


class TestKernelTime:
    def test_launch_overhead_floor(self, model):
        assert model.kernel_time() == pytest.approx(AIMOS.gpu.kernel_launch_s)

    def test_scales_with_edges(self, model):
        t1 = model.kernel_time(n_edges=10**6)
        t2 = model.kernel_time(n_edges=2 * 10**6)
        assert t2 > t1
        assert (t2 - t1) == pytest.approx(10**6 / AIMOS.gpu.edge_rate)

    def test_balance_penalty(self, model):
        good = model.kernel_time(n_edges=10**6, balance=1.0)
        bad = model.kernel_time(n_edges=10**6, balance=0.1)
        assert bad > good
        # the edge term should inflate exactly 10x
        edge_good = good - AIMOS.gpu.kernel_launch_s
        edge_bad = bad - AIMOS.gpu.kernel_launch_s
        assert edge_bad == pytest.approx(10 * edge_good)

    def test_work_per_edge(self, model):
        t1 = model.kernel_time(n_edges=1000, work_per_edge=1.0)
        t4 = model.kernel_time(n_edges=1000, work_per_edge=4.0)
        assert t4 > t1

    def test_invalid_balance(self, model):
        with pytest.raises(ValueError):
            model.kernel_time(n_edges=10, balance=0.0)
        with pytest.raises(ValueError):
            model.kernel_time(n_edges=10, balance=1.5)

    def test_spmv_faster_per_edge(self, model):
        general = model.kernel_time(n_edges=10**7)
        tuned = model.spmv_time(n_edges=10**7)
        assert tuned < general


class TestCollectives:
    def test_allreduce_single_rank_is_noop(self, model):
        assert model.allreduce_time([0], 10**6) == pytest.approx(
            AIMOS.gpu.kernel_launch_s
        )

    def test_allreduce_grows_with_group(self, model):
        t2 = model.allreduce_time([0, 1], 10**6)
        t6 = model.allreduce_time(list(range(6)), 10**6)
        assert t6 > t2

    def test_allreduce_volume_term(self, model):
        small = model.allreduce_time([0, 1, 2], 10**3)
        big = model.allreduce_time([0, 1, 2], 10**8)
        # small messages are latency-bound, large ones bandwidth-bound
        assert big > 50 * small
        assert (big - small) == pytest.approx(
            2 * (10**8 - 10**3) * 2 / (3 * AIMOS.node.nvlink.bandwidth_Bps)
        )

    def test_broadcast_cheaper_than_allreduce(self, model):
        ranks = list(range(6))
        assert model.broadcast_time(ranks, 10**7) < model.allreduce_time(
            ranks, 10**7
        )

    def test_grouped_broadcast_aggregates_under_nccl(self, model):
        ranks = list(range(6))
        sizes = [10**4] * 8
        grouped = model.grouped_broadcast_time(ranks, sizes)
        separate = sum(model.broadcast_time(ranks, s) for s in sizes)
        assert grouped < separate

    def test_grouped_broadcast_not_aggregated_generic(self, generic_model):
        ranks = list(range(6))
        sizes = [10**4] * 8
        grouped = generic_model.grouped_broadcast_time(ranks, sizes)
        separate = sum(generic_model.broadcast_time(ranks, s) for s in sizes)
        assert grouped == pytest.approx(separate)

    def test_generic_profile_more_expensive(self, model, generic_model):
        ranks = list(range(12))
        assert generic_model.allreduce_time(ranks, 10**6) > model.allreduce_time(
            ranks, 10**6
        )

    def test_alltoall_scales_linearly_in_group(self, model):
        t4 = model.alltoall_time(list(range(4)), 10**4)
        t12 = model.alltoall_time(list(range(12)), 10**4)
        # (k-1) serialized sends per rank
        assert t12 > 2.5 * t4

    def test_network_groups_cost_more(self, model):
        on_node = model.allreduce_time([0, 1, 2], 10**6)
        cross = model.allreduce_time([0, 6, 12], 10**6)
        assert cross > on_node

    def test_empty_grouped_broadcast(self, model):
        assert model.grouped_broadcast_time([0, 1], []) == 0.0
