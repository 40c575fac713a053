"""Failure injection: the system fails loudly and precisely.

A production library's error paths matter as much as its happy paths:
memory exhaustion must name the rank and the allocation, corrupted
exchanges must be caught by the validators, and bad configurations
must be rejected before any compute runs.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.cluster import DeviceMemoryError
from repro.comm.grid import Grid2D
from repro.graph import Graph, rmat
from repro.reference import serial


class TestMemoryExhaustion:
    def test_oom_during_construction_names_rank(self):
        g = rmat(9, seed=1)
        with pytest.raises(DeviceMemoryError) as exc:
            Engine(g, 4, memory_scale=1e9, enforce_memory=True)
        assert "rank" in str(exc.value)
        assert "exceeds capacity" in str(exc.value)

    def test_oom_during_algorithm_state_alloc(self):
        # Construction fits, but the algorithm's state arrays push a
        # rank over the edge mid-run.
        g = rmat(9, seed=1)
        engine = Engine(g, 4, enforce_memory=True)
        # shrink remaining capacity artificially
        devices = engine.devices
        free = devices.spec.memory_bytes - devices.allocated
        devices.charge({"ballast": free - 4 * engine.fleet.n_total})
        with pytest.raises(DeviceMemoryError):
            algorithms.pagerank(engine, iterations=1)

    def test_unenforced_records_but_completes(self):
        g = rmat(8, seed=1)
        engine = Engine(g, 4, memory_scale=1e9, enforce_memory=False)
        res = algorithms.connected_components(engine)
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(g)),
        )
        assert (engine.devices.peak > engine.devices.spec.memory_bytes).all()


class TestCorruptionDetection:
    def test_validator_catches_partition_corruption(self, rmat_graph=None):
        g = rmat(7, seed=2)
        engine = Engine(g, 4)
        blk = engine.partition.blocks[1]
        blk.indices[0] = 10**6  # out-of-range adjacency
        with pytest.raises(AssertionError, match="out of range"):
            engine.partition.validate()

    def test_validator_catches_lost_edges(self):
        g = rmat(7, seed=2)
        engine = Engine(g, 4)
        blk = engine.partition.blocks[0]
        blk.indices = blk.indices[:-3]
        blk.indptr = np.clip(blk.indptr, 0, blk.indices.size)
        with pytest.raises(AssertionError, match="edges"):
            engine.partition.validate()

    def test_bfs_parent_validator_rejects_fakes(self):
        g = rmat(7, seed=3)
        res = algorithms.bfs(Engine(g, 4), root=0)
        parents = res.values.copy()
        reachable = np.flatnonzero(parents >= 0)
        victim = reachable[reachable != 0][0]
        parents[victim] = victim  # self-parent loop (not the root)
        assert not serial.bfs_parents_valid(g, 0, parents)

    def test_matching_validator_rejects_asymmetry(self):
        g = rmat(7, seed=3).with_random_weights(seed=1)
        res = algorithms.max_weight_matching(Engine(g, 4))
        mate = res.values.copy()
        matched = np.flatnonzero(mate >= 0)
        if matched.size:
            mate[matched[0]] = -1  # break symmetry
            assert not serial.matching_is_valid(g, mate)


class TestBadConfigurations:
    def test_empty_graph_zero_vertices_rejected(self):
        with pytest.raises(Exception):
            Graph(indptr=np.array([], dtype=np.int64), indices=np.array([]))

    def test_more_row_groups_than_vertices(self):
        # degenerate: 3 vertices over 8 block-rows still works (empty
        # row ranges), because group_ranges allows empty groups.
        g = Graph.from_edges([0, 1], [1, 2], 3)
        engine = Engine(g, grid=Grid2D(R=2, C=8))
        res = algorithms.connected_components(engine)
        assert np.unique(res.values).size == 1

    def test_wrong_state_vector_length(self):
        g = rmat(6, seed=1)
        engine = Engine(g, 4)
        with pytest.raises(ValueError, match="global vector has shape"):
            engine.scatter_global("x", np.zeros(5))

    def test_algorithms_reject_graphless_requirements(self):
        g = rmat(6, seed=1)  # unweighted
        engine = Engine(g, 4)
        with pytest.raises(ValueError):
            algorithms.sssp(engine, root=0)
        with pytest.raises(ValueError):
            algorithms.max_weight_matching(engine)
