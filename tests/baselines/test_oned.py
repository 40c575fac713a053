"""1D baseline tests: CC over the 1D layout of a 1×p engine."""

import numpy as np
import pytest

from repro import Engine
from repro.baselines import cc_1d, layout_1d
from repro.comm.grid import Grid2D
from repro.graph import rmat
from repro.reference import serial

from ..conftest import permute, random_graph


def oned(graph, p):
    return Engine(graph, grid=Grid2D(R=1, C=p))


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_cc_matches_serial(self, rmat_graph, p):
        res = cc_1d(oned(rmat_graph, p))
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(rmat_graph)),
        )

    def test_random_sweep(self):
        for seed in range(4):
            g = random_graph(seed + 77, n_max=80)
            res = cc_1d(oned(g, 3))
            assert np.array_equal(
                serial.canonical_labels(res.values),
                serial.canonical_labels(serial.connected_components(g)),
            )

    def test_rejects_a_2d_grid(self, rmat_graph):
        with pytest.raises(ValueError, match="1xp grid"):
            cc_1d(Engine(rmat_graph, grid=Grid2D(R=2, C=2)))

    def test_second_run_equals_the_first(self):
        engine = oned(rmat(9, seed=2), 4)
        first, second = cc_1d(engine), cc_1d(engine)
        assert second.timings.total == first.timings.total
        assert second.counters == first.counters


class TestScalingBehaviour:
    def test_quadratic_message_growth(self, rmat_graph):
        """The 1D all-to-all issues O(p^2) messages (paper §2.1) — the
        quantity the 2D layout reduces to O(p)."""
        for p in (2, 4, 7, 8):
            eng = oned(rmat_graph, p)
            cc_1d(eng)
            per_call = (
                eng.counters.by_kind["alltoallv"].serial_messages
                / eng.counters.by_kind["alltoallv"].calls
            )
            assert per_call == p * (p - 1)

    def test_ghost_directory_consistency(self, rmat_graph):
        """A rank's ghosts are the distinct targets of its rows outside
        its row window, as the relabeled graph has them."""
        eng = oned(rmat_graph, 4)
        layout = layout_1d(eng)
        relabeled = permute(rmat_graph, eng.partition.perm).to_scipy()
        for r, ghosts in enumerate(layout.ghosts):
            start, stop = layout.offsets[r], layout.offsets[r + 1]
            assert np.array_equal(layout.rows[r], np.arange(start, stop))
            targets = relabeled[start:stop].indices
            expected = np.unique(targets[(targets < start) | (targets >= stop)])
            assert np.array_equal(ghosts, expected)

    def test_subscriptions_cover_ghosts(self, rmat_graph):
        layout = layout_1d(oned(rmat_graph, 4))
        for r, ghosts in enumerate(layout.ghosts):
            subscribed = [layout.subscriptions[o][r] for o in range(4)]
            assert np.array_equal(np.concatenate(subscribed), ghosts)
            for o, gids in enumerate(subscribed):
                assert layout.owned(o, gids).all()
