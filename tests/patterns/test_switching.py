"""Dense->sparse switch policy tests (paper §3.3.1)."""

import pytest

from repro.comm.grid import Grid2D
from repro.patterns import SwitchPolicy


class TestSwitchPolicy:
    def test_threshold_is_n_over_max_rc(self):
        p = SwitchPolicy(n_vertices=1000, grid=Grid2D(R=8, C=2))
        assert p.threshold == pytest.approx(1000 / 8)

    def test_switch_mode_starts_dense(self):
        p = SwitchPolicy(1000, Grid2D(R=4, C=4), mode="switch")
        assert not p.use_sparse

    def test_switches_below_threshold_and_sticks(self):
        p = SwitchPolicy(1000, Grid2D(R=4, C=4), mode="switch")
        p.observe(900)
        assert not p.use_sparse
        p.observe(100)  # < 250
        assert p.use_sparse
        p.observe(10_000)  # never switches back
        assert p.use_sparse

    def test_dense_mode_never_switches(self):
        p = SwitchPolicy(1000, Grid2D(R=4, C=4), mode="dense")
        p.observe(0)
        assert not p.use_sparse

    def test_sparse_mode_always_sparse(self):
        p = SwitchPolicy(1000, Grid2D(R=4, C=4), mode="sparse")
        assert p.use_sparse

    def test_exact_threshold_not_yet_sparse(self):
        p = SwitchPolicy(1000, Grid2D(R=4, C=4), mode="switch")
        p.observe(250)  # not strictly under N/max(R,C)
        assert not p.use_sparse

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SwitchPolicy(10, Grid2D(R=1, C=1), mode="auto")

    def test_nonpositive_vertices_rejected(self):
        with pytest.raises(ValueError, match="n_vertices"):
            SwitchPolicy(0, Grid2D(R=2, C=2))
        with pytest.raises(ValueError, match="n_vertices"):
            SwitchPolicy(-5, Grid2D(R=2, C=2))
