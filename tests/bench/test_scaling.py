"""Memory estimator / projection tests."""

import pytest

from repro.bench import (
    estimate_2d_memory,
    estimate_generic_substrate_memory,
    estimate_la_backend_memory,
    fits,
)
from repro.cluster import AIMOS, ZEPY
from repro.graph.datasets import REGISTRY, DatasetMeta


class TestTwoDEstimate:
    def test_wdc_fits_paper_configuration(self):
        est = estimate_2d_memory(REGISTRY["WDC"], 400, AIMOS)
        assert est.fits
        assert 0.2 < est.bytes_per_rank / est.capacity < 0.9

    def test_small_graphs_fit_one_device(self):
        # paper §5.1: "TW and FR both fully fit within the memory of a
        # single V100 GPU"
        assert estimate_2d_memory(REGISTRY["TW"], 1, AIMOS).fits
        assert estimate_2d_memory(REGISTRY["FR"], 1, AIMOS).fits

    def test_wdc_does_not_fit_one_device(self):
        assert not estimate_2d_memory(REGISTRY["WDC"], 1, AIMOS).fits

    def test_more_ranks_less_per_rank(self):
        small = estimate_2d_memory(REGISTRY["GSH"], 400, AIMOS)
        big = estimate_2d_memory(REGISTRY["GSH"], 16, AIMOS)
        assert small.bytes_per_rank < big.bytes_per_rank

    def test_overhead_factor(self):
        base = estimate_2d_memory(REGISTRY["TW"], 16, AIMOS)
        heavy = estimate_2d_memory(REGISTRY["TW"], 16, AIMOS, overhead_factor=3.0)
        assert heavy.bytes_per_rank == pytest.approx(3 * base.bytes_per_rank, rel=0.01)


class TestComparatorEstimates:
    def test_paper_gluon_pattern(self):
        ok = {"TW": True, "FR": True, "CW": False, "GSH": False}
        for abbr, want in ok.items():
            est = estimate_generic_substrate_memory(REGISTRY[abbr], 256, AIMOS)
            assert est.fits == want, abbr

    def test_paper_cugraph_pattern(self):
        def meta(scale):
            return DatasetMeta(
                f"rmat{scale}", f"RMAT{scale}", 1 << scale, 16 << scale, "rmat"
            )

        assert estimate_la_backend_memory(meta(26), 4, ZEPY).fits
        assert not estimate_la_backend_memory(meta(28), 4, ZEPY).fits

    def test_fits_helper(self):
        est = estimate_2d_memory(REGISTRY["TW"], 16, AIMOS)
        assert fits(est) == est.fits
