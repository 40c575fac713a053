"""Timing/result container tests."""

import numpy as np
import pytest

from repro.core.result import AlgorithmResult, TimingReport


class TestTimingReport:
    def test_comm_fraction(self):
        t = TimingReport(total=2.0, compute=1.5, comm=0.5)
        assert t.comm_fraction == pytest.approx(0.25)

    def test_comm_fraction_zero_total(self):
        t = TimingReport(total=0.0, compute=0.0, comm=0.0)
        assert t.comm_fraction == 0.0

    def test_teps(self):
        t = TimingReport(total=2.0, compute=1.0, comm=1.0)
        assert t.teps(10**9) == pytest.approx(5e8)

    def test_teps_zero_time(self):
        t = TimingReport(total=0.0, compute=0.0, comm=0.0)
        assert t.teps(100) == float("inf")


class TestAlgorithmResult:
    def test_defaults(self):
        res = AlgorithmResult(
            values=np.arange(3),
            timings=TimingReport(1.0, 0.5, 0.5),
            iterations=4,
        )
        assert res.counters == {}
        assert res.extra == {}
        assert res.iterations == 4

    def test_values_optional(self):
        res = AlgorithmResult(
            values=None,
            timings=TimingReport(0.0, 0.0, 0.0),
            iterations=0,
            extra={"pairs": [(0, 1)]},
        )
        assert res.values is None
        assert res.extra["pairs"] == [(0, 1)]
