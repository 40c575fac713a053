"""Scenario campaign, fault-event traces, and the ``faults`` CLI."""

import json

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.cli import main
from repro.core.trace import TraceRecorder
from repro.faults import FaultPlan, FaultSpec, run_campaign, run_case
from repro.graph import rmat


def mk():
    return Engine(rmat(7, seed=3), 4)


class TestRunCase:
    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_case("campaign", mk, "WAT", "crash-recover")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign scenario"):
            run_case("campaign", mk, "BFS", "meteor-strike")

    def test_transient_completes_with_equal_values(self):
        case = run_case("campaign", mk, "PR", "transient-retry")
        assert case.status == "completed"
        assert case.values_equal is True
        assert case.counters_equal is True
        assert case.recovery_s > 0  # backoff visible
        assert case.ok

    def test_crash_unrecovered_is_a_failing_grade(self):
        case = run_case("campaign", mk, "BFS", "crash-unrecovered")
        assert case.status == "unrecovered"
        assert not case.ok
        assert "crash failure" in case.error

    def test_custom_plan_overrides_scenario_table(self):
        plan = FaultPlan([FaultSpec("straggler", 1, rank=0, delay_s=1e-4)])
        case = run_case("campaign", mk, "CC", "custom", plan=plan)
        assert case.status == "completed" and case.ok
        assert case.fault_events[0]["kind"] == "straggler"


class TestRunCampaign:
    def test_default_campaign_report_shape(self):
        report = run_campaign("campaign", mk, algos=("BFS", "PR"))
        assert report["schema"] == "repro.faults.campaign.v1"
        assert report["total"] == 8  # 4 default scenarios x 2 algos
        assert report["failed"] == 0
        assert report["unrecovered"] == 0
        for case in report["cases"]:
            assert case["ok"] is True
            assert case["values_equal"] is True

    def test_campaign_counts_unrecovered(self):
        report = run_campaign(
            "campaign", mk, algos=("BFS",), scenarios=("crash-unrecovered",)
        )
        assert report["failed"] == 1
        assert report["unrecovered"] == 1


class TestFaultEventsInTraces:
    def test_events_land_on_their_iteration_rows(self):
        engine = mk()
        engine.attach_faults(
            FaultPlan(
                [
                    FaultSpec("transient", 2, count=1),
                    FaultSpec("straggler", 3, rank=0, delay_s=1e-4),
                ]
            )
        )
        rec = TraceRecorder(engine)
        algorithms.pagerank(engine, iterations=5)
        rows = rec.collect()
        by_iter = {r.iteration: r for r in rows}
        assert [f["kind"] for f in by_iter[2].faults] == ["transient"]
        assert [f["kind"] for f in by_iter[3].faults] == ["straggler"]
        assert by_iter[1].faults == ()

    def test_events_survive_csv_and_json_export(self):
        engine = mk()
        engine.attach_faults(FaultPlan([FaultSpec("transient", 1, count=2)]))
        rec = TraceRecorder(engine)
        algorithms.pagerank(engine, iterations=3)
        rows = rec.collect()
        csv = rec.to_csv(rows)
        assert "faults" in csv.splitlines()[0]
        dicts = [r.as_dict() for r in rows]
        assert dicts[0]["faults"][0]["kind"] == "transient"
        assert dicts[0]["faults"][0]["retries"] == 1
        json.dumps(dicts)  # trace rows stay JSON-serializable

    def test_fault_free_rows_have_no_fault_column_noise(self):
        engine = mk()
        rec = TraceRecorder(engine)
        algorithms.pagerank(engine, iterations=3)
        assert all(r.faults == () for r in rec.collect())


class TestFaultsCLI:
    def test_default_campaign_exits_zero(self, capsys):
        rc = main(
            [
                "faults",
                "--dataset",
                "FR",
                "--target-edges",
                "4096",
                "--ranks",
                "4",
                "--algos",
                "BFS",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "crash-recover" in out and "recovered" in out

    def test_unrecovered_scenario_exits_nonzero(self, capsys):
        rc = main(
            [
                "faults",
                "--dataset",
                "FR",
                "--target-edges",
                "4096",
                "--ranks",
                "4",
                "--scenario",
                "crash-unrecovered",
                "--algos",
                "BFS",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "unrecovered" in out

    def test_report_written_to_disk(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = main(
            [
                "faults",
                "--dataset",
                "FR",
                "--target-edges",
                "4096",
                "--ranks",
                "4",
                "--scenario",
                "transient-retry",
                "--algos",
                "PR",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.faults.campaign.v1"
        assert report["cases"][0]["algo"] == "PR"
        capsys.readouterr()

    def test_bad_algo_rejected(self, capsys):
        rc = main(["faults", "--algos", "NOPE"])
        assert rc == 2
        capsys.readouterr()
