"""Autoscale campaign: demote, grow-back, oscillation guard, CLI."""

import json

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.cli import main
from repro.faults import (
    CAMPAIGNS,
    CheckpointManager,
    FaultPlan,
    drive_elastic,
    run_campaign,
    run_case,
)
from repro.graph import rmat

from ..conftest import assert_state_is_stacked, rank_order

GRAPH = rmat(7, seed=3)

#: Host rank order by test id (``threads4``: the id of the thread-pool
#: leg the reversed leg replaced).
MODES = {"serial": "forward", "threads4": "reversed"}


def mk():
    return Engine(GRAPH, 4)


class TestScenarioTable:
    def test_expected_scenarios_present(self):
        assert set(CAMPAIGNS["autoscale"].scenarios) == {
            "chronic-straggler-demote",
            "spare-arrival-grow",
            "demote-then-grow-back",
            "grow-at-convergence-tail",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown autoscale scenario"):
            run_case("autoscale", mk, "BFS", "meteor-strike")

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_case("autoscale", mk, "WAT", "chronic-straggler-demote")


class TestAutoscaleCases:
    @pytest.mark.parametrize("algo", ["BFS", "CC"])
    def test_demote_is_bit_identical_for_monotone(self, algo):
        case = run_case("autoscale", mk, algo, "chronic-straggler-demote")
        assert case.ok, case.error
        assert case.values_equal is True
        assert case.n_regrids == 1
        assert case.rank_delta == -1
        assert case.grid_trail == [(2, 2), (1, 3)]
        assert case.n_demotions == 1 and case.n_grows == 0

    def test_demote_events_show_health_escalation(self):
        case = run_case("autoscale", mk, "BFS", "chronic-straggler-demote")
        kinds = [e["kind"] for e in case.fault_events]
        assert "health" in kinds and "demote" in kinds
        statuses = [
            e["status"] for e in case.fault_events if e["kind"] == "health"
        ]
        assert "suspect" in statuses and "chronic" in statuses
        demote = next(e for e in case.fault_events if e["kind"] == "demote")
        assert demote["rank"] == 1
        assert demote["score"] > 0

    @pytest.mark.parametrize("algo", ["BFS", "CC"])
    def test_grow_back_round_trips_to_original_grid(self, algo):
        case = run_case("autoscale", mk, algo, "demote-then-grow-back")
        assert case.ok, case.error
        assert case.values_equal is True
        assert case.n_regrids == 2
        assert case.rank_delta == 0
        assert case.grid_trail == [(2, 2), (1, 3), (2, 2)]
        assert case.n_demotions == 1 and case.n_grows == 1

    def test_grow_back_leaves_stacked_state_on_the_regrown_engine(self):
        """2x2 -> 1x3 -> 2x2 by hand (``run_case`` keeps the engine to
        itself): values bit-identical to fault-free, and the state the
        two migrations restored is slices of one buffer per array."""
        spec = CAMPAIGNS["autoscale"].scenarios["demote-then-grow-back"]

        def runner(engine, resume=False):
            return algorithms.bfs(engine, root=0, resume=resume)

        def checkpointed():
            engine = mk()
            engine.attach_checkpoints(CheckpointManager(interval=1))
            return engine

        ref = runner(checkpointed())
        engine = checkpointed()
        engine.attach_faults(FaultPlan(list(spec["plan"])))
        res = drive_elastic(runner, engine, CAMPAIGNS["autoscale"].recovery(spec))
        info = res.extra["elastic"]
        assert info["regrids"] == 2 and info["final_grid"] == (2, 2)
        assert info["engine"] is not engine
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.extra["levels"], ref.extra["levels"])
        assert_state_is_stacked(info["engine"])

    def test_oscillation_guard_blocks_second_demotion(self):
        """The post-grow straggler probe must not trigger a second
        shrink: the demotion budget is the oscillation guard."""
        case = run_case("autoscale", mk, "PR", "demote-then-grow-back")
        assert case.ok, case.error
        assert case.n_demotions == 1
        assert case.n_regrids == 2

    def test_spare_arrival_grows_after_crash(self):
        case = run_case("autoscale", mk, "PR", "spare-arrival-grow")
        assert case.ok, case.error
        assert case.n_regrids == 2  # crash-shrink then grow
        assert case.rank_delta == 0
        assert case.n_grows == 1

    def test_convergence_tail_spare_is_held(self):
        case = run_case("autoscale", mk, "BFS", "grow-at-convergence-tail")
        assert case.ok, case.error
        assert case.n_regrids == 0
        assert case.n_holds >= 1
        hold = next(e for e in case.fault_events if e["kind"] == "hold")
        assert hold["reason"] == "hysteresis"

    def test_pagerank_demote_matches_to_tolerance(self):
        case = run_case("autoscale", mk, "PR", "chronic-straggler-demote")
        assert case.ok, case.error
        assert case.values_close is True


class TestAutoscaleCampaign:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_full_campaign_green_on_both_executors(self, mode):
        """The whole campaign, with ``map_ranks`` visiting the ranks
        forward and in reverse."""
        with rank_order(MODES[mode]):
            report = run_campaign("autoscale", mk)
        assert report["schema"] == "repro.faults.autoscale.v1"
        assert report["total"] == 12  # 4 scenarios x BFS/PR/CC
        assert report["failed"] == 0
        assert report["diverged"] == 0
        assert report["unrecovered"] == 0
        assert report["demotions"] == 6
        assert report["grows"] == 6
        assert report["holds"] == 3

    def test_campaign_subsets(self):
        report = run_campaign(
            "autoscale",
            mk,
            algos=("BFS",),
            scenarios=("chronic-straggler-demote",),
        )
        assert report["total"] == 1
        assert report["cases"][0]["ok"] is True


class TestAutoscaleCLI:
    ARGS = [
        "faults",
        "--autoscale",
        "--dataset",
        "FR",
        "--target-edges",
        "4096",
        "--algos",
        "BFS",
    ]

    def test_autoscale_campaign_exits_zero(self, capsys):
        rc = main(self.ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "demote-then-grow-back" in out
        assert "d/g/h" in out or "dem" in out

    def test_autoscale_report_written_to_disk(self, tmp_path, capsys):
        out_path = tmp_path / "autoscale.json"
        rc = main(self.ARGS + ["--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.faults.autoscale.v1"
        assert report["failed"] == 0
        capsys.readouterr()

    def test_elastic_and_autoscale_flags_conflict(self, capsys):
        # The campaign flags form an argparse mutually-exclusive
        # group: conflicts exit 2 with a usage message on stderr.
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--elastic", "--autoscale"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "not allowed with argument" in err
