"""Smoke test of the benchmark itself.

Run with ``python -m pytest benchmarks/e2e -q`` from the repo root; it
is not collected by the tier-1 suite (``testpaths = ["tests"]``).  Every
workload runs at R-MAT scale 10 instead of its real size.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import run  # noqa: E402

BENCH = run.load_bench()


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One real interleaved run: 1 round, traced, scale 10."""
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "1", "--rounds", "1",
         "--seconds", "0.2", "--trace", "--scale", "10", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_every_workload_and_metric_is_reported_with_its_unit(report):
    data, printed = report
    assert list(data["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for name, wl in data["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in BENCH[section]:
                got = wl[section][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(got["value"], (int, float))
                assert f"{metric['name']} = " in printed
    assert not data["problems"]


def test_spans_sum_to_the_ops_and_nothing_failed(report):
    data, _ = report
    for name, wl in data["workloads"].items():
        assert wl["per_layer"]["trace.sum_residual_frac"]["value"] <= 1e-6, name
        assert wl["per_layer"]["trace.absent_targets"]["value"] == 0, name
        assert wl["end_to_end"]["failed_op_frac"]["value"] == 0, name
        assert wl["end_to_end"]["answers_stable"]["value"] == 1, name
    guarded = data["workloads"]["guarded_boundary"]["per_layer"]
    assert guarded["faults.ledger_checks"]["value"] > 0
    assert data["workloads"]["pr_kernel"]["per_layer"]["faults.ledger_checks"]["value"] == 0


def test_a_report_compares_equal_to_itself(report, tmp_path):
    data, _ = report
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    assert run.main(["--compare", str(path), str(path)]) == 0


def test_wrong_answer_is_a_failure_and_missing_target_is_absent():
    run.bootstrap()
    import measure
    from spans import Target

    ghost = "repro.kernels.scatter.no_such_kernel"
    record = measure.run_slice(
        BENCH, "guarded_boundary", seed=1, seconds=0.1, trace=True, scale=10,
        extra_targets=[Target("kernels.scatter", ghost)], corrupt_op=0,
    )  # fmt: skip
    assert record["failed"] > 0 and not record["correct"]
    assert "differs from repro.reference.serial" in record["errors"][0]
    assert record["absent_targets"] == [ghost]
    assert record["metrics"]["trace.absent_targets"]["value"] == 1
    # the other ops are unaffected and the span sum still closes
    assert record["failed"] < record["attempted"]
    assert record["metrics"]["trace.sum_residual_frac"]["value"] <= 1e-6


def test_slice_prints_the_contract_object_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "pr_kernel",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--scale", "10"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0
