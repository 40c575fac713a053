"""The claims table (:mod:`repro.bench.claims`) and its tier-1 slice.

The full table is ``python -m repro claims`` (CI's ``paper-figures``
job regenerates ``tests/claims_golden.json`` and fails on any diff).
Here a few-second slice — Fig. 7 GSH on three shapes, Fig. 3's CW CC
end points — runs through the module's own experiment and row code and
must reproduce the golden's values bit for bit, with every row
passing.
"""

import json
import pathlib

import pytest

from repro.bench import claims

GOLDEN = pathlib.Path(__file__).parents[1] / "claims_golden.json"

#: (experiment call, the rows it can evaluate alone)
SLICE = {
    "fig3-CW-CC": (
        lambda: claims.fig3(datasets=("CW",), algos=("CC",), ranks=(1, 256)),
        ("fig3.scales", "fig3.halves", "fig3.comm_dominates"),
    ),
    "fig7-GSH": (
        lambda: claims.fig7(datasets=("GSH",), shapes=((8, 32), (16, 16), (32, 8))),
        ("fig7.near_vs_square", "fig7.reduce_direction"),
    ),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", SLICE)
def test_slice_reproduces_golden(golden, name):
    run, ids = SLICE[name]
    data = run()
    table = {c.id: c for c in claims.CLAIMS}
    want = {r["id"]: r for r in golden["rows"]}
    for cid in ids:
        row = claims.evaluate(table[cid], data)
        assert row["values"], cid
        assert row["values"] == {k: want[cid]["values"][k] for k in row["values"]}, cid
        assert row["pass"], (cid, row["failing"])


def test_golden_is_the_table(golden):
    """The committed report is the current table, every row passing."""
    assert golden["schema"] == claims.SCHEMA
    assert golden["failed"] == 0 and golden["total"] == len(claims.CLAIMS)
    assert [r["id"] for r in golden["rows"]] == [c.id for c in claims.CLAIMS]
    for row, claim in zip(golden["rows"], claims.CLAIMS):
        assert (row["figure"], row["workload"], row["inequality"]) == (
            claim.figure, claim.workload, claim.inequality
        )
        assert row["pass"] and row["values"], row["id"]


def _claim(instances) -> claims.Claim:
    return claims.Claim("t.row", "Fig. 0", "t", "w", "v < 1", instances)


def test_row_names_every_failing_instance():
    row = claims.evaluate(
        _claim(lambda d: [(k, {"v": v}, v < 1) for k, v in d.items()]),
        {"a": 0.5, "b": 2.0, "c": 3.0},
    )
    assert row["failing"] == ["b", "c"] and not row["pass"]
    assert row["values"]["a"] == {"v": (0.5).hex()}


def test_row_without_instances_fails():
    assert not claims.evaluate(_claim(lambda d: []), {})["pass"]
