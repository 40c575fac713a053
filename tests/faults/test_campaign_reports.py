"""The four fault-campaign reports are pinned byte for byte.

Each ``python -m repro faults`` campaign is deterministic, so its JSON
report — every case's status, answer check and modeled number — must
equal the fixture recorded under ``campaigns/``.  Re-record a fixture
only at a trusted commit, with the command CI runs:
``python -m repro faults [--elastic|--autoscale|--sdc] --out
tests/faults/campaigns/<kind>.json``.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import CAMPAIGNS

FIXTURES = Path(__file__).parent / "campaigns"


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_report_equals_the_recorded_fixture(kind, tmp_path, capsys):
    report = tmp_path / "report.json"
    flags = [] if kind == "campaign" else [f"--{kind}"]
    assert main(["faults", *flags, "--out", str(report)]) == 0
    assert report.read_bytes() == (FIXTURES / f"{kind}.json").read_bytes()
