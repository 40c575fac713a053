"""Command-line interface tests."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--algo", "CC"])
        assert args.dataset == "TW"
        assert args.ranks == 16
        assert args.cluster == "aimos"

    def test_invalid_algo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algo", "NOPE"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "WDC12" in out
        assert "V100" in out

    def test_run_cc(self, capsys):
        rc = main(
            ["run", "--algo", "CC", "--dataset", "TW", "--ranks", "4",
             "--target-edges", str(1 << 12)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GTEPS" in out
        assert "stand-in" in out

    def test_run_mwm_loads_weighted(self, capsys):
        rc = main(
            ["run", "--algo", "MWM", "--dataset", "FR", "--ranks", "4",
             "--target-edges", str(1 << 11)]
        )
        assert rc == 0

    def test_scaling_text(self, capsys):
        rc = main(
            ["scaling", "--dataset", "TW", "--algos", "CC", "--ranks", "1,4",
             "--target-edges", str(1 << 12)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "strong scaling on TW" in out

    def test_scaling_csv(self, capsys):
        rc = main(
            ["scaling", "--dataset", "TW", "--algos", "CC", "--ranks", "1",
             "--target-edges", str(1 << 12), "--format", "csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("dataset,algo")

    def test_scaling_markdown(self, capsys):
        rc = main(
            ["scaling", "--dataset", "TW", "--algos", "CC", "--ranks", "1",
             "--target-edges", str(1 << 12), "--format", "markdown"]
        )
        assert rc == 0
        assert "|---" in capsys.readouterr().out


def _trace_args(algo):
    return ["trace", "--algo", algo, "--dataset", "RMAT12", "--ranks", "4",
            "--target-edges", str(1 << 12)]


class TestTraceCommand:
    """``trace`` exits nonzero unless its per-iteration rows reproduce
    the run's ``CommCounters`` totals, so every exit code 0 here is an
    exactness check too."""

    ALGO, ITERATIONS = "PR", 20
    ARGS = _trace_args(ALGO)

    def test_trace_both_formats(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("iteration,")
        assert '"schema": "repro.trace.v1"' in captured.out
        assert "(exact)" in captured.err

    def test_trace_csv_only(self, capsys):
        rc = main(self.ARGS + ["--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("iteration,")
        assert "schema" not in out
        # one row per iteration + header
        assert len(out.strip().splitlines()) == self.ITERATIONS + 1

    def test_trace_json_is_exact(self, capsys):
        rc = main(self.ARGS + ["--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["algo"] == self.ALGO
        assert doc["meta"]["ranks"] == 4
        rows = doc["iterations"]
        assert len(rows) == self.ITERATIONS
        assert sum(r["bytes"] for r in rows) == doc["totals"]["bytes"]
        assert all(r["calls_by_kind"] for r in rows)

    def test_trace_out_writes_files(self, capsys, tmp_path):
        prefix = tmp_path / "pr_trace"
        rc = main(self.ARGS + ["--out", str(prefix)])
        assert rc == 0
        csv_text = (tmp_path / "pr_trace.csv").read_text()
        assert csv_text.startswith("iteration,")
        doc = json.loads((tmp_path / "pr_trace.json").read_text())
        assert doc["schema"] == "repro.trace.v1" and doc["iterations"]
        assert "wrote" in capsys.readouterr().out

    def test_trace_requires_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestTraceCommandCC(TestTraceCommand):
    """The same contract on CC, a run of data-dependent length."""

    ALGO, ITERATIONS = "CC", 5
    ARGS = _trace_args(ALGO)


class TestClaimsCommand:
    """``repro claims`` over a one-row table: exit 1 iff a row fails."""

    @pytest.mark.parametrize("value,rc", [(0.5, 0), (2.0, 1)], ids=["pass", "fail"])
    def test_exit_code_and_report(self, capsys, tmp_path, monkeypatch, value, rc):
        from repro.bench import claims

        monkeypatch.setattr(claims, "EXPERIMENTS", {"tiny": lambda: {"v": value}})
        monkeypatch.setattr(claims, "CLAIMS", [claims.Claim(
            "tiny.row", "Fig. 0", "tiny", "one value", "v < 1",
            lambda d: [("only", {"v": d["v"]}, d["v"] < 1)],
        )])
        out = tmp_path / "claims.json"
        assert main(["claims", "--out", str(out)]) == rc
        text = capsys.readouterr().out
        assert "tiny.row" in text and ("failing: only" in text) == bool(rc)
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.claims.v1" and doc["failed"] == rc
        assert doc["rows"][0]["values"] == {"only": {"v": value.hex()}}
