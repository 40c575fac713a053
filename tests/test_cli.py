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


class TestTraceCommand:
    ARGS = ["trace", "--algo", "PR", "--dataset", "TW", "--ranks", "4",
            "--target-edges", str(1 << 12)]

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
        # 20 PageRank iterations + header
        assert len(out.strip().splitlines()) == 21

    def test_trace_json_is_exact(self, capsys):
        rc = main(self.ARGS + ["--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["algo"] == "PR"
        assert doc["meta"]["ranks"] == 4
        rows = doc["iterations"]
        assert len(rows) == 20
        assert sum(r["bytes"] for r in rows) == doc["totals"]["bytes"]
        assert all(r["calls_by_kind"] for r in rows)

    def test_trace_out_writes_files(self, capsys, tmp_path):
        prefix = tmp_path / "pr_trace"
        rc = main(self.ARGS + ["--out", str(prefix)])
        assert rc == 0
        csv_text = (tmp_path / "pr_trace.csv").read_text()
        assert csv_text.startswith("iteration,")
        doc = json.loads((tmp_path / "pr_trace.json").read_text())
        assert doc["schema"] == "repro.trace.v1"
        assert "wrote" in capsys.readouterr().out

    def test_trace_requires_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


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


class TestPerf:
    def test_perf_smoke_appends_trajectory(self, capsys, tmp_path):
        out = tmp_path / "traj.json"
        rc = main(
            ["perf", "--scale", "6", "--ranks", "4", "--repeats", "1",
             "--label", "smoke", "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "algorithms:" in text and "primitives:" in text
        assert "appended entry 1" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.bench.simulator.v1"
        assert doc["entries"][0]["label"] == "smoke"

    def test_perf_no_primitives_prints_algorithms_only(self, capsys):
        rc = main(
            ["perf", "--scale", "6", "--ranks", "4", "--repeats", "1",
             "--no-primitives"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "algorithms:" in text
        assert "primitives:" not in text

    def test_perf_overlap_prints_modeled_comparison(self, capsys, tmp_path):
        out = tmp_path / "traj.json"
        rc = main(
            ["perf", "--scale", "6", "--ranks", "4", "--repeats", "1",
             "--no-primitives", "--overlap", "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "modeled (virtual clock" in text
        assert "SpMV" in text
        doc = json.loads(out.read_text())
        assert set(doc["entries"][0]["modeled"]) == {"BFS", "PR", "CC", "SpMV"}


class TestPerfBatch:
    def test_perf_batch_prints_section(self, capsys, tmp_path):
        out = tmp_path / "traj.json"
        rc = main(
            ["perf", "--scale", "6", "--ranks", "4", "--repeats", "1",
             "--no-primitives", "--batch", "--batch-ks", "2",
             "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "batched k-source BFS" in text
        assert "bit-identical" in text
        doc = json.loads(out.read_text())
        entry = doc["entries"][0]["batched"]["k2"]
        assert entry["bit_identical"] is True
