"""Result export tests."""

import pytest

from repro.bench import ExperimentRow, comm_split, to_csv, to_markdown
from repro.core.trace import IterationTrace


def _row(ranks, total, dataset="TW", algo="CC", extra=None):
    return ExperimentRow(
        experiment="e",
        dataset=dataset,
        algorithm=algo,
        n_ranks=ranks,
        grid="2x2",
        time_total=total,
        time_compute=total * 0.6,
        time_comm=total * 0.4,
        iterations=5,
        teps=1e9 / total,
        extra=extra or {},
    )


def _trace_rows():
    return [
        IterationTrace(
            iteration=i + 1, total_s=1.0, compute_s=0.6, comm_s=0.4,
            bytes=100 * (i + 1), serial_messages=4, transfers=8,
            calls_by_kind={"allreduce": 2},
            by_kind={"allreduce": {
                "calls": 2, "serial_messages": 4, "transfers": 8,
                "bytes": 100 * (i + 1),
            }},
        )
        for i in range(3)
    ]


class TestMarkdown:
    def test_table_structure(self):
        md = to_markdown([_row(4, 1.0)], title="T")
        lines = md.splitlines()
        assert lines[0] == "### T"
        assert lines[2].startswith("| dataset |")
        assert lines[3].startswith("|---")
        assert "| TW | CC | 4 |" in lines[4]

    def test_no_title(self):
        md = to_markdown([_row(4, 1.0)])
        assert md.splitlines()[0].startswith("| dataset")


class TestCsv:
    def test_header_and_rows(self):
        text = to_csv([_row(4, 2.0), _row(16, 1.0)])
        lines = text.strip().splitlines()
        assert lines[0].startswith("dataset,algo,ranks")
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "4"

    def test_experiment_column(self):
        text = to_csv([_row(4, 2.0)])
        assert text.strip().splitlines()[1].endswith("e")


class TestCommSplit:
    def test_sums_trace_columns(self):
        row = _row(4, 3.0, extra={"trace": _trace_rows()})
        split = comm_split(row)
        assert split["compute_s"] == pytest.approx(1.8)
        assert split["comm_s"] == pytest.approx(1.2)
        assert split["bytes"] == 600
        assert split["serial_messages"] == 12
        assert split["transfers"] == 24
        assert split["iterations"] == 3

    def test_missing_trace_rejected(self):
        with pytest.raises(ValueError, match="no trace"):
            comm_split(_row(4, 3.0))

    def test_harness_rows_carry_exact_traces(self):
        """End to end: run_algorithm's attached trace sums to the
        engine counters and the clock split."""
        from repro.bench import make_engine, run_algorithm
        from repro.graph import load

        ds = load("TW", target_edges=1 << 12, seed=0)
        engine = make_engine(ds, 4)
        row = run_algorithm("CC", engine, experiment="t", dataset="TW")
        split = comm_split(row)
        assert split["comm_s"] == pytest.approx(row.time_comm, rel=1e-12)
        assert split["compute_s"] == pytest.approx(row.time_compute, rel=1e-12)
        assert split["bytes"] == engine.counters.total_bytes
        assert split["serial_messages"] == engine.counters.total_serial_messages
