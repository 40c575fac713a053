"""FaultPlan/FaultSpec: validation and superstep ordering."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, FaultSpec


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor", 1)

    def test_superstep_must_be_positive(self):
        with pytest.raises(ValueError, match="superstep"):
            FaultSpec("transient", 0)

    def test_crash_needs_rank(self):
        with pytest.raises(ValueError, match="explicit rank"):
            FaultSpec("crash", 1)

    def test_straggler_needs_positive_delay(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec("straggler", 1, rank=0)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec("transient", 1, count=0)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            FaultSpec("transient", 1, rank=-1)

    def test_memflip_needs_rank(self):
        with pytest.raises(ValueError, match="explicit rank"):
            FaultSpec("memflip", 1)

    def test_memflip_rejects_collective(self):
        with pytest.raises(ValueError, match="collective"):
            FaultSpec("memflip", 1, rank=0, collective="allreduce")

    def test_recover_rejects_explicit_rank(self):
        with pytest.raises(ValueError, match="rank"):
            FaultSpec("recover", 1, rank=2)

    def test_negative_bit_rejected(self):
        with pytest.raises(ValueError, match="bit"):
            FaultSpec("memflip", 1, rank=0, bit=-1)


class TestValidationMessages:
    """Every FaultSpec error names the offending field *first* and,
    where choices matter, quotes them in FAULT_KINDS documentation
    order."""

    DOC_ORDER = "crash, transient, corruption, straggler, recover, memflip"

    @pytest.mark.parametrize(
        "field,ctor",
        [
            ("kind", lambda: FaultSpec("meteor", 1)),
            ("superstep", lambda: FaultSpec("transient", 0)),
            ("count", lambda: FaultSpec("transient", 1, count=0)),
            ("bit", lambda: FaultSpec("corruption", 1, bit=-3)),
            ("delay_s", lambda: FaultSpec("straggler", 1, rank=0)),
            ("rank", lambda: FaultSpec("crash", 1)),
            ("rank", lambda: FaultSpec("memflip", 1)),
            ("rank", lambda: FaultSpec("recover", 1, rank=0)),
            ("rank", lambda: FaultSpec("transient", 1, rank=-1)),
            (
                "collective",
                lambda: FaultSpec("memflip", 1, rank=0, collective="bcast"),
            ),
            (
                "collective",
                lambda: FaultSpec("recover", 1, collective="bcast"),
            ),
            (
                "collective",
                lambda: FaultSpec("transient", 1, collective="allgather"),
            ),
        ],
    )
    def test_field_named_first(self, field, ctor):
        with pytest.raises(ValueError) as ei:
            ctor()
        assert str(ei.value).startswith(f"{field}:")

    def test_unknown_kind_lists_all_choices_in_doc_order(self):
        with pytest.raises(ValueError) as ei:
            FaultSpec("meteor", 1)
        msg = str(ei.value)
        assert "unknown fault kind 'meteor'" in msg
        assert self.DOC_ORDER in msg

    def test_unknown_collective_lists_the_collective_kinds(self):
        with pytest.raises(ValueError) as ei:
            FaultSpec("transient", 1, collective="allgather", count=99)
        msg = str(ei.value)
        assert "unknown collective 'allgather'" in msg
        assert (
            "allreduce, broadcast, grouped_broadcast, allgatherv, alltoallv" in msg
        )

    def test_ranked_kinds_listed_in_doc_order(self):
        with pytest.raises(ValueError) as ei:
            FaultSpec("memflip", 1)
        # _RANKED_KINDS rendered in FAULT_KINDS order, not tuple order.
        assert "crash, straggler, memflip" in str(ei.value)

    def test_boundary_kinds_listed_in_doc_order(self):
        with pytest.raises(ValueError) as ei:
            FaultSpec("memflip", 1, rank=0, collective="allgatherv")
        assert "recover, memflip" in str(ei.value)


class TestFaultPlan:
    def test_specs_sorted_by_superstep(self):
        plan = FaultPlan(
            [
                FaultSpec("transient", 5),
                FaultSpec("crash", 2, rank=0),
                FaultSpec("corruption", 1),
            ]
        )
        assert [s.superstep for s in plan] == [1, 2, 5]
