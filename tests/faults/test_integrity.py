"""SDC defense: memflip injection, integrity ledger, certifiers, repair.

Covers the three layers of ``repro.faults.integrity`` plus the graded
campaign behind ``python -m repro faults --sdc``:

* :func:`apply_memflip` mechanics (deterministic, one-shot, windowed);
* :class:`IntegrityLedger` detection — including a Hypothesis sweep
  proving every single-bit flip in any replicated window is caught
  (no false negatives) and clean runs never trip it (no false
  positives), with ``map_ranks`` visiting the ranks forward and in
  reverse;
* per-algorithm certifiers sealing correct results and naming the
  violated invariant on corrupted ones;
* detect -> rollback -> recompute repair that is bit-identical to the
  fault-free run, with budget/no-checkpoint failure modes;
* the campaign report schema and the CLI wiring.
"""

import json
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, algorithms
from repro.cli import main
from repro.comm.grid import Grid2D
from repro.faults import (
    CAMPAIGNS,
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    IntegrityFailure,
    IntegrityLedger,
    IntegrityViolation,
    apply_memflip,
    certify_bfs,
    certify_cc,
    certify_pagerank,
    certify_sssp,
    drive_elastic,
    run_campaign,
    run_case,
)
from repro.graph import rmat

from ..conftest import assert_state_is_stacked, rank_order, row_gid

GRAPH = rmat(7, seed=3)
WGRAPH = rmat(7, seed=3).with_random_weights(seed=1)

#: Host rank order by test id (``threads4``: the id of the thread-pool
#: leg the reversed leg replaced).
MODES = {"serial": "forward", "threads4": "reversed"}


def mk():
    return Engine(GRAPH, 4)


def mkw():
    return Engine(WGRAPH, 4)


def _free_all(engine):
    for name in list(engine.ctx(0).arrays):
        engine.free(name)


def _seed_state(engine, seed=0, dtype=np.float64, width=None):
    """Make ``x``, one coherent replicated state array, the only state
    on every rank.

    Builds a global per-vertex vector and scatters it into each rank's
    local coordinate space via the localmap, exactly as a real
    exchange leaves it: row-group replicas agree on row windows,
    col-group replicas on column windows.
    """
    rng = np.random.default_rng(seed)
    n = engine.graph.n_vertices
    shape = (n,) if width is None else (n, width)
    if np.issubdtype(np.dtype(dtype), np.floating):
        base = rng.standard_normal(shape).astype(dtype)
    else:
        base = rng.integers(-1000, 1000, shape).astype(dtype)
    _free_all(engine)
    for ctx, arr in zip(engine.contexts, engine.alloc("x", dtype, width=width)):
        lm = ctx.localmap
        row_lids = np.arange(lm.row_slice.start, lm.row_slice.stop)
        col_lids = np.arange(lm.col_slice.start, lm.col_slice.stop)
        arr[lm.row_slice] = base[row_gid(lm, row_lids)]
        arr[lm.col_slice] = base[lm.col_gid(col_lids)]
    return base


class TestApplyMemflip:
    def test_flip_is_deterministic_and_self_inverse(self):
        engine = mk()
        _seed_state(engine)
        ctx = engine.contexts[1]
        before = ctx.arrays["x"].copy()
        spec = FaultSpec("memflip", 1, rank=1, bit=137)
        assert apply_memflip(ctx, spec) == 1
        assert not np.array_equal(ctx.arrays["x"], before)
        # XOR is an involution: the same flip restores the state.
        assert apply_memflip(ctx, spec) == 1
        assert np.array_equal(ctx.arrays["x"], before)

    def test_flip_lands_only_in_owned_windows(self):
        engine = mk()
        _seed_state(engine)
        ctx = engine.contexts[1]
        before = ctx.arrays["x"].copy()
        apply_memflip(ctx, FaultSpec("memflip", 1, rank=1, bit=7))
        changed = np.flatnonzero(ctx.arrays["x"] != before)
        assert len(changed) == 1
        owned = set(range(*ctx.row_slice.indices(len(before)))) | set(
            range(*ctx.col_slice.indices(len(before)))
        )
        assert int(changed[0]) in owned

    def test_burst_flips_count_bits(self):
        engine = mk()
        _seed_state(engine)
        ctx = engine.contexts[2]
        before = ctx.arrays["x"].copy()
        flipped = apply_memflip(
            ctx, FaultSpec("memflip", 1, rank=2, bit=4099, count=3)
        )
        assert flipped == 3
        assert not np.array_equal(ctx.arrays["x"], before)

    def test_bit_index_wraps(self):
        engine = mk()
        _seed_state(engine)
        ctx = engine.contexts[0]
        total_bits = sum(
            s.nbytes * 8
            for s in (
                ctx.arrays["x"][ctx.row_slice],
                ctx.arrays["x"][ctx.col_slice],
            )
        )
        a = ctx.arrays["x"].copy()
        apply_memflip(ctx, FaultSpec("memflip", 1, rank=0, bit=5))
        flipped_small = ctx.arrays["x"].copy()
        ctx.arrays["x"][:] = a
        apply_memflip(
            ctx, FaultSpec("memflip", 1, rank=0, bit=5 + total_bits)
        )
        assert np.array_equal(ctx.arrays["x"], flipped_small)

    def test_no_state_flips_nothing(self):
        engine = mk()
        assert (
            apply_memflip(
                engine.contexts[1], FaultSpec("memflip", 1, rank=1)
            )
            == 0
        )


class TestLedgerUnit:
    def test_bad_interval_and_budget_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            IntegrityLedger(interval=0)
        with pytest.raises(ValueError, match="repair_budget"):
            IntegrityLedger(repair_budget=-1)

    def test_clean_boundary_appends_ok_row_and_charges(self):
        engine = mk()
        _seed_state(engine)
        ledger = IntegrityLedger()
        row = ledger.on_boundary(engine, 1)
        assert row is not None and row.ok and row.suspects == ()
        assert engine.clocks.peak("certify") > 0.0
        # The charge lands in the certify lane, not compute/comm.
        assert engine.timing_report().certify > 0.0

    def test_interval_skips_off_boundaries(self):
        engine = mk()
        _seed_state(engine)
        ledger = IntegrityLedger(interval=3)
        assert ledger.on_boundary(engine, 1) is None
        assert ledger.on_boundary(engine, 2) is None
        assert ledger.on_boundary(engine, 3) is not None
        # A due checkpoint forces verification regardless of interval.
        assert ledger.on_boundary(engine, 4, checkpoint_due=True) is not None

    def test_corruption_without_checkpoint_is_unrepairable(self):
        engine = mk()
        _seed_state(engine)
        apply_memflip(
            engine.contexts[1], FaultSpec("memflip", 1, rank=1, bit=3)
        )
        ledger = IntegrityLedger()
        with pytest.raises(IntegrityFailure, match="no verified checkpoint"):
            ledger.on_boundary(engine, 1)
        assert ledger.repairs == 1
        ev = engine.fault_events[-1]
        assert ev["kind"] == "integrity" and ev["detected"] is True

    def test_budget_exhaustion_is_fatal(self):
        engine = mk()
        _seed_state(engine)
        ledger = IntegrityLedger(repair_budget=0)
        apply_memflip(
            engine.contexts[1], FaultSpec("memflip", 1, rank=1, bit=3)
        )
        with pytest.raises(IntegrityFailure, match="budget exhausted"):
            ledger.on_boundary(engine, 1)
        assert engine.fault_events[-1]["fatal"] is True

    def test_violation_carries_suspects_and_window(self):
        engine = mk()
        _seed_state(engine)
        engine.attach_checkpoints(CheckpointManager(interval=1))
        engine.checkpoints.save(engine, 1, "unit", dict)
        ledger = IntegrityLedger()
        assert ledger.on_boundary(engine, 1).ok
        apply_memflip(
            engine.contexts[1], FaultSpec("memflip", 2, rank=1, bit=3)
        )
        with pytest.raises(IntegrityViolation) as ei:
            ledger.on_boundary(engine, 2)
        exc = ei.value
        assert 1 in exc.suspects  # the corrupt rank is always a suspect
        assert exc.window == (2, 2)
        assert exc.fault_kind == "integrity"
        ev = engine.fault_events[-1]
        assert ev["suspects"] == list(exc.suspects)
        assert ev["window"] == [2, 2]

    @pytest.mark.parametrize("layout", ["1d", "lanes", "int32_lanes"])
    def test_digests_are_the_crc_of_each_window_whatever_the_layout(self, layout):
        """Windows are hashed in place (no ``tobytes`` copy).  Same CRC
        words, same fingerprint as hashing a copy of every window."""
        engine = Engine(GRAPH, 9)  # groups of 3: a minority of one
        _seed_state(
            engine,
            dtype=np.int32 if layout == "int32_lanes" else np.float64,
            width=3 if "lanes" in layout else None,
        )
        ledger = IntegrityLedger()
        digests, hashed = ledger._collect_digests(engine)
        want = [
            {
                "x": (
                    zlib.crc32(ctx.arrays["x"][ctx.row_slice].tobytes()),
                    zlib.crc32(ctx.arrays["x"][ctx.col_slice].tobytes()),
                )
            }
            for ctx in engine.contexts
        ]
        assert digests == want
        assert hashed == max(
            ctx.arrays["x"][ctx.row_slice].nbytes
            + ctx.arrays["x"][ctx.col_slice].nbytes
            for ctx in engine.contexts
        )
        row = ledger.on_boundary(engine, 1)
        assert row.ok and row.fingerprint == zlib.crc32(
            b"".join(d.to_bytes(4, "little") for rank in want for d in rank["x"])
        )
        # one flipped bit is still pinned on the rank that holds it
        apply_memflip(engine.contexts[4], FaultSpec("memflip", 2, rank=4, bit=5))
        with pytest.raises(IntegrityFailure, match="no verified checkpoint"):
            ledger.on_boundary(engine, 2)
        assert engine.fault_events[-1]["suspects"] == [4]

    def test_rewind_drops_rows_but_keeps_budget_consumption(self):
        ledger = IntegrityLedger()
        engine = mk()
        _seed_state(engine)
        for step in (1, 2, 3):
            ledger.on_boundary(engine, step)
        ledger.repairs = 1
        ledger.rewind(1)
        assert [r.superstep for r in ledger.rows] == [1]
        assert ledger.repairs == 1  # per run, not per attempt
        ledger.reset()
        assert ledger.rows == [] and ledger.repairs == 0


DTYPES = [np.float64, np.float32, np.int64, np.int32]

_HYP_ENGINES = {}


def _hyp_engine(mode):
    if mode not in _HYP_ENGINES:
        _HYP_ENGINES[mode] = mk()
    return _HYP_ENGINES[mode]


class TestLedgerProperty:
    """No false negatives, no false positives — the ledger's contract."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        dtype=st.sampled_from(DTYPES),
        width=st.sampled_from([None, 2, 3]),
        rank=st.integers(0, 3),
        bit=st.integers(0, 1 << 20),
        seed=st.integers(0, 10),
    )
    def test_every_single_bit_flip_is_detected(
        self, mode, dtype, width, rank, bit, seed
    ):
        engine = _hyp_engine(mode)
        with rank_order(MODES[mode]):
            _seed_state(engine, seed=seed, dtype=dtype, width=width)
            ledger = IntegrityLedger()
            assert ledger.on_boundary(engine, 1).ok
            flipped = apply_memflip(
                engine.contexts[rank],
                FaultSpec("memflip", 2, rank=rank, bit=bit),
            )
            assert flipped == 1
            with pytest.raises((IntegrityViolation, IntegrityFailure)):
                ledger.on_boundary(engine, 2)
        assert rank in ledger.rows[-1].suspects

    @pytest.mark.parametrize("mode", sorted(MODES))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        dtype=st.sampled_from(DTYPES),
        width=st.sampled_from([None, 2]),
        seed=st.integers(0, 10),
    )
    def test_clean_state_never_trips(self, mode, dtype, width, seed):
        engine = _hyp_engine(mode)
        with rank_order(MODES[mode]):
            _seed_state(engine, seed=seed, dtype=dtype, width=width)
            ledger = IntegrityLedger()
            rows = [ledger.on_boundary(engine, step) for step in (1, 2)]
        assert all(row.ok and row.suspects == () for row in rows)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_clean_algorithm_runs_never_trip(self, mode):
        """End-to-end false-positive check: real algorithm state (BFS's
        infs, PR's floats, CC's labels) verifies clean at every
        boundary, whichever order ``map_ranks`` visits the ranks in."""
        for runner in (
            lambda e: algorithms.bfs(e, root=0),
            lambda e: algorithms.pagerank(e, iterations=5),
            lambda e: algorithms.connected_components(e),
        ):
            engine = mk()
            ledger = IntegrityLedger()
            engine.attach_integrity(ledger)
            with rank_order(MODES[mode]):
                runner(engine)
            assert ledger.rows, "ledger never consulted"
            assert all(r.ok for r in ledger.rows)


class OracleLedger(IntegrityLedger):
    """Hash a copy of every window on every rank — what the ledger did
    before it verified replicas by comparison."""

    def _collect_digests(self, engine):
        digests, sizes = [], []
        for ctx in engine.contexts:
            wins = {
                name: (arr[ctx.row_slice], arr[ctx.col_slice])
                for name, arr in ctx.arrays.items()
            }
            digests.append(
                {
                    name: tuple(zlib.crc32(w.tobytes()) for w in pair)
                    for name, pair in wins.items()
                }
            )
            sizes.append(sum(w.nbytes for pair in wins.values() for w in pair))
        return digests, max(sizes, default=0)


#: (R-MAT scale, R, C): square, wide, tall, odd, single-member groups on
#: one axis (no replica there), and fewer vertices than ranks.
GRIDS = {
    "2x2": (6, 2, 2),
    "4x4": (6, 4, 4),
    "2x4": (6, 4, 2),
    "3x5": (6, 5, 3),
    "1x4": (6, 4, 1),
    "4x1": (6, 1, 4),
    "4x4_n<p": (3, 4, 4),
    "3x5_n<p": (3, 5, 3),
}

_GRID_ENGINES = {}


def _grid_engine(grid, with_checkpoint=False):
    key = (grid, with_checkpoint)
    if key not in _GRID_ENGINES:
        scale, R, C = GRIDS[grid]
        engine = Engine(rmat(scale, seed=5), grid=Grid2D(R=R, C=C))
        if with_checkpoint:
            engine.attach_checkpoints(CheckpointManager(interval=1))
        _GRID_ENGINES[key] = engine
    return _GRID_ENGINES[key]


SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan]
    + [np.uint64(0x7FF8_0000_0000_0123).view(np.float64)]  # NaN with a payload
)


def _mixed_state(engine, seed):
    """Five coherent replicated states of every layout the ledger
    meets: float64 (with NaN / +-0.0 / inf), int64, int32, bool and
    ``(N_T, 3)`` lanes."""
    rng = np.random.default_rng(seed)
    n = engine.graph.n_vertices
    floats = rng.standard_normal(n)
    special = rng.random(n) < 0.4
    floats[special] = rng.choice(SPECIALS, int(special.sum()))
    bases = {
        "b": rng.random(n) < 0.5,
        "f": floats,
        "i": rng.integers(-9, 9, n).astype(np.int32),
        "lanes": rng.standard_normal((n, 3)),
        "wide": rng.integers(-9, 9, n),
    }
    _free_all(engine)
    for name, base in bases.items():
        width = base.shape[1] if base.ndim == 2 else None
        arrays = engine.alloc(name, base.dtype, width=width)
        for ctx, arr in zip(engine.contexts, arrays):
            lm = ctx.localmap
            rows = np.arange(lm.row_slice.start, lm.row_slice.stop)
            cols = np.arange(lm.col_slice.start, lm.col_slice.stop)
            arr[lm.row_slice] = base[row_gid(lm, rows)]
            arr[lm.col_slice] = base[lm.col_gid(cols)]


def _verdict(ledger, engine, with_checkpoint, build):
    """One boundary on a fresh run: everything the ledger lets out.
    ``build()`` registers the state *after* the run began — arrays
    registered before ``reset_timers()`` are the previous run's, which
    the ledger leaves alone."""
    engine.reset_timers()
    built = build()
    if with_checkpoint:
        engine.checkpoints.save(engine, 0, "unit", dict)
    digests = ledger._collect_digests(engine)
    try:
        ledger.on_boundary(engine, 1)
        raised = None
    except (IntegrityViolation, IntegrityFailure) as exc:
        raised = (type(exc), str(exc), getattr(exc, "suspects", None))
    events = [e for e in engine.fault_events if e["kind"] == "integrity"]
    return built, digests, ledger.rows, raised, events, engine.clocks.peak("certify")


class TestVerifyByComparison:
    """The ledger hashes one member per group and byte-compares the
    rest; what it lets out is what hashing every window lets out."""

    @settings(max_examples=120, deadline=None)
    @given(
        grid=st.sampled_from(sorted(GRIDS)),
        seed=st.integers(0, 50),
        flip=st.booleans(),
        rank=st.integers(0, 15),
        bit=st.integers(0, 1 << 22),
        with_checkpoint=st.booleans(),
        budget=st.sampled_from([0, 2]),
    )
    def test_same_verdict_as_hashing_every_window(
        self, grid, seed, flip, rank, bit, with_checkpoint, budget
    ):
        engine = _grid_engine(grid, with_checkpoint)
        rank %= engine.n_ranks

        def build():
            _mixed_state(engine, seed)
            return flip and apply_memflip(
                engine.contexts[rank], FaultSpec("memflip", 1, rank=rank, bit=bit)
            )

        want = _verdict(
            OracleLedger(repair_budget=budget), engine, with_checkpoint, build
        )
        ledger = IntegrityLedger(repair_budget=budget)
        got = _verdict(ledger, engine, with_checkpoint, build)
        assert got == want
        flipped, _, rows, raised, events, _ = got
        if not flipped:
            assert rows[-1].ok and raised is None and not events
        elif min(GRIDS[grid][1:]) >= 2:  # every window has a replica
            assert rank in rows[-1].suspects and events[-1]["suspects"]
            assert raised[0] is (
                IntegrityViolation if with_checkpoint and budget else IntegrityFailure
            )

    def test_bits_are_compared_not_values(self):
        """``-0.0 == 0.0`` and ``nan != nan`` as values; as replicas a
        ``-0.0`` among ``0.0`` is corruption and equal NaNs are clean."""
        engine = Engine(GRAPH, 9)
        engine.alloc("x", fill=0.0)
        engine.alloc("y", fill=np.nan)
        assert IntegrityLedger().on_boundary(engine, 1).ok
        victim = engine.contexts[4]
        victim.arrays["x"][victim.row_slice][:1] = -0.0
        with pytest.raises(IntegrityFailure, match="no verified checkpoint"):
            IntegrityLedger().on_boundary(engine, 1)
        assert engine.fault_events[-1]["suspects"] == [4]

    @pytest.mark.parametrize("victim", [0, 4, 8], ids=["first", "middle", "last"])
    def test_flip_localizes_to_the_member_that_holds_it(self, victim):
        """Rank 0 is the member both of its groups are compared against:
        flipping *it* makes every other member differ from it, and the
        vote must still single it out, not them."""
        engine = Engine(GRAPH, 9)
        _seed_state(engine)
        apply_memflip(
            engine.contexts[victim], FaultSpec("memflip", 1, rank=victim, bit=77)
        )
        ledger = IntegrityLedger()
        with pytest.raises(IntegrityFailure, match="no verified checkpoint"):
            ledger.on_boundary(engine, 1)
        assert ledger.rows[-1].suspects == (victim,)
        assert engine.fault_events[-1]["rank"] == victim

    @pytest.mark.parametrize("grid", ["4x4", "2x4", "3x5", "1x4", "4x1"])
    def test_stats_count_each_distinct_window_once(self, grid):
        """R row windows and C column windows are all the distinct data
        there is: that many CRCs per array and boundary, every other
        window compared — exact counts, reset with the ledger."""
        engine = _grid_engine(grid)
        _mixed_state(engine, seed=1)
        _, R, C = GRIDS[grid]
        p, n_arrays = R * C, 5
        ledger = IntegrityLedger()
        assert set(ledger.stats.values()) == {0}
        for boundary in (1, 2, 3):
            assert ledger.on_boundary(engine, boundary).ok
            assert ledger.stats["windows_hashed"] == boundary * (R + C) * n_arrays
            assert ledger.stats["windows_compared"] == (
                boundary * (2 * p - R - C) * n_arrays
            )
        distinct = sum(
            arr[getattr(ctx, attr)].nbytes
            for groups, attr in (
                (engine.row_groups(), "row_slice"),
                (engine.col_groups(), "col_slice"),
            )
            for _gid, ranks in groups
            for ctx in [engine.ctx(ranks[0])]
            for arr in ctx.arrays.values()
        )
        assert ledger.stats["bytes_hashed"] == 3 * distinct
        ledger.reset()
        assert set(ledger.stats.values()) == {0}

    @pytest.mark.parametrize("victim, extra", [(5, 1), (3, 2)])
    def test_a_flip_costs_only_the_differing_members_of_its_group(self, victim, extra):
        """On 3x3, rank 5 is last in its row group and rank 3 is first:
        a flipped row window of rank 5 is one more CRC (its own), of
        rank 3 two more (the two members that no longer match it);
        every other group still hashes one window."""
        engine = Engine(GRAPH, 9)
        _seed_state(engine)
        clean = IntegrityLedger()
        clean.on_boundary(engine, 1)
        apply_memflip(
            engine.contexts[victim], FaultSpec("memflip", 1, rank=victim, bit=5)
        )
        ledger = IntegrityLedger()
        with pytest.raises(IntegrityFailure):
            ledger.on_boundary(engine, 1)
        assert ledger.stats["windows_hashed"] == clean.stats["windows_hashed"] + extra
        assert ledger.stats["windows_compared"] == clean.stats["windows_compared"]


class TestCertifiers:
    def _bfs(self, engine=None):
        engine = engine or mk()
        res = algorithms.bfs(engine, root=0)
        return engine, res.values, res.extra["levels"]

    def test_bfs_seal_passes_and_charges(self):
        engine, parents, levels = self._bfs()
        before = engine.clocks.peak("certify")
        report = certify_bfs(engine, parents, levels, root=0)
        assert report.ok and all(report.checks.values())
        assert report.algo == "bfs"
        assert engine.clocks.peak("certify") > before
        assert report.seconds > 0.0

    def test_bfs_catches_fake_parent_edge(self):
        engine, parents, levels = self._bfs()
        victim = next(
            v for v in range(1, len(parents)) if parents[v] >= 0
        )
        bad = parents.copy()
        bad[victim] = victim  # self-parent: no such edge
        with pytest.raises(IntegrityFailure, match="parent-edge") as ei:
            certify_bfs(engine, bad, levels, root=0)
        assert ei.value.report is not None
        assert ei.value.report.checks["parent-edge"] is False

    def test_bfs_catches_level_skew(self):
        engine, parents, levels = self._bfs()
        victim = next(
            v for v in range(1, len(levels)) if levels[v] > 0
        )
        bad = levels.copy()
        bad[victim] += 1
        with pytest.raises(IntegrityFailure, match="level-consistent"):
            certify_bfs(engine, parents, bad, root=0)

    def test_cc_catches_label_disagreement(self):
        engine = mk()
        labels = algorithms.connected_components(engine).values
        assert certify_cc(engine, labels).ok
        bad = labels.copy()
        bad[GRAPH.indices[0]] = len(bad) - 1  # break one edge's labels
        with pytest.raises(IntegrityFailure, match="edge-agreement|canonical"):
            certify_cc(engine, bad)

    def test_sssp_catches_overtight_distance(self):
        engine = mkw()
        dist = algorithms.sssp(engine, root=0).values
        assert certify_sssp(engine, dist, root=0).ok
        bad = dist.copy()
        reached = np.flatnonzero(np.isfinite(bad) & (bad > 0))
        bad[reached[0]] *= 1.5  # now some in-edge has negative slack
        with pytest.raises(IntegrityFailure, match="slack"):
            certify_sssp(engine, bad, root=0)

    def test_sssp_requires_weights(self):
        engine = mk()
        with pytest.raises(ValueError, match="weighted"):
            certify_sssp(engine, np.zeros(GRAPH.n_vertices), root=0)

    def test_pagerank_catches_mass_loss(self):
        engine = mk()
        pr = algorithms.pagerank(engine, iterations=10).values
        assert certify_pagerank(engine, pr).ok
        with pytest.raises(IntegrityFailure, match="mass"):
            certify_pagerank(engine, pr * 1.01)

    def test_pagerank_catches_residual_blowup(self):
        engine = mk()
        pr = algorithms.pagerank(engine, iterations=10).values
        bad = pr.copy()
        # Move mass between two vertices: sum is preserved but the
        # vector is no longer near the power-iteration fixed point.
        bad[0] += 0.2
        bad[1] -= 0.2
        with pytest.raises(IntegrityFailure, match="residual|non-negative"):
            certify_pagerank(engine, bad)

    def test_certifying_a_run_charges_the_certify_lane(self):
        """Certification wraps the algorithm from outside: the run
        itself charges nothing to the lane, the certifier does."""
        engine = mk()
        res = algorithms.pagerank(engine, iterations=5)
        assert res.timings.certify == 0.0
        cert = certify_pagerank(engine, res.values).as_dict()
        assert cert["ok"] is True and cert["algo"] == "pagerank"
        # The certifier charge is visible in the timing report.
        timings = engine.timing_report()
        assert timings.certify == cert["seconds"] > 0.0
        assert 0.0 < timings.certify / timings.total < 1.0

    def test_sdc_campaign_cases_certify_every_run(self):
        case = run_case("sdc", mk, "CC", "memflip-single")
        ledger_only = mk()
        ledger_only.attach_integrity(IntegrityLedger())
        ledger_only.attach_checkpoints(CheckpointManager(interval=1))
        algorithms.connected_components(ledger_only)
        assert case.certify_s > ledger_only.clocks.peak("certify")


class TestSdcCases:
    def test_unknown_algo_and_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_case("sdc", mk, "WAT", "memflip-single")
        with pytest.raises(ValueError, match="unknown sdc scenario"):
            run_case("sdc", mk, "BFS", "meteor-strike")

    def test_expected_scenarios_present(self):
        assert set(CAMPAIGNS["sdc"].scenarios) == {
            "memflip-single",
            "memflip-burst",
            "memflip-double",
        }

    @pytest.mark.parametrize("algo", ["BFS", "CC", "PR"])
    def test_single_flip_repairs_bit_identically(self, algo):
        case = run_case("sdc", mk, algo, "memflip-single")
        assert case.ok, case.error
        assert case.status == "repaired"
        assert case.detected
        assert case.values_equal and case.counters_equal and case.clocks_equal
        assert case.repairs == 1
        kinds = [e["kind"] for e in case.fault_events]
        assert "memflip" in kinds and "integrity" in kinds

    def test_flip_in_a_stacked_parent_window_is_caught_and_repaired(self):
        """BFS's ``parent`` is one rank-stacked buffer now; a flip in
        rank 1's window of it must still trip the ledger (the CRCs read
        the per-rank slices), roll back, and finish bit-identical — on
        stacked state again."""
        lm = mk().ctx(1).localmap
        window_bytes = 8 * (lm.n_row + lm.n_col)
        # windows are hashed in sorted-name order: level, parent
        spec = FaultSpec("memflip", 2, rank=1, bit=8 * window_bytes + 13)

        def runner(engine, resume=False):
            return algorithms.bfs(engine, root=0, resume=resume)

        def guarded():
            engine = mk()
            engine.attach_integrity(IntegrityLedger())
            engine.attach_checkpoints(CheckpointManager(interval=1))
            return engine

        ref_engine = guarded()
        ref = runner(ref_engine)
        engine = guarded()
        injector = engine.attach_faults(FaultPlan([spec]))
        res = drive_elastic(runner, engine)
        flip = next(e for e in injector.events if e.kind == "memflip")
        assert flip.as_dict()["rank"] == 1
        assert res.extra["elastic"]["resumes"] == 1
        assert "integrity" in [e["kind"] for e in engine.fault_events]
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(engine.clocks.clock, ref_engine.clocks.clock)
        assert engine.counters.summary() == ref_engine.counters.summary()
        assert_state_is_stacked(engine)

    @pytest.mark.parametrize(
        "name,guarded,grade",
        [
            ("tele", True, "repaired"),
            ("tele", False, "diverged"),
        ],
    )
    def test_pagerank_operand_flip_grades(self, name, guarded, grade):
        """Pins how the campaigns' grading classifies a planned memflip
        into a personalized PageRank's static operand ``tele``
        (``run_case``'s rule: different values are ``diverged``, else
        ``repaired`` after a resume, else ``completed``).  With a ledger
        it is caught and repaired.  Without one it reaches the answer:
        the dangling share is spread by ``tele`` every iteration, so the
        answer is silently wrong.  The degrees are graph structure, not
        state (``Fleet.cell_degrees``), so no memflip reaches them."""
        lm = mk().ctx(1).localmap
        window_bytes = 8 * (lm.n_row + lm.n_col)
        # sorted-name order: pr, tele; an exponent bit of the first
        # column ghost of the chosen array
        before = {"pr": 0, "tele": 1}[name]
        bit = 8 * (before * window_bytes + 8 * lm.n_row) + 62
        personalization = np.random.default_rng(5).random(GRAPH.n_vertices)

        def runner(engine, resume=False):
            return algorithms.pagerank(
                engine, iterations=6, personalization=personalization, resume=resume
            )

        def build():
            engine = mk()
            if guarded:
                engine.attach_integrity(IntegrityLedger())
                engine.attach_checkpoints(CheckpointManager(interval=1))
            return engine

        ref = runner(build())
        engine = build()
        engine.attach_faults(FaultPlan([FaultSpec("memflip", 2, rank=1, bit=bit)]))
        res = drive_elastic(runner, engine)
        resumes = res.extra["elastic"]["resumes"]
        if res.values.tobytes() != ref.values.tobytes():
            got = "diverged"
        else:
            got = "repaired" if resumes else "completed"
        assert got == grade
        assert ("integrity" in [e["kind"] for e in engine.fault_events]) == guarded

    def test_sssp_repairs_on_weighted_graph(self):
        case = run_case("sdc", mkw, "SSSP", "memflip-single")
        assert case.ok, case.error

    def test_double_flip_needs_two_repairs(self):
        case = run_case("sdc", mk, "PR", "memflip-double")
        assert case.ok, case.error
        assert case.repairs == 2

    def test_exhausted_budget_reports_unrepaired(self):
        # Four flips against a budget of 1: the second detection must
        # turn fatal instead of looping forever.
        plan = FaultPlan(
            [
                FaultSpec("memflip", s, rank=1, bit=11 + s)
                for s in (2, 3, 4, 5)
            ]
        )
        case = run_case(
            "sdc", mk, "PR", "custom", plan=plan, repair_budget=1
        )
        assert case.status == "unrepaired"
        assert case.detected  # loud failure, not silent corruption
        assert "budget exhausted" in case.error
        assert not case.ok


class TestSdcCampaign:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_full_campaign_green_on_both_executors(self, mode):
        """The whole campaign, with ``map_ranks`` visiting the ranks
        forward and in reverse."""
        with rank_order(MODES[mode]):
            report = run_campaign("sdc", mk, make_weighted_engine=mkw)
        assert report["schema"] == "repro.faults.sdc.v1"
        assert report["total"] == 12  # 3 scenarios x BFS/CC/PR/SSSP
        assert report["failed"] == 0
        assert report["undetected"] == 0
        assert report["unrepaired"] == 0
        assert report["skipped"] == []
        # single + burst: 1 repair each x 4 algos; double: 2 x 4.
        assert report["repairs"] == 16

    def test_weighted_algos_skip_loudly_without_weighted_factory(self):
        report = run_campaign(
            "sdc", mk, algos=("BFS", "SSSP"), scenarios=("memflip-single",)
        )
        assert report["total"] == 1
        assert report["skipped"] == [
            {"scenario": "memflip-single", "algo": "SSSP"}
        ]


class TestSdcCLI:
    ARGS = [
        "faults",
        "--sdc",
        "--dataset",
        "FR",
        "--target-edges",
        "4096",
        "--algos",
        "BFS",
        "--scenario",
        "memflip-single",
    ]

    def test_sdc_campaign_exits_zero(self, capsys):
        rc = main(self.ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "memflip-single" in out
        assert "repaired" in out
        assert "0 failed" in out

    def test_sdc_report_written_to_disk(self, tmp_path, capsys):
        out_path = tmp_path / "sdc.json"
        rc = main(self.ARGS + ["--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.faults.sdc.v1"
        assert report["failed"] == 0
        assert report["cases"][0]["status"] == "repaired"
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sdc", "--elastic"],
            ["--sdc", "--autoscale"],
            ["--elastic", "--autoscale"],
        ],
    )
    def test_campaign_flags_mutually_exclusive(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faults"] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "not allowed with argument" in err

    def test_foreign_scenario_rejected_in_sdc_mode(self, capsys):
        rc = main(
            ["faults", "--sdc", "--scenario", "chronic-straggler-demote"]
        )
        assert rc == 2
        out = capsys.readouterr().out
        assert "not a --sdc scenario" in out
