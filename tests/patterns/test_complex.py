"""2.5D complex-reduction helper tests (paper §3.3.3)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns.complex import (
    _pair_order,
    build_histogram,
    merge_histograms,
    owner_chunks,
    owner_of_vertex,
    select_mode,
)


class TestHistogram:
    def test_counts_pairs(self):
        src = np.array([0, 0, 0, 1, 1])
        lab = np.array([5.0, 5.0, 7.0, 5.0, 5.0])
        h = build_histogram(src, lab)
        as_dict = {(int(t["gid"]), float(t["label"])): int(t["count"]) for t in h}
        assert as_dict == {(0, 5.0): 2, (0, 7.0): 1, (1, 5.0): 2}

    def test_empty(self):
        h = build_histogram(np.empty(0), np.empty(0))
        assert h.size == 0

    def test_merge_sums_counts(self):
        a = build_histogram(np.array([0, 0]), np.array([1.0, 2.0]))
        b = build_histogram(np.array([0, 1]), np.array([1.0, 1.0]))
        merged = merge_histograms(np.concatenate([a, b]))
        as_dict = {
            (int(t["gid"]), float(t["label"])): int(t["count"]) for t in merged
        }
        assert as_dict == {(0, 1.0): 2, (0, 2.0): 1, (1, 1.0): 1}

    def test_merge_empty(self):
        assert merge_histograms(build_histogram(np.empty(0), np.empty(0))).size == 0

    @settings(max_examples=60, deadline=None)
    @given(
        # a small key space, so keys repeat; min_size=0 covers no edges
        pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(-3, 5)), max_size=80),
        cut=st.floats(0.0, 1.0),
    )
    def test_property_matches_counter(self, pairs, cut):
        """``build_histogram`` is a ``Counter`` of ``(gid, label)``
        pairs, one sorted triple per key; ``merge_histograms`` over two
        halves' histograms, concatenated, gives the same triples."""

        def as_counter(h):
            keys = list(zip(h["gid"].tolist(), h["label"].tolist()))
            assert keys == sorted(set(keys))  # one triple per key, in key order
            return Counter(dict(zip(keys, h["count"].tolist())))

        src = np.array([g for g, _ in pairs], dtype=np.int64)
        lab = np.array([lab for _, lab in pairs], dtype=np.float64)
        want = Counter((g, float(lab)) for g, lab in pairs)
        assert as_counter(build_histogram(src, lab)) == want
        k = int(cut * len(pairs))
        halves = [build_histogram(src[:k], lab[:k]), build_histogram(src[k:], lab[k:])]
        assert as_counter(merge_histograms(np.concatenate(halves))) == want


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), integral=st.booleans(), small=st.booleans())
    def test_pair_order_is_lexsort(self, data, integral, small):
        """The composite-key order is ``np.lexsort``'s permutation,
        whatever the labels: integral (the fast path, ``-0.0`` next to
        ``0.0`` included), fractional, infinite, NaN or too wide — and
        equal pairs keep their order, as the run-length encoding's first
        entry of a run must."""
        label = (
            st.sampled_from([-2.0, -0.0, 0.0, 1.0, 2.0])
            if integral
            else st.one_of(
                st.integers(-2, 2).map(float),
                st.sampled_from([0.5, np.inf, -np.inf, np.nan, 2.0**60]),
            )
        )
        key = st.integers(0, 6) if small else st.integers(-(2**40), 2**40)
        pairs = data.draw(st.lists(st.tuples(key, label), max_size=200))
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        labels = np.array([lab for _, lab in pairs], dtype=np.float64)
        want = np.lexsort((labels, keys))
        assert np.array_equal(_pair_order(keys, labels), want)


class TestModeSelection:
    def test_max_count_wins(self):
        h = build_histogram(
            np.array([0, 0, 0]), np.array([3.0, 3.0, 9.0])
        )
        gids, labels = select_mode(h)
        assert gids.tolist() == [0]
        assert labels.tolist() == [3.0]

    def test_tie_breaks_to_smaller_label(self):
        h = build_histogram(np.array([4, 4]), np.array([9.0, 2.0]))
        gids, labels = select_mode(h)
        assert labels.tolist() == [2.0]

    def test_multiple_vertices(self):
        h = build_histogram(
            np.array([0, 0, 1, 1, 1]), np.array([1.0, 1.0, 8.0, 8.0, 2.0])
        )
        gids, labels = select_mode(h)
        assert dict(zip(gids.tolist(), labels.tolist())) == {0: 1.0, 1: 8.0}

    def test_empty(self):
        gids, labels = select_mode(merge_histograms(build_histogram(np.empty(0), np.empty(0))))
        assert gids.size == 0


class TestOwnership:
    def test_chunks_partition_range(self):
        bounds = owner_chunks(10, 30, 4)
        assert bounds[0] == 10 and bounds[-1] == 30
        assert np.all(np.diff(bounds) >= 0)
        assert bounds.size == 5

    def test_ragged_chunks(self):
        bounds = owner_chunks(0, 10, 3)
        assert np.array_equal(np.diff(bounds), [4, 3, 3])

    def test_owner_lookup(self):
        bounds = owner_chunks(0, 12, 3)  # [0,4,8,12]
        owners = owner_of_vertex(np.array([0, 3, 4, 11]), bounds)
        assert owners.tolist() == [0, 0, 1, 2]

    def test_every_vertex_owned_once(self):
        bounds = owner_chunks(7, 29, 5)
        gids = np.arange(7, 29)
        owners = owner_of_vertex(gids, bounds)
        assert owners.min() >= 0 and owners.max() < 5
        # contiguous non-decreasing ownership
        assert np.all(np.diff(owners) >= 0)


# ---------------------------------------------------------------------
# The pattern itself: complex_reduce on hostile shapes
# ---------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.algorithms import greedy_coloring  # noqa: E402
from repro.algorithms.coloring import is_proper_coloring  # noqa: E402
from repro.comm.grid import Grid2D  # noqa: E402
from repro.core.engine import Engine  # noqa: E402
from repro.core.program import init_vertex_state  # noqa: E402
from repro.graph import Graph  # noqa: E402
from repro.patterns.complex import (  # noqa: E402
    complex_reduce,
    h_index_from_histograms,
    neighbor_histograms,
)
from repro.reference import serial  # noqa: E402

from ..algorithms.test_kcore import nx_core_numbers  # noqa: E402
from ..conftest import record_stages, scatter_global  # noqa: E402

#: 1 x p, p x 1, non-divisible, and (with n < 16) more ranks than vertices
HOSTILE_GRIDS = [
    Grid2D(R=1, C=4),
    Grid2D(R=4, C=1),
    Grid2D(R=3, C=5),
    Grid2D(R=4, C=4),
]


@st.composite
def small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=4 * n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(vertex, min_size=m, max_size=m))
    dst = draw(st.lists(vertex, min_size=m, max_size=m))
    return Graph.from_edges(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n
    )


def _all_rows(engine):
    return np.flatnonzero(engine.fleet.row_mask)


def _assert_replicas_agree(engine, name, want):
    """Row windows and ghosts on every rank hold the global state."""
    for ctx in engine:
        local = scatter_global(engine.partition, want.astype(np.float64), ctx.rank)
        assert np.array_equal(ctx.get(name), local), ctx.rank


class TestComplexReduce:
    @settings(max_examples=25, deadline=None)
    @given(g=small_graph(), grid=st.sampled_from(HOSTILE_GRIDS))
    def test_mode_selection_is_serial_label_propagation(self, g, grid):
        engine = Engine(g, grid=grid)
        init_vertex_state(engine, "label", lambda gids: gids)
        before = np.arange(g.n_vertices)
        for step in (1, 2, 3):
            changed_rows, n_changed = complex_reduce(
                engine,
                "label",
                neighbor_histograms(engine, "label", _all_rows(engine)),
                select_mode,
            )
            want = serial.label_propagation(g, iterations=step)
            assert np.array_equal(engine.gather("label"), want)
            _assert_replicas_agree(engine, "label", want)
            # exact changed-row detection, on every rank of the row group
            assert n_changed == np.count_nonzero(want != before)
            rel = engine.partition.to_relabeled_order(want != before)
            for ctx, got in zip(engine, engine.fleet.split(changed_rows)):
                lm = ctx.localmap
                rows = np.flatnonzero(rel[lm.row_start : lm.row_stop])
                rows += lm.row_offset
                assert np.array_equal(np.sort(got), rows)
            before = want

    @settings(max_examples=25, deadline=None)
    @given(g=small_graph(), grid=st.sampled_from(HOSTILE_GRIDS))
    def test_h_index_under_min_converges_to_core_numbers(self, g, grid):
        engine = Engine(g, grid=grid)
        engine.alloc("core")
        engine.fleet.stacked("core")[...] = engine.fleet.cell_degrees()
        n_changed = 1
        while n_changed:
            _, n_changed = complex_reduce(
                engine,
                "core",
                neighbor_histograms(engine, "core", _all_rows(engine)),
                h_index_from_histograms,
                combine=np.minimum,
            )
        want = nx_core_numbers(g)
        assert np.array_equal(engine.gather("core"), want)
        _assert_replicas_agree(engine, "core", want)

    @settings(max_examples=25, deadline=None)
    @given(g=small_graph(), grid=st.sampled_from(HOSTILE_GRIDS))
    def test_smallest_absent_color_is_a_proper_coloring(self, g, grid):
        res = greedy_coloring(Engine(g, grid=grid))
        assert np.array_equal(res.values, serial.serial_jones_plassmann(g))
        assert is_proper_coloring(g, res.values)


class TestOwnerRouting:
    """What each owner receives, not only what the state ends as: one
    merge serves every owner, so a triple routed to the wrong member of
    its row group would leave every value, clock and counter as it is."""

    @pytest.mark.parametrize("R,C", [(2, 4), (4, 4), (3, 5)])
    @pytest.mark.parametrize("algo", ["lp", "kcore", "coloring"])
    def test_every_owner_receives_only_its_chunk(self, monkeypatch, R, C, algo):
        from repro.algorithms import core_numbers, label_propagation
        from repro.comm.collectives import Communicator
        from repro.graph import rmat
        from repro.patterns.complex import TRIPLE_DTYPE

        engine = Engine(rmat(9, seed=5), grid=Grid2D(R=R, C=C))
        stages = []
        exchange = Communicator.alltoallv_stage

        def recording(self, groups, send, counts, *args, **kwargs):
            received, sizes = exchange(self, groups, send, counts, *args, **kwargs)
            if received.dtype == TRIPLE_DTYPE:
                stages.append((received, np.asarray(sizes)))
            return received, sizes

        monkeypatch.setattr(Communicator, "alltoallv_stage", recording)
        {
            "lp": lambda: label_propagation(engine, iterations=3),
            "kcore": lambda: core_numbers(engine),
            "coloring": lambda: greedy_coloring(engine, max_rounds=3),
        }[algo]()

        part = engine.partition
        bounds = {
            rank: owner_chunks(*part.row_range(rank // R), R)[rank % R : rank % R + 2]
            for rank in range(R * C)
        }
        assert stages and sum(int(sizes.sum()) for _, sizes in stages) > 0
        for received, sizes in stages:
            ends = np.cumsum(sizes)
            for rank, (lo, hi) in bounds.items():
                gids = received["gid"][ends[rank] - sizes[rank] : ends[rank]]
                assert ((gids >= lo) & (gids < hi)).all(), (rank, lo, hi, gids)


#: 1 x p, p x 1, non-divisible and R != C
SEAM_GRIDS = HOSTILE_GRIDS + [Grid2D(R=2, C=4), Grid2D(R=2, C=2)]


@settings(max_examples=40, deadline=None)
@given(g=small_graph(), grid=st.sampled_from(SEAM_GRIDS), labels=st.integers(1, 6))
def test_complex_reduce_hands_each_owner_its_chunk(g, grid, labels):
    """What each rank is handed, stage by stage: the k-th member of a
    row group receives every member's triples of its k-th chunk of the
    group's rows, senders in group order, each sender's in its own
    order; each owner sends the winners of its merged triples, GID
    ascending; every member applies them in received order and returns
    the rows whose value moved, rank-major; each rank then sends the
    moved rows in its column range, in that order, to its column
    group."""
    from repro.patterns.complex import TRIPLE_DTYPE

    engine = Engine(g, grid=grid)
    part, fleet = engine.partition, engine.fleet
    init_vertex_state(engine, "label", lambda gids: gids % labels)
    triples, counts = neighbor_histograms(engine, "label", _all_rows(engine))
    mine = np.split(triples, np.cumsum(counts)[:-1])
    old = part.to_relabeled_order(engine.gather("label"))
    with pytest.MonkeyPatch.context() as patch:
        stages = record_stages(patch)
        rows, n_changed = complex_reduce(engine, "label", (triples, counts), select_mode)

    assert [(s["kind"], s["groups"]) for s in stages] == [
        ("alltoallv", [m for _, m in engine.row_groups()]),
        ("allgatherv", [m for _, m in engine.row_groups()]),
        ("allgatherv", [m for _, m in engine.col_groups()]),
    ]
    routed, winners, refreshed = stages
    new, moved = old.copy(), [None] * engine.n_ranks
    for id_r, members in engine.row_groups():
        bounds = owner_chunks(*part.row_range(id_r), len(members))
        for i, r in enumerate(members):
            owner = owner_of_vertex(mine[r]["gid"], bounds)
            for k in range(len(members)):
                assert routed["sends"][r][k].tobytes() == mine[r][owner == k].tobytes()
        received = []
        for k, owner in enumerate(members):
            got = routed["received"][owner]
            assert got.dtype == TRIPLE_DTYPE
            assert got.tobytes() == b"".join(routed["sends"][r][k].tobytes() for r in members)
            gids, vals = select_mode(merge_histograms(got))
            sent = winners["sends"][owner]
            assert sent["gid"].tolist() == gids.tolist()
            assert sent["val"].tobytes() == vals.astype(np.float64).tobytes()
            received.append(sent)
        received = np.concatenate([np.empty(0, dtype=winners["sends"][0].dtype), *received])
        changed = received["gid"][received["val"] != old[received["gid"]]]
        new[received["gid"]] = received["val"]
        for r in members:
            moved[r] = changed
    assert n_changed == sum(moved[m[0]].size for _, m in engine.row_groups())
    want = [engine.ctx(r).localmap.row_lid(moved[r]) for r in range(engine.n_ranks)]
    assert rows.tolist() == fleet.stack(want)[0].tolist()
    for ctx in engine:
        lm = ctx.localmap
        rows_moved = moved[ctx.rank]
        ghosts = rows_moved[(rows_moved >= lm.col_start) & (rows_moved < lm.col_stop)]
        assert refreshed["sends"][ctx.rank]["gid"].tolist() == ghosts.tolist()
    _assert_replicas_agree(engine, "label", part.to_original_order(new))
