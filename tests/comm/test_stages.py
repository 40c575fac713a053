"""Stage calls against the per-group sequence of the same calls.

A ``*_stage`` call runs one collective in each of a stage's disjoint
groups.  The first tests hold a stage over many groups to the sequence
of one-group stages, one per group in group order — what issuing each
group's collective on its own would do.  Over random disjoint
partitions of ``p`` ranks (a stage need not cover every rank), random
clock states and random payloads — empty ones included — the two must
agree on the data, every clock lane, the counters by kind and the
split-phase handles; with a fault injector as the communicator's
guard, also on every recorded fault event and on what a crash leaves
behind.  The AllGatherv stage, which takes every rank's send data as
one rank-major array plus per-rank counts, is held so on the engine's
own row and column groups too.

The delivery contracts at the end hold every stage form — the five
stages and the split-phase ``start_*`` + ``wait`` forms — to an oracle
written from its docstring alone, per (sender, receiver): each
receiver's rows in order, each group's charge and counters, ranks in no
group never charged, and what a guard raising at a given group sees and
leaves behind.  ``tests/test_mutants.py`` names the mutants each kills.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AIMOS, GENERIC_PROFILE, CostModel, Topology
from repro.comm import BroadcastCall, Communicator, Grid2D, VirtualClocks, rank_major
from repro.comm.clocks import LANES
from repro.core.engine import Engine
from repro.graph import rmat
from repro.patterns.sparse import PAIR_DTYPE
from repro.faults import FaultPlan, FaultSpec, RankFailure
from repro.faults.injector import FaultInjector

KINDS = ("allreduce", "broadcast", "grouped_broadcast", "allgatherv")


@st.composite
def stages(draw):
    """``(p, groups, clock seed, payload seed, width)``: disjoint
    non-empty groups of a random subset of ``p`` ranks, in any order."""
    p = draw(st.integers(min_value=1, max_value=12))
    ranks = draw(st.permutations(range(p)))
    used = draw(st.integers(min_value=1, max_value=p))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(used - 1, 1)))))
    cuts = [c for c in cuts if c < used]
    bounds = [0] + cuts + [used]
    groups = [list(ranks[a:b]) for a, b in zip(bounds, bounds[1:])]
    seeds = draw(st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)))
    width = draw(st.integers(min_value=0, max_value=5))
    return p, groups, seeds[0], seeds[1], width


def _comm(p: int, clock_seed: int) -> Communicator:
    """A communicator whose clocks hold a random, uneven state."""
    clocks = VirtualClocks(p)
    rng = np.random.default_rng(clock_seed)
    for r in range(p):
        clocks.add_compute(r, float(rng.uniform(0.0, 1e-3)))
        clocks.add_stall(r, float(rng.choice([0.0, rng.uniform(0.0, 1e-3)])))
    clocks.sync_group([0], float(rng.uniform(0.0, 1e-4)))
    return Communicator(CostModel(AIMOS.gpu, Topology(AIMOS, p)), clocks)


def _payloads(kind: str, groups, seed: int, width: int):
    """Fresh per-group payloads (identical for identical arguments)."""
    rng = np.random.default_rng(seed)
    if kind == "allreduce":
        return [[rng.random(width) for _ in ranks] for ranks in groups]
    if kind == "allgatherv":
        return [[rng.random(int(rng.integers(0, width + 1))) for _ in ranks] for ranks in groups]
    calls = []
    for ranks in groups:
        windows = [rng.random(width) for _ in ranks]
        if kind == "broadcast":  # one call per group, from any member
            j = int(rng.integers(len(ranks)))
            calls.append(BroadcastCall(windows[j], windows[:j] + windows[j + 1 :]))
            continue
        n_calls = int(rng.integers(0, len(ranks) + 1))  # no calls: skipped
        calls.append(
            [
                BroadcastCall(windows[j], [w for i, w in enumerate(windows) if i != j])
                for j in rng.choice(len(ranks), size=n_calls, replace=False)
            ]
        )
    return calls


def _data(kind: str, payloads) -> list:
    """Every array the collective may have written, copied."""
    if kind == "broadcast":
        return [d.copy() for c in payloads for d in c.dests]
    if kind == "grouped_broadcast":
        return [d.copy() for calls in payloads for c in calls for d in c.dests]
    return [b.copy() for bufs in payloads for b in bufs]


def _stacked(comm, groups, payloads):
    """Per-group member buffers as the stage's rank-major send data and
    per-rank counts; a rank in no group sends nothing."""
    by_rank = [payloads[0][0][:0]] * comm.clocks.n_ranks
    for ranks, bufs in zip(groups, payloads):
        for r, buf in zip(ranks, bufs):
            by_rank[r] = buf
    return rank_major(by_rank)


def _stage(comm, kind: str, groups, payloads):
    if kind == "allgatherv":
        return comm.allgatherv_stage(groups, *_stacked(comm, groups, payloads))
    return getattr(comm, f"{kind}_stage")(groups, payloads)


def _per_group(comm, kind: str, groups, payloads):
    """The oracle: one one-group stage per group, in group order."""
    out = []
    for ranks, payload in zip(groups, payloads):
        out += _stage(comm, kind, [ranks], [payload]) or []
    return out


def _assert_same(a, b):
    for lane in LANES:
        assert np.array_equal(getattr(a.clocks, lane), getattr(b.clocks, lane)), lane
    assert a.counters.summary() == b.counters.summary()


@settings(max_examples=80, deadline=None)
@given(case=stages(), kind=st.sampled_from(KINDS))
def test_stage_equals_the_per_group_sequence(case, kind):
    p, groups, clock_seed, seed, width = case
    staged, oracle = _comm(p, clock_seed), _comm(p, clock_seed)
    pay_a, pay_b = _payloads(kind, groups, seed, width), _payloads(kind, groups, seed, width)
    got = _stage(staged, kind, groups, pay_a)
    want = _per_group(oracle, kind, groups, pay_b)
    if kind == "allgatherv":
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    for x, y in zip(_data(kind, pay_a), _data(kind, pay_b)):
        assert np.array_equal(x, y)
    _assert_same(staged, oracle)


@settings(max_examples=60, deadline=None)
@given(case=stages())
def test_split_phase_stage_equals_per_group_issue(case):
    p, groups, clock_seed, seed, width = case
    staged, oracle = _comm(p, clock_seed), _comm(p, clock_seed)
    payloads = _payloads("allgatherv", groups, seed, width)
    got = staged.start_allgatherv_stage(groups, *_stacked(staged, groups, payloads))[1]
    want = [
        oracle.start_allgatherv_stage([ranks], *_stacked(oracle, [ranks], [bufs]))[1][0]
        for ranks, bufs in zip(groups, _payloads("allgatherv", groups, seed, width))
    ]
    _assert_same(staged, oracle)  # barriered, nothing charged yet
    for h, g in zip(got, want):
        assert (h.kind, h.ranks) == (g.kind, g.ranks)
        assert np.array_equal(h.result, g.result)
        assert np.array_equal(h.inflight.idx, g.inflight.idx)
        assert h.inflight.issued_at == g.inflight.issued_at
        assert h.inflight.comm_seconds == g.inflight.comm_seconds
    rng = np.random.default_rng(seed)
    for h, g in zip(got, want):
        dt = float(rng.uniform(0.0, 1e-4))
        for comm, handle in ((staged, h), (oracle, g)):
            comm.clocks.add_compute(handle.ranks[0], dt)
            comm.wait(handle)
    _assert_same(staged, oracle)


@settings(max_examples=60, deadline=None)
@given(case=stages())
def test_split_phase_allreduce_stage_waited_at_once_is_the_blocking_stage(case):
    """``start_allreduce_stage`` moves the data at issue, one handle per
    group; waiting on every handle right away charges what the blocking
    stage charges, bit for bit."""
    p, groups, clock_seed, seed, width = case
    staged, blocking = _comm(p, clock_seed), _comm(p, clock_seed)
    pay_a = _payloads("allreduce", groups, seed, width)
    pay_b = _payloads("allreduce", groups, seed, width)
    handles = staged.start_allreduce_stage(groups, pay_a, op="max")
    assert [(h.kind, list(h.ranks)) for h in handles] == [
        ("allreduce", g) for g in groups
    ]
    blocking.allreduce_stage(groups, pay_b, op="max")
    for x, y in zip(_data("allreduce", pay_a), _data("allreduce", pay_b)):
        assert np.array_equal(x, y)
    for handle in handles:
        staged.wait(handle)
    _assert_same(staged, blocking)


def _resilient(p: int, clock_seed: int, plan: FaultPlan) -> Communicator:
    injector = FaultInjector(plan)
    injector.max_retries = 3
    comm = _comm(p, clock_seed)
    comm.guard = injector.guard
    return comm


@st.composite
def fault_plans(draw, p: int):
    """A handful of superstep-1 faults on random ranks and kinds."""
    specs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["transient", "corruption", "straggler", "crash"]))
        rank = draw(st.integers(min_value=0, max_value=p - 1))
        coll = draw(st.sampled_from([None, *KINDS]))
        if kind == "straggler":
            specs.append(FaultSpec(kind, 1, rank=rank, collective=coll, delay_s=1e-3))
        elif kind == "crash":
            specs.append(FaultSpec(kind, 1, rank=rank, collective=coll))
        else:
            count = draw(st.integers(min_value=1, max_value=5))  # > 3: fatal
            specs.append(
                FaultSpec(kind, 1, rank=draw(st.sampled_from([None, rank])),
                          collective=coll, count=count, bit=rank)
            )
    return FaultPlan(specs)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), case=stages(), kind=st.sampled_from(KINDS))
def test_resilient_stage_guards_each_group_as_its_own_call(data, case, kind):
    p, groups, clock_seed, seed, width = case
    plan = data.draw(fault_plans(p))
    staged, oracle = _resilient(p, clock_seed, plan), _resilient(p, clock_seed, plan)
    pay_a, pay_b = _payloads(kind, groups, seed, width), _payloads(kind, groups, seed, width)
    outcomes = []
    for comm, run in ((staged, _stage), (oracle, _per_group)):
        try:
            run(comm, kind, groups, pay_a if comm is staged else pay_b)
            outcomes.append(None)
        except RankFailure as exc:
            outcomes.append((exc.rank, exc.fault_kind))
    assert outcomes[0] == outcomes[1]
    assert staged.guard.__self__.events == oracle.guard.__self__.events
    for x, y in zip(_data(kind, pay_a), _data(kind, pay_b)):
        assert np.array_equal(x, y)
    _assert_same(staged, oracle)


def test_per_group_call_is_a_one_group_stage():
    a, b = _comm(6, 3), _comm(6, 3)
    bufs_a = [np.arange(4.0) * r for r in range(3)]
    bufs_b = [x.copy() for x in bufs_a]
    a.allreduce([4, 0, 2], bufs_a, op="max")
    b.allreduce_stage([[4, 0, 2]], [bufs_b], op="max")
    assert all(np.array_equal(x, y) for x, y in zip(bufs_a, bufs_b))
    _assert_same(a, b)


@pytest.mark.parametrize(
    "groups", [[[0, 1], [1, 2]], [[0], []], [[3, 2], [2]]], ids=["overlap", "empty", "shared"]
)
def test_groups_must_be_disjoint_and_non_empty(groups):
    comm = _comm(4, 0)
    bufs = [[np.zeros(2) for _ in ranks] for ranks in groups]
    before = comm.clocks.state_dict()
    with pytest.raises(ValueError, match="must be disjoint, none empty"):
        comm.allreduce_stage(groups, bufs)
    assert np.array_equal(comm.clocks.clock, before["clock"])
    assert comm.counters.summary() == {}


def test_payloads_must_match_groups():
    comm = _comm(4, 0)
    with pytest.raises(ValueError, match="2 groups but 1 payloads"):
        comm.allreduce_stage([[0, 1], [2, 3]], [[np.zeros(1), np.zeros(1)]])


def test_counts_must_cover_the_send_data():
    comm = _comm(4, 0)
    with pytest.raises(ValueError, match="counts sum to 3 rows, but the send data has 4"):
        comm.allgatherv_stage([[0, 1], [2, 3]], np.zeros(4), np.array([1, 1, 1, 0]))
    with pytest.raises(ValueError, match="per-rank sizes >= 0"):
        comm.allgatherv_stage([[0, 1]], np.zeros(1), np.array([2, -1]))
    assert comm.counters.summary() == {}


def test_alltoallv_counts_must_match_the_groups():
    """A ranks x members count table, one column per member of every
    group, covering the send rows: refused before any group moves."""
    comm = _comm(4, 0)
    two = np.ones((4, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="per-rank sizes >= 0"):
        comm.alltoallv_stage([[0, 1], [2, 3]], np.zeros(4), np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError, match="need distinct ranks with counts .*, 2 each"):
        comm.alltoallv_stage([[0, 1], [2]], np.zeros(8), two)
    with pytest.raises(ValueError, match="need distinct ranks with counts"):
        comm.alltoallv_stage([[0, 4]], np.zeros(8), two)
    with pytest.raises(ValueError, match="counts sum to 8 rows, but the send data has 7"):
        comm.alltoallv_stage([[0, 1], [2, 3]], np.zeros(7), two)
    assert comm.counters.summary() == {}


def test_group_set_is_indexed_once():
    comm = _comm(4, 0)
    for _ in range(3):
        comm.allreduce_stage([[0, 1], [2, 3]], [[np.ones(1)] * 2, [np.ones(1)] * 2])
    assert list(comm._stages) == [((0, 1), (2, 3))]


def test_a_group_that_raises_leaves_earlier_groups_charged():
    """As one call per group would: the groups before a failing one
    moved, counted and were charged; nothing after it was."""
    staged, oracle = _comm(4, 5), _comm(4, 5)
    good = [np.ones(2), np.ones(2)]
    bad = [np.ones(2), np.ones(3)]  # shape skew: the core raises
    with pytest.raises(ValueError, match="disagree"):
        staged.allreduce_stage([[0, 1], [2, 3]], [good, bad])
    oracle.allreduce([0, 1], [np.ones(2), np.ones(2)])
    _assert_same(staged, oracle)


def test_allreduce_of_parts_is_the_allreduce_of_their_concatenation():
    """A group's buffers given as a tuple of parts (the members'
    windows, then their tail words, as a dense pull carries them) are
    reduced, costed and counted as the parts' concatenation, each part
    gets its share back, and the guard sees every part; a part short of
    a member or skewed across members is refused, and a part of its own
    dtype or shape is reduced as it is."""
    parted, whole = _comm(4, 3), _comm(4, 3)
    rng = np.random.default_rng(7)
    parts = [tuple([rng.random(n) for _ in range(2)] for n in (5, 1)) for _ in range(2)]
    joined = [[np.concatenate(m) for m in zip(*group)] for group in parts]
    seen = []
    parted.guard = lambda clocks, kind, ranks, payload: seen.append(len(payload))
    parted.allreduce_stage([[0, 1], [2, 3]], parts)
    whole.allreduce_stage([[0, 1], [2, 3]], joined)
    _assert_same(parted, whole)
    for group, want in zip(parts, joined):
        for m, w in zip(zip(*group), want):
            assert np.concatenate(m).tobytes() == w.tobytes()
    assert seen == [4, 4]
    windows = [np.ones(2), np.ones(2)]
    with pytest.raises(ValueError, match="disagree"):
        parted.allreduce([0, 1], (windows, [np.ones(1), np.ones(2)]))
    with pytest.raises(ValueError, match="mismatch"):  # a member short
        parted.allreduce([0, 1], (windows, [np.ones(1)]))
    # each part is reduced in its own dtype and shape: nothing is cast
    big = 2**60 + 1
    mixed = tuple(
        [make() for _ in range(2)]
        for make in (lambda: np.full(2, 0.5), lambda: np.array([big]), lambda: np.ones((1, 2)))
    )
    parted.allreduce([0, 1], mixed)
    for window, tail, wide in zip(*mixed):
        assert window.tolist() == [1.0, 1.0] and wide.tolist() == [[2.0, 2.0]]
        assert tail.dtype == np.int64 and tail.tolist() == [2 * big]


@settings(max_examples=60, deadline=None)
@given(case=stages(), t=st.integers(1, 3), generic=st.booleans())
def test_a_tail_rides_the_grouped_broadcast_stage(case, t, generic):
    """Every member's ``t`` tail words ride its group's grouped
    Broadcasts as one more call, an AllGather of ``k t`` words: each
    group's rows arrive summed in member order (words whose sum shows
    the order); the group pays the larger of the
    Broadcasts and that AllGather (a generic substrate, no group calls:
    their sum; a group with no Broadcast call: the AllGather alone),
    and is counted with the AllGather's transfers and bytes; the guard
    checks the roots' payloads, then the members' words."""
    p, groups, clock_seed, seed, width = case
    staged, oracle = _comm(p, clock_seed), _comm(p, clock_seed)
    if generic:
        for comm in (staged, oracle):
            comm.costmodel = CostModel(AIMOS.gpu, Topology(AIMOS, p), GENERIC_PROFILE)
    pay_a = _payloads("grouped_broadcast", groups, seed, width)
    pay_b = _payloads("grouped_broadcast", groups, seed, width)
    # words whose member-order float sum differs from other orders
    rng = np.random.default_rng(seed)
    tail = np.zeros((p, t))
    for ranks in groups:
        reveal = np.resize([1e16, -1e16, 1.0, 2.0**-30], len(ranks))
        tail[ranks] = reveal[:, None] * rng.integers(1, 4, size=(len(ranks), t))
    seen = []
    staged.guard = lambda clocks, kind, ranks, payload: seen.append(payload)
    sums = staged.grouped_broadcast_stage(groups, pay_a, tail=tail)

    cost = oracle.costmodel
    for ranks, calls in zip(groups, pay_b):
        k, sizes = len(ranks), [c.src.nbytes for c in calls]
        for c in calls:
            for dest in c.dests:
                dest[...] = c.src
        bcast = cost.grouped_broadcast_time(ranks, sizes)
        gather = cost.allgather_time(ranks, k * t * 8)
        oracle.clocks.sync_group(ranks, bcast + gather if generic else max(bcast, gather))
        oracle.counters.record(
            "grouped_broadcast",
            serial_messages=(len(calls) + 1) * (k - 1) if generic else k - 1,
            transfers=sum(len(c.dests) for c in calls) + k * (k - 1),
            nbytes=sum(c.src.nbytes * len(c.dests) for c in calls) + k * t * 8 * (k - 1),
        )
        summed = np.add.reduce(np.stack([tail[r] for r in ranks]), axis=0)
        for r in ranks:  # member order
            assert sums[r].tobytes() == summed.tobytes()
    for x, y in zip(_data("grouped_broadcast", pay_a), _data("grouped_broadcast", pay_b)):
        assert np.array_equal(x, y)
    _assert_same(staged, oracle)
    assert len(seen) == len(groups)
    for payload, ranks, calls in zip(seen, groups, pay_a):
        assert len(payload) == len(calls) + len(ranks)
        assert all(a is c.src for a, c in zip(payload, calls))
        assert [w.tolist() for w in payload[len(calls) :]] == [tail[r].tolist() for r in ranks]


# ----------------------------------------------------------------------
# the stacked AllGatherv stage on engine grids
# ----------------------------------------------------------------------
#: 1 x p, p x 1, prime p (5 and 7) and R != C among them.
ENGINE_GRIDS = [
    Grid2D(R=1, C=1),
    Grid2D(R=2, C=2),
    Grid2D(R=1, C=4),
    Grid2D(R=4, C=1),
    Grid2D(R=1, C=5),
    Grid2D(R=7, C=1),
    Grid2D(R=3, C=2),
    Grid2D(R=2, C=4),
]

GRAPH = rmat(6, seed=3)


def _grid_comms(grid: Grid2D, clock_seed: int):
    """Two engines' communicators on ``grid`` with the same uneven
    clocks, and the engine's row and column groups."""
    comms = []
    for _ in range(2):
        engine = Engine(GRAPH, grid=grid)
        rng = np.random.default_rng(clock_seed)
        engine.clocks.add_compute_all(rng.uniform(0.0, 1e-3, size=grid.n_ranks))
        comms.append(engine.comm)
    groups = {
        "row": [ranks for _, ranks in engine.row_groups()],
        "col": [ranks for _, ranks in engine.col_groups()],
    }
    return comms, groups


def _ragged(p: int, seed: int, structured: bool) -> list[np.ndarray]:
    """One send buffer per rank: empty on about half the ranks, up to
    six entries on the rest, ``PAIR_DTYPE`` or ``float64``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(p):
        n = int(rng.integers(1, 7)) if rng.random() < 0.5 else 0
        if structured:
            buf = np.empty(n, dtype=PAIR_DTYPE)
            buf["gid"] = rng.integers(0, 1000, size=n)
            buf["val"] = rng.random(n)
        else:
            buf = rng.random(n)
        out.append(buf)
    return out


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from(ENGINE_GRIDS),
    axis=st.sampled_from(["row", "col"]),
    structured=st.booleans(),
    split_phase=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_stacked_allgatherv_stage_equals_the_per_group_loop(
    grid, axis, structured, split_phase, seed
):
    """Results, counters and all seven clock lanes equal the per-group
    loop of one-group stages over the member buffers — blocking, and
    split-phase after every handle is waited."""
    (staged, oracle), groups = _grid_comms(grid, seed)
    groups = groups[axis]
    bufs = _ragged(grid.n_ranks, seed, structured)

    def one_group(ranks):
        mine = [b if r in ranks else b[:0] for r, b in enumerate(bufs)]
        return [ranks], *rank_major(mine)

    if split_phase:
        got, handles = staged.start_allgatherv_stage(groups, *rank_major(bufs), nic_sharing=2)
        assert all(h.result is result for h, result in zip(handles, got))
        want, pending = [], []
        for ranks in groups:
            (result,), (handle,) = oracle.start_allgatherv_stage(*one_group(ranks), nic_sharing=2)
            want.append(result)
            pending.append(handle)
        for handle, other in zip(handles, pending):
            assert handle.inflight.issued_at == other.inflight.issued_at
            assert handle.inflight.comm_seconds == other.inflight.comm_seconds
            staged.wait(handle)
            oracle.wait(other)
    else:
        got = staged.allgatherv_stage(groups, *rank_major(bufs), nic_sharing=2)
        want = [oracle.allgatherv_stage(*one_group(ranks), nic_sharing=2)[0] for ranks in groups]
    assert len(got) == len(want) == len(groups)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    _assert_same(staged, oracle)


@pytest.mark.parametrize("split_phase", [False, True], ids=["blocking", "split-phase"])
@pytest.mark.parametrize("fail_at", [0, 1, 3])
def test_a_guard_raising_at_group_g_leaves_groups_before_it_moved(fail_at, split_phase):
    """A guard that raises at group ``g``: the groups before ``g`` moved,
    were counted and charged (on ``wait`` for split-phase), as one call
    per group leaves them; ``g`` and the groups after it were not."""
    (staged, oracle), groups = _grid_comms(Grid2D(R=2, C=4), 11)
    groups = groups["row"]
    bufs = _ragged(8, 5, structured=True)

    def guard(clocks, kind, ranks, payload):
        assert kind == "allgatherv"
        # the members' send slices (blocking) or the received data
        # (split-phase, checked at wait): the same bytes
        assert b"".join(p.tobytes() for p in payload) == b"".join(
            bufs[r].tobytes() for r in ranks
        )
        if list(ranks) == groups[fail_at]:
            raise RankFailure(ranks[0], 1, kind, fault_kind="crash")

    staged.guard = guard
    with pytest.raises(RankFailure):
        if split_phase:
            for handle in staged.start_allgatherv_stage(groups, *rank_major(bufs))[1]:
                staged.wait(handle)
        else:
            staged.allgatherv_stage(groups, *rank_major(bufs))
    def one_group(ranks):
        mine = [b if r in ranks else b[:0] for r, b in enumerate(bufs)]
        return [ranks], *rank_major(mine)

    for ranks in groups[:fail_at]:
        oracle.allgatherv_stage(*one_group(ranks))
    if split_phase:  # every group was issued and counted before the first wait
        for ranks in groups[fail_at:]:
            oracle.start_allgatherv_stage(*one_group(ranks))
    _assert_same(staged, oracle)


# ----------------------------------------------------------------------
# delivery contracts: what every receiver is owed, per stage form
# ----------------------------------------------------------------------
#: The five stage forms and their split-phase ``start_*`` + ``wait`` forms.
FORMS = (
    "allreduce", "broadcast", "grouped_broadcast", "allgatherv", "alltoallv",
    "start_allreduce", "start_allgatherv", "start_alltoallv",
)

#: Magnitudes whose float sums depend on the order they are added in.
ORDER_SENSITIVE = np.array([1e16, 1.0, -1e16, 0.1, 3.0, -0.3, 7e15, 2.0**-30])

_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


@st.composite
def contract_stages(draw, equal_sizes: bool):
    """``(p, groups)``: disjoint groups of a random subset of ``p``
    ranks, in any order, every group of one size (up to 4) when
    ``equal_sizes``; the other ranks idle."""
    if not equal_sizes:
        p, groups, *_ = draw(stages())
        return p, groups
    k = draw(st.integers(min_value=1, max_value=4))
    n_groups = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=k * n_groups, max_value=k * n_groups + 2))
    ranks = draw(st.permutations(range(p)))
    return p, [list(ranks[g * k : g * k + k]) for g in range(n_groups)]


def _values(rng, size) -> np.ndarray:
    return rng.choice(ORDER_SENSITIVE, size=size) * rng.integers(1, 4, size=size)


def _rows(rng, n: int, structured: bool) -> np.ndarray:
    if not structured:
        return _values(rng, n)
    rows = np.empty(n, dtype=PAIR_DTYPE)
    rows["gid"] = rng.integers(0, 1000, size=n)
    rows["val"] = _values(rng, n)
    return rows


class Owed(NamedTuple):
    """One group's due, written from the stage method's docstring: its
    modeled charge (``None``: the group has nothing to do and is not
    charged), its counters and the arrays its guard checks."""

    ranks: list
    seconds: Optional[float]
    counts: tuple
    guarded: list


def _allreduce_due(comm, groups, rng, width, ns, op, split):
    bufs = [[_values(rng, width) for _ in ranks] for ranks in groups]
    want = [_UFUNCS[op].reduce(np.stack(b), axis=0) for b in bufs]
    owed = []
    for ranks, b, w in zip(groups, bufs, want):
        k, n = len(ranks), width * 8
        owed.append(Owed(
            ranks, comm.costmodel.allreduce_time(ranks, n, nic_sharing=ns),
            (2 * (k - 1), 2 * k * (k - 1), 2 * n * (k - 1) if k > 1 else 0),
            [w] * k if split else [x.copy() for x in b],
        ))
    before = [[x.copy() for x in b] for b in bufs]

    def call(c):
        if split:
            return None, c.start_allreduce_stage(groups, bufs, op=op, nic_sharing=ns)
        return c.allreduce_stage(groups, bufs, op=op, nic_sharing=ns)

    def check(result, moved):
        # every member holds the reduction of the members' buffers, in
        # member order; a group that did not move holds what it held
        for g, (b, w) in enumerate(zip(bufs, want)):
            for x, y in zip(b, before[g]):
                assert x.tobytes() == (w if g < moved else y).tobytes(), g

    return call, owed, check


def _broadcast_due(comm, groups, rng, width, ns, grouped, tail):
    """One call per group (``broadcast``) or up to one call per member
    (``grouped``), each from its own root to disjoint destinations."""
    calls, owed = [], []
    for ranks in groups:
        k = len(ranks)
        windows = [_values(rng, width) for _ in ranks]
        n_calls = 1 if not grouped else int(rng.integers(0, k + 1))
        roots = rng.choice(k, size=n_calls, replace=False)
        which = rng.integers(-1, n_calls, size=k)  # each non-root: a call or none
        group = [
            BroadcastCall(
                windows[j], [windows[i] for i in range(k) if i not in roots and which[i] == c]
            )
            for c, j in enumerate(roots)
        ]
        calls.append(group if grouped else group[0])
        sizes = [c.src.nbytes for c in group]
        sent = sum(c.src.nbytes * len(c.dests) for c in group)
        dests = sum(len(c.dests) for c in group)
        if not grouped:
            owed.append(Owed(
                ranks, comm.costmodel.broadcast_time(ranks, sizes[0], nic_sharing=ns),
                (k - 1, dests, sent), [group[0].src.copy()],
            ))
            continue
        seconds = comm.costmodel.grouped_broadcast_time(ranks, sizes, nic_sharing=ns)
        n_launch, guarded = len(group), [c.src.copy() for c in group]
        if tail is not None:  # one more call: an AllGather of k x t words
            gathered = k * tail.shape[1] * 8
            extra = comm.costmodel.allgather_time(ranks, gathered, nic_sharing=ns)
            one_launch = comm.costmodel.profile.grouped_calls
            seconds = max(seconds, extra) if one_launch else seconds + extra
            n_launch, dests, sent = n_launch + 1, dests + k * (k - 1), sent + gathered * (k - 1)
            guarded += [tail[r] for r in ranks]
        elif not group:
            seconds = None  # no calls, no tail: skipped
        messages = k - 1 if comm.costmodel.profile.grouped_calls else n_launch * (k - 1)
        owed.append(Owed(ranks, seconds, (messages, dests, sent), guarded))
    before = [[d.copy() for c in (g if grouped else [g]) for d in c.dests] for g in calls]

    def call(c):
        if not grouped:
            return c.broadcast_stage(groups, calls, nic_sharing=ns)
        return c.grouped_broadcast_stage(groups, calls, nic_sharing=ns, tail=tail)

    def check(sums, moved):
        for g, group in enumerate(calls):
            got = [(c.src, d) for c in (group if grouped else [group]) for d in c.dests]
            for (src, dest), old in zip(got, before[g]):
                assert dest.tobytes() == (src if g < moved else old).tobytes(), g
        if tail is not None and sums is not None:
            want = np.zeros_like(tail)
            for ranks in groups:  # each group's rows summed in member order
                want[ranks] = np.add.reduce(np.stack([tail[r] for r in ranks]), axis=0)
            assert sums.dtype == np.float64 and sums.tobytes() == want.tobytes()

    return call, owed, check


def _allgatherv_due(comm, p, groups, rng, width, ns, structured, split):
    """Every rank sends rows, idle ranks included (they reach nobody)."""
    bufs = [_rows(rng, int(rng.integers(0, width + 1)), structured) for _ in range(p)]
    send, counts = rank_major(bufs)
    want = [np.concatenate([bufs[r] for r in ranks]) for ranks in groups]
    owed = []
    for ranks, w in zip(groups, want):
        k, total = len(ranks), w.nbytes
        owed.append(Owed(
            ranks, comm.costmodel.allgather_time(ranks, total, nic_sharing=ns),
            (k - 1, k * (k - 1), total * (k - 1) if k > 1 else 0),
            [w] if split else [bufs[r] for r in ranks],
        ))

    def call(c):
        if split:
            return c.start_allgatherv_stage(groups, send, counts, nic_sharing=ns)
        return c.allgatherv_stage(groups, send, counts, nic_sharing=ns)

    def check(results, moved):
        if results is None:
            return
        assert len(results) == len(groups)
        for got, w in zip(results, want):  # the members' rows in group order
            assert got.dtype == w.dtype and got.tobytes() == w.tobytes()

    return call, owed, check


def _alltoallv_due(comm, p, groups, rng, width, ns, structured, split):
    """Rank ``r`` sends ``counts[r, j]`` rows to its group's ``j``-th
    member; idle ranks send rows that reach nobody."""
    k = len(groups[0])
    counts = rng.integers(0, width + 1, size=(p, k)) * (rng.random((p, 1)) < 0.8)
    parts = [[_rows(rng, int(counts[r, j]), structured) for j in range(k)] for r in range(p)]
    send = np.concatenate([x for row in parts for x in row])
    received = [send[:0]] * p
    owed = []
    for ranks in groups:
        for j, r in enumerate(ranks):  # receiver j: senders in group order
            received[r] = np.concatenate([parts[i][j] for i in ranks])
        pair = max(x.nbytes for i in ranks for x in parts[i])
        total = sum(x.nbytes for i in ranks for x in parts[i])
        owed.append(Owed(
            ranks, comm.costmodel.alltoall_time(ranks, pair, nic_sharing=ns),
            (k * (k - 1), k * (k - 1), total),
            [received[r] for r in ranks] if split else [x for i in ranks for x in parts[i]],
        ))

    def call(c):
        if split:
            return c.start_alltoallv_stage(groups, send, counts, nic_sharing=ns)
        return c.alltoallv_stage(groups, send, counts, nic_sharing=ns)

    def check(result, moved):
        if result is None:
            return
        recv, sizes = result  # every rank's received rows, rank-major
        assert sizes.tolist() == [len(x) for x in received]
        want = np.concatenate(received)
        assert recv.dtype == want.dtype and recv.tobytes() == want.tobytes()

    return call, owed, check


def _hold_to_what_is_owed(staged, oracle, form, groups, call, owed, check, fail_at, rng):
    """Run ``call`` on ``staged`` behind a guard raising at group
    ``fail_at`` (``None``: never); charge and count ``oracle`` with what
    ``owed`` says of each group that moved, as one call per group; then
    the two must agree on every clock lane and counter, and the guard
    must have seen each group's owed arrays."""
    split, kind = form.startswith("start_"), form.removeprefix("start_")
    seen = []

    def guard(clocks, kind_, ranks, payload):
        seen.append((kind_, list(ranks), [np.array(a, copy=True) for a in payload]))
        if len(seen) - 1 == fail_at:
            raise RankFailure(ranks[0], 1, kind_, fault_kind="crash")

    staged.guard = guard
    moved = len(groups) if fail_at is None else fail_at
    if not split:
        result, failed = None, False
        try:
            result = call(staged)
        except RankFailure:
            failed = True
        for due in owed[:moved]:
            if due.seconds is not None:
                oracle.clocks.sync_group(due.ranks, due.seconds)
                oracle.counters.record(kind, *due.counts)
        assert failed == (fail_at is not None)
        check(result, moved)
    else:
        result, handles = call(staged)
        check(result, len(groups))  # the data moved at issue
        inflight = [oracle.clocks.issue_collective(d.ranks, d.seconds) for d in owed]
        for due in owed:
            oracle.counters.record(kind, *due.counts)
        assert [(h.kind, list(h.ranks)) for h in handles] == [(kind, g) for g in groups]
        for g, (handle, pending) in enumerate(zip(handles, inflight)):
            dt = float(rng.uniform(0.0, 1e-4))
            for comm in (staged, oracle):
                comm.clocks.add_compute(handle.ranks[0], dt)
            if g == fail_at:
                with pytest.raises(RankFailure):
                    staged.wait(handle)
                break
            staged.wait(handle)
            oracle.clocks.complete_collective(pending)
    n_seen = len(groups) if fail_at is None else fail_at + 1
    assert [(k, r) for k, r, _ in seen] == [(kind, g) for g in groups[:n_seen]]
    for (_, _, got), due in zip(seen, owed):
        assert len(got) == len(due.guarded)
        for x, y in zip(got, due.guarded):
            assert x.dtype == np.asarray(y).dtype and x.tobytes() == np.asarray(y).tobytes()
    _assert_same(staged, oracle)


@pytest.mark.parametrize("form", FORMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_each_receiver_gets_what_it_is_owed(form, data):
    """Every stage form against an oracle written from its docstring:
    each receiver's rows in order, each group's charge and counters —
    ranks in no group are never charged — and, with a guard raising at a
    drawn group ``g``, what the guard saw of every group up to ``g``: the
    groups before ``g`` moved and were charged, ``g`` and the rest were
    not (split-phase: every group moved and was counted at issue, and
    the waits before ``g``'s completed)."""
    split, kind = form.startswith("start_"), form.removeprefix("start_")
    # an AllToAllV needs groups of one size; a tail's sum shows its
    # order only over three or more members, which those draw often
    p, groups = data.draw(contract_stages(equal_sizes=kind in ("alltoallv", "grouped_broadcast")))
    clock_seed, seed = data.draw(st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)))
    width = data.draw(st.integers(min_value=0, max_value=5))
    ns = data.draw(st.sampled_from([1, 2]))
    fail_at = data.draw(st.sampled_from([None, *range(len(groups))]))
    staged, oracle = _comm(p, clock_seed), _comm(p, clock_seed)
    if kind == "grouped_broadcast" and data.draw(st.booleans()):
        for comm in (staged, oracle):  # no group calls: launches add up
            comm.costmodel = CostModel(AIMOS.gpu, Topology(AIMOS, p), GENERIC_PROFILE)
    rng = np.random.default_rng(seed)
    if kind == "allreduce":
        op = data.draw(st.sampled_from(sorted(_UFUNCS)))
        call, owed, check = _allreduce_due(oracle, groups, rng, width, ns, op, split)
    elif kind in ("broadcast", "grouped_broadcast"):
        t = data.draw(st.integers(0, 3)) if kind == "grouped_broadcast" else 0
        tail = None
        if t:  # words whose member-order sum differs from other orders
            tail = _values(rng, (p, t))
            for ranks in groups:
                reveal = np.resize([1e16, -1e16, 1.0, 2.0**-30], len(ranks))
                tail[ranks] = reveal[:, None] * rng.integers(1, 4, size=(len(ranks), t))
        grouped = kind == "grouped_broadcast"
        call, owed, check = _broadcast_due(oracle, groups, rng, width, ns, grouped, tail)
    else:
        due = _allgatherv_due if kind == "allgatherv" else _alltoallv_due
        structured = data.draw(st.booleans())
        call, owed, check = due(oracle, p, groups, rng, width, ns, structured, split)

    _hold_to_what_is_owed(staged, oracle, form, groups, call, owed, check, fail_at, rng)
