"""Stage calls against the per-group sequence they replace.

A ``*_stage`` call runs one collective in each of a stage's disjoint
groups.  The oracle below is that stage written as one collective per
group, the way every pattern issued it before: the group's
validate/move/count core followed by its own ``VirtualClocks.sync_group``
(or ``issue_collective`` for split-phase).  Over random disjoint
partitions of ``p`` ranks (a stage need not cover every rank), random
clock states and random payloads — empty ones included — the two must
agree on the data, every clock lane, the counters by kind and the
split-phase handles; with a fault injector as the communicator's
guard, also on every recorded fault event and on what a crash leaves
behind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AIMOS, CostModel, Topology
from repro.comm import BroadcastCall, Communicator, VirtualClocks
from repro.comm.clocks import LANES
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


def _stage(comm, kind: str, groups, payloads):
    return getattr(comm, f"{kind}_stage")(groups, payloads)


def _per_group(comm, kind: str, groups, payloads):
    """The oracle: one core + ``sync_group`` per group, in group order
    (the fault protocol first, if the communicator is guarded).  A
    broadcast is charged by hand: ``CostModel.broadcast_time`` and its
    counters, the way triangle counting charged its own."""
    out = []
    for ranks, payload in zip(groups, payloads):
        if comm.guard is not None:
            checked = (
                [payload.src] if kind == "broadcast"
                else [c.src for c in payload] if kind == "grouped_broadcast"
                else payload
            )
            comm.guard(comm.clocks, kind, ranks, checked)
        if kind == "allreduce":
            t, result = comm._allreduce_core(ranks, payload, "sum", 1)
        elif kind == "allgatherv":
            t, result = comm._allgatherv_core(ranks, payload, 1)
        elif kind == "broadcast":
            for dest in payload.dests:
                dest[...] = payload.src
            k, nbytes = len(ranks), payload.src.nbytes
            t, result = comm.costmodel.broadcast_time(ranks, nbytes), None
            comm.counters.record("broadcast", k - 1, k - 1, nbytes * (k - 1))
        else:
            t, result = comm._broadcast_core(ranks, payload, "grouped_broadcast", 1)
        if t is not None:
            comm.clocks.sync_group(ranks, t)
            out.append(result)
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
    got = staged.start_allgatherv_stage(groups, _payloads("allgatherv", groups, seed, width))
    want = [
        oracle.start_allgatherv(ranks, bufs)
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
        comm.allgatherv_stage([[0, 1], [2, 3]], [[np.zeros(1), np.zeros(1)]])


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
