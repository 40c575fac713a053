"""The mutation set: one small wrong edit of the program per mutant, and
the contracts that must catch it.

A mutant rewrites the source of one function or method (``old`` ->
``new``, each occurring exactly once), compiles it in the module's
namespace and binds it, by monkeypatch, wherever the original is bound
— the class, the module, and every module that imported the name — for
one test.  ``test_contract_kills_mutant`` runs each named contract under
its mutant and requires it to fail; a Hypothesis contract runs
derandomized on a seed of its own (not on the last parametrization
pytest ran) and without shrinking or the constants Hypothesis mines
from whatever modules are loaded, so every pair draws the same examples
whether it runs alone or in the whole suite.
A mutant whose ``old`` no longer occurs fails
``test_mutant_applies_and_its_contracts_bind``, so the set follows the
code it guards; ``test_contract_passes_unmutated`` runs each Hypothesis
contract as the harness runs it, so a failure under a mutant is the
mutant's.

The set holds the mutations found by hand while the per-rank code went
onto the fleet (the receiver-major AllToAllV join, the owner shift,
charging idle ranks, costing the total instead of the largest pair, the
live-source read, the coloring sentinels, the widened ghost range, the
matching charge, the pair order, the dangling tail, the skipped row
assignment, the tiles' member-major order) and at least one per stage
form, each named with the contracts that kill it.
"""

from __future__ import annotations

import __future__

import importlib
import inspect
import sys
import textwrap
from typing import NamedTuple

import pytest
from hypothesis import Phase, given, settings
from hypothesis.errors import HypothesisException
from hypothesis.internal.conjecture.providers import HypothesisProvider


class Contract(NamedTuple):
    """A tier-1 test, by node id, with its parametrized arguments."""

    nodeid: str
    params: tuple = ()  # (name, value) pairs

    def __str__(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params)
        return self.nodeid.split("::", 1)[1] + (f"[{args}]" if args else "")


class Mutant(NamedTuple):
    """``edits`` of ``target`` (``"module:qualname"``); ``killers``
    must each fail under it."""

    target: str
    edits: tuple
    killers: tuple


def kill(nodeid: str, **params) -> Contract:
    """The contract ``nodeid`` with its parametrized arguments."""
    return Contract(nodeid, tuple(params.items()))


STAGES = "tests/comm/test_stages.py::"
OWED = STAGES + "test_each_receiver_gets_what_it_is_owed"
GUARD = (
    "tests/patterns/test_complex_fused.py::"
    "test_a_guard_raising_at_group_g_of_an_alltoallv_stage"
)
#: sparse_push's and sparse_pull's contracts, one drawn per example
EXCHANGE = "tests/patterns/test_sparse_fused.py::test_fused_exchange_equals_per_rank_oracle"
COMPLEX = "tests/patterns/test_complex.py::"
CHUNK = COMPLEX + "test_complex_reduce_hands_each_owner_its_chunk"
ROUTING = COMPLEX + "TestOwnerRouting::test_every_owner_receives_only_its_chunk"
PACKETS = (
    "tests/patterns/test_packets.py::"
    "test_every_packet_reaches_its_dest_through_one_row_and_one_column_hop"
)
SOURCES = "tests/core/test_program_fused.py::test_sources_are_read_as_the_superstep_began"
FOLD = "tests/algorithms/test_pagerank.py::TestDanglingFold::test_fold_is_the_global_dangling_mass"
GOLDEN = "tests/test_golden_clocks.py::test_modeled_clock_is_golden"


def golden(algo: str, grid: str) -> Contract:
    """A blocking golden-clock case in rank order (``grid``: ``"RxC"``)."""
    R, C = map(int, grid.split("x"))
    return kill(GOLDEN, algo=algo, R=R, C=C, overlap=False, order="forward")


COLLECTIVES = "repro.comm.collectives:Communicator."

MUTANTS = {
    # ---- the personalized exchange (AllToAllV) ------------------------
    "alltoallv_receiver_takes_what_it_sent": Mutant(
        COLLECTIVES + "_exchange_plan",
        (("runs = (members[:, None, :] * k + np.arange(k)[:, None]).reshape(-1, k)",
          "runs = (members[:, :, None] * k + np.arange(k)).reshape(-1, k)"),),
        (kill(OWED, form="alltoallv"), kill(OWED, form="start_alltoallv"),
         kill(PACKETS), kill(CHUNK)),
    ),
    "alltoallv_join_receiver_major_in_group_order": Mutant(
        COLLECTIVES + "_exchange_plan",
        (("recv, ends = take(runs[np.argsort(stage.idx)].ravel())",
          "recv, ends = take(runs.ravel())"),
         ("recv_counts[np.sort(stage.idx)]", "recv_counts[stage.idx]")),
        (kill(OWED, form="alltoallv"), kill(PACKETS)),
    ),
    "alltoallv_guard_parts_receiver_major": Mutant(
        COLLECTIVES + "_plan",
        (("for r in ranks for q in range(r * k, r * k + k)]",
          "for q0 in range(k) for q in (r * k + q0 for r in ranks)]"),),
        (kill(OWED, form="alltoallv"), kill(GUARD, fail_at=1, split_phase=False)),
    ),
    "alltoallv_costs_the_total_not_the_largest_pair": Mutant(
        COLLECTIVES + "_exchange_plan",
        (("pair = max(map(max, block)) * row_nbytes", "pair = sum(map(sum, block)) * row_nbytes"),),
        (kill(OWED, form="alltoallv"), golden("pj", "4x4")),
    ),
    "complex_reduce_owner_shift": Mutant(
        "repro.patterns.complex:complex_reduce",
        (("owner_of_vertex(triples[\"gid\"], bounds) % R",
          "(owner_of_vertex(triples[\"gid\"], bounds) + 1) % R"),),
        (kill(ROUTING, R=2, C=4, algo="lp"), kill(CHUNK)),
    ),
    "pointer_jumping_charges_idle_ranks": Mutant(
        "repro.algorithms.pointerjump:pointer_jumping",
        (("launches=counts > 0", "launches=1"),),
        (golden("pj", "16x16"),),
    ),
    # ---- the vertex program and the 2.5D pattern ----------------------
    "program_reads_sources_from_the_live_state": Mutant(
        "repro.core.program:run_vertex_program",
        (("vals = before[frm]", "vals = state[frm]"),),
        (kill(SOURCES, shape="path-1x1", which="cc+All+Push"),
         kill(SOURCES, shape="rmat-2x2", which="cc+SP+SW+VQ")),
    ),
    "coloring_without_sentinel_interleave": Mutant(
        "repro.algorithms.coloring:_winner_histograms",
        (("np.concatenate([tri, sentinel]).take(order)", "np.concatenate([tri, sentinel])"),),
        (golden("greedy_coloring", "4x4"),),
    ),
    "refresh_ghosts_widened_range": Mutant(
        "repro.patterns.complex:refresh_ghosts",
        (("(gids >= fleet.col_start[ranks]) & (gids < fleet.col_stop[ranks])",
          "(gids >= fleet.col_start[ranks] - 1) & (gids < fleet.col_stop[ranks] + 1)"),),
        (kill(CHUNK), golden("lp", "4x4")),
    ),
    "matching_wrong_charge": Mutant(
        "repro.algorithms.matching:max_weight_matching",
        (("engine.charge_vertices(None, sizes + counts)", "engine.charge_vertices(None, sizes)"),),
        (golden("mwm", "2x4"),),
    ),
    "pair_order_unstable_argsort": Mutant(
        "repro.patterns.complex:_pair_order",
        (('np.argsort(composite, kind="stable")', 'np.argsort(composite, kind="quicksort")'),),
        (kill(COMPLEX + "TestHistogram::test_pair_order_is_lexsort"),),
    ),
    "heaviest_without_nan_branch": Mutant(
        "repro.algorithms.matching:_heaviest",
        (("top = np.where(\n        per_row(np.logical_or.reduceat(nan, head)),\n        nan,\n"
          "        w == per_row(np.maximum.reduceat(w, head)),\n    )",
          "top = w == per_row(np.maximum.reduceat(w, head))"),),
        (kill("tests/algorithms/test_matching.py::"
           "test_heaviest_is_the_last_edge_of_each_row_in_sorted_order"),),
    ),
    # ---- PageRank's dangling tail --------------------------------------
    "pagerank_tail_from_the_row_window": Mutant(
        "repro.algorithms.pagerank:dangling_partials",
        (("fleet.col_start - fleet.col_gid_shift", "fleet.row_start - fleet.row_gid_shift"),
         ("fleet.col_stop - fleet.col_gid_shift", "fleet.row_stop - fleet.row_gid_shift")),
        (kill(FOLD, case=("fold", 2, 4), algo="pagerank"),),
    ),
    "dense_tail_last_member_zeroed": Mutant(
        "repro.patterns.dense:_run",
        (("[tail[r] for r in ranks]", "[tail[r] * (r != ranks[-1]) for r in ranks]"),),
        (kill(FOLD, case=("fold", 2, 4), algo="pagerank"),),
    ),
    # ---- the sparse exchanges ------------------------------------------
    "sparse_push_skips_the_row_assignment": Mutant(
        "repro.patterns.sparse:sparse_push",
        (("_assign_received(state, row_groups, rbufs, row_shift)", "pass"),),
        (kill(EXCHANGE), kill("tests/faults/test_snapshot_contract.py::"
                    "test_a_row_window_vector_is_the_whole_state", algo="bfs", R=2, C=2)),
    ),
    "tiles_not_member_major": Mutant(
        "repro.patterns.sparse:_tiles",
        (('(rbuf["gid"] - gid_shift[ranks, None]).ravel()',
          '(rbuf["gid"][:, None] - gid_shift[ranks]).ravel()'),
         ('np.tile(rbuf["val"], len(ranks))', 'np.repeat(rbuf["val"], len(ranks))')),
        (kill(CHUNK),),
    ),
    # ---- one or more per stage form --------------------------------------
    "allreduce_skips_the_last_member": Mutant(
        COLLECTIVES + "_allreduce_core",
        (("for b in part:", "for b in part[:-1]:"),),
        (kill(OWED, form="allreduce"), kill(OWED, form="start_allreduce")),
    ),
    "broadcast_counted_as_grouped": Mutant(
        COLLECTIVES + "broadcast_stage",
        (('kind="broadcast"', 'kind="grouped_broadcast"'),),
        (kill(OWED, form="broadcast"),),
    ),
    "grouped_broadcast_tail_summed_backwards": Mutant(
        COLLECTIVES + "_broadcast_core",
        (('REDUCE_OPS["sum"](words[members])', 'REDUCE_OPS["sum"](words[members[::-1]])'),),
        (kill(OWED, form="grouped_broadcast"),
         kill(STAGES + "test_a_tail_rides_the_grouped_broadcast_stage")),
    ),
    "allgatherv_joins_in_rank_order": Mutant(
        COLLECTIVES + "_gather_plan",
        (("out, ends = take(stage.idx)", "out, ends = take(np.sort(stage.idx))"),),
        (kill(OWED, form="allgatherv"), kill(EXCHANGE)),
    ),
    "stage_charges_idle_ranks": Mutant(
        COLLECTIVES + "_stage",
        (("self.clocks.sync_stage(stage, costs)",
          "self.clocks.sync_stage(self._stage_index([range(self.clocks.n_ranks)]), [max(costs)])"),),
        (kill(OWED, form="allreduce"), kill(OWED, form="allgatherv"),
         kill(OWED, form="alltoallv")),
    ),
    "start_allreduce_handles_reversed": Mutant(
        COLLECTIVES + "start_allreduce_stage",
        (("for g, b in zip(groups, buffers)]", "for g, b in zip(groups, buffers)][::-1]"),),
        (kill(OWED, form="start_allreduce"),),
    ),
    "start_allgatherv_results_rotated": Mutant(
        COLLECTIVES + "start_allgatherv_stage",
        (("zip(handles, results)", "zip(handles, results[1:] + results[:1])"),),
        (kill(OWED, form="start_allgatherv"),),
    ),
    "start_alltoallv_received_in_rank_order": Mutant(
        COLLECTIVES + "start_alltoallv_stage",
        (("[received[r] for r in handle.ranks]", "[received[r] for r in sorted(handle.ranks)]"),),
        (kill(OWED, form="start_alltoallv"),),
    ),
    "wait_skips_the_guard": Mutant(
        COLLECTIVES + "wait",
        (("if self.guard is not None:", "if False:"),),
        (kill(OWED, form="start_allgatherv"), kill(GUARD, fail_at=1, split_phase=True)),
    ),
}

#: Hypothesis contracts under a mutant: deterministic, no shrinking.
_MUTANT_SETTINGS = dict(
    database=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate],
    report_multiple_bugs=False,
    print_blob=False,
)

_FIXTURES: dict = {}


def _resolve(contract: Contract):
    """The contract's test function (a class's on a fresh instance)."""
    path, *names = contract.nodeid.split("::")
    module = importlib.import_module(path.removesuffix(".py").replace("/", "."))
    owner = module
    for name in names[:-1]:
        owner = getattr(owner, name)()
    return module, getattr(owner, names[-1])


def _arguments(module, fn, contract: Contract, monkeypatch) -> dict:
    """The contract's parameters, plus its no-argument fixtures (from
    its module or ``tests/conftest.py``) and ``monkeypatch``."""
    from . import conftest

    args = dict(contract.params)
    for name in inspect.signature(fn).parameters:
        if name in args:
            continue
        if name == "monkeypatch":
            args[name] = monkeypatch
            continue
        home = module if hasattr(module, name) else conftest
        key = (home.__name__, name)
        if key not in _FIXTURES:
            _FIXTURES[key] = getattr(home, name).__wrapped__()
        args[name] = _FIXTURES[key]
    return args


def _run(contract: Contract, monkeypatch) -> None:
    module, fn = _resolve(contract)
    wrapped = getattr(fn, "__func__", fn)
    handle = getattr(wrapped, "hypothesis", None)
    if handle is not None:
        # a fresh @given test over the same body and strategies, so the
        # test pytest runs keeps its own settings and executor
        monkeypatch.setattr(HypothesisProvider, "_maybe_draw_constant", lambda *a, **k: None)
        monkeypatch.setattr(
            handle.inner_test, "_hypothesis_internal_add_digest",
            str(contract).encode(), raising=False,
        )
        fresh = given(**handle._given_kwargs)(handle.inner_test)
        fresh = settings(wrapped._hypothesis_internal_use_settings, **_MUTANT_SETTINGS)(fresh)
        fn = fresh if fn is wrapped else fresh.__get__(fn.__self__)
    fn(**_arguments(module, fn, contract, monkeypatch))


def apply(monkeypatch, name: str) -> None:
    """Bind mutant ``name`` wherever its target is bound."""
    mutant = MUTANTS[name]
    module_name, qualname = mutant.target.split(":")
    module = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    source = textwrap.dedent(inspect.getsource(original))
    for old, new in mutant.edits:
        assert source.count(old) == 1, f"{name}: {old!r} occurs {source.count(old)} times"
        source = source.replace(old, new)
    flags = __future__.annotations.compiler_flag
    code = compile(source, f"<mutant {name}>", "exec", flags=flags, dont_inherit=True)
    namespace: dict = {}
    exec(code, vars(module), namespace)
    mutated = namespace[attr]
    if owner is not module:
        monkeypatch.setattr(owner, attr, mutated)
        return
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__dict__", {}).get(attr) is original:
            monkeypatch.setattr(loaded, attr, mutated)


PAIRS = [(name, killer) for name, mutant in MUTANTS.items() for killer in mutant.killers]


@pytest.mark.parametrize(
    "name,contract", PAIRS, ids=[f"{name}-{killer}" for name, killer in PAIRS]
)
def test_contract_kills_mutant(monkeypatch, name, contract):
    apply(monkeypatch, name)
    with pytest.raises((Exception, pytest.fail.Exception)) as caught:
        _run(contract, monkeypatch)
    assert not isinstance(caught.value, HypothesisException), caught.value


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_applies_and_its_contracts_bind(monkeypatch, name):
    """Each edit still occurs once in its target, and each contract
    resolves to a test that takes exactly the arguments given."""
    apply(monkeypatch, name)
    for contract in MUTANTS[name].killers:
        module, fn = _resolve(contract)
        inspect.signature(fn).bind(**_arguments(module, fn, contract, monkeypatch))


def _is_hypothesis(contract: Contract) -> bool:
    fn = _resolve(contract)[1]
    return hasattr(getattr(fn, "__func__", fn), "hypothesis")


#: The Hypothesis contracts, which the harness runs otherwise than
#: tier-1 does (the others run here as they run in their own files).
CONTROLS = sorted({k for m in MUTANTS.values() for k in m.killers if _is_hypothesis(k)}, key=str)


@pytest.mark.parametrize("contract", CONTROLS, ids=str)
def test_contract_passes_unmutated(monkeypatch, contract):
    """The control: each Hypothesis contract passes as the harness runs
    it, so a failure under a mutant is the mutant's."""
    _run(contract, monkeypatch)
