"""One slice: one workload measured once in a fresh process.

Closed loop, one client: each op (one public algorithm call) is issued
when the previous one returns.  A pass is the workload's fixed op list.

Untraced slice (``trace=False``): timed set-ups, one warm-up pass that
is also the verification pass, ``gc.freeze()``, then timed passes until
``seconds`` of timed work.  Traced slice: the same set-ups and warm-up
with the span wrappers installed, then traced and untraced passes
taking turns (plus, on a workload that has hooks, untraced passes on an
engine with nothing attached) until ``seconds`` of timed work.
End-to-end numbers only ever come from untraced slices.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import layers
import workloads
from report import op_tail
from spans import Tracer

__all__ = ["run_slice", "print_metrics"]

#: Set-ups per slice.  The first two in a process run on memory the
#: host has not backed yet and take 1.6x as long as the rest; with nine
#: the median sits well inside the warm ones.
N_SETUPS = 9
MIN_PASSES = 2


# -- noise instruments -------------------------------------------------------
class Calibration:
    """Two fixed reference kernels, timed between passes.

    The host this was sized on has slow spells that last from half a
    minute to minutes and slow interpreter-bound code by about 25 % and
    NumPy-bound code by about 12 %, not always at the same time, so one
    slice usually sits wholly inside one spell and raw seconds from ten
    slices are bimodal.  One reading is the geometric mean of an
    interpreter-bound kernel (small NumPy calls over 256 little arrays)
    and a NumPy-bound one (the ``np.unique`` + ``np.minimum.at`` scatter
    idiom over 2^18 indices); ``pass_rel`` is a pass's seconds over the
    readings taken just before and after it.  Neither kernel touches the
    program, so only the host moves them.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.lids = rng.integers(0, 1 << 16, size=1 << 18)
        self.vals = rng.random(1 << 18)
        self.state = np.empty(1 << 16)
        self.small = [np.arange(64, dtype=np.int64) + i for i in range(256)]
        self.samples_ms: list[float] = []

    def _numpy_bound(self) -> float:
        state, lids = self.state, self.lids
        state.fill(np.inf)
        t0 = time.perf_counter()
        uniq = np.unique(lids)
        old = state[uniq].copy()
        np.minimum.at(state, lids, self.vals)
        uniq[state[uniq] != old]
        return time.perf_counter() - t0

    def _interpreter_bound(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for rep in range(20):
            for a in self.small:
                total += int(a[a % 3 == 0].size) + int(np.minimum(a, rep).sum())
        return time.perf_counter() - t0

    def sample(self) -> float:
        """One reading, in seconds."""
        reading = (self._numpy_bound() * self._interpreter_bound()) ** 0.5
        self.samples_ms.append(reading * 1e3)
        return reading

    def summary(self) -> dict:
        med = statistics.median(self.samples_ms)
        q1, _, q3 = statistics.quantiles(self.samples_ms, n=4)
        return {"calib_ms": med, "calib_spread": (q3 - q1) / med}


def host_fingerprint() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- passes --------------------------------------------------------------------
def run_pass(engine, calls, results=None) -> list[dict]:
    """Run every op of one pass; one record per op.  An op that raises
    is caught and recorded with ``error`` set.  The answers themselves
    are appended to ``results`` when given (the verification pass)."""
    records = []
    for call in calls:
        t0 = time.perf_counter()
        try:
            res = call(engine)
            err = None
        except Exception:  # boundary: a failing op is counted, not fatal
            res, err = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        rec = {"seconds": seconds, "error": err}
        if results is not None:
            results.append(res)
        if res is not None:
            counters = engine.counters
            rec.update(
                digest=workloads.digest(res),
                modeled_s=res.timings.total,
                modeled_comm_s=res.timings.comm,
                supersteps=res.iterations,
                comm_calls=counters.total_calls,
                comm_bytes=counters.total_bytes,
                comm_serial_messages=counters.total_serial_messages,
            )
        records.append(rec)
    return records


#: Fields of an op record that must repeat exactly from pass to pass.
EXACT_FIELDS = (
    "modeled_s",
    "modeled_comm_s",
    "supersteps",
    "comm_calls",
    "comm_bytes",
    "comm_serial_messages",
)


class Tally:
    """Failure accounting over every op of a slice, warm-up included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest_changes = 0
        self.unstable: list[str] = []  # exact fields that changed
        self.errors: list[str] = []
        #: First pass after the warm-up: what the exact fields are held
        #: to.  Not the warm-up itself, which starts from an engine with
        #: no state arrays allocated -- with checkpoints attached that
        #: makes its snapshots, and so its modeled time, smaller.
        self.steady: list[dict] = []

    def check(self, ops, records, reference, exact: bool = True) -> None:
        """Hold a pass to the verified warm-up's answers and, with
        ``exact``, to the steady-state pass's modeled time and counts."""
        if exact and not self.steady:
            self.steady = records
        for op, rec, ref, steady in zip(ops, records, reference, self.steady or records):
            self.attempted += 1
            if rec["error"] is not None:
                self.failed += 1
                self.errors.append(f"{op.label}: {rec['error']}")
            elif rec["digest"] != ref.get("digest"):
                self.failed += 1
                self.digest_changes += 1
                self.errors.append(f"{op.label}: answer digest changed")
            elif exact and steady["error"] is None:
                self.unstable += [
                    f"{op.label}.{f}" for f in EXACT_FIELDS if rec[f] != steady[f]
                ]


def warm_up(graph, engine, ops, calls, tally: Tally) -> list[dict]:
    """The untimed first pass: verify every answer against the serial
    oracle.  Returns the reference records later passes are held to."""
    results: list = []
    records = run_pass(engine, calls, results)
    for op, rec, res in zip(ops, records, results):
        tally.attempted += 1
        if rec["error"] is not None:
            tally.failed += 1
            tally.errors.append(f"{op.label}: {rec['error']}")
            rec["work_edges"] = 0
            continue
        if op.verify(graph, res):
            rec["work_edges"] = int(op.work_edges(graph, res))
        else:
            tally.failed += 1
            tally.errors.append(f"{op.label}: answer differs from repro.reference.serial")
            rec["work_edges"] = 0
            rec["digest"] = None  # every later pass of this op fails too
    return records


def pass_seconds(records) -> float:
    return sum(r["seconds"] for r in records)


# -- traced passes -> per-layer metrics -----------------------------------------
def layer_metrics(tracer: Tracer, table: np.ndarray, n_ops: int, n_passes: int):
    """Median over traced passes of each bucket's self time, the exact
    per-pass counts, and the set-up spans' times.  Returns ``(metrics,
    names of counts that differed between passes, median traced pass
    seconds)``."""
    op = table[:, 4]
    metrics: dict[str, float] = {}

    setup = table[op < 0]
    # set-up spans come first, so their parent indices are already local
    per_setup = layers.pass_layer_sums(setup, tracer.buckets)
    n_setups = max(1, per_setup["calls"].get("graph.rmat", 1))

    sums = []
    for p in range(1, n_passes + 1):  # pass 0 is the cold warm-up pass
        lo, hi = np.searchsorted(op, [p * n_ops, (p + 1) * n_ops])
        sub = table[lo:hi].copy()
        sub[:, 3] = np.where(sub[:, 3] >= 0, sub[:, 3] - lo, -1)
        sums.append(layers.pass_layer_sums(sub, tracer.buckets))

    unstable = []
    for name, buckets in layers.SELF_METRICS.items():
        if name.startswith("graph."):
            total = sum(per_setup["self_ns"].get(b, 0) for b in buckets)
            metrics[name] = total / n_setups / 1e9
        else:
            metrics[name] = statistics.median(
                sum(s["self_ns"].get(b, 0) for b in buckets) for s in sums
            ) / 1e9
    for name, (bucket, kind) in layers.COUNT_METRICS.items():
        values = [s[kind].get(bucket, 0) for s in sums]
        metrics[name] = values[0]
        if len(set(values)) > 1:
            unstable.append(name)
    stats_calls = sums[0]["calls"].get("core.schedule_stats", 0)
    metrics["queueing.schedule_cache_hit_frac"] = (
        1.0 - metrics["queueing.manhattan_calls"] / stats_calls if stats_calls else 0.0
    )
    # Exact-sum check: every nanosecond of every op span must land in
    # exactly one bucket's self time.
    total_self = sum(sum(s["self_ns"].values()) for s in sums)
    total_ops = sum(s["op_ns"] for s in sums)
    metrics["trace.sum_residual_frac"] = abs(total_self - total_ops) / total_ops
    metrics["trace.absent_targets"] = len(tracer.absent)
    return metrics, unstable, statistics.median(s["op_ns"] for s in sums) / 1e9


# -- the slice --------------------------------------------------------------------
def timed_setups(spec, seed: int, scale):
    """Set up several times — the median is what a user pays once —
    and keep the last input and engine."""
    setup_s, graph, engine = [], None, None
    for _ in range(N_SETUPS):
        graph = engine = None  # free the previous input before the next
        gc.collect()
        t0 = time.perf_counter()
        graph, engine = workloads.set_up(spec, seed, scale=scale)
        setup_s.append(time.perf_counter() - t0)
    return setup_s, graph, engine


def run_slice(
    bench: dict,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale=None,
    spans_out=None,
    extra_targets=(),
    corrupt_op=None,
) -> dict:
    """Measure one workload once; returns the full slice record.

    ``bench`` is the loaded ``BENCHMARK.json``: the one place metric
    names and units are declared.  ``record["metrics"]`` holds its
    ``end_to_end`` metrics (untraced) or its ``per_layer`` ones (traced).

    ``scale``, ``extra_targets`` and ``corrupt_op`` exist for the smoke
    test: a small input, a wrapper target that does not exist, and an
    op index whose answer is falsified after the call.
    """
    spec = workloads.SPECS[workload]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "scale": scale if scale is not None else spec.scale,
        "grid": [spec.R, spec.C],
        "host": host_fingerprint(),
    }
    load_start = os.getloadavg()
    tally = Tally()
    calib = Calibration()
    tracer = Tracer()
    try:
        if trace:
            tracer.install(list(layers.TARGETS) + list(extra_targets))
        setup_s, graph, engine = timed_setups(spec, seed, scale)
        ops = spec.ops(graph, seed)
        plain_calls = [op.call for op in ops]
        if corrupt_op is not None:
            plain_calls[corrupt_op] = _falsified(plain_calls[corrupt_op])
        calls = plain_calls
        if trace:
            op_ids = itertools.count()
            calls = [_traced(tracer, call, op_ids) for call in plain_calls]

        reference = warm_up(graph, engine, ops, calls, tally)
        work_edges = sum(r["work_edges"] for r in reference)
        gc.collect()
        gc.freeze()
        if not trace:
            sides = [("attached", engine, calls)]
            by_side, rel = run_passes(tracer, calib, sides, ops, reference, tally, seconds)
            passes = by_side["attached"]
            pass_s = statistics.median(pass_seconds(p) for p in passes)
            metrics = {
                "setup_s": statistics.median(setup_s),
                "pass_rel": statistics.median(rel["attached"]),
                "modeled_pass_s": sum(r.get("modeled_s", 0.0) for r in tally.steady),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            sides = [("traced", engine, calls), ("attached", engine, plain_calls)]
            if spec.hooks:
                tracer.pause()
                _, bare = workloads.set_up(spec, seed, scale=scale, hooks=False)
                run_pass(bare, plain_calls)  # its own warm-up
                sides.append(("detached", bare, plain_calls))
            by_side, rel = run_passes(tracer, calib, sides, ops, reference, tally, seconds)
            passes = by_side["attached"]
            table = tracer.table()
            metrics, unstable, traced_pass_s = layer_metrics(
                tracer, table, len(ops), len(by_side["traced"])
            )
            tally.unstable += unstable
            pass_s = statistics.median(pass_seconds(p) for p in passes)
            metrics.update(_untraced_layer_metrics(spec, tally.steady, passes, pass_s))
            metrics["trace.overhead_frac"] = traced_pass_s / pass_s - 1.0
            metrics["faults.hook_overhead_frac"] = (
                pass_s
                / statistics.median(pass_seconds(p) for p in by_side["detached"])
                - 1.0
                if spec.hooks
                else 0.0
            )
            record.update(
                absent_targets=tracer.absent,
                traced_passes=len(by_side["traced"]),
                spans=len(table),
            )
            if spans_out:
                os.makedirs(os.path.dirname(spans_out) or ".", exist_ok=True)
                tracer.save(spans_out, table)
                record["spans_file"] = spans_out
            if metrics["trace.sum_residual_frac"] > 1e-6:
                tally.unstable.append("trace.sum_residual_frac")
    finally:
        tracer.pause()
        gc.unfreeze()

    cal = calib.summary()
    metrics["host.calib_ms"] = cal["calib_ms"]
    metrics["host.calib_spread"] = cal["calib_spread"]
    digests = [r.get("digest") for r in reference]
    record.update(
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        ops=[op.label for op in ops],
        work_edges=work_edges,
        pass_s=pass_s,
        host_meps=work_edges / pass_s / 1e6,
        setup_samples_s=setup_s,
        passes=len(passes),
        pass_samples_s=[pass_seconds(p) for p in passes],
        pass_rel_samples=rel["attached"],
        op_samples_s=[[r["seconds"] for r in p] for p in passes],
        op_digests=digests,
        answers_digest=hashlib.sha256(
            "".join(d or "-" for d in digests).encode()
        ).hexdigest(),
        exact={f: [r.get(f) for r in tally.steady] for f in EXACT_FIELDS},
        calibration={**cal, "samples_ms": calib.samples_ms},
        loadavg={"start": load_start, "end": os.getloadavg()},
        attempted=tally.attempted,
        failed=tally.failed,
        digest_changes=tally.digest_changes,
        unstable=sorted(set(tally.unstable)),
        errors=tally.errors[:20],
        correct=tally.failed == 0 and not tally.unstable,
        metrics={
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer" if trace else "end_to_end"]
        },
    )
    return record


def run_passes(tracer, calib, sides, ops, reference, tally, budget_s):
    """Timed passes until ``budget_s`` of timed work (at least
    MIN_PASSES per side), a calibration reading between every two.
    Returns ``(op records by side, pass_rel samples by side)``.

    ``sides`` are ``(name, engine, calls)``.  An untraced slice has one
    side.  A traced slice has the ``"traced"`` pass, the untraced pass
    on the same engine and, on a workload with hooks, an untraced pass
    on an identical engine with nothing attached (``"detached"``).
    Sides take turns pass by pass, so a slow spell of the host falls on
    all of them and the ratios between them (tracing overhead, hook
    overhead) stay meaningful."""
    by_side = {name: [] for name, _, _ in sides}
    rel = {name: [] for name, _, _ in sides}
    spent = 0.0
    before = calib.sample()
    while spent < budget_s or len(by_side[sides[0][0]]) < MIN_PASSES:
        for name, engine, calls in sides:
            if name == "traced":
                tracer.resume()
            else:
                tracer.pause()
            records = run_pass(engine, calls)
            after = calib.sample()
            # hooks change the modeled clock, never the answers
            tally.check(ops, records, reference, exact=name != "detached")
            by_side[name].append(records)
            rel[name].append(pass_seconds(records) / (before * after) ** 0.5)
            spent += pass_seconds(records)
            before = after
    return by_side, rel


def _untraced_layer_metrics(spec, steady, passes, pass_s) -> dict:
    """Per-layer numbers that need no spans: exact communication counts
    from ``CommCounters``, the modeled comm share, and op latencies of
    the untraced passes."""
    supersteps = sum(r.get("supersteps", 0) for r in steady)
    modeled = sum(r.get("modeled_s", 0.0) for r in steady)
    out = {
        "comm.calls": sum(r.get("comm_calls", 0) for r in steady),
        "comm.bytes": sum(r.get("comm_bytes", 0) for r in steady),
        "comm.serial_messages": sum(
            r.get("comm_serial_messages", 0) for r in steady
        ),
        "comm.modeled_frac": (
            sum(r.get("modeled_comm_s", 0.0) for r in steady) / modeled
            if modeled
            else 0.0
        ),
        "algorithms.supersteps": supersteps,
        "core.host_us_per_rank_step": (
            pass_s * 1e6 / (spec.R * spec.C * supersteps) if supersteps else 0.0
        ),
    }
    tail = op_tail([r["seconds"] for p in passes for r in p])
    out.update({f"algorithms.{k}": v for k, v in tail.items()})
    return out


def _traced(tracer: Tracer, call, op_ids):
    """Root span around one op; ops are numbered in issue order so
    spans can be cut into passes afterwards."""
    wrapped = tracer.wrap(layers.OP_BUCKET, call)

    def traced_call(engine):
        tracer.set_op(next(op_ids))
        return wrapped(engine)

    return traced_call


def _falsified(call):
    """Smoke-test fault: flip one element of an op's answer."""

    def bad_call(engine):
        res = call(engine)
        res.values.flat[0] += 1
        return res

    return bad_call


def print_metrics(record: dict, stream=sys.stderr) -> None:
    """Every metric by name with its unit, for a human."""
    print(
        f"# {record['workload']} seed={record['seed']} "
        f"work_edges={record['work_edges']} passes={record['passes']} "
        f"pass_s={record['pass_s']:.6g} host_meps={record['host_meps']:.6g} "
        f"attempted={record['attempted']} failed={record['failed']}",
        file=stream,
    )
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=stream)
    for line in record["errors"] + [f"unstable: {u}" for u in record["unstable"]]:
        print(f"! {line}", file=stream)
