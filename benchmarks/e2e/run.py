#!/usr/bin/env python3
"""The repo benchmark.  Three ways to call it, all from the repo root:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One slice: measure workload W once in this process and print two
    JSON lines on stdout: the full slice record, then ``{"correct",
    "attempted", "failed", "metrics"}`` (end-to-end metrics with
    ``--trace 0``, per-layer metrics with ``--trace 1``).  This is what
    ``BENCHMARK.json`` names.

``run.py [--seed S] [--rounds N] [--seconds T] [--trace] --out FILE``
    Every workload in interleaved rounds, one fresh slice process at a
    time, rotating the starting workload each round; ``--trace`` adds a
    traced slice per workload to the first three rounds.  Writes the
    aggregated report and prints every metric by name with its unit.

``run.py --compare A.json B.json``
    Judge report B against base A with the bounds of ``BENCHMARK.json``.

Exit status is non-zero when an op failed, an answer or an exact metric
changed between passes or rounds, or a comparison came out worse.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: Host threads are pinned and engine-behaviour variables scrubbed, so a
#: slice measures the configuration it passes explicitly and nothing else.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCRUBBED = ("REPRO_EXECUTOR", "REPRO_OVERLAP")

TRACED_ROUNDS = 3


def bootstrap() -> None:
    """Prepare this process to import the program from *this* checkout.
    Must run before NumPy is imported (thread pinning)."""
    for var in SCRUBBED:
        os.environ.pop(var, None)
    for var in PINNED:
        os.environ[var] = "1"
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program from {ROOT}/src: {exc}")
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(
            f"`repro` resolved to {repro.__file__}, not to this checkout's src/"
        )


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- one slice ------------------------------------------------------------------
def cmd_slice(args) -> int:
    bootstrap()
    import measure

    spans_out = None
    if args.trace:
        spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
    record = measure.run_slice(
        load_bench(),
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale=args.scale,
        spans_out=spans_out,
    )
    measure.print_metrics(record)
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


# -- interleaved rounds ---------------------------------------------------------
def spawn_slice(workload: str, seed: int, seconds: float, trace: int, scale) -> dict:
    """Run one slice in a fresh process and return its full record."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if scale is not None:
        cmd += ["--scale", str(scale)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(
            f"slice {workload} (trace={trace}) exited {proc.returncode} without a record"
        )
    return json.loads(lines[-2])


def cmd_rounds(args) -> int:
    import report

    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    records = []
    for rnd in range(args.rounds):
        order = names[rnd % len(names):] + names[: rnd % len(names)]
        for workload in order:
            traces = [0, 1] if args.trace and rnd < TRACED_ROUNDS else [0]
            for trace in traces:
                print(f"round {rnd}: {workload} trace={trace}", file=sys.stderr)
                record = spawn_slice(workload, args.seed, args.seconds, trace, args.scale)
                record["round"] = rnd
                records.append(record)
    result = report.aggregate(bench, args.seed, args.rounds, records)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(report.format_report(result))
    return 1 if result["problems"] else 0


def cmd_compare(args) -> int:
    import report

    with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
        table, ok = report.compare(json.load(fa), json.load(fb))
    print(table)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload once (slice mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0, help="timed work per slice")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="slice mode: 1 = traced slice; rounds mode: add traced slices",
    )  # fmt: skip
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--out", help="write the aggregated report here (rounds mode)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument(
        "--scale", type=int, help="test-only: override every workload's R-MAT scale"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return cmd_compare(args)
    if args.workload:
        return cmd_slice(args)
    if not args.out:
        parser.error("give --workload (one slice), --out (all rounds) or --compare")
    return cmd_rounds(args)


if __name__ == "__main__":
    sys.exit(main())
