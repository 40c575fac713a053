"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run one algorithm on a dataset stand-in over a simulated cluster
    and print the timing/throughput summary::

        python -m repro run --algo CC --dataset TW --ranks 16
        python -m repro run --algo PR --dataset RMAT20 --ranks 64 --cluster zepy

``scaling``
    Strong-scaling sweep, printed as the paper's Fig. 3-style table::

        python -m repro scaling --dataset GSH --algos BFS,PR,CC --ranks 1,4,16,64

``trace``
    Run one algorithm and emit its exact per-iteration comm/compute
    breakdown (counter-snapshot deltas, not time-share estimates) as
    CSV and/or JSON::

        python -m repro trace --algo CC --dataset TW --ranks 16
        python -m repro trace --algo PR --dataset RMAT12 --ranks 4 --out pr_trace

``perf``
    Measure the simulator's own wall-clock performance (the modeled
    benches report virtual time; this one times the host) and append
    the result to the persisted trajectory file::

        python -m repro perf --scale 14 --ranks 16 --out BENCH_simulator.json

``faults``
    Run the fault-injection scenario campaign (crash/recovery,
    transient retries, bit-flip detection, stragglers) and report
    whether every faulted run recovered to the fault-free answer::

        python -m repro faults --dataset FR --ranks 4
        python -m repro faults --scenario crash-recover --algos BFS,PR

    Exits nonzero when any scenario ends unrecovered or diverged.

``claims``
    Run the paper's figure experiments and evaluate every claim row
    (:mod:`repro.bench.claims`); exits 1 when any row fails::

        python -m repro claims --out tests/claims_golden.json

``info``
    Show the registered datasets, machines, and algorithms.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .bench.harness import ALGORITHMS, format_rows, make_engine, run_algorithm, strong_scaling
from .bench.reporting import to_csv, to_markdown
from .cluster.config import AIMOS, DGX, ZEPY
from .core.trace import TraceRecorder
from .graph.datasets import available, load

_CLUSTERS = {"aimos": AIMOS, "zepy": ZEPY, "dgx": DGX}


def _cmd_run(args: argparse.Namespace) -> int:
    ds = load(
        args.dataset,
        target_edges=args.target_edges,
        seed=args.seed,
        weighted=args.algo.upper() in ("MWM",),
    )
    print(ds.note)
    engine = make_engine(ds, args.ranks, cluster=_CLUSTERS[args.cluster])
    row = run_algorithm(
        args.algo.upper(),
        engine,
        experiment="cli",
        dataset=args.dataset.upper(),
        full_scale_edges=ds.meta.n_edges,
    )
    print(format_rows([row]))
    print()
    print(f"projected full-scale time : {row.time_total:.3f}s")
    print(f"communication share       : {100 * row.time_comm / row.time_total:.0f}%")
    print(f"projected throughput      : {row.teps / 1e9:.2f} GTEPS")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    algos = [a.strip().upper() for a in args.algos.split(",")]
    ranks = [int(p) for p in args.ranks.split(",")]
    rows = strong_scaling(
        args.dataset,
        algos,
        ranks,
        target_edges=args.target_edges,
        cluster=_CLUSTERS[args.cluster],
        seed=args.seed,
    )
    if args.format == "markdown":
        print(to_markdown(rows, title=f"strong scaling on {args.dataset}"))
    elif args.format == "csv":
        print(to_csv(rows), end="")
    else:
        print(format_rows(rows, f"strong scaling on {args.dataset}"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    ds = load(
        args.dataset,
        target_edges=args.target_edges,
        seed=args.seed,
        weighted=args.algo.upper() in ("MWM",),
    )
    engine = make_engine(ds, args.ranks, cluster=_CLUSTERS[args.cluster])
    row = run_algorithm(
        args.algo.upper(),
        engine,
        experiment="trace",
        dataset=args.dataset.upper(),
        full_scale_edges=ds.meta.n_edges,
    )
    rows = row.extra["trace"]
    meta = {
        "algo": row.algorithm,
        "dataset": row.dataset,
        "ranks": row.n_ranks,
        "grid": row.grid,
        "cluster": args.cluster,
        "note": ds.note,
    }
    csv_text = TraceRecorder.to_csv(rows)
    json_text = TraceRecorder.to_json(rows, meta=meta)

    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        csv_path = out.with_suffix(".csv")
        json_path = out.with_suffix(".json")
        csv_path.write_text(csv_text)
        json_path.write_text(json_text)
        print(f"wrote {csv_path}")
        print(f"wrote {json_path}")
    else:
        if args.format in ("csv", "both"):
            print(csv_text, end="")
        if args.format in ("json", "both"):
            print(json_text)

    # Exactness check: trace rows must reproduce the run totals.
    c = engine.counters
    exact = (
        sum(r.bytes for r in rows) == c.total_bytes
        and sum(r.serial_messages for r in rows) == c.total_serial_messages
        and sum(r.transfers for r in rows) == c.total_transfers
    )
    print(
        f"# {row.algorithm} on {row.dataset}: {len(rows)} iterations, "
        f"{c.total_bytes} bytes, {c.total_serial_messages} serial messages "
        f"({'exact' if exact else 'MISMATCH'})",
        file=sys.stderr,
    )
    return 0 if exact else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    from .bench.perf import append_entry, run_perf

    entry = run_perf(
        scale=args.scale,
        ranks=args.ranks,
        repeats=args.repeats,
        label=args.label,
        primitives=not args.no_primitives,
        modeled=args.overlap,
        batch=args.batch,
        batch_ks=tuple(
            int(k) for k in args.batch_ks.split(",")
        ) if args.batch else (4, 8, 16),
    )
    for section in ("algorithms", "primitives"):
        if section not in entry:
            continue
        print(f"{section}:")
        for name, t in entry[section].items():
            print(
                f"  {name:>20}: best {t['best_s'] * 1e3:9.3f} ms  "
                f"mean {t['mean_s'] * 1e3:9.3f} ms  ({t['repeats']} repeats)"
            )
    if "modeled" in entry:
        print("modeled (virtual clock, blocking vs overlapped):")
        for name, m in entry["modeled"].items():
            blk, ovl = m["blocking"], m["overlapped"]
            print(
                f"  {name:>20}: blocking {blk['total_s']:9.3f}s  "
                f"overlapped {ovl['total_s']:9.3f}s  "
                f"(x{m['speedup']:.3f}, hid {ovl['overlap_fraction']:.1%} "
                f"of comm)"
            )
    if "batched" in entry:
        print("batched k-source BFS (vs k sequential runs):")
        for name, b in entry["batched"].items():
            calls = b["allgatherv_calls"]
            ident = "bit-identical" if b["bit_identical"] else "MISMATCH"
            print(
                f"  {name:>20}: seq {b['sequential']['best_s'] * 1e3:9.3f} ms  "
                f"batch {b['batched']['best_s'] * 1e3:9.3f} ms  "
                f"(x{b['speedup']:.2f}, allgatherv {calls['sequential']}"
                f"->{calls['batched']} = x{calls['ratio']:.2f} fewer, "
                f"{ident})"
            )
    if args.out:
        data = append_entry(args.out, entry)
        print(f"appended entry {len(data['entries'])} to {args.out}")
    return 0


#: How ``faults`` prints each campaign kind: default grid size, table
#: header, row format (over the report row's keys plus the derived
#: cells ``values``/``grids``/``dgh``), and the summary line's tail.
#: Elastic campaigns need headroom to shrink: 12 ranks, so a 4x3 layout
#: can lose ranks and still factor usefully.  The others take 4: the
#: autoscale demote-then-grow-back round trip is 2x2 -> 1x3 -> 2x2
#: (back to the original grid), and the integrity ledger needs
#: replicated windows on both grid axes (R >= 2 and C >= 2).
_FAULT_TABLES = {
    "campaign": (
        4,
        f"{'scenario':>18} {'algo':>5} {'status':>12} {'values':>7} "
        f"{'clocks':>7} {'events':>7} {'recovery[s]':>12}",
        "{scenario:>18} {algo:>5} {status:>12} {values_equal!s:>7} "
        "{clocks_equal!s:>7} {n_fault_events:>7} {recovery_s:>12.3e}",
        "({unrecovered} unrecovered)",
    ),
    "elastic": (
        12,
        f"{'scenario':>24} {'algo':>5} {'status':>12} {'values':>7} "
        f"{'regrids':>8} {'grids':>20} {'regrid[s]':>11} {'frac':>6}",
        "{scenario:>24} {algo:>5} {status:>12} {values:>7} {n_regrids:>8} "
        "{grids:>20} {regrid_s:>11.3e} {regrid_fraction:>6.1%}",
        "({unrecovered} unrecovered, {diverged} diverged), {regrids} regrids",
    ),
    "autoscale": (
        4,
        f"{'scenario':>26} {'algo':>5} {'status':>10} {'values':>7} "
        f"{'regrids':>8} {'dem/grow/hold':>13} {'grids':>20} "
        f"{'regrid[s]':>11}",
        "{scenario:>26} {algo:>5} {status:>10} {values:>7} {n_regrids:>8} "
        "{dgh:>13} {grids:>20} {regrid_s:>11.3e}",
        "({unrecovered} unrecovered, {diverged} diverged), "
        "{demotions} demotions, {grows} grows, {holds} holds",
    ),
    "sdc": (
        4,
        f"{'scenario':>18} {'algo':>5} {'status':>10} {'detected':>9} "
        f"{'values':>7} {'clocks':>7} {'repairs':>8} {'certify[s]':>11}",
        "{scenario:>18} {algo:>5} {status:>10} {detected!s:>9} "
        "{values_equal!s:>7} {clocks_equal!s:>7} {repairs:>8} "
        "{certify_s:>11.3e}",
        "({undetected} undetected, {unrepaired} unrepaired), "
        "{repairs} repairs",
    ),
}


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from .faults.scenarios import CAMPAIGNS, WEIGHTED_ALGOS, run_campaign

    # --elastic / --autoscale / --sdc set args.kind; conflicts are
    # rejected by the parser's mutually-exclusive group (exit 2).
    camp = CAMPAIGNS[args.kind]
    default_ranks, header, row_format, summary = _FAULT_TABLES[args.kind]
    algos = (
        [a.strip().upper() for a in args.algos.split(",")]
        if args.algos
        else sorted(camp.algos)
    )
    for algo in algos:
        if algo not in camp.algos:
            print(
                f"unknown algorithm {algo!r}; choose from {sorted(camp.algos)}"
            )
            return 2
    if args.scenario != "all" and args.scenario not in camp.scenarios:
        mode = "non-elastic" if args.kind == "campaign" else f"--{args.kind}"
        print(
            f"scenario {args.scenario!r} is not a {mode} scenario; "
            f"choose from {sorted(camp.scenarios)}"
        )
        return 2
    ranks = default_ranks if args.ranks is None else args.ranks
    ds = load(args.dataset, target_edges=args.target_edges, seed=args.seed)
    print(ds.note)

    def engine_factory(dataset):
        return lambda: make_engine(dataset, ranks, cluster=_CLUSTERS[args.cluster])

    weighted_engine = None
    if any(a in WEIGHTED_ALGOS for a in algos):
        weighted_engine = engine_factory(
            load(
                args.dataset,
                target_edges=args.target_edges,
                seed=args.seed,
                weighted=True,
            )
        )
    report = run_campaign(
        args.kind,
        engine_factory(ds),
        algos=algos,
        scenarios=None if args.scenario == "all" else [args.scenario],
        checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries,
        make_weighted_engine=weighted_engine,
    )

    print(header)
    print("-" * len(header))
    for c in report["cases"]:
        close = c.get("values_close")
        print(
            row_format.format(
                values="exact" if c["values_equal"] else "~ulp" if close else "DIFF",
                grids="->".join(f"{r}x{cc}" for r, cc in c.get("grid_trail", ())),
                dgh="/".join(
                    str(c.get(k)) for k in ("n_demotions", "n_grows", "n_holds")
                ),
                **c,
            )
        )
    print()
    print(
        ("{total} cases: {ok} ok, {failed} failed " + summary).format(
            ok=report["total"] - report["failed"], **report
        )
    )
    if report.get("skipped"):
        skipped = ", ".join(
            f"{s['algo']}@{s['scenario']}" for s in report["skipped"]
        )
        print(f"skipped (no weighted graph): {skipped}")
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2))
        print(f"wrote {out}")
    return 1 if report["failed"] else 0


def _cmd_claims(args: argparse.Namespace) -> int:
    import json

    from .bench.claims import run_claims

    report = run_claims()
    for row in report["rows"]:
        print(f"{row['figure']:<10} {row['id']:<26} {'ok' if row['pass'] else 'FAIL':<4} "
              f"{row['inequality']}")
        if row["failing"]:
            print(f"{'':<42}failing: {', '.join(row['failing'])}")
    print(f"\n{report['total']} rows: {report['total'] - report['failed']} pass, "
          f"{report['failed']} fail")
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    return 1 if report["failed"] else 0


def _cmd_info(args: argparse.Namespace) -> int:
    del args
    from .graph.datasets import REGISTRY

    print("datasets (paper Table 4; stand-ins generated on demand):")
    for abbr in available():
        m = REGISTRY[abbr]
        print(
            f"  {abbr:>4}  {m.name:<16} N={m.n_vertices:>13,}  M={m.n_edges:>16,}  [{m.kind}]"
        )
    print("  plus RMATxx / RANDxx synthetic families")
    print()
    print("machines:")
    for name, cfg in _CLUSTERS.items():
        node = cfg.node
        print(
            f"  {name:>6}: {node.gpus_per_node}x {cfg.gpu.name} per node, "
            f"NVLink islands of {node.nvlink_group_size}, "
            f"NIC {node.nic.bandwidth_Bps / 1e9:.1f} GB/s"
        )
    print()
    print(f"algorithms: {', '.join(sorted(ALGORITHMS))} "
          "(+ sssp, core_numbers, triangle_count via the library API)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPCGraph-GPU reproduction: 2D distributed graph "
        "processing on simulated GPU clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm")
    run.add_argument("--algo", required=True, choices=sorted(ALGORITHMS) + [a.lower() for a in ALGORITHMS])
    run.add_argument("--dataset", default="TW")
    run.add_argument("--ranks", type=int, default=16)
    run.add_argument("--cluster", choices=sorted(_CLUSTERS), default="aimos")
    run.add_argument("--target-edges", type=int, default=1 << 16)
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=_cmd_run)

    scaling = sub.add_parser("scaling", help="strong-scaling sweep")
    scaling.add_argument("--dataset", default="TW")
    scaling.add_argument("--algos", default="BFS,PR,CC")
    scaling.add_argument("--ranks", default="1,4,16,64")
    scaling.add_argument("--cluster", choices=sorted(_CLUSTERS), default="aimos")
    scaling.add_argument("--target-edges", type=int, default=1 << 16)
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument(
        "--format", choices=["text", "markdown", "csv"], default="text"
    )
    scaling.set_defaults(func=_cmd_scaling)

    trace = sub.add_parser(
        "trace", help="per-iteration comm/compute breakdown of one run"
    )
    trace.add_argument("--algo", required=True, choices=sorted(ALGORITHMS) + [a.lower() for a in ALGORITHMS])
    trace.add_argument("--dataset", default="TW")
    trace.add_argument("--ranks", type=int, default=16)
    trace.add_argument("--cluster", choices=sorted(_CLUSTERS), default="aimos")
    trace.add_argument("--target-edges", type=int, default=1 << 16)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--format", choices=["csv", "json", "both"], default="both",
        help="what to print when --out is not given",
    )
    trace.add_argument(
        "--out", default=None, metavar="PREFIX",
        help="write PREFIX.csv and PREFIX.json instead of printing",
    )
    trace.set_defaults(func=_cmd_trace)

    perf = sub.add_parser(
        "perf", help="wall-clock performance of the simulator itself"
    )
    perf.add_argument("--scale", type=int, default=14, help="rmat scale")
    perf.add_argument("--ranks", type=int, default=16)
    perf.add_argument("--repeats", type=int, default=3)
    perf.add_argument("--label", default="", help="entry label in the trajectory")
    perf.add_argument(
        "--out", default=None, metavar="PATH",
        help="append the entry to this trajectory JSON (e.g. BENCH_simulator.json)",
    )
    perf.add_argument(
        "--no-primitives", action="store_true",
        help="skip the primitive micro-timings (algorithms only)",
    )
    perf.add_argument(
        "--overlap", action="store_true",
        help="also record the modeled (virtual-clock) blocking-vs-"
             "overlapped comparison for BFS/PR/CC/SpMV",
    )
    perf.add_argument(
        "--batch", action="store_true",
        help="also record batched k-source BFS vs k sequential runs "
             "(wall time, allgatherv call counts, bit-identity)",
    )
    perf.add_argument(
        "--batch-ks", default="4,8,16", metavar="K,K,...",
        help="comma-separated lane counts for --batch (default 4,8,16)",
    )
    perf.set_defaults(func=_cmd_perf)

    faults = sub.add_parser(
        "faults", help="fault-injection scenario campaign with recovery checks"
    )
    from .faults.scenarios import CAMPAIGNS

    # The campaigns are alternatives: exactly one (or none, for the
    # plain crash/retry campaign) may be selected.  argparse enforces
    # the conflict and exits 2 with a usage message.
    campaign = faults.add_mutually_exclusive_group()
    faults.set_defaults(kind="campaign")
    campaign.add_argument(
        "--elastic", dest="kind", action="store_const", const="elastic",
        help="run the elastic (permanent-rank-loss) campaign: crashes "
             "regrid onto the surviving GPUs instead of resuming in place",
    )
    campaign.add_argument(
        "--autoscale", dest="kind", action="store_const", const="autoscale",
        help="run the autoscale campaign: the health watchdog demotes "
             "chronic stragglers and the grid grows back onto arriving "
             "spare ranks",
    )
    campaign.add_argument(
        "--sdc", dest="kind", action="store_const", const="sdc",
        help="run the silent-data-corruption campaign: memory bit-flips "
             "in per-rank state arrays, detected by the integrity "
             "ledger and repaired by checkpoint rollback (graded "
             "bit-identical to fault-free runs)",
    )
    faults.add_argument(
        "--scenario", default="all",
        choices=["all"]
        + [s for camp in CAMPAIGNS.values() for s in sorted(camp.scenarios)],
        help="one scenario, or 'all' for the default campaign "
             "(excludes the deliberately-failing crash-unrecovered); "
             "with --elastic/--autoscale/--sdc, one of that campaign's "
             "scenarios",
    )
    faults.add_argument(
        "--algos", default=None,
        help="comma-separated algorithms (default: every algorithm the "
             "selected campaign supports; resume-capable: "
             + ", ".join(sorted(CAMPAIGNS["campaign"].algos))
             + "; --sdc adds " + ", ".join(
                 sorted(set(CAMPAIGNS["sdc"].algos)
                        - set(CAMPAIGNS["campaign"].algos))) + ")",
    )
    faults.add_argument("--dataset", default="FR")
    faults.add_argument(
        "--ranks", type=int, default=None,
        help="grid size (default 4; 12 with --elastic so shrinks "
             "have factor-pair headroom; 4 with --autoscale so the "
             "demote/grow round trip returns to the original 2x2)",
    )
    faults.add_argument("--cluster", choices=sorted(_CLUSTERS), default="aimos")
    faults.add_argument("--target-edges", type=int, default=1 << 12)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--checkpoint-interval", type=int, default=1)
    faults.add_argument("--max-retries", type=int, default=4)
    faults.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON campaign report here",
    )
    faults.set_defaults(func=_cmd_faults)

    claims = sub.add_parser(
        "claims", help="evaluate the paper's claims table (exits 1 on a failing row)"
    )
    claims.add_argument(
        "--out", default=None, metavar="PATH", help="also write the JSON report here"
    )
    claims.set_defaults(func=_cmd_claims)

    info = sub.add_parser("info", help="list datasets, machines, algorithms")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
