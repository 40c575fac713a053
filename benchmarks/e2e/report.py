"""Aggregate slice records over rounds, and compare two such reports.

Standard library only: the runner process that spawns the slices and
the ``--compare`` tool import neither NumPy nor the program.
"""

from __future__ import annotations

import statistics

__all__ = [
    "SCHEMA",
    "REPORT_ONLY",
    "summarize",
    "op_tail",
    "aggregate",
    "compare",
    "format_report",
]

SCHEMA = "repro.bench.e2e.v1"

#: End-to-end metrics of the rounds report that BENCHMARK.json does not
#: carry: ``name -> (unit, better, bound)``; every other name, unit,
#: direction and bound is read from BENCHMARK.json.  Raw host seconds are
#: reported unrescaled by the rounds runner, whose interleaving is their
#: noise defence; a single slice cannot interleave, so BENCHMARK.json
#: bounds ``pass_rel`` instead and these two are held to its bound
#: (``None`` here).  ``failed_op_frac`` and ``answers_stable`` are 0 and 1
#: on a healthy run and a BENCHMARK.json end-to-end metric may never be
#: 0, so a slice carries them as ``failed`` / ``correct`` instead.
REPORT_ONLY = {
    "pass_s": ("s", "lower", None),
    "host_meps": ("Medges/s", "higher", None),
    "failed_op_frac": ("frac", "lower", 0.0),
    "answers_stable": ("0/1", "higher", 0.0),
}

NOISY_CALIBRATION = 0.15


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``), sample count
    and ``spread = IQR / median``."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "value": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def _percentile(sorted_xs: list[float], pct: float) -> float:
    pos = (len(sorted_xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def op_tail(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples
    beyond it (the median itself while there are too few samples)."""
    xs = sorted(samples)
    pct = max(50.0, 100.0 * (1.0 - 10.0 / len(xs)))
    return {
        "op_p50_s": _percentile(xs, 50.0),
        "op_tail_s": _percentile(xs, pct),
        "op_tail_pct": pct,
        "op_samples": len(xs),
    }


def _is_count(unit: str) -> bool:
    return unit in ("count", "bytes")


def aggregate(bench: dict, seed: int, rounds: int, records: list[dict]) -> dict:
    """Fold every slice record of a run into one report.

    ``problems`` lists what makes the run fail: failed ops, answers or
    exact metrics that changed between rounds, a span sum that does not
    close.
    """
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {
        "schema": SCHEMA,
        "seed": seed,
        "rounds": rounds,
        "host": records[0]["host"],
        "workloads": {},
        "problems": [],
    }
    calib = [r["calibration"]["calib_ms"] for r in records]
    calib_median = statistics.median(calib)
    noisy = [
        f"{r['workload']}@round{r['round']}"
        for r in records
        if abs(r["calibration"]["calib_ms"] / calib_median - 1.0) > NOISY_CALIBRATION
    ]
    report["calibration"] = {
        "calib_ms": summarize(calib),
        "noisy_slices": noisy,
        "slices": len(records),
    }

    for wl in bench["workloads"]:
        name = wl["name"]
        mine = [r for r in records if r["workload"] == name]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        problems = report["problems"]
        for r in mine:
            problems += [f"{name}@round{r['round']}: {e}" for e in r["errors"]]
            problems += [
                f"{name}@round{r['round']}: {u} changed between passes"
                for u in r["unstable"]
            ]
        first = mine[0]
        for r in mine:
            if r["answers_digest"] != first["answers_digest"]:
                problems.append(f"{name}@round{r['round']}: answers differ from round 0")
            if r["trace"] == first["trace"] and r["exact"] != first["exact"]:
                problems.append(
                    f"{name}@round{r['round']}: modeled time or counts differ from round 0"
                )

        pass_samples = [s for r in plain for s in r["pass_samples_s"]]
        work = plain[0]["work_edges"]
        e2e = {
            "setup_s": summarize([r["metrics"]["setup_s"]["value"] for r in plain]),
            "pass_s": summarize(pass_samples),
            "host_meps": summarize([work / s / 1e6 for s in pass_samples if s]),
            "pass_rel": summarize([x for r in plain for x in r["pass_rel_samples"]]),
            "peak_rss_mb": summarize(
                [r["metrics"]["peak_rss_mb"]["value"] for r in plain]
            ),
            # one value each: these repeat exactly or the run has a problem
            "modeled_pass_s": summarize(
                [plain[0]["metrics"]["modeled_pass_s"]["value"]]
            ),
            "failed_op_frac": summarize(
                [sum(r["failed"] for r in mine) / sum(r["attempted"] for r in mine)]
            ),
            "answers_stable": summarize(
                [
                    int(
                        all(
                            r["answers_digest"] == first["answers_digest"]
                            and r["digest_changes"] == 0
                            for r in mine
                        )
                    )
                ]
            ),
        }
        for metric, entry in e2e.items():
            if metric in REPORT_ONLY:
                entry["unit"], entry["better"], bound = REPORT_ONLY[metric]
                entry["bound"] = bounds["pass_rel"]["bound"] if bound is None else bound
            else:
                entry["unit"] = bounds[metric]["unit"]
                entry["better"] = bounds[metric]["better"]
                entry["bound"] = bounds[metric]["bound"]

        per_layer = {}
        if traced:
            for m in bench["per_layer"]:
                values = [r["metrics"][m["name"]]["value"] for r in traced]
                if _is_count(m["unit"]):
                    per_layer[m["name"]] = {"value": values[0], "unit": m["unit"]}
                    if len(set(values)) > 1:
                        problems.append(f"{name}: {m['name']} differs between rounds")
                else:
                    per_layer[m["name"]] = {**summarize(values), "unit": m["unit"]}
            # op latencies come from the untraced slices, pooled
            pooled = [s for r in plain for p in r["op_samples_s"] for s in p]
            for key, value in op_tail(pooled).items():
                metric = f"algorithms.{key}"
                per_layer[metric] = {"value": value, "unit": per_layer[metric]["unit"]}

        report["workloads"][name] = {
            "why": wl["why"],
            "work_edges": work,
            "ops": first["ops"],
            "n_vertices": first["n_vertices"],
            "n_edges": first["n_edges"],
            "grid": first["grid"],
            "end_to_end": e2e,
            "per_layer": per_layer,
            "rounds": [
                {
                    "round": r["round"],
                    "trace": r["trace"],
                    "pass_samples_s": r["pass_samples_s"],
                    "setup_samples_s": r["setup_samples_s"],
                    "calibration": r["calibration"],
                    "loadavg": r["loadavg"],
                }
                for r in mine
            ],
        }
    return report


def format_report(report: dict) -> str:
    """Every metric by name with its unit."""
    lines = [
        f"seed {report['seed']}, {report['rounds']} rounds; calibration "
        f"{report['calibration']['calib_ms']['value']:.2f} ms, "
        f"{len(report['calibration']['noisy_slices'])} of "
        f"{report['calibration']['slices']} slices noisy"
    ]
    for name, wl in report["workloads"].items():
        lines.append(f"\n[{name}] work_edges={wl['work_edges']}  {wl['why']}")
        for metric, m in {**wl["end_to_end"], **wl["per_layer"]}.items():
            line = f"  {metric} = {m['value']:.6g} {m['unit']}"
            if m.get("n", 1) > 1:
                line += (
                    f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, "
                    f"n {m['n']}, spread {m['spread']:.3f})"
                )
            lines.append(line)
    lines += [f"PROBLEM: {p}" for p in report["problems"]]
    return "\n".join(lines)


def compare(a: dict, b: dict) -> tuple[str, bool]:
    """Compare report ``b`` against base ``a``; returns the table and
    whether no end-to-end metric is worse than its bound allows — the
    same judgement BENCHMARK.json's bounds express.  Per-layer counts
    that differ are listed; like every per-layer metric they have no
    bound and do not decide the outcome."""
    lines, ok = [], True
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"[{name}] missing from the second report")
            ok = False
            continue
        lines.append(f"[{name}]")
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            verdict = _verdict(ma, mb)
            ok &= verdict != "worse"
            ratio = f"{mb['value'] / ma['value']:.4f}" if ma["value"] else "n/a"
            lines.append(
                f"  {metric}: {_fmt(ma)} vs {_fmt(mb)} {ma['unit']}; "
                f"ratio {ratio} (base {ma['value']:.6g}), "
                f"bound {ma['bound']:.0%} -> {verdict}"
            )
        differing = [
            f"  {metric}: {ma['value']} vs {wb['per_layer'][metric]['value']} "
            f"{ma['unit']} -> DIFFERENT"
            for metric, ma in wa["per_layer"].items()
            if _is_count(ma["unit"])
            and metric in wb["per_layer"]
            and ma["value"] != wb["per_layer"][metric]["value"]
        ]
        if wa["per_layer"] and wb["per_layer"]:
            lines += differing or ["  per-layer counts: equal"]
    return "\n".join(lines), ok


def _fmt(m: dict) -> str:
    if m["n"] == 1:
        return repr(m["value"])
    return f"{m['value']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"


def _verdict(ma: dict, mb: dict) -> str:
    """``equal`` is said only of values that are identical, so a metric
    that must repeat exactly (one value a side, spread 0) shows any
    difference even when its bound tolerates it."""
    if ma["value"] == mb["value"]:
        return "equal"
    bound = ma["bound"]
    worse_by = mb["value"] - ma["value"]
    if ma["better"] == "higher":
        worse_by = -worse_by
    limit = bound * abs(ma["value"])
    overlap = ma["q1"] <= mb["q3"] and mb["q1"] <= ma["q3"]
    if overlap and (ma["spread"] > bound or mb["spread"] > bound):
        return "unresolved"
    if worse_by > limit:
        return "worse"
    if worse_by < -limit:
        return "better"
    return "within bound"
