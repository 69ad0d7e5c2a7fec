"""Benchmark of the signotopes package: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload construct --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one workload untraced and reports every end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` is the traced run: it runs all
four workloads, each in its own fresh process, alternating untraced and
traced passes, and reports every per-layer metric (``--workload`` only
sets which one goes first).  Each workload is a closed loop: one caller
in one process makes each call after the previous one returned, with no
threads and no think time.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries provenance and the details behind the numbers.
The same record is written to ``benchmarks/out/BENCH_<label>.json``.
The run exits non-zero without a result when the package source is absent.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters whose set-up time is measured per untraced run; the median is reported.
SETUP_SAMPLES = 6
#: Fresh processes the timed passes of an untraced run are split over.
SEGMENTS = 3
#: Share of ``--seconds`` each of the four workloads gets in the traced run
#: (untraced and traced passes together), so the traced run measures ``--seconds`` in all.
TRACE_SHARE = 0.25
#: Every run ends within this many seconds or fails.
DEADLINE_S = 170.0

#: ROADMAP baseline rows and the traced metric that reproduces each.
BASELINE_ROWS = [
    ("tower --r 3 --n 6: build", "0.11 s", "tower.build_s"),
    ("tower --r 3 --n 6: cold _link_index(64,3)", "0.92 s", "core.table_build_s"),
    ("tower --r 3 --n 6: peak", "71 MB", "core.table_mb"),
    ("verify on the 64-vertex file", "0.45 s", "core.predicates_s"),
    ("path on the 64-vertex file", "0.11 s", "paths.dp_s"),
    ("count --r 3 --n 7 and --r 4 --n 7", "1.55 s + 0.75 s", "enumeration.count_s"),
    ("count --r 3 --n 7 and --r 4 --n 7: nodes", "444,758 + 254,062", "enumeration.nodes"),
    ("comp --r 3 --h 3 --verify sample:1000:7", "0.81 s", "compositions.completions_per_s"),
    ("wiring on 64 wires", "0.69 s", "geometry.sweep_s"),
    ("acceptance criterion 4 (rate of the same verifiers)", "11.2 s", "tower.checks_per_s"),
]
#: Baseline rows left out on purpose: each is too slow to repeat in every run.
BASELINE_OMITTED = [
    ("count_monotone(3, 8), serial", "109.4 s per run"),
    ("block_coloring(5,2).transversal_zero_positions()", "12.9 s per run"),
    ("signotopes selftest (all criteria)", "about 19 s per run"),
]


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, env=env, timeout=30)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def child(workload: str, seed: int, seconds: float, mode: str, deadline: float,
          spans: str | None = None) -> dict:
    """Run one workload in a fresh interpreter and return its result record."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env,
                            text=True, cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} ({mode}) did not finish before the deadline")
    for line in out.splitlines():
        if line.startswith("@@result "):
            if proc.returncode == 0:
                return json.loads(line[len("@@result "):])
    raise RuntimeError(f"{workload} ({mode}) exited with code {proc.returncode}")


def tail(walls: list[float]) -> dict:
    """Median plus the highest percentile that still has ten passes beyond it."""
    n = len(walls)
    out = {"passes": n, "median": statistics.median(walls), "min": min(walls), "max": max(walls)}
    beyond = n - 10
    if beyond >= 1:
        pct = math.floor(100 * beyond / n)
        out[f"p{pct}"] = sorted(walls)[math.ceil(pct * n / 100) - 1]
    else:
        out["tail"] = "fewer than 11 passes: no percentile has ten passes beyond it"
    return out


def untraced(args, bench: dict, deadline: float) -> tuple[dict, dict, dict]:
    # The timed passes are split over SEGMENTS fresh processes, and set-up-only
    # processes run between them, so that the set-up samples and the passes see
    # the same mix of fast and slow spells of the machine.
    setups, walls, runs = [], [], []
    for _ in range(SEGMENTS):
        for _ in range(SETUP_SAMPLES // SEGMENTS - 1):
            setups.append(child(args.workload, args.seed, 0, "setup", deadline)["setup_s"])
        res = child(args.workload, args.seed, args.seconds / SEGMENTS, "run", deadline)
        setups.append(res["setup_s"])
        walls += res["walls"]
        runs.append(res)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    round_s = sum(r["reference_s"] for r in runs) / sum(r["reference_rounds"] for r in runs)
    peak = max(r["peak_rss_mb"] for r in runs)
    metrics = {
        "wall_ref": statistics.mean(walls) / round_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "ok_ratio": (attempted - failed) / attempted,
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    steps: dict[str, list] = {}
    for r in runs:
        for name, times in r["step_times"].items():
            steps.setdefault(name, []).extend(times)
    selftest = runs[-1]["selftest"]
    details = {
        "wall_s": {**tail(walls), "mean": statistics.mean(walls)},
        "reference_round_s": round_s,
        "setup_s": {"median": metrics["setup_s"], "samples": setups},
        "fail_ratio": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]],
        "checker_selftest": selftest,
        "inputs": runs[0]["sizes"],
        "step_times": steps,
        "seed_used": not runs[0]["deterministic"],
        "numpy": runs[0]["numpy"],
    }
    rows = [{
        "layer": "end_to_end", "workload": args.workload, "params": runs[0]["sizes"],
        "best_of_k_s": min(walls), "k": len(walls),
        "items_per_s": attempted / sum(walls), "nodes": None, "peak_rss_mb": peak,
    }]
    ok = failed == 0 and all(r["selftest"]["passed"] for r in runs)
    return ({"correct": ok, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
            details, {"rows": rows})


def traced(args, bench: dict, deadline: float) -> tuple[dict, dict, dict]:
    names = [w["name"] for w in bench["workloads"]]
    order = [args.workload] + [w for w in names if w != args.workload]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    metrics, details, rows = {}, {}, []
    attempted = failed = 0
    ok = True
    for name in order:
        spans = HERE / "out" / f"spans-{name}-seed{args.seed}.json"
        res = child(name, args.seed, args.seconds * TRACE_SHARE, "trace", deadline, str(spans))
        metrics.update(res["layer_metrics"])
        attempted += res["attempted"]
        failed += res["failed"]
        ok = ok and res["failed"] == 0 and res["selftest"]["passed"]
        details[name] = {
            "untraced_wall_s": tail(res["walls"]),
            "traced_wall_s": tail(res["traced_walls"]),
            "setup_s": res["setup_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "failures": res["failures"],
            "checker_selftest": res["selftest"],
            "inputs": res["sizes"],
            "observations": res["extras"],
            "spans_file": str(spans.relative_to(ROOT)),
        }
        details["numpy"] = res["numpy"]
        for key, value in res["layer_metrics"].items():
            parts = key.split(".")
            layer = parts[-1] if parts[0] in ("self_s", "share") else parts[0]
            rows.append({"layer": layer, "metric": key, "workload": name,
                         "params": res["sizes"], "value": value, "unit": units.get(key),
                         "peak_rss_mb": res["peak_rss_mb"]})
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                           f"missing {sorted(missing)}, unlisted {sorted(extra)}")
    details["known_defect"] = {
        "what": "count_monotone(3, 7, workers=2) counts fewer nodes than the serial search",
        "serial_nodes": details["count"]["observations"]["serial_nodes"],
        "w2_nodes": details["count"]["observations"]["w2_nodes"],
    }
    details["baseline_rows"] = [
        {"row": row, "roadmap": base, "metric": key, "measured": metrics[key], "unit": units[key]}
        for row, base, key in BASELINE_ROWS
    ]
    details["baseline_omitted"] = [{"row": row, "cost": cost} for row, cost in BASELINE_OMITTED]
    return ({"correct": ok, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}},
            details, {"rows": rows})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "signotopes" / "__init__.py").is_file():
        return fail(f"package source not found under {SRC.relative_to(ROOT)}/")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(why)}")
    # Building from source is byte-compiling it, so no measured set-up pays for that.
    if not compileall.compile_dir(str(SRC), quiet=1):
        return fail("byte-compiling the package failed")

    try:
        result, details, record = (traced if args.trace else untraced)(args, bench, deadline)
    except RuntimeError as exc:
        return fail(str(exc))
    prov = {**provenance(), "numpy": details.pop("numpy")}
    label = f"trace-seed{args.seed}" if args.trace else f"{args.workload}-seed{args.seed}"
    head = {
        "label": label,
        "workload": args.workload,
        "why": why if args.trace else why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "details": details,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"BENCH_{label}.json", "w") as fh:
        json.dump({**head, **record, "result": result}, fh, indent=1)
    print(json.dumps(head))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
