"""One workload in one fresh interpreter; started by ``run.py``, not by hand.

Prints a single line ``@@result <json>`` on stdout.  ``setup_s`` runs from
the parent's launch timestamp (``--t0``, on the system-wide monotonic
clock) to the end of the warm-up, so it includes interpreter start,
importing the package and filling its cached tables.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None, help="file to write the traced spans to")
    args = ap.parse_args()

    import numpy as np
    import signotopes

    from checks import Ledger, selftest
    from trace import BENCH, Tracer, summarize
    from workloads import WORKLOADS, Reference, peak_rss_mb

    tracer, ledger = Tracer(), Ledger()
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](signotopes, args.seed, tracer, ledger, str(workdir))
        setup = wl.warm_up()
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "numpy": np.__version__}
        if args.mode != "setup":
            walls, traced_walls, traced_ids = [], [], []
            if args.mode == "run":
                wl.reference = Reference()
            start = time.perf_counter()
            # Stop when the next pass would more likely end after the budget than before it.
            while not walls or time.perf_counter() - start + walls[-1] / 2 < args.seconds:
                wl.run_pass()
                # A pass is its steps; reference slices run between steps, outside them.
                walls.append(sum(v[-1] for v in wl.step_times.values()))
                if args.mode == "trace":
                    tracer.enabled = True
                    tracer.pass_id += 1
                    t = time.perf_counter()
                    with tracer.span(BENCH, "pass"):
                        wl.run_pass()
                    traced_walls.append(time.perf_counter() - t)
                    traced_ids.append(tracer.pass_id)
                    tracer.enabled = False
            result.update(
                walls=walls,
                reference_s=wl.reference.seconds if wl.reference else None,
                reference_rounds=wl.reference.rounds if wl.reference else None,
                attempted=ledger.attempted,
                failed=ledger.failed,
                failures=ledger.failures,
                peak_rss_mb=peak_rss_mb(),
                selftest=selftest(signotopes),
                sizes=wl.sizes,
                step_times=wl.step_times,
                deterministic=wl.deterministic,
            )
            if args.mode == "trace":
                extras = wl.traced_extras()
                summaries = [summarize(tracer.spans, k) for k in traced_ids]
                metrics = wl.layer_metrics(summaries, setup, extras)
                metrics.update(wl.share_metrics(summaries))
                # Each traced pass runs right after an untraced one, so the two see
                # about the same machine speed; the median of the pairwise
                # differences is steadier than the difference of the medians.
                metrics[f"trace.overhead_s.{wl.name}"] = statistics.median(
                    t - u for t, u in zip(traced_walls, walls))
                result.update(
                    layer_metrics=metrics,
                    traced_walls=traced_walls,
                    extras=extras,
                    attempted=ledger.attempted,
                    failed=ledger.failed,
                    failures=ledger.failures,
                )
                if args.spans:
                    tracer.dump(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
