"""One repetition of one workload in a fresh process.

Prints one JSON object on its last stdout line: set-up and timed wall time,
peak RSS, row-fit counts, the answer fingerprint, the failed checks and, when
traced, the per-layer metrics.  ``run.py`` starts it; it is not meant to be
run by hand.
"""

import time

T0 = time.perf_counter()  # before numpy and tminfer are imported: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report only setup_s")
    args = p.parse_args()
    sys.path.insert(0, args.src)

    import tminfer as tm

    import layers
    from spans import Recorder
    from workloads import WORKLOADS

    traced = bool(args.trace)
    wl = WORKLOADS[args.workload](args.seed, args.threads, Path(args.work))
    rec = Recorder(timed=traced, keep_datasets=wl.keep_datasets)
    if traced:
        rec.install()  # generation is set-up, but its model spans belong in the trace
    wl.setup(tm)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        rec.uninstall()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not traced:
        rec.install()
    t0 = time.perf_counter()
    try:
        wl.run(tm, rec)
        wall_s = time.perf_counter() - t0
    finally:
        rec.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fingerprint, quality, errors = wl.answer(tm, rec)
    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "rows_attempted": len(rec.row_fits),
        "rows_unconverged": sum(1 for _, ok in rec.row_fits if not ok),
        **quality,
        "fingerprint": fingerprint,
        "errors": errors,
    }
    if traced:
        metrics = layers.layer_metrics(rec)
        result["layers"] = metrics
        result["errors"] += layers.check_expectations(args.workload, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # reported to the parent, which counts the run as failed
        traceback.print_exc()
        sys.exit(1)
