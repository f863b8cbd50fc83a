"""Benchmark of tminfer: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {wide-lib,tall-cli,sweep-noise}
        [--seed N] [--seconds S] [--trace 0|1] [--threads T] [--record]

Run from anywhere inside a checkout; the program is imported from its
``src/`` directory.  Each repetition is a fresh process (``worker.py``) with
BLAS pinned to one thread, so set-up time and peak RSS are per process.
Repetitions run while one more still ends within ``--seconds`` (at least
one; under ``--trace 1`` the unit is an untraced-plus-traced pair).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics plus the
tracing overhead (traced minus untraced wall time, medians).

Every repetition's answer is checked: against the fingerprint recorded for the
seed in ``fingerprints.json`` when there is one, against the first
repetition's answer, and against the oracles in ``answer.py``.  A run that
crashed, exited non-zero or failed a check counts in ``failed``.  ``--record``
stores the first repetition's fingerprint for this seed.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--environment`` prints the
environment block instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

import answer  # noqa: E402

# The default seed is for day-to-day runs; the held-out seed is kept for the
# final check of a claimed gain and must not be used while a change is written.
DEFAULT_SEED = 1
HELDOUT_SEED = 1901
WORKLOAD_NAMES = ("wide-lib", "tall-cli", "sweep-noise")
# Extra processes per run that only import and build the inputs: setup_s is
# sub-second, so its median needs more samples than the timed repetitions give.
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "q_direct": "Q",
    "q_image": "Q",
    "converged_frac": "ratio",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "TMINFER_THREADS"}
    env.update({k: str(BLAS_THREADS) for k in THREAD_ENV})
    return env


def run_child(args, traced: bool, index: int, setup_only: bool = False) -> dict:
    """One worker process; returns its result or {"errors": [...]}."""
    work = WORK / f"{os.getpid()}-{index}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--src", str(SRC), "--work", str(work)]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker timed out after {CHILD_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    result = json.loads(lines[-1])
    result.setdefault("errors", [])
    kind = "setup probe" if setup_only else "traced run" if traced else "run"
    log(f"{kind} {index}: " + ", ".join(
        f"{k}={result[k]:.4g}" for k in ("setup_s", "wall_s", "peak_rss_mb") if k in result))
    return result


def check_answers(args, results: list[dict]) -> None:
    """Add fingerprint mismatches to each completed result's errors."""
    done = [r for r in results if "fingerprint" in r]
    if not done:
        return
    recorded = answer.recorded_for(args.workload, args.seed)
    if recorded is None:
        log(f"no recorded fingerprint for {args.workload} seed {args.seed}: "
            "checking oracles and agreement between repetitions")
        recorded = done[0]["fingerprint"]
    for r in done:
        r["errors"] += [f"fingerprint {e}" for e in answer.compare(recorded, r["fingerprint"])]
    if args.record and not done[0]["errors"]:
        answer.record(args.workload, args.seed, done[0]["fingerprint"])
        log(f"recorded fingerprint for {args.workload} seed {args.seed}")


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    first = plain[0]
    attempted = first["rows_attempted"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "q_direct": first["q_direct"],
        "q_image": first["q_image"],
        "converged_frac": (attempted - first["rows_unconverged"]) / attempted,
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    import layers

    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
    return {name: out[name] for name in layers.UNITS}, layers.UNITS


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    from workloads import WORKLOADS

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": BLAS_THREADS, "pinned_by": list(THREAD_ENV)},
        "workload_threads": {name: cls.threads for name, cls in WORKLOADS.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="override the workload's --threads (trade-off studies only)")
    p.add_argument("--record", action="store_true",
                   help="store this seed's fingerprint in fingerprints.json")
    p.add_argument("--environment", action="store_true",
                   help="print the environment block and exit")
    args = p.parse_args()
    if not (SRC / "tminfer" / "__init__.py").is_file():
        log(f"error: no tminfer sources under {SRC}; run inside a full checkout")
        return 2
    if args.environment:
        print(json.dumps(environment(), indent=1))
        return 0
    if args.workload is None:
        p.error("--workload is required")

    sample = answer.recorded_for(args.workload, args.seed) or next(
        iter(answer.load_recorded().get(args.workload, {}).values()), None)
    missed = answer.self_test(sample) if sample else []
    if missed:
        log(f"error: the fingerprint check accepts wrong answers: {missed}")
        return 2

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    durations: list[float] = []
    index = 0
    # Start another repetition (or traced pair) only when one more of the
    # median length still ends within --seconds: the run length then stays
    # near --seconds however fast the machine is.
    while not durations or (time.monotonic() - start + statistics.median(durations)
                            <= args.seconds):
        t0 = time.monotonic()
        plain.append(run_child(args, False, index))
        index += 1
        if args.trace:
            traced.append(run_child(args, True, index))
            index += 1
        durations.append(time.monotonic() - t0)

    probes = [] if args.trace else [run_child(args, False, index + i, setup_only=True)
                                    for i in range(SETUP_PROBES)]
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()

    runs = plain + traced
    check_answers(args, runs)
    failed = [r for r in runs if r["errors"]]
    for r in failed:
        for e in r["errors"]:
            log(f"FAILED: {e}")
    ok_plain = [r for r in plain if "fingerprint" in r]
    ok_traced = [r for r in traced if "layers" in r]
    if not ok_plain or (args.trace and not ok_traced):
        log("error: no repetition completed; nothing to report")
        return 1
    if args.trace:
        values, units = per_layer(ok_plain, ok_traced)
    else:
        setups = [r["setup_s"] for r in ok_plain + probes if "setup_s" in r]
        values, units = end_to_end(ok_plain, setups), END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not failed, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
