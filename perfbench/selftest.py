"""Self-test of the benchmark's own checks; runs no workload.

    python3 perfbench/selftest.py

1. Every recorded fingerprint, perturbed one field at a time (and with a field
   dropped or added), is rejected by the comparison; the unperturbed one is
   accepted.
2. The layer-expectation check rejects a layer metric that reads zero where
   work is expected and one that reads non-zero where the layer must be idle.
3. Every wrapped tminfer function still exists, installing the wrappers
   replaces every name bound to it, and uninstalling restores the originals.

Exits 1 with the reasons when any of these fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import answer  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402


def fingerprint_rejections() -> list[str]:
    errors = []
    recorded = answer.load_recorded()
    if not recorded:
        errors.append("no recorded fingerprints to test")
    for workload, by_seed in recorded.items():
        for seed, fp in by_seed.items():
            errors += [f"{workload} seed {seed}: {m} was accepted"
                       for m in answer.self_test(fp)]
        n = sum(1 for fp in by_seed.values() for _ in answer.perturbations(fp))
        print(f"{workload}: {len(by_seed)} recorded seeds, {n} perturbed fingerprints checked")
    return errors


def expectation_rejections() -> list[str]:
    errors = []
    for workload, expect in layers.EXPECT.items():
        good = {name: (1.0 if want == "+" else 0.0) for name, want in expect.items()}
        if layers.check_expectations(workload, good):
            errors.append(f"{workload}: metrics meeting every expectation were rejected")
        for name, want in expect.items():
            bad = dict(good, **{name: 0.0 if want == "+" else 1.0})
            if not layers.check_expectations(workload, bad):
                errors.append(f"{workload}: {name}={bad[name]} was accepted")
    print(f"layer expectations: {sum(map(len, layers.EXPECT.values()))} violations rejected")
    return errors


def wrapping() -> list[str]:
    import tminfer  # noqa: F401
    from tminfer import cli  # noqa: F401

    errors = []
    rec = spans.Recorder(timed=True)
    targets = [t for group in spans.TARGETS.values() for t in group]
    originals = {}
    for module, attr in targets:
        try:
            originals[(module, attr)] = spans._resolve(module, attr)[2]
        except LookupError as exc:
            errors.append(str(exc))
    if errors:
        return errors
    bound = [(mod, key) for mod in list(sys.modules.values())
             if getattr(mod, "__name__", "").startswith("tminfer")
             for key, value in vars(mod).items()
             if any(value is o for o in originals.values())]
    rec.install()
    try:
        still = [f"{mod.__name__}.{key}" for mod, key in bound
                 if any(getattr(mod, key) is o for o in originals.values())]
        errors += [f"{name} was not wrapped" for name in still]
    finally:
        rec.uninstall()
    for (module, attr), original in originals.items():
        if spans._resolve(module, attr)[2] is not original:
            errors.append(f"{module}.{attr} was not restored")
    print(f"wrapping: {len(targets)} targets, {len(bound)} bound names wrapped and restored")
    return errors


def main() -> int:
    errors = fingerprint_rejections() + expectation_rejections() + wrapping()
    for e in errors:
        print(f"SELFTEST FAILED: {e}", file=sys.stderr)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
