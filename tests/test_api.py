import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tminfer as tm

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("model", "pseudolikelihood", "optimize", "selection", "extraction", "experiments",
           "io")


@pytest.mark.parametrize("name", [None, *MODULES])
def test_exports_resolve_without_duplicates(name):
    mod = tm if name is None else importlib.import_module(f"tminfer.{name}")
    exports = mod.__all__
    assert len(exports) == len(set(exports))
    missing = [e for e in exports if not hasattr(mod, e)]
    assert not missing


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="perfbench/fingerprints.json holds answers recorded under numpy 2")
@pytest.mark.parametrize("workload", ["wide-lib", "tall-cli", "sweep-noise"])
def test_benchmark_workload_gives_checked_answers(workload):
    # The benchmark's own check: each repetition's answer against its recorded
    # fingerprint and the oracles, and every per-layer metric present.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
