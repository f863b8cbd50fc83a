"""Answer checks: the fingerprint of a run and the benchmark's own oracles.

A fingerprint is a flat dict of the answer quantities a faster program must
reproduce.  Integers, booleans, strings and integer lists (path lengths,
``k_free`` sequences, selected coupling counts, exit codes, manifest checks)
must match exactly.  Floats match within a relative tolerance.  The L-BFGS
row solver stops short of the exact row optimum (PL up to ~0.05 below it), so
an exact float match would reject an exact (closed-form) solver:

* ``REL_TOL`` for the inferred matrix's Q and the noise level, which move by
  at most ~1e-4 between the two solvers;
* ``LOOSE_REL_TOL`` for the ``LOOSE_KEYS``: the total PL, which shifts when
  the two solvers decimate a different one of two near-tied couplings, and
  quantities that pass through an inverse (image Q, focusing Q, balance).
  An exact solver moved them by up to 0.5% on the recorded seeds.

The oracle checks need no recording, so they hold for any seed.  For each row
of a selected estimate the exact conditional-Gaussian optimum on the same
support is computed here by least squares.  Rows whose optimum lies inside the
curvature box must together sit at most ``ORACLE_PL_GAP`` below it.  Rows
whose optimum is at the cap ``a_cap`` are exact fits (noise-free data); there
the objective is flat in the curvature and an iterative solver stops far below
the capped PL, so such a row must instead reproduce its site to within
``EXACT_FIT_RTOL`` of the site's RMS.  No row may exceed its optimum, and the
reported total PL must be the PL of the reported parameters.  Q is computed
here from the matrices rather than taken from the program.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-3
LOOSE_REL_TOL = 2e-2
LOOSE_KEYS = ("total_pl", "balance", "q_image", "q_image_inverse", "q_focus")
ABS_FLOOR = 1e-9
# Rows with an interior optimum may together sit this far below it; no row may
# sit above it by more than float noise (relative).
ORACLE_PL_GAP = 0.5
ORACLE_PL_SLACK = 1e-6
# Residual RMS / site RMS allowed on a row whose exact optimum is at the cap.
EXACT_FIT_RTOL = 1e-3

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def quality_q(reference: np.ndarray, candidate: np.ndarray) -> float:
    """sqrt(||ref - cand||_F / ||ref||_F), the paper's matrix quality Q."""
    ref = np.asarray(reference, dtype=np.float64)
    return math.sqrt(float(np.linalg.norm(ref - candidate)) / float(np.linalg.norm(ref)))


IMAGE_OBJECTS = 32


def image_q(t_true: np.ndarray, t_inv: np.ndarray, sigma: float, seed: int) -> float:
    """Mean Q of test images sent through the true channel and mapped back by
    ``t_inv``.

    The images are ``IMAGE_OBJECTS`` random binary frames drawn from ``seed``,
    each with its own channel noise.  A single object (the paper's glyph)
    leaves Q dominated by how the particular channel treats that one pattern:
    its spread across channels is ~10%, the mean over 32 images ~3%.
    """
    rng = np.random.default_rng(seed)
    n = t_true.shape[0]
    objs = (rng.random((IMAGE_OBJECTS, n)) < 0.5).astype(np.float64)
    eps = rng.standard_normal((IMAGE_OBJECTS, n))
    return float(np.mean([quality_q(o, t_inv @ (t_true @ o + sigma * e))
                          for o, e in zip(objs, eps)]))


def extract_t(estimate) -> np.ndarray:
    """Channel matrix of an output-scope estimate: T[g] = k[:n_half] / (2 a)."""
    nh = estimate.dims.n_half
    rows = {site: row for site, row in zip(estimate.fitted_sites, estimate.rows)}
    return np.vstack([rows[nh + g].k[:nh] / (2.0 * rows[nh + g].a) for g in range(nh)])


def row_pls(estimate, inputs: np.ndarray, outputs: np.ndarray, a_cap: float):
    """Per fitted row: (PL of the estimate's parameters, exact optimum PL on the
    same support, whether that optimum is at ``a_cap``, fitted residual RMS
    over the site's RMS).

    The optimum is the no-intercept least-squares fit of the site on its
    active regressors: a = min(1 / (2 rss), a_cap) with rss the mean squared
    residual, and the row's total log-PL is M (0.5 ln(a/pi) - a rss).
    """
    s = np.hstack([inputs, outputs])
    m, n = s.shape
    out = []
    for site, mask, row in zip(estimate.fitted_sites, estimate.masks, estimate.rows):
        others = np.concatenate([np.arange(site), np.arange(site + 1, n)])
        active = np.asarray(mask.active)
        x = s[:, others[active]]
        y = s[:, site]
        if x.shape[1]:
            beta, *_ = np.linalg.lstsq(x, y, rcond=None)
            r = y - x @ beta
        else:
            r = y
        rss = float(np.mean(r * r))
        at_cap = rss <= 0.5 / a_cap
        a = a_cap if at_cap else 1.0 / (2.0 * rss)
        exact = m * (0.5 * math.log(a / math.pi) - a * rss)
        r_fit = y - x @ (np.asarray(row.k)[active] / (2.0 * row.a))
        rss_fit = float(np.mean(r_fit * r_fit))
        fitted = m * (0.5 * math.log(row.a / math.pi) - row.a * rss_fit)
        out.append((fitted, exact, at_cap, math.sqrt(rss_fit / float(np.mean(y * y)))))
    return out


def check_oracle(label: str, estimate, inputs, outputs, a_cap: float) -> list[str]:
    """Errors of a selected estimate against the exact optimum on its support."""
    rows = row_pls(estimate, inputs, outputs, a_cap)
    errors = []
    fitted = sum(r[0] for r in rows)
    reported = float(estimate.total_pl)
    if abs(reported - fitted) > ORACLE_PL_SLACK * max(1.0, abs(fitted)):
        errors.append(f"{label}: reported total PL {reported!r} is not the PL "
                      f"{fitted!r} of the reported parameters")
    above = [i for i, (pl, exact, _, _) in enumerate(rows)
             if pl - exact > ORACLE_PL_SLACK * max(1.0, abs(exact))]
    if above:
        errors.append(f"{label}: rows {above} exceed their exact optimum")
    gap = sum(exact - pl for pl, exact, at_cap, _ in rows if not at_cap)
    if gap > ORACLE_PL_GAP:
        errors.append(f"{label}: rows inside the curvature box sit {gap:.4g} below "
                      f"their exact optimum (allowed {ORACLE_PL_GAP})")
    loose = [f"{i} ({res:.3g})" for i, (_, _, at_cap, res) in enumerate(rows)
             if at_cap and res > EXACT_FIT_RTOL]
    if loose:
        errors.append(f"{label}: exact-fit rows {', '.join(loose)} leave a residual "
                      f"above {EXACT_FIT_RTOL} of the site RMS")
    return errors


def check_path(label: str, path) -> list[str]:
    """Invariants every decimation path must satisfy."""
    errors = []
    k_free = [r.k_free for r in path.records]
    if any(b >= a for a, b in zip(k_free, k_free[1:])):
        errors.append(f"{label}: k_free does not strictly decrease")
    if path.records[-1].n_couplings != 0:
        errors.append(f"{label}: path does not end at zero couplings")
    best = min(range(len(path.records)),
               key=lambda i: (path.records[i].bic, path.records[i].k_free))
    if best != path.selected:
        errors.append(f"{label}: selected record {path.selected} is not the BIC minimum {best}")
    return errors


def path_fingerprint(prefix: str, path, selection: bool = True) -> dict:
    """Record count and ``k_free`` sequence of a path, and with ``selection``
    the selected record's coupling count and total PL.

    On noise-free data every row of a large enough support is an exact fit, so
    BIC ranks those supports by how close the solver brought each row to the
    curvature cap: the selected record belongs to the solver, not the data.
    Such paths are recorded with ``selection=False`` and left to the oracle.
    """
    fp = {f"{prefix}.records": len(path.records),
          f"{prefix}.k_free": [r.k_free for r in path.records]}
    if selection:
        rec = path.selected_record
        fp[f"{prefix}.selected_couplings"] = rec.n_couplings
        fp[f"{prefix}.total_pl"] = float(rec.total_pl)
    return fp


# -- comparison ---------------------------------------------------------------


def _tolerance(key: str, want: float) -> float:
    rel = LOOSE_REL_TOL if key.rsplit(".", 1)[-1] in LOOSE_KEYS else REL_TOL
    return max(rel * abs(want), ABS_FLOOR)


def _float_ok(key: str, want: float, got: float) -> bool:
    return abs(got - want) <= _tolerance(key, want)


def compare(want: dict, got: dict) -> list[str]:
    """Every way ``got`` differs from the recorded ``want``; empty when it matches."""
    errors = [f"{k}: missing" for k in want if k not in got]
    errors += [f"{k}: not in the recorded fingerprint" for k in got if k not in want]
    for key in want.keys() & got.keys():
        w, g = want[key], got[key]
        if isinstance(w, float) and isinstance(g, (int, float)) and not isinstance(g, bool):
            if not _float_ok(key, w, float(g)):
                errors.append(f"{key}: {g!r} differs from recorded {w!r}")
        elif type(w) is not type(g) or w != g:
            errors.append(f"{key}: {g!r} differs from recorded {w!r}")
    return sorted(errors)


def load_recorded() -> dict:
    if not FINGERPRINTS.exists():
        return {}
    return json.loads(FINGERPRINTS.read_text())


def recorded_for(workload: str, seed: int) -> dict | None:
    return load_recorded().get(workload, {}).get(str(seed))


def record(workload: str, seed: int, fingerprint: dict) -> None:
    doc = load_recorded()
    doc.setdefault(workload, {})[str(seed)] = fingerprint
    # One fingerprint per line keeps the file small and its diffs readable.
    blocks = []
    for wl, by_seed in sorted(doc.items()):
        lines = [f"  {json.dumps(s)}: {json.dumps(fp)}"
                 for s, fp in sorted(by_seed.items(), key=lambda kv: int(kv[0]))]
        blocks.append(f" {json.dumps(wl)}: {{\n" + ",\n".join(lines) + "\n }")
    FINGERPRINTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def _wrong(key: str, value):
    """A value that differs from ``value`` by more than the tolerance for ``key``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 2.0 * _tolerance(key, value)
    if isinstance(value, list):
        return value[:-1] + [_wrong(key, value[-1])] if value else [0]
    return str(value) + "x"


def perturbations(fingerprint: dict):
    """Yield (description, perturbed copy): one wrong answer per field, plus
    a missing and an extra field.  ``compare`` must reject every one."""
    for key, value in fingerprint.items():
        yield f"perturbed {key}", {**fingerprint, key: _wrong(key, value)}
    if fingerprint:
        key = next(iter(fingerprint))
        yield f"dropped {key}", {k: v for k, v in fingerprint.items() if k != key}
    yield "extra field", {**fingerprint, "extra": 1}


def self_test(fingerprint: dict) -> list[str]:
    """Names of perturbations the comparison failed to reject (empty = pass)."""
    missed = [d for d, bad in perturbations(fingerprint) if not compare(fingerprint, bad)]
    if compare(fingerprint, dict(fingerprint)):
        missed.append("identical fingerprint was rejected")
    return missed
