"""Decimation of small couplings, BIC scoring, and support-size selection.

The loop alternates refits and prunes: fit the model, record its total
log-pseudolikelihood and BIC, zero out the globally smallest surviving
couplings, refit the affected rows, and repeat until nothing is left.  The
record with the minimum BIC names the selected support.  A prune ranks |k|
over the estimate's ``active`` array and returns a new one, and ``refit_rows``
solves the rows it changed.  Every record's scalars are read from its estimate;
the path keeps them all, but only the selected record's estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, Moments, _count, _is_real
from .optimize import CouplingEstimate, fit_all_rows, refit_rows

__all__ = [
    "DecimationOptions",
    "DecimationRecord",
    "DecimationPath",
    "bic_score",
    "run_decimation",
]


@dataclass(frozen=True)
class DecimationOptions:
    """Schedule of the decimation loop.

    ``batch_fraction`` of the remaining active couplings is removed per step,
    never fewer than one; a fraction of 0 decimates one coupling at a time.
    """

    batch_fraction: float = 0.10

    def __post_init__(self) -> None:
        f = self.batch_fraction
        if not (_is_real(f) and 0.0 <= f < 1.0):
            raise ValueError(f"batch_fraction must be a number in [0, 1), got {f!r}")


@dataclass(frozen=True)
class DecimationRecord:
    """One point on the decimation path.

    ``n_couplings`` counts active couplings; ``k_free`` is the BIC parameter
    count, couplings plus one curvature per row.  ``run_decimation`` keeps
    the ``estimate`` of the selected record only; the others hold None.
    """

    n_couplings: int
    k_free: int
    total_pl: float
    bic: float
    estimate: CouplingEstimate | None


@dataclass(frozen=True)
class DecimationPath:
    """Ordered decimation records plus the index of the BIC minimum."""

    records: tuple[DecimationRecord, ...]
    selected: int

    def __post_init__(self) -> None:
        counts = [r.k_free for r in self.records]
        if any(b >= a for a, b in zip(counts, counts[1:])):
            raise ValueError("parameter count must strictly decrease along the path")
        if not 0 <= self.selected < len(self.records):
            raise ValueError("selected index out of range")

    @property
    def selected_record(self) -> DecimationRecord:
        return self.records[self.selected]


def _beats(rec: DecimationRecord, best: DecimationRecord) -> bool:
    """``rec`` has the lower BIC, or the same BIC with fewer parameters."""
    return rec.bic < best.bic or (rec.bic == best.bic and rec.k_free < best.k_free)


def bic_score(k_free: int, m_samples: int, total_pl: float) -> float:
    """Bayesian information criterion k_free * ln(m_samples) - 2 * total_pl (counts: ``_count``)."""
    k_free, m_samples = _count(k_free, "k_free", 0), _count(m_samples, "m_samples", 1)
    return k_free * math.log(m_samples) - 2.0 * total_pl


def _prune(estimate: CouplingEstimate, batch: int) -> np.ndarray:
    """Deactivate the ``batch`` globally smallest-magnitude active couplings.

    Ranking is by |k| ascending across all fitted rows (ties broken by row
    then position, so the result is order-independent).  Curvature parameters
    are never decimated.  Returns the new ``(rows, n-1)`` support, sealed so
    the refit's estimate adopts it.
    """
    active = estimate.active.copy()
    n_active = int(active.sum())
    if n_active == 0:
        raise ValueError("no active couplings left to decimate")
    if not 1 <= batch <= n_active:
        raise ValueError(f"batch must lie in [1, {n_active}], got {batch}")
    flat_idx = np.flatnonzero(active)
    magnitudes = np.abs(estimate.k.ravel()[flat_idx])
    order = np.argsort(magnitudes, kind="stable")
    drop = flat_idx[order[:batch]]
    active.ravel()[drop] = False
    active.flags.writeable = False
    return active


def _record(estimate: CouplingEstimate) -> DecimationRecord:
    n_couplings, total_pl = estimate.n_active_couplings, estimate.total_pl
    k_free = n_couplings + len(estimate.a)
    return DecimationRecord(n_couplings=n_couplings, k_free=k_free, total_pl=total_pl,
                            bic=bic_score(k_free, estimate.m_samples, total_pl), estimate=None)


def run_decimation(
    dataset: Dataset | Moments,
    scope: str = "output",
    decim_opts: DecimationOptions = DecimationOptions(),
    initial: CouplingEstimate | None = None,
    threads: int = 1,
) -> tuple[DecimationPath, CouplingEstimate]:
    """Full decimation run: fit, prune, refit until no couplings remain.

    Returns the path and the estimate at the BIC-optimal record, the only
    record that keeps its estimate: the loop holds the running minimum (the
    lowest BIC, ties toward fewer parameters) and drops every other estimate
    as it goes.
    ``initial`` may supply an existing full-mask fit to avoid repeating it;
    ValueError if its scope differs or it was fitted on other data.
    ``threads`` is accepted and ignored.
    """
    moments = Moments.of(dataset)
    estimate = fit_all_rows(moments, scope=scope) if initial is None else initial
    if estimate.scope != scope:
        raise ValueError("initial estimate scope differs from requested scope")
    if (estimate.dataset_fingerprint, estimate.m_samples) != (moments.fingerprint,
                                                              moments.m_samples):
        raise ValueError("initial estimate was fitted on other data")

    records = [_record(estimate)]
    best, best_estimate = 0, estimate
    while (remaining := records[-1].n_couplings) > 0:
        batch = min(remaining, max(1, int(decim_opts.batch_fraction * remaining)))
        estimate = refit_rows(estimate, moments, _prune(estimate, batch))
        records.append(_record(estimate))
        if _beats(records[-1], records[best]):
            best, best_estimate = len(records) - 1, estimate

    records[best] = replace(records[best], estimate=best_estimate)
    return DecimationPath(records=tuple(records), selected=best), best_estimate
