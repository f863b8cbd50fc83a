"""Decimation of small couplings, BIC scoring, and support-size selection.

The loop alternates refits and prunes: fit the model, record its total
log-pseudolikelihood and BIC, zero out the globally smallest surviving
couplings, refit the affected rows, and repeat until nothing is left.  The
record with the minimum BIC names the selected support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, Moments
from .optimize import (
    CouplingEstimate,
    OptimOptions,
    fit_all_rows,
    refit_rows,
)
from .pseudolikelihood import RowMask

__all__ = [
    "DecimationOptions",
    "DecimationRecord",
    "DecimationPath",
    "bic_score",
    "decimate_step",
    "run_decimation",
    "select_best",
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
        if isinstance(f, bool) or not isinstance(f, (int, float)) or not 0.0 <= f < 1.0:
            raise ValueError(f"batch_fraction must be a number in [0, 1), got {f!r}")


@dataclass(frozen=True)
class DecimationRecord:
    """One point on the decimation path.

    ``n_couplings`` counts active couplings; ``k_free`` is the BIC parameter
    count, couplings plus one curvature per row.
    """

    n_couplings: int
    k_free: int
    total_pl: float
    bic: float
    estimate: CouplingEstimate
    all_converged: bool


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


def select_best(records) -> int:
    """Index of the minimum-BIC record, ties resolved toward fewer parameters."""
    if not records:
        raise ValueError("no records to select from")
    best = 0
    for i, rec in enumerate(records):
        if rec.bic < records[best].bic or (
                rec.bic == records[best].bic and rec.k_free < records[best].k_free):
            best = i
    return best


def bic_score(k_free: int, m_samples: int, total_pl: float) -> float:
    """Bayesian information criterion: k_free * ln(m_samples) - 2 * total_pl."""
    if k_free < 0:
        raise ValueError("k_free must be >= 0")
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    return k_free * math.log(m_samples) - 2.0 * total_pl


def decimate_step(estimate: CouplingEstimate, batch: int) -> tuple[RowMask, ...]:
    """Deactivate the ``batch`` globally smallest-magnitude active couplings.

    Ranking is by |k| ascending across all fitted rows (ties broken by row
    then position, so the result is order-independent).  Curvature parameters
    are never decimated.  Rows that lose no coupling keep their mask object.
    """
    return _prune(estimate, batch)[0]


def _prune(estimate: CouplingEstimate, batch: int) -> tuple[tuple[RowMask, ...], list[int]]:
    """``decimate_step``'s masks plus the sorted indices of the rows they change."""
    active = estimate.active_matrix()
    n_active = int(active.sum())
    if n_active == 0:
        raise ValueError("no active couplings left to decimate")
    if not 1 <= batch <= n_active:
        raise ValueError(f"batch must lie in [1, {n_active}], got {batch}")
    flat_idx = np.flatnonzero(active.ravel())
    magnitudes = np.abs(estimate.coupling_matrix().ravel()[flat_idx])
    order = np.argsort(magnitudes, kind="stable")
    drop = flat_idx[order[:batch]]
    active.ravel()[drop] = False
    rows = sorted(set((drop // active.shape[1]).tolist()))
    masks = list(estimate.masks)
    for r in rows:
        masks[r] = RowMask(site=masks[r].site, active=active[r])
    return tuple(masks), rows


def _record(estimate: CouplingEstimate, n_couplings: int, m_samples: int) -> DecimationRecord:
    k_free = n_couplings + len(estimate.rows)
    return DecimationRecord(
        n_couplings=n_couplings,
        k_free=k_free,
        total_pl=estimate.total_pl,
        bic=bic_score(k_free, m_samples, estimate.total_pl),
        estimate=estimate,
        all_converged=all(estimate.converged),
    )


def run_decimation(
    dataset: Dataset | Moments,
    scope: str = "output",
    fit_opts: OptimOptions = OptimOptions(),
    decim_opts: DecimationOptions = DecimationOptions(),
    initial: CouplingEstimate | None = None,
    threads: int = 1,
) -> tuple[DecimationPath, CouplingEstimate]:
    """Full decimation run: fit, prune, refit until no couplings remain.

    Returns the path and the estimate at the BIC-optimal record.  ``initial``
    may supply an existing full-mask fit to avoid repeating it.  ``threads``
    is accepted and ignored.
    """
    moments = Moments.of(dataset)
    if initial is None:
        estimate = fit_all_rows(moments, scope=scope, opts=fit_opts)
    else:
        if initial.scope != scope:
            raise ValueError("initial estimate scope differs from requested scope")
        estimate = initial

    m = moments.m_samples
    remaining = estimate.n_active_couplings
    records = [_record(estimate, remaining, m)]
    while remaining > 0:
        batch = min(remaining, max(1, int(decim_opts.batch_fraction * remaining)))
        new_masks, changed = _prune(estimate, batch)
        estimate = refit_rows(estimate, moments, new_masks, changed, opts=fit_opts)
        remaining -= batch
        records.append(_record(estimate, remaining, m))

    path = DecimationPath(records=tuple(records), selected=select_best(records))
    return path, path.selected_record.estimate
