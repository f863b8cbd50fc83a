"""Per-site conditional Gaussian objective and its analytic gradient.

Each site i of the concatenated intensity vector gets a conditional model

    P(I_i | rest) = exp(-a * I_i**2 + B_i * I_i) / Z_i(a, B_i),

where ``a`` is the (strictly positive) curvature natural parameter and
``B_i = sum_{j != i} k[j] * I_j`` is the linear field induced by the coupling
vector ``k``.  The per-row negative log-pseudolikelihood averaged over a
dataset is jointly convex in (a, k) and is what each row solve minimizes.

Numerics note: the per-sample term ``I*B - I**2*a - ln Z`` is evaluated in the
algebraically identical form ``-a*(I - B/(2a))**2 - ln2 - 0.5*ln(pi/(4a))``.
The naive form cancels catastrophically once ``a`` grows large (noise-free
data drives it to the curvature cap), the residual form does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _all_finite, _frozen

__all__ = [
    "RowParams",
    "RowMask",
    "other_sites",
    "log_partition",
    "row_neg_logpl",
    "row_grad",
    "total_pl",
]

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)


def other_sites(site: int, n: int) -> np.ndarray:
    """All site indices except ``site``, ascending; defines the k/mask layout."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for n={n}")
    idx = np.arange(n, dtype=np.intp)
    return np.concatenate([idx[:site], idx[site + 1:]])


@dataclass(frozen=True)
class RowParams:
    """Natural parameters of one site's conditional Gaussian.

    Attributes
    ----------
    site : int
        Site index in the concatenated [input, output] vector.
    a : float
        Curvature parameter, strictly positive.
    k : ndarray
        Length n-1 coupling-field vector over the other sites, in the
        ``other_sites`` order.  Decimated entries are exactly 0.
    """

    site: int
    a: float
    k: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _frozen(self.k))
        if self.k.ndim != 1:
            raise ValueError("k must be a 1-d vector")
        if not _all_finite(self.k):
            raise ValueError("coupling fields must be finite")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"curvature must be finite and > 0, got {self.a!r}")
        if not 0 <= self.site < self.k.shape[0] + 1:
            raise ValueError(f"site {self.site} inconsistent with k length {self.k.shape[0]}")
        object.__setattr__(self, "a", float(self.a))


@dataclass(frozen=True)
class RowMask:
    """Support mask for one row: inactive positions pin k entries to 0."""

    site: int
    active: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "active", _frozen(self.active, bool))
        if self.active.ndim != 1:
            raise ValueError("active must be a 1-d boolean vector")


def _masked_k(params: RowParams, mask: RowMask | None) -> np.ndarray:
    if mask is None:
        return params.k
    if mask.active.shape != params.k.shape:
        raise ValueError("mask and k lengths differ")
    return np.where(mask.active, params.k, 0.0)


def log_partition(a: float, b) -> float | np.ndarray:
    """ln of the Gaussian normalizer: integral over the whole real axis of
    exp(-a*x**2 + b*x), i.e. ln 2 + 0.5*ln(pi/(4a)) + b**2/(4a).

    Accepts a scalar or vector ``b``.  Raises for a <= 0, where the integral
    diverges.
    """
    if not (a > 0):
        raise ValueError(f"log_partition requires a > 0, got {a!r}")
    b = np.asarray(b, dtype=np.float64)
    val = _LN2 + 0.5 * (_LNPI - math.log(4.0 * a)) + b * b / (4.0 * a)
    return float(val) if val.ndim == 0 else val


def _design(dataset: Dataset, site: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, X): target column for ``site`` and the (M, n-1) regressor matrix."""
    s = dataset.site_matrix()
    return s[:, site], s[:, other_sites(site, s.shape[1])]


def row_neg_logpl(params: RowParams, dataset: Dataset, mask: RowMask | None = None) -> float:
    """Negative log-pseudolikelihood of one row, averaged over samples.

    Equals -(1/M) * sum_m [ I_i*B_i - I_i**2*a - ln Z(a, B_i) ].  For a <= 0
    the Gaussian normalizer diverges and the value is +inf (barrier behavior).
    """
    if mask is not None and params.site != mask.site:
        raise ValueError("params and mask refer to different sites")
    if not (params.a > 0):
        return math.inf
    a = params.a
    y, x = _design(dataset, params.site)
    r = y - (x @ _masked_k(params, mask)) / (2.0 * a)
    return float(np.mean(a * r * r) + _LN2 + 0.5 * (_LNPI - math.log(4.0 * a)))


def row_grad(
    params: RowParams, dataset: Dataset, mask: RowMask | None = None
) -> tuple[float, np.ndarray]:
    """Analytic gradient of ``row_neg_logpl`` with respect to (a, k).

    Returns ``(d/da, d/dk)``; masked components of d/dk are forced to 0.
    """
    if mask is not None and params.site != mask.site:
        raise ValueError("params and mask refer to different sites")
    if not (params.a > 0):
        raise ValueError("gradient undefined for a <= 0")
    a = params.a
    y, x = _design(dataset, params.site)
    yhat = (x @ _masked_k(params, mask)) / (2.0 * a)
    r = y - yhat
    d_k = -(x.T @ r) / y.shape[0]
    d_a = float(np.mean(r * (y + yhat)) - 1.0 / (2.0 * a))
    if mask is not None:
        d_k = np.where(mask.active, d_k, 0.0)
    return d_a, d_k


def total_pl(
    rows: list[RowParams] | tuple[RowParams, ...],
    dataset: Dataset,
    masks: list[RowMask] | tuple[RowMask, ...] | None = None,
) -> float:
    """Total log-pseudolikelihood: sum over fitted sites and samples.

    This is the sample-sum (not per-sample mean) convention, the quantity
    entering the BIC score.
    """
    m = dataset.m_samples
    if masks is None:
        masks = [None] * len(rows)
    if len(masks) != len(rows):
        raise ValueError("need one mask (or None) per row")
    return float(sum(-m * row_neg_logpl(p, dataset, mk) for p, mk in zip(rows, masks)))
