"""Closed-form row solves and the batch driver.

Each row's pseudolikelihood optimum is the conditional-Gaussian MLE: the
no-intercept least-squares fit ``beta`` of the site on its active regressors,
curvature ``a = min(1 / (2 * rss), A_CAP)`` with ``rss`` the mean squared
residual and ``A_CAP`` a constant, and couplings ``k = 2 * a * beta``.  This is
neighbourhood regression for a Gaussian graphical model (Meinshausen &
Buhlmann, Ann. Stat. 2006).

The optimum depends on the data only through the sample second moments
``C = S^T S / M``, which every entry point reads from the record
``Moments.of(dataset)``: a row solve is one small solve on a block of ``C``.
A closed-form solve is stationary to rounding wherever ``beta`` is
identified, so a row is ``converged`` exactly when it has fewer active
regressors than samples; with as many or more it interpolates them.

Each row solves a block of ``C_II`` when its active regressors are all
inputs, else of the whole ``C``: where the record certifies that matrix
(``CERTIFY_TOL``), by LU, and otherwise by the minimum-norm ``lstsq``, each
on one BLAS thread.  A solve costs well under a millisecond at w=6, so rows
run one after another on the calling thread.

An estimate stacks the rows of its scope as arrays, ``(rows,)`` or
``(rows, n-1)``, which ``_solve_rows`` assembles; every support but
``minimize_row``'s one ``RowMask`` is such a ``(rows, n-1)`` boolean array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import Dataset, Dimensions, Moments, _all_finite, _frozen, _one_blas_thread
from .pseudolikelihood import RowMask, RowParams, log_partition

__all__ = [
    "OptimOptions",
    "RowFit",
    "CouplingEstimate",
    "initial_masks",
    "true_support_masks",
    "minimize_row",
    "fit_all_rows",
    "refit_rows",
    "dataset_fingerprint",
]

SCOPES = ("output", "all")

# Smallest pivot ratio L_jj**2 / C_jj = 1 - R_j**2 (R_j**2: the squared multiple
# correlation of site j with the sites before it) that certifies a matrix, and so
# every block of it in site order, positive definite.  A site the others reproduce
# exactly leaves ~1e-13 of rounding, and the factorisation need not fail (noiseless
# data through a singular channel, fitted reversed); noise leaves 1e-4 and more.
CERTIFY_TOL = 1e-8

# Upper bound on the curvature: on noise-free data the objective decreases
# forever along a -> inf, so every exact-fit row parks at the cap instead.  The
# cap corresponds to a noise floor of ``(2 * A_CAP) ** -0.5`` per channel
# (7.1e-5).
A_CAP = 1e8


@dataclass(frozen=True)
class OptimOptions:
    """The row solve's settings, read-only: ``a_cap`` is ``A_CAP``."""

    a_cap: float = field(default=A_CAP, init=False)


@dataclass(frozen=True)
class RowFit:
    """Outcome of one row solve: ``converged`` when the row has fewer active
    regressors than samples, and ``iterations`` 1, the closed form."""

    params: RowParams
    converged: bool
    iterations: int
    objective: float


def _solve_normal(c_aa: np.ndarray, c_ay: np.ndarray, certified: bool) -> np.ndarray:
    """``beta`` with ``c_aa beta = c_ay``, on one BLAS thread: LU for a
    ``certified`` (positive definite) block (numpy has no triangular solve;
    LU costs less than two solves on a Cholesky factor), else ``lstsq``, the
    minimum-norm solution where the regressors are collinear."""
    with _one_blas_thread():
        if certified:
            return np.linalg.solve(c_aa, c_ay)
        return np.linalg.lstsq(c_aa, c_ay, rcond=None)[0]


def minimize_row(
    site: int,
    dataset: Dataset | Moments,
    mask: RowMask | None = None,
) -> RowFit:
    """Fit one site's conditional Gaussian under a support mask.

    Reads only ``C = Moments.of(dataset).c``.  ``beta`` solves
    ``C[A,A] beta = C[A,y]`` (``_solve_normal``): by LU where the record
    certifies the block's matrix (``C_II`` for inputs alone, else ``C``),
    else by ``lstsq``, the minimum-norm solution.  Both run on one BLAS
    thread, so they give the same bits at any thread count.
    ``rss = C[y,y] - 2 beta.C[A,y] + beta.C[A,A] beta`` is clamped at 0, where
    it cancels on exact fits.  Masked couplings stay 0.  ``converged``: the
    row has fewer active regressors than samples, so ``beta`` is identified;
    a row with as many or more interpolates them.
    """
    n = dataset.dims.n
    if mask is None:
        mask = RowMask(site=site, active=np.ones(n - 1, dtype=bool))
    elif mask.site != site or mask.active.shape[0] != n - 1:
        raise ValueError("mask does not match site / dims")
    moments = Moments.of(dataset)
    c = moments.c
    # The sites at the row's active positions, one further from `site` on.
    idx = mask.active.nonzero()[0]
    idx[np.count_nonzero(mask.active[:site]):] += 1
    c_aa, c_ay, c_yy = c.take(idx, 0).take(idx, 1), c[idx, site], float(c[site, site])
    # Inputs lead the site order, so the last active site decides the matrix.
    inputs_only = idx.size == 0 or idx[-1] < moments.dims.n_half
    ratio = moments.input_pivot_ratio if inputs_only else moments.pivot_ratio
    beta = _solve_normal(c_aa, c_ay, ratio > CERTIFY_TOL)
    fitted = float(beta @ (c_aa @ beta))
    rss = max(c_yy - 2.0 * float(beta @ c_ay) + fitted, 0.0)
    a = A_CAP if rss <= 0.5 / A_CAP else 0.5 / rss
    k = np.zeros(n - 1)
    k[mask.active] = 2.0 * a * beta
    k.flags.writeable = False  # the record adopts it
    return RowFit(params=RowParams(site=site, a=a, k=k),
                  converged=len(idx) < moments.m_samples, iterations=1,
                  objective=a * rss + log_partition(a, 0.0))


@dataclass(frozen=True)
class CouplingEstimate:
    """All fitted rows of the coupling model, stacked.

    Row ``r`` describes site ``fitted_sites[r]``: curvature ``a[r]``, coupling
    field ``k[r]`` over the other sites in ``other_sites`` order and support
    ``active[r]``, with ``k`` exactly 0 where ``active`` is False;
    ``converged[r]`` is ``active[r].sum() < M`` (``minimize_row``) and
    ``row_objectives[r]`` is its per-sample-mean negative
    log-pseudolikelihood at its optimum.  Each array is taken by
    ``model._frozen``: adopted if sealed, else copied once.
    ``total_pl`` is the sample-sum total log-pseudolikelihood (None when
    parameters were constructed rather than fitted to a dataset).
    """

    dims: Dimensions
    scope: str
    direction: str
    a: np.ndarray
    k: np.ndarray
    active: np.ndarray
    converged: np.ndarray
    row_objectives: np.ndarray
    total_pl: float | None
    dataset_fingerprint: str = ""

    def __post_init__(self) -> None:
        rows = (len(_scope_sites(self.dims, self.scope)),)
        grid = (*rows, self.dims.n - 1)
        for name, dtype, shape in (("a", np.float64, rows), ("k", np.float64, grid),
                                   ("active", bool, grid), ("converged", bool, rows),
                                   ("row_objectives", np.float64, rows)):
            arr = _frozen(getattr(self, name), dtype)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if not (_all_finite(self.a) and self.a.min() > 0):
            raise ValueError("curvatures must be finite and > 0")
        if not _all_finite(self.k):
            raise ValueError("coupling fields must be finite")

    @property
    def fitted_sites(self) -> tuple[int, ...]:
        return tuple(_scope_sites(self.dims, self.scope))

    @property
    def rows(self) -> tuple[RowParams, ...]:
        return tuple(RowParams(site=s, a=a, k=k)
                     for s, a, k in zip(self.fitted_sites, self.a.tolist(), self.k))

    @property
    def masks(self) -> tuple[RowMask, ...]:
        return tuple(RowMask(site=s, active=act)
                     for s, act in zip(self.fitted_sites, self.active))

    def row_for(self, site: int) -> RowParams:
        sites = self.fitted_sites
        if site not in sites:
            raise KeyError(f"site {site} was not fitted")
        r = site - sites[0]
        return RowParams(site=site, a=float(self.a[r]), k=self.k[r])

    @property
    def n_active_couplings(self) -> int:
        return int(self.active.sum())


def _scope_sites(dims: Dimensions, scope: str) -> range:
    if scope == "output":
        return range(dims.n_half, dims.n)
    if scope == "all":
        return range(dims.n)
    raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")


def initial_masks(dims: Dimensions, scope: str) -> np.ndarray:
    """Fully active ``(rows, n-1)`` support for the given scope.

    Output scope regresses each output channel on the input channels only
    (other outputs carry no coupling in the generative block structure).
    Inputs precede outputs, so in an output row they are positions
    ``0..n_half-1``.  All-sites scope activates every cross coupling.
    """
    active = np.ones((len(_scope_sites(dims, scope)), dims.n - 1), dtype=bool)
    if scope == "output":
        active[:, dims.n_half:] = False
    return active


def true_support_masks(dims: Dimensions, support: np.ndarray) -> np.ndarray:
    """Output-scope ``(n_half, n-1)`` support pinned to a known channel support.

    ``support[g, a]`` flags whether output channel g couples to input channel
    a.  Used for the known-support reference fits.
    """
    nh = dims.n_half
    sup = np.asarray(support, dtype=bool)
    if sup.shape != (nh, nh):
        raise ValueError(f"support must have shape ({nh}, {nh})")
    active = np.zeros((nh, dims.n - 1), dtype=bool)
    active[:, :nh] = sup
    return active


def _solve_rows(moments: Moments, sites, active: np.ndarray, rows,
                base: CouplingEstimate | None = None):
    """``minimize_row`` for each index ``r`` in ``rows``, in order, of site
    ``sites[r]`` under support ``active[r]``, stacked as the arrays
    ``(a, k, converged, objectives)`` of an estimate's rows.  Rows not
    solved are copied from ``base``.  The arrays are sealed, so the estimate
    built on them adopts them (``model._frozen``)."""
    if base is None:
        a, k = np.empty(len(sites)), np.empty((len(sites), moments.dims.n - 1))
        converged, objectives = np.empty(len(sites), bool), np.empty(len(sites))
    else:
        a, k, converged, objectives = (
            arr.copy() for arr in (base.a, base.k, base.converged, base.row_objectives))
    for r in rows:
        fit = minimize_row(sites[r], moments, RowMask(site=sites[r], active=active[r]))
        a[r], k[r], converged[r], objectives[r] = \
            fit.params.a, fit.params.k, fit.converged, fit.objective
    for arr in (a, k, converged, objectives):
        arr.flags.writeable = False
    return a, k, converged, objectives


def fit_all_rows(
    dataset: Dataset | Moments,
    masks: np.ndarray | None = None,
    scope: str = "output",
    threads: int = 1,
) -> CouplingEstimate:
    """Fit every row in scope independently and assemble the estimate.

    ``masks`` is the ``(rows, n-1)`` support, ``initial_masks`` by default.
    ``threads`` is accepted and ignored: rows are solved on the calling thread.
    """
    moments = Moments.of(dataset)
    sites = _scope_sites(moments.dims, scope)
    if masks is None:
        active = initial_masks(moments.dims, scope)
        active.flags.writeable = False  # the estimate adopts it
    else:
        active = masks
    if np.shape(active) != (len(sites), moments.dims.n - 1):
        raise ValueError("masks inconsistent with scope sites")
    a, k, converged, objectives = _solve_rows(moments, sites, active, range(len(sites)))
    return CouplingEstimate(
        dims=moments.dims, scope=scope, direction=moments.direction, a=a, k=k,
        active=active, converged=converged, row_objectives=objectives,
        # Python's left-to-right sum: the bits every artifact records.
        total_pl=float(-moments.m_samples * sum(objectives.tolist())),
        dataset_fingerprint=moments.fingerprint)


def dataset_fingerprint(ds: Dataset | Moments) -> str:
    """Short content hash binding estimates to the data they were fit on."""
    return Moments.of(ds).fingerprint


def refit_rows(
    estimate: CouplingEstimate,
    dataset: Dataset | Moments,
    new_masks: np.ndarray,
    rows_to_refit,
    threads: int = 1,
) -> CouplingEstimate:
    """Refit the given row indices of ``estimate`` under the ``(rows, n-1)``
    support ``new_masks``; untouched rows carry over unchanged.  ValueError
    if ``estimate`` was fitted on other data.  ``threads`` is accepted and
    ignored."""
    moments = Moments.of(dataset)
    if estimate.dataset_fingerprint != moments.fingerprint:
        raise ValueError("estimate was fitted on other data")
    a, k, converged, objectives = _solve_rows(
        moments, estimate.fitted_sites, new_masks, sorted(rows_to_refit), estimate)
    return replace(estimate, a=a, k=k, active=new_masks, converged=converged,
                   row_objectives=objectives,
                   total_pl=float(-moments.m_samples * sum(objectives.tolist())))
