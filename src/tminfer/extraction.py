"""Disentangle physical quantities from fitted natural parameters.

The conditional model of an output channel g regressed on the inputs is
``N(sum_a T[g,a] * in[a], sigma_g**2)``; in natural parameters that is
``a_g = 1 / (2 * sigma_g**2)`` and ``k[g, a] = 2 * a_g * T[g, a]``.  Inverting
this map recovers the transmission matrix and a per-channel noise level from
any fitted estimate.  The input-row block additionally encodes the input
Gramian, whose consistency with ``T^T T`` gives a self-diagnostic ("balance").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import TransmissionMatrix
from .optimize import CouplingEstimate
from .pseudolikelihood import RowMask, RowParams, other_sites

__all__ = [
    "ChannelNoiseEstimate",
    "QualityReport",
    "extract_tm",
    "extract_gramian",
    "output_output_couplings",
    "symmetrize",
    "quality_q",
    "parameterize_tm",
    "parameterize_channel",
]


@dataclass(frozen=True)
class ChannelNoiseEstimate:
    """Per-output-channel noise inferred from the curvature parameters."""

    sigma_hat: np.ndarray
    beta_hat: np.ndarray
    converged: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma_hat, dtype=np.float64)
        b = np.asarray(self.beta_hat, dtype=np.float64)
        if np.any(s <= 0) or np.any(b <= 0):
            raise ValueError("noise levels and inverse temperatures must be positive")
        if not np.allclose(b, 1.0 / (2.0 * s * s), rtol=1e-12):
            raise ValueError("beta_hat must equal 1 / (2 * sigma_hat**2)")
        object.__setattr__(self, "sigma_hat", s)
        object.__setattr__(self, "beta_hat", b)
        object.__setattr__(self, "converged", np.asarray(self.converged, dtype=bool))


@dataclass(frozen=True)
class QualityReport:
    """Square-root relative Frobenius deviation between two arrays.

    q = sqrt(||ref - cand||_F / ||ref||_F); zero means exact recovery.
    """

    q: float
    norm_kind: str = "frobenius"
    operands: str = ""

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("quality value cannot be negative")


def quality_q(reference: np.ndarray, candidate: np.ndarray, operands: str = "") -> QualityReport:
    """Reconstruction quality of ``candidate`` against ``reference``."""
    ref = np.asarray(reference, dtype=np.float64)
    cand = np.asarray(candidate, dtype=np.float64)
    if ref.shape != cand.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {cand.shape}")
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("reference norm is zero; quality undefined")
    q = math.sqrt(float(np.linalg.norm(ref - cand)) / ref_norm)
    return QualityReport(q=q, operands=operands)


def _output_rows(estimate: CouplingEstimate) -> list[RowParams]:
    nh = estimate.dims.n_half
    return [estimate.row_for(nh + g) for g in range(nh)]


def extract_tm(estimate: CouplingEstimate) -> tuple[TransmissionMatrix, ChannelNoiseEstimate]:
    """Recover the channel matrix and per-channel noise from fitted rows.

    For each output row g: beta_g = a_g, T[g, a] = k[g, a] / (2 * a_g) over
    the input-site couplings, sigma_g = (2 * a_g) ** -0.5.  Rows flagged
    non-converged keep their entries; the flags ride along in the noise
    estimate.  Fitted output-to-output couplings (all-sites scope) are not
    folded in; see ``output_output_couplings``.
    """
    dims = estimate.dims
    nh = dims.n_half
    t = np.empty((nh, nh))
    a_vec = np.empty(nh)
    conv = np.empty(nh, dtype=bool)
    for g in range(nh):
        site = nh + g
        row = estimate.row_for(site)
        # Input sites all precede output sites, so they sit at positions 0..nh-1.
        t[g] = row.k[:nh] / (2.0 * row.a)
        a_vec[g] = row.a
        conv[g] = estimate.converged[estimate.index_of(site)]
    sigma_hat = 1.0 / np.sqrt(2.0 * a_vec)
    role = "direct" if estimate.direction == "forward" else "inverse"
    tm = TransmissionMatrix(dims=dims, entries=t, role=role)
    return tm, ChannelNoiseEstimate(sigma_hat=sigma_hat, beta_hat=a_vec, converged=conv)


def output_output_couplings(estimate: CouplingEstimate) -> np.ndarray:
    """Diagnostic residual block: fitted output-to-output couplings in J units.

    Zero in the generative model, so nonzero values measure overfitting of the
    all-sites scope.  Diagonal slots are 0 (self-couplings live in ``a``).
    """
    if estimate.scope != "all":
        raise ValueError("output-output couplings are only fitted in all-sites scope")
    nh = estimate.dims.n_half
    out = np.zeros((nh, nh))
    for g in range(nh):
        site = nh + g
        row = estimate.row_for(site)
        others = other_sites(site, estimate.dims.n)
        sel = others >= nh
        out[g, others[sel] - nh] = row.k[sel] / row.a
    return out


def _input_beta(estimate: CouplingEstimate) -> float:
    """Shared inverse temperature assigned to input rows.

    Input-row curvatures entangle beta with the Gramian diagonal; the
    convention here fixes the scale with the mean output-row beta.
    """
    return float(np.mean([r.a for r in _output_rows(estimate)]))


def extract_gramian(estimate: CouplingEstimate) -> tuple[np.ndarray, float]:
    """Recover the input self-coupling Gramian and the balance diagnostic.

    An input channel's conditional Gaussian has curvature beta * U[a, a] and
    linear field 2 * beta * (T^T out - sum_{a' != a} U[a, a'] in[a']), so the
    fitted couplings encode off-diagonal Gramian entries at twice the beta
    scale (the factor 2 collects both symmetric halves of the quadratic
    form).  ``balance`` is the relative Frobenius gap between the directly
    fitted Gramian and ``T_inf^T @ T_inf``; small values indicate a
    self-consistent fit and can serve as a halt criterion.
    """
    if estimate.scope != "all":
        raise ValueError("Gramian extraction needs an all-sites estimate")
    dims = estimate.dims
    nh = dims.n_half
    beta_in = _input_beta(estimate)
    u = np.empty((nh, nh))
    for al in range(nh):
        row = estimate.row_for(al)
        others = other_sites(al, dims.n)
        sel = others < nh
        u[al, others[sel]] = -row.k[sel] / (2.0 * beta_in)
        u[al, al] = row.a / beta_in
    tm, _ = extract_tm(estimate)
    gram = tm.entries.T @ tm.entries
    balance = float(np.linalg.norm(u - gram) / np.linalg.norm(gram))
    return u, balance


def symmetrize(estimate: CouplingEstimate, dataset=None) -> CouplingEstimate:
    """Average the coupling matrix with its transpose (in J units).

    Row fits leave the two copies of each coupling untied; the generative
    block structure is symmetric, so averaging after rescaling each row by
    1/beta is the natural repair.  Masks become the union of the two sides'
    supports.  ``total_pl`` is recomputed when ``dataset`` is given and
    cleared otherwise.
    """
    if estimate.scope != "all":
        raise ValueError("symmetrization needs an all-sites estimate")
    dims = estimate.dims
    n = dims.n
    nh = dims.n_half
    beta_in = _input_beta(estimate)
    beta = np.array([estimate.rows[r].a if site >= nh else beta_in
                     for r, site in enumerate(estimate.fitted_sites)])
    j = np.zeros((n, n))
    for r, site in enumerate(estimate.fitted_sites):
        j[site, other_sites(site, n)] = estimate.rows[r].k / beta[r]
    j = 0.5 * (j + j.T)
    rows = []
    masks = []
    for r, site in enumerate(estimate.fitted_sites):
        others = other_sites(site, n)
        k = beta[r] * j[site, others]
        rows.append(RowParams(site=site, a=estimate.rows[r].a, k=k))
        masks.append(RowMask(site=site, active=k != 0.0))
    est = replace(estimate, rows=tuple(rows), masks=tuple(masks), total_pl=None)
    if dataset is not None:
        from .pseudolikelihood import total_pl as _total_pl

        est = replace(est, total_pl=_total_pl(est.rows, dataset, est.masks))
    return est


def parameterize_tm(
    tm: TransmissionMatrix, sigma: float | np.ndarray
) -> CouplingEstimate:
    """Exact natural parameters of a known channel at a known noise level.

    Inverse of ``extract_tm`` on its output rows: a = 1 / (2 * sigma**2),
    k over inputs = 2 * a * T row.  Useful as an oracle starting point and in
    round-trip tests.
    """
    dims = tm.dims
    nh = dims.n_half
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (nh,))
    if np.any(sig <= 0):
        raise ValueError("noise must be strictly positive to parameterize")
    rows = []
    masks = []
    for g in range(nh):
        a = 1.0 / (2.0 * sig[g] ** 2)
        k = np.zeros(dims.n - 1)
        k[:nh] = 2.0 * a * tm.entries[g]
        rows.append(RowParams(site=nh + g, a=a, k=k))
        act = np.zeros(dims.n - 1, dtype=bool)
        act[:nh] = True
        masks.append(RowMask(site=nh + g, active=act))
    nh_sites = tuple(range(nh, dims.n))
    return CouplingEstimate(
        dims=dims,
        scope="output",
        direction="forward" if tm.role == "direct" else "reversed",
        fitted_sites=nh_sites,
        rows=tuple(rows),
        masks=tuple(masks),
        converged=tuple(True for _ in nh_sites),
        row_objectives=tuple(math.nan for _ in nh_sites),
        total_pl=None,
        dataset_fingerprint="parameterized",
    )


def parameterize_channel(
    tm: TransmissionMatrix, sigma: float | np.ndarray
) -> CouplingEstimate:
    """All-sites natural parameters a fit would recover for a known channel.

    Output row g: a = beta, couplings 2 * beta * T[g, :] to inputs, none to
    other outputs.  Input row a: a = beta * U[a, a] with U = T^T T, couplings
    -2 * beta * U[a, a'] to other inputs and 2 * beta * T[:, a] to outputs.
    Every input channel must reach at least one output (no zero column in T),
    otherwise its conditional has no curvature.  Injecting this estimate
    gives extraction paths an exact reference: extract_tm returns (T, sigma)
    and extract_gramian returns U with balance 0.
    """
    dims = tm.dims
    nh = dims.n_half
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (nh,))
    if np.any(sig <= 0):
        raise ValueError("noise must be strictly positive to parameterize")
    t = tm.entries
    b_out = 1.0 / (2.0 * sig**2)
    # Input-row quantities weight each output channel by its own beta; for
    # homogeneous noise this reduces to beta * U with U = T^T T.
    uw = t.T @ (b_out[:, None] * t)
    if np.any(np.diag(uw) <= 0):
        raise ValueError("channel has a dead input (zero column); curvature undefined")
    rows = []
    masks = []
    for al in range(nh):
        k = np.zeros(dims.n - 1)
        others = other_sites(al, dims.n)
        in_sel = others < nh
        k[in_sel] = -2.0 * uw[al, others[in_sel]]
        k[~in_sel] = 2.0 * b_out * t[:, al]
        rows.append(RowParams(site=al, a=uw[al, al], k=k))
        masks.append(RowMask(site=al, active=k != 0.0))
    for g in range(nh):
        a = 1.0 / (2.0 * sig[g] ** 2)
        k = np.zeros(dims.n - 1)
        k[:nh] = 2.0 * a * t[g]
        rows.append(RowParams(site=nh + g, a=a, k=k))
        masks.append(RowMask(site=nh + g, active=k != 0.0))
    sites = tuple(range(dims.n))
    return CouplingEstimate(
        dims=dims,
        scope="all",
        direction="forward" if tm.role == "direct" else "reversed",
        fitted_sites=sites,
        rows=tuple(rows),
        masks=tuple(masks),
        converged=tuple(True for _ in sites),
        row_objectives=tuple(math.nan for _ in sites),
        total_pl=None,
        dataset_fingerprint="parameterized",
    )
