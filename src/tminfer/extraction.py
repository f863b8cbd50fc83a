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
from dataclasses import dataclass

import numpy as np

from .model import TransmissionMatrix
from .optimize import CouplingEstimate
from .pseudolikelihood import RowParams, other_sites

__all__ = [
    "ChannelNoiseEstimate",
    "QualityReport",
    "extract_tm",
    "extract_gramian",
    "quality_q",
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
    folded in.
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
