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
from functools import cached_property

import numpy as np

from .model import TransmissionMatrix, _frozen
from .optimize import CouplingEstimate

__all__ = [
    "ChannelNoiseEstimate",
    "QualityReport",
    "extract_tm",
    "extract_gramian",
    "quality_q",
]


@dataclass(frozen=True)
class ChannelNoiseEstimate:
    """Per-output-channel noise inferred from the curvature parameters: the
    positive curvatures ``beta_hat`` (``model._frozen``), and ``sigma_hat``."""

    beta_hat: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_hat", _frozen(self.beta_hat))
        if np.any(self.beta_hat <= 0):
            raise ValueError("inverse temperatures must be positive")

    @cached_property
    def sigma_hat(self) -> np.ndarray:
        """The noise levels ``(2 * beta_hat) ** -0.5``, sealed; formed on first use and kept."""
        return _frozen(1.0 / np.sqrt(2.0 * self.beta_hat))


@dataclass(frozen=True)
class QualityReport:
    """Square-root relative Frobenius deviation between two arrays.

    q = sqrt(||ref - cand||_F / ||ref||_F); zero means exact recovery.
    """

    q: float

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("quality value cannot be negative")


def quality_q(reference: np.ndarray, candidate: np.ndarray) -> QualityReport:
    """Reconstruction quality of ``candidate`` against ``reference``."""
    ref = np.asarray(reference, dtype=np.float64)
    cand = np.asarray(candidate, dtype=np.float64)
    if ref.shape != cand.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {cand.shape}")
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("reference norm is zero; quality undefined")
    q = math.sqrt(float(np.linalg.norm(ref - cand)) / ref_norm)
    return QualityReport(q=q)


def extract_tm(estimate: CouplingEstimate) -> tuple[TransmissionMatrix, ChannelNoiseEstimate]:
    """Recover the channel matrix and per-channel noise from fitted rows.

    For each output row g: beta_g = a_g, T[g, a] = k[g, a] / (2 * a_g) over
    the input-site couplings, sigma_g = (2 * a_g) ** -0.5.  Output sites come
    last in either scope, so they are the last n_half rows of the estimate,
    and inputs precede outputs, so their couplings are positions 0..n_half-1.
    Fitted output-to-output couplings (all-sites scope) are not folded in.
    """
    nh = estimate.dims.n_half
    a_vec = estimate.a[-nh:]
    t = estimate.k[-nh:, :nh] / (2.0 * a_vec[:, None])
    role = "direct" if estimate.direction == "forward" else "inverse"
    tm = TransmissionMatrix(dims=estimate.dims, entries=t, role=role)
    return tm, ChannelNoiseEstimate(beta_hat=a_vec)


def extract_gramian(estimate: CouplingEstimate) -> tuple[np.ndarray, float | None]:
    """Recover the input self-coupling Gramian and the balance diagnostic.

    An input channel's conditional Gaussian has curvature beta * U[a, a] and
    linear field 2 * beta * (T^T out - sum_{a' != a} U[a, a'] in[a']), so the
    fitted couplings encode off-diagonal Gramian entries at twice the beta
    scale (the factor 2 collects both symmetric halves of the quadratic
    form).  Input rows entangle beta with the Gramian diagonal, so beta is
    fixed at the mean output-row curvature.  Input row a holds its couplings
    to the other inputs at positions 0..n_half-2, in ascending site order.
    ``balance`` is the relative Frobenius gap between the directly fitted
    Gramian and ``T_inf^T @ T_inf``; small values indicate a self-consistent
    fit and can serve as a halt criterion.  It is None where ``T_inf`` is 0,
    an estimate with no output-to-input coupling.
    """
    if estimate.scope != "all":
        raise ValueError("Gramian extraction needs an all-sites estimate")
    nh = estimate.dims.n_half
    beta_in = float(np.mean(estimate.a[-nh:]))
    u = np.empty((nh, nh))
    u[~np.eye(nh, dtype=bool)] = -estimate.k[:nh, :nh - 1].ravel() / (2.0 * beta_in)
    u[np.diag_indices(nh)] = estimate.a[:nh] / beta_in
    tm, _ = extract_tm(estimate)
    gram = tm.entries.T @ tm.entries
    norm = float(np.linalg.norm(gram))
    balance = float(np.linalg.norm(u - gram)) / norm if norm > 0 else None
    return u, balance
