"""Evaluation studies: focusing, image reconstruction, and noise sweeps.

Two end-to-end uses of an inferred channel are exercised.  Focusing solves
for the input pattern whose transmission best matches a Gaussian spot and
sends it through the true channel.  Image reconstruction sends an object
through the true channel and maps the speckled output back with an inferred
inverse.  The sweep driver repeats the whole pipeline over a noise grid,
including the reversed-data fit that yields the inverse map directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .extraction import QualityReport, extract_gramian, extract_tm, quality_q
from .model import (
    Dataset,
    Dimensions,
    Moments,
    NoiseSpec,
    TransmissionMatrix,
    _check_density,
    _count,
    _is_real,
    _one_blas_thread,
    build_random_tm,
    generate_dataset,
    reverse_dataset,
    transmit,
)
from .optimize import OptimOptions, _scope_sites, fit_all_rows, true_support_masks
from .selection import DecimationOptions, run_decimation

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "ExperimentReport",
    "gaussian_spot",
    "glyph_image",
    "focus_contrast",
    "focusing_experiment",
    "image_reconstruction",
    "evaluate_channel",
    "infer_channel",
    "run_sweep",
]


def gaussian_spot(dims: Dimensions) -> np.ndarray:
    """Flattened w x w Gaussian spot on a flat pedestal, the focusing target.

    A row-stochastic channel maps a constant frame to itself, so the pedestal
    rides through exactly; only the spot component needs an input excursion.
    Random sparse channels amplify that excursion by one to two orders of
    magnitude, so the amplitude is small enough that the focusing solve stays
    inside the [0, 1] intensity box instead of being distorted by the clamp.
    """
    width, amplitude, background = 1.2, 0.004, 0.5
    w = dims.w
    center = (w - 1) / 2.0
    yy, xx = np.mgrid[0:w, 0:w]
    bump = np.exp(-((yy - center) ** 2 + (xx - center) ** 2) / (2.0 * width**2))
    return (background + amplitude * bump).ravel()


def glyph_image(dims: Dimensions) -> np.ndarray:
    """Flattened w x w binary plus-sign glyph used as the test object; at w=2
    the arms reach the far edge, lighting three of the four pixels."""
    w = dims.w
    img = np.zeros((w, w))
    mid = w // 2
    lo, hi = max(0, mid - w // 6 - 1), min(w, mid + w // 6 + 1)
    arm = slice(1, max(w - 1, 2))
    img[lo:hi, arm] = 1.0
    img[arm, lo:hi] = 1.0
    return img.ravel()


def focus_contrast(achieved: np.ndarray, target: np.ndarray) -> float | None:
    """Peak-to-mean-background ratio of the achieved pattern.

    The peak pixel is where the target is brightest; background is every
    other pixel.  None, undefined, where the background's mean is not positive.
    """
    peak = int(np.argmax(target))
    rest = np.delete(achieved, peak)
    bg = float(np.mean(rest))
    if bg <= 0:
        return None
    return float(achieved[peak]) / bg


def focusing_experiment(
    t_true: TransmissionMatrix,
    t_inf: TransmissionMatrix,
    target: np.ndarray,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, QualityReport]:
    """Drive the true channel toward a target pattern using the inferred map.

    The input is the least-squares solution of ``T_inf x = target`` clamped
    elementwise into [0, 1], then propagated through the TRUE channel with
    noise.  Rank deficiency falls back to the minimum-norm solution with a
    warning.
    """
    tgt = np.asarray(target, dtype=np.float64)
    nh = t_true.dims.n_half
    if tgt.shape != (nh,):
        raise ValueError(f"target must be a flattened frame of length {nh}")
    x, _, rank, _ = np.linalg.lstsq(t_inf.entries, tgt, rcond=None)
    if rank < nh:
        warnings.warn(
            f"inferred matrix is rank deficient ({rank} < {nh}); "
            "using the minimum-norm least-squares input",
            stacklevel=2,
        )
    x = np.clip(x, 0.0, 1.0)
    achieved = transmit(t_true, x, noise, rng)
    return achieved, quality_q(tgt, achieved)


def image_reconstruction(
    t_inv_inf: TransmissionMatrix,
    t_true: TransmissionMatrix,
    obj: np.ndarray,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, QualityReport]:
    """Send an object through the true channel, recover it with an inverse map."""
    o = np.asarray(obj, dtype=np.float64)
    nh = t_true.dims.n_half
    if o.shape != (nh,):
        raise ValueError(f"object must be a flattened frame of length {nh}")
    i_out = transmit(t_true, o, noise, rng)
    o_rec = t_inv_inf.entries @ i_out
    return o_rec, quality_q(o, o_rec)


def evaluate_channel(t_true: TransmissionMatrix, t_inf: TransmissionMatrix, noise: NoiseSpec,
                     target: np.ndarray, seed_focus: int, seed_img: int,
                     t_inv: TransmissionMatrix | None = None) -> dict[str, float]:
    """The evaluation experiments of an inferred channel: focusing on ``target``
    through ``t_inf``, and glyph reconstruction through ``pinv(t_inf)`` and, when
    given, ``t_inv``.  Each draws its noise from a generator of its own, seeded
    ``seed_focus`` or ``seed_img``, on one BLAS thread (``model._one_blas_thread``).
    Returns each Q under its ``SweepRecord`` name."""
    with _one_blas_thread():
        achieved, q_focus = focusing_experiment(
            t_true, t_inf, target, noise, np.random.default_rng(seed_focus))
        obj = glyph_image(t_true.dims)
        t_pinv = TransmissionMatrix(dims=t_true.dims, entries=np.linalg.pinv(t_inf.entries),
                                    role="inverse")
        _, q_img_pinv = image_reconstruction(
            t_pinv, t_true, obj, noise, np.random.default_rng(seed_img))
        out = {"q_focus": q_focus.q, "focus_peak_ratio": focus_contrast(achieved, target),
               "q_image_pinv": q_img_pinv.q}
        if t_inv is not None:
            _, q_img_inv = image_reconstruction(
                t_inv, t_true, obj, noise, np.random.default_rng(seed_img))
            out["q_image_inverse"] = q_img_inv.q
    return out


def infer_channel(
    dataset: Dataset,
    scope: str = "output",
    decim_opts: DecimationOptions = DecimationOptions(),
    threads: int = 1,
):
    """Fit + decimate + extract in one call; ``threads`` is accepted and ignored.

    Returns (path, selected_estimate, tm, noise_estimate).
    """
    path, est = run_decimation(dataset, scope=scope, decim_opts=decim_opts)
    tm, noise_est = extract_tm(est)
    return path, est, tm, noise_est


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition for a noise sweep, refused here if bad, before any point
    runs: the σ grid (stored as floats), the counts and ``master_seed`` (by
    ``model._count``) and the density, as the CLI's config; ``threads`` is
    accepted and ignored and ``fit_opts`` is the row solve's fixed ``OptimOptions``."""

    dims: Dimensions
    density: float = 0.20
    m_samples: int = 500
    sigma_grid: tuple[float, ...] = tuple(np.linspace(0.0, 0.5, 11))
    master_seed: int = 0
    replicates: int = 3
    scope: str = "output"
    fit_opts: OptimOptions = field(default=OptimOptions(), init=False)
    decim_opts: DecimationOptions = DecimationOptions()
    include_balance: bool = True
    threads: int = 1

    def __post_init__(self) -> None:
        grid = self.sigma_grid
        if not (isinstance(grid, (list, tuple)) and grid and all(map(_is_real, grid))
                and min(grid) >= 0 and list(grid) == sorted(grid)):
            raise ValueError("sigma_grid must be a nonempty, ascending list or tuple of "
                             f"finite, nonnegative numbers, got {grid!r}")
        object.__setattr__(self, "sigma_grid", tuple(map(float, grid)))
        for name, minimum in (("m_samples", 1), ("replicates", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, minimum))
        _scope_sites(self.dims, self.scope)  # refuses a scope outside SCOPES
        _check_density(self.density, self.dims)
        if self.include_balance and self.m_samples <= self.dims.n - 1:
            raise ValueError(f"include_balance needs m_samples to exceed the {self.dims.n - 1} "
                             f"regressors of a full-support all row, got {self.m_samples}")


@dataclass(frozen=True)
class SweepRecord:
    """Everything measured at one (sigma, replicate) grid point."""

    sigma: float
    replicate: int
    data_seed: int
    q_bic: float | None = None
    q_true_support: float | None = None
    selected_couplings: int | None = None
    true_couplings: int | None = None
    inverse_selected_couplings: int | None = None
    q_image_inverse: float | None = None
    q_image_pinv: float | None = None
    q_focus: float | None = None
    focus_peak_ratio: float | None = None
    sigma_hat_mean: float | None = None
    balance: float | None = None
    failure: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """Sweep output: one record per (sigma, replicate)."""

    config: SweepConfig
    records: tuple[SweepRecord, ...] = field(default_factory=tuple)


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _sweep_point(
    config: SweepConfig,
    tm_true: TransmissionMatrix,
    sigma: float,
    replicate: int,
    seeds: tuple[int, int, int],
) -> SweepRecord:
    seed_data, seed_img, seed_focus = seeds
    noise = NoiseSpec(sigma=sigma)
    ds = generate_dataset(tm_true, config.m_samples, noise, seed=seed_data)

    path, est, t_inf, noise_est = infer_channel(
        ds, scope=config.scope, decim_opts=config.decim_opts)
    q_bic = quality_q(tm_true.entries, t_inf.entries).q

    support = tm_true.entries != 0
    moments = Moments.of(ds)
    sup_est = fit_all_rows(moments, masks=true_support_masks(config.dims, support),
                           scope="output")
    t_sup, _ = extract_tm(sup_est)
    q_true_support = quality_q(tm_true.entries, t_sup.entries).q

    rev = reverse_dataset(ds)
    _, _, t_inv_inf, _ = infer_channel(
        rev, scope=config.scope, decim_opts=config.decim_opts)
    inv_selected = int((t_inv_inf.entries != 0).sum())

    scores = evaluate_channel(tm_true, t_inf, noise, gaussian_spot(config.dims),
                              seed_focus, seed_img, t_inv=t_inv_inf)

    balance = (extract_gramian(fit_all_rows(moments, scope="all"))[1]
               if config.include_balance else None)

    return SweepRecord(
        sigma=sigma,
        replicate=replicate,
        data_seed=seed_data,
        q_bic=q_bic,
        q_true_support=q_true_support,
        selected_couplings=int((t_inf.entries != 0).sum()),
        true_couplings=int(support.sum()),
        inverse_selected_couplings=inv_selected,
        sigma_hat_mean=float(np.mean(noise_est.sigma_hat)),
        balance=balance,
        **scores,
    )


def run_sweep(config: SweepConfig) -> ExperimentReport:
    """Run the full pipeline at every (sigma, replicate) grid point.

    The channel matrix is drawn once per replicate and held fixed across the
    noise grid; data are drawn fresh per grid point with seeds derived from
    the master seed.  A failing grid point is recorded with its error message
    and the sweep continues (an underdetermined row is one such error).
    Runs on one BLAS thread, as ``evaluate_channel`` does.
    """
    root = np.random.SeedSequence(config.master_seed)
    rep_seqs = root.spawn(config.replicates)
    records = []
    with _one_blas_thread():
        for rep in range(config.replicates):
            tm_seq, *point_seqs = rep_seqs[rep].spawn(1 + len(config.sigma_grid))
            tm_true = build_random_tm(config.dims, config.density, seed=_seed_int(tm_seq))
            for i, sigma in enumerate(config.sigma_grid):
                sub = point_seqs[i].spawn(3)
                seeds = (_seed_int(sub[0]), _seed_int(sub[1]), _seed_int(sub[2]))
                try:
                    rec = _sweep_point(config, tm_true, sigma, rep, seeds)
                except Exception as exc:  # record and continue
                    rec = SweepRecord(sigma=sigma, replicate=rep, data_seed=seeds[0],
                                      failure=f"{type(exc).__name__}: {exc}")
                records.append(rec)
    return ExperimentReport(config=config, records=tuple(records))
