"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 10 is the full-scale smoke job; it is excluded unless
``--runslow`` is given.
"""

import json
import time

import numpy as np
import pytest

import tminfer as tm
from tminfer.cli import main as cli_main
from tminfer.experiments import (
    focusing_experiment,
    gaussian_spot,
    glyph_image,
    image_reconstruction,
    infer_channel,
)
from oracles import central_difference, lbfgs_row, ols_conditional


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    dims = tm.Dimensions(w=3)
    worst = 0.0
    draws = 0
    for _ in range(10):
        t_true = tm.build_random_tm(dims, 0.3, seed=int(rng.integers(1 << 30)))
        ds = tm.generate_dataset(t_true, 50, tm.NoiseSpec(sigma=0.1),
                                 seed=int(rng.integers(1 << 30)))
        for _ in range(10):
            site = int(rng.integers(0, dims.n))
            params = tm.RowParams(site=site, a=float(rng.uniform(0.5, 3.0)),
                                  k=rng.normal(0, 1, dims.n - 1))

            def fn(theta, s=site):
                return tm.row_neg_logpl(
                    tm.RowParams(site=s, a=theta[0], k=theta[1:]), ds)

            d_a, d_k = tm.row_grad(params, ds)
            ana = np.concatenate([[d_a], d_k])
            fd = central_difference(fn, np.concatenate([[params.a], params.k]))
            rel = np.abs(ana - fd) / np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))
            draws += 1
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-5 and elapsed < 10.0 and draws == 100,
           f"{draws} draws, worst relative gradient error {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    dims = tm.Dimensions(w=4)
    t_true = tm.build_random_tm(dims, 0.25, seed=7)
    ds = tm.generate_dataset(t_true, 500, tm.NoiseSpec(sigma=0.1), seed=11)
    est = tm.fit_all_rows(ds, scope="output")
    worst_coef, worst_var = 0.0, 0.0
    for g in range(dims.n_half):
        site = dims.n_half + g
        w_ols, resvar, _, _ = ols_conditional(ds, site, range(dims.n_half))
        row = est.row_for(site)
        coeffs = row.k[:dims.n_half] / (2.0 * row.a)
        worst_coef = max(worst_coef,
                         float(np.abs(coeffs - w_ols).max() / np.abs(w_ols).max()))
        worst_var = max(worst_var,
                        abs(1.0 / (2.0 * row.a) - resvar) / resvar)
    report(2, worst_coef <= 1e-5 and worst_var <= 1e-4,
           f"16 output rows vs normal-equations oracle: coef rel "
           f"{worst_coef:.2e} (tol 1e-5), resvar rel {worst_var:.2e} (tol 1e-4)")


def test_criterion_3_zero_noise_recovery():
    t0 = time.perf_counter()
    dims = tm.Dimensions(w=4)
    t_true = tm.build_random_tm(dims, 0.25, seed=7)
    ds = tm.generate_dataset(t_true, 500, tm.NoiseSpec(sigma=0.0), seed=11)
    path, best = tm.run_decimation(
        ds, scope="output", decim_opts=tm.DecimationOptions(batch_fraction=0.0))
    t_inf, _ = tm.extract_tm(best)
    q = tm.quality_q(t_true.entries, t_inf.entries).q
    support_exact = np.array_equal(t_inf.entries != 0, t_true.entries != 0)
    elapsed = time.perf_counter() - t0
    report(3, q <= 1e-3 and support_exact and elapsed < 120.0,
           f"Q(T)={q:.2e} (tol 1e-3), exact support={support_exact}, "
           f"{elapsed:.1f}s (limit 120s)")


def test_criterion_4_bic_vs_noise():
    dims = tm.Dimensions(w=6)
    dopts = tm.DecimationOptions(batch_fraction=0.10)

    def selected_counts(sigma):
        sel, true, gaps = [], [], []
        for rep in range(3):
            t_true = tm.build_random_tm(dims, 0.20, seed=40 + rep)
            ds = tm.generate_dataset(t_true, 2000, tm.NoiseSpec(sigma=sigma),
                                     seed=800 + rep)
            path, _ = tm.run_decimation(ds, scope="output", decim_opts=dopts)
            rec = path.selected_record
            i = path.selected
            gap = max(
                [path.records[i - 1].n_couplings - rec.n_couplings] if i else [],
                default=0)
            if i + 1 < len(path.records):
                gap = max(gap, rec.n_couplings - path.records[i + 1].n_couplings)
            sel.append(rec.n_couplings)
            true.append(int((t_true.entries != 0).sum()))
            gaps.append(gap)
        return np.mean(sel), np.mean(true), np.mean(gaps)

    sel_lo, true_lo, gap_lo = selected_counts(0.05)
    sel_hi, true_hi, _ = selected_counts(0.4)
    low_ok = abs(sel_lo - true_lo) <= gap_lo
    high_ok = sel_hi < true_hi
    report(4, low_ok and high_ok,
           f"sigma=0.05: mean selected {sel_lo:.0f} vs true {true_lo:.0f} "
           f"(one batch = {gap_lo:.0f}); sigma=0.4: mean selected {sel_hi:.0f} "
           f"< true {true_hi:.0f}, averaged over 3 seeds")


def test_criterion_5_noise_inference():
    dims = tm.Dimensions(w=4)
    t_true = tm.build_random_tm(dims, 0.25, seed=7)
    ds = tm.generate_dataset(t_true, 500, tm.NoiseSpec(sigma=0.1), seed=11)
    est = tm.fit_all_rows(ds, scope="output")
    _, noise = tm.extract_tm(est)
    mean_sigma = float(np.mean(noise.sigma_hat))
    report(5, abs(mean_sigma - 0.1) <= 0.01,
           f"mean extracted sigma_hat {mean_sigma:.4f} vs true 0.1 (tol 10%)")


def test_criterion_6_inverse_route_superiority():
    dims = tm.Dimensions(w=4)
    t_true = tm.build_random_tm(dims, 0.25, seed=7)
    dopts = tm.DecimationOptions(batch_fraction=0.10)
    obj = glyph_image(dims)
    q_inv_all, q_pinv_all = [], []
    for i, sigma in enumerate((0.1, 0.2, 0.3, 0.4)):
        ds = tm.generate_dataset(t_true, 1000, tm.NoiseSpec(sigma=sigma),
                                 seed=300 + i)
        _, _, t_inf, _ = infer_channel(ds, decim_opts=dopts)
        _, _, t_inv, _ = infer_channel(tm.reverse_dataset(ds), decim_opts=dopts)
        noise = tm.NoiseSpec(sigma=sigma)
        _, q_inv = image_reconstruction(t_inv, t_true, obj, noise,
                                        np.random.default_rng(777))
        t_pinv = tm.TransmissionMatrix(dims=dims,
                                       entries=np.linalg.pinv(t_inf.entries),
                                       role="inverse")
        _, q_pinv = image_reconstruction(t_pinv, t_true, obj, noise,
                                         np.random.default_rng(777))
        q_inv_all.append(q_inv.q)
        q_pinv_all.append(q_pinv.q)
    pointwise = all(a < b for a, b in zip(q_inv_all, q_pinv_all))
    spread = max(q_inv_all) / min(q_inv_all)
    report(6, pointwise and spread < 2.0,
           f"inferred-inverse Q {['%.3f' % q for q in q_inv_all]} < pseudo-inverse "
           f"Q {['%.3f' % q for q in q_pinv_all]} at every sigma; "
           f"inverse-route spread {spread:.2f}x (limit 2x)")


def test_criterion_7_focusing_degradation():
    dims = tm.Dimensions(w=6)
    dopts = tm.DecimationOptions(batch_fraction=0.10)
    # channels screened for invertibility (cond <= 200): focusing through a
    # near-singular intensity channel is infeasible regardless of inference
    seeds = (102, 104, 105)
    assert all(np.linalg.cond(tm.build_random_tm(dims, 0.2, seed=s).entries) < 200
               for s in seeds)
    q_low, q_high = [], []
    for rep, seed in enumerate(seeds):
        t_true = tm.build_random_tm(dims, 0.20, seed=seed)
        target = gaussian_spot(dims)
        for sigma, bucket in ((0.02, q_low), (0.2, q_high)):
            ds = tm.generate_dataset(t_true, 2000, tm.NoiseSpec(sigma=sigma),
                                     seed=500 + rep * 10 + int(sigma * 100))
            _, _, t_inf, _ = infer_channel(ds, decim_opts=dopts)
            # paired propagation noise: same rng seed for both sigma legs
            _, q = focusing_experiment(t_true, t_inf, target,
                                       tm.NoiseSpec(sigma=sigma),
                                       np.random.default_rng(900 + rep))
            bucket.append(q.q)
    ratio = np.mean(q_high) / np.mean(q_low)
    report(7, ratio >= 3.0,
           f"focusing Q at sigma=0.2 ({np.mean(q_high):.3f}) vs sigma=0.02 "
           f"({np.mean(q_low):.3f}): {ratio:.2f}x worse (threshold 3x)")


def test_criterion_8_convexity_and_uniqueness():
    dims = tm.Dimensions(w=4)
    t_true = tm.build_random_tm(dims, 0.25, seed=7)
    ds = tm.generate_dataset(t_true, 300, tm.NoiseSpec(sigma=0.1), seed=13)
    rng = np.random.default_rng(17)
    worst_gap = -np.inf
    for _ in range(100):
        site = int(rng.integers(0, dims.n))
        p = tm.RowParams(site=site, a=float(rng.uniform(0.5, 3.0)),
                         k=rng.normal(0, 1, dims.n - 1))
        q = tm.RowParams(site=site, a=float(rng.uniform(0.5, 3.0)),
                         k=rng.normal(0, 1, dims.n - 1))
        lam = float(rng.uniform(0.05, 0.95))
        mid = tm.RowParams(site=site, a=lam * p.a + (1 - lam) * q.a,
                           k=lam * p.k + (1 - lam) * q.k)
        gap = tm.row_neg_logpl(mid, ds) - (
            lam * tm.row_neg_logpl(p, ds) + (1 - lam) * tm.row_neg_logpl(q, ds))
        worst_gap = max(worst_gap, gap)
    convex_ok = worst_gap <= 1e-10

    worst_rel = 0.0
    for _ in range(20):
        site = int(rng.integers(0, dims.n))
        k0 = rng.normal(0, 3, dims.n - 1)
        start = tm.RowParams(site=site, a=float(rng.uniform(0.2, 5.0)), k=k0)
        fit = tm.minimize_row(site, ds)
        ref = lbfgs_row(ds, site, start)
        scale = max(float(np.abs(fit.params.k).max()), fit.params.a)
        diff = max(float(np.abs(ref.k - fit.params.k).max()),
                   abs(ref.a - fit.params.a))
        worst_rel = max(worst_rel, diff / scale)
    unique_ok = worst_rel <= 1e-5
    report(8, convex_ok and unique_ok,
           f"convexity gap max {worst_gap:.2e} (tol 1e-10); closed form vs "
           f"L-BFGS-B from random starts: disagreement max {worst_rel:.2e} "
           f"over 20 rows (tol 1e-5)")


def test_criterion_9_determinism_across_threads(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "w": 4, "density": 0.25, "m_samples": 300, "sigma": 0.1, "seed": 42,
        "scope": "output",
        "decimation": {"batch_fraction": 0.1},
    }))
    outs = {}
    for threads in (1, 4):
        out = tmp_path / f"run_t{threads}"
        for verb in ("generate", "fit", "select", "extract", "eval", "report"):
            code = cli_main([verb, "--config", str(cfg_path), "--out", str(out),
                             "--threads", str(threads)])
            assert code == 0, (verb, threads)
        outs[threads] = out
    names = sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[4].iterdir())
    diffs = [n for n in names
             if (outs[1] / n).read_bytes() != (outs[4] / n).read_bytes()]
    report(9, not diffs,
           f"{len(names)} artifacts byte-identical across --threads 1/4"
           + (f"; differing: {diffs}" if diffs else ""))


@pytest.mark.slow
def test_criterion_10_full_scale_smoke():
    dims = tm.Dimensions(w=12)
    t_true = tm.build_random_tm(dims, 0.20, seed=1)
    ds = tm.generate_dataset(t_true, 5000, tm.NoiseSpec(sigma=0.05), seed=2)
    path, best = tm.run_decimation(
        ds, scope="output", decim_opts=tm.DecimationOptions(batch_fraction=0.10),
        threads=4)
    t_inf, _ = tm.extract_tm(best)
    q = tm.quality_q(t_true.entries, t_inf.entries).q

    # statistical floor: known-support least squares on the same data
    t_oracle = np.zeros_like(t_true.entries)
    for g in range(dims.n_half):
        sup = np.flatnonzero(t_true.entries[g])
        xs = ds.inputs[:, sup]
        t_oracle[g, sup] = np.linalg.solve(xs.T @ xs, xs.T @ ds.outputs[:, g])
    q_floor = tm.quality_q(t_true.entries, t_oracle).q
    print(f"  [full-scale] pipeline Q={q:.4f}; known-support oracle floor "
          f"Q={q_floor:.4f}; selected {path.selected_record.n_couplings} of "
          f"{int((t_true.entries != 0).sum())} true couplings")
    report(10, q <= 0.1,
           f"fit+decimation completed; Q(T)={q:.4f} (stated tolerance 0.1; "
           f"known-support oracle floor on this data is {q_floor:.4f})")
