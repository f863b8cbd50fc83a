import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tminfer as tm
import tminfer.io as tio
import tminfer.optimize as topt
from oracles import lstsq_row, ols_conditional, solved_row
from tminfer.model import _one_blas_thread
from tminfer.optimize import A_CAP, CERTIFY_TOL, SCOPES, refit_rows
from tminfer.pseudolikelihood import other_sites


def scope_masks(dims, scope):
    """``initial_masks`` as one ``RowMask`` per fitted site; the fitted sites
    are the last rows of ``dims.n`` in either scope."""
    active = tm.initial_masks(dims, scope)
    first = dims.n - active.shape[0]
    return [tm.RowMask(site=first + r, active=act) for r, act in enumerate(active)]


def output_mask(dims, g):
    return scope_masks(dims, "output")[g]


class TestMinimizeRow:
    def test_zero_noise_recovers_channel_row(self, channel4, data4_clean):
        dims = channel4.dims
        for g in (0, 5, 11):
            fit = tm.minimize_row(dims.n_half + g, data4_clean,
                                  output_mask(dims, g))
            coeffs = fit.params.k[:dims.n_half] / (2.0 * fit.params.a)
            assert np.abs(coeffs - channel4.entries[g]).max() <= 1e-6

    def test_matches_ols_oracle(self, data4_noisy):
        dims = data4_noisy.dims
        g = 7
        w, resvar, a_star, k_star = ols_conditional(
            data4_noisy, dims.n_half + g, range(dims.n_half))
        fit = tm.minimize_row(dims.n_half + g, data4_noisy,
                              output_mask(dims, g))
        coeffs = fit.params.k[:dims.n_half] / (2.0 * fit.params.a)
        assert np.abs(coeffs - w).max() <= 1e-5 * np.abs(w).max()
        assert abs(1.0 / (2.0 * fit.params.a) - resvar) <= 1e-4 * resvar

    def test_mask_entries_stay_zero(self, data4_noisy, rng):
        dims = data4_noisy.dims
        site = 5
        active = rng.random(dims.n - 1) < 0.4
        mask = tm.RowMask(site=site, active=active)
        fit = tm.minimize_row(site, data4_noisy, mask)
        assert np.all(fit.params.k[~active] == 0.0)
        assert np.any(fit.params.k[active] != 0.0)

    def test_curvature_positive_at_return(self, data4_clean, data4_noisy):
        for ds in (data4_clean, data4_noisy):
            fit = tm.minimize_row(16, ds, output_mask(ds.dims, 0))
            assert 0.0 < fit.params.a <= A_CAP

    def test_noise_free_rows_park_at_cap(self, data4_clean):
        fits = [tm.minimize_row(16 + g, data4_clean,
                                output_mask(data4_clean.dims, g))
                for g in range(4)]
        assert all(f.params.a == A_CAP for f in fits)
        assert all(f.converged and np.isfinite(f.objective) for f in fits)

    def test_fields_only_model(self, data4_noisy):
        # fully decimated mask: only the curvature is free
        dims = data4_noisy.dims
        site = 16
        mask = tm.RowMask(site=site, active=np.zeros(dims.n - 1, dtype=bool))
        fit = tm.minimize_row(site, data4_noisy, mask)
        y = data4_noisy.site_matrix()[:, site]
        assert fit.converged
        assert fit.params.a == pytest.approx(1.0 / (2.0 * np.mean(y * y)), rel=1e-6)

    def test_record_adopts_the_row_it_solved(self, data4_noisy, monkeypatch):
        # minimize_row seals the k it built, so RowParams takes it uncopied.
        mask = output_mask(data4_noisy.dims, 3)
        copied = []
        real = tm.pseudolikelihood._frozen

        def counting(arr, dtype=np.float64):
            out = real(arr, dtype)
            if out is not arr:
                copied.append(arr)
            return out

        monkeypatch.setattr(tm.pseudolikelihood, "_frozen", counting)
        fit = tm.minimize_row(mask.site, data4_noisy, mask)
        assert not copied
        assert not fit.params.k.flags.writeable

    def test_bad_mask_rejected(self, data4_noisy):
        with pytest.raises(ValueError):
            tm.minimize_row(16, data4_noisy,
                            tm.RowMask(site=17, active=np.ones(31, dtype=bool)))


def moments_with(ds, edit):
    """Moments of ``ds``'s site matrix after ``edit`` changed it in place."""
    s = ds.site_matrix().copy()
    edit(s)
    return tm.Moments(ds.dims, ds.direction, ds.m_samples, s.T @ s / ds.m_samples)


def duplicate_input(s):
    s[:, 1] = s[:, 0]


def dead_input(s):
    s[:, 2] = 0.0


def cholesky_raises(moments, mask):
    idx = other_sites(mask.site, moments.dims.n)[mask.active]
    try:
        np.linalg.cholesky(moments.c[np.ix_(idx, idx)])
    except np.linalg.LinAlgError:
        return True
    return False


def same_bits(fit, ref):
    return (fit.params.k.tobytes() == ref.params.k.tobytes()
            and fit.params.a == ref.params.a and fit.objective == ref.objective
            and fit.converged == ref.converged)


def certified(moments):
    return moments.pivot_ratio > CERTIFY_TOL


def rule_row(moments, mask):
    """The row solve the certificate rule names: a row regressed on inputs
    alone uses ``C_II``'s certificate, any other row ``C``'s; a certified
    row is the LU solve of its block, any other row the lstsq solve."""
    idx = other_sites(mask.site, moments.dims.n)[mask.active]
    inputs_only = np.all(idx < moments.dims.n_half)
    ratio = moments.input_pivot_ratio if inputs_only else moments.pivot_ratio
    if ratio > CERTIFY_TOL:
        return solved_row(mask.site, moments, mask, A_CAP, np.linalg.solve)
    return lstsq_row(mask.site, moments, mask, A_CAP)


def thinned_masks(dims, scope, rng, keep=0.5):
    """``scope_masks`` with each active coupling kept with probability ``keep``."""
    return [tm.RowMask(site=mk.site, active=mk.active & (rng.random(dims.n - 1) < keep))
            for mk in scope_masks(dims, scope)]


@pytest.fixture(scope="module")
def data6():
    channel = tm.build_random_tm(tm.Dimensions(w=6), 0.2, seed=5)
    return tm.generate_dataset(channel, 600, tm.NoiseSpec(sigma=0.05), seed=6)


@pytest.fixture(scope="module")
def data12():
    channel = tm.build_random_tm(tm.Dimensions(w=12), 0.2, seed=1)
    return tm.generate_dataset(channel, 1000, tm.NoiseSpec(sigma=0.05), seed=2)


class TestCertificate:
    """One certificate of C_II or of C picks every row's solver."""

    @pytest.mark.parametrize("scope", ["output", "all"])
    @pytest.mark.parametrize("name", ["data4_noisy", "data4_clean", "data6"])
    def test_certified_rows_keep_the_per_row_bits(self, request, name, scope, rng):
        # A row of a certified matrix is, bit for bit, the LU solve of its
        # own block, and every other row the lstsq solve.
        moments = tm.Moments.of(request.getfixturevalue(name))
        # Noise-free outputs are linear in the inputs: C is singular, C_II not.
        assert certified(moments) == (name != "data4_clean")
        assert moments.input_pivot_ratio > CERTIFY_TOL
        masks = scope_masks(moments.dims, scope) + thinned_masks(moments.dims, scope, rng)
        for mk in masks:
            fit = tm.minimize_row(mk.site, moments, mk)
            assert same_bits(fit, rule_row(moments, mk))
            assert (fit.params.site, fit.iterations) == (mk.site, 1)

    @settings(max_examples=40, deadline=None)
    @given(w=st.integers(2, 4), sigma=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
           seed=st.integers(0, 2**16), per_site=st.integers(1, 8), data=st.data())
    def test_certificate_covers_every_ascending_block(self, w, sigma, seed, per_site, data):
        dims = tm.Dimensions(w=w)
        channel = tm.build_random_tm(dims, 0.5, seed=seed)
        ds = tm.generate_dataset(channel, per_site * dims.n, tm.NoiseSpec(sigma=sigma),
                                 seed=seed + 1)
        moments = tm.Moments.of(ds)
        assert moments.input_pivot_ratio >= moments.pivot_ratio
        c, inputs = moments.c, np.arange(dims.n) < dims.n_half
        subsets = [data.draw(arrays(bool, dims.n)) for _ in range(10)]
        subsets += [np.arange(dims.n) != site for site in range(dims.n)]
        subsets += [keep & inputs for keep in subsets]
        for keep in subsets:
            idx = np.flatnonzero(keep)  # ascending site order
            # A block of inputs alone is one of C_II, any other one of C.
            ratio = moments.input_pivot_ratio if not keep[~inputs].any() else moments.pivot_ratio
            if idx.size == 0 or ratio <= CERTIFY_TOL:
                continue
            block = c[np.ix_(idx, idx)]
            ratios = np.diagonal(np.linalg.cholesky(block)) ** 2 / np.diagonal(block)
            # Conditioning on fewer sites leaves no smaller share (to rounding).
            assert np.min(ratios) >= ratio * (1 - 1e-9)

    def test_input_block_ratio_is_read_from_the_factor_of_c(self, data4_noisy, data4_clean):
        # C's factor starts with C_II's; where C does not factorise, C_II
        # takes a Cholesky of its own.
        nh = data4_noisy.dims.n_half
        for ds in (data4_noisy, data4_clean):
            moments = tm.Moments.of(ds)
            try:
                low = np.linalg.cholesky(moments.c)
            except np.linalg.LinAlgError:
                c_ii = moments.c[:nh, :nh]
                low, c_diag = np.linalg.cholesky(c_ii), np.diagonal(c_ii)
            else:
                c_diag = np.diagonal(moments.c)[:nh]
            assert moments.input_pivot_ratio == np.min(np.diagonal(low)[:nh] ** 2 / c_diag)
        assert tm.Moments.of(data4_clean).pivot_ratio == 0.0

    def test_record_is_certified_once(self, data4_noisy, data4_clean, monkeypatch):
        # Each matrix is factorised once, on first use: C's factor gives C_II's
        # certificate too, unless C is singular.
        real, sizes = np.linalg.cholesky, []

        def counting(c):
            sizes.append(c.shape[0])
            return real(c)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        for ds, expected in ((data4_noisy, [32]), (data4_clean, [32, 16])):
            moments = dataclasses.replace(tm.Moments.of(ds))  # certified by no one yet
            sizes.clear()
            for scope in ("output", "all", "output"):
                tm.fit_all_rows(moments, scope=scope)
            assert sizes == expected
        moments = tm.Moments.of(data4_noisy)
        tm.fit_all_rows(data4_noisy, scope="all")
        assert tm.Moments.of(data4_noisy) is moments

    def test_row_of_an_uncertified_matrix_is_the_lstsq_solve(self, data4_noisy):
        # A dead input leaves C_II singular.  An output row that drops it has
        # a positive definite block, but no certificate covers that block, so
        # the row is the minimum-norm lstsq solve.
        moments = moments_with(data4_noisy, dead_input)
        assert moments.input_pivot_ratio == moments.pivot_ratio == 0.0
        for mask in scope_masks(moments.dims, "output"):
            mask = tm.RowMask(site=mask.site, active=mask.active & (np.arange(31) != 2))
            assert not cholesky_raises(moments, mask)
            fit = tm.minimize_row(mask.site, moments, mask)
            assert same_bits(fit, lstsq_row(mask.site, moments, mask, A_CAP))

    @settings(max_examples=40, deadline=None)
    @given(w=st.integers(2, 4), sigma=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
           seed=st.integers(0, 2**16), scope=st.sampled_from(SCOPES), reverse=st.booleans(),
           data=st.data())
    def test_every_row_takes_the_solver_its_certificate_names(self, w, sigma, seed, scope,
                                                             reverse, data):
        # From fewer samples than sites to 4 per site, noise-free or not, in
        # both scopes and directions, under full and thinned supports.
        dims = tm.Dimensions(w=w)
        m = data.draw(st.integers(dims.n // 2, 4 * dims.n))
        ds = tm.generate_dataset(tm.build_random_tm(dims, 0.5, seed=seed), m,
                                 tm.NoiseSpec(sigma=sigma), seed=seed + 1)
        moments = tm.Moments.of(tm.reverse_dataset(ds) if reverse else ds)
        for mask in scope_masks(dims, scope):
            keep = data.draw(arrays(bool, dims.n - 1))
            for active in (mask.active, mask.active & keep):
                mk = tm.RowMask(site=mask.site, active=active)
                assert same_bits(tm.minimize_row(mk.site, moments, mk), rule_row(moments, mk))


class TestWideRowSolve:
    """Certified blocks solved by LU on one BLAS thread match the lstsq path, at
    widths past the 96-regressor cutoff that 0.15.0 removed; a singular block
    takes lstsq."""

    @pytest.mark.parametrize("scope", ["output", "all"])
    def test_matches_lstsq_reference(self, data12, scope, rng):
        moments = tm.Moments.of(data12)
        assert certified(moments)
        full = scope_masks(moments.dims, scope)
        masks = [full[0], full[-1], *thinned_masks(moments.dims, scope, rng, keep=0.8)[:2]]
        for mask in masks:
            assert mask.active.sum() > 96
            fit = tm.minimize_row(mask.site, moments, mask)
            # The certified row is the LU solve of its block, bit for bit,
            # where both run on one BLAS thread.
            with _one_blas_thread():
                assert same_bits(fit, solved_row(mask.site, moments, mask, A_CAP,
                                                 np.linalg.solve))
            ref = lstsq_row(mask.site, moments, mask, A_CAP)
            # Output rows regress on the inputs alone (condition ~1e3); an
            # all-sites block holds outputs that the inputs nearly explain
            # (condition ~1e5), and two stable solvers then agree only to
            # eps times the condition.
            idx = other_sites(mask.site, moments.dims.n)[mask.active]
            rel = max(1e-12, np.finfo(float).eps * np.linalg.cond(moments.c[np.ix_(idx, idx)]))
            k_ref = ref.params.k
            assert np.abs(fit.params.k - k_ref).max() <= rel * np.abs(k_ref).max()
            assert fit.params.a == pytest.approx(ref.params.a, rel=rel, abs=0)
            assert fit.objective == pytest.approx(ref.objective, rel=rel, abs=0)
            assert fit.converged and ref.converged

    def test_singular_block_takes_the_lstsq_fallback(self, data12):
        moments = moments_with(data12, duplicate_input)
        assert not certified(moments)
        for mask in scope_masks(moments.dims, "output")[:3]:
            assert mask.active.sum() > 96
            fit = tm.minimize_row(mask.site, moments, mask)
            assert same_bits(fit, lstsq_row(mask.site, moments, mask, A_CAP))


class TestRowSolveBranches:
    """Cholesky where C[A,A] is positive definite, lstsq where it is not."""

    @pytest.mark.parametrize("scope", ["output", "all"])
    def test_cholesky_matches_lstsq_reference(self, data4_noisy, scope):
        moments = tm.Moments.of(data4_noisy)
        for mask in scope_masks(moments.dims, scope):
            assert not cholesky_raises(moments, mask)
            fit = tm.minimize_row(mask.site, moments, mask)
            ref = lstsq_row(mask.site, moments, mask, A_CAP)
            k_ref = ref.params.k
            assert np.abs(fit.params.k - k_ref).max() <= 1e-12 * np.abs(k_ref).max()
            assert fit.params.a == pytest.approx(ref.params.a, rel=1e-12, abs=0)
            assert fit.objective == pytest.approx(ref.objective, rel=1e-12, abs=0)
            assert fit.converged

    @pytest.mark.parametrize("case", ["duplicate", "dead", "sigma0-all", "m8-output",
                                      "m8-all"])
    def test_degenerate_blocks_take_the_lstsq_fallback(self, case, channel4,
                                                       data4_noisy, data4_clean):
        # Each block is singular: Cholesky fails, and the row is bit for bit
        # the minimum-norm lstsq solve.
        if case == "duplicate":
            moments, scope = moments_with(data4_noisy, duplicate_input), "output"
        elif case == "dead":
            moments, scope = moments_with(data4_noisy, dead_input), "output"
        elif case == "sigma0-all":
            moments, scope = tm.Moments.of(data4_clean), "all"
        else:
            few = tm.generate_dataset(channel4, 8, tm.NoiseSpec(sigma=0.1), seed=3)
            moments, scope = tm.Moments.of(few), case.split("-")[1]
        for mask in scope_masks(moments.dims, scope):
            assert cholesky_raises(moments, mask)
            fit = tm.minimize_row(mask.site, moments, mask)
            assert same_bits(fit, lstsq_row(mask.site, moments, mask, A_CAP))
            assert np.all(np.isfinite(fit.params.k))

    def test_singular_block_that_factorises_takes_the_fallback(self):
        # Noise-free samples through a singular channel, fitted reversed: each
        # row regresses an input on outputs of rank < 16.  Cholesky succeeds
        # on that singular block with a pivot at rounding level, so the
        # record's C_II is not certified, and the row is the minimum-norm
        # lstsq solve.
        dims = tm.Dimensions(w=4)
        channel = tm.build_random_tm(dims, 0.2, seed=0)
        assert np.linalg.matrix_rank(channel.entries) < dims.n_half
        ds = tm.generate_dataset(channel, 500, tm.NoiseSpec(sigma=0.0), seed=2)
        moments = tm.Moments.of(tm.reverse_dataset(ds))
        masks = scope_masks(dims, "output")
        assert not any(cholesky_raises(moments, mask) for mask in masks)
        assert 0 < moments.input_pivot_ratio <= CERTIFY_TOL
        for mask in masks:
            fit = tm.minimize_row(mask.site, moments, mask)
            assert same_bits(fit, lstsq_row(mask.site, moments, mask, A_CAP))


class TestRowFitTypes:
    """Every RowFit field has its declared Python type, so it serialises."""

    @pytest.mark.parametrize("case", ["noisy", "sigma0-cap", "lstsq"])
    def test_fields_are_python_scalars(self, case, channel4, data4_noisy, data4_clean):
        dims = channel4.dims
        mask = output_mask(dims, 3)
        if case == "noisy":
            moments = tm.Moments.of(data4_noisy)
        elif case == "sigma0-cap":
            moments = tm.Moments.of(data4_clean)
        else:
            moments = tm.Moments.of(
                tm.generate_dataset(channel4, 8, tm.NoiseSpec(sigma=0.1), seed=3))
            mask = scope_masks(dims, "all")[mask.site]
            assert cholesky_raises(moments, mask)
        fit = tm.minimize_row(mask.site, moments, mask)
        assert (fit.params.a == A_CAP) == (case != "noisy")
        assert type(fit.converged) is bool
        for value in (fit.objective, fit.params.a):
            assert type(value) is float
        json.dumps([fit.converged, fit.objective, fit.params.a])


def test_solver_settings_are_fixed(dims4, data4_noisy):
    # The curvature cap is a constant that no entry point or config can set,
    # and the noise, target and quality helpers take nothing beyond their data.
    assert tm.OptimOptions().a_cap == tm.SweepConfig(dims4).fit_opts.a_cap == A_CAP == 1e8
    calls = [
        lambda: tm.OptimOptions(a_cap=1.0),
        lambda: tm.SweepConfig(dims4, fit_opts=tm.OptimOptions()),
        lambda: tm.fit_all_rows(data4_noisy, opts=tm.OptimOptions()),
        lambda: tm.run_decimation(data4_noisy, fit_opts=tm.OptimOptions()),
        lambda: tm.NoiseSpec(0.1, seed=9),
        lambda: tm.gaussian_spot(dims4, center=(1.0, 1.0)),
        lambda: tm.gaussian_spot(dims4, width=1.0),
        lambda: tm.quality_q(np.ones(3), np.ones(3), operands="demo"),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


# Runs minimize_row on blocks of a recorded C and prints every RowFit field.
_ROW_FIELDS = """
import json, sys
import numpy as np
import tminfer as tm
c = np.load(sys.argv[1])
dims = tm.Dimensions(w=int(sys.argv[2]))
moments = tm.Moments(dims, "forward", int(sys.argv[3]), c)
site = dims.n_half
out = {"pivot_ratio": moments.pivot_ratio.hex()}
for size in json.loads(sys.argv[4]):
    active = np.zeros(dims.n - 1, dtype=bool)
    active[:size] = True
    fit = tm.minimize_row(site, moments, tm.RowMask(site=site, active=active))
    out[size] = [fit.params.k.tobytes().hex(), fit.params.a.hex(),
                 fit.objective.hex(), bool(fit.converged)]
print(json.dumps(out))
"""


def test_row_solves_identical_across_blas_threads(tmp_path):
    # OpenBLAS factorises and solves blocks of 100 and more on several
    # threads, and its matmul splits the columns of a wide product between
    # them.  The LU solve at every size, run on one pinned thread, and the
    # whole C's pivot ratio must give the same bits at any thread count.
    dims, m = tm.Dimensions(w=12), 1000
    ds = tm.generate_dataset(tm.build_random_tm(dims, 0.2, seed=1), m,
                             tm.NoiseSpec(sigma=0.05), seed=2)
    np.save(tmp_path / "c.npy", tm.Moments.of(ds).c)
    sizes = [36, 95, 96, 97, 144, 192, 193, 287]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", _ROW_FIELDS, str(tmp_path / "c.npy"),
                              str(dims.w), str(m), json.dumps(sizes)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        outs[threads] = json.loads(res.stdout)
    assert outs["1"] == outs["2"] == outs["4"]


class TestFitAllRows:
    def test_output_scope_shape(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        assert est.fitted_sites == tuple(range(16, 32))
        assert len(est.rows) == 16
        # output-scope masks expose only input couplings
        assert all(mk.active[:16].all() and not mk.active[16:].any()
                   for mk in est.masks)

    def test_all_scope_shape(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="all")
        assert est.fitted_sites == tuple(range(32))
        assert all(mk.active.all() for mk in est.masks)

    def test_invalid_scope_rejected(self, data4_noisy):
        with pytest.raises(ValueError):
            tm.fit_all_rows(data4_noisy, scope="inputs-only")

    def test_inconsistent_masks_rejected(self, data4_noisy):
        masks = tm.initial_masks(data4_noisy.dims, "all")
        with pytest.raises(ValueError):
            tm.fit_all_rows(data4_noisy, masks=masks, scope="output")
        with pytest.raises(ValueError):
            tm.fit_all_rows(data4_noisy, masks=masks[:, 1:], scope="all")

    def test_thread_count_is_bit_irrelevant(self, data4_noisy):
        est1 = tm.fit_all_rows(data4_noisy, scope="output", threads=1)
        est4 = tm.fit_all_rows(data4_noisy, scope="output", threads=4)
        for r1, r4 in zip(est1.rows, est4.rows):
            assert r1.a == r4.a
            assert r1.k.tobytes() == r4.k.tobytes()
        assert est1.total_pl == est4.total_pl

    def test_total_pl_consistency(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        recomputed = tm.total_pl(est.rows, data4_noisy, est.masks)
        assert est.total_pl == pytest.approx(recomputed, rel=1e-12)

    def test_row_lookup(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        assert est.row_for(20).site == 20
        with pytest.raises(KeyError):
            est.row_for(3)

    @pytest.mark.parametrize("scope", ["output", "all"])
    def test_every_row_is_stationary(self, data4_noisy, data4_clean, scope):
        for ds in (data4_noisy, data4_clean):
            est = tm.fit_all_rows(ds, scope=scope)
            for row, mask in zip(est.rows, est.masks):
                assert tm.minimize_row(row.site, ds, mask).converged
                d_a, d_k = tm.row_grad(row, ds, mask)
                if row.a == A_CAP:
                    d_a = max(d_a, 0.0)  # the cap blocks moves to larger a
                assert max(abs(d_a), float(np.abs(d_k).max())) <= 1e-6

    def test_singular_design_has_defined_outcome(self, data4_clean):
        # At sigma=0 the outputs are exact linear combinations of the inputs,
        # so every all-sites row has collinear regressors.
        s = data4_clean.site_matrix()
        assert np.linalg.cond(s.T @ s) > 1e15
        est = tm.fit_all_rows(data4_clean, scope="all")
        for row in est.rows:
            assert np.all(np.isfinite(row.k))
            assert row.a == A_CAP
            y = s[:, row.site]
            resid = y - np.delete(s, row.site, axis=1) @ (row.k / (2.0 * row.a))
            assert np.sqrt(np.mean(resid**2)) <= 1e-3 * np.sqrt(np.mean(y**2))

    @pytest.mark.parametrize("scope", ["output", "all"])
    def test_moment_solve_matches_data_definitions(self, data4_noisy, data4_clean,
                                                   scope):
        # Every row is solved from C = S^T S / M; row_neg_logpl and row_grad
        # evaluate the same quantities on the raw samples.
        for ds in (data4_noisy, data4_clean):
            est = tm.fit_all_rows(ds, scope=scope)
            for row, mask, obj in zip(est.rows, est.masks, est.row_objectives):
                fit = tm.minimize_row(row.site, ds, mask)
                assert fit.params.k.tobytes() == row.k.tobytes()
                assert fit.objective == obj
                ref = tm.row_neg_logpl(row, ds, mask)
                if row.a < A_CAP:
                    assert obj == pytest.approx(ref, rel=1e-9, abs=0)
                else:
                    # At the cap the objective carries a_cap * rss, and the
                    # moment form of rss cancels to ~1e-15 instead of ~1e-30.
                    assert abs(obj - ref) <= A_CAP * 1e-14
                # rss is clamped at 0: the term a * rss is never negative.
                assert obj - tm.log_partition(row.a, 0.0) >= 0.0
                d_a, d_k = tm.row_grad(row, ds, mask)
                if row.a == A_CAP:
                    d_a = max(d_a, 0.0)
                assert max(abs(d_a), float(np.abs(d_k).max())) <= 1e-9

    @pytest.mark.parametrize("scope", ["output", "all"])
    @pytest.mark.parametrize("m", [1, 8])
    def test_fewer_samples_than_regressors(self, channel4, scope, m, monkeypatch):
        # C[A,A] has rank <= M < |A|: the minimum-norm solution interpolates
        # the samples.  minimize_row reports each row as a finite fit, not
        # converged; an estimate refuses the first such row before it
        # solves any.
        ds = tm.generate_dataset(channel4, m, tm.NoiseSpec(sigma=0.1), seed=3)
        masks = scope_masks(ds.dims, scope)
        for mask in masks:
            fit = tm.minimize_row(mask.site, ds, mask)
            assert not fit.converged and np.all(np.isfinite(fit.params.k))
        solved = []
        monkeypatch.setattr(topt, "minimize_row", lambda *args: solved.append(args))
        n_active = int(masks[0].active.sum())
        with pytest.raises(ValueError, match=rf"^the row of site {masks[0].site} has "
                                             rf"{n_active} active regressors, not fewer "
                                             rf"than the M={m} samples$"):
            tm.fit_all_rows(ds, scope=scope)
        assert solved == []

    def test_fingerprint_binds_to_data(self, channel4, data4_noisy):
        other = tm.generate_dataset(channel4, 500, tm.NoiseSpec(sigma=0.1), seed=12)
        est1 = tm.fit_all_rows(data4_noisy, scope="output")
        est2 = tm.fit_all_rows(other, scope="output")
        assert est1.dataset_fingerprint != est2.dataset_fingerprint


@pytest.fixture(scope="module")
def data4_camera():
    """w=4, M=3000, sigma=0.05, in the units the generator draws."""
    channel = tm.build_random_tm(tm.Dimensions(w=4), 0.2, seed=1)
    return tm.generate_dataset(channel, 3000, tm.NoiseSpec(sigma=0.05), seed=2)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
@pytest.mark.parametrize("scope", ["output", "all"])
def test_converged_does_not_depend_on_the_units(data4_camera, scope, scale, monkeypatch):
    # The same exact fits on samples in other units, up to camera photon
    # counts.  An absolute bound on the gradient flagged 2 of 16 output rows
    # and 24 of 32 all-sites rows as not converged at 1e5, where rounding in
    # C[y,y] ~ 1e10 leaves a gradient of ~1e-6.  The fit and the decimation
    # succeed, and every row solve they make reports converged.
    fits = []

    def spy(*args):
        fits.append(real(*args))
        return fits[-1]
    real = topt.minimize_row
    monkeypatch.setattr(topt, "minimize_row", spy)
    ds = tm.Dataset(data4_camera.dims, data4_camera.samples * scale)
    est = tm.fit_all_rows(ds, scope=scope)
    path, _ = tm.run_decimation(ds, scope=scope, initial=est)
    assert len(fits) > len(est.a) and len(path.records) > 1
    assert all(fit.converged for fit in fits)


@st.composite
def supports_around_m(draw):
    """Moments of a small random channel, w 2-4 and either scope, with M drawn
    around the regressor count of a full-support row, and a support of that
    scope: full, thinned at random, or any random mask."""
    dims = tm.Dimensions(w=draw(st.integers(2, 4)))
    scope = draw(st.sampled_from(SCOPES))
    full = tm.initial_masks(dims, scope)
    n_full = int(full[0].sum())
    m = draw(st.integers(max(1, n_full - 3), n_full + 3))
    seed = draw(st.integers(0, 2 ** 16))
    channel = tm.build_random_tm(dims, draw(st.floats(0.3, 1.0)), seed=seed)
    ds = tm.generate_dataset(channel, m, tm.NoiseSpec(sigma=draw(st.floats(0.0, 0.5))),
                             seed=seed + 1)
    noise = draw(arrays(np.bool_, full.shape))
    masks = draw(st.sampled_from([full, full & noise, noise]))
    return tm.Moments.of(ds), scope, masks


@settings(max_examples=80, deadline=None)
@given(case=supports_around_m())
def test_an_estimate_refuses_exactly_the_underdetermined_rows(case):
    # A row with no fewer active regressors than samples interpolates them:
    # fit_all_rows refuses the first such row, naming its site, its count
    # and M.  Otherwise every row is minimize_row's, bit for bit, converged.
    moments, scope, masks = case
    m, sites = moments.m_samples, topt._scope_sites(moments.dims, scope)
    counts = masks.sum(axis=1)
    if counts.max() >= m:
        r = int(np.argmax(counts >= m))
        with pytest.raises(ValueError, match=rf"^the row of site {sites[r]} has {counts[r]} "
                                             rf"active regressors, not fewer than the M={m} "):
            tm.fit_all_rows(moments, masks=masks, scope=scope)
        return
    est = tm.fit_all_rows(moments, masks=masks, scope=scope)
    for r, (site, mask) in enumerate(zip(sites, est.masks)):
        fit = tm.minimize_row(site, moments, mask)
        assert fit.converged
        assert (fit.params.a, fit.objective) == (est.a[r], est.row_objectives[r])
        assert fit.params.k.tobytes() == est.k[r].tobytes()
    assert refit_rows(est, moments, masks).k.tobytes() == est.k.tobytes()
    # Lifting a row to M regressors makes its refit underdetermined.
    r = len(sites) - 1
    if m <= moments.dims.n - 1:
        lifted = masks.copy()
        lifted[r, np.flatnonzero(~lifted[r])[:m - counts[r]]] = True
        with pytest.raises(ValueError, match=rf"^the row of site {sites[r]} has {m} "):
            refit_rows(est, moments, lifted)


@st.composite
def refit_cases(draw):
    """Moments of a small random channel, w 2-4, either scope and sigma 0 or
    0.1, with M above every row's regressors, and two random supports of that
    scope: the second drops some couplings of the first and re-activates others."""
    dims = tm.Dimensions(w=draw(st.integers(2, 4)))
    scope = draw(st.sampled_from(SCOPES))
    seed = draw(st.integers(0, 2 ** 16))
    ds = tm.generate_dataset(tm.build_random_tm(dims, 0.5, seed=seed), 2 * dims.n,
                             tm.NoiseSpec(sigma=draw(st.sampled_from([0.0, 0.1]))),
                             seed=seed + 1)
    full = tm.initial_masks(dims, scope)
    before, after = (full & draw(arrays(np.bool_, full.shape)) for _ in range(2))
    return tm.Moments.of(ds), scope, before, after


@settings(max_examples=60, deadline=None)
@given(case=refit_cases())
def test_a_refit_is_the_fit_of_its_support(case):
    # A refit solves the rows whose support changed and carries the others
    # over: it is the fresh fit of the new support, bit for bit.
    moments, scope, before, after = case
    refit = refit_rows(tm.fit_all_rows(moments, before, scope), moments, after)
    fresh = tm.fit_all_rows(moments, after, scope)
    for name in ("a", "k", "active", "row_objectives"):
        assert getattr(refit, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert repr(refit.total_pl) == repr(fresh.total_pl)


def test_a_refit_solves_every_row_whose_support_changed(tmp_path):
    # Rows 0 and 1 each lose position 0, and both are refit: a coupling left
    # off the support would reach T[0, 0] through extract_tm, and a write/read
    # round trip, which stores k on the support only, would drop it.
    ds = tm.generate_dataset(tm.build_random_tm(tm.Dimensions(w=3), 0.5, seed=1), 400,
                             tm.NoiseSpec(sigma=0.1), seed=2)
    est = tm.fit_all_rows(ds)
    masks = est.active.copy()
    masks[:2, 0] = False
    assert np.all(est.k[:2, 0] != 0.0)
    refit = refit_rows(est, ds, masks)
    assert np.all(refit.k[:2, 0] == 0.0)
    assert refit.k[2:].tobytes() == est.k[2:].tobytes()
    tio.write_estimate(refit, tmp_path / "e.json", fingerprint="fp", dataset_sha256="x")
    back = tio.read_estimate(tmp_path / "e.json", fingerprint="fp")
    t = tm.extract_tm(refit)[0].entries
    assert t[0, 0] == 0.0 and tm.extract_tm(back)[0].entries.tobytes() == t.tobytes()


def test_a_support_of_another_shape_is_refused_before_any_solve(data4_noisy, monkeypatch):
    est = tm.fit_all_rows(data4_noisy)
    solved = []
    monkeypatch.setattr(topt, "minimize_row", lambda *args: solved.append(args))
    # One row would broadcast against the estimate's 16.
    for masks in (est.active[:1], est.active[:-1], est.active[:, :-1], est.active.ravel()):
        with pytest.raises(ValueError, match="masks inconsistent with scope sites"):
            refit_rows(est, data4_noisy, masks)
    assert solved == []


class TestEstimateArrays:
    """A ``CouplingEstimate`` holds every per-row field as a read-only array
    of its own."""

    @staticmethod
    def fields(data):
        """Constructor arguments of an output-scope fit, as writable arrays."""
        est = tm.fit_all_rows(data, scope="output")
        return {"dims": data.dims, "scope": "output", "direction": "forward",
                "a": np.array(est.a), "k": np.array(est.k), "active": np.array(est.active),
                "row_objectives": est.row_objectives,
                "m_samples": est.m_samples}

    def test_arrays_are_read_only(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="all")
        for arr in (est.a, est.k, est.active):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_per_row_flags_and_objectives_are_arrays(self, data4_noisy, tmp_path):
        full = tm.fit_all_rows(data4_noisy, scope="output")
        masks = full.active.copy()
        masks[3, :2] = False
        refit = refit_rows(full, data4_noisy, masks)
        tio.write_estimate(refit, tmp_path / "e.json", fingerprint="fp", dataset_sha256="x")
        back = tio.read_estimate(tmp_path / "e.json", fingerprint="fp")
        for est in (full, refit, back):
            arr = est.row_objectives
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
            assert arr.shape == (16,) and not arr.flags.writeable
        assert np.array_equal(back.row_objectives, refit.row_objectives)
        assert refit.row_objectives[3] != full.row_objectives[3]
        assert np.array_equal(np.delete(refit.row_objectives, 3),
                              np.delete(full.row_objectives, 3))

    def test_shares_no_memory_with_its_caller(self, data4_noisy):
        f = self.fields(data4_noisy)
        est = tm.CouplingEstimate(**f)
        before = est.k.tobytes(), est.a.tobytes(), est.active.tobytes()
        for name in ("a", "k", "active"):
            assert not np.shares_memory(getattr(est, name), f[name])
        f["k"][0, 0] += 1.0
        f["a"][0] *= 2.0
        f["active"][0] = ~f["active"][0]
        assert (est.k.tobytes(), est.a.tobytes(), est.active.tobytes()) == before

    def test_fit_and_refit_adopt_the_arrays_they_solved(self, data4_noisy, monkeypatch):
        # The estimate holds the sealed arrays that _solve_rows returned and
        # the support fit_all_rows or _prune made; a caller's writable masks
        # are copied and keep their flag.
        solved, made = [], []

        def spy(real, seen):
            def call(*args, **kwargs):
                seen.append(real(*args, **kwargs))
                return seen[-1]
            return call
        monkeypatch.setattr(topt, "_solve_rows", spy(topt._solve_rows, solved))
        monkeypatch.setattr(topt, "initial_masks", spy(topt.initial_masks, made))
        full = tm.fit_all_rows(data4_noisy, scope="output")
        pruned = tm.selection._prune(full, 20)
        refit = refit_rows(full, data4_noisy, pruned)
        masks = pruned.copy()
        again = refit_rows(full, data4_noisy, masks)
        assert len(solved) == 3
        for est, arrays in zip((full, refit, again), solved):
            held = (est.a, est.k, est.row_objectives)
            assert all(got is want for got, want in zip(held, arrays))
        assert full.active is made[0] and refit.active is pruned
        assert again.active is not masks and masks.flags.writeable

    def test_build_from_sealed_arrays_allocates_nothing_sized_by_k(self, traced_peak):
        # The checks of finiteness and a > 0 are reductions, not masks.
        channel = tm.build_random_tm(tm.Dimensions(w=12), 0.2, seed=1)
        est = tm.fit_all_rows(tm.generate_dataset(channel, 3000, tm.NoiseSpec(sigma=0.05),
                                                  seed=2))
        back, peak = traced_peak(lambda: dataclasses.replace(est))
        assert back.k is est.k and back.a is est.a
        assert peak < 0.01 * est.k.nbytes  # 0.13x when the finiteness check made a mask

    def test_fit_copies_the_masks_it_is_given(self, data4_noisy):
        masks = tm.initial_masks(data4_noisy.dims, "output")
        est = tm.fit_all_rows(data4_noisy, masks=masks, scope="output")
        assert not np.shares_memory(est.active, masks)
        masks[:] = False
        assert est.n_active_couplings == 16 * 16

    @pytest.mark.parametrize("scope", ["output", "all"])
    def test_rows_and_masks_are_the_arrays(self, data4_noisy, scope):
        est = tm.fit_all_rows(data4_noisy, scope=scope)
        assert len(est.rows) == len(est.masks) == len(est.fitted_sites) == est.a.shape[0]
        for r, (site, row, mask) in enumerate(zip(est.fitted_sites, est.rows, est.masks)):
            assert row.site == mask.site == site
            assert row.a == est.a[r]
            assert row.k.tobytes() == est.k[r].tobytes()
            assert np.array_equal(mask.active, est.active[r])
            assert est.row_for(site).k.tobytes() == row.k.tobytes()
            assert est.row_for(site).a == row.a
        assert est.n_active_couplings == int(est.active.sum())

    @pytest.mark.parametrize("name, value", [
        ("a", lambda f: f["a"][:-1]),
        ("k", lambda f: f["k"][:, :-1]),
        ("k", lambda f: f["k"][:-1]),
        ("active", lambda f: f["active"][:, :-1]),
        ("a", lambda f: np.where(np.arange(16) == 3, 0.0, f["a"])),
        ("a", lambda f: np.where(np.arange(16) == 3, -1.0, f["a"])),
        ("a", lambda f: np.where(np.arange(16) == 3, np.nan, f["a"])),
        ("a", lambda f: np.where(np.arange(16) == 3, np.inf, f["a"])),
        ("k", lambda f: np.where(f["active"], np.nan, f["k"])),
        ("k", lambda f: np.where(f["active"], -np.inf, f["k"])),
        ("row_objectives", lambda f: np.append(f["row_objectives"], 0.0)),
        ("scope", lambda f: "inputs"),
        ("direction", lambda f: "sideways"),
        ("m_samples", lambda f: float(f["m_samples"])),
        ("m_samples", lambda f: True),
        ("m_samples", lambda f: 0),
    ])
    def test_bad_shape_or_value_rejected(self, data4_noisy, name, value):
        f = self.fields(data4_noisy)
        f[name] = value(f)
        with pytest.raises(ValueError):
            tm.CouplingEstimate(**f)


class TestTrueSupportMasks:
    def test_masks_follow_support(self, channel4):
        support = channel4.entries != 0
        masks = tm.true_support_masks(channel4.dims, support)
        assert masks.shape == (16, 31)
        assert np.array_equal(masks[:, :16], support)
        assert not masks[:, 16:].any()

    def test_shape_check(self, channel4):
        with pytest.raises(ValueError):
            tm.true_support_masks(channel4.dims, np.ones((3, 3), dtype=bool))
