import numpy as np
import pytest

import tminfer as tm
from tminfer.experiments import (
    focus_contrast,
    focusing_experiment,
    gaussian_spot,
    glyph_image,
    image_reconstruction,
    infer_channel,
    run_sweep,
)


@pytest.fixture(scope="module")
def fast_decim():
    return tm.DecimationOptions(batch_fraction=0.10)


class TestTargets:
    def test_spot_shape_and_range(self, dims4):
        spot = gaussian_spot(dims4)
        assert spot.shape == (16,)
        assert spot.min() >= 0.0 and spot.max() <= 1.0
        # peak at the frame center
        img = spot.reshape(4, 4)
        assert img.max() == img[1:3, 1:3].max()

    def test_glyph_binary_and_nonempty(self):
        for w in (2, 3, 4, 6, 12):
            g = glyph_image(tm.Dimensions(w=w))
            assert set(np.unique(g)) <= {0.0, 1.0}
            assert 0 < g.sum() < g.size

    def test_glyph_unchanged_from_three_pixels_up(self):
        for w in range(3, 17):
            ref = np.zeros((w, w))
            mid = w // 2
            lo, hi = max(0, mid - w // 6 - 1), min(w, mid + w // 6 + 1)
            ref[lo:hi, 1:w - 1] = 1.0
            ref[1:w - 1, lo:hi] = 1.0
            assert np.array_equal(glyph_image(tm.Dimensions(w=w)), ref.ravel()), w

    def test_focus_contrast(self):
        target = np.array([0.0, 1.0, 0.0, 0.0])
        achieved = np.array([0.1, 0.9, 0.1, 0.1])
        assert focus_contrast(achieved, target) == pytest.approx(9.0)

    @pytest.mark.parametrize("rest", [0.0, -0.1])
    def test_focus_contrast_without_a_positive_background_is_none(self, rest):
        # The ratio is undefined; it was inf, which JSON cannot hold.
        target = np.array([0.0, 1.0, 0.0, 0.0])
        achieved = np.array([rest, 0.9, rest, 0.0])
        assert focus_contrast(achieved, target) is None


class TestFocusing:
    def test_identity_channel_perfect_focus(self):
        dims = tm.Dimensions(w=2)
        eye = tm.TransmissionMatrix(dims=dims, entries=np.eye(4))
        target = gaussian_spot(dims)
        achieved, rep = focusing_experiment(eye, eye, target,
                                            tm.NoiseSpec(sigma=0.0),
                                            np.random.default_rng(0))
        assert rep.q <= 1e-12
        assert np.allclose(achieved, target)

    def test_zero_noise_pipeline_focus(self, channel4, data4_clean, fast_decim):
        _, _, t_inf, _ = infer_channel(data4_clean, decim_opts=fast_decim)
        target = gaussian_spot(channel4.dims)
        _, rep = focusing_experiment(channel4, t_inf, target,
                                     tm.NoiseSpec(sigma=0.0),
                                     np.random.default_rng(1))
        assert rep.q <= 0.05

    def test_rank_deficient_warns_and_proceeds(self):
        dims = tm.Dimensions(w=4)
        t_sing = tm.build_random_tm(dims, 0.25, seed=3)  # rank-deficient draw
        assert np.linalg.matrix_rank(t_sing.entries) < 16
        target = gaussian_spot(dims)
        with pytest.warns(UserWarning, match="rank deficient"):
            _, rep = focusing_experiment(t_sing, t_sing, target,
                                         tm.NoiseSpec(sigma=0.0),
                                         np.random.default_rng(2))
        assert np.isfinite(rep.q)

    def test_shape_guard(self, channel4):
        with pytest.raises(ValueError):
            focusing_experiment(channel4, channel4, np.zeros(7),
                                tm.NoiseSpec(sigma=0.0), np.random.default_rng(0))


class TestImageReconstruction:
    def test_exact_inverse_zero_noise(self, channel4):
        dims = channel4.dims
        inv = tm.TransmissionMatrix(dims=dims,
                                    entries=np.linalg.inv(channel4.entries),
                                    role="inverse")
        obj = glyph_image(dims)
        rec, rep = image_reconstruction(inv, channel4, obj,
                                        tm.NoiseSpec(sigma=0.0),
                                        np.random.default_rng(0))
        assert rep.q <= 1e-6
        assert np.allclose(rec, obj, atol=1e-10)

    def test_route_consistency_at_zero_noise(self, channel4, data4_clean,
                                             fast_decim):
        # inferred-inverse route vs exact-inversion route
        rev = tm.reverse_dataset(data4_clean)
        _, _, t_inv_inf, _ = infer_channel(rev, decim_opts=fast_decim)
        exact_inv = tm.TransmissionMatrix(
            dims=channel4.dims, entries=np.linalg.inv(channel4.entries),
            role="inverse")
        obj = glyph_image(channel4.dims)
        noise = tm.NoiseSpec(sigma=0.0)
        _, q_inferred = image_reconstruction(t_inv_inf, channel4, obj, noise,
                                             np.random.default_rng(3))
        _, q_exact = image_reconstruction(exact_inv, channel4, obj, noise,
                                          np.random.default_rng(3))
        assert abs(q_inferred.q - q_exact.q) <= 0.01

    def test_shape_guard(self, channel4):
        with pytest.raises(ValueError):
            image_reconstruction(channel4, channel4, np.zeros(3),
                                 tm.NoiseSpec(sigma=0.0), np.random.default_rng(0))


class TestSweep:
    def test_minimal_two_point_grid(self, dims4):
        cfg = tm.SweepConfig(
            dims=dims4, density=0.25, m_samples=300, sigma_grid=(0.0, 0.1),
            master_seed=5, replicates=1,
            include_balance=False)
        report = run_sweep(cfg)
        assert len(report.records) == 2
        for rec in report.records:
            assert rec.failure is None
            for field in ("q_bic", "q_true_support", "selected_couplings",
                          "true_couplings", "inverse_selected_couplings",
                          "q_image_inverse", "q_image_pinv", "q_focus",
                          "focus_peak_ratio", "sigma_hat_mean"):
                assert getattr(rec, field) is not None, field
        assert [r.sigma for r in report.records] == [0.0, 0.1]

    def test_sweep_is_deterministic(self, dims4):
        cfg = tm.SweepConfig(
            dims=dims4, density=0.25, m_samples=200, sigma_grid=(0.1,),
            master_seed=9, replicates=1,
            include_balance=False)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.records == b.records

    def test_failures_recorded_and_sweep_continues(self, dims4, monkeypatch):
        calls = {"n": 0}
        import tminfer.experiments as exp

        real = exp.infer_channel

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(exp, "infer_channel", flaky)
        cfg = tm.SweepConfig(
            dims=dims4, density=0.25, m_samples=200, sigma_grid=(0.0, 0.1),
            master_seed=5, replicates=1,
            include_balance=False)
        report = run_sweep(cfg)
        assert len(report.records) == 2
        failed = [r for r in report.records if r.failure]
        assert len(failed) == 1
        assert "synthetic fault" in failed[0].failure
        assert report.records[1].failure is None

    def test_underdetermined_point_records_the_refusal(self, dims4):
        # At M=12 every output row has 16 regressors and interpolates the
        # samples: the estimate refuses it, and the point records the refusal
        # instead of a Q of an interpolating fit.
        cfg = tm.SweepConfig(dims=dims4, density=0.25, m_samples=12, sigma_grid=(0.1,),
                             master_seed=7, replicates=1, include_balance=False)
        [rec] = run_sweep(cfg).records
        assert rec.failure == ("ValueError: the row of site 16 has 16 active regressors, "
                               "not fewer than the M=12 samples")
        assert rec.q_bic is None and rec.selected_couplings is None

    def test_balance_fit_must_be_identifiable(self):
        # The balance fit solves full-support all rows of 2w^2-1 regressors
        # in any scope.  With no more samples than that every point would
        # lose its valid scores to the refusal, so the config is refused.
        dims3 = tm.Dimensions(w=3)
        for m in (12, 17):
            with pytest.raises(ValueError, match=f"the 17 regressors .*, got {m}$"):
                tm.SweepConfig(dims=dims3, m_samples=m, include_balance=True)
        assert tm.SweepConfig(dims=dims3, m_samples=12, include_balance=False).m_samples == 12
        cfg = tm.SweepConfig(dims=dims3, density=0.5, m_samples=18, sigma_grid=(0.1,),
                             master_seed=3, replicates=1, include_balance=True)
        [rec] = run_sweep(cfg).records
        assert rec.failure is None and rec.balance is not None

    def test_each_grid_point_forms_each_c_once(self, dims4, monkeypatch):
        # The forward C serves the decimation, the known-support and the
        # balance fits, and the reversed dataset's record is its permutation:
        # one S^T S per dataset pair.
        calls = []
        real = tm.Dataset.site_matrix
        monkeypatch.setattr(tm.Dataset, "site_matrix",
                            lambda self: calls.append(self.direction) or real(self))
        cfg = tm.SweepConfig(
            dims=dims4, density=0.25, m_samples=200, sigma_grid=(0.0, 0.1),
            master_seed=5, replicates=1, include_balance=True)
        report = run_sweep(cfg)
        assert [r.failure for r in report.records] == [None, None]
        assert calls == ["forward"] * 2

    def test_scope_is_refused_before_any_point_runs(self, monkeypatch):
        # The config refuses it: no grid point runs to record it as its failure.
        monkeypatch.setattr(tm.experiments, "generate_dataset", lambda *args, **kw: 1 / 0)
        with pytest.raises(ValueError, match="^scope must be 'output' or 'all', got 'bogus'$"):
            run_sweep(tm.SweepConfig(dims=tm.Dimensions(w=3), m_samples=60,
                                     sigma_grid=(0.1, 0.2), replicates=1, scope="bogus"))

    @pytest.mark.parametrize("grid", [("0.1",), (True,), (float("nan"),), (), (0.2, 0.1)],
                             ids=["string", "bool", "nan", "empty", "descending"])
    def test_bad_sigma_grid_is_refused_before_any_point_runs(self, monkeypatch, grid):
        # The grid used to be coerced by float() ("0.1" and True were taken),
        # or a nan was recorded as every replicate's failure at its point.
        monkeypatch.setattr(tm.experiments, "generate_dataset", lambda *args, **kw: 1 / 0)
        with pytest.raises(ValueError, match="^sigma_grid must be a nonempty, ascending list "
                           "or tuple of finite, nonnegative numbers, got "):
            run_sweep(tm.SweepConfig(dims=tm.Dimensions(w=2), density=0.5, m_samples=40,
                                     sigma_grid=grid, include_balance=False))

    def test_density_that_cannot_draw_a_channel_is_refused(self):
        # run_sweep used to raise it from the first replicate's channel draw.
        with pytest.raises(ValueError, match=r"^density 0.2 gives an expected 0.8 active "
                           r"elements per row of 4; need density \* n_half >= 1$"):
            tm.SweepConfig(dims=tm.Dimensions(w=2), m_samples=40, include_balance=False)
        # A bool was taken as density 1, and a string raised TypeError.
        for density in (0.0, 1.5, float("nan"), float("inf"), True, "0.5", 10 ** 400):
            with pytest.raises(ValueError, match=r"^density must lie in \(0, 1\], got "):
                tm.SweepConfig(dims=tm.Dimensions(w=2), density=density, m_samples=40,
                               include_balance=False)
        cfg = tm.SweepConfig(dims=tm.Dimensions(w=2), density=np.float32(0.5), m_samples=40,
                             include_balance=False)
        assert cfg.density == 0.5

    @pytest.mark.parametrize("replicates", [2.5, True])
    def test_replicates_not_an_integer_is_refused_before_any_point_runs(self, replicates):
        # The config refuses it; run_sweep used to fail on it, or run one replicate for True.
        with pytest.raises(ValueError, match="^replicates must be an integer >= 1, got "):
            tm.SweepConfig(dims=tm.Dimensions(w=2), m_samples=40, sigma_grid=(0.1,),
                           replicates=replicates, include_balance=False)

    def test_two_pixel_frame(self):
        cfg = tm.SweepConfig(
            dims=tm.Dimensions(w=2), density=0.5, m_samples=200, sigma_grid=(0.0, 0.1),
            master_seed=3, replicates=1)
        report = run_sweep(cfg)
        assert [r.failure for r in report.records] == [None, None]
        assert all(np.isfinite(r.q_image_inverse) for r in report.records)

    def test_config_validation(self, dims4):
        with pytest.raises(ValueError):
            tm.SweepConfig(dims=dims4, sigma_grid=(0.2, 0.1))
        with pytest.raises(ValueError):
            tm.SweepConfig(dims=dims4, sigma_grid=())
        with pytest.raises(ValueError):
            tm.SweepConfig(dims=dims4, replicates=0)

    def test_monotone_degradation(self, fast_decim):
        # averaged over 3 channels, matrix error grows with channel noise
        dims = tm.Dimensions(w=4)
        grid = (0.02, 0.1, 0.25, 0.4)
        means = []
        for sigma in grid:
            qs = []
            for seed in (7, 8, 9):
                t_true = tm.build_random_tm(dims, 0.25, seed=seed)
                ds = tm.generate_dataset(t_true, 400, tm.NoiseSpec(sigma=sigma),
                                         seed=50 + seed)
                _, _, t_inf, _ = infer_channel(ds, decim_opts=fast_decim)
                qs.append(tm.quality_q(t_true.entries, t_inf.entries).q)
            means.append(float(np.mean(qs)))
        assert all(later >= 0.95 * earlier
                   for earlier, later in zip(means, means[1:]))
