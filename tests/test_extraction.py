import dataclasses
import math

import numpy as np
import pytest

import tminfer as tm
from oracles import (parameterize_channel, parameterize_tm, per_row_extract_gramian,
                     per_row_extract_tm)


class TestQualityQ:
    def test_exact_recovery(self, rng):
        x = rng.random((6, 6))
        assert tm.quality_q(x, x).q == 0.0

    def test_zero_candidate(self, rng):
        x = rng.random((5, 5)) + 0.1
        assert tm.quality_q(x, np.zeros_like(x)).q == pytest.approx(1.0, rel=1e-12)

    def test_scaling_gives_sqrt_delta(self, rng):
        x = rng.random((4, 4)) + 0.5
        delta = 0.21
        got = tm.quality_q(x, (1.0 + delta) * x).q
        assert got == pytest.approx(math.sqrt(delta), rel=1e-9)

    def test_vector_operands(self, rng):
        v = rng.random(9)
        assert tm.quality_q(v, v).q == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tm.quality_q(np.ones((2, 2)), np.ones((3, 3)))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            tm.quality_q(np.zeros(4), np.ones(4))

    def test_report_fields(self, rng):
        x = rng.random(8)
        rep = tm.quality_q(x, x * 1.1)
        assert [f.name for f in dataclasses.fields(rep)] == ["q"]
        assert rep.q >= 0.0


class TestExtractTm:
    def test_round_trip_through_parameterization(self, channel4):
        est = parameterize_tm(channel4, 0.07)
        t_out, noise = tm.extract_tm(est)
        assert np.allclose(t_out.entries, channel4.entries, rtol=0, atol=1e-15)
        assert np.allclose(noise.sigma_hat, 0.07, rtol=1e-14)
        assert np.allclose(noise.beta_hat, 1.0 / (2 * 0.07**2), rtol=1e-14)
        assert t_out.role == "direct"

    def test_round_trip_vector_noise(self, channel4, rng):
        sig = rng.uniform(0.05, 0.3, 16)
        est = parameterize_tm(channel4, sig)
        _, noise = tm.extract_tm(est)
        assert np.allclose(noise.sigma_hat, sig, rtol=1e-14)

    def test_oracle_row_inversion(self, dims4):
        # one output row with hand-set parameters inverts exactly
        sigma, t_row = 0.2, np.linspace(0, 1, 16) / 8.0
        a = 1.0 / (2 * sigma**2)
        entries = np.zeros((16, 16))
        entries[5] = t_row
        est = parameterize_tm(
            tm.TransmissionMatrix(dims=dims4, entries=entries), sigma)
        t_out, noise = tm.extract_tm(est)
        assert np.allclose(t_out.entries[5], t_row, rtol=0, atol=1e-16)
        assert noise.beta_hat[5] == pytest.approx(a, rel=1e-14)

    def test_noise_recovery_from_fit(self, channel4, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        _, noise = tm.extract_tm(est)
        assert abs(float(np.mean(noise.sigma_hat)) - 0.1) <= 0.01

    def test_reversed_estimate_yields_inverse_role(self, channel4, data4_noisy):
        rev = tm.reverse_dataset(data4_noisy)
        est = tm.fit_all_rows(rev, scope="output")
        t_out, _ = tm.extract_tm(est)
        assert t_out.role == "inverse"

    def test_convergence_flags_ride_along(self, channel4, data4_clean):
        # noise-free rows park at the curvature cap and keep their flags
        est = tm.fit_all_rows(data4_clean, scope="output")
        t_out, noise = tm.extract_tm(est)
        assert noise.converged.shape == (16,)
        assert np.array_equal(noise.converged, np.array(est.converged))
        assert np.all(np.isfinite(t_out.entries))

    def test_beta_positivity(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        _, noise = tm.extract_tm(est)
        assert np.all(noise.beta_hat > 0)
        assert np.all(noise.sigma_hat > 0)


class TestExtractGramian:
    def test_injected_ground_truth_balances_exactly(self, channel4):
        est = parameterize_channel(channel4, 0.05)
        u, balance = tm.extract_gramian(est)
        gram = channel4.entries.T @ channel4.entries
        assert np.allclose(u, gram, rtol=0, atol=1e-13)
        assert balance <= 1e-13

    def test_fitted_run_is_nearly_balanced(self, channel4):
        ds = tm.generate_dataset(channel4, 2000, tm.NoiseSpec(sigma=0.05), seed=3)
        est = tm.fit_all_rows(ds, scope="all")
        _, balance = tm.extract_gramian(est)
        assert balance <= 0.2

    def test_unrelated_operands_give_order_one(self, channel4, rng):
        est = parameterize_channel(channel4, 0.05)
        u, _ = tm.extract_gramian(est)
        gram = channel4.entries.T @ channel4.entries
        scrambled = rng.permutation(gram.ravel()).reshape(gram.shape)
        mismatch = float(np.linalg.norm(scrambled - gram) / np.linalg.norm(gram))
        assert mismatch > 0.3

    def test_scope_guard(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        with pytest.raises(ValueError):
            tm.extract_gramian(est)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_output_to_input_coupling_has_no_balance(self, data4_noisy):
        # T_inf = 0, so T_inf^T T_inf = 0 and no relative gap is defined.
        dims = data4_noisy.dims
        active = tm.initial_masks(dims, "all")
        active[dims.n_half:, :dims.n_half] = False
        u, balance = tm.extract_gramian(tm.fit_all_rows(data4_noisy, active, scope="all"))
        assert balance is None
        assert np.all(np.isfinite(u))


class TestExtractionMatchesPerRowLoops:
    """The array expressions give the bits of the per-row loops in oracles.py."""

    @pytest.mark.parametrize("case", ["output", "all", "all-selected", "all-reversed",
                                      "parameterized"])
    def test_bit_for_bit(self, case, channel4, data4_noisy):
        if case == "parameterized":
            est = parameterize_channel(channel4, np.linspace(0.05, 0.2, 16))
        elif case == "all-selected":
            est = tm.run_decimation(data4_noisy, scope="all")[1]
        elif case == "all-reversed":
            est = tm.fit_all_rows(tm.reverse_dataset(data4_noisy), scope="all")
        else:
            est = tm.fit_all_rows(data4_noisy, scope=case)
        t_out, noise = tm.extract_tm(est)
        t_ref, sigma_ref, beta_ref, conv_ref = per_row_extract_tm(est)
        assert t_out.entries.tobytes() == t_ref.tobytes()
        assert noise.sigma_hat.tobytes() == sigma_ref.tobytes()
        assert noise.beta_hat.tobytes() == beta_ref.tobytes()
        assert np.array_equal(noise.converged, conv_ref)
        if est.scope == "all":
            u, balance = tm.extract_gramian(est)
            u_ref, balance_ref = per_row_extract_gramian(est)
            assert u.tobytes() == u_ref.tobytes()
            assert balance == balance_ref


class TestChannelNoiseEstimate:
    def test_arrays_are_read_only(self, data4_noisy):
        _, noise = tm.extract_tm(tm.fit_all_rows(data4_noisy, scope="output"))
        for arr in (noise.sigma_hat, noise.beta_hat, noise.converged):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            tm.ChannelNoiseEstimate(sigma_hat=np.array([0.1]),
                                    beta_hat=np.array([1.0]),
                                    converged=np.array([True]))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            tm.ChannelNoiseEstimate(sigma_hat=np.array([-0.1]),
                                    beta_hat=np.array([50.0]),
                                    converged=np.array([True]))
