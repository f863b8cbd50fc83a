import math

import numpy as np
import pytest

import tminfer as tm
from tminfer.pseudolikelihood import other_sites
from oracles import (
    central_difference,
    ols_conditional,
    position_of,
    quadrature_density_mass,
    quadrature_log_partition,
)


def random_row(dims, rng, site=None, a_range=(0.5, 3.0)):
    n = dims.n
    if site is None:
        site = int(rng.integers(0, n))
    k = rng.normal(0.0, 1.0, n - 1)
    a = float(rng.uniform(*a_range))
    return tm.RowParams(site=site, a=a, k=k)


class TestLayoutHelpers:
    def test_other_sites_order(self):
        assert np.array_equal(other_sites(2, 5), [0, 1, 3, 4])

    def test_position_roundtrip(self):
        n = 8
        for site in range(n):
            others = other_sites(site, n)
            for pos, j in enumerate(others):
                assert position_of(site, int(j)) == pos

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            position_of(3, 3)


class TestLogPartition:
    def test_unit_value(self):
        assert math.isclose(tm.log_partition(math.pi / 4.0, 0.0), math.log(2.0),
                            rel_tol=1e-15)

    def test_direct_substitution(self):
        expected = math.log(2.0) + 0.5 * math.log(math.pi / 4.0) + 1.0
        assert math.isclose(tm.log_partition(1.0, 2.0), expected, rel_tol=1e-15)

    def test_matches_quadrature(self, rng):
        for _ in range(30):
            a = float(rng.uniform(0.2, 5.0))
            b = float(rng.uniform(-3.0, 3.0))
            assert math.isclose(tm.log_partition(a, b),
                                quadrature_log_partition(a, b), rel_tol=1e-8)

    def test_vectorized_b(self):
        b = np.array([0.0, 1.0, -2.0])
        out = tm.log_partition(2.0, b)
        assert np.allclose(out, [tm.log_partition(2.0, float(x)) for x in b])

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_domain_error(self, a):
        with pytest.raises(ValueError):
            tm.log_partition(a, 1.0)


class TestRowNegLogpl:
    def test_zero_coupling_formula(self, data4_noisy):
        site = 18
        p = tm.RowParams(site=site, a=1.0, k=np.zeros(data4_noisy.dims.n - 1))
        got = tm.row_neg_logpl(p, data4_noisy)
        y = data4_noisy.site_matrix()[:, site]
        expected = -np.mean(-y * y - math.log(2.0) - 0.5 * math.log(math.pi / 4.0))
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_single_sample_hand_value(self, dims4):
        ds = tm.Dataset(dims=dims4, samples=np.hstack([np.full((1, 16), 0.5),
                                                       np.linspace(0, 1, 16)[None, :]]))
        site, a = 16, 2.0
        k = np.zeros(dims4.n - 1)
        k[3] = 1.5  # couples to input site 3
        p = tm.RowParams(site=site, a=a, k=k)
        sites = ds.site_matrix()[0]
        i_val = sites[site]
        b = 1.5 * sites[3]
        expected = -(i_val * b - i_val**2 * a - tm.log_partition(a, b))
        assert math.isclose(tm.row_neg_logpl(p, ds), expected, rel_tol=1e-12)

    def test_stable_form_equals_naive_formula(self, data4_noisy, rng):
        s = data4_noisy.site_matrix()
        for _ in range(10):
            p = random_row(data4_noisy.dims, rng)
            y = s[:, p.site]
            b = s[:, other_sites(p.site, data4_noisy.dims.n)] @ p.k
            naive = -np.mean(y * b - y * y * p.a - tm.log_partition(p.a, b))
            assert math.isclose(tm.row_neg_logpl(p, data4_noisy), naive,
                                rel_tol=1e-11)

    def test_mask_zeroes_contributions(self, data4_noisy, rng):
        p = random_row(data4_noisy.dims, rng, site=20)
        active = np.zeros(data4_noisy.dims.n - 1, dtype=bool)
        active[:4] = True
        mask = tm.RowMask(site=20, active=active)
        masked_params = tm.RowParams(site=20, a=p.a, k=np.where(active, p.k, 0.0))
        assert tm.row_neg_logpl(p, data4_noisy, mask) == pytest.approx(
            tm.row_neg_logpl(masked_params, data4_noisy), rel=1e-14)

    def test_ols_point_is_stationary_and_minimal(self, data4_noisy, rng):
        # conditional Gaussian MLE from an independent normal-equations solve
        site = 19
        regressors = other_sites(site, data4_noisy.dims.n)
        w, resvar, a_star, k_star = ols_conditional(data4_noisy, site, regressors)
        p_star = tm.RowParams(site=site, a=a_star, k=k_star)
        d_a, d_k = tm.row_grad(p_star, data4_noisy)
        assert max(abs(d_a), np.abs(d_k).max()) <= 1e-6
        base = tm.row_neg_logpl(p_star, data4_noisy)
        for _ in range(20):
            q = tm.RowParams(site=site, a=a_star * float(rng.uniform(0.8, 1.25)),
                             k=k_star + rng.normal(0, 0.05, k_star.size))
            assert tm.row_neg_logpl(q, data4_noisy) >= base - 1e-12

    def test_barrier_for_nonpositive_a(self, data4_noisy):
        k = np.zeros(data4_noisy.dims.n - 1)
        p = tm.RowParams.__new__(tm.RowParams)
        object.__setattr__(p, "site", 16)
        object.__setattr__(p, "a", -1.0)
        object.__setattr__(p, "k", k)
        assert tm.row_neg_logpl(p, data4_noisy) == math.inf

    def test_objective_diverges_as_a_vanishes(self, data4_noisy):
        # divergence is logarithmic: the normalizer carries -0.5 * ln(a)
        k = np.zeros(data4_noisy.dims.n - 1)
        grid = (1e-2, 1e-4, 1e-8, 1e-16, 1e-32, 1e-64, 1e-128, 1e-300)
        values = [tm.row_neg_logpl(tm.RowParams(site=16, a=a, k=k), data4_noisy)
                  for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 300.0


class TestRowGrad:
    def test_matches_central_differences(self, data4_noisy, rng):
        dims = data4_noisy.dims
        for _ in range(25):
            p = random_row(dims, rng)

            def fn(theta, site=p.site):
                q = tm.RowParams(site=site, a=theta[0], k=theta[1:])
                return tm.row_neg_logpl(q, data4_noisy)

            theta = np.concatenate([[p.a], p.k])
            fd = central_difference(fn, theta)
            d_a, d_k = tm.row_grad(p, data4_noisy)
            ana = np.concatenate([[d_a], d_k])
            err = np.abs(ana - fd) / np.maximum(np.abs(fd), 1e-8)
            assert err.max() <= 1e-5

    def test_gradient_small_at_ols_optimum(self, data4_noisy):
        site = 24
        regressors = other_sites(site, data4_noisy.dims.n)
        _, _, a_star, k_star = ols_conditional(data4_noisy, site, regressors)
        d_a, d_k = tm.row_grad(tm.RowParams(site=site, a=a_star, k=k_star),
                               data4_noisy)
        assert max(abs(d_a), np.abs(d_k).max()) <= 1e-6

    def test_zero_coupling_simplification(self, data4_noisy):
        site = 17
        p = tm.RowParams(site=site, a=1.3, k=np.zeros(data4_noisy.dims.n - 1))
        _, d_k = tm.row_grad(p, data4_noisy)
        s = data4_noisy.site_matrix()
        y = s[:, site]
        x = s[:, other_sites(site, data4_noisy.dims.n)]
        manual = -(x * y[:, None]).mean(axis=0)
        assert np.allclose(d_k, manual, rtol=0, atol=1e-14)

    def test_masked_components_zeroed(self, data4_noisy, rng):
        p = random_row(data4_noisy.dims, rng, site=21)
        active = rng.random(data4_noisy.dims.n - 1) < 0.5
        mask = tm.RowMask(site=21, active=active)
        _, d_k = tm.row_grad(p, data4_noisy, mask)
        assert np.all(d_k[~active] == 0.0)

    def test_rejects_nonpositive_a(self, data4_noisy):
        p = tm.RowParams.__new__(tm.RowParams)
        object.__setattr__(p, "site", 16)
        object.__setattr__(p, "a", 0.0)
        object.__setattr__(p, "k", np.zeros(data4_noisy.dims.n - 1))
        with pytest.raises(ValueError):
            tm.row_grad(p, data4_noisy)


class TestTotalPl:
    def test_single_row_single_sample(self, dims4, rng):
        ds = tm.Dataset(dims=dims4, samples=np.hstack([rng.random((1, 16)),
                                                       rng.random((1, 16))]))
        p = random_row(dims4, rng, site=16)
        assert math.isclose(tm.total_pl([p], ds),
                            -tm.row_neg_logpl(p, ds), rel_tol=1e-14)

    def test_duplicating_samples_doubles(self, data4_noisy, rng):
        rows = [random_row(data4_noisy.dims, rng, site=s) for s in (16, 20, 25)]
        s = data4_noisy.samples
        doubled = tm.Dataset(dims=data4_noisy.dims, samples=np.vstack([s, s]))
        assert math.isclose(tm.total_pl(rows, doubled),
                            2.0 * tm.total_pl(rows, data4_noisy), rel_tol=1e-12)

    def test_reordered_accumulation(self, data4_noisy, rng):
        rows = [random_row(data4_noisy.dims, rng, site=s) for s in range(16, 32)]
        total = tm.total_pl(rows, data4_noisy)
        m = data4_noisy.m_samples
        parts = [-m * tm.row_neg_logpl(p, data4_noisy) for p in rows]
        reordered = math.fsum(sorted(parts))
        assert math.isclose(total, reordered, rel_tol=1e-9)

    def test_mask_count_mismatch(self, data4_noisy, rng):
        rows = [random_row(data4_noisy.dims, rng, site=16)]
        with pytest.raises(ValueError):
            tm.total_pl(rows, data4_noisy, masks=[])


class TestConvexityAndNormalization:
    def test_convexity_inequality(self, data4_noisy, rng):
        dims = data4_noisy.dims
        for _ in range(60):
            site = int(rng.integers(0, dims.n))
            p = random_row(dims, rng, site=site)
            q = random_row(dims, rng, site=site)
            lam = float(rng.uniform(0.05, 0.95))
            mid = tm.RowParams(site=site, a=lam * p.a + (1 - lam) * q.a,
                               k=lam * p.k + (1 - lam) * q.k)
            lhs = tm.row_neg_logpl(mid, data4_noisy)
            rhs = (lam * tm.row_neg_logpl(p, data4_noisy)
                   + (1 - lam) * tm.row_neg_logpl(q, data4_noisy))
            assert lhs <= rhs + 1e-10

    def test_conditional_density_normalized(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.3, 4.0))
            b = float(rng.uniform(-2.0, 2.0))
            mass = quadrature_density_mass(a, b, tm.log_partition(a, b))
            assert math.isclose(mass, 1.0, rel_tol=1e-8)
