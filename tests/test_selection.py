import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tminfer as tm
from oracles import fresh_fit_decimation, lstsq_decimation, select_best
from tminfer import optimize, selection
from tminfer.selection import DecimationRecord


def toy_estimate(dims, k_rows, a=1.0):
    """Hand-built output-scope estimate with prescribed coupling vectors."""
    nh = dims.n_half
    k = np.asarray(k_rows, dtype=float)
    active = np.zeros(k.shape, dtype=bool)
    active[:, :nh] = k[:, :nh] != 0.0
    return tm.CouplingEstimate(
        dims=dims, scope="output", direction="forward", a=np.full(nh, a), k=k,
        active=active, row_objectives=(0.0,) * nh,
        m_samples=None, dataset_fingerprint="toy")


class TestDecimateStep:
    """One decimation step, ``selection._prune``."""

    def test_smallest_magnitude_goes_first(self):
        dims = tm.Dimensions(w=2)
        k_rows = np.zeros((4, dims.n - 1))
        k_rows[0, 0] = 0.5
        k_rows[1, 1] = 0.001
        k_rows[2, 2] = 0.9
        est = toy_estimate(dims, k_rows)
        active = selection._prune(est, batch=1)
        assert not active[1, 1]
        assert active[0, 0] and active[2, 2]
        assert np.count_nonzero(active != est.active) == 1

    def test_leaves_the_estimate_untouched(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        before = est.active.tobytes()
        active = selection._prune(est, batch=40)
        assert est.n_active_couplings == int(active.sum()) + 40
        assert est.active.tobytes() == before and not active.flags.writeable

    def test_full_decimation(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        active = selection._prune(est, batch=est.n_active_couplings)
        assert not active.any()

    def test_batch_bounds(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        with pytest.raises(ValueError):
            selection._prune(est, batch=0)
        with pytest.raises(ValueError):
            selection._prune(est, batch=est.n_active_couplings + 1)

    def test_exhausted_supply_rejected(self):
        dims = tm.Dimensions(w=2)
        est = toy_estimate(dims, np.zeros((4, dims.n - 1)))
        with pytest.raises(ValueError):
            selection._prune(est, batch=1)

    def test_zero_noise_ranking_separates_support(self, channel4, data4_clean):
        est = tm.fit_all_rows(data4_clean, scope="output")
        k_in = est.k[:, :16]
        sup = channel4.entries != 0
        assert np.abs(k_in[sup]).min() > np.abs(k_in[~sup]).max()


class TestBicScore:
    def test_empty_model(self):
        assert tm.bic_score(0, 100, 0.0) == 0.0

    def test_substitution(self):
        assert tm.bic_score(100, 5000, 1e4) == pytest.approx(
            100 * math.log(5000) - 2e4, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            tm.bic_score(-1, 10, 0.0)
        with pytest.raises(ValueError):
            tm.bic_score(1, 0, 0.0)


class TestSelectBest:
    """The reference rule in ``oracles.select_best``, and ``run_decimation``
    against it."""

    def _rec(self, k_free, bic):
        return DecimationRecord(n_couplings=k_free, k_free=k_free, total_pl=0.0,
                                bic=bic, estimate=None)

    def test_minimum_wins(self):
        recs = [self._rec(10, 5.0), self._rec(8, 3.0), self._rec(6, 4.0)]
        assert select_best(recs) == 1

    def test_tie_breaks_toward_fewer_parameters(self):
        recs = [self._rec(10, 3.0), self._rec(8, 3.0), self._rec(6, 4.0)]
        assert select_best(recs) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])

    def test_decimation_selects_as_the_oracle_on_a_tie(self, data4_noisy, monkeypatch):
        # Floor every BIC at the path's third lowest: at least three records
        # share the minimum, and the one with the fewest parameters wins.
        ref, _ = tm.run_decimation(data4_noisy, scope="output")
        floor = sorted(r.bic for r in ref.records)[2]
        exact = selection.bic_score
        monkeypatch.setattr(selection, "bic_score",
                            lambda *args: max(exact(*args), floor))
        path, best = tm.run_decimation(data4_noisy, scope="output")
        tied = [i for i, r in enumerate(path.records) if r.bic == floor]
        assert len(tied) >= 3
        assert path.selected == select_best(path.records) == max(tied)
        assert path.selected_record.estimate is best


@pytest.fixture(scope="module")
def clean_path(data4_clean):
    return tm.run_decimation(
        data4_clean, scope="output", decim_opts=tm.DecimationOptions(batch_fraction=0.0))


class TestRunDecimation:
    def test_exact_support_recovery_at_zero_noise(self, channel4, clean_path):
        path, best = clean_path
        t_inf, _ = tm.extract_tm(best)
        assert np.array_equal(t_inf.entries != 0, channel4.entries != 0)

    def test_parameter_count_strictly_decreases(self, clean_path):
        path, _ = clean_path
        counts = [r.k_free for r in path.records]
        assert all(b < a for a, b in zip(counts, counts[1:]))

    def test_path_covers_full_range(self, clean_path):
        path, _ = clean_path
        assert path.records[0].n_couplings == 256
        assert path.records[-1].n_couplings == 0

    def test_selected_record_minimizes_bic(self, clean_path):
        path, _ = clean_path
        bics = [r.bic for r in path.records]
        assert path.records[path.selected].bic == min(bics)

    def test_returned_estimate_matches_selected_masks(self, clean_path):
        path, best = clean_path
        assert best is path.selected_record.estimate
        assert best.n_active_couplings == path.selected_record.n_couplings

    def test_geometric_schedule_batch_sizes(self, data4_noisy):
        path, _ = tm.run_decimation(
            data4_noisy, scope="output", decim_opts=tm.DecimationOptions(batch_fraction=0.10))
        counts = [r.n_couplings for r in path.records]
        for before, after in zip(counts, counts[1:]):
            expected = min(before, max(1, int(0.10 * before)))
            assert before - after == expected

    def test_pl_nested_model_monotonicity(self, data4_noisy):
        full = tm.fit_all_rows(data4_noisy, scope="output")
        sub_masks = selection._prune(full, batch=60)
        sub = tm.fit_all_rows(data4_noisy, masks=sub_masks, scope="output")
        assert full.total_pl >= sub.total_pl - 1e-8 * abs(full.total_pl)

    def test_pl_flat_then_drops(self, channel4):
        # moderate noise path: selected PL close to full PL, over-decimated
        # PL far below
        ds = tm.generate_dataset(channel4, 500, tm.NoiseSpec(sigma=0.05), seed=21)
        path, _ = tm.run_decimation(ds, scope="output",
                                    decim_opts=tm.DecimationOptions(batch_fraction=0.05))
        full_pl = path.records[0].total_pl
        sel = path.selected_record
        eps = 0.01 * abs(full_pl)
        assert sel.total_pl - full_pl >= -eps
        over = next(r for r in path.records if r.n_couplings <= sel.n_couplings // 2)
        assert over.total_pl - full_pl < -eps

    def test_path_independent_of_threads(self, data4_noisy):
        dopts = tm.DecimationOptions(batch_fraction=0.10)
        p1, b1 = tm.run_decimation(data4_noisy, scope="output", decim_opts=dopts, threads=1)
        p4, b4 = tm.run_decimation(data4_noisy, scope="output", decim_opts=dopts, threads=4)
        assert p1.selected == p4.selected
        for r1, r4 in zip(p1.records, p4.records):
            assert r1.n_couplings == r4.n_couplings
            assert r1.total_pl == r4.total_pl
            assert r1.bic == r4.bic

    def test_records_count_curvatures_and_sum_pl(self, data4_noisy):
        path, best = tm.run_decimation(data4_noisy, scope="output")
        m = data4_noisy.m_samples
        for rec in path.records:
            assert rec.k_free == rec.n_couplings + 16
            assert rec.bic == tm.bic_score(rec.k_free, m, rec.total_pl)
        assert path.selected_record.total_pl == best.total_pl

    def test_only_the_selected_record_keeps_its_estimate(self, data4_noisy):
        path, best = tm.run_decimation(data4_noisy, scope="output")
        assert [i for i, r in enumerate(path.records) if r.estimate is not None] == \
            [path.selected]
        assert path.selected_record.estimate is best

    def test_path_holds_at_most_three_estimates(self, data4_noisy):
        # Records keep scalars; only the running BIC minimum and the estimate
        # being refit are alive, so the path stays near one estimate's arrays
        # however many records it has (one estimate per record held ~27 here).
        dims = tm.Dimensions(w=8)
        ds = tm.generate_dataset(tm.build_random_tm(dims, 0.2, seed=1), 3000,
                                 tm.NoiseSpec(sigma=0.05), seed=2)
        moments = tm.Moments.of(ds)
        tm.run_decimation(data4_noisy)  # any first-call imports and caches
        tracemalloc.start()
        try:
            path, best = tm.run_decimation(moments)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(path.records) > 50
        assert held <= 3 * (best.a.nbytes + best.k.nbytes + best.active.nbytes)

    def test_initial_estimate_is_reused(self, data4_noisy, monkeypatch):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        ref, ref_best = tm.run_decimation(data4_noisy, scope="output")

        def no_fit(*args, **kwargs):
            raise AssertionError("the initial estimate was fitted again")

        monkeypatch.setattr(selection, "fit_all_rows", no_fit)
        path, best = tm.run_decimation(data4_noisy, scope="output", initial=est)
        assert [r.total_pl for r in path.records] == [r.total_pl for r in ref.records]
        assert path.selected == ref.selected
        assert best.k.tobytes() == ref_best.k.tobytes()

    def test_scope_mismatch_rejected(self, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        with pytest.raises(ValueError):
            tm.run_decimation(data4_noisy, scope="all", initial=est)

    def test_estimate_of_other_data_rejected(self, data4_noisy, data4_clean):
        # The path would start from the other data's fit and label its
        # refits with that data's fingerprint; an estimate without the
        # data's M (None, or another) would give the records another total.
        fit = tm.fit_all_rows(data4_noisy, scope="output")
        for est in (tm.fit_all_rows(data4_clean, scope="output"),
                    dataclasses.replace(fit, m_samples=None),
                    dataclasses.replace(fit, m_samples=fit.m_samples + 1)):
            with pytest.raises(ValueError, match="other data"):
                tm.run_decimation(data4_noisy, scope="output", initial=est)
            with pytest.raises(ValueError, match="other data"):
                optimize.refit_rows(est, data4_noisy, selection._prune(est, 5))
        moments = tm.Moments.of(data4_noisy)
        assert vars(moments)["fingerprint"] == moments.fingerprint  # hashed once, kept


class TestRefitOnlyPrunedRows:
    def test_each_refit_solves_exactly_the_rows_that_lost_a_coupling(
            self, data4_noisy, monkeypatch):
        solved = []
        real_row = optimize.minimize_row

        def row_spy(site, *args, **kwargs):
            solved.append(site)
            return real_row(site, *args, **kwargs)

        calls = []
        real_refit = selection.refit_rows

        def refit_spy(estimate, dataset, new_masks, **kwargs):
            solved.clear()
            result = real_refit(estimate, dataset, new_masks, **kwargs)
            calls.append((estimate, new_masks, list(solved)))
            return result

        monkeypatch.setattr(optimize, "minimize_row", row_spy)
        monkeypatch.setattr(selection, "refit_rows", refit_spy)
        path, _ = tm.run_decimation(data4_noisy, scope="all")
        assert len(calls) == len(path.records) - 1
        for (before, new_masks, sites), rec, nxt in zip(calls, path.records,
                                                        path.records[1:]):
            dropped = before.active & ~new_masks
            assert int(dropped.sum()) == rec.n_couplings - nxt.n_couplings
            holding = np.flatnonzero(dropped.any(axis=1))
            assert sites == [before.fitted_sites[r] for r in holding]
            assert np.array_equal(new_masks, before.active & ~dropped)

    @pytest.mark.parametrize("w, seed, scope, fraction", [
        (4, 11, "output", 0.1), (4, 12, "all", 0.1), (4, 13, "output", 0.0),
        (6, 1, "output", 0.1), (6, 2, "all", 0.1),
    ])
    def test_path_equals_the_mask_comparison_loop(self, w, seed, scope, fraction):
        dims = tm.Dimensions(w=w)
        ds = tm.generate_dataset(tm.build_random_tm(dims, 0.2, seed=seed), 1000,
                                 tm.NoiseSpec(sigma=0.05), seed=seed + 100)
        moments = tm.Moments.of(ds)
        path, best = tm.run_decimation(
            moments, scope=scope, decim_opts=tm.DecimationOptions(batch_fraction=fraction))
        ref = fresh_fit_decimation(moments, scope, fraction)
        assert [r.k_free for r in path.records] == [r.k_free for r in ref.records]
        assert [r.total_pl for r in path.records] == [r.total_pl for r in ref.records]
        assert path.selected == ref.selected
        ref_best = ref.selected_record.estimate
        assert np.array_equal(best.active, ref_best.active)
        assert best.a.tobytes() == ref_best.a.tobytes()
        assert best.k.tobytes() == ref_best.k.tobytes()


@st.composite
def scaled_channels(draw):
    """A dataset of a small random channel, w 2 or 3 and sigma > 0, with M
    above the regressors of a full all-sites row, in units from 1 to 1e5."""
    dims = tm.Dimensions(w=draw(st.sampled_from([2, 3])))
    seed = draw(st.integers(0, 2 ** 16))
    channel = tm.build_random_tm(dims, draw(st.floats(0.3, 1.0)), seed=seed)
    m = draw(st.integers(dims.n, 4 * dims.n))
    ds = tm.generate_dataset(channel, m, tm.NoiseSpec(sigma=draw(st.floats(0.01, 0.5))),
                             seed=seed + 1)
    return tm.Dataset(dims, ds.samples * 10 ** draw(st.floats(0.0, 5.0)))


@settings(max_examples=12, deadline=None)
@given(ds=scaled_channels(), scope=st.sampled_from(["output", "all"]))
def test_fit_and_path_properties(ds, scope):
    c = tm.Moments.of(ds).c
    est = tm.fit_all_rows(ds, scope=scope)
    path, best = tm.run_decimation(ds, scope=scope, initial=est)
    for fit in (est, best):
        # Stationary by the sample-based gradient, in the data's units.
        for row, mask in zip(fit.rows, fit.masks):
            d_a, d_k = tm.row_grad(row, ds, mask)
            assert max(abs(d_a), float(np.abs(d_k).max())) <= 1e-9 * c[row.site, row.site]
    k_free = [rec.k_free for rec in path.records]
    assert all(b < a for a, b in zip(k_free, k_free[1:]))
    # The BIC minimum, ties going to fewer parameters.
    assert path.selected == min(range(len(k_free)),
                                key=lambda i: (path.records[i].bic, k_free[i]))


@pytest.mark.slow
@pytest.mark.parametrize("w, m", [(12, 5000), (16, 8000)])
def test_wide_rows_match_the_lstsq_path(w, m):
    # Certified blocks solved by LU, on one BLAS thread, match the lstsq path:
    # the path and the selection must be those of the lstsq reference.
    # (12, 5000) is criterion 10's data.
    dims = tm.Dimensions(w=w)
    ds = tm.generate_dataset(tm.build_random_tm(dims, 0.2, seed=1), m,
                             tm.NoiseSpec(sigma=0.05), seed=2)
    moments = tm.Moments.of(ds)
    path, best = tm.run_decimation(moments, scope="output")
    k_free, total, selected, support = lstsq_decimation(moments, "output", 0.1)
    assert [r.k_free for r in path.records] == k_free
    assert path.selected == selected
    assert np.array_equal(best.active, support)
    got = np.array([r.total_pl for r in path.records])
    assert np.all(np.abs(got - total) <= 1e-12 * np.abs(total))
