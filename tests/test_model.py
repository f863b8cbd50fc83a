import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tminfer as tm
from tminfer.model import _blas_threads, _one_blas_thread
from tminfer.pseudolikelihood import other_sites
from oracles import assemble_coupling_blocks, parameterize_channel, whole_array_samples


class TestDimensions:
    def test_counts(self):
        d = tm.Dimensions(w=12)
        assert d.n_half == 144
        assert d.n == 288
        assert d.n == 2 * d.n_half

    @pytest.mark.parametrize("w", [0, 1, -3])
    def test_rejects_small_sides(self, w):
        with pytest.raises(ValueError):
            tm.Dimensions(w=w)


class TestBuildRandomTm:
    def test_rows_sum_to_one(self):
        for w, density, seed in [(4, 0.25, 0), (6, 0.2, 1), (5, 0.6, 2), (3, 0.9, 3)]:
            t = tm.build_random_tm(tm.Dimensions(w=w), density, seed=seed)
            assert np.abs(t.entries.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.all(t.entries >= 0)
            assert t.role == "direct"

    def test_full_activation_uniform(self):
        t = tm.build_random_tm(tm.Dimensions(w=2), 1.0, seed=0)
        assert np.all(t.entries == 0.25)

    def test_full_scale_density(self):
        t = tm.build_random_tm(tm.Dimensions(w=12), 0.20, seed=5)
        nnz = np.count_nonzero(t.entries)
        mean = 0.20 * 20736
        std = np.sqrt(20736 * 0.2 * 0.8)
        assert abs(nnz - mean) < 5 * std

    def test_recount_matches_builder(self):
        # independent recount of activations and row normalization
        t = tm.build_random_tm(tm.Dimensions(w=4), 0.25, seed=7)
        for row in t.entries:
            active = row > 0
            k = int(active.sum())
            assert k >= 1
            assert np.allclose(row[active], 1.0 / k)

    @pytest.mark.parametrize("density", [0.0, -0.2, 1.2])
    def test_rejects_bad_density(self, density):
        with pytest.raises(ValueError):
            tm.build_random_tm(tm.Dimensions(w=4), density, seed=0)

    def test_rejects_subcritical_density(self):
        with pytest.raises(ValueError):
            tm.build_random_tm(tm.Dimensions(w=2), 0.2, seed=0)  # 0.2 * 4 < 1

    def test_empty_row_repair(self):
        # find a seed whose raw Bernoulli field leaves a row empty, using the
        # same documented draw order as the builder
        nh = 4
        seed = next(
            s for s in range(200)
            if not (np.random.default_rng(s).random((nh, nh)) < 0.26).all(axis=1).any()
            and (~(np.random.default_rng(s).random((nh, nh)) < 0.26)).all(axis=1).any()
        )
        field = np.random.default_rng(seed).random((nh, nh)) < 0.26
        empty_rows = np.flatnonzero(~field.any(axis=1))
        t = tm.build_random_tm(tm.Dimensions(w=2), 0.26, seed=seed)
        assert np.abs(t.entries.sum(axis=1) - 1.0).max() <= 1e-12
        for g in empty_rows:
            assert np.count_nonzero(t.entries[g]) == 1


class TestTransmit:
    def test_identity_channel(self):
        dims = tm.Dimensions(w=2)
        t = tm.TransmissionMatrix(dims=dims, entries=np.eye(4))
        x = np.array([0.1, 0.5, 0.9, 0.3])
        out = tm.transmit(t, x, tm.NoiseSpec(sigma=0.0), np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_row_stochastic_keeps_unit_interval(self, channel4, rng):
        x = rng.random(16)
        out = tm.transmit(channel4, x, tm.NoiseSpec(sigma=0.0), rng)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_seeded_trace_matches_reference(self, channel4):
        # independent re-derivation from the same RNG stream contract
        x = np.linspace(0.0, 1.0, 16)
        out = tm.transmit(channel4, x, tm.NoiseSpec(sigma=0.1),
                          np.random.default_rng(99))
        eps = np.random.default_rng(99).standard_normal(16)
        expected = channel4.entries @ x + 0.1 * eps
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self, channel4):
        with pytest.raises(ValueError):
            tm.transmit(channel4, np.zeros(7), tm.NoiseSpec(sigma=0.0),
                        np.random.default_rng(0))

    def test_noise_not_clamped(self):
        dims = tm.Dimensions(w=2)
        t = tm.TransmissionMatrix(dims=dims, entries=np.eye(4))
        out = tm.transmit(t, np.zeros(4), tm.NoiseSpec(sigma=5.0),
                          np.random.default_rng(1))
        assert out.min() < 0.0 or out.max() > 1.0


class TestGenerateDataset:
    def test_zero_noise_exact_linear(self, channel4, data4_clean):
        expected = data4_clean.inputs @ channel4.entries.T
        err = np.abs(data4_clean.outputs - expected)
        scale = np.maximum(np.abs(expected), 1e-30)
        assert (err / scale).max() <= 1e-13

    def test_m_5000_shape(self, channel4):
        ds = tm.generate_dataset(channel4, 5000, tm.NoiseSpec(sigma=0.0), seed=0)
        assert ds.m_samples == 5000
        assert ds.inputs.shape == (5000, 16)

    def test_single_sample_valid(self, channel4):
        ds = tm.generate_dataset(channel4, 1, tm.NoiseSpec(sigma=0.1), seed=0)
        assert ds.m_samples == 1

    def test_rejects_zero_samples(self, channel4):
        with pytest.raises(ValueError):
            tm.generate_dataset(channel4, 0, tm.NoiseSpec(sigma=0.0), seed=0)

    def test_same_seed_bit_identical(self, channel4):
        a = tm.generate_dataset(channel4, 64, tm.NoiseSpec(sigma=0.2), seed=123)
        b = tm.generate_dataset(channel4, 64, tm.NoiseSpec(sigma=0.2), seed=123)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.outputs.tobytes() == b.outputs.tobytes()

    def test_draw_order_contract(self, channel4):
        # inputs first (sample-major), then all noise deviates
        ds = tm.generate_dataset(channel4, 8, tm.NoiseSpec(sigma=0.3), seed=77)
        r = np.random.default_rng(77)
        inputs = r.random((8, 16))
        eps = r.standard_normal((8, 16))
        assert np.array_equal(ds.inputs, inputs)
        assert np.allclose(ds.outputs, inputs @ channel4.entries.T + 0.3 * eps,
                           rtol=0, atol=1e-15)

    def test_inputs_in_unit_interval(self, data4_noisy):
        assert data4_noisy.inputs.min() >= 0.0
        assert data4_noisy.inputs.max() <= 1.0


class TestBlockedGeneration:
    """The generator draws in blocks of ``_DRAW_VALUES // n_half`` rows straight
    into the sample buffer; every bit equals the whole-array draws."""

    @pytest.mark.parametrize("w", [2, 4])
    @pytest.mark.parametrize("sigma", ["scalar", "vector", "zero"])
    def test_equals_whole_array_draws(self, w, sigma):
        dims = tm.Dimensions(w=w)
        nh = dims.n_half
        channel = tm.build_random_tm(dims, 0.5, seed=w)
        noise = tm.NoiseSpec(sigma={"scalar": 0.1, "vector": np.linspace(0.0, 0.3, nh),
                                    "zero": 0.0}[sigma])
        block = tm.model._DRAW_VALUES // nh
        for m in (1, block - 1, block, block + 1, 3 * block + 5):
            ds = tm.generate_dataset(channel, m, noise, seed=m)
            inputs, outputs = whole_array_samples(channel, m, noise, seed=m)
            assert ds.inputs.tobytes() == inputs.tobytes(), m
            assert ds.outputs.tobytes() == outputs.tobytes(), m

    def test_memory_is_the_buffer_and_one_block(self, channel4, traced_peak):
        # w=4, M=40000: the table is 10.24 MB.  Whole arrays of inputs, noise,
        # product and sum, then a copy into the dataset, peak at 2.5 times that.
        ds, peak = traced_peak(lambda: tm.generate_dataset(
            channel4, 40000, tm.NoiseSpec(sigma=0.1), seed=1))
        assert peak < 1.3 * ds.site_matrix().nbytes


class TestSampleBuffer:
    def test_site_matrix_is_the_buffer(self, data4_noisy, traced_peak):
        s, peak = traced_peak(data4_noisy.site_matrix)
        assert peak < 1024
        assert s.shape == (500, 32) and s.flags.c_contiguous and s.dtype == np.float64
        assert s is data4_noisy.site_matrix()
        assert np.shares_memory(s, data4_noisy.inputs)
        assert np.shares_memory(s, data4_noisy.outputs)
        assert np.array_equal(s, np.hstack([data4_noisy.inputs, data4_noisy.outputs]))

    def test_views_are_read_only(self, data4_noisy):
        for a in (data4_noisy.site_matrix(), data4_noisy.inputs, data4_noisy.outputs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    @staticmethod
    def callers_tables(rng, shape=(2000, 32), dtype=np.float64):
        """Arrays a record must copy: each is not, or may not stay, a
        read-only C-contiguous ``dtype`` array that owns its memory.  Their
        values lie in [0.5, 1.5), or are bools for a bool ``dtype``."""
        def draw(shape):
            x = rng.random(shape)
            return x < 0.5 if dtype is bool else x + 0.5
        larger = draw((shape[0] + 200, *shape[1:]))
        view = larger[100:-100]
        view.flags.writeable = False
        # Arrays whose dtype is an equal but distinct object, which
        # ascontiguousarray(dtype=dtype) hands back as a new view.
        labelled = np.zeros(shape, dtype=np.dtype(dtype, metadata={"unit": "W"}))
        labelled[...] = draw(shape)
        return {"writable C": draw(shape),
                "Fortran": np.asfortranarray(draw(shape)),
                "float32": draw(shape).astype(np.float32),
                "read-only view": view,
                "dtype with metadata": labelled,
                "unpickled": pickle.loads(pickle.dumps(draw(shape)))}

    def test_callers_arrays_are_copied(self, rng, traced_peak):
        for kind, t in self.callers_tables(rng).items():
            ds, peak = traced_peak(lambda: tm.Dataset(dims=tm.Dimensions(w=4), samples=t))
            s = ds.samples
            assert s.flags.owndata and s.flags.c_contiguous and s.dtype == np.float64, kind
            assert not s.flags.writeable, kind
            assert not np.shares_memory(s, t), kind
            assert np.array_equal(s, t), kind
            assert peak < 1.1 * s.nbytes, kind  # one copy, no intermediate

    def test_halves_of_a_callers_writable_buffer_are_copied(self, rng):
        dims = tm.Dimensions(w=4)
        for kind, t in self.callers_tables(rng).items():
            ds = tm.Dataset(dims=dims, samples=t)
            for a in (ds.site_matrix(), ds.inputs, ds.outputs):
                assert not np.shares_memory(a, t) and not a.flags.writeable, kind
            assert np.array_equal(ds.inputs, t[:, :16]), kind
            assert np.array_equal(ds.outputs, t[:, 16:]), kind
        t = rng.random((20, 32))
        t.flags.writeable = False
        ds = tm.Dataset(dims=dims, samples=t)
        assert ds.samples is t
        assert np.shares_memory(ds.inputs, t) and np.shares_memory(ds.outputs, t)

    def test_replace_shares_the_buffer_and_reverse_copies_it(self, data4_noisy, traced_peak):
        same = dataclasses.replace(data4_noisy, meta={"source": "relabelled"})
        assert same.site_matrix() is data4_noisy.site_matrix()
        fwd = tm.Moments.of(data4_noisy)
        rev, peak = traced_peak(lambda: tm.reverse_dataset(data4_noisy))
        # The one swapped table, and the record permuted from the forward one.
        assert peak < 1.1 * rev.site_matrix().nbytes + 4 * fwd.c.nbytes
        assert not np.shares_memory(rev.site_matrix(), data4_noisy.site_matrix())
        assert np.shares_memory(rev.inputs, rev.site_matrix())
        assert not rev.inputs.flags.writeable

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda ds: pickle.loads(pickle.dumps(ds))])
    def test_copies_get_their_own_buffer(self, data4_noisy, clone, traced_peak):
        ds, peak = traced_peak(lambda: clone(data4_noisy))
        s = ds.site_matrix()
        if clone is copy.deepcopy:
            # The copy adopts the table that deepcopy made instead of copying it.
            assert peak < 1.1 * s.nbytes
        else:
            # pickle.dumps (protocol 4) holds numpy's bytes copy of the table
            # and its own output buffer, over-allocated by half; the dataset
            # then adopts the unpickled table (3.00x before it did).
            assert peak < 2.6 * s.nbytes
        assert s.tobytes() == data4_noisy.site_matrix().tobytes()
        assert not np.shares_memory(s, data4_noisy.site_matrix())
        assert np.shares_memory(ds.inputs, s) and np.shares_memory(ds.outputs, s)
        assert not (s.flags.writeable or ds.inputs.flags.writeable
                    or ds.outputs.flags.writeable)

    def test_unpickled_table_is_adopted(self, data4_noisy, traced_peak):
        # The unpickled table views bytes private to the unpickler; flagged
        # read-only it can never be written again, so it is not copied.
        blob = pickle.dumps(data4_noisy)
        ds, peak = traced_peak(lambda: pickle.loads(blob))
        s = ds.samples
        assert isinstance(s.base, bytes) and not s.flags.writeable
        assert peak < 1.1 * s.nbytes  # 2.00x when the constructor copied it
        with pytest.raises(ValueError):
            s.flags.writeable = True
        assert s.tobytes() == data4_noisy.samples.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, bad):
        samples = rng.random((5, 32))
        samples[3, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            tm.Dataset(dims=tm.Dimensions(w=4), samples=samples)


def _estimate(**arrays):
    """A w=4 output-scope estimate with ``arrays`` in place of its defaults."""
    return tm.CouplingEstimate(**{
        "dims": tm.Dimensions(w=4), "scope": "output", "direction": "forward",
        "a": np.ones(16), "k": np.zeros((16, 31)), "active": np.ones((16, 31), dtype=bool),
        "converged": np.ones(16, dtype=bool), "row_objectives": np.zeros(16),
        "total_pl": None, **arrays})


def _noise(sigma=None, beta=None, converged=np.ones(16, dtype=bool)):
    """A ChannelNoiseEstimate from ``sigma`` or ``beta``, the other derived."""
    if sigma is None:
        sigma = 1.0 / np.sqrt(2.0 * np.asarray(beta, dtype=np.float64))
    if beta is None:
        beta = 1.0 / (2.0 * np.asarray(sigma, dtype=np.float64) ** 2)
    return tm.ChannelNoiseEstimate(sigma_hat=sigma, beta_hat=beta, converged=converged)


# Every record's array field but Dataset.samples, which TestSampleBuffer
# covers: (record.field, shape, dtype, record of an array).
RECORD_ARRAYS = [
    ("TransmissionMatrix.entries", (16, 16), np.float64,
     lambda x: tm.TransmissionMatrix(tm.Dimensions(w=4), x)),
    ("NoiseSpec.sigma", (16,), np.float64, tm.NoiseSpec),
    ("Moments.c", (32, 32), np.float64,
     lambda x: tm.Moments(tm.Dimensions(w=4), "forward", 50, x)),
    ("RowParams.k", (31,), np.float64, lambda x: tm.RowParams(site=3, a=1.0, k=x)),
    ("RowMask.active", (31,), bool, lambda x: tm.RowMask(site=3, active=x)),
    ("CouplingEstimate.a", (16,), np.float64, lambda x: _estimate(a=x)),
    ("CouplingEstimate.k", (16, 31), np.float64, lambda x: _estimate(k=x)),
    ("CouplingEstimate.active", (16, 31), bool, lambda x: _estimate(active=x)),
    ("CouplingEstimate.converged", (16,), bool, lambda x: _estimate(converged=x)),
    ("CouplingEstimate.row_objectives", (16,), np.float64,
     lambda x: _estimate(row_objectives=x)),
    ("ChannelNoiseEstimate.sigma_hat", (16,), np.float64, lambda x: _noise(sigma=x)),
    ("ChannelNoiseEstimate.beta_hat", (16,), np.float64, lambda x: _noise(beta=x)),
    ("ChannelNoiseEstimate.converged", (16,), bool,
     lambda x: _noise(sigma=np.full(16, 0.1), converged=x)),
]


@pytest.mark.parametrize("name, shape, dtype, build", RECORD_ARRAYS,
                         ids=[r[0] for r in RECORD_ARRAYS])
class TestOneOwnershipRule:
    """Every record takes its arrays by one rule: a read-only C-contiguous
    array of its dtype that owns its memory (or views immutable bytes) is
    adopted, anything else is copied once into such an array."""

    def test_callers_arrays_are_copied(self, rng, name, shape, dtype, build):
        for kind, x in TestSampleBuffer.callers_tables(rng, shape, dtype).items():
            stored = getattr(build(x), name.split(".")[1])
            assert not stored.flags.writeable and stored.flags.c_contiguous, kind
            assert stored.dtype == dtype and stored.shape == shape, kind
            assert np.array_equal(stored, x), kind
            assert not np.shares_memory(stored, x), kind

    def test_sealed_array_is_adopted(self, rng, name, shape, dtype, build):
        x = TestSampleBuffer.callers_tables(rng, shape, dtype)["writable C"]
        x.flags.writeable = False
        assert getattr(build(x), name.split(".")[1]) is x


class TestReverseDataset:
    def test_swap_definition(self, data4_noisy):
        rev = tm.reverse_dataset(data4_noisy)
        assert rev.direction == "reversed"
        assert np.array_equal(rev.inputs, data4_noisy.outputs)
        assert np.array_equal(rev.outputs, data4_noisy.inputs)

    def test_double_reverse_rejected(self, data4_noisy):
        rev = tm.reverse_dataset(data4_noisy)
        with pytest.raises(ValueError):
            tm.reverse_dataset(rev)

    def test_raw_double_swap_is_identity(self, data4_noisy):
        rev = tm.reverse_dataset(data4_noisy)
        back_in, back_out = rev.outputs, rev.inputs
        assert back_in.tobytes() == data4_noisy.inputs.tobytes()
        assert back_out.tobytes() == data4_noisy.outputs.tobytes()

    def test_order_preserved(self, data4_noisy):
        rev = tm.reverse_dataset(data4_noisy)
        m = data4_noisy.m_samples // 2
        assert np.array_equal(rev.inputs[m], data4_noisy.outputs[m])


class TestSecondMoments:
    @staticmethod
    def reference(ds):
        s = ds.site_matrix()
        return np.einsum("mi,mj->ij", s, s) / ds.m_samples

    def test_matches_site_matrix(self, data4_noisy, data4_clean):
        for ds in (data4_noisy, data4_clean):
            c = tm.Moments.of(ds).c
            assert c.shape == (ds.dims.n, ds.dims.n)
            np.testing.assert_allclose(c, self.reference(ds), rtol=1e-13, atol=0)

    def test_read_only_and_idempotent(self, channel4):
        ds = tm.generate_dataset(channel4, 50, tm.NoiseSpec(sigma=0.1), seed=5)
        mo = tm.Moments.of(ds)
        assert tm.Moments.of(mo) is mo
        assert (mo.dims, mo.direction, mo.m_samples) == (ds.dims, ds.direction, 50)
        assert not mo.c.flags.writeable
        with pytest.raises(ValueError):
            mo.c[0, 0] = 1.0

    def test_reversed_copy_gets_its_own_block_swap(self, data4_noisy):
        fwd = tm.Moments.of(data4_noisy).c
        rev = tm.Moments.of(tm.reverse_dataset(data4_noisy)).c
        assert not np.shares_memory(rev, fwd)
        nh = data4_noisy.dims.n_half
        swap = np.r_[nh:2 * nh, 0:nh]
        np.testing.assert_allclose(rev, fwd[np.ix_(swap, swap)], rtol=1e-13, atol=0)

    def test_replaced_copy_gets_its_own(self, data4_noisy):
        fwd = tm.Moments.of(data4_noisy).c
        scaled = dataclasses.replace(
            data4_noisy, samples=np.hstack([data4_noisy.inputs, 2.0 * data4_noisy.outputs]))
        c = tm.Moments.of(scaled).c
        np.testing.assert_allclose(c, self.reference(scaled), rtol=1e-13, atol=0)
        nh = data4_noisy.dims.n_half
        np.testing.assert_allclose(c[nh:, nh:], 4.0 * fwd[nh:, nh:], rtol=1e-13)

    @pytest.mark.parametrize("w, m", [(4, 300), (4, 40000), (12, 5000)])
    def test_reversed_is_the_swapped_samples_bit_for_bit(self, w, m):
        # At even w the permuted forward C is S^T S of the swapped samples
        # exactly, as the same product forms it.
        channel = tm.build_random_tm(tm.Dimensions(w=w), 0.5 if w == 4 else 0.2, seed=w)
        ds = tm.generate_dataset(channel, m, tm.NoiseSpec(sigma=0.1), seed=m)
        fwd = tm.Moments.of(ds)
        rev = fwd.reversed()
        swapped = tm.reverse_dataset(ds).samples
        ref = tm.Moments(ds.dims, "reversed", m, swapped.T @ swapped / m)
        assert rev.c.tobytes() == ref.c.tobytes()
        assert rev.fingerprint == ref.fingerprint
        assert (rev.direction, rev.m_samples) == ("reversed", m)
        back = rev.reversed()
        assert back.c.tobytes() == fwd.c.tobytes()
        assert back.fingerprint == fwd.fingerprint

    @pytest.mark.parametrize("w", [3, 5, 7])
    def test_reversed_dataset_carries_the_permuted_record(self, w):
        # At odd w, S^T S of the swapped table differs from the permuted
        # forward C in the last bits, so the reversed dataset takes the
        # permutation as its record: a library fit of it reads the C that
        # `tminfer fit --reversed` reads.
        channel = tm.build_random_tm(tm.Dimensions(w=w), 0.5, seed=w)
        ds = tm.generate_dataset(channel, 500, tm.NoiseSpec(sigma=0.1), seed=w)
        rev = tm.reverse_dataset(ds)
        mo, ref = tm.Moments.of(rev), tm.Moments.of(ds).reversed()
        assert mo.c.tobytes() == ref.c.tobytes() and mo.fingerprint == ref.fingerprint
        assert (mo.direction, mo.m_samples) == ("reversed", 500)
        np.testing.assert_allclose(mo.c, self.reference(rev), rtol=1e-14, atol=0)


class TestMoments:
    @pytest.fixture(scope="class")
    def data12(self):
        channel = tm.build_random_tm(tm.Dimensions(w=12), 0.2, seed=12)
        return tm.generate_dataset(channel, 3000, tm.NoiseSpec(sigma=0.1), seed=3000)

    def test_of_holds_c_once(self, data12, traced_peak):
        # The record adopts the C that Dataset._moments forms (2.00x when it
        # copied it); the rest is its finiteness check.
        mo, peak = traced_peak(lambda: tm.Moments.of(data12))
        assert peak < 1.3 * mo.c.nbytes

    def test_reversed_holds_c_once(self, data12, traced_peak):
        fwd = tm.Moments.of(data12)
        rev, peak = traced_peak(fwd.reversed)
        assert peak < 1.3 * rev.c.nbytes  # 2.00x when the record copied it

    def test_formed_once_per_dataset(self, channel4, monkeypatch):
        ds = tm.generate_dataset(channel4, 300, tm.NoiseSpec(sigma=0.1), seed=4)
        calls = []
        real = tm.Dataset.site_matrix
        monkeypatch.setattr(tm.Dataset, "site_matrix",
                            lambda self: calls.append(self) or real(self))
        mo = tm.Moments.of(ds)
        mask = tm.RowMask(site=20, active=np.ones(31, dtype=bool))
        for _ in range(3):
            tm.minimize_row(20, ds, mask)
        tm.run_decimation(ds)
        assert tm.Moments.of(ds) is mo
        assert len(calls) == 1 and calls[0] is ds
        # Copies, unpickled datasets and replacements form their own record.
        for clone in (copy.deepcopy(ds), pickle.loads(pickle.dumps(ds)),
                      dataclasses.replace(ds, meta={})):
            assert "_moments" not in vars(clone)
            other = tm.Moments.of(clone)
            assert other is not mo and other.c.tobytes() == mo.c.tobytes()

    def test_pivot_ratio(self, data4_noisy, data4_clean):
        # min_j L_jj**2 / C_jj of the Cholesky factor, 0 where it fails.
        mo = tm.Moments.of(data4_noisy)
        low = np.linalg.cholesky(mo.c)
        assert mo.pivot_ratio == np.min(np.diagonal(low) ** 2 / np.diagonal(mo.c))
        assert 0 < mo.pivot_ratio < 1
        clean = tm.Moments.of(data4_clean)
        assert clean.pivot_ratio < 1e-12
        dead = np.array(mo.c)
        dead[3, :] = dead[:, 3] = 0.0
        assert dataclasses.replace(mo, c=dead).pivot_ratio == 0.0
        assert mo.reversed().pivot_ratio != mo.pivot_ratio  # its own order

    def test_read_only_copy(self, data4_noisy):
        c = np.array(tm.Moments.of(data4_noisy).c)
        mo = tm.Moments(dims=data4_noisy.dims, direction="forward", m_samples=500, c=c)
        assert not mo.c.flags.writeable
        assert not np.shares_memory(mo.c, c)
        assert mo.c.tobytes() == c.tobytes()

    @pytest.mark.parametrize("change", [
        {"c": np.zeros((31, 31))},
        {"c": np.full((32, 32), np.nan)},
        {"direction": "sideways"},
        {"m_samples": 0},
    ])
    def test_validation(self, data4_noisy, change):
        kw = dict(dims=data4_noisy.dims, direction="forward", m_samples=500,
                  c=tm.Moments.of(data4_noisy).c)
        kw.update(change)
        with pytest.raises(ValueError):
            tm.Moments(**kw)

    def test_fingerprint_hashes_what_a_fit_reads(self, data4_noisy):
        mo = tm.Moments.of(data4_noisy)
        fields = {f.name: getattr(mo, f.name) for f in dataclasses.fields(mo)}
        assert mo.fingerprint == tm.Moments(**fields).fingerprint
        c = np.array(mo.c)
        c[3, 3] = np.nextafter(c[3, 3], 1.0)
        for change in ({"c": c}, {"m_samples": 499}, {"direction": "reversed"}):
            assert tm.Moments(**{**fields, **change}).fingerprint != mo.fingerprint

    @pytest.mark.parametrize("scope", ["output", "all"])
    def test_fits_like_its_dataset(self, data4_noisy, scope):
        ref = tm.fit_all_rows(data4_noisy, scope=scope)
        est = tm.fit_all_rows(tm.Moments.of(data4_noisy), scope=scope)
        assert est.dataset_fingerprint == ref.dataset_fingerprint
        assert est.total_pl == ref.total_pl
        assert np.array_equal(est.row_objectives, ref.row_objectives)
        for r1, r2 in zip(est.rows, ref.rows):
            assert r1.a == r2.a and r1.k.tobytes() == r2.k.tobytes()


# Prints the sha256 of C and of the samples of each (w, M) in argv[1].
_MOMENT_HASHES = """
import hashlib, json, sys
import tminfer as tm
out = {}
for w, m in json.loads(sys.argv[1]):
    dims = tm.Dimensions(w=w)
    ds = tm.generate_dataset(tm.build_random_tm(dims, 0.2, seed=5), m,
                             tm.NoiseSpec(sigma=0.05), seed=6)
    out[f"{w},{m}"] = [hashlib.sha256(arr.tobytes()).hexdigest()
                       for arr in (tm.Moments.of(ds).c, ds.samples)]
print(json.dumps(out))
"""


class TestOneBlasThread:
    def test_moments_and_samples_identical_across_blas_threads(self):
        # OpenBLAS splits S^T S (from w=7) and the samples' inputs @ T^T
        # (from w=14) between threads, which changed their last bits with
        # OPENBLAS_NUM_THREADS before both ran on one pinned thread.
        sizes = [(7, 1000), (9, 1000), (13, 1000), (14, 1000), (15, 1000), (20, 5000)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            res = subprocess.run([sys.executable, "-c", _MOMENT_HASHES, json.dumps(sizes)],
                                 env=env, capture_output=True, text=True, timeout=300)
            assert res.returncode == 0, res.stderr
            outs[threads] = json.loads(res.stdout)
        assert outs["1"] == outs["2"]

    def test_pin_is_found_wherever_numpy_ships_openblas(self):
        # A wrong symbol name would leave the pin a silent no-op, and every
        # artifact's bits would depend on the thread count again.
        root = Path(np.__file__).parent
        shipped = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
        calls = _blas_threads()
        assert (calls is not None) == bool(shipped), shipped
        if calls is None:
            return
        get, put = calls
        before = get()
        put(2)
        try:
            with _one_blas_thread():
                assert get() == 1
                with _one_blas_thread():
                    assert get() == 1
            assert get() == 2
            with pytest.raises(ZeroDivisionError), _one_blas_thread():
                1 / 0
            assert get() == 2
        finally:
            put(before)


class TestGroundTruthCoupling:
    def test_matches_block_oracle(self, channel4):
        # The all-sites reference parameters are the block coupling matrix
        # [[-T^T T, 2 T^T], [2 T, -Id]] scaled by beta, with the input-input
        # block at twice that scale (both halves of the quadratic form).
        beta = 1.0 / (2.0 * 0.05**2)
        est = parameterize_channel(channel4, 0.05)
        nh, n = channel4.dims.n_half, channel4.dims.n
        j = np.zeros((n, n))
        for site, row in zip(est.fitted_sites, est.rows):
            others = other_sites(site, n)
            scale = np.where((others < nh) & (site < nh), 2.0 * beta, beta)
            j[site, others] = row.k / scale
            j[site, site] = -row.a / beta
        assert np.allclose(j, assemble_coupling_blocks(channel4.entries),
                           rtol=0, atol=1e-12)


class TestValidation:
    def test_noise_spec_rejects_negative(self):
        with pytest.raises(ValueError):
            tm.NoiseSpec(sigma=-0.1)

    def test_noise_spec_vector_broadcast(self):
        spec = tm.NoiseSpec(sigma=np.full(16, 0.2))
        assert np.array_equal(spec.sigma_vector(16), np.full(16, 0.2))
        with pytest.raises(ValueError):
            spec.sigma_vector(9)

    def test_dataset_shape_checks(self, dims4):
        with pytest.raises(ValueError):
            tm.Dataset(dims=dims4, samples=np.zeros((3, 18)))
        with pytest.raises(ValueError):
            tm.Dataset(dims=dims4, samples=np.zeros((0, 32)))
        with pytest.raises(ValueError):
            tm.Dataset(dims=dims4, samples=np.zeros((3, 32)), direction="sideways")
        # The samples are one (M, n) table; there is no two-view constructor.
        assert [f.name for f in dataclasses.fields(tm.Dataset)] == [
            "dims", "samples", "direction", "meta"]
        with pytest.raises(TypeError):
            tm.Dataset(dims=dims4, inputs=np.zeros((3, 16)), outputs=np.zeros((3, 16)))

    def test_matrix_rejects_nonfinite(self, dims4):
        bad = np.zeros((16, 16))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            tm.TransmissionMatrix(dims=dims4, entries=bad)
