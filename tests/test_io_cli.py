import ast
import dataclasses
import hashlib
import io as io_module
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tminfer as tm
import tminfer.io as tio
from tminfer.cli import _read_recorded, main
from tminfer.optimize import CERTIFY_TOL
from oracles import fresh_fit_decimation


CONFIG = {
    "w": 4, "density": 0.25, "m_samples": 120, "sigma": 0.1, "seed": 42,
    "scope": "output",
    "decimation": {"batch_fraction": 0.1},
}


# The CLI stages of a whole chain, in order.
STAGES = ("generate", "fit", "select", "extract", "fit --reversed", "select --reversed",
          "extract --reversed", "eval", "report")


# A field that a test deletes from its registered JSON.
MISSING = object()


def register(out, name):
    """Register a hand-written or hand-edited file as its stage would."""
    data = (Path(out) / name).read_bytes()
    tio.register_artifacts(out, {name: hashlib.sha256(data).hexdigest()})


# The message of read_matrix's shape check at w=4, and none of its manifest checks.
SHAPE_ERROR = r"holds a \(.*\) table; its record gives \(16, 16\)"


def data_file(out, binary):
    """The data file in ``out`` that ``generate`` names under ``binary_io=binary``."""
    return out / ("dataset.npy" if binary else "dataset.csv")


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = dict(CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRunConfig:
    def test_happy_path(self, tmp_path):
        cfg = tio.RunConfig.from_file(write_config(tmp_path))
        assert cfg.w == 4
        assert cfg.sweep_config().decim_opts.batch_fraction == 0.1

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(tio.ConfigError, match="unknown config keys"):
            tio.RunConfig.from_file(write_config(tmp_path, {"wavelength": 633}))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(tio.ConfigError, match="unknown decimation keys"):
            tio.RunConfig.from_file(
                write_config(tmp_path, {"decimation": {"lr": 0.1}}))

    # Keys removed in 0.2.0 (optimizer) and 0.10.0 (spot_*), at their old defaults.
    REMOVED = {"optimizer": {"grad_tol": 1e-6}, "spot_width": 1.2,
               "spot_amplitude": 0.004, "spot_background": 0.5}

    @pytest.mark.parametrize("key", REMOVED)
    def test_removed_optimizer_section(self, tmp_path, capsys, key):
        # A removed key meets the rule for any unknown key.
        path = write_config(tmp_path, {key: self.REMOVED[key]})
        message = f"unknown config keys: [{key!r}]"
        with pytest.raises(tio.ConfigError) as err:
            tio.RunConfig.from_file(path)
        assert str(err.value) == message
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_w(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"density": 0.2}))
        with pytest.raises(tio.ConfigError, match="'w'"):
            tio.RunConfig.from_file(path)

    @pytest.mark.parametrize("bad", [
        {"scope": "some"}, {"density": 0.0}, {"m_samples": 0}, {"sigma": -1},
        {"m_samples": 500.5}, {"m_samples": True}, {"w": 4.0}, {"seed": "7"},
        {"seed": -1}, {"replicates": 1.5}, {"density": "0.2"}, {"sigma": None},
        {"sigma": [0.1]}, {"sigma_grid": [0.0, "0.1"]}, {"binary_io": "yes"},
        {"decimation": {"batch_fraction": "0.1"}}, {"decimation": {"batch_fraction": 1.0}},
        {"decimation": [0.1]}, {"sigma_grid": [0.2, 0.1]}, {"sigma_grid": [-0.1]},
        {"sigma_grid": []}, {"replicates": 0},
        # JSON integers past every float: math.isfinite raised OverflowError (exit 2).
        {"sigma": 10 ** 400}, {"density": 10 ** 400}, {"sigma_grid": [0.0, 10 ** 400]},
        {"decimation": {"batch_fraction": 10 ** 400}},
    ])
    def test_field_validation(self, tmp_path, capsys, bad):
        # Every bad value stops the first stage as a validation error (exit 1)
        # that names its field.
        path = write_config(tmp_path, bad)
        with pytest.raises(tio.ConfigError):
            tio.RunConfig.from_file(path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(bad))}")
        assert not out.exists()

    @pytest.mark.parametrize("overrides, regressors", [
        ({"w": 4}, 16), ({"w": 4, "scope": "all"}, 31),
        ({"w": 4, "include_balance": True}, 31)], ids=["output", "all", "balance"])
    def test_rows_must_be_identifiable(self, tmp_path, capsys, overrides, regressors):
        # No more samples than a full-support row's regressors: every row
        # interpolates them, so the config stops the first stage (exit 1).
        # The sweep's balance fit solves full-support all rows in any scope.
        path = write_config(tmp_path, {**overrides, "m_samples": regressors})
        out = tmp_path / "out"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{regressors} regressors" in err and f"got {regressors}" in err
        assert not out.exists()
        ok = write_config(tmp_path, {**overrides, "m_samples": regressors + 1}, "ok.json")
        assert tio.RunConfig.from_file(ok).m_samples == regressors + 1

    def test_bad_scope_is_named_before_the_row_count(self, tmp_path, capsys):
        # The scope is the SweepConfig's to refuse; the identifiability check,
        # which reads it, comes after.
        path = write_config(tmp_path, {"w": 3, "scope": "bogus", "m_samples": 5})
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: scope must be 'output' or 'all', got 'bogus'\n"

    def test_fingerprint_tracks_content(self, tmp_path):
        a = tio.RunConfig.from_file(write_config(tmp_path))
        b = tio.RunConfig.from_file(write_config(tmp_path, {"seed": 43}, "c2.json"))
        assert tio.config_fingerprint(a) == tio.config_fingerprint(a)
        assert tio.config_fingerprint(a) != tio.config_fingerprint(b)

    def test_threads_not_in_fingerprint(self, tmp_path, capsys):
        cfg = tio.RunConfig.from_file(write_config(tmp_path))
        assert "threads" not in dataclasses.asdict(cfg)
        path = write_config(tmp_path, {"threads": 8}, "c2.json")
        with pytest.raises(tio.ConfigError, match="unknown config keys.*threads"):
            tio.RunConfig.from_file(path)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "threads" in capsys.readouterr().err

    def test_readme_config_example_loads(self, tmp_path):
        # The CLI section's example config names only keys RunConfig accepts.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"cat > config\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S)
        path = tmp_path / "config.json"
        path.write_text(example.group(1))
        assert tio.RunConfig.from_file(path).w == 4

    def test_threads_environment_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMINFER_THREADS", "junk")
        common = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        for verb in ("generate", "fit", "select"):
            assert main([verb, *common]) == 0, verb


class TestFormats:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_artifact_refuses_a_number_json_cannot_hold(self, tmp_path, value):
        # Python's json writes these as Infinity and NaN, which no strict
        # reader parses; the file is neither written nor registered.
        tio.write_json_artifact({"q": 0.5}, tmp_path / "a.json", "fp")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="^b.json not written: it holds a NaN or an inf"):
            tio.write_json_artifact({"q": [0.5, value]}, tmp_path / "b.json", "fp")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_json_artifact_refuses_a_type_json_cannot_hold(self, tmp_path):
        with pytest.raises(ValueError, match="^a.json not written: .*int64"):
            tio.write_json_artifact({"x": np.int64(3)}, tmp_path / "a.json", "fp")
        assert list(tmp_path.iterdir()) == []

    def test_dataset_metadata_json_cannot_hold_writes_nothing(self, tmp_path):
        # The data file used to be written and registered before the
        # metadata failed to encode, leaving a half-written dataset.
        ds = tm.Dataset(tm.Dimensions(w=2), np.zeros((3, 8)), meta={"seed": np.int64(2)})
        with pytest.raises(ValueError, match="^dataset.meta.json not written: .*int64"):
            tio.write_dataset(ds, tmp_path / "dataset.csv", "fp")
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_w_writes_the_int_bytes(self, tmp_path):
        # Dimensions used to keep an np.int64 w, and generate_dataset an
        # np.int64 seed, which JSON cannot encode.
        files = []
        for i, (w, seed) in enumerate([(2, 2), (np.int64(2), 2), (2, np.int64(2))]):
            out = tmp_path / str(i)
            out.mkdir()
            channel = tm.build_random_tm(tm.Dimensions(w=w), 0.5, seed=1)
            ds = tm.generate_dataset(channel, 50, tm.NoiseSpec(sigma=0.1), seed=seed)
            tio.write_dataset(ds, out / "dataset.csv", "fp")
            tio.write_estimate(tm.fit_all_rows(ds), out / "estimate.json", "fp", "sha")
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(files[0]) == ["MANIFEST.json", "dataset.csv", "dataset.meta.json",
                                    "estimate.json"]
        assert files[0] == files[1] == files[2]

    @pytest.mark.parametrize("binary", [False, True])
    def test_dataset_round_trip(self, tmp_path, channel4, binary):
        ds = tm.generate_dataset(channel4, 30, tm.NoiseSpec(sigma=0.2), seed=3)
        tio.write_dataset(ds, data_file(tmp_path, binary), fingerprint="fp")
        back, meta = tio.read_dataset(tmp_path, fingerprint="fp")
        assert back.inputs.tobytes() == ds.inputs.tobytes()
        assert back.outputs.tobytes() == ds.outputs.tobytes()
        assert back.direction == ds.direction == meta["direction"]
        assert back.meta["seed"] == 3

    @pytest.mark.parametrize("binary", [False, True])
    def test_matrix_round_trip(self, tmp_path, channel4, binary):
        # The path's suffix picks the format: .npy, or CSV of the entries only.
        name = "m.npy" if binary else "m.csv"
        tio.write_matrix(channel4.entries, tmp_path / name)
        raw = (tmp_path / name).read_bytes()
        assert raw.startswith(b"\x93NUMPY") if binary else raw == reference_csv(channel4.entries)
        back = tio.read_matrix(tmp_path / name, channel4.dims)
        assert same_bits(back, channel4.entries) and not back.flags.writeable

    def test_matrix_role_preserved(self, tmp_path, channel4):
        # A matrix file holds no role: eval takes the one its record names.
        cfg = tio.RunConfig(w=4)
        inv = np.linalg.pinv(channel4.entries)
        doc = {"role": "inverse", "matrix_sha256": {
            "inv.csv": tio.write_matrix(inv, tmp_path / "inv.csv")}}
        tio.write_json_artifact(doc, tmp_path / "extract_reversed.json",
                                tio.config_fingerprint(cfg))
        back = _read_recorded(cfg, tmp_path, "extract_reversed.json", "inv.csv", "")
        assert back.role == "inverse" and same_bits(back.entries, inv)

    @pytest.mark.parametrize("header, rows, cols", [
        ("# 16 16 direct", 15, 16),    # body shorter than the run's dims give
        ("# 16 16 direct", 16, 15),    # body narrower than the run's dims give
        ("# 16 15 direct", 16, 15),    # not square
        ("# 15 15 direct", 15, 15),    # side is not w**2
        ("# direct", 16, 16),          # the run's shape under any '#' line
        ("# 4000000000 16 direct", 16, 16),  # a shape no file this short holds, unread
        ("", 16, 16),                  # the entries only, as 0.13.0 writes them
    ])
    def test_matrix_shape_checked(self, tmp_path, dims4, header, rows, cols):
        # The run's dims (w=4) size a matrix's table; leading '#' lines, such
        # as the '# rows cols role' line of tminfer <= 0.12.0, are skipped.
        body = [",".join(["0.5"] * cols)] * rows
        (tmp_path / "m.csv").write_text("\n".join([header, *body]).lstrip("\n") + "\n")
        register(tmp_path, "m.csv")
        if (rows, cols) == (16, 16):
            assert same_bits(tio.read_matrix(tmp_path / "m.csv", dims4), np.full((16, 16), 0.5))
        else:
            with pytest.raises(tio.ChainError, match=f"m.csv {SHAPE_ERROR}"):
                tio.read_matrix(tmp_path / "m.csv", dims4)

    def test_npy_matrix_shape_checked(self, tmp_path, dims4):
        for shape in ((16, 15), (15, 15), (16,)):
            np.save(tmp_path / "m.npy", np.zeros(shape))
            register(tmp_path, "m.npy")
            with pytest.raises(tio.ChainError, match=f"m.npy {SHAPE_ERROR}"):
                tio.read_matrix(tmp_path / "m.npy", dims4)

    def test_matrix_written_by_0_12_0_reads_back(self, tmp_path, channel4):
        # tminfer 0.12.0 wrote a '# rows cols role' line above a CSV matrix.
        raw = b"# 16 16 direct\n" + reference_csv(channel4.entries)
        (tmp_path / "m.csv").write_bytes(raw)
        register(tmp_path, "m.csv")
        assert same_bits(tio.read_matrix(tmp_path / "m.csv", channel4.dims), channel4.entries)

    def test_npy_header_is_not_allocated_before_its_data_is_there(self, tmp_path, dims4):
        # A header that gives a (10**6, 10**6) array over 16 values: refused
        # as a file that does not parse, not an 8 TB allocation.
        buf = io_module.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False, "shape": (10 ** 6, 10 ** 6)})
        (tmp_path / "m.npy").write_bytes(buf.getvalue() + np.zeros(16).tobytes())
        register(tmp_path, "m.npy")
        with pytest.raises(tio.ChainError, match="m.npy does not parse: its data does not fill"):
            tio.read_matrix(tmp_path / "m.npy", dims4)

    @pytest.mark.parametrize("name", ["m.csv", "m.npy"])
    def test_matrix_that_does_not_parse_names_the_file(self, tmp_path, capsys, name):
        # A 3-value row in a 4 x 4 CSV matrix; an .npy whose data stops short.
        ragged = "0.5,0.5,0.5,0.5\n0.5,0.5,0.5\n" * 2
        buf = io_module.BytesIO()
        np.save(buf, np.zeros((4, 4)))
        raw = ragged.encode() if name.endswith(".csv") else buf.getvalue()[:-8]
        (tmp_path / name).write_bytes(raw)
        register(tmp_path, name)
        with pytest.raises(tio.ChainError, match=rf"{name} does not parse"):
            tio.read_matrix(tmp_path / name, tm.Dimensions(w=2))
        # eval reads the ground truth first, only under the hash generate
        # recorded: a hand-written one, registered again, is refused unparsed.
        cfg = write_config(tmp_path, {"w": 2, "binary_io": name.endswith(".npy")})
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        t_name = name.replace("m.", "t_true.")
        (out / t_name).write_bytes(raw)
        register(out, t_name)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{t_name} is not the matrix its producing stage recorded" in \
            capsys.readouterr().err

    def test_estimate_round_trip(self, tmp_path, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp",
                           dataset_sha256="x")
        back = tio.read_estimate(tmp_path / "e.json", fingerprint="fp")
        assert back.fitted_sites == est.fitted_sites
        assert back.total_pl == est.total_pl
        assert back.dataset_fingerprint == est.dataset_fingerprint
        for r1, r2, m1, m2 in zip(est.rows, back.rows, est.masks, back.masks):
            assert r1.a == r2.a
            assert r1.k.tobytes() == r2.k.tobytes()
            assert np.array_equal(m1.active, m2.active)

    def test_fully_decimated_estimate_round_trip(self, tmp_path, data4_noisy):
        # The last record of a path has no coupling left: it is written with
        # an empty support and reads back bit for bit.
        path = fresh_fit_decimation(tm.Moments.of(data4_noisy), "output", 0.1)
        est = path.records[-1].estimate
        assert est.n_active_couplings == 0
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp",
                           dataset_sha256="x")
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["support"] == doc["couplings"] == []
        back = tio.read_estimate(tmp_path / "e.json", fingerprint="fp")
        for name in ("a", "k", "active"):
            assert getattr(back, name).tobytes() == getattr(est, name).tobytes()
        assert np.array_equal(back.row_objectives, est.row_objectives)
        assert back.total_pl == est.total_pl

    def test_active_zero_coupling_stays_active(self, tmp_path, data4_noisy):
        # A dead channel's minimum-norm fit leaves an active coupling of
        # exactly 0: the support, not k, says it is active.
        est = tm.fit_all_rows(data4_noisy, scope="output")
        assert est.active[2, 5]
        k = np.array(est.k)
        k[2, 5] = 0.0
        est = dataclasses.replace(est, k=k)
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp", dataset_sha256="x")
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["support"] == np.flatnonzero(est.active).tolist()
        assert doc["couplings"][doc["support"].index(2 * 31 + 5)] == 0.0
        back = tio.read_estimate(tmp_path / "e.json", fingerprint="fp")
        assert same_bits(back.active, est.active) and same_bits(back.k, est.k)

    @settings(max_examples=60, deadline=None)
    @given(w=st.sampled_from([2, 3, 4]), scope=st.sampled_from(["output", "all"]),
           data=st.data())
    def test_estimate_arrays_round_trip(self, w, scope, data):
        # Every array, M and so total_pl read back bit for bit, whatever the support:
        # empty rows, no coupling at all, active couplings of exactly 0.
        dims = tm.Dimensions(w=w)
        rows = dims.n if scope == "all" else dims.n_half
        grid = (rows, dims.n - 1)
        active = data.draw(st.one_of(arrays(np.bool_, grid), st.just(np.zeros(grid, bool))))
        values = data.draw(arrays(np.float64, grid, elements=st.one_of(st.just(0.0), FINITE)))
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        est = tm.CouplingEstimate(
            dims=dims, scope=scope, direction=data.draw(st.sampled_from(["forward", "reversed"])),
            a=data.draw(arrays(np.float64, rows, elements=positive)),
            k=np.where(active, values, 0.0), active=active,
            row_objectives=data.draw(arrays(np.float64, rows, elements=FINITE)),
            m_samples=data.draw(st.one_of(st.none(), st.integers(1, 10 ** 6))),
            dataset_fingerprint="0" * 16)
        with tempfile.TemporaryDirectory() as tmp:
            tio.write_estimate(est, Path(tmp) / "e.json", fingerprint="fp", dataset_sha256="x")
            back = tio.read_estimate(Path(tmp) / "e.json", fingerprint="fp")
        for name in ("a", "k", "active", "row_objectives"):
            assert same_bits(getattr(back, name), getattr(est, name)), name
        assert back.m_samples == est.m_samples and repr(back.total_pl) == repr(est.total_pl)
        assert (back.dims, back.scope, back.direction) == (dims, scope, est.direction)

    def test_fingerprint_mismatch_rejected(self, tmp_path, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp-A",
                           dataset_sha256="x")
        with pytest.raises(tio.ChainError, match="fingerprint"):
            tio.read_estimate(tmp_path / "e.json", fingerprint="fp-B")

    def test_dataset_tamper_detected(self, tmp_path, channel4):
        ds = tm.generate_dataset(channel4, 10, tm.NoiseSpec(sigma=0.0), seed=1)
        tio.write_dataset(ds, tmp_path / "dataset.csv", fingerprint="fp")
        data = (tmp_path / "dataset.csv").read_text()
        (tmp_path / "dataset.csv").write_text(data.replace("0.", "1.", 1))
        with pytest.raises(tio.ChainError, match="checksum"):
            tio.read_dataset(tmp_path, fingerprint="fp")

    @pytest.mark.parametrize("reader", ["matrix", "estimate", "json"])
    def test_readers_verify_before_parsing(self, tmp_path, data4_noisy, channel4, reader):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        name, write, read = {
            "matrix": ("m.csv", lambda p: tio.write_matrix(channel4.entries, p),
                       lambda p: tio.read_matrix(p, channel4.dims)),
            "estimate": ("e.json", lambda p: tio.write_estimate(
                est, p, fingerprint="fp", dataset_sha256="x"), tio.read_estimate),
            "json": ("d.json", lambda p: tio.write_json_artifact({"q": 0.5}, p, "fp"),
                     tio.read_json_artifact),
        }[reader]
        write(tmp_path / name)
        read(tmp_path / name)
        raw = (tmp_path / name).read_bytes()
        # A byte that parses the same: only the manifest can tell.
        (tmp_path / name).write_bytes(raw + b"\n")
        with pytest.raises(tio.ChainError, match="checksum"):
            read(tmp_path / name)
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / name).write_bytes(raw)
        with pytest.raises(tio.ChainError, match="not registered"):
            read(tmp_path / "other" / name)

    def test_concurrent_registrations_keep_every_entry(self, tmp_path, monkeypatch):
        # Four stages register into one directory at once; each read of the
        # manifest pauses, so unlocked read-modify-writes overwrite each other.
        real = tio._load_manifest

        def slow_load(out_dir):
            man = real(out_dir)
            time.sleep(0.05)
            return man

        monkeypatch.setattr(tio, "_load_manifest", slow_load)
        names = [f"a{i}.json" for i in range(4)]
        workers = [threading.Thread(target=tio.register_artifacts,
                                    args=(tmp_path, {n: "0" * 64})) for n in names]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)
        assert sorted(json.loads((tmp_path / "MANIFEST.json").read_text())) == names


# Finite float64 values, weighted toward the cases a text codec gets wrong:
# signed zero, subnormals, extreme exponents and integral values.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1e-300, 1e300, 0.1, 1e16, 2.0 ** 53]),
    st.integers(-2 ** 60, 2 ** 60).map(float),
)


def reference_csv(table) -> bytes:
    """The per-value text the block writer must reproduce exactly."""
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n"
                   for row in table).encode()


class TestStreamingCodec:
    @settings(max_examples=60, deadline=None)
    @given(w=st.sampled_from([2, 3]), m=st.integers(1, 9), block=st.integers(1, 4),
           data=st.data())
    def test_block_writer_is_the_reference_text(self, w, m, block, data):
        nh = w * w
        inputs = data.draw(arrays(np.float64, (m, nh), elements=FINITE))
        outputs = data.draw(arrays(np.float64, (m, nh), elements=FINITE))
        ds = tm.Dataset(dims=tm.Dimensions(w=w), samples=np.hstack([inputs, outputs]))
        matrix = data.draw(arrays(np.float64, (nh, nh), elements=FINITE))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tio, "_BLOCK_VALUES", block * 2 * nh):
            out = Path(tmp)
            tio.write_dataset(ds, out / "dataset.csv", fingerprint="fp")
            raw = (out / "dataset.csv").read_bytes()
            assert raw == reference_csv(np.hstack([inputs, outputs]))
            back, _ = tio.read_dataset(out, fingerprint="fp")
            assert back.inputs.tobytes() == inputs.tobytes()
            assert back.outputs.tobytes() == outputs.tobytes()
            tio.write_matrix(matrix, out / "m.csv")
            assert (out / "m.csv").read_bytes() == reference_csv(matrix)
            assert same_bits(tio.read_matrix(out / "m.csv", ds.dims), matrix)

    def test_write_dataset_streams(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = tm.Dataset(dims=tm.Dimensions(w=4),
                        samples=np.hstack([rng.random((40000, 16)),
                                           rng.standard_normal((40000, 16))]))
        tracemalloc.start()
        try:
            tio.write_dataset(ds, tmp_path / "dataset.csv", fingerprint="fp")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = (tmp_path / "dataset.csv").stat().st_size
        assert text > 20e6
        # One block of text and its floats (~6 MB), never the whole table.
        assert peak < text / 3

    def test_write_does_not_reread_to_hash(self, tmp_path, channel4, data4_noisy,
                                           monkeypatch):
        ds = tm.generate_dataset(channel4, 30, tm.NoiseSpec(sigma=0.2), seed=3)
        est = tm.fit_all_rows(data4_noisy, scope="output")
        path, _ = tm.run_decimation(data4_noisy)
        monkeypatch.setattr(tio, "_HashingReader", mock.Mock(side_effect=AssertionError))
        tio.write_dataset(ds, tmp_path / "dataset.csv", fingerprint="fp")
        tio.write_matrix(channel4.entries, tmp_path / "m.csv")
        tio.write_matrix(channel4.entries, tmp_path / "m.npy")
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp", dataset_sha256="x")
        tio.write_path(path, tmp_path / "p.json", fingerprint="fp", sigma=0.1,
                       dataset_sha256="x")
        tio.write_json_artifact({"q": 0.5}, tmp_path / "d.json", "fp")
        tio.write_table(tmp_path / "t.csv", ("a", "b"), [(1, 0.5), (None, 2)])
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        names = ["d.json", "dataset.csv", "dataset.meta.json", "e.json", "m.csv",
                 "m.npy", "p.json", "t.csv"]
        assert sorted(manifest) == names
        for name in names:
            assert manifest[name] == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert (tmp_path / "t.csv").read_text() == "a,b\n1,0.5\n,2\n"

    def test_read_hashes_the_data_once(self, tmp_path, channel4, monkeypatch):
        # One open and one pass: the bytes hashed are the bytes parsed, and no
        # pass counts the lines first.
        ds = tm.generate_dataset(channel4, 30, tm.NoiseSpec(sigma=0.2), seed=3)
        opened, real = [], open

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return real(file, *args, **kwargs)

        for name in ("dataset.csv", "dataset.npy"):
            out = tmp_path / name[-3:]
            out.mkdir()
            tio.write_dataset(ds, out / name, fingerprint="fp")
            opened.clear()
            with monkeypatch.context() as patch:
                patch.setattr("builtins.open", recording_open)
                patch.setattr(tio._HashingReader, "rewind",
                              mock.Mock(side_effect=AssertionError))
                back, meta = tio.read_dataset(out, fingerprint="fp")
            assert opened.count(out / name) == 1
            assert meta == json.loads((out / "dataset.meta.json").read_text())
            assert back.inputs.tobytes() == ds.inputs.tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    def test_data_file_replaced_during_a_read(self, tmp_path, channel4, monkeypatch, binary):
        # Another dataset's file is renamed onto the data file right after a
        # read first opens it: the read returns the samples its metadata
        # records, never the replacement's.
        ds = tm.generate_dataset(channel4, 30, tm.NoiseSpec(sigma=0.2), seed=3)
        other = tm.generate_dataset(channel4, 30, tm.NoiseSpec(sigma=0.2), seed=4)
        name = data_file(tmp_path, binary).name
        (tmp_path / "other").mkdir()
        tio.write_dataset(ds, tmp_path / name, fingerprint="fp")
        tio.write_dataset(other, tmp_path / "other" / name, fingerprint="fp")
        real, replaced = open, []

        def open_then_replace(file, *args, **kwargs):
            fh = real(file, *args, **kwargs)
            if not replaced and isinstance(file, (str, Path)) and Path(file) == tmp_path / name:
                os.replace(tmp_path / "other" / name, tmp_path / name)
                replaced.append(file)
            return fh

        with monkeypatch.context() as patch:
            patch.setattr("builtins.open", open_then_replace)
            back, _ = tio.read_dataset(tmp_path, fingerprint="fp")
        assert replaced
        assert back.site_matrix().tobytes() == ds.site_matrix().tobytes()

    def test_verify_dataset_does_not_parse(self, tmp_path, channel4, monkeypatch):
        ds = tm.generate_dataset(channel4, 10, tm.NoiseSpec(sigma=0.0), seed=1)
        tio.write_dataset(ds, tmp_path / "dataset.csv", fingerprint="fp")
        # _load_table is the one parse entry; np.loadtxt reads only what it
        # leaves to it.
        monkeypatch.setattr(tio, "_load_table", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(np, "loadtxt", mock.Mock(side_effect=AssertionError))
        assert tio.verify_dataset(tmp_path, fingerprint="fp")["m_samples"] == 10
        with pytest.raises(tio.ChainError, match="fingerprint"):
            tio.verify_dataset(tmp_path, fingerprint="other")
        data = (tmp_path / "dataset.csv").read_text()
        (tmp_path / "dataset.csv").write_text(data.replace("0.", "1.", 1))
        with pytest.raises(tio.ChainError, match="checksum"):
            tio.verify_dataset(tmp_path, fingerprint="fp")

    def test_data_file_rewritten_after_its_metadata_is_refused(self, tmp_path, channel4):
        # Registered, but not the file the metadata recorded: both readers
        # refuse it on one path, with one message.
        ds = tm.generate_dataset(channel4, 10, tm.NoiseSpec(sigma=0.1), seed=1)
        tio.write_dataset(ds, tmp_path / "dataset.csv", fingerprint="fp")
        tio.write_matrix(np.flipud(ds.samples), tmp_path / "dataset.csv")
        message = "^dataset.csv does not match the checksum in its metadata$"
        for read in (tio.verify_dataset, tio.read_dataset):
            with pytest.raises(tio.ChainError, match=message):
                read(tmp_path, fingerprint="fp")


class TestCsvText:
    """The block writer's text is ``format(x, ".17g")`` byte for byte: the
    vectorised kernel for 1e-4 <= |x| < 1e15 and zeros, a ``%``-format of the
    row for any other value."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 6))
    def test_mixed_magnitudes(self, data, rows, cols):
        # Magnitudes 1e-6..1e17 put kernel rows and %-format rows in one block.
        exponents = data.draw(arrays(np.float64, (rows, cols), elements=st.floats(-6, 17)))
        negative = data.draw(arrays(np.bool_, (rows, cols)))
        table = np.where(negative, -1.0, 1.0) * 10.0 ** exponents
        assert b"".join(tio._csv_blocks(table)) == reference_csv(table)

    @pytest.mark.parametrize("exp10", range(-4, 15))
    def test_half_even_ties(self, exp10):
        # x = B * 2**-(17 - X), B odd: x * 10**(16 - X) = B * 5**(16 - X) / 2
        # lies halfway between two 17-digit integers.
        # B runs over the odd integers in [low, high), x over [10**X, 10**(X+1)).
        scale = 2 ** (17 - exp10)
        low, high = math.ceil(10.0 ** exp10 * scale), math.ceil(10.0 ** (exp10 + 1) * scale)
        odd = np.random.default_rng(exp10 + 4).integers(low // 2, (high - 1) // 2, 400) * 2 + 1
        table = np.ldexp(np.concatenate([odd, [low | 1, (high - 2) | 1]]).astype(np.float64),
                         -(17 - exp10)).reshape(-1, 6)
        assert all(Fraction(10) ** exp10 <= Fraction(x) < Fraction(10) ** (exp10 + 1)
                   for x in table.flat)
        assert b"".join(tio._csv_blocks(table)) == reference_csv(table)
        assert b"".join(tio._csv_blocks(-table)) == reference_csv(-table)

    def test_powers_of_ten_and_zeros(self):
        powers = 10.0 ** np.arange(-6, 18)
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                                 [0.0, -0.0, 100.0, 2.0 ** 53, 123456789012345.0, 5e-5]])
        table = np.concatenate([values, -values]).reshape(-1, 6)
        # A block holds fewer values than one row: each row is a block.
        with mock.patch.object(tio, "_BLOCK_VALUES", 3):
            assert b"".join(tio._csv_blocks(table)) == reference_csv(table)
        edges = np.array([1e-4, np.nextafter(1e15, 0), 0.0, -0.0,
                          np.nextafter(1e-4, 0), 1e15, np.nan, -np.inf])
        fits = tio._g17_slots(edges, np.empty((len(edges), 4), np.uint64))
        assert fits.tolist() == [True] * 4 + [False] * 4


def parse_fields(fields):
    """``(values, exact)`` of the reader's kernel on one line of ``fields``."""
    text = b",".join(fields) + b"\n"
    buf = bytearray(24 + len(text) + -len(text) % 8)
    buf[24:24 + len(text)] = text
    ends = 24 + np.cumsum([len(f) + 1 for f in fields]) - 1
    starts = np.concatenate([[24], ends[:-1] + 1])
    values = np.empty(len(fields))
    scratch = np.empty(tio._SCRATCH_ROWS * len(fields), np.uint64)
    exact = tio._parse_fields(np.frombuffer(buf, np.uint64), starts, ends, values, scratch)
    return values, exact


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def read_csv(path, shape):
    """``_read_csv``'s table of the CSV file ``path`` sized at ``shape``."""
    with tio._HashingReader(open(path, "rb", buffering=0)) as src:
        return tio._read_csv(src, shape)


def load_table(path, shape):
    """``_load_table``'s table of ``path``, sized at ``shape``."""
    with tio._HashingReader(open(path, "rb", buffering=0)) as src:
        return tio._load_table(src, path, shape)


# Decimal midpoints between adjacent doubles that have at most 18 significant
# digits: m = (2j + 1) * 2**(e - 1) with ulp 2**e, e >= -1.
def midpoint_fields(count, seed):
    rng = np.random.default_rng(seed)
    fields = []
    for e in range(-1, 7):
        for j in rng.integers(2 ** 52, 2 ** 53, count):
            m = Decimal(int(j)) * Decimal(2) ** e + Decimal(2) ** (e - 1)
            text = format(m, "f")
            fields.append(text.encode())
            # The decimal one unit of its last digit away on each side.
            unit = Decimal(1).scaleb(m.as_tuple().exponent)
            fields += [format(m - unit, "f").encode(), format(m + unit, "f").encode()]
    return fields


class TestCsvReader:
    """A CSV table reads back as ``np.loadtxt`` reads it, bit for bit: the
    block kernel for fields of its grammar it rounds with certainty, and
    ``np.loadtxt`` for every other row and every file of another structure."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 6),
           chunk=st.sampled_from([None, 200, 333]))
    def test_writer_text_reads_back(self, data, rows, cols, chunk):
        # Magnitudes 1e-30..1e30 of both signs and signed zeros put kernel
        # rows and %-format rows (exponents) in one block.
        exponents = data.draw(arrays(np.float64, (rows, cols), elements=st.floats(-30, 30)))
        negative = data.draw(arrays(np.bool_, (rows, cols)))
        zero = data.draw(arrays(np.bool_, (rows, cols)))
        table = np.where(negative, -1.0, 1.0) * np.where(zero, 0.0, 10.0 ** exponents)
        raw = b"".join(tio._csv_blocks(table))
        patch = mock.patch.object(tio, "_CSV_CHUNK", chunk or tio._CSV_CHUNK)
        with tempfile.TemporaryDirectory() as tmp, patch:
            path = Path(tmp) / "t.csv"
            path.write_bytes(raw)
            back = read_csv(path, table.shape)
            assert back is not None and back.flags.owndata
            assert same_bits(back, table)
            assert same_bits(back, np.loadtxt(path, delimiter=",", ndmin=2))

    def test_kernel_rounds_like_float(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([10.0 ** rng.uniform(-4, 15, 3000), rng.random(1000),
                                 rng.integers(0, 2 ** 62, 500).astype(np.float64)])
        fields = [format(v, ".17g").encode() for v in values]
        fields = [f for f in fields if b"e" not in f]
        fields += [b"-" + f for f in fields[::7]]
        fields += [b"0", b"-0", b"0.0", b"-0.000", b"5.", b".5", b"-.5", b"007", b"1.10",
                   b"999999999999999999", b"0.000000000000000000001",
                   b"0.000123456789012345678", b"12345678901234567.8",
                   b"-0.00012345678901234567", b"0.0000000000000000000001"]
        values, exact = parse_fields(fields)
        assert exact.all()
        expect = np.array([float(f) for f in fields])
        assert same_bits(values, expect)
        assert np.signbit(values).tolist() == [f.startswith(b"-") for f in fields]

    def test_midpoints_leave_the_kernel(self, tmp_path):
        # The first two round to even; the next two lie halfway to the double
        # below a power of two, where the spacing halves.
        fields = [b"9007199254740993", b"-9007199254740993", b"4503599627370495.75",
                  b"9007199254740991.5"] + midpoint_fields(40, 1)
        values, exact = parse_fields(fields)
        midpoint = [True] * 4 + [i % 3 == 0 for i in range(len(fields) - 4)]
        # Every midpoint goes to np.loadtxt; the decimals beside them do not.
        assert not exact[np.array(midpoint)].any()
        assert exact[~np.array(midpoint)].all()
        expect = np.array([float(f) for f in fields])
        assert same_bits(values[exact], expect[exact])
        # In a file, their rows go to np.loadtxt and read as float reads them.
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(b",".join(fields[i:i + 4]) + b"\n"
                                  for i in range(0, len(fields), 4)))
        assert same_bits(read_csv(path, (len(fields) // 4, 4)), expect.reshape(-1, 4))

    @pytest.mark.parametrize("field", [
        b"1234567890123456789",            # 19 significant digits
        b"0.1234567890123456789",
        b"12345678901234567890123",
        b"0.00000000000000000000001",      # 23 digits after the point
        b".00000000000000000000001",
        b"-0.0000000000000000000001",      # 25 bytes
        b"0.000000000000000000000000",     # 26 bytes, a zero
        b"1e5", b"+1", b" 1", b"1 ", b"nan", b"-inf", b"1.2.3", b"1-2", b".", b"-", b"",
        b"1:2", b"12?", b"/5", b"1/.5", b"--1",
    ])
    def test_fields_outside_the_grammar(self, field, tmp_path):
        _, exact = parse_fields([b"1", field, b"2"])
        assert exact.tolist() == [True, False, True]
        raw = b"1," + field + b",2\n3,4,5\n"
        (tmp_path / "t.csv").write_bytes(raw)
        try:
            expect = np.loadtxt(tmp_path / "t.csv", delimiter=",", ndmin=2)
        except ValueError as exc:
            with pytest.raises(tio.ChainError, match="t.csv does not parse") as got:
                load_table(tmp_path / "t.csv", (2, 3))
            assert str(exc) in str(got.value)
        else:
            assert same_bits(load_table(tmp_path / "t.csv", (2, 3)), expect)

    @settings(max_examples=40, deadline=None)
    @given(w=st.sampled_from([2, 3]), m=st.integers(1, 40), data=st.data())
    def test_block_boundaries_inside_rows(self, w, m, data):
        rng = np.random.default_rng(m)
        table = rng.standard_normal((m, 2 * w * w)) * 10.0 ** rng.integers(-6, 17, (m, 1))
        raw = b"".join(tio._csv_blocks(table))
        longest = max(map(len, raw.splitlines())) + 1
        chunk = data.draw(st.integers(longest, 3 * longest))
        # A block's fields go to the kernel in calls of at most _FIELDS.
        fields = data.draw(st.sampled_from([1, 7, tio._FIELDS]))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tio, "_CSV_CHUNK", chunk), \
                mock.patch.object(tio, "_FIELDS", fields):
            path = Path(tmp) / "t.csv"
            path.write_bytes(b"# a header\n" + raw)
            back = read_csv(path, table.shape)
            assert back is not None and same_bits(back, table)
            # A block that cannot hold a line leaves the file to np.loadtxt.
            with mock.patch.object(tio, "_CSV_CHUNK", longest - 9):
                assert read_csv(path, table.shape) is None
                assert same_bits(load_table(path, table.shape), table)

    @pytest.mark.parametrize("raw", [
        b"1,2\n\n3,4\n",                 # blank line
        b"1,2,\n3,4,\n",                 # trailing comma
        b"1,2\r\n3,4\r\n",               # CRLF
        b"1,2\r3,4\r",                   # CR
        b"1,2\n3,4",                     # no final newline
        b"1, 2\n3 ,4\n",                 # spaces
        b"\t1,2\n3,4\n",
        b"+1,2\n3,4\n",
        b".5,5.\n-.5,-5.\n",
        b"nan,1\n2,3\n",
        b"inf,-inf\n2,3\n",
        b"1,2\n# mid-file\n3,4\n",       # '#' after the leading lines
        b"1,2 # comment\n3,4\n",
        b"# 4 4 direct\n",               # a header-only matrix
        b"",
        b"1,2\n3\n",                     # ragged
        b"1,,2\n3,4,5\n",                # empty field
        b"1\n\n3\n",
        b"1,2\n   \n3,4\n",
        b"\xef\xbb\xbf1,2\n3,4\n",       # BOM
        b"1,2\xe9\n3,4\n",
        b"1_0,2\n3,4\n",
        b"# a\n# b\n-0,0\n0.0,-0.000\n",
    ])
    def test_hand_written_files_read_as_loadtxt_reads_them(self, tmp_path, raw):
        path = tmp_path / "h.csv"
        path.write_bytes(raw)
        # The reader sized by a shape that a caller could give: its lines by
        # the first line's fields, and np.loadtxt's own shape.
        shapes = [(raw.count(b"\n"), raw.split(b"\n")[0].count(b",") + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt: input contained no data
            try:
                expect = np.loadtxt(path, delimiter=",", ndmin=2)
            except ValueError as exc:
                for shape in shapes:
                    with pytest.raises(tio.ChainError, match="h.csv does not parse") as got:
                        load_table(path, shape)
                    assert str(exc) in str(got.value)
            else:
                for shape in (*shapes, expect.shape):
                    assert same_bits(load_table(path, shape), expect)


class TestSampleBufferIO:
    """Datasets are written from and read into one sample buffer, no copies.
    At w=4, M=40000 the buffer is 10.24 MB."""

    @pytest.fixture(scope="class")
    def big(self, channel4):
        return tm.generate_dataset(channel4, 40000, tm.NoiseSpec(sigma=0.1), seed=1)

    @pytest.mark.parametrize("binary", [False, True])
    def test_write_adds_no_copy_of_the_buffer(self, tmp_path, big, binary, traced_peak):
        _, peak = traced_peak(lambda: tio.write_dataset(big, data_file(tmp_path, binary), "fp"))
        assert peak < 2e6

    @pytest.mark.parametrize("binary", [False, True])
    def test_read_peaks_at_about_the_table(self, tmp_path, big, binary, traced_peak):
        tio.write_dataset(big, data_file(tmp_path, binary), "fp")
        (back, _), peak = traced_peak(lambda: tio.read_dataset(tmp_path, "fp"))
        assert peak < 1.3 * big.site_matrix().nbytes
        assert back.site_matrix().tobytes() == big.site_matrix().tobytes()
        assert np.shares_memory(back.inputs, back.site_matrix())
        assert not back.site_matrix().flags.writeable

    def test_npy_matrix_read_adopts_its_table(self, tmp_path, traced_peak):
        # The record takes the table the reader parsed and sealed, no copy.
        dims = tm.Dimensions(w=12)
        channel = tm.build_random_tm(dims, 0.2, seed=1)
        tio.write_matrix(channel.entries, tmp_path / "m.npy")
        back, peak = traced_peak(lambda: tio.read_matrix(tmp_path / "m.npy", dims))
        assert peak < 1.2 * channel.entries.nbytes  # 2.15x when the record copied
        assert same_bits(back, channel.entries)

    def test_tall_dataset_is_the_reference_text(self, tmp_path, big):
        tio.write_dataset(big, tmp_path / "dataset.csv", "fp")
        assert (tmp_path / "dataset.csv").read_bytes() == reference_csv(big.site_matrix())

    def test_npy_is_what_np_save_writes(self, tmp_path, data4_noisy, channel4):
        tio.write_dataset(data4_noisy, tmp_path / "dataset.npy", "fp")
        tio.write_matrix(channel4.entries, tmp_path / "m.npy")
        for name, a in (("dataset.npy", data4_noisy.site_matrix()), ("m.npy", channel4.entries)):
            ref = tmp_path / f"ref-{name}"
            np.save(ref, a)
            assert (tmp_path / name).read_bytes() == ref.read_bytes()


def with_defect(raw: bytes, binary: bool, case: str) -> bytes:
    """The data file ``raw`` with one defect of ``case``, in its own format."""
    if binary and case == "ragged":  # the npy counterpart: data short of its header
        return raw[:-8]
    if binary:
        table = np.load(io_module.BytesIO(raw))
    else:
        table = np.array([line.split(",") for line in raw.decode().splitlines()],
                         dtype=object)
    if case in ("nan", "-inf"):
        table[2, 3] = float(case) if binary else case
    elif case == "column":
        table = table[:, :-1]
    elif case == "row":
        table = table[:-1]
    if binary:
        buf = io_module.BytesIO()
        np.save(buf, table)
        return buf.getvalue()
    lines = [",".join(row) for row in table]
    if case == "ragged":
        lines[5] = lines[5].rsplit(",", 1)[0]
    return ("\n".join(lines) + "\n").encode()


class TestBadDatasetFiles:
    """A registered data file that does not hold the dataset its metadata
    describes is a broken chain: ChainError naming the file, CLI exit 1."""

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("case, message", [
        ("nan", "finite"), ("-inf", "finite"), ("ragged", "does not parse"),
        ("column", r"\(120, 31\) table.*\(120, 32\)"),
        ("row", r"\(119, 32\) table.*\(120, 32\)"),
    ])
    def test_bad_file_is_a_chain_error(self, tmp_path, capsys, binary, case, message):
        cfg = write_config(tmp_path, {"binary_io": binary})
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        name = "dataset.npy" if binary else "dataset.csv"
        data = with_defect((out / name).read_bytes(), binary, case)
        (out / name).write_bytes(data)
        register(out, name)
        meta = json.loads((out / "dataset.meta.json").read_text())
        meta["data_sha256"] = hashlib.sha256(data).hexdigest()
        (out / "dataset.meta.json").write_text(json.dumps(meta, indent=1) + "\n")
        register(out, "dataset.meta.json")
        with pytest.raises(tio.ChainError, match=f"{name}.*{message}"):
            tio.read_dataset(out)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        assert name in capsys.readouterr().err


class TestAtomicWrites:
    def test_failed_dataset_write_keeps_previous(self, tmp_path, channel4, monkeypatch):
        old = tm.generate_dataset(channel4, 5000, tm.NoiseSpec(sigma=0.1), seed=1)
        tio.write_dataset(old, tmp_path / "dataset.csv", fingerprint="fp")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = tio._csv_blocks

        def one_block_then_fail(*columns):
            yield next(real(*columns))
            raise OSError("disk full")

        monkeypatch.setattr(tio, "_csv_blocks", one_block_then_fail)
        new = tm.generate_dataset(channel4, 5000, tm.NoiseSpec(sigma=0.1), seed=2)
        with pytest.raises(OSError, match="disk full"):
            tio.write_dataset(new, tmp_path / "dataset.csv", fingerprint="fp")
        assert not list(tmp_path.glob("*.tmp"))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        assert tio.read_dataset(tmp_path, "fp")[0].inputs.tobytes() == old.inputs.tobytes()

    def test_failed_bytes_write_keeps_previous(self, tmp_path):
        target = tmp_path / "a.json"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with tio._atomic_open(target) as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

    def test_concurrent_writers_use_their_own_temp_files(self, tmp_path):
        target = tmp_path / "a.json"
        with tio._atomic_open(target) as first:
            first.write(b"first")
            with tio._atomic_open(target) as second:
                second.write(b"second")
            assert len(list(tmp_path.glob("*.tmp"))) == 1
        # Each writer renames its own complete file; the last rename wins.
        assert target.read_bytes() == b"first"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


class TestRecordedMoments:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_decimation_from_recorded_moments_matches_dataset(
            self, tmp_path, channel4, reverse):
        ds = tm.generate_dataset(channel4, 300, tm.NoiseSpec(sigma=0.1), seed=4)
        tio.write_dataset(ds, tmp_path / "dataset.csv", fingerprint="fp")
        ds, _ = tio.read_dataset(tmp_path, fingerprint="fp")
        if reverse:
            ds = tm.reverse_dataset(ds)
        full = tm.fit_all_rows(ds, scope="output")
        tio.write_estimate(full, tmp_path / "e.json", fingerprint="fp",
                           dataset_sha256="x", moments=tm.Moments.of(ds))
        initial, moments = tio.read_estimate(tmp_path / "e.json", fingerprint="fp",
                                             dataset_sha256="x", with_moments=True)
        assert moments.c.tobytes() == tm.Moments.of(ds).c.tobytes()
        assert (moments.dims, moments.direction, moments.m_samples) == \
            (ds.dims, ds.direction, ds.m_samples)
        assert moments.fingerprint == full.dataset_fingerprint

        ref_path, ref_best = tm.run_decimation(ds, initial=full)
        path, best = tm.run_decimation(moments, initial=initial)
        assert [r.k_free for r in path.records] == [r.k_free for r in ref_path.records]
        assert [r.total_pl for r in path.records] == [r.total_pl for r in ref_path.records]
        assert [r.bic for r in path.records] == [r.bic for r in ref_path.records]
        assert path.selected == ref_path.selected
        assert best.dataset_fingerprint == ref_best.dataset_fingerprint
        assert np.array_equal(best.row_objectives, ref_best.row_objectives)
        for r1, r2, m1, m2 in zip(best.rows, ref_best.rows, best.masks, ref_best.masks):
            assert r1.a == r2.a
            assert r1.k.tobytes() == r2.k.tobytes()
            assert np.array_equal(m1.active, m2.active)

    def test_old_estimate_without_moments(self, tmp_path, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp", dataset_sha256="x")
        assert tio.read_estimate(tmp_path / "e.json").total_pl == est.total_pl
        with pytest.raises(tio.ChainError, match="re-run fit"):
            tio.read_estimate(tmp_path / "e.json", with_moments=True)

    def test_estimate_without_m_is_refused_by_its_field_check(self, tmp_path, data4_noisy):
        # M is a registered field that Moments needs: with_moments checks it
        # with the file's other fields, and a file without one says re-run fit.
        est = tm.fit_all_rows(data4_noisy, scope="output")
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp",
                           dataset_sha256="x", moments=tm.Moments.of(data4_noisy))
        doc = json.loads((tmp_path / "e.json").read_text())
        del doc["m_samples"]
        (tmp_path / "e.json").write_text(json.dumps(doc))
        register(tmp_path, "e.json")
        assert tio.read_estimate(tmp_path / "e.json").m_samples is None
        with pytest.raises(tio.ChainError, match=r"^e.json holds a malformed m_samples, None: "
                           r"expected an integer \(tminfer < 0.3.0 wrote none; re-run fit\)$"):
            tio.read_estimate(tmp_path / "e.json", with_moments=True)

    def test_dataset_sha256_checked(self, tmp_path, data4_noisy):
        est = tm.fit_all_rows(data4_noisy, scope="output")
        tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp",
                           dataset_sha256="x", moments=tm.Moments.of(data4_noisy))
        with pytest.raises(tio.ChainError, match="different data"):
            tio.read_estimate(tmp_path / "e.json", dataset_sha256="y")

    def test_direction_must_match(self, tmp_path, data4_noisy):
        # The fingerprint hashes the direction, so moments of the swapped
        # samples are not those of a forward fit.
        est = tm.fit_all_rows(data4_noisy, scope="output")
        with pytest.raises(ValueError, match="fingerprints differ"):
            tio.write_estimate(est, tmp_path / "e.json", fingerprint="fp",
                               dataset_sha256="x",
                               moments=tm.Moments.of(data4_noisy).reversed())

    def test_m_must_match(self, tmp_path, data4_noisy):
        # The file records the estimate's M beside the moments' C: a reader
        # would take the pair for an edited file.
        est = tm.fit_all_rows(data4_noisy, scope="output")
        with pytest.raises(ValueError, match="fingerprints differ"):
            tio.write_estimate(dataclasses.replace(est, m_samples=est.m_samples + 1),
                               tmp_path / "e.json", fingerprint="fp", dataset_sha256="x",
                               moments=tm.Moments.of(data4_noisy))
        assert not (tmp_path / "e.json").exists()


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def chain(self, tmp_path, out, *, threads=1, extra_cfg=None):
        cfg = write_config(tmp_path, extra_cfg)
        common = ["--config", str(cfg), "--out", str(out), "--threads", str(threads)]
        for verb in ("generate", "fit", "select", "extract", "eval", "report"):
            assert self.run(verb, *common) == 0, verb
        return cfg

    def test_generate_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        for name in ("dataset.csv", "dataset.meta.json", "t_true.csv",
                     "MANIFEST.json"):
            assert (out / name).exists(), name

    def test_malformed_config_fails_atomically(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus_key": 1})
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists() or not list(out.iterdir())

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()

    def test_full_chain_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        for stage in STAGES:
            assert self.run(*stage.split(), "--config", str(cfg), "--out", str(out)) == 0, stage
        # The CSV chain's files are those the benchmark's tall-cli run records.
        recorded = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                               / "fingerprints.json").read_text())
        names = recorded["tall-cli"]["1"]["cli.manifest_files"]
        assert len(names) == 16
        assert sorted(json.loads((out / "MANIFEST.json").read_text())) == names
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "MANIFEST.json"])
        for name in ("path_table.csv", "path_table_reversed.csv"):
            table = (out / name).read_text().splitlines()
            assert table[0] == "k_free,sigma,total_pl,bic,selected_flag", name
            assert sum(row.endswith(",1") for row in table[1:]) == 1, name

    @pytest.mark.parametrize("sigma, verdict", [(0.1, "certified"), (0.0, "not certified")])
    def test_fit_prints_the_certificate(self, tmp_path, capsys, sigma, verdict):
        # All-sites rows use the whole C, which noise-free outputs make
        # singular.  On stdout only, so no artifact changes.
        cfg = write_config(tmp_path, {"sigma": sigma, "scope": "all"})
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        capsys.readouterr()
        for extra in ((), ("--reversed",)):
            assert self.run("fit", "--config", str(cfg), "--out", str(out), *extra) == 0
            ds, _ = tio.read_dataset(out)
            moments = tm.Moments.of(tm.reverse_dataset(ds) if extra else ds)
            captured = capsys.readouterr()
            assert (f"second moments C {verdict} positive definite, smallest pivot ratio "
                    f"{moments.pivot_ratio:.3g}\n") in captured.out
            assert captured.err == ""

    def test_output_fit_prints_the_input_block_certificate(self, tmp_path, capsys):
        # Output rows regress on inputs alone, so they use blocks of C_II: at
        # sigma 0 the forward C_II is certified although C is singular.
        cfg = write_config(tmp_path, {"sigma": 0.0})
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        capsys.readouterr()
        for extra in ((), ("--reversed",)):
            assert self.run("fit", "--config", str(cfg), "--out", str(out), *extra) == 0
            ds, _ = tio.read_dataset(out)
            moments = tm.Moments.of(tm.reverse_dataset(ds) if extra else ds)
            ratio = moments.input_pivot_ratio
            verdict = "certified" if ratio > CERTIFY_TOL else "not certified"
            assert extra or (moments.pivot_ratio <= CERTIFY_TOL < ratio)
            assert (f"second moments C_II {verdict} positive definite, smallest pivot "
                    f"ratio {ratio:.3g}\n") in capsys.readouterr().out

    def test_tampered_dataset_blocks_fit(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        raw = (out / "dataset.csv").read_text()
        (out / "dataset.csv").write_text(raw.replace("0.", "1.", 1))
        assert self.run("fit", "--config", str(cfg), "--out", str(out)) == 1

    def test_deleted_dataset_blocks_fit(self, tmp_path, capsys):
        # A registered file that is gone is a broken chain (exit 1), not a
        # runtime failure (exit 2).
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        (out / "dataset.csv").unlink()
        capsys.readouterr()
        assert self.run("fit", "--config", str(cfg), "--out", str(out)) == 1
        assert "dataset.csv is registered but missing" in capsys.readouterr().err

    def test_tampered_estimate_blocks_select(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        for verb in ("generate", "fit"):
            assert self.run(verb, "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "estimate_full.json").read_text())
        doc["a"][0] *= 2
        (out / "estimate_full.json").write_text(json.dumps(doc))
        assert self.run("select", "--config", str(cfg), "--out", str(out)) == 1

    def selected(self, tmp_path):
        """A config, its chain through select, and the selected estimate's JSON."""
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        for verb in ("generate", "fit", "select"):
            assert self.run(verb, "--config", str(cfg), "--out", str(out)) == 0
        return cfg, out, json.loads((out / "estimate_selected.json").read_text())

    # The case names before the arrays are those of the per-row layout that
    # the arrays replaced: a position is a support index, a row's values are
    # couplings, and "site" puts the rows under a scope of other sites.
    @pytest.mark.parametrize("case", [
        "position 999", "position -1", "repeated position", "descending positions",
        "position not an integer", "values short", "a zero", "a negative", "a nan",
        "value nan", "site", "row missing",
        "objective not a number", "m_samples not an integer", "direction", "support ragged",
        "support nested", "position a boolean", "position past int64",
        "couplings not numbers", "a not numbers", "couplings missing", "w 300"])
    def test_malformed_estimate_rows_are_a_chain_error(self, tmp_path, capsys, traced_peak,
                                                      case):
        cfg, out, doc = self.selected(tmp_path)
        support, couplings = doc["support"], doc["couplings"]
        assert len(support) >= 2
        if case == "position 999":
            support[-1] = 999  # the grid holds 16 * 31 = 496 entries
        elif case == "position -1":
            support[0] = -1
        elif case == "repeated position":
            support[1] = support[0]
        elif case == "descending positions":
            support.reverse()
            couplings.reverse()
        elif case == "position not an integer":
            support[0] = float(support[0])
        elif case == "values short":
            couplings.pop()
        elif case in ("a zero", "a negative", "a nan"):
            doc["a"][3] = {"a zero": 0.0, "a negative": -1.0, "a nan": math.nan}[case]
        elif case == "value nan":
            couplings[0] = math.nan
        elif case == "site":
            doc["scope"] = "all"
        elif case == "row missing":
            # The last row goes from every array, so its support fits the
            # smaller grid and only the row count is wrong.
            for key in ("a", "row_objectives"):
                doc[key].pop()
            kept = sum(i < 15 * 31 for i in support)
            del support[kept:], couplings[kept:]
        elif case == "objective not a number":
            doc["row_objectives"][3] = "0.5"
        elif case == "direction":
            doc["direction"] = "sideways"  # read as the inverse by extract_tm
        elif case == "support ragged":
            support[0] = [support[0]]
        elif case == "support nested":
            doc["support"] = [support]
        elif case == "position a boolean":
            support[0] = True  # numpy would read [true, 3] as [1, 3]
        elif case == "position past int64":
            support[-1] = 2 ** 70
        elif case == "couplings not numbers":
            couplings[0] = "0.5"
        elif case == "a not numbers":
            doc["a"][3] = None
        elif case == "couplings missing":
            del doc["couplings"]
        elif case == "w 300":
            doc["w"] = 300  # a (16, 179999) grid, were it sized before the rows are counted
        else:
            doc["m_samples"] = 120.0
        name = "estimate_selected.json"
        (out / name).write_text(json.dumps(doc))
        register(out, name)

        def refuse():
            with pytest.raises(tio.ChainError, match=f"{name} holds a malformed estimate"):
                tio.read_estimate(out / name)
        assert traced_peak(refuse)[1] < 10 ** 6  # 29.5 MB at w 300 when the grid came first
        capsys.readouterr()
        assert self.run("extract", "--config", str(cfg), "--out", str(out)) == 1
        assert f"{name} holds a malformed estimate" in capsys.readouterr().err
        assert not (out / "t_inf.csv").exists()

    @pytest.mark.parametrize("name, key, value", [
        ("dataset.meta.json", "m_samples", "400"),
        ("dataset.meta.json", "m_samples", 400.0),
        ("dataset.meta.json", "m_samples", True),
        ("dataset.meta.json", "m_samples", 0),
        ("dataset.meta.json", "w", "3"),
        ("dataset.meta.json", "w", None),
        ("dataset.meta.json", "data_file", 5),
        ("dataset.meta.json", "data_file", "../dataset.csv"),
        ("dataset.meta.json", "data_file", ".."),
        ("dataset.meta.json", "data_sha256", None),
        ("dataset.meta.json", "direction", 5),
        ("dataset.meta.json", "direction", "backward"),
        ("dataset.meta.json", "direction", MISSING),
        ("dataset.meta.json", "meta", ["seed"]),
        ("dataset.meta.json", "meta", MISSING),
        ("estimate_full.json", "m_samples", "500"),
        ("estimate_full.json", "m_samples", None),
        ("estimate_full.json", "m_samples", [1]),
        ("estimate_full.json", "m_samples", 400.0),
    ])
    def test_malformed_registered_field_is_a_chain_error(self, tmp_path, capsys,
                                                         name, key, value):
        # Every registered JSON field a reader uses is checked before it is
        # used: the stage reading it exits 1 with an error naming the file.
        cfg = write_config(tmp_path, {"w": 3})
        out = tmp_path / "run"
        before, stage = (("generate",), "fit") if name == "dataset.meta.json" else \
            (("generate", "fit"), "select")
        for verb in before:
            assert self.run(verb, "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / name).read_text())
        if value is MISSING:
            del doc[key]
        else:
            doc[key] = value
        (out / name).write_text(json.dumps(doc))
        register(out, name)
        capsys.readouterr()
        assert self.run(stage, "--config", str(cfg), "--out", str(out)) == 1
        assert f"{name} holds a malformed {key}" in capsys.readouterr().err
        if name == "dataset.meta.json":
            with pytest.raises(tio.ChainError, match=f"{name} holds a malformed {key}"):
                tio.verify_dataset(out)

    @pytest.mark.parametrize("name, stage", [("dataset.meta.json", "fit"),
                                             ("estimate_full.json", "select"),
                                             ("path.json", "report")])
    def test_registered_json_that_is_not_an_object_is_a_chain_error(self, tmp_path, capsys,
                                                                    name, stage):
        cfg = write_config(tmp_path, {"w": 3})
        out = tmp_path / "run"
        for verb in ("generate", "fit", "select"):
            assert self.run(verb, "--config", str(cfg), "--out", str(out)) == 0
        (out / name).write_text("[]")
        register(out, name)
        capsys.readouterr()
        assert self.run(stage, "--config", str(cfg), "--out", str(out)) == 1
        assert f"{name} is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        ("path.json", lambda doc: doc.pop("records"), "malformed records"),
        ("path.json", lambda doc: doc["records"][1].pop("bic"), "malformed records"),
        ("path.json", lambda doc: doc.update(selected=float(doc["selected"])),
         "malformed selected"),
        ("sweep.json", lambda doc: doc["records"].append({"sigma": 0.1, "q_bic": [0.5]}),
         "not a list of numbers or null"),
    ], ids=["no-records", "no-bic", "selected-float", "sweep-list-cell"])
    def test_malformed_report_input_is_a_chain_error(self, tmp_path, capsys, name, edit,
                                                     message):
        # report refuses a registered path.json or sweep.json that it cannot
        # tabulate (exit 1, naming the file), and writes no table.
        cfg = write_config(tmp_path, {"w": 2})
        out = tmp_path / "run"
        for verb in ("generate", "fit", "select"):
            assert self.run(verb, "--config", str(cfg), "--out", str(out)) == 0
        if name == "sweep.json":
            tio.write_json_artifact({"format": "tminfer-sweep", "records": []}, out / name,
                                    tio.config_fingerprint(tio.RunConfig.from_file(cfg)))
            (out / "path.json").unlink()
        doc = json.loads((out / name).read_text())
        edit(doc)
        (out / name).write_text(json.dumps(doc))
        register(out, name)
        capsys.readouterr()
        assert self.run("report", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"error: {name} holds" in err and message in err
        assert not list(out.glob("*_table.csv"))

    def test_estimate_written_by_0_15_0_feeds_select(self, tmp_path):
        # tminfer 0.15.0 wrote a per-row converged list into each estimate,
        # path.json an all_converged per record and extract.json its rows'
        # flags; the reader ignores the list, and select writes the same files.
        cfg = write_config(tmp_path)
        common = ("--config", str(cfg), "--out", str(tmp_path / "run"))
        out = tmp_path / "run"
        for verb in ("generate", "fit", "select", "extract"):
            assert self.run(verb, *common) == 0, verb
        assert "converged" not in json.loads((out / "estimate_full.json").read_text())
        assert "all_converged" not in json.loads((out / "path.json").read_text())["records"][0]
        assert "rows_converged" not in json.loads((out / "extract.json").read_text())
        written = {n: (out / n).read_bytes() for n in ("path.json", "estimate_selected.json")}
        doc = json.loads((out / "estimate_full.json").read_text())
        doc["converged"] = [True] * len(doc["a"])
        (out / "estimate_full.json").write_text(json.dumps(doc, indent=1) + "\n")
        register(out, "estimate_full.json")
        assert self.run("select", *common) == 0
        assert {n: (out / n).read_bytes() for n in written} == written

    def test_estimate_written_by_0_16_0_feeds_select_and_extract(self, tmp_path):
        # tminfer 0.16.0 wrote a total_pl into each estimate, and m_samples
        # only into a full one; the reader ignores the total and derives it.
        cfg, out, _ = self.selected(tmp_path)
        common = ("--config", str(cfg), "--out", str(out))
        assert self.run("extract", *common) == 0
        names = ("path.json", "estimate_selected.json", "t_inf.csv", "extract.json")
        written = {n: (out / n).read_bytes() for n in names}
        for name in ("estimate_full.json", "estimate_selected.json"):
            doc = json.loads((out / name).read_text())
            est = tio.read_estimate(out / name)
            m = doc.pop("m_samples")
            doc = {**doc, "total_pl": est.total_pl}
            if name == "estimate_full.json":
                doc["m_samples"] = m
            (out / name).write_text(json.dumps(doc, indent=1) + "\n")
            register(out, name)
        assert tio.read_estimate(out / "estimate_selected.json").m_samples is None
        assert self.run("extract", *common) == 0
        assert (out / "t_inf.csv").read_bytes() == written["t_inf.csv"]
        assert self.run("select", *common) == 0
        assert self.run("extract", *common) == 0
        assert {n: (out / n).read_bytes() for n in names} == written

    def test_reversed_estimate_written_by_0_18_0_feeds_select(self, tmp_path):
        # tminfer 0.18.0 wrote a copy of the reversed C into the reversed
        # estimate; the reader ignores it, and select --reversed writes the same files.
        cfg, out = self.fitted(tmp_path)
        common = ("--config", str(cfg), "--out", str(out))
        for verb in ("fit --reversed", "select --reversed"):
            assert self.run(*verb.split(), *common) == 0, verb
        names = ("path_reversed.json", "estimate_selected_reversed.json")
        written = {n: (out / n).read_bytes() for n in names}
        _, forward = tio.read_estimate(out / "estimate_full.json", with_moments=True)
        doc = json.loads((out / "estimate_full_reversed.json").read_text())
        doc["second_moments"] = forward.reversed().c.tolist()
        (out / "estimate_full_reversed.json").write_text(json.dumps(doc, indent=1) + "\n")
        register(out, "estimate_full_reversed.json")
        assert self.run("select", *common, "--reversed") == 0
        assert {n: (out / n).read_bytes() for n in names} == written

    @pytest.mark.parametrize("edit, code", [({"total_pl": None}, 0), ({"m_samples": 5}, 1)],
                             ids=["null-total", "other-m"])
    def test_select_reads_the_total_from_the_rows_and_m(self, tmp_path, capsys, edit, code):
        # The total is derived from row_objectives and m_samples: a stray
        # null total_pl is ignored, and another M fails the fingerprint,
        # which hashes the data's.
        cfg = write_config(tmp_path, {"w": 3, "density": 0.5, "m_samples": 400,
                                      "sigma": 0.1, "seed": 7})
        out = tmp_path / "run"
        common = ("--config", str(cfg), "--out", str(out))
        for verb in ("generate", "fit", "select"):
            assert self.run(verb, *common) == 0, verb
        clean = (out / "path.json").read_bytes()
        doc = json.loads((out / "estimate_full.json").read_text())
        (out / "estimate_full.json").write_text(json.dumps({**doc, **edit}))
        register(out, "estimate_full.json")
        capsys.readouterr()
        assert self.run("select", *common) == code
        if code:
            assert "estimate_full.json" in capsys.readouterr().err
        else:
            assert (out / "path.json").read_bytes() == clean

    def test_estimate_of_the_per_row_layout_is_refused(self, tmp_path, capsys):
        # tminfer <= 0.11.0 wrote one record per row instead of the arrays.
        cfg, out, doc = self.selected(tmp_path)
        est = tio.read_estimate(out / "estimate_selected.json")
        for key in ("a", "row_objectives", "support", "couplings"):
            del doc[key]
        doc["rows"] = [{"site": site, "a": float(est.a[r]),
                        "positions": np.flatnonzero(est.active[r]).tolist(),
                        "values": est.k[r][est.active[r]].tolist(),
                        "converged": True,
                        "objective": float(est.row_objectives[r])}
                       for r, site in enumerate(est.fitted_sites)]
        (out / "estimate_selected.json").write_text(json.dumps(doc))
        register(out, "estimate_selected.json")
        capsys.readouterr()
        assert self.run("extract", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "tminfer <= 0.11.0" in err and "re-run fit" in err
        assert not (out / "t_inf.csv").exists()

    def test_checksum_error_wins_over_a_malformed_estimate(self, tmp_path, capsys):
        cfg, out, doc = self.selected(tmp_path)
        doc["support"].reverse()
        (out / "estimate_selected.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run("extract", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "estimate_selected.json fails checksum validation" in err
        assert "malformed" not in err

    def test_config_change_between_stages_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        cfg2 = write_config(tmp_path, {"seed": 43}, "other.json")
        assert self.run("fit", "--config", str(cfg2), "--out", str(out)) == 1

    def test_missing_upstream_stage(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert self.run("generate", "--config", str(cfg), "--out", str(out)) == 0
        assert self.run("select", "--config", str(cfg), "--out", str(out)) == 1

    def test_gramian_needs_all_scope(self, tmp_path):
        # An output-scope estimate holds no input rows: extract writes no
        # Gramian and no balance, forward or reversed.
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        common = ("--config", str(cfg), "--out", str(out))
        for stage in ("generate", "fit", "select", "extract", "fit --reversed",
                      "select --reversed", "extract --reversed"):
            assert self.run(*stage.split(), *common) == 0, stage
        assert not list(out.glob("gramian_inf*"))
        for sfx in ("", "_reversed"):
            assert "balance" not in json.loads((out / f"extract{sfx}.json").read_text())

    def test_gramian_with_all_scope(self, tmp_path):
        # An all-sites estimate gives each direction its own Gramian file, and
        # each balance is the one the matrices on disk give.
        for binary in (False, True):
            cfg = write_config(tmp_path, {"scope": "all", "m_samples": 150,
                                          "binary_io": binary}, f"c{binary}.json")
            out = tmp_path / f"run{binary}"
            common = ("--config", str(cfg), "--out", str(out))
            for stage in ("generate", "fit", "select", "extract", "fit --reversed",
                          "select --reversed", "extract --reversed"):
                assert self.run(*stage.split(), *common) == 0, stage
            ext = ".npy" if binary else ".csv"
            for sfx, t_name in (("", "t_inf"), ("_reversed", "t_inv_inf")):
                u = tio.read_matrix(out / f"gramian_inf{sfx}{ext}", tm.Dimensions(w=4))
                t = tio.read_matrix(out / f"{t_name}{ext}", tm.Dimensions(w=4))
                gram = t.T @ t
                doc = json.loads((out / f"extract{sfx}.json").read_text())
                assert doc["balance"] == np.linalg.norm(u - gram) / np.linalg.norm(gram)
                names = (f"{t_name}{ext}", f"gramian_inf{sfx}{ext}")
                assert doc["matrix_sha256"] == {
                    n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}

    def test_reversed_flow_produces_inverse(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        self.chain(tmp_path, out)
        for verb in ("fit", "select", "extract"):
            assert self.run(verb, "--config", str(cfg), "--out", str(out),
                            "--reversed") == 0
        assert (out / "t_inv_inf.csv").exists()
        assert _read_recorded(tio.RunConfig.from_file(cfg), out, "extract_reversed.json",
                              "t_inv_inf.csv", "").role == "inverse"
        assert self.run("eval", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "eval.json").read_text())
        assert "q_image_inverse" in doc

    def test_binary_io_chain(self, tmp_path):
        # One config's whole chain in either format: the arrays read back bit
        # for bit alike, and eval reports the same numbers.
        runs = []
        for binary in (False, True):
            cfg = write_config(tmp_path, {"binary_io": binary}, f"config-{binary}.json")
            out = tmp_path / f"run-{binary}"
            for stage in STAGES:
                assert self.run(*stage.split(), "--config", str(cfg), "--out", str(out)) == 0
            suffix = ".npy" if binary else ".csv"
            arrays = [tio.read_dataset(out)[0].site_matrix()] + [
                tio.read_matrix(out / f"{name}{suffix}", tm.Dimensions(w=4))
                for name in ("t_true", "t_inf", "t_inv_inf")]
            runs.append((arrays, json.loads((out / "eval.json").read_text())))
            # A matrix file carries no role; eval gets the one its record names.
            run_cfg = tio.RunConfig.from_file(cfg)
            roles = [_read_recorded(run_cfg, out, doc, f"{name}{suffix}", "").role
                     for doc, name in (("dataset.meta.json", "t_true"),
                                       ("extract.json", "t_inf"),
                                       ("extract_reversed.json", "t_inv_inf"))]
            assert roles == ["direct", "direct", "inverse"], binary
        (csv_arrays, csv_eval), (npy_arrays, npy_eval) = runs
        assert all(same_bits(a, b) for a, b in zip(csv_arrays, npy_arrays, strict=True))
        assert csv_eval.pop("config_fingerprint") != npy_eval.pop("config_fingerprint")
        assert sum(isinstance(v, float) for v in csv_eval.values()) >= 5
        assert csv_eval == npy_eval

    def test_sweep_and_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sigma_grid": [0.0, 0.1], "replicates": 1, "m_samples": 150})
        out = tmp_path / "run"
        assert self.run("sweep", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert len(doc["records"]) == 2
        assert all("runtime_seconds" not in r for r in doc["records"])
        assert self.run("report", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "sweep_table.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_sweep_records_the_grid_it_ran(self, tmp_path):
        # Without a sigma_grid the sweep runs (sigma,) as a float: {"sigma": 0}
        # wrote "sigma_grid": [0] beside records holding 0.0.
        cfg = write_config(tmp_path, {"w": 2, "density": 0.5, "m_samples": 40, "sigma": 0,
                                      "replicates": 1})
        out = tmp_path / "run"
        assert self.run("sweep", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["sigma_grid"] == [r["sigma"] for r in doc["records"]] == [0.0]
        assert type(doc["sigma_grid"][0]) is float

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--scope", "all"], ["--binary-io"],
                                      ["--gramian"]], ids=lambda f: f[0])
    @pytest.mark.parametrize("verb", ["generate", "fit", "select", "extract", "eval",
                                      "sweep", "report"])
    def test_settings_come_from_the_config_only(self, tmp_path, verb, flag):
        # A flag would set a value that the config fingerprint never sees.
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            self.run(verb, "--config", str(write_config(tmp_path)), "--out", str(out),
                     *flag)
        assert exc.value.code == 2
        assert not out.exists()

    def test_eval_reads_the_matrices_the_config_names(self, tmp_path):
        # A CSV chain leaves registered t_*.csv files behind; a binary_io chain
        # with another sigma in the same directory must evaluate its own .npy
        # matrices, as in a fresh directory.
        stages = ("generate", "fit", "select", "extract", "fit --reversed",
                  "select --reversed", "extract --reversed")
        csv_cfg = write_config(tmp_path)
        npy_cfg = write_config(tmp_path, {"binary_io": True, "sigma": 0.3}, "npy.json")
        stale, fresh = tmp_path / "stale", tmp_path / "fresh"
        for cfg, out, run_stages in ((csv_cfg, stale, stages),
                                     (npy_cfg, stale, (*stages, "eval")),
                                     (npy_cfg, fresh, (*stages, "eval"))):
            for stage in run_stages:
                assert self.run(*stage.split(), "--config", str(cfg), "--out", str(out)) == 0
        assert (stale / "t_inf.csv").exists()
        assert (stale / "eval.json").read_bytes() == (fresh / "eval.json").read_bytes()

    def test_eval_refuses_a_matrix_another_config_left(self, tmp_path, capsys):
        # A sigma=0.1 chain through extract, then generate, fit and select in
        # the same directory under sigma=0.3: t_inf.csv is still sigma=0.1's.
        first = write_config(tmp_path)
        second = write_config(tmp_path, {"sigma": 0.3}, "second.json")
        out = tmp_path / "run"
        for cfg, stages in ((first, ("generate", "fit", "select", "extract")),
                            (second, ("generate", "fit", "select"))):
            for stage in stages:
                assert self.run(stage, "--config", str(cfg), "--out", str(out)) == 0
        capsys.readouterr()
        assert self.run("eval", "--config", str(second), "--out", str(out)) == 1
        assert "extract.json was produced under config fingerprint" in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("sfx, t_name", [("", "t_inf"), ("_reversed", "t_inv_inf")])
    def test_eval_refuses_a_rewritten_matrix(self, tmp_path, capsys, sfx, t_name):
        # A matrix registered after its extract: the manifest hash is not the
        # one extract recorded.
        out = tmp_path / "run"
        cfg = self.chain(tmp_path, out)
        common = ("--config", str(cfg), "--out", str(out))
        for stage in ("fit", "select", "extract"):
            assert self.run(stage, *common, "--reversed") == 0
        doc = json.loads((out / f"extract{sfx}.json").read_text())
        digest = hashlib.sha256((out / f"{t_name}.csv").read_bytes()).hexdigest()
        assert doc["matrix_sha256"] == {f"{t_name}.csv": digest}
        assert self.run("eval", *common) == 0
        tio.write_matrix(tio.read_matrix(out / "t_true.csv", tm.Dimensions(w=4)),
                         out / f"{t_name}.csv")
        capsys.readouterr()
        assert self.run("eval", *common) == 1
        assert f"{t_name}.csv is not the matrix its producing stage recorded" in \
            capsys.readouterr().err

    def test_eval_refuses_the_ground_truth_of_another_config(self, tmp_path, capsys):
        # A seed-42 chain through extract, then generate under seed 43 in the
        # same directory: t_true.csv is seed 43's channel.
        first = write_config(tmp_path)
        second = write_config(tmp_path, {"seed": 43}, "second.json")
        out = tmp_path / "run"
        for stage in ("generate", "fit", "select", "extract"):
            assert self.run(stage, "--config", str(first), "--out", str(out)) == 0
        assert self.run("generate", "--config", str(second), "--out", str(out)) == 0
        capsys.readouterr()
        assert self.run("eval", "--config", str(first), "--out", str(out)) == 1
        assert "dataset.meta.json was produced under config fingerprint" in \
            capsys.readouterr().err
        assert not (out / "eval.json").exists()

    def test_eval_needs_the_recorded_ground_truth_hash(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = self.chain(tmp_path, out)
        meta = json.loads((out / "dataset.meta.json").read_text())
        digest = hashlib.sha256((out / "t_true.csv").read_bytes()).hexdigest()
        assert meta["matrix_sha256"] == {"t_true.csv": digest}
        del meta["matrix_sha256"]
        (out / "dataset.meta.json").write_text(json.dumps(meta))
        register(out, "dataset.meta.json")
        (out / "eval.json").unlink()
        capsys.readouterr()
        assert self.run("eval", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "dataset.meta.json records no t_true.csv" in err and "re-run generate" in err
        assert not (out / "eval.json").exists()

    def test_eval_needs_recorded_matrix_hashes(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = self.chain(tmp_path, out)
        doc = json.loads((out / "extract.json").read_text())
        del doc["matrix_sha256"]
        (out / "extract.json").write_text(json.dumps(doc))
        register(out, "extract.json")
        capsys.readouterr()
        assert self.run("eval", "--config", str(cfg), "--out", str(out)) == 1
        assert "extract.json records no t_inf.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("doc_name, key, value", [
        ("extract.json", "matrix_sha256", ["t_inf.csv"]),
        ("extract.json", "matrix_sha256", "t_inf.csv"),
        ("dataset.meta.json", "matrix_sha256", ["t_true.csv"]),
        ("extract.json", "role", ["direct"]),
        ("extract.json", "role", 5),
    ])
    def test_eval_refuses_a_malformed_matrix_record(self, tmp_path, capsys, doc_name, key,
                                                    value):
        # The record eval reads a matrix under is checked before it is used:
        # exit 1 with an error naming the file, not a runtime failure.
        out = tmp_path / "run"
        cfg = self.chain(tmp_path, out)
        doc = json.loads((out / doc_name).read_text())
        doc[key] = value
        (out / doc_name).write_text(json.dumps(doc))
        register(out, doc_name)
        (out / "eval.json").unlink()
        capsys.readouterr()
        assert self.run("eval", "--config", str(cfg), "--out", str(out)) == 1
        assert f"{doc_name} holds a malformed {key}, {value!r}" in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    def test_dataset_fingerprint_guard_on_reversed_select(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        for verb in ("generate", "fit"):
            assert self.run(verb, "--config", str(cfg), "--out", str(out)) == 0
        # forward full fit cannot seed a reversed selection
        assert self.run("select", "--config", str(cfg), "--out", str(out),
                        "--reversed") == 1

    def fitted(self, tmp_path, overrides=None):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "run"
        for verb in ("generate", "fit"):
            assert self.run(verb, "--config", str(cfg), "--out", str(out)) == 0
        return cfg, out

    def test_forward_fit_registered_as_reversed_blocks_select(self, tmp_path, capsys):
        cfg, out = self.fitted(tmp_path)
        (out / "estimate_full_reversed.json").write_bytes(
            (out / "estimate_full.json").read_bytes())
        register(out, "estimate_full_reversed.json")
        assert self.run("select", "--config", str(cfg), "--out", str(out),
                        "--reversed") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: estimate_full_reversed.json: ")
        assert err.endswith("; re-run fit --reversed\n")
        assert not (out / "path_reversed.json").exists()

    @pytest.mark.parametrize("stage", ["select", "fit --reversed", "select --reversed"])
    @pytest.mark.parametrize("with_moments", [False, True], ids=["0.19.0", "0.18.0"])
    def test_reversed_fit_registered_as_the_forward_one_is_refused(self, tmp_path, capsys,
                                                                   stage, with_moments):
        # A reversed estimate holds no second moments since 0.19.0; one that
        # 0.18.0 wrote holds the reversed C, refused by its direction.
        cfg, out = self.fitted(tmp_path)
        assert self.run("fit", "--config", str(cfg), "--out", str(out), "--reversed") == 0
        doc = json.loads((out / "estimate_full_reversed.json").read_text())
        if with_moments:
            _, forward = tio.read_estimate(out / "estimate_full.json", with_moments=True)
            doc["second_moments"] = forward.reversed().c.tolist()
        (out / "estimate_full.json").write_text(json.dumps(doc))
        register(out, "estimate_full.json")
        capsys.readouterr()
        assert self.run(*stage.split(), "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: estimate_full.json ")
        assert ("fitted on the reversed dataset" if with_moments
                else "holds no second moments") in err

    def test_reversed_select_decimates_from_the_forward_record(self, tmp_path, capsys):
        # estimate_full.json records the run's one C: select --reversed needs
        # it registered, and decimates from its Moments.reversed(), starting
        # at the reversed estimate, which holds no copy.
        cfg, out = self.fitted(tmp_path)
        common = ("--config", str(cfg), "--out", str(out))
        assert self.run("fit", *common, "--reversed") == 0
        rev_doc = json.loads((out / "estimate_full_reversed.json").read_text())
        assert "second_moments" not in rev_doc and rev_doc["direction"] == "reversed"
        manifest = json.loads((out / tio.MANIFEST).read_text())
        del manifest["estimate_full.json"]
        (out / tio.MANIFEST).write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self.run("select", *common, "--reversed") == 1
        assert "error: estimate_full.json is not registered" in capsys.readouterr().err
        assert not (out / "path_reversed.json").exists()
        register(out, "estimate_full.json")
        assert self.run("select", *common, "--reversed") == 0
        run_cfg = tio.RunConfig.from_file(cfg)
        _, forward = tio.read_estimate(out / "estimate_full.json", with_moments=True)
        initial = tio.read_estimate(out / "estimate_full_reversed.json")
        path, best = tm.run_decimation(forward.reversed(), scope=run_cfg.scope,
                                       decim_opts=run_cfg.sweep_config().decim_opts,
                                       initial=initial)
        ref = tmp_path / "ref"
        ref.mkdir()
        fp, sha = tio.config_fingerprint(run_cfg), rev_doc["dataset_sha256"]
        tio.write_path(path, ref / "path_reversed.json", fingerprint=fp, sigma=run_cfg.sigma,
                       dataset_sha256=sha)
        tio.write_estimate(best, ref / "estimate_selected_reversed.json", fingerprint=fp,
                           dataset_sha256=sha)
        for name in ("path_reversed.json", "estimate_selected_reversed.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_rewritten_dataset_blocks_select(self, tmp_path, capsys):
        cfg, out = self.fitted(tmp_path)
        other = tm.generate_dataset(tm.build_random_tm(tm.Dimensions(w=4), 0.25, seed=1),
                                    120, tm.NoiseSpec(sigma=0.1), seed=2)
        fp = tio.config_fingerprint(tio.RunConfig.from_file(cfg))
        tio.write_dataset(other, out / "dataset.csv", fingerprint=fp)
        assert self.run("select", "--config", str(cfg), "--out", str(out)) == 1
        assert "fitted on different data" in capsys.readouterr().err

    def test_estimate_without_moments_blocks_select(self, tmp_path, capsys):
        cfg, out = self.fitted(tmp_path)
        doc = json.loads((out / "estimate_full.json").read_text())
        del doc["second_moments"], doc["m_samples"]
        (out / "estimate_full.json").write_text(json.dumps(doc))
        register(out, "estimate_full.json")
        assert self.run("select", "--config", str(cfg), "--out", str(out)) == 1
        assert "re-run fit" in capsys.readouterr().err

    @pytest.mark.parametrize("stages", [
        ("select",),
        ("fit --reversed", "select --reversed"),
        ("fit --reversed",),
    ], ids=["select", "select-reversed", "fit-reversed"])
    def test_select_never_parses_the_samples(self, tmp_path, monkeypatch, stages):
        # Only forward fit parses the samples; the stages after it continue
        # from the second moments recorded in estimate_full.json.
        cfg, out = self.fitted(tmp_path)
        common = ("--config", str(cfg), "--out", str(out))
        *prior, stage = stages
        for verb in prior:
            assert self.run(*verb.split(), *common) == 0
        before = (out / "dataset.csv").read_bytes()
        monkeypatch.setattr(tio, "read_dataset", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(tio, "_load_table", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(np, "loadtxt", mock.Mock(side_effect=AssertionError))
        assert self.run(*stage.split(), *common) == 0
        assert (out / "dataset.csv").read_bytes() == before
        reverse = "--reversed" in stage
        kind = "full" if stage.startswith("fit") else "selected"
        doc = json.loads((out / f"estimate_{kind}{'_reversed' * reverse}.json").read_text())
        assert doc["direction"] == ("reversed" if reverse else "forward")

    @pytest.mark.parametrize("w", [3, 4])
    def test_reversed_fit_matches_the_swapped_samples(self, tmp_path, w):
        # At odd w too, where S^T S of the swapped table has other last bits.
        cfg, out = self.fitted(tmp_path, {"w": w})
        assert self.run("fit", "--config", str(cfg), "--out", str(out), "--reversed") == 0
        est = tio.read_estimate(out / "estimate_full_reversed.json")
        _, forward = tio.read_estimate(out / "estimate_full.json", with_moments=True)
        rev = tm.reverse_dataset(tio.read_dataset(out)[0])
        ref = tm.fit_all_rows(rev, scope="output")
        assert forward.reversed().c.tobytes() == tm.Moments.of(rev).c.tobytes()
        assert est.dataset_fingerprint == ref.dataset_fingerprint
        assert est.total_pl == ref.total_pl
        for r1, r2 in zip(est.rows, ref.rows):
            assert r1.a == r2.a and r1.k.tobytes() == r2.k.tobytes()

    def test_reversed_fit_needs_the_forward_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        common = ("--config", str(cfg), "--out", str(out))
        assert self.run("generate", *common) == 0
        assert self.run("fit", *common, "--reversed") == 1
        assert "estimate_full.json is not registered" in capsys.readouterr().err
        assert not (out / "estimate_full_reversed.json").exists()

    @pytest.mark.parametrize("stage", ["select", "fit --reversed"])
    def test_edited_moments_block_the_next_stage(self, tmp_path, capsys, stage):
        cfg, out = self.fitted(tmp_path)
        doc = json.loads((out / "estimate_full.json").read_text())
        doc["second_moments"][1][2] *= 1.5
        doc["second_moments"][2][1] *= 1.5
        (out / "estimate_full.json").write_text(json.dumps(doc))
        register(out, "estimate_full.json")
        assert self.run(*stage.split(), "--config", str(cfg), "--out", str(out)) == 1
        assert "do not match its dataset_fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("name, stage", [
        ("t_true.csv", "eval"),
        ("t_inf.csv", "eval"),
        ("t_inv_inf.csv", "eval"),
        ("path.json", "report"),
        ("sweep.json", "report"),
        ("estimate_selected.json", "extract"),
        ("estimate_full_reversed.json", "select --reversed"),
    ])
    def test_tampered_input_blocks_its_consumer(self, tmp_path, capsys, name, stage):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        common = ("--config", str(cfg), "--out", str(out))
        for verb in ("generate", "fit", "select", "extract", "fit --reversed",
                     "select --reversed", "extract --reversed"):
            assert self.run(*verb.split(), *common) == 0, verb
        if name == "sweep.json":
            tio.write_json_artifact({"format": "tminfer-sweep", "records": []},
                                    out / name, tio.config_fingerprint(
                                        tio.RunConfig.from_file(cfg)))
        capsys.readouterr()
        with open(out / name, "ab") as fh:
            fh.write(b"\n")
        assert self.run(*stage.split(), *common) == 1
        assert "checksum" in capsys.readouterr().err

    def test_whole_chain_parses_the_samples_once(self, tmp_path, monkeypatch):
        # The config of the benchmark's CLI workload: a 25 MB CSV.
        cfg = write_config(tmp_path, {"w": 4, "density": 0.5, "m_samples": 40000,
                                      "sigma": 0.1, "seed": 3})
        common = ("--config", str(cfg), "--out", str(tmp_path / "run"))
        parse = mock.Mock(wraps=tio.read_dataset)
        monkeypatch.setattr(tio, "read_dataset", parse)
        for stage in STAGES:
            assert self.run(*stage.split(), *common) == 0, stage
        assert parse.call_count == 1

    def test_two_pixel_frame_chain(self, tmp_path):
        cfg = write_config(tmp_path, {"w": 2, "density": 0.5})
        common = ("--config", str(cfg), "--out", str(tmp_path / "run"))
        for stage in ("generate", "fit", "select", "extract", "fit --reversed",
                      "select --reversed", "extract --reversed", "eval"):
            assert self.run(*stage.split(), *common) == 0, stage
        doc = json.loads((tmp_path / "run" / "eval.json").read_text())
        assert all(np.isfinite(doc[k]) for k in ("q_focus", "q_image_pinv",
                                                 "q_image_inverse"))


def test_config_keeps_the_grid_its_sweep_stored(tmp_path):
    # SweepConfig stores the grid as floats, so JSON [0, 0.1] is (0.0, 0.1)
    # in the config and its fingerprint, as [0.0, 0.1] is.
    a, b = (tio.RunConfig.from_file(write_config(tmp_path, {"sigma_grid": grid}, f"{i}.json"))
            for i, grid in enumerate([[0, 0.1], [0.0, 0.1]]))
    assert a.sigma_grid is a.sweep_config().sigma_grid
    assert a.sigma_grid == (0.0, 0.1) and list(map(type, a.sigma_grid)) == [float, float]
    assert tio.config_fingerprint(a) == tio.config_fingerprint(b)


@pytest.mark.parametrize("stage", [*STAGES, "sweep"])
def test_density_that_cannot_draw_a_channel_is_refused_at_load(tmp_path, capsys, stage):
    # At w=2 the default density 0.2 draws 0.8 expected elements per row:
    # the config used to load, and generate failed drawing the channel.
    cfg = write_config(tmp_path, {"w": 2, "density": 0.2})
    with pytest.raises(tio.ConfigError, match="^density 0.2 gives an expected 0.8 "):
        tio.RunConfig.from_file(cfg)
    assert main([*stage.split(), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: density 0.2 gives an expected 0.8 active "
                                       "elements per row of 4; need density * n_half >= 1\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_extract_without_output_coupling_writes_null_balance(tmp_path, seed):
    # select keeps no output->input coupling of these all-sites chains, so
    # the balance has no scale; extract writes null, which strict JSON reads.
    cfg = write_config(tmp_path, {"w": 2, "density": 0.5, "m_samples": 20, "sigma": 2.0,
                                  "seed": seed, "scope": "all"})
    out = tmp_path / "run"
    for verb in ("generate", "fit", "select", "extract"):
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0, verb
    est = tio.read_estimate(out / "estimate_selected.json")
    assert not est.active[-est.dims.n_half:, :est.dims.n_half].any()
    doc = json.loads((out / "extract.json").read_text(),
                     parse_constant=lambda name: pytest.fail(f"extract.json holds {name}"))
    assert doc["balance"] is None


def test_chain_writes_strict_json(tmp_path):
    # Focusing through this noisy two-pixel channel leaves no positive
    # background, so the peak ratio is undefined: eval.json held the invalid
    # JSON Infinity and now holds null.  Every JSON artifact parses strictly.
    cfg = write_config(tmp_path, {"w": 2, "density": 0.5, "m_samples": 20, "sigma": 2.0,
                                  "seed": 2})
    out = tmp_path / "run"
    for stage in STAGES:
        assert main([*stage.split(), "--config", str(cfg), "--out", str(out)]) == 0, stage
    for path in sorted(out.glob("*.json")):
        json.loads(path.read_text(),
                   parse_constant=lambda name: pytest.fail(f"{path.name} holds {name}"))
    assert json.loads((out / "eval.json").read_text())["focus_peak_ratio"] is None


def test_no_thread_is_started(tmp_path, data4_noisy):
    # Rows are solved on the calling thread: a thread count is accepted and
    # ignored, so nothing may start a thread even when one asks for four.
    common = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"),
              "--threads", "4"]
    with mock.patch.object(threading.Thread, "start",
                           side_effect=AssertionError("a thread was started")):
        est = tm.fit_all_rows(data4_noisy, threads=4)
        path, best = tm.run_decimation(data4_noisy, threads=4)
        for verb in ("generate", "fit", "select"):
            assert main([verb, *common]) == 0, verb
    assert est.total_pl == tm.fit_all_rows(data4_noisy).total_pl
    assert best.n_active_couplings == path.selected_record.n_couplings


# Runs the stages argv[3:] of one chain in this process; exits 1 if one fails.
_CHAIN = """
import sys
from tminfer.cli import main
cfg, out = sys.argv[1], sys.argv[2]
for stage in sys.argv[3:]:
    if main([*stage.split(), "--config", cfg, "--out", out]) != 0:
        sys.exit(f"{stage} failed")
"""


def files_differing_across_blas_threads(tmp_path, overrides):
    """The files of the whole chain of ``overrides``' config whose bytes
    differ between OPENBLAS_NUM_THREADS 1 and 2, one subprocess each."""
    cfg = write_config(tmp_path, overrides)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = {}
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"blas{blas_threads}"
        res = subprocess.run([sys.executable, "-c", _CHAIN, str(cfg), str(out), *STAGES],
                             env=env, capture_output=True, text=True, timeout=1800)
        assert res.returncode == 0, (blas_threads, res.stderr)
        outs[blas_threads] = out
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["2"].iterdir())
    assert "t_inv_inf.csv" in names
    doc = json.loads((outs["1"] / "eval.json").read_text())
    assert doc["versions"]["blas_pinned"] == (tm.model._blas_threads() is not None)
    return [n for n in names if (outs["1"] / n).read_bytes() != (outs["2"] / n).read_bytes()]


def test_chain_identical_across_blas_threads(tmp_path):
    # At w=7, S^T S is split between BLAS threads; each stage runs on one
    # pinned thread, so every file has the same bytes at any thread count.
    assert not files_differing_across_blas_threads(
        tmp_path, {"w": 7, "density": 0.2, "m_samples": 1000, "sigma": 0.05, "seed": 5})


@pytest.mark.slow
def test_artifacts_identical_across_blas_threads(tmp_path):
    # Full-scale chains: criterion 10's data at w=12, and at w=15 and w=20
    # the samples' product too is split between BLAS threads, as are the
    # row solves above 100 regressors and eval's pinv and lstsq.
    for w, m in ((12, 5000), (15, 1000), (20, 1000)):
        run = tmp_path / f"w{w}"
        run.mkdir()
        assert not files_differing_across_blas_threads(
            run, {"w": w, "density": 0.2, "m_samples": m, "sigma": 0.05, "seed": 1}), w


def test_only_io_knows_the_artifact_contract():
    # cli says what to write and read; registration, verification and the
    # number format stay inside io.
    src = Path(__file__).resolve().parents[1] / "src" / "tminfer" / "cli.py"
    found = []
    for node in ast.walk(ast.parse(src.read_text())):
        # An attribute, a bare name, or an imported or defined name.
        name = next((getattr(node, a) for a in ("attr", "id", "name")
                     if isinstance(getattr(node, a, None), str)), "")
        private = isinstance(node, ast.Attribute) and ast.unparse(node.value) == "tio" \
            and name.startswith("_")
        if private or name in ("register_artifacts", "verify_artifact"):
            found.append(ast.unparse(node))
    assert not found


# Two configs that share one --out: CSV arrays with noise, .npy ones without.
WALK_CONFIGS = ({"w": 2, "density": 0.5, "m_samples": 60, "sigma": 0.1},
                {"w": 2, "density": 0.5, "m_samples": 60, "sigma": 0.0, "binary_io": True})


@pytest.fixture(scope="module")
def walk_chains(tmp_path_factory):
    """The walk's config files, and the clean chain of each config in a fresh
    directory for each pair of estimates that extract and extract --reversed
    may read (None: no inverse), keyed ``(config, forward, reversed)``."""
    tmp = tmp_path_factory.mktemp("walk")
    cfgs = [write_config(tmp, c, f"walk{i}.json") for i, c in enumerate(WALK_CONFIGS)]
    chains = {}
    for i, cfg in enumerate(cfgs):
        for fwd, rev in itertools.product(
                ("estimate_selected.json", "estimate_full.json"),
                ("estimate_selected_reversed.json", "estimate_full_reversed.json", None)):
            out = chains[i, fwd, rev] = tmp / f"clean{len(chains)}"
            skip = {"report", "select"} if fwd == "estimate_full.json" else {"report"}
            if rev is None:
                skip |= {"fit --reversed", "select --reversed", "extract --reversed"}
            elif rev == "estimate_full_reversed.json":
                skip.add("select --reversed")
            for stage in STAGES:
                if stage not in skip:
                    assert main([*stage.split(), "--config", str(cfg), "--out", str(out)]) == 0
    return cfgs, chains


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_walk_over_the_artifact_contract(tmp_path, walk_chains, seed):
    # Stages of one config and then the other, between deletions and copies
    # of files from either config's clean chains, registered as their stage
    # would register them.  A stage may refuse what it finds (exit 1), never
    # fail at run time (exit 2), and leaves no temp file; under a corrupt
    # manifest, put back after the move, it refuses.  An eval that
    # succeeds writes the eval.json of the clean chain of its config that
    # extracts from the estimates its extract*.json files name.
    cfgs, chains = walk_chains
    rng = random.Random(seed)
    out, i = tmp_path / "run", 0
    for _ in range(300):
        roll = rng.random()
        files = sorted(out.iterdir()) if out.exists() else []
        if roll < 0.1:
            i = 1 - i
        elif roll < 0.15 and files:
            rng.choice(files).unlink()
        elif roll < 0.6 and files:
            chain = rng.choice(list(chains.values()))
            names = [p.name for p in sorted(chain.iterdir()) if p.name != tio.MANIFEST]
            for name in rng.sample(names, rng.randint(1, 3)):
                (out / name).write_bytes((chain / name).read_bytes())
                register(out, name)
        else:  # one stage, or the chain from it on, up to the first refusal
            manifest = out / tio.MANIFEST
            good = manifest.read_bytes() if roll > 0.95 and manifest.exists() else None
            if good is not None:
                manifest.write_bytes(rng.choice([b"[]", good[:len(good) // 2]]))
            start = rng.randrange(len(STAGES))
            for stage in STAGES[start:len(STAGES) if rng.random() < 0.5 else start + 1]:
                code = main([*stage.split(), "--config", str(cfgs[i]), "--out", str(out)])
                assert code in ((0, 1) if good is None else (1,)), stage
                if code:
                    break
                if stage == "eval":
                    inv = out / ("t_inv_inf.npy" if WALK_CONFIGS[i].get("binary_io") else
                                 "t_inv_inf.csv")
                    fwd = json.loads((out / "extract.json").read_text())["source_estimate"]
                    rev = json.loads((out / "extract_reversed.json").read_text())[
                        "source_estimate"] if inv.exists() else None
                    assert (out / "eval.json").read_bytes() == \
                        (chains[i, fwd, rev] / "eval.json").read_bytes()
            if good is not None:
                manifest.write_bytes(good)
        assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("corrupt", [b"[]", b'{"dataset.csv": 1}', b'{"dataset.csv": "\xff"}',
                                     "truncated"])
def test_corrupt_manifest_is_refused_at_every_stage(tmp_path, capsys, walk_chains, corrupt):
    # Not JSON, not UTF-8, not an object, or a hash that is not a string:
    # every stage refuses it naming the file (exit 1, not a runtime failure
    # at exit 2), and none rewrites it.
    cfgs, chains = walk_chains
    out = tmp_path / "run"
    shutil.copytree(chains[0, "estimate_selected.json", "estimate_selected_reversed.json"], out)
    manifest = out / tio.MANIFEST
    if corrupt == "truncated":
        corrupt = manifest.read_bytes()[:-20]
    manifest.write_bytes(corrupt)
    for stage in STAGES:
        capsys.readouterr()
        assert main([*stage.split(), "--config", str(cfgs[0]), "--out", str(out)]) == 1, stage
        assert f"{tio.MANIFEST} is not a JSON object" in capsys.readouterr().err, stage
        assert manifest.read_bytes() == corrupt, stage
    with pytest.raises(tio.ChainError, match=tio.MANIFEST):
        register(out, "dataset.csv")
    assert manifest.read_bytes() == corrupt and not list(out.glob("*.tmp"))
