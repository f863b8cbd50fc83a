"""The three benchmark workloads.

Each workload derives its inputs from the seed alone, hands the program only
those inputs (a dataset, a CLI config file or a sweep config), and afterwards
turns what the program returned into answer quantities, a fingerprint and a
list of failed checks.

* ``wide-lib``: library ``infer_channel`` forward, then ``reverse_dataset`` and
  ``infer_channel`` again.  w=6 (36 rows x 36 regressors), M=2000, single
  thread: row solves driven by decimation, no file I/O.
* ``tall-cli``: the whole CLI chain through ``tminfer.cli.main`` with CSV
  artifacts.  w=4, M=40000: a ~25 MB CSV written once and parsed four times,
  and a tall site matrix copied per row solve; the one workload with ``io``
  and ``cli`` work, run with the thread pool.
* ``sweep-noise``: ``run_sweep`` over sigma (0, 0.05, 0.2) with the balance
  fit, M=1000: known-support and all-sites fits, exact-fit rows parked at the
  curvature cap, and the ``experiments`` evaluations.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import answer

CLI_STAGES = (
    ("generate", ()), ("fit", ()), ("select", ()), ("extract", ()),
    ("fit", ("--reversed",)), ("select", ("--reversed",)), ("extract", ("--reversed",)),
    ("eval", ()), ("report", ()),
)


def stage_name(verb: str, extra: tuple) -> str:
    return verb + ("_reversed" if "--reversed" in extra else "")


def derive_seeds(seed: int, workload: str, count: int) -> list[int]:
    """Independent 32-bit seeds for one workload, fixed by the benchmark seed."""
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return [int(s) for s in np.random.SeedSequence([seed, key]).generate_state(count)]


class Workload:
    name = ""
    threads = 1
    # Keep every dataset handed to run_decimation for the answer check.
    keep_datasets = False

    def __init__(self, seed: int, threads: int | None, work_dir: Path):
        self.seed = seed
        self.threads = self.threads if threads is None else threads
        self.work_dir = work_dir

    def setup(self, tm) -> None:
        """Build the inputs; counted in ``setup_s``."""

    def run(self, tm, recorder) -> None:
        """The timed part."""
        raise NotImplementedError

    def answer(self, tm, recorder) -> tuple[dict, dict, list[str]]:
        """(fingerprint, {q_direct, q_image}, failed checks)."""
        raise NotImplementedError


class WideLib(Workload):
    name = "wide-lib"
    w, m, sigma, density = 6, 2000, 0.05, 0.2

    def setup(self, tm) -> None:
        s_tm, s_data, self.s_img = derive_seeds(self.seed, self.name, 3)
        dims = tm.Dimensions(w=self.w)
        self.t_true = tm.build_random_tm(dims, self.density, seed=s_tm)
        self.ds = tm.generate_dataset(self.t_true, self.m, tm.NoiseSpec(sigma=self.sigma),
                                      seed=s_data)

    def run(self, tm, recorder) -> None:
        _, self.est_f, t_inf, _ = tm.infer_channel(self.ds, threads=self.threads)
        self.rev = tm.reverse_dataset(self.ds)
        _, self.est_r, t_inv, _ = tm.infer_channel(self.rev, threads=self.threads)
        self.t_inf, self.t_inv = t_inf.entries, t_inv.entries

    def answer(self, tm, recorder):
        errors = []
        if len(recorder.paths) != 2:
            return {}, {}, [f"expected 2 decimation paths, captured {len(recorder.paths)}"]
        fp = {}
        a_cap = tm.OptimOptions().a_cap
        for label, path, est, ds in (("fwd", recorder.paths[0], self.est_f, self.ds),
                                     ("rev", recorder.paths[1], self.est_r, self.rev)):
            errors += answer.check_path(label, path)
            if path.selected_record.estimate is not est:
                errors.append(f"{label}: captured path does not hold the returned estimate")
            errors += answer.check_oracle(label, est, ds.inputs, ds.outputs, a_cap)
            fp.update(answer.path_fingerprint(label, path))
        nz = int(np.count_nonzero(self.t_inf))
        if nz != fp["fwd.selected_couplings"]:
            errors.append(f"t_inf has {nz} nonzeros, selected record {fp['fwd.selected_couplings']}")
        t_true = self.t_true.entries
        q = {"q_direct": answer.quality_q(t_true, self.t_inf),
             "q_image": answer.image_q(t_true, self.t_inv, self.sigma, self.s_img)}
        fp.update(q)
        return fp, q, errors


class TallCli(Workload):
    name = "tall-cli"
    threads = 2
    w, m, sigma, density = 4, 40000, 0.1, 0.5

    def setup(self, tm) -> None:
        from tminfer import cli

        self.cli = cli
        self.cfg_seed, self.s_img = derive_seeds(self.seed, self.name, 2)
        self.out = self.work_dir / "out"
        self.config = self.work_dir / "config.json"
        self.config.write_text(json.dumps({
            "w": self.w, "density": self.density, "m_samples": self.m,
            "sigma": self.sigma, "seed": self.cfg_seed}))

    def run(self, tm, recorder) -> None:
        self.codes = []
        common = ["--config", str(self.config), "--out", str(self.out),
                  "--threads", str(self.threads)]
        with contextlib.redirect_stdout(sys.stderr):
            for verb, extra in CLI_STAGES:
                with recorder.span(f"cli.{stage_name(verb, extra)}", "cli"):
                    self.codes.append(self.cli.main([verb, *common, *extra]))

    def answer(self, tm, recorder):
        errors = [f"stage {stage_name(v, e)} exited {c}"
                  for (v, e), c in zip(CLI_STAGES, self.codes) if c != 0]
        fp = {"cli.exit_codes": list(self.codes)}
        manifest = json.loads((self.out / "MANIFEST.json").read_text())
        bad = [n for n, h in sorted(manifest.items())
               if hashlib.sha256((self.out / n).read_bytes()).hexdigest() != h]
        errors += [f"{n} fails its manifest hash" for n in bad]
        fp["cli.manifest_files"] = sorted(manifest)
        fp["cli.manifest_ok"] = not bad
        if len(recorder.paths) != 2:
            return fp, {}, errors + [f"expected 2 decimation paths, captured {len(recorder.paths)}"]

        dims = tm.Dimensions(w=self.w)
        t_true = tm.build_random_tm(dims, self.density, seed=self.cfg_seed)
        ds = tm.generate_dataset(t_true, self.m, tm.NoiseSpec(sigma=self.sigma),
                                 seed=self.cfg_seed + 1)
        rev = tm.reverse_dataset(ds)
        a_cap = tm.OptimOptions().a_cap
        for label, path, data, sfx in (("fwd", recorder.paths[0], ds, ""),
                                       ("rev", recorder.paths[1], rev, "_reversed")):
            errors += answer.check_path(label, path)
            doc = json.loads((self.out / f"path{sfx}.json").read_text())
            if ([r["k_free"] for r in doc["records"]] != [r.k_free for r in path.records]
                    or doc["selected"] != path.selected):
                errors.append(f"path{sfx}.json disagrees with the decimation path")
            est = path.selected_record.estimate
            if est.dataset_fingerprint != tm.optimize.dataset_fingerprint(data):
                errors.append(f"{label}: the regenerated dataset differs from the fitted one")
            else:
                errors += answer.check_oracle(label, est, data.inputs, data.outputs, a_cap)
            fp.update(answer.path_fingerprint(label, path))

        def matrix(name):
            return np.loadtxt(self.out / name, delimiter=",", comments="#", ndmin=2)

        if not np.array_equal(matrix("t_true.csv"), t_true.entries):
            errors.append("t_true.csv differs from the channel drawn from the config seed")
        t_inf, t_inv = matrix("t_inf.csv"), matrix("t_inv_inf.csv")
        q = {"q_direct": answer.quality_q(t_true.entries, t_inf),
             "q_image": answer.image_q(t_true.entries, t_inv, self.sigma, self.s_img)}
        fp.update(q)
        ev = json.loads((self.out / "eval.json").read_text())
        # Not q_image_pinv: the pseudo-inverse of a near-singular inferred
        # matrix reconstructs worse than zero (Q > 1), and that Q moved by 9%
        # with the row solver's last digits.
        for key in ("q_focus", "q_image_inverse"):
            fp[f"eval.{key}"] = float(ev[key])
        return fp, q, errors


class SweepNoise(Workload):
    name = "sweep-noise"
    w, m, density, grid = 4, 1000, 0.2, (0.0, 0.05, 0.2)
    keep_datasets = True  # built inside run_sweep; the oracle needs them
    # Q of the direct matrix at sigma=0 must show the channel was recovered.
    ZERO_NOISE_Q = 0.01

    def setup(self, tm) -> None:
        master, self.s_img = derive_seeds(self.seed, self.name, 2)
        self.config = tm.SweepConfig(
            dims=tm.Dimensions(w=self.w), density=self.density, m_samples=self.m,
            sigma_grid=self.grid, master_seed=master, replicates=1,
            include_balance=True, threads=self.threads)

    def run(self, tm, recorder) -> None:
        self.report = tm.run_sweep(self.config)

    def answer(self, tm, recorder):
        """Fingerprint per sigma; at sigma=0 only the decimation schedule.

        Noise-free rows are exact fits parked at the curvature cap, so the
        selected support, total PL and every Q at sigma=0 depend on how close
        the solver came to the cap (Q ~0.002 from L-BFGS, ~0 from an exact
        solve).  Those are checked by the oracle and ``ZERO_NOISE_Q`` instead,
        and the grid means (the metrics) are not fingerprinted.
        """
        recs = self.report.records
        errors = [f"sigma={r.sigma}: {r.failure}" for r in recs if r.failure]
        if errors:
            return {}, {}, errors
        if len(recorder.paths) != 2 * len(self.grid):
            errors.append(f"expected {2 * len(self.grid)} decimation paths, "
                          f"captured {len(recorder.paths)}")
            return {}, {}, errors
        if len(recorder.channels) != 1:
            return {}, {}, [f"expected 1 channel, captured {len(recorder.channels)}"]
        t_true = recorder.channels[0].entries
        a_cap = self.config.fit_opts.a_cap
        fp, q_direct, q_image = {}, [], []
        for i, rec in enumerate(recs):
            noisy = rec.sigma > 0.0
            for j, label in enumerate(("fwd", "rev")):
                path, ds = recorder.paths[2 * i + j], recorder.datasets[2 * i + j]
                where = f"sigma={rec.sigma} {label}"
                errors += answer.check_path(where, path)
                errors += answer.check_oracle(where, path.selected_record.estimate,
                                              ds.inputs, ds.outputs, a_cap)
                fp.update(answer.path_fingerprint(f"s{i}.{label}", path, selection=noisy))
            if recorder.paths[2 * i].selected_record.n_couplings != rec.selected_couplings:
                errors.append(f"sigma={rec.sigma}: record and path disagree on the support")
            t_inf = answer.extract_t(recorder.paths[2 * i].selected_record.estimate)
            t_inv = answer.extract_t(recorder.paths[2 * i + 1].selected_record.estimate)
            q_direct.append(answer.quality_q(t_true, t_inf))
            if abs(q_direct[-1] - rec.q_bic) > 1e-9 * q_direct[-1]:
                errors.append(f"sigma={rec.sigma}: reported q_bic {rec.q_bic!r}, "
                              f"recomputed {q_direct[-1]!r}")
            q_image.append(answer.image_q(t_true, t_inv, rec.sigma, self.s_img + i))
            if not noisy:
                if q_direct[-1] > self.ZERO_NOISE_Q:
                    errors.append(f"sigma=0: Q {q_direct[-1]:.4g} of the direct matrix is "
                                  f"above {self.ZERO_NOISE_Q}")
                continue
            # Not q_image_pinv, as on tall-cli.
            for key in ("q_bic", "q_true_support", "q_image_inverse", "q_focus",
                        "sigma_hat_mean", "balance"):
                fp[f"s{i}.{key}"] = float(getattr(rec, key))
        q = {"q_direct": float(np.mean(q_direct)), "q_image": float(np.mean(q_image))}
        return fp, q, errors


WORKLOADS = {cls.name: cls for cls in (WideLib, TallCli, SweepNoise)}
