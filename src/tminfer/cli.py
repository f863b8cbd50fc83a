"""Command-line pipeline: generate, fit, select, extract, eval, sweep, report.

Each verb reads prior-stage files from the output directory, so any stage can
be re-run in isolation; only ``fit`` parses the samples, and it records their
second moments once, in ``estimate_full.json``: ``select`` continues from that
record, and the ``--reversed`` stages from its ``Moments.reversed()``.  The
``--reversed`` variants of fit/select/extract work on the input/output-swapped
data and produce the inverse-map artifacts (suffix ``_reversed``, matrix
``t_inv_inf``).  Every setting comes from the config file, whose fingerprint
every artifact records; ``binary_io`` names each array file (``_array_name``),
and ``eval`` reads each matrix only under the hash that the stage which wrote
it recorded: ``t_true`` under ``dataset.meta.json``'s, an extracted matrix
under its ``extract*.json``'s.
Exit codes: 0 success, 1 validation error (bad config, checksum/fingerprint
mismatch), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as tio
from .experiments import evaluate_channel, gaussian_spot, run_sweep
from .extraction import extract_gramian, extract_tm
from .model import (Moments, NoiseSpec, TransmissionMatrix, _one_blas_thread, build_random_tm,
                    generate_dataset)
from .optimize import CERTIFY_TOL, fit_all_rows
from .selection import run_decimation


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: rows are solved on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tminfer",
        description="Infer direct/inverse intensity transmission matrices from "
                    "random input/output samples.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        _add_common(p)
        if name in ("fit", "select", "extract"):
            p.add_argument("--reversed", action="store_true", dest="reversed_data",
                           help="work on the input/output-swapped dataset (inverse-map inference)")
    return parser


def _load(args) -> tuple[tio.RunConfig, Path, str]:
    cfg = tio.RunConfig.from_file(args.config)
    return cfg, Path(args.out), tio.config_fingerprint(cfg)


def _array_name(cfg: tio.RunConfig, stem: str) -> str:
    """The file name of the array artifact ``stem``: ``.npy`` under
    ``binary_io``, CSV otherwise; ``io`` reads the format from the suffix."""
    return f"{stem}.npy" if cfg.binary_io else f"{stem}.csv"


def cmd_generate(args) -> int:
    """Draw a ground-truth channel and a synthetic dataset."""
    cfg, out, fp = _load(args)
    tm = build_random_tm(cfg.dims, cfg.density, seed=cfg.seed)
    ds = generate_dataset(tm, cfg.m_samples, NoiseSpec(sigma=cfg.sigma),
                          seed=cfg.seed + 1,
                          source=f"tminfer generate w={cfg.w} density={cfg.density}")
    out.mkdir(parents=True, exist_ok=True)
    t_name = _array_name(cfg, "t_true")
    # eval reads t_true only while its hash is the one the metadata records.
    t_sha256 = tio.write_matrix(tm.entries, out / t_name)
    tio.write_dataset(ds, out / _array_name(cfg, "dataset"), fingerprint=fp,
                      matrix_sha256={t_name: t_sha256})
    print(f"wrote {out}/{_array_name(cfg, 'dataset')}, dataset.meta.json, {t_name}")
    return 0


def _recorded_fit(out: Path, fp: str):
    """Verified dataset meta, forward full fit and the moments it records in
    ``estimate_full.json``, checked against the data hash."""
    meta = tio.verify_dataset(out, fingerprint=fp)
    est, moments = tio.read_estimate(out / "estimate_full.json", fingerprint=fp,
                                     dataset_sha256=meta["data_sha256"], with_moments=True)
    if moments.direction != "forward":
        raise tio.ChainError("estimate_full.json was fitted on the reversed dataset")
    return meta, est, moments


def cmd_fit(args) -> int:
    """Fit all rows under the full support mask."""
    cfg, out, fp = _load(args)
    sfx = "_reversed" if args.reversed_data else ""
    if sfx:  # the swapped samples' C is a block permutation of the forward C
        meta, _, forward = _recorded_fit(out, fp)
        moments = forward.reversed()
    else:
        ds, meta = tio.read_dataset(out, fingerprint=fp)
        moments = Moments.of(ds)
    est = fit_all_rows(moments, scope=cfg.scope)
    # The forward fit records C, so no later stage re-reads the samples.
    tio.write_estimate(est, out / f"estimate_full{sfx}.json", fingerprint=fp,
                       dataset_sha256=meta["data_sha256"], moments=None if sfx else moments)
    print(f"fit {len(est.a)} rows, total_pl={est.total_pl:.6g}")
    ratio = moments.input_pivot_ratio if cfg.scope == "output" else moments.pivot_ratio
    print(f"second moments {'C_II' if cfg.scope == 'output' else 'C'} "
          f"{'' if ratio > CERTIFY_TOL else 'not '}certified positive definite, "
          f"smallest pivot ratio {ratio:.3g}")
    return 0


def cmd_select(args) -> int:
    """Decimate from the full fit and pick the BIC-optimal support."""
    cfg, out, fp = _load(args)
    sfx = "_reversed" if args.reversed_data else ""
    meta, initial, moments = _recorded_fit(out, fp)
    if sfx:
        moments = moments.reversed()
        initial = tio.read_estimate(out / "estimate_full_reversed.json", fingerprint=fp,
                                    dataset_sha256=meta["data_sha256"])
    try:
        path, best = run_decimation(moments, scope=cfg.scope,
                                    decim_opts=cfg.sweep_config().decim_opts, initial=initial)
    except ValueError as exc:  # the full fit is not one of the recorded moments
        raise tio.ChainError(f"estimate_full{sfx}.json: {exc}; "
                             f"re-run fit{' --reversed' if sfx else ''}") from exc
    tio.write_path(path, out / f"path{sfx}.json", fingerprint=fp, sigma=cfg.sigma,
                   dataset_sha256=meta["data_sha256"])
    tio.write_estimate(best, out / f"estimate_selected{sfx}.json", fingerprint=fp,
                       dataset_sha256=meta["data_sha256"])
    rec = path.selected_record
    print(f"selected {rec.n_couplings} couplings (k_free={rec.k_free}, "
          f"bic={rec.bic:.6g}) out of {path.records[0].n_couplings}")
    return 0


def cmd_extract(args) -> int:
    """Extract the channel matrix and per-channel noise from an estimate, and
    the input Gramian and its balance from an all-sites one."""
    cfg, out, fp = _load(args)
    sfx = "_reversed" if args.reversed_data else ""
    name = f"estimate_selected{sfx}.json"
    if not (out / name).exists():
        name = f"estimate_full{sfx}.json"
    est = tio.read_estimate(out / name, fingerprint=fp)
    tm, noise = extract_tm(est)
    t_name = _array_name(cfg, "t_inv_inf" if est.direction == "reversed" else "t_inf")
    matrices = {t_name: tio.write_matrix(tm.entries, out / t_name)}
    doc = {
        "format": "tminfer-extract",
        "source_estimate": name,
        "role": tm.role,
        "sigma_hat": [float(s) for s in noise.sigma_hat],
        "beta_hat": [float(b) for b in noise.beta_hat],
    }
    if est.scope == "all":
        u, doc["balance"] = extract_gramian(est)
        g_name = _array_name(cfg, f"gramian_inf{sfx}")
        matrices[g_name] = tio.write_matrix(u, out / g_name)
    # eval reads a matrix only while its hash is the one recorded here.
    doc["matrix_sha256"] = matrices
    tio.write_json_artifact(doc, out / f"extract{sfx}.json", fingerprint=fp)
    print(f"extracted {t_name} ({tm.role}), mean sigma_hat="
          f"{float(np.mean(noise.sigma_hat)):.4g}")
    return 0


def _read_recorded(cfg: tio.RunConfig, out: Path, doc_name: str, name: str,
                   stage: str) -> TransmissionMatrix:
    """The matrix ``name`` that ``stage`` wrote under ``cfg``: the
    ``doc_name`` it wrote beside it must carry the config's fingerprint and
    record the hash the matrix is registered under now.  The file holds the
    entries only: ``cfg.dims`` sizes them and the record names the role (an
    ``extract*.json`` records one; ``t_true`` is ``direct``)."""
    doc = tio.read_json_artifact(out / doc_name, tio.config_fingerprint(cfg), (
        ("matrix_sha256", lambda v: v is None or type(v) is dict, "a JSON object"),
        ("role", lambda v: v in (None, "direct", "inverse"), "'direct' or 'inverse'")))
    recorded, role = doc.get("matrix_sha256") or {}, doc.get("role") or "direct"
    if name not in recorded:
        raise tio.ChainError(f"{doc_name} records no {name}; re-run {stage}")
    entries = tio.read_matrix(out / name, cfg.dims, sha256=recorded[name])
    return TransmissionMatrix(dims=cfg.dims, entries=entries, role=role)


def cmd_eval(args) -> int:
    """Run focusing and image-reconstruction experiments on extracted matrices."""
    cfg, out, fp = _load(args)
    t_true = _read_recorded(cfg, out, "dataset.meta.json", _array_name(cfg, "t_true"), "generate")
    t_inf = _read_recorded(cfg, out, "extract.json", _array_name(cfg, "t_inf"), "extract")
    inv = _array_name(cfg, "t_inv_inf")
    t_inv = _read_recorded(cfg, out, "extract_reversed.json", inv,
                           "extract --reversed") if (out / inv).exists() else None
    target = gaussian_spot(cfg.dims)
    doc = {
        "format": "tminfer-eval",
        "sigma": cfg.sigma,
        **evaluate_channel(t_true, t_inf, NoiseSpec(sigma=cfg.sigma), target,
                           cfg.seed + 101, cfg.seed + 102, t_inv=t_inv),
    }
    tio.write_json_artifact(doc, out / "eval.json", fingerprint=fp)
    print(f"eval: q_focus={doc['q_focus']:.4g}, q_image_pinv={doc['q_image_pinv']:.4g}")
    return 0


def cmd_sweep(args) -> int:
    """Full pipeline over the sigma grid, one record per (sigma, replicate)."""
    cfg, out, fp = _load(args)
    sweep = cfg.sweep_config()
    records = [asdict(r) for r in run_sweep(sweep).records]
    doc = {"format": "tminfer-sweep", "sigma_grid": list(sweep.sigma_grid),
           "replicates": cfg.replicates, "records": records}
    out.mkdir(parents=True, exist_ok=True)
    tio.write_json_artifact(doc, out / "sweep.json", fingerprint=fp)
    n_fail = sum(1 for r in records if r["failure"])
    print(f"sweep complete: {len(records)} records, {n_fail} failures")
    return 0


def _table_rows(name: str, doc: dict, cells) -> list[list]:
    """``cells(i, rec)`` for each record ``rec`` of the registered artifact
    ``name`` (``doc``); ChainError naming the file unless ``records`` is a
    list whose every cell that ``cells`` reads is there, a number or null."""
    records = doc.get("records")
    try:
        rows = [cells(i, rec) for i, rec in enumerate(records)]
    except (KeyError, TypeError, AttributeError) as exc:
        raise tio.ChainError(f"{name} holds malformed records: {exc!r}") from None
    if type(records) is not list or not all(
            x is None or type(x) in (int, float) for row in rows for x in row):
        raise tio.ChainError(f"{name} holds malformed records: not a list of numbers or null")
    return rows


def cmd_report(args) -> int:
    """Export plot-ready CSV tables from path/sweep artifacts."""
    cfg, out, fp = _load(args)
    wrote = []
    for sfx in ("", "_reversed"):
        pname = f"path{sfx}.json"
        if not (out / pname).exists():
            continue
        doc = tio.read_json_artifact(out / pname, fp, (
            ("selected", lambda v: type(v) is int, "an integer"),))
        rows = _table_rows(pname, doc, lambda i, rec: [
            rec["k_free"], doc["sigma"], rec["total_pl"], rec["bic"], int(i == doc["selected"])])
        if not 0 <= doc["selected"] < len(rows):
            raise tio.ChainError(f"{pname} holds a malformed selected, {doc['selected']!r}: "
                                 "expected the index of one of its records")
        tname = f"path_table{sfx}.csv"
        tio.write_table(out / tname, ["k_free", "sigma", "total_pl", "bic", "selected_flag"],
                        rows)
        wrote.append(tname)
    if (out / "sweep.json").exists():
        doc = tio.read_json_artifact(out / "sweep.json", fingerprint=fp)
        cols = ["sigma", "replicate", "q_bic", "q_true_support", "q_focus",
                "q_image_inverse", "q_image_pinv", "selected_couplings",
                "true_couplings", "balance"]
        tio.write_table(out / "sweep_table.csv", cols, _table_rows(
            "sweep.json", doc, lambda i, rec: [rec.get(c) for c in cols]))
        wrote.append("sweep_table.csv")
    if not wrote:
        raise tio.ChainError("nothing to report: no path.json or sweep.json in out dir")
    print(f"wrote {', '.join(wrote)}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "select": cmd_select,
    "extract": cmd_extract,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every BLAS call of a stage (pinv, lstsq and the products of eval
        # among them) runs on one thread, so its artifacts have the same
        # bits at any OPENBLAS_NUM_THREADS.
        with _one_blas_thread():
            return _COMMANDS[args.command](args)
    except ValueError as exc:  # a ConfigError or a ChainError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
