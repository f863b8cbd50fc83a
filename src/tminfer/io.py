"""Bit-stable file formats for datasets, matrices, estimates, paths, reports.

Text formats are comma-separated with reals printed at 17 significant digits
(exact float64 round trip); the optional binary variant stores arrays as .npy.
JSON artifacts embed the versions and the run-config fingerprint.  Each write
goes to a fresh temp file beside its target, is renamed onto it only when
complete and registers the sha256 it streamed in the directory's manifest,
under a lock; each read verifies its file against the manifest first, so
chained stages refuse tampered or mismatched inputs.  Large tables are
formatted, hashed and written in blocks, never held whole as text.

A dataset's data file is its (M, 2 w**2) sample buffer (``Dataset.site_matrix``),
one sample per row: ``write_dataset`` formats CSV blocks from slices of it or
streams the ``.npy`` header and its bytes, and ``read_dataset`` hands the
parsed table to ``Dataset`` as its buffer, so neither copies the samples.  A
data file that does not parse, holds a non-finite value or disagrees with its
metadata in shape raises ``ChainError`` naming the file.
"""

from __future__ import annotations

import fcntl
import hashlib
import io as _io
import itertools
import json
import math
import os
import secrets
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .model import Dataset, Dimensions, Moments, TransmissionMatrix
from .optimize import CouplingEstimate
from .pseudolikelihood import RowMask, RowParams
from .selection import DecimationOptions, DecimationPath

__all__ = [
    "ChainError",
    "ConfigError",
    "RunConfig",
    "config_fingerprint",
    "write_dataset",
    "verify_dataset",
    "read_dataset",
    "write_matrix",
    "read_matrix",
    "write_estimate",
    "read_estimate",
    "write_path",
    "write_json_artifact",
    "read_json_artifact",
    "write_table",
]

MANIFEST = "MANIFEST.json"
# Values formatted per block of a CSV table, and bytes per read when hashing
# and per block of a streamed .npy file.
_BLOCK_VALUES = 1 << 14
_HASH_CHUNK = 1 << 20
_VERSIONS = {"tminfer": __version__, "numpy": np.__version__}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class ChainError(ValueError):
    """Artifact fails checksum or fingerprint validation."""


def _csv_blocks(table: np.ndarray):
    """Encoded CSV lines of the rows of ``table``, in blocks of whole rows
    holding about ``_BLOCK_VALUES`` values.  One ``%``-format per block;
    ``"%.17g" % x`` is the same text as ``format(x, ".17g")``."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    step = max(1, _BLOCK_VALUES // table.shape[1])
    for start in range(0, table.shape[0], step):
        block = table[start:start + step]
        yield ((line * block.shape[0]) % tuple(block.ravel().tolist())).encode()


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def _atomic_open(path: Path):
    """Binary handle on a fresh temp file beside ``path``: renamed onto
    ``path`` when the block completes, removed when it raises.  The random
    name keeps concurrent writers of one target out of each other's files."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_blocks(path: Path, blocks) -> str:
    """Write the byte ``blocks`` to ``path`` atomically; return their sha256."""
    h = hashlib.sha256()
    with _atomic_open(path) as fh:
        for block in blocks:
            h.update(block)
            fh.write(block)
    return h.hexdigest()


def _npy_blocks(a: np.ndarray):
    """The bytes ``np.save`` writes for the C-contiguous ``a``: its header,
    then slices of a view of its memory, so the data is never copied."""
    header = _io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(a))
    yield header.getvalue()
    data = memoryview(a).cast("B")
    for start in range(0, len(data), _HASH_CHUNK):
        yield data[start:start + _HASH_CHUNK]


def _load_npy(path: Path) -> np.ndarray:
    """The array of an ``.npy`` file as ``_npy_blocks`` writes it (format 1.0,
    float64, C order), read into memory the array owns, so a dataset can take
    it as its sample buffer; ``np.load`` returns a reshaped view of a flat
    array instead.  ``ValueError`` for other content."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version != (1, 0):
            raise ValueError(f"npy format version {version} is not 1.0")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        if fortran_order or dtype != np.float64:
            raise ValueError(f"holds a {dtype} array in {'F' if fortran_order else 'C'} "
                             "order, not float64 in C order")
        table = np.empty(shape)
        if fh.readinto(memoryview(table).cast("B")) != table.nbytes or fh.read(1):
            raise ValueError(f"its data does not fill the {shape} array of its header")
    return table


def _write_artifact(path: Path, blocks) -> str:
    """Write the byte ``blocks`` to ``path`` atomically and register the
    sha256 they streamed in the manifest beside it; return that hash."""
    digest = _atomic_write_blocks(path, blocks)
    register_artifacts(path.parent, {path.name: digest})
    return digest


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config: "RunConfig") -> str:
    """Short stable hash of the validated configuration."""
    return _sha256_bytes(_canonical_json(config.to_dict()).encode())[:16]


def _load_manifest(out_dir: Path) -> dict:
    p = Path(out_dir) / MANIFEST
    return json.loads(p.read_text()) if p.exists() else {}


def register_artifacts(out_dir: str | Path, hashes: dict[str, str]) -> None:
    """Record the sha256 ``hashes`` of written artifacts in the manifest of
    ``out_dir``, locking the directory so concurrent stages keep every entry."""
    out = Path(out_dir)
    fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        man = _load_manifest(out)
        man.update(hashes)
        _atomic_write_blocks(out / MANIFEST, ((_canonical_json(man) + "\n").encode(),))
    finally:
        os.close(fd)


def verify_artifact(out_dir: str | Path, name: str) -> str:
    """Check ``name`` against its manifest hash and return that hash; raise
    ChainError if it is unregistered, missing or modified."""
    man = _load_manifest(out_dir)
    if name not in man:
        raise ChainError(f"{name} is not registered in {MANIFEST}; "
                         "run the producing stage first")
    try:
        actual = _sha256_file(Path(out_dir) / name)
    except FileNotFoundError:
        raise ChainError(f"{name} is registered but missing; "
                         "re-run the producing stage") from None
    if actual != man[name]:
        raise ChainError(f"{name} fails checksum validation (file was modified "
                         "after it was produced)")
    return actual


def _check_fingerprint(artifact: dict, expected: str, name: str) -> None:
    got = artifact.get("config_fingerprint")
    if got != expected:
        raise ChainError(
            f"{name} was produced under config fingerprint {got!r}, "
            f"current config is {expected!r}; refusing to mix runs")


# ---------------------------------------------------------------------------
# Run configuration


_DEC_KEYS = {"batch_fraction"}
_TOP_KEYS = {
    "w", "density", "m_samples", "sigma", "sigma_grid", "seed", "replicates",
    "scope", "binary_io", "include_balance",
    "spot_width", "spot_amplitude", "spot_background",
    "decimation",
}
_INT_KEYS = ("w", "m_samples", "seed", "replicates")
_REAL_KEYS = ("density", "sigma", "spot_width", "spot_amplitude", "spot_background")
_BOOL_KEYS = ("binary_io", "include_balance")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs for a whole run; unknown keys and mistyped values are
    rejected when the config is loaded, before any stage does work."""

    w: int
    density: float = 0.20
    m_samples: int = 500
    sigma: float = 0.0
    sigma_grid: tuple[float, ...] | None = None
    seed: int = 0
    replicates: int = 3
    scope: str = "output"
    binary_io: bool = False
    include_balance: bool = False
    spot_width: float = 1.2
    spot_amplitude: float = 0.004
    spot_background: float = 0.5
    decimation: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for keys, ok, kind in ((_INT_KEYS, _is_int, "an integer"),
                               (_REAL_KEYS, _is_real, "a finite number"),
                               (_BOOL_KEYS, lambda x: isinstance(x, bool), "true or false")):
            for key in keys:
                if not ok(getattr(self, key)):
                    raise ConfigError(f"{key} must be {kind}, got {getattr(self, key)!r}")
        if self.sigma_grid is not None and not (
                isinstance(self.sigma_grid, (list, tuple))
                and all(map(_is_real, self.sigma_grid))):
            raise ConfigError(f"sigma_grid must be a list of finite numbers, "
                              f"got {self.sigma_grid!r}")
        if not isinstance(self.decimation, dict):
            raise ConfigError(f"decimation must be an object, got {self.decimation!r}")
        if self.scope not in ("output", "all"):
            raise ConfigError(f"scope must be 'output' or 'all', got {self.scope!r}")
        if self.w < 2:
            raise ConfigError("w must be >= 2")
        if not 0.0 < self.density <= 1.0:
            raise ConfigError("density must lie in (0, 1]")
        if self.m_samples < 1:
            raise ConfigError("m_samples must be >= 1")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        bad = set(self.decimation) - _DEC_KEYS
        if bad:
            raise ConfigError(f"unknown decimation keys: {sorted(bad)}")
        try:
            object.__setattr__(self, "_decimation_options",
                               DecimationOptions(**self.decimation))
        except ValueError as exc:
            raise ConfigError(f"decimation: {exc}") from exc
        if self.sigma_grid is not None:
            object.__setattr__(self, "sigma_grid",
                               tuple(float(s) for s in self.sigma_grid))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if "optimizer" in raw:
            raise ConfigError("rows are now solved in closed form; the 'optimizer' "
                              "config section was removed")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "w" not in raw:
            raise ConfigError("config needs a 'w' entry")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["sigma_grid"] is not None:
            d["sigma_grid"] = list(d["sigma_grid"])
        return d

    @property
    def dims(self) -> Dimensions:
        return Dimensions(w=self.w)

    def decimation_options(self) -> DecimationOptions:
        return self._decimation_options


# ---------------------------------------------------------------------------
# Datasets


def write_dataset(ds: Dataset, out_dir: str | Path, fingerprint: str,
                  binary: bool = False) -> None:
    """Write dataset data + sidecar metadata into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = ds.site_matrix()
    if binary:
        data_name = "dataset.npy"
        blocks = _npy_blocks(samples)
    else:
        data_name = "dataset.csv"
        blocks = _csv_blocks(samples)
    data_sha256 = _write_artifact(out / data_name, blocks)
    meta = {
        "format": "tminfer-dataset",
        "versions": _VERSIONS,
        "w": ds.dims.w,
        "m_samples": ds.m_samples,
        "direction": ds.direction,
        "meta": ds.meta,
        "data_file": data_name,
        "data_sha256": data_sha256,
        "config_fingerprint": fingerprint,
    }
    write_json_artifact(meta, out / "dataset.meta.json", fingerprint)


def verify_dataset(out_dir: str | Path, fingerprint: str | None = None) -> dict:
    """Check ``dataset.meta.json`` and its data file against the manifest and
    against each other (and the fingerprint if given) without parsing the
    samples; return the verified metadata."""
    out = Path(out_dir)
    meta = read_json_artifact(out / "dataset.meta.json", fingerprint)
    data_name = meta["data_file"]
    if verify_artifact(out, data_name) != meta["data_sha256"]:
        raise ChainError(f"{data_name} does not match the checksum in its metadata")
    return meta


def read_dataset(out_dir: str | Path, fingerprint: str | None = None) -> tuple[Dataset, dict]:
    """Read a dataset back, verifying checksums (and fingerprint if given).

    The parsed table becomes the dataset's sample buffer without a copy.
    Returns ``(dataset, meta)``, ``meta`` being the verified
    ``dataset.meta.json`` content.  Raises ``ChainError`` naming the data file
    when it does not parse (ragged rows, say), holds a table of another shape
    than ``meta`` gives, or holds a non-finite value.
    """
    out = Path(out_dir)
    meta = verify_dataset(out, fingerprint)
    data_name = meta["data_file"]
    try:
        if data_name.endswith(".npy"):
            table = _load_npy(out / data_name)
        else:
            table = np.loadtxt(out / data_name, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ChainError(f"{data_name} does not parse: {exc}") from None
    dims = Dimensions(w=meta["w"])
    shape = (meta["m_samples"], dims.n)
    if table.shape != shape:
        raise ChainError(f"{data_name} holds a {table.shape} table; its metadata "
                         f"gives {shape}")
    table.flags.writeable = False
    try:
        ds = Dataset(dims=dims, inputs=table[:, :dims.n_half], outputs=table[:, dims.n_half:],
                     direction=meta["direction"], meta=meta["meta"])
    except ValueError as exc:
        raise ChainError(f"{data_name}: {exc}") from None
    return ds, meta


# ---------------------------------------------------------------------------
# Matrices


def write_matrix(tm: TransmissionMatrix, path: str | Path,
                 binary: bool = False) -> None:
    """One row per line, comma separated, '#'-prefixed shape/role header."""
    m = tm.entries
    if binary:
        blocks = _npy_blocks(m)
    else:
        header = f"# {m.shape[0]} {m.shape[1]} {tm.role}\n".encode()
        blocks = itertools.chain((header,), _csv_blocks(m))
    _write_artifact(Path(path), blocks)


def read_matrix(path: str | Path) -> TransmissionMatrix:
    """Read a registered square matrix of side w**2; a CSV must match its header."""
    path = Path(path)
    verify_artifact(path.parent, path.name)
    if path.suffix == ".npy":
        entries = _load_npy(path)
        role = "direct"
    else:
        with open(path) as fh:
            header = fh.readline()
        parts = header[1:].split()
        if not (header.startswith("#") and len(parts) >= 2
                and parts[0].isdigit() and parts[1].isdigit()):
            raise ChainError(f"{path} lacks the '# rows cols role' header")
        role = parts[2] if len(parts) > 2 else "direct"
        entries = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if entries.shape != (int(parts[0]), int(parts[1])):
            raise ChainError(f"{path} holds a {entries.shape} matrix, its header "
                             f"says ({parts[0]}, {parts[1]})")
    w = math.isqrt(entries.shape[0]) if entries.ndim == 2 else 0
    if entries.shape != (w * w, w * w):
        raise ChainError(f"{path} holds a {entries.shape} matrix; a transmission "
                         "matrix is square with a side of w**2")
    return TransmissionMatrix(dims=Dimensions(w=w), entries=entries, role=role)


# ---------------------------------------------------------------------------
# Estimates and decimation paths


def write_estimate(est: CouplingEstimate, path: str | Path, fingerprint: str,
                   dataset_sha256: str, moments: Moments | None = None) -> None:
    """Write ``est`` as JSON.  With ``moments``, the record of the data ``est``
    was fitted on, also record its sample count and exact second moments ``C``
    (JSON floats round-trip bit for bit), all that a later fit or decimation
    needs to continue from the file without the samples."""
    if moments is not None and moments.fingerprint != est.dataset_fingerprint:
        raise ValueError("moments and estimate dataset fingerprints differ")
    rows = []
    for r, site in enumerate(est.fitted_sites):
        active = np.flatnonzero(est.masks[r].active)
        rows.append({
            "site": int(site),
            "a": est.rows[r].a,
            "positions": [int(p) for p in active],
            "values": [est.rows[r].k[p] for p in active],
            "converged": bool(est.converged[r]),
            "objective": est.row_objectives[r],
        })
    doc = {
        "format": "tminfer-estimate",
        "versions": _VERSIONS,
        "w": est.dims.w,
        "scope": est.scope,
        "direction": est.direction,
        "total_pl": est.total_pl,
        "dataset_fingerprint": est.dataset_fingerprint,
        "dataset_sha256": dataset_sha256,
        "config_fingerprint": fingerprint,
        "rows": rows,
    }
    if moments is not None:
        doc["m_samples"] = moments.m_samples
        doc["second_moments"] = moments.c.tolist()
    write_json_artifact(doc, path, fingerprint)


def read_estimate(path: str | Path, fingerprint: str | None = None,
                  dataset_sha256: str | None = None, with_moments: bool = False):
    """Read a registered estimate, checking the config fingerprint and the
    sha256 of the data file it was fitted on when they are given.

    Returns the ``CouplingEstimate``, or ``(estimate, Moments)`` with
    ``with_moments``: the record of the fitted data that ``write_estimate``
    stored (``ChainError`` if the file holds none, or one of other data).
    """
    name = Path(path).name
    doc = read_json_artifact(path, fingerprint)
    if doc.get("format") != "tminfer-estimate":
        raise ChainError(f"{path} is not an estimate artifact")
    if dataset_sha256 is not None and doc.get("dataset_sha256") != dataset_sha256:
        raise ChainError(f"{name} was fitted on different data")
    dims = Dimensions(w=doc["w"])
    n = dims.n
    rows, masks, conv, objs, sites = [], [], [], [], []
    for rec in doc["rows"]:
        k = np.zeros(n - 1)
        act = np.zeros(n - 1, dtype=bool)
        pos = np.asarray(rec["positions"], dtype=int)
        if pos.size:
            k[pos] = rec["values"]
            act[pos] = True
        sites.append(rec["site"])
        rows.append(RowParams(site=rec["site"], a=rec["a"], k=k))
        masks.append(RowMask(site=rec["site"], active=act))
        conv.append(rec["converged"])
        objs.append(rec["objective"])
    est = CouplingEstimate(
        dims=dims,
        scope=doc["scope"],
        direction=doc["direction"],
        fitted_sites=tuple(sites),
        rows=tuple(rows),
        masks=tuple(masks),
        converged=tuple(conv),
        row_objectives=tuple(objs),
        total_pl=doc["total_pl"],
        dataset_fingerprint=doc["dataset_fingerprint"],
    )
    if not with_moments:
        return est
    if "second_moments" not in doc or "m_samples" not in doc:
        raise ChainError(f"{name} holds no second moments (tminfer < 0.3.0 wrote "
                         "none); re-run fit")
    try:
        moments = Moments(dims=dims, direction=doc["direction"],
                          m_samples=doc["m_samples"],
                          c=np.array(doc["second_moments"], dtype=np.float64))
    except ValueError as exc:
        raise ChainError(f"{name}: {exc}") from exc
    if moments.fingerprint != est.dataset_fingerprint:
        raise ChainError(f"{name}: second_moments do not match its dataset_fingerprint "
                         "(edited, or written by tminfer < 0.5.0); re-run fit")
    return est, moments


def write_path(path_obj: DecimationPath, path: str | Path, fingerprint: str,
               sigma: float, dataset_sha256: str) -> None:
    """Scalar decimation-path columns; the selected estimate is stored apart."""
    records = [{
        "n_couplings": r.n_couplings,
        "k_free": r.k_free,
        "total_pl": r.total_pl,
        "bic": r.bic,
        "all_converged": r.all_converged,
    } for r in path_obj.records]
    doc = {
        "format": "tminfer-path",
        "versions": _VERSIONS,
        "sigma": sigma,
        "selected": path_obj.selected,
        "records": records,
        "dataset_sha256": dataset_sha256,
        "config_fingerprint": fingerprint,
    }
    write_json_artifact(doc, path, fingerprint)


# ---------------------------------------------------------------------------
# Generic JSON artifacts (extraction results, eval reports, sweep reports)


def write_json_artifact(doc: dict, path: str | Path, fingerprint: str) -> None:
    """Write ``doc`` as JSON, adding the versions and config ``fingerprint``;
    keys ``doc`` already holds keep their place in the file."""
    doc = dict(doc)
    doc.setdefault("versions", _VERSIONS)
    doc["config_fingerprint"] = fingerprint
    _write_artifact(Path(path), ((json.dumps(doc, indent=1) + "\n").encode(),))


def read_json_artifact(path: str | Path, fingerprint: str | None = None) -> dict:
    """Read a registered JSON artifact, checking ``fingerprint`` if given."""
    path = Path(path)
    verify_artifact(path.parent, path.name)
    doc = json.loads(path.read_text())
    if fingerprint is not None:
        _check_fingerprint(doc, fingerprint, path.name)
    return doc


def write_table(path: str | Path, columns, rows) -> None:
    """A CSV report under a ``columns`` header: integers as ``str``, ``None``
    as an empty cell, other reals at 17 significant digits."""
    def cell(x) -> str:
        return "" if x is None else str(x) if isinstance(x, int) else format(x, ".17g")

    lines = [",".join(columns), *(",".join(map(cell, row)) for row in rows)]
    _write_artifact(Path(path), (("\n".join(lines) + "\n").encode(),))
