"""Domain types, ground-truth channel construction, and synthetic data generation.

The physical picture is a two-edge linear scattering channel: a w x w frame of
input intensities is scrambled into a w x w frame of output intensities,

    out[g] = sum_a T[g, a] * in[a] + sigma[g] * eps[g],

with ``T`` a dense nonnegative intensity transmission matrix and ``eps`` standard
normal channel noise.  Everything downstream (pseudolikelihood fitting,
decimation, extraction) operates on the concatenated site vector
``I = [in, out]`` of length ``n = 2 * w**2``; input channels occupy sites
``0 .. n_half-1`` and output channels sites ``n_half .. n-1``.

Every record (``TransmissionMatrix``, ``NoiseSpec``, ``Dataset``, ``Moments``,
``RowParams``, ``RowMask``, ``CouplingEstimate``, ``ChannelNoiseEstimate``)
takes its arrays by one rule, ``_frozen``: a read-only C-contiguous array of
its dtype that owns its memory, or views immutable ``bytes``, is adopted;
anything else is copied once and sealed, so no record shares memory with an
array its caller can write.  An adopted array's owner could still flip its
``writeable`` flag back.
Every count or seed a record holds is taken by one rule too, ``_count``: an
``int`` or a numpy integer, stored as an ``int``; a bool or a float is refused.

A ``Dataset`` is built from its samples, one read-only C-contiguous float64
``(M, n)`` table of site vectors; ``inputs`` and ``outputs`` are read-only
views of its left and right halves, and ``site_matrix()`` is the table
itself.  ``generate_dataset`` draws straight into such a table and
``io.read_dataset`` hands over the table it parsed, so neither copies the
samples.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Dimensions",
    "TransmissionMatrix",
    "NoiseSpec",
    "Dataset",
    "Moments",
    "build_random_tm",
    "transmit",
    "generate_dataset",
    "reverse_dataset",
]


# Values per block of random draws in ``generate_dataset``.
_DRAW_VALUES = 1 << 16


@functools.cache
def _blas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheel
    ships (``numpy.libs``, or ``numpy/.dylibs`` on macOS), found on first
    use; None where it ships none (Accelerate, MKL, a system BLAS)."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        blas = ctypes.CDLL(str(lib))
        # numpy 2 wheels ship scipy-openblas; numpy 1.2x wheels openblas64_.
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(blas, f"{prefix}_get_num_threads64_", None)
            put = getattr(blas, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _one_blas_thread:
    """``with _one_blas_thread():`` runs the block on one OpenBLAS thread.
    OpenBLAS splits a product or a factorisation between threads from some
    size on, and the bits of the result then depend on
    ``OPENBLAS_NUM_THREADS``; every call whose bits an artifact records runs
    under this pin.  No set call where the count is already 1; a no-op where
    ``_blas_threads`` finds no setter.  A class, not a generator: a row
    solve takes the pin, and this costs a third as much."""

    __slots__ = ("_threads",)

    def __enter__(self) -> None:
        calls = _blas_threads()
        self._threads = calls[0]() if calls is not None else 1
        if self._threads != 1:
            calls[1](1)

    def __exit__(self, *exc) -> None:
        if self._threads != 1:
            _blas_threads()[1](self._threads)


def _frozen(arr, dtype=np.float64) -> np.ndarray:
    """``arr`` itself if the module's rule adopts it, else a read-only
    C-contiguous ``dtype`` copy of it that shares no memory with ``arr``."""
    if (isinstance(arr, np.ndarray) and not arr.flags.writeable and arr.flags.c_contiguous
            and arr.dtype == dtype and (arr.flags.owndata or isinstance(arr.base, bytes))):
        return arr
    out = np.array(arr, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _count(value, name: str, minimum: int) -> int:
    """``value``, an ``int`` or a numpy integer of at least ``minimum``, as a
    Python ``int``; ValueError naming ``name`` for anything else (a bool, a float)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_density(density: float, dims: Dimensions) -> None:
    """ValueError unless ``density`` in (0, 1] draws a channel of ``dims``."""
    if not (0.0 < density <= 1.0):
        raise ValueError(f"density must lie in (0, 1], got {density!r}")
    if density * dims.n_half < 1.0:
        raise ValueError(f"density {density} gives an expected {density * dims.n_half:.3g} "
                         f"active elements per row of {dims.n_half}; need density * n_half >= 1")


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of the non-empty ``arr`` is finite, by min and max: no mask."""
    return math.isfinite(arr.min()) and math.isfinite(arr.max())


@dataclass(frozen=True)
class Dimensions:
    """Geometry of the square I/O frames.

    Attributes
    ----------
    w : int
        Pixels per side of the square input (and output) frame, >= 2 (``_count``).
    """

    w: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _count(self.w, "w", 2))

    @property
    def n_half(self) -> int:
        """Channels per side: w**2."""
        return self.w * self.w

    @property
    def n(self) -> int:
        """Total sites in the concatenated input+output vector: 2 * w**2."""
        return 2 * self.n_half


@dataclass(frozen=True)
class TransmissionMatrix:
    """Dense n_half x n_half intensity map between the two fiber ends.

    ``role`` records which direction the map describes: a ``direct`` matrix
    sends input intensities to output intensities, an ``inverse`` one sends
    outputs back to inputs.  Generated ground-truth direct matrices are
    nonnegative with unit row sums; inferred matrices carry no such guarantee.
    """

    dims: Dimensions
    entries: np.ndarray
    role: str = "direct"

    def __post_init__(self) -> None:
        if self.role not in ("direct", "inverse"):
            raise ValueError(f"role must be 'direct' or 'inverse', got {self.role!r}")
        object.__setattr__(self, "entries", _frozen(self.entries))
        nh = self.dims.n_half
        if self.entries.shape != (nh, nh):
            raise ValueError(f"entries must have shape ({nh}, {nh}), got {self.entries.shape}")
        if not _all_finite(self.entries):
            raise ValueError("transmission matrix entries must all be finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-output-channel Gaussian noise standard deviations.

    ``sigma`` may be a scalar (homogeneous noise) or a length-n_half vector.
    """

    sigma: float | np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _frozen(self.sigma))
        if self.sigma.ndim > 1:
            raise ValueError("sigma must be a scalar or a 1-d vector")
        if not (_all_finite(self.sigma) and self.sigma.min() >= 0):
            raise ValueError("sigma must be finite and nonnegative")

    def sigma_vector(self, n_half: int) -> np.ndarray:
        """Broadcast sigma to a length-``n_half`` vector."""
        s = self.sigma
        if s.ndim == 0:
            return np.full(n_half, float(s))
        if s.shape != (n_half,):
            raise ValueError(f"sigma vector has length {s.shape[0]}, expected {n_half}")
        return s.copy()


@dataclass(frozen=True)
class Dataset:
    """M paired intensity observations plus generation metadata.

    ``samples`` is the read-only C-contiguous float64 (M, n) table, row m
    holding the site vector ``[in, out]`` of sample m; ``inputs`` and
    ``outputs`` are read-only (M, n_half) views of its two halves.  The
    table is taken by the module's one rule, ``_frozen``.
    ``direction`` is ``forward`` for as-measured pairs and ``reversed`` when
    input/output have been swapped (the representation used to infer the
    inverse map).  ``meta`` carries seed, sigma, and a source description.
    Row fits read the data only through ``Moments.of(dataset)``, a record
    built on first use and kept on this dataset only: a copy, an unpickled
    dataset or a ``dataclasses.replace`` builds its own.
    """

    dims: Dimensions
    samples: np.ndarray
    direction: str = "forward"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "reversed"):
            raise ValueError(f"direction must be 'forward' or 'reversed', got {self.direction!r}")
        s = _frozen(self.samples)
        n = self.dims.n
        if s.ndim != 2 or s.shape[1] != n:
            raise ValueError(f"samples must have shape (M, {n})")
        if s.shape[0] < 1:
            raise ValueError("a dataset needs at least one sample")
        if not _all_finite(s):
            raise ValueError("dataset intensities must all be finite")
        object.__setattr__(self, "samples", s)

    def __reduce__(self):
        # Pickling and deep copies rebuild through the constructor, which
        # gives the copy its own read-only table (``_rebuild_dataset``).
        return _rebuild_dataset, (self.dims, self.samples, self.direction, self.meta)

    @property
    def inputs(self) -> np.ndarray:
        """Read-only (M, n_half) view of the input channels."""
        return self.samples[:, :self.dims.n_half]

    @property
    def outputs(self) -> np.ndarray:
        """Read-only (M, n_half) view of the output channels."""
        return self.samples[:, self.dims.n_half:]

    @property
    def m_samples(self) -> int:
        return self.samples.shape[0]

    def site_matrix(self) -> np.ndarray:
        """The read-only (M, n) sample table, one site vector per row; no copy."""
        return self.samples

    @cached_property
    def _moments(self) -> Moments:
        """``Moments.of(self)``, formed once."""
        s = self.site_matrix()
        with _one_blas_thread():
            c = s.T @ s
        c /= self.m_samples
        c.flags.writeable = False  # the record adopts it
        return Moments(self.dims, self.direction, self.m_samples, c)


def _rebuild_dataset(dims: Dimensions, samples: np.ndarray, direction: str,
                     meta: dict) -> Dataset:
    """``Dataset.__reduce__``'s constructor.  No one else holds the table that
    a deep copy or the unpickler made, so it is flagged read-only: the
    dataset adopts it if it owns its memory or views the unpickler's bytes."""
    samples.flags.writeable = False
    return Dataset(dims, samples, direction, meta)


def _pivot_ratios(c: np.ndarray) -> np.ndarray | None:
    """``L_jj**2 / C_jj`` of the Cholesky factor ``L`` of ``c``; None where it fails."""
    try:
        with _one_blas_thread():
            low = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return None
    return np.diagonal(low) ** 2 / np.diagonal(c)


@dataclass(frozen=True)
class Moments:
    """The sufficient statistics of a dataset for row fits, without its samples:
    ``dims``, ``direction``, ``m_samples`` (an integer >= 1, by ``_count``) and
    the second moments ``c = S^T S / M``.  The CLI also builds it from the ``c``
    that ``fit`` recorded, so no stage after ``fit`` re-reads the samples.  The two
    certificates and ``fingerprint`` are computed on first use and kept.
    """

    dims: Dimensions
    direction: str
    m_samples: int
    c: np.ndarray

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "reversed"):
            raise ValueError(f"direction must be 'forward' or 'reversed', got {self.direction!r}")
        object.__setattr__(self, "m_samples", _count(self.m_samples, "m_samples", 1))
        object.__setattr__(self, "c", _frozen(self.c))
        n = self.dims.n
        if self.c.shape != (n, n):
            raise ValueError(f"second moments must have shape ({n}, {n}), got {self.c.shape}")
        if not _all_finite(self.c):
            raise ValueError("second moments must all be finite")

    @classmethod
    def of(cls, data: Dataset | Moments) -> Moments:
        """The record of a ``Dataset``, formed on first use and then kept on
        it; a ``Moments`` record is returned as is."""
        return data if isinstance(data, Moments) else data._moments

    @cached_property
    def _c_ratios(self) -> np.ndarray | None:
        return _pivot_ratios(self.c)

    @cached_property
    def pivot_ratio(self) -> float:
        """``min_j L_jj**2 / C_jj`` of the Cholesky factor ``L`` of ``c``, 0
        where it fails.  ``L_jj**2 / C_jj`` is one minus the squared multiple
        correlation of site j with the sites before it, so a block of ``c``,
        taken in site order, has no smaller pivot ratio."""
        return 0.0 if self._c_ratios is None else float(np.min(self._c_ratios))

    @cached_property
    def input_pivot_ratio(self) -> float:
        """``pivot_ratio`` of the input block ``C_II`` (the leading ``n_half``
        sites): the first ``n_half`` ratios of ``c``'s factor are ``C_II``'s,
        and where ``c`` does not factorise, ``C_II`` takes its own."""
        nh, ratios = self.dims.n_half, self._c_ratios
        ratios = _pivot_ratios(self.c[:nh, :nh]) if ratios is None else ratios[:nh]
        return 0.0 if ratios is None else float(np.min(ratios))

    @cached_property
    def fingerprint(self) -> str:
        """Short hash of everything a fit depends on: w, direction, M and
        ``c``; computed on first use and kept on the record."""
        h = hashlib.sha256(f"{self.dims.w}|{self.direction}|{self.m_samples}|".encode())
        h.update(self.c.tobytes())
        return h.hexdigest()[:16]

    def reversed(self) -> Moments:
        """The record of the swapped samples, ``c`` permuted to
        ``[[C_OO, C_OI], [C_IO, C_II]]``; ``reverse_dataset`` gives it that record."""
        nh = self.dims.n_half
        swap = np.r_[nh:2 * nh, 0:nh]
        direction = "forward" if self.direction == "reversed" else "reversed"
        c = self.c[np.ix_(swap, swap)]
        c.flags.writeable = False  # the record adopts it
        return replace(self, direction=direction, c=c)


def build_random_tm(dims: Dimensions, density: float, seed: int | None = None) -> TransmissionMatrix:
    """Draw a random sparse row-stochastic ground-truth transmission matrix.

    Each entry is independently activated with probability ``density`` and set
    to 1, then every row is divided by its own active count, so each row sums
    to exactly 1.  A row that receives no activation gets one uniformly random
    element activated so the normalization is always defined.

    Parameters
    ----------
    dims : Dimensions
    density : float
        Activation probability, in (0, 1] and at least ``1 / n_half``.
    seed : int, optional
        Seed for the activation draw.

    Returns
    -------
    TransmissionMatrix
        Direct-role matrix with nonnegative entries and unit row sums.
    """
    _check_density(density, dims)
    nh = dims.n_half
    rng = np.random.default_rng(seed)
    active = rng.random((nh, nh)) < density
    # Repair empty rows in row order so the draw sequence stays reproducible.
    for g in np.flatnonzero(~active.any(axis=1)):
        active[g, int(rng.integers(0, nh))] = True
    counts = active.sum(axis=1)
    entries = active.astype(np.float64) / counts[:, None]
    return TransmissionMatrix(dims=dims, entries=entries, role="direct")


def transmit(
    tm: TransmissionMatrix,
    input: np.ndarray,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Propagate one input frame through the channel with additive noise.

    ``out[g] = sum_a T[g, a] * in[a] + sigma[g] * eps[g]`` with ``eps`` drawn
    standard normal from ``rng``.  The output is not clamped: noise is allowed
    to push values outside [0, 1].
    """
    x = np.asarray(input, dtype=np.float64)
    nh = tm.dims.n_half
    if x.shape != (nh,):
        raise ValueError(f"input must have shape ({nh},), got {x.shape}")
    sigma = noise.sigma_vector(nh)
    eps = rng.standard_normal(nh)
    return tm.entries @ x + sigma * eps


def generate_dataset(
    tm: TransmissionMatrix,
    m_samples: int,
    noise: NoiseSpec,
    seed: int | None = None,
    source: str = "synthetic",
) -> Dataset:
    """Generate M paired samples through a known channel.

    Inputs are i.i.d. uniform on [0, 1] per channel.  The draw order is fixed:
    all inputs first (sample-major, channel-minor), then all noise deviates,
    so a fixed seed reproduces the dataset bit for bit.  Both are drawn in
    blocks of rows into the sample buffer, with the bits of whole-array draws.
    ``m_samples`` and ``seed`` (unless None; ``meta`` keeps it) go through ``_count`` first.
    """
    m_samples = _count(m_samples, "m_samples", 1)
    seed = None if seed is None else _count(seed, "seed", 0)
    nh = tm.dims.n_half
    rng = np.random.default_rng(seed)
    samples = np.empty((m_samples, 2 * nh))
    inputs, outputs = samples[:, :nh], samples[:, nh:]
    step = max(1, _DRAW_VALUES // nh)
    blocks = [slice(start, start + step) for start in range(0, m_samples, step)]
    for b in blocks:
        inputs[b] = rng.random(inputs[b].shape)
    # One product over all rows, as a whole-array draw computes it: OpenBLAS
    # picks its kernel by the row count, so a product per block would change
    # the bits of short blocks.
    with _one_blas_thread():
        np.matmul(inputs, tm.entries.T, out=outputs)
    sigma = noise.sigma_vector(nh)
    for b in blocks:
        eps = rng.standard_normal(outputs[b].shape)
        eps *= sigma
        outputs[b] += eps
    samples.flags.writeable = False
    meta = {
        "seed": seed,
        "sigma": noise.sigma.tolist() if np.ndim(noise.sigma) else float(noise.sigma),
        "source": source,
    }
    return Dataset(dims=tm.dims, samples=samples, direction="forward", meta=meta)


def reverse_dataset(ds: Dataset) -> Dataset:
    """Swap input/output per sample, preserving order.

    The reversed dataset feeds the same fitting pipeline to infer the inverse
    map.  Its sample table is the swapped copy, built once.  Its record is
    ``Moments.of(ds).reversed()``, the ``c`` that ``fit --reversed`` reads:
    at odd w, ``S^T S`` of the swapped table differs from it in the last bits.
    Reversing twice is rejected to prevent a silent double swap.
    """
    if ds.direction != "forward":
        raise ValueError("dataset is already reversed")
    meta = dict(ds.meta)
    meta["source"] = f"{meta.get('source', 'unknown')} (reversed)"
    samples = np.concatenate([ds.outputs, ds.inputs], axis=1)
    samples.flags.writeable = False
    rev = replace(ds, samples=samples, direction="reversed", meta=meta)
    vars(rev)["_moments"] = Moments.of(ds).reversed()  # the cached_property's slot
    return rev
