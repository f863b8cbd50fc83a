"""Spans and counters around tminfer's public functions, installed from outside.

The program carries no tracing of its own yet, so the benchmark wraps the
public functions of each module of ``src/tminfer`` and records a span per call:
name, layer, start, end, thread and parent.  Callers bind names at import time
(``from .optimize import fit_all_rows``), so a wrapper replaces the original
function object under every name that refers to it in every loaded tminfer
module; patching only the defining module would miss ``selection``,
``experiments`` and ``cli``.

Spans opened on a thread-pool worker have no open span on their own thread.
Their parent is resolved afterwards as the innermost span of the tracing
thread whose interval contains them (the row fan-out is always submitted from
that thread and blocks it until the rows finish).

A ``Recorder`` built with ``timed=False`` wraps only ``minimize_row``,
``run_decimation`` and ``build_random_tm`` and reads no clock: it collects the
row-fit outcomes, decimation paths and drawn channels that the answer check
needs, at a cost of a few microseconds per row solve, so untraced runs still
report how many row fits converged.  With ``keep_datasets`` it also keeps the
dataset each ``run_decimation`` call fitted, for the PL oracle; that holds
every such dataset alive until the run ends.

Modules imported after ``install`` keep the names they bind then; import every
module a workload calls into before installing.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute) of every wrapped public entry point, grouped by layer.
TARGETS = {
    "optimize": [("optimize", "fit_all_rows"), ("optimize", "refit_rows"),
                 ("optimize", "minimize_row")],
    "selection": [("selection", "run_decimation")],
    "model": [("model", "build_random_tm"), ("model", "generate_dataset"),
              ("model", "Dataset.site_matrix")],
    "io": [("io", "write_dataset"), ("io", "write_matrix"), ("io", "write_estimate"),
           ("io", "write_path"), ("io", "write_json_artifact"),
           ("io", "read_dataset"), ("io", "read_matrix"), ("io", "read_estimate"),
           ("io", "read_json_artifact"),
           ("io", "register_artifacts"), ("io", "verify_artifact")],
    "extraction": [("extraction", "extract_tm"), ("extraction", "extract_gramian"),
                   ("extraction", "quality_q")],
    "experiments": [("experiments", "focusing_experiment"),
                    ("experiments", "image_reconstruction"),
                    ("experiments", "run_sweep")],
}
CAPTURE_TARGETS = [("optimize", "minimize_row"), ("selection", "run_decimation"),
                   ("model", "build_random_tm")]
# Wrapped functions whose arguments the recorder reads (besides all of io).
BOUND_ARGS = ("optimize.fit_all_rows", "optimize.refit_rows", "selection.run_decimation")

PACKAGE = "tminfer"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    thread: int
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, attr: str):
    """Return (owner, attribute name, original) for ``module.attr``.

    Raises LookupError when the target is gone, so a renamed internal stops
    the benchmark instead of silently dropping a layer.
    """
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not hasattr(owner, name):
        raise LookupError(f"benchmark target {PACKAGE}.{module}.{attr} no longer exists")
    return owner, name, getattr(owner, name)


def _files_state(directory: Path) -> dict:
    try:
        return {p.name: (st.st_mtime_ns, st.st_size)
                for p in directory.iterdir() if p.is_file() for st in [p.stat()]}
    except FileNotFoundError:
        return {}


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except FileNotFoundError:
        return 0


class Recorder:
    """Wraps tminfer's public functions and records what the calls did."""

    def __init__(self, timed: bool, keep_datasets: bool = False):
        self.timed = timed
        self.keep_datasets = keep_datasets
        self.spans: list[Span] = []
        self.row_fits: list[tuple[int, bool]] = []  # (iterations, converged)
        self.paths: list = []  # DecimationPath per run_decimation call
        self.datasets: list = []  # its Dataset argument, with keep_datasets
        self.channels: list = []  # TransmissionMatrix per build_random_tm call
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = ([t for group in TARGETS.values() for t in group] if self.timed
                   else CAPTURE_TARGETS)
        layer_of = {t: layer for layer, group in TARGETS.items() for t in group}
        resolved = [(module, attr, *_resolve(module, attr)) for module, attr in targets]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module, attr, owner, name, original in resolved:
            wrapper = self._wrap(original, layer_of[(module, attr)], f"{module}.{attr}")
            if inspect.isclass(owner):
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record a span around the block (a no-op when not timed)."""
        if not self.timed:
            yield None
            return
        stack = self._stack()
        span = Span(name=name, layer=layer, start=time.perf_counter(), end=0.0,
                    thread=threading.get_ident(), parent=stack[-1] if stack else None)
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()

    def _wrap(self, original, layer: str, name: str):
        on_result = getattr(self, "_on_" + name.split(".")[-1], None)
        signature = inspect.signature(original)
        needs_args = name in BOUND_ARGS or layer == "io"

        def bind(args, kwargs):
            if not needs_args:
                return None
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound

        if not self.timed:
            def capture(*args, **kwargs):
                result = original(*args, **kwargs)
                on_result(result, bind(args, kwargs), {})
                return result
            return capture

        def traced(*args, **kwargs):
            bound = bind(args, kwargs)
            before = self._io_before(name, bound) if layer == "io" else None
            with self.span(name, layer) as span:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, bound, span.attrs)
            if layer == "io":
                self._io_after(name, bound, before, span.attrs)
            elif name == "model.Dataset.site_matrix":
                ds = args[0]
                span.attrs["bytes"] = ds.m_samples * ds.dims.n * 8
            return result
        return traced

    def _on_minimize_row(self, fit, bound, attrs) -> None:
        self.row_fits.append((fit.iterations, fit.converged))
        attrs["iterations"] = fit.iterations
        attrs["converged"] = fit.converged

    def _on_run_decimation(self, result, bound, attrs) -> None:
        path, _ = result
        self.paths.append(path)
        if self.keep_datasets:
            self.datasets.append(bound.arguments["dataset"])
        attrs["records"] = len(path.records)

    def _on_build_random_tm(self, channel, bound, attrs) -> None:
        self.channels.append(channel)

    def _on_fit_all_rows(self, est, bound, attrs) -> None:
        attrs["threads"] = max(1, int(bound.arguments["threads"]))

    _on_refit_rows = _on_fit_all_rows

    # -- io byte accounting (file sizes, computed outside the program) -----

    @staticmethod
    def _target_dir(bound) -> Path:
        args = bound.arguments
        if "out_dir" in args:
            return Path(args["out_dir"])
        return Path(args["path"]).parent

    def _io_before(self, name: str, bound):
        if name.startswith("io.write") or name == "io.register_artifacts":
            return _files_state(self._target_dir(bound))
        return None

    def _io_after(self, name: str, bound, before, attrs) -> None:
        args = bound.arguments
        if before is not None:
            after = _files_state(self._target_dir(bound))
            attrs["bytes_written"] = sum(size for key, (mtime, size) in after.items()
                                         if before.get(key) != (mtime, size))
        elif name == "io.read_dataset":
            out = Path(args["out_dir"])
            attrs["bytes_read"] = sum(_size(p) for p in out.glob("dataset.*"))
        elif name == "io.verify_artifact":
            attrs["bytes_read"] = _size(Path(args["out_dir"]) / args["name"])
        else:
            attrs["bytes_read"] = _size(args["path"])

    # -- analysis ----------------------------------------------------------

    def resolve_parents(self) -> None:
        """Give pool-worker spans the innermost containing tracing-thread span."""
        main = [i for i, s in enumerate(self.spans) if s.thread == self.main_thread]
        for span in self.spans:
            if span.parent is not None or span.thread == self.main_thread:
                continue
            best = None
            for i in main:
                m = self.spans[i]
                if m.start <= span.start and span.end <= m.end and (
                        best is None or m.duration < self.spans[best].duration):
                    best = i
            span.parent = best

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(i)
        return kids

    def self_time(self, index: int, kids: dict[int, list[int]]) -> float:
        """Span duration minus the part of it covered by its child spans."""
        span = self.spans[index]
        intervals = sorted((max(self.spans[k].start, span.start),
                            min(self.spans[k].end, span.end))
                           for k in kids.get(index, []))
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span.duration - covered

    def outermost(self, layer: str, names: tuple[str, ...] | None = None) -> list[Span]:
        """Spans of ``layer`` (optionally only ``names``) with no ancestor in that set."""
        def selected(s: Span) -> bool:
            return s.layer == layer and (names is None or s.name in names)

        out = []
        for span in self.spans:
            if not selected(span):
                continue
            p = span.parent
            while p is not None and not selected(self.spans[p]):
                p = self.spans[p].parent
            if p is None:
                out.append(span)
        return out
