"""Per-layer metrics from a traced run, and where each must be non-zero.

The layers are the modules of ``src/tminfer``.  ``pseudolikelihood`` has no
public function on the pipeline's path (the solver calls its private helpers),
so its time is counted inside the ``optimize`` row-solve spans.
"""

from __future__ import annotations

from spans import Recorder

STAGES = ("generate", "fit", "select", "extract", "fit_reversed", "select_reversed",
          "extract_reversed", "eval", "report")

# name -> unit, in reporting order.
UNITS = {
    "optimize.fit_s": "s",
    "optimize.refit_s": "s",
    "optimize.row_solves": "count",
    "optimize.row_solve_ms": "ms",
    "optimize.iterations": "count",
    "optimize.unconverged_rows": "count",
    "optimize.parallel_eff": "ratio",
    "selection.decimation_s": "s",
    "selection.self_s": "s",
    "selection.steps": "count",
    "selection.rows_refit": "count",
    "model.generate_s": "s",
    "model.site_matrix_calls": "count",
    "model.site_matrix_s": "s",
    "model.site_matrix_mb": "MB",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.hash_s": "s",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "io.dataset_parses": "count",
    "extraction.extract_s": "s",
    "experiments.eval_s": "s",
    "experiments.sweep_self_s": "s",
    **{f"cli.stage_s.{s}": "s" for s in STAGES},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_ROW = "optimize.minimize_row"
_FANOUT = ("optimize.fit_all_rows", "optimize.refit_rows")
_IO_WRITE = ("io.write_dataset", "io.write_matrix", "io.write_estimate", "io.write_path",
             "io.write_json_artifact")
_IO_READ = ("io.read_dataset", "io.read_matrix", "io.read_estimate", "io.read_json_artifact")
_IO_HASH = ("io.register_artifacts", "io.verify_artifact")

# Metrics that must be > 0 ("+") or exactly 0 ("0") on each workload.  A metric
# not listed (unconverged rows, the trace.* figures) may take either value.
_CLI_ZERO = {f"cli.stage_s.{s}": "0" for s in STAGES}
_IO = ("io.write_s", "io.read_s", "io.hash_s", "io.bytes_written", "io.bytes_read",
       "io.dataset_parses")
_ALWAYS = ("optimize.fit_s", "optimize.refit_s", "optimize.row_solves",
           "optimize.row_solve_ms", "optimize.iterations", "optimize.parallel_eff",
           "selection.decimation_s", "selection.self_s", "selection.steps",
           "selection.rows_refit", "model.generate_s", "model.site_matrix_calls",
           "model.site_matrix_s", "model.site_matrix_mb", "extraction.extract_s")
EXPECT = {
    "wide-lib": {**{m: "+" for m in _ALWAYS}, **{m: "0" for m in _IO}, **_CLI_ZERO,
                 "experiments.eval_s": "0", "experiments.sweep_self_s": "0"},
    "tall-cli": {**{m: "+" for m in _ALWAYS}, **{m: "+" for m in _IO},
                 **{f"cli.stage_s.{s}": "+" for s in STAGES},
                 "experiments.eval_s": "+", "experiments.sweep_self_s": "0"},
    "sweep-noise": {**{m: "+" for m in _ALWAYS}, **{m: "0" for m in _IO}, **_CLI_ZERO,
                    "experiments.eval_s": "+", "experiments.sweep_self_s": "+"},
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric except ``trace.*`` from one traced run."""
    rec.resolve_parents()
    kids = rec.children()
    spans = rec.spans

    def total(names) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def count(names) -> int:
        return sum(1 for s in spans if s.name in names)

    rows = [s for s in spans if s.name == _ROW]
    fanout = [i for i, s in enumerate(spans) if s.name in _FANOUT]
    busy = sum(spans[k].duration for i in fanout for k in kids.get(i, [])
               if spans[k].name == _ROW)
    capacity = sum(spans[i].attrs["threads"] * spans[i].duration for i in fanout)
    refit_rows = sum(1 for i in fanout if spans[i].name == "optimize.refit_rows"
                     for k in kids.get(i, []) if spans[k].name == _ROW)
    decim = [i for i, s in enumerate(spans) if s.name == "selection.run_decimation"]
    sweeps = [i for i, s in enumerate(spans) if s.name == "experiments.run_sweep"]
    site = [s for s in spans if s.name == "model.Dataset.site_matrix"]
    io = [s for s in spans if s.layer == "io"]
    out = {
        "optimize.fit_s": total(("optimize.fit_all_rows",)),
        "optimize.refit_s": total(("optimize.refit_rows",)),
        "optimize.row_solves": len(rows),
        "optimize.row_solve_ms": 1e3 * sum(s.duration for s in rows) / len(rows) if rows else 0.0,
        "optimize.iterations": sum(s.attrs["iterations"] for s in rows),
        "optimize.unconverged_rows": sum(1 for s in rows if not s.attrs["converged"]),
        "optimize.parallel_eff": busy / capacity if capacity else 0.0,
        "selection.decimation_s": sum(spans[i].duration for i in decim),
        "selection.self_s": sum(rec.self_time(i, kids) for i in decim),
        "selection.steps": sum(spans[i].attrs["records"] for i in decim),
        "selection.rows_refit": refit_rows,
        "model.generate_s": sum(s.duration for s in rec.outermost(
            "model", ("model.build_random_tm", "model.generate_dataset"))),
        "model.site_matrix_calls": len(site),
        "model.site_matrix_s": sum(s.duration for s in site),
        "model.site_matrix_mb": sum(s.attrs["bytes"] for s in site) / 1e6,
        "io.write_s": total(_IO_WRITE),
        "io.read_s": total(_IO_READ),
        "io.hash_s": total(_IO_HASH),
        "io.bytes_written": sum(s.attrs.get("bytes_written", 0) for s in io),
        "io.bytes_read": sum(s.attrs.get("bytes_read", 0) for s in io),
        "io.dataset_parses": count(("io.read_dataset",)),
        "extraction.extract_s": sum(s.duration for s in rec.outermost("extraction")),
        "experiments.eval_s": sum(s.duration for s in rec.outermost(
            "experiments", ("experiments.focusing_experiment",
                            "experiments.image_reconstruction"))),
        "experiments.sweep_self_s": sum(rec.self_time(i, kids) for i in sweeps),
    }
    for stage in STAGES:
        out[f"cli.stage_s.{stage}"] = total((f"cli.{stage}",))
    return out


def check_expectations(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layer metrics that are zero where work is expected, or the reverse."""
    errors = []
    for name, want in EXPECT[workload].items():
        value = metrics[name]
        if want == "+" and not value > 0:
            errors.append(f"{name} is {value} on {workload}; the layer was expected to work")
        elif want == "0" and value != 0:
            errors.append(f"{name} is {value} on {workload}; the layer was expected idle")
    return errors
