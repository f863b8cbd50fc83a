"""tminfer: learn direct and inverse intensity transmission matrices.

A disordered linear channel scrambles every input frame into a speckle-like
output frame.  Given only random input/output intensity pairs, this package
fits one conditional Gaussian per channel by pseudolikelihood maximization,
prunes weak couplings by decimation with BIC model selection, and extracts
the channel matrix, its inverse (from reversed samples), and per-channel
noise levels, then evaluates the result in focusing and image-reconstruction
experiments.
"""

__version__ = "0.19.0"

from .model import (
    Dataset,
    Dimensions,
    Moments,
    NoiseSpec,
    TransmissionMatrix,
    build_random_tm,
    generate_dataset,
    reverse_dataset,
    transmit,
)
from .pseudolikelihood import (
    RowMask,
    RowParams,
    log_partition,
    row_grad,
    row_neg_logpl,
    total_pl,
)
from .optimize import (
    CouplingEstimate,
    OptimOptions,
    RowFit,
    fit_all_rows,
    initial_masks,
    minimize_row,
    true_support_masks,
)
from .selection import (
    DecimationOptions,
    DecimationPath,
    DecimationRecord,
    bic_score,
    run_decimation,
)
from .extraction import (
    ChannelNoiseEstimate,
    QualityReport,
    extract_gramian,
    extract_tm,
    quality_q,
)
from .experiments import (
    ExperimentReport,
    SweepConfig,
    SweepRecord,
    focusing_experiment,
    gaussian_spot,
    glyph_image,
    image_reconstruction,
    infer_channel,
    run_sweep,
)

__all__ = [
    "__version__",
    "Dataset", "Dimensions", "Moments", "NoiseSpec", "TransmissionMatrix",
    "build_random_tm", "generate_dataset", "reverse_dataset", "transmit",
    "RowMask", "RowParams", "log_partition", "row_grad",
    "row_neg_logpl", "total_pl",
    "CouplingEstimate", "OptimOptions", "RowFit", "fit_all_rows",
    "initial_masks", "minimize_row", "true_support_masks",
    "DecimationOptions", "DecimationPath", "DecimationRecord", "bic_score",
    "run_decimation",
    "ChannelNoiseEstimate", "QualityReport", "extract_gramian", "extract_tm",
    "quality_q",
    "ExperimentReport", "SweepConfig", "SweepRecord", "focusing_experiment",
    "gaussian_spot", "glyph_image", "image_reconstruction", "infer_channel",
    "run_sweep",
]
