"""Analysis toolkit: traces, local maxima, Gaussian fits, ROC, DFA, statistics.

The scalar primitives each have a batched, matrix-resident counterpart
in :mod:`repro.analysis.batch` that is bit-identical per row; the
scalars stay the serial references the batch kernel is pinned against.
"""

from .batch import (
    abs_difference_matrix,
    false_negative_rates,
    find_local_maxima_batch,
    fit_gaussians_batch,
    pooled_std_batch,
    sum_of_local_maxima_batch,
)
from .gaussian import (
    GaussianFit,
    fit_gaussian,
    overlap_threshold,
    pooled_std,
    separation,
)
from .local_maxima import (
    find_local_maxima,
    local_maxima_values,
    sum_of_local_maxima,
)
from .dfa import (
    DFAResult,
    FaultLocalisation,
    RecoveredKeyByte,
    dfa_key_scores,
    localise_faults,
    recover_last_round_key,
)
from .roc import ROCCurve, roc_curve
from .stats import (
    bootstrap_mean_ci,
    empirical_rate,
    mad,
    normalised_difference,
    robust_zscore,
)
from .traces import (
    abs_difference,
    as_samples,
    difference,
    mean_trace,
    peak_to_peak,
    per_sample_std,
    signal_to_noise_ratio,
    stack_traces,
)

__all__ = [
    "abs_difference_matrix",
    "false_negative_rates",
    "find_local_maxima_batch",
    "fit_gaussians_batch",
    "pooled_std_batch",
    "sum_of_local_maxima_batch",
    "GaussianFit",
    "fit_gaussian",
    "overlap_threshold",
    "pooled_std",
    "separation",
    "find_local_maxima",
    "local_maxima_values",
    "sum_of_local_maxima",
    "DFAResult",
    "FaultLocalisation",
    "RecoveredKeyByte",
    "dfa_key_scores",
    "localise_faults",
    "recover_last_round_key",
    "ROCCurve",
    "roc_curve",
    "bootstrap_mean_ci",
    "empirical_rate",
    "mad",
    "normalised_difference",
    "robust_zscore",
    "abs_difference",
    "as_samples",
    "difference",
    "mean_trace",
    "peak_to_peak",
    "per_sample_std",
    "signal_to_noise_ratio",
    "stack_traces",
]
