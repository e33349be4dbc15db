"""Virtualization-overhead estimation models (paper Section V).

Public entry points:

* :func:`~repro.models.training.train_single_vm_model` /
  :class:`~repro.models.single_vm.SingleVMOverheadModel` -- Eq. (1)-(2).
* :func:`~repro.models.training.train_multi_vm_model` /
  :class:`~repro.models.multi_vm.MultiVMOverheadModel` -- Eq. (3).
* :mod:`~repro.models.regression` -- OLS and Rousseeuw LMS engines.
* :mod:`~repro.models.evaluation` -- the |p-m|/m error CDFs of Figs 7-9.
"""

from repro.models.evaluation import (
    ErrorReport,
    error_report,
    relative_errors,
    summarize,
)
from repro.models.multi_vm import (
    MultiVMOverheadModel,
    alpha_constant,
    alpha_linear,
)
from repro.models.attribution import (
    AttributionReport,
    OverheadShare,
    attribute_overhead,
)
from repro.models.describe import describe_multi_vm, describe_single_vm
from repro.models.online import OnlineOverheadModel, RecursiveLeastSquares
from repro.models.regression import (
    LinearModel,
    fit,
    fit_auto,
    fit_lms,
    fit_ols,
    outlier_fraction,
)
from repro.models.validation import (
    FitQuality,
    cross_validate_multi,
    fit_quality,
    kfold_indices,
    render_quality_table,
)
from repro.models.samples import (
    TARGETS,
    TrainingSample,
    design_matrix,
    samples_from_report,
    target_vector,
    vm_counts,
)
from repro.models.single_vm import PredictedUtilization, SingleVMOverheadModel
from repro.models.training import (
    TrainingConfig,
    gather_training_samples,
    run_benchmark_measurement,
    train_multi_vm_model,
    train_single_vm_model,
)

__all__ = [
    "AttributionReport",
    "ErrorReport",
    "OverheadShare",
    "attribute_overhead",
    "FitQuality",
    "cross_validate_multi",
    "describe_multi_vm",
    "describe_single_vm",
    "fit_quality",
    "kfold_indices",
    "render_quality_table",
    "LinearModel",
    "MultiVMOverheadModel",
    "OnlineOverheadModel",
    "RecursiveLeastSquares",
    "PredictedUtilization",
    "SingleVMOverheadModel",
    "TARGETS",
    "TrainingConfig",
    "TrainingSample",
    "alpha_constant",
    "alpha_linear",
    "design_matrix",
    "error_report",
    "fit",
    "fit_auto",
    "fit_lms",
    "fit_ols",
    "outlier_fraction",
    "gather_training_samples",
    "relative_errors",
    "run_benchmark_measurement",
    "samples_from_report",
    "summarize",
    "target_vector",
    "train_multi_vm_model",
    "train_single_vm_model",
    "vm_counts",
]
