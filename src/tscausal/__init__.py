"""Causal-structure detection for time series.

Seeded simulation of causal (AR/ARMA/ARFIMA) and non-causal (i.i.d.) series,
amplitude-spectrum and chaotic-neuron TTSS features, and an L2-regularized
logistic-regression classifier, wired into reproducible experiments.
"""

from .artifacts import persist_dataset
from .chaosfex import FiringResult, GlsParams, extract_ttss, fire, fire_batch, gls_map
from .classify import (
    CHAOSFEX_LR,
    DEFAULT_LR,
    ClassReport,
    LrHyper,
    LrModel,
    evaluate,
    load_model,
    predict,
    save_model,
    train_lr,
)
from .pipeline import (
    Dataset,
    DatasetRecipe,
    ExperimentConfig,
    ExperimentReport,
    RECIPES,
    build_dataset,
    load_dataset,
    run_experiment,
    table_config,
    write_report,
)
from .seriesgen import (
    Kind,
    ProcessSpec,
    fractional_integration_weights,
    generate,
    generate_many,
)
from .spectral import (
    MinMaxScaler,
    amplitude_spectra,
    apply_scaler,
    demean,
    fit_scaler,
)

__version__ = "0.1.0"

__all__ = [
    "CHAOSFEX_LR",
    "DEFAULT_LR",
    "ClassReport",
    "Dataset",
    "DatasetRecipe",
    "ExperimentConfig",
    "ExperimentReport",
    "FiringResult",
    "GlsParams",
    "Kind",
    "LrHyper",
    "LrModel",
    "MinMaxScaler",
    "ProcessSpec",
    "RECIPES",
    "amplitude_spectra",
    "apply_scaler",
    "build_dataset",
    "demean",
    "evaluate",
    "extract_ttss",
    "fire",
    "fire_batch",
    "fit_scaler",
    "fractional_integration_weights",
    "generate",
    "generate_many",
    "gls_map",
    "load_dataset",
    "load_model",
    "persist_dataset",
    "predict",
    "run_experiment",
    "save_model",
    "table_config",
    "train_lr",
    "write_report",
]
