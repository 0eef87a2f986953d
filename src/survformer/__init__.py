"""Discrete-time survival analysis with competing events: an attention
encoder over tabular covariates trained with a propensity-debiased
piecewise-constant-hazard loss and auxiliary task heads, evaluated by
censoring-weighted time-dependent concordance."""

__version__ = "0.1.0"

from .autodiff import Tensor, backward
from .data import (
    ColumnSpec,
    CovariateSchema,
    Records,
    SyntheticSpec,
    TimeGrid,
    build_time_grid,
    fit_schema,
    read_raw_csv,
    split,
    synthesize,
    transform_rows,
)
from .evaluation import ctd, km_censoring, quantile_horizons, survival_matrix
from .losses import AnnealSchedule, LossBreakdown, ips_loss, naive_competing_loss, pch_loss
from .model import ModelConfig, SurvivalTransformer, load_checkpoint, save_checkpoint
from .optim import Adam
from .propensity import PropensityModel
from .training import TrainConfig, TrainHistory, evaluate, predict, train

__all__ = [
    "Adam",
    "AnnealSchedule",
    "ColumnSpec",
    "CovariateSchema",
    "LossBreakdown",
    "ModelConfig",
    "PropensityModel",
    "Records",
    "SurvivalTransformer",
    "SyntheticSpec",
    "Tensor",
    "TimeGrid",
    "TrainConfig",
    "TrainHistory",
    "backward",
    "build_time_grid",
    "ctd",
    "evaluate",
    "fit_schema",
    "ips_loss",
    "km_censoring",
    "load_checkpoint",
    "naive_competing_loss",
    "pch_loss",
    "predict",
    "quantile_horizons",
    "read_raw_csv",
    "save_checkpoint",
    "split",
    "survival_matrix",
    "synthesize",
    "train",
    "transform_rows",
]
