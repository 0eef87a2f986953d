"""Discrete-time survival analysis with competing events: an attention
encoder over tabular covariates trained with a propensity-debiased
piecewise-constant-hazard loss and auxiliary task heads, evaluated by
censoring-weighted time-dependent concordance.

Importing the package loads none of its modules and no numpy: each name in
``__all__`` and each submodule resolves on first use (PEP 562), so the
command line's ``--help`` and usage errors start without them.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "data": ("ColumnSpec", "CovariateSchema", "Records", "SyntheticSpec", "TimeGrid", "build_time_grid",
             "fit_schema", "read_raw_csv", "split", "synthesize", "transform_rows"),
    "evaluation": ("ctd", "km_censoring", "survival_matrix"),
    "losses": ("LossBreakdown",),
    "model": ("ModelConfig", "SurvivalTransformer", "load_checkpoint", "save_checkpoint"),
    "optim": ("Adam",),
    "propensity": ("PropensityModel",),
    "training": ("TrainConfig", "TrainHistory", "evaluate", "predict", "train"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("autodiff", "cli", "commands", "data", "evaluation", "kernels", "losses", "model", "optim",
               "propensity", "training")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
