"""Tucker decomposition of third-order tensors by regularized local search."""
from .objective import (ObjectiveReport, default_lambda, eval_along, grad,
                        hvp, loss, objective, reg, reg_phi)
from .search import RunResult, SearchConfig, run
from .tensor_core import (FactorPoint, flatten, hosvd, inner,
                          multilinear_transform, norm_f, random_point,
                          trilinear)
from .verify import LemmaReport, run_suite, saddle_gallery

__all__ = [
    "FactorPoint", "LemmaReport", "ObjectiveReport", "RunResult",
    "SearchConfig", "default_lambda", "eval_along", "flatten", "grad",
    "hosvd", "hvp", "inner", "loss", "multilinear_transform", "norm_f",
    "objective", "random_point", "reg", "reg_phi", "run", "run_suite",
    "saddle_gallery", "trilinear",
]

__version__ = "0.1.0"
