"""Executable probabilistic cone metric spaces.

Distribution-valued distances, t-norm triangle inequalities, cone partial
orders, contraction classifiers, certified fixed-point iteration, and
Monte Carlo solvers for pathwise integral equations.
"""

__version__ = "0.1.0"


def _import_numpy_on_one_blas_thread():
    """Import numpy with its OpenBLAS started on one thread, if probcone is first.

    Every BLAS product here is tiny or already pinned to one thread (see
    ``stochastic._OneBlasThread``), so the worker pool OpenBLAS starts at
    load would only spin. OpenBLAS reads its thread count once, at load,
    from the first of these variables that is set. So when numpy is not
    yet imported and none of them is set, ``OPENBLAS_NUM_THREADS=1`` is
    set for the import and removed after it: child processes and libraries
    loaded later see the environment as it was. A caller who wants a pool
    sets one of the variables or imports numpy first.
    """
    import os
    import sys

    variables = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in variables):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_on_one_blas_thread()

from .cone import Cone, Halfspaces, NormalityResult, Orthant, normality_check
from .contract import (
    ContractionCertificate,
    Mapping,
    check_banach,
    check_chatterjea,
    check_kannan,
    check_zamfirescu,
    sample_pairs,
    zamfirescu_delta,
)
from .dist import (
    DiracStep,
    DistFn,
    DominanceResult,
    Empirical,
    GaussianShift,
    Rescaled,
    ScaledGaussian,
    TimeGrid,
    dominates,
    from_samples,
    pointwise_min,
    timescale,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InfeasibleRegionError,
    InvalidParameterError,
    ProbconeError,
    RateNotCertifiedError,
)
from .solver import (
    BoundCheck,
    FixedPointCheck,
    IterationTrace,
    UniquenessResult,
    cauchy_chain_bound,
    check_bounds,
    kannan_bound,
    picard,
    uniqueness_probe,
    verify_fixed_point,
)
from .space import AxiomCheck, AxiomReport, PCMSpace, cauchy_window, check_axioms, sample_points, tau_converged
from .stochastic import (
    Ensemble,
    RandomKannanResult,
    RandomOperator,
    SIEConditions,
    SIEProblem,
    SIESolution,
    check_random_kannan,
    empirical_metric,
    sie_apply,
    sie_conditions,
    sie_solve,
)
from .tnorm import TNorm

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "BoundCheck",
    "Cone",
    "ConfigError",
    "ContractionCertificate",
    "DiracStep",
    "DistFn",
    "DivergenceError",
    "DominanceResult",
    "Empirical",
    "Ensemble",
    "FixedPointCheck",
    "GaussianShift",
    "Halfspaces",
    "InfeasibleRegionError",
    "InvalidParameterError",
    "IterationTrace",
    "Mapping",
    "NormalityResult",
    "Orthant",
    "PCMSpace",
    "ProbconeError",
    "RandomKannanResult",
    "RandomOperator",
    "RateNotCertifiedError",
    "Rescaled",
    "SIEConditions",
    "SIEProblem",
    "SIESolution",
    "ScaledGaussian",
    "TNorm",
    "TimeGrid",
    "UniquenessResult",
    "cauchy_chain_bound",
    "cauchy_window",
    "check_axioms",
    "check_banach",
    "check_bounds",
    "check_chatterjea",
    "check_kannan",
    "check_random_kannan",
    "check_zamfirescu",
    "dominates",
    "empirical_metric",
    "from_samples",
    "kannan_bound",
    "normality_check",
    "picard",
    "pointwise_min",
    "sample_pairs",
    "sample_points",
    "sie_apply",
    "sie_conditions",
    "sie_solve",
    "tau_converged",
    "timescale",
    "uniqueness_probe",
    "verify_fixed_point",
    "zamfirescu_delta",
]
