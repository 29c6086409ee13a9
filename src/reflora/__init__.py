"""Optimal per-step refactoring of low-rank adapter factors.

A factor pair (A, B) representing an increment A @ B.T is only determined
up to an invertible change of basis; this library computes the per-step
change of basis that minimizes a quadratic upper bound on the loss, the
preconditioned update it induces, the scalar-rescaling variant, and plain
and ScaledGD baselines, together with seeded benchmark problems and a
trace-emitting experiment harness.
"""

__version__ = "0.1.0"

from .errors import (IllConditioned, InvalidEta, NonSpdInput, RankDeficient,
                     RefloraError, ZeroFactor)
from .refactor import (Balance, LowRankFactors, RefactorMode, RefactorResult,
                       balance, balanced_mode, c_tilde, g_objective, geometric_mean_s,
                       identity_mode, optimal_s, optimal_scalar, scalar_mode,
                       scalar_theorem_exact_mode, theorem_exact_mode,
                       upper_bound_eval)
from .optim import (GradientPair, OptimizerState, StepConfig, adam_update,
                    delta_w, horizontal_check, reflora_step)
from .problems import (LinRegInstance, MfInstance, Problem, init_factors,
                       make_linreg, make_mf)
from .harness import (BoundScanSpec, RunResult, RunSpec, TraceRecord,
                      bound_scan, compare, overhead_probe, run)

__all__ = [
    "__version__",
    "RefloraError", "NonSpdInput", "IllConditioned", "RankDeficient",
    "ZeroFactor", "InvalidEta",
    "LowRankFactors", "RefactorMode", "RefactorResult", "Balance", "balance",
    "balanced_mode", "theorem_exact_mode", "scalar_mode",
    "scalar_theorem_exact_mode", "identity_mode",
    "geometric_mean_s", "optimal_s", "optimal_scalar", "g_objective",
    "upper_bound_eval", "c_tilde",
    "GradientPair", "OptimizerState", "StepConfig",
    "delta_w", "reflora_step", "adam_update", "horizontal_check",
    "Problem", "MfInstance", "LinRegInstance",
    "make_mf", "make_linreg", "init_factors",
    "RunSpec", "RunResult", "TraceRecord", "BoundScanSpec",
    "run", "bound_scan", "compare", "overhead_probe",
]
