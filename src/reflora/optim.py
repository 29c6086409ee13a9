"""Steppers for the factor pair: plain gradient descent, preconditioned
refactored descent, the scalar-rescaling variant, ScaledGD, and the Adam /
AdamW rule used by the adaptive paths.

Steppers never form the m x n gradient; callers supply the factor
gradients grad(W) @ B and grad(W).T @ A as a GradientPair. The full
refactoring and ScaledGD read S, S^{-1} and the inverse Grams from one
run of the refactor kernel (`refactor.balance`: two Cholesky passes per
factor and one r x r SVD), so their per-step overhead is
O((m + n + r) r^2); the scalar variant costs O((m + n) r). The kernel's
result is cached on the immutable factor pair, so each iterate costs one
kernel run, shared by the step, ScaledGD's warmup rank check and the
harness's trace snapshot. All transitions are pure: state in, state out.
"""

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import refactor
from .errors import IllConditioned, RankDeficient, ZeroFactor
from .linalg import Array
from .refactor import LowRankFactors, RefactorMode

GD = "gd"
ADAM = "adam"
ADAMW = "adamw"

METHOD_LORA_GD = "lora"
METHOD_REFLORA = "reflora"
METHOD_REFLORA_S = "reflora-s"
METHOD_SCALEDGD = "scaledgd"

METHODS = (METHOD_LORA_GD, METHOD_REFLORA, METHOD_REFLORA_S, METHOD_SCALEDGD)
OPTIMIZERS = (GD, ADAM, ADAMW)


@dataclass(frozen=True)
class GradientPair:
    """Factor gradients g_a = grad(W) @ B and g_b = grad(W).T @ A."""

    g_a: Array
    g_b: Array

    def check_shapes(self, f: LowRankFactors) -> None:
        if self.g_a.shape != f.a.shape or self.g_b.shape != f.b.shape:
            raise ValueError(
                f"gradient shapes {self.g_a.shape}/{self.g_b.shape} do not "
                f"match factors {f.a.shape}/{f.b.shape}"
            )


@dataclass(frozen=True)
class StepConfig:
    """Per-run stepping configuration."""

    eta: float
    method: str = METHOD_LORA_GD
    optimizer: str = GD
    refactor_mode: RefactorMode = dataclasses.field(
        default_factory=refactor.balanced_mode)
    warmup_steps: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be a positive finite number")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be nonnegative")


@dataclass(frozen=True)
class OptimizerState:
    """First/entrywise-second moment accumulators for both factors."""

    m_a: Array
    v_a: Array
    m_b: Array
    v_b: Array
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def zeros(cls, m: int, n: int, r: int, **hyper) -> "OptimizerState":
        return cls(m_a=np.zeros((m, r)), v_a=np.zeros((m, r)),
                   m_b=np.zeros((n, r)), v_b=np.zeros((n, r)), **hyper)


def adam_update(param: Array, grad: Array, m: Array, v: Array, step: int,
                eta: float, beta1: float, beta2: float, eps: float,
                weight_decay: float = 0.0,
                decoupled: bool = False) -> tuple[Array, Array, Array]:
    """One bias-corrected Adam update of a single parameter matrix.

    `step` is the 1-based count of adaptive updates including this one.
    With decoupled=True (AdamW) the weight decay shrinks the parameter
    before the Adam delta; otherwise decay is folded into the gradient.
    Returns the new (param, m, v).
    """
    if decoupled and weight_decay != 0.0:
        param = param * (1.0 - eta * weight_decay)
    elif weight_decay != 0.0:
        grad = grad + weight_decay * param
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    param = param - eta * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


def _adaptive_pair(f: LowRankFactors, g_a: Array, g_b: Array,
                   cfg: StepConfig, state: OptimizerState,
                   base_a: Optional[Array] = None,
                   base_b: Optional[Array] = None,
                   ) -> tuple[LowRankFactors, OptimizerState]:
    """Adam/AdamW update of both factors with the given gradients."""
    step = state.step + 1
    decoupled = cfg.optimizer == ADAMW
    a = f.a if base_a is None else base_a
    b = f.b if base_b is None else base_b
    a_new, m_a, v_a = adam_update(a, g_a, state.m_a, state.v_a, step,
                                  cfg.eta, state.beta1, state.beta2,
                                  state.eps_adam, state.weight_decay, decoupled)
    b_new, m_b, v_b = adam_update(b, g_b, state.m_b, state.v_b, step,
                                  cfg.eta, state.beta1, state.beta2,
                                  state.eps_adam, state.weight_decay, decoupled)
    new_state = dataclasses.replace(state, m_a=m_a, v_a=v_a, m_b=m_b, v_b=v_b,
                                    step=step)
    return LowRankFactors(a_new, b_new), new_state


def lora_gd_step(f: LowRankFactors, grad_w_times: GradientPair,
                 eta: float) -> LowRankFactors:
    """Plain gradient descent on both factors."""
    grad_w_times.check_shapes(f)
    return LowRankFactors(f.a - eta * grad_w_times.g_a,
                          f.b - eta * grad_w_times.g_b)


def delta_w(f_before: LowRankFactors, f_after: LowRankFactors) -> Array:
    """Induced weight change A_new @ B_new.T - A_old @ B_old.T."""
    if f_before.a.shape != f_after.a.shape or f_before.b.shape != f_after.b.shape:
        raise ValueError("factor shapes changed between states")
    return f_after.product() - f_before.product()


def reflora_step(f: LowRankFactors, grad_w_times: GradientPair,
                 cfg: StepConfig, state: Optional[OptimizerState] = None,
                 t: int = 0) -> tuple[LowRankFactors, Optional[OptimizerState]]:
    """Refactored descent step with full-matrix preconditioning.

    Equivalent to refactoring (A, B) to the S-balanced pair, taking the
    step there, and refactoring back, which collapses to right-multiplying
    the factor gradients by S^{-1} and S. Under Adam/AdamW the
    preconditioned gradients feed the adaptive rule on the original axes,
    so moments never need transforming.

    Within the first `cfg.warmup_steps` iterations a rank-deficient pair
    falls back to a plain GD step; past warmup it is an error. Identity mode
    (S = I) never needs full rank.
    """
    grad_w_times.check_shapes(f)
    try:
        result = refactor.optimal_s(f, cfg.eta, cfg.refactor_mode)
    except RankDeficient:
        if t < cfg.warmup_steps:
            return lora_gd_step(f, grad_w_times, cfg.eta), state
        raise RankDeficient(f"factors rank-deficient at iteration {t}, "
                            "past warmup") from None
    g_a = grad_w_times.g_a @ result.s_inverse
    g_b = grad_w_times.g_b @ result.s_matrix

    if cfg.optimizer == GD:
        return LowRankFactors(f.a - cfg.eta * g_a, f.b - cfg.eta * g_b), state
    if state is None:
        raise ValueError("adaptive optimizer needs an OptimizerState")
    return _adaptive_pair(f, g_a, g_b, cfg, state)


def reflora_s_step(f: LowRankFactors, grad_w_times: GradientPair,
                   cfg: StepConfig, state: Optional[OptimizerState] = None,
                   t: int = 0) -> tuple[LowRankFactors, Optional[OptimizerState]]:
    """Scalar-rescaled descent step.

    Rescales the pair to (sqrt(s) A, B / sqrt(s)) with the optimal scalar s
    (norm-balanced by default), then steps on the rescaled pair. Under
    Adam/AdamW the stored moments are rescaled to the new axes first:
    A-moments by 1/sqrt(s) and 1/s, B-moments by sqrt(s) and s. There is no
    second refactoring; the updated rescaled pair is the next iterate.
    """
    grad_w_times.check_shapes(f)
    mode = cfg.refactor_mode
    if not mode.is_scalar:
        if mode.kind == refactor.BALANCED:
            mode = refactor.scalar_mode()
        elif mode.kind == refactor.THEOREM_EXACT:
            mode = refactor.scalar_theorem_exact_mode(mode.lipschitz, mode.root)
        else:
            raise ValueError(f"refactor mode {mode.kind!r} has no scalar form")
    try:
        s = refactor.optimal_scalar(f, cfg.eta, mode).s_scalar
    except ZeroFactor:
        if t < cfg.warmup_steps:
            return lora_gd_step(f, grad_w_times, cfg.eta), state
        raise ZeroFactor(
            f"zero-norm factor at iteration {t}, past warmup") from None
    rs = np.sqrt(s)
    # the rescaled pair is (rs A, B / rs); its loss gradients are
    # (g_a / rs, rs g_b)
    if cfg.optimizer == GD:
        return LowRankFactors(rs * f.a - (cfg.eta / rs) * grad_w_times.g_a,
                              f.b / rs - (cfg.eta * rs) * grad_w_times.g_b), state
    if state is None:
        raise ValueError("adaptive optimizer needs an OptimizerState")
    state = dataclasses.replace(state,
                                m_a=state.m_a / rs, v_a=state.v_a / s,
                                m_b=state.m_b * rs, v_b=state.v_b * s)
    return _adaptive_pair(LowRankFactors(rs * f.a, f.b / rs),
                          grad_w_times.g_a / rs, rs * grad_w_times.g_b,
                          cfg, state)


def scaledgd_step(f: LowRankFactors, grad_w_times: GradientPair,
                  eta: float) -> LowRankFactors:
    """Baseline preconditioning by the inverse Gram matrices.

    Raises IllConditioned, before any update, when an inverse Gram leaves
    the normal float range.
    """
    grad_w_times.check_shapes(f)
    k = refactor.balance(f).require_full_rank()
    if k.ga_inv is None or k.gb_inv is None:
        raise IllConditioned("an inverse Gram matrix leaves the normal float "
                             "range; rescale the factors")
    return LowRankFactors(f.a - eta * grad_w_times.g_a @ k.gb_inv,
                          f.b - eta * grad_w_times.g_b @ k.ga_inv)


def horizontal_check(f: LowRankFactors, update: tuple[Array, Array]) -> float:
    """Worst-case metric alignment of an update with the vertical space.

    The vertical directions (A X, -B X^T) leave the product A @ B.T
    unchanged to first order. Under the metric

        g((G_a, G_b), (Z_a, Z_b)) = <G_a S, Z_a> + <G_b S^{-1}, Z_b>,

    with S the balanced refactoring matrix, this returns the largest
    absolute metric inner product of the update against the r^2 elementary
    vertical directions, divided by the update's own metric norm. The
    refactored descent direction scores zero up to roundoff; a vertical
    update scores its own metric norm.
    """
    u_a, u_b = update
    if u_a.shape != f.a.shape or u_b.shape != f.b.shape:
        raise ValueError("update shapes do not match factors")
    k = refactor.balance(f).require_full_rank()
    s, s_inv = k.s, k.s_inv
    u_norm = np.sqrt(np.sum((u_a @ s) * u_a) + np.sum((u_b @ s_inv) * u_b))
    if u_norm == 0.0:
        return 0.0
    # <A E_ij S, U_a> = (A^T U_a S)[i, j]; <B E_ij^T S^{-1}, U_b> transposes
    cross = f.a.T @ u_a @ s - (f.b.T @ u_b @ s_inv).T
    return float(np.max(np.abs(cross)) / u_norm)
