"""One stepper for every method: a method table over a shared update rule.

A method is data: its METHODS entry says how to precondition the factor
gradients, and `reflora_step` does the rest once for every method: the
shape check, the warmup fallback to plain GD, and the update rule, GD or
the bias-corrected Adam / AdamW of `adam_update`.

The stepper never forms the m x n gradient; callers supply the factor
gradients grad(W) @ B and grad(W).T @ A as a GradientPair. `reflora` and
`scaledgd` read S, S^{-1} and the inverse Grams from one run of the
refactor kernel (`refactor.balance`: two Cholesky passes per factor and
one r x r SVD), so their per-step overhead is O((m + n + r) r^2); the
scalar variant costs O((m + n) r). Each step runs the kernel once, and
its result serves both the preconditioner and the warmup check; the
harness's trace snapshot runs no kernel. All transitions are pure: state
in, state out.
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

METHOD_LORA = "lora"
METHOD_REFLORA = "reflora"
METHOD_REFLORA_S = "reflora-s"
METHOD_SCALEDGD = "scaledgd"

OPTIMIZERS = (GD, ADAM, ADAMW)

# Adam's fixed moment decay rates and denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    method: str = METHOD_REFLORA
    optimizer: str = GD
    refactor_mode: RefactorMode = RefactorMode()
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


def delta_w(f_before: LowRankFactors, f_after: LowRankFactors) -> Array:
    """Induced weight change A_new @ B_new.T - A_old @ B_old.T."""
    if f_before.a.shape != f_after.a.shape or f_before.b.shape != f_after.b.shape:
        raise ValueError("factor shapes changed between states")
    return f_after.product() - f_before.product()


# The method table. Each entry runs the refactor kernel once (or reads the
# pair's norms) and returns (p_a, p_b, s): g_a and g_b are right-multiplied
# by p_a and p_b (None: by I), and the update rule steps on the pair
# rescaled to (sqrt(s) A, B / sqrt(s)), which becomes the next iterate.
Preconditioner = tuple[Optional[Array], Optional[Array], float]


def _reflora(f: LowRankFactors, cfg: StepConfig) -> Preconditioner:
    result = refactor.optimal_s(refactor.balance(f), cfg.eta, cfg.refactor_mode)
    return result.s_inverse, result.s_matrix, 1.0


def _reflora_s(f: LowRankFactors, cfg: StepConfig) -> Preconditioner:
    return None, None, refactor.optimal_scalar(f, cfg.eta, cfg.refactor_mode).s_scalar


def _scaledgd(f: LowRankFactors, cfg: StepConfig) -> Preconditioner:
    k = refactor.balance(f).require_full_rank()
    if k.ga_inv is None or k.gb_inv is None:
        raise IllConditioned("an inverse Gram matrix leaves the normal float "
                             "range; rescale the factors")
    return k.gb_inv, k.ga_inv, 1.0


METHODS = {
    METHOD_LORA: lambda f, cfg: (None, None, 1.0),
    METHOD_REFLORA: _reflora,
    METHOD_REFLORA_S: _reflora_s,
    METHOD_SCALEDGD: _scaledgd,
}


def reflora_step(f: LowRankFactors, grad_w_times: GradientPair,
                 cfg: StepConfig, state: Optional[OptimizerState] = None,
                 t: int = 0) -> tuple[LowRankFactors, Optional[OptimizerState]]:
    """One step of `cfg.method` under `cfg.optimizer`.

    The method's METHODS entry preconditions the factor gradients: `lora`
    not at all; `reflora` by (S^{-1}, S) from `refactor.optimal_s`, which
    equals refactoring to the S-balanced pair, stepping there and
    refactoring back; `scaledgd` by ((B^T B)^{-1}, (A^T A)^{-1}), raising
    IllConditioned when one leaves the normal float range; `reflora-s`
    rescales the pair to (sqrt(s) A, B / sqrt(s)) with s from
    `refactor.optimal_scalar` and keeps it,
    with no second refactoring. The update rule is then GD, or Adam/AdamW
    (`adam_update`) on the original axes, except that under `reflora-s`
    the A-moments are rescaled by 1/sqrt(s) and 1/s and the B-moments by
    sqrt(s) and s.

    A pair the method cannot precondition (RankDeficient; ZeroFactor for
    `reflora-s`) takes a plain GD step within the first `cfg.warmup_steps`
    iterations, leaving the optimizer state unchanged; past warmup it is an
    error. `lora` never needs full rank.

    The new pair is built unchecked: it is this arithmetic on a validated
    pair and shape-checked gradients, so its shapes hold, and an entry that
    overflowed shows up as a non-finite next loss, which the run loop
    records as divergence.
    """
    grad_w_times.check_shapes(f)
    g_a, g_b = grad_w_times.g_a, grad_w_times.g_b
    optimizer = cfg.optimizer
    try:
        p_a, p_b, s = METHODS[cfg.method](f, cfg)
    except (RankDeficient, ZeroFactor) as exc:
        if t >= cfg.warmup_steps:
            raise type(exc)(f"{exc} (iteration {t}, past warmup)") from None
        # warmup: plain GD, even under Adam, with the state left unchanged
        p_a, p_b, s, optimizer = None, None, 1.0, GD
    if p_a is not None:
        g_a, g_b = g_a @ p_a, g_b @ p_b
    rs = np.sqrt(s)
    if optimizer == GD:
        # the rescaled pair's gradients are (g_a / rs, rs g_b)
        return LowRankFactors.unchecked(rs * f.a - (cfg.eta / rs) * g_a,
                                        f.b / rs - (cfg.eta * rs) * g_b), state
    if state is None:
        raise ValueError("adaptive optimizer needs an OptimizerState")
    a, b = f.a, f.b
    if s != 1.0:
        a, b, g_a, g_b = rs * a, b / rs, g_a / rs, rs * g_b
        state = dataclasses.replace(state,
                                    m_a=state.m_a / rs, v_a=state.v_a / s,
                                    m_b=state.m_b * rs, v_b=state.v_b * s)
    step = state.step + 1
    decoupled = optimizer == ADAMW
    a, m_a, v_a = adam_update(a, g_a, state.m_a, state.v_a, step, cfg.eta,
                              ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                              state.weight_decay, decoupled)
    b, m_b, v_b = adam_update(b, g_b, state.m_b, state.v_b, step, cfg.eta,
                              ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                              state.weight_decay, decoupled)
    return LowRankFactors.unchecked(a, b), dataclasses.replace(
        state, m_a=m_a, v_a=v_a, m_b=m_b, v_b=v_b, step=step)


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
