"""Invariant suites over fresh random instances.

An invariant is a row of `INVARIANTS`: a name, a tolerance and a residual
function that draws one random instance and returns that instance's
residual. `evaluate` is the one draw loop: it takes the worst residual
over max(trials // trials_per_draw, 1) draws, so a row whose single draw
does the work of several (trials_per_draw > 1) still runs at least once.
The props-report CLI prints one row per invariant and fails if any
residual exceeds its tolerance.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import harness, linalg, optim, problems, refactor, rng
from .linalg import Array
from .optim import GradientPair
from .refactor import LowRankFactors


@dataclass(frozen=True)
class PropResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


@dataclass(frozen=True)
class Invariant:
    """One documented invariant: `residual(gen)` draws one instance from
    gen and returns its residual; the row passes if the worst residual is
    at most `tolerance`. A draw counts as `trials_per_draw` trials."""

    name: str
    tolerance: float
    residual: Callable[[np.random.Generator], float]
    trials_per_draw: int = 1


def evaluate(inv: Invariant, gen: np.random.Generator, trials: int) -> PropResult:
    """The worst residual of `inv` over max(trials // trials_per_draw, 1)
    draws from gen. A crash counts as a failed invariant: the row reads
    `<name> (<ExceptionType>)` with residual inf."""
    worst = 0.0
    try:
        for _ in range(max(trials // inv.trials_per_draw, 1)):
            worst = max(worst, inv.residual(gen))
    except Exception as exc:
        return PropResult(f"{inv.name} ({type(exc).__name__})", float("inf"), 0.0)
    return PropResult(inv.name, worst, inv.tolerance)


def random_spd(gen: np.random.Generator, dim: int) -> Array:
    g = gen.standard_normal((dim, dim))
    return linalg.sym(g @ g.T) + dim * np.eye(dim) * 1e-3


def random_factors(gen: np.random.Generator, max_dim: int = 64,
                   max_rank: int = 16) -> LowRankFactors:
    r = int(gen.integers(1, max_rank + 1))
    m = int(gen.integers(r, max_dim + 1))
    n = int(gen.integers(r, max_dim + 1))
    return LowRankFactors(gen.standard_normal((m, r)),
                          gen.standard_normal((n, r)))


def rel(err: float, scale: float) -> float:
    return float(err / max(scale, np.finfo(float).tiny))


# ---------------------------------------------------------------------------
# linalg invariants

def _sqrt_composition(gen) -> float:
    m = random_spd(gen, int(gen.integers(1, 17)))
    root = linalg.spd_sqrt(m)
    return rel(np.linalg.norm(root @ root - m), np.linalg.norm(m))


def _inv_sqrt_inverse(gen) -> float:
    m = random_spd(gen, int(gen.integers(1, 17)))
    lhs = linalg.spd_inv_sqrt(m)
    rhs = np.linalg.inv(linalg.spd_sqrt(m))
    return rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs))


def _norm_ordering(gen) -> float:
    m = gen.standard_normal((int(gen.integers(1, 12)),
                             int(gen.integers(1, 12))))
    fro = float(np.linalg.norm(m))
    return max(fro - linalg.nuclear_norm(m), linalg.spectral_norm(m) - fro)


def _product_sqrt_identity(gen) -> float:
    # X^{-1/2} (X^{1/2} Y X^{1/2})^{1/2} X^{-1/2} = X^{-1} (X Y)^{1/2}
    dim = int(gen.integers(1, 9))
    x = random_spd(gen, dim)
    y = random_spd(gen, dim)
    xih = linalg.spd_inv_sqrt(x)
    xh = linalg.spd_sqrt(x)
    lhs = xih @ linalg.spd_sqrt(linalg.sym(xh @ y @ xh)) @ xih
    rhs = np.linalg.solve(x, linalg.nonsym_psd_sqrt(x, y))
    return rel(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs))


# ---------------------------------------------------------------------------
# refactor invariants

def _balanced_gap(f: LowRankFactors) -> float:
    """Gram gap of the refactored pair (A S^{1/2}, B S^{-1/2})."""
    s = refactor.balance(f).s
    return harness.balance_gap(LowRankFactors.unchecked(
        f.a @ linalg.spd_sqrt(s), f.b @ linalg.spd_inv_sqrt(s)))


def _stationarity(gen) -> float:
    f = random_factors(gen)
    s = refactor.balance(f).s
    gb = refactor.gram(f.b)
    return rel(np.linalg.norm(s @ refactor.gram(f.a) @ s - gb),
               np.linalg.norm(gb))


def _gram_product_form(gen) -> float:
    # geometric mean equals (A^T A)^{-1} (A^T A B^T B)^{1/2}
    f = random_factors(gen)
    s = refactor.balance(f).s
    alt = np.linalg.solve(
        refactor.gram(f.a),
        linalg.nonsym_psd_sqrt(refactor.gram(f.a), refactor.gram(f.b)))
    return rel(np.linalg.norm(s - alt), np.linalg.norm(s))


def _minimality(gen) -> float:
    # g at the balanced S against 100 symmetric perturbations that keep S
    # positive definite
    f = random_factors(gen, max_dim=32, max_rank=8)
    s = refactor.balance(f).s
    g_star = refactor.g_objective(f, s)
    floor = np.linalg.eigvalsh(s)[0]

    def perturbed() -> Array:
        bump = gen.uniform(0.05, 0.5) * floor
        pert = gen.standard_normal(s.shape)
        return s + linalg.sym(pert) * (bump / max(np.linalg.norm(pert), 1e-300))

    return max(g_star - refactor.g_objective(f, perturbed()) for _ in range(100))


def _congruence_invariance(gen) -> float:
    f = random_factors(gen, max_dim=32, max_rank=8)
    p = gen.standard_normal((f.r, f.r)) + np.eye(f.r)
    p_inv_t = np.linalg.inv(p).T
    s = refactor.balance(f).s
    s_p = refactor.balance(LowRankFactors(f.a @ p, f.b @ p_inv_t)).s
    expect = np.linalg.solve(p, np.linalg.solve(p, s.T).T)
    return rel(np.linalg.norm(s_p - expect), np.linalg.norm(expect))


def _scalar_critical_point(gen) -> float:
    f = random_factors(gen)
    res = refactor.optimal_scalar(f, 0.1, refactor.RefactorMode())
    a2 = float(np.sum(f.a * f.a))
    b2 = float(np.sum(f.b * f.b))
    return rel(abs(a2 * res.s ** 2 - b2), b2)


# ---------------------------------------------------------------------------
# optim invariants

def _random_instance(gen, max_dim=24, max_rank=6):
    f = random_factors(gen, max_dim=max_dim, max_rank=max_rank)
    grad = gen.standard_normal((f.m, f.n))
    return f, grad


def _sandwich(gen) -> float:
    # first-order loss change bracketed between 0 and -eta ||G||_2^2 g(S)
    eta = 1e-3
    f, grad = _random_instance(gen)
    spec2 = linalg.spectral_norm(grad) ** 2
    gaps = []
    for s in (np.eye(f.r), refactor.balance(f).s):
        s_half = linalg.spd_sqrt(s)
        s_inv_half = linalg.spd_inv_sqrt(s)
        first_order = -eta * (np.sum((grad @ f.b @ s_inv_half) ** 2)
                              + np.sum((grad.T @ f.a @ s_half) ** 2))
        lower = -eta * spec2 * refactor.g_objective(f, s)
        gaps += [first_order, lower - first_order]
    return max(gaps)


def _orthogonal_invariance(gen) -> float:
    cfg = optim.StepConfig(eta=1e-2, method=optim.METHOD_LORA)
    f, grad = _random_instance(gen)
    q, _ = np.linalg.qr(gen.standard_normal((f.r, f.r)))
    f_rot = LowRankFactors(f.a @ q, f.b @ q)
    gp = GradientPair(grad @ f.b, grad.T @ f.a)
    gp_rot = GradientPair(grad @ f_rot.b, grad.T @ f_rot.a)
    dw = optim.delta_w(f, optim.reflora_step(f, gp, cfg)[0])
    dw_rot = optim.delta_w(f_rot, optim.reflora_step(f_rot, gp_rot, cfg)[0])
    return rel(np.linalg.norm(dw - dw_rot), np.linalg.norm(dw))


def _update_decomposition(gen) -> float:
    # weight change of one refactored step splits into the three bilinear
    # terms A S dB^T + dA S^{-1} B^T + dA dB^T
    eta = 1e-2
    cfg = optim.StepConfig(eta=eta, method=optim.METHOD_REFLORA)
    f, grad = _random_instance(gen)
    gp = GradientPair(grad @ f.b, grad.T @ f.a)
    k = refactor.balance(f)
    dw = optim.delta_w(f, optim.reflora_step(f, gp, cfg)[0])
    da = -eta * gp.g_a
    db = -eta * gp.g_b
    expect = f.a @ k.s @ db.T + da @ k.s_inv @ f.b.T + da @ db.T
    return rel(np.linalg.norm(dw - expect), np.linalg.norm(expect))


def _balance_propagation(gen) -> float:
    # the refactored pair stays balanced along a 20-step reflora run
    cfg = optim.StepConfig(eta=0.01, method=optim.METHOD_REFLORA)
    problem, _ = problems.make_mf(16, 12, 3, int(gen.integers(1 << 31)))
    f = problems.init_factors(16, 12, 3, int(gen.integers(1 << 31)))
    gaps = []
    for t in range(20):
        f, _ = optim.reflora_step(f, problem.value_and_grad(f)[1], cfg, t=t)
        if t >= cfg.warmup_steps:
            gaps.append(_balanced_gap(f))
    return max(gaps)


def _warmup_semantics(gen) -> float:
    # zero-initialized B: the warmup GD step must leave A alone and move B;
    # 1 for a draw where it does not
    cfg = optim.StepConfig(eta=0.01, method=optim.METHOD_REFLORA)
    problem, _ = problems.make_mf(10, 8, 2, int(gen.integers(1 << 31)))
    f = problems.init_factors(10, 8, 2, int(gen.integers(1 << 31)))
    f_new, _ = optim.reflora_step(f, problem.value_and_grad(f)[1], cfg, t=0)
    a_unchanged = float(np.linalg.norm(f_new.a - f.a)) == 0.0
    b_nonzero = float(np.linalg.norm(f_new.b)) > 0.0
    return 0.0 if a_unchanged and b_nonzero else 1.0


def _horizontal_update(gen) -> float:
    eta = 1e-2
    f, grad = _random_instance(gen)
    k = refactor.balance(f)
    update = (-eta * grad @ f.b @ k.s_inv, -eta * grad.T @ f.a @ k.s)
    return optim.horizontal_check(f, update)


# ---------------------------------------------------------------------------
# problems invariants

def _quadratic_bound(gen) -> float:
    seed = int(gen.integers(1 << 31))
    gaps = []
    for problem, _ in (problems.make_mf(10, 8, 2, seed),
                       problems.make_linreg(6, 5, 7, seed)):
        w = gen.standard_normal((problem.m, problem.n))
        for _ in range(5):
            dw = gen.standard_normal(w.shape)
            lhs = problem.loss(w + dw)
            rhs = (problem.loss(w)
                   + float(np.sum(problem.grad(w) * dw))
                   + 0.5 * problem.lipschitz * float(np.sum(dw * dw)))
            gaps.append(rel(lhs - rhs, max(abs(lhs), 1.0)))
    return max(gaps)


def _instance_determinism(gen) -> float:
    seed = int(gen.integers(1 << 31))
    _, i1 = problems.make_mf(12, 10, 3, seed)
    _, i2 = problems.make_mf(12, 10, 3, seed)
    _, j1 = problems.make_linreg(4, 5, 6, seed)
    _, j2 = problems.make_linreg(4, 5, 6, seed)
    return max(float(np.max(np.abs(i1.y - i2.y))),
               float(np.max(np.abs(j1.x - j2.x))),
               float(np.max(np.abs(j1.y - j2.y))))


INVARIANTS = (
    Invariant("linalg.sqrt_composition", 1e-10, _sqrt_composition),
    Invariant("linalg.inv_sqrt_is_inverse", 1e-9, _inv_sqrt_inverse),
    Invariant("linalg.norm_ordering", 1e-12, _norm_ordering),
    Invariant("linalg.product_sqrt_identity", 1e-9, _product_sqrt_identity),
    Invariant("refactor.balance", 1e-8,
              lambda gen: _balanced_gap(random_factors(gen))),
    Invariant("refactor.stationarity", 1e-8, _stationarity),
    Invariant("refactor.gram_product_form", 1e-9, _gram_product_form),
    Invariant("refactor.minimality", 0.0, _minimality, trials_per_draw=10),
    Invariant("refactor.congruence_invariance", 1e-8, _congruence_invariance),
    Invariant("refactor.scalar_critical_point", 1e-12, _scalar_critical_point),
    Invariant("optim.sandwich", 1e-12, _sandwich),
    Invariant("optim.orthogonal_invariance", 1e-9, _orthogonal_invariance),
    Invariant("optim.update_decomposition", 1e-9, _update_decomposition),
    Invariant("optim.balance_propagation", 1e-7, _balance_propagation,
              trials_per_draw=10),
    Invariant("optim.warmup_semantics", 0.0, _warmup_semantics,
              trials_per_draw=10),
    Invariant("optim.horizontal_update", 1e-8, _horizontal_update),
    Invariant("problems.quadratic_bound", 1e-12, _quadratic_bound,
              trials_per_draw=5),
    Invariant("problems.instance_determinism", 0.0, _instance_determinism,
              trials_per_draw=20),
)


def run_all(seed: int = 0, trials: int = 100) -> list[PropResult]:
    """Evaluate every invariant on its own fresh props stream."""
    return [evaluate(inv, rng.stream(seed, rng.STREAM_PROPS), trials)
            for inv in INVARIANTS]
