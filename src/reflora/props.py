"""Invariant suites over fresh random instances.

Each check measures the worst residual of one documented invariant over a
batch of random draws and compares it against the invariant's tolerance.
The props-report CLI prints one row per check and fails if any residual
exceeds its tolerance.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, optim, problems, refactor, rng
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

def check_sqrt_composition(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(trials):
        dim = int(gen.integers(1, 17))
        m = random_spd(gen, dim)
        root = linalg.spd_sqrt(m)
        worst = max(worst, rel(np.linalg.norm(root @ root - m),
                               np.linalg.norm(m)))
    return PropResult("linalg.sqrt_composition", worst, 1e-10)


def check_inv_sqrt_inverse(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(trials):
        dim = int(gen.integers(1, 17))
        m = random_spd(gen, dim)
        lhs = linalg.spd_inv_sqrt(m)
        rhs = np.linalg.inv(linalg.spd_sqrt(m))
        worst = max(worst, rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs)))
    return PropResult("linalg.inv_sqrt_is_inverse", worst, 1e-9)


def check_norm_ordering(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(trials):
        m = gen.standard_normal((int(gen.integers(1, 12)),
                                 int(gen.integers(1, 12))))
        nuc = linalg.nuclear_norm(m)
        fro = float(np.linalg.norm(m))
        spec = linalg.spectral_norm(m)
        worst = max(worst, fro - nuc, spec - fro)
    return PropResult("linalg.norm_ordering", max(worst, 0.0), 1e-12)


def check_product_sqrt_identity(gen, trials: int) -> PropResult:
    # X^{-1/2} (X^{1/2} Y X^{1/2})^{1/2} X^{-1/2} = X^{-1} (X Y)^{1/2}
    worst = 0.0
    for _ in range(trials):
        dim = int(gen.integers(1, 9))
        x = random_spd(gen, dim)
        y = random_spd(gen, dim)
        xih = linalg.spd_inv_sqrt(x)
        xh = linalg.spd_sqrt(x)
        lhs = xih @ linalg.spd_sqrt(linalg.sym(xh @ y @ xh)) @ xih
        rhs = np.linalg.solve(x, linalg.nonsym_psd_sqrt(x, y))
        worst = max(worst, rel(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs)))
    return PropResult("linalg.product_sqrt_identity", worst, 1e-9)


# ---------------------------------------------------------------------------
# refactor invariants

def check_balanced_grams(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(trials):
        f = random_factors(gen)
        s = refactor.geometric_mean_s(f)
        a_t = f.a @ linalg.spd_sqrt(s)
        b_t = f.b @ linalg.spd_inv_sqrt(s)
        ga = refactor.gram(a_t)
        worst = max(worst, rel(np.linalg.norm(ga - refactor.gram(b_t)),
                               np.linalg.norm(ga)))
    return PropResult("refactor.balance", worst, 1e-8)


def check_stationarity(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(trials):
        f = random_factors(gen)
        s = refactor.geometric_mean_s(f)
        gb = refactor.gram(f.b)
        worst = max(worst, rel(np.linalg.norm(s @ refactor.gram(f.a) @ s - gb),
                               np.linalg.norm(gb)))
    return PropResult("refactor.stationarity", worst, 1e-8)


def check_gram_product_form(gen, trials: int) -> PropResult:
    # geometric mean equals (A^T A)^{-1} (A^T A B^T B)^{1/2}
    worst = 0.0
    for _ in range(trials):
        f = random_factors(gen)
        s = refactor.geometric_mean_s(f)
        alt = np.linalg.solve(
            refactor.gram(f.a),
            linalg.nonsym_psd_sqrt(refactor.gram(f.a), refactor.gram(f.b)))
        worst = max(worst, rel(np.linalg.norm(s - alt), np.linalg.norm(s)))
    return PropResult("refactor.gram_product_form", worst, 1e-9)


def check_minimality(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(max(trials // 10, 1)):
        f = random_factors(gen, max_dim=32, max_rank=8)
        s = refactor.geometric_mean_s(f)
        g_star = refactor.g_objective(f, s)
        for _ in range(100):
            w = np.linalg.eigvalsh(s)
            bump = gen.uniform(0.05, 0.5) * w[0]
            pert = gen.standard_normal(s.shape)
            pert = linalg.sym(pert) * (bump / max(np.linalg.norm(pert), 1e-300))
            worst = max(worst, g_star - refactor.g_objective(f, s + pert))
    return PropResult("refactor.minimality", max(worst, 0.0), 0.0)


def check_congruence_invariance(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(trials):
        f = random_factors(gen, max_dim=32, max_rank=8)
        p = gen.standard_normal((f.r, f.r)) + np.eye(f.r)
        p_inv_t = np.linalg.inv(p).T
        s = refactor.geometric_mean_s(f)
        s_p = refactor.geometric_mean_s(
            LowRankFactors(f.a @ p, f.b @ p_inv_t))
        expect = np.linalg.solve(p, np.linalg.solve(p, s.T).T)
        worst = max(worst, rel(np.linalg.norm(s_p - expect),
                               np.linalg.norm(expect)))
    return PropResult("refactor.congruence_invariance", worst, 1e-8)


def check_scalar_critical_point(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(trials):
        f = random_factors(gen)
        res = refactor.optimal_scalar(f, 0.1, refactor.RefactorMode())
        a2 = float(np.sum(f.a * f.a))
        b2 = float(np.sum(f.b * f.b))
        worst = max(worst, rel(abs(a2 * res.s_scalar ** 2 - b2), b2))
    return PropResult("refactor.scalar_critical_point", worst, 1e-12)


# ---------------------------------------------------------------------------
# optim invariants

def _random_instance(gen, max_dim=24, max_rank=6):
    f = random_factors(gen, max_dim=max_dim, max_rank=max_rank)
    grad = gen.standard_normal((f.m, f.n))
    return f, grad


def check_sandwich(gen, trials: int) -> PropResult:
    # first-order loss change bracketed between 0 and -eta ||G||_2^2 g(S)
    worst = 0.0
    eta = 1e-3
    for _ in range(trials):
        f, grad = _random_instance(gen)
        spec2 = linalg.spectral_norm(grad) ** 2
        for s in (np.eye(f.r), refactor.geometric_mean_s(f)):
            s_half = linalg.spd_sqrt(s)
            s_inv_half = linalg.spd_inv_sqrt(s)
            first_order = -eta * (np.sum((grad @ f.b @ s_inv_half) ** 2)
                                  + np.sum((grad.T @ f.a @ s_half) ** 2))
            lower = -eta * spec2 * refactor.g_objective(f, s)
            worst = max(worst, first_order, lower - first_order)
    return PropResult("optim.sandwich", max(worst, 0.0), 1e-12)


def check_orthogonal_invariance(gen, trials: int) -> PropResult:
    worst = 0.0
    cfg = optim.StepConfig(eta=1e-2, method=optim.METHOD_LORA)
    for _ in range(trials):
        f, grad = _random_instance(gen)
        q, _ = np.linalg.qr(gen.standard_normal((f.r, f.r)))
        f_rot = LowRankFactors(f.a @ q, f.b @ q)
        gp = GradientPair(grad @ f.b, grad.T @ f.a)
        gp_rot = GradientPair(grad @ f_rot.b, grad.T @ f_rot.a)
        dw = optim.delta_w(f, optim.reflora_step(f, gp, cfg)[0])
        dw_rot = optim.delta_w(f_rot, optim.reflora_step(f_rot, gp_rot, cfg)[0])
        worst = max(worst, rel(np.linalg.norm(dw - dw_rot),
                               np.linalg.norm(dw)))
    return PropResult("optim.orthogonal_invariance", worst, 1e-9)


def check_update_decomposition(gen, trials: int) -> PropResult:
    # weight change of one refactored step splits into the three bilinear
    # terms A S dB^T + dA S^{-1} B^T + dA dB^T
    worst = 0.0
    eta = 1e-2
    cfg = optim.StepConfig(eta=eta, method=optim.METHOD_REFLORA)
    for _ in range(trials):
        f, grad = _random_instance(gen)
        gp = GradientPair(grad @ f.b, grad.T @ f.a)
        k = refactor.balance(f)
        f_new, _ = optim.reflora_step(f, gp, cfg)
        dw = optim.delta_w(f, f_new)
        da = -eta * gp.g_a
        db = -eta * gp.g_b
        expect = f.a @ k.s @ db.T + da @ k.s_inv @ f.b.T + da @ db.T
        worst = max(worst, rel(np.linalg.norm(dw - expect),
                               np.linalg.norm(expect)))
    return PropResult("optim.update_decomposition", worst, 1e-9)


def check_balance_propagation(gen, trials: int) -> PropResult:
    worst = 0.0
    cfg = optim.StepConfig(eta=0.01, method=optim.METHOD_REFLORA)
    for _ in range(max(trials // 10, 1)):
        problem, _ = problems.make_mf(16, 12, 3, int(gen.integers(1 << 31)))
        f = problems.init_factors(16, 12, 3, int(gen.integers(1 << 31)))
        for t in range(20):
            gp = problem.value_and_grad(f)[1]
            f, _ = optim.reflora_step(f, gp, cfg, t=t)
            if t >= cfg.warmup_steps:
                s = refactor.geometric_mean_s(f)
                a_t = f.a @ linalg.spd_sqrt(s)
                b_t = f.b @ linalg.spd_inv_sqrt(s)
                ga = refactor.gram(a_t)
                worst = max(worst, rel(np.linalg.norm(ga - refactor.gram(b_t)),
                                       np.linalg.norm(ga)))
    return PropResult("optim.balance_propagation", worst, 1e-7)


def check_warmup_semantics(gen, trials: int) -> PropResult:
    # zero-initialized B: the warmup GD step must leave A alone and move B
    failures = 0
    cfg = optim.StepConfig(eta=0.01, method=optim.METHOD_REFLORA)
    for _ in range(max(trials // 10, 1)):
        problem, _ = problems.make_mf(10, 8, 2, int(gen.integers(1 << 31)))
        f = problems.init_factors(10, 8, 2, int(gen.integers(1 << 31)))
        gp = problem.value_and_grad(f)[1]
        f_new, _ = optim.reflora_step(f, gp, cfg, t=0)
        a_unchanged = float(np.linalg.norm(f_new.a - f.a)) == 0.0
        b_nonzero = float(np.linalg.norm(f_new.b)) > 0.0
        if not (a_unchanged and b_nonzero):
            failures += 1
    return PropResult("optim.warmup_semantics", float(failures), 0.0)


def check_horizontal_update(gen, trials: int) -> PropResult:
    worst = 0.0
    eta = 1e-2
    for _ in range(trials):
        f, grad = _random_instance(gen)
        k = refactor.balance(f)
        update = (-eta * grad @ f.b @ k.s_inv, -eta * grad.T @ f.a @ k.s)
        worst = max(worst, optim.horizontal_check(f, update))
    return PropResult("optim.horizontal_update", worst, 1e-8)


# ---------------------------------------------------------------------------
# problems invariants

def check_quadratic_bound(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(max(trials // 5, 1)):
        seed = int(gen.integers(1 << 31))
        for problem, _ in (problems.make_mf(10, 8, 2, seed),
                           problems.make_linreg(6, 5, 7, seed)):
            w = gen.standard_normal((problem.m, problem.n))
            for _ in range(5):
                dw = gen.standard_normal(w.shape)
                lhs = problem.loss(w + dw)
                rhs = (problem.loss(w)
                       + float(np.sum(problem.grad(w) * dw))
                       + 0.5 * problem.lipschitz * float(np.sum(dw * dw)))
                worst = max(worst, rel(lhs - rhs, max(abs(lhs), 1.0)))
    return PropResult("problems.quadratic_bound", max(worst, 0.0), 1e-12)


def check_instance_determinism(gen, trials: int) -> PropResult:
    worst = 0.0
    for _ in range(max(trials // 20, 1)):
        seed = int(gen.integers(1 << 31))
        _, i1 = problems.make_mf(12, 10, 3, seed)
        _, i2 = problems.make_mf(12, 10, 3, seed)
        worst = max(worst, float(np.max(np.abs(i1.y - i2.y))))
        _, j1 = problems.make_linreg(4, 5, 6, seed)
        _, j2 = problems.make_linreg(4, 5, 6, seed)
        worst = max(worst, float(np.max(np.abs(j1.x - j2.x))),
                    float(np.max(np.abs(j1.y - j2.y))))
    return PropResult("problems.instance_determinism", worst, 0.0)


ALL_CHECKS = (
    check_sqrt_composition,
    check_inv_sqrt_inverse,
    check_norm_ordering,
    check_product_sqrt_identity,
    check_balanced_grams,
    check_stationarity,
    check_gram_product_form,
    check_minimality,
    check_congruence_invariance,
    check_scalar_critical_point,
    check_sandwich,
    check_orthogonal_invariance,
    check_update_decomposition,
    check_balance_propagation,
    check_warmup_semantics,
    check_horizontal_update,
    check_quadratic_bound,
    check_instance_determinism,
)


def run_all(seed: int = 0, trials: int = 100) -> list[PropResult]:
    """Run every invariant suite on fresh draws from the props stream."""
    results = []
    for check in ALL_CHECKS:
        gen = rng.stream(seed, rng.STREAM_PROPS)
        try:
            results.append(check(gen, trials))
        except Exception as exc:  # a crash counts as a failed invariant
            results.append(PropResult(f"{check.__name__} ({type(exc).__name__})",
                                      float("inf"), 0.0))
    return results
