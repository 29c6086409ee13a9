"""Optimal refactoring of a low-rank factor pair.

Given factors (A, B) of an adapter increment A @ B.T, any invertible P
yields an equivalent pair (A P, B P^{-T}); the induced one-step weight
update depends on P only through the SPD matrix S = P P^T. This module
computes the S minimizing a quadratic upper bound on the post-step loss:
the balanced S (the matrix geometric mean of (A^T A)^{-1} and B^T B),
scaled by gamma on the small-learning-rate branch of theorem-exact mode.
One scaling, `_bound_scaling`, serves both the matrix minimizer
`optimal_s` and its restriction S = s I, `optimal_scalar`; whether S is a
matrix or a scalar follows from the method, not from the mode. Both return
a `Preconditioner`, the one record of a step's refactoring. The bound
evaluation itself is here too.

Every matrix quantity comes from one kernel, `balance`, which works on the
R-factors of A and B and never forms A @ B.T or inverts a Gram matrix.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import IllConditioned, RankDeficient
from .linalg import Array, sym

# The library's one rank criterion: a factor counts as rank-deficient when
# 1 / (||R||_F ||R^-1||_F) of its R-factor, which lies within a factor r of
# sigma_min / sigma_max, is at or below this ratio. Above it the balanced S
# meets ||(A S)^T (A S) - B^T B|| <= 1e-8 ||B^T B||.
FULL_RANK_EPS = 1e-8


@dataclass(frozen=True)
class LowRankFactors:
    """Factor pair (A, B) with A of shape (m, r) and B of shape (n, r).

    The pair is immutable: a and b are read-only views of the arrays it
    was built from (no copy is made, and the caller's arrays stay
    writable), so a step cannot alter the pair it was given.
    """

    a: Array
    b: Array

    def __post_init__(self):
        a = linalg.check_finite(self.a, "factor A")
        b = linalg.check_finite(self.b, "factor B")
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("factors must be two-dimensional")
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"rank mismatch: A has {a.shape[1]} columns, B has {b.shape[1]}"
            )
        if a.shape[1] < 1:
            raise ValueError("rank must be at least 1")
        if a.shape[1] > min(a.shape[0], b.shape[0]):
            raise ValueError("rank exceeds min(m, n)")
        object.__setattr__(self, "a", _read_only(a))
        object.__setattr__(self, "b", _read_only(b))

    @classmethod
    def unchecked(cls, a: Array, b: Array) -> "LowRankFactors":
        """Bypass construction validation.

        Exists for the stepper's result and the experiment harness's raw-GD
        fallback: both are arithmetic on a validated pair, and a diverged
        trajectory whose entries are no longer finite must still be logged.
        Everything else should use the validating constructor.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "a", _read_only(np.asarray(a, dtype=float)))
        object.__setattr__(obj, "b", _read_only(np.asarray(b, dtype=float)))
        return obj

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def r(self) -> int:
        return self.a.shape[1]

    def product(self) -> Array:
        """The m x n increment A @ B.T."""
        return self.a @ self.b.T

    def is_full_rank(self) -> bool:
        """The kernel's rank verdict (see FULL_RANK_EPS): its R-factor stage."""
        try:
            _r_factors(self)
        except RankDeficient:
            return False
        return True


def _read_only(x: Array) -> Array:
    x = x.view()
    x.flags.writeable = False
    return x


BALANCED = "balanced"
THEOREM_EXACT = "theorem-exact"
MODES = (BALANCED, THEOREM_EXACT)

ROOT_PLUS = "plus"
ROOT_MINUS = "minus"
ROOTS = (ROOT_PLUS, ROOT_MINUS)


@dataclass(frozen=True)
class RefactorMode:
    """How S is chosen per step; whether S is a matrix or s I is the method's.

    kind 'balanced' takes the balanced S for every learning rate;
    'theorem-exact' additionally applies the small-eta scaling branch,
    which needs the gradient-Lipschitz constant and a root choice. The
    unrefactored update, S = I, is the method `lora`, not a mode.
    """

    kind: str = BALANCED
    lipschitz: Optional[float] = None
    root: str = ROOT_PLUS

    def __post_init__(self):
        if self.kind not in MODES:
            raise ValueError(f"unknown refactor mode {self.kind!r}")
        if self.root not in ROOTS:
            raise ValueError(f"root choice must be 'plus' or 'minus', got {self.root!r}")
        if self.kind == THEOREM_EXACT:
            if self.lipschitz is None or not np.isfinite(self.lipschitz) \
                    or self.lipschitz <= 0:
                raise ValueError("theorem-exact mode needs a finite positive lipschitz")


BRANCH_BALANCED = "balanced"
BRANCH_SMALL_ETA_PLUS = "small-eta-plus"
BRANCH_SMALL_ETA_MINUS = "small-eta-minus"


@dataclass(frozen=True)
class Preconditioner:
    """One step's refactoring, as the stepper applies it.

    The factor gradients g_a and g_b are right-multiplied by p_a and p_b
    (None: by I), and the update rule steps on the pair rescaled to
    (sqrt(s) A, B / sqrt(s)), which becomes the next iterate. `optimal_s`
    sets (p_a, p_b) = (S^{-1}, S) and `optimal_scalar` sets s; both record
    the branch and c_tilde, the learning-rate threshold constant of the
    bound: twice the nuclear norm of A @ B.T for a matrix S, and
    2 ||A||_F ||B||_F, the same constant restricted to S = s I, for a
    scalar.
    """

    p_a: Optional[Array] = None
    p_b: Optional[Array] = None
    s: float = 1.0
    branch: Optional[str] = None
    c_tilde: Optional[float] = None


def gram(m: Array) -> Array:
    return sym(m.T @ m)


@dataclass(frozen=True)
class Balance:
    """The refactor kernel's result for a full-rank factor pair.

    s solves S (A^T A) S = B^T B and s_inv is its inverse; c_tilde = 2 *
    sum of the singular values of A @ B.T.
    """

    c_tilde: float
    s: Array
    s_inv: Array


_DEFICIENT = (f"a factor fails the rank criterion {FULL_RANK_EPS:g}; "
              "refactoring is undefined")


def _r_factors(f: LowRankFactors) -> tuple[list[int], Array, Array]:
    """The kernel's R-factor stage: exponents, R-factors and R^{-1} with
    A = 2^ea Qa Ra, B = 2^eb Qb Rb, and the rank verdict.

    Qa, Qb have orthonormal columns; Ra, Rb (and inverses) come stacked so
    each LAPACK call serves both. The power-of-two scaling keeps the Grams
    clear of overflow and underflow; CholeskyQR2 (two passes of Gram plus
    Cholesky) makes the error grow as eps * cond, not eps * cond^2. Raises
    RankDeficient for a non-finite factor, a Gram that is not numerically
    positive definite, or ||R||_F ||R^-1||_F >= 1 / FULL_RANK_EPS.
    """
    exps, xs = [], []
    for x in (f.a, f.b):
        peak = max(float(x.max()), -float(x.min()))
        if not math.isfinite(peak):
            raise RankDeficient(_DEFICIENT)
        exps.append(math.frexp(peak)[1])
        xs.append(np.ldexp(x, -exps[-1]))
    try:
        r1 = np.linalg.cholesky(np.stack([x.T @ x for x in xs])).transpose(0, 2, 1)
        r1_inv = np.linalg.inv(r1)
        qs = [x @ ri for x, ri in zip(xs, r1_inv)]
        r2 = np.linalg.cholesky(np.stack([q.T @ q for q in qs])).transpose(0, 2, 1)
    except np.linalg.LinAlgError:
        raise RankDeficient(_DEFICIENT) from None
    r, r_inv = r2 @ r1, r1_inv @ np.linalg.inv(r2)
    # np.linalg.norm(axis=(1, 2))'s formula; a nan estimate counts as deficient
    rr = np.concatenate((r, r_inv))
    na, nb, na_inv, nb_inv = np.sqrt(np.add.reduce(rr * rr, axis=(1, 2))).tolist()
    if not (na * na_inv < 1.0 / FULL_RANK_EPS and nb * nb_inv < 1.0 / FULL_RANK_EPS):
        raise RankDeficient(_DEFICIENT)
    return exps, r, r_inv


def balance(f: LowRankFactors) -> Balance:
    """The refactor kernel: S, S^{-1} and c_tilde of a full-rank pair.

    Each call is one kernel run, the R-factor stage `_r_factors` and then
    the balancing stage; a caller that needs the result more than once
    passes it on. With A = 2^ea Qa Ra and B = 2^eb Qb Rb, one r x r SVD
    Ra Rb^T = U Sigma W^T gives the balanced matrix

        S = 2^(eb - ea) Ra^{-1} U Sigma U^T Ra^{-T},
        S^{-1} = 2^(ea - eb) Ra^T U Sigma^{-1} U^T Ra,

    and c_tilde = 2^(ea + eb + 1) sum(Sigma), since A @ B.T and Ra Rb^T
    share their singular values. This is the square-root form of balancing
    (Laub, Heath, Paige & Ward, IEEE TAC 1987). Cost is O((m + n) r^2).

    Raises
    ------
    RankDeficient
        If a factor is not finite or fails the rank criterion: its Gram is
        not numerically positive definite or its R-factor's condition
        estimate reaches 1 / FULL_RANK_EPS; or if Ra Rb^T is singular in
        rounding, which the criterion all but rules out.
    IllConditioned
        If the pair is full rank but S or S^{-1} leaves the normal float
        range. S scales as ||B|| / ||A|| and S^{-1} as its inverse, so
        this happens only once that ratio nears 1e-308 or 1e308, e.g. for
        (1e160 A, 1e-160 B). ScaledGD runs only the R-factor stage, so it
        does not raise for S (see `optim._scaledgd`).
    """
    (ea, eb), r, r_inv = _r_factors(f)
    ra, rb = r
    u, sigma, _ = np.linalg.svd(ra @ rb.T)
    if sigma[-1] <= 0.0:
        raise RankDeficient(_DEFICIENT)
    total = 2.0 * float(sigma.sum())
    # decided by exponents, like S below: past the float range c_tilde is
    # inf, its correctly rounded value, and no overflow is signalled
    ct = (math.inf if math.frexp(total)[1] + ea + eb > 1024
          else math.ldexp(total, ea + eb))
    root = np.sqrt(sigma)
    half = r_inv[0] @ (u * root)
    half_inv = (u / root).T @ ra
    d = eb - ea
    return Balance(ct, _scaled(half @ half.T, d, "S"),
                   _scaled(half_inv.T @ half_inv, -d, "S^-1"))


def _scaled(spd: Array, e: int, name: str) -> Array:
    """2^e * spd, or IllConditioned if that leaves the normal float range.

    An SPD matrix's largest entry is on its diagonal; with that entry
    m 2^k (0.5 <= m < 1), 2^e m 2^k is normal and finite exactly when
    -1021 <= k + e <= 1024, checked before ldexp is reached.
    """
    if not -1021 <= math.frexp(float(spd.diagonal().max()))[1] + e <= 1024:
        raise IllConditioned(f"{name} leaves the normal float range; "
                             "rescale the factors")
    return np.ldexp(spd, e)


def g_objective(f: LowRankFactors, s: Array) -> float:
    """Bound objective g(S) = ||A S^{1/2}||_F^2 + ||B S^{-1/2}||_F^2.

    Evaluated through traces, tr(A^T A S) + tr(B^T B S^{-1}) (see
    `_g_terms`), so no matrix root is formed; a non-SPD S raises
    ValueError. Always at least twice the nuclear norm of A @ B.T, with
    equality exactly at the geometric mean.
    """
    t_a, t_b = _g_terms(f, s)
    return t_a + t_b


def _g_terms(f: LowRankFactors, s: Array) -> tuple[float, float]:
    """The two terms of g(S): tr(A^T A S) and tr(B^T B S^{-1}).

    The second comes from the Cholesky factor of S. Since
    g(gamma S) = gamma tr(A^T A S) + tr(B^T B S^{-1}) / gamma, one call
    gives g along the whole ray gamma S. A non-SPD S raises ValueError.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (f.r, f.r):
        raise ValueError(f"S has shape {s.shape}, expected {(f.r, f.r)}")
    if not linalg.is_symmetric(s):
        raise ValueError("S is not symmetric")
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError:
        raise ValueError("S is not positive definite") from None
    # tr(B^T B S^{-1}) = ||L^{-1} B^T||_F^2 for S = L L^T
    return float(np.sum(gram(f.a) * s)), float(np.sum((l_inv @ f.b.T) ** 2))


def _bound_scaling(ct: float, eta: float, mode: RefactorMode) -> tuple[float, str]:
    """The factor gamma on the balanced S, and the branch it lies on.

    In theorem-exact mode with 0 < eta < 1/(c_tilde L), gamma is the
    chosen root of gamma + 1/gamma = 2 / (c_tilde L eta), which makes
    g(gamma S) = 1/(L eta); the roots multiply to one, so the minus root is
    taken as the reciprocal of the plus root, free of cancellation. At or
    above the threshold, for eta < 0 (kept for bound visualization) and in
    balanced mode, gamma = 1. eta = 0 is rejected in theorem-exact mode:
    the bound minimizer has a jump discontinuity there.
    """
    if mode.kind == BALANCED:
        return 1.0, BRANCH_BALANCED
    if eta == 0.0:
        raise ValueError("eta = 0 is a jump discontinuity of the bound minimizer")
    if eta < 0.0 or eta >= 1.0 / (ct * mode.lipschitz):
        return 1.0, BRANCH_BALANCED
    x = 1.0 / (ct * mode.lipschitz * eta)
    plus = float(x + np.sqrt(max(x * x - 1.0, 0.0)))
    if mode.root == ROOT_PLUS:
        return plus, BRANCH_SMALL_ETA_PLUS
    return 1.0 / plus, BRANCH_SMALL_ETA_MINUS


def optimal_s(k: Balance, eta: float, mode: RefactorMode) -> Preconditioner:
    """S minimizing the loss upper bound, per the configured mode.

    The balanced S of the kernel result `k = balance(f)` scaled by
    `_bound_scaling`'s gamma (and S^{-1} by 1/gamma), as the
    preconditioners (S^{-1}, S). On the balanced branch gamma is exactly 1,
    so the scaling leaves S and S^{-1} bit for bit.
    """
    gamma, branch = _bound_scaling(k.c_tilde, eta, mode)
    return Preconditioner(k.s_inv / gamma, gamma * k.s, branch=branch,
                          c_tilde=k.c_tilde)


def optimal_scalar(f: LowRankFactors, eta: float, mode: RefactorMode) -> Preconditioner:
    """The same bound minimizer restricted to S = s I, as the rescale s.

    The balanced value ||B||_F / ||A||_F equalizes the factor norms, and
    c_tilde becomes 2 ||A||_F ||B||_F; `_bound_scaling`'s gamma then scales
    it exactly as it scales the matrix S, so on the small-eta branches
    s solves ||A||_F^2 s + ||B||_F^2 / s = 1/(L eta).
    """
    a2 = float(np.sum(f.a * f.a))
    b2 = float(np.sum(f.b * f.b))
    if a2 == 0.0 or b2 == 0.0:
        raise RankDeficient("both factors must have positive Frobenius norm")
    norm_a = np.sqrt(a2)
    norm_b = np.sqrt(b2)
    ct = 2.0 * norm_a * norm_b
    gamma, branch = _bound_scaling(ct, eta, mode)
    return Preconditioner(s=float(gamma * (norm_b / norm_a)), branch=branch,
                          c_tilde=ct)


def upper_bound_eval(f: LowRankFactors, s: Array, eta: float, lipschitz: float,
                     grad_spec_norm: float, const_terms: float) -> float:
    """Truncated quadratic loss upper bound after one refactored step.

    Returns

        (L eta^2 / 2) * grad_spec_norm^2 * (g(S) - 1/(L eta))^2 + const_terms.

    The cubic-in-eta remainder is excluded; callers that need a certified
    bound must add it separately (the harness computes it exactly for the
    quadratic test problems). At eta = 0 the squared term is undefined and
    the function returns const_terms exactly. Callers fold the current loss
    into const_terms.
    """
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive")
    if eta == 0.0:
        return float(const_terms)
    g = g_objective(f, s)
    quad = g - 1.0 / (lipschitz * eta)
    return float(0.5 * lipschitz * eta * eta * grad_spec_norm ** 2 * quad * quad
                 + const_terms)
