"""Optimal refactoring of a low-rank factor pair.

Given factors (A, B) of an adapter increment A @ B.T, any invertible P
yields an equivalent pair (A P, B P^{-T}); the induced one-step weight
update depends on P only through the SPD matrix S = P P^T. This module
computes the S minimizing a quadratic upper bound on the post-step loss:
the balanced S (the matrix geometric mean of (A^T A)^{-1} and B^T B),
scaled by gamma on the small-learning-rate branch of theorem-exact mode.
One scaling, `_bound_scaling`, serves both the matrix minimizer
`optimal_s` and its restriction S = s I, `optimal_scalar`; whether S is a
matrix or a scalar follows from the method, not from the mode. The bound
evaluation itself is here too.

Every matrix quantity comes from one kernel, `balance`, which works on the
R-factors of A and B and never forms A @ B.T or inverts a Gram matrix.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import (IllConditioned, InvalidEta, NonSpdInput, RankDeficient,
                     ZeroFactor)
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
        """The refactor kernel's rank verdict (see FULL_RANK_EPS)."""
        return balance(self).full_rank


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
class RefactorResult:
    """Chosen S (matrix or scalar, exactly one set) plus diagnostics.

    c_tilde is the learning-rate threshold constant of the bound: twice the
    nuclear norm of A @ B.T for a matrix S, and 2 ||A||_F ||B||_F, the same
    constant restricted to S = s I, for a scalar. g_value is the bound
    objective ||A S^{1/2}||_F^2 + ||B S^{-1/2}||_F^2 evaluated at the
    returned S; on the balanced branch it equals c_tilde, on the small-eta
    branches it equals 1 / (L eta). Matrix results carry S^{-1} in
    s_inverse.
    """

    branch: str
    c_tilde: float
    g_value: float
    s_matrix: Optional[Array] = None
    s_scalar: Optional[float] = None
    s_inverse: Optional[Array] = None

    def __post_init__(self):
        if (self.s_matrix is None) == (self.s_scalar is None):
            raise ValueError("exactly one of s_matrix, s_scalar must be set")


def gram(m: Array) -> Array:
    return sym(m.T @ m)


@dataclass(frozen=True)
class Balance:
    """The refactor kernel's result for one factor pair.

    full_rank is the library's rank verdict; c_tilde = 2 * sum of the
    singular values of A @ B.T (nan for non-finite factors). Only for a
    full-rank pair: s solves S (A^T A) S = B^T B, s_inv is its inverse,
    and ga_inv, gb_inv are (A^T A)^{-1} and (B^T B)^{-1}, each None when
    it leaves the normal float range (e.g. for (1e-160 A, 1e-160 B), where
    S is still representable).
    """

    full_rank: bool
    c_tilde: float
    s: Optional[Array] = None
    s_inv: Optional[Array] = None
    ga_inv: Optional[Array] = None
    gb_inv: Optional[Array] = None

    def require_full_rank(self) -> "Balance":
        if not self.full_rank:
            raise RankDeficient("a factor fails the rank criterion "
                                f"{FULL_RANK_EPS:g}; refactoring is undefined")
        return self


def _r_factors(f: LowRankFactors) -> Optional[tuple[list[int], Array,
                                                    Optional[Array]]]:
    """Exponents, R-factors and R^{-1} with A = 2^ea Qa Ra, B = 2^eb Qb Rb.

    Qa, Qb have orthonormal columns; Ra, Rb (and inverses) come stacked so
    each LAPACK call serves both. The power-of-two scaling keeps the Grams
    clear of overflow and underflow; CholeskyQR2 (two passes of Gram plus
    Cholesky) makes the error grow as eps * cond, not eps * cond^2. If a
    Gram is not numerically positive definite, each R is instead a root of
    its Gram by eigendecomposition and R^{-1} is None. None if non-finite.
    """
    exps, xs = [], []
    for x in (f.a, f.b):
        peak = max(float(x.max()), -float(x.min()))
        if not np.isfinite(peak):
            return None
        exps.append(int(np.frexp(peak)[1]))
        xs.append(np.ldexp(x, -exps[-1]))
    grams = np.stack([x.T @ x for x in xs])
    try:
        r1 = np.linalg.cholesky(grams).transpose(0, 2, 1)
        r1_inv = np.linalg.inv(r1)
        qs = [x @ ri for x, ri in zip(xs, r1_inv)]
        r2 = np.linalg.cholesky(np.stack([q.T @ q for q in qs])).transpose(0, 2, 1)
        return exps, r2 @ r1, r1_inv @ np.linalg.inv(r2)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(grams)
        roots = np.sqrt(np.clip(w, 0.0, None))[..., None] * v.transpose(0, 2, 1)
        return exps, roots, None


def balance(f: LowRankFactors) -> Balance:
    """The refactor kernel: S, S^{-1}, c_tilde and the rank verdict.

    Each call is one kernel run; a caller that needs the result more than
    once passes it on. With A = 2^ea Qa Ra and B = 2^eb Qb Rb, one r x r SVD
    Ra Rb^T = U Sigma W^T gives the balanced matrix

        S = 2^(eb - ea) Ra^{-1} U Sigma U^T Ra^{-T},
        S^{-1} = 2^(ea - eb) Ra^T U Sigma^{-1} U^T Ra,

    and c_tilde = 2^(ea + eb + 1) sum(Sigma), since A @ B.T and Ra Rb^T
    share their singular values. This is the square-root form of balancing
    (Laub, Heath, Paige & Ward, IEEE TAC 1987). Cost is O((m + n) r^2).

    Raises
    ------
    IllConditioned
        If the pair is full rank but S or S^{-1} leaves the normal float
        range. S scales as ||B|| / ||A|| and S^{-1} as its inverse, so
        this happens only once that ratio nears 1e-308 or 1e308, e.g. for
        (1e160 A, 1e-160 B).
    """
    factors = _r_factors(f)
    if factors is None:
        return Balance(False, float("nan"))
    (ea, eb), r, r_inv = factors
    ra, rb = r
    u, sigma, _ = np.linalg.svd(ra @ rb.T)
    total = 2.0 * float(np.sum(sigma))
    # decided by exponents, like S below: past the float range c_tilde is
    # inf, its correctly rounded value, and no overflow is signalled
    ct = (math.inf if math.frexp(total)[1] + ea + eb > 1024
          else math.ldexp(total, ea + eb))
    # a nan condition estimate compares False, so it counts as deficient
    if r_inv is None or sigma[-1] <= 0.0 or not np.all(
            np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(r_inv, axis=(1, 2))
            < 1.0 / FULL_RANK_EPS):
        return Balance(False, ct)
    ra_inv, rb_inv = r_inv
    half = ra_inv @ (u * np.sqrt(sigma))
    half_inv = (u / np.sqrt(sigma)).T @ ra
    d = eb - ea
    s, s_inv = half @ half.T, half_inv.T @ half_inv
    # checked before scaling, so an out-of-range pair never reaches ldexp
    if not (_scaled_in_range(s, d) and _scaled_in_range(s_inv, -d)):
        raise IllConditioned(
            "S or S^-1 leaves the normal float range: the factors' "
            f"scales differ by about 2^{abs(d)}")
    return Balance(
        True, ct,
        s=np.ldexp(s, d),
        s_inv=np.ldexp(s_inv, -d),
        ga_inv=_scaled_or_none(ra_inv @ ra_inv.T, -2 * ea),
        gb_inv=_scaled_or_none(rb_inv @ rb_inv.T, -2 * eb))


def _scaled_in_range(spd: Array, e: int) -> bool:
    """Whether 2^e * spd has a finite, normal largest entry.

    An SPD matrix's largest entry is on its diagonal; with that entry
    m 2^k (0.5 <= m < 1), 2^e m 2^k is normal and finite exactly when
    -1021 <= k + e <= 1024.
    """
    return -1021 <= math.frexp(float(spd.diagonal().max()))[1] + e <= 1024


def _scaled_or_none(spd: Array, e: int) -> Optional[Array]:
    """2^e * spd, or None if that leaves the normal float range."""
    return np.ldexp(spd, e) if _scaled_in_range(spd, e) else None


def c_tilde(f: LowRankFactors) -> float:
    """Threshold constant: twice the nuclear norm of the increment."""
    return balance(f).c_tilde


def geometric_mean_s(f: LowRankFactors) -> Array:
    """Balanced refactoring matrix: the SPD solution of S (A^T A) S = B^T B.

    This is the matrix geometric mean of (A^T A)^{-1} and B^T B,

        (A^T A)^{-1/2} [ (A^T A)^{1/2} B^T B (A^T A)^{1/2} ]^{1/2} (A^T A)^{-1/2}.

    Right-multiplying A by its square root and B by its inverse square root
    yields a pair with equal Gram matrices.

    Raises
    ------
    RankDeficient
        If either factor fails the kernel's rank verdict.
    """
    return balance(f).require_full_rank().s


def g_objective(f: LowRankFactors, s: Array) -> float:
    """Bound objective g(S) = ||A S^{1/2}||_F^2 + ||B S^{-1/2}||_F^2.

    Evaluated through traces, tr(A^T A S) + tr(B^T B S^{-1}), the second
    from the Cholesky factor of S, so no matrix root is formed; a non-SPD
    S raises NonSpdInput. Always at least twice the nuclear norm of
    A @ B.T, with equality exactly at the geometric mean.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (f.r, f.r):
        raise ValueError(f"S has shape {s.shape}, expected {(f.r, f.r)}")
    if not linalg.is_symmetric(s):
        raise NonSpdInput("S is not symmetric")
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError:
        raise NonSpdInput("S is not positive definite") from None
    # tr(B^T B S^{-1}) = ||L^{-1} B^T||_F^2 for S = L L^T
    return float(np.sum(gram(f.a) * s) + np.sum((l_inv @ f.b.T) ** 2))


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
        raise InvalidEta("eta = 0 is a jump discontinuity of the bound minimizer")
    if eta < 0.0 or eta >= 1.0 / (ct * mode.lipschitz):
        return 1.0, BRANCH_BALANCED
    x = 1.0 / (ct * mode.lipschitz * eta)
    plus = float(x + np.sqrt(max(x * x - 1.0, 0.0)))
    if mode.root == ROOT_PLUS:
        return plus, BRANCH_SMALL_ETA_PLUS
    return 1.0 / plus, BRANCH_SMALL_ETA_MINUS


def optimal_s(k: Balance, eta: float, mode: RefactorMode) -> RefactorResult:
    """S minimizing the loss upper bound, per the configured mode.

    The balanced S of the kernel result `k = balance(f)`, which must be
    full rank (else RankDeficient), scaled by `_bound_scaling`'s gamma (and
    S^{-1} by 1/gamma).
    """
    k.require_full_rank()
    ct = k.c_tilde
    gamma, branch = _bound_scaling(ct, eta, mode)
    if branch == BRANCH_BALANCED:
        return RefactorResult(branch, ct, ct, s_matrix=k.s, s_inverse=k.s_inv)
    return RefactorResult(branch, ct, 1.0 / (mode.lipschitz * eta),
                          s_matrix=gamma * k.s, s_inverse=k.s_inv / gamma)


def optimal_scalar(f: LowRankFactors, eta: float, mode: RefactorMode) -> RefactorResult:
    """The same bound minimizer restricted to S = s I.

    The balanced value ||B||_F / ||A||_F equalizes the factor norms, and
    c_tilde becomes 2 ||A||_F ||B||_F; `_bound_scaling`'s gamma then scales
    it exactly as it scales the matrix S, so on the small-eta branches
    s solves ||A||_F^2 s + ||B||_F^2 / s = 1/(L eta).
    """
    a2 = float(np.sum(f.a * f.a))
    b2 = float(np.sum(f.b * f.b))
    if a2 == 0.0 or b2 == 0.0:
        raise ZeroFactor("both factors must have positive Frobenius norm")
    norm_a = np.sqrt(a2)
    norm_b = np.sqrt(b2)
    ct = 2.0 * norm_a * norm_b
    gamma, branch = _bound_scaling(ct, eta, mode)
    s = float(gamma * (norm_b / norm_a))
    g = a2 * s + b2 / s if branch == BRANCH_BALANCED else 1.0 / (mode.lipschitz * eta)
    return RefactorResult(branch, ct, g, s_scalar=s)


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
