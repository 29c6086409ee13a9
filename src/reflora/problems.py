"""Differentiable test problems with known structure.

Both problems are quadratics, so their gradient-Lipschitz constants are
exact: 1 for matrix factorization (loss carries the 1/2 factor) and the
spectral norm of X X^T for whitened linear regression.

The run loop reads a problem through one fused call, `value_and_grad`,
which returns the loss and the factor gradients at the same factors and
never forms an m x n array. Matrix factorization keeps its target in
factored form, Y = U_r diag(s_r) V_r^T, and works on the r x r projections
of the factors onto U_r and V_r, at O((m + n) r^2) per call; linear
regression works on the m x k residual, at O((m + n) r k). The dense
`loss(w)` and `grad(w)` remain as the reference the tests check the fused
call against; `Problem`'s docstring lists the interface.

Each instance exists once, as the data dataclass `make_*` returns next to
its problem: the problem is the loss over that instance and holds it as
`inst`. `make_mf` is matrix-free as well: it draws the top singular values
from the bidiagonal model of a Gaussian matrix and the singular vectors as
Haar frames, in O((m + n) r) memory plus the SVD of a leading block of
that model.
The dense Y exists only on demand, as `MfInstance.y`, for the dense
reference path and the tests.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, rng
from .linalg import Array
from .optim import GradientPair
from .refactor import LowRankFactors


@dataclass(frozen=True)
class MfInstance:
    """Rank-r target Y = U_r diag(sigma) V_r^T for min 0.5 * ||Y - A B^T||_F^2.

    `make_mf` draws the top r singular values of a Gaussian m x n matrix
    and Haar frames U_r (m x r), V_r (n x r) independently. This is the
    distribution of that matrix's rank-r truncation, since a Gaussian
    matrix's singular vectors are Haar and independent of its singular
    values. Only the factors are stored; `y` forms the dense m x n target
    on each access.
    """

    u: Array
    sigma: Array
    v: Array

    @property
    def y(self) -> Array:
        return (self.u * self.sigma) @ self.v.T


@dataclass(frozen=True)
class LinRegInstance:
    """Data matrices for min 0.5 * ||Y - W X||_F^2 over W."""

    x: Array
    y: Array


class Problem:
    """A differentiable loss over an m x n weight matrix.

    W = scale * A @ B.T is the adapter increment alone (no pretrained
    weight); `scale` is an optional multiplier, alpha / r in adapter
    conventions and 1.0 in all desk-scale experiments. A subclass sets

    - `m`, `n`: the weight's shape;
    - `lipschitz`: the exact gradient-Lipschitz constant of `loss`;

    and defines

    - `loss(w)`, `grad(w)`: the dense loss and gradient at an m x n W, the
      reference the tests check the fused call against;
    - `value_and_grad(f, scale=1.0)`: the loss at W = scale * A @ B.T and
      the chain-rule factor gradients g_a = scale * grad(W) @ B and
      g_b = scale * grad(W).T @ A, all at the same factors.
    """

    def loss_at_factors(self, f: LowRankFactors) -> float:
        """The fused call's loss at scale 1, kept for the benchmark."""
        return self.value_and_grad(f)[0]


class MatrixFactorizationProblem(Problem):
    """loss(W) = 0.5 * ||Y - W||_F^2, gradient W - Y, Lipschitz constant 1,
    over the target Y = U diag(sigma) V^T of `inst`."""

    lipschitz = 1.0

    def __init__(self, inst: MfInstance):
        self.m, self.n = inst.u.shape[0], inst.v.shape[0]
        self.inst = inst

    def loss(self, w: Array) -> float:
        d = self.inst.y - w
        return float(0.5 * np.sum(d * d))

    def grad(self, w: Array) -> Array:
        return w - self.inst.y

    def value_and_grad(self, f: LowRankFactors, scale: float = 1.0
                       ) -> tuple[float, GradientPair]:
        """Projection form of the loss and gradient.

        With b = scale * B, ca = U^T A, cb = V^T b and the residuals
        A_perp = A - U ca, b_perp = b - V cb, the loss splits by
        orthogonality into squared norms,

            ||diag(sigma) - ca cb^T||^2 + ||ca b_perp^T||^2 + ||A_perp b^T||^2,

        the last two through r x r Grams (||X Z^T||^2 = <X^T X, Z^T Z>).
        No term cancels against another, so an exact fit reads ~eps^2 ||Y||^2
        (the trace identity 0.5 ||Y||^2 - tr(A^T Y b) + ... would read
        ~eps ||Y||^2). The gradients reuse ca, cb and the Gram of b:

            g_a = A (b^T b) - U (sigma * cb),
            g_b = scale (b (A^T A) - V (sigma * ca)).
        """
        a, b = f.a, scale * f.b
        u, sigma, v = self.inst.u, self.inst.sigma, self.inst.v
        ca, cb = u.T @ a, v.T @ b
        a_perp, b_perp = a - u @ ca, b - v @ cb
        core = -(ca @ cb.T)
        core.flat[::core.shape[1] + 1] += sigma
        gb = b.T @ b
        loss = 0.5 * float(np.vdot(core, core)
                           + np.vdot(ca.T @ ca, b_perp.T @ b_perp)
                           + np.vdot(a_perp.T @ a_perp, gb))
        g_a = a @ gb - u @ (sigma[:, None] * cb)
        g_b = scale * (b @ (a.T @ a) - v @ (sigma[:, None] * ca))
        return loss, GradientPair(g_a, g_b)


class LinearRegressionProblem(Problem):
    """loss(W) = 0.5 * ||Y - W X||_F^2 with exact Lipschitz ||X X^T||_2."""

    def __init__(self, inst: LinRegInstance):
        x, y = inst.x, inst.y
        if y.shape[1] != x.shape[1]:
            raise ValueError("X and Y sample counts differ")
        self.m, self.n = y.shape[0], x.shape[0]
        # X X^T and X^T X share their nonzero eigenvalues: take the smaller
        self.lipschitz = linalg.spectral_norm(
            x @ x.T if x.shape[0] <= x.shape[1] else x.T @ x)
        self.inst = inst

    def loss(self, w: Array) -> float:
        d = self.inst.y - w @ self.inst.x
        return float(0.5 * np.sum(d * d))

    def grad(self, w: Array) -> Array:
        return (w @ self.inst.x - self.inst.y) @ self.inst.x.T

    def value_and_grad(self, f: LowRankFactors, scale: float = 1.0
                       ) -> tuple[float, GradientPair]:
        """Through the m x k residual E = scale * A (B^T X) - Y: the loss
        is 0.5 ||E||^2, g_a = scale * E (X^T B) and g_b = scale * X (E^T A)."""
        x = self.inst.x
        e = scale * (f.a @ (f.b.T @ x)) - self.inst.y
        loss = 0.5 * float(np.sum(e * e))
        return loss, GradientPair(scale * (e @ (x.T @ f.b)),
                                  scale * (x @ (e.T @ f.a)))


def make_mf(m: int, n: int, r: int, seed: int
            ) -> tuple[MatrixFactorizationProblem, MfInstance]:
    """Rank-r matrix-factorization instance, built in factored form.

    The target has the distribution of a standard Gaussian m x n matrix
    truncated to its largest r singular values, and no m x n array is
    formed. A Gaussian matrix's singular vectors are Haar distributed and
    independent of its singular values (Edelman & Rao, Acta Numerica
    2005), so the three parts are drawn separately from the instance
    stream of `seed`:

    - sigma: the top r singular values of the bidiagonal model of a
      Gaussian max(m, n) x min(m, n) matrix (`_top_singular_values`);
    - U_r (m x r), then V_r (n x r): the Q of a QR of a Gaussian matrix,
      columns signed by diag(R), which makes Q Haar distributed (Mezzadri,
      Notices AMS 2007).

    Y = U_r diag(sigma) V_r^T is formed only when `y` is read. Memory is
    O((m + n) r) plus O(k^2) for the SVD of a leading bidiagonal block of
    order k: k = 160 at 1024 x 1024 with r = 8, k = q = 100 at 128 x 100.
    """
    if r > min(m, n) or m < 1 or n < 1:
        raise ValueError(f"invalid dims m={m}, n={n}, r={r}")
    gen = rng.stream(seed, rng.STREAM_INSTANCE)
    sigma = _top_singular_values(gen, max(m, n), min(m, n), r)
    u = _haar_frame(gen, m, r)
    v = _haar_frame(gen, n, r)
    inst = MfInstance(u, sigma, v)
    return MatrixFactorizationProblem(inst), inst


def _top_singular_values(gen: np.random.Generator, p: int, q: int, r: int
                         ) -> Array:
    """The top r singular values of a standard Gaussian p x q matrix
    (p >= q >= r), descending, drawn without forming the matrix.

    Golub-Kahan bidiagonalization of such a matrix gives, in law, the q x q
    upper bidiagonal B with diagonal chi_p, chi_{p-1}, ..., chi_{p-q+1} and
    superdiagonal chi_{q-1}, ..., chi_1, all independent (Dumitriu &
    Edelman, J. Math. Phys. 2002). Its singular values are the square
    roots of the eigenvalues of the tridiagonal T = B^T B.

    Column j of B touches only rows j - 1 and j, so the leading block T_k
    of T is B_k^T B_k for the leading block B_k of B. Each pass takes the
    SVD of one B_k, which gives every singular value to full relative
    accuracy (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 1990). The top
    eigenvectors of T live in its leading rows, where the entries are
    largest, so when q > max(128, 4r) the first block has k = max(64, 2r)
    and later ones stop short of q once certified. An eigenpair
    (lam, x) of T_k, padded with zeros, has residual |b_{k-1}| |x_{k-1}|
    in T (0-based): the one coupling entry times the last component,
    which `_tail_certified` bounds from lam alone. Once that is at most
    eps * lam_1 for each of the top r pairs, T has an eigenvalue that
    close to each one (the symmetric residual bound; Parlett, The
    Symmetric Eigenvalue Problem). After a block fails, the next is the
    shallowest, in steps of 32, whose tail bound passes at the failed
    block's lam, but at most 4k deep, because the lowest of those lam may
    still lie far from T's. The last block, k = q, is B itself.
    """
    d = np.sqrt(gen.chisquare(np.arange(p, p - q, -1, dtype=float)))
    e = np.sqrt(gen.chisquare(np.arange(q - 1, 0, -1, dtype=float)))
    # T = B^T B: diagonal a, off-diagonal b (b[k - 1] couples T_k to T)
    a = d * d
    a[1:] += e * e
    b = d[:-1] * e
    k = max(64, 2 * r) if max(128, 4 * r) < q else q
    while True:
        bidiag = np.zeros((k, k))
        bidiag.flat[::k + 1] = d[:k]
        bidiag.flat[1::k + 1] = e[:k - 1]
        sigma = np.linalg.svd(bidiag, compute_uv=False)[:r]
        lam = sigma * sigma
        if k == q or _tail_certified(a, b, k, lam):
            return sigma
        cap = min(q, 4 * k)
        k = next((j for j in range(k + 32, cap, 32)
                  if _tail_certified(a, b, j, lam)), cap)


def _tail_certified(a: Array, b: Array, k: int, lam: Array) -> bool:
    """Whether each lam, taken as an eigenvalue of the leading block T_k of
    the tridiagonal with diagonal a and off-diagonal b, has an eigenpair
    whose padded residual in the whole, |b_{k-1}| |x_{k-1}|, is at most
    eps * lam[0].

    |x_{k-1}| for the unit eigenvector x is bounded from lam alone. The
    bottom rows of (T_k - lam I) x = 0 fix x_i / x_{i-1} = -b_{i-1} / u_i,
    where u_i are the pivots of the U D U^T factorization of T_k - lam I
    from the bottom up (the lower half of a twisted factorization). Since
    each |x_j| <= 1, |x_{k-1}| is at most every product of |x_i / x_{i-1}|
    from i = j + 1 to k - 1. A nan (from a zero pivot) fails.
    """
    u = np.subtract.outer(a[:k], lam)
    rows, up = list(u[::-1]), b[:k - 1][::-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for below, row, c in zip(rows, rows[1:], (up * up).tolist()):
            row -= c / below
        ratios = np.abs(up)[:, None] / np.abs(u[:0:-1])
        bound = np.min(np.cumprod(ratios, axis=0), axis=0, initial=1.0)
    return bool(np.all(b[k - 1] * bound <= np.finfo(float).eps * lam[0]))


def _haar_frame(gen: np.random.Generator, d: int, r: int) -> Array:
    """A d x r matrix with Haar-distributed orthonormal columns."""
    q, rr = np.linalg.qr(gen.standard_normal((d, r)))
    return q * np.sign(np.diag(rr))


def make_linreg(m: int, n: int, k: int, seed: int
                ) -> tuple[LinearRegressionProblem, LinRegInstance]:
    """Whitened linear-regression instance with standard Gaussian X and Y."""
    if m < 1 or n < 1 or k < 1:
        raise ValueError(f"invalid dims m={m}, n={n}, k={k}")
    gen = rng.stream(seed, rng.STREAM_INSTANCE)
    x = gen.standard_normal((n, k))
    y = gen.standard_normal((m, k))
    inst = LinRegInstance(x, y)
    return LinearRegressionProblem(inst), inst


def init_factors(m: int, n: int, r: int, seed: int, sigma_a: float = 1.0,
                 sigma_b: float = 0.0) -> LowRankFactors:
    """Initial factor pair from the init stream of `seed`.

    A is N(0, sigma_a^2); B is N(0, sigma_b^2), or exactly zero when
    sigma_b = 0 (the standard adapter initialization).
    """
    gen = rng.stream(seed, rng.STREAM_INIT)
    a = sigma_a * gen.standard_normal((m, r))
    b = np.zeros((n, r)) if sigma_b == 0.0 else sigma_b * gen.standard_normal((n, r))
    return LowRankFactors(a, b)
