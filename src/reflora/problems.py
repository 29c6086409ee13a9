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
`loss(w)`, `grad(w)` and `full_weight` remain as the reference the tests
check the fused call against.

Each instance exists once, as the data dataclass `make_*` returns next to
its problem: the problem is the loss over that instance and holds it as
`inst`. `make_mf` is matrix-free as well: it draws the top singular values
from the bidiagonal model of a Gaussian matrix and the singular vectors as
Haar frames, in O((m + n) r) memory plus one small tridiagonal block. The
dense Y exists only on demand, as `MfInstance.y`, for the dense reference
path and the tests.
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
    conventions and 1.0 in all desk-scale experiments.
    """

    def __init__(self, m: int, n: int, lipschitz: float):
        self.m = m
        self.n = n
        self.lipschitz = lipschitz

    def loss(self, w: Array) -> float:
        raise NotImplementedError

    def grad(self, w: Array) -> Array:
        raise NotImplementedError

    def full_weight(self, f: LowRankFactors, scale: float = 1.0) -> Array:
        """The dense m x n weight W, for the dense reference path."""
        return scale * f.product()

    def value_and_grad(self, f: LowRankFactors, scale: float = 1.0
                       ) -> tuple[float, GradientPair]:
        """Loss at W = scale * A @ B.T and the chain-rule factor gradients
        g_a = scale * grad(W) @ B and g_b = scale * grad(W).T @ A, all at
        the same factors.
        """
        raise NotImplementedError

    def loss_at_factors(self, f: LowRankFactors, scale: float = 1.0) -> float:
        return self.value_and_grad(f, scale)[0]


class MatrixFactorizationProblem(Problem):
    """loss(W) = 0.5 * ||Y - W||_F^2, gradient W - Y, Lipschitz constant 1,
    over the target Y = U diag(sigma) V^T of `inst`."""

    def __init__(self, inst: MfInstance):
        super().__init__(inst.u.shape[0], inst.v.shape[0], lipschitz=1.0)
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
        super().__init__(y.shape[0], x.shape[0],
                         lipschitz=linalg.spectral_norm(x @ x.T))
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
    O((m + n) r + k^2), where k <= min(m, n) is the order of the last
    tridiagonal block decomposed (256 at 1024 x 1024, r = 8).
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

    The top eigenvectors of T live in its leading rows, where the entries
    are largest, so only the leading block T_k = B_k^T B_k is decomposed,
    with k doubling from max(64, 2r). An eigenpair (lam, x) of T_k, padded
    with zeros, has residual |d_k e_k| * |x_k| in T: the one coupling
    entry times the last component. Once that is at most eps * lam_1 for
    each of the top r pairs, T has an eigenvalue that close to each one
    (the symmetric residual bound; Parlett, The Symmetric Eigenvalue
    Problem). At k = q the block is T itself.
    """
    d = np.sqrt(gen.chisquare(np.arange(p, p - q, -1, dtype=float)))
    e = np.sqrt(gen.chisquare(np.arange(q - 1, 0, -1, dtype=float)))
    eps = np.finfo(float).eps
    k = min(q, max(64, 2 * r))
    while True:
        t = np.zeros((k, k))
        diag = d[:k] * d[:k]
        diag[1:] += e[:k - 1] * e[:k - 1]
        t.flat[::k + 1] = diag
        t.flat[1::k + 1] = t.flat[k::k + 1] = d[:k - 1] * e[:k - 1]
        if k == q:
            return np.sqrt(np.linalg.eigvalsh(t)[:-r - 1:-1])
        lam, x = np.linalg.eigh(t)
        lam, last = lam[:-r - 1:-1], x[-1, :-r - 1:-1]
        if np.all(d[k - 1] * e[k - 1] * np.abs(last) <= eps * lam[0]):
            return np.sqrt(lam)
        k = min(q, 2 * k)


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
