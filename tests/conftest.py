import numpy as np
import pytest

from reflora.refactor import LowRankFactors


def gen(seed: int) -> np.random.Generator:
    """Philox stream used by test fixtures and the frozen oracles."""
    return np.random.Generator(np.random.Philox(seed))


def rel_err(actual, expected) -> float:
    expected = np.asarray(expected, dtype=float)
    denom = max(float(np.linalg.norm(expected)), np.finfo(float).tiny)
    return float(np.linalg.norm(np.asarray(actual, dtype=float) - expected) / denom)


def random_spd(g: np.random.Generator, dim: int) -> np.ndarray:
    b = g.standard_normal((dim, dim))
    m = b @ b.T + dim * 1e-3 * np.eye(dim)
    return 0.5 * (m + m.T)


def random_orthogonal(g: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(g.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_factors(g: np.random.Generator, m: int, n: int, r: int
                   ) -> LowRankFactors:
    return LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))


def g_oracle(f: LowRankFactors, s: np.ndarray) -> float:
    """||A S^{1/2}||_F^2 + ||B S^{-1/2}||_F^2 through an explicit
    eigendecomposition, independent of the trace-based implementation
    path."""
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    s_half = (v * np.sqrt(w)) @ v.T
    s_inv_half = (v / np.sqrt(w)) @ v.T
    return float(np.sum((f.a @ s_half) ** 2) + np.sum((f.b @ s_inv_half) ** 2))


@pytest.fixture
def rng():
    return gen(2024)
