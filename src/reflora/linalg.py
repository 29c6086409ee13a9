"""Dense SPD matrix functions and SVD-derived norms.

These are the independent references of the invariant suites and tests;
the refactoring path itself uses `refactor.balance`. Matrix functions go
through a symmetric eigendecomposition. All are pure float64 functions.
"""

import numpy as np

from .errors import IllConditioned

Array = np.ndarray

# Relative symmetry / positivity tolerance used when validating SPD inputs.
SPD_EPS = 1e-12
# spd_inv_sqrt refuses eigenvalues below COND_EPS * lambda_max: raising
# beats silently regularizing a matrix that is numerically singular.
COND_EPS = 1e-14


def sym(m: Array) -> Array:
    return 0.5 * (m + m.T)


def check_finite(m: Array, name: str = "matrix") -> Array:
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def is_symmetric(m: Array) -> bool:
    """Entrywise symmetry test: |m[i,j] - m[j,i]| <= SPD_EPS * (1 + |m[i,j]|)."""
    return bool(np.all(np.abs(m - m.T) <= SPD_EPS * (1.0 + np.abs(m))))


def _spd_eigh(m: Array, name: str) -> tuple[Array, Array]:
    """Eigendecomposition of a symmetric matrix expected to be SPD.

    Returns ascending eigenvalues and orthonormal eigenvectors. Raises
    ValueError on a non-square or asymmetric matrix or a non-positive
    spectrum.
    """
    m = check_finite(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} is not square: shape {m.shape}")
    if not is_symmetric(m):
        raise ValueError(f"{name} is not symmetric within tolerance {SPD_EPS:g}")
    w, v = np.linalg.eigh(sym(m))
    if w[0] <= 0.0:
        raise ValueError(
            f"{name} is not positive definite: lambda_min={w[0]:.3e}"
        )
    return w, v


def spd_sqrt(m: Array) -> Array:
    """Positive square root of an SPD matrix.

    Returns the unique SPD matrix R with R @ R = m.
    """
    w, v = _spd_eigh(m, "spd_sqrt input")
    return sym((v * np.sqrt(w)) @ v.T)


def spd_inv_sqrt(m: Array) -> Array:
    """Inverse square root of an SPD matrix: R with R @ m @ R = I.

    Raises
    ------
    ValueError
        If `m` fails the symmetry or positivity check.
    IllConditioned
        If lambda_min / lambda_max < 1e-14; inverting such a matrix would
        mask a downstream full-rank violation.
    """
    w, v = _spd_eigh(m, "spd_inv_sqrt input")
    if w[0] < COND_EPS * w[-1]:
        raise IllConditioned(
            f"eigenvalue ratio {w[0] / w[-1]:.3e} below {COND_EPS:g}"
        )
    return sym((v / np.sqrt(w)) @ v.T)


def nonsym_psd_sqrt(x: Array, y: Array) -> Array:
    """Square root R (R @ R = x @ y) of the generally nonsymmetric product of
    two SPD matrices, which has a real positive spectrum and a unique root
    with positive spectrum: x^{1/2} (x^{1/2} y x^{1/2})^{1/2} x^{-1/2}.
    Both factors are validated on entry.
    """
    wx, vx = _spd_eigh(x, "nonsym_psd_sqrt first factor")
    _spd_eigh(y, "nonsym_psd_sqrt second factor")
    x_half = sym((vx * np.sqrt(wx)) @ vx.T)
    x_inv_half = sym((vx / np.sqrt(wx)) @ vx.T)
    inner = spd_sqrt(sym(x_half @ y @ x_half))
    return x_half @ inner @ x_inv_half


def nuclear_norm(m: Array) -> float:
    """Sum of singular values."""
    m = check_finite(m, "nuclear_norm input")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def spectral_norm(m: Array) -> float:
    """Largest singular value."""
    m = check_finite(m, "spectral_norm input")
    return float(np.linalg.svd(m, compute_uv=False)[0])
