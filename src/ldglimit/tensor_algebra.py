"""Algebra of symmetric (traceless) 3x3 matrices.

All functions accept arrays of shape (..., 3, 3) and broadcast over leading
axes.  Q-tensors are plain ndarrays; `qtensor()` re-projects onto the
symmetric traceless subspace after additive operations so trace drift stays
at rounding level.
"""

from __future__ import annotations

import numpy as np

I3 = np.eye(3)


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of m."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def dev(m: np.ndarray) -> np.ndarray:
    """Traceless (deviatoric) part of m."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    return m - tr[..., None, None] / 3.0 * I3


def qtensor(m: np.ndarray) -> np.ndarray:
    """Project m onto symmetric traceless matrices (S0)."""
    return dev(sym(m))


def frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product tr(a^T b); for symmetric inputs tr(ab)."""
    return np.einsum("...ij,...ij->...", a, b)


def norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm."""
    return np.sqrt(frobenius(a, a))


def trace2(q: np.ndarray) -> np.ndarray:
    """tr(q^2) for symmetric q (equals the squared Frobenius norm)."""
    return np.einsum("...ij,...ij->...", q, q)


def trace3(q: np.ndarray) -> np.ndarray:
    """tr(q^3) for symmetric q."""
    return np.einsum("...ij,...jk,...ki->...", q, q, q)


def anticomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab + ba."""
    return a @ b + b @ a


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    return a @ b - b @ a


def poly_min(q: np.ndarray, s_plus: float) -> np.ndarray:
    """Minimal-polynomial residual q^2 - (s_+/3) q - (2/9) s_+^2 I.

    Vanishes exactly on the uniaxial manifold with order parameter s_+.
    """
    if s_plus <= 0:
        raise ValueError("s_plus must be positive")
    return q @ q - (s_plus / 3.0) * q - (2.0 / 9.0) * s_plus**2 * I3


def eigh_descending(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched symmetric eigendecomposition, eigenvalues descending.

    Returns (w, v) with w shape (..., 3) and v columns matching w.
    """
    w, v = np.linalg.eigh(q)
    return w[..., ::-1], v[..., :, ::-1]
