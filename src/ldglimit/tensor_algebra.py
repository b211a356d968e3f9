"""Algebra of symmetric (traceless) 3x3 matrices.

All functions accept arrays of shape (..., 3, 3) and broadcast over leading
axes.  Q-tensors are plain ndarrays; `qtensor()` re-projects onto the
symmetric traceless subspace after additive operations so trace drift stays
at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I3 = np.eye(3)

# Relative eigenvalue gap below which the closed-form eigenvector
# construction is abandoned for the LAPACK symmetric solver.
_EIG_GAP_FALLBACK = 1e-3


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


@dataclass
class EigenDecomp:
    """Eigenvalues in descending order with an orthonormal column frame."""

    eigenvalues: np.ndarray  # shape (3,)
    eigenvectors: np.ndarray  # shape (3, 3), columns


def _trig_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of a real symmetric 3x3 matrix, descending."""
    q = np.trace(a) / 3.0
    b = a - q * I3
    p2 = np.sum(b * b) / 6.0
    if p2 == 0.0:
        return np.full(3, q)
    p = np.sqrt(p2)
    r = np.linalg.det(b / p) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = np.arccos(r) / 3.0
    lam1 = q + 2.0 * p * np.cos(phi)
    lam3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.array([lam1, lam2, lam3])


def _cross_eigenvector(a: np.ndarray, lam: float) -> np.ndarray:
    """Null vector of a - lam*I via the largest cross product of its rows."""
    m = a - lam * I3
    c01 = np.cross(m[0], m[1])
    c02 = np.cross(m[0], m[2])
    c12 = np.cross(m[1], m[2])
    best = max((c01, c02, c12), key=lambda v: float(v @ v))
    n = np.linalg.norm(best)
    if n == 0.0:
        raise FloatingPointError("degenerate cross product")
    return best / n


def eigh_descending(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched symmetric eigendecomposition, eigenvalues descending.

    Returns (w, v) with w shape (..., 3) and v columns matching w.
    """
    w, v = np.linalg.eigh(q)
    return w[..., ::-1], v[..., :, ::-1]


def eig3(q: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a single symmetric 3x3 matrix.

    Uses the trigonometric closed form; falls back to the LAPACK symmetric
    solver when the spectrum is nearly degenerate (where the cross-product
    eigenvector construction loses accuracy).
    """
    q = np.asarray(q, dtype=float)
    w = _trig_eigenvalues(q)
    scale = max(1.0, float(np.max(np.abs(w))))
    gaps = np.diff(w[::-1])  # ascending gaps
    if np.min(gaps) < _EIG_GAP_FALLBACK * scale:
        wl, vl = eigh_descending(q)
        return EigenDecomp(wl, vl)
    try:
        v1 = _cross_eigenvector(q, w[0])
        v3 = _cross_eigenvector(q, w[2])
        v3 -= (v3 @ v1) * v1
        v3 /= np.linalg.norm(v3)
        v2 = np.cross(v3, v1)
    except FloatingPointError:
        wl, vl = eigh_descending(q)
        return EigenDecomp(wl, vl)
    v = np.column_stack([v1, v2, v3])
    return EigenDecomp(w, v)
