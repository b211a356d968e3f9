"""Geometry of the uniaxial limit manifold inside the traceless symmetric
matrices: membership, the batched nearest-point projection, the normal part
of the tangent/normal splitting, second fundamental form, and the equivalent
harmonic-map right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum
from .tensor_algebra import I3, anticomm, comm, eigh_descending, frobenius, norm


@dataclass(frozen=True)
class MaterialParams:
    """Material constants a^2, b^2, c^2 and the elastic constant L.

    The preferred order parameter s_plus is derived on access and never
    stored, so it cannot go stale.
    """

    a2: float
    b2: float
    c2: float
    L: float = 1.0

    def __post_init__(self):
        for name in ("a2", "b2", "c2", "L"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def s_plus(self) -> float:
        return (self.b2 + np.sqrt(self.b2**2 + 24.0 * self.a2 * self.c2)) / (
            4.0 * self.c2
        )


@dataclass
class ManifoldPoint:
    """A certified point of the limit manifold with its unit director."""

    q: np.ndarray
    director: np.ndarray


def uniaxial(director: np.ndarray, s_plus: float) -> np.ndarray:
    """s_+ (n (x) n - I/3) for unit director(s) n of shape (..., 3)."""
    n = np.asarray(director, dtype=float)
    return s_plus * (n[..., :, None] * n[..., None, :] - I3 / 3.0)


def default_gap_tol(p: MaterialParams) -> float:
    """Eigen-gap proxy for the tubular neighborhood where the nearest-point
    projection is single-valued."""
    return 0.1 * p.s_plus


def project_array(
    q: np.ndarray, p: MaterialParams, gap_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-point projection of tensors of shape (..., 3, 3).

    Returns (projected tensors, directors).  Raises DegenerateSpectrum if any
    entry fails the eigen-gap precondition.
    """
    if gap_tol is None:
        gap_tol = default_gap_tol(p)
    w, v = eigh_descending(q)
    gap = w[..., 0] - w[..., 1]
    if np.any(gap < gap_tol):
        worst = float(np.min(gap))
        raise DegenerateSpectrum(
            f"top eigenvalue gap {worst:.3e} below tolerance {gap_tol:.3e}"
        )
    n = v[..., :, 0]
    return uniaxial(n, p.s_plus), n


def normal_component(a: np.ndarray, q: np.ndarray, s_plus: float) -> np.ndarray:
    """Normal part of a symmetric matrix a at a manifold point q.

    Closed form: -(2/s_+^2) ((s_+/3) a - q a - a q)(q - (s_+/6) I).
    """
    lhs = (s_plus / 3.0) * a - anticomm(q, a)
    return -(2.0 / s_plus**2) * (lhs @ (q - (s_plus / 6.0) * I3))


def tangency_residual(x: np.ndarray, q: np.ndarray, s_plus: float) -> np.ndarray:
    """Relative residual of the tangency characterization
    (s_+/3) x = x q + q x."""
    r = (s_plus / 3.0) * x - anticomm(x, q)
    return norm(r) / np.maximum(1.0, norm(x))


def normality_residual(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative commutator residual ||[z, q]|| / max(1, ||z||)."""
    return norm(comm(z, q)) / np.maximum(1.0, norm(z))


def second_fundamental_form(
    x: np.ndarray, y: np.ndarray, q: np.ndarray, s_plus: float
) -> np.ndarray:
    """II(X, Y) = -(1/s_+^2) (XY + YX)(2Q - (s_+/3) I) at manifold points q,
    batched.  X and Y must be tangent at q; that is not checked."""
    s = s_plus
    return -(1.0 / s**2) * (anticomm(x, y) @ (2.0 * q - (s / 3.0) * I3))


def grad_squared(grads) -> np.ndarray:
    """Sum over directions of (grad_alpha Q)^2."""
    g = np.asarray(grads)
    return np.einsum("a...ij,a...jk->...ik", g, g)


def grad_norm2(grads) -> np.ndarray:
    """|grad Q|^2 = sum over directions of tr((grad_alpha Q)^2)."""
    g = np.asarray(grads)
    return np.einsum("a...ij,a...ij->...", g, g)


def harmonic_rhs_array(
    q: np.ndarray, grads: np.ndarray, s_plus: float, form: str = "iv"
) -> np.ndarray:
    """Right-hand side of the harmonic-map equation, batched, no tangency
    checks.  `grads` stacks the three directional derivatives on axis 0."""
    gsq = grad_squared(grads)
    if form == "ii":
        gn2 = grad_norm2(grads)[..., None, None]
        return (
            -(2.0 / s_plus**2) * gn2 * q
            + (2.0 / s_plus) * (gsq - gn2 / 3.0 * I3)
        )
    if form == "iii":
        return -(4.0 / s_plus**2) * (gsq @ (q - (s_plus / 6.0) * I3))
    if form == "iv":
        return -(4.0 / s_plus**2) * ((q - (s_plus / 6.0) * I3) @ gsq)
    raise ValueError(f"unknown form {form!r}")


def check_identities(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    base: ManifoldPoint,
    p: MaterialParams,
) -> dict[str, float]:
    """Residuals of the algebraic tangent/normal identities at base points.

    Broadcasts over leading axes and reports the maximum over the batch.
    Diagnostic only: invalid inputs simply produce large residuals.
    """
    s = p.s_plus
    q = base.q
    xy = anticomm(x, y)
    trxy = frobenius(x, y)
    t = trxy[..., None, None]
    p1 = q / s + I3 / 3.0
    k = frobenius(q, z) / s + np.trace(z, axis1=-2, axis2=-1) / 3.0
    xz = anticomm(x, z)
    residuals = {
        "trace_product": np.abs(
            np.trace(xy @ q, axis1=-2, axis2=-1) - (s / 3.0) * trxy
        ),
        "anticomm_product": norm(
            xy @ q + (s / 3.0) * xy - t * q - (s / 3.0) * t * I3
        ),
        "rank_one_projector": norm(p1 @ z - k[..., None, None] * p1),
        "tangent_pair_is_normal": norm(comm(xy, q)),
        "normal_pair_is_normal": norm(comm(anticomm(z, z), q)),
        "mixed_pair_is_tangent": norm((s / 3.0) * xz - anticomm(xz, q)),
    }
    return {name: float(np.max(r)) for name, r in residuals.items()}


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def tangent_basis(base: ManifoldPoint) -> tuple[np.ndarray, np.ndarray]:
    """Two Frobenius-orthogonal tangent directions at the base point(s)."""
    n = base.director
    u, v = _orthonormal_complement(n)
    return _outer(n, u) + _outer(u, n), _outer(n, v) + _outer(v, n)


def normal_basis_s0(base: ManifoldPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three traceless normal directions at the base point(s), mutually
    Frobenius-orthogonal."""
    n = base.director
    u, v = _orthonormal_complement(n)
    z1 = 2.0 * _outer(n, n) - _outer(u, u) - _outer(v, v)
    z2 = _outer(u, u) - _outer(v, v)
    z3 = _outer(u, v) + _outer(v, u)
    return z1, z2, z3


def _orthonormal_complement(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed frame completion of unit vectors of shape (..., 3)."""
    pick = np.zeros_like(n)
    idx = np.argmin(np.abs(n), axis=-1)
    np.put_along_axis(pick, idx[..., None], 1.0, axis=-1)
    u = np.cross(n, pick)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = np.cross(n, u)
    return u, v
