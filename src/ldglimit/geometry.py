"""Geometry of the uniaxial limit manifold inside the traceless symmetric
matrices: membership, the batched nearest-point projection, the normal part
of the tangent/normal splitting, second fundamental form, the equivalent
harmonic-map right-hand sides, and the one suite of their identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NotOnManifold
from .tensor_algebra import (
    I3,
    anticomm,
    comm,
    complete_frame,
    eigh_descending,
    frobenius,
    matmul_sum,
    norm,
    outer,
    poly_min,
    top_eigenpair,
)


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
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def s_plus(self) -> float:
        return (self.b2 + np.sqrt(self.b2**2 + 24.0 * self.a2 * self.c2)) / (
            4.0 * self.c2
        )

    @property
    def normal_stiffness(self) -> tuple[float, float]:
        """(lam_u, lam_b): the bulk Hessian's eigenvalues normal to the
        manifold, lam_u = 2 a2 + b2 s_+ / 3 on the uniaxial mode and
        lam_b = b2 s_+ on the two biaxial ones; it is 0 on tangents."""
        lam_b = self.b2 * self.s_plus
        return 2.0 * self.a2 + lam_b / 3.0, lam_b


def uniaxial(director: np.ndarray, s_plus: float) -> np.ndarray:
    """s_+ (n (x) n - I/3) for unit director(s) n of shape (..., 3), built
    in place: one field-sized array, the bits of the expression."""
    n = np.asarray(director, dtype=float)
    q = outer(n, n)
    q -= I3 / 3.0
    q *= s_plus
    return q


def require_on_manifold(q: np.ndarray, s_plus: float, what: str) -> None:
    """Raise NotOnManifold with a message naming `what` when the
    minimal-polynomial residual of some tensor of q exceeds
    1e-8 max(1, s_+^2) or is not finite."""
    res = float(np.max(norm(poly_min(q, s_plus))))
    if not res <= 1e-8 * max(1.0, s_plus**2):  # a NaN residual fails too
        raise NotOnManifold(f"{what} leaves the manifold (residual {res:.3e})")


def projection_frame(
    q: np.ndarray, p: MaterialParams
) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and eigenvectors (eigh_descending) of tensors
    of shape (..., 3, 3), checked for the nearest-point projection: its
    director is the first eigenvector column.

    Raises DegenerateSpectrum if any entry fails the eigen-gap precondition
    or is not finite.
    """
    w, v = eigh_descending(q)
    _require_gap(w[..., 0] - w[..., 1], p)
    return w, v


def project_array(q: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Nearest-point projection of tensors of shape (..., 3, 3), from their
    top eigenpairs only (top_eigenpair).  Raises DegenerateSpectrum as
    projection_frame does."""
    gap, n = top_eigenpair(q)
    _require_gap(gap, p)
    return uniaxial(n, p.s_plus)


def _require_gap(gap: np.ndarray, p: MaterialParams) -> None:
    """Raise DegenerateSpectrum unless every top eigenvalue gap is at least
    0.1 s_+, the eigen-gap proxy for the tubular neighborhood where the
    nearest-point projection is single-valued (a NaN gap fails too)."""
    gap_tol = 0.1 * p.s_plus
    if not np.all(gap >= gap_tol):
        worst = float(np.min(gap))
        raise DegenerateSpectrum(
            f"top eigenvalue gap {worst:.3e} below tolerance {gap_tol:.3e}"
        )


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
    return matmul_sum(g, g)


def harmonic_rhs_array(
    q: np.ndarray, gsq: np.ndarray, s_plus: float, form: str = "iv"
) -> np.ndarray:
    """Right-hand side of the harmonic-map equation, batched, no tangency
    checks.  `gsq` is the squared gradient sum_a G_a G_a (grad_squared,
    edge_grad_squared) or any symmetric sum of products of gradients; form
    ii takes |grad Q|^2 as its trace."""
    if form == "ii":
        gn2 = np.einsum("...ii->...", gsq)[..., None, None]
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
    x: np.ndarray, y: np.ndarray, z: np.ndarray, q: np.ndarray, p: MaterialParams
) -> dict[str, float]:
    """Max residuals over the batch, each reduced as soon as it is formed,
    of the manifold identities at manifold points q with tangent directions
    x, y and a normal direction z: membership, projection, tangency,
    normality, splitting, the tangent/normal algebra, curvature and the
    harmonic right-hand-side forms.  Invalid inputs give large residuals, or
    DegenerateSpectrum from the projection where q is too far off."""
    s = p.s_plus
    out: dict[str, float] = {}

    def record(name, r):
        out[name] = float(np.max(r))

    record("manifold_membership", norm(poly_min(q, s)))
    # projection: recovers exact points, and is idempotent on perturbations
    proj = project_array(q + 0.05 * s * (z / norm(z)[..., None, None]), p)
    record("projection_idempotent", norm(project_array(proj, p) - proj))
    # tangency / normality characterizations
    record("tangency", tangency_residual(x, q, s))
    record("normality", normality_residual(z, q))
    # splitting: tangents have zero normal part, normals are fixed
    record("split_tangent", norm(normal_component(x, q, s)))
    record("split_normal", norm(normal_component(z, q, s) - z))
    # algebraic identities for tangent pairs and normal vectors
    xy = anticomm(x, y)
    trxy = frobenius(x, y)
    t = trxy[..., None, None]
    xyq = xy @ q
    record("trace_product", np.abs(np.einsum("...ii->...", xyq) - s / 3.0 * trxy))
    record("anticomm_product", norm(xyq + (s / 3.0) * xy - t * q - (s / 3.0) * t * I3))
    p1 = q / s + I3 / 3.0
    k = frobenius(q, z) / s + np.einsum("...ii->...", z) / 3.0
    record("rank_one_projector", norm(p1 @ z - k[..., None, None] * p1))
    record("tangent_pair_is_normal", norm(comm(xy, q)))
    record("normal_pair_is_normal", norm(comm(anticomm(z, z), q)))
    xz = anticomm(x, z)
    record("mixed_pair_is_tangent", norm((s / 3.0) * xz - anticomm(xz, q)))
    # curvature term is normal
    record("curvature_is_normal", norm(comm(second_fundamental_form(x, y, q, s), q)))
    # closed-form curvature vs centered second difference, step h, of the
    # projected curve t -> project(q + t x)
    h = 1e-3
    xhat = x / norm(x)[..., None, None]
    qp, qm = project_array(q + h * xhat, p), project_array(q - h * xhat, p)
    ii_fd = (qp - 2.0 * q + qm) / h**2
    record("curvature_fd", norm(second_fundamental_form(xhat, xhat, q, s) - ii_fd))
    # the harmonic right-hand-side forms coincide for tangential gradients
    gsq = x @ x + y @ y
    r4 = harmonic_rhs_array(q, gsq, s, form="iv")
    record("rhs_forms_ii_iv", norm(harmonic_rhs_array(q, gsq, s, form="ii") - r4))
    record("rhs_forms_iii_iv", norm(harmonic_rhs_array(q, gsq, s, form="iii") - r4))
    return out


def tangent_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two Frobenius-orthogonal tangent directions at the manifold point(s)
    with unit director(s) n, each of Frobenius norm sqrt(2): divided by it,
    they are an orthonormal basis of the tangent space."""
    u, v = (np.stack(c, axis=-1) for c in complete_frame(np.moveaxis(n, -1, 0)))
    return outer(n, u) + outer(u, n), outer(n, v) + outer(v, n)


def normal_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three traceless normal directions at the manifold point(s) with unit
    director(s) n, mutually Frobenius-orthogonal."""
    u, v = (np.stack(c, axis=-1) for c in complete_frame(np.moveaxis(n, -1, 0)))
    z1 = 2.0 * outer(n, n) - outer(u, u) - outer(v, v)
    z2 = outer(u, u) - outer(v, v)
    z3 = outer(u, v) + outer(v, u)
    return z1, z2, z3

