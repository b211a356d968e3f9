"""Diagnostics for the small-elastic-constant family of minimizers: the
rescaled minimal-polynomial residual and its derived combinations, the
rewritten equation's remainder, the first-order corrector split, the
manifold-projection equation residual, and log-log rate fitting.

Field-valued results are arrays over interior nodes (one stencil layer off
each result that needs second differences of derived quantities), filled
slab by slab over fields.plane_slabs; a node's result reads only its
stencil neighbours, so it does not depend on the slab size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, GridMismatch, IllConditionedT
from .fields import (
    TensorField,
    edge_grad_squared,
    gradient_array,
    laplacian_array,
    plane_slabs,
    require_same_grid,
)
from .geometry import (
    MaterialParams,
    grad_squared,
    harmonic_rhs_array,
    normal_component,
    projection_frame,
    require_on_manifold,
    uniaxial,
)
from .tensor_algebra import I3, matmul_sum, norm, outer, poly_min

_IN = np.s_[1:-1]
# largest condition estimate of projection_residual's inversion matrix
_COND_LIMIT = 1e8


@dataclass
class DiagnosticFields:
    """Pointwise diagnostics of the field q_l at interior nodes, built from
    the rescaled minimal-polynomial residual x = poly_min(Q)/L (a per-slab
    intermediate, not kept): its trace defect y, the tensorial defect z, and
    the rewritten-equation remainder r, formed from them on access."""

    y_field: np.ndarray
    z_field: np.ndarray
    q_l: TensorField
    params: MaterialParams

    @property
    def r_field(self) -> np.ndarray:
        """r over plane_slabs: an algebraic function of y, z and Q, so
        derived rather than stored."""
        q, y, z = self.q_l.interior, self.y_field, self.z_field
        r = np.empty(z.shape)
        for lo, hi in plane_slabs(self.q_l.grid):
            r[lo:hi] = _remainder(q[lo:hi], y[lo:hi], z[lo:hi], self.params)
        return r


@dataclass
class CorrectorFields:
    """Empirical first-order corrector data at interior nodes: the normal
    part a of (Q_L - Q_*)/L at the limit field."""

    a_field: np.ndarray


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def compute_xyz(q_l: TensorField, p: MaterialParams) -> DiagnosticFields:
    """All pointwise diagnostics of a solved field at the interior nodes.

    The squared gradients use the edge-based (stencil-compatible) discrete
    square, so the diagnostics inherit the stencil's exact product rule and
    carry no O(h^2) floor of their own.  r is derived from y, z and q_l.
    """
    shape = q_l.interior.shape
    y, z = np.empty(shape[:3]), np.empty(shape)
    for lo, hi in plane_slabs(q_l.grid):
        v = q_l.values[lo:hi + 2]
        gsq = edge_grad_squared(v, q_l.grid.h)
        y[lo:hi], z[lo:hi], _ = _diagnostics(v[_IN, _IN, _IN], gsq, p)
    return DiagnosticFields(y_field=y, z_field=z, q_l=q_l, params=p)


def _diagnostics(
    q: np.ndarray, gsq: np.ndarray, p: MaterialParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """compute_xyz's y and z at the nodes q with edge-based squared
    gradient gsq, and the harmonic right-hand side that z is built from."""
    s = p.s_plus
    gn2 = np.einsum("...ii->...", gsq)
    k = 2.0 / p.normal_stiffness[0]

    rhs = harmonic_rhs_array(q, gsq, s)
    x = poly_min(q, s) / p.L
    y = np.einsum("...ii->...", x) + k * gn2
    z = x + (k * gn2[..., None, None] * (p.c2 * q + (p.b2 / 3.0) * I3) + rhs) / p.b2
    return y, z, rhs


def _remainder(q, y, z, p: MaterialParams) -> np.ndarray:
    """The rewritten equation's remainder r = c2 y Q + (b2/3) y I - b2 z."""
    y = y[..., None, None]
    return p.c2 * y * q + (p.b2 / 3.0) * y * I3 - p.b2 * z


def rewritten_identity_residual(q_l: TensorField, p: MaterialParams) -> np.ndarray:
    """Nodewise norm of lap(Q) - harmonic RHS - remainder with both sides
    built from the same edge-based squared gradient and harmonic RHS.

    Algebraically this collapses to the discrete Euler-Lagrange residual, so
    it is bounded by the solver's reported el_residual up to rounding.
    """
    h = q_l.grid.h
    out = np.empty(q_l.grid.dims)
    for lo, hi in plane_slabs(q_l.grid):
        v = q_l.values[lo:hi + 2]
        q, gsq = v[_IN, _IN, _IN], edge_grad_squared(v, h)
        y, z, rhs = _diagnostics(q, gsq, p)
        out[lo:hi] = norm(laplacian_array(v, h) - rhs - _remainder(q, y, z, p))
    return out


def corrector_a(q_star: TensorField, p: MaterialParams) -> np.ndarray:
    """Closed-form normal part of the first-order corrector, from the limit
    field alone (finite-difference gradients), at interior nodes.  Each slab
    checks the lattice planes it adds (the first slab all of its own), so
    the first slab (halo included) off the manifold raises NotOnManifold
    naming the "limit field", with the worst residual of those planes."""
    s = p.s_plus
    k = 2.0 / p.normal_stiffness[0]
    out = np.empty(q_star.interior.shape)
    for lo, hi in plane_slabs(q_star.grid):
        v = q_star.values[lo:hi + 2]
        require_on_manifold(v[2:] if lo else v, s, "limit field")
        q = v[_IN, _IN, _IN]
        gsq = grad_squared(gradient_array(v, q_star.grid.h))
        gn2 = np.einsum("...ii->...", gsq)[..., None, None]
        bracket = k * gn2 * ((p.c2 * q + (p.b2 / 3.0) * I3) @ (q - (s / 6.0) * I3))
        out[lo:hi] = -(2.0 / (p.b2 * s**2)) * (bracket - gsq)
    return out


def empirical_corrector(
    q_l: TensorField, q_star: TensorField, p: MaterialParams
) -> CorrectorFields:
    """The normal part of the empirical (Q_L - Q_*)/L at the limit field,
    nodewise."""
    require_same_grid(q_l, q_star)
    a = np.empty(q_star.interior.shape)
    for lo, hi in plane_slabs(q_star.grid):
        q = q_star.interior[lo:hi]
        a[lo:hi] = normal_component((q_l.interior[lo:hi] - q) / p.L, q, p.s_plus)
    return CorrectorFields(a_field=a)


def corrector_b_residual(
    q_star: TensorField,
    a: np.ndarray,
    b: np.ndarray,
    p: MaterialParams,
) -> np.ndarray:
    """Residual of the linear equation satisfied by the tangential corrector,
    per node two stencil layers inside the boundary.

    a and b are interior-node arrays (the closed-form normal part and a
    candidate tangential part).
    """
    grid = q_star.grid
    if a.shape != q_star.interior.shape or b.shape != q_star.interior.shape:
        raise GridMismatch("corrector arrays do not match the grid interior")
    s = p.s_plus
    h = grid.h
    q_in = q_star.interior[_IN, _IN, _IN]

    lap_b = laplacian_array(b, h)
    lap_a = laplacian_array(a, h)
    grads_b = gradient_array(b, h)
    grads_q = gradient_array(q_star.values, h)[:, _IN, _IN, _IN]
    gn2 = np.einsum("...ii->...", grad_squared(grads_q))

    # tangential projections at the local limit point
    grads_b_tan = grads_b - normal_component(grads_b, q_in, s)
    lap_a_tan = lap_a - normal_component(lap_a, q_in, s)

    b_in = b[_IN, _IN, _IN]
    a_in = a[_IN, _IN, _IN]
    cross = matmul_sum(grads_b_tan, grads_q) + matmul_sum(grads_q, grads_b_tan)

    rhs = (
        -p.b2 * (b_in @ a_in + a_in @ b_in)
        - 2.0 * p.c2 / p.normal_stiffness[0] * gn2[..., None, None] * b_in
        + harmonic_rhs_array(q_in, cross, s, form="iii")
        - lap_a_tan
    )
    return norm(lap_b - rhs)


def projection_residual(
    q_l: TensorField,
    p: MaterialParams,
    beta: float | None = None,
) -> np.ndarray:
    """Residual of the manifold-projection equation per interior node.

    Projects the solved field nodewise, forms the commutator source and the
    shifted inversion matrix (beta fixes its top eigendirection; the result
    is beta-independent), and evaluates the stated equation.

    Runs over fields.plane_slabs.  Each lattice plane's eigenframe, Q_sharp
    and K are computed once: a slab shifts the previous slab's last two
    planes to the front of the first slab's buffers and computes the rest
    into them.  The first slab holding a failing node raises:
    DegenerateSpectrum when a plane it adds fails the eigen-gap test, else
    IllConditionedT naming a failing node in interior-node indices.
    """
    s = p.s_plus
    if beta is None:
        beta = s
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    out = np.empty(q_l.grid.dims)
    buffers = None  # the first slab's frames, the largest, reused by the rest
    for lo, hi in plane_slabs(q_l.grid):
        values = q_l.values[lo:hi + 2]
        if buffers is None:
            frames = buffers = _plane_frames(values, p)
        else:  # the previous slab's last two planes are this slab's first
            carried = len(frames[0]) - 2
            for b, new in zip(buffers, _plane_frames(values[2:], p)):
                b[:2] = b[carried:carried + 2]
                b[2:len(values)] = new
            frames = tuple(b[:len(values)] for b in buffers)
        _slab_residual(values, frames, q_l.grid.h, p, beta, lo, out[lo:hi])
    return out


def _plane_frames(values: np.ndarray, p: MaterialParams) -> tuple:
    """Per lattice node of values: Q_L's descending eigenvalues w_l and
    eigenvectors v (projection_frame), the projection Q_sharp and
    K = Q_sharp^{-1} Q_L."""
    s = p.s_plus
    w_l, v = projection_frame(values, p)
    n = v[..., :, 0]
    q_sharp = uniaxial(n, s)
    # K = Q_sharp^{-1} Q_L with Q_sharp^{-1} = -(3/s) I + (9/2s) n n^T (the
    # spectrum of Q_sharp is 2s/3, -s/3, -s/3); Q_L n = w_0 n makes K the
    # symmetric -(3/s) Q_L + (9 w_0/2s) n n^T
    k_field = -(3.0 / s) * values + (9.0 / (2.0 * s)) * (
        w_l[..., 0, None, None] * outer(n, n)
    )
    return w_l, v, q_sharp, k_field


def _slab_residual(
    values: np.ndarray, frames: tuple, h: np.ndarray, p: MaterialParams,
    beta: float, offset: int, out: np.ndarray,
) -> None:
    """projection_residual of the lattice slab values (its first and last
    planes are halo), with their _plane_frames, into out; offset is the
    slab's first interior plane.

    Every matrix inverted here shares Q_L's eigenvectors, so the
    projection's one eigendecomposition serves them all.
    """
    s = p.s_plus
    w_l, v, q_sharp, k_field = frames
    lap_qs = laplacian_array(q_sharp, h)
    grads_qs = gradient_array(q_sharp, h)
    grads_k = gradient_array(k_field, h)

    qs_in = q_sharp[_IN, _IN, _IN]
    q_in = values[_IN, _IN, _IN]
    k_in = k_field[_IN, _IN, _IN]

    # Q_L and the gradients G_a of Q_sharp and K_a of K are symmetric, so
    # sum K_a G_a = (sum G_a K_a)^T and the commutator source W = Y - Y^T
    # is antisymmetric
    gsq = grad_squared(grads_qs)
    y = 2.0 * (matmul_sum(grads_qs, grads_k) @ qs_in) - (1.0 / s) * (q_in @ gsq)
    w = y - np.swapaxes(y, -1, -2)

    # T = Q_L - (2/9) s tr(K) I + beta n n^T has Q_L's eigenvectors, and its
    # eigenvalues are Q_L's shifted (beta on the top one only)
    tr_k = np.einsum("...ii->...", k_in)
    lam = w_l[_IN, _IN, _IN] - ((2.0 / 9.0) * s * tr_k)[..., None]
    lam[..., 0] += beta
    # elementwise over the columns: a size-3 axis reduction is far slower
    a0, a1, a2 = np.abs(np.moveaxis(lam, -1, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.maximum(np.maximum(a0, a1), a2)
        cond /= np.minimum(np.minimum(a0, a1), a2)
    if not np.all(cond <= _COND_LIMIT):  # also catches NaN
        idx = np.unravel_index(int(np.argmax(cond)), cond.shape)
        node = (offset + int(idx[0]), int(idx[1]), int(idx[2]))
        raise IllConditionedT(
            f"inversion matrix at interior node {node} has condition estimate "
            f"{float(cond[idx]):.3e}"
        )

    # T^{-1} P W and (W P T^{-1})^T = -T^{-1} P W, as (W P)^T = -P W: one
    # solve Z = V diag(1/lam) V^T P W gives the correction Z + Z^T
    proj = qs_in / s - (2.0 / 3.0) * I3
    v_in = v[_IN, _IN, _IN]
    z = np.swapaxes(v_in, -1, -2) @ (proj @ w)
    z /= lam[..., :, None]
    z = v_in @ z
    correction = z + np.swapaxes(z, -1, -2)

    rhs = harmonic_rhs_array(qs_in, gsq, s, form="ii") - correction
    out[...] = norm(lap_qs - rhs)


def fit_rate(ls, errs) -> RateFit:
    """Least-squares slope of log(err) against log(L) over a ladder."""
    ls = np.asarray(ls, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ls.shape != errs.shape:
        raise DegenerateFit("ladder and error arrays differ in length")
    valid = (ls > 0) & (errs > 0) & np.isfinite(errs)
    ls, errs = ls[valid], errs[valid]
    if len(ls) < 3:
        raise DegenerateFit("need at least 3 valid ladder points")
    x = np.log(ls)
    y = np.log(errs)
    if np.ptp(x) == 0.0:
        raise DegenerateFit("ladder has zero variance")
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        raise DegenerateFit("errors have zero variance")
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=1.0 - ss_res / ss_tot,
    )
