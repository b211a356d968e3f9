"""Algebra of symmetric (traceless) 3x3 matrices.

All functions accept arrays of shape (..., 3, 3) and broadcast over leading
axes.  Q-tensors are plain ndarrays; `qtensor()` projects onto the
symmetric traceless subspace, and `to_s0` takes the coordinates of that
projection.  The `*_s0` functions work on the five coordinates of a
Q-tensor in an orthonormal basis of that subspace, shape (..., 5), instead.
"""

from __future__ import annotations

import numpy as np

I3 = np.eye(3)


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of m."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def dev(m: np.ndarray) -> np.ndarray:
    """Traceless (deviatoric) part of m."""
    tr = np.einsum("...ii->...", m)
    return m - tr[..., None, None] / 3.0 * I3


def qtensor(m: np.ndarray) -> np.ndarray:
    """Project m onto symmetric traceless matrices (S0)."""
    return dev(sym(m))


_R2 = float(np.sqrt(0.5))
_R6 = float(np.sqrt(1.0 / 6.0))
_SQRT2 = float(np.sqrt(2.0))


def to_s0(m: np.ndarray) -> np.ndarray:
    """Coordinates, shape (..., 5), of qtensor(m) in the orthonormal basis
    diag(-1, -1, 2)/sqrt(6), diag(1, -1, 0)/sqrt(2) and
    (e_i e_j^T + e_j e_i^T)/sqrt(2) for (i, j) = (0, 1), (0, 2), (1, 2) of
    S0.  Frobenius products of Q-tensors are the Euclidean products of their
    coordinates, and every coordinate vector is a traceless matrix."""
    q = qtensor(m)
    c = np.empty(q.shape[:-2] + (5,))
    c[..., 0] = (2.0 * q[..., 2, 2] - q[..., 0, 0] - q[..., 1, 1]) * _R6
    c[..., 1] = (q[..., 0, 0] - q[..., 1, 1]) * _R2
    c[..., 2] = _SQRT2 * q[..., 0, 1]
    c[..., 3] = _SQRT2 * q[..., 0, 2]
    c[..., 4] = _SQRT2 * q[..., 1, 2]
    return c


def from_s0(c: np.ndarray) -> np.ndarray:
    """The exactly symmetric matrices, shape (..., 3, 3), with coordinates c
    (the inverse of to_s0 on S0)."""
    a = _R6 * c[..., 0]
    b = _R2 * c[..., 1]
    q = np.empty(c.shape[:-1] + (3, 3))
    q[..., 0, 0] = b - a
    q[..., 1, 1] = -a - b
    q[..., 2, 2] = 2.0 * a
    q[..., 0, 1] = q[..., 1, 0] = _R2 * c[..., 2]
    q[..., 0, 2] = q[..., 2, 0] = _R2 * c[..., 3]
    q[..., 1, 2] = q[..., 2, 1] = _R2 * c[..., 4]
    return q


def dot_s0(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean product of S0 coordinates over the last axis: the Frobenius
    product of the matrices."""
    return np.einsum("...k,...k->...", a, b)


def s0_planes(c: np.ndarray) -> np.ndarray:
    """c stored as contiguous component planes: a view, with c's shape and
    values, of a new (5, ...) array.  Elementwise kernels on the planes
    c[..., k] then read and write contiguous memory."""
    return np.moveaxis(np.moveaxis(c, -1, 0).copy(), 0, -1)


def dev_square_s0(c: np.ndarray) -> np.ndarray:
    """Coordinates of dev(Q^2) for the Q with coordinates c; <dev(Q^2), c> is
    tr(Q^3).  Elementwise on the planes c[..., k]; the result is stored as
    planes (see s0_planes)."""
    c0, c1, c2, c3, c4 = np.moveaxis(c, -1, 0)
    out = np.empty((5,) + c.shape[:-1])
    out[0] = _R6 * (c0 * c0 - c1 * c1 - c2 * c2 + 0.5 * (c3 * c3 + c4 * c4))
    out[1] = 0.5 * _R2 * (c3 * c3 - c4 * c4) - 2.0 * _R6 * c0 * c1
    out[2] = _R2 * c3 * c4 - 2.0 * _R6 * c0 * c2
    out[3] = c3 * (_R6 * c0 + _R2 * c1) + _R2 * c2 * c4
    out[4] = c4 * (_R6 * c0 - _R2 * c1) + _R2 * c2 * c3
    return np.moveaxis(out, 0, -1)


def frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product tr(a^T b); for symmetric inputs tr(ab)."""
    return np.einsum("...ij,...ij->...", a, b)


def norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm."""
    return np.sqrt(frobenius(a, a))


def trace3(q: np.ndarray) -> np.ndarray:
    """tr(q^3) for symmetric q."""
    return frobenius(q @ q, q)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched outer products a b^T of vectors of shape (..., 3)."""
    return np.einsum("...i,...j->...ij", a, b)


def matmul_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of the batched products a[k] @ b[k]."""
    out = a[0] @ b[0]
    for k in range(1, len(a)):
        out += a[k] @ b[k]
    return out


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


# matrices per pass of eigh_descending and top_eigenpair (32 KiB
# per-component temporaries) and the identity suite ((4096, 3, 3)
# temporaries, 288 KiB, so the suite's working set fits a 2 MiB L2).
# Identity suite at 1e5 trials, ms, median over 8 fresh one-thread
# processes (best of 3 in each), block sizes alternating, 2-vCPU Xeon:
# block 2048: 388, 3072: 391, 4096: 396, 6144: 439, 8192: 441, 16384: 459
CACHE_BLOCK = 4096


def complete_frame(e) -> tuple[tuple, tuple]:
    """Right-handed orthonormal completion (u, v), v = e x u, of unit
    vectors given by their components e = (ex, ey, ez); u and v are
    returned as component triples too.  u is e_z x e where |ex| > |ez|,
    else e_x x e, so |u| >= 1/sqrt(2) before scaling."""
    ex, ey, ez = e
    big_x = np.abs(ex) > np.abs(ez)
    ux = np.where(big_x, -ey, 0.0)
    uy = np.where(big_x, ex, -ez)
    uz = np.where(big_x, 0.0, ey)
    inv_u = 1.0 / np.sqrt(ux * ux + uy * uy + uz * uz)
    ux *= inv_u
    uy *= inv_u
    uz *= inv_u
    v = (ey * uz - ez * uy, ez * ux - ex * uz, ex * uy - ey * ux)
    return (ux, uy, uz), v


def eigh_descending(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched symmetric 3x3 eigendecomposition, eigenvalues descending.

    Returns (w, v) with w shape (..., 3) and v columns matching w.  One
    closed form for every matrix (Smith, Commun. ACM 4, 1961; eigenvectors
    as in Kopp, Int. J. Mod. Phys. C 19, 2008), on B = (A - mI)/p with
    m = tr(A)/3 and tr(B^2) = 6 (B = 0 for scalar A), in two stages:

    - the trigonometric formula gives the extreme eigenvalue mu of B whose
      gap to the middle one is larger, so that gap is at least 1.5 and
      |mu| >= sqrt(3);
    - its eigenvector is the longest column of adj(B - mu I), i.e. the
      longest cross product of two rows of B - mu I; that column is longer
      than 2 (3 e1 for scalar A, where B - mu I = -sqrt(3) I), so it never
      vanishes;
    - then one 2x2 Jacobi rotation diagonalizes B on the orthogonal
      complement and gives the other two eigenpairs.

    The closed form runs over blocks of CACHE_BLOCK matrices.  It is
    elementwise, so the result does not depend on the block size.
    """
    flat, batch = _rows(q)
    w = np.empty((len(flat), 3))
    v = np.empty((len(flat), 3, 3))
    for lo in range(0, len(flat), CACHE_BLOCK):
        hi = lo + CACHE_BLOCK
        _jacobi_stage(_closed_form_stage(flat[lo:hi]), w[lo:hi], v[lo:hi])
    return w.reshape(batch + (3,)), v.reshape(batch + (3, 3))


def top_eigenpair(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gap, n): the gap w_0 - w_1 between the top two eigenvalues, shape
    (...), and the top eigenvector n, shape (..., 3), of symmetric 3x3
    matrices; n is bit-identical to eigh_descending(q)[1][..., :, 0].

    Per block of CACHE_BLOCK matrices: where every matrix has its top
    eigenvalue as eigh_descending's separated mu (det B >= 0), n is the
    closed form's e and the Jacobi stage does not run.  The gap is then
    p (3 mu - d) / 2, with d the spread of B's lower two eigenvalues read
    off M = B + (mu/2) I - (3 mu/2) e e^T, whose Frobenius norm is
    d/sqrt(2): M's entries are small where d is, so d keeps its absolute
    accuracy on uniaxial matrices, where the trigonometric middle
    eigenvalue loses half the digits.  Any other block (NaN included) runs
    the Jacobi stage and returns eigh_descending's n and w_0 - w_1
    exactly.  The gaps of the two branches agree to about 1e-15 relative.
    """
    flat, batch = _rows(q)
    gap = np.empty(len(flat))
    n = np.empty((len(flat), 3))
    for lo in range(0, len(flat), CACHE_BLOCK):
        hi = lo + CACHE_BLOCK
        stage = _closed_form_stage(flat[lo:hi])
        _, p, (b0, b1, b2, b01, b02, b12), top, mu, (ex, ey, ez) = stage
        if np.all(top):
            # M = B + h I - t e e^T with h = mu/2, t = 3 mu/2
            h, t = 0.5 * mu, 1.5 * mu
            m00 = b0 + h - t * ex * ex
            m11 = b1 + h - t * ey * ey
            m22 = b2 + h - t * ez * ez
            m01 = b01 - t * ex * ey
            m02 = b02 - t * ex * ez
            m12 = b12 - t * ey * ez
            d = np.sqrt(
                2.0 * (m00 * m00 + m11 * m11 + m22 * m22)
                + 4.0 * (m01 * m01 + m02 * m02 + m12 * m12)
            )
            gap[lo:hi] = p * (t - 0.5 * d)
            n[lo:hi, 0], n[lo:hi, 1], n[lo:hi, 2] = ex, ey, ez
        else:
            w_blk = np.empty((len(p), 3))
            v_blk = np.empty((len(p), 3, 3))
            _jacobi_stage(stage, w_blk, v_blk)
            gap[lo:hi] = w_blk[:, 0] - w_blk[:, 1]
            n[lo:hi] = v_blk[:, :, 0]
    return gap.reshape(batch), n.reshape(batch + (3,))


def _rows(q: np.ndarray) -> tuple[np.ndarray, tuple]:
    """q as rows of shape (k, 9), and its batch shape."""
    a = np.asarray(q, dtype=float)
    return a.reshape(-1, 9), a.shape[:-2]


def _closed_form_stage(flat: np.ndarray) -> tuple:
    """The closed form's first stage on the rows of flat, shape (k, 9):
    (m, p, B's entries (b0, b1, b2, b01, b02, b12), top, mu, e), with top
    true where mu is B's top eigenvalue and e = (ex, ey, ez) the unit
    eigenvector of mu."""
    a00, a01, a02, _, a11, a12, _, _, a22 = flat.T
    m = (a00 + a11 + a22) / 3.0
    b0, b1, b2 = a00 - m, a11 - m, a22 - m
    p = np.sqrt(
        (b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12))
        / 6.0
    )
    inv_p = 1.0 / np.where(p > 0.0, p, 1.0)
    b0 *= inv_p
    b1 *= inv_p
    b2 *= inv_p
    b01, b02, b12 = a01 * inv_p, a02 * inv_p, a12 * inv_p

    # cos(3 phi) = det(B)/2; the top eigenvalue 2cos(phi) is the better
    # separated one iff det(B) >= 0, else the bottom one 2cos(phi + 2pi/3)
    half_det = 0.5 * (
        b0 * (b1 * b2 - b12 * b12)
        - b01 * (b01 * b2 - b12 * b02)
        + b02 * (b01 * b12 - b1 * b02)
    )
    top = half_det >= 0.0
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    mu = 2.0 * np.cos(np.where(top, phi, phi + 2.0 * np.pi / 3.0))

    s0, s1, s2 = b0 - mu, b1 - mu, b2 - mu
    c00 = s1 * s2 - b12 * b12
    c11 = s0 * s2 - b02 * b02
    c22 = s0 * s1 - b01 * b01
    c01 = b02 * b12 - b01 * s2
    c02 = b01 * b12 - b02 * s1
    c12 = b01 * b02 - s0 * b12
    n0 = c00 * c00 + c01 * c01 + c02 * c02
    n1 = c01 * c01 + c11 * c11 + c12 * c12
    n2 = c02 * c02 + c12 * c12 + c22 * c22
    k0 = (n0 >= n1) & (n0 >= n2)
    k1 = n1 >= n2
    inv_n = 1.0 / np.sqrt(np.where(k0, n0, np.where(k1, n1, n2)))
    ex = np.where(k0, c00, np.where(k1, c01, c02)) * inv_n
    ey = np.where(k0, c01, np.where(k1, c11, c12)) * inv_n
    ez = np.where(k0, c02, np.where(k1, c12, c22)) * inv_n
    return m, p, (b0, b1, b2, b01, b02, b12), top, mu, (ex, ey, ez)


def _jacobi_stage(stage: tuple, w: np.ndarray, v: np.ndarray) -> None:
    """The closed form's second stage: from _closed_form_stage's result,
    the descending eigenvalues into w (k, 3) and eigenvectors into
    v (k, 3, 3)."""
    m, p, (b0, b1, b2, b01, b02, b12), top, mu, e = stage
    (ux, uy, uz), (vx, vy, vz) = complete_frame(e)

    # B on span(u, v) and the Jacobi rotation that diagonalizes it
    bu0 = b0 * ux + b01 * uy + b02 * uz
    bu1 = b01 * ux + b1 * uy + b12 * uz
    bu2 = b02 * ux + b12 * uy + b2 * uz
    m11 = ux * bu0 + uy * bu1 + uz * bu2
    m12 = vx * bu0 + vy * bu1 + vz * bu2
    m22 = (
        vx * (b0 * vx + b01 * vy + b02 * vz)
        + vy * (b01 * vx + b1 * vy + b12 * vz)
        + vz * (b02 * vx + b12 * vy + b2 * vz)
    )
    theta = 0.5 * np.arctan2(2.0 * m12, m11 - m22)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    half_r = 0.5 * np.hypot(m11 - m22, 2.0 * m12)
    mid = 0.5 * (m11 + m22)

    # eigenpairs (w_e, e), (w_a, f) and (w_b, g) with w_a >= w_b; e goes
    # first when it belongs to the top eigenvalue and last otherwise
    w_e = m + p * mu
    w_a = m + p * (mid + half_r)
    w_b = m + p * (mid - half_r)
    f = (cos_t * ux + sin_t * vx, cos_t * uy + sin_t * vy, cos_t * uz + sin_t * vz)
    g = (cos_t * vx - sin_t * ux, cos_t * vy - sin_t * uy, cos_t * vz - sin_t * uz)
    w[:, 0] = np.where(top, w_e, w_a)
    w[:, 1] = np.where(top, w_a, w_b)
    w[:, 2] = np.where(top, w_b, w_e)
    for i in range(3):
        v[:, i, 0] = np.where(top, e[i], f[i])
        v[:, i, 1] = np.where(top, f[i], g[i])
        v[:, i, 2] = np.where(top, g[i], e[i])
