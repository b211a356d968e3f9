"""Bulk energy density, its minimum, its shifted (nonnegative) version and
its gradient."""

from __future__ import annotations

import numpy as np

from .geometry import MaterialParams
from .tensor_algebra import (
    dev_square_s0,
    dot_s0,
    frobenius,
    from_s0,
    s0_planes,
    to_s0,
    trace3,
)


def f_bulk(q: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Quartic bulk density -(a2/2) tr Q^2 - (b2/3) tr Q^3 + (c2/4)(tr Q^2)^2."""
    t2 = frobenius(q, q)  # tr Q^2 for symmetric Q
    t3 = trace3(q)
    return -0.5 * p.a2 * t2 - (p.b2 / 3.0) * t3 + 0.25 * p.c2 * t2**2


def f_bulk_min(p: MaterialParams) -> float:
    """Minimum of the bulk density over traceless symmetric matrices.

    Closed form via the manifold traces tr Q^2 = 2 s^2/3, tr Q^3 = 2 s^3/9.
    """
    s = p.s_plus
    return float(
        -(p.a2 / 3.0) * s**2 - (2.0 * p.b2 / 27.0) * s**3 + (p.c2 / 9.0) * s**4
    )


def f_bulk_shifted(q: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Nonnegative shifted density; vanishes exactly on the limit manifold."""
    return f_bulk(q, p) - f_bulk_min(p)


def grad_f_bulk(q: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Gradient of the bulk density w.r.t. the Frobenius product on S0:
    -a2 Q - b2 dev(Q^2) + c2 |Q|^2 Q.  The deviatoric part is the
    Lagrange-multiplier term of the tracelessness constraint.  Computed on
    the contiguous component planes (s0_planes) of the S0 coordinates, and
    returned in the coordinates given: planes for S0 coordinates (..., 5),
    exactly symmetric traceless matrices for Q-tensors (..., 3, 3)."""
    matrix = q.shape[-2:] == (3, 3)
    c = s0_planes(to_s0(q) if matrix else q)
    g = (p.c2 * dot_s0(c, c) - p.a2)[..., None] * c - p.b2 * dev_square_s0(c)
    return from_s0(g) if matrix else g
