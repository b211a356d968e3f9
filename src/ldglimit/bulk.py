"""Bulk energy density, its minimum, its shifted (nonnegative) version and
its gradient."""

from __future__ import annotations

import numpy as np

from .geometry import MaterialParams
from .tensor_algebra import I3, trace2, trace3


def f_bulk(q: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Quartic bulk density -(a2/2) tr Q^2 - (b2/3) tr Q^3 + (c2/4)(tr Q^2)^2."""
    t2 = trace2(q)
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
    """Gradient of the bulk density w.r.t. the Frobenius product on S0.

    Includes the Lagrange-multiplier term for the tracelessness constraint,
    so the result is traceless symmetric.
    """
    t2 = trace2(q)[..., None, None]
    return -p.a2 * q - p.b2 * (q @ q - t2 / 3.0 * I3) + p.c2 * t2 * q

