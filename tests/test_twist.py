"""The twist testbed: a 1D geodesic director field on an anisotropic grid.

On [0, 8] x [0, 1e6]^2 with 127 x 3 x 3 interior nodes the transverse
stencil weights are about 1e-11, so each row is a 1D problem.  The data
n(x) = (sin t, 0, cos t), t = 0.5 x / 8, on every node is a geodesic of the
limit manifold and hence discrete-harmonic, and the first-order
corrector's tangential part b vanishes.  The spacing h = 1/16 along the row
is below the boundary layer widths sqrt(L / lam) of both rungs.  The
solvers, the corrector and its equation all read the per-axis spacings,
which a cubic sweep grid cannot tell apart.
"""

import numpy as np
import pytest

from ldglimit.asymptotics import (
    corrector_a,
    corrector_b_residual,
    empirical_corrector,
)
from ldglimit.fields import GridSpec, TensorField
from ldglimit.geometry import MaterialParams, uniaxial
from ldglimit.solvers import SolveConfig, solve_harmonic, solve_ldg
from ldglimit.tensor_algebra import norm

GRID = GridSpec((127, 3, 3), box=((0.0, 8.0), (0.0, 1e6), (0.0, 1e6)))
P = MaterialParams(1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def twist():
    """The limit solve from the geodesic, and its corrector a."""
    theta = 0.5 * GRID.coords()[..., 0] / 8.0
    n = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    res = solve_harmonic(TensorField(GRID, uniaxial(n, P.s_plus)), P,
                         SolveConfig())
    return res, corrector_a(res.field, P)


def test_geodesic_is_discrete_harmonic_with_zero_tangential_corrector(twist):
    res, a = twist
    assert res.iterations == 0
    assert res.el_residual <= 1e-11
    # b = 0 solves the tangential equation exactly on this data
    residual = corrector_b_residual(res.field, a, np.zeros_like(a), P)
    assert float(np.max(residual)) <= 1e-10


def test_empirical_corrector_converges_at_first_order_away_from_the_ends(twist):
    """From Q* + L a each rung meets the residual, and on x in [2, 6] the
    normal part of (Q_L - Q*)/L tends to a at rate L: the error is about
    1e-4 sup|a| and halves with L."""
    res, a = twist
    q_star = res.field
    x = GRID.coords()[1:-1, 1:-1, 1:-1, 0]
    middle = (x >= 2.0) & (x <= 6.0)
    sup_a = float(np.max(norm(a)))
    errors = []
    for L in (0.04, 0.02):
        p = MaterialParams(P.a2, P.b2, P.c2, L=L)
        rung = solve_ldg(q_star.with_interior(q_star.interior + L * a), p,
                         SolveConfig())
        assert rung.stop_reason == "residual", L
        a_emp = empirical_corrector(rung.field, q_star, p).a_field
        errors.append(float(np.max(norm(a_emp - a)[middle])))
        assert errors[-1] <= 1e-3 * sup_a, L
    assert 1.7 <= errors[0] / errors[1] <= 2.3
