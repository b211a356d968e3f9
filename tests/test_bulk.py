"""Bulk density, its gradient, and the comparability of the shifted
density with squared distance to the limit manifold."""

import numpy as np
import pytest

from ldglimit.bulk import (
    f_bulk,
    f_bulk_min,
    f_bulk_shifted,
    grad_f_bulk,
)
from ldglimit.geometry import (
    MaterialParams,
    normal_basis,
    project_array,
    tangent_basis,
    uniaxial,
)
from ldglimit.tensor_algebra import I3, frobenius, from_s0, norm, qtensor, to_s0
from conftest import random_directors, random_qtensors


def test_f_bulk_values(rng, unit_params):
    p = unit_params
    assert f_bulk(np.zeros((3, 3)), p) == 0.0
    assert f_bulk_min(p) == pytest.approx(-7.0 / 16.0, abs=1e-15)
    # every manifold point attains the minimum
    q = uniaxial(random_directors(rng, 200), p.s_plus)
    assert np.max(np.abs(f_bulk(q, p) - f_bulk_min(p))) < 1e-13


def test_f_bulk_min_is_global(rng, unit_params):
    """Random-search oracle: no sampled traceless symmetric matrix goes below
    the closed-form minimum."""
    p = unit_params
    q = random_qtensors(rng, 20000, scale=1.5)
    assert np.min(f_bulk(q, p)) >= f_bulk_min(p) - 1e-12
    assert np.min(f_bulk_shifted(q, p)) >= -1e-12
    # shifted density at zero is minus the minimum
    assert f_bulk_shifted(np.zeros((3, 3)), p) == pytest.approx(7.0 / 16.0)


def test_f_bulk_shifted_vanishes_only_near_manifold(rng, unit_params):
    p = unit_params
    s = p.s_plus
    on = uniaxial(random_directors(rng, 100), s)
    assert np.max(f_bulk_shifted(on, p)) < 1e-13
    off = on + 0.2 * np.broadcast_to(np.diag([2.0, -1.0, -1.0]) / np.sqrt(6), (100, 3, 3))
    assert np.min(f_bulk_shifted(off, p)) > 1e-4


def test_grad_f_bulk_traceless_symmetric(rng, unit_params):
    g = grad_f_bulk(random_qtensors(rng, 100), unit_params)
    assert np.max(np.abs(g - np.swapaxes(g, -1, -2))) < 1e-13
    assert np.max(np.abs(np.trace(g, axis1=-2, axis2=-1))) < 1e-12
    # vanishes on the manifold (critical points)
    q = uniaxial(random_directors(rng, 100), unit_params.s_plus)
    assert np.max(norm(grad_f_bulk(q, unit_params))) < 1e-12


def test_grad_f_bulk_matches_matrix_formula_in_both_coordinates(rng):
    """grad_f_bulk on S0 coordinates and on matrices agrees with the matrix
    formula -a2 Q - b2 (Q^2 - tr(Q^2) I/3) + c2 tr(Q^2) Q on 10^4 random S0
    points, and the matrix result is the coordinate one, bit for bit."""
    p = MaterialParams(0.7, 1.3, 1.9)
    q = random_qtensors(rng, 10000, scale=1.5)
    t2 = frobenius(q, q)[..., None, None]
    oracle = -p.a2 * q - p.b2 * (q @ q - t2 / 3.0 * I3) + p.c2 * t2 * q
    bound = 1e-14 * (1.0 + norm(q)) ** 3
    from_coords = from_s0(grad_f_bulk(to_s0(q), p))
    assert np.all(norm(from_coords - oracle) <= bound)
    assert np.array_equal(grad_f_bulk(q, p), from_coords)


def _fd_grad(q, p, step=1e-6):
    """Central-difference gradient in a traceless symmetric basis."""
    basis = []
    for i in range(3):
        for j in range(i, 3):
            e = np.zeros((3, 3))
            e[i, j] = e[j, i] = 1.0
            basis.append(qtensor(e))
    g = np.zeros((3, 3))
    for e in basis:
        nrm2 = float(np.sum(e * e))
        if nrm2 == 0.0:
            continue
        d = (f_bulk(q + step * e, p) - f_bulk(q - step * e, p)) / (2.0 * step)
        g = g + float(d) * e / nrm2
    return g


def test_grad_f_bulk_finite_difference(rng, unit_params):
    """The directional derivative of f along any traceless symmetric
    direction matches the Frobenius pairing with grad_f_bulk."""
    p = unit_params
    worst = 0.0
    for _ in range(1000):
        q = qtensor(rng.normal(size=(3, 3)))
        e = qtensor(rng.normal(size=(3, 3)))
        e = e / norm(e)
        step = 1e-6
        d_fd = (f_bulk(q + step * e, p) - f_bulk(q - step * e, p)) / (2.0 * step)
        d_an = float(np.sum(grad_f_bulk(q, p) * e))
        rel = abs(d_fd - d_an) / max(1.0, abs(d_an))
        worst = max(worst, rel)
    assert worst <= 1e-6


@pytest.mark.parametrize(
    "p", [MaterialParams(1.0, 1.0, 1.0), MaterialParams(0.7, 1.3, 0.9),
          MaterialParams(2.5, 0.4, 3.1)]
)
def test_normal_stiffness_is_the_bulk_hessian_on_the_manifold(rng, p):
    """Central differences of grad_f_bulk at manifold points: the bulk
    Hessian is lam_u on the uniaxial normal mode, lam_b on the two biaxial
    ones and 0 on both tangents, as MaterialParams.normal_stiffness states."""
    lam_u, lam_b = p.normal_stiffness
    n = random_directors(rng, 200)
    q = uniaxial(n, p.s_plus)
    eps = 1e-5
    z1, z2, z3 = normal_basis(n)
    t1, t2 = tangent_basis(n)
    for lam, d in [(lam_u, z1), (lam_b, z2), (lam_b, z3), (0.0, t1), (0.0, t2)]:
        d = d / norm(d)[..., None, None]
        hd = (grad_f_bulk(q + eps * d, p) - grad_f_bulk(q - eps * d, p)) / (2 * eps)
        assert np.max(norm(hd - lam * d)) <= 1e-8


def test_f_bulk_shifted_comparable_to_squared_distance(rng, unit_params):
    """Near the manifold the shifted density is bounded above and below by
    multiples of the squared distance to it."""
    p = unit_params
    s = p.s_plus
    pert = qtensor(rng.normal(size=(2000, 3, 3)))
    radius = s * rng.uniform(1e-3, 0.1, size=2000)
    q = uniaxial(random_directors(rng, 2000), s) + (radius / norm(pert))[
        :, None, None
    ] * pert
    proj = project_array(q, p)
    dist = norm(q - proj)
    # the perturbation bounds the distance from above, and its normal part
    # keeps it well away from zero
    assert np.all((dist > 1e-4 * s) & (dist <= radius * (1.0 + 1e-12)))
    ratio = f_bulk_shifted(q, p) / dist**2
    assert ratio.min() > 0.0
    assert ratio.max() / ratio.min() < 100.0
