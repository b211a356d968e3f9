"""Bulk density, its gradient, and the comparability of the shifted
density with squared distance to the limit manifold."""

import numpy as np
import pytest

from ldglimit.bulk import f_bulk, f_bulk_min, f_bulk_shifted, grad_f_bulk
from ldglimit.geometry import project_array, uniaxial
from ldglimit.tensor_algebra import norm, qtensor
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
    proj, _ = project_array(q, p)
    dist = norm(q - proj)
    # the perturbation bounds the distance from above, and its normal part
    # keeps it well away from zero
    assert np.all((dist > 1e-4 * s) & (dist <= radius * (1.0 + 1e-12)))
    ratio = f_bulk_shifted(q, p) / dist**2
    assert ratio.min() > 0.0
    assert ratio.max() / ratio.min() < 100.0
