"""Symmetric traceless 3x3 algebra: projections, invariants, the minimal
polynomial, and the batched eigendecomposition against independent
oracles."""

import numpy as np
import pytest

from ldglimit.tensor_algebra import (
    I3,
    anticomm,
    comm,
    dev,
    eigh_descending,
    frobenius,
    norm,
    poly_min,
    qtensor,
    sym,
    trace2,
    trace3,
)
from conftest import random_directors, random_qtensors


def test_sym_dev_qtensor_properties(rng):
    m = rng.normal(size=(200, 3, 3))
    s = sym(m)
    assert np.max(np.abs(s - np.swapaxes(s, -1, -2))) == 0.0
    d = dev(m)
    assert np.max(np.abs(np.trace(d, axis1=-2, axis2=-1))) < 1e-13
    q = qtensor(m)
    assert np.max(np.abs(q - np.swapaxes(q, -1, -2))) == 0.0
    assert np.max(np.abs(np.trace(q, axis1=-2, axis2=-1))) < 1e-13
    # idempotent on its own range
    assert np.max(np.abs(qtensor(q) - q)) < 1e-14


def test_frobenius_componentwise_oracle(rng):
    a = rng.normal(size=(100, 3, 3))
    b = rng.normal(size=(100, 3, 3))
    expected = np.sum(a * b, axis=(-2, -1))
    assert np.max(np.abs(frobenius(a, b) - expected)) < 1e-13
    assert np.max(np.abs(norm(a) - np.linalg.norm(a, axis=(-2, -1)))) < 1e-13


def test_trace_invariants_eigenvalue_oracle(rng):
    q = random_qtensors(rng, 100, scale=2.0)
    w = np.linalg.eigvalsh(q)
    assert np.max(np.abs(trace2(q) - np.sum(w**2, axis=-1))) < 1e-10
    assert np.max(np.abs(trace3(q) - np.sum(w**3, axis=-1))) < 1e-10
    # trace2 equals the squared Frobenius norm for symmetric input
    assert np.max(np.abs(trace2(q) - norm(q) ** 2)) < 1e-12


def test_anticomm_comm_definitions(rng):
    a, b = rng.normal(size=(2, 20, 3, 3))
    assert np.array_equal(anticomm(a, b), a @ b + b @ a)
    assert np.array_equal(comm(a, b), a @ b - b @ a)
    assert np.max(np.abs(comm(a, a))) == 0.0


def test_poly_min_on_uniaxial_states(rng):
    s = 1.5
    n = random_directors(rng, 500)
    q = s * (n[..., :, None] * n[..., None, :] - I3 / 3.0)
    assert np.max(norm(poly_min(q, s))) < 1e-12 * s**2
    # also for a non-unit order parameter
    s2 = 0.37
    q2 = s2 * (n[..., :, None] * n[..., None, :] - I3 / 3.0)
    assert np.max(norm(poly_min(q2, s2))) < 1e-12


def test_poly_min_at_zero_and_validation():
    s = 1.5
    assert np.allclose(poly_min(np.zeros((3, 3)), s), -(2.0 / 9.0) * s**2 * I3)
    with pytest.raises(ValueError):
        poly_min(np.zeros((3, 3)), 0.0)
    with pytest.raises(ValueError):
        poly_min(np.zeros((3, 3)), -1.0)


def test_poly_min_nonzero_off_manifold(rng):
    s = 1.5
    q = random_qtensors(rng, 50, scale=3.0)
    # generic points are far from the manifold; residuals must not vanish
    assert np.min(norm(poly_min(q, s))) > 1e-3


def test_eig3_near_degenerate_fallback():
    # nearly and exactly degenerate spectra
    q = np.array([np.diag([1.0, 1.0 + gap, -2.0]) for gap in (1e-4, 1e-9, 0.0)])
    w, v = eigh_descending(q)
    assert np.all(np.diff(w, axis=-1) <= 0.0)
    rec = np.einsum("...ik,...k,...jk->...ij", v, w, v)
    assert np.max(np.abs(rec - q)) < 1e-12
    orth = np.swapaxes(v, -1, -2) @ v
    assert np.max(np.abs(orth - I3)) < 1e-12


def test_eigh_descending_batched(rng):
    q = sym(rng.normal(size=(300, 3, 3)))
    w, v = eigh_descending(q)
    assert np.all(np.diff(w, axis=-1) <= 1e-13)
    rec = np.einsum("...ik,...k,...jk->...ij", v, w, v)
    assert np.max(np.abs(rec - q)) < 1e-12
    orth = np.swapaxes(v, -1, -2) @ v
    assert np.max(np.abs(orth - I3)) < 1e-12
