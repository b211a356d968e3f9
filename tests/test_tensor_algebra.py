"""Symmetric traceless 3x3 algebra: projections, invariants, the minimal
polynomial, and the batched eigendecomposition against independent
oracles."""

import numpy as np
import pytest

from ldglimit import tensor_algebra
from ldglimit.tensor_algebra import (
    I3,
    anticomm,
    comm,
    dev,
    dev_square_s0,
    eigh_descending,
    frobenius,
    from_s0,
    matmul_sum,
    norm,
    poly_min,
    qtensor,
    sym,
    to_s0,
    top_eigenpair,
    trace3,
)
from conftest import prolate_head_batch, random_directors, random_qtensors


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
    # tr(q^2) is the Frobenius product of q with itself for symmetric q
    assert np.max(np.abs(frobenius(q, q) - np.sum(w**2, axis=-1))) < 1e-10
    assert np.max(np.abs(trace3(q) - np.sum(w**3, axis=-1))) < 1e-10


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


def _assert_eigh_matches_lapack(q):
    """Descending order, no NaN, eigenvalues within 1e-14 max|lambda| of
    LAPACK, reconstruction within 1e-13 max|lambda|, orthonormal columns
    within 1e-13."""
    w, v = eigh_descending(q)
    assert w.shape == q.shape[:-1] and v.shape == q.shape
    assert not np.isnan(w).any() and not np.isnan(v).any()
    assert np.all(np.diff(w, axis=-1) <= 0.0)
    w_ref = np.linalg.eigh(q)[0][..., ::-1]
    scale = np.max(np.abs(w_ref), axis=-1)
    assert np.all(np.max(np.abs(w - w_ref), axis=-1) <= 1e-14 * scale)
    rec = np.einsum("...ik,...k,...jk->...ij", v, w, v)
    assert np.all(np.max(np.abs(rec - q), axis=(-2, -1)) <= 1e-13 * scale)
    orth = np.swapaxes(v, -1, -2) @ v
    assert np.max(np.abs(orth - I3)) <= 1e-13


def _rotate(rng, diag):
    """R diag(d) R^T for one random rotation per row of diag."""
    r, _ = np.linalg.qr(rng.normal(size=(len(diag), 3, 3)))
    return r @ (diag[..., :, None] * np.swapaxes(r, -1, -2))


def test_eig3_near_degenerate_fallback(rng):
    # nearly and exactly degenerate spectra on the axes
    q = np.array([np.diag([1.0, 1.0 + gap, -2.0]) for gap in (1e-4, 1e-9, 0.0)])
    _assert_eigh_matches_lapack(q)
    # rotated spectra whose top or bottom gap is 10^-k, k = 0..15
    gaps = 10.0 ** -np.arange(16)
    ones = np.ones_like(gaps)
    for diag in (
        np.stack([ones, ones - gaps, -ones], axis=-1),
        np.stack([ones, gaps - ones, -ones], axis=-1),
        np.stack([gaps, 0.0 * gaps, -ones], axis=-1),
    ):
        for _ in range(20):
            _assert_eigh_matches_lapack(_rotate(rng, diag))
    # scalar and zero matrices
    scalars = np.array([0.0, 1.0, -2.5, 1e-8, 1e8])[:, None, None] * I3
    _assert_eigh_matches_lapack(scalars)
    w, v = eigh_descending(np.zeros((3, 3)))
    assert np.array_equal(w, np.zeros(3))
    # uniaxial points: the two lower (or upper) eigenvalues are exactly equal
    n = random_directors(rng, 500)
    uni = 1.3 * (n[..., :, None] * n[..., None, :] - I3 / 3.0)
    _assert_eigh_matches_lapack(np.concatenate([uni, -uni, uni + 5.0 * I3]))
    # scaled inputs
    q = sym(rng.normal(size=(2000, 3, 3)))
    for scale in (1e-8, 1e8):
        _assert_eigh_matches_lapack(scale * q)


def test_eigh_descending_batched(rng):
    q = sym(rng.normal(size=(20000, 3, 3)))
    _assert_eigh_matches_lapack(q)
    # broadcasts over several leading axes and a single matrix
    grid = q[:120].reshape(4, 5, 6, 3, 3)
    w, v = eigh_descending(grid)
    w_flat, v_flat = eigh_descending(q[:120])
    assert np.array_equal(w, w_flat.reshape(4, 5, 6, 3))
    assert np.array_equal(v, v_flat.reshape(4, 5, 6, 3, 3))
    w1, v1 = eigh_descending(q[7])
    assert np.array_equal(w1, w_flat[7]) and np.array_equal(v1, v_flat[7])
    # a strided (non-contiguous) input gives the same result
    w_nc, _ = eigh_descending(np.swapaxes(np.swapaxes(q, -1, -2)[::2], -1, -2))
    assert np.array_equal(w_nc, eigh_descending(q[::2])[0])
    # a batch one block and five matrices long gives, bit for bit, what
    # its two pieces give on their own
    b = tensor_algebra.CACHE_BLOCK
    w, v = eigh_descending(q[:b + 5])
    pieces = [eigh_descending(q[:b]), eigh_descending(q[b:b + 5])]
    assert np.array_equal(w, np.concatenate([pieces[0][0], pieces[1][0]]))
    assert np.array_equal(v, np.concatenate([pieces[0][1], pieces[1][1]]))


def test_top_eigenpair_matches_eigh_descending(rng, monkeypatch):
    """A first block of prolate matrices (and the zero matrix) takes the
    closed form's first stage only; the mixed tail block, with oblate
    matrices and NaN, runs the Jacobi stage.  Either way n is
    eigh_descending's first column bit for bit and the gap is w_0 - w_1."""
    b = tensor_algebra.CACHE_BLOCK
    q = prolate_head_batch(rng, b)
    det = np.linalg.det(dev(q[:b]))
    assert np.all(det[1:] > 0.0) and det[0] == 0.0
    tail = np.delete(q[b:], 1, axis=0)  # less the NaN matrix
    assert np.sum(np.linalg.det(dev(tail)) < 0.0) >= 20
    jacobi_blocks = []
    jacobi = tensor_algebra._jacobi_stage
    monkeypatch.setattr(
        tensor_algebra, "_jacobi_stage",
        lambda stage, w, v: jacobi_blocks.append(len(w)) or jacobi(stage, w, v),
    )
    gap, n = top_eigenpair(q)
    assert jacobi_blocks == [len(q) - b]
    monkeypatch.undo()
    w, v = eigh_descending(q)
    ref = w[..., 0] - w[..., 1]
    assert gap.shape == q.shape[:-2] and n.shape == q.shape[:-1]
    assert np.array_equal(n, v[..., :, 0], equal_nan=True)
    assert np.array_equal(np.isnan(gap), np.isnan(ref)) and np.isnan(gap[b + 1])
    ok = ~np.isnan(ref)
    assert np.all(np.abs(gap - ref)[ok] <= 1e-12 * np.abs(ref)[ok])
    assert gap[0] == 0.0
    # broadcasts over leading axes and a single matrix
    gap2, n2 = top_eigenpair(q[:120].reshape(4, 30, 3, 3))
    assert np.array_equal(n2, n[:120].reshape(4, 30, 3))
    assert np.array_equal(gap2, gap[:120].reshape(4, 30))
    gap1, n1 = top_eigenpair(q[7])
    assert gap1.shape == () and np.array_equal(n1, n[7])


def test_trace3_and_matmul_sum_einsum_oracle(rng):
    big = sym(rng.normal(size=(3, 9, 8, 7, 3, 3)))
    g = big[:, 1:-1, 1:-1, 1:-1]  # non-contiguous, as stencil slices are
    h = big[::-1, 1:-1, 1:-1, 1:-1]
    assert not g.flags.c_contiguous
    ref = np.einsum("a...ij,a...jk->...ik", g, h)
    assert np.max(np.abs(matmul_sum(g, h) - ref)) < 1e-13
    q = g[1]
    ref3 = np.einsum("...ij,...jk,...ki->...", q, q, q)
    assert np.max(np.abs(trace3(q) - ref3)) < 1e-13


def _s0_basis():
    off = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e = np.zeros((3, 3))
        e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
        off.append(e)
    return [np.diag([-1.0, -1.0, 2.0]) / np.sqrt(6.0),
            np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0), *off]


def test_s0_coordinates_oracles(rng):
    """to_s0 reads the Frobenius coordinates of qtensor(m) in the orthonormal
    basis of S0, also for non-symmetric m; from_s0 inverts it with exactly
    symmetric matrices, and Euclidean norms of coordinates are Frobenius
    norms."""
    basis = _s0_basis()
    gram = np.array([[frobenius(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(5))) < 1e-15
    m = rng.normal(scale=2.0, size=(10000, 3, 3))
    q = qtensor(m)
    c = to_s0(m)
    ref = np.stack([frobenius(q, b) for b in basis], axis=-1)
    scale = norm(q)
    assert np.all(np.max(np.abs(c - ref), axis=-1) <= 1e-15 * scale)
    back = from_s0(c)
    assert np.all(norm(back - q) <= 1e-15 * scale)
    assert np.array_equal(back, np.swapaxes(back, -1, -2))
    assert np.max(np.abs(np.trace(back, axis1=-2, axis2=-1)) / scale) < 1e-15
    assert np.all(np.abs(np.sum(c * c, axis=-1) - frobenius(q, q)) <= 1e-15 * scale**2)


def test_s0_cubic_invariant_matches_matrix_oracle(rng):
    """dev_square_s0 gives the coordinates of dev(Q^2), so <dev(Q^2), c> is
    tr(Q^3), on 10^4 random S0 points; strided and contiguous inputs agree
    exactly."""
    q = random_qtensors(rng, 10000, scale=1.5)
    c = to_s0(q)
    k = dev_square_s0(c)
    scale = norm(q)
    assert np.all(norm(from_s0(k) - dev(q @ q)) <= 1e-14 * scale**2)
    assert np.all(np.abs(np.sum(k * c, axis=-1) - trace3(q)) <= 1e-14 * scale**3)
    lattice = np.stack([c[:5000], c[5000:]], axis=1)  # (5000, 2, 5)
    assert np.array_equal(dev_square_s0(lattice[:, 1]), k[5000:])
