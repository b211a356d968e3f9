"""Limit-manifold geometry: projection, tangent/normal splitting, curvature,
and the equivalent harmonic right-hand sides, each against an independent
oracle or its definition."""

import numpy as np
import pytest

from ldglimit.errors import DegenerateSpectrum
from ldglimit.geometry import (
    ManifoldPoint,
    MaterialParams,
    check_identities,
    default_gap_tol,
    harmonic_rhs_array,
    normal_basis_s0,
    normal_component,
    normality_residual,
    project_array,
    second_fundamental_form,
    tangency_residual,
    tangent_basis,
    uniaxial,
)
from ldglimit.tensor_algebra import I3, comm, frobenius, norm, poly_min, qtensor
from conftest import random_directors

E1, E2, E3 = np.eye(3)


def base_point(n, p):
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    return ManifoldPoint(q=uniaxial(n, p.s_plus), director=n)


def test_s_plus_value_and_defining_quadratic(rng):
    assert MaterialParams(1.0, 1.0, 1.0).s_plus == pytest.approx(1.5, abs=1e-15)
    for _ in range(50):
        a2, b2, c2 = rng.uniform(0.1, 5.0, size=3)
        s = MaterialParams(a2, b2, c2).s_plus
        # s_+ is the positive root of 2 c2 s^2 - b2 s - 3 a2 = 0
        assert abs(2.0 * c2 * s**2 - b2 * s - 3.0 * a2) < 1e-10
        assert s > 0


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MaterialParams(1.0, 1.0, 1.0, L=-0.1)


def test_uniaxial_spectrum_and_membership(rng, unit_params):
    s = unit_params.s_plus
    n = random_directors(rng, 100)
    q = uniaxial(n, s)
    assert np.max(np.abs(np.trace(q, axis1=-2, axis2=-1))) < 1e-14
    w = np.sort(np.linalg.eigvalsh(q), axis=-1)
    expected = np.array([-s / 3.0, -s / 3.0, 2.0 * s / 3.0])
    assert np.max(np.abs(w - expected)) < 1e-12
    assert np.max(norm(poly_min(q, s))) < 1e-12


def test_projection_recovers_manifold_points(rng, unit_params):
    s = unit_params.s_plus
    n = random_directors(rng, 50)
    q = uniaxial(n, s)
    proj, director = project_array(q, unit_params)
    assert np.max(np.abs(proj - q)) < 1e-10
    # director defined up to sign
    err = np.minimum(
        np.linalg.norm(director - n, axis=-1), np.linalg.norm(director + n, axis=-1)
    )
    assert np.max(err) < 1e-8


def test_projection_is_nearest_point(rng, unit_params):
    """Brute-force oracle: no sampled manifold point is closer than the
    projection (up to sampling resolution)."""
    s = unit_params.s_plus
    samples = uniaxial(random_directors(rng, 20000), s)
    pert = qtensor(rng.normal(size=(50, 3, 3)))
    q = uniaxial(random_directors(rng, 50), s) + 0.05 * s * pert / norm(pert)[
        ..., None, None
    ]
    proj, _ = project_array(q, unit_params)
    d_proj = norm(q - proj)
    for qi, di in zip(q, d_proj):
        assert di <= float(np.min(norm(samples - qi))) + 1e-6


def test_projection_degenerate_spectrum(rng, unit_params):
    with pytest.raises(DegenerateSpectrum):
        project_array(np.zeros((3, 3)), unit_params)
    # one degenerate entry fails the whole batch
    q = uniaxial(random_directors(rng, 4), unit_params.s_plus)
    q[2] = 0.0
    with pytest.raises(DegenerateSpectrum):
        project_array(q, unit_params)
    assert default_gap_tol(unit_params) == pytest.approx(0.15)


def test_split_examples(rng, unit_params):
    p = unit_params
    s = p.s_plus
    base = base_point([0.0, 0.0, 1.0], p)
    # the base point and the identity commute with the base point: purely
    # normal
    for a in (base.q, I3):
        assert np.max(np.abs(normal_component(a, base.q, s) - a)) < 1e-12
    # a tangent frame vector is purely tangential
    for t in tangent_basis(base):
        assert np.max(np.abs(normal_component(t, base.q, s))) < 1e-12


def test_split_is_direct_sum(rng, unit_params):
    """a - N(a) is tangent and N(a) is normal, so the two parts split a."""
    p = unit_params
    s = p.s_plus
    n = random_directors(rng, 30)
    q = uniaxial(n, s)
    a = rng.normal(size=(30, 3, 3))
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    normal = normal_component(a, q, s)
    assert np.max(tangency_residual(a - normal, q, s)) < 1e-10
    assert np.max(normality_residual(normal, q)) < 1e-10


def test_normal_component_fixes_normals(rng, unit_params):
    p = unit_params
    s = p.s_plus
    for n in random_directors(rng, 20):
        base = base_point(n, p)
        z1, z2, z3 = normal_basis_s0(base)
        z = rng.normal() * z1 + rng.normal() * z2 + rng.normal() * z3
        assert np.max(np.abs(normal_component(z, base.q, s) - z)) < 1e-12
        t1, t2 = tangent_basis(base)
        x = rng.normal() * t1 + rng.normal() * t2
        assert np.max(np.abs(normal_component(x, base.q, s))) < 1e-12


def test_bases_are_orthogonal_frames(rng, unit_params):
    p = unit_params
    for n in random_directors(rng, 20):
        base = base_point(n, p)
        t1, t2 = tangent_basis(base)
        z1, z2, z3 = normal_basis_s0(base)
        vecs = [t1, t2, z1, z2, z3]
        for i, a in enumerate(vecs):
            assert abs(np.trace(a)) < 1e-12
            for b in vecs[i + 1:]:
                assert abs(frobenius(a, b)) < 1e-12
        for t in (t1, t2):
            assert float(tangency_residual(t, base.q, p.s_plus)) < 1e-12
        for z in (z1, z2, z3):
            assert float(normality_residual(z, base.q)) < 1e-12
    # a batch of base points gives, point by point, the same frames
    n = random_directors(rng, 64)
    batch = ManifoldPoint(q=uniaxial(n, p.s_plus), director=n)
    frames = tangent_basis(batch) + normal_basis_s0(batch)
    for i in range(len(n)):
        single = ManifoldPoint(q=batch.q[i], director=n[i])
        for fb, fs in zip(frames, tangent_basis(single) + normal_basis_s0(single)):
            assert np.array_equal(fb[i], fs)


def test_second_fundamental_form_frame_example(unit_params):
    """At director e1, the frame tangent s(e1 (x) e2 + e2 (x) e1) maps to
    2 s diag(-1, 1, 0)."""
    p = unit_params
    s = p.s_plus
    base = base_point([1.0, 0.0, 0.0], p)
    v1 = s * (np.outer(E1, E2) + np.outer(E2, E1))
    ii = second_fundamental_form(v1, v1, base.q, s)
    assert np.allclose(ii, 2.0 * s * np.diag([-1.0, 1.0, 0.0]), atol=1e-12)


def test_second_fundamental_form_properties(rng, unit_params):
    p = unit_params
    s = p.s_plus
    n = random_directors(rng, 10)
    base = ManifoldPoint(q=uniaxial(n, s), director=n)
    t1, t2 = tangent_basis(base)
    c = rng.normal(size=(4, 10, 1, 1))
    x = c[0] * t1 + c[1] * t2
    y = c[2] * t1 + c[3] * t2
    ii_xy = second_fundamental_form(x, y, base.q, s)
    ii_yx = second_fundamental_form(y, x, base.q, s)
    assert np.max(np.abs(ii_xy - ii_yx)) < 1e-12
    # bilinear and normal-valued
    assert np.max(np.abs(second_fundamental_form(x, np.zeros_like(x), base.q, s))) == 0.0
    assert np.max(np.abs(comm(ii_xy, base.q))) < 1e-11


def test_second_fundamental_form_curve_oracle(rng, unit_params):
    """Centered second difference of the projected curve t -> proj(q + t x)
    matches II(x, x)."""
    p = unit_params
    s = p.s_plus
    t = 1e-3
    n = random_directors(rng, 5)
    base = ManifoldPoint(q=uniaxial(n, s), director=n)
    t1, t2 = tangent_basis(base)
    c = rng.normal(size=(2, 5, 1, 1))
    x = c[0] * t1 + c[1] * t2
    x = x / norm(x)[..., None, None]
    qp, _ = project_array(base.q + t * x, p)
    qm, _ = project_array(base.q - t * x, p)
    fd = (qp - 2.0 * base.q + qm) / t**2
    assert np.max(np.abs(second_fundamental_form(x, x, base.q, s) - fd)) < 1e-4


def test_harmonic_rhs_forms_agree_on_tangents(rng, unit_params):
    p = unit_params
    s = p.s_plus
    for n in random_directors(rng, 20):
        base = base_point(n, p)
        t1, t2 = tangent_basis(base)
        grads = np.stack([
            rng.normal() * t1 + rng.normal() * t2,
            rng.normal() * t1 + rng.normal() * t2,
            rng.normal() * t1 + rng.normal() * t2,
        ])
        r2 = harmonic_rhs_array(base.q, grads, s, form="ii")
        r3 = harmonic_rhs_array(base.q, grads, s, form="iii")
        r4 = harmonic_rhs_array(base.q, grads, s, form="iv")
        assert np.max(np.abs(r2 - r4)) < 1e-10
        assert np.max(np.abs(r3 - r4)) < 1e-10
    # zero gradients give zero
    assert np.max(np.abs(harmonic_rhs_array(base.q, np.zeros((3, 3, 3)), s))) == 0.0
    with pytest.raises(ValueError):
        harmonic_rhs_array(base.q, np.zeros((3, 3, 3)), s, form="v")


def test_check_identities_valid_and_mutated(rng, unit_params):
    p = unit_params
    s = p.s_plus
    base = base_point([0.3, -0.5, 0.8], p)
    t1, t2 = tangent_basis(base)
    z1, z2, z3 = normal_basis_s0(base)
    x = 0.7 * t1 - 0.2 * t2
    y = -1.1 * t1 + 0.4 * t2
    z = 0.5 * z1 + 0.3 * z2 - 0.8 * z3
    res = check_identities(x, y, z, base, p)
    assert set(res) == {
        "trace_product",
        "anticomm_product",
        "rank_one_projector",
        "tangent_pair_is_normal",
        "normal_pair_is_normal",
        "mixed_pair_is_tangent",
    }
    assert max(res.values()) < 1e-12
    # swapping tangent and normal inputs must blow the residuals up
    bad = check_identities(z, z, x, base, p)
    assert max(bad.values()) > 1e-3

    # over a batch of base points the result is the per-point maximum
    n = random_directors(rng, 64)
    batch = ManifoldPoint(q=uniaxial(n, s), director=n)
    t1, t2 = tangent_basis(batch)
    z1, z2, z3 = normal_basis_s0(batch)
    c = rng.normal(size=(7, 64, 1, 1))
    x = c[0] * t1 + c[1] * t2
    y = c[2] * t1 + c[3] * t2
    z = c[4] * z1 + c[5] * z2 + c[6] * z3
    for args in ((x, y, z), (z, z, x)):
        res = check_identities(*args, batch, p)
        singles = [
            check_identities(
                *(a[i] for a in args), ManifoldPoint(batch.q[i], n[i]), p
            )
            for i in range(len(n))
        ]
        assert res == {k: max(r[k] for r in singles) for k in res}


def test_poly_min_characterizes_membership(rng, unit_params):
    s = unit_params.s_plus
    n = random_directors(rng, 100)
    on = uniaxial(n, s)
    off = on + 0.1 * np.broadcast_to(np.diag([2.0, -1.0, -1.0]) / np.sqrt(6), (100, 3, 3))
    assert np.max(norm(poly_min(on, s))) < 1e-12
    assert np.min(norm(poly_min(off, s))) > 1e-3
