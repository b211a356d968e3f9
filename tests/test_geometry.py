"""Limit-manifold geometry: projection, tangent/normal splitting, curvature,
and the equivalent harmonic right-hand sides, each against an independent
oracle or its definition."""

import tracemalloc

import numpy as np
import pytest

from ldglimit import solvers, tensor_algebra
from ldglimit.errors import DegenerateSpectrum
from ldglimit.fields import GridSpec, boundary_hedgehog, gradient_array
from ldglimit.geometry import (
    MaterialParams,
    check_identities,
    grad_squared,
    harmonic_rhs_array,
    normal_basis,
    normal_component,
    normality_residual,
    project_array,
    projection_frame,
    second_fundamental_form,
    tangency_residual,
    tangent_basis,
    uniaxial,
)
from ldglimit.runner import CHECK_TOLERANCES
from ldglimit.tensor_algebra import (
    I3,
    comm,
    dot_s0,
    frobenius,
    from_s0,
    norm,
    poly_min,
    qtensor,
    to_s0,
)
from conftest import prolate_head_batch, random_directors

E1, E2, E3 = np.eye(3)


def base_point(n, p):
    """The manifold point with director n (normalized) and that director."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    return uniaxial(n, p.s_plus), n


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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MaterialParams(1.0, bad, 1.0)
        with pytest.raises(ValueError):
            MaterialParams(1.0, 1.0, 1.0, L=bad)


def test_uniaxial_spectrum_and_membership(rng, unit_params):
    s = unit_params.s_plus
    n = random_directors(rng, 100)
    q = uniaxial(n, s)
    assert np.max(np.abs(np.trace(q, axis1=-2, axis2=-1))) < 1e-14
    w = np.sort(np.linalg.eigvalsh(q), axis=-1)
    expected = np.array([-s / 3.0, -s / 3.0, 2.0 * s / 3.0])
    assert np.max(np.abs(w - expected)) < 1e-12
    assert np.max(norm(poly_min(q, s))) < 1e-12


def test_uniaxial_bits_and_one_array(rng, unit_params):
    """uniaxial has the bits of s (n n^T - I/3) on random directors and
    builds them in place: its traced peak stays below one and a half
    results (a product of temporaries reaches two)."""
    s = unit_params.s_plus
    n = random_directors(rng, 20000)
    nn = n[:, :, None] * n[:, None, :]
    tracemalloc.start()
    try:
        q = uniaxial(n, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q, s * (nn - I3 / 3.0))
    assert peak < 1.5 * q.nbytes


def test_projection_recovers_manifold_points(rng, unit_params):
    s = unit_params.s_plus
    n = random_directors(rng, 50)
    q = uniaxial(n, s)
    proj = project_array(q, unit_params)
    assert np.max(np.abs(proj - q)) < 1e-10
    director = projection_frame(q, unit_params)[1][..., :, 0]
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
    proj = project_array(q, unit_params)
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
    # so does a non-finite entry
    q = uniaxial(random_directors(rng, 4), unit_params.s_plus)
    q[1, 0, 2] = q[1, 2, 0] = np.nan
    with pytest.raises(DegenerateSpectrum):
        project_array(q, unit_params)
    # the gap threshold is 0.1 s_+ = 0.15 at unit constants: a traceless
    # spectrum just under it is rejected, one just over it projects
    def top_gap(gap):
        return np.diag([2.0 * gap / 3.0, -gap / 3.0, -gap / 3.0])

    with pytest.raises(DegenerateSpectrum):
        project_array(top_gap(0.99 * 0.15), unit_params)
    proj = project_array(top_gap(1.01 * 0.15), unit_params)
    assert np.allclose(proj, uniaxial(E1, unit_params.s_plus))


def _degenerate_message(fn, q, p):
    """The DegenerateSpectrum message fn(q, p) raises, or None."""
    try:
        fn(q, p)
    except DegenerateSpectrum as exc:
        return str(exc)
    return None


def test_project_array_raises_where_projection_frame_raises(rng, unit_params):
    """project_array reads the top eigenpair without the Jacobi stage on
    prolate blocks, yet raises, with the same message, on exactly the
    inputs where projection_frame raises."""
    p = unit_params

    def top_gap(gap, sign=1.0):
        return sign * np.diag([2.0 * gap / 3.0, -gap / 3.0, -gap / 3.0])

    q = prolate_head_batch(rng, tensor_algebra.CACHE_BLOCK)
    small = 0.1 * q[:200] + qtensor(0.07 * rng.normal(size=(200, 3, 3)))
    cases = [top_gap(0.99 * 0.15), top_gap(1.01 * 0.15), top_gap(0.3, -1.0)]
    raised = 0
    for qi in list(q[:40]) + list(q[-40:]) + list(small) + cases:
        msg = _degenerate_message(projection_frame, qi, p)
        assert _degenerate_message(project_array, qi, p) == msg
        raised += msg is not None
    assert 30 <= raised <= 250
    for batch in (q, q[1:tensor_algebra.CACHE_BLOCK]):
        msg = _degenerate_message(projection_frame, batch, p)
        assert _degenerate_message(project_array, batch, p) == msg


def _assert_projection_is_frame_director(q, p):
    director = projection_frame(q, p)[1][..., :, 0]
    assert np.array_equal(project_array(q, p), uniaxial(director, p.s_plus))


def test_project_array_is_the_projection_frame_director_on_solved_fields(
    sweep_report, monkeypatch
):
    """On the solved default 16^3 Q* and its ladder's Q_L, and on every
    point the 12^3 hedgehog's harmonic solve retracts (defect data next to
    the core), the projection is, bit for bit, the manifold point of
    projection_frame's director."""
    cfg = sweep_report.config
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2)
    _assert_projection_is_frame_director(sweep_report.q_star_result.field.values, p)
    for res in sweep_report.results_by_l.values():
        _assert_projection_is_frame_director(res.field.values, p)

    retracted = []
    retract = solvers.project_array
    monkeypatch.setattr(
        solvers, "project_array", lambda m, p: retracted.append(m) or retract(m, p)
    )
    grid = GridSpec(dims=(12,) * 3, box=((-1.0, 1.0),) * 3)
    res = solvers.solve_harmonic(boundary_hedgehog(grid, p), p, solvers.SolveConfig())
    assert res.converged and len(retracted) >= res.iterations
    for m in retracted:
        _assert_projection_is_frame_director(m, p)


def test_split_examples(rng, unit_params):
    p = unit_params
    s = p.s_plus
    q, n = base_point([0.0, 0.0, 1.0], p)
    # the base point and the identity commute with the base point: purely
    # normal
    for a in (q, I3):
        assert np.max(np.abs(normal_component(a, q, s) - a)) < 1e-12
    # a tangent frame vector is purely tangential
    for t in tangent_basis(n):
        assert np.max(np.abs(normal_component(t, q, s))) < 1e-12


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
        q, n = base_point(n, p)
        z1, z2, z3 = normal_basis(n)
        z = rng.normal() * z1 + rng.normal() * z2 + rng.normal() * z3
        assert np.max(np.abs(normal_component(z, q, s) - z)) < 1e-12
        t1, t2 = tangent_basis(n)
        x = rng.normal() * t1 + rng.normal() * t2
        assert np.max(np.abs(normal_component(x, q, s))) < 1e-12


def test_bases_are_orthogonal_frames(rng, unit_params):
    p = unit_params
    for n in random_directors(rng, 20):
        q, n = base_point(n, p)
        t1, t2 = tangent_basis(n)
        z1, z2, z3 = normal_basis(n)
        vecs = [t1, t2, z1, z2, z3]
        for i, a in enumerate(vecs):
            assert abs(np.trace(a)) < 1e-12
            for b in vecs[i + 1:]:
                assert abs(frobenius(a, b)) < 1e-12
        for t in (t1, t2):
            assert float(tangency_residual(t, q, p.s_plus)) < 1e-12
        for z in (z1, z2, z3):
            assert float(normality_residual(z, q)) < 1e-12
    # a batch of base points gives, point by point, the same frames
    n = random_directors(rng, 64)
    # each tangent direction has norm sqrt(2): scaled, the pair is orthonormal
    c1, c2 = (to_s0(t) / np.sqrt(2.0) for t in tangent_basis(n))
    for c, t in zip((c1, c2), tangent_basis(n)):
        assert np.max(np.abs(np.sqrt(2.0) * from_s0(c) - t)) < 1e-15
        assert np.max(np.abs(dot_s0(c, c) - 1.0)) < 1e-15
    assert np.max(np.abs(dot_s0(c1, c2))) < 1e-15
    frames = tangent_basis(n) + normal_basis(n)
    for i in range(len(n)):
        for fb, fs in zip(frames, tangent_basis(n[i]) + normal_basis(n[i])):
            assert np.array_equal(fb[i], fs)


def test_second_fundamental_form_frame_example(unit_params):
    """At director e1, the frame tangent s(e1 (x) e2 + e2 (x) e1) maps to
    2 s diag(-1, 1, 0)."""
    p = unit_params
    s = p.s_plus
    q, _ = base_point([1.0, 0.0, 0.0], p)
    v1 = s * (np.outer(E1, E2) + np.outer(E2, E1))
    ii = second_fundamental_form(v1, v1, q, s)
    assert np.allclose(ii, 2.0 * s * np.diag([-1.0, 1.0, 0.0]), atol=1e-12)


def test_second_fundamental_form_properties(rng, unit_params):
    p = unit_params
    s = p.s_plus
    n = random_directors(rng, 10)
    q = uniaxial(n, s)
    t1, t2 = tangent_basis(n)
    c = rng.normal(size=(4, 10, 1, 1))
    x = c[0] * t1 + c[1] * t2
    y = c[2] * t1 + c[3] * t2
    ii_xy = second_fundamental_form(x, y, q, s)
    ii_yx = second_fundamental_form(y, x, q, s)
    assert np.max(np.abs(ii_xy - ii_yx)) < 1e-12
    # bilinear and normal-valued
    assert np.max(np.abs(second_fundamental_form(x, np.zeros_like(x), q, s))) == 0.0
    assert np.max(np.abs(comm(ii_xy, q))) < 1e-11


def test_second_fundamental_form_curve_oracle(rng, unit_params):
    """Centered second difference of the projected curve t -> proj(q + t x)
    matches II(x, x)."""
    p = unit_params
    s = p.s_plus
    t = 1e-3
    n = random_directors(rng, 5)
    q = uniaxial(n, s)
    t1, t2 = tangent_basis(n)
    c = rng.normal(size=(2, 5, 1, 1))
    x = c[0] * t1 + c[1] * t2
    x = x / norm(x)[..., None, None]
    qp = project_array(q + t * x, p)
    qm = project_array(q - t * x, p)
    fd = (qp - 2.0 * q + qm) / t**2
    assert np.max(np.abs(second_fundamental_form(x, x, q, s) - fd)) < 1e-4


def test_harmonic_rhs_forms_agree_on_tangents(rng, unit_params):
    p = unit_params
    s = p.s_plus
    for n in random_directors(rng, 20):
        q, n = base_point(n, p)
        t1, t2 = tangent_basis(n)
        grads = np.stack([
            rng.normal() * t1 + rng.normal() * t2,
            rng.normal() * t1 + rng.normal() * t2,
            rng.normal() * t1 + rng.normal() * t2,
        ])
        gsq = grad_squared(grads)
        r2 = harmonic_rhs_array(q, gsq, s, form="ii")
        r3 = harmonic_rhs_array(q, gsq, s, form="iii")
        r4 = harmonic_rhs_array(q, gsq, s, form="iv")
        assert np.max(np.abs(r2 - r4)) < 1e-10
        assert np.max(np.abs(r3 - r4)) < 1e-10
    # zero gradients give zero
    assert np.max(np.abs(harmonic_rhs_array(q, np.zeros((3, 3)), s))) == 0.0
    with pytest.raises(ValueError):
        harmonic_rhs_array(q, np.zeros((3, 3)), s, form="v")


def test_grad_squared_einsum_oracle(rng):
    values = qtensor(rng.normal(size=(9, 8, 7, 3, 3)))
    h = np.array([0.5, 0.25, 0.2])
    for grads in (
        gradient_array(values, h),
        gradient_array(values, h)[:, 1:-1, 1:-1, 1:-1],  # non-contiguous
    ):
        ref = np.einsum("a...ij,a...jk->...ik", grads, grads)
        gsq = grad_squared(grads)
        assert gsq.shape == ref.shape
        assert np.max(np.abs(gsq - ref)) < 1e-12 * np.max(np.abs(ref))


def test_check_identities_valid_and_mutated(rng, unit_params):
    p = unit_params
    s = p.s_plus
    q, n = base_point([0.3, -0.5, 0.8], p)
    t1, t2 = tangent_basis(n)
    z1, z2, z3 = normal_basis(n)
    x = 0.7 * t1 - 0.2 * t2
    y = -1.1 * t1 + 0.4 * t2
    z = 0.5 * z1 + 0.3 * z2 - 0.8 * z3
    res = check_identities(x, y, z, q, p)
    # the whole suite, in the order the identity suite reports it
    assert list(res) == [
        "manifold_membership",
        "projection_idempotent",
        "tangency",
        "normality",
        "split_tangent",
        "split_normal",
        "trace_product",
        "anticomm_product",
        "rank_one_projector",
        "tangent_pair_is_normal",
        "normal_pair_is_normal",
        "mixed_pair_is_tangent",
        "curvature_is_normal",
        "curvature_fd",
        "rhs_forms_ii_iv",
        "rhs_forms_iii_iv",
    ]
    for name, value in res.items():
        assert value < CHECK_TOLERANCES.get(name, 1e-12), name
    # swapping tangent and normal inputs must blow the residuals up
    bad = check_identities(z, z, x, q, p)
    assert max(bad.values()) > 1e-3
    assert bad["curvature_fd"] > 1e2 * CHECK_TOLERANCES["curvature_fd"]

    # over a batch of base points the result is the per-point maximum
    n = random_directors(rng, 64)
    q = uniaxial(n, s)
    t1, t2 = tangent_basis(n)
    z1, z2, z3 = normal_basis(n)
    c = rng.normal(size=(7, 64, 1, 1))
    x = c[0] * t1 + c[1] * t2
    y = c[2] * t1 + c[3] * t2
    z = c[4] * z1 + c[5] * z2 + c[6] * z3
    for args in ((x, y, z), (z, z, x)):
        res = check_identities(*args, q, p)
        singles = [
            check_identities(*(a[i] for a in args), q[i], p)
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
