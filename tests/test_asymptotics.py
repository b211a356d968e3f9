"""Expansion diagnostics: X/Y/Z fields, the rewritten-equation remainder,
corrector split, projection-equation residual, and rate fitting."""

import tracemalloc

import numpy as np
import pytest

from ldglimit import asymptotics, fields, geometry
from ldglimit.asymptotics import (
    CorrectorFields,
    DiagnosticFields,
    RateFit,
    compute_xyz,
    corrector_a,
    corrector_b_residual,
    empirical_corrector,
    fit_rate,
    projection_residual,
    rewritten_identity_residual,
)
from ldglimit.bulk import grad_f_bulk
from ldglimit.errors import (
    DegenerateFit,
    DegenerateSpectrum,
    GridMismatch,
    IllConditionedT,
    NotOnManifold,
)
from ldglimit.fields import (
    GridSpec,
    TensorField,
    boundary_hedgehog,
    boundary_near_constant,
    edge_grad_squared,
    gradient_array,
    laplacian_array,
    norms,
)
from ldglimit.geometry import (
    MaterialParams,
    grad_squared,
    harmonic_rhs_array,
    normal_basis,
    normal_component,
    normality_residual,
    project_array,
    projection_frame,
    tangency_residual,
    uniaxial,
)
from ldglimit.tensor_algebra import I3, norm, poly_min, qtensor

from conftest import zeros_field

GRID = GridSpec(dims=(10, 10, 10), box=((0.0, 4.0),) * 3)
_IN = np.s_[1:-1]


def make_params(L=0.05):
    return MaterialParams(1.0, 1.0, 1.0, L=L)


def smooth_manifold_field(p, eps=0.3):
    return boundary_near_constant(GRID, p, eps)


def smooth_generic_field(p):
    """Smooth field off the manifold: manifold field plus a smooth bump."""
    f = smooth_manifold_field(p)
    c = GRID.coords()
    bump = (
        np.sin(np.pi * c[..., 0] / 4.0)
        * np.sin(np.pi * c[..., 1] / 4.0)
        * np.sin(np.pi * c[..., 2] / 4.0)
    )
    pert = qtensor(np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, -0.1]]))
    f.values[...] = f.values + 0.05 * bump[..., None, None] * pert
    return f


def test_compute_xyz_zero_on_constant_manifold_field():
    p = make_params()
    f = zeros_field(GRID)
    f.values[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    d = compute_xyz(f, p)
    assert isinstance(d, DiagnosticFields)
    for arr in (d.y_field, d.z_field, d.r_field):
        assert np.max(np.abs(arr)) < 1e-13


def test_x_field_definitional_identity(rng):
    """The rescaled residual X = poly_min(Q) / L that z carries:
    z - (k |grad Q|^2 (c2 Q + b2/3 I) + harmonic RHS) / b2 = X nodewise, for
    arbitrary data."""
    p = make_params()
    s = p.s_plus
    f = TensorField(GRID, qtensor(rng.normal(size=GRID.shape + (3, 3))))
    d = compute_xyz(f, p)
    q = f.interior
    k = 6.0 / (6.0 * p.a2 + p.b2 * s)
    gsq = edge_grad_squared(f.values, GRID.h)
    gn2 = np.trace(gsq, axis1=-2, axis2=-1)[..., None, None]
    x = d.z_field - (
        k * gn2 * (p.c2 * q + (p.b2 / 3.0) * I3) + harmonic_rhs_array(q, gsq, s)
    ) / p.b2
    assert np.max(np.abs(x - poly_min(q, s) / p.L)) < 1e-12


def test_y_field_trace_identity(rng):
    p = make_params()
    f = smooth_generic_field(p)
    d = compute_xyz(f, p)
    k = 6.0 / (6.0 * p.a2 + p.b2 * p.s_plus)
    gn2 = np.trace(edge_grad_squared(f.values, GRID.h), axis1=-2, axis2=-1)
    tr_x = np.trace(poly_min(f.interior, p.s_plus), axis1=-2, axis2=-1) / p.L
    assert np.max(np.abs(d.y_field - (tr_x + k * gn2))) < 1e-12


def test_rewritten_identity_collapses_to_el_residual(rng):
    """The rewritten equation's defect equals the discrete Euler-Lagrange
    residual exactly, for any field, not just solved ones."""
    p = make_params()
    f = smooth_generic_field(p)
    rw = rewritten_identity_residual(f, p)
    lap = laplacian_array(f.values, GRID.h)
    el = norm(lap - grad_f_bulk(f.interior, p) / p.L)
    assert np.max(np.abs(rw - el)) < 1e-10 * (1.0 + float(np.max(el)))


def test_corrector_a_constant_field_and_validation():
    p = make_params()
    f = zeros_field(GRID)
    f.values[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    assert np.max(np.abs(corrector_a(f, p))) < 1e-13
    off = zeros_field(GRID)
    off.values[...] = qtensor(np.diag([0.4, 0.1, -0.5]))
    with pytest.raises(NotOnManifold):
        corrector_a(off, p)
    # one NaN node is off the manifold too; it must not pass as NaN
    # corrector entries
    small = GridSpec(dims=(6, 6, 6), box=((0.0, 3.0),) * 3)
    nan_node = boundary_near_constant(small, p, 0.2)
    nan_node.values[3, 4, 2] = np.nan
    with pytest.raises(NotOnManifold):
        corrector_a(nan_node, p)


def test_corrector_a_hedgehog_closed_form():
    from ldglimit.runner import hedgehog_corrector_exact

    p = make_params()
    grid = GridSpec(dims=(16, 16, 16), box=((-1.0, 1.0),) * 3)
    f = boundary_hedgehog(grid, p)
    a = corrector_a(f, p)
    exact = hedgehog_corrector_exact(grid, p)
    center_rel = grid.coords()[_IN, _IN, _IN] - 0.0
    r = np.linalg.norm(center_rel, axis=-1)
    mask = r >= 0.5
    err = float(np.max(norm(a - exact)[mask]))
    # O(h^2) discretization of a field with sup ~ 14 on the mask
    assert err < 1.5
    # the corrector is normal at the base point: commutes with Q
    from ldglimit.tensor_algebra import comm

    q_in = f.interior
    assert float(np.max(norm(comm(a, q_in))[mask])) < 0.2 * float(np.max(norm(a)[mask]))


MATERIALS = [(1.0, 1.0, 1.0), (0.7, 1.3, 0.9), (2.5, 0.4, 3.1)]


@pytest.mark.parametrize("data", ["default_q_star", "hedgehog_12"])
@pytest.mark.parametrize("material", MATERIALS)
def test_corrector_a_is_inverse_normal_hessian_of_harmonic_rhs(
    sweep_report, data, material
):
    """On smooth data corrector_a is the paper's algebraic relation
    a = H_N^{-1} F, F the harmonic right-hand side (the normal part of
    lap Q*) and H_N^{-1} the inverse bulk Hessian normal to the manifold:
    1/lam_b on the biaxial modes and 1/lam_u on the uniaxial mode Q*/|Q*|.
    The solved default Q* is rescaled to each material's s_+, which keeps
    it a harmonic map on that material's manifold."""
    p = MaterialParams(*material, L=0.05)
    s = p.s_plus
    if data == "default_q_star":
        cfg, q0 = sweep_report.config, sweep_report.q_star_result.field
        s0 = MaterialParams(cfg.a2, cfg.b2, cfg.c2).s_plus
        q_star = TensorField(q0.grid, q0.values * (s / s0))
    else:
        q_star = boundary_hedgehog(GridSpec(dims=(12,) * 3, box=((-1.0, 1.0),) * 3), p)
    q = q_star.interior
    gsq = grad_squared(gradient_array(q_star.values, q_star.grid.h))
    f = harmonic_rhs_array(q, gsq, s)
    lam_u, lam_b = p.normal_stiffness
    fq = np.sum(f * q, axis=(-2, -1))[..., None, None]
    h_inv_f = f / lam_b + (1.0 / lam_u - 1.0 / lam_b) * (1.5 / s**2) * fq * q
    a = corrector_a(q_star, p)
    assert np.max(norm(a - h_inv_f)) <= 1e-12 * np.max(norm(a))


def test_empirical_corrector_recovers_constructed_split(rng):
    p = make_params(L=0.02)
    s = p.s_plus
    q_star = smooth_manifold_field(p)
    # build a perturbation with known normal part
    pert = qtensor(rng.normal(size=GRID.shape + (3, 3)))
    q_l = TensorField(GRID, q_star.values + p.L * pert)
    c = empirical_corrector(q_l, q_star, p)
    assert isinstance(c, CorrectorFields)
    expected_normal = normal_component(pert[_IN, _IN, _IN], q_star.interior, s)
    assert np.max(np.abs(c.a_field - expected_normal)) < 1e-9
    # a is normal and the remainder (Q_L - Q_*)/L - a is tangent
    assert np.max(normality_residual(c.a_field, q_star.interior)) < 1e-9
    tangential = pert[_IN, _IN, _IN] - c.a_field
    assert np.max(tangency_residual(tangential, q_star.interior, s)) < 1e-9
    other = zeros_field(GridSpec(dims=(4, 4, 4)))
    with pytest.raises(GridMismatch):
        empirical_corrector(q_l, other, p)


def test_corrector_b_residual_zero_case_and_shape_guard():
    p = make_params()
    f = zeros_field(GRID)
    f.values[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    shape = f.interior.shape
    res = corrector_b_residual(f, np.zeros(shape), np.zeros(shape), p)
    assert res.shape == tuple(n - 2 for n in shape[:3])
    assert np.max(res) < 1e-13
    with pytest.raises(GridMismatch):
        corrector_b_residual(f, np.zeros((2, 2, 2, 3, 3)), np.zeros(shape), p)


def test_corrector_b_residual_detects_perturbation():
    p = make_params()
    f = zeros_field(GRID)
    f.values[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    shape = f.interior.shape
    b = np.zeros(shape)
    # tangential bump at one inner node
    n = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    t = np.outer(n, u) + np.outer(u, n)
    b[5, 5, 5] = 0.1 * t
    res = corrector_b_residual(f, np.zeros(shape), b, p)
    assert np.max(res) > 1e-3
    assert res[4, 4, 4] > 1e-3  # inner-node indexing is offset by one


def test_projection_residual_on_manifold_matches_harmonic():
    p = make_params()
    s = p.s_plus
    f = smooth_manifold_field(p)
    pres = projection_residual(f, p)
    gsq = grad_squared(gradient_array(f.values, GRID.h))
    href = norm(
        laplacian_array(f.values, GRID.h)
        - harmonic_rhs_array(f.interior, gsq, s, form="ii")
    )
    assert np.max(np.abs(pres - href)) < 1e-10 * (1.0 + float(np.max(href)))


def test_projection_residual_squares_the_gradient_once(monkeypatch):
    """projection_residual hands the squared gradient it forms to the
    harmonic right-hand side instead of squaring the gradients again."""
    p = make_params()
    calls = []
    original = geometry.grad_squared

    def counted(grads):
        calls.append(None)
        return original(grads)

    monkeypatch.setattr(asymptotics, "grad_squared", counted)
    monkeypatch.setattr(geometry, "grad_squared", counted)
    projection_residual(smooth_generic_field(p), p)
    assert len(calls) == 1


def test_projection_residual_beta_independence():
    p = make_params()
    f = smooth_generic_field(p)
    s = p.s_plus
    r1 = projection_residual(f, p, beta=s)
    r2 = projection_residual(f, p, beta=2.0 * s)
    assert np.max(np.abs(r1 - r2)) < 1e-9
    # values of the form that solves T X = P W and X T = W P separately
    assert np.max(r1) == pytest.approx(0.2866953306106434, rel=1e-10)
    assert np.mean(r1) == pytest.approx(0.19508472011734196, rel=1e-10)
    with pytest.raises(ValueError):
        projection_residual(f, p, beta=0.0)


def _projection_residual_oracle(q_l, p, beta):
    """The projection-equation residual with the inversion matrix T built
    explicitly: T X = [P W | (W P)^T] solved densely and cond(T) from
    np.linalg.cond.  Returns (residual, largest cond(T))."""
    s = p.s_plus
    h = q_l.grid.h
    q_sharp = project_array(q_l.values, p)
    n = projection_frame(q_l.values, p)[1][..., :, 0]
    nn = n[..., :, None] * n[..., None, :]
    k_field = (-(3.0 / s) * I3 + (9.0 / (2.0 * s)) * nn) @ q_l.values
    grads_qs = gradient_array(q_sharp, h)
    grads_k = gradient_array(k_field, h)
    qs_in = q_sharp[_IN, _IN, _IN]
    q_in = q_l.interior

    def summed(a, b):
        return np.einsum("a...ij,a...jk->...ik", a, b)

    gsq = summed(grads_qs, grads_qs)
    w = (
        2.0 * summed(grads_qs, grads_k) @ qs_in
        - 2.0 * qs_in @ summed(grads_k, grads_qs)
        - (q_in @ gsq - gsq @ q_in) / s
    )
    tr_k = np.trace(k_field[_IN, _IN, _IN], axis1=-2, axis2=-1)
    t = q_in - (2.0 / 9.0) * s * tr_k[..., None, None] * I3 + beta * (
        qs_in / s + I3 / 3.0
    )
    proj = qs_in / s - (2.0 / 3.0) * I3
    x = np.linalg.solve(
        t, np.concatenate([proj @ w, np.swapaxes(w @ proj, -1, -2)], axis=-1)
    )
    correction = x[..., :3] - np.swapaxes(x[..., 3:], -1, -2)
    rhs = harmonic_rhs_array(qs_in, gsq, s, form="ii") - correction
    lap_qs = laplacian_array(q_sharp, h)
    return norm(lap_qs - rhs), float(np.max(np.linalg.cond(t)))


@pytest.mark.parametrize("field", ["smooth_generic", "perturbed_manifold"])
def test_projection_residual_matches_dense_oracle(monkeypatch, field):
    """The residual from the projection's own eigenframe agrees with the
    dense solve, and its condition check reads the same spectrum."""
    p = make_params()
    s = p.s_plus
    if field == "smooth_generic":
        f = smooth_generic_field(p)
    else:
        f = smooth_manifold_field(p)
        rng = np.random.default_rng(7)
        f.values[...] += 1e-3 * s * qtensor(rng.normal(size=f.values.shape))
    for beta in (s, 2.0 * s):
        ref, cond = _projection_residual_oracle(f, p, beta)
        monkeypatch.setattr(asymptotics, "_COND_LIMIT", cond * (1.0 + 1e-9))
        res = projection_residual(f, p, beta=beta)
        assert np.max(np.abs(res - ref)) <= 1e-12 * np.max(ref)
        monkeypatch.setattr(asymptotics, "_COND_LIMIT", cond * (1.0 - 1e-9))
        with pytest.raises(IllConditionedT):
            projection_residual(f, p, beta=beta)


def test_projection_residual_failure_modes(monkeypatch):
    p = make_params()
    f = smooth_generic_field(p)
    with monkeypatch.context() as m:
        m.setattr(asymptotics, "_COND_LIMIT", 1.0)
        with pytest.raises(IllConditionedT):
            projection_residual(f, p)
    flat = zeros_field(GRID)
    with pytest.raises(DegenerateSpectrum):
        projection_residual(flat, p)


# non-cubic, so a slab mixing up the axes or their lengths shows
SLAB_GRID = GridSpec(dims=(9, 6, 5), box=((0.0, 4.5), (0.0, 3.0), (0.0, 2.5)))


def slab_test_field(p):
    """A manifold field on SLAB_GRID plus a seeded perturbation that differs
    at every node."""
    f = boundary_near_constant(SLAB_GRID, p, 0.3)
    rng = np.random.default_rng(11)
    f.values[...] += 1e-2 * p.s_plus * qtensor(rng.normal(size=f.values.shape))
    return f


def test_projection_residual_slabs_are_bit_identical(monkeypatch):
    """One plane per slab, and two planes per slab with a one-plane last
    slab, give the bits of a single slab."""
    p = make_params()
    f = slab_test_field(p)
    for beta in (p.s_plus, 2.0 * p.s_plus):
        monkeypatch.setattr(fields, "SLAB_NODES", 10**9)
        ref = projection_residual(f, p, beta=beta)
        for block in (1, 2 * 6 * 5):
            monkeypatch.setattr(fields, "SLAB_NODES", block)
            assert np.array_equal(projection_residual(f, p, beta=beta), ref)


def test_projection_residual_names_ill_conditioned_node_in_last_slab(monkeypatch):
    """An inversion matrix over the limit at one node of the last slab is
    named by the node's whole-grid interior index."""
    p = make_params()
    s = p.s_plus
    f = boundary_near_constant(SLAB_GRID, p, 0.3)
    # on the manifold T has eigenvalues (beta, -s, -s), condition 1; moving
    # the lower pair by +-0.3 s raises it to 1.3 / 0.7 at interior (8, 2, 3)
    n = projection_frame(f.values[9, 3, 4], p)[1][:, 0]
    f.values[9, 3, 4] += 0.3 * s * normal_basis(n)[1]
    monkeypatch.setattr(asymptotics, "_COND_LIMIT", 1.5)
    for block in (1, 10**9):
        monkeypatch.setattr(fields, "SLAB_NODES", block)
        with pytest.raises(IllConditionedT, match=r"interior node \(8, 2, 3\)"):
            projection_residual(f, p)


def test_projection_residual_degenerate_in_last_slab(monkeypatch):
    """Zeroed last planes fail the eigen-gap test only in the last slabs,
    after the earlier ones have passed; DegenerateSpectrum is raised."""
    p = make_params()
    f = slab_test_field(p)
    f.values[-2:] = 0.0
    monkeypatch.setattr(fields, "SLAB_NODES", 1)
    with pytest.raises(DegenerateSpectrum):
        projection_residual(f, p)


def test_projection_residual_slab_memory(monkeypatch):
    """On a long grid, one-plane slabs peak below a third of the traced
    memory of a single slab."""
    p = make_params()
    grid = GridSpec(dims=(24, 8, 8), box=((0.0, 12.0), (0.0, 4.0), (0.0, 4.0)))
    f = boundary_near_constant(grid, p, 0.3)
    peaks = []
    for block in (1, 10**9):
        monkeypatch.setattr(fields, "SLAB_NODES", block)
        tracemalloc.start()
        try:
            projection_residual(f, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 3


@pytest.mark.parametrize("block", [1, 2 * 6 * 5, 10**9])
def test_projection_residual_frames_each_lattice_node_once(monkeypatch, block):
    """Whatever the slab size, every lattice node of SLAB_GRID goes through
    projection_frame exactly once: a slab reuses its halo planes' frames."""
    p = make_params()
    rows = []
    original = asymptotics.projection_frame

    def counted(q, params):
        rows.append(q.size // 9)
        return original(q, params)

    monkeypatch.setattr(asymptotics, "projection_frame", counted)
    monkeypatch.setattr(fields, "SLAB_NODES", block)
    projection_residual(slab_test_field(p), p)
    assert sum(rows) == np.prod(SLAB_GRID.shape)


@pytest.mark.parametrize("block", [1, 2 * 6 * 5, 10**9])
def test_rewritten_residual_one_harmonic_rhs_per_slab(monkeypatch, block):
    """The remainder reuses the slab's harmonic right-hand side."""
    p = make_params()
    calls = []
    original = asymptotics.harmonic_rhs_array

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "harmonic_rhs_array", counted)
    monkeypatch.setattr(fields, "SLAB_NODES", block)
    rewritten_identity_residual(slab_test_field(p), p)
    assert len(calls) == len(list(fields.plane_slabs(SLAB_GRID)))


def test_compute_xyz_retains_only_y_and_z():
    """compute_xyz keeps y and z and derives r on access: the result holds
    no third field-sized array."""
    p = make_params()
    q_l = slab_test_field(p)
    tracemalloc.start()
    try:
        d = compute_xyz(q_l, p)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= d.y_field.nbytes + d.z_field.nbytes + 4096


def test_corrector_a_checks_last_slab_halo(monkeypatch):
    """With one-plane slabs, an off-manifold node in the last slab, in its
    last interior plane or in the boundary plane it reads as halo, raises
    NotOnManifold naming the limit field."""
    p = make_params()
    monkeypatch.setattr(fields, "SLAB_NODES", 1)
    for plane in (-2, -1):
        f = boundary_near_constant(SLAB_GRID, p, 0.3)
        off = 0.1 * p.s_plus * qtensor(np.diag([1.0, 0.0, -1.0]))
        f.values[plane, 3, 2] += off
        with pytest.raises(NotOnManifold, match="limit field"):
            corrector_a(f, p)


def test_field_diagnostics_slabs_are_bit_identical(monkeypatch):
    """compute_xyz, rewritten_identity_residual, corrector_a and
    empirical_corrector give the bits of a single slab with one plane per
    slab and with two (the last slab one plane); norms' sup is equal and its
    per-slab sums agree to rounding."""
    p = make_params()
    q_star = boundary_near_constant(SLAB_GRID, p, 0.3)
    q_l = slab_test_field(p)

    def run():
        d = compute_xyz(q_l, p)
        return {
            "y": d.y_field,
            "z": d.z_field,
            "r": d.r_field,
            "rewritten": rewritten_identity_residual(q_l, p),
            "corrector_a": corrector_a(q_star, p),
            "a_field": empirical_corrector(q_l, q_star, p).a_field,
        }, norms(q_l, q_star, margin=0.5)

    monkeypatch.setattr(fields, "SLAB_NODES", 10**9)
    ref, ref_norms = run()
    for block in (1, 2 * 6 * 5):
        monkeypatch.setattr(fields, "SLAB_NODES", block)
        got, got_norms = run()
        for name, arr in ref.items():
            assert np.array_equal(got[name], arr), (block, name)
        assert got_norms["sup_interior"] == ref_norms["sup_interior"]
        for name in ("l2", "h1_semi"):
            assert got_norms[name] == pytest.approx(ref_norms[name], rel=1e-15)


@pytest.mark.parametrize("kernel", ["norms", "compute_xyz"])
def test_field_diagnostics_slab_memory(monkeypatch, kernel):
    """On a long grid, one-plane slabs of norms and compute_xyz peak below a
    third of the traced memory of a single slab."""
    p = make_params()
    grid = GridSpec(dims=(24, 8, 8), box=((0.0, 12.0), (0.0, 4.0), (0.0, 4.0)))
    q_star = boundary_near_constant(grid, p, 0.3)
    q_l = TensorField(grid, q_star.values + 1e-2 * p.s_plus * q_star.values**2)
    if kernel == "norms":
        def call():
            norms(q_l, q_star)
    else:
        def call():
            compute_xyz(q_l, p)
    peaks = []
    for block in (1, 10**9):
        monkeypatch.setattr(fields, "SLAB_NODES", block)
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 3


def test_fit_rate_exact_power_laws():
    ls = [0.16, 0.08, 0.04, 0.02]
    for slope in (1.0, 0.5, 2.0):
        errs = [3.7 * l**slope for l in ls]
        fit = fit_rate(ls, errs)
        assert isinstance(fit, RateFit)
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        fit_rate([0.1, 0.05], [1.0, 0.5])  # too few points
    with pytest.raises(DegenerateFit):
        fit_rate([0.1, 0.05, 0.025], [0.0, 0.0, 0.0])  # all filtered out
    with pytest.raises(DegenerateFit):
        fit_rate([0.1, 0.05, 0.025], [1.0, 0.5])  # shape mismatch
    with pytest.raises(DegenerateFit):
        fit_rate([0.1, 0.1, 0.1], [1.0, 1.0, 1.0])  # zero ladder variance
    with pytest.raises(DegenerateFit):
        fit_rate([0.1, 0.05, 0.025], [2.0, 2.0, 2.0])  # zero error variance
