"""Gradient-flow solvers: fixed points, Lyapunov monotonicity, boundary
preservation, constraint maintenance, and failure paths."""

import numpy as np
import pytest

import ldglimit.solvers as solvers
from ldglimit.errors import (
    DegenerateSpectrum,
    NonManifoldBoundary,
    NotOnManifold,
    StiffnessFailure,
)
from ldglimit.fields import (
    GridSpec,
    TensorField,
    boundary_near_constant,
    gradient_array,
    laplacian_array,
    zeros_field,
)
from ldglimit.geometry import MaterialParams, harmonic_rhs_array, uniaxial
from ldglimit.solvers import (
    SolveConfig,
    SolveResult,
    bulk_lipschitz_bound,
    solve_harmonic,
    solve_ldg,
)
from ldglimit.tensor_algebra import comm, norm, poly_min, qtensor

GRID = GridSpec(dims=(8, 8, 8), box=((0.0, 4.0),) * 3)


def make_params(L=0.1):
    return MaterialParams(1.0, 1.0, 1.0, L=L)


def tilt_field(p, eps=0.2):
    return boundary_near_constant(GRID, p, eps)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(dt_safety=0.0)
    with pytest.raises(ValueError):
        SolveConfig(dt_safety=1.5)
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(rel_energy_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(rel_energy_tol=1.0)


def test_bulk_lipschitz_bound_positive():
    assert bulk_lipschitz_bound(make_params()) > 0.0


def test_constant_manifold_field_is_fixed_point():
    p = make_params()
    f = zeros_field(GRID)
    f.values[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    cfg = SolveConfig()
    for solver in (solve_ldg, solve_harmonic):
        res = solver(f, p, cfg)
        assert res.converged
        assert res.iterations == 0
        assert res.el_residual <= cfg.residual_tol
        assert np.array_equal(res.field.values, f.values)
        assert res.final_energy == pytest.approx(0.0, abs=1e-12)
        assert len(res.energy_history) == 1


def test_solve_ldg_rejects_off_manifold_boundary():
    p = make_params()
    f = zeros_field(GRID)
    f.values[...] = qtensor(np.diag([0.4, 0.1, -0.5]))
    with pytest.raises(NonManifoldBoundary):
        solve_ldg(f, p, SolveConfig())


def test_solve_harmonic_rejects_off_manifold_interior():
    p = make_params()
    f = tilt_field(p)
    f.interior[...] = f.interior + 0.2 * np.diag([2.0, -1.0, -1.0]) / np.sqrt(6)
    with pytest.raises(NotOnManifold):
        solve_harmonic(f, p, SolveConfig())


@pytest.fixture(scope="module")
def ldg_run():
    p = make_params()
    init = tilt_field(p)
    cfg = SolveConfig(max_iters=20000)
    res = solve_ldg(init, p, cfg)
    return init, p, cfg, res


@pytest.fixture(scope="module")
def harmonic_run():
    p = make_params()
    init = tilt_field(p)
    cfg = SolveConfig(max_iters=20000)
    res = solve_harmonic(init, p, cfg)
    return init, p, cfg, res


def test_solve_ldg_converges_and_is_monotone(ldg_run):
    init, p, cfg, res = ldg_run
    assert isinstance(res, SolveResult)
    assert res.converged
    assert res.stop_reason == "energy"
    assert res.iterations < cfg.max_iters
    hist = res.energy_history
    assert np.all(np.diff(hist) <= 0.0)  # exact Lyapunov property
    assert res.final_energy == hist[-1]


def test_solve_ldg_preserves_boundary_and_trace(ldg_run):
    init, p, cfg, res = ldg_run
    mask = init.boundary_mask()
    assert np.array_equal(res.field.values[mask], init.values[mask])
    assert np.max(np.abs(np.trace(res.field.values, axis1=-2, axis2=-1))) < 1e-13
    sym_defect = res.field.values - np.swapaxes(res.field.values, -1, -2)
    assert np.max(np.abs(sym_defect)) < 1e-13


def test_solve_ldg_maximum_principle(ldg_run):
    init, p, cfg, res = ldg_run
    bound = np.sqrt(2.0 / 3.0) * p.s_plus + 1e-6
    assert float(np.max(norm(res.field.values))) <= bound


def test_solve_ldg_residual_self_consistent(ldg_run):
    init, p, cfg, res = ldg_run
    from ldglimit.bulk import grad_f_bulk

    lap = laplacian_array(res.field.values, res.field.grid.h)
    recomputed = float(
        np.max(norm(lap - grad_f_bulk(res.field.interior, p) / p.L))
    )
    # the reported residual is that of the returned field, also on
    # decrement stops
    assert res.el_residual == recomputed


def test_solve_harmonic_stays_on_manifold(harmonic_run):
    init, p, cfg, res = harmonic_run
    assert res.converged
    assert np.all(np.diff(res.energy_history) <= 0.0)
    assert np.max(norm(poly_min(res.field.values, p.s_plus))) < 1e-10
    mask = init.boundary_mask()
    assert np.array_equal(res.field.values[mask], init.values[mask])


def test_solve_harmonic_laplacian_nearly_commutes(harmonic_run):
    """At a discrete harmonic map the Laplacian is (nearly) normal, i.e. it
    nearly commutes with the field."""
    init, p, cfg, res = harmonic_run
    lap = laplacian_array(res.field.values, res.field.grid.h)
    c = float(np.max(norm(comm(lap, res.field.interior))))
    assert c < 0.05 * max(1.0, float(np.max(norm(lap))))


def test_solve_harmonic_rhs_forms_agree(harmonic_run):
    init, p, cfg, res = harmonic_run
    s = p.s_plus
    lap = laplacian_array(res.field.values, res.field.grid.h)
    grads = gradient_array(res.field.values, res.field.grid.h)
    r3 = float(np.max(norm(lap - harmonic_rhs_array(res.field.interior, grads, s, "iii"))))
    r4 = float(np.max(norm(lap - harmonic_rhs_array(res.field.interior, grads, s, "iv"))))
    # forms iii and iv are mutual transposes: identical max-norm residuals
    assert r3 == pytest.approx(r4, rel=1e-12)


def test_iteration_budgets(ldg_run, harmonic_run):
    """Barzilai-Borwein steps keep both fixtures well inside a budget the
    dt0-capped flow exceeds (778 LdG and 238 harmonic iterations).  Counts
    do not depend on the machine."""
    assert ldg_run[3].iterations <= 150
    assert harmonic_run[3].iterations <= 100


def test_max_iters_stop_is_reported():
    p = make_params()
    init = tilt_field(p)
    res = solve_ldg(init, p, SolveConfig(max_iters=1))
    assert res.stop_reason == "max_iters"
    assert not res.converged
    assert res.iterations == 1
    assert len(res.energy_history) == 2


def test_degenerate_retraction_is_a_rejected_step(monkeypatch, harmonic_run):
    """A trial step whose retraction meets a degenerate spectrum is halved
    like an energy increase, and its iteration cannot end the flow: here the
    step accepted after the rejection does not move, so its decrement is 0."""
    init, p, cfg, reference = harmonic_run
    real_project = solvers.project_array
    calls = []

    def project_once_degenerate(values, params, gap_tol=None):
        calls.append(1)
        if len(calls) == 1:
            raise DegenerateSpectrum("injected")
        if len(calls) == 2:
            return init.interior.copy(), None
        return real_project(values, params, gap_tol=gap_tol)

    monkeypatch.setattr(solvers, "project_array", project_once_degenerate)
    res = solve_harmonic(init, p, cfg)
    assert res.converged and res.stop_reason == "energy"
    assert res.backtracks >= 1
    assert res.iterations > 1
    assert res.energy_history[1] == res.energy_history[0]
    assert np.all(np.diff(res.energy_history) <= 0.0)
    assert res.final_energy == pytest.approx(reference.final_energy, rel=1e-9)
    assert np.max(norm(poly_min(res.field.values, p.s_plus))) < 1e-10


def test_warm_start_reduces_iterations():
    p = make_params(L=0.1)
    cfg = SolveConfig(max_iters=20000)
    cold = solve_ldg(tilt_field(p), p, cfg)
    p2 = make_params(L=0.05)
    warm = solve_ldg(cold.field, p2, cfg)
    cold2 = solve_ldg(tilt_field(p2), p2, cfg)
    assert warm.converged and cold2.converged
    assert warm.iterations <= cold2.iterations


def test_stiffness_failure_paths(monkeypatch):
    p = make_params()
    init = tilt_field(p)
    cfg = SolveConfig(max_iters=10)

    # force every candidate step to increase the energy so the line search
    # halves dt into the floor
    def exploding_qtensor(m):
        return qtensor(m) + 50.0 * np.diag([2.0, -1.0, -1.0]) / np.sqrt(6)

    monkeypatch.setattr(solvers, "qtensor", exploding_qtensor)
    with pytest.raises(StiffnessFailure):
        solve_ldg(init, p, cfg)
    monkeypatch.undo()

    # for the projected flow, make the retraction jump to a distant state
    from ldglimit.geometry import project_array as real_project

    def bad_project(values, params, gap_tol=None):
        q, n = real_project(values, params, gap_tol=gap_tol)
        flip = uniaxial(np.array([1.0, 0.0, 0.0]), params.s_plus)
        return np.where(
            np.arange(q.shape[0])[:, None, None, None, None] % 2 == 0,
            flip,
            q,
        ), n

    monkeypatch.setattr(solvers, "project_array", bad_project)
    with pytest.raises(StiffnessFailure):
        solve_harmonic(init, p, cfg)
