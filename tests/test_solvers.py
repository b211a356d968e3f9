"""Gradient-flow solvers: fixed points, Lyapunov monotonicity, boundary
preservation, constraint maintenance, and failure paths."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ldglimit.solvers as solvers
from ldglimit.asymptotics import corrector_a
from ldglimit.config import ExperimentConfig
from ldglimit.errors import (
    DegenerateSpectrum,
    LdglimitError,
    NotOnManifold,
    StiffnessFailure,
)
from ldglimit.fields import (
    GridSpec,
    TensorField,
    boundary_hedgehog,
    boundary_near_constant,
    gradient_array,
    laplacian_array,
    poisson_dirichlet,
)
from ldglimit.geometry import (
    MaterialParams,
    grad_squared,
    harmonic_rhs_array,
    normal_component,
    uniaxial,
)
from ldglimit.solvers import (
    SolveConfig,
    SolveResult,
    solve_harmonic,
    solve_ldg,
)
from ldglimit.tensor_algebra import (
    comm,
    dot_s0,
    norm,
    poly_min,
    qtensor,
    to_s0,
)

from conftest import zeros_field

GRID = GridSpec(dims=(8, 8, 8), box=((0.0, 4.0),) * 3)


def make_params(L=0.1):
    return MaterialParams(1.0, 1.0, 1.0, L=L)


def tilt_field(p, eps=0.2):
    return boundary_near_constant(GRID, p, eps)


def patch_ldg_step(monkeypatch, step):
    """Make step(c) the trial interior of every flow: solve_ldg's retraction,
    the identity on S0 coordinates, gets c = interior + dt * velocity."""
    flow = solvers._monotone_flow

    def patched(*args, **kwargs):
        return flow(*args, **{**kwargs, "retract": step})

    monkeypatch.setattr(solvers, "_monotone_flow", patched)


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
    with pytest.raises(ValueError, match="log_every"):
        SolveConfig(log_every=-3)
    with pytest.raises(ValueError):
        SolveConfig(rel_energy_tol=1.0)
    # a NaN or infinite setting is refused too: with residual_tol NaN no
    # solve could stop on "residual", with inf every solve would at once
    for bad in (dict(residual_tol=np.nan), dict(residual_tol=np.inf),
                dict(max_iters=np.inf), dict(log_every=np.nan)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolveConfig(**bad)


def test_log_every_emits_every_second_accepted_iteration():
    """log_every=2 logs the energy after every second accepted step: one
    iter= line per even iteration, each energy the history's entry there."""
    p = make_params()
    logs = []
    res = solve_ldg(tilt_field(p), p, SolveConfig(log_every=2), log=logs.append)
    accepted = len(res.energy_history) - 1
    assert accepted >= 4
    lines = [dict(kv.split("=") for kv in line.split()) for line in logs]
    assert [int(f["iter"]) for f in lines] == list(range(2, accepted + 1, 2))
    for f in lines:
        assert float(f["energy"]) == res.energy_history[int(f["iter"])]


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
    with pytest.raises(NotOnManifold, match="boundary data"):
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
    assert res.stop_reason != "residual" or res.el_residual <= cfg.residual_tol
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
    # the reported residual is the stop's, on the S0 coordinates the flow
    # ran; the returned matrix field's agrees with it to rounding
    assert res.el_residual == pytest.approx(recomputed, rel=1e-6)


@pytest.mark.parametrize("L, width, stop", [(0.1, 4.0, "residual"),
                                            (0.02, 8.0, "energy")])
def test_solve_ldg_reports_the_residual_its_stop_read(monkeypatch, L, width,
                                                      stop):
    """el_residual is exactly the residual _monotone_flow's stop rule read,
    so the stop is "residual" exactly when el_residual meets residual_tol:
    on an 8^3 tilt solve that stops on the residual and on one (ldg_cold's)
    that stops on the energy at 3.0e-7."""
    flows = []
    flow = solvers._monotone_flow

    def recorded(*args, **kwargs):
        flows.append(flow(*args, **kwargs))
        return flows[-1]

    monkeypatch.setattr(solvers, "_monotone_flow", recorded)
    p = make_params(L)
    cfg = SolveConfig()
    grid = GridSpec(dims=(8, 8, 8), box=((0.0, width),) * 3)
    res = solve_ldg(boundary_near_constant(grid, p, 0.2), p, cfg)
    assert res.stop_reason == stop
    assert res.el_residual == flows[0].el_residual
    assert (res.stop_reason == "residual") == (res.el_residual <= cfg.residual_tol)


def test_reported_residual_is_the_stopping_residual(sweep_report):
    """solve_ldg stops on the residual of the S0 coordinates it flows,
    max sqrt(<g, g>), and reports it as el_residual; recomputed on the S0
    coordinates of the returned matrix field it agrees to rounding on every
    rung of the default sweep (the largest gap at 16^3 is 1.53e-7
    relative, at L = 0.02)."""
    cfg = sweep_report.config
    for L, res in sweep_report.results_by_l.items():
        p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=L)
        c = TensorField(res.field.grid, to_s0(res.field.values))
        g = solvers._ldg_velocity(c, p)
        s0_residual = float(np.sqrt(np.max(dot_s0(g, g))))
        assert res.el_residual == pytest.approx(s0_residual, rel=1e-6), L


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
    gsq = grad_squared(gradient_array(res.field.values, res.field.grid.h))
    r3 = float(np.max(norm(lap - harmonic_rhs_array(res.field.interior, gsq, s, "iii"))))
    r4 = float(np.max(norm(lap - harmonic_rhs_array(res.field.interior, gsq, s, "iv"))))
    # forms iii and iv are mutual transposes: identical max-norm residuals
    assert r3 == pytest.approx(r4, rel=1e-12)


def test_iteration_budgets(ldg_run, harmonic_run):
    """Barzilai-Borwein steps keep both fixtures well inside a budget that
    the L2 flows with a fixed, stability-capped step exceeded (778 LdG and
    238 harmonic iterations).  Counts do not depend on the machine."""
    assert ldg_run[3].iterations <= 150
    assert harmonic_run[3].iterations <= 100


def _derived_stop(res, cfg):
    """The stop perfbench's solve hook (perfbench/child.py) derives from a
    result's iteration count and residual alone."""
    if res.iterations >= cfg.max_iters:
        return "max_iters"
    return "residual" if res.el_residual <= cfg.residual_tol else "energy"


def test_every_outcome_is_its_last_accepted_field(sweep_report, ldg_run,
                                                  harmonic_run):
    """Every solve counts its accepted steps, ends on the last energy of its
    history and reports the stop that its count and the residual of the
    returned field determine."""
    rep = sweep_report
    solves = [(rep.config, rep.q_star_result)]
    solves += [(rep.config, res) for res in rep.results_by_l.values()]
    solves += [(run[2], run[3]) for run in (ldg_run, harmonic_run)]
    for cfg, res in solves:
        assert res.iterations == len(res.energy_history) - 1
        assert res.final_energy == res.energy_history[-1]
        assert res.stop_reason == _derived_stop(res, cfg)


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
    like an energy increase, and its iteration cannot end the flow.  Here
    the step accepted after the rejection does not move (decrement 0), nor
    does the full step after it; were the first counted, the second would
    be the stop's second small decrement."""
    init, p, cfg, reference = harmonic_run
    real_project = solvers.project_array
    calls = []

    def project_degenerate_then_still(values, params):
        calls.append(1)
        if len(calls) == 1:
            raise DegenerateSpectrum("injected")
        if len(calls) <= 3:
            return init.interior.copy()
        return real_project(values, params)

    monkeypatch.setattr(solvers, "project_array", project_degenerate_then_still)
    res = solve_harmonic(init, p, cfg)
    assert res.converged and res.stop_reason == "residual"
    assert res.backtracks >= 1
    assert res.iterations > 2
    assert res.energy_history[2] == res.energy_history[1] == res.energy_history[0]
    assert np.all(np.diff(res.energy_history) <= 0.0)
    assert res.final_energy == pytest.approx(reference.final_energy, rel=1e-9)
    assert np.max(norm(poly_min(res.field.values, p.s_plus))) < 1e-10


def test_single_small_decrement_does_not_stop(monkeypatch, ldg_run):
    """A full step that decreases the energy by at most rel_energy_tol (here
    a step that does not move) is not a stop on its own: BB steps give such
    decrements far from a stationary point."""
    init, p, cfg, reference = ldg_run
    calls = []

    def still_once(c):
        calls.append(1)
        return to_s0(init.interior) if len(calls) == 1 else c

    patch_ldg_step(monkeypatch, still_once)
    res = solve_ldg(init, p, cfg)
    assert res.energy_history[1] == res.energy_history[0]
    assert res.iterations > 2
    assert res.converged and res.stop_reason != "max_iters"
    assert res.final_energy == pytest.approx(reference.final_energy, rel=1e-9)


def test_flat_objective_after_every_backtrack_stops_on_energy():
    """A flow whose first trial is rejected at every iteration and whose
    halved trial leaves the energy unchanged stops on "energy" well before
    max_iters: the step doubles again after every iteration (y = 0, so the
    BB step does not apply), the line search never reaches the dt floor,
    and no full trial step is small."""
    init = zeros_field(GRID)
    trials = []

    def objective(fld):
        trials.append(1)  # the start, then two trials per iteration
        return 2.0 if len(trials) % 2 == 0 else 1.0

    def direction(fld):
        ones = np.ones_like(fld.interior)
        return ones, ones, 1.0

    res = solvers._monotone_flow(
        init, SolveConfig(max_iters=100, dt_safety=1.0), objective=objective,
        direction=direction, retract=lambda c: c, failure="unused", log=None,
    )
    assert res.stop_reason == "energy" and res.iterations < 100
    assert res.backtracks == res.iterations
    assert np.all(res.energy_history == 1.0)


def test_small_step_onto_a_resolved_field_stops_on_residual():
    """A field that meets residual_tol stops on "residual" even when the
    step that reached it is also the energy rule's second small full step:
    both full steps here decrease the energy by at most 2e-15 relative, and
    only the field after the second has a residual under the tolerance."""
    init = zeros_field(GRID)

    def objective(fld):
        return 1.0 - 1e-15 * float(np.max(fld.interior))

    def direction(fld):
        ones = np.ones_like(fld.interior)
        return ones, ones, 1e-8 if np.max(fld.interior) >= 3.0 else 1.0

    res = solvers._monotone_flow(
        init, SolveConfig(dt_safety=1.0), objective=objective,
        direction=direction, retract=lambda c: c, failure="unused", log=None,
    )
    assert res.stop_reason == "residual" and res.converged
    assert res.iterations == 2 and res.backtracks == 0
    assert res.el_residual == 1e-8
    assert res.final_energy == res.energy_history[-1] == 1.0 - 1e-15 * 3.0


def test_floor_after_small_decrement_stops_on_energy(monkeypatch, ldg_run):
    """A line search that halves dt into the floor right after a small
    decrement ends the flow on "energy" with the last accepted field, where
    without that decrement it raises StiffnessFailure."""
    init, p, cfg, _ = ldg_run
    calls = []
    kick = to_s0(50.0 * np.diag([2.0, -1.0, -1.0]) / np.sqrt(6))

    def still_then_exploding(c):
        calls.append(1)
        if len(calls) == 1:
            return to_s0(init.interior)
        return c + kick

    patch_ldg_step(monkeypatch, still_then_exploding)
    res = solve_ldg(init, p, cfg)
    assert res.stop_reason == "energy" and res.converged
    assert res.iterations == 1
    assert len(calls) > 30  # the second iteration halved dt into the floor
    assert res.backtracks == len(calls) - 1
    assert np.array_equal(res.field.values, init.values)
    assert res.final_energy == res.energy_history[0] == res.energy_history[1]


def test_floor_on_rounding_level_increase_stops_on_energy(monkeypatch):
    """A line search that reaches the floor on an increase that rounding
    alone could make stops on "energy" (the energy no longer resolves the
    flow); an O(1) increase raises (test_stiffness_failure_paths)."""
    from ldglimit.bulk import grad_f_bulk

    p = make_params()
    init = tilt_field(p)
    h = init.grid.h
    vel = laplacian_array(init.values, h) - grad_f_bulk(init.interior, p) / p.L
    # every trial lands a hair uphill of the start, whatever dt
    uphill = qtensor(init.interior - 1e-11 * vel)
    patch_ldg_step(monkeypatch, lambda c: to_s0(uphill))
    res = solve_ldg(init, p, SolveConfig())
    assert res.stop_reason == "energy"
    assert res.iterations == 0 and res.backtracks > 30
    assert np.array_equal(res.field.values, init.values)

    def objective(f):
        return 0.5 * solvers.dirichlet_energy(f) + solvers.bulk_energy(f, p) / p.L

    # the patched step is a real increase, at a level rounding can reach
    rise = objective(init.with_interior(uphill)) - objective(init)
    assert 0.0 < rise <= solvers._ROUNDING * objective(init)


def test_harmonic_iterations_flat_in_grid_size():
    """The H1 flow needs a grid-independent number of steps on the
    near-constant boundary (the L2 flow took 40/83/145 iterations and
    20/70/156 backtracks at 8^3/16^3/24^3) and stops on its tangential
    residual."""
    p = make_params()
    for n in (8, 16, 24):
        grid = GridSpec(dims=(n, n, n), box=((0.0, 8.0),) * 3)
        res = solve_harmonic(boundary_near_constant(grid, p, 0.2), p, SolveConfig())
        assert res.stop_reason == "residual"
        assert res.iterations <= 10, n
        # BB steps in the -lap metric: the identity metric backtracks
        assert res.backtracks == 0, n
        q = res.field.interior
        lap = laplacian_array(res.field.values, grid.h)
        tangential = lap - normal_component(lap, q, p.s_plus)
        assert res.el_residual == float(np.max(norm(tangential)))
        assert res.el_residual <= 1e-7


def test_ldg_cold_short_bb_steps_seldom_backtrack():
    """The cold 8^3 L = 0.02 solve on [0, 8]^3 takes short BB steps in the
    split metric, which the line search seldom rejects (the long step
    <s,s>/<s,y> of the L2 flow made 401 trial steps, 210 of them rejected;
    the short L2 step took 144 iterations and 37 backtracks), needs at most
    40 iterations (31 measured; the metric -lap + sigma, which slows smooth
    tangential modes down, took 133-155 over box translations), and still
    meets the cold solve's reference energy and residual."""
    p = make_params(L=0.02)
    grid = GridSpec(dims=(8, 8, 8), box=((0.0, 8.0),) * 3)
    res = solve_ldg(boundary_near_constant(grid, p, 0.2), p, SolveConfig())
    assert res.converged
    assert res.iterations <= 40
    assert res.backtracks <= res.iterations / 2
    assert res.final_energy <= 1.3649148845612968 * (1.0 + 1e-9)
    assert res.el_residual <= 1.1 * 2.538852e-06


def _sigma(p):
    sb = p.b2 * p.s_plus
    return float(np.sqrt(sb * (2.0 * p.a2 + sb / 3.0))) / p.L


def test_split_metric_is_symmetric_positive_definite():
    """On random interior arrays at 8^3, the split P^{-1} of the cold
    L = 0.02 start is symmetric to 1e-13 relative and positive, and it
    differs from (-lap + sigma)^{-1} (the tangential part is unshifted)."""
    p = make_params(L=0.02)
    init = tilt_field(p)
    inverse = solvers._metric_inverse(init, p, _sigma(p))
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(2,) + init.interior.shape[:3] + (5,))
    px, py = inverse(x), inverse(y)
    xy, yx = float(np.sum(x * py)), float(np.sum(px * y))
    scale = np.sqrt(float(np.sum(x * px)) * float(np.sum(y * py)))
    assert abs(xy - yx) <= 1e-13 * scale
    for z, pz in ((x, px), (y, py), (x - y, px - py)):
        assert float(np.sum(z * pz)) > 0.0
    assert np.max(np.abs(px - poisson_dirichlet(x, init.grid.h, _sigma(p)))) > 0.0


def test_degenerate_start_keeps_the_shifted_metric(monkeypatch):
    """A start with an isotropic interior node fails the projection's
    eigen-gap test, so solve_ldg's velocity is (-lap + sigma)^{-1} g bit for
    bit for the whole solve."""
    p = make_params(L=0.02)
    init = tilt_field(p)
    init.values[4, 4, 4] = 0.0
    directions = []
    flow = solvers._monotone_flow

    def recording(*args, **kwargs):
        directions.append(kwargs["direction"])
        return flow(*args, **kwargs)

    monkeypatch.setattr(solvers, "_monotone_flow", recording)
    res = solve_ldg(init, p, SolveConfig(max_iters=3))
    assert res.iterations == 3
    start = TensorField(init.grid, to_s0(init.values))
    for fld in (start, TensorField(init.grid, to_s0(res.field.values))):
        v, g, _ = directions[0](fld)
        assert np.array_equal(v, poisson_dirichlet(g, init.grid.h, _sigma(p)))


def test_harmonic_hedgehog_8_energy_pinned():
    """The 8^3 hedgehog on [-1, 1]^3 reaches the L2 flow's energy (finer
    grids stop at the symmetric hedgehog, a saddle; see CHANGES.md)."""
    p = make_params()
    grid = GridSpec(dims=(8, 8, 8), box=((-1.0, 1.0),) * 3)
    res = solve_harmonic(boundary_hedgehog(grid, p), p, SolveConfig())
    assert res.converged
    assert res.final_energy == pytest.approx(116.08435310621525, rel=1e-12)


def test_harmonic_hedgehog_12_resolves_its_residual():
    """The 12^3 hedgehog on [-1, 1]^3 (the hedgehog ladder's Q*) reaches
    residual 2e-7 in at most 12 iterations with short BB steps in the
    metric -lap (10 measured, at 1.3e-7; the long step took 15 and stopped
    at 5.3e-6), at the long step's energy."""
    p = make_params()
    grid = GridSpec(dims=(12, 12, 12), box=((-1.0, 1.0),) * 3)
    res = solve_harmonic(boundary_hedgehog(grid, p), p, SolveConfig())
    assert res.iterations <= 12
    assert res.el_residual <= 2e-7
    assert res.final_energy == pytest.approx(122.64746008081, rel=1e-11)


def test_harmonic_hedgehog_energy_extrapolates_to_the_continuum():
    """The hedgehog Q* on [-1, 1]^3, solved to its residual at 16^3, 20^3
    and 24^3 (11, 11 and 12 iterations measured), has Dirichlet energies
    whose fit E_0 + c_1 h + c_2 h^2 gives the continuum hedgehog's
    4 s_+^2 int r^-2 = 4 s_+^2 * 6 int int_[-1,1]^2 (1 + u^2 + v^2)^-1 du dv
    = 138.1342 to 0.01 (138.1366 measured; the 24^3 energy is 8.2 short)."""
    energies, hs = [], []
    for n in (16, 20, 24):
        cfg = ExperimentConfig(dims=(n, n, n), boundary="hedgehog", box_lo=-1.0,
                               box_hi=1.0, margin=0.0, rel_energy_tol=1e-30)
        p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=cfg.l_ladder[0])
        grid = cfg.grid()
        res = solve_harmonic(boundary_hedgehog(grid, p), p, cfg)
        assert res.stop_reason == "residual", n
        energies.append(res.final_energy)
        hs.append(float(grid.h[0]))
    e0 = np.linalg.solve(np.vander(hs, 3, increasing=True), energies)[0]
    u, w = np.polynomial.legendre.leggauss(64)
    face = w @ (1.0 / (1.0 + u[:, None] ** 2 + u[None, :] ** 2)) @ w
    continuum = 4.0 * p.s_plus**2 * 6.0 * face
    assert continuum == pytest.approx(138.1342, abs=1e-4)
    assert e0 == pytest.approx(continuum, abs=0.01)


def test_poisson_dirichlet_matches_dense_solve():
    """The DST Poisson solve inverts the 7-point -lap + shift with zero
    Dirichlet data on anisotropic, non-cubic grids, componentwise for any
    trailing shape."""
    h = np.array([0.3, 0.7, 0.45])
    rng = np.random.default_rng(7)

    def second_difference(n, step):
        return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / step**2

    for dims, shift in (((3, 4, 5), 0.0), ((5, 4, 3), 2.5)):
        eye = [np.eye(n) for n in dims]
        dense = (
            np.kron(np.kron(second_difference(dims[0], h[0]), eye[1]), eye[2])
            + np.kron(np.kron(eye[0], second_difference(dims[1], h[1])), eye[2])
            + np.kron(np.kron(eye[0], eye[1]), second_difference(dims[2], h[2]))
            + shift * np.eye(60)
        )
        for trailing in ((), (5,), (3, 3)):
            rhs = rng.normal(size=dims + trailing)
            expected = np.linalg.solve(dense, rhs.reshape(60, -1)).reshape(rhs.shape)
            u = poisson_dirichlet(rhs, h, shift)
            assert u.shape == rhs.shape
            assert np.max(np.abs(u - expected)) <= 1e-12 * np.max(np.abs(expected))
            padded = np.pad(u, ((1, 1),) * 3 + ((0, 0),) * len(trailing))
            lhs = -laplacian_array(padded, h) + shift * u
            assert np.max(np.abs(lhs - rhs)) < 1e-12, (dims, trailing)


def test_poisson_dirichlet_blas_thread_count_independent():
    """The sine-matrix products run on BLAS gemm; on a seeded 32^3 x 3 x 3
    field, large enough for gemm to thread (criterion 10 compares thread
    counts at 16^3 only), 1 and 4 OpenBLAS threads give the same bytes."""
    code = (
        "import sys, numpy as np\n"
        "from ldglimit.fields import poisson_dirichlet\n"
        "rhs = np.random.default_rng(3).normal(size=(32, 32, 32, 3, 3))\n"
        "u = poisson_dirichlet(rhs, np.full(3, 8.0 / 33))\n"
        "sys.stdout.buffer.write(u.tobytes())\n"
    )
    src = str(Path(solvers.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n},
        ).stdout
        for n in ("1", "4")
    ]
    assert len(outs[0]) == 32**3 * 9 * 8
    assert outs[0] == outs[1]


@pytest.mark.parametrize("solve", [solve_ldg, solve_harmonic])
def test_non_finite_start_raises_at_once(monkeypatch, solve):
    """One NaN interior node makes the starting energy NaN; the flow stops
    before its first step instead of halving dt forever or into the floor."""
    p = make_params()
    init = tilt_field(p)
    init.values[3, 4, 5] = np.nan

    def no_step(*args, **kwargs):
        raise AssertionError("the flow tried a step")

    patch_ldg_step(monkeypatch, no_step)
    monkeypatch.setattr(solvers, "project_array", no_step)
    if solve is solve_harmonic:
        # the projected flow first checks its whole start for the manifold,
        # and a NaN node fails that check
        expected = pytest.raises(NotOnManifold, match="initial field")
    else:
        expected = pytest.raises(LdglimitError, match="starting energy is not finite")
    with expected:
        solve(init, p, SolveConfig(max_iters=100))


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
    kick = to_s0(50.0 * np.diag([2.0, -1.0, -1.0]) / np.sqrt(6))
    patch_ldg_step(monkeypatch, lambda c: c + kick)
    with pytest.raises(StiffnessFailure):
        solve_ldg(init, p, cfg)
    monkeypatch.undo()

    # for the projected flow, make the retraction jump to a distant state
    from ldglimit.geometry import project_array as real_project

    def bad_project(values, params):
        q = real_project(values, params)
        flip = uniaxial(np.array([1.0, 0.0, 0.0]), params.s_plus)
        return np.where(
            np.arange(q.shape[0])[:, None, None, None, None] % 2 == 0,
            flip,
            q,
        )

    monkeypatch.setattr(solvers, "project_array", bad_project)
    with pytest.raises(StiffnessFailure):
        solve_harmonic(init, p, cfg)


def test_start_relative_energy_resolves_converged_decrements(sweep_report):
    """At the converged L = 0.02 rung of the default sweep, a step of t = 1e-4
    along the velocity changes the energy by about 1e-16 relative.  The
    difference of two 0.5 * dirichlet_energy + bulk_energy / L evaluations
    is off by more than a factor of 10 there (the bulk density cancels
    against its minimum, times 1/L); the start-relative increment the LdG
    flow measures matches the first-order decrement -t vol |v|^2."""
    L = 0.02
    cfg = sweep_report.config
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=L)
    field = sweep_report.fields_by_l[L]
    start = TensorField(field.grid, to_s0(field.values))
    v = solvers._ldg_velocity(start, p)
    t = 1e-4
    increment = solvers._start_relative_energy(start, v, p)
    change = increment(start.with_interior(start.interior + t * v))
    first_order = -t * field.grid.cell_volume() * float(np.sum(v * v))
    assert abs(change / first_order - 1.0) <= 1e-2


def _sweep_rung_start(sweep_report, L):
    """The default sweep's start of rung L, Q* + L a, and its parameters."""
    cfg = sweep_report.config
    q_star = sweep_report.q_star_result.field
    a = corrector_a(q_star, MaterialParams(cfg.a2, cfg.b2, cfg.c2,
                                           L=cfg.l_ladder[0]))
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=L)
    return q_star.with_interior(q_star.interior + L * a), p, cfg


@pytest.mark.parametrize("case", ["cold", "rung"])
def test_ldg_velocity_runs_once_per_accepted_field(monkeypatch, sweep_report,
                                                   case):
    """solve_ldg evaluates the L2 residual once on its start, for both the
    start-relative energy and the flow's first step, and once on each
    accepted field: iterations + 1 evaluations (32 on the cold 8^3
    L = 0.02 solve, 7 on the default sweep's L = 0.02 rung)."""
    if case == "cold":
        p = make_params(L=0.02)
        grid = GridSpec(dims=(8, 8, 8), box=((0.0, 8.0),) * 3)
        init, cfg = boundary_near_constant(grid, p, 0.2), SolveConfig()
    else:
        init, p, cfg = _sweep_rung_start(sweep_report, 0.02)
    calls = [0]
    original = solvers._ldg_velocity

    def counted(c, params):
        calls[0] += 1
        return original(c, params)

    monkeypatch.setattr(solvers, "_ldg_velocity", counted)
    res = solve_ldg(init, p, cfg)
    assert calls[0] == res.iterations + 1


def test_solve_ldg_memory_on_a_sweep_rung(sweep_report):
    """On the default sweep's L = 0.02 rung start the solve's traced peak
    stays within 11.5 interior matrix-field sizes (10.8 measured; keeping
    the start's velocity and L2 residual for the whole flow measured
    11.9)."""
    init, p, cfg = _sweep_rung_start(sweep_report, 0.02)
    tracemalloc.start()
    try:
        solve_ldg(init, p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.5 * init.interior.nbytes
