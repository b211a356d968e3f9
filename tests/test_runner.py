"""Experiment drivers: the randomized identity suite (with a mutation
check), the corrector study, and the ladder sweep with its artifacts and
determinism."""

from dataclasses import MISSING, fields

import numpy as np
import pytest

from ldglimit import geometry, runner, tensor_algebra
from ldglimit.geometry import MaterialParams, grad_squared, harmonic_rhs_array
from ldglimit.fields import (
    GridSpec,
    format_value,
    gradient_array,
    laplacian_array,
    load_field_csv,
    save_field_csv,
)
from ldglimit.runner import (
    CHECK_TOLERANCES,
    RATE_QUANTITIES,
    SweepReport,
    hedgehog_corrector_exact,
    run_check_geometry,
    run_corrector,
    run_sweep,
)
from ldglimit.cli import main
from ldglimit.errors import CenterOnBoundary
from ldglimit.solvers import SolveResult
from ldglimit.tensor_algebra import I3, norm

from conftest import tiny_config


def test_geometry_suite_passes():
    ok, results = run_check_geometry(seed=0, trials=2000)
    assert ok
    for name, value in results.items():
        assert value <= CHECK_TOLERANCES.get(name, 1e-10), name
    # an empty suite is refused, not passed
    with pytest.raises(ValueError):
        run_check_geometry(seed=0, trials=0)


@pytest.mark.parametrize("tol", [-0.5, float("nan"), float("inf")])
def test_geometry_suite_refuses_bad_tol_before_drawing(monkeypatch, tol):
    """A negative or non-finite tolerance is refused before any trial is
    drawn (NaN would fail every check, inf pass every one)."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew trials before checking tol")

    monkeypatch.setattr(runner.np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        run_check_geometry(seed=0, trials=10, tol=tol)


def test_geometry_suite_logs_each_verdict(capsys):
    """At tol 1e-15, with the CLI's default seed and trials, the verdicts
    are mixed; each check's logged verdict is its residual against its own
    tolerance, in name order, and the CLI prints exactly these lines above
    its summary."""
    tol, lines = 1e-15, []
    ok, results = run_check_geometry(seed=0, trials=10000, tol=tol, log=lines.append)
    assert not ok
    assert lines == [
        f"{name}: max_residual={value:.3e} "
        f"[{'ok' if value <= CHECK_TOLERANCES.get(name, tol) else 'FAIL'}]"
        for name, value in sorted(results.items())
    ]
    passed = {line.split(":")[0] for line in lines if line.endswith("[ok]")}
    assert passed == {"curvature_fd", "normality", "tangency"}
    assert len(lines) - len(passed) == 13
    assert main(["check-geometry", "--tol", "1e-15"]) == 1
    summary = "geometry suite: FAIL (10000 trials, tol 1e-15)"
    assert capsys.readouterr().out.splitlines() == lines + [summary]


def test_geometry_suite_is_deterministic(monkeypatch):
    a = run_check_geometry(seed=3, trials=500)[1]
    b = run_check_geometry(seed=3, trials=500)[1]
    assert a == b
    # the block size the checks run in does not change a bit of the result
    monkeypatch.setattr(tensor_algebra, "CACHE_BLOCK", 7)
    assert run_check_geometry(seed=3, trials=500)[1] == a


def test_geometry_suite_mutation_fails(monkeypatch):
    """Scaling the base points off the manifold must blow up the residuals;
    the suite is capable of failing."""
    good = run_check_geometry(seed=0, trials=500)[1]
    assert max(good.values()) < 1e-3
    with monkeypatch.context() as m:
        m.setattr(
            runner, "uniaxial", lambda n, s: geometry.uniaxial(n, 1.05 * s)
        )
        bad = run_check_geometry(seed=0, trials=500)[1]
    assert max(bad.values()) > 1e-3
    ok, _ = run_check_geometry(seed=0, trials=500, tol=1e-30)
    assert not ok


def test_hedgehog_corrector_exact_amplitude(unit_params):
    grid = GridSpec(dims=(8, 8, 8), box=((-1.0, 1.0),) * 3)
    p = unit_params
    s = p.s_plus
    a = hedgehog_corrector_exact(grid, p)
    coords = grid.coords()[1:-1, 1:-1, 1:-1]
    r2 = np.sum(coords**2, axis=-1)
    nhat = coords / np.sqrt(r2)[..., None]
    expected = (-18.0 * s / ((6.0 * p.a2 + p.b2 * s) * r2))[..., None, None] * (
        nhat[..., :, None] * nhat[..., None, :] - I3 / 3.0
    )
    assert np.max(np.abs(a - expected)) < 1e-13
    # at unit parameters the amplitude is -3.6 / r^2
    amp = -3.6 / r2
    assert np.max(np.abs(norm(a) - np.abs(amp) * np.sqrt(2.0 / 3.0))) < 1e-10
    # with an odd point count a node sits at the center: an error, not NaN
    with pytest.raises(CenterOnBoundary):
        hedgehog_corrector_exact(GridSpec(dims=(5, 5, 5), box=grid.box), p)


def test_run_corrector_hedgehog_mode(unit_params):
    cfg = tiny_config(boundary="hedgehog", box_lo=-1.0, box_hi=1.0,
                      dims=(12, 12, 12))
    rep = run_corrector(cfg)
    assert rep["mode"] == "hedgehog"
    assert rep["nodes"] > 0
    assert np.isfinite(rep["max_err"])
    # the finite-difference corrector tracks the closed form away from the
    # defect: error well below the field's own scale
    assert rep["max_err"] < 0.2 * rep["sup_a"]


def test_run_corrector_checks_exclusion_before_center():
    """On a grid with a node at the center, an exclusion radius that leaves
    no node is the argument error it is on any grid; a usable one reaches
    the center check."""
    cfg = tiny_config(boundary="hedgehog", box_lo=-1.0, box_hi=1.0,
                      dims=(5, 5, 5))
    with pytest.raises(ValueError, match="leaves no interior node"):
        run_corrector(cfg, center_exclusion=100.0)
    with pytest.raises(CenterOnBoundary):
        run_corrector(cfg, center_exclusion=0.3)


@pytest.mark.parametrize("exclusion", [-1.0, float("nan")])
def test_run_corrector_refuses_bad_exclusion_before_any_work(monkeypatch,
                                                              exclusion):
    """A negative or NaN exclusion radius is refused before the distances
    are formed or any field is built (a negative one was accepted, and NaN
    reported that it left no interior node)."""
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking center_exclusion")

    for name in ("center_offsets", "boundary_hedgehog", "run_sweep"):
        monkeypatch.setattr(runner, name, no_work)
    cfg = tiny_config(boundary="hedgehog", box_lo=-1.0, box_hi=1.0,
                      dims=(8, 8, 8))
    with pytest.raises(ValueError, match="center_exclusion must be finite"):
        run_corrector(cfg, center_exclusion=exclusion)


def test_run_corrector_near_constant_mode():
    cfg = tiny_config()
    rep = run_corrector(cfg)
    assert rep["mode"] == "near_constant"
    assert len(rep["ls"]) == len(cfg.l_ladder)
    assert all(np.isfinite(v) for v in rep["a_err_interior"])


def test_run_sweep_rows_fits_and_artifacts(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    report = run_sweep(cfg)
    assert len(report.rows) == len(cfg.l_ladder)
    assert set(report.fits) == set(RATE_QUANTITIES)
    assert set(report.results_by_l) == set(cfg.l_ladder)
    for L, res in report.results_by_l.items():
        assert res.converged
        assert np.all(np.diff(res.energy_history) <= 0.0)
    assert (tmp_path / "out" / "q_star.csv").exists()
    # the written columns, in order
    sweep_csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert sweep_csv[0] == (
        "L,energy,el_residual,iterations,l2_err,h1_err,sup_interior_err,"
        "sup_q,sup_y,sup_z,sup_r_interior,a_err_interior"
    )
    assert len(sweep_csv) == 1 + len(cfg.l_ladder)
    rates_csv = (tmp_path / "out" / "rates.csv").read_text().splitlines()
    assert rates_csv[0] == "quantity,slope,intercept,r_squared"
    assert [line.split(",")[0] for line in rates_csv[1:]] == list(RATE_QUANTITIES)
    # one field per rung, in ladder order, read from the rung's result
    assert list(report.fields_by_l) == list(cfg.l_ladder)
    for i, (L, f) in enumerate(report.fields_by_l.items()):
        assert f is report.results_by_l[L].field
        written = load_field_csv(tmp_path / "out" / f"q_l_{i}.csv")
        assert written.grid == f.grid
        assert np.max(np.abs(written.values - f.values)) < 1e-14


def test_run_solve_harmonic_calls_the_module_solver_once(tmp_path, monkeypatch):
    """solve-harmonic runs whatever runner.solve_harmonic is bound to when it
    is called, once, at the first ladder L, and writes its field."""
    calls = []  # (L, result) per call
    original = runner.solve_harmonic

    def counted(init, p, *args, **kwargs):
        calls.append((p.L, original(init, p, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(runner, "solve_harmonic", counted)
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    res, path = runner.run_solve(cfg, "solve-harmonic")
    assert len(calls) == 1
    assert calls[0][0] == cfg.l_ladder[0] and calls[0][1] is res
    assert path == str(tmp_path / "out" / "q_star.csv")
    save_field_csv(res.field, tmp_path / "expected.csv")
    assert (tmp_path / "expected.csv").read_bytes() == (
        tmp_path / "out" / "q_star.csv"
    ).read_bytes()


def test_run_sweep_deterministic_artifacts(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_sweep(tiny_config(output_dir=str(out1)))
    run_sweep(tiny_config(output_dir=str(out2)))
    for name in ("sweep.csv", "rates.csv", "q_star.csv", "q_l_0.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_sweep_single_l_yields_degenerate_fits():
    logs = []
    cfg = tiny_config(l_ladder=(0.1,))
    report = run_sweep(cfg, log=logs.append, write=False)
    assert all(fit is None for fit in report.fits.values())
    assert any("degenerate" in line for line in logs)


def test_run_sweep_warns_on_rungs_stopped_on_max_iters():
    """A rung that runs out of iterations is named in the log, with the
    residual it stopped at; a sweep whose rungs converge logs no such
    warning."""
    logs = []
    report = run_sweep(tiny_config(dims=(8, 8, 8), max_iters=1), log=logs.append,
                       write=False)
    warned = [line for line in logs if line.startswith("warning: rung")]
    assert warned == [
        f"warning: rung L={format_value(L)} stopped on max_iters "
        f"at residual {res.el_residual:.6e}"
        for L, res in report.results_by_l.items()
    ]
    logs.clear()
    run_sweep(tiny_config(), log=logs.append, write=False)
    assert not any(line.startswith("warning: rung") for line in logs)


def test_run_sweep_warns_when_q_star_stopped_on_max_iters():
    """A limit solve that runs out of iterations is named in the log, with
    its residual, as soon as it returns and before any rung is solved from
    it; a sweep whose solves converge logs no warning."""
    logs = []
    report = run_sweep(tiny_config(dims=(8, 8, 8), max_iters=1), log=logs.append,
                       write=False)
    star = report.q_star_result
    assert star.stop_reason == "max_iters"
    assert logs[0] == (
        f"warning: q_star stopped on max_iters at residual {star.el_residual:.6e}"
    )
    logs.clear()
    run_sweep(tiny_config(), log=logs.append, write=False)
    assert not any(line.startswith("warning:") for line in logs)


@pytest.mark.parametrize("command, stem", [("solve-harmonic", "q_star"),
                                           ("solve-ldg", "q_l")])
def test_run_solve_warns_when_stopped_on_max_iters(tmp_path, command, stem):
    """A solve command that runs out of iterations logs the warning
    run_sweep gives, named by the artifact it writes; a converged solve logs
    no warning."""
    logs = []
    res, _ = runner.run_solve(tiny_config(max_iters=1, output_dir=str(tmp_path)),
                              command, log=logs.append)
    assert res.stop_reason == "max_iters"
    assert logs == [
        f"warning: {stem} stopped on max_iters at residual {res.el_residual:.6e}"
    ]
    logs.clear()
    res, _ = runner.run_solve(tiny_config(output_dir=str(tmp_path)), command,
                              log=logs.append)
    assert res.converged and logs == []


def test_run_sweep_eps_zero_yields_degenerate_fits(tmp_path):
    cfg = tiny_config(eps=0.0, output_dir=str(tmp_path))
    report = run_sweep(cfg)
    # the exact constant solution gives zero errors at every L
    assert all(row["l2_err"] < 1e-12 for row in report.rows)
    assert report.fits["l2_err"] is None
    # a degenerate fit is written as nan
    assert "l2_err,nan,nan,nan" in (tmp_path / "rates.csv").read_text().splitlines()


def test_records_store_what_was_measured(sweep_report):
    """A solve record stores the five things a solve measures and reads its
    iteration count, final energy and verdict off them; a sweep report is
    built whole, with nothing left to fill in later."""
    shapes = {
        SolveResult: ["field", "el_residual", "energy_history",
                      "stop_reason", "backtracks"],
        SweepReport: ["config", "q_star_result", "rows", "fits",
                      "results_by_l"],
    }
    for record, names in shapes.items():
        assert [f.name for f in fields(record)] == names
        assert all(f.default is MISSING and f.default_factory is MISSING
                   for f in fields(record))
    res = sweep_report.q_star_result
    for name in ("iterations", "final_energy", "converged"):
        assert isinstance(getattr(SolveResult, name), property)
        with pytest.raises(AttributeError):
            setattr(res, name, getattr(res, name))
    assert type(res.final_energy) is float
    assert res.converged == (res.stop_reason != "max_iters")


def test_default_sweep_rungs_meet_residual(sweep_report):
    """Every rung of the default sweep stops at an EL residual that the 1/L
    scaling of the corrector diagnostics tolerates (the one-decrement stop
    left 1.8e-6 and 2.0e-6)."""
    for L, res in sweep_report.results_by_l.items():
        assert res.converged
        assert res.el_residual <= 1e-6, L
    star = sweep_report.q_star_result
    assert star.stop_reason == "residual"
    assert star.el_residual <= sweep_report.config.residual_tol


def test_default_sweep_ladder_iteration_counts(sweep_report):
    """The LdG flow in the split metric solves the default ladder in at most
    28 iterations (6/6/6/6 measured from the first step dt_safety; the first
    step dt_safety min(1, (k_min^2 + sigma) L / (bulk Lipschitz bound)) took
    8/7/7/7, the metric -lap + sigma 24/17/14/8 and the L2 flow 58/23/14/12)
    and every rung stops on its residual (two of the -lap + sigma rungs and
    every L2 rung stopped on "energy").  Counts do not depend on the
    machine."""
    results = sweep_report.results_by_l.values()
    assert sum(res.iterations for res in results) <= 28
    assert all(res.stop_reason == "residual" for res in results)


def test_hedgehog_ladder_reaches_the_same_states_in_fewer_iterations():
    """The 12^3 hedgehog ladder on [-1, 1]^3 with margin 0 ends every rung
    at the stationary state the L2 flow reached (its energies to 1e-9) in
    at most 60 iterations (57 measured, 12/13/15/17, with every rung started
    at Q_* + L a; the secant start took 69 and the L2 flow 43/44/34/34)."""
    cfg = tiny_config(boundary="hedgehog", dims=(12, 12, 12), box_lo=-1.0,
                      box_hi=1.0, l_ladder=(0.16, 0.08, 0.04, 0.02),
                      max_iters=50000)
    results = list(run_sweep(cfg, write=False).results_by_l.values())
    energies = [31.8178178895, 36.9250099500, 43.2321638927, 49.1571548134]
    for res, e in zip(results, energies, strict=True):
        assert res.final_energy == pytest.approx(e, rel=1e-9)
    assert sum(res.iterations for res in results) <= 60


def test_run_sweep_passes_log_every_to_every_solve():
    """The config's log_every reaches the limit solve and every rung: the
    sweep log holds one iter= line per log_every accepted steps of each."""
    logs = []
    report = run_sweep(tiny_config(log_every=3), log=logs.append, write=False)
    results = [report.q_star_result, *report.results_by_l.values()]
    expected = sum((len(r.energy_history) - 1) // 3 for r in results)
    assert expected > 0
    assert sum(line.startswith("iter=") for line in logs) == expected


def test_run_sweep_starts_rungs_from_first_order_predictions(monkeypatch):
    """Every rung starts at Q_* + L a, bit for bit, a the closed-form
    corrector at Q_*; the boundary layer of every start is Q_*'s."""
    import ldglimit.runner as runner
    from ldglimit.asymptotics import corrector_a

    starts = []
    real_solve = runner.solve_ldg

    def recording_solve(init, p, cfg, log=None):
        starts.append(init.copy())
        return real_solve(init, p, cfg, log=log)

    monkeypatch.setattr(runner, "solve_ldg", recording_solve)
    cfg = tiny_config()
    report = run_sweep(cfg, write=False)
    q_star = report.q_star_result.field
    ls = cfg.l_ladder
    mask = q_star.boundary_mask()
    a = corrector_a(q_star, MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=ls[0]))
    assert len(starts) == len(ls)
    for start, L in zip(starts, ls):
        assert np.array_equal(start.values[mask], q_star.values[mask])
        assert np.array_equal(start.interior, q_star.interior + L * a)


def test_ladder_rungs_do_not_depend_on_earlier_rungs():
    """A one-rung ladder reproduces that rung of the full ladder bit for
    bit: no state is carried from one rung to the next."""
    full = run_sweep(tiny_config(), write=False).fields_by_l
    for L, field in full.items():
        alone = run_sweep(tiny_config(l_ladder=(L,)), write=False).fields_by_l
        assert np.array_equal(alone[L].values, field.values)


def test_run_sweep_logs_limit_solve():
    """The sweep log carries one line on the limit solve: its stop reason,
    iterations, tangential residual and the O(h^2) consistency residual of
    the centered-gradient harmonic right-hand side."""
    logs = []
    report = run_sweep(tiny_config(), log=logs.append, write=False)
    lines = [line for line in logs if line.startswith("q_star ")]
    assert len(lines) == 1
    fields = dict(kv.split("=") for kv in lines[0].split()[1:])
    star = report.q_star_result
    assert fields["stop"] == star.stop_reason == "residual"
    assert int(fields["iterations"]) == star.iterations
    assert float(fields["residual"]) == float(f"{star.el_residual:.6e}")
    q = report.q_star_result.field
    h = q.grid.h
    rhs = harmonic_rhs_array(
        q.interior,
        grad_squared(gradient_array(q.values, h)),
        MaterialParams(1.0, 1.0, 1.0).s_plus,
    )
    consistency = float(np.max(norm(laplacian_array(q.values, h) - rhs)))
    assert float(fields["rhs_consistency"]) == float(f"{consistency:.6e}")
    # it sits at the O(h^2) floor, far above the stationarity residual
    assert consistency > 100.0 * star.el_residual
