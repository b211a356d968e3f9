"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single pass/fail line (bypassing capture) and asserts the
same condition, so the verdicts are visible in any pytest run.  Criteria 4-9
read the default sweep from the session fixture ``sweep_report`` in
conftest.py.
"""

import subprocess
import sys
import time

import numpy as np

from ldglimit.asymptotics import fit_rate, projection_residual, rewritten_identity_residual
from ldglimit.bulk import f_bulk, grad_f_bulk
from ldglimit.config import ExperimentConfig
from ldglimit.fields import GridSpec, boundary_hedgehog
from ldglimit.geometry import MaterialParams
from ldglimit.runner import (
    CHECK_TOLERANCES,
    hedgehog_corrector_exact,
    run_check_geometry,
)
from ldglimit.asymptotics import corrector_a
from ldglimit.tensor_algebra import norm, qtensor

_IN = np.s_[1:-1]


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_geometry_identity_suite(capsys):
    t0 = time.monotonic()
    ok, results = run_check_geometry(seed=0, trials=10000, tol=1e-10)
    elapsed = time.monotonic() - t0
    worst = max(
        (v / CHECK_TOLERANCES.get(k, 1e-10), k) for k, v in results.items()
    )
    passed = ok and elapsed <= 30.0
    report(
        capsys,
        "criterion 1: geometry identity suite (10^4 trials)",
        passed,
        f"worst residual/tol {worst[0]:.2e} on {worst[1]}, {elapsed:.2f}s <= 30s",
    )


def test_criterion_2_bulk_gradient_finite_difference(capsys):
    p = MaterialParams(1.0, 1.0, 1.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        q = qtensor(rng.normal(size=(3, 3)))
        e = qtensor(rng.normal(size=(3, 3)))
        e /= norm(e)
        step = 1e-6
        d_fd = (f_bulk(q + step * e, p) - f_bulk(q - step * e, p)) / (2.0 * step)
        d_an = float(np.sum(grad_f_bulk(q, p) * e))
        worst = max(worst, abs(d_fd - d_an) / max(1.0, abs(d_an)))
    report(
        capsys,
        "criterion 2: bulk gradient vs central differences (10^3 points)",
        worst <= 1e-6,
        f"max relative error {worst:.2e} <= 1e-6",
    )


def test_criterion_3_hedgehog_corrector_richardson(capsys):
    p = MaterialParams(1.0, 1.0, 1.0)
    t0 = time.monotonic()

    def corrector_error(n):
        grid = GridSpec(dims=(n, n, n), box=((-1.0, 1.0),) * 3)
        f = boundary_hedgehog(grid, p)
        a = corrector_a(f, p)
        exact = hedgehog_corrector_exact(grid, p)
        r = np.linalg.norm(grid.coords()[_IN, _IN, _IN], axis=-1)
        mask = r >= 0.5  # 0.25 * box width
        return float(np.max(norm(a - exact)[mask]))

    e24 = corrector_error(24)
    e48 = corrector_error(48)
    ratio = e24 / e48
    elapsed = time.monotonic() - t0
    passed = 3.0 <= ratio <= 5.0 and elapsed <= 120.0
    report(
        capsys,
        "criterion 3: hedgehog corrector O(h^2) Richardson (24^3 vs 48^3)",
        passed,
        f"errors {e24:.3f}/{e48:.3f}, ratio {ratio:.2f} in [3, 5], {elapsed:.1f}s <= 120s",
    )


def test_criterion_4_l2_and_sup_rates(capsys, sweep_report):
    rep = sweep_report
    l2 = rep.fits["l2_err"]
    sup = rep.fits["sup_interior_err"]
    passed = (
        l2 is not None
        and sup is not None
        and 0.8 <= l2.slope <= 1.2
        and l2.r_squared >= 0.98
        and 0.8 <= sup.slope <= 1.3
        and rep.elapsed <= 600.0
    )
    report(
        capsys,
        "criterion 4: error rates over the L-ladder",
        passed,
        f"l2 slope {l2.slope:.3f} (r^2 {l2.r_squared:.4f}), "
        f"sup slope {sup.slope:.3f}, sweep {rep.elapsed:.1f}s <= 600s",
    )


def test_criterion_5_diagnostic_smallness_rates(capsys, sweep_report):
    rep = sweep_report
    fy = rep.fits["sup_y"]
    fz = rep.fits["sup_z"]
    passed = fy is not None and fz is not None and fy.slope >= 0.75 and fz.slope >= 0.75
    report(
        capsys,
        "criterion 5: interior sup of Y_L and Z_L shrink linearly",
        passed,
        f"Y slope {fy.slope:.3f} >= 0.75, Z slope {fz.slope:.3f} >= 0.75",
    )


def test_criterion_6_maximum_norm_bound(capsys, sweep_report):
    rep = sweep_report
    s = MaterialParams(1.0, 1.0, 1.0).s_plus
    bound = np.sqrt(2.0 / 3.0) * s + 1e-6
    worst = max(row["sup_q"] for row in rep.rows)
    report(
        capsys,
        "criterion 6: maximum-norm bound on all converged fields",
        worst <= bound,
        f"max sup|Q| {worst:.9f} <= sqrt(2/3)s_+ + 1e-6 = {bound:.9f}",
    )


def test_criterion_7_remainder_identity(capsys, sweep_report):
    rep = sweep_report
    cfg = rep.config
    l_min = cfg.l_ladder[-1]
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=l_min)
    f = rep.fields_by_l[l_min]
    res = rep.results_by_l[l_min]
    rw = rewritten_identity_residual(f, p)
    h = float(np.min(f.grid.h))
    # nodes at least two layers inside the boundary
    worst = float(np.max(rw[_IN, _IN, _IN]))
    bound = res.el_residual + 10.0 * h**2
    fit = rep.fits["sup_r_interior"]
    passed = worst <= bound and fit is not None and fit.slope >= 0.75
    report(
        capsys,
        "criterion 7: rewritten-equation remainder identity",
        passed,
        f"residual {worst:.3e} <= el_residual + 10h^2 = {bound:.3e}; "
        f"sup|R| slope {fit.slope:.3f} >= 0.75",
    )


def test_criterion_8_projection_beta_independence(capsys, sweep_report):
    rep = sweep_report
    cfg = rep.config
    l_min = cfg.l_ladder[-1]
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=l_min)
    f = rep.fields_by_l[l_min]
    s = p.s_plus
    r1 = projection_residual(f, p, beta=s)
    r2 = projection_residual(f, p, beta=2.0 * s)
    diff = float(np.max(np.abs(r1 - r2)))
    report(
        capsys,
        "criterion 8: projection-equation residual is beta-independent",
        diff <= 1e-9,
        f"max |res(beta=s) - res(beta=2s)| = {diff:.2e} <= 1e-9",
    )


def test_criterion_9_energy_monotonicity(capsys, sweep_report):
    rep = sweep_report
    histories = [rep.q_star_result.energy_history] + [
        rep.results_by_l[L].energy_history for L in rep.config.l_ladder
    ]
    worst = max(float(np.max(np.diff(h))) if len(h) > 1 else 0.0 for h in histories)
    report(
        capsys,
        "criterion 9: solver energy sequences non-increasing (exact)",
        worst <= 0.0,
        f"max energy increment over {len(histories)} runs = {worst:.3e}",
    )


def test_criterion_10_thread_determinism(capsys, tmp_path):
    cfg = ExperimentConfig()
    cfg_path = tmp_path / "run.cfg"
    cfg.save(cfg_path)
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "ldglimit.cli", "--threads", str(threads),
             "sweep", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = ["sweep.csv", "rates.csv", "q_star.csv"] + [
        f"q_l_{i}.csv" for i in range(len(cfg.l_ladder))
    ]
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    report(
        capsys,
        "criterion 10: 1-thread vs 4-thread sweeps byte-identical",
        identical,
        f"{len(names)} artifact files compared",
    )
