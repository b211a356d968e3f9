"""High-level experiment drivers: the randomized geometry identity suite,
the L-ladder convergence sweep with rate fits, and the corrector study.

All drivers are deterministic given a seed and write CSV artifacts with
17-significant-digit formatting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    RateFit,
    compute_xyz,
    corrector_a,
    empirical_corrector,
    fit_rate,
)
from .config import ExperimentConfig
from .errors import DegenerateFit
from .fields import (
    GridSpec,
    TensorField,
    boundary_hedgehog,
    boundary_near_constant,
    interior_margin_mask,
    norms,
    save_field_csv,
)
from .geometry import (
    ManifoldPoint,
    MaterialParams,
    check_identities,
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
from .solvers import SolveResult, solve_harmonic, solve_ldg
from .tensor_algebra import I3, comm, norm, poly_min


def geometry_identity_suite(
    seed: int = 0,
    trials: int = 10000,
    p: MaterialParams | None = None,
    s_scale: float = 1.0,
) -> dict[str, float]:
    """Max residuals of the manifold-geometry identities over random trials.

    s_scale != 1 deliberately corrupts the base points (they leave the
    manifold), which must blow up the residuals; used as a mutation check
    that the suite can fail.
    """
    if p is None:
        p = MaterialParams(a2=1.0, b2=1.0, c2=1.0)
    rng = np.random.default_rng(seed)
    s = p.s_plus

    n = rng.normal(size=(trials, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    q = uniaxial(n, s * s_scale)
    base = ManifoldPoint(q=q, director=n)
    t1, t2 = tangent_basis(base)
    z1, z2, z3 = normal_basis_s0(base)

    cx = rng.normal(size=(trials, 2, 1, 1))
    cy = rng.normal(size=(trials, 2, 1, 1))
    cz = rng.normal(size=(trials, 3, 1, 1))
    x = cx[:, 0] * t1 + cx[:, 1] * t2
    y = cy[:, 0] * t1 + cy[:, 1] * t2
    z = cz[:, 0] * z1 + cz[:, 1] * z2 + cz[:, 2] * z3

    out: dict[str, float] = {}
    out["manifold_membership"] = float(np.max(norm(poly_min(q, s))))

    # projection: recovers exact points, and is idempotent on perturbations
    proj, _ = project_array(q + 0.05 * s * (z / norm(z)[..., None, None]), p)
    proj2, _ = project_array(proj, p)
    out["projection_idempotent"] = float(np.max(norm(proj2 - proj)))

    # tangency / normality characterizations
    out["tangency"] = float(np.max(tangency_residual(x, q, s)))
    out["normality"] = float(np.max(normality_residual(z, q)))

    # splitting: tangents have zero normal part, normals are fixed
    out["split_tangent"] = float(np.max(norm(normal_component(x, q, s))))
    out["split_normal"] = float(np.max(norm(normal_component(z, q, s) - z)))

    # algebraic identities for tangent pairs and normal vectors
    out.update(check_identities(x, y, z, base, p))

    # curvature term is normal
    ii = second_fundamental_form(x, y, q, s)
    out["curvature_is_normal"] = float(np.max(norm(comm(ii, q))))

    # closed-form curvature vs centered second difference of the projected
    # curve t -> project(q + t x)
    t = 1e-3
    xhat = x / norm(x)[..., None, None]
    qp, _ = project_array(q + t * xhat, p)
    qm, _ = project_array(q - t * xhat, p)
    ii_fd = (qp - 2.0 * uniaxial(n, s) + qm) / t**2
    ii_xx = second_fundamental_form(xhat, xhat, q, s)
    out["curvature_fd"] = float(np.max(norm(ii_xx - ii_fd)))

    # the harmonic right-hand-side forms coincide for tangential gradients
    grads = np.stack([x, y, np.zeros_like(x)])
    r2 = harmonic_rhs_array(q, grads, s, form="ii")
    r3 = harmonic_rhs_array(q, grads, s, form="iii")
    r4 = harmonic_rhs_array(q, grads, s, form="iv")
    out["rhs_forms_ii_iv"] = float(np.max(norm(r2 - r4)))
    out["rhs_forms_iii_iv"] = float(np.max(norm(r3 - r4)))
    return out


# the curvature oracle carries O(t^2) finite-difference error; everything
# else is pure algebra at rounding level
CHECK_TOLERANCES = {"curvature_fd": 1e-4}


def run_check_geometry(
    seed: int = 0, trials: int = 10000, tol: float = 1e-10
) -> tuple[bool, dict[str, float]]:
    """Run the identity suite and compare every residual against tol
    (per-check overrides in CHECK_TOLERANCES)."""
    results = geometry_identity_suite(seed=seed, trials=trials)
    ok = all(
        v <= CHECK_TOLERANCES.get(name, tol) for name, v in results.items()
    )
    return ok, results


def hedgehog_corrector_exact(grid: GridSpec, p: MaterialParams) -> np.ndarray:
    """Closed-form normal corrector of the radial uniaxial field about the
    box center, at interior nodes: -(18 s / ((6 a2 + b2 s) r^2)) (r^ (x) r^ - I/3)."""
    s = p.s_plus
    center = np.array([(lo + hi) / 2.0 for lo, hi in grid.box])
    rel = grid.coords()[1:-1, 1:-1, 1:-1] - center
    r2 = np.sum(rel**2, axis=-1)
    nhat = rel / np.sqrt(r2)[..., None]
    amp = -18.0 * s / ((6.0 * p.a2 + p.b2 * s) * r2)
    return amp[..., None, None] * (
        nhat[..., :, None] * nhat[..., None, :] - I3 / 3.0
    )


def run_corrector(
    cfg: ExperimentConfig, log=None, center_exclusion: float | None = None
) -> dict:
    """Corrector study.

    hedgehog boundary: evaluates the finite-difference corrector on the exact
    radial field and reports the max deviation from the closed form on nodes
    with distance >= center_exclusion (default 0.25 * box width) from the
    center.

    near_constant boundary: runs the ladder sweep and reports the per-L
    interior deviation of the empirical normal part from the closed-form
    corrector.
    """
    grid = cfg.grid()
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=cfg.l_ladder[0])
    if cfg.boundary == "hedgehog":
        width = cfg.box_hi - cfg.box_lo
        if center_exclusion is None:
            center_exclusion = 0.25 * width
        f = boundary_hedgehog(grid, p)
        a_fd = corrector_a(f, p)
        a_exact = hedgehog_corrector_exact(grid, p)
        center = np.array([(lo + hi) / 2.0 for lo, hi in grid.box])
        rel = grid.coords()[1:-1, 1:-1, 1:-1] - center
        mask = np.linalg.norm(rel, axis=-1) >= center_exclusion
        err = norm(a_fd - a_exact)
        return {
            "mode": "hedgehog",
            "h": float(np.min(grid.h)),
            "max_err": float(np.max(err[mask])),
            "sup_a": float(np.max(norm(a_exact)[mask])),
            "nodes": int(np.count_nonzero(mask)),
        }
    report = run_sweep(cfg, log=log, write=False)
    return {
        "mode": "near_constant",
        "ls": [row["L"] for row in report.rows],
        "a_err_interior": [row["a_err_interior"] for row in report.rows],
    }


SWEEP_COLUMNS = (
    "L",
    "energy",
    "el_residual",
    "iterations",
    "l2_err",
    "h1_err",
    "sup_interior_err",
    "sup_q",
    "sup_y",
    "sup_z",
    "sup_r_interior",
    "a_err_interior",
)

RATE_QUANTITIES = {
    "l2_err": "l2_err",
    "sup_interior_err": "sup_interior_err",
    "sup_y": "sup_y",
    "sup_z": "sup_z",
    "sup_r_interior": "sup_r_interior",
}


@dataclass
class SweepReport:
    config: ExperimentConfig
    q_star: TensorField
    q_star_result: SolveResult
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    fields_by_l: dict = field(default_factory=dict)
    results_by_l: dict = field(default_factory=dict)


def _boundary_field(cfg: ExperimentConfig, grid: GridSpec, p: MaterialParams):
    if cfg.boundary == "hedgehog":
        return boundary_hedgehog(grid, p)
    return boundary_near_constant(grid, p, cfg.eps, pattern=cfg.pattern)


# command -> (solver, index into the L-ladder, output file).  The solver is
# held by name and looked up in this module's namespace when the command
# runs, so a replacement bound there (a wrapper, a test double) is called.
SOLVE_COMMANDS = {
    "solve-harmonic": ("solve_harmonic", 0, "q_star.csv"),
    "solve-ldg": ("solve_ldg", -1, "q_l.csv"),
}


def run_solve(cfg: ExperimentConfig, command: str, log=None):
    """One solve from the configured boundary data at one end of the
    L-ladder; writes the field CSV and returns (result, path)."""
    solver, rung, filename = SOLVE_COMMANDS[command]
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=cfg.l_ladder[rung])
    init = _boundary_field(cfg, cfg.grid(), p)
    solve = globals()[solver]
    res = solve(init, p, cfg.solve_config(), log=log)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, filename)
    save_field_csv(res.field, path)
    return res, path


def run_sweep(cfg: ExperimentConfig, log=None, write: bool = True) -> SweepReport:
    """Solve the harmonic limit once, then descend the L-ladder with warm
    starts; report errors, diagnostics and fitted convergence rates."""
    grid = cfg.grid()
    scfg = cfg.solve_config()
    mask = interior_margin_mask(grid, cfg.margin)

    p0 = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=cfg.l_ladder[0])
    init = _boundary_field(cfg, grid, p0)
    star_res = solve_harmonic(init, p0, scfg, log=log)
    q_star = star_res.field
    a_fd = corrector_a(q_star, p0)

    report = SweepReport(config=cfg, q_star=q_star, q_star_result=star_res)
    current = q_star
    for L in cfg.l_ladder:
        p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=L)
        res = solve_ldg(current, p, scfg, log=log)
        current = res.field
        nm = norms(res.field, q_star, margin=cfg.margin)
        diag = compute_xyz(res.field, p)
        corr = empirical_corrector(res.field, q_star, p)
        row = {
            "L": L,
            "energy": res.final_energy,
            "el_residual": res.el_residual,
            "iterations": res.iterations,
            "l2_err": nm["l2"],
            "h1_err": nm["h1_semi"],
            "sup_interior_err": nm["sup_interior"],
            "sup_q": float(np.max(norm(res.field.values))),
            "sup_y": float(np.max(np.abs(diag.y_field)[mask])),
            "sup_z": float(np.max(norm(diag.z_field)[mask])),
            "sup_r_interior": float(np.max(norm(diag.r_field)[mask])),
            "a_err_interior": float(np.max(norm(corr.a_field - a_fd)[mask])),
        }
        report.rows.append(row)
        report.fields_by_l[L] = res.field
        report.results_by_l[L] = res
        if log is not None:
            log(" ".join(f"{k}={_g(v)}" for k, v in row.items()))

    ls = [row["L"] for row in report.rows]
    for name, col in RATE_QUANTITIES.items():
        try:
            report.fits[name] = fit_rate(ls, [row[col] for row in report.rows])
        except DegenerateFit as exc:
            report.fits[name] = None
            if log is not None:
                log(f"warning: rate fit for {name} degenerate: {exc}")

    if write:
        write_sweep_artifacts(report)
    return report


def _g(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_sweep_artifacts(report: SweepReport) -> None:
    """sweep.csv (one row per ladder point), rates.csv (fitted slopes) and
    one field CSV per ladder point, under the configured output directory."""
    out = report.config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in report.rows:
            fh.write(",".join(_g(row[c]) for c in SWEEP_COLUMNS) + "\n")
    with open(os.path.join(out, "rates.csv"), "w", newline="") as fh:
        fh.write("quantity,slope,intercept,r_squared\n")
        for name, fit in report.fits.items():
            if fit is None:
                fh.write(f"{name},nan,nan,nan\n")
            else:
                fh.write(
                    f"{name},{fit.slope:.17g},{fit.intercept:.17g},"
                    f"{fit.r_squared:.17g}\n"
                )
    save_field_csv(report.q_star, os.path.join(out, "q_star.csv"))
    for i, (L, f) in enumerate(report.fields_by_l.items()):
        save_field_csv(f, os.path.join(out, f"q_l_{i}.csv"))
