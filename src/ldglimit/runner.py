"""High-level experiment drivers: the randomized geometry identity suite,
the L-ladder convergence sweep with rate fits, and the corrector study.

All drivers are deterministic given a seed and write CSV artifacts in
fields.format_value's number format.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, fields

import numpy as np

from . import tensor_algebra
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
    boundary_hedgehog,
    boundary_near_constant,
    center_offsets,
    format_value,
    gradient_array,
    interior_margin_mask,
    laplacian_array,
    norms,
    save_field_csv,
)
from .geometry import (
    MaterialParams,
    check_identities,
    grad_squared,
    harmonic_rhs_array,
    normal_basis,
    tangent_basis,
    uniaxial,
)
from .solvers import SolveResult, solve_harmonic, solve_ldg
from .tensor_algebra import norm

_IN = np.s_[1:-1]


# the curvature oracle carries O(h^2) finite-difference error; everything
# else is pure algebra at rounding level
CHECK_TOLERANCES = {"curvature_fd": 1e-4}


def run_check_geometry(
    seed: int = 0, trials: int = 10000, tol: float = 1e-10, log=None
) -> tuple[bool, dict[str, float]]:
    """Max residuals of the manifold-geometry identities over random trials,
    at unit material constants, each compared against tol (per-check
    overrides in CHECK_TOLERANCES); returns (all passed, residuals).  With
    log, each check's residual and verdict is logged, in name order.

    All random inputs are drawn first, so the results do not depend on
    the block size (tensor_algebra.CACHE_BLOCK) the checks run in.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= tol < np.inf:  # NaN fails
        raise ValueError("tol must be finite and nonnegative")
    p = MaterialParams(a2=1.0, b2=1.0, c2=1.0)
    rng = np.random.default_rng(seed)

    n = rng.normal(size=(trials, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    cx = rng.normal(size=(trials, 2, 1, 1))
    cy = rng.normal(size=(trials, 2, 1, 1))
    cz = rng.normal(size=(trials, 3, 1, 1))

    blocks = []
    for lo in range(0, trials, tensor_algebra.CACHE_BLOCK):
        b = slice(lo, lo + tensor_algebra.CACHE_BLOCK)
        t1, t2 = tangent_basis(n[b])
        z1, z2, z3 = normal_basis(n[b])
        x = cx[b, 0] * t1 + cx[b, 1] * t2
        y = cy[b, 0] * t1 + cy[b, 1] * t2
        z = cz[b, 0] * z1 + cz[b, 1] * z2 + cz[b, 2] * z3
        blocks.append(check_identities(x, y, z, uniaxial(n[b], p.s_plus), p))
    # np.max, unlike max(), keeps a NaN residual
    results = {name: float(np.max([r[name] for r in blocks])) for name in blocks[0]}
    passed = {name: v <= CHECK_TOLERANCES.get(name, tol) for name, v in results.items()}
    if log is not None:
        for name in sorted(results):
            verdict = "ok" if passed[name] else "FAIL"
            log(f"{name}: max_residual={results[name]:.3e} [{verdict}]")
    return all(passed.values()), results


def hedgehog_corrector_exact(grid: GridSpec, p: MaterialParams) -> np.ndarray:
    """Closed-form normal corrector of the hedgehog data Q_hh = s_+ (r^ (x)
    r^ - I/3) about the box center, at interior nodes: -6 / (lam_u r^2) Q_hh
    (MaterialParams.normal_stiffness).  Raises CenterOnBoundary, as
    boundary_hedgehog does, when a node sits at the center."""
    q_hh = boundary_hedgehog(grid, p).interior
    return _radial_corrector(q_hh, center_offsets(grid)[1][_IN, _IN, _IN], p)


def _radial_corrector(q_hh, r2, p: MaterialParams) -> np.ndarray:
    """hedgehog_corrector_exact read off the hedgehog data q_hh at nodes of
    squared center distance r2."""
    return q_hh * (-6.0 / (p.normal_stiffness[0] * r2))[..., None, None]


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
    corrector.  There is no center to exclude.

    Raises ValueError, before any work, when center_exclusion is negative
    or not finite, when it is given in near_constant mode, or when in
    hedgehog mode no interior node lies at distance >= center_exclusion
    from the center.
    """
    if center_exclusion is not None and not 0.0 <= center_exclusion < np.inf:
        raise ValueError("center_exclusion must be finite and nonnegative")
    if cfg.boundary != "hedgehog" and center_exclusion is not None:
        raise ValueError(
            f"center exclusion applies only to the hedgehog boundary, "
            f"not {cfg.boundary}"
        )
    grid = cfg.grid()
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=cfg.l_ladder[0])
    if cfg.boundary == "hedgehog":
        width = cfg.box_hi - cfg.box_lo
        if center_exclusion is None:
            center_exclusion = 0.25 * width
        r2 = center_offsets(grid)[1][_IN, _IN, _IN]
        # before boundary_hedgehog, whose CenterOnBoundary is a domain error
        mask = np.sqrt(r2) >= center_exclusion
        if not mask.any():
            raise ValueError(
                f"center exclusion {center_exclusion:g} leaves no interior node"
            )
        f = boundary_hedgehog(grid, p)
        a_fd = corrector_a(f, p)
        a_exact = _radial_corrector(f.interior, r2, p)
        a_fd -= a_exact
        err = norm(a_fd)
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


# the sweep.csv columns whose convergence rates are fitted, by rates.csv name
RATE_QUANTITIES = {
    col: col
    for col in ("l2_err", "sup_interior_err", "sup_y", "sup_z", "sup_r_interior")
}


@dataclass
class SweepReport:
    config: ExperimentConfig
    q_star_result: SolveResult
    rows: list
    fits: dict
    results_by_l: dict

    @property
    def fields_by_l(self) -> dict:
        """Each ladder L's solved field, in ladder order."""
        return {L: res.field for L, res in self.results_by_l.items()}


def _boundary_field(cfg: ExperimentConfig, grid: GridSpec, p: MaterialParams):
    if cfg.boundary == "hedgehog":
        return boundary_hedgehog(grid, p)
    return boundary_near_constant(grid, p, cfg.eps)


def _require_output_dir(path: str) -> None:
    """Raise OSError unless path is a writable directory or could be made
    under its nearest existing ancestor, a writable directory.  Creates
    nothing, so it can run before the solves whose results go there."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), probe)
    if not os.access(probe, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), probe)


def run_solve(cfg: ExperimentConfig, command: str, log=None):
    """One solve from the configured boundary data at one end of the
    L-ladder; warns, as run_sweep does, when it stopped on max_iters, writes
    the field CSV and returns (result, path).  An output directory that
    cannot be written raises OSError before the solve."""
    _require_output_dir(cfg.output_dir)
    # read at call time, so a wrapper or test double bound here is what runs
    if command == "solve-harmonic":
        solve, L, stem = solve_harmonic, cfg.l_ladder[0], "q_star"
    else:
        solve, L, stem = solve_ldg, cfg.l_ladder[-1], "q_l"
    p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=L)
    res = solve(_boundary_field(cfg, cfg.grid(), p), p, cfg, log=log)
    _warn_max_iters(log, stem, res)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, stem + ".csv")
    save_field_csv(res.field, path)
    return res, path


def _warn_max_iters(log, what: str, res: SolveResult) -> None:
    """Log that the solve of what ran out of iterations, and where."""
    if log is not None and res.stop_reason == "max_iters":
        log(f"warning: {what} stopped on max_iters at residual {res.el_residual:.6e}")


def run_sweep(cfg: ExperimentConfig, log=None, write: bool = True) -> SweepReport:
    """Solve the harmonic limit once, then solve each rung of the L-ladder
    from the first-order expansion Q_* + L a (a the closed-form normal
    corrector), so a rung's field depends only on Q_*, a and its own L;
    report errors, diagnostics and fitted convergence rates.  With write,
    an output directory that cannot be written raises OSError before the
    first solve."""
    if write:
        _require_output_dir(cfg.output_dir)
    grid = cfg.grid()
    mask = interior_margin_mask(grid, cfg.margin)

    p0 = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=cfg.l_ladder[0])
    init = _boundary_field(cfg, grid, p0)
    star_res = solve_harmonic(init, p0, cfg, log=log)
    _warn_max_iters(log, "q_star", star_res)
    q_star = star_res.field
    a_fd = corrector_a(q_star, p0)

    rows, results = [], {}
    for L in cfg.l_ladder:
        p = MaterialParams(cfg.a2, cfg.b2, cfg.c2, L=L)
        guess = q_star.with_interior(q_star.interior + L * a_fd)
        res = solve_ldg(guess, p, cfg, log=log)
        nm = norms(res.field, q_star, margin=cfg.margin)
        diag = compute_xyz(res.field, p)
        corr = empirical_corrector(res.field, q_star, p)
        # the sweep.csv columns, in order
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
        rows.append(row)
        results[L] = res
        if log is not None:
            log(" ".join(f"{k}={format_value(v)}" for k, v in row.items()))
        _warn_max_iters(log, f"rung L={format_value(L)}", res)

    if log is not None:
        # the O(h^2) consistency residual of the centered-gradient harmonic
        # right-hand side, next to the stationarity residual the solve met;
        # computed after the ladder, whose peak memory its temporaries
        # would otherwise raise
        gsq = grad_squared(gradient_array(q_star.values, grid.h))
        rhs = harmonic_rhs_array(q_star.interior, gsq, p0.s_plus)
        lap = laplacian_array(q_star.values, grid.h)
        log(
            f"q_star stop={star_res.stop_reason} "
            f"iterations={star_res.iterations} "
            f"residual={star_res.el_residual:.6e} "
            f"rhs_consistency={float(np.max(norm(lap - rhs))):.6e}"
        )

    fits = {}
    for name, col in RATE_QUANTITIES.items():
        try:
            fits[name] = fit_rate(cfg.l_ladder, [row[col] for row in rows])
        except DegenerateFit as exc:
            fits[name] = None
            if log is not None:
                log(f"warning: rate fit for {name} degenerate: {exc}")

    report = SweepReport(cfg, star_res, rows, fits, results)
    if write:
        write_sweep_artifacts(report)
    return report


def write_sweep_artifacts(report: SweepReport) -> None:
    """sweep.csv (one row per ladder point, its columns in row order),
    rates.csv (fitted slopes) and one field CSV per ladder point, under the
    configured output directory."""
    out = report.config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
        fh.write(",".join(report.rows[0]) + "\n")
        for row in report.rows:
            fh.write(",".join(map(format_value, row.values())) + "\n")
    columns = [c.name for c in fields(RateFit)]
    with open(os.path.join(out, "rates.csv"), "w", newline="") as fh:
        fh.write(",".join(["quantity", *columns]) + "\n")
        for name, fit in report.fits.items():
            values = (getattr(fit, c, float("nan")) for c in columns)  # nan if None
            fh.write(",".join([name, *map(format_value, values)]) + "\n")
    save_field_csv(report.q_star_result.field, os.path.join(out, "q_star.csv"))
    for i, res in enumerate(report.results_by_l.values()):
        save_field_csv(res.field, os.path.join(out, f"q_l_{i}.csv"))
