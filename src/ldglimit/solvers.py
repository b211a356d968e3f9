"""Gradient-flow minimization: explicit monotone flow for the elastic-plus-
bulk energy over unconstrained traceless fields, and projected gradient flow
for the Dirichlet energy over manifold-valued fields.

Both solvers run one shared loop that freezes the boundary layer, proposes
Barzilai-Borwein steps, enforces energy monotonicity by a halve-on-increase
line search, and reports the discrete Euler-Lagrange residual in max norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bulk import grad_f_bulk
from .errors import (
    DegenerateSpectrum,
    NonManifoldBoundary,
    NotOnManifold,
    StiffnessFailure,
)
from .fields import (
    TensorField,
    dirichlet_energy,
    bulk_energy,
    gradient_array,
    laplacian_array,
)
from .geometry import MaterialParams, harmonic_rhs_array, project_array
from .tensor_algebra import norm, poly_min, qtensor

_DT_FLOOR = 1e-12
_DT_CAP = 1000.0  # largest proposed step, in units of the stability step dt0


@dataclass(frozen=True)
class SolveConfig:
    dt_safety: float = 0.9
    max_iters: int = 50000
    rel_energy_tol: float = 1e-13
    residual_tol: float = 1e-7
    log_every: int = 0

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")
        if self.max_iters <= 0 or self.residual_tol <= 0:
            raise ValueError("max_iters and residual_tol must be positive")
        if not 0.0 < self.rel_energy_tol < 1.0:
            raise ValueError("rel_energy_tol must lie in (0, 1)")


@dataclass
class SolveResult:
    field: TensorField
    iterations: int
    final_energy: float
    el_residual: float
    converged: bool
    energy_history: np.ndarray = field(repr=False, default=None)
    stop_reason: str = "max_iters"  # "residual", "energy" or "max_iters"
    backtracks: int = 0  # rejected trial steps, each halving dt


def bulk_lipschitz_bound(p: MaterialParams) -> float:
    """Lipschitz bound for the bulk gradient on the ball |Q| <= sqrt(2/3)s + 0.1."""
    r = np.sqrt(2.0 / 3.0) * p.s_plus + 0.1
    return float(p.a2 + 3.0 * p.b2 * r + 3.0 * p.c2 * r**2)


def _emit(log, cfg: SolveConfig, i: int, e: float, res: float, dt: float) -> None:
    if log is not None and cfg.log_every > 0 and i % cfg.log_every == 0:
        log(f"iter={i} energy={e:.17g} residual={res:.6e} dt={dt:.6e}")


def _boundary_residual(f: TensorField, s_plus: float) -> float:
    mask = f.boundary_mask()
    return float(np.max(norm(poly_min(f.values[mask], s_plus))))


def _bb1_step(s: np.ndarray, y: np.ndarray):
    """Barzilai-Borwein step <s,s>/<s,y>, or None when <s,y> <= 0.  Pairwise
    numpy sums keep it independent of the BLAS thread count."""
    sy = float(np.sum(s * y))
    return float(np.sum(s * s)) / sy if sy > 0.0 else None


def _monotone_flow(
    init: TensorField, cfg: SolveConfig, dt0: float, objective, direction,
    retract, failure: str, log,
) -> SolveResult:
    """Explicit flow with Barzilai-Borwein steps and halve-on-increase line
    search.

    direction(f) returns (velocity at interior nodes, residual); a step
    retracts interior + dt * velocity and is accepted only if the objective
    does not increase.  A retraction that raises DegenerateSpectrum rejects
    the trial step like an increase.  After the first step (dt0) the trial
    step is the BB1 step <s,s>/<s,y> (s the interior change, y the change of
    minus the velocity), or 2 * dt when <s,y> <= 0, capped at _DT_CAP * dt0.
    Stops on the residual or the relative decrement; el_residual is the
    residual of the returned field.
    """
    f = init.copy()
    dt = dt0
    dt_max = _DT_CAP * dt0
    e = objective(f)
    history = [e]
    prev = None  # (interior, velocity) of the previous iterate
    stop = "max_iters"
    backtracks = 0

    for iterations in range(1, cfg.max_iters + 1):
        vel, residual = direction(f)
        if residual <= cfg.residual_tol:
            stop = "residual"
            iterations -= 1
            break
        if prev is not None:
            bb = _bb1_step(f.interior - prev[0], prev[1] - vel)
            dt = min(dt_max, 2.0 * dt if bb is None else bb)
        prev = (f.interior, vel)
        degenerate = False
        while True:
            try:
                trial = retract(f.interior + dt * vel)
            except DegenerateSpectrum:
                degenerate = True
                e_new = np.inf
            else:
                candidate = f.with_interior(trial)
                e_new = objective(candidate)
            if e_new <= e:
                break
            backtracks += 1
            dt *= 0.5
            if dt < _DT_FLOOR:
                raise StiffnessFailure(failure)
        decrement = e - e_new
        f, e = candidate, e_new
        history.append(e)
        _emit(log, cfg, iterations, e, residual, dt)
        # a step shortened past a degenerate spectrum may decrease little
        # without the flow being near a stationary point
        if not degenerate and decrement <= cfg.rel_energy_tol * max(abs(e), 1e-300):
            stop = "energy"
            break

    if stop != "residual":
        _, residual = direction(f)
    return SolveResult(
        field=f,
        iterations=iterations,
        final_energy=e,
        el_residual=residual,
        converged=stop != "max_iters",
        energy_history=np.array(history),
        stop_reason=stop,
        backtracks=backtracks,
    )


def solve_ldg(
    init: TensorField, p: MaterialParams, cfg: SolveConfig, log=None
) -> SolveResult:
    """Explicit monotone gradient flow of the shifted energy divided by L.

    Stationary points satisfy the discrete Euler-Lagrange equation
    L * lap(Q) = bulk gradient.  The recorded energy sequence is
    non-increasing on accepted steps by construction.
    """
    s = p.s_plus
    if _boundary_residual(init, s) > 1e-8 * max(1.0, s**2):
        raise NonManifoldBoundary("boundary data is not on the limit manifold")

    h = init.grid.h
    dt0 = cfg.dt_safety * min(
        float(np.min(h)) ** 2 / 6.0, p.L / bulk_lipschitz_bound(p)
    )

    def objective(fld: TensorField) -> float:
        # shifted energy / L, per unit cell volume kept implicit
        return 0.5 * dirichlet_energy(fld) + bulk_energy(fld, p) / p.L

    def direction(fld: TensorField):
        vel = laplacian_array(fld.values, h) - grad_f_bulk(fld.interior, p) / p.L
        return vel, float(np.max(norm(vel)))

    return _monotone_flow(
        init, cfg, dt0, objective, direction,
        retract=qtensor,
        failure="time step underflow; bulk term too stiff for this grid",
        log=log,
    )


def solve_harmonic(
    init: TensorField, p: MaterialParams, cfg: SolveConfig, log=None
) -> SolveResult:
    """Projected gradient flow for the Dirichlet energy over manifold-valued
    fields: unconstrained diffusion step followed by nearest-point retraction
    at every interior node."""
    s = p.s_plus
    all_res = float(np.max(norm(poly_min(init.values, s))))
    if all_res > 1e-8 * max(1.0, s**2):
        raise NotOnManifold(
            f"initial field leaves the manifold (residual {all_res:.3e})"
        )

    h = init.grid.h
    dt0 = cfg.dt_safety * float(np.min(h)) ** 2 / 6.0

    def direction(fld: TensorField):
        lap = laplacian_array(fld.values, h)
        grads = gradient_array(fld.values, h)
        rhs = harmonic_rhs_array(fld.interior, grads, s, form="iv")
        return lap, float(np.max(norm(lap - rhs)))

    return _monotone_flow(
        init, cfg, dt0,
        objective=dirichlet_energy,
        direction=direction,
        retract=lambda m: project_array(m, p)[0],
        failure="time step underflow in projected flow",
        log=log,
    )
