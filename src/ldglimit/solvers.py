"""Gradient-flow minimization: explicit monotone flow for the elastic-plus-
bulk energy over unconstrained traceless fields (in S0 coordinates), and
projected H1 gradient flow for the Dirichlet energy over manifold-valued
fields.

Both solvers run one shared loop that freezes the boundary layer, takes
short Barzilai-Borwein steps in the solver's own metric (first step
dt_safety: in both metrics the linearized flow has unit rate), enforces
energy monotonicity by a halve-on-increase line search, and reports the
discrete Euler-Lagrange residual in max norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bulk import grad_f_bulk
from .errors import (
    DegenerateSpectrum,
    LdglimitError,
    StiffnessFailure,
)
from .fields import (
    TensorField,
    dirichlet_energy,
    bulk_energy,
    format_value,
    laplacian_array,
    poisson_dirichlet,
)
from .geometry import (
    MaterialParams,
    normal_component,
    project_array,
    projection_frame,
    require_on_manifold,
    tangent_basis,
)
from .tensor_algebra import (
    dev_square_s0,
    dot_s0,
    from_s0,
    norm,
    s0_planes,
    to_s0,
)

_DT_FLOOR = 1e-12
_DT_CAP = 1000.0  # largest proposed step, in units of the first step dt_safety
# relative energy change that rounding alone can make (half the digits)
_ROUNDING = float(np.sqrt(np.finfo(float).eps))


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
        # every test here also fails on NaN
        if not (0 < self.max_iters < np.inf and 0 < self.residual_tol < np.inf):
            raise ValueError("max_iters and residual_tol must lie in (0, inf)")
        if not 0.0 < self.rel_energy_tol < 1.0:
            raise ValueError("rel_energy_tol must lie in (0, 1)")
        if not 0 <= self.log_every < np.inf:
            raise ValueError("log_every must lie in [0, inf)")


@dataclass
class SolveResult:
    """What a solve measured; the counts and the verdict are read off it."""

    field: TensorField
    el_residual: float
    energy_history: np.ndarray = field(repr=False)  # start, accepted fields
    stop_reason: str  # "residual", "energy" or "max_iters"
    backtracks: int  # rejected trial steps, each halving dt

    @property
    def iterations(self) -> int:  # accepted steps
        return len(self.energy_history) - 1

    @property
    def final_energy(self) -> float:
        return float(self.energy_history[-1])

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iters"


def _monotone_flow(
    init: TensorField, cfg: SolveConfig, objective, direction, retract,
    failure: str, log,
) -> SolveResult:
    """Explicit flow with short Barzilai-Borwein steps and halve-on-increase
    line search.

    direction(f) returns (velocity, L2 residual, max-norm residual) at the
    interior nodes, the velocity being the L2 residual preconditioned by the
    solver's metric; a step retracts interior + dt * velocity and is
    accepted only if the objective does not increase.  A retraction that
    raises DegenerateSpectrum rejects the trial step like an increase.  The
    first trial step is dt_safety; after it the trial step is the short
    Barzilai-Borwein step <s,y>/<w,y> in the metric (s the interior change,
    y the change of minus the L2 residual, w minus the change of the
    velocity; pairwise numpy sums keep it independent of the BLAS thread
    count), or 2 * dt when <s,y> <= 0 (or <w,y> <= 0, which the projected
    flow's moving tangent spaces allow), capped at _DT_CAP * dt_safety.

    direction runs on the start and on each accepted field, and every stop
    reads the residual of the field it returns: a field whose residual is
    at most residual_tol stops on "residual" whatever other rule fires.
    Otherwise the flow stops after max_iters accepted steps, or on "energy"
    at the second full trial step since the last larger decrement that
    decreases the energy by at most rel_energy_tol (relative).  One such
    step is also what a non-monotone BB step gives far from a stationary
    point, and a step the line search shortened may decrease little for
    that reason alone, so it neither counts nor resets.
    A shortened step that leaves the energy unchanged is counted apart: the
    second since the last larger decrement stops on "energy" too, as the
    next BB step starts large again and the search never reaches the floor.
    A line search that reaches _DT_FLOOR stops on "energy" with the last
    accepted field when the energy no longer resolves the flow: right after
    a small decrement, or when the last trial's increase is at most
    _ROUNDING relative.  Otherwise it raises StiffnessFailure.
    """
    f = init.copy()
    dt = cfg.dt_safety
    dt_max = _DT_CAP * cfg.dt_safety
    e = objective(f)
    if not np.isfinite(e):
        raise LdglimitError(f"starting energy is not finite ({e})")
    history = [e]  # one entry per accepted field, the start's first
    vel, grad, residual = direction(f)  # of the last accepted field
    prev = None  # (interior, L2 residual, velocity) of the previous field
    stop = None  # "energy" once the energy rule or the dt floor ends the flow
    backtracks = 0
    small = False  # the last accepted step decreased the energy by <= tol
    strike = False  # a full trial step did so since the last larger decrement
    flat = False  # a shortened step left the energy unchanged since then

    while (stop is None and not residual <= cfg.residual_tol  # also NaN
           and len(history) <= cfg.max_iters):
        if prev is not None:
            y = prev[1] - grad
            sy = float(np.sum((f.interior - prev[0]) * y))
            wy = float(np.sum((prev[2] - vel) * y))
            dt = min(dt_max, sy / wy if sy > 0.0 and wy > 0.0 else 2.0 * dt)
        prev = (f.interior, grad, vel)
        shortened = False
        while True:
            try:
                trial = retract(f.interior + dt * vel)
            except DegenerateSpectrum:
                e_new = np.inf
            else:
                candidate = f.with_interior(trial)
                e_new = objective(candidate)
            if e_new <= e:
                break
            backtracks += 1
            shortened = True
            dt *= 0.5
            if not dt >= _DT_FLOOR:  # also stops a NaN step
                # the energy no longer resolves the flow after a small
                # decrement, or when this negligible step changes it by
                # rounding only; a larger increase is a jump
                if not (small or e_new - e <= _ROUNDING * abs(e)):
                    raise StiffnessFailure(failure)
                stop = "energy"
                break
        if stop is not None:
            break
        decrement = e - e_new
        f, e = candidate, e_new
        history.append(e)
        vel, grad, residual = direction(f)
        i = len(history) - 1
        if log is not None and cfg.log_every > 0 and i % cfg.log_every == 0:
            log(f"iter={i} energy={format_value(e)} residual={residual:.6e} "
                f"dt={dt:.6e}")
        small = decrement <= cfg.rel_energy_tol * max(abs(e), 1e-300)
        if not small:
            strike = flat = False
        elif not shortened:
            if strike:
                stop = "energy"
            strike = True
        elif decrement == 0.0:
            if flat:
                stop = "energy"
            flat = True

    if residual <= cfg.residual_tol:  # the residual stop wins over the others
        stop = "residual"
    elif stop is None:
        stop = "max_iters"
    return SolveResult(f, residual, np.array(history), stop, backtracks)


def _ldg_velocity(c: TensorField, p: MaterialParams) -> np.ndarray:
    """lap(Q) - (bulk gradient) / L at the interior nodes of an S0-coordinate
    field: the L2 residual (minus the L2 gradient of the energy / L per
    cell volume) that solve_ldg preconditions."""
    g = laplacian_array(c.values, c.grid.h)
    g -= grad_f_bulk(c.interior, p) / p.L
    return g


def _metric_inverse(init: TensorField, p: MaterialParams, sigma: float):
    """g -> P^{-1} g for solve_ldg's metric at the start field init, on
    interior-node arrays of S0 coordinates: P^{-1} = Pi_T (-lap)^{-1} Pi_T
    + Pi_N (-lap + sigma)^{-1} Pi_N, Pi_T x = <x, t1> t1 + <x, t2> t2
    nodewise with t1, t2 the S0 coordinates of tangent_basis at init's
    interior directors, scaled to unit norm, and Pi_N = I - Pi_T.  The two
    are complementary orthogonal projections, so P^{-1} is symmetric
    positive definite.  The map is (-lap + sigma)^{-1} when some interior
    node fails projection_frame's eigen-gap test (a defect core).  Only t1
    and t2 are kept, stored as planes (s0_planes).
    """
    h = init.grid.h
    try:
        n = projection_frame(init.interior, p)[1][..., :, 0]
    except DegenerateSpectrum:
        return lambda g: poisson_dirichlet(g, h, sigma)
    t1, t2 = (s0_planes(to_s0(t) / np.sqrt(2.0)) for t in tangent_basis(n))

    def tangential(x: np.ndarray) -> np.ndarray:
        out = dot_s0(x, t1)[..., None] * t1
        out += dot_s0(x, t2)[..., None] * t2
        return out

    def inverse(g: np.ndarray) -> np.ndarray:
        # w + Pi_T(u - w), w = (-lap + sigma)^{-1} Pi_N g, u = (-lap)^{-1} Pi_T g
        u = tangential(g)
        w = poisson_dirichlet(g - u, h, sigma)
        u = poisson_dirichlet(u, h)
        u -= w
        w += tangential(u)
        return w

    return inverse


def _start_relative_energy(start: TensorField, v0: np.ndarray, p: MaterialParams):
    """increment(c) = E(c) - E(start) for S0-coordinate fields c equal to
    start on the boundary layer, E = 0.5 * dirichlet_energy + bulk_energy / L.

    With d = c - start (zero on the boundary layer), c0 and v0 the
    coordinates and the velocity (_ldg_velocity) at the start's interior
    nodes, and sums over interior nodes:

        E(c) - E(start) = dirichlet_energy(d) / 2 - vol <v0, d>
                          + (vol / L) sum R,
        R = (c2 |c0|^2 - a2) |d|^2 / 2 - b2 <dev_square_s0(d), c0 + d/3>
            + (c2 / 4) (2 <c0, d> + |d|^2)^2,

    the Dirichlet energy being quadratic and R the bulk density's change
    beyond first order (its cubic part expands tr((Q0 + D)^3)).  Every term
    scales with the step, so decrements far below the rounding of E are
    resolved: forming E(c) and subtracting loses them to the cancellation of
    the bulk density against its minimum, times 1/L.  The increment of the
    start itself is exactly 0 and needs no evaluation.
    """
    vol = start.grid.cell_volume()
    c0 = s0_planes(start.interior)
    v0 = s0_planes(v0)
    alpha = 0.5 * (p.c2 * dot_s0(c0, c0) - p.a2)

    def increment(c: TensorField) -> float:
        d = c.values - start.values
        if not d.any():
            return 0.0
        di = s0_planes(d[1:-1, 1:-1, 1:-1])
        dd = dot_s0(di, di)
        u = 2.0 * dot_s0(c0, di) + dd
        cubic = dot_s0(dev_square_s0(di), c0 + di / 3.0)
        bulk = float(np.sum(alpha * dd - p.b2 * cubic + 0.25 * p.c2 * u * u))
        return (
            0.5 * dirichlet_energy(TensorField(c.grid, d))
            - vol * float(np.sum(v0 * di))
            + vol * bulk / p.L
        )

    return increment


def solve_ldg(
    init: TensorField, p: MaterialParams, cfg: SolveConfig, log=None
) -> SolveResult:
    """Explicit monotone gradient flow of the shifted energy divided by L,
    in a metric P split along the manifold's normal and tangent directions
    at the start.

    The flow runs on the S0 coordinates of the field (tensor_algebra.to_s0),
    so a step needs no re-projection, and measures every trial's energy as
    E(start) + _start_relative_energy, E(start) evaluated once on the
    matrix start.  The velocity is P^{-1} g, g = lap(Q) - (bulk gradient) / L
    the L2 residual, with (_metric_inverse)

        P^{-1} = Pi_T (-lap)^{-1} Pi_T + Pi_N (-lap + sigma)^{-1} Pi_N,

    Pi_T the nodewise orthogonal projection onto the tangent space at the
    start's director, Pi_N = I - Pi_T, and sigma = sqrt(lam_b lam_u) / L,
    (lam_u, lam_b) = MaterialParams.normal_stiffness.  The bulk Hessian adds
    about sigma on normal directions and nothing on tangent ones (the
    first-order term's algebraic normal part and linear tangential
    system), so smooth tangential modes are not slowed down as they are by
    -lap + sigma.  A start with a node that fails the projection's eigen-gap
    test (a defect core) keeps P = -lap + sigma for the whole solve.  P is
    fixed, so _monotone_flow's short Barzilai-Borwein steps are steps in it;
    in P the linearized flow has about unit rate, so the first is dt_safety.
    Stationary points satisfy the discrete Euler-Lagrange equation
    L * lap(Q) = bulk gradient.  el_residual is the residual the stop read,
    max sqrt(<g, g>) on the S0 coordinates of the last accepted field.  The
    energy is non-increasing on accepted steps by construction.  The
    returned field is init with the solved interior (init itself when no
    step moved it).
    """
    require_on_manifold(init.values[init.boundary_mask()], p.s_plus,
                        "boundary data")
    lam_u, lam_b = p.normal_stiffness
    sigma = float(np.sqrt(lam_b * lam_u)) / p.L
    start = TensorField(init.grid, to_s0(init.values))
    # shifted energy / L, per unit cell volume kept implicit
    e0 = 0.5 * dirichlet_energy(init) + bulk_energy(init, p) / p.L
    metric_inverse = _metric_inverse(init, p, sigma)

    def direction(fld: TensorField):
        g = _ldg_velocity(fld, p)
        return metric_inverse(g), g, float(np.sqrt(np.max(dot_s0(g, g))))

    # one evaluation of the start gives the increment's v0 and the flow's
    # first direction; the popped list then keeps nothing alive
    first = [direction(start)]
    increment = _start_relative_energy(start, first[0][1], p)
    res = _monotone_flow(
        start, cfg,
        objective=lambda fld: e0 + increment(fld),
        direction=lambda fld: first.pop() if first else direction(fld),
        retract=lambda c: c,  # every coordinate vector is in S0
        failure="time step underflow; bulk term too stiff for this grid",
        log=log,
    )
    # from_s0(to_s0(Q)) rounds, so a solve that never moved returns init
    if np.array_equal(res.field.values, start.values):
        return replace(res, field=init.copy())
    return replace(res, field=init.with_interior(from_s0(res.field.interior)))


def solve_harmonic(
    init: TensorField, p: MaterialParams, cfg: SolveConfig, log=None
) -> SolveResult:
    """Projected H1 gradient flow for the Dirichlet energy over
    manifold-valued fields (Alouges' scheme for harmonic maps).

    The L2 residual g is the tangential part of lap(Q).  The velocity is the
    tangential part of (-lap)^{-1} g (zero Dirichlet data), and a step
    retracts Q + dt * velocity to the manifold at every interior node.  The
    trial steps are _monotone_flow's short Barzilai-Borwein steps in the
    metric -lap; in it the linearized flow has unit rate, so the first is
    dt_safety.  el_residual is max |g|, the stationarity residual of the
    discrete harmonic map.
    """
    s = p.s_plus
    require_on_manifold(init.values, s, "initial field")
    h = init.grid.h

    def direction(fld: TensorField):
        q = fld.interior
        lap = laplacian_array(fld.values, h)
        g = lap - normal_component(lap, q, s)
        v = poisson_dirichlet(g, h)
        return v - normal_component(v, q, s), g, float(np.max(norm(g)))

    return _monotone_flow(
        init, cfg,
        objective=dirichlet_energy,
        direction=direction,
        retract=lambda m: project_array(m, p),
        failure="time step underflow in projected flow",
        log=log,
    )
