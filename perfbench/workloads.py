"""The benchmark's workloads: what each one runs, the inputs its seed makes,
and which traced functions it must call.

Seed policy.  Seed 0 reproduces the default configuration exactly.  Any
other seed translates the box by a multiple of 1/4 (so ``box_hi - box_lo``
stays exactly 8) and, for ``postprocess_48``, also picks the perturbation
field and the identity-suite RNG.  The problem is translation invariant, so
every seed does the same amount of work and run-to-run spread measures the
machine, not the input.  The boundary amplitude ``eps`` stays 0.2: over
[0.15, 0.25] the LdG iteration count changes about 2.5x, which would make
the wall-time spread over seeds larger than any usable regression bound.

This module imports neither numpy nor ldglimit at import time, so the
parent process stays light while it times the workload processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

BOX_WIDTH = 8.0
EPS = 0.2

# The set-up of a sweep or solve-ldg run ends when its boundary field has
# been built.
BOUNDARIES = ("fields.boundary_near_constant", "fields.boundary_hedgehog")

# Every function the traced run wraps, as module.function inside ldglimit.
TRACED = (
    "runner.run_sweep",
    "runner.write_sweep_artifacts",
    "runner.run_check_geometry",
    "runner.run_corrector",
    "solvers.solve_harmonic",
    "solvers.solve_ldg",
    "fields.boundary_near_constant",
    "fields.boundary_hedgehog",
    "fields.save_field_csv",
    "fields.load_field_csv",
    "fields.norms",
    "fields.laplacian_array",
    "fields.gradient_array",
    "fields.edge_grad_squared",
    "fields.dirichlet_energy",
    "fields.bulk_energy",
    "bulk.f_bulk_shifted",
    "bulk.grad_f_bulk",
    "geometry.project_array",
    "geometry.harmonic_rhs_array",
    "geometry.grad_squared",
    "geometry.normal_component",
    "tensor_algebra.eigh_descending",
    "tensor_algebra.qtensor",
    "tensor_algebra.trace3",
    "asymptotics.compute_xyz",
    "asymptotics.rewritten_identity_residual",
    "asymptotics.projection_residual",
    "asymptotics.corrector_a",
    "asymptotics.empirical_corrector",
    "asymptotics.fit_rate",
)

_LDG_KERNELS = (
    "solvers.solve_ldg",
    "fields.boundary_near_constant",
    "fields.save_field_csv",
    "fields.laplacian_array",
    "fields.dirichlet_energy",
    "fields.bulk_energy",
    "bulk.f_bulk_shifted",
    "bulk.grad_f_bulk",
    "tensor_algebra.qtensor",
    "tensor_algebra.trace3",
)

_FIELD_DIAGNOSTICS = (
    "fields.norms",
    "fields.gradient_array",
    "fields.edge_grad_squared",
    "geometry.project_array",
    "geometry.harmonic_rhs_array",
    "geometry.grad_squared",
    "geometry.normal_component",
    "tensor_algebra.eigh_descending",
    "asymptotics.compute_xyz",
    "asymptotics.corrector_a",
    "asymptotics.empirical_corrector",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep", "solve-ldg" or "postprocess"
    dims: tuple[int, int, int]
    expected: tuple[str, ...]  # traced functions that must record calls
    l_ladder: tuple[float, ...] | None = None  # None: the config default
    trials: int = 0  # identity-suite trials (postprocess)
    richardson: tuple[int, ...] = ()  # hedgehog grid sizes (postprocess)


FULL = {
    "sweep_default": Workload(
        "sweep_default", "sweep", (16, 16, 16),
        expected=_LDG_KERNELS + _FIELD_DIAGNOSTICS + (
            "runner.run_sweep",
            "runner.write_sweep_artifacts",
            "solvers.solve_harmonic",
            "asymptotics.fit_rate",
        ),
    ),
    # 8^3 rather than 12^3: the cold solve takes ~12.7k steps at any grid
    # size (the bulk term sets the step), and at 8^3 one solve is ~8 s, so an
    # invocation fits several runs and the fastest one is steady.
    "ldg_cold": Workload("ldg_cold", "solve-ldg", (8, 8, 8), expected=_LDG_KERNELS),
    "postprocess_48": Workload(
        "postprocess_48", "postprocess", (48, 48, 48),
        expected=_FIELD_DIAGNOSTICS + (
            "runner.run_check_geometry",
            "runner.run_corrector",
            "fields.boundary_hedgehog",
            "fields.save_field_csv",
            "fields.load_field_csv",
            "fields.laplacian_array",
            "asymptotics.rewritten_identity_residual",
            "asymptotics.projection_residual",
        ),
        trials=100_000,
        richardson=(24, 48),
    ),
}

# Self-test sizes: same code paths, about a second each.  The Richardson
# pair keeps 24/48 because coarser pairs leave the O(h^2) regime.
TINY = {
    "sweep_default": replace(FULL["sweep_default"], dims=(8, 8, 8)),
    "ldg_cold": replace(FULL["ldg_cold"], dims=(8, 8, 8), l_ladder=(0.16,)),
    "postprocess_48": replace(FULL["postprocess_48"], dims=(12, 12, 12), trials=1000),
}


def box_lo(seed: int) -> float:
    if seed == 0:
        return 0.0
    return random.Random(seed).randint(-16, 16) / 4.0


def config_text(w: Workload, seed: int) -> str:
    """ExperimentConfig key=value text for a sweep or solve-ldg workload."""
    lo = box_lo(seed)
    lines = [
        "dims=" + ",".join(str(d) for d in w.dims),
        f"box_lo={lo!r}",
        f"box_hi={lo + BOX_WIDTH!r}",
        f"eps={EPS!r}",
    ]
    if w.l_ladder is not None:
        lines.append("l_ladder=" + ",".join(repr(v) for v in w.l_ladder))
    return "\n".join(lines) + "\n"


def postprocess_inputs(w: Workload, seed: int):
    """Seeded field pair for postprocess: a near-constant limit field Q_* on
    the manifold and Q_L = Q_* + L * P, where P is a sum of four low sine
    modes times random traceless tensors and vanishes on the boundary.

    Returns (q_star, q_l, params)."""
    import numpy as np

    from ldglimit import fields, geometry, tensor_algebra

    lo = box_lo(seed)
    grid = fields.GridSpec(dims=w.dims, box=((lo, lo + BOX_WIDTH),) * 3)
    p = geometry.MaterialParams(1.0, 1.0, 1.0, L=0.02)
    q_star = fields.boundary_near_constant(grid, p, EPS)
    rng = np.random.default_rng(seed)
    xhat = (grid.coords() - lo) / BOX_WIDTH
    pert = np.zeros(grid.shape + (3, 3))
    for _ in range(4):
        k = rng.integers(1, 4, size=3)
        amp = tensor_algebra.qtensor(0.5 * rng.normal(size=(3, 3)))
        mode = np.prod(np.sin(np.pi * k * xhat), axis=-1)
        pert += mode[..., None, None] * amp
    q_l = fields.TensorField(grid, q_star.values + p.L * pert)
    return q_star, q_l, p
