"""Numerical study of the small-elastic-constant limit of Q-tensor energy
minimizers: solvers for the full and limiting problems, manifold geometry,
asymptotic diagnostics, and reproducible experiment drivers.

Submodules are imported lazily so the CLI can pin thread counts before the
numerics stack loads.
"""

__version__ = "1.0.0"

_SUBMODULES = (
    "tensor_algebra",
    "geometry",
    "bulk",
    "fields",
    "solvers",
    "asymptotics",
    "config",
    "runner",
    "cli",
    "errors",
)

_EXPORTS = {
    # errors
    "LdglimitError": "errors",
    "DegenerateSpectrum": "errors",
    "NotOnManifold": "errors",
    "GridMismatch": "errors",
    "CenterOnBoundary": "errors",
    "NonManifoldBoundary": "errors",
    "StiffnessFailure": "errors",
    "IllConditionedT": "errors",
    "DegenerateFit": "errors",
    # core types
    "MaterialParams": "geometry",
    "ManifoldPoint": "geometry",
    "GridSpec": "fields",
    "TensorField": "fields",
    "SolveConfig": "solvers",
    "SolveResult": "solvers",
    "ExperimentConfig": "config",
    # frequently used operations
    "uniaxial": "geometry",
    "second_fundamental_form": "geometry",
    "solve_ldg": "solvers",
    "solve_harmonic": "solvers",
    "boundary_hedgehog": "fields",
    "boundary_near_constant": "fields",
    "save_field_csv": "fields",
    "load_field_csv": "fields",
    "compute_xyz": "asymptotics",
    "corrector_a": "asymptotics",
    "fit_rate": "asymptotics",
    "run_sweep": "runner",
    "run_corrector": "runner",
    "run_check_geometry": "runner",
    "load_config": "config",
}

__all__ = ["__version__", *_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
