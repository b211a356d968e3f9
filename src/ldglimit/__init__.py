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

__all__ = ["__version__", *_SUBMODULES]


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
