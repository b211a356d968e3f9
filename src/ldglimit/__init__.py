"""Numerical study of the small-elastic-constant limit of Q-tensor energy
minimizers: solvers for the full and limiting problems, manifold geometry,
asymptotic diagnostics, and reproducible experiment drivers.

The package imports none of its submodules, so the CLI can pin thread
counts before the numerics stack loads.
"""

__version__ = "1.0.0"
