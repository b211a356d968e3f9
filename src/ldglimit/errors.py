"""Exception types shared across the package."""


class LdglimitError(Exception):
    """Base class for all errors raised by ldglimit."""


class DegenerateSpectrum(LdglimitError):
    """Top eigenvalue gap too small for a well-defined manifold projection."""


class NotOnManifold(LdglimitError):
    """Input expected to lie on the uniaxial manifold does not."""


class GridMismatch(LdglimitError):
    """Fields live on different grids."""


class CenterOnBoundary(LdglimitError):
    """A lattice node coincides with the radial-profile center."""


class NonManifoldBoundary(LdglimitError):
    """Boundary data is not uniaxial with the preferred order parameter."""


class StiffnessFailure(LdglimitError):
    """Monotone line search drove the time step below the underflow floor."""


class IllConditionedT(LdglimitError):
    """Commutator-inversion matrix is too ill-conditioned at some node."""


class DegenerateFit(LdglimitError):
    """Not enough valid ladder points (or zero variance) for a rate fit."""
