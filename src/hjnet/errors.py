"""Exception types and input checks shared across the package."""

import numpy as np


def finite(name: str, x) -> np.ndarray:
    """x as a float array; ValueError naming ``name`` unless every entry is finite."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, not {x}")
    return arr


def integral(name: str, x) -> np.ndarray:
    """x as an int array; ValueError naming ``name`` unless every entry is an integer."""
    arr = finite(name, x)
    if np.any(arr != np.round(arr)):
        raise ValueError(f"{name} must have integer entries, not {x}")
    return arr.astype(int)


class HJNetError(Exception):
    """Base class for all package-specific errors."""


class DuplicateEdgeId(HJNetError):
    """Two declared edges share the same identifier."""


class DanglingEndpoint(HJNetError):
    """An edge endpoint names a vertex that was not declared."""


class DisconnectedGraph(HJNetError):
    """The base graph is not connected."""


class NonConvexModel(HJNetError):
    """Tabulated Hamiltonian samples violate convexity in the momentum."""


class LevelBelowMinimum(HJNetError):
    """A level-set query below the fiberwise minimum of the Hamiltonian."""


class DomainError(HJNetError, ValueError):
    """Argument outside the domain of a discrete Hamiltonian/Lagrangian."""


class BudgetExceeded(HJNetError):
    """A search exceeded its configured node or enumeration budget."""


class BoxExpansionLimit(HJNetError):
    """The conjugation search box grew past its configured cap."""


class ConvergenceFailure(HJNetError):
    """An iterative oracle failed to converge; carries diagnostics."""


class Unreachable(HJNetError):
    """No lifted path realizes the requested endpoint within the caps."""


class RadiusExhausted(HJNetError):
    """The search ball for the rescaled solution still binds after expansion."""


class NegativeReducedWeight(HJNetError):
    """A Johnson-reweighted crystal arc weight is negative beyond tolerance."""
