"""Confocal elliptic coordinates and layered interface geometry.

The coordinate map is

    x1 = R cosh(xi) cos(eta),   x2 = R sinh(xi) sin(eta),

with foci at (+-R, 0).  Curves of constant ``xi`` are confocal ellipses;
``xi`` is dimensionless and ``R`` carries all length units.  A stack of
strictly decreasing elliptic radii xi_1 > ... > xi_N defines the nested
interfaces of an N-layer structure (index 1 is the outermost interface).

All functions accept scalars or numpy arrays and are pure; they are safe
for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

TWO_PI = 2.0 * np.pi


def wrap_angle(eta):
    """Reduce an angular coordinate into [0, 2*pi)."""
    return np.mod(eta, TWO_PI)


def elliptic_to_cartesian(xi, eta, R):
    """Map elliptic coordinates (xi, eta) to Cartesian (x1, x2).

    Parameters
    ----------
    xi : float or ndarray
        Elliptic radius, >= 0.  xi = 0 is the focal segment.
    eta : float or ndarray
        Angular coordinate.
    R : float
        Focal half-distance, > 0.

    Returns
    -------
    (x1, x2) : tuple of float or ndarray
    """
    if R <= 0:
        raise GeometryError(f"focal half-distance must be positive, got R={R}")
    return R * np.cosh(xi) * np.cos(eta), R * np.sinh(xi) * np.sin(eta)


def cartesian_to_elliptic(x1, x2, R):
    """Invert the coordinate map, returning (xi, eta) with xi >= 0, eta in [0, 2*pi).

    The branch is the principal inverse of cosh applied to the complexified
    map (x1 + i*x2)/R.  Points on the focal segment (|x1| <= R, x2 = 0) map
    to xi = 0 with eta = arccos(x1/R).
    """
    if R <= 0:
        raise GeometryError(f"focal half-distance must be positive, got R={R}")
    w = np.arccosh((np.asarray(x1) + 1j * np.asarray(x2)) / R)
    xi = np.maximum(w.real, 0.0)
    eta = wrap_angle(w.imag)
    if np.ndim(x1) == 0 and np.ndim(x2) == 0:
        return float(xi), float(eta)
    return xi, eta


def xi_from_semimajor(b, R):
    """Elliptic radius of the confocal ellipse with semi-major axis ``b``.

    b = R cosh(xi), so xi = arccosh(b/R).  Requires b >= R.
    """
    b = np.asarray(b, dtype=float)
    if R <= 0:
        raise GeometryError(f"focal half-distance must be positive, got R={R}")
    if np.any(b < R):
        raise GeometryError(f"semi-major axis must satisfy b >= R, got b={b}, R={R}")
    out = np.arccosh(b / R)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EllipticPoint:
    """A point in elliptic coordinates, with eta stored wrapped into [0, 2*pi)."""

    xi: float
    eta: float

    def __post_init__(self):
        if self.xi < 0:
            raise GeometryError(f"elliptic radius must be >= 0, got xi={self.xi}")
        object.__setattr__(self, "eta", float(wrap_angle(self.eta)))


@dataclass(frozen=True)
class LayerStack:
    """Confocal N-layer geometry: focal half-distance plus decreasing radii.

    ``xi[k]`` is the elliptic radius of interface k+1 (0-indexed tuple,
    outermost first).  Region l lies between interfaces l and l+1, with
    region 0 the exterior and region N the core.
    """

    R: float
    xi: tuple

    def __post_init__(self):
        if self.R <= 0:
            raise GeometryError(f"focal half-distance must be positive, got R={self.R}")
        xi = tuple(float(v) for v in self.xi)
        if len(xi) < 1:
            raise GeometryError("a layer stack needs at least one interface")
        if any(v <= 0 for v in xi):
            raise GeometryError(f"elliptic radii must be positive, got {xi}")
        if any(a <= b for a, b in zip(xi, xi[1:])):
            raise GeometryError(f"elliptic radii must be strictly decreasing, got {xi}")
        object.__setattr__(self, "xi", xi)

    @property
    def N(self):
        return len(self.xi)

    @property
    def xi_array(self):
        return np.asarray(self.xi)

    @classmethod
    def from_semimajor(cls, R, semimajor):
        """Build a stack from semi-major axes b_k = R cosh(xi_k)."""
        return cls(R=R, xi=tuple(xi_from_semimajor(b, R) for b in semimajor))

    def interface_polyline(self, k):
        """Cartesian polyline of interface k (1-indexed): 400 segments, closed."""
        if not 1 <= k <= self.N:
            raise GeometryError(f"interface index must be in 1..{self.N}, got {k}")
        eta = np.linspace(0.0, TWO_PI, 401)
        return elliptic_to_cartesian(self.xi[k - 1], eta, self.R)
