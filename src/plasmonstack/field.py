"""Interface density solves and evaluation of the perturbed potential and its
gradient anywhere in the plane, via the exact per-region formulas.

For a background potential built from order-n terms
a_c cosh(n xi) cos(n eta) + a_s sinh(n xi) sin(n eta), the interface
densities solve M phi = n a (s or c) per (n, parity), and the perturbation
u - H in region l (0 = exterior, N = core) is a combination of cosh(n xi)
(or sinh) and exp(-n xi) angular harmonics with region-dependent weights
built from prefix/suffix sums of the density solution.  Gradients are
assembled from analytic elliptic-coordinate partials and the chain rule.
Single points and grids share one evaluator of the region formulas, which
takes elliptic coordinates and regions of any shape; grid evaluation shares
one density solve across all points of a field and one coordinate map
across all fields on the same grid.  The representation-formula
cross-check, a sum of single-layer potentials, is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, RegionError, ResonanceError
from .geometry import EllipticPoint, LayerStack, cartesian_to_elliptic
from .npcore import EVEN, ODD, PARITIES, gpm_entries

CONDITION_LIMIT = 1e14
RESIDUAL_TOL = 1e-10
INTERFACE_SNAP = 1e-12

#: Per parity, the order-n harmonic cosh(n xi) cos(n eta) (even) or
#: sinh(n xi) sin(n eta) (odd) as (radial, d radial, angular, d angular),
#: functions of n xi (radial) and n eta (angular).
_HARMONIC = {
    EVEN: (np.cosh, np.sinh, np.cos, lambda t: -np.sin(t)),
    ODD: (np.sinh, np.cosh, np.sin, np.cos),
}


@dataclass(frozen=True)
class BackgroundField:
    """Multipolar background potential: tuple of (n, a_cos, a_sin) terms.

    Term n contributes a_cos cosh(n xi) cos(n eta) + a_sin sinh(n xi) sin(n eta);
    orders must be distinct integers >= 1 and amplitudes may be complex.
    """

    terms: tuple

    def __post_init__(self):
        norm = []
        seen = set()
        for n, a_c, a_s in self.terms:
            n = int(n)
            if n < 1:
                raise ValueError(f"background orders must be >= 1, got {n}")
            if n in seen:
                raise ValueError(f"duplicate background order n={n}")
            seen.add(n)
            norm.append((n, complex(a_c), complex(a_s)))
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def single(cls, n, parity, amplitude=1.0):
        """A single even (cos) or odd (sin) term of order n."""
        if parity == EVEN:
            return cls(terms=((n, amplitude, 0.0),))
        if parity == ODD:
            return cls(terms=((n, 0.0, amplitude),))
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")

    def components(self):
        """Yield (n, parity, amplitude) for every nonzero component."""
        for n, a_c, a_s in self.terms:
            if a_c != 0:
                yield n, EVEN, a_c
            if a_s != 0:
                yield n, ODD, a_s


@dataclass(frozen=True, eq=False)
class DensitySolution:
    """Per-(n, parity) Fourier coefficient vectors of the interface densities.

    ``phi[(n, parity)]`` solves M phi = n * a * (sinh or cosh structure
    vector); ``residual`` records the relative solve residual per key.
    """

    stack: LayerStack
    lam: complex
    phi: dict
    residual: dict


def region_index(stack: LayerStack, xi):
    """Region of elliptic radius xi: count of interfaces with xi <= xi_k.

    0 is the exterior, N the core; points exactly on interface k belong to
    the inner region k (closed-on-inside convention).
    """
    xi_arr = stack.xi_array
    idx = (np.asarray(xi)[..., None] <= xi_arr).sum(axis=-1)
    return int(idx) if np.ndim(xi) == 0 else idx


def solve_densities(stack: LayerStack, lam, H: BackgroundField) -> DensitySolution:
    """Solve every needed (n, parity) linear system for the given contrast.

    Raises :class:`ResonanceError` when a system is singular or has
    condition number above ``CONDITION_LIMIT`` (evaluation at a resonance
    needs a nonzero loss delta = Im lambda to regularize), or when a solve's
    relative residual exceeds ``RESIDUAL_TOL``.
    """
    xi = stack.xi_array
    phi = {}
    residual = {}
    for n, parity, a in H.components():
        M = gpm_entries(stack, lam, n, parity)
        cond = np.linalg.cond(M)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise ResonanceError(
                f"order-{n} {parity} system is resonance-singular (cond={cond:.3e}); "
                "supply a nonzero loss parameter",
                n=n,
                parity=parity,
            )
        rhs = n * a * _HARMONIC[parity][1](n * xi)
        vec = np.linalg.solve(M, rhs)
        res = np.linalg.norm(M @ vec - rhs) / np.linalg.norm(rhs)
        if res > RESIDUAL_TOL:
            raise ResonanceError(
                f"order-{n} {parity} solve residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}",
                n=n,
                parity=parity,
            )
        phi[(n, parity)] = vec
        residual[(n, parity)] = float(res)
    return DensitySolution(stack=stack, lam=lam, phi=phi, residual=residual)


def _region_weights(stack, densities, n, parity):
    """Prefix/suffix weight tables indexed by region l = 0..N.

    prefix[l] = sum_{k<=l} exp(-n xi_k) v_k multiplies cosh(n xi) (even) or
    sinh(n xi) (odd); suffix[l] = sum_{k>l} cosh(n xi_k) v_k (even; sinh for
    odd) multiplies exp(-n xi).  v = phi / n already carries the background
    amplitude (the solve right-hand side is n * a * structure vector).
    """
    v = densities.phi[(n, parity)] / n
    xi = stack.xi_array
    outer = np.exp(-n * xi) * v
    inner = _HARMONIC[parity][0](n * xi) * v
    prefix = np.concatenate([[0.0], np.cumsum(outer)])
    suffix = np.concatenate([np.cumsum(inner[::-1])[::-1], [0.0]])
    return prefix, suffix


def _resolve_region(stack, xi, region):
    if region is not None:
        if not 0 <= region <= stack.N:
            raise RegionError(f"region must be in 0..{stack.N}, got {region}")
        return region
    if np.any(np.abs(np.asarray(xi) - stack.xi_array) <= INTERFACE_SNAP * np.maximum(1.0, stack.xi_array)):
        raise RegionError(
            f"point at xi={xi} lies on an interface; pass region= to select a side"
        )
    return region_index(stack, xi)


def _potential(stack, densities, H, xi, eta, l):
    """u - H at elliptic points (xi, eta) in regions l, all of one shape
    (scalars for a point, arrays for a grid)."""
    total = np.zeros(np.shape(xi), dtype=complex)
    for n, parity, _a in H.components():
        prefix, suffix = _region_weights(stack, densities, n, parity)
        radial, _, angular, _ = _HARMONIC[parity]
        total -= angular(n * eta) * (radial(n * xi) * prefix[l] + np.exp(-n * xi) * suffix[l])
    return total


def _partials(stack, densities, H, xi, eta, l):
    """(d/dxi, d/deta) of u - H at elliptic points, shaped as in :func:`_potential`."""
    d_xi = np.zeros(np.shape(xi), dtype=complex)
    d_eta = np.zeros(np.shape(xi), dtype=complex)
    for n, parity, _a in H.components():
        prefix, suffix = _region_weights(stack, densities, n, parity)
        radial, d_radial, angular, d_angular = _HARMONIC[parity]
        decay = np.exp(-n * xi) * suffix[l]
        d_xi += -n * angular(n * eta) * (d_radial(n * xi) * prefix[l] - decay)
        d_eta += -n * d_angular(n * eta) * (radial(n * xi) * prefix[l] + decay)
    return d_xi, d_eta


def perturbed_potential(stack, lam, H, point: EllipticPoint, *, region=None, densities=None):
    """Value of u - H at a point, using the exact region formula.

    ``region`` overrides the automatic region choice (needed on interfaces);
    ``densities`` reuses a previous :func:`solve_densities` result.
    """
    if densities is None:
        densities = solve_densities(stack, lam, H)
    l = _resolve_region(stack, point.xi, region)
    return complex(_potential(stack, densities, H, point.xi, point.eta, l))


def perturbed_gradient(stack, lam, H, point: EllipticPoint, *, region=None, densities=None):
    """Cartesian gradient of u - H at a point, as a complex 2-vector.

    Assembled from analytic elliptic partials: grad = (P_xi x_xi + P_eta x_eta)
    / gamma^2.  Points on an interface need an explicit ``region`` (one-sided
    gradient); the two focal points are rejected (gamma = 0).
    """
    if densities is None:
        densities = solve_densities(stack, lam, H)
    l = _resolve_region(stack, point.xi, region)
    d_xi, d_eta = _partials(stack, densities, H, point.xi, point.eta, l)
    return np.array(_elliptic_to_cartesian_gradient(d_xi, d_eta, point.xi, point.eta, stack.R))


def _elliptic_to_cartesian_gradient(d_xi, d_eta, xi, eta, R):
    """(gx, gy) = (P_xi x_xi + P_eta x_eta) / gamma^2 with x_xi = (a, b); the
    map is conformal, so x_eta = (-b, a)."""
    g2 = R**2 * (np.sinh(xi) ** 2 + np.sin(eta) ** 2)
    if np.ndim(g2) == 0 and g2 == 0.0:
        raise GeometryError("gradient is indeterminate at a focal point (gamma = 0)")
    a = R * np.sinh(xi) * np.cos(eta)
    b = R * np.cosh(xi) * np.sin(eta)
    return (d_xi * a - d_eta * b) / g2, (d_xi * b + d_eta * a) / g2


def background_potential(H: BackgroundField, point: EllipticPoint):
    """Value of the background potential H at a point."""
    total = 0.0j
    for n, parity, a in H.components():
        radial, _, angular, _ = _HARMONIC[parity]
        total += a * radial(n * point.xi) * angular(n * point.eta)
    return complex(total)


def background_gradient(H: BackgroundField, point: EllipticPoint, R):
    """Cartesian gradient of the background potential at a point."""
    d_xi = 0.0j
    d_eta = 0.0j
    for n, parity, a in H.components():
        radial, d_radial, angular, d_angular = _HARMONIC[parity]
        d_xi += n * a * d_radial(n * point.xi) * angular(n * point.eta)
        d_eta += n * a * radial(n * point.xi) * d_angular(n * point.eta)
    return np.array(_elliptic_to_cartesian_gradient(d_xi, d_eta, point.xi, point.eta, R))


def total_potential(stack, lam, H, point, *, region=None, densities=None):
    """u = H + (u - H) at a point (one-sided on interfaces via ``region``)."""
    return background_potential(H, point) + perturbed_potential(
        stack, lam, H, point, region=region, densities=densities
    )


def total_gradient(stack, lam, H, point, *, region=None, densities=None):
    """Cartesian gradient of the total potential u at a point."""
    return background_gradient(H, point, stack.R) + perturbed_gradient(
        stack, lam, H, point, region=region, densities=densities
    )


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Sampled field values on a Cartesian grid, plus plotting metadata.

    ``values[i, j]`` corresponds to (x1[i], x2[j]).  For the potential
    quantity values are complex u - H samples; for the gradient quantity
    they are real |grad(u - H)| magnitudes.  ``normalization`` records the
    constant the values were divided by (1.0 when normalization was off or
    the field was identically zero).
    """

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray
    quantity: str
    normalization: float
    lam: complex
    interfaces: tuple


def field_grid(
    stack: LayerStack,
    fields,
    bbox,
    resolution,
    *,
    normalize=False,
    quantity="potential",
) -> list[FieldGrid]:
    """Sample u - H (or |grad(u - H)|) on one Cartesian grid for each
    (lam, H) pair in ``fields``; returns one :class:`FieldGrid` per pair.

    bbox = (x1_min, x1_max, x2_min, x2_max); resolution = (n_x1, n_x2) with
    at least 2 points per axis.  Normalization divides by the max absolute
    value of the real part (potential) or of the magnitude (gradient) over
    the grid, unless that maximum is zero.  Grid points exactly on an
    interface evaluate on the inner side.  The grid's elliptic coordinates,
    regions and interface curves are computed once for all pairs.
    """
    if quantity not in ("potential", "gradient"):
        raise ValueError(f"quantity must be 'potential' or 'gradient', got {quantity!r}")
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 2 or ny < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got {resolution}")
    x1 = np.linspace(bbox[0], bbox[1], nx)
    x2 = np.linspace(bbox[2], bbox[3], ny)
    XI, ETA = cartesian_to_elliptic(*np.meshgrid(x1, x2, indexing="ij"), stack.R)
    L = region_index(stack, XI)
    interfaces = tuple(stack.interface_polyline(k) for k in range(1, stack.N + 1))
    grids = []
    for lam, H in fields:
        values, normalization = _grid_values(stack, lam, H, XI, ETA, L, normalize, quantity)
        grids.append(FieldGrid(x1=x1, x2=x2, values=values, quantity=quantity,
                               normalization=normalization, lam=complex(lam), interfaces=interfaces))
    return grids


def _grid_values(stack, lam, H, XI, ETA, L, normalize, quantity):
    """(values, normalization) of one field on the grid; the temporaries of
    one field are released before the next field is evaluated."""
    densities = solve_densities(stack, lam, H)
    if quantity == "potential":
        values = _potential(stack, densities, H, XI, ETA, L)
        norm_source = np.abs(values.real)
    else:
        d_xi, d_eta = _partials(stack, densities, H, XI, ETA, L)
        with np.errstate(divide="ignore", invalid="ignore"):
            gx, gy = _elliptic_to_cartesian_gradient(d_xi, d_eta, XI, ETA, stack.R)
        values = np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2)
        # grid nodes that land exactly on a focal point have no defined gradient
        values[~np.isfinite(values)] = 0.0
        norm_source = values
    if normalize:
        peak = float(norm_source.max())
        if peak > 0.0:
            return values / peak, peak
    return values, 1.0
