"""Interface density solves and evaluation of the perturbed potential and its
gradient anywhere in the plane, via the exact per-region formulas.

For a background potential built from order-n terms
a_c cosh(n xi) cos(n eta) + a_s sinh(n xi) sin(n eta), the interface
densities solve M phi = n a (s or c) per (n, parity), and the perturbation
u - H in region l (0 = exterior, N = core) is a combination of cosh(n xi)
(or sinh) and exp(-n xi) angular harmonics with region-dependent weights
built from prefix/suffix sums of the density solution; each field's weight
tables are built once, next to its one density solve.  Gradients come from
analytic elliptic-coordinate partials and the chain rule, with the core
formula's limit at the two foci, where the chain rule is 0/0.  Single points
and grids share one evaluator of the region formulas, which takes elliptic
coordinates and regions of any shape; a grid's coordinates are mapped once
for all fields on it.  A value that overflows floating point
raises :class:`FieldOverflowError` instead of coming back as inf or nan.
The representation-formula cross-check, a sum of single-layer potentials,
is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, RegionError, gate
from .geometry import EllipticPoint, LayerStack, cartesian_to_elliptic
from .npcore import EVEN, ODD, _sign, gpm_entries

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
        return cls(terms=((n, amplitude, 0.0) if _sign(parity) > 0 else (n, 0.0, amplitude),))

    def components(self):
        """Yield (n, parity, amplitude) for every nonzero component."""
        for n, a_c, a_s in self.terms:
            if a_c != 0:
                yield n, EVEN, a_c
            if a_s != 0:
                yield n, ODD, a_s


def region_index(stack: LayerStack, xi):
    """Region of elliptic radius xi: count of interfaces with xi <= xi_k.

    0 is the exterior, N the core; points exactly on interface k belong to
    the inner region k (closed-on-inside convention).
    """
    xi_arr = stack.xi_array
    idx = (np.asarray(xi)[..., None] <= xi_arr).sum(axis=-1)
    return int(idx) if np.ndim(xi) == 0 else idx


def _require_finite(terms, xi, *values):
    """Gate ``overflow``: every ``values`` entry must be finite; the refusal names
    the highest order n of the (n, parity, ...) ``terms`` and n max(xi)."""

    def message():
        n, parity = max(terms, key=lambda t: t[0])[:2]
        return (f"the order-{n} {parity} field overflows floating point: n*xi reaches {n * np.max(xi):.6g} "
                "(cosh and sinh overflow above about 710)")

    gate("overflow", sum(np.size(v) - np.count_nonzero(np.isfinite(v)) for v in values), 0, message)


def solve_densities(stack: LayerStack, lam, H: BackgroundField) -> dict:
    """Solve every needed (n, parity) linear system for the given contrast;
    returns ``{(n, parity): phi}``, where phi solves M phi = n * a * (sinh or
    cosh structure vector).

    Raises :class:`FieldOverflowError` when a right-hand side overflows, and
    :class:`ResonanceError` when a system is singular or has condition
    number above ``CONDITION_LIMIT`` (evaluation at a resonance needs a
    nonzero loss delta = Im lambda to regularize), or when a solve's
    relative residual is not within ``RESIDUAL_TOL``.
    """
    xi = stack.xi_array
    phi = {}
    for n, parity, a in H.components():
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = n * a * _HARMONIC[parity][1](n * xi)
        _require_finite(H.components(), xi, rhs)
        M = gpm_entries(stack, lam, n, parity)
        cond = np.linalg.cond(M)
        gate("condition", cond, CONDITION_LIMIT, lambda: f"order-{n} {parity} system is resonance-singular "
             f"(cond={cond:.3e}); supply a nonzero loss parameter")
        vec = np.linalg.solve(M, rhs)
        res = np.linalg.norm(M @ vec - rhs) / np.linalg.norm(rhs)
        gate("residual", res, RESIDUAL_TOL,
             lambda: f"order-{n} {parity} solve residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}")
        phi[(n, parity)] = vec
    return phi


def _region_weights(stack, lam, H):
    """Solve the field's densities and return its weight tables, one
    (n, parity, prefix, suffix) per nonzero component of ``H`` in
    ``H.components()`` order; prefix and suffix are indexed by region l = 0..N.

    prefix[l] = sum_{k<=l} exp(-n xi_k) v_k multiplies cosh(n xi) (even) or
    sinh(n xi) (odd); suffix[l] = sum_{k>l} cosh(n xi_k) v_k (even; sinh for
    odd) multiplies exp(-n xi).  v = phi / n already carries the background
    amplitude (the solve right-hand side is n * a * structure vector).
    """
    densities = solve_densities(stack, lam, H)
    xi = stack.xi_array
    weights = []
    # an entry that overflows is inf or nan, which the evaluators refuse where it is used
    with np.errstate(over="ignore", invalid="ignore"):
        for n, parity, _a in H.components():
            v = densities[(n, parity)] / n
            outer = np.exp(-n * xi) * v
            inner = _HARMONIC[parity][0](n * xi) * v
            prefix = np.concatenate([[0.0], np.cumsum(outer)])
            suffix = np.concatenate([np.cumsum(inner[::-1])[::-1], [0.0]])
            weights.append((n, parity, prefix, suffix))
    return weights


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


def _growth_radius(xi, l):
    """xi, or 0 in region 0: there the growing harmonic cosh(n xi) (sinh for
    odd parity) has the weight prefix[0] = 0, and at xi = 0 the product
    stays 0 where cosh(n xi) itself would overflow (n xi above ~710)."""
    return np.where(l == 0, 0.0, xi)


def _potential(weights, xi, eta, l):
    """u - H at elliptic points (xi, eta) in regions l, all of one shape
    (scalars for a point, arrays for a grid), from :func:`_region_weights`."""
    total = np.zeros(np.shape(xi), dtype=complex)
    xi_grow = _growth_radius(xi, l)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, parity, prefix, suffix in weights:
            radial, _, angular, _ = _HARMONIC[parity]
            total -= angular(n * eta) * (radial(n * xi_grow) * prefix[l] + np.exp(-n * xi) * suffix[l])
    _require_finite(weights, xi, total)
    return total


def _partials(weights, xi, eta, l):
    """(d/dxi, d/deta) of u - H at elliptic points, shaped as in :func:`_potential`."""
    d_xi = np.zeros(np.shape(xi), dtype=complex)
    d_eta = np.zeros(np.shape(xi), dtype=complex)
    xi_grow = _growth_radius(xi, l)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, parity, prefix, suffix in weights:
            radial, d_radial, angular, d_angular = _HARMONIC[parity]
            decay = np.exp(-n * xi) * suffix[l]
            d_xi += -n * angular(n * eta) * (d_radial(n * xi_grow) * prefix[l] - decay)
            d_eta += -n * d_angular(n * eta) * (radial(n * xi_grow) * prefix[l] + decay)
    _require_finite(weights, xi, d_xi, d_eta)
    return d_xi, d_eta


def _gradient(stack, weights, xi, eta, l):
    """Cartesian gradient (gx, gy) of u - H at elliptic points, shaped as in
    :func:`_potential`.

    Off the foci it is (P_xi x_xi + P_eta x_eta) / gamma^2 with x_xi = (a, b)
    and, as the map is conformal, x_eta = (-b, a).  That is 0/0 at a focus,
    a point with cos(eta) = +-1 and xi = 0 (or gamma = 0 in floating
    point); there it is the limit of the core region's formula
    u - H = -prefix[N] T_n(z / R), real part for even parity and imaginary
    part for odd: -prefix[N] (+-1)^(n-1) n^2 / R along x (even) or y (odd).
    A focus evaluated with another region's formula raises
    :class:`GeometryError`.
    """
    d_xi, d_eta = _partials(weights, xi, eta, l)
    R = stack.R
    g2 = R**2 * (np.sinh(xi) ** 2 + np.sin(eta) ** 2)
    a = R * np.sinh(xi) * np.cos(eta)
    b = R * np.cosh(xi) * np.sin(eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        gx, gy = (d_xi * a - d_eta * b) / g2, (d_xi * b + d_eta * a) / g2
    near = (xi == 0) | (g2 == 0)  # tested first, as grids rarely sample a focus
    if np.any(near):
        side = np.cos(eta)  # +1 at the focus (R, 0), -1 at (-R, 0)
        focus = near & (np.abs(side) == 1)
        if np.any(focus & (l != stack.N)):
            raise GeometryError(f"at a focus the gradient has only the core region's formula (region {stack.N})")
        limit = {EVEN: 0.0, ODD: 0.0}
        for n, parity, prefix, _suffix in weights:
            limit[parity] = limit[parity] - prefix[-1] * side ** (n - 1) * n**2 / R
        gx, gy = np.where(focus, limit[EVEN], gx), np.where(focus, limit[ODD], gy)
    return gx, gy


def perturbed_potential(stack, lam, H, point: EllipticPoint, *, region=None):
    """Value of u - H at a point, using the exact region formula.

    ``region`` overrides the automatic region choice (needed on interfaces).
    """
    weights = _region_weights(stack, lam, H)
    l = _resolve_region(stack, point.xi, region)
    return complex(_potential(weights, point.xi, point.eta, l))


def perturbed_gradient(stack, lam, H, point: EllipticPoint, *, region=None):
    """Cartesian gradient of u - H at a point, as a complex 2-vector (see
    :func:`_gradient`, which also gives its limit at the two foci).  Points
    on an interface need an explicit ``region`` (one-sided gradient).
    """
    weights = _region_weights(stack, lam, H)
    l = _resolve_region(stack, point.xi, region)
    return np.array(_gradient(stack, weights, point.xi, point.eta, l))


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Sampled field values on a Cartesian grid, plus plotting metadata.

    ``values[i, j]`` corresponds to (x1[i], x2[j]).  For the potential
    quantity values are complex u - H samples; for the gradient quantity
    they are real |grad(u - H)| magnitudes, divided by ``normalization``,
    the grid's max |Re(u - H)| or max magnitude (1.0 for a zero field);
    ``values * normalization`` are the raw samples.
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
    quantity="potential",
) -> list[FieldGrid]:
    """Sample u - H (or |grad(u - H)|) on one Cartesian grid for each
    (lam, H) pair in ``fields``; returns one :class:`FieldGrid` per pair.

    bbox = (x1_min, x1_max, x2_min, x2_max); resolution = (n_x1, n_x2) with
    at least 2 points per axis.  Each grid is divided by its max absolute
    real part (potential) or magnitude (gradient), its ``normalization``,
    unless that maximum is zero.  Grid points exactly on an
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
        values, normalization = _grid_values(stack, lam, H, XI, ETA, L, quantity)
        grids.append(FieldGrid(x1=x1, x2=x2, values=values, quantity=quantity,
                               normalization=normalization, lam=complex(lam), interfaces=interfaces))
    return grids


def _grid_values(stack, lam, H, XI, ETA, L, quantity):
    """(values, normalization) of one field on the grid; the temporaries of
    one field are released before the next field is evaluated."""
    weights = _region_weights(stack, lam, H)
    if quantity == "potential":
        values = _potential(weights, XI, ETA, L)
        norm_source = np.abs(values.real)
    else:
        gx, gy = _gradient(stack, weights, XI, ETA, L)
        values = np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2)
        norm_source = values
    peak = float(norm_source.max())
    if peak > 0.0:
        return values / peak, peak
    return values, 1.0
