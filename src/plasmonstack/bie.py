"""Nystrom discretization of the block interface operators on general smooth
nested curves: an independent cross-validation route for the analytic
confocal results, the spectral bound, and the symmetrization identity.

Single-curve pieces, for a closed analytic curve x(t), t_j = 2 pi j / M:

* adjoint-double-layer kernel <x(t) - x(s), nu(t)> / (2 pi |x(t) - x(s)|^2);
  smooth in 2D, plain trapezoid, with the diagonal set to the continuous
  limit kappa(t)/(4 pi).  The sign convention (outward normal = tangent
  rotated by -pi/2 on a counterclockwise curve, positive curvature on a
  circle) is pinned by the circle test: discrete eigenvalues {1/2, 0,...}.
* single-layer kernel ln|x - y| / (2 pi); the periodic log singularity is
  split off and integrated exactly against trigonometric interpolants
  (spectrally accurate product quadrature), the smooth remainder by
  trapezoid with diagonal ln|x'(t)| / (2 pi).

Block operators stack per-curve blocks with the alternating row signs of
the layered transmission problem; off-diagonal (curve-to-curve) kernels are
smooth because the curves are disjoint.  Densities are mean-zero per curve
in the quadrature-weighted sense; deflation projects out the per-curve
constants before spectral checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveError

MIN_NODES = 8


@dataclass(frozen=True, eq=False)
class DiscretizedCurve:
    """Closed curve sampled at M equispaced parameter nodes.

    Holds positions, first/second derivatives, speeds |x'|, outward unit
    normals, signed curvatures, and trapezoid weights w_j = |x'(t_j)| 2pi/M.
    The parametrization must be counterclockwise (positive enclosed area) so
    the stored normals point outward.
    """

    t: np.ndarray
    x: np.ndarray
    dx: np.ndarray
    ddx: np.ndarray

    def __post_init__(self):
        M = self.x.shape[0]
        if M < MIN_NODES or M % 2:
            raise CurveError(f"node count must be even and >= {MIN_NODES}, got {M}")
        speed = np.hypot(self.dx[:, 0], self.dx[:, 1])
        if np.any(speed <= 0):
            raise CurveError("degenerate parametrization: zero-speed node")
        area = 0.5 * np.sum(self.x[:, 0] * self.dx[:, 1] - self.x[:, 1] * self.dx[:, 0]) * (2 * np.pi / M)
        if area <= 0:
            raise CurveError("parametrization must be counterclockwise (positive area)")
        normal = np.column_stack([self.dx[:, 1], -self.dx[:, 0]]) / speed[:, None]
        curv = (self.dx[:, 0] * self.ddx[:, 1] - self.dx[:, 1] * self.ddx[:, 0]) / speed**3
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "curvature", curv)
        object.__setattr__(self, "h", 2 * np.pi / M)
        object.__setattr__(self, "weights", speed * (2 * np.pi / M))

    @property
    def M(self):
        return self.x.shape[0]

    @classmethod
    def from_parametrization(cls, fx, fdx, fddx, M):
        t = np.arange(M) * (2 * np.pi / M)
        return cls(t=t, x=fx(t), dx=fdx(t), ddx=fddx(t))

    @classmethod
    def ellipse(cls, R, xi, M):
        """Confocal ellipse of elliptic radius xi for focal half-distance R."""
        a, b = R * np.cosh(xi), R * np.sinh(xi)
        return cls.from_parametrization(
            lambda t: np.column_stack([a * np.cos(t), b * np.sin(t)]),
            lambda t: np.column_stack([-a * np.sin(t), b * np.cos(t)]),
            lambda t: np.column_stack([-a * np.cos(t), -b * np.sin(t)]),
            M,
        )

    @classmethod
    def circle(cls, radius, M):
        return cls.polar((), radius, M)

    @classmethod
    def polar(cls, coeffs, scale, M):
        """Star-shaped curve r(theta) = scale * (1 + sum_m coeffs[m-1] cos(m theta))."""
        t = np.arange(M) * (2 * np.pi / M)
        r = np.full(M, 1.0)
        dr = np.zeros(M)
        ddr = np.zeros(M)
        for m, c in enumerate(coeffs, start=1):
            r += c * np.cos(m * t)
            dr -= c * m * np.sin(m * t)
            ddr -= c * m * m * np.cos(m * t)
        if np.any(r <= 0):
            raise CurveError("polar radius must stay positive")
        r, dr, ddr = scale * r, scale * dr, scale * ddr
        ct, st = np.cos(t), np.sin(t)
        x = np.column_stack([r * ct, r * st])
        dx = np.column_stack([dr * ct - r * st, dr * st + r * ct])
        ddx = np.column_stack([ddr * ct - 2 * dr * st - r * ct, ddr * st + 2 * dr * ct - r * st])
        return cls(t=t, x=x, dx=dx, ddx=ddx)


def curves_from_spec(spec, M):
    """Build the curve list for a JSON-style geometry spec.

    {"type": "confocal", "R": ..., "xi": [...]} yields one ellipse per radius
    (outermost first); {"type": "polar", "coeffs": [...], "scale": ...} yields
    a single star-shaped curve (scale may be a list for a nested family).
    """
    kind = spec.get("type")
    if kind == "confocal":
        return [DiscretizedCurve.ellipse(spec["R"], xi, M) for xi in spec["xi"]]
    if kind == "polar":
        scales = spec["scale"]
        if np.ndim(scales) == 0:
            scales = [scales]
        return [DiscretizedCurve.polar(tuple(spec.get("coeffs", ())), s, M) for s in scales]
    raise CurveError(f"unknown curve type {kind!r}")


def kress_log_weights(M):
    """Product-quadrature matrix R for the periodic log kernel.

    R[i, j] approximates integration of ln(4 sin^2((t_i - s)/2)) against a
    density sampled at s = t_j; exact for trigonometric polynomials of
    degree <= M/2, which gives spectral accuracy on analytic curves.
    """
    p = M // 2
    ang = 2 * np.pi * np.arange(M) / M
    first = np.zeros(M)
    for m in range(1, p):
        first += np.cos(m * ang) / m
    first = -(4 * np.pi / M) * first - (2 * np.pi / (M * p)) * np.cos(p * ang)
    idx = np.arange(M)
    return first[np.abs(idx[:, None] - idx[None, :])]


def _pairwise(target: DiscretizedCurve, source: DiscretizedCurve):
    diff = target.x[:, None, :] - source.x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    return diff, r2


def assemble_kstar_block(curve: DiscretizedCurve):
    """Nystrom matrix of the adjoint-double-layer operator on one curve."""
    diff, r2 = _pairwise(curve, curve)
    off = ~np.eye(curve.M, dtype=bool)
    if np.any(r2[off] == 0.0):
        raise CurveError("node coincidence: distinct parameter nodes map to one point")
    num = np.einsum("ijk,ik->ij", diff, curve.normal)
    np.fill_diagonal(r2, 1.0)
    K = num / (2 * np.pi * r2)
    np.fill_diagonal(K, curve.curvature / (4 * np.pi))
    return K * curve.weights[None, :]


def _kstar_cross(target, source):
    diff, r2 = _pairwise(target, source)
    if np.any(r2 == 0.0):
        raise CurveError("curves touch: zero distance between nodes of distinct curves")
    num = np.einsum("ijk,ik->ij", diff, target.normal)
    return num / (2 * np.pi * r2) * source.weights[None, :]


def assemble_single_layer(curve: DiscretizedCurve):
    """Nystrom matrix of the single-layer operator on one curve (log-split rule)."""
    diff, r2 = _pairwise(curve, curve)
    tt = curve.t[:, None] - curve.t[None, :]
    s2 = 4 * np.sin(tt / 2) ** 2
    np.fill_diagonal(r2, 1.0)
    np.fill_diagonal(s2, 1.0)
    smooth = np.log(r2 / s2) / (4 * np.pi)
    np.fill_diagonal(smooth, np.log(curve.speed) / (2 * np.pi))
    return (kress_log_weights(curve.M) / (4 * np.pi) + curve.h * smooth) * curve.speed[None, :]


def _single_layer_cross(target, source):
    _, r2 = _pairwise(target, source)
    if np.any(r2 == 0.0):
        raise CurveError("curves touch: zero distance between nodes of distinct curves")
    return np.log(r2) / (4 * np.pi) * source.weights[None, :]


def _contains(outer: DiscretizedCurve, points):
    """Even-odd crossing test of points against the sampled polygon of ``outer``."""
    poly = outer.x
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    px = points[:, 0][:, None]
    py = points[:, 1][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        crosses = ((y0 > py) != (y1 > py)) & (px < x0 + (py - y0) * (x1 - x0) / (y1 - y0))
    return crosses.sum(axis=1) % 2 == 1


def _validate_nesting(curves):
    if not curves:
        raise CurveError("need at least one curve")
    for k in range(len(curves) - 1):
        outer, inner = curves[k], curves[k + 1]
        lo_o, hi_o = outer.x.min(axis=0), outer.x.max(axis=0)
        lo_i, hi_i = inner.x.min(axis=0), inner.x.max(axis=0)
        if np.any(lo_i < lo_o) or np.any(hi_i > hi_o):
            raise CurveError(f"curve {k + 2} is not bounding-box nested inside curve {k + 1}")
        if not np.all(_contains(outer, inner.x)):
            raise CurveError(f"curve {k + 2} is not strictly inside curve {k + 1}")


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Assembled block matrix with per-curve layout and quadrature weights."""

    entries: np.ndarray
    weights: np.ndarray
    offsets: tuple
    curves: tuple


def _offsets(curves):
    return tuple(np.cumsum([0] + [c.M for c in curves]).tolist())


def _assemble_block(curves, diagonal, cross, row_sign) -> BlockOperator:
    """Block k, l is diagonal(curve k) if k == l else cross(curve k, curve l),
    and block row k is scaled by row_sign(k).  Curves must be strictly nested,
    outermost first."""
    _validate_nesting(curves)
    offs = _offsets(curves)
    A = np.zeros((offs[-1], offs[-1]))
    for k, ck in enumerate(curves):
        for l, cl in enumerate(curves):
            block = diagonal(ck) if k == l else cross(ck, cl)
            A[offs[k]:offs[k + 1], offs[l]:offs[l + 1]] = row_sign(k) * block
    return BlockOperator(entries=A, weights=_block_weights(curves), offsets=offs, curves=tuple(curves))


def assemble_block_np(curves) -> BlockOperator:
    """Block interface operator: row k carries sign (-1)^k (1-indexed), with
    the single-curve adjoint-double-layer matrix on the diagonal and smooth
    curve-to-curve kernels off it."""
    return _assemble_block(curves, assemble_kstar_block, _kstar_cross, lambda k: -1.0 if k % 2 == 0 else 1.0)


def assemble_block_s(curves) -> BlockOperator:
    """Block single-layer operator: every block row repeats the same column
    operators (single-layer of curve l evaluated on curve k)."""
    return _assemble_block(curves, assemble_single_layer, _single_layer_cross, lambda k: 1.0)


def _block_weights(curves):
    return np.concatenate([c.weights for c in curves])


def discrete_adjoint(entries, weights):
    """Adjoint with respect to the quadrature inner product: W^-1 A^T W."""
    return entries.T * weights[None, :] / weights[:, None]


def deflate_constants(block: BlockOperator):
    """Project out the per-curve constant densities (weighted mean-zero sense).

    Returns P A P with P the w-orthogonal projector onto per-curve mean-zero
    densities; the removed directions show up as exact zero eigenvalues.
    """
    A = block.entries
    P = np.eye(A.shape[0])
    for k in range(len(block.curves)):
        sl = slice(block.offsets[k], block.offsets[k + 1])
        wk = block.weights[sl]
        P[sl, sl] -= np.outer(np.ones(wk.size), wk) / wk.sum()
    return P @ A @ P


def calderon_residual(Kst: BlockOperator, S: BlockOperator) -> float:
    """Relative defect of the symmetrization identity S K* = K S.

    ``Kst`` and ``S`` are :func:`assemble_block_np` and :func:`assemble_block_s`
    of the same curves; K is the discrete quadrature-adjoint of K*.  Frobenius
    norms; decreases under node refinement on analytic curves until roundoff.
    """
    Kadj = discrete_adjoint(Kst.entries, Kst.weights)
    defect = S.entries @ Kst.entries - Kadj @ S.entries
    return float(
        np.linalg.norm(defect) / (np.linalg.norm(S.entries) * np.linalg.norm(Kst.entries))
    )


def self_adjointness_check(Kst: BlockOperator, S: BlockOperator) -> float:
    """Relative asymmetry of the bilinear form <phi, (-S) K* psi>_w.

    The form matrix is B = W (-S) K*; self-adjointness of the block operator
    in the twisted inner product makes B symmetric up to quadrature error.
    """
    B = Kst.weights[:, None] * (-(S.entries @ Kst.entries))
    return float(np.linalg.norm(B - B.T) / np.linalg.norm(B))


def block_np_eigenvalues(block: BlockOperator, deflated=True):
    """Eigenvalues of the (optionally constant-deflated) block interface operator."""
    A = deflate_constants(block) if deflated else block.entries
    return np.linalg.eigvals(A)
