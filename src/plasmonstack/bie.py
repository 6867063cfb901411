"""Nystrom discretization of the block interface operators on general smooth
nested curves: an independent cross-validation route for the analytic
confocal results, the spectral bound, and the symmetrization identity.

Each operator has one row kernel, which evaluates all M nodes x of one
curve x(t), t_j = 2 pi j / M, against all N M source nodes y of the stack:

* adjoint double layer <x - y, nu(x)> / (2 pi |x - y|^2) with the weight of
  y; smooth in 2D, plain trapezoid, with the curve's own diagonal set to the
  continuous limit kappa(t)/(4 pi).  The sign convention (outward normal =
  tangent rotated by -pi/2 on a counterclockwise curve, positive curvature
  on a circle) is pinned by the circle test: discrete eigenvalues
  {1/2, 0,...}.
* single layer ln|x - y| / (2 pi) with the weight of y; on the curve's own
  block the periodic log singularity is split off and integrated exactly
  against trigonometric interpolants (spectrally accurate product
  quadrature), the smooth remainder by trapezoid with diagonal
  ln|x'(t)| / (2 pi).

Block operators on N nested curves of M nodes each have one layout: curve k
owns rows and columns kM ... (k+1)M - 1, so every per-curve quantity is a
reshape of the (N M, N M) matrix.  Block rows carry the alternating signs of
the layered transmission problem; off-diagonal (curve-to-curve) kernels are
smooth because the curves are disjoint.  Densities are mean-zero per curve
in the quadrature-weighted sense; deflation projects out the per-curve
constants, one rank-one update per curve on each side, before spectral checks.
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
    def ellipse(cls, R, xi, M):
        """Confocal ellipse of elliptic radius xi for focal half-distance R."""
        a, b = R * np.cosh(xi), R * np.sinh(xi)
        t = np.arange(M) * (2 * np.pi / M)
        x = np.column_stack([a * np.cos(t), b * np.sin(t)])
        dx = np.column_stack([-a * np.sin(t), b * np.cos(t)])
        return cls(t=t, x=x, dx=dx, ddx=-x)

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
    idx = np.arange(M)
    ang = 2 * np.pi * idx / M
    first = np.zeros(M)
    for m in range(1, p):
        first += np.cos(m * ang) / m
    first = -(4 * np.pi / M) * first - (2 * np.pi / (M * p)) * np.cos(p * ang)
    return first[np.abs(idx[:, None] - idx[None, :])]


def _kstar_rows(curve, dx, dy, r2, own, weights):
    """K* rows of one curve: <x - y, nu(x)> w_y / (2 pi r2), and kappa / (4 pi) on its own diagonal."""
    K = (dx * curve.normal[:, 0:1] + dy * curve.normal[:, 1:2]) / (2 * np.pi * r2)
    np.fill_diagonal(K[:, own], curve.curvature / (4 * np.pi))
    return K * weights


def _single_layer_rows(curve, dx, dy, r2, own, weights):
    """S rows of one curve: ln(r2) w_y / (4 pi), and the log-split rule on its own block."""
    S = np.log(r2) / (4 * np.pi) * weights
    tt = curve.t[:, None] - curve.t[None, :]
    s2 = 4 * np.sin(tt / 2) ** 2
    np.fill_diagonal(s2, 1.0)
    smooth = np.log(r2[:, own] / s2) / (4 * np.pi)
    np.fill_diagonal(smooth, np.log(curve.speed) / (2 * np.pi))
    S[:, own] = (kress_log_weights(curve.M) / (4 * np.pi) + curve.h * smooth) * curve.speed
    return S


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
    for k, (outer, inner) in enumerate(zip(curves, curves[1:])):
        if not np.all(_contains(outer, inner.x)):
            raise CurveError(f"curve {k + 2} is not strictly inside curve {k + 1}")


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Block matrix in the (curve, node) layout: ``entries`` is (N M, N M),
    ``weights`` the N M trapezoid weights and ``layers`` the curve count N."""

    entries: np.ndarray
    weights: np.ndarray
    layers: int


def _assemble_block(curves, rows) -> BlockOperator:
    """Fills rows kM ... (k+1)M - 1 with rows(curve k, dx, dy, r2, own, weights):
    the differences x - y and r2 = dx^2 + dy^2 (1 on the curve's own diagonal)
    from its M nodes x to all N M source nodes y, its own block's column slice
    and the source weights.  Curves must be nested, outermost first, with one M."""
    _validate_nesting(curves)
    counts = sorted({c.M for c in curves})
    if len(counts) > 1:
        raise CurveError(f"curves must share one node count, got {counts}")
    N, M = len(curves), counts[0]
    x = np.concatenate([c.x for c in curves])
    weights = np.concatenate([c.weights for c in curves])
    A = np.empty((N * M, N * M))
    for k, curve in enumerate(curves):
        own = slice(k * M, (k + 1) * M)
        dx = curve.x[:, 0:1] - x[:, 0]
        dy = curve.x[:, 1:2] - x[:, 1]
        r2 = dx * dx + dy * dy
        np.fill_diagonal(r2[:, own], 1.0)
        if np.any(r2 == 0.0):
            raise CurveError("node coincidence: two distinct nodes map to one point")
        A[own] = rows(curve, dx, dy, r2, own, weights)
    return BlockOperator(entries=A, weights=weights, layers=N)


def assemble_block_np(curves) -> BlockOperator:
    """Block interface operator: row k carries sign (-1)^k (1-indexed) times
    the adjoint-double-layer rows of curve k.  On one curve it is -K*."""
    block = _assemble_block(curves, _kstar_rows)
    block.entries.reshape(block.layers, -1)[0::2] *= -1.0  # block rows 1, 3, ...
    return block


def assemble_block_s(curves) -> BlockOperator:
    """Block single-layer operator: row k holds the single-layer rows of
    curve k (every source curve evaluated on curve k).  On one curve it is S."""
    return _assemble_block(curves, _single_layer_rows)


def discrete_adjoint(entries, weights):
    """Adjoint with respect to the quadrature inner product: W^-1 A^T W."""
    return entries.T * weights[None, :] / weights[:, None]


def deflate_constants(block: BlockOperator):
    """Project out the per-curve constant densities (weighted mean-zero sense).

    Returns P A P with P = I - sum_k 1_k u_k^T, u_k = w_k / sum(w_k): one
    rank-one update per curve on the rows of the (N, M, n) view, then on the
    columns of the (n, N, M) view.  The constants become exact zero modes.
    """
    n, N = block.entries.shape[0], block.layers
    u = block.weights.reshape(N, -1)
    u = u / u.sum(axis=1, keepdims=True)
    rows = block.entries.reshape(N, -1, n)
    A = rows - u[:, None, :] @ rows
    cols = A.reshape(n, N, -1)
    cols -= cols.sum(axis=2, keepdims=True) * u
    return A.reshape(n, n)


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
