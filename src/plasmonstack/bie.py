"""Nystrom discretization of the block interface operators on general smooth
nested curves: an independent cross-validation route for the analytic
confocal results (entry by entry, through a projection onto per-curve
harmonics), the spectral bound, and the symmetrization identity.

Each operator has one row kernel, which evaluates a slice t of the M nodes x
of one curve x(t), t_j = 2 pi j / M, against all N M source nodes y of the
stack:

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

Working set: the row kernels fill an operator ROW_CHUNK target nodes at a
time, and the identity residuals are summed over at least twelve row
blocks, so their temporaries stay within a quarter of one (N M, N M)
matrix.  A bie-validate run holds at most two such float64 matrices at
once: K* and S in the residuals, then K* and either the column update of
the in-place deflation or LAPACK's copy in the eigensolves.  The one
exception is a single circle, whose K* and S spectra are taken while both
are held: three matrices of one curve.  Kernel temporaries add
ROW_CHUNK x N M entries.  The harmonic projection of the mode check solves
nothing; beside K* it holds one (N M, 2 orders) image of one curve's
harmonics at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveError

MIN_NODES = 8
#: target nodes per row-kernel call: bounds the kernels' temporaries to
#: ROW_CHUNK x N M entries each
ROW_CHUNK = 64
#: largest invariance residual of :func:`harmonic_restriction` that a
#: bie-validate run accepts: roundoff scale, since on confocal curves the
#: harmonics span an invariant subspace of K* at every node count (measured
#: <= 1.6e-14 for every order below M / 2, M <= 512, radii up to 6)
INVARIANCE_TOL = 1e-12
#: node coordinates must stay below this magnitude: then differences stay
#: below 2^510 and 2 pi |x - y|^2 below 2^1024, so the kernels stay finite
MAX_COORDINATE = 2.0**509


def _require_finite(M, *named):
    for name, value in named:
        if not np.all(np.isfinite(value)):
            raise CurveError(f"{name} of the {M}-node curve are not finite in float64")


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
        # a curve past the float64 range shows as inf or NaN below, and is refused by name
        with np.errstate(all="ignore"):
            speed = np.hypot(self.dx[:, 0], self.dx[:, 1])
            normal = np.column_stack([self.dx[:, 1], -self.dx[:, 0]]) / speed[:, None]
            curv = (self.dx[:, 0] * self.ddx[:, 1] - self.dx[:, 1] * self.ddx[:, 0]) / speed**3
            area = 0.5 * np.sum(self.x[:, 0] * self.dx[:, 1] - self.x[:, 1] * self.dx[:, 0]) * (2 * np.pi / M)
        _require_finite(M, ("node positions", self.x), ("first derivatives", self.dx),
                        ("second derivatives", self.ddx))
        if np.any(speed <= 0):
            raise CurveError("degenerate parametrization: zero-speed node")
        _require_finite(M, ("speeds", speed), ("normals", normal), ("curvatures", curv))
        if area <= 0:
            raise CurveError("parametrization must be counterclockwise (positive area)")
        if np.abs(self.x).max() >= MAX_COORDINATE:
            raise CurveError(f"node positions of the {M}-node curve reach 2^509, where its kernels overflow float64")
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
        t = np.arange(M) * (2 * np.pi / M)
        with np.errstate(all="ignore"):  # an overflowing ellipse is refused by the constructor
            a, b = R * np.cosh(xi), R * np.sinh(xi)
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
    R[i, j] = r[|i - j|] depends on |i - j| only, so R is returned as a
    read-only view of the 2M - 1 values r[M-1], ..., r[1], r[0], r[1], ...,
    r[M-1]: a row slice costs no copy.
    """
    p = M // 2
    ang = 2 * np.pi * np.arange(M) / M
    first = np.zeros(M)
    for m in range(1, p):
        first += np.cos(m * ang) / m
    first = -(4 * np.pi / M) * first - (2 * np.pi / (M * p)) * np.cos(p * ang)
    # window w starts at r[M-1-w], so row i is window M-1-i
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([first[:0:-1], first]), M)[::-1]


def _kstar_rows(curve, t, dx, dy, r2, own, weights):
    """K* rows of the nodes t of one curve: <x - y, nu(x)> w_y / (2 pi r2),
    and kappa / (4 pi) on its own diagonal."""
    K = (dx * curve.normal[t, 0:1] + dy * curve.normal[t, 1:2]) / (2 * np.pi * r2)
    np.fill_diagonal(K[:, own.start + t.start:], curve.curvature[t] / (4 * np.pi))
    return K * weights


def _single_layer_rows(curve, t, dx, dy, r2, own, weights, kress):
    """S rows of the nodes t of one curve: ln(r2) w_y / (4 pi), and the
    log-split rule with ``kress`` = :func:`kress_log_weights` on its own block."""
    S = np.log(r2) / (4 * np.pi) * weights
    tt = curve.t[t, None] - curve.t[None, :]
    s2 = 4 * np.sin(tt / 2) ** 2
    np.fill_diagonal(s2[:, t.start:], 1.0)
    smooth = np.log(r2[:, own] / s2) / (4 * np.pi)
    np.fill_diagonal(smooth[:, t.start:], np.log(curve.speed[t]) / (2 * np.pi))
    S[:, own] = (kress[t] / (4 * np.pi) + curve.h * smooth) * curve.speed
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


def _assemble_block(curves, rows, *tables) -> BlockOperator:
    """Fills the rows of curve k, ROW_CHUNK target nodes t at a time, with
    rows(curve k, t, dx, dy, r2, own, weights, *shared): the differences
    x - y and r2 = dx^2 + dy^2 (1 on the curve's own diagonal) from the nodes
    x = curve.x[t] to all N M source nodes y, the curve's own column slice
    and the source weights.  ``shared`` holds each table(M), built once per
    assembly.  Curves must be nested, outermost first, with one M."""
    _validate_nesting(curves)
    counts = sorted({c.M for c in curves})
    if len(counts) > 1:
        raise CurveError(f"curves must share one node count, got {counts}")
    N, M = len(curves), counts[0]
    x = np.concatenate([c.x for c in curves])
    weights = np.concatenate([c.weights for c in curves])
    shared = [table(M) for table in tables]
    A = np.empty((N * M, N * M))
    for k, curve in enumerate(curves):
        own = slice(k * M, (k + 1) * M)
        for start in range(0, M, ROW_CHUNK):
            t = slice(start, min(start + ROW_CHUNK, M))
            dx = curve.x[t, 0:1] - x[:, 0]
            dy = curve.x[t, 1:2] - x[:, 1]
            r2 = dx * dx + dy * dy
            np.fill_diagonal(r2[:, own.start + start:], 1.0)
            if np.any(r2 == 0.0):
                raise CurveError("node coincidence: two distinct nodes map to one point")
            A[own.start + start:own.start + t.stop] = rows(curve, t, dx, dy, r2, own, weights, *shared)
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
    return _assemble_block(curves, _single_layer_rows, kress_log_weights)


def deflate_constants(block: BlockOperator):
    """Project out the per-curve constant densities (weighted mean-zero sense).

    Overwrites ``block.entries`` with P A P and returns it, with
    P = I - sum_k 1_k u_k^T, u_k = w_k / sum(w_k): one rank-one update per
    curve on the rows of the (N, M, n) view, then on the columns of the
    (n, N, M) view.  The constants become exact zero modes.  The block is
    consumed: no second (N M, N M) matrix is made.
    """
    n, N = block.entries.shape[0], block.layers
    u = block.weights.reshape(N, -1)
    u = u / u.sum(axis=1, keepdims=True)
    rows = block.entries.reshape(N, -1, n)
    rows -= u[:, None, :] @ rows
    cols = block.entries.reshape(n, N, -1)
    cols -= cols.sum(axis=2, keepdims=True) * u
    return block.entries


def _row_blocks(block: BlockOperator):
    """The 4 max(N, 3) row slices of nearly equal size that the identity
    residuals stream over: quarters of curve k's rows kM ... (k+1)M - 1 when
    N >= 3.  At least twelve keep their temporaries within a quarter of one
    (N M, N M) matrix."""
    n, parts = block.entries.shape[0], 4 * max(block.layers, 3)
    return [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def calderon_residual(Kst: BlockOperator, S: BlockOperator) -> float:
    """Relative defect of the symmetrization identity S K* = K S.

    ``Kst`` and ``S`` are :func:`assemble_block_np` and :func:`assemble_block_s`
    of the same curves; K = W^-1 K*^T W is the discrete quadrature-adjoint of
    K*.  Frobenius norms; decreases under node refinement on analytic curves
    until roundoff.  The defect is formed one block row I at a time:
    S[I] K* - (K*[:, I] W)^T S / w[I].
    """
    K = Kst.entries
    # power-of-two scales change no digit of the ratio: one near 1 / max(w)
    # keeps K* W in range, one near 1 / max|S| keeps the squared norms finite
    # when the curves are large (S near 1e153 at xi = 350)
    w = Kst.weights * 2.0 ** -np.frexp(Kst.weights.max())[1]
    scale = 2.0 ** -np.frexp(max(S.entries.max(), -S.entries.min()))[1]
    square = size = 0.0
    for I in _row_blocks(Kst):
        rows = S.entries[I] * scale
        size += np.vdot(rows, rows)
        # the defect times scale; rows is freed before the second product's temporaries
        defect = rows @ K
        del rows
        defect -= (K[:, I] * w[:, None]).T @ S.entries / (w[I, None] / scale)
        square += np.vdot(defect, defect)
    return float(np.sqrt(square) / (np.sqrt(size) * np.linalg.norm(K)))


def self_adjointness_check(Kst: BlockOperator, S: BlockOperator) -> float:
    """Relative asymmetry of the bilinear form <phi, (-S) K* psi>_w.

    The form matrix is B = W (-S) K*; self-adjointness of the block operator
    in the twisted inner product makes B symmetric up to quadrature error.
    B is formed one pair of blocks B_IJ = -w_I S[I] K*[:, J], I <= J, at a
    time, which makes the flops of one full product.
    """
    # power-of-two scales change no digit of the ratio and keep the squared
    # norms finite: one near 1 / max(w) when the weights are large (near 1e86
    # at xi = 200), one near 1 / max|S| when S is (near 1e153 at xi = 352)
    K, w = Kst.entries, Kst.weights * 2.0 ** -np.frexp(Kst.weights.max())[1]
    scale = 2.0 ** -np.frexp(max(S.entries.max(), -S.entries.min()))[1]
    blocks = _row_blocks(Kst)
    asym = size = 0.0
    for i, I in enumerate(blocks):
        for J in blocks[i:]:
            B_IJ = w[I, None] * ((S.entries[I] @ K[:, J]) * -scale)
            B_JI = w[J, None] * ((S.entries[J] @ K[:, I]) * -scale) if J != I else B_IJ
            gap = B_IJ - B_JI.T
            # a pair I < J stands for two blocks: of B - B^T, gap and -gap^T
            asym += (1 + (J != I)) * np.vdot(gap, gap)
            size += np.vdot(B_IJ, B_IJ) + (J != I) * np.vdot(B_JI, B_JI)
    return float(np.sqrt(asym / size))


def harmonic_restriction(block: BlockOperator, curves, orders):
    """Restriction of the block interface operator to the per-curve harmonics
    n = 1 .. ``orders``, and how far each harmonic subspace is from invariant.

    Column k of B_n holds beta_n = cos(n t) / |x'(t)| (even) or
    sin(n t) / |x'(t)| (odd) at the nodes of curve k and zeros elsewhere.
    The columns have disjoint support, so B_n^+ scales B_n^T column by
    column, and C_n = B_n^+ K* B_n is (N, N).  On confocal curves B_n spans
    an invariant subspace and C_n is the parity's matrix of
    :func:`plasmonstack.npcore.build_np`.  The residual says how far that
    holds: ||(K* B_n - B_n C_n) D_n|| / ||K*||, Frobenius norms, with D_n
    scaling the columns of B_n to unit norm.  It is the smallest relative
    change of K* that makes the span of B_n invariant, so it stays at
    roundoff where K* B_n is itself roundoff (high orders, thick stacks),
    which a share of ||K* B_n|| would not.  It works one curve k at a
    time: column k of every B_n meets only curve k's columns of K*.  Returns (C, residual) with shapes
    (orders, 2, N, N) and (orders, 2), parities in ``PARITIES`` order.
    ``block`` is read, not changed.
    """
    N, M = block.layers, curves[0].M
    angle = np.stack([c.t for c in curves])[:, :, None] * np.arange(1, orders + 1)
    # (N, M, orders, 2): each curve's harmonics at its nodes
    beta = np.stack([np.cos(angle), np.sin(angle)], axis=-1) / np.stack([c.speed for c in curves])[:, :, None, None]
    norm2 = np.einsum("ijnp,ijnp->npi", beta, beta)
    C = np.empty((orders, 2, N, N))
    square = np.zeros((orders, 2))
    for k in range(N):
        # a column slice of K* is a view that BLAS reads in place, with no copy
        image = (block.entries[:, k * M:(k + 1) * M] @ beta[k].reshape(M, -1)).reshape(N, M, orders, 2)
        C[..., k] = np.einsum("ijnp,ijnp->npi", beta, image) / norm2
        image -= beta * np.moveaxis(C[..., k], -1, 0)[:, None]
        square += np.einsum("ijnp,ijnp->np", image, image) / norm2[..., k]
    return C, np.sqrt(square) / np.linalg.norm(block.entries)


def block_np_eigenvalues(block: BlockOperator, deflated=True):
    """Eigenvalues of the (optionally constant-deflated) block interface
    operator.  ``deflated=True`` deflates ``block`` in place (see
    :func:`deflate_constants`), so the block is consumed."""
    A = deflate_constants(block) if deflated else block.entries
    return np.linalg.eigvals(A)
