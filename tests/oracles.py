"""Reference implementations that only the tests call, grouped by the route
each one checks:

* the characteristic polynomial and mode route: exact integer combination
  sums, the asymptotic limit polynomials, the determinant recursion and the
  per-parity mode route;
* the npcore actions: the single-layer and normal-derivative actions per
  parity, and the hyperbolic structure vectors;
* the field: the background and total potentials and gradients, the
  representation-formula potential and the lowest background order;
* the materials: the contrast map, the lossy Drude conductivity, the
  material configuration and the mode-to-material helper;
* the geometry: the metric factor and the analytic ellipse curvature;
* the Nystrom block operators: block-by-block assembly with one kernel
  per curve and one per pair of curves, constant deflation by a dense
  projector, the quadrature adjoint and the identity residuals of whole
  matrices, and the eigenvalue containment of the modes;
* high-precision mode values.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from plasmonstack.bie import assemble_block_np, curves_from_spec, kress_log_weights
from plasmonstack.charpoly import _TINY, CharPoly, build_charpoly
from plasmonstack.errors import CrossValidationError
from plasmonstack.field import _HARMONIC, BackgroundField, perturbed_gradient, perturbed_potential, solve_densities
from plasmonstack.geometry import EllipticPoint, LayerStack
from plasmonstack.materials import resonant_frequency, sigma_from_lambda
from plasmonstack.npcore import EVEN, ODD, _check_order, _exponentials, _normal_derivative, _sign, gpm_entries
from plasmonstack.spectrum import TOLERANCES, ModeSet, modes


# --- characteristic polynomial and mode route --------------------------------


@lru_cache(maxsize=None)
def _h_row(N):
    """Row (h_{N,0}, ..., h_{N,N}) of alternating-sign combination sums.

    Built from h_{N,k} = h_{N-1,k} + (-1)^N h_{N-1,k-1} (split a k-subset of
    {1..N} on whether it contains N), exact integer arithmetic throughout.
    """
    if N == 0:
        return (1,)
    prev = _h_row(N - 1)
    sgn = 1 if N % 2 == 0 else -1
    row = [1]
    for k in range(1, N + 1):
        keep = prev[k] if k <= N - 1 else 0
        row.append(keep + sgn * prev[k - 1])
    return tuple(row)


def h_coeff(N, k):
    """Exact integer h_{N,k} = sum of (-1)^(i_1+...+i_k) over ascending
    k-tuples from {1..N}."""
    if not 0 <= k <= N:
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={N}")
    return _h_row(N)[k]


def disk_limit_poly(stack: LayerStack, n) -> CharPoly:
    """Radial-limit polynomial: the even-k coefficient part of the even-parity
    polynomial, with odd-k coefficients dropped.

    For stacks xi_k = xi_tilde + c_k the full polynomial equals this plus an
    O(exp(-2 n xi_tilde)) remainder; the limit polynomial is identical for
    both parities, so the even/odd mode splitting closes at that rate.
    """
    base = build_charpoly(stack, n)[EVEN]
    coeffs = base.coeffs.copy()
    coeffs[1::2] = 0.0
    return CharPoly(coeffs=coeffs)


def thin_strip_limit(N, sign):
    """Monic limit polynomial of a stack with radii xi_k = eps * rho_k as eps -> 0.

    Equals (lambda^2 - 1/4)^floor(N/2) * (lambda -+ 1/2)^(N mod 2) expanded
    (minus for sign +1, plus for sign -1); the roots of the exact polynomial
    converge to this root multiset.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    coeffs = np.array([1.0])
    for _ in range(N // 2):
        coeffs = np.convolve(coeffs, [1.0, 0.0, -0.25])
    if N % 2:
        coeffs = np.convolve(coeffs, [1.0, -sign * 0.5])
    return coeffs


def recursion_determinant(stack: LayerStack, lam, n, parity, i=1):
    """Determinant of the trailing (i..N, i..N) block of the order-n GPM via
    the two-term recursion

        D_i = (lam_i + lam_{i+1} E_i) D_{i+1} - (lam_{i+1}^2 - 1/4) E_i D_{i+2},

    with E_i = exp(2 n (xi_{i+1} - xi_i)), lam_k = (-1)^(k-1) lam, D_{N+1} = 1
    and D_N = lam_N -+ (2 e^{2 n xi_N})^-1.  For i = 1 this equals the full
    determinant, i.e. (-1)^floor(N/2) times the characteristic polynomial.
    """
    _check_order(n)
    diag_sign = _sign(parity)
    N = stack.N
    if not 1 <= i <= N:
        raise ValueError(f"block start must satisfy 1 <= i <= {N}, got {i}")
    xi = stack.xi

    def lam_k(k):  # 1-indexed alternation
        return lam if k % 2 == 1 else -lam

    d_after = 1.0 + 0.0 * lam  # promotes to complex with lam
    d_cur = lam_k(N) - diag_sign * 0.5 * math.exp(-2.0 * n * xi[N - 1])
    for k in range(N - 1, i - 1, -1):
        E = math.exp(2.0 * n * (xi[k] - xi[k - 1]))
        d_new = (lam_k(k) + lam_k(k + 1) * E) * d_cur - (lam_k(k + 1) ** 2 - 0.25) * E * d_after
        d_after, d_cur = d_cur, d_new
    return d_cur


def np_matrix(stack: LayerStack, n, parity):
    """The order-n NP matrix of one parity, D @ M(0) with D = diag((-1)^i)
    and M the parity's GPM, built on its own."""
    alt = (-1.0) ** np.arange(stack.N)
    return alt[:, None] * gpm_entries(stack, 0.0, n, parity)


def sturm_count_one_parity(stack: LayerStack, lam, n, parity):
    """Roots of one parity's characteristic polynomial below each probe in
    ``lam``, from that parity's own run of the ratio recursion (see
    :func:`plasmonstack.charpoly.sturm_count`, which runs both at once)."""
    _check_order(n)
    diag_sign = _sign(parity)
    N = stack.N
    xi = stack.xi_array
    lam = np.asarray(lam, dtype=float)
    probes = lam.reshape(-1)
    k = np.arange(N - 1, 0, -1)
    E = np.exp(2.0 * n * (xi[k] - xi[k - 1]))
    lam_sign = np.where(k % 2 == 1, 1.0, -1.0)
    a = np.multiply.outer(lam_sign * (1.0 - E), probes)
    c = np.multiply.outer(E, probes * probes - 0.25)
    q = np.empty((N, probes.size))
    q[0] = (1.0 if N % 2 == 1 else -1.0) * probes - diag_sign * 0.5 * math.exp(-2.0 * n * xi[-1])
    for j in range(1, N):
        prev = q[j - 1]
        np.subtract(a[j - 1], c[j - 1] / np.where(prev == 0.0, _TINY, prev), out=q[j])
    q[1::2] *= -1.0
    changes = np.count_nonzero(q < 0, axis=0)
    return (changes if N % 2 == 0 else N - changes).reshape(lam.shape)


def certify_one_parity(stack, n, parity, values, cross, bound):
    """One parity's bound gate and Sturm-count certificate of ``values`` (N
    reals, descending), from its own recursion; raises CrossValidationError
    with the messages of :func:`plasmonstack.spectrum.modes`."""
    N = stack.N
    excess = np.abs(values).max() - 0.5
    if not excess <= bound:
        raise CrossValidationError(f"{parity} mode leaves the spectral interval by {excess:.3e}")
    ascending = values[::-1]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(ascending) > 2.0 * cross) + 1, [N]))
    starts, ends = bounds[:-1], bounds[1:]
    edge = 0.5 + bound
    probes = np.concatenate(([-edge, edge], ascending[starts] - cross, ascending[ends - 1] + cross))
    counts = sturm_count_one_parity(stack, probes, n, parity)
    outside = counts[0] + N - counts[1]
    if outside:
        raise CrossValidationError(
            f"{parity}: {outside} of {N} polynomial roots are not real or leave "
            f"[-1/2, 1/2] by more than {bound:.1e}"
        )
    below, above = counts[2:].reshape(2, -1)
    missed = np.flatnonzero((below != starts) | (above != ends))
    if missed.size:
        i = missed[0]
        raise CrossValidationError(
            f"{parity} route disagreement: the Sturm count places {above[i] - below[i]} roots "
            f"within {cross:.1e} of the {ends[i] - starts[i]} eigenvalues in "
            f"[{ascending[starts[i]]:.17g}, {ascending[ends[i] - 1]:.17g}]"
        )


def per_parity_modes(
    stack: LayerStack,
    n,
    *,
    cross=TOLERANCES["cross"],
    imag=TOLERANCES["imag"],
    bound=TOLERANCES["bound"],
):
    """The mode route one parity at a time: per parity one NP build, one
    ``eigvals`` call, the realness gate and one recursion.
    :func:`plasmonstack.spectrum.modes` must return the same values bit for
    bit, or refuse with the same message."""
    per_parity = []
    for parity in (EVEN, ODD):
        eigs = np.linalg.eigvals(-np_matrix(stack, n, parity))
        worst = np.abs(eigs.imag).max(initial=0.0)
        if not worst <= imag:
            raise CrossValidationError(
                f"{parity} eigenvalues: imaginary part {worst:.3e} exceeds realness tolerance {imag:.1e}"
            )
        values = np.sort(eigs.real)[::-1]
        certify_one_parity(stack, n, parity, values, cross, bound)
        per_parity.append(values)
    return ModeSet(np.array(per_parity))


# --- npcore actions ----------------------------------------------------------


def single_layer_action(n, parity, source_xi, eval_xi):
    """Coefficient of cos(n eta) (even) or sin(n eta) (odd) in the single-layer
    potential of the weighted Fourier density on the ellipse xi = source_xi,
    evaluated at elliptic radius eval_xi (elementwise over array radii).

    Inside (eval <= source) the even coefficient is -cosh(n eval)/(n e^{n source});
    outside it is -cosh(n source)/(n e^{n eval}); odd swaps cosh for sinh.  The
    two branches agree at eval == source (the single layer is continuous).
    """
    near, far = _exponentials(n, source_xi, eval_xi)
    return -(near + _sign(parity) * far) / (2.0 * n)


def normal_derivative_action(n, parity, source_xi, eval_xi):
    """The normal-derivative action of one parity (see
    :func:`plasmonstack.npcore._normal_derivative` for its branches); a
    scalar for scalar radii."""
    return _normal_derivative(_sign(parity), n, source_xi, eval_xi)[()]


@dataclass(frozen=True, eq=False)
class StructureVectors:
    """Hyperbolic structure vectors of a stack at order n.

    s_k = sinh(n xi_k), c_k = cosh(n xi_k), and the alternating-sign
    variants s_alt_k = (-1)^k s_k, c_alt_k = (-1)^k c_k (0-indexed k).
    """

    n: int
    s: np.ndarray
    c: np.ndarray
    s_alt: np.ndarray
    c_alt: np.ndarray


def structure_vectors(stack: LayerStack, n: int) -> StructureVectors:
    xi = stack.xi_array
    signs = (-1.0) ** np.arange(stack.N)
    s = np.sinh(n * xi)
    c = np.cosh(n * xi)
    return StructureVectors(n=n, s=s, c=c, s_alt=signs * s, c_alt=signs * c)


# --- field -------------------------------------------------------------------


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
    # chain rule: x_xi = (p, q) and, as the map is conformal, x_eta = (-q, p)
    p = R * math.sinh(point.xi) * math.cos(point.eta)
    q = R * math.cosh(point.xi) * math.sin(point.eta)
    g2 = p**2 + q**2
    return np.array(((d_xi * p - d_eta * q) / g2, (d_xi * q + d_eta * p) / g2))


def total_potential(stack, lam, H, point, *, region=None):
    """u = H + (u - H) at a point (one-sided on interfaces via ``region``)."""
    return background_potential(H, point) + perturbed_potential(stack, lam, H, point, region=region)


def total_gradient(stack, lam, H, point, *, region=None):
    """Cartesian gradient of the total potential u at a point."""
    return background_gradient(H, point, stack.R) + perturbed_gradient(stack, lam, H, point, region=region)


def density_summation_potential(stack, lam, H, point: EllipticPoint):
    """u - H via direct summation of single-layer contributions.

    Independent of the region formula: sums phi_k times the single-layer
    action of each interface at the evaluation radius.  Used as the
    representation-formula cross-check.
    """
    densities = solve_densities(stack, lam, H)
    total = 0.0j
    for n, parity, a in H.components():
        coeffs = densities[(n, parity)] * single_layer_action(n, parity, stack.xi_array, point.xi)
        angular = np.cos if parity == EVEN else np.sin
        total += coeffs.sum() * angular(n * point.eta)
    return complex(total)


def min_order(H):
    """Lowest order of a BackgroundField; its perturbation decays like
    exp(-min_order xi) outside the stack."""
    return min(n for n, _, _ in H.terms)


# --- materials ---------------------------------------------------------------


def lambda_from_sigma(sigma1, sigma0):
    """Contrast parameter lambda = (sigma1 + sigma0) / (2 (sigma1 - sigma0))."""
    if sigma1 == sigma0:
        raise ValueError("sigma1 == sigma0 gives no contrast (lambda is singular)")
    return (sigma1 + sigma0) / (2.0 * (sigma1 - sigma0))


#: the paper's Drude parameters, as a config's drude block
PAPER_DRUDE = {"sigma_prime": 9e-12, "omega_p": 2e15}

#: background conductivity conventionally paired with the paper's Drude
#: parameters, (1.33)^2 sigma_prime
DEFAULT_SIGMA0 = 1.33**2 * PAPER_DRUDE["sigma_prime"]


def drude_sigma(omega, sigma_prime, omega_p, tau):
    """Drude conductivity sigma_prime (1 - omega_p^2 / (omega (omega + i tau)))
    at angular frequency omega (> 0) with damping rate tau (>= 0; 0 is lossless)."""
    if omega <= 0:
        raise ValueError(f"frequency must be positive, got {omega}")
    return sigma_prime * (1.0 - omega_p**2 / (omega * complex(omega, tau)))


@dataclass(frozen=True)
class MaterialConfig:
    """Background/shell conductivities for an alternating layer structure.

    Odd layers carry sigma1 = -sigma_star + i*delta, even layers sigma0.
    """

    sigma0: float = 1.0
    sigma_star: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if self.sigma_star <= 0:
            raise ValueError(f"sigma_star must be positive, got {self.sigma_star}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")

    @property
    def sigma1(self):
        return complex(-self.sigma_star, self.delta)

    @property
    def contrast(self):
        return lambda_from_sigma(self.sigma1, self.sigma0)

    def layer_sigma(self, k):
        """Conductivity of region k (0 = exterior/background, 1 = outer shell, ...)."""
        return self.sigma1 if k % 2 == 1 else complex(self.sigma0)


def lossless_limit_lambda(sigma_star, sigma0):
    """Contrast in the delta -> 0 limit: (sigma0 - sigma*) / (-2 (sigma0 + sigma*))."""
    return (sigma0 - sigma_star) / (-2.0 * (sigma0 + sigma_star))


def mode_to_material(lam, sigma0: float, drude=None):
    """Resonant shell conductivity for a mode value ``lam``, plus the lossless
    Drude frequency when a drude block ({"sigma_prime", "omega_p"}) is supplied.

    Returns (sigma1, omega_or_None).
    """
    sigma1 = sigma_from_lambda(lam, sigma0)
    omega = None
    if drude is not None:
        omega = resonant_frequency(sigma1, **drude)
    return sigma1, omega


# --- geometry ----------------------------------------------------------------


def metric_factor(xi, eta, R):
    """Scale factor gamma(xi, eta) = R * sqrt(sinh(xi)^2 + sin(eta)^2).

    The arclength element on a constant-xi curve is ds = gamma * d(eta) and
    the outward normal derivative is gamma**-1 * d/d(xi).
    """
    return R * np.sqrt(np.sinh(xi) ** 2 + np.sin(eta) ** 2)


def curvature(xi, eta, R):
    """Curvature of the constant-``xi`` ellipse (xi > 0) at angular position ``eta``:

    kappa = cosh(xi) sinh(xi) / (R * (sinh(xi)^2 + sin(eta)^2)^(3/2)).

    The maximum over eta is cosh(xi)/(R sinh(xi)^2), attained at the
    vertices eta in {0, pi} on the semi-major axis.
    """
    return np.cosh(xi) * np.sinh(xi) / (R * (np.sinh(xi) ** 2 + np.sin(eta) ** 2) ** 1.5)


# --- Nystrom block operators -------------------------------------------------


def _pairwise(target, source):
    diff = target.x[:, None, :] - source.x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    return diff, r2


def kstar_block(curve):
    """Adjoint-double-layer matrix of one curve, kappa/(4 pi) on the diagonal."""
    diff, r2 = _pairwise(curve, curve)
    np.fill_diagonal(r2, 1.0)
    num = np.einsum("ijk,ik->ij", diff, curve.normal)
    K = num / (2 * np.pi * r2)
    np.fill_diagonal(K, curve.curvature / (4 * np.pi))
    return K * curve.weights[None, :]


def kstar_cross(target, source):
    diff, r2 = _pairwise(target, source)
    num = np.einsum("ijk,ik->ij", diff, target.normal)
    return num / (2 * np.pi * r2) * source.weights[None, :]


def single_layer_block(curve):
    """Single-layer matrix of one curve by the log-split rule."""
    diff, r2 = _pairwise(curve, curve)
    tt = curve.t[:, None] - curve.t[None, :]
    s2 = 4 * np.sin(tt / 2) ** 2
    np.fill_diagonal(r2, 1.0)
    np.fill_diagonal(s2, 1.0)
    smooth = np.log(r2 / s2) / (4 * np.pi)
    np.fill_diagonal(smooth, np.log(curve.speed) / (2 * np.pi))
    return (kress_log_weights(curve.M) / (4 * np.pi) + curve.h * smooth) * curve.speed[None, :]


def single_layer_cross(target, source):
    _, r2 = _pairwise(target, source)
    return np.log(r2) / (4 * np.pi) * source.weights[None, :]


def blockwise_operators(curves):
    """(K* block operator entries, S block operator entries, weights) of nested
    curves with one node count, assembled block by block: the single-curve
    kernel on each diagonal block, the curve-to-curve kernel off it, and block
    rows 1, 3, ... of the K* operator negated; the reference for
    ``assemble_block_np`` and ``assemble_block_s``."""
    K = np.block([[kstar_block(ck) if k == l else kstar_cross(ck, cl) for l, cl in enumerate(curves)]
                  for k, ck in enumerate(curves)])
    S = np.block([[single_layer_block(ck) if k == l else single_layer_cross(ck, cl) for l, cl in enumerate(curves)]
                  for k, ck in enumerate(curves)])
    M = curves[0].M
    for k in range(0, len(curves), 2):
        K[k * M:(k + 1) * M] *= -1.0
    return K, S, np.concatenate([c.weights for c in curves])


def dense_deflation(block):
    """P A P of a :class:`plasmonstack.bie.BlockOperator`, with the dense
    projector P = I - sum_k 1_k u_k^T and u_k = w_k / sum w_k on the nodes
    kM ... (k+1)M - 1 of curve k; the reference for ``deflate_constants``."""
    A = block.entries
    P = np.eye(A.shape[0])
    M = A.shape[0] // block.layers
    for k in range(block.layers):
        sl = slice(k * M, (k + 1) * M)
        wk = block.weights[sl]
        P[sl, sl] -= np.outer(np.ones(M), wk) / wk.sum()
    return P @ A @ P


def discrete_adjoint(entries, weights):
    """Adjoint with respect to the quadrature inner product: W^-1 A^T W."""
    return entries.T * weights[None, :] / weights[:, None]


def dense_calderon_residual(Kst, S):
    """||S K* - K S|| / (||S|| ||K*||) with K the whole :func:`discrete_adjoint`
    of K* and the whole defect formed; the reference for
    ``calderon_residual``."""
    Kadj = discrete_adjoint(Kst.entries, Kst.weights)
    defect = S.entries @ Kst.entries - Kadj @ S.entries
    return float(np.linalg.norm(defect) / (np.linalg.norm(S.entries) * np.linalg.norm(Kst.entries)))


def dense_self_adjointness(Kst, S):
    """||B - B^T|| / ||B|| of the whole form matrix B = W (-S) K*; the
    reference for ``self_adjointness_check``."""
    B = Kst.weights[:, None] * (-(S.entries @ Kst.entries))
    return float(np.linalg.norm(B - B.T) / np.linalg.norm(B))


def mode_containment(spec, M, orders):
    """Worst distance from a mode of orders 1 .. ``orders`` to the nearest of
    all N M eigenvalues of the confocal curves' block operator at M nodes
    (which are minus the modes), from a dense eigensolve: the reference for
    the paired gap of ``bie-validate``, which matches each mode only with
    the eigenvalues of its own order and parity."""
    ev = np.linalg.eigvals(assemble_block_np(curves_from_spec(spec, M)).entries)
    stack = LayerStack(R=spec["R"], xi=tuple(spec["xi"]))
    return max(float(np.abs(ev + lam).min()) for n in range(1, orders + 1) for lam in modes(stack, n).values.ravel())


# --- high precision ----------------------------------------------------------


def precise_roots(stack: LayerStack, n, parity, guesses, digits=60):
    """Roots of the parity's characteristic polynomial to ``digits`` digits
    (needs mpmath), one per float guess: the determinant recursion is
    evaluated in that precision and its sign change bracketed within 1e-10
    of the guess."""
    import mpmath as mp

    with mp.workdps(digits):
        xi = [mp.mpf(x) for x in stack.xi]
        diag = 1 if parity == EVEN else -1

        def det(lam):
            # recursion_determinant, i = 1, with lam_k = (-1)^(k-1) lam
            lam_k = [lam if k % 2 else -lam for k in range(len(xi) + 1)]
            after, cur = mp.mpf(1), lam_k[-1] - diag * mp.exp(-2 * n * xi[-1]) / 2
            for k in range(len(xi) - 1, 0, -1):
                E = mp.exp(2 * n * (xi[k] - xi[k - 1]))
                after, cur = cur, (lam_k[k] + lam_k[k + 1] * E) * cur - (lam * lam - mp.mpf(1) / 4) * E * after
            return cur

        roots = []
        for guess in guesses:
            bracket = (mp.mpf(float(guess)) - mp.mpf("1e-10"), mp.mpf(float(guess)) + mp.mpf("1e-10"))
            if det(bracket[0]) * det(bracket[1]) >= 0:
                raise ValueError(f"no sign change of the {parity} determinant within 1e-10 of {guess!r}")
            roots.append(mp.findroot(det, bracket, solver="anderson"))
        return roots
