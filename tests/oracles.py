"""Reference implementations that only the tests call: exact integer
combination sums, the asymptotic limit polynomials, the determinant
recursion, the per-parity mode route, the hyperbolic structure vectors, the
representation-formula potential, the material and mode-to-material
helpers, and high-precision mode values."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from plasmonstack.charpoly import _TINY, CharPoly, build_charpoly
from plasmonstack.errors import ContrastError, CrossValidationError
from plasmonstack.field import solve_densities
from plasmonstack.geometry import EllipticPoint, LayerStack
from plasmonstack.materials import lambda_from_sigma, resonant_frequency, sigma_from_lambda
from plasmonstack.npcore import EVEN, ODD, _check_order, _sign, gpm_entries, single_layer_action
from plasmonstack.spectrum import BOUND_SLACK, CROSS_ROUTE_TOL, IMAG_TOL, ModeSet, PlasmonMode, _resonant_sigma


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
    return CharPoly(sign=+1, coeffs=coeffs)


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


def certify_one_parity(stack, n, parity, values, cross_tol, bound_slack):
    """One parity's bound gate and Sturm-count certificate of ``values`` (N
    reals, descending), from its own recursion; raises CrossValidationError
    with the messages of :func:`plasmonstack.spectrum.modes`."""
    N = stack.N
    excess = np.abs(values).max() - 0.5
    if excess > bound_slack:
        raise CrossValidationError(f"{parity} mode leaves the spectral interval by {excess:.3e}")
    ascending = values[::-1]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(ascending) > 2.0 * cross_tol) + 1, [N]))
    starts, ends = bounds[:-1], bounds[1:]
    edge = 0.5 + bound_slack
    probes = np.concatenate(([-edge, edge], ascending[starts] - cross_tol, ascending[ends - 1] + cross_tol))
    counts = sturm_count_one_parity(stack, probes, n, parity)
    outside = counts[0] + N - counts[1]
    if outside:
        raise CrossValidationError(
            f"{parity}: {outside} of {N} polynomial roots are not real or leave "
            f"[-1/2, 1/2] by more than {bound_slack:.1e}"
        )
    below, above = counts[2:].reshape(2, -1)
    missed = np.flatnonzero((below != starts) | (above != ends))
    if missed.size:
        i = missed[0]
        raise CrossValidationError(
            f"{parity} route disagreement: the Sturm count places {above[i] - below[i]} roots "
            f"within {cross_tol:.1e} of the {ends[i] - starts[i]} eigenvalues in "
            f"[{ascending[starts[i]]:.17g}, {ascending[ends[i] - 1]:.17g}]"
        )


def per_parity_modes(
    stack: LayerStack, n, sigma0=1.0, *, cross_tol=CROSS_ROUTE_TOL, imag_tol=IMAG_TOL, bound_slack=BOUND_SLACK
):
    """The mode route one parity at a time: per parity one NP build, one
    ``eigvals`` call, the realness gate and one recursion.
    :func:`plasmonstack.spectrum.modes` must return the same values bit for
    bit, or refuse with the same message."""
    per_parity = {}
    for parity in (EVEN, ODD):
        eigs = np.linalg.eigvals(-np_matrix(stack, n, parity))
        worst = np.abs(eigs.imag).max(initial=0.0)
        if worst > imag_tol:
            raise CrossValidationError(
                f"{parity} eigenvalues: imaginary part {worst:.3e} exceeds realness tolerance {imag_tol:.1e}"
            )
        values = np.sort(eigs.real)[::-1]
        certify_one_parity(stack, n, parity, values, cross_tol, bound_slack)
        per_parity[parity] = tuple(
            PlasmonMode(float(lam), parity, n, _resonant_sigma(float(lam), sigma0), rank)
            for rank, lam in enumerate(values, start=1)
        )
    return ModeSet(stack=stack, n=n, sigma0=sigma0, even_modes=per_parity[EVEN], odd_modes=per_parity[ODD])


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


def density_summation_potential(stack, lam, H, point: EllipticPoint, *, densities=None):
    """u - H via direct summation of single-layer contributions.

    Independent of the region formula: sums phi_k times the single-layer
    action of each interface at the evaluation radius.  Used as the
    representation-formula cross-check.
    """
    if densities is None:
        densities = solve_densities(stack, lam, H)
    total = 0.0j
    for n, parity, a in H.components():
        coeffs = densities.phi[(n, parity)] * single_layer_action(n, parity, stack.xi_array, point.xi)
        angular = np.cos if parity == EVEN else np.sin
        total += coeffs.sum() * angular(n * point.eta)
    return complex(total)


def mode_to_material(mode: PlasmonMode, sigma0: float, drude=None):
    """Resonant shell conductivity for a mode, plus the lossless Drude
    frequency when Drude parameters are supplied.

    Returns (sigma1, omega_or_None).
    """
    sigma1 = sigma_from_lambda(mode.lambda_root, sigma0)
    omega = None
    if drude is not None:
        omega = resonant_frequency(mode.lambda_root, drude, sigma0)
    return sigma1, omega


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


#: background conductivity conventionally paired with the DrudeParams
#: defaults, (1.33)^2 sigma_prime
DEFAULT_SIGMA0 = 1.33**2 * 9e-12


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
            raise ContrastError(f"sigma0 must be positive, got {self.sigma0}")
        if self.sigma_star <= 0:
            raise ContrastError(f"sigma_star must be positive, got {self.sigma_star}")
        if self.delta < 0:
            raise ContrastError(f"delta must be >= 0, got {self.delta}")

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


def min_order(H):
    """Lowest order of a BackgroundField; its perturbation decays like
    exp(-min_order xi) outside the stack."""
    return min(n for n, _, _ in H.terms)
