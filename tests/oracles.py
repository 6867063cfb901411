"""Reference implementations that only the tests call: exact integer
combination sums, the asymptotic limit polynomials, the hyperbolic
structure vectors, the mode-to-material mapping, and high-precision mode
values."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from plasmonstack.charpoly import CharPoly, build_charpoly
from plasmonstack.geometry import LayerStack
from plasmonstack.materials import resonant_frequency, sigma_from_lambda
from plasmonstack.npcore import EVEN
from plasmonstack.spectrum import PlasmonMode


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
    return CharPoly(sign=+1, n=n, xi=stack.xi, coeffs=coeffs)


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
