"""Characteristic polynomials of the mode problem, with exact combinatorial
coefficients, a two-term determinant recursion, and asymptotic limit forms.

The degree-N polynomial for an N-layer stack at Fourier order n is

    f(lambda) = sum_{k=0..N} lambda^(N-k) / (s 2)^k * S_k,        s = +-1,

    S_k = sum over ascending index tuples (i_1 < ... < i_k) from {1..N} of
          (-1)^(i_1+...+i_k) * exp(2 n sum_l (-1)^l xi_{i_l}).

Every exponent is <= 0 for a decreasing stack (consecutive index pairs
contribute xi_{i_even} - xi_{i_odd} < 0), so each of the up-to-2^N terms
has magnitude <= 1 and coefficient accumulation cannot overflow; terms are
summed with compensated (Shewchuk) summation.  The even-parity polynomial
uses s = +1, the odd one s = -1, so the two differ only by (-1)^k on c_k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CombinatorialCapError
from .geometry import LayerStack
from .npcore import EVEN, ODD, _check_order, _check_parity

#: Largest layer count whose 2^N coefficient terms are enumerated.
ENUMERATION_CAP = 24


@dataclass(frozen=True, eq=False)
class CharPoly:
    """Monic characteristic polynomial with coefficient provenance.

    ``coeffs[k]`` multiplies lambda^(N-k); ``coeffs[0] == 1``.  ``sign`` is
    +1 for the even-parity polynomial and -1 for the odd one.
    """

    sign: int
    n: int
    xi: tuple
    coeffs: np.ndarray

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def parity(self):
        return EVEN if self.sign > 0 else ODD

    def evaluate(self, lam):
        """Horner evaluation at a (possibly complex) point or array."""
        return np.polyval(self.coeffs, lam)

    def roots(self):
        """All roots, via the companion matrix of the monic coefficients."""
        return np.roots(self.coeffs)


def _alternating_exponent_sums(xi, n):
    """S_k for k = 0..N by exhaustive enumeration (exact signs, fsum accumulation)."""
    N = len(xi)
    sums = [1.0]
    for k in range(1, N + 1):
        terms = []
        for combo in itertools.combinations(range(1, N + 1), k):
            tau = -1.0 if sum(combo) % 2 else 1.0
            expo = 0.0
            for pos, idx in enumerate(combo):
                # position 1-indexed l = pos+1 carries sign (-1)^l
                expo += xi[idx - 1] if pos % 2 else -xi[idx - 1]
            terms.append(tau * math.exp(2.0 * n * expo))
        sums.append(math.fsum(terms))
    return sums


def build_charpoly(stack: LayerStack, n) -> dict:
    """Exact-coefficient polynomials of both parities, ``{EVEN: f+, ODD: f-}``,
    for the given stack and order.

    The sums S_k are enumerated once, over all 2^N index combinations, and
    shared: c_k = S_k / (s 2)^k with s = +1 (even) or -1 (odd).  Stacks beyond
    ``ENUMERATION_CAP`` layers are rejected rather than silently running for
    minutes.
    """
    _check_order(n)
    if stack.N > ENUMERATION_CAP:
        raise CombinatorialCapError(
            f"N={stack.N} exceeds the enumeration cap {ENUMERATION_CAP} (2^N term explosion)"
        )
    sums = _alternating_exponent_sums(stack.xi, n)
    polys = {}
    for parity, sign in ((EVEN, +1), (ODD, -1)):
        coeffs = np.array([s_k / (sign * 2.0) ** k for k, s_k in enumerate(sums)])
        polys[parity] = CharPoly(sign=sign, n=n, xi=stack.xi, coeffs=coeffs)
    return polys


def recursion_determinant(stack: LayerStack, lam, n, parity, i=1):
    """Determinant of the trailing (i..N, i..N) block of the order-n GPM via
    the two-term recursion

        D_i = (lam_i + lam_{i+1} E_i) D_{i+1} - (lam_{i+1}^2 - 1/4) E_i D_{i+2},

    with E_i = exp(2 n (xi_{i+1} - xi_i)), lam_k = (-1)^(k-1) lam, D_{N+1} = 1
    and D_N = lam_N -+ (2 e^{2 n xi_N})^-1.  For i = 1 this equals the full
    determinant, i.e. (-1)^floor(N/2) times the characteristic polynomial.
    """
    _check_order(n)
    _check_parity(parity)
    N = stack.N
    if not 1 <= i <= N:
        raise ValueError(f"block start must satisfy 1 <= i <= {N}, got {i}")
    xi = stack.xi
    diag_sign = 1.0 if parity == EVEN else -1.0

    def lam_k(k):  # 1-indexed alternation
        return lam if k % 2 == 1 else -lam

    d_after = 1.0 + 0.0 * lam  # promotes to complex with lam
    d_cur = lam_k(N) - diag_sign * 0.5 * math.exp(-2.0 * n * xi[N - 1])
    for k in range(N - 1, i - 1, -1):
        E = math.exp(2.0 * n * (xi[k] - xi[k - 1]))
        d_new = (lam_k(k) + lam_k(k + 1) * E) * d_cur - (lam_k(k + 1) ** 2 - 0.25) * E * d_after
        d_after, d_cur = d_cur, d_new
    return d_cur


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
