"""Characteristic polynomials of the mode problem: exact combinatorial
coefficients, and the Sturm count of their roots taken from the two-term
determinant recursion.

The degree-N polynomial for an N-layer stack at Fourier order n is

    f(lambda) = sum_{k=0..N} lambda^(N-k) / (s 2)^k * S_k,        s = +-1,

    S_k = sum over ascending index tuples (i_1 < ... < i_k) from {1..N} of
          (-1)^(i_1+...+i_k) * exp(2 n sum_l (-1)^l xi_{i_l}).

Every exponent is <= 0 for a decreasing stack (consecutive index pairs
contribute xi_{i_even} - xi_{i_odd} < 0), so each of the up-to-2^N terms
has magnitude <= 1 and coefficient accumulation cannot overflow; terms are
summed with compensated (Shewchuk) summation.  The even-parity polynomial
uses s = +1, the odd one s = -1, so the two differ only by (-1)^k on c_k.
The coefficients serve the ``charpoly`` command, whose fig5 and fig8
fixtures pin the enumerated values; mode computation needs only the O(N)
recursion, in the ratio form of :func:`sturm_count`, which runs it for both
parities at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialCapError
from .geometry import LayerStack
from .npcore import _BOTH_SIGNS, PARITIES, _check_order

#: Largest layer count whose 2^N coefficient terms are enumerated.
ENUMERATION_CAP = 24

#: stands in for an exact zero ratio in :func:`sturm_count`
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class CharPoly:
    """Monic characteristic polynomial of one parity.

    ``coeffs[k]`` multiplies lambda^(N-k); ``coeffs[0] == 1``.
    """

    coeffs: np.ndarray

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
    for parity, sign in zip(PARITIES, _BOTH_SIGNS):
        coeffs = np.array([s_k / (sign * 2.0) ** k for k, s_k in enumerate(sums)])
        polys[parity] = CharPoly(coeffs=coeffs)
    return polys


def sturm_count(stack: LayerStack, lam, n):
    """Number of roots of each parity's characteristic polynomial (the
    order-n mode values) below each real probe point in ``lam``; an integer
    array of shape ``(2, *lam.shape)``, even parity at index 0 and odd at
    index 1 (``PARITIES`` order).

    The determinants D_k of the trailing (k..N, k..N) blocks of the order-n
    GPM obey D_k = (lam_k + lam_{k+1} E_k) D_{k+1} - (lam_{k+1}^2 - 1/4) E_k D_{k+2}
    with E_k = exp(2 n (xi_{k+1} - xi_k)), lam_k = (-1)^(k-1) lam, D_{N+1} = 1
    and D_N = lam_N -+ exp(-2 n xi_N) / 2 (- for even parity); D_1 is
    (-1)^floor(N/2) times the characteristic polynomial.  The count runs
    this recursion for both parities and all probes at once, in the ratio
    form q_k = D_k / D_{k+1}, q_N = D_N,

        q_k = lam_k (1 - E_k) - (lam^2 - 1/4) E_k / q_{k+1},

    which stays in range where D_k itself under- or overflows for large N.
    The coefficients are the same for both parities; only the starting row
    q_N differs, by the sign of exp(-2 n xi_N) / 2.  An exact zero q_k is
    replaced by the smallest normal float, as if lam were moved by a
    rounding error.

    Why it counts: flip the sign of entry j of (D_{N+1}, D_N, ..., D_1) by
    (-1)^floor(j/2).  The flipped entries obey
    p_{j+1} = +-lam (1 - E) p_j - (1/4 - lam^2) E p_{j-1}, whose coupling is
    positive for |lam| < 1/2, so where an inner p_j vanishes its neighbours
    have opposite signs; for |lam| >= 1/2 no inner p_j vanishes, since its
    roots are the modes of an inner sub-stack.  So the number of sign
    changes moves only at roots of p_N = +-D_1, by at most one per simple
    root.  Entries j and j+1 differ in sign exactly when (-1)^j q_{N-j} < 0,
    and the changes count the roots below lam for even N and above it for
    odd N.  A count of 0 at one end of an interval and N at the other
    therefore proves that all N roots are real and lie inside, and that the
    count is exact in between; :func:`plasmonstack.spectrum.modes` checks
    both ends.
    """
    _check_order(n)
    N = stack.N
    xi = stack.xi_array
    lam = np.asarray(lam, dtype=float)
    probes = lam.reshape(-1)
    # row j of q holds q_{N-j} of (even, odd) at every probe; row j - 1 of
    # a and c builds it
    k = np.arange(N - 1, 0, -1)
    E = np.exp(2.0 * n * (xi[k] - xi[k - 1]))
    lam_sign = np.where(k % 2 == 1, 1.0, -1.0)  # lam_k = (-1)^(k-1) lam
    a = np.multiply.outer(lam_sign * (1.0 - E), probes)
    c = np.multiply.outer(E, probes * probes - 0.25)
    q = np.empty((N, 2, probes.size))
    half_far = 0.5 * math.exp(-2.0 * n * xi[-1])
    q[0] = (1.0 if N % 2 == 1 else -1.0) * probes - _BOTH_SIGNS[:, None] * half_far
    for j in range(1, N):
        prev = q[j - 1]
        np.divide(c[j - 1], prev if prev.all() else np.where(prev == 0.0, _TINY, prev), out=q[j])
        np.subtract(a[j - 1], q[j], out=q[j])
    q[1::2] *= -1.0  # now q[j] < 0 marks a sign change between entries j and j + 1
    changes = np.count_nonzero(q < 0, axis=0)
    return (changes if N % 2 == 0 else N - changes).reshape((2, *lam.shape))
