"""Fourier-basis actions of layer potentials on confocal ellipses, and the
order-n even/odd coupling (GPM) and interface-operator (NP) matrices.

Densities live in the weighted Fourier basis beta_n = gamma^-1 cos(n eta)
(even) or gamma^-1 sin(n eta) (odd), n >= 1; the n = 0 constants are
excluded because densities are mean-zero.  On that basis the single-layer
potential of interface k acts by scalar coefficients, which assemble into
N x N matrices per (n, parity).

Matrix entries are evaluated in factored exponential form,
e.g. cosh(n xi_j)/exp(n xi_i) = (exp(n (xi_j - xi_i)) + exp(-n (xi_j + xi_i)))/2,
where the occurring exponents are always <= 0 for a decreasing stack.  This
keeps every entry in [-1, 1] and avoids cosh/sinh overflow for any n*xi
(raw hyperbolics overflow near n*xi ~ 710).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import LayerStack

EVEN = "even"
ODD = "odd"
PARITIES = (EVEN, ODD)


def _check_parity(parity):
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")


def _check_order(n):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"Fourier order must be an integer >= 1, got {n!r}")


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
    _check_order(n)
    xi = stack.xi_array
    signs = (-1.0) ** np.arange(stack.N)
    s = np.sinh(n * xi)
    c = np.cosh(n * xi)
    return StructureVectors(n=n, s=s, c=c, s_alt=signs * s, c_alt=signs * c)


def single_layer_action(n, parity, source_xi, eval_xi):
    """Coefficient of cos(n eta) (even) or sin(n eta) (odd) in the single-layer
    potential of the weighted Fourier density on the ellipse xi = source_xi,
    evaluated at elliptic radius eval_xi.

    Inside (eval <= source) the even coefficient is -cosh(n eval)/(n e^{n source});
    outside it is -cosh(n source)/(n e^{n eval}); odd swaps cosh for sinh.  The
    two branches agree at eval == source (the single layer is continuous).
    """
    _check_order(n)
    _check_parity(parity)
    if source_xi <= 0 or eval_xi < 0:
        raise ValueError("need source_xi > 0 and eval_xi >= 0")
    lo, hi = min(eval_xi, source_xi), max(eval_xi, source_xi)
    if parity == EVEN:
        return -(np.exp(n * (lo - hi)) + np.exp(-n * (lo + hi))) / (2.0 * n)
    return -(np.exp(n * (lo - hi)) - np.exp(-n * (lo + hi))) / (2.0 * n)


def normal_derivative_action(n, parity, source_xi, eval_xi):
    """Coefficient of gamma^-1 cos(n eta) (even) or gamma^-1 sin(n eta) (odd)
    in the normal derivative of the single-layer potential.

    Inside (eval < source): -sinh(n eval)/e^{n source} (even),
    -cosh(n eval)/e^{n source} (odd).  Outside: +cosh(n source)/e^{n eval}
    (even), +sinh(n source)/e^{n eval} (odd).  At eval == source the
    principal-value branch is returned: +(2 e^{2 n source})^-1 for even,
    -(2 e^{2 n source})^-1 for odd; the one-sided limits differ from it by
    -+ half of the density weight (the jump relation).
    """
    _check_order(n)
    _check_parity(parity)
    if source_xi <= 0 or eval_xi < 0:
        raise ValueError("need source_xi > 0 and eval_xi >= 0")
    if eval_xi == source_xi:
        pv = 0.5 * np.exp(-2.0 * n * source_xi)
        return pv if parity == EVEN else -pv
    if eval_xi < source_xi:
        if parity == EVEN:
            return -0.5 * (np.exp(n * (eval_xi - source_xi)) - np.exp(-n * (eval_xi + source_xi)))
        return -0.5 * (np.exp(n * (eval_xi - source_xi)) + np.exp(-n * (eval_xi + source_xi)))
    if parity == EVEN:
        return 0.5 * (np.exp(n * (source_xi - eval_xi)) + np.exp(-n * (source_xi + eval_xi)))
    return 0.5 * (np.exp(n * (source_xi - eval_xi)) - np.exp(-n * (source_xi + eval_xi)))


def _offdiag_parts(xi, n, parity):
    """Strict lower/upper triangular parts shared by the GPM and NP matrices.

    lower[i, j] (i > j): sinh(n xi_i)/e^{n xi_j} for even, cosh for odd.
    upper[i, j] (i < j): cosh(n xi_j)/e^{n xi_i} for even, sinh for odd.
    Both are evaluated in factored form; all exponents are <= 0.
    """
    N = xi.size
    lower = np.zeros((N, N))
    upper = np.zeros((N, N))
    il, jl = np.tril_indices(N, -1)
    iu, ju = np.triu_indices(N, 1)
    sgn = 1.0 if parity == EVEN else -1.0
    lower[il, jl] = 0.5 * (np.exp(n * (xi[il] - xi[jl])) - sgn * np.exp(-n * (xi[il] + xi[jl])))
    upper[iu, ju] = 0.5 * (np.exp(n * (xi[ju] - xi[iu])) + sgn * np.exp(-n * (xi[ju] + xi[iu])))
    return lower, upper


def gpm_entries(stack: LayerStack, lam, n, parity):
    """Dense entries of the order-n GPM at contrast lam.

    Diagonal: (-1)^i lam -+ (2 e^{2 n xi_i})^-1 (minus for even, plus for odd,
    0-indexed rows); sub-diagonal sinh(n xi_i)/e^{n xi_j} (even) or cosh (odd);
    super-diagonal -cosh(n xi_j)/e^{n xi_i} (even) or -sinh (odd).
    """
    _check_order(n)
    _check_parity(parity)
    xi = stack.xi_array
    lower, upper = _offdiag_parts(xi, n, parity)
    base = lower - upper
    sgn = 1.0 if parity == EVEN else -1.0
    alt = (-1.0) ** np.arange(stack.N)
    np.fill_diagonal(base, -sgn * 0.5 * np.exp(-2.0 * n * xi))
    return base + lam * np.diag(alt)


def build_np(stack: LayerStack, n, parity):
    """Dense entries of the order-n even/odd NP matrix (transposed block form).

    With D = diag((-1)^i) the entries equal D @ M(0) where M is the matching
    GPM, i.e. -lam I - K^T = -D M(lam) for every lam; the mode condition
    det(-lam I - K^T) = 0 is the GPM singularity condition.
    """
    alt = (-1.0) ** np.arange(stack.N)
    return alt[:, None] * gpm_entries(stack, 0.0, n, parity)
