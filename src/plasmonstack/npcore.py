"""Fourier-basis actions of layer potentials on confocal ellipses, and the
order-n even/odd coupling (GPM) and interface-operator (NP) matrices.

Densities live in the weighted Fourier basis beta_n = gamma^-1 cos(n eta)
(even) or gamma^-1 sin(n eta) (odd), n >= 1; the n = 0 constants are
excluded because densities are mean-zero.  On that basis the single-layer
potential of interface k acts by scalar coefficients.  The N x N matrices
per (n, parity) are the normal-derivative action evaluated between
interfaces: entry (i, j) is the action of interface j's single layer at
interface i, taken as an array over all pairs at once.

The actions are evaluated in factored exponential form,
e.g. cosh(n xi_j)/exp(n xi_i) = (exp(n (xi_j - xi_i)) + exp(-n (xi_j + xi_i)))/2,
where every exponent is -n |eval - source| or -n (eval + source), so <= 0.
This keeps every entry in [-1, 1] and avoids cosh/sinh overflow for any n*xi
(raw hyperbolics overflow near n*xi ~ 710).
"""

from __future__ import annotations

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


def _exponentials(n, parity, source_xi, eval_xi):
    """(sgn, near, far) shared by the layer-potential actions: sgn is +1 for
    even and -1 for odd, near = exp(-n |eval - source|) and
    far = exp(-n (eval + source)).  Both exponents are <= 0.  Radii may be
    arrays of any broadcastable shapes."""
    _check_order(n)
    _check_parity(parity)
    if np.any(source_xi <= 0) or np.any(eval_xi < 0):
        raise ValueError("need source_xi > 0 and eval_xi >= 0")
    near = np.exp(-n * np.abs(eval_xi - source_xi))
    far = np.exp(-n * (eval_xi + source_xi))
    return (1.0 if parity == EVEN else -1.0), near, far


def single_layer_action(n, parity, source_xi, eval_xi):
    """Coefficient of cos(n eta) (even) or sin(n eta) (odd) in the single-layer
    potential of the weighted Fourier density on the ellipse xi = source_xi,
    evaluated at elliptic radius eval_xi (elementwise over array radii).

    Inside (eval <= source) the even coefficient is -cosh(n eval)/(n e^{n source});
    outside it is -cosh(n source)/(n e^{n eval}); odd swaps cosh for sinh.  The
    two branches agree at eval == source (the single layer is continuous).
    """
    sgn, near, far = _exponentials(n, parity, source_xi, eval_xi)
    return -(near + sgn * far) / (2.0 * n)


def normal_derivative_action(n, parity, source_xi, eval_xi):
    """Coefficient of gamma^-1 cos(n eta) (even) or gamma^-1 sin(n eta) (odd)
    in the normal derivative of the single-layer potential (elementwise over
    array radii).

    Inside (eval < source): -sinh(n eval)/e^{n source} (even),
    -cosh(n eval)/e^{n source} (odd).  Outside: +cosh(n source)/e^{n eval}
    (even), +sinh(n source)/e^{n eval} (odd).  At eval == source the
    principal-value branch is returned: +(2 e^{2 n source})^-1 for even,
    -(2 e^{2 n source})^-1 for odd; the one-sided limits differ from it by
    -+ half of the density weight (the jump relation).
    """
    sgn, near, far = _exponentials(n, parity, source_xi, eval_xi)
    inside = -0.5 * (near - sgn * far)
    outside = 0.5 * (near + sgn * far)
    values = np.where(eval_xi == source_xi, sgn * 0.5 * far, np.where(eval_xi < source_xi, inside, outside))
    return values[()]  # a scalar for scalar radii


def gpm_entries(stack: LayerStack, lam, n, parity):
    """Dense entries of the order-n GPM at contrast lam:
    M[i, j] = (-1)^i lam delta_ij - normal_derivative_action(n, parity, xi_j, xi_i).

    Diagonal: (-1)^i lam -+ (2 e^{2 n xi_i})^-1 (minus for even, plus for odd,
    0-indexed rows); sub-diagonal sinh(n xi_i)/e^{n xi_j} (even) or cosh (odd);
    super-diagonal -cosh(n xi_j)/e^{n xi_i} (even) or -sinh (odd).
    """
    xi = stack.xi_array
    alt = (-1.0) ** np.arange(stack.N)
    return lam * np.diag(alt) - normal_derivative_action(n, parity, xi[None, :], xi[:, None])


def build_np(stack: LayerStack, n, parity):
    """Dense entries of the order-n even/odd NP matrix (transposed block form).

    With D = diag((-1)^i) the entries equal D @ M(0) where M is the matching
    GPM, i.e. -lam I - K^T = -D M(lam) for every lam; the mode condition
    det(-lam I - K^T) = 0 is the GPM singularity condition.
    """
    alt = (-1.0) ** np.arange(stack.N)
    return alt[:, None] * gpm_entries(stack, 0.0, n, parity)
