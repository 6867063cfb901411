"""The order-n even/odd coupling (GPM) and interface-operator (NP) matrices
of confocal ellipses, from Fourier-basis layer-potential actions.

Densities live in the weighted Fourier basis beta_n = gamma^-1 cos(n eta)
(even) or gamma^-1 sin(n eta) (odd), n >= 1; the n = 0 constants are
excluded because densities are mean-zero.  On that basis the normal
derivative of interface k's single-layer potential acts by scalar
coefficients.  The N x N matrices per (n, parity) are that action evaluated
between interfaces over all pairs at once.  The two parities differ only in
the sign of the far-field term exp(-n (xi_i + xi_j)), so :func:`build_np`
evaluates one exponential table for both.  The single-layer action is a
test oracle.

The action is evaluated in factored exponential form,
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


def _sign(parity):
    """+1 for even parity, -1 for odd."""
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    return 1.0 if parity == EVEN else -1.0


#: parity signs in PARITIES order, on the leading axis of a (2, ...) stack
_BOTH_SIGNS = np.array([1.0, -1.0])


def _check_order(n):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"Fourier order must be an integer >= 1, got {n!r}")


def _exponentials(n, source_xi, eval_xi):
    """(near, far) shared by the layer-potential actions of both parities:
    near = exp(-n |eval - source|) and far = exp(-n (eval + source)).  Both
    exponents are <= 0.  Radii may be arrays of any broadcastable shapes."""
    _check_order(n)
    if np.any(source_xi <= 0) or np.any(eval_xi < 0):
        raise ValueError("need source_xi > 0 and eval_xi >= 0")
    near = np.exp(-n * np.abs(eval_xi - source_xi))
    far = np.exp(-n * (eval_xi + source_xi))
    return near, far


def _normal_derivative(sgn, n, source_xi, eval_xi):
    """Coefficient of gamma^-1 cos(n eta) (sgn = +1, even) or gamma^-1 sin(n eta)
    (sgn = -1, odd) in the normal derivative of the single-layer potential of
    the weighted Fourier density on the ellipse xi = source_xi, evaluated at
    elliptic radius eval_xi (elementwise over array radii).  ``sgn``
    broadcasts against the radii, so one exponential table serves every
    parity on its axes.

    Inside (eval < source): -sinh(n eval)/e^{n source} (even),
    -cosh(n eval)/e^{n source} (odd).  Outside: +cosh(n source)/e^{n eval}
    (even), +sinh(n source)/e^{n eval} (odd).  At eval == source the
    principal-value branch is returned: +(2 e^{2 n source})^-1 for even,
    -(2 e^{2 n source})^-1 for odd; the one-sided limits differ from it by
    -+ half of the density weight (the jump relation).
    """
    near, far = _exponentials(n, source_xi, eval_xi)
    signed_far = sgn * far
    inside = -0.5 * (near - signed_far)
    outside = 0.5 * (near + signed_far)
    return np.where(eval_xi == source_xi, 0.5 * signed_far, np.where(eval_xi < source_xi, inside, outside))


def _gpm(stack: LayerStack, lam, n, sgn):
    """GPM entries for a parity sign ``sgn`` that broadcasts against (N, N)."""
    xi = stack.xi_array
    alt = (-1.0) ** np.arange(stack.N)
    return lam * np.diag(alt) - _normal_derivative(sgn, n, xi[None, :], xi[:, None])


def gpm_entries(stack: LayerStack, lam, n, parity):
    """Dense entries of the order-n GPM at contrast lam:
    M[i, j] = (-1)^i lam delta_ij - _normal_derivative(+-1, n, xi_j, xi_i).

    Diagonal: (-1)^i lam -+ (2 e^{2 n xi_i})^-1 (minus for even, plus for odd,
    0-indexed rows); sub-diagonal sinh(n xi_i)/e^{n xi_j} (even) or cosh (odd);
    super-diagonal -cosh(n xi_j)/e^{n xi_i} (even) or -sinh (odd).
    """
    return _gpm(stack, lam, n, _sign(parity))


def build_np(stack: LayerStack, n):
    """Dense entries of the order-n NP matrices (transposed block form) of
    both parities, as a (2, N, N) stack: even at index 0, odd at index 1
    (``PARITIES`` order).

    The exponential table is computed once and the parity sign broadcast
    over the leading axis.  With D = diag((-1)^i) each matrix equals D @ M(0)
    where M is the matching GPM, i.e. -lam I - K^T = -D M(lam) for every
    lam; the mode condition det(-lam I - K^T) = 0 is the GPM singularity
    condition.
    """
    alt = (-1.0) ** np.arange(stack.N)
    return alt[:, None] * _gpm(stack, 0.0, n, _BOTH_SIGNS[:, None, None])
