"""Plasmon modes: interface-operator eigenvalues certified by a Sturm count
of the characteristic polynomial's roots, root-symmetry checks, and the
disk-degeneration sweep.

Every mode computation runs two independent routes and accepts the result
only if they agree: (a) negated eigenvalues of the interface-operator
matrix transpose, from a general nonsymmetric eigensolver, and (b) the
number of characteristic-polynomial roots below a point, counted from the
two-term determinant recursion (:func:`plasmonstack.charpoly.sturm_count`).
Both must be real (the underlying operator is self-adjoint in a twisted
inner product); realness of (a) is asserted after the fact rather than
imposed by symmetrizing, so implementation bugs surface as complex
eigenvalues, and (b) proves that all N roots are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charpoly as cp
from .errors import ContrastError, CrossValidationError
from .geometry import LayerStack
from .materials import sigma_from_lambda
from .npcore import EVEN, ODD, PARITIES, build_np

#: Default acceptance tolerances; all overridable per call (and via CLI flags).
CROSS_ROUTE_TOL = 1e-8
IMAG_TOL = 1e-9
BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class PlasmonMode:
    """One resonance: contrast value, parity, order, resonant shell conductivity.

    ``sigma1_resonant`` is None for lambda = 1/2, which no finite shell
    conductivity realizes.
    """

    lambda_root: float
    parity: str
    n: int
    sigma1_resonant: float | None
    rank: int  # 1-based index in descending lambda order within the parity


@dataclass(frozen=True, eq=False)
class ModeSet:
    """All 2N modes of a stack at one Fourier order (N per parity)."""

    stack: LayerStack
    n: int
    sigma0: float
    even_modes: tuple
    odd_modes: tuple

    def modes(self, parity):
        if parity == EVEN:
            return self.even_modes
        if parity == ODD:
            return self.odd_modes
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")

    def lambdas(self, parity):
        return np.array([m.lambda_root for m in self.modes(parity)])


def _resonant_sigma(lam, sigma0):
    try:
        return float(sigma_from_lambda(lam, sigma0))
    except ContrastError:  # lambda = 1/2: infinite conductivity
        return None


def _real_sorted_descending(values, imag_tol, what):
    worst = np.abs(values.imag).max(initial=0.0)
    if worst > imag_tol:
        raise CrossValidationError(
            f"{what}: imaginary part {worst:.3e} exceeds realness tolerance {imag_tol:.1e}"
        )
    return np.sort(values.real)[::-1]


def _certify(stack, n, parity, values, cross_tol, bound_slack):
    """Raise CrossValidationError unless ``values`` (N reals, descending)
    place the parity's characteristic-polynomial roots.

    Every value must lie in [-1/2 - bound_slack, 1/2 + bound_slack], and the
    Sturm count must be 0 at the left end and N at the right one, so all N
    roots are real and lie in that interval.  The values are grouped into
    clusters whose [v - cross_tol, v + cross_tol] windows overlap; just
    outside each cluster's outer window the count must equal the number of
    values below that point, so the count rises by the cluster's size
    across it: every root lies within ``cross_tol`` of a value and each
    value accounts for one root.
    """
    N = stack.N
    excess = np.abs(values).max() - 0.5
    if excess > bound_slack:
        raise CrossValidationError(f"{parity} mode leaves the spectral interval by {excess:.3e}")
    ascending = values[::-1]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(ascending) > 2.0 * cross_tol) + 1, [N]))
    starts, ends = bounds[:-1], bounds[1:]
    edge = 0.5 + bound_slack
    probes = np.concatenate(([-edge, edge], ascending[starts] - cross_tol, ascending[ends - 1] + cross_tol))
    counts = cp.sturm_count(stack, probes, n, parity)
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


def modes(
    stack: LayerStack,
    n: int,
    sigma0: float = 1.0,
    *,
    cross_tol: float = CROSS_ROUTE_TOL,
    imag_tol: float = IMAG_TOL,
    bound_slack: float = BOUND_SLACK,
) -> ModeSet:
    """Compute all modes of ``stack`` at order ``n``, cross-validated.

    Per parity the modes are the negated eigenvalues of the interface-operator
    matrix transpose (``-build_np``), sorted descending; each must be real
    to ``imag_tol``.  A Sturm count from the determinant recursion then
    certifies them against the characteristic polynomial's roots (see
    :func:`_certify`): all N roots are real, lie in
    [-1/2 - bound_slack, 1/2 + bound_slack] with the values, and sit within
    ``cross_tol`` of the values.  The polynomial itself is never built: per
    parity the cost is one N x N eigensolve and one N-step recursion over at
    most 2N + 2 probe points.
    """
    per_parity = {}
    for parity in PARITIES:
        eigs = np.linalg.eigvals(-build_np(stack, n, parity))
        values = _real_sorted_descending(eigs, imag_tol, f"{parity} eigenvalues")
        _certify(stack, n, parity, values, cross_tol, bound_slack)
        per_parity[parity] = tuple(
            PlasmonMode(
                lambda_root=float(lam),
                parity=parity,
                n=n,
                sigma1_resonant=_resonant_sigma(float(lam), sigma0),
                rank=rank,
            )
            for rank, lam in enumerate(values, start=1)
        )
    return ModeSet(
        stack=stack,
        n=n,
        sigma0=sigma0,
        even_modes=per_parity[EVEN],
        odd_modes=per_parity[ODD],
    )


def verify_root_symmetry(modeset: ModeSet) -> float:
    """Max deviation of the even/odd root antisymmetry.

    Returns max_j |lambda^+_j + lambda^-_{N+1-j}| over descending-sorted
    modes; the exact value is zero (the two root multisets are negatives of
    each other).
    """
    ev = modeset.lambdas(EVEN)
    od = modeset.lambdas(ODD)
    return float(np.abs(ev + od[::-1]).max())


def geometric_stack(num_layers: int, xi_outer: float, ratio: float, R: float = 1.0) -> LayerStack:
    """Stack with xi_1 = xi_outer and xi_{i+1} = ratio * xi_i."""
    if not 0 < ratio < 1:
        raise ValueError(f"decay ratio must be in (0, 1), got {ratio}")
    return LayerStack(R=R, xi=tuple(xi_outer * ratio**i for i in range(num_layers)))


def disk_degeneration_sweep(num_layers, ratio, n, L_values, sigma0=1.0, **mode_kwargs):
    """Even/odd splitting gap along the scale sweep xi_1 = L * num_layers.

    For each L the gap is the Euclidean norm of the difference between the
    descending-sorted even and odd mode vectors (norm choice is flagged in
    CLI output metadata).  The gap closes like exp(-2 n min xi) as the stack
    degenerates to concentric disks.

    Returns a list of (L, gap) pairs.
    """
    out = []
    for L in L_values:
        stack = geometric_stack(num_layers, float(L) * num_layers, ratio)
        ms = modes(stack, n, sigma0=sigma0, **mode_kwargs)
        gap = float(np.linalg.norm(ms.lambdas(EVEN) - ms.lambdas(ODD)))
        out.append((float(L), gap))
    return out
