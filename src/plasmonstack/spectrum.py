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
eigenvalues, and (b) proves that all N roots are real.  The even and odd
problems go through each route together, on a leading parity axis of
length 2 (``PARITIES`` order), and are gated one parity after the other.
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


def _certify(stack, n, eigs, cross_tol, imag_tol, bound_slack):
    """Return the real parts of ``eigs`` (shape (2, N): the even eigenvalues,
    then the odd ones) sorted descending per parity, or raise
    CrossValidationError naming the first parity, in ``PARITIES`` order,
    whose values fail a gate.

    Per parity, in this order: every imaginary part must be within
    ``imag_tol``; every value must lie in
    [-1/2 - bound_slack, 1/2 + bound_slack]; the Sturm count must be 0 at
    the left end and N at the right one, so all N roots are real and lie in
    that interval.  Last, the values are grouped into clusters whose
    [v - cross_tol, v + cross_tol] windows overlap; just outside each
    cluster's outer window the count must equal the number of values below
    that point, so the count rises by the cluster's size across it: every
    root lies within ``cross_tol`` of a value and each value accounts for
    one root.  One :func:`~plasmonstack.charpoly.sturm_count` call counts
    the probes of both parities.
    """
    N = stack.N
    ascending = np.sort(eigs.real, axis=-1)
    edge = 0.5 + bound_slack
    clusters, probes = [], [[-edge, edge]]
    for row in ascending:
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(row) > 2.0 * cross_tol) + 1, [N]))
        starts, ends = bounds[:-1], bounds[1:]
        clusters.append((starts, ends))
        probes += [row[starts] - cross_tol, row[ends - 1] + cross_tol]
    counts = cp.sturm_count(stack, np.concatenate(probes), n)
    first = 2  # this parity's cluster probes start here
    for parity, imag, row, count, (starts, ends) in zip(PARITIES, eigs.imag, ascending, counts, clusters):
        worst = np.abs(imag).max(initial=0.0)
        if worst > imag_tol:
            raise CrossValidationError(
                f"{parity} eigenvalues: imaginary part {worst:.3e} exceeds realness tolerance {imag_tol:.1e}"
            )
        excess = np.abs(row).max() - 0.5
        if excess > bound_slack:
            raise CrossValidationError(f"{parity} mode leaves the spectral interval by {excess:.3e}")
        outside = count[0] + N - count[1]
        if outside:
            raise CrossValidationError(
                f"{parity}: {outside} of {N} polynomial roots are not real or leave "
                f"[-1/2, 1/2] by more than {bound_slack:.1e}"
            )
        below, above = count[first : first + 2 * starts.size].reshape(2, -1)
        first += 2 * starts.size
        missed = np.flatnonzero((below != starts) | (above != ends))
        if missed.size:
            i = missed[0]
            raise CrossValidationError(
                f"{parity} route disagreement: the Sturm count places {above[i] - below[i]} roots "
                f"within {cross_tol:.1e} of the {ends[i] - starts[i]} eigenvalues in "
                f"[{row[starts[i]]:.17g}, {row[ends[i] - 1]:.17g}]"
            )
    return ascending[:, ::-1]


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
    ``cross_tol`` of the values.  The polynomial itself is never built.
    Both parities share each step: one (2, N, N) matrix build, one batched
    eigensolve and one N-step recursion over at most 4N + 2 probe points.
    """
    values = _certify(stack, n, np.linalg.eigvals(-build_np(stack, n)), cross_tol, imag_tol, bound_slack)
    even_modes, odd_modes = (
        tuple(
            PlasmonMode(
                lambda_root=lam,
                parity=parity,
                n=n,
                sigma1_resonant=_resonant_sigma(lam, sigma0),
                rank=rank,
            )
            for rank, lam in enumerate(row.tolist(), start=1)
        )
        for parity, row in zip(PARITIES, values)
    )
    return ModeSet(stack=stack, n=n, sigma0=sigma0, even_modes=even_modes, odd_modes=odd_modes)


def verify_root_symmetry(modeset: ModeSet) -> float:
    """Max deviation of the even/odd root antisymmetry.

    Returns max_j |lambda^+_j + lambda^-_{N+1-j}| over descending-sorted
    modes; the exact value is zero (the two root multisets are negatives of
    each other).
    """
    ev = modeset.lambdas(EVEN)
    od = modeset.lambdas(ODD)
    return float(np.abs(ev + od[::-1]).max())


def geometric_stack(num_layers: int, xi_outer: float, ratio: float) -> LayerStack:
    """Stack with R = 1, xi_1 = xi_outer and xi_{i+1} = ratio * xi_i."""
    if not 0 < ratio < 1:
        raise ValueError(f"decay ratio must be in (0, 1), got {ratio}")
    return LayerStack(R=1.0, xi=tuple(xi_outer * ratio**i for i in range(num_layers)))


def disk_degeneration_sweep(num_layers, ratio, n, L_values, **mode_kwargs):
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
        ms = modes(stack, n, **mode_kwargs)
        gap = float(np.linalg.norm(ms.lambdas(EVEN) - ms.lambdas(ODD)))
        out.append((float(L), gap))
    return out
