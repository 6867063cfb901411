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

A :class:`ModeSet` is the certified values and nothing else; the shell
conductivity each value stands for is
:func:`plasmonstack.materials.sigma_from_lambda` of it, which callers
apply themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import charpoly as cp
from .errors import gate
from .geometry import LayerStack
from .npcore import EVEN, ODD, PARITIES, _sign, build_np

#: Default gate tolerances of :func:`modes`, under the names its keywords,
#: the config's ``tolerances`` block and the ``--tol-*`` flags share: the
#: route gap, the imaginary parts and the spectral-bound excess.  Read-only,
#: as the keyword defaults are bound once.
TOLERANCES = MappingProxyType({"cross": 1e-8, "imag": 1e-9, "bound": 1e-10})


@dataclass(frozen=True, eq=False)
class ModeSet:
    """All 2N modes of a stack at one Fourier order (N per parity).

    ``values`` is the read-only (2, N) array of the even values, then the
    odd ones (``PARITIES`` order), each row sorted descending: the mode of
    rank r is entry r - 1 of its row.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def lambdas(self, parity):
        """The row of ``parity``: a read-only view of ``values``."""
        return self.values[0 if _sign(parity) > 0 else 1]


def _certify(stack, n, eigs, cross, imag, bound):
    """Return the real parts of ``eigs`` (shape (2, N): the even eigenvalues,
    then the odd ones) sorted descending per parity, or raise
    CrossValidationError naming the first parity, in ``PARITIES`` order,
    whose values fail a gate.

    Per parity, in this order: every imaginary part must be within
    ``imag``; every value must lie in [-1/2 - bound, 1/2 + bound]; the
    Sturm count must be 0 at
    the left end and N at the right one, so all N roots are real and lie in
    that interval.  Last, the values are grouped into clusters whose
    [v - cross, v + cross] windows overlap; just outside each
    cluster's outer window the count must equal the number of values below
    that point, so the count rises by the cluster's size across it: every
    root lies within ``cross`` of a value and each value accounts for
    one root.  One :func:`~plasmonstack.charpoly.sturm_count` call counts
    the probes of both parities.  Each check is an :func:`~plasmonstack.errors.gate`.
    """
    N = stack.N
    ascending = np.sort(eigs.real, axis=-1)
    edge = 0.5 + bound
    clusters, probes = [], [[-edge, edge]]
    for row in ascending:
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(row) > 2.0 * cross) + 1, [N]))
        starts, ends = bounds[:-1], bounds[1:]
        clusters.append((starts, ends))
        probes += [row[starts] - cross, row[ends - 1] + cross]
    counts = cp.sturm_count(stack, np.concatenate(probes), n)
    first = 2  # this parity's cluster probes start here
    for parity, imag_parts, row, count, (starts, ends) in zip(PARITIES, eigs.imag, ascending, counts, clusters):
        worst = np.abs(imag_parts).max(initial=0.0)
        gate("imag", worst, imag,
             lambda: f"{parity} eigenvalues: imaginary part {worst:.3e} exceeds realness tolerance {imag:.1e}")
        excess = np.abs(row).max() - 0.5
        gate("bound", excess, bound, lambda: f"{parity} mode leaves the spectral interval by {excess:.3e}")
        outside = count[0] + N - count[1]
        gate("bound", outside, 0, lambda: (
            f"{parity}: {outside} of {N} polynomial roots are not real or leave "
            f"[-1/2, 1/2] by more than {bound:.1e}"
        ))
        below, above = count[first : first + 2 * starts.size].reshape(2, -1)
        first += 2 * starts.size
        missed = (below != starts) | (above != ends)
        i = missed.argmax()  # the first cluster the count misses, if any
        gate("cross", np.count_nonzero(missed), 0, lambda: (
            f"{parity} route disagreement: the Sturm count places {above[i] - below[i]} roots "
            f"within {cross:.1e} of the {ends[i] - starts[i]} eigenvalues in "
            f"[{row[starts[i]]:.17g}, {row[ends[i] - 1]:.17g}]"
        ))
    return ascending[:, ::-1]


def modes(
    stack: LayerStack,
    n: int,
    *,
    cross: float = TOLERANCES["cross"],
    imag: float = TOLERANCES["imag"],
    bound: float = TOLERANCES["bound"],
) -> ModeSet:
    """Compute all modes of ``stack`` at order ``n``, cross-validated.

    Per parity the modes are the negated eigenvalues of the interface-operator
    matrix transpose (``-build_np``), sorted descending; each must be real
    to ``imag``.  A Sturm count from the determinant recursion then
    certifies them against the characteristic polynomial's roots (see
    :func:`_certify`): all N roots are real, lie in
    [-1/2 - bound, 1/2 + bound] with the values, and sit within ``cross``
    of the values.  The polynomial itself is never built.
    Both parities share each step: one (2, N, N) matrix build, one batched
    eigensolve and one N-step recursion over at most 4N + 2 probe points.
    """
    return ModeSet(_certify(stack, n, np.linalg.eigvals(-build_np(stack, n)), cross, imag, bound))


def verify_root_symmetry(modeset: ModeSet) -> float:
    """Max deviation of the even/odd root antisymmetry.

    Returns max_j |lambda^+_j + lambda^-_{N+1-j}| over descending-sorted
    modes; the exact value is zero (the two root multisets are negatives of
    each other).
    """
    even, odd = modeset.values
    return float(np.abs(even + odd[::-1]).max())


def geometric_stack(num_layers: int, xi_outer: float, ratio: float) -> LayerStack:
    """Stack with R = 1, xi_1 = xi_outer and xi_{i+1} = ratio * xi_i."""
    if not 0 < ratio < 1:
        raise ValueError(f"decay ratio must be in (0, 1), got {ratio}")
    return LayerStack(R=1.0, xi=tuple(xi_outer * ratio**i for i in range(num_layers)))


def disk_degeneration_sweep(num_layers, ratio, n, L_values, **tolerances):
    """Even/odd splitting gap along the scale sweep xi_1 = L * num_layers.

    For each L the gap is the Euclidean norm of the difference between the
    descending-sorted even and odd mode vectors (norm choice is flagged in
    CLI output metadata).  The gap closes like exp(-2 n min xi) as the stack
    degenerates to concentric disks.

    ``tolerances`` are the gate keywords of :func:`modes`, which certifies
    every mode set.  Returns a list of (L, gap) pairs.
    """
    out = []
    for L in L_values:
        stack = geometric_stack(num_layers, float(L) * num_layers, ratio)
        ms = modes(stack, n, **tolerances)
        gap = float(np.linalg.norm(ms.lambdas(EVEN) - ms.lambdas(ODD)))
        out.append((float(L), gap))
    return out
