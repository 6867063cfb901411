"""Plasmon modes: polynomial roots cross-validated against matrix eigenvalues,
root-symmetry checks, the disk-degeneration sweep, and resonant materials.

Every mode computation runs two independent routes and accepts the result
only if they agree: (a) roots of the characteristic polynomial via its
companion matrix, (b) negated eigenvalues of the matching interface-operator
matrix transpose.  Both must be real (the underlying operator is
self-adjoint in a twisted inner product); realness is asserted after the
fact with a general nonsymmetric eigensolver rather than by symmetrizing,
so implementation bugs surface as complex eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charpoly as cp
from .errors import CrossValidationError
from .geometry import LayerStack
from .materials import resonant_frequency, sigma_from_lambda
from .npcore import EVEN, ODD, PARITIES, build_np

#: Default acceptance tolerances; all overridable per call (and via CLI flags).
CROSS_ROUTE_TOL = 1e-8
IMAG_TOL = 1e-9
BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class PlasmonMode:
    """One resonance: contrast value, parity, order, resonant shell conductivity."""

    lambda_root: float
    parity: str
    n: int
    sigma1_resonant: float
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


def _real_sorted_descending(values, imag_tol, what):
    worst = np.abs(values.imag).max(initial=0.0)
    if worst > imag_tol:
        raise CrossValidationError(
            f"{what}: imaginary part {worst:.3e} exceeds realness tolerance {imag_tol:.1e}"
        )
    return np.sort(values.real)[::-1]


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

    Both parities' polynomials come from one coefficient build.  Per parity:
    the N polynomial roots (companion-matrix route) must agree with the
    negated eigenvalues of the interface-operator matrix transpose to
    ``cross_tol``, every value must be real to ``imag_tol`` and lie in
    [-1/2 - bound_slack, 1/2 + bound_slack].  The polynomial-route values
    are the ones returned, sorted descending.
    """
    polys = cp.build_charpoly(stack, n)
    per_parity = {}
    for parity in PARITIES:
        roots = _real_sorted_descending(polys[parity].roots(), imag_tol, f"{parity} roots")
        eigs = np.linalg.eigvals(-build_np(stack, n, parity))
        eigs = _real_sorted_descending(eigs, imag_tol, f"{parity} eigenvalues")
        gap = np.abs(roots - eigs).max()
        if gap > cross_tol:
            raise CrossValidationError(
                f"{parity} route disagreement {gap:.3e} exceeds tolerance {cross_tol:.1e}"
            )
        excess = np.abs(roots).max() - 0.5
        if excess > bound_slack:
            raise CrossValidationError(
                f"{parity} mode leaves the spectral interval by {excess:.3e}"
            )
        per_parity[parity] = tuple(
            PlasmonMode(
                lambda_root=float(lam),
                parity=parity,
                n=n,
                sigma1_resonant=float(sigma_from_lambda(float(lam), sigma0)),
                rank=rank,
            )
            for rank, lam in enumerate(roots, start=1)
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
