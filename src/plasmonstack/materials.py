"""Material parameters, the contrast parameter, and the Drude model.

The structure alternates a shell conductivity sigma1 = -sigma* + i*delta
(odd layers) with the background sigma0 (even layers and the exterior).
The single contrast parameter

    lambda = (sigma1 + sigma0) / (2 (sigma1 - sigma0))

carries all material information entering the mode problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContrastError


@dataclass(frozen=True)
class DrudeParams:
    """Drude dispersion parameters: sigma1(omega) = sigma_prime * (1 - omega_p^2 / (omega (omega + i tau)))."""

    sigma_prime: float = 9e-12
    omega_p: float = 2e15
    tau_damp: float = 1e14

    def __post_init__(self):
        if self.sigma_prime <= 0 or self.omega_p <= 0:
            raise ContrastError("sigma_prime and omega_p must be positive")
        if self.tau_damp < 0:
            # tau = 0 is the lossless limit used when solving for resonant frequencies
            raise ContrastError(f"tau_damp must be >= 0, got {self.tau_damp}")


def lambda_from_sigma(sigma1, sigma0):
    """Contrast parameter lambda = (sigma1 + sigma0) / (2 (sigma1 - sigma0))."""
    if sigma1 == sigma0:
        raise ContrastError("sigma1 == sigma0 gives no contrast (lambda is singular)")
    return (sigma1 + sigma0) / (2.0 * (sigma1 - sigma0))


def sigma_from_lambda(lam, sigma0):
    """Shell conductivity realizing a given contrast: sigma1 = sigma0 (2 lam + 1)/(2 lam - 1).

    Exact inverse of :func:`lambda_from_sigma`.  lam = 1/2 maps to infinite
    conductivity and is rejected; lam = -1/2 maps to +0.0, not -0.0.
    """
    if lam == 0.5:
        raise ContrastError("lambda = 1/2 corresponds to infinite conductivity")
    # adding +0.0 turns -0.0 into 0.0 and leaves every other value unchanged
    return sigma0 * (2.0 * lam + 1.0) / (2.0 * lam - 1.0) + 0.0


def drude_sigma(omega, params):
    """Drude conductivity at angular frequency omega (> 0)."""
    if omega <= 0:
        raise ContrastError(f"frequency must be positive, got {omega}")
    p = params
    return p.sigma_prime * (1.0 - p.omega_p**2 / (omega * complex(omega, p.tau_damp)))


def resonant_frequency(lambda_star, params, sigma0):
    """Lossless Drude frequency whose conductivity realizes the contrast lambda_star.

    Solves sigma_prime (1 - omega_p^2/omega^2) = sigma_t with
    sigma_t = sigma0 (2 lambda_star + 1)/(2 lambda_star - 1), giving
    omega = omega_p sqrt(sigma_prime / (sigma_prime - sigma_t)).

    Only the lossless (tau = 0) closed form is provided; complex-frequency
    root finding for lossy shells is out of scope.
    """
    sigma_t = sigma_from_lambda(lambda_star, sigma0)
    sigma_t = complex(sigma_t)
    if abs(sigma_t.imag) > 0:
        raise ContrastError("resonant_frequency expects a real target contrast")
    sigma_t = sigma_t.real
    p = params
    if sigma_t >= p.sigma_prime:
        raise ContrastError(
            f"no real frequency: target sigma {sigma_t} is not below sigma_prime {p.sigma_prime}"
        )
    return p.omega_p * math.sqrt(p.sigma_prime / (p.sigma_prime - sigma_t))

