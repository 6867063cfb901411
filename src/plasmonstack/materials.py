"""The shell conductivity sigma1 a mode's contrast parameter stands for,
and the lossless Drude frequency that realizes it.  The contrast

    lambda = (sigma1 + sigma0) / (2 (sigma1 - sigma0)),

with sigma0 the background, carries all material information entering the
mode problem; this forward map and the lossy Drude model are test oracles.
"""

from __future__ import annotations

import math

from .errors import ContrastError


def sigma_from_lambda(lam, sigma0):
    """Shell conductivity realizing a given contrast: sigma1 = sigma0 (2 lam + 1)/(2 lam - 1).

    Inverse of the contrast map lambda(sigma1).  lam = 1/2 maps to infinite
    conductivity and is rejected; lam = -1/2 maps to +0.0, not -0.0.
    """
    if lam == 0.5:
        raise ContrastError("lambda = 1/2 corresponds to infinite conductivity")
    # adding +0.0 turns -0.0 into 0.0 and leaves every other value unchanged
    return sigma0 * (2.0 * lam + 1.0) / (2.0 * lam - 1.0) + 0.0


def resonant_frequency(lambda_star, sigma0, sigma_prime, omega_p):
    """Lossless Drude frequency whose conductivity realizes the contrast lambda_star.

    The Drude parameters sigma_prime, omega_p > 0 are a config's ``drude``
    block.  Solves sigma_prime (1 - omega_p^2/omega^2) = sigma_t with
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
    if sigma_t >= sigma_prime:
        raise ContrastError(f"no real frequency: target sigma {sigma_t} is not below sigma_prime {sigma_prime}")
    return omega_p * math.sqrt(sigma_prime / (sigma_prime - sigma_t))

