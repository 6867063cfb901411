"""The shell conductivity sigma1 a mode's contrast parameter stands for,
and the lossless Drude frequency that realizes it.  The contrast

    lambda = (sigma1 + sigma0) / (2 (sigma1 - sigma0)),

with sigma0 the background, carries all material information entering the
mode problem; this forward map and the lossy Drude model are test oracles.
Both maps here are total: where no finite sigma1 or no real frequency
exists, they return None.  The mode computation knows nothing of them:
the ``modes`` command applies them to each certified value.
"""

from __future__ import annotations

import math


def sigma_from_lambda(lam, sigma0):
    """Shell conductivity realizing a given contrast: sigma1 = sigma0 (2 lam + 1)/(2 lam - 1).

    Inverse of the contrast map lambda(sigma1).  lam = 1/2 maps to infinite
    conductivity, returned as None; lam = -1/2 maps to +0.0, not -0.0.
    """
    if lam == 0.5:
        return None
    # adding +0.0 turns -0.0 into 0.0 and leaves every other value unchanged
    return sigma0 * (2.0 * lam + 1.0) / (2.0 * lam - 1.0) + 0.0


def resonant_frequency(sigma1, sigma_prime, omega_p):
    """Lossless Drude frequency whose conductivity is the mode's ``sigma1``.

    The Drude parameters sigma_prime, omega_p > 0 are a config's ``drude``
    block.  Solves sigma_prime (1 - omega_p^2/omega^2) = sigma1, giving
    omega = omega_p sqrt(sigma_prime / (sigma_prime - sigma1)).  Returns
    None when ``sigma1`` is None or not below sigma_prime, where no real
    frequency exists.  A complex ``sigma1`` is refused by the comparison.

    Only the lossless (tau = 0) closed form is provided; complex-frequency
    root finding for lossy shells is out of scope.
    """
    if sigma1 is None or sigma1 >= sigma_prime:
        return None
    return omega_p * math.sqrt(sigma_prime / (sigma_prime - sigma1))
