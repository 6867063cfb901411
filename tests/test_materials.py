import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack.errors import ContrastError
from plasmonstack.materials import (
    DrudeParams,
    drude_sigma,
    lambda_from_sigma,
    resonant_frequency,
    sigma_from_lambda,
)

from oracles import DEFAULT_SIGMA0, MaterialConfig, lossless_limit_lambda

# published reference values are printed to 4 decimals; the implied slack on
# a contrast derived from them is a few 1e-4
PRINT_ATOL = 2e-4


class TestContrastMaps:
    def test_opposite_conductivity_gives_zero(self):
        assert lambda_from_sigma(-1.0, 1.0) == 0.0
        assert lambda_from_sigma(complex(-2.5), 2.5) == 0.0

    def test_reference_pairings(self):
        assert_allclose(lambda_from_sigma(-4.5699, 1.0), 0.3205, atol=5e-5)
        assert_allclose(lambda_from_sigma(-21.0821, 1.0), 0.4547, atol=5e-5)
        assert_allclose(sigma_from_lambda(0.0093, 1.0), -1.0378, atol=PRINT_ATOL)

    def test_zero_contrast(self):
        assert sigma_from_lambda(0.0, 1.0) == -1.0
        assert sigma_from_lambda(0.0, 3.0) == -3.0

    def test_singularities(self):
        with pytest.raises(ContrastError):
            lambda_from_sigma(2.0, 2.0)
        with pytest.raises(ContrastError):
            sigma_from_lambda(0.5, 1.0)

    def test_mutual_inverse_random(self, rng):
        lam = rng.uniform(-3, 3, 1000) + 1j * rng.uniform(-3, 3, 1000)
        lam = lam[np.abs(lam - 0.5) > 1e-3]
        for l in lam:
            back = lambda_from_sigma(sigma_from_lambda(complex(l), 1.3), 1.3)
            assert abs(back - l) <= 1e-14 * max(1.0, abs(l))

    def test_lossy_contrast_is_strictly_complex(self, rng):
        for _ in range(50):
            cfg = MaterialConfig(
                sigma0=float(rng.uniform(0.5, 2.0)),
                sigma_star=float(rng.uniform(0.1, 5.0)),
                delta=float(rng.uniform(1e-8, 1e-2)),
            )
            assert abs(cfg.contrast.imag) > 0

    def test_lossless_limit(self):
        cfg0 = MaterialConfig(sigma0=2.0, sigma_star=3.0, delta=0.0)
        assert_allclose(cfg0.contrast.real, lossless_limit_lambda(3.0, 2.0), rtol=1e-15)
        assert cfg0.contrast.imag == 0.0
        # delta -> 0 approaches the real limit
        deltas = [1e-2, 1e-4, 1e-6]
        errs = [
            abs(MaterialConfig(2.0, 3.0, d).contrast - lossless_limit_lambda(3.0, 2.0))
            for d in deltas
        ]
        assert errs[0] > errs[1] > errs[2]


class TestMaterialConfig:
    def test_sigma1(self):
        cfg = MaterialConfig(sigma0=1.0, sigma_star=4.5, delta=1e-3)
        assert cfg.sigma1 == complex(-4.5, 1e-3)

    def test_layer_alternation(self):
        cfg = MaterialConfig(sigma0=1.0, sigma_star=4.5, delta=0.0)
        assert cfg.layer_sigma(0) == 1.0
        assert cfg.layer_sigma(1) == cfg.sigma1
        assert cfg.layer_sigma(2) == 1.0
        assert cfg.layer_sigma(3) == cfg.sigma1

    def test_validation(self):
        with pytest.raises(ContrastError):
            MaterialConfig(sigma0=0.0, sigma_star=1.0)
        with pytest.raises(ContrastError):
            MaterialConfig(sigma0=1.0, sigma_star=-1.0)
        with pytest.raises(ContrastError):
            MaterialConfig(sigma0=1.0, sigma_star=1.0, delta=-1e-3)


class TestDrude:
    def test_high_frequency_limit(self):
        p = DrudeParams()
        assert_allclose(drude_sigma(1e22, p), p.sigma_prime, rtol=1e-10)

    def test_lossless_plasma_frequency_zero(self):
        p = DrudeParams(tau_damp=0.0)
        assert_allclose(abs(drude_sigma(p.omega_p, p)), 0.0, atol=1e-30)

    def test_defaults(self):
        p = DrudeParams()
        assert p.sigma_prime == 9e-12
        assert p.omega_p == 2e15
        assert p.tau_damp == 1e14
        assert_allclose(DEFAULT_SIGMA0, 1.33**2 * p.sigma_prime, rtol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ContrastError):
            DrudeParams(sigma_prime=0.0)
        with pytest.raises(ContrastError):
            drude_sigma(0.0, DrudeParams())


class TestResonantFrequency:
    def test_zero_contrast_closed_form(self):
        p = DrudeParams()
        sigma0 = DEFAULT_SIGMA0
        expected = p.omega_p * math.sqrt(p.sigma_prime / (p.sigma_prime + sigma0))
        assert_allclose(resonant_frequency(0.0, p, sigma0), expected, rtol=1e-15)

    def test_round_trip_lossless(self, rng):
        p = DrudeParams(tau_damp=0.0)
        sigma0 = DEFAULT_SIGMA0
        for lam in rng.uniform(-0.49, 0.49, 50):
            omega = resonant_frequency(float(lam), p, sigma0)
            sigma_t = sigma_from_lambda(float(lam), sigma0)
            assert_allclose(drude_sigma(omega, p).real, sigma_t, rtol=1e-12)
            assert abs(drude_sigma(omega, p).imag) < 1e-25

    def test_reference_mode_round_trip(self):
        p = DrudeParams(tau_damp=0.0)
        sigma0 = DEFAULT_SIGMA0
        omega = resonant_frequency(0.3205, p, sigma0)
        back = lambda_from_sigma(drude_sigma(omega, p), sigma0)
        assert abs(back - 0.3205) < 1e-10

    def test_no_real_frequency(self):
        p = DrudeParams()
        # lambda = 2 targets sigma_t = (5/3) sigma0 >= sigma_prime: no real root
        with pytest.raises(ContrastError):
            resonant_frequency(2.0, p, sigma0=9e-12)
