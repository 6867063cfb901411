import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack.charpoly import build_charpoly
from plasmonstack.errors import CrossValidationError
from plasmonstack.geometry import LayerStack
from plasmonstack.materials import DrudeParams, sigma_from_lambda
from plasmonstack.npcore import EVEN, ODD, PARITIES
from plasmonstack.spectrum import (
    BOUND_SLACK,
    CROSS_ROUTE_TOL,
    IMAG_TOL,
    _certify,
    disk_degeneration_sweep,
    geometric_stack,
    modes,
    verify_root_symmetry,
)
from table_data import TABLE1_LAMBDA_EVEN, TABLE1_SIGMA_ODD

from conftest import geometric_random_stack, random_stack
from oracles import DEFAULT_SIGMA0, mode_to_material, per_parity_modes, precise_roots

TABLE1_STACK = LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16)))


class TestModes:
    def test_single_layer_closed_form(self):
        stack = LayerStack(R=1.0, xi=(1.0,))
        ms = modes(stack, 1)
        assert_allclose(ms.lambdas(EVEN), [0.5 * math.exp(-2.0)], rtol=1e-14)
        assert_allclose(ms.lambdas(ODD), [-0.5 * math.exp(-2.0)], rtol=1e-14)

    def test_mode_count_and_order(self, rng):
        for _ in range(10):
            stack = random_stack(rng, max_layers=60)
            n = int(rng.integers(1, 9))
            ms = modes(stack, n)
            for parity in (EVEN, ODD):
                lams = ms.lambdas(parity)
                assert lams.size == stack.N
                assert np.all(np.diff(lams) <= 0)
                ranks = [m.rank for m in ms.modes(parity)]
                assert ranks == list(range(1, stack.N + 1))

    def test_reference_table_row(self):
        stack = LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16)))
        ms = modes(stack, 1)
        assert np.abs(ms.lambdas(EVEN) - TABLE1_LAMBDA_EVEN).max() < 5e-5
        sig_odd = [m.sigma1_resonant for m in ms.odd_modes]
        rel = np.abs((np.array(sig_odd) - TABLE1_SIGMA_ODD) / np.array(TABLE1_SIGMA_ODD))
        assert rel.max() < 5e-4

    @pytest.mark.parametrize(
        "stack, n",
        [(LayerStack(R=1.0, xi=(1e-17,)), 1), (geometric_stack(40, 0.5, 0.6), 4)],
        ids=["single-layer", "geometric-40"],
    )
    def test_mode_at_half_has_no_sigma(self, stack, n):
        """A mode at exactly lambda = 1/2 keeps its mode set; only its
        resonant conductivity, which would be infinite, is None."""
        ms = modes(stack, n)
        at_half = [m for m in ms.even_modes + ms.odd_modes if m.lambda_root == 0.5]
        assert at_half and all(m.sigma1_resonant is None for m in at_half)
        for m in ms.even_modes + ms.odd_modes:
            if m.lambda_root != 0.5:
                assert m.sigma1_resonant == sigma_from_lambda(m.lambda_root, 1.0)

    def test_cross_validation_gate(self):
        stack = LayerStack(R=1.0, xi=(2.0, 1.0))
        with pytest.raises(CrossValidationError):
            modes(stack, 1, cross_tol=1e-18)

    def test_spectral_bound_enforced(self, rng):
        stack = random_stack(rng, max_layers=60)
        ms = modes(stack, 2)
        for parity in (EVEN, ODD):
            assert np.abs(ms.lambdas(parity)).max() <= 0.5 + 1e-10

    @pytest.mark.parametrize(
        "stack,n",
        [(TABLE1_STACK, 1), (LayerStack(R=1.0, xi=tuple(16.0 * 0.8**i for i in range(16))), 2)],
        ids=["table1", "table2"],
    )
    def test_closer_to_precise_roots_than_companion(self, stack, n):
        """On the paper's tables the returned values are at least as close
        to 60-digit roots as the companion-matrix roots of the exact
        polynomial, in the worst value of each parity."""
        pytest.importorskip("mpmath")
        ms = modes(stack, n)
        polys = build_charpoly(stack, n)
        for parity in (EVEN, ODD):
            values = ms.lambdas(parity)
            companion = np.sort(polys[parity].roots().real)[::-1]
            roots = precise_roots(stack, n, parity, values)
            worst = max(abs(v - r) for v, r in zip(values, roots))
            worst_companion = max(abs(v - r) for v, r in zip(companion, roots))
            assert worst <= worst_companion


class TestFusedRoute:
    """``modes`` runs both parities through one NP build, one batched
    eigensolve and one Sturm recursion; the route one parity at a time is
    the oracle."""

    @staticmethod
    def outcome(route, stack, n, cross_tol):
        """The two mode tuples, or the refusal's message."""
        try:
            ms = route(stack, n, 1.7, cross_tol=cross_tol)
        except CrossValidationError as exc:
            return str(exc)
        return ms.even_modes, ms.odd_modes

    @pytest.mark.parametrize("cross_tol", [CROSS_ROUTE_TOL, 1e-15], ids=["default", "refusing"])
    def test_matches_per_parity_route(self, cross_tol):
        """Equal modes bit for bit, or the same refusal; a cross_tol of 1e-15
        is below the eigensolver's error, so most stacks are refused."""
        rng = np.random.default_rng(71)
        refused = 0
        for N in range(1, 13):
            for _ in range(8):
                stack, n = geometric_random_stack(rng, N), int(rng.integers(1, 9))
                expected = self.outcome(per_parity_modes, stack, n, cross_tol)
                assert self.outcome(modes, stack, n, cross_tol) == expected
                refused += isinstance(expected, str)
        assert (refused > 0) == (cross_tol < CROSS_ROUTE_TOL)


class TestCertificate:
    """The gates and the Sturm-count certificate on doctored values of the
    table1 stack: a defect in one parity's values raises an error that
    names that parity, while the other parity's values stay correct."""

    @staticmethod
    def values(parity):
        """(the (2, N) values, the row of ``parity``, a view to doctor)"""
        ms = modes(TABLE1_STACK, 1)
        values = np.array([ms.lambdas(EVEN), ms.lambdas(ODD)])
        return values, values[PARITIES.index(parity)]

    @staticmethod
    def certify(values):
        return _certify(TABLE1_STACK, 1, values, CROSS_ROUTE_TOL, IMAG_TOL, BOUND_SLACK)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_accepts_eigenvalues(self, parity):
        values, row = self.values(parity)
        certified = self.certify(values[:, ::-1])  # any order: the values are sorted
        np.testing.assert_array_equal(certified[PARITIES.index(parity)], row)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    @pytest.mark.parametrize("index", [0, 7, 14])
    def test_moved_value(self, parity, index):
        values, row = self.values(parity)
        row[index] += 10 * CROSS_ROUTE_TOL
        with pytest.raises(CrossValidationError, match=f"^{parity} route disagreement"):
            self.certify(values)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    @pytest.mark.parametrize("replacement", ["gap", "duplicate"])
    def test_dropped_and_replaced_value(self, parity, replacement):
        values, row = self.values(parity)
        # value 5 is dropped; a value between two others or a copy of value 4 stands in
        row[5] = (row[1] + row[2]) / 2 if replacement == "gap" else row[4]
        with pytest.raises(CrossValidationError, match=f"^{parity} route disagreement"):
            self.certify(values)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_value_outside_bound(self, parity):
        values, row = self.values(parity)
        row[0] = 0.5 + 2 * BOUND_SLACK
        with pytest.raises(CrossValidationError, match=f"^{parity} mode leaves the spectral interval"):
            self.certify(values)
        values, row = self.values(parity)
        row[-1] = -0.5 - 2 * BOUND_SLACK
        with pytest.raises(CrossValidationError, match=f"^{parity} mode leaves the spectral interval"):
            self.certify(values)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_complex_value(self, parity):
        values, row = self.values(parity)
        values = values.astype(complex)
        values[PARITIES.index(parity), 3] += 2j * IMAG_TOL
        with pytest.raises(CrossValidationError, match=f"^{parity} eigenvalues: imaginary part"):
            self.certify(values)

    def test_gates_in_parity_order(self):
        """With a defect in each parity, the even one is reported, whatever
        its gate: the gates run parity by parity, as they did one parity at
        a time."""
        values, even = self.values(EVEN)
        even[7] += 10 * CROSS_ROUTE_TOL
        values = values.astype(complex)
        values[1, 3] += 2j * IMAG_TOL
        with pytest.raises(CrossValidationError, match="^even route disagreement"):
            self.certify(values)


class TestRootSymmetry:
    def test_single_layer(self):
        ms = modes(LayerStack(R=1.0, xi=(0.6,)), 3)
        assert verify_root_symmetry(ms) < 1e-15

    def test_reference_pairing(self):
        stack = LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16)))
        ms = modes(stack, 1)
        # the largest even mode pairs with the smallest odd mode
        assert_allclose(ms.lambdas(EVEN)[0], -ms.lambdas(ODD)[-1], atol=1e-12)
        assert verify_root_symmetry(ms) < 1e-10

    def test_random_configs(self, rng):
        for _ in range(25):
            stack = random_stack(rng, max_layers=60)
            n = int(rng.integers(1, 9))
            assert verify_root_symmetry(modes(stack, n)) < 1e-10


class TestDiskDegenerationSweep:
    def test_single_layer_gap_exact(self):
        pairs = disk_degeneration_sweep(1, 0.5, 2, [1.0, 2.0])
        # one layer: gap is exactly exp(-2 n xi_1), xi_1 = L
        for L, gap in pairs:
            assert_allclose(gap, math.exp(-4.0 * L), rtol=1e-10)

    def test_gap_decreases_and_rate(self):
        pairs = disk_degeneration_sweep(17, 0.8, 1, [1, 2, 3, 4, 5])
        gaps = np.array([g for _, g in pairs])
        assert np.all(np.diff(gaps) < 0)
        min_xi = np.array([L * 17 * 0.8**16 for L, _ in pairs])
        slope = np.polyfit(min_xi, np.log(gaps), 1)[0]
        assert abs(slope + 2.0) < 0.4  # within 20% of -2n, n = 1

    def test_entrywise_degeneration_at_large_scale(self):
        stack = geometric_stack(17, 20.0 * 17, 0.8)
        ms = modes(stack, 1)
        assert np.abs(ms.lambdas(EVEN) - ms.lambdas(ODD)).max() < 1e-8

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            geometric_stack(3, 1.0, 1.5)


class TestModeToMaterial:
    def test_reference_values(self):
        stack = LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16)))
        ms = modes(stack, 1)
        sigma1, omega = mode_to_material(ms.even_modes[0], sigma0=1.0)
        assert omega is None
        assert abs(sigma1 - (-4.5699)) / 4.5699 < 5e-4
        sigma1_odd, _ = mode_to_material(ms.odd_modes[7], sigma0=1.0)
        assert abs(sigma1_odd - (-0.9636)) / 0.9636 < 5e-4

    def test_zero_mode(self):
        from plasmonstack.spectrum import PlasmonMode

        mode = PlasmonMode(lambda_root=0.0, parity=EVEN, n=1, sigma1_resonant=-2.0, rank=1)
        sigma1, omega = mode_to_material(mode, sigma0=2.0)
        assert sigma1 == -2.0

    def test_with_drude(self):
        stack = LayerStack(R=1.0, xi=(1.0, 0.5))
        ms = modes(stack, 1)
        drude = DrudeParams()
        sigma0 = DEFAULT_SIGMA0
        mode = ms.even_modes[0]
        sigma1, omega = mode_to_material(mode, sigma0=sigma0, drude=drude)
        assert omega > 0
        # lossless consistency: the frequency reproduces the mode's contrast
        from plasmonstack.materials import drude_sigma, lambda_from_sigma

        lossless = DrudeParams(tau_damp=0.0)
        back = lambda_from_sigma(drude_sigma(omega, lossless), sigma0)
        assert abs(back - mode.lambda_root) < 1e-10
