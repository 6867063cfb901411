import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack.charpoly import build_charpoly
from plasmonstack.geometry import LayerStack
from plasmonstack.npcore import (
    EVEN,
    ODD,
    PARITIES,
    build_np,
    gpm_entries,
    normal_derivative_action,
    single_layer_action,
)
from table_data import TABLE1_LAMBDA_EVEN

from conftest import geometric_random_stack, random_stack
from oracles import np_matrix, structure_vectors


class TestSingleLayerAction:
    def test_odd_vanishes_on_focal_segment(self):
        assert single_layer_action(3, ODD, 1.0, 0.0) == 0.0

    def test_branches_agree_on_surface(self):
        n, xi0 = 2, 0.8
        val = single_layer_action(n, EVEN, xi0, xi0)
        assert_allclose(val, -math.cosh(n * xi0) / (n * math.exp(n * xi0)), rtol=1e-15)

    def test_closed_forms_both_sides(self):
        n, src = 3, 1.1
        assert_allclose(
            single_layer_action(n, EVEN, src, 0.4),
            -math.cosh(n * 0.4) / (n * math.exp(n * src)),
            rtol=1e-15,
        )
        assert_allclose(
            single_layer_action(n, ODD, src, 2.0),
            -math.sinh(n * src) / (n * math.exp(n * 2.0)),
            rtol=1e-15,
        )

    def test_no_overflow_at_extreme_order(self):
        val = single_layer_action(200, EVEN, 12.0, 11.0)
        assert np.isfinite(val) and abs(val) < 1.0


class TestNormalDerivativeAction:
    def test_on_surface_values(self):
        assert_allclose(normal_derivative_action(1, EVEN, 1.0, 1.0), 1.0 / (2 * math.e**2), rtol=1e-15)
        assert normal_derivative_action(1, ODD, 1.0, 1.0) == -normal_derivative_action(1, EVEN, 1.0, 1.0)

    def test_jump_relation(self):
        # outside minus inside limit equals the density weight; each one-sided
        # limit differs from the principal value by half of it
        n, xi0, eps = 2, 0.9, 1e-9
        for parity in (EVEN, ODD):
            outside = normal_derivative_action(n, parity, xi0, xi0 + eps)
            inside = normal_derivative_action(n, parity, xi0, xi0 - eps)
            pv = normal_derivative_action(n, parity, xi0, xi0)
            assert_allclose(outside - inside, 1.0, rtol=1e-6)
            assert_allclose(outside - pv, 0.5, rtol=1e-6)
            assert_allclose(pv - inside, 0.5, rtol=1e-6)

    def test_interior_exterior_closed_forms(self):
        n, src = 4, 1.3
        assert_allclose(
            normal_derivative_action(n, EVEN, src, 0.5),
            -math.sinh(n * 0.5) / math.exp(n * src),
            rtol=1e-14,
        )
        assert_allclose(
            normal_derivative_action(n, ODD, src, 2.2),
            math.sinh(n * src) / math.exp(n * 2.2),
            rtol=1e-14,
        )


class TestArrayRadii:
    @pytest.mark.parametrize("action", [single_layer_action, normal_derivative_action])
    def test_elementwise_equals_scalar_calls(self, rng, action):
        source = rng.uniform(0.05, 3.0, size=6)
        # evaluation radii on both sides of every source, on two of them and at 0
        evals = np.concatenate([rng.uniform(0.0, 3.5, size=6), source[:2], [0.0]])
        for n in (1, 4, 300):
            for parity in (EVEN, ODD):
                table = action(n, parity, source[None, :], evals[:, None])
                assert table.shape == (evals.size, source.size)
                for (i, e), (j, s) in itertools.product(enumerate(evals), enumerate(source)):
                    assert table[i, j] == action(n, parity, float(s), float(e))

    @pytest.mark.parametrize("action", [single_layer_action, normal_derivative_action])
    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_nonpositive_source_in_array_rejected(self, action, bad):
        with pytest.raises(ValueError):
            action(1, EVEN, np.array([1.0, bad, 2.0]), 0.5)
        with pytest.raises(ValueError):
            action(2, ODD, np.array([[1.0], [bad]]), np.array([0.5, 0.7]))


class TestGPM:
    def test_single_layer(self):
        stack = LayerStack(R=1.0, xi=(0.7,))
        m = gpm_entries(stack, 0.3, 2, EVEN)
        assert_allclose(m, [[0.3 - 0.5 * math.exp(-4 * 0.7)]], rtol=1e-15)
        m_odd = gpm_entries(stack, 0.3, 2, ODD)
        assert_allclose(m_odd, [[0.3 + 0.5 * math.exp(-4 * 0.7)]], rtol=1e-15)

    def test_two_layer_hand_instantiation(self):
        stack = LayerStack(R=1.0, xi=(2.0, 1.0))
        lam = 0.17
        m = gpm_entries(stack, lam, 1, EVEN)
        expected = np.array(
            [
                [lam - 0.5 * math.exp(-4.0), -math.cosh(1.0) / math.e**2],
                [math.sinh(1.0) / math.e**2, -lam - 0.5 * math.exp(-2.0)],
            ]
        )
        assert_allclose(m, expected, rtol=1e-14)

    def test_determinant_matches_charpoly(self, rng):
        for _ in range(25):
            stack = random_stack(rng, max_layers=8)
            n = int(rng.integers(1, 9))
            lam = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.0))
            det = np.linalg.det(gpm_entries(stack, lam, n, EVEN))
            poly = build_charpoly(stack, n)[EVEN]
            ref = (-1.0) ** (stack.N // 2) * poly.evaluate(lam)
            assert abs(det - ref) <= 1e-10 * max(abs(det), abs(ref))

    def test_affine_in_lambda(self, rng):
        stack = random_stack(rng, max_layers=6)
        n = 3
        alt = np.diag((-1.0) ** np.arange(stack.N))
        m0 = gpm_entries(stack, 0.0, n, ODD)
        for lam in (0.25, -1.1, 2.0):
            assert_allclose(gpm_entries(stack, lam, n, ODD), m0 + lam * alt, rtol=1e-15)


class TestNPMatrix:
    def test_single_layer(self):
        stack = LayerStack(R=1.0, xi=(0.7,))
        K = build_np(stack, 2)
        assert_allclose(K, [[[-0.5 * math.exp(-4 * 0.7)]], [[0.5 * math.exp(-4 * 0.7)]]], rtol=1e-15)

    def test_both_parities_match_per_parity_matrices(self, rng):
        """Each parity's slice equals that parity's matrix built on its own,
        bit for bit."""
        for N in range(1, 13):
            stack = geometric_random_stack(rng, N)
            n = int(rng.integers(1, 9))
            K = build_np(stack, n)
            assert K.shape == (2, N, N)
            for p, parity in enumerate(PARITIES):
                np.testing.assert_array_equal(K[p], np_matrix(stack, n, parity))

    def test_sign_conjugation_identity(self, rng):
        # -lam I - K^T == -D M(lam) with D the alternating sign matrix
        for _ in range(20):
            stack = random_stack(rng, max_layers=10)
            n = int(rng.integers(1, 9))
            lam = float(rng.uniform(-1, 1))
            D = np.diag((-1.0) ** np.arange(stack.N))
            K = build_np(stack, n)
            for p, parity in enumerate(PARITIES):
                lhs = -lam * np.eye(stack.N) - K[p]
                rhs = -D @ gpm_entries(stack, lam, n, parity)
                assert np.abs(lhs - rhs).max() < 1e-14

    def test_entries_bounded_by_one(self, rng):
        for _ in range(10):
            stack = random_stack(rng, max_layers=12)
            n = int(rng.integers(1, 9))
            assert np.abs(build_np(stack, n)).max() <= 1.0

    def test_reference_table_eigenvalues(self):
        stack = LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16)))
        eig = np.sort(np.linalg.eigvals(-build_np(stack, 1)[0]).real)[::-1]
        assert np.abs(eig - np.array(TABLE1_LAMBDA_EVEN)).max() < 5e-5

    def test_spectra_real_bounded_and_antisymmetric(self, rng):
        for _ in range(20):
            stack = random_stack(rng, max_layers=12)
            n = int(rng.integers(1, 9))
            ev, od = np.linalg.eigvals(build_np(stack, n))
            for vals in (ev, od):
                assert np.abs(vals.imag).max() < 1e-10
                assert np.abs(vals.real).max() <= 0.5 + 1e-10
            assert np.abs(np.sort(ev.real) + np.sort(od.real)[::-1]).max() < 1e-10


class TestStructureVectors:
    def test_values_and_alternation(self):
        stack = LayerStack(R=1.0, xi=(1.5, 0.5))
        sv = structure_vectors(stack, 3)
        assert_allclose(sv.s, np.sinh([4.5, 1.5]), rtol=1e-15)
        assert_allclose(sv.c, np.cosh([4.5, 1.5]), rtol=1e-15)
        assert_allclose(sv.s_alt, [math.sinh(4.5), -math.sinh(1.5)], rtol=1e-15)
        assert_allclose(sv.c_alt, [math.cosh(4.5), -math.cosh(1.5)], rtol=1e-15)


class TestValidation:
    def test_bad_order_and_parity(self):
        stack = LayerStack(R=1.0, xi=(1.0,))
        with pytest.raises(ValueError):
            build_np(stack, 0)
        with pytest.raises(ValueError):
            gpm_entries(stack, 0.1, 1, "both")
        with pytest.raises(ValueError):
            single_layer_action(1, EVEN, -1.0, 0.5)

