import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack.charpoly import build_charpoly, sturm_count
from plasmonstack.errors import CombinatorialCapError
from plasmonstack.geometry import LayerStack
from plasmonstack.npcore import EVEN, ODD, PARITIES, build_np, gpm_entries
from plasmonstack.spectrum import geometric_stack

from conftest import random_stack
from oracles import disk_limit_poly, h_coeff, recursion_determinant, sturm_count_one_parity, thin_strip_limit


def brute_force_h(N, k):
    """Test-only oracle: exhaustive enumeration of the alternating sign sums."""
    total = 0
    for combo in itertools.combinations(range(1, N + 1), k):
        total += (-1) ** sum(combo)
    return total


class TestBuildCharpoly:
    def test_single_layer(self):
        stack = LayerStack(R=1.0, xi=(0.9,))
        plus = build_charpoly(stack, 2)[EVEN]
        minus = build_charpoly(stack, 2)[ODD]
        assert_allclose(plus.coeffs, [1.0, -0.5 * math.exp(-4 * 0.9)], rtol=1e-15)
        assert_allclose(minus.coeffs, [1.0, 0.5 * math.exp(-4 * 0.9)], rtol=1e-15)

    def test_monic_and_symmetry_exact(self, rng):
        for _ in range(10):
            stack = random_stack(rng, max_layers=9)
            n = int(rng.integers(1, 9))
            plus = build_charpoly(stack, n)[EVEN]
            minus = build_charpoly(stack, n)[ODD]
            assert plus.coeffs[0] == 1.0
            signs = (-1.0) ** np.arange(stack.N + 1)
            # exact coefficient relation, not a tolerance check
            assert np.array_equal(minus.coeffs, signs * plus.coeffs)

    def test_coefficient_bound(self, rng):
        for _ in range(10):
            stack = random_stack(rng, max_layers=10)
            n = int(rng.integers(1, 5))
            poly = build_charpoly(stack, n)[EVEN]
            for k, c in enumerate(poly.coeffs):
                assert abs(c) <= math.comb(stack.N, k) / 2**k + 1e-15

    def test_cap(self):
        stack = LayerStack(R=1.0, xi=tuple(np.linspace(25.0, 1.0, 25)))
        with pytest.raises(CombinatorialCapError):
            build_charpoly(stack, 1)[EVEN]

    def test_parity_reflection_identity(self, rng):
        # f+(lam) == (-1)^N f-(-lam) at random complex points
        for _ in range(10):
            stack = random_stack(rng, max_layers=8)
            n = int(rng.integers(1, 6))
            plus = build_charpoly(stack, n)[EVEN]
            minus = build_charpoly(stack, n)[ODD]
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert_allclose(
                plus.evaluate(lam),
                (-1.0) ** stack.N * minus.evaluate(-lam),
                rtol=1e-12,
            )

    def test_residual_at_roots(self, rng):
        stack = random_stack(rng, max_layers=10)
        poly = build_charpoly(stack, 2)[EVEN]
        vals = np.abs(poly.evaluate(poly.roots()))
        assert vals.max() < 1e-10 * np.abs(poly.coeffs).max()


class TestRecursionDeterminant:
    def test_base_case(self, rng):
        stack = random_stack(rng, max_layers=6)
        n = 2
        lam = 0.37
        lam_N = lam if stack.N % 2 == 1 else -lam
        expected_even = lam_N - 0.5 * math.exp(-2 * n * stack.xi[-1])
        expected_odd = lam_N + 0.5 * math.exp(-2 * n * stack.xi[-1])
        assert_allclose(recursion_determinant(stack, lam, n, EVEN, i=stack.N), expected_even, rtol=1e-15)
        assert_allclose(recursion_determinant(stack, lam, n, ODD, i=stack.N), expected_odd, rtol=1e-15)

    def test_matches_dense_determinant(self, rng):
        for _ in range(20):
            stack = random_stack(rng, max_layers=10)
            n = int(rng.integers(1, 9))
            lam = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.0))
            for parity in (EVEN, ODD):
                dense = np.linalg.det(gpm_entries(stack, lam, n, parity))
                rec = recursion_determinant(stack, lam, n, parity, i=1)
                assert abs(dense - rec) <= 1e-10 * max(abs(dense), abs(rec))

    def test_matches_charpoly(self, rng):
        for _ in range(20):
            stack = random_stack(rng, max_layers=10)
            n = int(rng.integers(1, 9))
            lam = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.0))
            polys = build_charpoly(stack, n)
            for parity in (EVEN, ODD):
                rec = recursion_determinant(stack, lam, n, parity, i=1)
                ref = (-1.0) ** (stack.N // 2) * polys[parity].evaluate(lam)
                assert abs(rec - ref) <= 1e-10 * max(abs(rec), abs(ref))

    def test_bad_block_index(self):
        stack = LayerStack(R=1.0, xi=(1.0,))
        with pytest.raises(ValueError):
            recursion_determinant(stack, 0.1, 1, EVEN, i=2)


def assert_count_matches_eigenvalues(stack, n, rng, random_probes=20):
    """Each parity's row of the Sturm count equals numpy's count of that
    parity's interface-operator eigenvalues below random probes, and below
    and above every eigenvalue of either parity by 1e-7; it also equals the
    count from that parity's own recursion."""
    eigs = np.linalg.eigvals(-build_np(stack, n)).real
    probes = np.concatenate([rng.uniform(-0.6, 0.6, random_probes), eigs.ravel() - 1e-7, eigs.ravel() + 1e-7])
    counts = sturm_count(stack, probes, n)
    assert counts.shape == (2, probes.size)
    for p, parity in enumerate(PARITIES):
        expected = (eigs[p][None, :] < probes[:, None]).sum(axis=1)
        np.testing.assert_array_equal(counts[p], expected)
        np.testing.assert_array_equal(counts[p], sturm_count_one_parity(stack, probes, n, parity))


class TestSturmCount:
    def test_single_layer_closed_form(self):
        stack = LayerStack(R=1.0, xi=(1.0,))
        root = 0.5 * math.exp(-2.0)  # the even value; the odd one is -root
        probes = [-root - 1e-12, -root + 1e-12, root - 1e-12, root + 1e-12]
        assert sturm_count(stack, probes, 1).tolist() == [[0, 0, 0, 1], [0, 1, 1, 1]]

    def test_shape_and_validation(self):
        stack = LayerStack(R=1.0, xi=(2.0, 1.0))
        assert sturm_count(stack, 0.0, 1).shape == (2,)
        assert sturm_count(stack, np.zeros((4, 3)), 1).shape == (2, 4, 3)
        with pytest.raises(ValueError):
            sturm_count(stack, 0.0, 0)

    @pytest.mark.parametrize("parity,sign", [(EVEN, -1.0), (ODD, 1.0)])
    def test_exact_zero_ratio(self, parity, sign):
        # at this probe the parity's q_2 = D_2 is exactly 0; the count steps
        # over it without dividing by zero, and the other parity's row is
        # unaffected
        stack = LayerStack(R=1.0, xi=(2.0, 1.0))
        probe = sign * 0.5 * math.exp(-2.0)
        eigs = np.linalg.eigvals(-build_np(stack, 1)).real
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            counts = sturm_count(stack, probe, 1)
        np.testing.assert_array_equal(counts, (eigs < probe).sum(axis=1))
        assert counts[PARITIES.index(parity)] == sturm_count_one_parity(stack, probe, 1, parity)

    def test_random_stacks(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            stack = random_stack(rng, max_layers=60)
            assert_count_matches_eigenvalues(stack, int(rng.integers(1, 9)), rng)

    def test_geometric_stacks(self):
        rng = np.random.default_rng(62)
        for N in (1, 2, 5, 12, 20, 33, 47, 60):
            for ratio in (0.6, 0.8, 0.95):
                for xi_outer in (0.5, 3.0, 20.0):
                    assert_count_matches_eigenvalues(geometric_stack(N, xi_outer, ratio), int(rng.integers(1, 9)), rng)

    def test_thin_strip_stacks(self):
        # radii eps * (N, ..., 1): the values cluster at -1/2, 0 and 1/2
        rng = np.random.default_rng(63)
        for N in (2, 3, 8, 25, 60):
            for eps in (1e-1, 1e-2, 1e-3):
                stack = LayerStack(R=1.0, xi=tuple(eps * k for k in range(N, 0, -1)))
                assert_count_matches_eigenvalues(stack, int(rng.integers(1, 4)), rng)

    def test_fig9_stacks(self):
        rng = np.random.default_rng(64)
        for L in (1.0, 2.0, 3.0, 4.0, 5.0):
            assert_count_matches_eigenvalues(geometric_stack(17, 17 * L, 0.8), 1, rng)

    @pytest.mark.parametrize("N,n", [(300, 1), (1000, 8)])
    def test_ratio_form_stays_finite(self, N, n):
        stack = LayerStack(R=1.0, xi=tuple(np.linspace(20.0, 0.02, N)))
        if N == 1000:
            # the determinant itself underflows here; its ratios do not
            assert recursion_determinant(stack, 0.1, n, EVEN) == 0.0
        rng = np.random.default_rng(N)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert_count_matches_eigenvalues(stack, n, rng, random_probes=50)


class TestHCoefficients:
    def test_reference_values(self):
        assert h_coeff(4, 1) == 0
        assert h_coeff(5, 1) == -1
        assert h_coeff(6, 2) == -3

    def test_closed_forms(self):
        for N in range(1, 41):
            assert h_coeff(N, 1) == ((-1) ** N - 1) // 2
            if N >= 2:
                assert h_coeff(N, 2) == -(N // 2)
            assert h_coeff(N, N) == (-1) ** (N * (N + 1) // 2)
            assert h_coeff(N, 2 * (N // 2)) == (-1) ** (N // 2)

    def test_even_layer_binomial_form(self):
        for N in range(2, 31, 2):
            for k in range(0, N // 2 + 1):
                assert h_coeff(N, 2 * k) == (-1) ** k * math.comb(N // 2, k)

    def test_odd_index_vanishing_for_even_layers(self):
        for N in range(1, 21):
            for k in range(1, N + 1):
                assert h_coeff(2 * N, 2 * k - 1) == 0

    def test_parity_recursions(self):
        # the three parity-split recursions, exact integers, N <= 40
        for N in range(1, 20):
            for k in range(1, N + 1):
                assert h_coeff(2 * N + 1, 2 * k) == h_coeff(2 * N, 2 * k)
            for k in range(2, N + 1):
                assert h_coeff(2 * N + 2, 2 * k) == h_coeff(2 * N + 1, 2 * k) - h_coeff(2 * N + 1, 2 * k - 2)
                if 2 * N - 1 >= 2 * k - 1:
                    assert h_coeff(2 * N + 1, 2 * k - 1) == h_coeff(2 * N - 1, 2 * k - 1) - h_coeff(2 * N - 1, 2 * k - 3)

    def test_append_recursion(self):
        for N in range(2, 41):
            for k in range(1, N):
                assert h_coeff(N, k) == h_coeff(N - 1, k) + (-1) ** N * h_coeff(N - 1, k - 1)

    def test_against_brute_force(self):
        for N in range(0, 13):
            for k in range(0, N + 1):
                assert h_coeff(N, k) == brute_force_h(N, k)

    def test_range_check(self):
        with pytest.raises(ValueError):
            h_coeff(3, 4)


class TestDiskLimit:
    def test_two_layer_closed_form(self):
        stack = LayerStack(R=1.0, xi=(1.2, 0.8))
        n = 3
        poly = disk_limit_poly(stack, n)
        assert_allclose(
            poly.coeffs,
            [1.0, 0.0, -0.25 * math.exp(2 * n * (0.8 - 1.2))],
            atol=1e-16,
        )

    def test_coefficient_split_under_radial_shift(self):
        # odd-k coefficients shrink like exp(-2 n xi_tilde); even-k converge
        shifts = (0.9, 0.6, 0.3, 0.1)
        n = 1
        odd_norm = {}
        even_coeffs = {}
        for xt in (5.0, 10.0, 15.0):
            stack = LayerStack(R=1.0, xi=tuple(xt + c for c in shifts))
            poly = build_charpoly(stack, n)[EVEN]
            odd_norm[xt] = np.abs(poly.coeffs[1::2]).max()
            even_coeffs[xt] = poly.coeffs[0::2].copy()
        ratio1 = odd_norm[10.0] / odd_norm[5.0]
        ratio2 = odd_norm[15.0] / odd_norm[10.0]
        target = math.exp(-2 * n * 5.0)
        assert target / 30 < ratio1 < target * 30
        assert target / 30 < ratio2 < target * 30
        assert np.abs(even_coeffs[15.0] - even_coeffs[10.0]).max() < np.abs(
            even_coeffs[10.0] - even_coeffs[5.0]
        ).max()

    def test_root_distance_decay(self):
        shifts = (0.9, 0.6, 0.3, 0.1)
        n = 1
        dists = []
        for xt in (5.0, 10.0):
            stack = LayerStack(R=1.0, xi=tuple(xt + c for c in shifts))
            exact = np.sort(build_charpoly(stack, n)[EVEN].roots().real)
            limit = np.sort(disk_limit_poly(stack, n).roots().real)
            dists.append(np.abs(exact - limit).max())
        ratio = dists[1] / dists[0]
        target = math.exp(-2 * n * 5.0)
        assert target / 100 < ratio < target * 100


class TestThinStripLimit:
    def test_small_cases(self):
        assert_allclose(thin_strip_limit(2, +1), [1.0, 0.0, -0.25], atol=1e-16)
        assert_allclose(thin_strip_limit(2, -1), [1.0, 0.0, -0.25], atol=1e-16)
        # (lam - 1/2)(lam^2 - 1/4)
        assert_allclose(thin_strip_limit(3, +1), [1.0, -0.5, -0.25, 0.125], atol=1e-16)
        assert_allclose(thin_strip_limit(3, -1), [1.0, 0.5, -0.25, -0.125], atol=1e-16)

    def test_root_convergence(self):
        N, sign = 4, +1
        limit_roots = np.sort(np.roots(thin_strip_limit(N, sign)).real)
        devs = []
        for eps in (1e-1, 1e-2, 1e-3):
            stack = LayerStack(R=1.0, xi=tuple(eps * k for k in range(N, 0, -1)))
            roots = np.sort(build_charpoly(stack, 1)[EVEN if sign > 0 else ODD].roots().real)
            devs.append(np.abs(roots - limit_roots).max())
        assert devs[0] > devs[1] > devs[2]
