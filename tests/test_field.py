import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack.errors import FieldOverflowError, GeometryError, RegionError, ResonanceError
from plasmonstack.field import (
    BackgroundField,
    field_grid,
    perturbed_gradient,
    perturbed_potential,
    region_index,
    solve_densities,
)
from plasmonstack.geometry import EllipticPoint, LayerStack, cartesian_to_elliptic, elliptic_to_cartesian
from plasmonstack.materials import sigma_from_lambda
from plasmonstack.npcore import EVEN, ODD, PARITIES, build_np
from plasmonstack.spectrum import modes

from oracles import (
    background_gradient,
    background_potential,
    density_summation_potential,
    min_order,
    structure_vectors,
    total_gradient,
    total_potential,
)

STACK = LayerStack(R=1.0, xi=(1.4, 1.0, 0.7, 0.4))
LAM = 0.17 + 1e-3j


def interior_point(rng, stack, lo=0.02, hi=None):
    hi = hi if hi is not None else stack.xi[0] + 1.5
    while True:
        xi = float(rng.uniform(lo, hi))
        if min(abs(xi - x) for x in stack.xi) > 1e-3:
            return EllipticPoint(xi=xi, eta=float(rng.uniform(0, 2 * math.pi)))


class TestBackgroundField:
    def test_single_term(self):
        H = BackgroundField.single(3, ODD, 2.0)
        assert list(H.components()) == [(3, ODD, 2.0 + 0j)]
        assert min_order(H) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BackgroundField(terms=((0, 1.0, 0.0),))
        with pytest.raises(ValueError):
            BackgroundField(terms=((2, 1.0, 0.0), (2, 0.0, 1.0)))

    def test_values(self):
        H = BackgroundField(terms=((2, 1.5, -0.5),))
        p = EllipticPoint(xi=0.8, eta=1.1)
        expected = 1.5 * math.cosh(1.6) * math.cos(2.2) - 0.5 * math.sinh(1.6) * math.sin(2.2)
        assert_allclose(background_potential(H, p).real, expected, rtol=1e-14)


class TestRegionIndex:
    def test_conventions(self):
        assert region_index(STACK, 2.0) == 0
        assert region_index(STACK, 1.2) == 1
        assert region_index(STACK, 0.1) == 4
        # points exactly on an interface belong to the inner region
        assert region_index(STACK, 1.4) == 1
        assert region_index(STACK, 0.4) == 4

    def test_vectorized(self):
        out = region_index(STACK, np.array([2.0, 1.2, 0.1]))
        assert out.tolist() == [0, 1, 4]


class TestSolveDensities:
    def test_zero_background(self):
        H = BackgroundField(terms=((2, 0.0, 0.0),))
        sol = solve_densities(STACK, LAM, H)
        assert sol == {}

    def test_single_layer_closed_form(self):
        stack = LayerStack(R=1.0, xi=(0.9,))
        n, a = 2, 1.3
        H = BackgroundField.single(n, EVEN, a)
        sol = solve_densities(stack, LAM, H)
        expected = n * a * math.sinh(n * 0.9) / (LAM - 0.5 * math.exp(-2 * n * 0.9))
        assert_allclose(sol[(n, EVEN)][0], expected, rtol=1e-14)

    def test_route_equivalence_with_interface_operator(self, rng):
        # the coupling-matrix solve and the transposed-operator solve are the
        # same vector up to overall sign: M = D (lam I + K^T) with D the
        # alternating sign matrix, so (-lam I - K^T) x = n a s_alt gives x = -phi
        for _ in range(10):
            N = int(rng.integers(1, 7))
            xi = tuple(np.sort(rng.uniform(0.1, 3.0, size=N))[::-1])
            if N > 1 and min(-np.diff(xi)) < 1e-3:
                continue
            stack = LayerStack(R=1.0, xi=xi)
            n = int(rng.integers(1, 6))
            a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            lam = complex(rng.uniform(-1, 1), rng.uniform(0.05, 0.5))
            parity = EVEN if rng.uniform() < 0.5 else ODD
            H = BackgroundField.single(n, parity, a)
            phi = solve_densities(stack, lam, H)[(n, parity)]
            sv = structure_vectors(stack, n)
            rhs_alt = n * a * (sv.s_alt if parity == EVEN else sv.c_alt)
            K = build_np(stack, n)[PARITIES.index(parity)]
            x = np.linalg.solve(-lam * np.eye(N) - K, rhs_alt)
            assert np.abs(x - (-phi)).max() < 1e-10 * max(1.0, np.abs(x).max())

    def test_resonance_error(self):
        stack = LayerStack(R=1.0, xi=(1.0, 0.5))
        ms = modes(stack, 1)
        lam_star = ms.lambdas(EVEN)[0]
        H = BackgroundField.single(1, EVEN, 1.0)
        with pytest.raises(ResonanceError, match="^order-1 even system is resonance-singular"):
            solve_densities(stack, lam_star, H)
        # a small loss parameter regularizes the same solve
        sol = solve_densities(stack, complex(lam_star, 1e-5), H)
        assert (1, EVEN) in sol


class TestPerturbedPotential:
    def test_representation_formula_equivalence(self, rng):
        H = BackgroundField(terms=((2, 1.1, -0.4), (5, 0.3, 0.8)))
        for _ in range(100):
            p = interior_point(rng, STACK)
            closed = perturbed_potential(STACK, LAM, H, p)
            direct = density_summation_potential(STACK, LAM, H, p)
            assert abs(closed - direct) <= 1e-10 * max(1.0, abs(closed))

    def test_continuity_across_interfaces(self, rng):
        H = BackgroundField(terms=((3, 1.0, 0.7),))
        for k in range(1, STACK.N + 1):
            for eta in rng.uniform(0, 2 * math.pi, 16):
                p = EllipticPoint(xi=STACK.xi[k - 1], eta=float(eta))
                outer = perturbed_potential(STACK, LAM, H, p, region=k - 1)
                inner = perturbed_potential(STACK, LAM, H, p, region=k)
                assert abs(outer - inner) <= 1e-8 * max(abs(outer), 1e-12)

    def test_exterior_decay_rate(self):
        H = BackgroundField(terms=((2, 1.0, 0.0), (5, 0.0, 0.6)))
        xi_samples = np.linspace(STACK.xi[0] + 2, STACK.xi[0] + 6, 24)
        vals = [
            abs(perturbed_potential(STACK, LAM, H, EllipticPoint(xi=float(x), eta=0.4)))
            for x in xi_samples
        ]
        slope = np.polyfit(xi_samples, np.log(vals), 1)[0]
        assert abs(slope - (-min_order(H))) < 0.02 * min_order(H)

    def test_linearity_in_background(self, rng):
        H1 = BackgroundField.single(2, EVEN, 1.0)
        H2 = BackgroundField.single(3, ODD, 1.0)
        a, b = 1.7, -0.6
        H = BackgroundField(terms=((2, a, 0.0), (3, 0.0, b)))
        p = interior_point(rng, STACK)
        combined = perturbed_potential(STACK, LAM, H, p)
        split = a * perturbed_potential(STACK, LAM, H1, p) + b * perturbed_potential(STACK, LAM, H2, p)
        assert abs(combined - split) <= 1e-13 * max(1.0, abs(combined))

    def test_interface_requires_region(self):
        H = BackgroundField.single(2, EVEN, 1.0)
        p = EllipticPoint(xi=STACK.xi[1], eta=0.3)
        with pytest.raises(RegionError):
            perturbed_potential(STACK, LAM, H, p)

    @pytest.mark.parametrize("region", [-1, STACK.N + 1])
    def test_region_out_of_range(self, region):
        H = BackgroundField.single(2, EVEN, 1.0)
        p = EllipticPoint(xi=0.5, eta=0.3)
        for evaluate in (perturbed_potential, perturbed_gradient):
            with pytest.raises(RegionError, match=rf"region must be in 0\.\.{STACK.N}, got {region}"):
                evaluate(STACK, LAM, H, p, region=region)


class TestPerturbedGradient:
    def test_zero_background_zero_gradient(self):
        H = BackgroundField(terms=((2, 0.0, 0.0),))
        g = perturbed_gradient(STACK, LAM, H, EllipticPoint(xi=0.2, eta=1.0))
        assert np.abs(g).max() == 0.0

    def test_finite_difference_cross_check(self, rng):
        H = BackgroundField(terms=((2, 1.0, -0.3), (4, 0.4, 0.5)))
        R = STACK.R
        checked = 0
        while checked < 200:
            p = interior_point(rng, STACK, lo=0.05)
            if min(abs(p.xi - x) for x in STACK.xi) < 5e-3 or p.xi < 0.05:
                continue
            x1, x2 = elliptic_to_cartesian(p.xi, p.eta, R)
            g = perturbed_gradient(STACK, LAM, H, p)
            h = 1e-6
            fd = []
            for dx, dy in ((h, 0.0), (0.0, h)):
                pp = EllipticPoint(*cartesian_to_elliptic(x1 + dx, x2 + dy, R))
                pm = EllipticPoint(*cartesian_to_elliptic(x1 - dx, x2 - dy, R))
                fd.append(
                    (perturbed_potential(STACK, LAM, H, pp)
                     - perturbed_potential(STACK, LAM, H, pm)) / (2 * h)
                )
            rel = np.linalg.norm(g - np.array(fd)) / max(np.linalg.norm(g), 1e-12)
            assert rel < 1e-5
            checked += 1

    def test_flux_transmission(self, rng):
        # sigma_out * normal derivative (outside) == sigma_in * (inside) on
        # every interface, with the conductivity matched to the contrast
        H = BackgroundField.single(3, EVEN, 1.0)
        sigma0 = 1.0
        sigma1 = sigma_from_lambda(LAM, sigma0)
        for k in range(1, STACK.N + 1):
            sig_out = sigma0 if (k - 1) % 2 == 0 else sigma1
            sig_in = sigma1 if k % 2 == 1 else sigma0
            for eta in rng.uniform(0, 2 * math.pi, 64):
                p = EllipticPoint(xi=STACK.xi[k - 1], eta=float(eta))
                normal = _unit_normal(p, STACK.R)
                g_out = total_gradient(STACK, LAM, H, p, region=k - 1)
                g_in = total_gradient(STACK, LAM, H, p, region=k)
                flux_out = sig_out * (g_out @ normal)
                flux_in = sig_in * (g_in @ normal)
                assert abs(flux_out - flux_in) <= 1e-6 * max(abs(flux_out), 1e-12)

    def test_focal_point_rejected(self):
        """Only the core region's formula has a limit at a focus."""
        H = BackgroundField.single(1, EVEN, 1.0)
        for eta in (0.0, math.pi):
            with pytest.raises(GeometryError, match="core region"):
                perturbed_gradient(STACK, LAM, H, EllipticPoint(xi=0.0, eta=eta), region=STACK.N - 1)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    @pytest.mark.parametrize("n", [2, 3])
    def test_focal_limit(self, n, parity):
        """At both foci (+-R, 0) the point and grid gradients are the core
        formula's limit, -prefix[N] (+-1)^(n-1) n^2 / R along x (even) or y
        (odd), and agree with central differences of the potential."""
        H = BackgroundField.single(n, parity, 1.0)
        phi = solve_densities(STACK, LAM, H)[(n, parity)]
        prefix_core = np.sum(np.exp(-n * STACK.xi_array) * phi / n)
        R, h = STACK.R, 1e-6
        [grid] = field_grid(STACK, [(LAM, H)], (-R, R, -1.0, 1.0), (2, 3), quantity="gradient")
        for side, eta, i in ((1.0, 0.0, 1), (-1.0, math.pi, 0)):
            limit = -prefix_core * side ** (n - 1) * n**2 / R
            expected = np.array([limit, 0.0] if parity == EVEN else [0.0, limit])
            g = perturbed_gradient(STACK, LAM, H, EllipticPoint(xi=0.0, eta=eta))
            assert_allclose(g, expected, rtol=1e-12, atol=0.0)
            if side > 0:  # gamma underflows to 0 here too: the same point in floating point
                assert_allclose(perturbed_gradient(STACK, LAM, H, EllipticPoint(xi=1e-170, eta=0.0)), g, rtol=0.0)
            assert_allclose(grid.values[i, 1] * grid.normalization, abs(limit), rtol=1e-12)
            fd = [
                (perturbed_potential(STACK, LAM, H, EllipticPoint(*cartesian_to_elliptic(side * R + dx, dy, R)))
                 - perturbed_potential(STACK, LAM, H, EllipticPoint(*cartesian_to_elliptic(side * R - dx, -dy, R))))
                / (2 * h)
                for dx, dy in ((h, 0.0), (0.0, h))
            ]
            assert np.abs(g - fd).max() <= 1e-6 * abs(limit)

    @pytest.mark.parametrize("evaluate", [perturbed_potential, perturbed_gradient])
    def test_overflow_rejected(self, evaluate):
        """Outside the stack u - H is exp(-n xi) suffix[0] times an angular
        factor: at n xi = 720, where cosh and sinh overflow, it is still a
        number.  A stack whose own radii reach n xi = 720 is refused."""
        n, xi, eta = 120, 6.0, 0.3
        H = BackgroundField.single(n, ODD, 1.0)
        v = solve_densities(STACK, LAM, H)[(n, ODD)] / n
        decay = math.exp(-n * xi) * np.sum(np.sinh(n * STACK.xi_array) * v)
        point = EllipticPoint(xi=xi, eta=eta)
        if evaluate is perturbed_potential:
            expected = -math.sin(n * eta) * decay
        else:
            d_xi, d_eta = n * math.sin(n * eta) * decay, -n * math.cos(n * eta) * decay
            p = (math.sinh(xi) * math.cos(eta), math.cosh(xi) * math.sin(eta))
            expected = np.array([d_xi * p[0] - d_eta * p[1], d_xi * p[1] + d_eta * p[0]]) / (p[0] ** 2 + p[1] ** 2)
        value = evaluate(STACK, LAM, H, point)
        assert np.all(value != 0)
        assert_allclose(value, expected, rtol=1e-12)
        with pytest.raises(FieldOverflowError, match=r"order-120 odd field .* n\*xi reaches 720 "):
            evaluate(LayerStack(R=1.0, xi=(6.0, 5.0, 4.0)), LAM, H, point)

    @pytest.mark.parametrize("evaluate", [perturbed_potential, perturbed_gradient])
    @pytest.mark.parametrize("terms,named", [
        pytest.param(((2, 1.0, 0.0), (120, 0.0, 1.0)), "order-120 odd", id="high-last"),
        pytest.param(((120, 0.0, 1.0), (2, 1.0, 0.0)), "order-120 odd", id="high-first"),
        pytest.param(((119, 1.0, 0.0), (120, 1.0, 1.0)), "order-120 even", id="lower-overflows-first"),
    ])
    def test_overflow_names_the_highest_order(self, evaluate, terms, named):
        """A multi-term background's refusal names its first component of
        the highest order, also when a lower order's right-hand side is the
        one that overflows (order 119: n xi_1 = 714)."""
        with pytest.raises(FieldOverflowError, match=rf"the {named} field .* n\*xi reaches 720 "):
            evaluate(LayerStack(R=1.0, xi=(6.0, 5.0, 4.0)), LAM, BackgroundField(terms), EllipticPoint(xi=0.3, eta=0.4))


def _unit_normal(p, R):
    g = R * math.sqrt(math.sinh(p.xi) ** 2 + math.sin(p.eta) ** 2)
    return np.array([R * math.sinh(p.xi) * math.cos(p.eta), R * math.cosh(p.xi) * math.sin(p.eta)]) / g


class TestTotalField:
    def test_total_is_sum(self, rng):
        H = BackgroundField.single(2, ODD, 0.9)
        p = interior_point(rng, STACK)
        u = total_potential(STACK, LAM, H, p)
        assert_allclose(
            u,
            background_potential(H, p) + perturbed_potential(STACK, LAM, H, p),
            rtol=1e-14,
        )

    def test_background_gradient_fd(self):
        H = BackgroundField(terms=((3, 0.8, -1.2),))
        p = EllipticPoint(xi=0.9, eta=2.2)
        R = 1.0
        x1, x2 = elliptic_to_cartesian(p.xi, p.eta, R)
        h = 1e-6
        g = background_gradient(H, p, R)
        for axis, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            pp = EllipticPoint(*cartesian_to_elliptic(x1 + dx, x2 + dy, R))
            pm = EllipticPoint(*cartesian_to_elliptic(x1 - dx, x2 - dy, R))
            fd = (background_potential(H, pp) - background_potential(H, pm)) / (2 * h)
            assert abs(g[axis] - fd) < 1e-6 * max(1.0, abs(fd))


class TestFieldGrid:
    def test_zero_background_normalizes_to_zero(self):
        H = BackgroundField(terms=((2, 0.0, 0.0),))
        grid = field_grid(STACK, [(LAM, H)], (-2, 2, -2, 2), (16, 16))[0]
        assert np.abs(grid.values).max() == 0.0
        assert grid.normalization == 1.0

    def test_normalization_constant(self):
        """A grid is divided by its max |Re(u - H)|, which it records."""
        H = BackgroundField.single(2, EVEN, 1.0)
        grid = field_grid(STACK, [(LAM, H)], (-2.5, 2.5, -2, 2), (41, 33))[0]
        assert np.abs(grid.values.real).max() == 1.0
        i, j = np.unravel_index(np.argmax(np.abs(grid.values.real)), grid.values.shape)
        p = EllipticPoint(*cartesian_to_elliptic(grid.x1[i], grid.x2[j], STACK.R))
        assert_allclose(grid.normalization, abs(perturbed_potential(STACK, LAM, H, p).real), rtol=1e-12)

    def test_angular_structure_of_resonant_modes(self):
        # eight modes of the four-layer reference geometry show the order-6
        # angular pattern: 12 sign changes on a surrounding contour
        stack = LayerStack.from_semimajor(0.9, [1.6, 1.4, 1.2, 1.0])
        n = 6
        ms = modes(stack, n)
        # offset keeps the sample points away from exact angular zeros
        eta = np.linspace(0, 2 * math.pi, 720, endpoint=False) + 7e-4
        for parity in (EVEN, ODD):
            for rank in range(1, 5):
                lam = complex(ms.lambdas(parity)[rank - 1], 1e-5)
                H = BackgroundField.single(n, parity, 1.0)
                xi_c = stack.xi[0] + 0.5
                vals = np.array(
                    [
                        perturbed_potential(stack, lam, H, EllipticPoint(xi=xi_c, eta=float(e))).real
                        for e in eta
                    ]
                )
                signs = np.sign(vals)
                crossings = int(np.sum(signs != np.roll(signs, 1)))
                assert crossings == 2 * n, (parity, rank, crossings)

    @pytest.mark.parametrize(
        "H",
        [
            BackgroundField.single(2, EVEN, 1.0),
            BackgroundField.single(3, ODD, 0.5 - 1.0j),
            BackgroundField(terms=((1, 1.0, 0.5j), (3, -0.4, 0.7), (5, 0.2j, 0.0))),
        ],
        ids=["even", "odd", "multi-order"],
    )
    def test_grid_matches_point_evaluation(self, H):
        # 20 x 16 nodes: no node lands on a focal point (x2 = 0 is not sampled)
        bbox, resolution = (-2.5, 2.5, -2.0, 2.0), (20, 16)
        x1 = np.linspace(bbox[0], bbox[1], resolution[0])
        x2 = np.linspace(bbox[2], bbox[3], resolution[1])
        XI, ETA = cartesian_to_elliptic(*np.meshgrid(x1, x2, indexing="ij"), STACK.R)
        off_interface = np.abs(XI[..., None] - STACK.xi_array).min(axis=-1) > 1e-9
        points = [(i, j, EllipticPoint(xi=float(XI[i, j]), eta=float(ETA[i, j])))
                  for i, j in zip(*np.nonzero(off_interface))]
        assert len(points) > 0.9 * XI.size
        [potential] = field_grid(STACK, [(LAM, H)], bbox, resolution)
        [gradient] = field_grid(STACK, [(LAM, H)], bbox, resolution, quantity="gradient")
        for grid, at_point in (
            (potential, lambda p: perturbed_potential(STACK, LAM, H, p)),
            (gradient, lambda p: np.linalg.norm(perturbed_gradient(STACK, LAM, H, p))),
        ):
            raw = grid.values * grid.normalization
            tol = 1e-13 * np.abs(raw).max()
            worst = max(abs(raw[i, j] - at_point(p)) for i, j, p in points)
            assert worst <= tol, (grid.quantity, worst, tol)

    def test_gradient_grid_quantity(self):
        H = BackgroundField.single(2, EVEN, 1.0)
        grid = field_grid(STACK, [(LAM, H)], (-2.5, 2.5, -2, 2), (31, 21), quantity="gradient")[0]
        assert grid.values.dtype.kind == "f"
        assert np.all(grid.values >= 0.0)
        assert grid.quantity == "gradient"

    def test_interfaces_attached(self):
        H = BackgroundField.single(1, EVEN, 1.0)
        grid = field_grid(STACK, [(LAM, H)], (-2, 2, -2, 2), (8, 8))[0]
        assert len(grid.interfaces) == STACK.N

    def test_bad_inputs(self):
        H = BackgroundField.single(1, EVEN, 1.0)
        with pytest.raises(ValueError):
            field_grid(STACK, [(LAM, H)], (-2, 2, -2, 2), (1, 8))
        with pytest.raises(ValueError):
            field_grid(STACK, [(LAM, H)], (-2, 2, -2, 2), (8, 8), quantity="curl")
