import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack.bie import (
    DiscretizedCurve,
    assemble_block_np,
    assemble_block_s,
    assemble_kstar_block,
    assemble_single_layer,
    block_np_eigenvalues,
    calderon_residual,
    curves_from_spec,
    deflate_constants,
    discrete_adjoint,
    kress_log_weights,
    self_adjointness_check,
)
from plasmonstack.errors import CurveError
from plasmonstack.geometry import LayerStack, elliptic_to_cartesian, metric_factor
from plasmonstack.npcore import EVEN, ODD, single_layer_action
from plasmonstack.spectrum import modes


class TestDiscretizedCurve:
    def test_circle_properties(self):
        c = DiscretizedCurve.circle(2.0, 64)
        assert_allclose(c.speed, 2.0, rtol=1e-14)
        assert_allclose(c.curvature, 0.5, rtol=1e-13)
        assert_allclose(np.einsum("ij,ij->i", c.normal, c.x / 2.0), 1.0, rtol=1e-14)

    def test_ellipse_matches_metric(self):
        R, xi, M = 1.3, 0.7, 96
        c = DiscretizedCurve.ellipse(R, xi, M)
        assert_allclose(c.speed, metric_factor(xi, c.t, R), rtol=1e-13)

    def test_orientation_enforced(self):
        M = 32
        with pytest.raises(CurveError):
            DiscretizedCurve.from_parametrization(
                lambda t: np.column_stack([np.cos(t), -np.sin(t)]),
                lambda t: np.column_stack([-np.sin(t), -np.cos(t)]),
                lambda t: np.column_stack([-np.cos(t), np.sin(t)]),
                M,
            )

    def test_odd_node_count_rejected(self):
        with pytest.raises(CurveError):
            DiscretizedCurve.circle(1.0, 33)

    def test_polar_radius_positivity(self):
        with pytest.raises(CurveError):
            DiscretizedCurve.polar((1.5,), 1.0, 32)

    def test_curves_from_spec(self):
        conf = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.8, 0.4]}, 32)
        assert len(conf) == 2
        pol = curves_from_spec({"type": "polar", "coeffs": [0, 0, 0.1], "scale": [1.5, 1.0]}, 32)
        assert len(pol) == 2
        with pytest.raises(CurveError):
            curves_from_spec({"type": "star"}, 32)


class TestKressRule:
    def test_exact_on_low_harmonics(self):
        # the rule integrates ln(4 sin^2((t-s)/2)) cos(m s) exactly: -2 pi/m
        M = 64
        R = kress_log_weights(M)
        t = np.arange(M) * 2 * np.pi / M
        for m in (1, 3, 7):
            vals = R @ np.cos(m * t)
            assert_allclose(vals, -2 * np.pi / m * np.cos(m * t), atol=1e-12)
        assert_allclose(R @ np.ones(M), 0.0, atol=1e-12)


class TestSingleCurveOperators:
    def test_circle_kstar_spectrum(self):
        c = DiscretizedCurve.circle(1.3, 64)
        ev = np.sort(np.linalg.eigvals(assemble_kstar_block(c)).real)
        assert abs(ev[-1] - 0.5) < 1e-12
        assert np.abs(ev[:-1]).max() < 1e-12

    def test_circle_single_layer_spectrum(self):
        r = 1.7
        c = DiscretizedCurve.circle(r, 64)
        ev = np.sort(np.linalg.eigvals(assemble_single_layer(c)).real)
        assert np.abs(ev - r * math.log(r)).min() < 1e-12
        for m in (1, 2, 5):
            assert np.abs(ev + r / (2 * m)).min() < 1e-12

    def test_ellipse_kstar_eigenvalues(self):
        R, xi0, M = 1.0, 0.5, 256
        c = DiscretizedCurve.ellipse(R, xi0, M)
        ev = np.linalg.eigvals(assemble_kstar_block(c))
        assert np.abs(ev.imag).max() < 1e-10
        evr = ev.real
        for n in range(1, 9):
            target = 0.5 * math.exp(-2 * n * xi0)
            assert np.abs(evr - target).min() < 1e-8
            assert np.abs(evr + target).min() < 1e-8
        assert np.abs(evr - 0.5).min() < 1e-12

    def test_ellipse_eigenvector_profiles(self):
        R, xi0, M = 1.0, 0.6, 128
        c = DiscretizedCurve.ellipse(R, xi0, M)
        ev, vecs = np.linalg.eig(assemble_kstar_block(c))
        for n, parity in ((1, EVEN), (2, EVEN), (1, ODD), (3, ODD)):
            target = 0.5 * math.exp(-2 * n * xi0) * (1 if parity == EVEN else -1)
            idx = int(np.argmin(np.abs(ev - target)))
            v = vecs[:, idx].real
            profile = (np.cos if parity == EVEN else np.sin)(n * c.t) / c.speed
            corr = abs(v @ profile) / (np.linalg.norm(v) * np.linalg.norm(profile))
            assert corr > 0.999

    def test_on_surface_single_layer_action(self):
        # product-quadrature matrix applied to the weighted Fourier density
        # reproduces the closed-form coefficient
        R, xi0, M = 0.9, 0.8, 512
        c = DiscretizedCurve.ellipse(R, xi0, M)
        S = assemble_single_layer(c)
        for n, parity in ((1, EVEN), (4, EVEN), (2, ODD), (6, ODD)):
            density = (np.cos if parity == EVEN else np.sin)(n * c.t) / c.speed
            vals = S @ density
            basis = (np.cos if parity == EVEN else np.sin)(n * c.t)
            coeff = 2.0 / M * (vals @ basis)
            assert_allclose(coeff, single_layer_action(n, parity, xi0, xi0), atol=1e-8)

    def test_off_surface_quadrature_oracle(self):
        # plain trapezoid evaluation off the curve matches both closed-form branches
        R, xi0, M = 0.9, 0.8, 512
        c = DiscretizedCurve.ellipse(R, xi0, M)
        for n, parity in ((2, EVEN), (3, ODD)):
            density = (np.cos if parity == EVEN else np.sin)(n * c.t) / c.speed
            for xi_eval, eta_eval in ((1.4, 0.7), (0.3, 2.1)):
                x = np.array(elliptic_to_cartesian(xi_eval, eta_eval, R))
                r = np.hypot(*(x[:, None] - c.x.T))
                val = (np.log(r) / (2 * np.pi)) @ (density * c.weights)
                angular = math.cos(n * eta_eval) if parity == EVEN else math.sin(n * eta_eval)
                expected = single_layer_action(n, parity, xi0, xi_eval) * angular
                assert_allclose(val, expected, atol=1e-10)

    def test_single_layer_weighted_symmetry(self):
        c = DiscretizedCurve.ellipse(1.0, 0.7, 128)
        S = assemble_single_layer(c)
        B = c.weights[:, None] * S
        assert np.abs(B - B.T).max() / np.abs(B).max() < 1e-10


class TestBlockOperators:
    def test_single_curve_block_is_negated_kstar(self):
        c = DiscretizedCurve.ellipse(1.0, 0.7, 64)
        block = assemble_block_np([c])
        assert_allclose(block.entries, -assemble_kstar_block(c), rtol=1e-15)

    def test_adjoint_is_quadrature_adjoint(self, rng):
        curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.9, 0.5]}, 48)
        block = assemble_block_np(curves)
        K = block.entries
        Kadj = discrete_adjoint(K, block.weights)
        w = block.weights
        for _ in range(5):
            phi = rng.normal(size=K.shape[0])
            psi = rng.normal(size=K.shape[0])
            assert_allclose((K @ phi) @ (w * psi), phi @ (w * (Kadj @ psi)), rtol=1e-12)

    def test_invalid_nesting_rejected(self):
        inner = DiscretizedCurve.circle(1.0, 32)
        outer = DiscretizedCurve.circle(2.0, 32)
        with pytest.raises(CurveError):
            assemble_block_np([inner, outer])  # wrong order: inner first
        crossing = [
            DiscretizedCurve.polar((0.0, 0.0, 0.3), 1.0, 64),
            DiscretizedCurve.polar((0.3,), 0.95, 64),
        ]
        with pytest.raises(CurveError):
            assemble_block_np(crossing)

    def test_mode_containment_medium_resolution(self):
        spec = {"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}
        curves = curves_from_spec(spec, 192)
        ev = block_np_eigenvalues(assemble_block_np(curves), deflated=False)
        stack = LayerStack(R=1.0, xi=(0.6, 0.55, 0.5))
        worst = 0.0
        for n in (1, 2, 3):
            ms = modes(stack, n)
            for parity in (EVEN, ODD):
                for lam in ms.lambdas(parity):
                    worst = max(worst, float(np.abs(ev - (-lam)).min()))
        assert worst < 1e-3

    def test_mode_containment_four_layers(self):
        spec = {"type": "confocal", "R": 1.0, "xi": [1.0, 0.92, 0.84, 0.76]}
        curves = curves_from_spec(spec, 256)
        ev = block_np_eigenvalues(assemble_block_np(curves), deflated=False)
        stack = LayerStack(R=1.0, xi=(1.0, 0.92, 0.84, 0.76))
        worst = 0.0
        for n in (1, 2, 3, 4):
            ms = modes(stack, n)
            for parity in (EVEN, ODD):
                for lam in ms.lambdas(parity):
                    worst = max(worst, float(np.abs(ev - (-lam)).min()))
        assert worst < 1e-6

    def test_identity_residuals_decrease(self):
        spec = {"type": "confocal", "R": 1.0, "xi": [0.8, 0.6, 0.4]}
        cal = []
        sym = []
        for M in (64, 128, 256):
            curves = curves_from_spec(spec, M)
            cal.append(calderon_residual(assemble_block_np(curves), assemble_block_s(curves)))
            sym.append(self_adjointness_check(assemble_block_np(curves), assemble_block_s(curves)))
        assert cal[0] > cal[1] > cal[2]
        assert sym[0] > sym[1] > sym[2]

    def test_circle_residuals_at_machine_precision(self):
        curves = [DiscretizedCurve.circle(1.2, 64)]
        assert calderon_residual(assemble_block_np(curves), assemble_block_s(curves)) < 1e-13
        assert self_adjointness_check(assemble_block_np(curves), assemble_block_s(curves)) < 1e-12

    def test_deflation_zeroes_constants(self):
        curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.9, 0.5]}, 48)
        block = assemble_block_np(curves)
        A = deflate_constants(block)
        for k in range(2):
            vec = np.zeros(A.shape[0])
            vec[block.offsets[k]:block.offsets[k + 1]] = 1.0
            assert np.abs(A @ vec).max() < 1e-13

    def test_spectral_bound_perturbed_curves(self):
        curves = [
            DiscretizedCurve.polar((0.0, 0.0, 0.1), 1.5, 192),
            DiscretizedCurve.polar((0.0, 0.0, 0.1), 1.0, 192),
            DiscretizedCurve.polar((0.0, 0.05), 0.6, 192),
        ]
        ev = block_np_eigenvalues(assemble_block_np(curves), deflated=True)
        assert np.abs(ev.imag).max() < 1e-8
        assert np.abs(ev.real).max() <= 0.5 + 1e-6

    def test_block_s_structure(self):
        curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.9, 0.5]}, 32)
        S = assemble_block_s(curves)
        M = 32
        # each block row repeats the same column operator pattern: rows differ
        # only through the evaluation curve, so the (0,1) and (1,1) blocks share
        # the column operator of curve 2
        b01 = S.entries[0:M, M:2 * M]
        b11 = S.entries[M:2 * M, M:2 * M]
        assert b01.shape == b11.shape
        # the diagonal block is the on-surface (log-split) one, hence differs
        assert np.abs(b01 - b11).max() > 1e-3
