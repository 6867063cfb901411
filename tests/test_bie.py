import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack import bie, runconfig, runners
from plasmonstack.bie import (
    DiscretizedCurve,
    assemble_block_np,
    assemble_block_s,
    block_np_eigenvalues,
    calderon_residual,
    curves_from_spec,
    deflate_constants,
    harmonic_restriction,
    kress_log_weights,
    self_adjointness_check,
)
from plasmonstack.errors import CurveError
from plasmonstack.geometry import LayerStack, elliptic_to_cartesian
from plasmonstack.npcore import EVEN, ODD, build_np

from oracles import (
    blockwise_operators,
    dense_calderon_residual,
    dense_deflation,
    dense_self_adjointness,
    discrete_adjoint,
    kstar_block,
    metric_factor,
    mode_containment,
    single_layer_action,
)


#: (spec, M) of the assembly and residual reference tests; M = 200 is above
#: the row kernels' chunk and not a multiple of it
GEOMETRIES, GEOMETRY_IDS = zip(*[
    (({"type": "polar", "coeffs": [], "scale": 1.3}, 64), "circle-64"),
    (({"type": "polar", "coeffs": [], "scale": 1.3}, 128), "circle-128"),
    (({"type": "polar", "coeffs": [], "scale": 1.3}, 256), "circle-256"),
    (({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 128), "confocal-128"),
    (({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 256), "confocal-256"),
    (({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 384), "confocal-384"),
    (({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 512), "confocal-512"),
    (({"type": "confocal", "R": 1.0, "xi": [0.9, 0.5]}, 48), "confocal-2-48"),
    (({"type": "polar", "coeffs": [0.0, 0.0, 0.1], "scale": [1.5, 1.0, 0.6]}, 64), "polar-3-64"),
    (({"type": "confocal", "R": 1.0, "xi": [math.acosh(a) for a in (1.0010, 1.00055, 1.0001)]}, 128), "fig12-128"),
    (({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 200), "confocal-200"),
    (({"type": "confocal", "R": 1.0, "xi": [0.6]}, 200), "ellipse-200"),
])


def kstar(curve):
    """K* of one curve: its block interface operator is -K*."""
    return -assemble_block_np([curve]).entries


def single_layer(curve):
    return assemble_block_s([curve]).entries


class TestDiscretizedCurve:
    def test_circle_properties(self):
        c = DiscretizedCurve.polar((), 2.0, 64)
        assert_allclose(c.speed, 2.0, rtol=1e-14)
        assert_allclose(c.curvature, 0.5, rtol=1e-13)
        assert_allclose(np.einsum("ij,ij->i", c.normal, c.x / 2.0), 1.0, rtol=1e-14)

    def test_ellipse_matches_metric(self):
        R, xi, M = 1.3, 0.7, 96
        c = DiscretizedCurve.ellipse(R, xi, M)
        assert_allclose(c.speed, metric_factor(xi, c.t, R), rtol=1e-13)

    def test_orientation_enforced(self):
        t = np.arange(32) * (2 * np.pi / 32)
        x = np.column_stack([np.cos(t), -np.sin(t)])  # clockwise unit circle
        with pytest.raises(CurveError):
            DiscretizedCurve(t=t, x=x, dx=np.column_stack([-np.sin(t), -np.cos(t)]), ddx=-x)

    def test_odd_node_count_rejected(self):
        with pytest.raises(CurveError):
            DiscretizedCurve.polar((), 1.0, 33)

    def test_curvature_must_stay_representable(self):
        # at xi = 1e-110 the speed is finite but its cube underflows
        with pytest.raises(CurveError, match="^curvatures of the 16-node curve are not finite in float64$"):
            DiscretizedCurve.ellipse(1.0, 1e-110, 16)
        c = DiscretizedCurve.ellipse(1.0, 1e-100, 16)
        assert np.all(np.isfinite(c.curvature)) and c.curvature.max() > 1e199

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

    def test_entries_depend_on_index_distance(self):
        M = 64
        R = kress_log_weights(M)
        idx = np.arange(M)
        assert np.array_equal(R, R[0][np.abs(idx[:, None] - idx[None, :])])


class TestSingleCurveOperators:
    def test_circle_kstar_spectrum(self):
        c = DiscretizedCurve.polar((), 1.3, 64)
        ev = np.sort(np.linalg.eigvals(kstar(c)).real)
        assert abs(ev[-1] - 0.5) < 1e-12
        assert np.abs(ev[:-1]).max() < 1e-12

    def test_circle_single_layer_spectrum(self):
        r = 1.7
        c = DiscretizedCurve.polar((), r, 64)
        ev = np.sort(np.linalg.eigvals(single_layer(c)).real)
        assert np.abs(ev - r * math.log(r)).min() < 1e-12
        for m in (1, 2, 5):
            assert np.abs(ev + r / (2 * m)).min() < 1e-12

    def test_ellipse_kstar_eigenvalues(self):
        R, xi0, M = 1.0, 0.5, 256
        c = DiscretizedCurve.ellipse(R, xi0, M)
        ev = np.linalg.eigvals(kstar(c))
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
        ev, vecs = np.linalg.eig(kstar(c))
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
        S = single_layer(c)
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
        S = single_layer(c)
        B = c.weights[:, None] * S
        assert np.abs(B - B.T).max() / np.abs(B).max() < 1e-10


class TestBlockOperators:
    def test_single_curve_block_is_negated_kstar(self):
        c = DiscretizedCurve.ellipse(1.0, 0.7, 64)
        assert np.array_equal(assemble_block_np([c]).entries, -kstar_block(c))

    def test_block_layout(self):
        curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.9, 0.7, 0.5]}, 32)
        blocks = assemble_block_np(curves).entries.reshape(3, 32, 3, 32)
        # curve k owns rows and columns 32k ... 32k + 31; block row k carries (-1)^(k+1)
        # and its own block is the curve's K*
        for k, curve in enumerate(curves):
            assert np.array_equal(blocks[k, :, k, :], (-1) ** (k + 1) * kstar(curve))

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
        inner = DiscretizedCurve.polar((), 1.0, 32)
        outer = DiscretizedCurve.polar((), 2.0, 32)
        with pytest.raises(CurveError):
            assemble_block_np([inner, outer])  # wrong order: inner first
        crossing = [
            DiscretizedCurve.polar((0.0, 0.0, 0.3), 1.0, 64),
            DiscretizedCurve.polar((0.3,), 0.95, 64),
        ]
        with pytest.raises(CurveError):
            assemble_block_np(crossing)
        # the inner circle leaves the outer ellipse's bounding box (b = sinh 0.5 < 0.6)
        past_box = [DiscretizedCurve.ellipse(1.0, 0.5, 64), DiscretizedCurve.polar((), 0.6, 64)]
        assert np.abs(past_box[1].x[:, 1]).max() > np.abs(past_box[0].x[:, 1]).max()
        with pytest.raises(CurveError, match="curve 2 is not strictly inside curve 1"):
            assemble_block_np(past_box)
        with pytest.raises(CurveError, match="need at least one curve"):
            assemble_block_np([])

    def test_mode_containment_medium_resolution(self):
        assert mode_containment({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 192, 3) < 1e-3

    def test_mode_containment_four_layers(self):
        assert mode_containment({"type": "confocal", "R": 1.0, "xi": [1.0, 0.92, 0.84, 0.76]}, 256, 4) < 1e-6

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
        curves = [DiscretizedCurve.polar((), 1.2, 64)]
        assert calderon_residual(assemble_block_np(curves), assemble_block_s(curves)) < 1e-13
        assert self_adjointness_check(assemble_block_np(curves), assemble_block_s(curves)) < 1e-12

    def test_calderon_residual_of_a_large_curve(self):
        # S reaches 1e153 at xi = 350, where its squared norm overflowed and
        # the residual read a false 0.0; xi = 340 stays in range
        residuals = []
        for xi in (340.0, 350.0):
            curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [xi, xi - 0.5]}, 16)
            residuals.append(calderon_residual(assemble_block_np(curves), assemble_block_s(curves)))
        assert np.isfinite(residuals[1])
        assert_allclose(residuals[1], residuals[0], rtol=1e-4)

    def test_self_adjointness_of_a_large_curve(self):
        # the form matrix's squared norms overflowed from xi = 351 on, where
        # the residual read a false 0.0; xi = 340 stays in range
        residuals = []
        for xi in (340.0, 352.0):
            curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [xi, xi - 0.5]}, 16)
            residuals.append(self_adjointness_check(assemble_block_np(curves), assemble_block_s(curves)))
        assert_allclose(residuals[1], residuals[0], rtol=1e-4)

    def test_deflation_zeroes_constants(self):
        curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.9, 0.5]}, 48)
        block = assemble_block_np(curves)
        A = deflate_constants(block)
        for k in range(2):
            vec = np.zeros((block.layers, 48))
            vec[k] = 1.0  # the constant density on curve k, zero on the others
            assert np.abs(A @ vec.reshape(-1)).max() < 1e-13

    def test_deflation_overwrites_the_block(self):
        curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 64)
        block = assemble_block_np(curves)
        # the out-of-place form of the same two rank-one updates
        n, N = block.entries.shape[0], block.layers
        u = block.weights.reshape(N, -1)
        u = u / u.sum(axis=1, keepdims=True)
        rows = block.entries.reshape(N, -1, n)
        expected = (rows - u[:, None, :] @ rows).reshape(n, N, -1)
        expected -= expected.sum(axis=2, keepdims=True) * u
        assert deflate_constants(block) is block.entries
        assert np.array_equal(block.entries, expected.reshape(n, n))

    @pytest.mark.parametrize("curves", [
        curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.9, 0.5]}, 48),
        curves_from_spec({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 64),
        curves_from_spec({"type": "polar", "coeffs": [0.0, 0.0, 0.1], "scale": [1.5, 1.0, 0.6]}, 64),
    ], ids=["confocal-2", "confocal-3", "polar-3"])
    def test_deflation_matches_dense_projector(self, curves):
        block = assemble_block_np(curves)
        expected = dense_deflation(block)
        assert np.abs(deflate_constants(block) - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("spec,M", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_rows_match_blockwise_assembly(self, spec, M):
        # the row kernels reproduce the block-by-block kernels bit for bit
        curves = curves_from_spec(spec, M)
        K, S, weights = blockwise_operators(curves)
        block_np, block_s = assemble_block_np(curves), assemble_block_s(curves)
        assert np.array_equal(block_np.entries, K)
        assert np.array_equal(block_s.entries, S)
        assert np.array_equal(block_np.weights, weights)
        assert np.array_equal(block_s.weights, weights)

    @pytest.mark.parametrize("spec,M", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_residuals_match_whole_matrices(self, spec, M):
        # streaming over row blocks moves the residuals by roundoff only
        curves = curves_from_spec(spec, M)
        Kst, S = assemble_block_np(curves), assemble_block_s(curves)
        assert_allclose(calderon_residual(Kst, S), dense_calderon_residual(Kst, S), rtol=1e-10, atol=1e-16)
        assert_allclose(self_adjointness_check(Kst, S), dense_self_adjointness(Kst, S), rtol=1e-10, atol=1e-16)

    @pytest.mark.parametrize("spec,M", [
        ({"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}, 256),
        ({"type": "polar", "coeffs": [], "scale": 1.3}, 1024),
    ], ids=["confocal-256", "circle-1024"])
    @pytest.mark.parametrize("operation,limit", [
        (assemble_block_np, 1.75),
        (assemble_block_s, 1.75),
        (calderon_residual, 0.3),
        (self_adjointness_check, 0.3),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_working_set(self, operation, limit, spec, M):
        # peak memory traced during one operation, its output included, in
        # (N M)^2 float64 matrices: numpy reports its buffers to tracemalloc
        curves = curves_from_spec(spec, M)
        args = (curves,)
        if operation in (calderon_residual, self_adjointness_check):
            args = (assemble_block_np(curves), assemble_block_s(curves))
        matrix = (len(curves) * M) ** 2 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            operation(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / matrix <= limit

    def test_node_coincidence_rejected(self):
        circle = DiscretizedCurve.polar((), 1.0, 8)
        x = circle.x.copy()
        x[4] = x[0]
        moved = DiscretizedCurve(t=circle.t, x=x, dx=circle.dx, ddx=circle.ddx)
        for assemble in (assemble_block_np, assemble_block_s):
            with pytest.raises(CurveError, match="node coincidence: two distinct nodes map to one point"):
                assemble([moved])

    def test_mixed_node_counts_rejected(self):
        curves = [DiscretizedCurve.polar((), 2.0, 32), DiscretizedCurve.polar((), 1.0, 64)]
        for assemble in (assemble_block_np, assemble_block_s):
            with pytest.raises(CurveError, match="one node count"):
                assemble(curves)

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


class TestHarmonicRestriction:
    """The projection of the assembled K* onto per-curve harmonics that
    ``match_orders`` checks the exact Fourier matrix representation with."""

    SPEC = {"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}

    def test_confocal_restriction_is_the_np_matrix(self):
        curves = curves_from_spec(self.SPEC, 256)
        block = assemble_block_np(curves)
        entries = block.entries.copy()
        C, residual = harmonic_restriction(block, curves, 4)
        assert C.shape == (4, 2, 3, 3) and residual.shape == (4, 2)
        assert np.array_equal(block.entries, entries)
        # invariant at roundoff, while the entries still carry the M = 256 discretization error
        assert residual.max() < 1e-13
        stack = LayerStack(R=1.0, xi=(0.6, 0.55, 0.5))
        for n in range(1, 5):
            assert_allclose(C[n - 1], build_np(stack, n), rtol=0, atol=1e-5)

    def test_perturbed_curves_are_not_invariant(self):
        # r = s (1 + eps cos 2 theta) is not confocal: the residual is about
        # 0.22-0.28 eps for n = 1..5, and at roundoff on the circles eps = 0
        eps = 0.005
        curves = [DiscretizedCurve.polar((0.0, eps), s, 64) for s in (1.0, 0.8, 0.6)]
        _, residual = harmonic_restriction(assemble_block_np(curves), curves, 5)
        assert residual.min() > 0.1 * eps
        circles = [DiscretizedCurve.polar((), s, 64) for s in (1.0, 0.8, 0.6)]
        assert harmonic_restriction(assemble_block_np(circles), circles, 5)[1].max() < 1e-13

    @pytest.mark.parametrize("xi", [[3.0, 2.0], [6.0, 5.0, 4.0]])
    def test_every_resolved_order_is_invariant_on_thick_stacks(self, xi):
        # K* B_n falls to roundoff like exp(-2 n xi_N), so from order 7 on
        # [3, 2] its own size is no scale for the residual; K*'s is
        curves = curves_from_spec({"type": "confocal", "R": 1.0, "xi": xi}, 128)
        _, residual = harmonic_restriction(assemble_block_np(curves), curves, 63)
        assert residual.max() < 1e-13

    @pytest.mark.parametrize("M", [128, 384])
    def test_paired_gap_against_containment(self, M):
        # pairing each mode with the eigenvalues of its own harmonic agrees with
        # the nearest of all N M eigenvalues once resolved (M = 384, the
        # bie-confocal preset's); under-resolved, pairing is the stricter
        report = runners.run_bie(runconfig.normalize(
            "bie-validate", {"curves": self.SPEC, "nodes": [M], "match_orders": 6}))
        contained = mode_containment(self.SPEC, M, 6)
        if M == 128:
            assert report["mode_paired_gap"] >= contained
        else:
            assert_allclose(report["mode_paired_gap"], contained, rtol=1e-3)


class TestRunWorkingSet:
    """Memory traced during ``run_bie``, in (N M)^2 float64 matrices of the
    finest node count.  LAPACK's own copy in ``eigvals`` is not traced."""

    CONFIG = {"curves": {"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]},
              "nodes": [128, 256], "match_orders": 2}
    MATRIX = (3 * 256) ** 2 * 8

    def test_eigensolves_add_at_most_the_deflation_update(self, monkeypatch):
        # S is released before the eigensolves, and deflation adds only its
        # column update; eigvals itself is also called by modes and the mode
        # check on 2 x 2 matrices, so the block route is the one wrapped
        solve = bie.block_np_eigenvalues
        added = []

        def traced(*args, **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ev = solve(*args, **kwargs)
            added.append((tracemalloc.get_traced_memory()[1] - live) / self.MATRIX)
            return ev

        monkeypatch.setattr(bie, "block_np_eigenvalues", traced)
        cfg = runconfig.normalize("bie-validate", self.CONFIG)
        tracemalloc.start()
        try:
            runners.run_bie(cfg)
        finally:
            tracemalloc.stop()
        # the bound excess per node count; the mode check projects K* and solves no block
        assert len(added) == len(cfg["nodes"])
        assert max(added) <= 1.1

    def test_run_peak(self):
        # K* and S with the residuals' block temporaries, or S's assembly
        # while K* is held, never a third matrix
        cfg = runconfig.normalize("bie-validate", self.CONFIG)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            runners.run_bie(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / self.MATRIX <= 2.6

    def test_run_peak_at_the_highest_order(self):
        # the harmonic projection takes one curve's image at a time, so even
        # 2 x 127 harmonics per curve at 256 nodes add no matrix
        cfg = runconfig.normalize("bie-validate", {**self.CONFIG, "match_orders": 127})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            runners.run_bie(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / self.MATRIX <= 2.6
