import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasmonstack.bie import DiscretizedCurve
from plasmonstack.errors import CurveError, GeometryError
from plasmonstack.geometry import (
    EllipticPoint,
    LayerStack,
    cartesian_to_elliptic,
    elliptic_to_cartesian,
    xi_from_semimajor,
)

from oracles import curvature, metric_factor


class TestCoordinateMap:
    def test_focal_point(self):
        assert elliptic_to_cartesian(0.0, 0.0, 2.0) == (2.0, 0.0)

    def test_symmetry_axis(self):
        x1, x2 = elliptic_to_cartesian(1.0, math.pi / 2, 1.0)
        assert_allclose(x1, 0.0, atol=1e-16)
        assert_allclose(x2, math.sinh(1.0), rtol=1e-15)

    def test_generic_point_against_direct_evaluation(self):
        # independent direct evaluation of the two closed-form expressions
        xi, eta, R = 0.5, 1.2, 0.9
        expected = (R * math.cosh(xi) * math.cos(eta), R * math.sinh(xi) * math.sin(eta))
        assert_allclose(elliptic_to_cartesian(xi, eta, R), expected, rtol=1e-15)

    def test_inverse_trivial_points(self):
        assert cartesian_to_elliptic(2.0, 0.0, 2.0) == (0.0, 0.0)
        xi, eta = cartesian_to_elliptic(0.0, math.sinh(1.0), 1.0)
        assert_allclose([xi, eta], [1.0, math.pi / 2], rtol=1e-14)

    def test_round_trip_random(self, rng):
        xi = rng.uniform(1e-3, 20.0, size=1000)
        eta = rng.uniform(0.0, 2 * math.pi, size=1000)
        R = 1.7
        x1, x2 = elliptic_to_cartesian(xi, eta, R)
        xi2, eta2 = cartesian_to_elliptic(x1, x2, R)
        y1, y2 = elliptic_to_cartesian(xi2, eta2, R)
        scale = np.hypot(x1, x2)
        assert np.max(np.hypot(y1 - x1, y2 - x2) / scale) < 1e-12

    def test_focal_segment_maps_to_zero_xi(self):
        xi, eta = cartesian_to_elliptic(0.3, 0.0, 1.0)
        assert xi == 0.0
        assert_allclose(eta, math.acos(0.3), rtol=1e-14)

    def test_bad_R_rejected(self):
        with pytest.raises(GeometryError):
            elliptic_to_cartesian(1.0, 0.0, 0.0)
        with pytest.raises(GeometryError):
            cartesian_to_elliptic(1.0, 0.0, -1.0)


class TestSemimajor:
    def test_degenerate(self):
        assert xi_from_semimajor(1.5, 1.5) == 0.0

    def test_closed_form(self):
        # arccosh(10/9), evaluated independently via the log form
        expected = math.log(10.0 / 9.0 + math.sqrt((10.0 / 9.0) ** 2 - 1.0))
        assert_allclose(xi_from_semimajor(1.0, 0.9), expected, rtol=1e-15)
        assert_allclose(expected, 0.46715, atol=5e-6)

    def test_equidistant_semimajor_stack(self):
        xi = xi_from_semimajor(np.array([1.6, 1.4, 1.2, 1.0]), 0.9)
        assert np.all(np.diff(xi) < 0)
        assert xi.shape == (4,)
        assert_allclose(0.9 * np.cosh(xi), [1.6, 1.4, 1.2, 1.0], rtol=1e-15)

    def test_invalid_geometry(self):
        with pytest.raises(GeometryError):
            xi_from_semimajor(0.8, 0.9)
        with pytest.raises(GeometryError, match="focal half-distance must be positive, got R=0.0"):
            xi_from_semimajor(2.0, 0.0)


class TestCurvature:
    """The curvature the Nystrom kernels use, on a confocal ellipse, against
    the analytic formula and a finite difference of the tangent angle."""

    def test_max_at_semi_major_vertices(self):
        curve = DiscretizedCurve.ellipse(1.3, 0.7, 720)
        kappa = curve.curvature
        assert_allclose(kappa, curvature(0.7, curve.t, 1.3), rtol=1e-12)
        peak = np.cosh(0.7) / (1.3 * np.sinh(0.7) ** 2)
        assert_allclose(kappa.max(), peak, rtol=1e-12)
        arg = curve.t[np.argmax(kappa)]
        assert min(arg, abs(arg - math.pi), abs(arg - 2 * math.pi)) < 1e-12

    def test_large_xi_circle_limit(self):
        # a large-xi ellipse is a circle of radius R e^xi / 2
        kappa = DiscretizedCurve.ellipse(2.0, 10.0, 64).curvature
        assert_allclose(kappa, 2.0 / (2.0 * math.exp(10.0)), rtol=1e-8)

    def test_against_finite_difference_of_tangent_angle(self):
        # central difference of the analytic tangent angle over arclength
        xi0, R = 0.9, 1.1
        curve = DiscretizedCurve.ellipse(R, xi0, 100)
        h = 1e-5

        def tangent_angle(e):
            return math.atan2(R * math.sinh(xi0) * math.cos(e), -R * math.cosh(xi0) * math.sin(e))

        for e, kappa in zip(curve.t, curve.curvature):
            dphi = tangent_angle(e + h) - tangent_angle(e - h)
            dphi = (dphi + math.pi) % (2 * math.pi) - math.pi
            kappa_fd = dphi / (2 * h * metric_factor(xi0, e, R))
            assert_allclose(kappa_fd, kappa, rtol=1e-8)
            assert_allclose(kappa, curvature(xi0, e, R), rtol=1e-12)

    def test_singular_geometry(self):
        # the xi = 0 ellipse is the focal segment, where the curvature is singular
        with pytest.raises(CurveError):
            DiscretizedCurve.ellipse(1.0, 0.0, 64)


class TestMetricFactor:
    def test_matches_parametrization_speed(self, rng):
        xi = rng.uniform(0.05, 5.0, size=200)
        eta = rng.uniform(0.0, 2 * math.pi, size=200)
        R = 0.8
        h = 1e-7
        x1p, x2p = elliptic_to_cartesian(xi, eta + h, R)
        x1m, x2m = elliptic_to_cartesian(xi, eta - h, R)
        speed = np.hypot(x1p - x1m, x2p - x2m) / (2 * h)
        assert_allclose(speed, metric_factor(xi, eta, R), rtol=1e-7)

    def test_exact_identity(self, rng):
        # gamma equals |d x / d eta| analytically
        xi, eta, R = 1.3, 0.4, 2.2
        dx1 = -R * math.cosh(xi) * math.sin(eta)
        dx2 = R * math.sinh(xi) * math.cos(eta)
        assert_allclose(math.hypot(dx1, dx2), metric_factor(xi, eta, R), rtol=1e-12)


class TestLayerStack:
    def test_validation(self):
        with pytest.raises(GeometryError):
            LayerStack(R=1.0, xi=(1.0, 1.0))
        with pytest.raises(GeometryError):
            LayerStack(R=1.0, xi=(1.0, 2.0))
        with pytest.raises(GeometryError):
            LayerStack(R=0.0, xi=(1.0,))
        with pytest.raises(GeometryError):
            LayerStack(R=1.0, xi=())
        with pytest.raises(GeometryError):
            LayerStack(R=1.0, xi=(1.0, -0.5))

    def test_interface_polyline_closes(self):
        stack = LayerStack(R=1.0, xi=(0.8, 0.4))
        x1, x2 = stack.interface_polyline(1)
        assert x1.shape == x2.shape == (401,)
        assert_allclose([x1[0], x2[0]], [x1[-1], x2[-1]], atol=1e-12)
        with pytest.raises(GeometryError):
            stack.interface_polyline(3)


class TestEllipticPoint:
    def test_eta_wrapped(self):
        p = EllipticPoint(xi=1.0, eta=2 * math.pi + 0.3)
        assert_allclose(p.eta, 0.3, atol=1e-12)

    def test_negative_xi_rejected(self):
        with pytest.raises(GeometryError):
            EllipticPoint(xi=-0.1, eta=0.0)

    def test_cartesian_round_trip(self):
        p = EllipticPoint(xi=0.8, eta=2.5)
        q = EllipticPoint(*cartesian_to_elliptic(*elliptic_to_cartesian(p.xi, p.eta, 1.4), 1.4))
        assert_allclose([q.xi, q.eta], [p.xi, p.eta], rtol=1e-12)
