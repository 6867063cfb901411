"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 2 and 9 carry strict xfail markers: one sub-clause of each is
numerically unreachable as stated (analysis in the test docstrings and in
the repository notes); the assertions are kept literal rather than loosened.
"""

import itertools
import math
import time

import numpy as np
import pytest

from plasmonstack.bie import (
    DiscretizedCurve,
    assemble_block_np,
    assemble_block_s,
    calderon_residual,
    curves_from_spec,
    self_adjointness_check,
)
from plasmonstack.charpoly import build_charpoly
from plasmonstack.field import BackgroundField, perturbed_potential
from plasmonstack.geometry import EllipticPoint, LayerStack
from plasmonstack.materials import sigma_from_lambda
from plasmonstack.npcore import EVEN, ODD, build_np, gpm_entries
from plasmonstack.runconfig import normalize
from plasmonstack.runners import run_field
from plasmonstack.spectrum import disk_degeneration_sweep, geometric_stack, modes, verify_root_symmetry
from table_data import (
    TABLE1_LAMBDA_EVEN,
    TABLE1_LAMBDA_ODD,
    TABLE1_SIGMA_EVEN,
    TABLE1_SIGMA_ODD,
    TABLE2_LAMBDA_EVEN,
    TABLE2_LAMBDA_ODD,
    TABLE2_SIGMA_EVEN,
    TABLE2_SIGMA_ODD,
)

from conftest import random_stack
from oracles import (
    density_summation_potential,
    h_coeff,
    min_order,
    mode_containment,
    recursion_determinant,
    thin_strip_limit,
    total_gradient,
)
from presets_for_tests import FIG12_CONFIG


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared random suite (criteria 3-6)

_SUITE = None


def random_suite():
    global _SUITE
    if _SUITE is None:
        rng = np.random.default_rng(718281828)
        configs = []
        while len(configs) < 100:
            N = int(rng.integers(1, 13))
            xi = np.sort(rng.uniform(0.02, 20.0, size=N))[::-1]
            if N > 1 and min(-np.diff(xi)) < 1e-4:
                continue
            n = int(rng.integers(1, 9))
            configs.append((LayerStack(R=1.0, xi=tuple(xi)), n))
        entries = []
        for stack, n in configs:
            polys = build_charpoly(stack, n)
            roots_p = np.sort(polys[EVEN].roots().real)[::-1]
            roots_m = np.sort(polys[ODD].roots().real)[::-1]
            eig_e, eig_o = np.sort(np.linalg.eigvals(-build_np(stack, n)).real, axis=-1)[:, ::-1]
            entries.append((stack, n, roots_p, roots_m, eig_e, eig_o))
        _SUITE = entries
    return _SUITE


def _table_errors(stack, n, lam_even, lam_odd, sig_even, sig_odd):
    t0 = time.perf_counter()
    ms = modes(stack, n)
    sig_e = np.array([sigma_from_lambda(lam, 1.0) for lam in ms.lambdas(EVEN).tolist()])
    sig_o = np.array([sigma_from_lambda(lam, 1.0) for lam in ms.lambdas(ODD).tolist()])
    elapsed = time.perf_counter() - t0
    lam_err = max(
        np.abs(ms.lambdas(EVEN) - np.array(lam_even)).max(),
        np.abs(ms.lambdas(ODD) - np.array(lam_odd)).max(),
    )
    sig_rel = max(
        (np.abs(sig_e - np.array(sig_even)) / np.abs(sig_even)).max(),
        (np.abs(sig_o - np.array(sig_odd)) / np.abs(sig_odd)).max(),
    )
    return elapsed, lam_err, sig_rel


def test_criterion_01_table1_reproduction():
    stack = LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16)))
    elapsed, lam_err, sig_rel = _table_errors(
        stack, 1, TABLE1_LAMBDA_EVEN, TABLE1_LAMBDA_ODD, TABLE1_SIGMA_EVEN, TABLE1_SIGMA_ODD
    )
    ok = lam_err <= 5e-5 and sig_rel <= 5e-4 and elapsed < 2.0
    assert report(
        1, ok,
        f"table1: lambda err {lam_err:.2e} (tol 5e-5), sigma rel {sig_rel:.2e} (tol 5e-4), "
        f"{elapsed:.2f}s (< 2s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the two smallest reference sigma values are printed to 4 decimals "
    "(|sigma| ~ 0.046); the print quantum alone is ~1.1e-3 relative, so the "
    "5e-4 relative tolerance cannot be met for them.  The computed values "
    "round exactly to the printed entries (see test_table2_rounds_to_printed).",
)
def test_criterion_02_table2_reproduction():
    stack = LayerStack(R=1.0, xi=tuple(16.0 * 0.8**i for i in range(16)))
    elapsed, lam_err, sig_rel = _table_errors(
        stack, 2, TABLE2_LAMBDA_EVEN, TABLE2_LAMBDA_ODD, TABLE2_SIGMA_EVEN, TABLE2_SIGMA_ODD
    )
    ok = lam_err <= 5e-5 and sig_rel <= 5e-4 and elapsed < 2.0
    report(
        2, ok,
        f"table2: lambda err {lam_err:.2e} (tol 5e-5), sigma rel {sig_rel:.2e} (tol 5e-4), "
        f"{elapsed:.2f}s (< 2s)",
    )
    assert ok


def test_table2_rounds_to_printed():
    """Supplementary (not a numbered criterion): the computed tables round
    exactly to every printed 4-decimal entry of both reference tables."""
    cases = [
        (LayerStack(R=1.0, xi=tuple(16.0 * 0.8**i for i in range(16))), 2,
         TABLE2_LAMBDA_EVEN, TABLE2_LAMBDA_ODD, TABLE2_SIGMA_EVEN, TABLE2_SIGMA_ODD),
        (LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16))), 1,
         TABLE1_LAMBDA_EVEN, TABLE1_LAMBDA_ODD, TABLE1_SIGMA_EVEN, TABLE1_SIGMA_ODD),
    ]
    for stack, n, lam_e, lam_o, sig_e, sig_o in cases:
        ms = modes(stack, n)
        for computed, printed in (
            (ms.lambdas(EVEN), lam_e),
            (ms.lambdas(ODD), lam_o),
            (np.array([sigma_from_lambda(lam, 1.0) for lam in ms.lambdas(EVEN).tolist()]), sig_e),
            (np.array([sigma_from_lambda(lam, 1.0) for lam in ms.lambdas(ODD).tolist()]), sig_o),
        ):
            assert np.allclose(np.round(computed, 4), printed, atol=1.01e-4)


def test_criterion_03_root_symmetry():
    worst = 0.0
    for _stack, _n, roots_p, roots_m, _e, _o in random_suite():
        worst = max(worst, np.abs(roots_p + roots_m[::-1]).max())
    ok = worst <= 1e-10
    assert report(3, ok, f"root antisymmetry over 100 random configs: max {worst:.2e} (tol 1e-10)")


def test_criterion_04_spectral_bound():
    worst = -1.0
    for _stack, _n, roots_p, roots_m, _e, _o in random_suite():
        worst = max(worst, np.abs(roots_p).max() - 0.5, np.abs(roots_m).max() - 0.5)
    ok = worst <= 1e-10
    assert report(4, ok, f"spectral interval excess over the suite: max {worst:.2e} (tol 1e-10)")


def test_criterion_05_triple_route_determinant():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for stack, n, *_ in random_suite():
        if stack.N > 10:
            continue
        poly = build_charpoly(stack, n)[EVEN]
        pref = (-1.0) ** (stack.N // 2)
        for _ in range(20):
            lam = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1.0))
            d1 = np.linalg.det(gpm_entries(stack, lam, n, EVEN))
            d2 = recursion_determinant(stack, lam, n, EVEN, i=1)
            d3 = pref * poly.evaluate(lam)
            scale = max(abs(d1), abs(d2), abs(d3))
            worst = max(worst, max(abs(d1 - d2), abs(d1 - d3), abs(d2 - d3)) / scale)
    ok = worst <= 1e-9
    assert report(5, ok, f"dense/recursion/polynomial pairwise rel: max {worst:.2e} (tol 1e-9)")


def test_criterion_06_eigen_root_equivalence():
    worst = 0.0
    for _stack, _n, roots_p, roots_m, eig_e, eig_o in random_suite():
        worst = max(worst, np.abs(roots_p - eig_e).max(), np.abs(roots_m - eig_o).max())
    ok = worst <= 1e-8
    assert report(6, ok, f"operator eigenvalues vs polynomial roots: max {worst:.2e} (tol 1e-8)")


def _certified_region():
    """(stack, n) pairs of the region README states for the mode certificate."""
    rng = np.random.default_rng(271828)
    cases = [(random_stack(rng, max_layers=60), int(rng.integers(1, 9))) for _ in range(100)]
    for N in (1, 7, 24, 25, 40, 60):
        for ratio in (0.6, 0.8, 0.95):
            if ratio == 0.6 and N > 30:
                continue  # innermost radius below 1e-7
            for xi_outer in (0.5, 3.0, 20.0):
                cases.append((geometric_stack(N, xi_outer, ratio), int(rng.integers(1, 9))))
    for N in (2, 9, 25, 60):
        for eps in (1e-1, 1e-3, 1e-5):
            cases.append((LayerStack(R=1.0, xi=tuple(eps * k for k in range(N, 0, -1))), int(rng.integers(1, 9))))
    cases += [(geometric_stack(17, 17.0 * L, 0.8), 1) for L in (1, 2, 3, 4, 5)]
    # high orders: four seeded geometric stacks per (N, n)
    for N in range(1, 25):
        for n in (10, 30, 100, 300, 1000, 3000):
            for _ in range(4):
                cases.append((geometric_stack(N, float(rng.uniform(0.3, 20.0)), float(rng.uniform(0.6, 0.95))), n))
    return cases


def test_modes_certified_region():
    """Supplementary (not a numbered criterion): modes are accepted across
    the certified region, up to N = 60 layers, past the N = 24 cap of the
    coefficient enumeration, and up to order n = 3000, each set sorted,
    bounded and antisymmetric."""
    for stack, n in _certified_region():
        ms = modes(stack, n)
        for parity in (EVEN, ODD):
            lams = ms.lambdas(parity)
            assert lams.size == stack.N and np.all(np.diff(lams) <= 0)
            assert np.abs(lams).max() <= 0.5 + 1e-10
        assert verify_root_symmetry(ms) <= 1e-10


def test_criterion_07_h_coefficients():
    ok = True
    for N in range(0, 21):
        for k in range(0, N + 1):
            brute = sum((-1) ** sum(c) for c in itertools.combinations(range(1, N + 1), k))
            ok = ok and h_coeff(N, k) == brute
    for N in range(1, 41):
        ok = ok and h_coeff(N, 1) == ((-1) ** N - 1) // 2
        if N >= 2:
            ok = ok and h_coeff(N, 2) == -(N // 2)
        ok = ok and h_coeff(N, N) == (-1) ** (N * (N + 1) // 2)
    for N in range(1, 21):
        for k in range(1, N + 1):
            ok = ok and h_coeff(2 * N, 2 * k - 1) == 0
    assert report(7, ok, "integer coefficient recursion == enumeration (N <= 20), closed forms exact")


def test_criterion_08_thin_strip_limit():
    ok = True
    details = []
    for N in (3, 4, 5):
        for sign in (+1, -1):
            limit_roots = np.sort(np.roots(thin_strip_limit(N, sign)).real)
            devs = []
            for eps in (1e-1, 1e-2, 1e-3):
                stack = LayerStack(R=1.0, xi=tuple(eps * k for k in range(N, 0, -1)))
                roots = np.sort(build_charpoly(stack, 1)[EVEN if sign > 0 else ODD].roots().real)
                devs.append(float(np.abs(roots - limit_roots).max()))
            ok = ok and devs[0] > devs[1] > devs[2]
            details.append(f"N={N},s={sign:+d}: {devs[0]:.1e}>{devs[1]:.1e}>{devs[2]:.1e}")
    assert report(8, ok, "thin-strip deviation strictly decreasing; " + "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="the splitting gap scales like exp(-2 n min xi); at L=5 the smallest "
    "radius is 17*5*0.8^16 ~ 2.39 so the gap is ~2e-3, three orders above the "
    "1e-6 target (the single-layer closed form exp(-2 n xi) implies the same "
    "scale; 1e-6 would need L ~ 14).  Strict decrease and the -2n regression "
    "slope do hold.",
)
def test_criterion_09_disk_limit_sweep():
    pairs = disk_degeneration_sweep(17, 0.8, 1, [1, 2, 3, 4, 5])
    gaps = np.array([g for _, g in pairs])
    min_xi = np.array([L * 17 * 0.8**16 for L, _ in pairs])
    slope = float(np.polyfit(min_xi, np.log(gaps), 1)[0])
    decreasing = bool(np.all(np.diff(gaps) < 0))
    slope_ok = abs(slope - (-2.0)) <= 0.2 * 2.0
    tail_ok = gaps[-1] < 1e-6
    ok = decreasing and slope_ok and tail_ok
    report(
        9, ok,
        f"gap strictly decreasing: {decreasing}; slope {slope:.3f} (target -2 +-20%): {slope_ok}; "
        f"gap(L=5) = {gaps[-1]:.2e} (< 1e-6): {tail_ok}",
    )
    assert ok


def test_criterion_10_field_correctness():
    stack = LayerStack.from_semimajor(0.9, [1.6, 1.4, 1.2, 1.0])
    lam = 0.23 + 2e-3j
    H = BackgroundField(terms=((2, 1.0, 0.4), (5, 0.6, -0.3)))
    rng = np.random.default_rng(987654)
    sigma0 = 1.0
    sigma1 = sigma_from_lambda(lam, sigma0)

    cont_worst = 0.0
    flux_worst = 0.0
    for k in range(1, stack.N + 1):
        sig_out = sigma0 if (k - 1) % 2 == 0 else sigma1
        sig_in = sigma1 if k % 2 == 1 else sigma0
        for eta in rng.uniform(0, 2 * math.pi, 64):
            p = EllipticPoint(xi=stack.xi[k - 1], eta=float(eta))
            po = perturbed_potential(stack, lam, H, p, region=k - 1)
            pi = perturbed_potential(stack, lam, H, p, region=k)
            cont_worst = max(cont_worst, abs(po - pi) / max(abs(po), 1e-12))
            normal = np.array(
                [stack.R * math.sinh(p.xi) * math.cos(p.eta),
                 stack.R * math.cosh(p.xi) * math.sin(p.eta)]
            )
            normal /= np.linalg.norm(normal)
            fo = sig_out * (total_gradient(stack, lam, H, p, region=k - 1) @ normal)
            fi = sig_in * (total_gradient(stack, lam, H, p, region=k) @ normal)
            flux_worst = max(flux_worst, abs(fo - fi) / max(abs(fo), 1e-12))

    rep_worst = 0.0
    count = 0
    while count < 100:
        xi = float(rng.uniform(0.02, stack.xi[0] + 1.5))
        if min(abs(xi - x) for x in stack.xi) < 1e-3:
            continue
        p = EllipticPoint(xi=xi, eta=float(rng.uniform(0, 2 * math.pi)))
        closed = perturbed_potential(stack, lam, H, p)
        direct = density_summation_potential(stack, lam, H, p)
        rep_worst = max(rep_worst, abs(closed - direct) / max(1.0, abs(closed)))
        count += 1

    xi_samples = np.linspace(stack.xi[0] + 2, stack.xi[0] + 6, 24)
    vals = [
        abs(perturbed_potential(stack, lam, H, EllipticPoint(xi=float(x), eta=0.4)))
        for x in xi_samples
    ]
    slope = float(np.polyfit(xi_samples, np.log(vals), 1)[0])
    slope_ok = abs(slope - (-min_order(H))) <= 0.02 * min_order(H)

    ok = cont_worst <= 1e-8 and flux_worst <= 1e-6 and rep_worst <= 1e-10 and slope_ok
    assert report(
        10, ok,
        f"continuity {cont_worst:.2e} (tol 1e-8); flux {flux_worst:.2e} (tol 1e-6); "
        f"representation {rep_worst:.2e} (tol 1e-10); decay slope {slope:.4f} vs -{min_order(H)}",
    )


def test_criterion_11_gradient_localization():
    cfg = normalize("field", dict(FIG12_CONFIG))
    _payload, grids = run_field(cfg)
    assert len(grids) == 6
    worst = 0.0
    for meta, _grid in grids:
        eta = meta["argmax_eta"]
        dist = min(eta, abs(eta - math.pi), abs(eta - 2 * math.pi))
        worst = max(worst, dist)
    ok = worst <= 0.1
    assert report(
        11, ok,
        f"six thin-stack gradient maps localize at the vertices: max angular distance "
        f"{worst:.3f} (tol 0.1)",
    )


def test_criterion_12_bie_cross_validation():
    # (a) single-ellipse eigenvalues at M = 256
    xi0 = 0.5
    curve = DiscretizedCurve.ellipse(1.0, xi0, 256)
    ev = np.linalg.eigvals(-assemble_block_np([curve]).entries)  # one curve's block operator is -K*
    single_err = 0.0
    for n in range(1, 9):
        target = 0.5 * math.exp(-2 * n * xi0)
        single_err = max(
            single_err,
            float(np.abs(ev - target).min()),
            float(np.abs(ev + target).min()),
        )
    # (b) 3-layer confocal containment at M = 384, n <= 6
    spec = {"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]}
    contain_err = mode_containment(spec, 384, 6)
    # (c) circle spectrum {1/2, 0}
    ev_circle = np.sort(np.linalg.eigvals(-assemble_block_np([DiscretizedCurve.polar((), 1.3, 128)]).entries).real)
    circle_err = max(abs(ev_circle[-1] - 0.5), float(np.abs(ev_circle[:-1]).max()))
    # (d) identity residuals strictly decreasing under node doubling
    cal = []
    sym = []
    for M in (128, 256, 512):
        curves = curves_from_spec(spec, M)
        cal.append(calderon_residual(assemble_block_np(curves), assemble_block_s(curves)))
        sym.append(self_adjointness_check(assemble_block_np(curves), assemble_block_s(curves)))
    refine_ok = cal[0] > cal[1] > cal[2] and sym[0] > sym[1] > sym[2]

    ok = single_err <= 1e-8 and contain_err <= 1e-6 and circle_err <= 1e-12 and refine_ok
    assert report(
        12, ok,
        f"ellipse eig {single_err:.2e} (tol 1e-8); containment {contain_err:.2e} (tol 1e-6); "
        f"circle {circle_err:.2e} (tol 1e-12); "
        f"calderon {cal[0]:.1e}>{cal[1]:.1e}>{cal[2]:.1e} and "
        f"selfadj {sym[0]:.1e}>{sym[1]:.1e}>{sym[2]:.1e}: {refine_ok}",
    )


def test_criterion_13_span_magnitude():
    stack = LayerStack(R=1.0, xi=tuple(float(16 - i) for i in range(1, 16)))
    worst = 0.0
    for poly in build_charpoly(stack, 1).values():
        roots = np.sort(poly.roots().real)
        grid = np.linspace(roots[0], roots[-1], 1000)
        worst = max(worst, float(np.abs(poly.evaluate(grid)).max()))
    ok = worst <= 1e-9
    assert report(13, ok, f"polynomial magnitude on the 1000-point root span: max {worst:.2e} (tol 1e-9)")
