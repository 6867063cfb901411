"""Command implementations shared by the CLI and the fixture machinery.

Each runner takes a normalized config (see :mod:`plasmonstack.runconfig`)
and returns a JSON-friendly payload; the field runner additionally returns
the sampled grids for CSV emission.  Payloads double as fixture content,
so they contain only reproducible numbers.

:data:`COMMANDS` declares every command in one entry: its CLI options, its
normalizer, its runner, its payload file, its fixture tolerances and the
other files it writes.
"""

from __future__ import annotations

import argparse
import os
from typing import Callable, NamedTuple

import numpy as np

from . import bie as bie_mod
from . import charpoly as cp
from . import field as field_mod
from . import output, runconfig, spectrum
from .errors import ConfigError, gate
from .geometry import LayerStack, cartesian_to_elliptic
from .materials import resonant_frequency, sigma_from_lambda
from .npcore import EVEN, ODD, PARITIES, build_np


def _stack(cfg):
    return LayerStack(R=cfg["geometry"]["R"], xi=tuple(cfg["geometry"]["xi"]))


def run_modes(cfg):
    stack = _stack(cfg)
    ms = spectrum.modes(stack, cfg["n"], **cfg["tolerances"])
    payload = {"n": cfg["n"], "sigma0": cfg["sigma0"], "layers": stack.N}
    for parity in (EVEN, ODD):
        rows = []
        for rank, lam in enumerate(ms.lambdas(parity).tolist(), start=1):
            sigma1 = sigma_from_lambda(lam, cfg["sigma0"])
            row = {"rank": rank, "lambda": lam, "sigma1": sigma1}
            if "drude" in cfg:
                row["omega"] = resonant_frequency(sigma1, **cfg["drude"])
            rows.append(row)
        payload[parity] = rows
    payload["root_symmetry_max"] = spectrum.verify_root_symmetry(ms)
    return payload


def run_charpoly(cfg):
    stack = _stack(cfg)
    n = cfg["n"]
    polys = cp.build_charpoly(stack, n)
    plus, minus = polys[EVEN], polys[ODD]
    payload = {
        "n": n,
        "layers": stack.N,
        "coeff_plus": plus.coeffs.tolist(),
        "coeff_minus": minus.coeffs.tolist(),
    }
    # one grid from the lowest to the highest root of either polynomial, so
    # span.csv's f_plus and f_minus are values at its lambda column
    roots = np.concatenate([plus.roots().real, minus.roots().real])
    grid = np.linspace(roots.min(), roots.max(), cfg["span_points"])
    lam = grid.tolist()
    span = {}
    for name, poly in (("plus", plus), ("minus", minus)):
        vals = poly.evaluate(grid)
        span[name] = {
            "lambda": lam,
            "value": vals.tolist(),
            "max_abs": float(np.abs(vals).max()),
        }
    payload["span"] = span
    return payload


def run_sweep(cfg):
    pairs = spectrum.disk_degeneration_sweep(cfg["layers"], cfg["ratio"], cfg["n"], cfg["L"], **cfg["tolerances"])
    L = [p[0] for p in pairs]
    gap = [p[1] for p in pairs]
    min_xi = [l * cfg["layers"] * cfg["ratio"] ** (cfg["layers"] - 1) for l in L]
    # a gap that underflows to 0 has no logarithm, so no slope is fitted
    slope = float(np.polyfit(min_xi, np.log(gap), 1)[0]) if len(L) >= 2 and all(gap) else None
    return {
        "layers": cfg["layers"],
        "ratio": cfg["ratio"],
        "n": cfg["n"],
        "L": L,
        "gap": gap,
        "min_xi": min_xi,
        "log_gap_slope_vs_min_xi": slope,
        "gap_norm": "euclidean",
    }


def _probe(values, size=8):
    """Fixed-size subsample of a grid for drift fixtures."""
    nx, ny = values.shape
    ix = np.linspace(0, nx - 1, size).round().astype(int)
    iy = np.linspace(0, ny - 1, size).round().astype(int)
    sub = values[np.ix_(ix, iy)]
    return np.real(sub).tolist()


def run_field(cfg):
    """Returns (payload, grids) with grids a list of (meta, FieldGrid)."""
    stack = _stack(cfg)
    n = cfg["n"]
    ms = spectrum.modes(stack, n, **cfg["tolerances"])
    keys = [(parity, rank) for parity in cfg["parities"] for rank in cfg["ranks"]]
    # delta = 0 evaluates exactly at resonance; the density solve raises the
    # singularity error itself in that case
    fields = [
        (complex(ms.lambdas(parity)[rank - 1], cfg["delta"]), field_mod.BackgroundField.single(n, parity, 1.0))
        for parity, rank in keys
    ]
    field_grids = field_mod.field_grid(
        stack, fields, cfg["bbox"], cfg["resolution"], quantity=cfg["quantity"]
    )
    grids = []
    entries = []
    for (parity, rank), grid in zip(keys, field_grids):
        mag = np.abs(grid.values.real) if cfg["quantity"] == "potential" else grid.values
        am = np.unravel_index(int(np.argmax(mag)), mag.shape)
        argmax_xy = [float(grid.x1[am[0]]), float(grid.x2[am[1]])]
        xi_m, eta_m = cartesian_to_elliptic(argmax_xy[0], argmax_xy[1], stack.R)
        meta = {
            "parity": parity,
            "rank": rank,
            "lambda": grid.lam,
            "delta": cfg["delta"],
            "normalization": grid.normalization,
            "argmax_xy": argmax_xy,
            "argmax_eta": float(eta_m),
        }
        entries.append(
            {
                "parity": parity,
                "rank": rank,
                "lambda_re": grid.lam.real,
                "normalization": grid.normalization,
                "probe": _probe(mag),
            }
        )
        grids.append((meta, grid))
    payload = {
        "n": n,
        "quantity": cfg["quantity"],
        "delta": cfg["delta"],
        "grids": entries,
    }
    return payload, grids


def _monotone_decreasing(values, floor=1e-13):
    """Strict decrease of finite values judged above the roundoff floor
    (machine-precision plateaus, e.g. on a circle, count as converged)."""
    ok = bool(np.isfinite(values).all())
    for a, b in zip(values, values[1:]):
        ok = ok and (b < a or (a <= floor and b <= floor))
    return bool(ok)


def _circle_section(radius, Kst, S):
    """Errors of one circle's K* and S spectra against the closed forms {1/2, 0}
    and {r ln r, -r/(2m)}; one curve's block operator is -K*."""
    ev = np.sort(-bie_mod.block_np_eigenvalues(Kst, deflated=False).real)
    evs = np.linalg.eigvals(S.entries).real
    return {
        "radius": radius,
        "eig_half_err": float(abs(ev[-1] - 0.5)),
        "eig_rest_max": float(np.abs(ev[:-1]).max()),
        "s_const_err": float(np.abs(evs - radius * np.log(radius)).min()),
        "s_mode1_err": float(np.abs(evs + radius / 2.0).min()),
    }


def run_bie(cfg):
    """Identity residual refinement plus spectral cross-checks per geometry.

    Per node count K* and then S are assembled once; both residuals are
    formed and S is released, and the bound excess comes last, on K*
    deflated in place.  So at most two (N M, N M) matrices are held at
    once.  At the finest count, ``nodes[-1]``, a single circle takes its K*
    and S spectra while both are held, a third matrix in LAPACK's copy
    (one curve, 256^2 entries in the bie-circle preset), and with
    ``match_orders`` K* is projected onto the per-curve harmonics n = 1 ..
    ``match_orders`` as assembled, before it is deflated.

    The projection checks the exact Fourier matrix representation entry by
    entry: a harmonic subspace that K* does not keep invariant is refused
    (gate ``invariance``); the entry error max|C_n - A_n| against
    :func:`plasmonstack.npcore.build_np` and the invariance residual are
    reported per order as [even, odd], and the paired gap compares the
    eigenvalues of each C_n with the modes of its order and parity, rank
    by rank.
    """
    spec = cfg["curves"]
    nodes = cfg["nodes"]
    report = {"curves": cfg["curves"], "nodes": nodes}
    one_circle = spec["type"] == "polar" and not any(spec.get("coeffs", ())) and np.size(spec["scale"]) == 1
    calderon = report["calderon_residual"] = []
    selfadj = report["self_adjointness_residual"] = []
    excess = report["spectral_bound_excess"] = []
    for M in nodes:
        curves = bie_mod.curves_from_spec(spec, M)
        Kst = bie_mod.assemble_block_np(curves)
        S = bie_mod.assemble_block_s(curves)
        calderon.append(bie_mod.calderon_residual(Kst, S))
        selfadj.append(bie_mod.self_adjointness_check(Kst, S))
        finest = M == nodes[-1]
        if one_circle and finest:
            report["circle"] = _circle_section(float(np.ravel(spec["scale"])[0]), Kst, S)
        del S
        if "match_orders" in cfg and finest:
            C, invariance = bie_mod.harmonic_restriction(Kst, curves, cfg["match_orders"])
        excess.append(float(np.abs(bie_mod.block_np_eigenvalues(Kst, deflated=True).real).max() - 0.5))
        del Kst
    report["monotone_calderon"] = _monotone_decreasing(calderon)
    report["monotone_self_adjointness"] = _monotone_decreasing(selfadj)

    if "match_orders" in cfg:
        orders = cfg["match_orders"]
        # a NaN residual is the argmax, and fails the gate
        worst = np.unravel_index(np.argmax(invariance), invariance.shape)
        gate("invariance", invariance[worst], bie_mod.INVARIANCE_TOL, lambda: (
            f"order-{worst[0] + 1} {PARITIES[worst[1]]} harmonics are not invariant under the {nodes[-1]}-node K*: "
            f"residual {invariance[worst]:.3e} exceeds {bie_mod.INVARIANCE_TOL:.1e}"
        ))
        stack = LayerStack(R=spec["R"], xi=tuple(spec["xi"]))
        exact = np.array([build_np(stack, n) for n in range(1, orders + 1)])
        modes = np.array([spectrum.modes(stack, n).values for n in range(1, orders + 1)])
        # eigenvalues of -C_n in the modes' order: descending per parity
        ev = np.linalg.eigvals(-C)
        ev = np.take_along_axis(ev, np.argsort(-ev.real, axis=-1), axis=-1)
        report["mode_paired_gap"] = float(np.abs(ev - modes).max())
        report["mode_entry_error"] = np.abs(C - exact).max(axis=(2, 3)).tolist()
        report["mode_invariance_residual"] = invariance.tolist()
        report["match_orders"] = orders
    return report


def _write_modes(out, cfg, payload, grids):
    rows = [dict(r, parity=parity) for parity in (EVEN, ODD) for r in payload[parity]]
    columns = {k: [r.get(k) for r in rows] for k in ("parity", "rank", "lambda", "sigma1", "omega")}
    output.write_csv(os.path.join(out, "modes.csv"), columns, cfg)


def _write_charpoly(out, cfg, payload, grids):
    plus, minus, span = payload["coeff_plus"], payload["coeff_minus"], payload["span"]
    coefficients = {
        "sign": ["+"] * len(plus) + ["-"] * len(minus),
        "k": [*range(len(plus)), *range(len(minus))],
        "c_k": plus + minus,
    }
    output.write_csv(os.path.join(out, "coefficients.csv"), coefficients, cfg)
    output.write_csv(
        os.path.join(out, "span.csv"),
        {"lambda": span["plus"]["lambda"], "f_plus": span["plus"]["value"],
         "f_minus": span["minus"]["value"]},
        cfg,
        extra={"span-max-abs-plus": span["plus"]["max_abs"],
               "span-max-abs-minus": span["minus"]["max_abs"]},
    )


def _write_sweep(out, cfg, payload, grids):
    output.write_csv(
        os.path.join(out, "sweep.csv"),
        {"L": payload["L"], "gap": payload["gap"]},
        cfg,
        extra={"gap-norm": payload["gap_norm"],
               "log-gap-slope-vs-min-xi": payload["log_gap_slope_vs_min_xi"]},
    )


def _write_field(out, cfg, payload, grids):
    for meta, grid in grids:
        stem = os.path.join(out, f"field_{meta['parity']}_r{meta['rank']}")
        # x1-major rows: values[i, j] sits at (x1[i], x2[j])
        columns = {"x1": np.repeat(grid.x1, len(grid.x2)), "x2": np.tile(grid.x2, len(grid.x1))}
        if grid.quantity == "potential":
            columns |= {"re": grid.values.real.ravel(), "im": grid.values.imag.ravel()}
        else:
            columns["gradmag"] = grid.values.ravel()
        output.write_csv(stem + ".csv", columns, cfg)
        # tolist gives Python floats, which jsonable passes through as they are
        interfaces = [{"x1": px.tolist(), "x2": py.tolist()} for px, py in grid.interfaces]
        output.write_json(stem + ".json", dict(meta, interfaces=interfaces), cfg)


class Command(NamedTuple):
    """Everything the CLI knows about one command."""

    help: str
    #: (flag, config key or None, argparse keywords): a given flag's parsed
    #: value is copied to its key, where "block.key" names a key inside a
    #: block such as tolerances; the CLI reads the flags without a key
    #: itself (the geometry flags and --table)
    options: tuple
    #: raw config -> canonical config
    normalize: Callable
    #: canonical config -> (payload, [(meta, FieldGrid)])
    run: Callable
    #: the JSON file in the output directory that holds the payload
    payload_file: str
    #: {"rtol", "atol"} of the preset fixtures' --check; payloads are
    #: deterministic up to eigensolver/BLAS noise, so these are drift
    #: detectors, not oracles
    tolerances: dict
    #: (out_dir, config, payload, grids) -> None: the files besides the payload
    write: Callable | None = None


_ORDER = ("--n", "n", {"type": int, "help": "Fourier order"})
_GEOMETRY = (
    ("--xi", None, {"type": float, "nargs": "+", "help": "explicit decreasing elliptic radii"}),
    ("--semimajor", None, {"type": float, "nargs": "+", "help": "semi-major axes (converted via R)"}),
    ("--R", None, {"type": float, "help": "focal half-distance (default 1)"}),
)
_TOLERANCES = (
    ("--tol-cross", "tolerances.cross", {"type": float, "help": "route cross-validation tolerance"}),
    ("--tol-imag", "tolerances.imag", {"type": float, "help": "eigenvalue realness tolerance"}),
    ("--tol-bound", "tolerances.bound", {"type": float, "help": "spectral interval slack"}),
)


def _parities(value):
    """--parity's value as the config's parities list."""
    parities = {EVEN: [EVEN], ODD: [ODD], "both": [EVEN, ODD]}
    if value not in parities:
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from 'even', 'odd', 'both')")
    return parities[value]


COMMANDS = {
    "modes": Command(
        "compute cross-validated plasmon modes",
        (
            *_GEOMETRY,
            _ORDER,
            ("--sigma0", "sigma0", {"type": float, "help": "background conductivity (default 1)"}),
            ("--table", None, {"action": "store_true",
                               "help": "print the 4-decimal table-reproduction view to stdout"}),
            *_TOLERANCES,
        ),
        runconfig.normalize_modes_config,
        lambda cfg: (run_modes(cfg), []),
        "modes.json",
        {"rtol": 1e-7, "atol": 1e-9},
        _write_modes,
    ),
    "charpoly": Command(
        "dump polynomial coefficients and span values",
        (*_GEOMETRY, _ORDER,
         ("--span-points", "span_points", {"type": int, "help": "span grid size (default 1000)"})),
        runconfig.normalize_charpoly_config,
        lambda cfg: (run_charpoly(cfg), []),
        "charpoly.json",
        {"rtol": 1e-9, "atol": 1e-13},
        _write_charpoly,
    ),
    "field": Command(
        "sample perturbed potential or gradient grids",
        (
            ("--mode-rank", "ranks", {"type": int, "nargs": "+", "help": "restrict to these ranks"}),
            ("--parity", "parities", {"type": _parities, "metavar": "{even,odd,both}", "help": "restrict parity"}),
            ("--gradient", "quantity", {"action": "store_const", "const": "gradient",
                                        "help": "emit |grad(u-H)| instead of u-H"}),
            ("--delta", "delta", {"type": float, "help": "loss parameter added to the resonant contrast"}),
            _ORDER,
            *_TOLERANCES,
        ),
        runconfig.normalize_field_config,
        # run_field is looked up per call, so rebinding it reaches the CLI too
        lambda cfg: run_field(cfg),
        "field_summary.json",
        # resonant grids amplify root noise by ~1/delta
        {"rtol": 1e-3, "atol": 1e-3},
        _write_field,
    ),
    "sweep-disk": Command(
        "even/odd splitting gap vs stack scale",
        (
            ("--layers", "layers", {"type": int, "help": "layer count"}),
            ("--ratio", "ratio", {"type": float, "help": "geometric radius ratio"}),
            _ORDER,
            ("--L", "L", {"type": float, "nargs": "+", "help": "scale values (xi_1 = L * layers)"}),
            *_TOLERANCES,
        ),
        runconfig.normalize_sweep_config,
        lambda cfg: (run_sweep(cfg), []),
        "sweep.json",
        {"rtol": 1e-6, "atol": 1e-12},
        _write_sweep,
    ),
    "bie-validate": Command(
        "independent discretization cross-checks",
        (("--nodes", "nodes", {"type": int, "nargs": "+",
                               "help": "node counts for the refinement study"}),),
        runconfig.normalize_bie_config,
        lambda cfg: (run_bie(cfg), []),
        "bie_report.json",
        # residuals ride an exponential convergence curve, hence the loose relative band
        {"rtol": 0.5, "atol": 1e-12},
    ),
}


def get_command(name):
    try:
        return COMMANDS[name]
    except KeyError:
        raise ConfigError(f"unknown command {name!r}") from None


def run(command, cfg):
    """(payload, grids) of a command on a normalized config; only the field
    command samples grids."""
    return get_command(command).run(cfg)
