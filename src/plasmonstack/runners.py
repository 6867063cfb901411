"""Command implementations shared by the CLI and the fixture machinery.

Each runner takes a normalized config (see :mod:`plasmonstack.runconfig`)
and returns a JSON-friendly payload; the field runner additionally returns
the sampled grids for CSV emission.  Payloads double as fixture content,
so they contain only reproducible numbers.

:data:`COMMANDS` declares every command in one entry: its CLI options, its
normalizer, its runner and the files it writes.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

import numpy as np

from . import bie as bie_mod
from . import charpoly as cp
from . import field as field_mod
from . import output, runconfig, spectrum
from .errors import ConfigError, ContrastError
from .geometry import LayerStack, cartesian_to_elliptic
from .materials import DrudeParams, resonant_frequency
from .npcore import EVEN, ODD


def _stack(cfg):
    return LayerStack(R=cfg["geometry"]["R"], xi=tuple(cfg["geometry"]["xi"]))


def _gates(cfg):
    """The config's tolerances as :func:`spectrum.modes` gate keywords."""
    tol = cfg["tolerances"]
    return {"cross_tol": tol["cross"], "imag_tol": tol["imag"], "bound_slack": tol["bound"]}


def run_modes(cfg):
    stack = _stack(cfg)
    ms = spectrum.modes(stack, cfg["n"], sigma0=cfg["sigma0"], **_gates(cfg))
    drude = DrudeParams(**cfg["drude"]) if "drude" in cfg else None
    payload = {"n": cfg["n"], "sigma0": cfg["sigma0"], "layers": stack.N}
    for parity in (EVEN, ODD):
        rows = []
        for mode in ms.modes(parity):
            row = {
                "rank": mode.rank,
                "lambda": mode.lambda_root,
                "sigma1": mode.sigma1_resonant,
            }
            if drude is not None:
                try:
                    row["omega"] = resonant_frequency(mode.lambda_root, drude, cfg["sigma0"])
                except ContrastError:
                    row["omega"] = None
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
    span = {}
    for name, poly in (("plus", plus), ("minus", minus)):
        roots = np.sort(poly.roots().real)
        grid = np.linspace(roots[0], roots[-1], cfg["span_points"])
        vals = poly.evaluate(grid)
        span[name] = {
            "lambda": grid.tolist(),
            "value": vals.tolist(),
            "max_abs": float(np.abs(vals).max()),
        }
    payload["span"] = span
    return payload


def run_sweep(cfg):
    pairs = spectrum.disk_degeneration_sweep(cfg["layers"], cfg["ratio"], cfg["n"], cfg["L"], **_gates(cfg))
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
    ms = spectrum.modes(stack, n, **_gates(cfg))
    keys = [(parity, rank) for parity in cfg["parities"] for rank in cfg["ranks"]]
    # delta = 0 evaluates exactly at resonance; the density solve raises the
    # singularity error itself in that case
    fields = [
        (complex(ms.lambdas(parity)[rank - 1], cfg["delta"]), field_mod.BackgroundField.single(n, parity, 1.0))
        for parity, rank in keys
    ]
    field_grids = field_mod.field_grid(
        stack, fields, cfg["bbox"], cfg["resolution"], normalize=cfg["normalize"], quantity=cfg["quantity"]
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
    """Strict decrease judged above the roundoff floor (machine-precision
    plateaus, e.g. on a circle, count as converged rather than as drift)."""
    ok = True
    for a, b in zip(values, values[1:]):
        ok = ok and (b < a or (a <= floor and b <= floor))
    return bool(ok)


def _refinement_step(spec, M):
    """(Calderon residual, self-adjointness residual, spectral bound excess) at
    M nodes per curve.  K* and S are assembled once here and released on
    return, before the next node count is assembled."""
    curves = bie_mod.curves_from_spec(spec, M)
    Kst = bie_mod.assemble_block_np(curves)
    bound_excess = float(np.abs(bie_mod.block_np_eigenvalues(Kst, deflated=True).real).max() - 0.5)
    S = bie_mod.assemble_block_s(curves)
    return bie_mod.calderon_residual(Kst, S), bie_mod.self_adjointness_check(Kst, S), bound_excess


def run_bie(cfg):
    """Identity residual refinement plus spectral cross-checks per geometry."""
    spec = cfg["curves"]
    nodes = cfg["nodes"]
    report = {"curves": cfg["curves"], "nodes": nodes}
    steps = [_refinement_step(spec, M) for M in nodes]
    calderon = report["calderon_residual"] = [c for c, _s, _b in steps]
    selfadj = report["self_adjointness_residual"] = [s for _c, s, _b in steps]
    report["spectral_bound_excess"] = [b for _c, _s, b in steps]
    report["monotone_calderon"] = _monotone_decreasing(calderon)
    report["monotone_self_adjointness"] = _monotone_decreasing(selfadj)

    if spec["type"] == "polar" and not spec.get("coeffs") and np.ndim(spec["scale"]) == 0:
        # single circle: closed-form spectra
        M = max(nodes)
        curve = bie_mod.curves_from_spec(spec, M)[0]
        K = bie_mod.assemble_kstar_block(curve)
        ev = np.sort(np.linalg.eigvals(K).real)
        r = float(spec["scale"])
        S = bie_mod.assemble_single_layer(curve)
        evs = np.linalg.eigvals(S).real
        report["circle"] = {
            "radius": r,
            "eig_half_err": float(abs(ev[-1] - 0.5)),
            "eig_rest_max": float(np.abs(ev[:-1]).max()),
            "s_const_err": float(np.abs(evs - r * np.log(r)).min()),
            "s_mode1_err": float(np.abs(evs + r / 2.0).min()),
        }

    if "match_orders" in cfg and spec["type"] == "confocal":
        M = cfg["match_nodes"]
        block = bie_mod.assemble_block_np(bie_mod.curves_from_spec(spec, M))
        ev = bie_mod.block_np_eigenvalues(block, deflated=False)
        stack = LayerStack(R=spec["R"], xi=tuple(spec["xi"]))
        worst = 0.0
        for n in range(1, cfg["match_orders"] + 1):
            ms = spectrum.modes(stack, n)
            for parity in (EVEN, ODD):
                for lam in ms.lambdas(parity):
                    worst = max(worst, float(np.abs(ev - (-lam)).min()))
        report["mode_containment_max_err"] = worst
        report["match_orders"] = cfg["match_orders"]
        report["match_nodes"] = M
    return report


def _write_modes(out, cfg, payload, grids):
    rows = [dict(r, parity=parity) for parity in (EVEN, ODD) for r in payload[parity]]
    columns = {k: [r.get(k) for r in rows] for k in ("parity", "rank", "lambda", "sigma1", "omega")}
    output.write_csv(os.path.join(out, "modes.csv"), columns, cfg, cfg["tolerances"])
    output.write_json(os.path.join(out, "modes.json"), payload, cfg, cfg["tolerances"])


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
    output.write_json(os.path.join(out, "charpoly.json"), payload, cfg)


def _write_sweep(out, cfg, payload, grids):
    output.write_csv(
        os.path.join(out, "sweep.csv"),
        {"L": payload["L"], "gap": payload["gap"]},
        cfg,
        extra={"gap-norm": payload["gap_norm"],
               "log-gap-slope-vs-min-xi": payload["log_gap_slope_vs_min_xi"]},
    )
    output.write_json(os.path.join(out, "sweep.json"), payload, cfg)


def _write_field(out, cfg, payload, grids):
    tolerances = cfg["tolerances"]
    for meta, grid in grids:
        stem = os.path.join(out, f"field_{meta['parity']}_r{meta['rank']}")
        # x1-major rows: values[i, j] sits at (x1[i], x2[j])
        columns = {"x1": np.repeat(grid.x1, len(grid.x2)), "x2": np.tile(grid.x2, len(grid.x1))}
        if grid.quantity == "potential":
            columns |= {"re": grid.values.real.ravel(), "im": grid.values.imag.ravel()}
        else:
            columns["gradmag"] = grid.values.ravel()
        output.write_csv(stem + ".csv", columns, cfg, tolerances)
        interfaces = [{"x1": list(px), "x2": list(py)} for px, py in grid.interfaces]
        output.write_json(stem + ".json", dict(meta, interfaces=interfaces), cfg, tolerances)
    output.write_json(os.path.join(out, "field_summary.json"), payload, cfg, tolerances)


def _write_bie(out, cfg, payload, grids):
    output.write_json(os.path.join(out, "bie_report.json"), payload, cfg)


class Command(NamedTuple):
    """Everything the CLI knows about one command."""

    help: str
    #: (flag, config key or None, argparse keywords); a given flag with a
    #: key is copied into the config, the CLI reads the others itself
    options: tuple
    #: raw config -> canonical config
    normalize: Callable
    #: canonical config -> (payload, [(meta, FieldGrid)])
    run: Callable
    #: (out_dir, config, payload, grids) -> None
    write: Callable


_ORDER = ("--n", "n", {"type": int, "help": "Fourier order"})
_GEOMETRY = (
    ("--xi", None, {"type": float, "nargs": "+", "help": "explicit decreasing elliptic radii"}),
    ("--semimajor", None, {"type": float, "nargs": "+", "help": "semi-major axes (converted via R)"}),
    ("--R", None, {"type": float, "help": "focal half-distance (default 1)"}),
)
_TOLERANCES = (
    ("--tol-cross", None, {"type": float, "help": "route cross-validation tolerance"}),
    ("--tol-imag", None, {"type": float, "help": "eigenvalue realness tolerance"}),
    ("--tol-bound", None, {"type": float, "help": "spectral interval slack"}),
)

COMMANDS = {
    "modes": Command(
        "compute cross-validated plasmon modes",
        (
            ("--layers", None, {"type": int, "help": "layer count; must match the radii given"}),
            *_GEOMETRY,
            _ORDER,
            ("--sigma0", "sigma0", {"type": float, "help": "background conductivity (default 1)"}),
            ("--table", None, {"action": "store_true",
                               "help": "print the 4-decimal table-reproduction view to stdout"}),
            *_TOLERANCES,
        ),
        runconfig.normalize_modes_config,
        lambda cfg: (run_modes(cfg), []),
        _write_modes,
    ),
    "charpoly": Command(
        "dump polynomial coefficients and span values",
        (*_GEOMETRY, _ORDER,
         ("--span-points", "span_points", {"type": int, "help": "span grid size (default 1000)"})),
        runconfig.normalize_charpoly_config,
        lambda cfg: (run_charpoly(cfg), []),
        _write_charpoly,
    ),
    "field": Command(
        "sample perturbed potential or gradient grids",
        (
            ("--mode-rank", "ranks", {"type": int, "nargs": "+", "help": "restrict to these ranks"}),
            ("--parity", None, {"choices": ["even", "odd", "both"], "help": "restrict parity"}),
            ("--gradient", None, {"action": "store_true", "help": "emit |grad(u-H)| instead of u-H"}),
            ("--delta", "delta", {"type": float, "help": "loss parameter added to the resonant contrast"}),
            _ORDER,
            *_TOLERANCES,
        ),
        runconfig.normalize_field_config,
        # run_field is looked up per call, so rebinding it reaches the CLI too
        lambda cfg: run_field(cfg),
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
        _write_sweep,
    ),
    "bie-validate": Command(
        "independent discretization cross-checks",
        (("--nodes", "nodes", {"type": int, "nargs": "+",
                               "help": "node counts for the refinement study"}),),
        runconfig.normalize_bie_config,
        lambda cfg: (run_bie(cfg), []),
        _write_bie,
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
