"""Validation and normalization of run configurations.

Configs are plain JSON-style dicts (from presets, a --config file, or CLI
flags).  Validation is strict: unknown keys are rejected at every level,
required keys must be present, and every value is read by :func:`_read`,
which checks its kind and range before any computation starts.
Normalization fills defaults so that the resulting dict is canonical
(stable under re-validation) and hashable for output metadata.
"""

from __future__ import annotations

import json
import sys

from .errors import ConfigError, GeometryError
from .geometry import LayerStack
from .npcore import EVEN, ODD
from .spectrum import BOUND_SLACK, CROSS_ROUTE_TOL, IMAG_TOL

DEFAULT_TOLERANCES = {"cross": CROSS_ROUTE_TOL, "imag": IMAG_TOL, "bound": BOUND_SLACK}

#: value kinds, named by what they need; a kind in a one-item list, such as
#: [NUMBER], reads a list of such values, and a tuple of strings reads one
#: of those strings
INTEGER, NUMBER, BOOLEAN = "an integer", "a number", "true or false"

#: allowed ranges of one value: (test, what it needs)
ANY = (lambda v: True, "")
POSITIVE = (lambda v: v > 0, "> 0")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
COUNT = (lambda v: v >= 1, ">= 1")
GRID_SIZE = (lambda v: v >= 2, ">= 2")
NODE_COUNT = (lambda m: m >= 8 and m % 2 == 0, "even and >= 8")


def _typed(value, kind):
    """``value`` as a value of ``kind`` (numbers as floats), or None if it
    is not one: integers are JSON integers, a bool is never a number, and
    a number is finite (JSON has no NaN or Infinity)."""
    if isinstance(kind, tuple):
        return value if value in kind else None
    if isinstance(value, bool):
        return value if kind == BOOLEAN else None
    if kind == INTEGER:
        return value if isinstance(value, int) else None
    if kind == NUMBER and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
        return float(value)
    return None


def _read(cfg, key, kind, default=None, allowed=ANY, where="config"):
    """``cfg[key]``, or ``default`` when the key is absent, checked against
    its kind and allowed range (each item of a list kind is).  Any other
    value raises a ConfigError that names the key, what it needs and what
    it got."""
    if key not in cfg:
        return default
    value = cfg[key]
    many = isinstance(kind, list)
    item_kind = kind[0] if many else kind
    typed = [_typed(v, item_kind) for v in (value if isinstance(value, list) else [value])]
    test, range_text = allowed
    if isinstance(value, list) != many or None in typed or not all(map(test, typed)):
        name = item_kind if isinstance(item_kind, str) else "one of " + ", ".join(map(repr, item_kind))
        need = f"{'a list, each item ' if many else ''}{name} {range_text}".rstrip()
        raise ConfigError(f"{where}: {key} must be {need}, got {json.dumps(value, default=repr)}")
    return typed if many else typed[0]


def _check_keys(cfg, allowed, required, where):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(cfg).__name__}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def normalize_geometry(geo, where="geometry"):
    """({"R", "xi"} of a geometry, its LayerStack); the stack checks the
    keys and the radii."""
    if not isinstance(geo, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(geo).__name__}")
    kinds = {"R": NUMBER, "xi": [NUMBER], "semimajor": [NUMBER]}
    typed = {key: _read(geo, key, kind, where=where) for key, kind in kinds.items() if key in geo}
    try:
        stack = LayerStack.from_dict(geo | typed)
    except GeometryError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return {"R": stack.R, "xi": list(stack.xi)}, stack


def normalize_tolerances(tol):
    where = "tolerances"
    _check_keys(tol, DEFAULT_TOLERANCES.keys(), set(), where)
    return {key: _read(tol, key, NUMBER, default, POSITIVE, where) for key, default in DEFAULT_TOLERANCES.items()}


def normalize_drude(drude):
    where = "drude"
    keys = ("sigma_prime", "omega_p")
    _check_keys(drude, set(keys), set(keys), where)
    return {key: _read(drude, key, NUMBER, allowed=POSITIVE, where=where) for key in keys}


def normalize_modes_config(cfg):
    where = "modes config"
    _check_keys(cfg, {"geometry", "n", "sigma0", "drude", "tolerances"}, {"geometry", "n"}, where)
    out = {
        "geometry": normalize_geometry(cfg["geometry"])[0],
        "n": _read(cfg, "n", INTEGER, allowed=COUNT, where=where),
        "sigma0": _read(cfg, "sigma0", NUMBER, 1.0, POSITIVE, where),
        "tolerances": normalize_tolerances(cfg.get("tolerances", {})),
    }
    if "drude" in cfg:
        out["drude"] = normalize_drude(cfg["drude"])
    return out


def normalize_charpoly_config(cfg):
    where = "charpoly config"
    _check_keys(cfg, {"geometry", "n", "span_points"}, {"geometry", "n"}, where)
    return {
        "geometry": normalize_geometry(cfg["geometry"])[0],
        "n": _read(cfg, "n", INTEGER, allowed=COUNT, where=where),
        "span_points": _read(cfg, "span_points", INTEGER, 1000, GRID_SIZE, where),
    }


def normalize_field_config(cfg):
    where = "field config"
    allowed = {
        "geometry", "n", "delta", "quantity", "normalize",
        "bbox", "resolution", "ranks", "parities", "tolerances",
    }
    _check_keys(cfg, allowed, {"geometry", "n", "bbox", "resolution"}, where)
    geo, stack = normalize_geometry(cfg["geometry"])
    bbox = _read(cfg, "bbox", [NUMBER], where=where)
    if len(bbox) != 4 or not (bbox[0] < bbox[1] and bbox[2] < bbox[3]):
        raise ConfigError(f"{where}: bbox must be [x1min, x1max, x2min, x2max] with min < max, got {bbox}")
    resolution = _read(cfg, "resolution", [INTEGER], allowed=GRID_SIZE, where=where)
    if len(resolution) != 2:
        raise ConfigError(f"{where}: resolution must be two integers >= 2, got {resolution}")
    return {
        "geometry": geo,
        "n": _read(cfg, "n", INTEGER, allowed=COUNT, where=where),
        "delta": _read(cfg, "delta", NUMBER, 1e-5, NON_NEGATIVE, where),
        "quantity": _read(cfg, "quantity", ("potential", "gradient"), "potential", where=where),
        "normalize": _read(cfg, "normalize", BOOLEAN, True, where=where),
        "bbox": bbox,
        "resolution": resolution,
        "ranks": _read(cfg, "ranks", [INTEGER], [1], (lambda r: 1 <= r <= stack.N, f"in 1..{stack.N}"), where),
        "parities": _read(cfg, "parities", [(EVEN, ODD)], [EVEN, ODD], where=where),
        "tolerances": normalize_tolerances(cfg.get("tolerances", {})),
    }


def normalize_sweep_config(cfg):
    where = "sweep config"
    _check_keys(cfg, {"layers", "ratio", "n", "L", "tolerances"}, {"layers", "ratio", "n", "L"}, where)
    L = _read(cfg, "L", [NUMBER], allowed=POSITIVE, where=where)
    if not L:
        raise ConfigError(f"{where}: L must hold at least one scale, got []")
    return {
        "layers": _read(cfg, "layers", INTEGER, allowed=COUNT, where=where),
        "ratio": _read(cfg, "ratio", NUMBER, allowed=(lambda v: 0 < v < 1, "in (0, 1)"), where=where),
        "n": _read(cfg, "n", INTEGER, allowed=COUNT, where=where),
        "L": L,
        "tolerances": normalize_tolerances(cfg.get("tolerances", {})),
    }


def normalize_curves(curves):
    """A confocal curve spec is a geometry with xi radii; a polar one is a
    scale (a number or a list of them) and optional cosine coefficients."""
    where = "bie curves"
    kind = curves.get("type") if isinstance(curves, dict) else None
    if kind == "confocal":
        _check_keys(curves, {"type", "R", "xi"}, {"type", "R", "xi"}, where)
        geo, _ = normalize_geometry({"R": curves["R"], "xi": curves["xi"]}, where)
        return {"type": kind, **geo}
    if kind == "polar":
        _check_keys(curves, {"type", "coeffs", "scale"}, {"type", "scale"}, where)
        spec = {"type": kind}
        if "coeffs" in curves:
            spec["coeffs"] = _read(curves, "coeffs", [NUMBER], where=where)
        scale_kind = [NUMBER] if isinstance(curves["scale"], list) else NUMBER
        spec["scale"] = _read(curves, "scale", scale_kind, allowed=POSITIVE, where=where)
        return spec
    raise ConfigError(f"{where}: expected a mapping with type 'confocal' or 'polar', got {curves!r}")


def normalize_bie_config(cfg):
    where = "bie config"
    _check_keys(cfg, {"curves", "nodes", "match_orders", "match_nodes"}, {"curves", "nodes"}, where)
    curves = normalize_curves(cfg["curves"])
    nodes = _read(cfg, "nodes", [INTEGER], allowed=NODE_COUNT, where=where)
    if not nodes:
        raise ConfigError(f"{where}: nodes must hold at least one node count, got []")
    out = {"curves": curves, "nodes": nodes}
    if "match_orders" in cfg:
        out["match_orders"] = _read(cfg, "match_orders", INTEGER, allowed=COUNT, where=where)
        out["match_nodes"] = _read(cfg, "match_nodes", INTEGER, max(nodes), NODE_COUNT, where)
    elif "match_nodes" in cfg:
        raise ConfigError(
            f"{where}: match_nodes must come with match_orders, got {json.dumps(cfg['match_nodes'])} without it"
        )
    return out


def normalize(command, cfg):
    # the command table lives in runners, which imports this module
    from .runners import get_command

    return get_command(command).normalize(cfg)
