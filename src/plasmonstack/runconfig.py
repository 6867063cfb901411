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

from .bie import MIN_NODES
from .errors import ConfigError, GeometryError
from .geometry import LayerStack
from .npcore import EVEN, ODD
from .spectrum import TOLERANCES

#: value kinds, named by what they need: an integer or a number, either one
#: finite in float64; a kind in a one-item list, such as [NUMBER], reads a
#: non-empty list of such values, and a tuple of strings reads one of those
#: strings
INTEGER, NUMBER = "an integer", "a number"

#: allowed ranges of one value: (test, what it needs)
ANY = (lambda v: True, "")
POSITIVE = (lambda v: v > 0, "> 0")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
COUNT = (lambda v: v >= 1, ">= 1")
GRID_SIZE = (lambda v: v >= 2, ">= 2")
NODE_COUNT = (lambda m: m >= MIN_NODES and m % 2 == 0, f"even and >= {MIN_NODES}")


def _typed(value, kind):
    """``value`` as a value of ``kind`` (numbers as floats), or None if it
    is not one: integers are JSON integers, a bool is never a number, and
    both kinds are finite in float64 (JSON has no NaN or Infinity)."""
    if isinstance(kind, tuple):
        return value if value in kind else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        return None
    if kind == INTEGER:
        return value if isinstance(value, int) else None
    return float(value)


def _read(cfg, key, kind, default=None, allowed=ANY, where="config", empty=False):
    """``cfg[key]``, or ``default`` when the key is absent, checked against
    its kind and allowed range (each item of a list kind is; a list must
    hold at least one item unless ``empty``).  Any other value raises a
    ConfigError that names the key, what it needs and what it got."""
    if key not in cfg:
        return default
    value = cfg[key]
    many = isinstance(kind, list)
    item_kind = kind[0] if many else kind
    typed = [_typed(v, item_kind) for v in (value if isinstance(value, list) else [value])]
    test, range_text = allowed
    if isinstance(value, list) != many or None in typed or not all(map(test, typed)) or not (typed or empty):
        name = item_kind if isinstance(item_kind, str) else "one of " + ", ".join(map(repr, item_kind))
        listed = ("a list" if empty else "a non-empty list") + ", each item " if many else ""
        need = f"{listed}{name} {range_text}".rstrip()
        raise ConfigError(f"{where}: {key} must be {need}, got {json.dumps(value, default=repr)}")
    return typed if many else typed[0]


def _distinct(cfg, key, kind, default=None, allowed=ANY, where="config"):
    """The list :func:`_read` reads, refused with a ConfigError if a value repeats."""
    values = _read(cfg, key, kind, default, allowed, where)
    if len(set(values)) < len(values):
        raise ConfigError(f"{where}: {key} must not repeat a value, got {json.dumps(values)}")
    return values


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
    """({"R", "xi"} of a geometry, its LayerStack).  A geometry gives R and
    either xi or semimajor radii; the stack checks the radii."""
    _check_keys(geo, {"R", "xi", "semimajor"}, {"R"}, where)
    if ("xi" in geo) == ("semimajor" in geo):
        raise ConfigError(f"{where}: give exactly one of xi and semimajor, got keys {sorted(geo)}")
    R = _read(geo, "R", NUMBER, where=where)
    radii = "xi" if "xi" in geo else "semimajor"
    values = _read(geo, radii, [NUMBER], where=where)
    try:
        stack = LayerStack(R=R, xi=tuple(values)) if radii == "xi" else LayerStack.from_semimajor(R, values)
    except GeometryError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return {"R": stack.R, "xi": list(stack.xi)}, stack


def normalize_tolerances(tol):
    where = "tolerances"
    _check_keys(tol, TOLERANCES.keys(), set(), where)
    return {key: _read(tol, key, NUMBER, default, POSITIVE, where) for key, default in TOLERANCES.items()}


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
        "geometry", "n", "delta", "quantity",
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
    # each (parity, rank) grid is written to its own file
    ranks = _distinct(cfg, "ranks", [INTEGER], [1], (lambda r: 1 <= r <= stack.N, f"in 1..{stack.N}"), where)
    parities = _distinct(cfg, "parities", [(EVEN, ODD)], [EVEN, ODD], where=where)
    return {
        "geometry": geo,
        "n": _read(cfg, "n", INTEGER, allowed=COUNT, where=where),
        "delta": _read(cfg, "delta", NUMBER, 1e-5, NON_NEGATIVE, where),
        "quantity": _read(cfg, "quantity", ("potential", "gradient"), "potential", where=where),
        "bbox": bbox,
        "resolution": resolution,
        "ranks": ranks,
        "parities": parities,
        "tolerances": normalize_tolerances(cfg.get("tolerances", {})),
    }


def normalize_sweep_config(cfg):
    where = "sweep config"
    _check_keys(cfg, {"layers", "ratio", "n", "L", "tolerances"}, {"layers", "ratio", "n", "L"}, where)
    return {
        "layers": _read(cfg, "layers", INTEGER, allowed=COUNT, where=where),
        "ratio": _read(cfg, "ratio", NUMBER, allowed=(lambda v: 0 < v < 1, "in (0, 1)"), where=where),
        "n": _read(cfg, "n", INTEGER, allowed=COUNT, where=where),
        # a repeated scale adds no abscissa to the gap slope's fit
        "L": _distinct(cfg, "L", [NUMBER], allowed=POSITIVE, where=where),
        "tolerances": normalize_tolerances(cfg.get("tolerances", {})),
    }


def normalize_curves(curves):
    """A confocal curve spec is a geometry with xi radii; a polar one is a
    scale (a number or a strictly decreasing list of them, outermost curve
    first) and optional cosine coefficients."""
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
            spec["coeffs"] = _read(curves, "coeffs", [NUMBER], where=where, empty=True)
        scale_kind = [NUMBER] if isinstance(curves["scale"], list) else NUMBER
        scale = spec["scale"] = _read(curves, "scale", scale_kind, allowed=POSITIVE, where=where)
        # scaled copies of one star-shaped curve nest exactly when the scales decrease
        if isinstance(scale, list) and any(a <= b for a, b in zip(scale, scale[1:])):
            raise ConfigError(f"{where}: scale must strictly decrease, outermost curve first, got {json.dumps(scale)}")
        return spec
    raise ConfigError(f"{where}: expected a mapping with type 'confocal' or 'polar', got {curves!r}")


def normalize_bie_config(cfg):
    where = "bie config"
    _check_keys(cfg, {"curves", "nodes", "match_orders"}, {"curves", "nodes"}, where)
    curves = normalize_curves(cfg["curves"])
    nodes = _read(cfg, "nodes", [INTEGER], allowed=NODE_COUNT, where=where)
    # a refinement study reads its residuals coarsest first, one per node count
    if any(a >= b for a, b in zip(nodes, nodes[1:])):
        raise ConfigError(f"{where}: nodes must strictly increase, coarsest first, got {json.dumps(nodes)}")
    out = {"curves": curves, "nodes": nodes}
    if "match_orders" in cfg:
        if curves["type"] != "confocal":
            raise ConfigError(f"{where}: match_orders must come with confocal curves, got {curves['type']} curves")
        orders = out["match_orders"] = _read(cfg, "match_orders", INTEGER, allowed=COUNT, where=where)
        # sin(n t) vanishes at every node for n = M / 2, and past it aliases a lower order
        if 2 * orders >= nodes[-1]:
            raise ConfigError(
                f"{where}: match_orders must be below nodes[-1] / 2 = {nodes[-1] // 2}, "
                f"got {orders} at {nodes[-1]} nodes"
            )
    return out


def normalize(command, cfg):
    # the command table lives in runners, which imports this module
    from .runners import get_command

    return get_command(command).normalize(cfg)
