"""Validation and normalization of run configurations.

Configs are plain JSON-style dicts (from presets, a --config file, or CLI
flags).  Validation is strict: unknown keys are rejected at every level,
required keys must be present, and values are range-checked before any
computation starts.  Normalization fills defaults so that the resulting
dict is canonical (stable under re-validation) and hashable for output
metadata.
"""

from __future__ import annotations

from .errors import ConfigError
from .geometry import LayerStack
from .spectrum import BOUND_SLACK, CROSS_ROUTE_TOL, IMAG_TOL

GEOMETRY_KEYS = {"R", "xi", "semimajor"}
MATERIAL_KEYS = {"sigma0", "sigma_star", "delta"}
DRUDE_KEYS = {"sigma_prime", "omega_p", "tau"}
TOLERANCE_KEYS = {"cross", "imag", "bound"}

DEFAULT_TOLERANCES = {"cross": CROSS_ROUTE_TOL, "imag": IMAG_TOL, "bound": BOUND_SLACK}


def _check_keys(cfg, allowed, required, where):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(cfg).__name__}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _positive(cfg, key, where, default=None):
    value = cfg.get(key, default)
    if value is None:
        return None
    value = float(value)
    if value <= 0:
        raise ConfigError(f"{where}: {key} must be positive, got {value}")
    return value


def _order(cfg, where):
    n = cfg.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"{where}: 'n' must be an integer >= 1, got {n!r}")
    return n


def normalize_geometry(geo, where="geometry"):
    _check_keys(geo, GEOMETRY_KEYS, {"R"}, where)
    try:
        stack = LayerStack.from_dict(geo)
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return {"R": stack.R, "xi": list(stack.xi)}, stack


def normalize_tolerances(tol, where="tolerances"):
    tol = dict(DEFAULT_TOLERANCES) | (tol or {})
    _check_keys(tol, TOLERANCE_KEYS, set(), where)
    for key in TOLERANCE_KEYS:
        if float(tol[key]) <= 0:
            raise ConfigError(f"{where}: {key} must be positive")
        tol[key] = float(tol[key])
    return tol


def normalize_drude(drude, where="drude"):
    if drude is None:
        return None
    _check_keys(drude, DRUDE_KEYS, DRUDE_KEYS, where)
    out = {k: float(drude[k]) for k in ("sigma_prime", "omega_p", "tau")}
    if out["sigma_prime"] <= 0 or out["omega_p"] <= 0 or out["tau"] < 0:
        raise ConfigError(f"{where}: sigma_prime, omega_p must be positive and tau >= 0")
    return out


def normalize_material(mat, where="material"):
    if mat is None:
        return None
    _check_keys(mat, MATERIAL_KEYS, {"sigma_star"}, where)
    out = {
        "sigma0": float(mat.get("sigma0", 1.0)),
        "sigma_star": float(mat["sigma_star"]),
        "delta": float(mat.get("delta", 0.0)),
    }
    if out["sigma0"] <= 0 or out["sigma_star"] <= 0 or out["delta"] < 0:
        raise ConfigError(f"{where}: need sigma0 > 0, sigma_star > 0, delta >= 0")
    return out


def normalize_modes_config(cfg):
    allowed = {"geometry", "n", "sigma0", "material", "drude", "tolerances"}
    _check_keys(cfg, allowed, {"geometry", "n"}, "modes config")
    geo, _ = normalize_geometry(cfg["geometry"])
    out = {
        "geometry": geo,
        "n": _order(cfg, "modes config"),
        "sigma0": _positive(cfg, "sigma0", "modes config", default=1.0),
        "tolerances": normalize_tolerances(cfg.get("tolerances")),
    }
    material = normalize_material(cfg.get("material"))
    if material is not None:
        out["material"] = material
        out["sigma0"] = material["sigma0"]
    drude = normalize_drude(cfg.get("drude"))
    if drude is not None:
        out["drude"] = drude
    return out


def normalize_charpoly_config(cfg):
    allowed = {"geometry", "n", "span_points"}
    _check_keys(cfg, allowed, {"geometry", "n"}, "charpoly config")
    geo, _ = normalize_geometry(cfg["geometry"])
    span = int(cfg.get("span_points", 1000))
    if span < 2:
        raise ConfigError(f"charpoly config: span_points must be >= 2, got {span}")
    return {"geometry": geo, "n": _order(cfg, "charpoly config"), "span_points": span}


def normalize_field_config(cfg):
    allowed = {
        "geometry", "n", "delta", "quantity", "normalize",
        "bbox", "resolution", "ranks", "parities", "tolerances",
    }
    _check_keys(cfg, allowed, {"geometry", "n", "bbox", "resolution"}, "field config")
    geo, stack = normalize_geometry(cfg["geometry"])
    n = _order(cfg, "field config")
    delta = float(cfg.get("delta", 1e-5))
    if delta < 0:
        raise ConfigError(f"field config: delta must be >= 0, got {delta}")
    quantity = cfg.get("quantity", "potential")
    if quantity not in ("potential", "gradient"):
        raise ConfigError(f"field config: quantity must be 'potential' or 'gradient', got {quantity!r}")
    bbox = [float(v) for v in cfg["bbox"]]
    if len(bbox) != 4 or bbox[0] >= bbox[1] or bbox[2] >= bbox[3]:
        raise ConfigError(f"field config: bbox must be [x1min, x1max, x2min, x2max], got {bbox}")
    resolution = [int(v) for v in cfg["resolution"]]
    if len(resolution) != 2 or min(resolution) < 2:
        raise ConfigError(f"field config: resolution must be two ints >= 2, got {resolution}")
    ranks = [int(r) for r in cfg.get("ranks", [1])]
    if any(not 1 <= r <= stack.N for r in ranks):
        raise ConfigError(f"field config: ranks must lie in 1..{stack.N}, got {ranks}")
    parities = list(cfg.get("parities", ["even", "odd"]))
    if any(p not in ("even", "odd") for p in parities):
        raise ConfigError(f"field config: parities must be 'even'/'odd', got {parities}")
    return {
        "geometry": geo,
        "n": n,
        "delta": delta,
        "quantity": quantity,
        "normalize": bool(cfg.get("normalize", True)),
        "bbox": bbox,
        "resolution": resolution,
        "ranks": ranks,
        "parities": parities,
        "tolerances": normalize_tolerances(cfg.get("tolerances")),
    }


def normalize_sweep_config(cfg):
    allowed = {"layers", "ratio", "n", "L", "tolerances"}
    _check_keys(cfg, allowed, {"layers", "ratio", "n", "L"}, "sweep config")
    layers = int(cfg["layers"])
    if layers < 1:
        raise ConfigError(f"sweep config: layers must be >= 1, got {layers}")
    ratio = float(cfg["ratio"])
    if not 0 < ratio < 1:
        raise ConfigError(f"sweep config: ratio must be in (0, 1), got {ratio}")
    L = [float(v) for v in cfg["L"]]
    if not L or any(v <= 0 for v in L):
        raise ConfigError(f"sweep config: L values must be positive, got {L}")
    return {
        "layers": layers,
        "ratio": ratio,
        "n": _order(cfg, "sweep config"),
        "L": L,
        "tolerances": normalize_tolerances(cfg.get("tolerances")),
    }


def normalize_bie_config(cfg):
    allowed = {"curves", "nodes", "match_orders", "match_nodes"}
    _check_keys(cfg, allowed, {"curves", "nodes"}, "bie config")
    curves = cfg["curves"]
    if not isinstance(curves, dict) or curves.get("type") not in ("confocal", "polar"):
        raise ConfigError("bie config: curves must be a mapping with type 'confocal' or 'polar'")
    if curves["type"] == "confocal":
        _check_keys(curves, {"type", "R", "xi"}, {"type", "R", "xi"}, "bie curves")
    else:
        _check_keys(curves, {"type", "coeffs", "scale"}, {"type", "scale"}, "bie curves")
    nodes = [int(v) for v in cfg["nodes"]]
    if not nodes or any(m < 8 or m % 2 for m in nodes):
        raise ConfigError(f"bie config: need at least one node count, each even and >= 8, got {nodes}")
    out = {"curves": curves, "nodes": nodes}
    if "match_orders" in cfg:
        out["match_orders"] = int(cfg["match_orders"])
        if out["match_orders"] < 1:
            raise ConfigError(f"bie config: match_orders must be >= 1, got {out['match_orders']}")
        out["match_nodes"] = int(cfg.get("match_nodes", max(nodes)))
    return out


def normalize(command, cfg):
    # the command table lives in runners, which imports this module
    from .runners import get_command

    return get_command(command).normalize(cfg)
