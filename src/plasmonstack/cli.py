"""Command-line surface: mode tables, polynomial dumps, field grids, the
disk-degeneration sweep, and the independent discretization cross-checks.

Exit codes: 0 success, 1 configuration error, 2 numerical cross-validation
failure (including fixture drift under --check), 3 resonance-singular solve
requested without a loss parameter.

The only environment variable honored is PLASMONSTACK_THREADS, which caps
the BLAS/OpenMP thread pools; the package applies it when it is first
imported (see :mod:`plasmonstack`), so it has no effect on a process that
loaded numpy before plasmonstack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import runconfig, runners
from .errors import ConfigError, CrossValidationError, PlasmonstackError, ResonanceError
from .fixtures_io import compare_fixture, fixture_tolerances, load_fixture, save_fixture
from .presets import PRESETS, get_preset


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plasmonstack",
        description="Plasmon modes, resonant materials, and perturbed fields "
        "for multi-layer confocal-ellipse structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in runners.COMMANDS.items():
        presets = [preset for preset, p in PRESETS.items() if p.command == name]
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--preset", help="named reference configuration: " + ", ".join(presets))
        p.add_argument("--config", help="JSON config file (overrides preset values)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--check", action="store_true",
                       help="recompute the preset and diff against its committed fixture")
        for flag, _key, kwargs in command.options:
            p.add_argument(flag, **kwargs)

    p = sub.add_parser("make-fixtures", help="(maintainer) regenerate committed preset fixtures")
    p.add_argument("names", nargs="*", help="preset names (default: all)")
    return parser


def _merge_config(command, args, preset_cfg):
    """preset < --config file < explicit flags."""
    cfg = dict(preset_cfg or {})
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc

    xi, semimajor, R = (getattr(args, name, None) for name in ("xi", "semimajor", "R"))
    if xi and semimajor:
        raise ConfigError("--xi and --semimajor exclude each other; give one of them")
    if xi or semimajor:
        cfg["geometry"] = {"R": 1.0 if R is None else R, "xi" if xi else "semimajor": xi or semimajor}
    elif R is not None:
        raise ConfigError("--R applies only to radii given by --xi or --semimajor")
    # only modes takes both radii flags and --layers, as a consistency check
    layers = getattr(args, "layers", None)
    if layers is not None and hasattr(args, "xi"):
        geometry = cfg.get("geometry")
        radii = geometry.get("xi", geometry.get("semimajor")) if isinstance(geometry, dict) else None
        if isinstance(radii, list) and len(radii) != layers:
            raise ConfigError(f"--layers {layers} contradicts the {len(radii)} radii of the geometry")

    for flag, key, _kwargs in runners.get_command(command).options:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))  # argparse's dest
        if key and value is not None:
            cfg[key] = value
    if getattr(args, "gradient", False):
        cfg["quantity"] = "gradient"
    parity = getattr(args, "parity", None)
    if parity:
        cfg["parities"] = ["even", "odd"] if parity == "both" else [parity]
    tol = {}
    for flag, key in (("tol_cross", "cross"), ("tol_imag", "imag"), ("tol_bound", "bound")):
        value = getattr(args, flag, None)
        if value is not None:
            tol[key] = value
    tolerances = cfg.get("tolerances", {})
    if tol and isinstance(tolerances, dict):  # normalization rejects anything else
        cfg["tolerances"] = tolerances | tol
    return cfg


def _print_mode_table(payload):
    for parity, tag in (("even", "+"), ("odd", "-")):
        rows = payload[parity]
        print(f"f{tag}  (n={payload['n']})")
        print("lambda_" + tag + " : " + " ".join(f"{r['lambda']:8.4f}" for r in rows))
        print("sigma_1  : " + " ".join(f"{r['sigma1']:8.4f}" for r in rows))


def _run_command(command, cfg):
    cfg = runconfig.normalize(command, cfg)
    payload, grids = runners.run(command, cfg)
    return cfg, payload, grids


def _fixture_path(name):
    return os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json")


def _check_fixture(preset_name, result):
    fixture = load_fixture(_fixture_path(preset_name))
    return compare_fixture(fixture, result)


def _cmd_make_fixtures(args):
    presets = [get_preset(name) for name in args.names or sorted(PRESETS)]
    for preset in presets:
        cfg, result, _ = _run_command(preset.command, dict(preset.config))
        save_fixture(_fixture_path(preset.name), preset.name, preset.command, result,
                     fixture_tolerances(preset.command))
        print(f"wrote fixture {preset.name}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # bad usage is a configuration error (exit 1); --help stays 0
        return exc.code if exc.code in (0, None) else 1

    try:
        if args.command == "make-fixtures":
            return _cmd_make_fixtures(args)
        preset = get_preset(args.preset) if args.preset else None
        if preset is not None and preset.command != args.command:
            raise ConfigError(
                f"preset {preset.name!r} belongs to command {preset.command!r}, not {args.command!r}"
            )
        if preset is None and args.check:
            raise ConfigError("--check requires --preset")
        cfg = _merge_config(args.command, args, preset.config if preset else {})
        if not cfg:
            raise ConfigError("empty configuration: pass --preset, --config, or flags")
        cfg, result, grids = _run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResonanceError as exc:
        print(f"resonance-singular solve: {exc}", file=sys.stderr)
        return 3
    except CrossValidationError as exc:
        print(f"cross-validation failure: {exc}", file=sys.stderr)
        return 2
    except PlasmonstackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.check:
        mismatches = _check_fixture(preset.name, result)
        if mismatches:
            print(f"fixture drift for preset {preset.name!r}:", file=sys.stderr)
            for m in mismatches[:20]:
                print(f"  {m}", file=sys.stderr)
            return 2
        print(f"preset {preset.name!r} matches its fixture")
        return 0

    os.makedirs(args.out, exist_ok=True)
    runners.get_command(args.command).write(args.out, cfg, result, grids)
    if getattr(args, "table", False):
        _print_mode_table(result)
    print(f"wrote {args.command} outputs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
