"""Command-line surface: mode tables, polynomial dumps, field grids, the
disk-degeneration sweep, and the independent discretization cross-checks.

Exit codes: 0 success, 1 configuration error (including an unwritable
--out), 2 numerical failure: a cross-validation failure (including fixture
drift under --check) or a field that overflows floating point, 3
resonance-singular solve requested without a loss parameter, or a density
solve whose residual exceeds ``field.RESIDUAL_TOL``.  The gate table in
:mod:`plasmonstack.errors` is the one place that decides a numeric check's
exit code.

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

from . import output, runconfig, runners
from .errors import ConfigError, PlasmonstackError
from .fixtures_io import compare_fixture, load_fixture, save_fixture
from .npcore import PARITIES
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
        # ValueError covers malformed JSON, bytes that are not UTF-8 and an
        # integer longer than Python's digit limit for parsing
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            kind = {list: "array", str: "string", bool: "boolean", type(None): "null"}.get(type(loaded), "number")
            raise ConfigError(f"config file {args.config} holds a JSON {kind}, not an object")
        cfg.update(loaded)

    xi, semimajor, R = (getattr(args, name, None) for name in ("xi", "semimajor", "R"))
    if xi and semimajor:
        raise ConfigError("--xi and --semimajor exclude each other; give one of them")
    if xi or semimajor:
        cfg["geometry"] = {"R": 1.0 if R is None else R, "xi" if xi else "semimajor": xi or semimajor}
    elif R is not None:
        raise ConfigError("--R applies only to radii given by --xi or --semimajor")

    for flag, key, _kwargs in runners.get_command(command).options:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))  # argparse's dest
        if key is None or value is None:
            continue
        block, name = cfg, key
        if "." in key:  # a key inside a block, merged into the block a file gives
            outer, name = key.split(".")
            block = cfg.get(outer, {})
            if not isinstance(block, dict):
                continue  # normalization rejects the malformed block
            block = cfg[outer] = dict(block)
        block[name] = value
    return cfg


def _print_mode_table(payload):
    for parity, tag in zip(PARITIES, "+-"):
        rows = payload[parity]
        print(f"f{tag}  (n={payload['n']})")
        print("lambda_" + tag + " : " + " ".join(f"{r['lambda']:8.4f}" for r in rows))
        # lambda = 1/2 has no finite resonant conductivity (sigma1 is None)
        sigmas = ("--" if r["sigma1"] is None else f"{r['sigma1']:.4f}" for r in rows)
        print("sigma_1  : " + " ".join(f"{s:>8}" for s in sigmas))


def _run_command(command, cfg):
    cfg = runconfig.normalize(command, cfg)
    payload, grids = runners.run(command, cfg)
    return cfg, payload, grids


def _fixture_path(name):
    return os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json")


def _cmd_make_fixtures(args):
    presets = [get_preset(name) for name in args.names or sorted(PRESETS)]
    for preset in presets:
        cfg, result, _ = _run_command(preset.command, dict(preset.config))
        save_fixture(_fixture_path(preset.name), preset.name, preset.command, result,
                     runners.get_command(preset.command).tolerances)
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
        if args.check and cfg != preset.config:
            raise ConfigError(
                f"--check recomputes preset {preset.name!r} as committed; drop --config and the flags that change it"
            )
        cfg, result, grids = _run_command(args.command, cfg)
        if not args.check:
            command = runners.get_command(args.command)
            try:
                os.makedirs(args.out, exist_ok=True)
                if command.write is not None:
                    command.write(args.out, cfg, result, grids)
                output.write_json(os.path.join(args.out, command.payload_file), result, cfg)
            except OSError as exc:
                raise ConfigError(f"cannot write outputs to {args.out}: {exc}") from exc
    except PlasmonstackError as exc:
        # each error class declares its exit code and prefix (see errors)
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code

    if args.check:
        mismatches = compare_fixture(load_fixture(_fixture_path(preset.name)), result)
        if mismatches:
            print(f"fixture drift for preset {preset.name!r}:", file=sys.stderr)
            for m in mismatches[:20]:
                print(f"  {m}", file=sys.stderr)
            return 2
        print(f"preset {preset.name!r} matches its fixture")
        return 0

    if getattr(args, "table", False):
        _print_mode_table(result)
    print(f"wrote {args.command} outputs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
