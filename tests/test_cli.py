import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from plasmonstack import bie, charpoly, cli, field, output, runconfig, runners, spectrum
from plasmonstack.cli import _merge_config, build_parser, main
from plasmonstack.field import BackgroundField
from plasmonstack.fixtures_io import compare_fixture, load_fixture
from plasmonstack.geometry import EllipticPoint, LayerStack
from plasmonstack.npcore import EVEN, ODD
from plasmonstack.presets import PRESETS, get_preset

import preset_digest
from oracles import precise_roots


def read_csv(path):
    meta = []
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


_CONFOCAL = {"type": "confocal", "R": 1.0, "xi": [1.0, 0.5]}
_MODES = {"geometry": {"R": 1.0, "xi": [1.0, 0.5]}, "n": 1}
_FIELD = {"geometry": {"R": 1.0, "xi": [1.0]}, "n": 1, "bbox": [-2.0, 3.0, -1.0, 1.0], "resolution": [3, 2]}

#: (command, config, what the error must say) of malformed configs
REJECTED_CONFIGS = [
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": 1.0}, "nodes": []}, "nodes must",
                 id="empty-nodes"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [], "match_orders": 1}, "nodes must",
                 id="empty-nodes-match"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_orders": 0}, "match_orders must",
                 id="zero-match-orders"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": 16}, "nodes must", id="nodes-not-a-list"),
    pytest.param("field", {**_FIELD, "bbox": 3}, "bbox must", id="bbox-not-a-list"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_orders": "x"}, "match_orders must",
                 id="match-orders-string"),
    pytest.param("sweep-disk", {"layers": "x", "ratio": 0.8, "n": 1, "L": [1.0]}, "layers must", id="layers-string"),
    pytest.param("modes", {**_MODES, "tolerances": {"cross": "x"}}, "cross must", id="tolerance-string"),
    pytest.param("modes", {**_MODES, "tolerances": {"cross": math.inf}}, "cross must", id="tolerance-infinite"),
    pytest.param("modes", {**_MODES, "drude": {"sigma_prime": "a", "omega_p": 2e15}},
                 "sigma_prime must", id="drude-string"),
    pytest.param("modes", {**_MODES, "sigma0": None}, "sigma0 must", id="sigma0-null"),
    pytest.param("charpoly", {**_MODES, "span_points": 2.9}, "span_points must", id="span-points-float"),
    pytest.param("field", {**_FIELD, "normalize": "false"}, "unknown keys ['normalize']", id="normalize-string"),
    pytest.param("field", {**_FIELD, "n": 10**400}, "n must be an integer >= 1, got 1" + "0" * 400,
                 id="n-beyond-float"),
    pytest.param("field", {**_FIELD, "parities": 5}, "parities must", id="parities-not-a-list"),
    pytest.param("modes", {**_MODES, "geometry": {"R": True, "xi": [1.0]}}, "R must", id="R-bool"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_orders": 1, "match_nodes": 7},
                 "unknown keys ['match_nodes']", id="odd-match-nodes"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_nodes": 16},
                 "unknown keys ['match_nodes']", id="match-nodes-without-orders"),
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": "a"}, "nodes": [16]}, "scale must",
                 id="curve-scale-string"),
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": 1.0}, "nodes": [16], "match_orders": 3},
                 "match_orders must", id="polar-match-orders"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_orders": 8},
                 "match_orders must be below nodes[-1] / 2 = 8, got 8 at 16 nodes", id="match-orders-unresolved"),
    pytest.param("field", {**_FIELD, "geometry": {"R": 1.0, "xi": [1.0, 0.5]}, "ranks": [1, 1],
                           "parities": ["even", "even"]}, "ranks must", id="repeated-ranks"),
    pytest.param("field", {**_FIELD, "parities": ["odd", "odd"]}, "parities must", id="repeated-parities"),
    pytest.param("field", {**_FIELD, "geometry": {"R": 1.0, "xi": [1.0, 0.6]}, "n": 2, "ranks": []}, "ranks must",
                 id="empty-ranks"),
    pytest.param("field", {**_FIELD, "parities": []}, "parities must", id="empty-parities"),
    pytest.param("field", {**_FIELD, "bbox": [-2.0, 3.0, -1.0]}, "bbox must", id="bbox-three-numbers"),
    pytest.param("field", {**_FIELD, "bbox": [3.0, -2.0, -1.0, 1.0]}, "bbox must", id="bbox-min-above-max"),
    pytest.param("field", {**_FIELD, "resolution": [3, 2, 2]}, "resolution must", id="resolution-three-integers"),
    pytest.param("bie-validate", {"curves": [1.0, 0.5], "nodes": [16]}, "bie curves: expected a mapping",
                 id="curves-not-a-mapping"),
    pytest.param("bie-validate", {"curves": {"type": "square", "R": 1.0}, "nodes": [16]},
                 "bie curves: expected a mapping with type", id="curves-unknown-type"),
    pytest.param("modes", {**_MODES, "geometry": [1.0, 0.5]}, "geometry: expected a mapping",
                 id="geometry-not-a-mapping"),
    pytest.param("modes", {**_MODES, "geometry": {"R": 1.0, "xi": [0.5, 1.0]}},
                 "geometry: elliptic radii must be strictly decreasing", id="xi-increasing"),
    pytest.param("sweep-disk", {"layers": 2, "ratio": 0.8, "n": 1, "L": []}, "L must", id="empty-L"),
    pytest.param("sweep-disk", {"layers": 3, "ratio": 0.8, "n": 1, "L": [1, 1.0]}, "L must not repeat a value",
                 id="repeated-L"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [64, 64]},
                 "nodes must strictly increase, coarsest first, got [64, 64]", id="repeated-nodes"),
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": 1.0}, "nodes": [128, 64]},
                 "nodes must strictly increase, coarsest first, got [128, 64]", id="decreasing-nodes"),
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": []}, "nodes": [64]}, "scale must",
                 id="empty-scale"),
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": [1.0, 1.0]}, "nodes": [64]}, "scale must",
                 id="repeated-scale"),
    pytest.param("bie-validate", {"curves": {"type": "polar", "coeffs": [0.1], "scale": [1.0, 1.5]}, "nodes": [64]},
                 "scale must", id="increasing-scale"),
    pytest.param("modes", {**_MODES, "geometry": {"R": 1.0, "xi": [1.0], "semimajor": [2.0]}},
                 "give exactly one of xi and semimajor", id="geometry-xi-and-semimajor"),
    pytest.param("modes", {**_MODES, "geometry": {"R": 1.0, "xi": [1.0], "foo": 2}},
                 "geometry: unknown keys ['foo']", id="geometry-unknown-key"),
    pytest.param("modes", {**_MODES, "geometry": {"xi": [1.0]}}, "geometry: missing required keys ['R']",
                 id="geometry-missing-R"),
]


class TestModesCommand:
    def test_single_layer_flags(self, tmp_path):
        out = tmp_path / "o"
        assert main(["modes", "--xi", "1", "--n", "1", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out / "modes.csv")
        assert header == ["parity", "rank", "lambda", "sigma1", "omega"]
        assert any(line.startswith("# plasmonstack") for line in meta)
        assert any(line.startswith("# config-sha256:") for line in meta)
        lam = {r[0]: float(r[2]) for r in rows}
        assert abs(lam["even"] - 0.5 * math.exp(-2)) < 1e-14
        assert abs(lam["odd"] + 0.5 * math.exp(-2)) < 1e-14
        # json mirror exists
        doc = json.loads((out / "modes.json").read_text())
        assert doc["payload"]["even"][0]["rank"] == 1

    def test_preset_table_output(self, tmp_path, capsys):
        assert main(["modes", "--preset", "table1", "--out", str(tmp_path / "t"), "--table"]) == 0
        printed = capsys.readouterr().out
        assert "0.3205" in printed and "-4.5699" in printed

    def test_mode_at_half_leaves_sigma1_blank(self, tmp_path):
        out = tmp_path / "o"
        assert main(["modes", "--xi", "1e-17", "--n", "1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "modes.csv")
        assert rows[0][:4] == ["even", "1", "0.5", ""]
        payload = json.loads((out / "modes.json").read_text())["payload"]
        assert payload["even"][0]["sigma1"] is None

    def test_mode_at_half_table_placeholder(self, tmp_path, capsys):
        assert main(["modes", "--xi", "1e-17", "--n", "1", "--out", str(tmp_path), "--table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["f+  (n=1)", "lambda_+ :   0.5000", "sigma_1  :       --"]

    def test_mode_at_minus_half_has_positive_zero_sigma1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["modes", "--xi", "1e-17", "--n", "1", "--out", str(out), "--table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:6] == ["f-  (n=1)", "lambda_- :  -0.5000", "sigma_1  :   0.0000"]
        _, _, rows = read_csv(out / "modes.csv")
        assert rows[1] == ["odd", "1", "-0.5", "0", ""]
        sigma1 = json.loads((out / "modes.json").read_text())["payload"]["odd"][0]["sigma1"]
        assert sigma1 == 0.0 and math.copysign(1.0, sigma1) == 1.0

    @pytest.mark.parametrize(
        "cfg,key",
        [({**_MODES, "material": {"sigma0": 1.0, "sigma_star": 2.0}}, "material"),
         ({**_MODES, "drude": {"sigma_prime": 9e-12, "omega_p": 2e15, "tau": 1e14}}, "tau")],
        ids=["material", "drude-tau"],
    )
    def test_removed_keys_rejected(self, tmp_path, capsys, cfg, key):
        """No code reads the material block or the Drude damping, so a config
        that sets them is refused rather than silently ignored."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["modes", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"unknown keys ['{key}']" in err

    def test_layers_contradiction(self, tmp_path, capsys):
        """The radii are the layer count, so modes takes no --layers."""
        assert main(["modes", "--layers", "2", "--xi", "1", "--n", "1", "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --layers 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["--xi", "1.0", "0.5", "--semimajor", "3", "2", "--n", "1"], "--semimajor"),
            (["--preset", "table1", "--R", "2"], "--R"),
            # an integer past the float64 range is refused before any computation
            (["--xi", "1", "--n", "1" + "0" * 400], "n must be an integer >= 1"),
        ],
        ids=["xi-and-semimajor", "R-without-radii", "n-beyond-float"],
    )
    def test_flags_rejected(self, tmp_path, capsys, argv, key):
        assert main(["modes", *argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert key in err

    def test_cross_validation_exit_code(self, tmp_path, capsys):
        code = main(
            ["modes", "--preset", "table1", "--tol-cross", "1e-18", "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("cross-validation failure: ")

    def test_sturm_interval_exit_code(self, tmp_path, capsys, monkeypatch):
        """A count that places an odd root below -1/2 - bound fails the interval gate."""
        sturm_count = charpoly.sturm_count

        def one_more_below(stack, lam, n):
            counts = sturm_count(stack, lam, n)
            counts[1, 0] += 1  # the odd parity's count at the probe -1/2 - bound
            return counts

        monkeypatch.setattr(charpoly, "sturm_count", one_more_below)
        assert main(["modes", "--preset", "table1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "cross-validation failure: odd: 1 of 15 polynomial roots are not real or leave [-1/2, 1/2] "
            "by more than 1.0e-10\n"
        )

    def test_config_file_and_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"R": 1.0, "xi": [1.0]}, "n": 2}))
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        cfg.write_text(json.dumps({"geometry": {"R": 1.0, "xi": [1.0]}, "n": 2, "bogus": 1}))
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1

    @pytest.mark.parametrize("text,kind", [("[1, 2]", "array"), ('"x"', "string"), ('[["n", 1]]', "array")],
                             ids=["array", "string", "pair-list"])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, text, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: config file {cfg} holds a JSON {kind}, not an object\n"
        assert not (tmp_path / "o").exists()

    def test_empty_configuration(self, tmp_path, capsys):
        assert main(["modes", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: empty configuration")
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["modes", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {path}: ")

    @pytest.mark.parametrize("content", [b'{"n": 1' + b"0" * 5000 + b"}", b'{"n": "\xff"}', b'{"n": '],
                             ids=["integer-past-parse-limit", "not-utf8", "truncated"])
    def test_unparsable_config_file(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["modes", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {path}: ")

    def test_tolerance_flag_over_malformed_block(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": {"R": 1.0, "xi": [1.0]}, "n": 1, "tolerances": "x"}))
        assert main(["modes", "--config", str(path), "--tol-cross", "1e-8", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: tolerances: expected a mapping, got str\n"

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["existing-file", "under-a-file"])
    def test_unwritable_out(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("kept")
        out = str(tmp_path / out)
        assert main(["modes", "--preset", "table1", "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot write outputs to {out}: ")
        assert (tmp_path / "afile").read_text() == "kept"

    def test_semimajor_flags(self, tmp_path):
        out = tmp_path / "sm"
        code = main(
            ["modes", "--semimajor", "1.6", "1.4", "1.2", "1.0", "--R", "0.9", "--n", "6",
             "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv(out / "modes.csv")
        assert len(rows) == 8


class TestPresetChecks:
    @pytest.mark.parametrize("name,command", [(name, p.command) for name, p in PRESETS.items()])
    def test_fixture_check_passes(self, name, command):
        assert main([command, "--preset", name, "--check"]) == 0

    def test_preset_command_mismatch(self, tmp_path):
        assert main(["modes", "--preset", "fig9", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("stale", ["out/bie-circle/old.csv", "out"])
    def test_digest_refuses_a_used_out_dir(self, tmp_path, capsys, monkeypatch, stale):
        # a stale file would be listed with its old hash, so the digest runs
        # only into a new or empty directory
        out = tmp_path / "out"
        (tmp_path / stale).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / stale).write_text("old")
        monkeypatch.setattr(sys, "path", list(sys.path))
        assert preset_digest.main([os.path.join(os.path.dirname(__file__), os.pardir, "src"), str(out)]) == 1
        assert capsys.readouterr().err == f"{out} already exists and is not an empty directory\n"
        assert (tmp_path / stale).read_text() == "old"

    def test_check_requires_preset(self):
        assert main(["modes", "--check"]) == 1

    def test_unknown_preset(self, tmp_path):
        assert main(["modes", "--preset", "table9", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv,config", [
        pytest.param(["--n", "2"], None, id="value-flag"),
        pytest.param(["--tol-cross", "1e-7"], None, id="tolerance-flag"),
        pytest.param([], {"n": 2}, id="config-file"),
    ])
    def test_check_refuses_a_changed_preset(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path)]
        assert main(["modes", "--preset", "table1", "--check", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'table1'" in err
        assert "drift" not in err

    def test_check_takes_flags_that_keep_the_preset(self, tmp_path):
        out = tmp_path / "o"
        assert main(["modes", "--preset", "table1", "--check", "--out", str(out)]) == 0
        assert main(["modes", "--preset", "table1", "--check", "--table"]) == 0
        assert not out.exists()

    @pytest.mark.parametrize("expected,actual", [
        pytest.param(0.5, None, id="number-null"),
        pytest.param(0.5, {"re": 0.5, "im": 0.0}, id="number-object"),
        pytest.param(0.5, "x", id="number-string"),
        pytest.param(0.5, [0.5], id="number-list"),
        pytest.param(1.0, True, id="number-bool"),
        pytest.param(True, 1, id="bool-number"),
        pytest.param(None, 0.5, id="null-number"),
        pytest.param("x", 0.5, id="string-number"),
    ])
    def test_leaf_of_another_type_drifts(self, expected, actual):
        fixture = {"tolerances": {"rtol": 1e-6, "atol": 1e-12}, "payload": {"leaf": expected}}
        assert compare_fixture(fixture, {"leaf": actual}) == [f"payload.leaf: {actual!r} != {expected!r}"]

    @pytest.mark.parametrize("expected,actual", [(1, 1.0), (0.5, 0.5 + 1e-9), (None, None), (True, True), ("x", "x")])
    def test_leaf_of_its_own_type_matches(self, expected, actual):
        fixture = {"tolerances": {"rtol": 1e-6, "atol": 1e-12}, "payload": {"leaf": expected}}
        assert compare_fixture(fixture, {"leaf": actual}) == []

    @pytest.mark.parametrize("expected,actual,drift", [
        pytest.param(0.5, 0.500001, "payload.leaf: 0.500001 differs from fixture 0.5", id="number-moved"),
        pytest.param({"a": 1}, {"b": 1}, "payload.leaf: structure mismatch", id="other-keys"),
        pytest.param({"a": 1}, [1], "payload.leaf: structure mismatch", id="object-list"),
        pytest.param([1, 2], [1], "payload.leaf: length mismatch", id="shorter-list"),
        pytest.param([1, 2], "12", "payload.leaf: length mismatch", id="list-string"),
    ])
    def test_drift_is_reported(self, expected, actual, drift):
        fixture = {"tolerances": {"rtol": 1e-6, "atol": 1e-12}, "payload": {"leaf": expected}}
        assert compare_fixture(fixture, {"leaf": actual}) == [drift]

    @pytest.mark.parametrize("section,moved,drift", [
        pytest.param("span", 5e-10, None, id="span-within-1e-9"),
        pytest.param("span", 2e-9, "payload.span.minus.value[0]: 2e-09 differs from fixture 0.0",
                     id="span-beyond-1e-9"),
        pytest.param("roots", 5e-10, "payload.roots.minus.value[0]: 5e-10 differs from fixture 0.0",
                     id="value-outside-span"),
    ])
    def test_span_values_compare_absolutely(self, section, moved, drift):
        """A charpoly span ``value`` passes through zero, so it is compared
        at 1e-9 absolute, not at the fixture's atol."""
        fixture = {"tolerances": {"rtol": 1e-9, "atol": 1e-13}, "payload": {section: {"minus": {"value": [0.0, 0.25]}}}}
        actual = {section: {"minus": {"value": [moved, 0.25]}}}
        assert compare_fixture(fixture, actual) == ([] if drift is None else [drift])

    def test_check_reports_a_null_leaf_as_drift(self, monkeypatch, capsys):
        run_sweep = runners.run_sweep
        monkeypatch.setattr(runners, "run_sweep", lambda cfg: {**run_sweep(cfg), "log_gap_slope_vs_min_xi": None})
        assert main(["sweep-disk", "--preset", "fig9", "--check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fixture drift for preset 'fig9':")
        assert "payload.log_gap_slope_vs_min_xi: None != " in err

    @pytest.mark.parametrize("name", PRESETS)
    def test_fixture_matches_its_command_entry(self, name):
        preset = PRESETS[name]
        fixture = load_fixture(os.path.join(os.path.dirname(runners.__file__), "fixtures", f"{name}.json"))
        assert (fixture["preset"], fixture["command"]) == (preset.name, preset.command)
        assert fixture["tolerances"] == runners.COMMANDS[preset.command].tolerances

    @pytest.mark.parametrize("name", ["table1", "table2", "fig9", "bie-circle"])
    def test_make_fixtures_matches_committed(self, tmp_path, monkeypatch, capsys, name):
        """A regenerated fixture passes ``--check``'s comparison against the
        committed one.  The mode tables and the disk sweep also agree to
        1e-12 relative in every number, so their committed fixtures show
        what the code computes, not an earlier route's digits."""
        committed = cli._fixture_path(name)
        monkeypatch.setattr(cli, "_fixture_path", lambda preset: str(tmp_path / f"{preset}.json"))
        assert main(["make-fixtures", name]) == 0
        assert capsys.readouterr().out == f"wrote fixture {name}\n"
        written, expected = load_fixture(tmp_path / f"{name}.json"), load_fixture(committed)
        assert compare_fixture(expected, written["payload"]) == []
        if name in ("table1", "table2", "fig9"):
            tight = {"tolerances": {"rtol": 1e-12, "atol": 0.0}, "payload": expected["payload"]}
            assert compare_fixture(tight, written["payload"]) == []
        for key in ("preset", "command", "tolerances"):
            assert written[key] == expected[key]

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(runners.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "plasmonstack.cli", "modes", "--preset", "table1", "--check"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "preset 'table1' matches its fixture\n"

    def test_make_fixtures_unknown_name(self, capsys):
        assert main(["make-fixtures", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "bogus" in err


#: config hash of each normalized preset; they pin the normalized configs and
#: so the metadata of every preset output
PRESET_CONFIG_HASHES = {
    "table1": "285a9584e5cbe3b9b38f4e5b5eedc80bd122e61e7966aa6ff1542a5367962eb7",
    "table2": "fa252c8af0bcd49c3ba0aa3e69dc12befd95f3e163751125a25e28fcf5402a4f",
    "fig5": "6a4b1c9b4c21e515ef7257d0198d494ceeb7de98cd251870803db88440cee618",
    "fig8": "e86eb8b1ff585ca97e9d44fb5dc892979554ae7d9bf7b7a78f5bdfc71331acc0",
    "fig9": "dda462a92163bd325acb1af58dddee7fe6f857cdca3268826e772d6615eaf80b",
    "fig10": "cdbc4080d8a7ca51d84b2e3023cf816580523e4197bf555909e0ef9ba767f4f6",
    "fig11-analog": "efdae050252077bbd50abcf5846de1b1f1eee93160ac33ee145565bacfcbaf19",
    "fig12": "ae01caa15204ea1a0ad963d9af197108eddeacbbecee63468ee5de4373220b3b",
    "bie-circle": "4ef1f7cb7ed6f0550f86b561865850e477558ad20c3794dbe9fee8e8cba9283e",
    "bie-confocal": "92e5f75b0d74e051c20241df69ea24d0435a53ff6aa9ef21123a6bfe1acf9c96",
}


class TestNormalize:
    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_stable_under_renormalization(self, name):
        command = PRESETS[name].command
        once = runconfig.normalize(command, PRESETS[name].config)
        assert runconfig.normalize(command, once) == once
        assert output.config_hash(once) == PRESET_CONFIG_HASHES[name]

    def test_geometry_variants(self):
        geo, stack = runconfig.normalize_geometry({"R": 0.9, "xi": [0.5, 0.25]})
        assert geo == {"R": 0.9, "xi": [0.5, 0.25]} and stack.xi == (0.5, 0.25)
        geo, stack = runconfig.normalize_geometry({"R": 0.9, "semimajor": [1.6, 1.4, 1.2, 1.0]})
        assert stack.N == 4 and geo == {"R": 0.9, "xi": list(stack.xi)}
        np.testing.assert_allclose(0.9 * np.cosh(stack.xi_array), [1.6, 1.4, 1.2, 1.0], rtol=1e-15)


#: per option that names a config key: (its arguments, the value they put
#: at the key); each differs from the value in the command's base preset
OPTION_VALUES = {
    "--n": (["2"], 2),
    "--sigma0": (["2.5"], 2.5),
    "--span-points": (["10"], 10),
    "--mode-rank": (["2"], [2]),
    "--parity": (["odd"], ["odd"]),
    "--gradient": ([], "gradient"),
    "--delta": (["1e-4"], 1e-4),
    "--layers": (["3"], 3),
    "--ratio": (["0.5"], 0.5),
    "--L": (["1", "2"], [1.0, 2.0]),
    "--nodes": (["16", "32"], [16, 32]),
    "--tol-cross": (["1e-7"], 1e-7),
    "--tol-imag": (["1e-8"], 1e-8),
    "--tol-bound": (["1e-9"], 1e-9),
}
BASE_PRESETS = {"modes": "table1", "charpoly": "fig5", "field": "fig10", "sweep-disk": "fig9",
                "bie-validate": "bie-circle"}
KEYED_OPTIONS = [
    pytest.param(command, flag, key, id=f"{command}{flag}")
    for command, entry in runners.COMMANDS.items()
    for flag, key, _kwargs in entry.options
    if key is not None
]


def _at(cfg, key):
    """The value at a config key; "block.key" names a key inside a block."""
    for name in key.split("."):
        cfg = cfg[name]
    return cfg


class TestOptionTable:
    """Every option in runners.COMMANDS that names a config key puts its
    parsed value there, and the CLI needs no other rule for it."""

    def test_every_keyed_option_has_a_value(self):
        assert {flag for _command, flag, _key in (p.values for p in KEYED_OPTIONS)} == set(OPTION_VALUES)

    @pytest.mark.parametrize("command,flag,key", KEYED_OPTIONS)
    def test_flag_lands_at_its_key(self, command, flag, key):
        argv, value = OPTION_VALUES[flag]
        preset = get_preset(BASE_PRESETS[command])
        default = runconfig.normalize(command, preset.config)
        assert _at(default, key) != value
        args = build_parser().parse_args([command, "--preset", preset.name, flag, *argv])
        cfg = _merge_config(command, args, preset.config)
        assert _at(cfg, key) == value
        normalized = runconfig.normalize(command, cfg)
        assert _at(normalized, key) == value
        assert normalized == default | {key.split(".")[0]: _at(normalized, key.split(".")[0])}

    def test_tolerance_flags_merge_with_config_block(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_MODES, "tolerances": {"imag": 1e-7, "cross": 1e-6}}))
        args = build_parser().parse_args(["modes", "--config", str(path), "--tol-cross", "1e-5",
                                          "--tol-bound", "1e-9"])
        cfg = _merge_config("modes", args, {})
        assert cfg["tolerances"] == {"imag": 1e-7, "cross": 1e-5, "bound": 1e-9}
        assert runconfig.normalize("modes", cfg)["tolerances"] == cfg["tolerances"]

    def test_merge_leaves_preset_block_unchanged(self):
        preset_cfg = {**_MODES, "tolerances": {"imag": 1e-7}}
        args = build_parser().parse_args(["modes", "--tol-cross", "1e-7"])
        assert _merge_config("modes", args, preset_cfg)["tolerances"] == {"imag": 1e-7, "cross": 1e-7}
        assert preset_cfg["tolerances"] == {"imag": 1e-7}

    def test_unknown_parity_is_a_usage_error(self, capsys):
        assert main(["field", "--preset", "fig12", "--parity", "foo"]) == 1
        assert "invalid choice: 'foo' (choose from 'even', 'odd', 'both')" in capsys.readouterr().err

    def test_help_lists_parities(self, capsys):
        assert main(["field", "--help"]) == 0
        assert "--parity {even,odd,both}" in capsys.readouterr().out


class TestCharpolyCommand:
    def test_coefficients_and_span(self, tmp_path):
        out = tmp_path / "cp"
        assert main(["charpoly", "--xi", "2", "1", "--n", "1", "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "coefficients.csv")
        assert header == ["sign", "k", "c_k"]
        assert len(rows) == 6  # two signs x (N + 1) coefficients
        meta, header, rows = read_csv(out / "span.csv")
        assert header == ["lambda", "f_plus", "f_minus"]
        assert len(rows) == 1000
        assert any("span-max-abs-plus" in line for line in meta)

    @pytest.mark.parametrize("xi", [(2.0, 1.0), (1.4, 1.0, 0.7, 0.4)])
    def test_span_rows_hold_both_values_at_their_lambda(self, tmp_path, xi):
        """Each span.csv row holds f_plus and f_minus at that row's lambda, on
        one grid from the lowest to the highest root of either polynomial."""
        out = tmp_path / "cp"
        argv = ["charpoly", "--xi", *map(str, xi), "--n", "1", "--span-points", "50", "--out", str(out)]
        assert main(argv) == 0
        polys = charpoly.build_charpoly(LayerStack(R=1.0, xi=xi), 1)
        roots = np.concatenate([poly.roots().real for poly in polys.values()])
        lam, f_plus, f_minus = np.array(read_csv(out / "span.csv")[2], dtype=float).T
        assert (lam[0], lam[-1]) == (roots.min(), roots.max())
        np.testing.assert_array_equal(f_plus, np.polyval(polys[EVEN].coeffs, lam))
        np.testing.assert_array_equal(f_minus, np.polyval(polys[ODD].coeffs, lam))


class TestSweepCommand:
    def test_explicit_flags(self, tmp_path):
        out = tmp_path / "sw"
        code = main(
            ["sweep-disk", "--layers", "1", "--ratio", "0.8", "--n", "2",
             "--L", "1.0", "2.0", "--out", str(out)]
        )
        assert code == 0
        meta, header, rows = read_csv(out / "sweep.csv")
        assert header == ["L", "gap"]
        gaps = [float(r[1]) for r in rows]
        assert abs(gaps[0] - math.exp(-4.0)) < 1e-12
        assert abs(gaps[1] - math.exp(-8.0)) < 1e-12
        assert any("gap-norm: euclidean" in line for line in meta)

    def test_underflowed_gap_has_no_slope(self, tmp_path):
        """Gaps of exp(-800) underflow to 0, whose logarithm is -inf; the
        slope is then left out as for a single L, and the JSON stays valid."""
        out = tmp_path / "sw"
        argv = ["sweep-disk", "--layers", "1", "--ratio", "0.5", "--n", "1", "--L", "400", "401"]
        assert main([*argv, "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads((out / "sweep.json").read_text(), parse_constant=reject)["payload"]
        assert payload["gap"] == [0.0, 0.0]
        assert payload["log_gap_slope_vs_min_xi"] is None
        meta, _, _ = read_csv(out / "sweep.csv")
        assert "# log-gap-slope-vs-min-xi: null" in meta

    def test_single_scale_slope_is_null(self, tmp_path):
        """One L fits no slope: the CSV header says null, as the JSON does."""
        out = tmp_path / "sw"
        assert main(["sweep-disk", "--layers", "1", "--ratio", "0.8", "--n", "1", "--L", "1", "--out", str(out)]) == 0
        assert json.loads((out / "sweep.json").read_text())["payload"]["log_gap_slope_vs_min_xi"] is None
        meta, _, _ = read_csv(out / "sweep.csv")
        assert "# log-gap-slope-vs-min-xi: null" in meta

    def test_enumeration_cap_exit_code(self, tmp_path, capsys):
        """The cap binds only the charpoly command: mode sweeps never build
        the polynomial."""
        code = main(
            ["sweep-disk", "--layers", "25", "--ratio", "0.8", "--n", "1", "--L", "1",
             "--out", str(tmp_path / "sweep")]
        )
        assert code == 0
        xi = [str(25.0 * 0.8**k) for k in range(25)]
        assert main(["charpoly", "--xi", *xi, "--n", "1", "--out", str(tmp_path / "cp")]) == 1
        assert "error: N=25 exceeds the enumeration cap 24" in capsys.readouterr().err


class TestFieldCommand:
    def test_restricted_grids(self, tmp_path):
        out = tmp_path / "f"
        code = main(
            ["field", "--preset", "fig12", "--mode-rank", "1", "--parity", "even",
             "--out", str(out)]
        )
        assert code == 0
        files = {p.name for p in out.iterdir()}
        assert files == {"field_even_r1.csv", "field_even_r1.json", "field_summary.json"}
        sidecar = json.loads((out / "field_even_r1.json").read_text())
        assert "interfaces" in sidecar["payload"]
        assert len(sidecar["payload"]["interfaces"]) == 3
        assert sidecar["payload"]["normalization"] > 0

    def test_gradient_header(self, tmp_path):
        out = tmp_path / "g"
        code = main(
            ["field", "--preset", "fig12", "--mode-rank", "1", "--parity", "odd",
             "--gradient", "--out", str(out)]
        )
        assert code == 0
        _, header, _ = read_csv(out / "field_odd_r1.csv")
        assert header == ["x1", "x2", "gradmag"]

    def test_resonance_singular_exit_code(self, tmp_path, capsys):
        code = main(
            ["field", "--preset", "fig12", "--mode-rank", "1", "--parity", "even",
             "--delta", "0", "--out", str(tmp_path)]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("resonance-singular solve: ")

    def test_residual_exit_code(self, tmp_path, capsys, monkeypatch):
        """A density solve whose residual exceeds RESIDUAL_TOL exits as a
        resonance-singular one does."""
        solve = np.linalg.solve
        monkeypatch.setattr(field.np.linalg, "solve", lambda M, rhs: solve(M, rhs) * (1 + 1e-6))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_FIELD))
        assert main(["field", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "resonance-singular solve: order-1 even solve residual 1.000e-06 exceeds 1.0e-10\n"
        )

    @pytest.mark.parametrize("quantity", ["potential", "gradient"])
    @pytest.mark.parametrize("xi,n,n_xi", [([6, 5, 4], 120, "720"), ([13, 12.5, 12], 60, "780")])
    def test_overflowing_field_exit_code(self, tmp_path, capsys, quantity, xi, n, n_xi):
        """sinh(n xi_1) overflows in the density solve's right-hand side: no
        grid of zeros or nan is written, and the run names the failure."""
        cfg = {"geometry": {"R": 1, "xi": xi}, "n": n, "delta": 1e-5, "bbox": [-3, 3, -3, 3],
               "resolution": [5, 5], "quantity": quantity}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["field", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unrepresentable field: the order-{n} even field overflows" in err
        assert f"n*xi reaches {n_xi} " in err
        assert not out.exists()


class TestBieCommand:
    def test_circle_report(self, tmp_path):
        out = tmp_path / "bie"
        assert main(["bie-validate", "--preset", "bie-circle", "--out", str(out)]) == 0
        doc = json.loads((out / "bie_report.json").read_text())
        payload = doc["payload"]
        assert payload["circle"]["eig_half_err"] < 1e-12
        assert payload["monotone_calderon"] in (True, False)

    def test_one_scale_list_is_a_circle(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"curves": {"type": "polar", "scale": [1.3]}, "nodes": [32]}))
        out = tmp_path / "bie"
        assert main(["bie-validate", "--config", str(path), "--out", str(out)]) == 0
        circle = json.loads((out / "bie_report.json").read_text())["payload"]["circle"]
        assert circle["radius"] == 1.3
        assert circle["eig_half_err"] < 1e-12

    def test_zero_coefficients_are_a_circle(self):
        # zero cosine coefficients build the coefficient-free curves, so the
        # report is the same, circle section included
        circle = {"type": "polar", "scale": 1.3}
        reports = [runners.run_bie(runconfig.normalize("bie-validate", {"curves": curves, "nodes": [16, 32]}))
                   for curves in (circle, {**circle, "coeffs": [0.0, 0.0]})]
        for report in reports:
            del report["curves"]
        assert "circle" in reports[0]
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("values,expected", [
        ([1e-3, 1e-6, 1e-9], True),
        ([1e-3, 2e-3], False),
        # a plateau below the 1e-13 roundoff floor counts as converged
        ([5e-14, 8e-14], True),
        ([1e-12, 2e-12], False),
        ([math.nan, 1e-9], False),
        ([1e-3, math.nan, 1e-9], False),
        ([1e-3, math.nan], False),
        # one value has no pair to compare, but a NaN residual is still no convergence
        ([math.nan], False),
        ([1e-3], True),
    ])
    def test_monotone_decreasing(self, values, expected):
        assert runners._monotone_decreasing(values) is expected

    def test_non_invariant_harmonics_refused(self, tmp_path, capsys, monkeypatch):
        """Nested curves r = s (1 + 0.005 cos 2 theta) in place of the
        confocal ellipses: their K* mixes harmonics, so the mode check has
        no exact matrix representation to compare and the run exits 2."""
        monkeypatch.setattr(bie, "curves_from_spec", lambda spec, M: [
            bie.DiscretizedCurve.polar((0.0, 0.005), s, M) for s in (1.0, 0.8, 0.6)])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"curves": {"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]},
                                    "nodes": [32, 64], "match_orders": 3}))
        out = tmp_path / "o"
        assert main(["bie-validate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the largest residual is named, order 1's (1.38e-3 against 1.21e-3 at order 3)
        assert re.fullmatch(r"cross-validation failure: order-1 (even|odd) harmonics are not invariant under the "
                            r"64-node K\*: residual \d\.\d{3}e-03 exceeds 1\.0e-12\n", err), err
        assert not out.exists()

    def test_bad_nodes(self, tmp_path):
        code = main(
            ["bie-validate", "--preset", "bie-circle", "--nodes", "33", "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize("xi,quantity", [
        ([1e-300], "curvatures"),
        ([800, 0.5], "node positions"),
    ], ids=["speed-cubed-underflows", "cosh-overflows"])
    def test_unrepresentable_curve_refused(self, tmp_path, capsys, xi, quantity):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"curves": {"type": "confocal", "R": 1, "xi": xi}, "nodes": [16]}))
        assert main(["bie-validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {quantity} of the 16-node curve are not finite in float64\n"

    def test_large_curve_self_adjointness_is_finite(self, tmp_path):
        """Node weights of about cosh(200) would overflow the form matrix's
        squared norms and give a NaN residual."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"curves": {"type": "confocal", "R": 1, "xi": [200, 0.5]}, "nodes": [16]}))
        out = tmp_path / "o"
        assert main(["bie-validate", "--config", str(path), "--out", str(out)]) == 0
        [residual] = json.loads((out / "bie_report.json").read_text())["payload"]["self_adjointness_residual"]
        assert residual < 1e-12

    @pytest.mark.parametrize("xi", [[354, 353.5], [355, 354.5]])
    def test_curve_past_coordinate_limit_refused(self, tmp_path, capsys, xi):
        """From node coordinates of 2^509 on (xi >= 353.505 at R = 1) the
        kernels' 2 pi |x - y|^2 overflows: K* entries would fall to 0 and the
        residuals to NaN or a wrong finite value."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"curves": {"type": "confocal", "R": 1, "xi": xi}, "nodes": [16]}))
        out = tmp_path / "o"
        assert main(["bie-validate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: node positions of the 16-node curve reach 2^509, where its kernels overflow float64\n"
        )
        assert not out.exists()

    def test_curve_below_coordinate_limit_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"curves": {"type": "confocal", "R": 1, "xi": [353.5, 353]}, "nodes": [16]}))
        out = tmp_path / "o"
        assert main(["bie-validate", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "bie_report.json").read_text())["payload"]
        for key in ("calderon_residual", "self_adjointness_residual", "spectral_bound_excess"):
            assert all(map(math.isfinite, payload[key])), key

    @pytest.mark.parametrize("command,cfg,message", REJECTED_CONFIGS)
    def test_config_rejected(self, tmp_path, capsys, command, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert message in err


class TestPayloadFormatting:
    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "fmt"
        main(["modes", "--xi", "1", "--n", "1", "--out", str(out)])
        _, _, rows = read_csv(out / "modes.csv")
        # 0.5 * exp(-2) printed with 17 significant digits
        assert rows[0][2] == "{:.17g}".format(0.5 * math.exp(-2.0))


DRUDE_CONFIG = {
    "geometry": {"R": 1.0, "xi": [1.0, 0.5]},
    "n": 1,
    "drude": {"sigma_prime": 9e-12, "omega_p": 2e15},
}


class TestDrudeColumn:
    def test_omega_populated_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DRUDE_CONFIG))
        out = tmp_path / "o"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "modes.csv")
        omegas = [r[4] for r in rows]
        assert all(o and float(o) > 0 for o in omegas)

    def test_mode_without_sigma1_leaves_omega_blank(self, tmp_path):
        """A mode at lambda = 1/2 has no finite sigma1 and so no real lossless
        Drude frequency: its sigma1 and omega cells are empty and null in the
        JSON, while the mode at -1/2 keeps sigma1 = 0 and omega = omega_p."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**DRUDE_CONFIG, "geometry": {"R": 1.0, "xi": [1e-17]}}))
        out = tmp_path / "o"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "modes.csv").read_text().splitlines()[-2:] == [
            "even,1,0.5,,",
            "odd,1,-0.5,0,2000000000000000",
        ]
        payload = json.loads((out / "modes.json").read_text())["payload"]
        assert payload["even"] == [{"rank": 1, "lambda": 0.5, "sigma1": None, "omega": None}]
        assert payload["odd"] == [{"rank": 1, "lambda": -0.5, "sigma1": 0.0, "omega": 2e15}]

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        def frequency(sigma1, **drude):
            raise ZeroDivisionError("not a contrast problem")

        monkeypatch.setattr(runners, "resonant_frequency", frequency)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DRUDE_CONFIG))
        with pytest.raises(ZeroDivisionError):
            main(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")])


FIELD_CONFIG = {
    "geometry": {"R": 1.0, "xi": [1.0]},
    "n": 1,
    "bbox": [-2.0, 3.0, -1.0, 1.0],
    "resolution": [3, 2],
    "ranks": [1],
    "parities": ["even"],
}

#: (argv, file, full text) of each CSV the commands write for small configs;
#: "{field}" stands for a config file holding FIELD_CONFIG
CSV_TEXTS = [
    (
        ["modes", "--xi", "2", "1", "--n", "1"],
        "modes.csv",
        "# plasmonstack 0.1.0\n"
        "# config-sha256: 31e592117e92a889432eba09b1eaf13f91e48d5a1505ed88d5725eb85de4f71e\n"
        "# tolerances: bound=1e-10 cross=1e-08 imag=1.0000000000000001e-09\n"
        "parity,rank,lambda,sigma1,omega\n"
        "even,1,0.15699672147462607,-1.9154240283042199,\n"
        "even,2,-0.21550654364856542,-0.39761125719511087,\n"
        "odd,1,0.21550654364856542,-2.5150193358567119,\n"
        "odd,2,-0.15699672147462607,-0.52207761060893076,\n",
    ),
    (
        ["charpoly", "--xi", "2", "1", "--n", "1", "--span-points", "3"],
        "coefficients.csv",
        "# plasmonstack 0.1.0\n"
        "# config-sha256: eb8f3e832a18fa592f1275daf51332c51b3384c1e04e112db16ad8ab37901f17\n"
        "sign,k,c_k\n"
        "+,0,1\n"
        "+,1,0.058509822173939262\n"
        "+,2,-0.033833820809153176\n"
        "-,0,1\n"
        "-,1,-0.058509822173939262\n"
        "-,2,-0.033833820809153176\n",
    ),
    (
        ["charpoly", "--xi", "2", "1", "--n", "1", "--span-points", "3"],
        "span.csv",
        "# plasmonstack 0.1.0\n"
        "# config-sha256: eb8f3e832a18fa592f1275daf51332c51b3384c1e04e112db16ad8ab37901f17\n"
        "# span-max-abs-plus: 0.033833820809153176\n"
        "# span-max-abs-minus: 0.033833820809153176\n"
        "lambda,f_plus,f_minus\n"
        "-0.21550654364856536,-6.9388939039072284e-18,0.025218499092395666\n"
        "0,-0.033833820809153176,-0.033833820809153176\n"
        "0.21550654364856536,0.025218499092395666,-6.9388939039072284e-18\n",
    ),
    (
        ["sweep-disk", "--layers", "1", "--ratio", "0.8", "--n", "2", "--L", "1.0", "2.0"],
        "sweep.csv",
        "# plasmonstack 0.1.0\n"
        "# config-sha256: 46753519a7aa39921fcc92372525dc6acc50a633b01b68e7c09e52dde35dd990\n"
        "# tolerances: bound=1e-10 cross=1e-08 imag=1.0000000000000001e-09\n"
        "# gap-norm: euclidean\n"
        "# log-gap-slope-vs-min-xi: -3.9999999999999982\n"
        "L,gap\n"
        "1,0.018315638888734179\n"
        "2,0.00033546262790251185\n",
    ),
    (
        ["field", "--config", "{field}"],
        "field_even_r1.csv",
        "# plasmonstack 0.1.0\n"
        "# config-sha256: 103c5a50a2a11eabb581d66b3deedd5123264205620acdcfbf308fb872655c54\n"
        "# tolerances: bound=1e-10 cross=1e-08 imag=1.0000000000000001e-09\n"
        "x1,x2,re,im\n"
        "-2,-1,0,-36466.732218283971\n"
        "-2,1,0,-36466.732218283963\n"
        "0.5,-1,0,21616.617919084652\n"
        "0.5,1,0,21616.617919084681\n"
        "3,-1,0,27606.540320473865\n"
        "3,1,0,27606.540320473861\n",
    ),
    (
        ["field", "--config", "{field}", "--gradient"],
        "field_even_r1.csv",
        "# plasmonstack 0.1.0\n"
        "# config-sha256: 4a72b8bd7a70dec315c73af20ad5f34e6fd5f09506709d430f8ba4efcfbea12d\n"
        "# tolerances: bound=1e-10 cross=1e-08 imag=1.0000000000000001e-09\n"
        "x1,x2,gradmag\n"
        "-2,-1,0.45634600136272097\n"
        "-2,1,0.45634600136272097\n"
        "0.5,-1,1\n"
        "0.5,1,1\n"
        "3,-1,0.22288915679325655\n"
        "3,1,0.22288915679325655\n",
    ),
]


class TestCsvText:
    """Pins every byte of each CSV kind: metadata header, mixed str/int/float
    columns, a blank omega column, and both field layouts in x1-major order.
    The texts are those the earlier row-by-row writer produced, except the
    modes values, which are the eigenvalue route's; their last digits are
    float64 results of this numpy/LAPACK build."""

    @pytest.mark.parametrize(
        "argv,name,text", CSV_TEXTS,
        ids=["modes", "coefficients", "span", "sweep", "field-potential", "field-gradient"],
    )
    def test_full_text(self, tmp_path, argv, name, text):
        field_cfg = tmp_path / "field.json"
        field_cfg.write_text(json.dumps(FIELD_CONFIG))
        argv = [a.replace("{field}", str(field_cfg)) for a in argv]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / name).read_text() == text

    def test_modes_text_at_roundoff(self):
        """The pinned modes.csv values sit within 2 ulp of the 60-digit roots.
        So did the companion-route values pinned before them, which were
        closer on this two-layer stack (0.4-1.3 ulp against 1.6-1.8 ulp):
        here both routes are at roundoff.  On the paper's tables the
        eigenvalue route is the closer one (see test_spectrum)."""
        pytest.importorskip("mpmath")
        rows = [line.split(",") for line in CSV_TEXTS[0][2].splitlines()[4:]]
        companion = {"even": [0.15699672147462615, -0.21550654364856536],
                     "odd": [0.21550654364856536, -0.15699672147462615]}
        stack = LayerStack(R=1.0, xi=(2.0, 1.0))
        for parity, old in companion.items():
            new = [float(r[2]) for r in rows if r[0] == parity]
            for value, old_value, root in zip(new, old, precise_roots(stack, 1, parity, new)):
                assert abs(value - root) <= 2 * np.spacing(abs(value))
                assert abs(old_value - root) <= 2 * np.spacing(abs(old_value))

    def test_writer_columns(self, tmp_path):
        from plasmonstack.output import write_csv

        path = tmp_path / "t.csv"
        write_csv(
            path,
            {"s": ["a", "b"], "i": np.array([1, -2]), "f": np.array([0.1, -0.0]), "o": [None, 1 / 3]},
            {},
        )
        assert path.read_text().splitlines()[2:] == [
            "s,i,f,o",
            "a,1,0.10000000000000001,",
            "b,-2,-0,0.33333333333333331",
        ]


#: (command, preset or config) of one fast run per command
PAYLOAD_RUNS = [
    ("modes", "table1"),
    ("charpoly", "fig5"),
    ("sweep-disk", "fig9"),
    ("field", FIELD_CONFIG),
    ("bie-validate", "bie-circle"),
]


class TestPayloadFile:
    """The CLI writes each command's payload to the file its runners.COMMANDS
    entry declares."""

    def test_one_run_per_command(self):
        assert sorted(command for command, _source in PAYLOAD_RUNS) == sorted(runners.COMMANDS)

    @pytest.mark.parametrize("command,source", PAYLOAD_RUNS, ids=[command for command, _ in PAYLOAD_RUNS])
    def test_payload_file_holds_the_payload(self, tmp_path, monkeypatch, command, source):
        returned = []
        original = runners.run

        def run(*args):
            returned.append(original(*args))
            return returned[-1]

        monkeypatch.setattr(runners, "run", run)
        if isinstance(source, str):
            argv = ["--preset", source]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(source))
            argv = ["--config", str(path)]
        out = tmp_path / "o"
        assert main([command, *argv, "--out", str(out)]) == 0
        [(payload, _grids)] = returned
        doc = json.loads((out / runners.COMMANDS[command].payload_file).read_text())
        assert doc["payload"] == output.jsonable(payload)


class TestOutputHelpers:
    def test_config_hash_deterministic(self):
        from plasmonstack.output import config_hash

        a = {"x": 1.0, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1.0}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"x": 1.0, "y": [2, 1]})

    def test_jsonable_complex_and_arrays(self):
        from plasmonstack.output import jsonable

        doc = jsonable({"z": 1 + 2j, "arr": np.array([1.5, 2.5]), "n": np.int64(3)})
        assert doc == {"z": {"re": 1.0, "im": 2.0}, "arr": [1.5, 2.5], "n": 3}


#: bie-validate configs of the work-count tests; the mode check projects
#: the finest K* of the refinement
BIE_CONFIGS = {
    "bie-circle": PRESETS["bie-circle"].config,
    "bie-confocal": PRESETS["bie-confocal"].config,
    "match-finest": {"curves": {"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]},
                     "nodes": [64, 128], "match_orders": 2},
}


def _count_calls(monkeypatch, module, name):
    """Rebind module.name to a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWorkCounts:
    def test_coefficients_enumerated_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, charpoly, "_alternating_exponent_sums")
        cfg = runconfig.normalize("charpoly", PRESETS["fig5"].config)
        runners.run_charpoly(cfg)
        assert len(calls) == 1
        # modes certifies with the O(N) Sturm count and never enumerates
        spectrum.modes(runners._stack(cfg), cfg["n"])
        assert len(calls) == 1

    @pytest.mark.parametrize("config", BIE_CONFIGS.values(), ids=BIE_CONFIGS.keys())
    def test_bie_assembles_once_per_node_count(self, monkeypatch, config):
        np_calls = _count_calls(monkeypatch, bie, "assemble_block_np")
        s_calls = _count_calls(monkeypatch, bie, "assemble_block_s")
        cfg = runconfig.normalize("bie-validate", config)
        runners.run_bie(cfg)
        # one K* and one S per node count, which the circle and mode checks reuse
        assert len(np_calls) == len(cfg["nodes"])
        assert len(s_calls) == len(cfg["nodes"])

    @pytest.mark.parametrize("config", BIE_CONFIGS.values(), ids=BIE_CONFIGS.keys())
    def test_bie_spectra_take_one_route(self, monkeypatch, config):
        calls = _count_calls(monkeypatch, bie, "block_np_eigenvalues")
        cfg = runconfig.normalize("bie-validate", config)
        report = runners.run_bie(cfg)
        # the bound excess per node count, plus the circle check; the mode
        # check projects K* onto harmonics and solves no block
        assert len(calls) == len(cfg["nodes"]) + ("circle" in report)

    def test_field_maps_coordinates_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, field, "cartesian_to_elliptic")
        cfg = runconfig.normalize(
            "field", {**FIELD_CONFIG, "geometry": {"R": 1.0, "xi": [1.0, 0.6]},
                      "ranks": [1, 2], "parities": ["even", "odd"]},
        )
        _payload, grids = runners.run_field(cfg)
        assert len(grids) == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("evaluate,fields", [
        pytest.param(lambda stack, lam: field.perturbed_gradient(
            stack, lam, BackgroundField.single(2, EVEN), EllipticPoint(xi=0.0, eta=0.0)), 1, id="gradient-at-focus"),
        pytest.param(lambda stack, lam: field.perturbed_potential(
            stack, lam, BackgroundField(((1, 1.0, 0.0), (3, 0.0, 1.0))), EllipticPoint(xi=0.3, eta=0.4)),
            1, id="two-term-background"),
        # the grid holds both foci (+-1, 0), where the gradient takes its limit
        pytest.param(lambda stack, lam: field.field_grid(
            stack, [(lam, BackgroundField.single(1, EVEN)), (lam, BackgroundField(((2, 1.0, 1.0),)))],
            (-2.0, 2.0, -1.0, 1.0), (5, 3), quantity="gradient"), 2, id="gradient-grid"),
    ])
    def test_field_builds_one_weight_table_per_field(self, monkeypatch, evaluate, fields):
        tables = _count_calls(monkeypatch, field, "_region_weights")
        solves = _count_calls(monkeypatch, field, "solve_densities")
        evaluate(LayerStack(R=1.0, xi=(1.0, 0.6)), 0.17 + 1e-3j)
        assert len(tables) == len(solves) == fields


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(
    _cpus() < 2 or not os.path.isdir("/proc/self/task"),
    reason="needs 2 CPUs and /proc to tell a capped BLAS pool from an uncapped one",
)
def test_thread_cap_reaches_blas():
    # the package is imported before numpy here, as in the installed entry point
    code = (
        "import os, plasmonstack.cli, numpy as np; a = np.ones((400, 400)); a @ a; "
        "print(len(os.listdir('/proc/self/task')))"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(runners.__file__))
    env.update(PLASMONSTACK_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert int(out.stdout) == 1


def readme_text():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        return fh.read()


class TestReadme:
    """The README's commands and config example stay valid input: each is
    parsed, merged and normalized as the CLI does, but not run.  Its
    ``python`` blocks run, in order, in one namespace."""

    def test_python_blocks_run(self, capsys):
        blocks = re.findall(r"```python\n(.*?)```", readme_text(), flags=re.DOTALL)
        assert len(blocks) >= 2
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert np.isfinite(namespace["u"]) and np.isfinite(namespace["g"]).all()
        grid = namespace["grid"]
        assert grid.values.shape == (201, 201)
        # grids come normalized, with the divisor recorded
        assert np.abs(grid.values.real).max() == 1.0 and grid.normalization > 0

    def test_cli_lines_normalize(self, tmp_path):
        blocks = re.findall(r"```sh\n(.*?)```", readme_text(), flags=re.DOTALL)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("plasmonstack ")]
        assert len(lines) >= 8
        parser = build_parser()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(tmp_path / argv[i])
            args = parser.parse_args(argv)
            preset = get_preset(args.preset) if args.preset else None
            cfg = _merge_config(args.command, args, preset.config if preset else {})
            runconfig.normalize(args.command, cfg)

    def test_modes_config_example_normalizes(self):
        pattern = r"A modes config looks like\s*```json\n(.*?)```"
        [example] = re.findall(pattern, readme_text(), flags=re.DOTALL)
        cfg = runconfig.normalize("modes", json.loads(example))
        assert set(cfg["drude"]) == {"sigma_prime", "omega_p"}
