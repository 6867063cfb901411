import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from plasmonstack import bie, charpoly, field, output, runconfig, runners, spectrum
from plasmonstack.cli import _merge_config, build_parser, main
from plasmonstack.errors import ContrastError
from plasmonstack.geometry import LayerStack
from plasmonstack.presets import PRESETS, get_preset

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

#: (command, config, the key the error must name) of malformed configs
REJECTED_CONFIGS = [
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": 1.0}, "nodes": []}, "nodes",
                 id="empty-nodes"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [], "match_orders": 1}, "nodes",
                 id="empty-nodes-match"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_orders": 0}, "match_orders",
                 id="zero-match-orders"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": 16}, "nodes", id="nodes-not-a-list"),
    pytest.param("field", {**_FIELD, "bbox": 3}, "bbox", id="bbox-not-a-list"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_orders": "x"}, "match_orders",
                 id="match-orders-string"),
    pytest.param("sweep-disk", {"layers": "x", "ratio": 0.8, "n": 1, "L": [1.0]}, "layers", id="layers-string"),
    pytest.param("modes", {**_MODES, "tolerances": {"cross": "x"}}, "cross", id="tolerance-string"),
    pytest.param("modes", {**_MODES, "tolerances": {"cross": math.inf}}, "cross", id="tolerance-infinite"),
    pytest.param("modes", {**_MODES, "drude": {"sigma_prime": "a", "omega_p": 2e15}},
                 "sigma_prime", id="drude-string"),
    pytest.param("modes", {**_MODES, "sigma0": None}, "sigma0", id="sigma0-null"),
    pytest.param("charpoly", {**_MODES, "span_points": 2.9}, "span_points", id="span-points-float"),
    pytest.param("field", {**_FIELD, "normalize": "false"}, "normalize", id="normalize-string"),
    pytest.param("field", {**_FIELD, "parities": 5}, "parities", id="parities-not-a-list"),
    pytest.param("modes", {**_MODES, "geometry": {"R": True, "xi": [1.0]}}, "R", id="R-bool"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_orders": 1, "match_nodes": 7},
                 "match_nodes", id="odd-match-nodes"),
    pytest.param("bie-validate", {"curves": {"type": "polar", "scale": "a"}, "nodes": [16]}, "scale",
                 id="curve-scale-string"),
    pytest.param("bie-validate", {"curves": _CONFOCAL, "nodes": [16], "match_nodes": 16}, "match_nodes",
                 id="match-nodes-without-orders"),
]


class TestModesCommand:
    def test_single_layer_flags(self, tmp_path):
        out = tmp_path / "o"
        assert main(["modes", "--layers", "1", "--xi", "1", "--n", "1", "--out", str(out)]) == 0
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

    def test_layers_contradiction(self, tmp_path):
        assert main(["modes", "--layers", "2", "--xi", "1", "--n", "1", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["--xi", "1.0", "0.5", "--semimajor", "3", "2", "--n", "1"], "--semimajor"),
            (["--preset", "table1", "--layers", "3"], "--layers"),
            (["--config", "{modes}", "--layers", "3"], "--layers"),
            (["--preset", "table1", "--R", "2"], "--R"),
        ],
        ids=["xi-and-semimajor", "preset-layers", "config-layers", "R-without-radii"],
    )
    def test_flags_rejected(self, tmp_path, capsys, argv, key):
        cfg = tmp_path / "modes.json"
        cfg.write_text(json.dumps(_MODES))
        argv = [a.replace("{modes}", str(cfg)) for a in argv]
        assert main(["modes", *argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert key in err

    def test_cross_validation_exit_code(self, tmp_path):
        code = main(
            ["modes", "--preset", "table1", "--tol-cross", "1e-18", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_config_file_and_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"R": 1.0, "xi": [1.0]}, "n": 2}))
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        cfg.write_text(json.dumps({"geometry": {"R": 1.0, "xi": [1.0]}, "n": 2, "bogus": 1}))
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1

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

    def test_check_requires_preset(self):
        assert main(["modes", "--check"]) == 1

    def test_unknown_preset(self, tmp_path):
        assert main(["modes", "--preset", "table9", "--out", str(tmp_path)]) == 1

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
    "fig10": "f3e0f890a46cf52c5a1c9f35fc67754c71e1adcc3c38e2b82656bfaa10f7bae7",
    "fig11-analog": "98d1b30e9b80e4ba22645ae57c2ca268e042d419eadd03c1289c891de0f934dd",
    "fig12": "959bb6c5a4b3d8bca656f3f751c1b364b9dc1e7285e1cde6c7f1a6f99ba2dd37",
    "bie-circle": "4ef1f7cb7ed6f0550f86b561865850e477558ad20c3794dbe9fee8e8cba9283e",
    "bie-confocal": "a1bccdb69ed064810fb00f6a14adfd66fcd616fdca40362ddb8b35605548252e",
}


class TestNormalize:
    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_stable_under_renormalization(self, name):
        command = PRESETS[name].command
        once = runconfig.normalize(command, PRESETS[name].config)
        assert runconfig.normalize(command, once) == once
        assert output.config_hash(once) == PRESET_CONFIG_HASHES[name]


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

    def test_resonance_singular_exit_code(self, tmp_path):
        code = main(
            ["field", "--preset", "fig12", "--mode-rank", "1", "--parity", "even",
             "--delta", "0", "--out", str(tmp_path)]
        )
        assert code == 3


class TestBieCommand:
    def test_circle_report(self, tmp_path):
        out = tmp_path / "bie"
        assert main(["bie-validate", "--preset", "bie-circle", "--out", str(out)]) == 0
        doc = json.loads((out / "bie_report.json").read_text())
        payload = doc["payload"]
        assert payload["circle"]["eig_half_err"] < 1e-12
        assert payload["monotone_calderon"] in (True, False)

    def test_bad_nodes(self, tmp_path):
        code = main(
            ["bie-validate", "--preset", "bie-circle", "--nodes", "33", "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize("command,cfg,key", REJECTED_CONFIGS)
    def test_config_rejected(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert f"{key} must" in err


class TestPayloadFormatting:
    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "fmt"
        main(["modes", "--layers", "1", "--xi", "1", "--n", "1", "--out", str(out)])
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

    def test_contrast_error_leaves_omega_blank(self, tmp_path, monkeypatch):
        """A mode no real lossless Drude frequency realizes gets an empty
        omega cell and a null omega in the JSON; the others keep theirs."""
        real_frequency = runners.resonant_frequency

        def frequency(lam, drude, sigma0):
            if lam < 0:
                raise ContrastError("no real frequency")
            return real_frequency(lam, drude, sigma0)

        monkeypatch.setattr(runners, "resonant_frequency", frequency)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DRUDE_CONFIG))
        out = tmp_path / "o"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "modes.json").read_text())["payload"]
        modes = payload["even"] + payload["odd"]
        _, _, rows = read_csv(out / "modes.csv")
        assert len(rows) == len(modes) == 4
        assert {r["lambda"] < 0 for r in modes} == {True, False}
        for row, mode in zip(rows, modes):
            if mode["lambda"] < 0:
                assert mode["omega"] is None and row[4] == ""
            else:
                assert mode["omega"] > 0 and row[4] == "{:.17g}".format(mode["omega"])

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        def frequency(lam, drude, sigma0):
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
        "# span-max-abs-plus: 0.034689670631859675\n"
        "# span-max-abs-minus: 0.034689670631859675\n"
        "lambda,f_plus,f_minus\n"
        "-0.21550654364856536,-6.9388939039072284e-18,1.3877787807814457e-17\n"
        "-0.029254911086969593,-0.034689670631859675,-0.034689670631859675\n"
        "0.15699672147462615,1.3877787807814457e-17,-6.9388939039072284e-18\n",
    ),
    (
        ["sweep-disk", "--layers", "1", "--ratio", "0.8", "--n", "2", "--L", "1.0", "2.0"],
        "sweep.csv",
        "# plasmonstack 0.1.0\n"
        "# config-sha256: 46753519a7aa39921fcc92372525dc6acc50a633b01b68e7c09e52dde35dd990\n"
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
        "# config-sha256: 78428fde5c37ab66c93051445583360189b88f2d5384c69fce16d636c04e490e\n"
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
        "# config-sha256: 2479042fdedd28f69a6147c7466882729c730318262067b8824795ead07440e8\n"
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

    def test_bie_assembles_once_per_node_count(self, monkeypatch):
        np_calls = _count_calls(monkeypatch, bie, "assemble_block_np")
        s_calls = _count_calls(monkeypatch, bie, "assemble_block_s")
        cfg = runconfig.normalize("bie-validate", PRESETS["bie-confocal"].config)
        runners.run_bie(cfg)
        # one K* and one S per node count, plus the K* of the containment check
        assert len(np_calls) == len(cfg["nodes"]) + 1
        assert len(s_calls) == len(cfg["nodes"])

    def test_field_maps_coordinates_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, field, "cartesian_to_elliptic")
        cfg = runconfig.normalize(
            "field", {**FIELD_CONFIG, "geometry": {"R": 1.0, "xi": [1.0, 0.6]},
                      "ranks": [1, 2], "parities": ["even", "odd"]},
        )
        _payload, grids = runners.run_field(cfg)
        assert len(grids) == 4
        assert len(calls) == 1


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
    parsed, merged and normalized as the CLI does, but not run."""

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
