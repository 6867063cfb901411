"""Workload definitions, one pass of each, and the correctness checks.

Every workload is a closed loop with one caller: each operation starts only
after the previous one returns.  The three CLI workloads call
``plasmonstack.cli.main(argv)`` in-process, one preset per operation;
mode-scan calls the public ``plasmonstack.modes`` once per generated stack.
Passes return raw per-operation results; checks run after the pass, outside
the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from time import perf_counter

import numpy as np

import hostspeed
import plasmonstack
from plasmonstack import cli, fixtures_io, output, runconfig, runners, spectrum
from plasmonstack.errors import CrossValidationError
from plasmonstack.presets import get_preset

FIXTURE_DIR = os.path.join(os.path.dirname(plasmonstack.__file__), "fixtures")

#: the JSON payload each CLI command writes, compared with the preset fixture
PAYLOAD_FILE = {
    "modes": "modes.json",
    "charpoly": "charpoly.json",
    "sweep-disk": "sweep.json",
    "field": "field_summary.json",
    "bie-validate": "bie_report.json",
}

#: (command, preset) per CLI workload
CLI_WORKLOADS = {
    # The paper's N = 15-17 mode tables, polynomial dumps and disk sweep.
    # Nearly all time is the 2^N coefficient enumeration in charpoly, so a
    # faster coefficient build shows here; field and Nystrom code never run.
    "spectra": [
        ("modes", "table1"),
        ("modes", "table2"),
        ("charpoly", "fig5"),
        ("charpoly", "fig8"),
        ("sweep-disk", "fig9"),
    ],
    # Resonant potential and gradient maps: 22 grids, 630k CSV rows for
    # fig12 alone.  Time goes to CSV formatting, CLI row building and grid
    # evaluation; charpoly and spectrum cost milliseconds, so a coefficient
    # change must show no effect here.
    "fields": [
        ("field", "fig10"),
        ("field", "fig11-analog"),
        ("field", "fig12"),
    ],
    # The Nystrom cross-check: dense block assembly and eigvals, BLAS-bound
    # and the largest working set.  Repeated K*/S assembly shows here.
    "nystrom": [
        ("bie-validate", "bie-circle"),
        ("bie-validate", "bie-confocal"),
    ],
}

# mode-scan: a seeded parameter study over many small stacks.  spectrum,
# npcore and the companion roots are under 1% of every CLI workload, so this
# is the only workload where they are measured; it also catches a change
# that helps large N but slows many small-N calls.  Layer counts cycle
# through 1..MAX_LAYERS (shuffled) so every seed carries the same mix of
# sizes; the rest is drawn uniformly.  Some thin N >= 8 stacks at low order
# are refused with CrossValidationError: that is the program's documented
# robustness boundary and is counted in error_rate, not avoided.
MODE_SCAN_STACKS = 2000
MAX_LAYERS = 12
MAX_ORDER = 8
R_RANGE = (0.5, 2.0)
XI_OUTER_RANGE = (0.3, 3.0)
RATIO_RANGE = (0.6, 0.95)

# independent acceptance check for mode-scan results
BOUND_SLACK = 1e-10
SYMMETRY_TOL = 1e-8
#: the documented refusals are thin stacks with this many layers or more; a
#: refusal of a smaller stack is a wrong output
REFUSAL_MIN_LAYERS = 8

#: host reference blocks timed around each CLI operation, and on mode-scan
#: every MODES_CHUNK inputs (about 0.3 s): about 3% of a pass (hostspeed.py)
CLI_REFERENCE_BLOCKS = 5
MODES_CHUNK = 200
MODES_REFERENCE_BLOCKS = 3

#: field grid files may differ from the recomputed grid by this share of a
#: column's largest magnitude: 15 significant digits pass, 12 do not
GRID_RTOL = 1e-14


def mode_scan_inputs(seed):
    """(LayerStack, n) pairs for mode-scan; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    layers = np.arange(MODE_SCAN_STACKS) % MAX_LAYERS + 1
    rng.shuffle(layers)
    inputs = []
    for N in layers:
        n = int(rng.integers(1, MAX_ORDER + 1))
        R = float(rng.uniform(*R_RANGE))
        xi_outer = float(rng.uniform(*XI_OUTER_RANGE))
        ratio = float(rng.uniform(*RATIO_RANGE))
        stack = plasmonstack.LayerStack(R=R, xi=tuple(xi_outer * ratio**k for k in range(int(N))))
        inputs.append((stack, n))
    return inputs


def cli_pass(presets, out_dir, calibrate):
    """Run each preset through the CLI once.  Returns (latencies, host
    reference timings or None, exit codes).  With ``calibrate`` the host
    reference is timed before each operation and after the last."""
    latencies, codes, refs = [], [], []
    for command, preset in presets:
        argv = [command, "--preset", preset, "--out", os.path.join(out_dir, preset)]
        if calibrate:
            refs.append(hostspeed.reference_seconds(CLI_REFERENCE_BLOCKS))
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            codes.append(cli.main(argv))
            latencies.append(perf_counter() - start)
    if not calibrate:
        return latencies, None, codes
    refs.append(hostspeed.reference_seconds(CLI_REFERENCE_BLOCKS))
    return latencies, refs, codes


def check_cli_pass(presets, out_dir, codes):
    """Returns (indices of failed operations, wrong-output messages).  Every
    preset must exit 0 and write exactly the right files; any problem makes
    the operation failed and its output wrong."""
    failed, wrong = set(), []
    for i, ((command, preset), code) in enumerate(zip(presets, codes)):
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = check_outputs(command, preset, os.path.join(out_dir, preset))
        if problems:
            failed.add(i)
            wrong += [f"{preset}: {problem}" for problem in problems[:3]]
    return failed, wrong


def check_outputs(command, preset, out):
    """Problems with one preset's written files.  The JSON payload must match
    the committed fixture; every other file must hold what the payload, or
    for field grids a recomputation, implies."""
    doc = _load_json(os.path.join(out, PAYLOAD_FILE[command]))
    fixture = fixtures_io.load_fixture(os.path.join(FIXTURE_DIR, f"{preset}.json"))
    mismatches = fixtures_io.compare_fixture(fixture, doc["payload"])
    if mismatches:
        return [f"{PAYLOAD_FILE[command]} drifts from its fixture: {len(mismatches)} mismatches, first {mismatches[0]}"]
    if command == "field":
        expected, problems = _field_files(preset, doc, out)
    else:
        expected, problems = {PAYLOAD_FILE[command]}, []
        for name, (columns, rows) in _csv_rows(command, doc["payload"]).items():
            expected.add(name)
            problems += _check_small_csv(os.path.join(out, name), doc, columns, rows)
    written = set(os.listdir(out))
    if written != expected:
        problems.append(f"files missing {sorted(expected - written)}, unexpected {sorted(written - expected)}")
    return problems


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(command, payload):
    """{file name: (columns, rows)} of the spectra CSVs a payload implies."""
    if command == "modes":
        rows = [
            (parity, r["rank"], r["lambda"], r["sigma1"], r.get("omega"))
            for parity in ("even", "odd")
            for r in payload[parity]
        ]
        return {"modes.csv": (("parity", "rank", "lambda", "sigma1", "omega"), rows)}
    if command == "charpoly":
        coefficients = [
            (sign, k, c)
            for sign, key in (("+", "coeff_plus"), ("-", "coeff_minus"))
            for k, c in enumerate(payload[key])
        ]
        span = payload["span"]
        span_rows = list(zip(span["plus"]["lambda"], span["plus"]["value"], span["minus"]["value"]))
        return {
            "coefficients.csv": (("sign", "k", "c_k"), coefficients),
            "span.csv": (("lambda", "f_plus", "f_minus"), span_rows),
        }
    if command == "sweep-disk":
        return {"sweep.csv": (("L", "gap"), list(zip(payload["L"], payload["gap"])))}
    return {}


def _read_csv_head(fh):
    """Reads the comment lines and the column line of an open CSV."""
    comments = []
    for line in fh:
        if not line.startswith("#"):
            return comments, tuple(line.rstrip("\n").split(","))
        comments.append(line.rstrip("\n"))
    return comments, ()


def _metadata_problems(comments, doc):
    missing = {f"# plasmonstack {doc['version']}", f"# config-sha256: {doc['config_sha256']}"} - set(comments)
    return [f"metadata line {line!r} missing" for line in sorted(missing)]


def _check_small_csv(path, doc, columns, rows):
    """A spectra CSV must hold exactly ``rows``: strings equal, numbers equal
    after parsing (17 significant digits round-trip), None written empty."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        comments, header = _read_csv_head(fh)
        lines = [line.rstrip("\n").split(",") for line in fh]
    name = os.path.basename(path)
    problems = [f"{name}: {p}" for p in _metadata_problems(comments, doc)]
    if header != columns:
        return problems + [f"{name}: columns {header}, expected {columns}"]
    if len(lines) != len(rows):
        return problems + [f"{name}: {len(lines)} rows, expected {len(rows)}"]
    for i, (cells, row) in enumerate(zip(lines, rows)):
        if len(cells) != len(row) or not all(map(_cell_equals, cells, row)):
            return problems + [f"{name}: row {i} is {','.join(cells)!r}, expected {row}"]
    return problems


def _cell_equals(cell, value):
    if value is None:
        return cell == ""
    if isinstance(value, str):
        return cell == value
    try:
        return float(cell) == value
    except ValueError:
        return False


def _field_files(preset, doc, out):
    """Expected file names and problems of a field preset's grids.  The
    grids are recomputed here, outside the timed region, through the public
    normalize and run_field; recomputation is bitwise reproducible.  Each grid
    CSV must hold every grid point, x1-major, equal to the recomputed
    coordinates and values within GRID_RTOL of each column's largest
    magnitude; each sidecar JSON must match the recomputed metadata and
    interface curves."""
    cfg = runconfig.normalize("field", dict(get_preset(preset).config))
    _payload, grids = runners.run_field(cfg)
    expected, problems = {PAYLOAD_FILE["field"]}, []
    for meta, grid in grids:
        stem = f"field_{meta['parity']}_r{meta['rank']}"
        expected |= {stem + ".csv", stem + ".json"}
        csv_path, sidecar_path = os.path.join(out, stem + ".csv"), os.path.join(out, stem + ".json")
        if os.path.exists(csv_path):
            problems += [f"{stem}.csv: {p}" for p in _grid_csv_problems(csv_path, doc, grid)]
        if os.path.exists(sidecar_path):
            sidecar = _load_json(sidecar_path)
            reference = dict(meta, interfaces=[{"x1": list(px), "x2": list(py)} for px, py in grid.interfaces])
            mismatches = fixtures_io.compare_fixture(
                {"payload": output.jsonable(reference), "tolerances": {"rtol": GRID_RTOL, "atol": 0.0}},
                sidecar["payload"],
            )
            if sidecar["config_sha256"] != doc["config_sha256"]:
                mismatches.append("config hash differs from field_summary.json")
            problems += [f"{stem}.json: {m}" for m in mismatches[:1]]
    return expected, problems


def _grid_csv_problems(path, doc, grid):
    if grid.quantity == "potential":
        columns = ("x1", "x2", "re", "im")
        values = [grid.values.real.ravel(), grid.values.imag.ravel()]
    else:
        columns = ("x1", "x2", "gradmag")
        values = [grid.values.ravel()]
    nx, ny = len(grid.x1), len(grid.x2)
    reference = np.column_stack([np.repeat(grid.x1, ny), np.tile(grid.x2, nx), *values])
    with open(path, encoding="utf-8") as fh:
        comments, header = _read_csv_head(fh)
        if header != columns:
            return [f"columns {header}, expected {columns}"]
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"unreadable rows: {exc}"]
    problems = _metadata_problems(comments, doc)
    if data.shape != reference.shape:
        return problems + [f"shape {data.shape}, expected {reference.shape}"]
    scale = np.abs(reference).max(axis=0)
    bad = np.flatnonzero(np.any(~(np.abs(data - reference) <= GRID_RTOL * scale), axis=1))
    if bad.size:
        problems.append(f"{bad.size} rows differ from the recomputed grid, first row {bad[0]}: "
                        f"{data[bad[0]].tolist()}, expected {reference[bad[0]].tolist()}")
    return problems


def modes_pass(inputs, calibrate):
    """Call ``plasmonstack.modes`` on every input.  Returns (latencies, host
    reference timings or None, results); a refused input's result is its
    CrossValidationError.  With ``calibrate`` the host
    reference is timed before every MODES_CHUNK inputs and after the last."""
    latencies, results, refs = [], [], []
    for i, (stack, n) in enumerate(inputs):
        if calibrate and i % MODES_CHUNK == 0:
            refs.append(hostspeed.reference_seconds(MODES_REFERENCE_BLOCKS))
        start = perf_counter()
        try:
            result = plasmonstack.modes(stack, n)
        except CrossValidationError as exc:
            result = exc
        latencies.append(perf_counter() - start)
        results.append(result)
    if not calibrate:
        return latencies, None, results
    refs.append(hostspeed.reference_seconds(MODES_REFERENCE_BLOCKS))
    return latencies, refs, results


def check_modes_pass(inputs, results, refused_before):
    """Returns (indices of failed inputs, wrong-output messages, refused
    input indices).  A refusal is a failure; it is also a wrong output when the
    stack has fewer than REFUSAL_MIN_LAYERS layers, or when ``refused_before``
    (the refusals of an earlier pass, or None) differs.  An accepted mode set
    that fails the check below is a failure and a wrong output: N real values
    per parity, sorted descending, inside [-1/2, 1/2], with even/odd roots
    antisymmetric."""
    failed, wrong, refused = set(), [], []
    for i, ((stack, n), ms) in enumerate(zip(inputs, results)):
        if isinstance(ms, CrossValidationError):
            failed.add(i)
            refused.append(i)
            if stack.N < REFUSAL_MIN_LAYERS:
                wrong.append(f"input {i} (N={stack.N}, n={n}): refused below N={REFUSAL_MIN_LAYERS}: {ms}")
            continue
        even, odd = ms.lambdas("even"), ms.lambdas("odd")
        problem = None
        if len(even) != stack.N or len(odd) != stack.N:
            problem = f"{len(even) + len(odd)} values for N={stack.N}"
        elif not (np.all(np.isfinite(even)) and np.all(np.isfinite(odd))):
            problem = "non-finite value"
        elif np.any(np.diff(even) > 0) or np.any(np.diff(odd) > 0):
            problem = "values not sorted descending"
        elif max(np.abs(even).max(), np.abs(odd).max()) > 0.5 + BOUND_SLACK:
            problem = "value outside the spectral bound"
        elif spectrum.verify_root_symmetry(ms) > SYMMETRY_TOL:
            problem = f"root symmetry defect {spectrum.verify_root_symmetry(ms):.3e}"
        if problem:
            failed.add(i)
            wrong.append(f"input {i} (N={stack.N}, n={n}): {problem}")
    if refused_before is not None and refused != refused_before:
        changed = sorted(set(refused) ^ set(refused_before))
        wrong.append(f"inputs {changed[:10]} refused in one pass and accepted in another")
    return failed, wrong, refused
