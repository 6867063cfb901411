"""CSV/JSON writers with reproducibility metadata headers.

Every payload carries the package version, a sha256 hash of the canonical
run configuration, and the gate tolerances in force (the config's
``tolerances`` block, which every command that gates mode sets has), so a
CSV can be audited bit-for-bit against a recomputation with the same
build.  Payload floats use 17 significant digits ('.' decimal, no locale);
the 4-decimal table-reproduction format is applied only by the CLI's table
printer.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__

PAYLOAD_FMT = "{:.17g}"


def canonical_json(obj):
    """Deterministic JSON encoding used for hashing and sidecars."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def metadata_lines(config, extra=None):
    lines = [
        f"# plasmonstack {__version__}",
        f"# config-sha256: {config_hash(config)}",
    ]
    tolerances = config.get("tolerances")
    if tolerances:
        tol = " ".join(f"{k}={PAYLOAD_FMT.format(v)}" for k, v in sorted(tolerances.items()))
        lines.append(f"# tolerances: {tol}")
    if extra:
        for k, v in extra.items():
            lines.append(f"# {k}: {'null' if v is None else v}")  # None as in the JSON
    return lines


def _column(values):
    """(format field, cells) of one CSV column, with the format picked once
    from the column's dtype: floats take PAYLOAD_FMT, None cells (a float
    column with gaps) are blank, anything else is written with str()."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return PAYLOAD_FMT, values.tolist()
    if values.dtype.kind == "O":
        return "{}", ["" if v is None else PAYLOAD_FMT.format(v) for v in values.tolist()]
    return "{}", values.tolist()


def write_csv(path, columns, config, extra=None):
    """Write a CSV payload with a commented metadata header.  ``columns``
    maps each column name to its values (a sequence or array); rows are
    streamed from the columns in order."""
    fields, cells = zip(*map(_column, columns.values()))
    row = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in metadata_lines(config, extra):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(row.format, *cells))


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex values for json."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path, payload, config):
    """Write a JSON payload wrapped with the same metadata as the CSVs."""
    doc = {
        "version": __version__,
        "config_sha256": config_hash(config),
        "config": jsonable(config),
    }
    if config.get("tolerances"):
        doc["tolerances"] = jsonable(config["tolerances"])
    doc["payload"] = jsonable(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
