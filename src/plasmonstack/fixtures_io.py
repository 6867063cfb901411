"""Committed preset fixtures: save, load, and tolerance-aware comparison.

A fixture stores a runner payload verbatim plus the comparison tolerances
used by ``--check``, which its command's entry in
:data:`plasmonstack.runners.COMMANDS` declares.  Comparison walks the
payload recursively and reports every numeric leaf outside rtol/atol of
the stored value and every other leaf that differs in type or value, so
drift is localized, not just detected.
"""

from __future__ import annotations

import json
import math

from . import __version__
from .output import jsonable

#: span values cross zero; compare them absolutely at the span scale
_CHARPOLY_SPAN_ATOL = 1e-9


def save_fixture(path, name, command, payload, tolerances):
    doc = {
        "preset": name,
        "command": command,
        "version": __version__,
        "tolerances": tolerances,
        "payload": jsonable(payload),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_fixture(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _number(value):
    """A JSON number: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(expected, actual, rtol, atol, path, out):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            out.append(f"{path}: structure mismatch")
            return
        for key in expected:
            # span values compare absolutely (they pass through zero)
            sub_atol = _CHARPOLY_SPAN_ATOL if key == "value" and "span" in path else atol
            _walk(expected[key], actual[key], rtol, sub_atol, f"{path}.{key}", out)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            out.append(f"{path}: length mismatch")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _walk(e, a, rtol, atol, f"{path}[{i}]", out)
    elif _number(expected) and _number(actual):
        if not math.isclose(expected, actual, rel_tol=rtol, abs_tol=atol):
            out.append(f"{path}: {actual!r} differs from fixture {expected!r}")
    # any other leaf (bool, string, null, or a type that differs) matches only itself
    elif type(expected) is not type(actual) or expected != actual:
        out.append(f"{path}: {actual!r} != {expected!r}")


def compare_fixture(fixture, payload):
    """Return a list of human-readable mismatch strings (empty = match)."""
    tol = fixture["tolerances"]
    out = []
    _walk(fixture["payload"], jsonable(payload), tol["rtol"], tol["atol"], "payload", out)
    return out
