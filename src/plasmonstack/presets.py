"""Named run configurations reproducing the reference tables, sweeps, and
field plots, each pinned against a committed fixture for drift checks.

Geometry notes:

* ``table1``: 15 equispaced radii xi_i = 16 - i at order 1.
* ``table2``: 16 radii in geometric decay, xi_1 = 16, ratio 0.8, order 2.
* ``fig9``: 17-layer geometric stacks scaled by L; the even/odd splitting
  gap closes as the stack degenerates toward concentric disks.
* ``fig10``: four layers with equidistant semi-major axes 1.6..1.0 at
  R = 0.9, order 6: eight resonant potential maps.
* ``fig11-analog``: eight near-circular layers (elliptic radii 12 + c_k
  with R scaled down so the radii land near 1.2..2.5): the concentric-disk
  picture recovered as the large-radius confocal limit.
* ``fig12``: three thin layers (semi-major 1.0010/1.00055/1.0001 at R = 1)
  at order 7: six gradient-magnitude maps localizing at the vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Preset:
    name: str
    command: str
    config: dict


def _table1_geometry():
    return {"R": 1.0, "xi": [float(16 - i) for i in range(1, 16)]}


def _table2_geometry():
    return {"R": 1.0, "xi": [16.0 * 0.8**i for i in range(16)]}


def _fig11_geometry():
    xi_tilde = 12.0
    shifts = [0.9 - 0.1 * k for k in range(8)]
    return {
        "R": 2.0 * math.exp(-xi_tilde),
        "xi": [xi_tilde + c for c in shifts],
    }


PRESETS = {
    "table1": Preset(
        name="table1",
        command="modes",
        config={"geometry": _table1_geometry(), "n": 1, "sigma0": 1.0},
    ),
    "table2": Preset(
        name="table2",
        command="modes",
        config={"geometry": _table2_geometry(), "n": 2, "sigma0": 1.0},
    ),
    "fig5": Preset(
        name="fig5",
        command="charpoly",
        config={"geometry": _table1_geometry(), "n": 1, "span_points": 1000},
    ),
    "fig8": Preset(
        name="fig8",
        command="charpoly",
        config={"geometry": _table2_geometry(), "n": 2, "span_points": 1000},
    ),
    "fig9": Preset(
        name="fig9",
        command="sweep-disk",
        config={"layers": 17, "ratio": 0.8, "n": 1, "L": [1.0, 2.0, 3.0, 4.0, 5.0]},
    ),
    "fig10": Preset(
        name="fig10",
        command="field",
        config={
            "geometry": {"R": 0.9, "semimajor": [1.6, 1.4, 1.2, 1.0]},
            "n": 6,
            "delta": 1e-5,
            "quantity": "potential",
            "normalize": True,
            "bbox": [-2.0, 2.0, -1.7, 1.7],
            "resolution": [201, 171],
            "ranks": [1, 2, 3, 4],
            "parities": ["even", "odd"],
        },
    ),
    "fig11-analog": Preset(
        name="fig11-analog",
        command="field",
        config={
            "geometry": _fig11_geometry(),
            "n": 6,
            "delta": 1e-5,
            "quantity": "potential",
            "normalize": True,
            "bbox": [-3.0, 3.0, -3.0, 3.0],
            "resolution": [201, 201],
            "ranks": [1, 2, 3, 4, 5, 6, 7, 8],
            "parities": ["even"],
        },
    ),
    "fig12": Preset(
        name="fig12",
        command="field",
        config={
            "geometry": {"R": 1.0, "semimajor": [1.0010, 1.00055, 1.0001]},
            "n": 7,
            "delta": 1e-5,
            "quantity": "gradient",
            "normalize": True,
            # even vertical count keeps the focal segment (x2 = 0) off the grid
            "bbox": [-1.05, 1.05, -0.05, 0.05],
            "resolution": [1051, 100],
            "ranks": [1, 2, 3],
            "parities": ["even", "odd"],
        },
    ),
    "bie-circle": Preset(
        name="bie-circle",
        command="bie-validate",
        config={"curves": {"type": "polar", "coeffs": [], "scale": 1.3}, "nodes": [64, 128, 256]},
    ),
    "bie-confocal": Preset(
        name="bie-confocal",
        command="bie-validate",
        config={
            "curves": {"type": "confocal", "R": 1.0, "xi": [0.6, 0.55, 0.5]},
            "nodes": [128, 256, 512],
            "match_orders": 6,
            "match_nodes": 384,
        },
    ),
}


def get_preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
