"""Preset configs pinned for the acceptance suite (thin copies, so the suite
does not depend on the CLI preset table staying unchanged)."""

FIG12_CONFIG = {
    "geometry": {"R": 1.0, "semimajor": [1.0010, 1.00055, 1.0001]},
    "n": 7,
    "delta": 1e-5,
    "quantity": "gradient",
    "bbox": [-1.05, 1.05, -0.05, 0.05],
    "resolution": [1051, 100],
    "ranks": [1, 2, 3],
    "parities": ["even", "odd"],
}
