"""The gate that every numeric check goes through: its pass rule, and its
table of error classes, which decides each check's exit code."""

import math

import pytest

from plasmonstack.errors import _GATES, CrossValidationError, ResonanceError, gate


def test_table_keeps_each_checks_class():
    assert {name: (cls.__name__, cls.exit_code, cls.prefix) for name, cls in _GATES.items()} == {
        "imag": ("CrossValidationError", 2, "cross-validation failure"),
        "bound": ("CrossValidationError", 2, "cross-validation failure"),
        "cross": ("CrossValidationError", 2, "cross-validation failure"),
        "invariance": ("CrossValidationError", 2, "cross-validation failure"),
        "condition": ("ResonanceError", 3, "resonance-singular solve"),
        "residual": ("ResonanceError", 3, "resonance-singular solve"),
        "overflow": ("FieldOverflowError", 2, "unrepresentable field"),
    }


@pytest.mark.parametrize("worst,fails", [(0.5, False), (1.0, False), (1.5, True), (math.inf, True), (math.nan, True)],
                         ids=["below", "equal", "above", "inf", "nan"])
def test_gate_passes_only_within_tolerance(worst, fails):
    built = []

    def message():
        built.append(worst)
        return f"worst {worst}"

    if fails:
        with pytest.raises(CrossValidationError, match=f"^worst {worst}$"):
            gate("cross", worst, 1.0, message)
    else:
        gate("cross", worst, 1.0, message)
    assert len(built) == fails  # the text is built only on failure


def test_first_failing_gate_is_raised():
    def checks():
        gate("imag", 0.0, 1e-9, lambda: "passes")
        gate("residual", 1e-6, 1e-10, lambda: "first")
        gate("overflow", 1, 0, lambda: "second")

    with pytest.raises(ResonanceError, match="^first$"):
        checks()
