"""Exception types shared across the package, and :func:`gate`.

Each class declares the CLI's exit code and stderr prefix for it:
configuration and geometry problems exit 1, cross-validation failures and
fields that overflow floating point exit 2, density solves that are
resonance-singular or miss ``field.RESIDUAL_TOL`` exit 3.  The gate table
``_GATES`` alone decides which class, so which exit code, a numeric check raises.
A mode with no finite resonant conductivity or no real Drude frequency is
not an error: :mod:`plasmonstack.materials` returns None for it.
"""


class PlasmonstackError(Exception):
    """Base class for all package errors."""

    #: CLI exit code and stderr prefix; subclasses that fail otherwise override them
    exit_code, prefix = 1, "error"


class GeometryError(PlasmonstackError, ValueError):
    """Invalid or singular geometry (bad radii, a gradient at a focus taken
    with a region formula other than the core's)."""


class CombinatorialCapError(PlasmonstackError, ValueError):
    """Layer count exceeds the cap for exhaustive coefficient enumeration
    (2**N terms), :data:`plasmonstack.charpoly.ENUMERATION_CAP`.  Only the
    ``charpoly`` command builds the coefficients; mode computation does not,
    so the cap does not limit it."""


class CrossValidationError(PlasmonstackError, RuntimeError):
    """Two independent computation routes disagree beyond tolerance, or a
    quantity that must be real carries a too-large imaginary part."""

    exit_code, prefix = 2, "cross-validation failure"


class ResonanceError(PlasmonstackError, RuntimeError):
    """Density solve requested at (or numerically indistinguishable from) a
    resonance; the message names the offending Fourier order and parity."""

    exit_code, prefix = 3, "resonance-singular solve"


class RegionError(PlasmonstackError, ValueError):
    """Evaluation point lies on an interface and no side was specified."""


class CurveError(PlasmonstackError, ValueError):
    """Degenerate discretized curve or invalid nesting of a curve stack."""


class ConfigError(PlasmonstackError, ValueError):
    """Malformed run configuration (unknown keys, wrong types, bad values)."""

    exit_code, prefix = 1, "config error"


class FieldOverflowError(PlasmonstackError, ArithmeticError):
    """A field value overflows floating point (cosh(n xi) does above n xi ~ 710)."""

    exit_code, prefix = 2, "unrepresentable field"


#: Gate name -> error class; the names are those of the ``tolerances``
#: (``imag``, ``bound``, ``cross``), of the Nystrom harmonic projection's
#: ``invariance`` and of the field solve's checks.
_GATES = {"imag": CrossValidationError, "bound": CrossValidationError, "cross": CrossValidationError,
          "invariance": CrossValidationError,
          "condition": ResonanceError, "residual": ResonanceError, "overflow": FieldOverflowError}


def gate(name, worst, tolerance, message):
    """Raise the gate table's class for ``name`` with the text ``message()``
    unless ``worst <= tolerance``, so a NaN fails; the text is built only on failure."""
    if not worst <= tolerance:
        raise _GATES[name](message())
