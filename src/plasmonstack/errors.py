"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and geometry problems
exit 1, cross-validation failures and fields that overflow floating point
exit 2, singular resonance solves exit 3.
"""


class PlasmonstackError(Exception):
    """Base class for all package errors."""


class GeometryError(PlasmonstackError, ValueError):
    """Invalid or singular geometry (bad radii, a gradient at a focus taken
    with a region formula other than the core's)."""


class ContrastError(PlasmonstackError, ValueError):
    """Material contrast is singular (lambda == 1/2, or no real Drude
    frequency exists for the requested conductivity)."""


class CombinatorialCapError(PlasmonstackError, ValueError):
    """Layer count exceeds the cap for exhaustive coefficient enumeration
    (2**N terms), :data:`plasmonstack.charpoly.ENUMERATION_CAP`.  Only the
    ``charpoly`` command builds the coefficients; mode computation does not,
    so the cap does not limit it."""


class CrossValidationError(PlasmonstackError, RuntimeError):
    """Two independent computation routes disagree beyond tolerance, or a
    quantity that must be real carries a too-large imaginary part."""


class ResonanceError(PlasmonstackError, RuntimeError):
    """Density solve requested at (or numerically indistinguishable from) a
    resonance; the message names the offending Fourier order and parity."""


class RegionError(PlasmonstackError, ValueError):
    """Evaluation point lies on an interface and no side was specified."""


class CurveError(PlasmonstackError, ValueError):
    """Degenerate discretized curve or invalid nesting of a curve stack."""


class ConfigError(PlasmonstackError, ValueError):
    """Malformed run configuration (unknown keys, wrong types, bad values)."""


class FieldOverflowError(PlasmonstackError, ArithmeticError):
    """A field value overflows floating point (cosh(n xi) does above n xi ~ 710)."""
