"""Exception taxonomy shared across the simulator.

Grouped so the command-line front end can map failures onto exit-code
categories: configuration problems, missing or malformed data files, and
runtime simulation faults.  The value checks that type every config value,
the knobs and the fields of the config dataclasses alike, live here too.
"""

import dataclasses
import math
import numbers


class SimulationError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(SimulationError):
    """Bad or inconsistent configuration (unknown keys, out-of-range values)."""


class DataFormatError(SimulationError):
    """A data file exists but does not parse (bad magic, truncated payload)."""


class DataMissingError(SimulationError):
    """A required data file or directory is absent."""


class DimensionError(SimulationError):
    """Array or vector shapes do not line up with the crossbar geometry."""


class ReadRegimeError(SimulationError):
    """A read was requested outside the non-disturbing voltage window."""


class FormingRequiredError(SimulationError):
    """A write or measurement was attempted on a device never formed."""


class MeasurementError(SimulationError):
    """A characterization sweep terminated without observing the target event."""


class DivergenceError(SimulationError):
    """Training produced a non-finite loss; carries the offending epoch."""

    def __init__(self, msg, *, epoch=None):
        super().__init__(msg)
        self.epoch = epoch


class SingularityError(SimulationError):
    """A computed circuit quantity lost meaning (zero feedback conductance)."""


# ---------------------------------------------------------------------------
# value checks
# ---------------------------------------------------------------------------
# One family types every config value: the knob table and the fields of the
# config dataclasses use the same checks.  Each check returns the typed
# value, or raises ValueError saying what the value must be; its caller
# names the value.  A dataclass field declares its check once, next to the
# field (``checked``), and ``check_fields`` runs them all.


def count(low: int = 1):
    """Check for an integer >= low (a bool is not a count)."""
    def check(value) -> int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError("must be an integer")
        if value < low:
            raise ValueError(f"must be at least {low}")
        return int(value)
    return check


def _finite(value) -> bool:
    """True for a finite real (a bool is not one).  math.isfinite, not a
    compare with the float64 maximum: numpy casts that maximum down to a
    float32 value's type and warns of the overflow."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def real(low: float = -math.inf, high: float = math.inf, *,
         open_low: bool = False, open_high: bool = False):
    """Check for a finite real between low and high, each bound closed
    unless opened; an int beyond the float range is not finite."""
    def check(value) -> float:
        if not _finite(value):
            raise ValueError("must be a finite number")
        if (value < low or value > high or (open_low and value == low)
                or (open_high and value == high)):
            if high == math.inf:
                raise ValueError(f"must be {'>' if open_low else '>='} "
                                 f"{low:g}")
            raise ValueError(f"must lie in {'(' if open_low else '['}"
                             f"{low:g}, {high:g}{')' if open_high else ']'}")
        return float(value)
    return check


FINITE = real()
NONNEG = real(0.0)
POSITIVE = real(0.0, open_low=True)
FRACTION = real(0.0, 1.0)


def boolean(value) -> bool:
    """Check for True or False: a truthy string or a 0/1 is not a switch."""
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def choice(*options):
    """Check for one of ``options``; an enum option is named by its value."""
    def check(value):
        if value not in options:
            names = ", ".join(str(getattr(o, "value", o)) for o in options)
            raise ValueError(f"must be one of: {names}")
        return value
    return check


def optional(item):
    """Check for None, or a value that passes ``item``."""
    def check(value):
        return None if value is None else item(value)
    return check


def list_of(item):
    """Check for a non-empty list whose items pass ``item``."""
    def check(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError("must be a non-empty list")
        out = []
        for v in value:
            try:
                out.append(item(v))
            except ValueError as exc:
                raise ValueError(f"item {v!r} {exc}") from None
        return out
    return check


def checked(default, check):
    """A dataclass field with its default (MISSING for none) and its check."""
    return dataclasses.field(default=default, metadata={"check": check})


def run_check(check, value, name: str):
    """``check(value)``, its ValueError raised as a ConfigError that names
    the value: "<name> must ..., got <value>"."""
    try:
        return check(value)
    except ValueError as exc:
        raise ConfigError(f"{name} {exc}, got {value!r}") from None


def check_fields(obj):
    """Run every declared field check of a config dataclass instance.

    A check only validates here: the value stays as given, since
    dataclasses.asdict of a section feeds the config hash.
    """
    for f in dataclasses.fields(obj):
        check = f.metadata.get("check")
        if check is not None:
            run_check(check, getattr(obj, f.name), f.name)
