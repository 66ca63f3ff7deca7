"""Exception taxonomy shared across the simulator.

Grouped so the command-line front end can map failures onto exit-code
categories: configuration problems, missing or malformed data files, and
runtime simulation faults.  The shared field checks of the config
dataclasses raise ConfigError and live here too.
"""

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


def require_finite(cfg, *names: str):
    """Real-valued fields must be finite numbers: NaN passes every x <= 0
    test."""
    for name in names:
        value = getattr(cfg, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ConfigError(
                f"{name} must be a finite number, got {value!r}"
            )


def require_count(cfg, *names: str):
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < 0:
            raise ConfigError(
                f"{name} must be a nonnegative integer, got {value!r}"
            )
