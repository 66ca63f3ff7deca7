"""Behavioral model of the metal-oxide memristor: population spec and kernels.

The device is the Pt/Al2O3/TiO2-x/Ti/Pt stack operated as an analog weight:
conductance is continuously adjustable inside [g_min, g_max] by voltage pulses
above per-device set/reset thresholds, and is read non-destructively well below
threshold.  Three behavioral ingredients matter for network-level predictions
and all three live here:

* switching kinetics with soft bounds: an over-threshold pulse of amplitude v
  and duration ``width`` moves conductance by

      dg = +beta_set  * (v - v_set)    * width * (g_max - g) / (g_max - g_min)
      dg = -beta_reset * (-v - v_reset) * width * (g - g_min) / (g_max - g_min)

  for v > v_set and v < -v_reset respectively, zero otherwise.  The window
  factors saturate the walk at the bounds instead of clipping it abruptly.

* read asymmetry: the low-voltage I-V is slightly super-linear,

      I(v) = g_eff * v * (1 + kappa * v)

  so forward and reverse read currents at the same |v| differ by a few
  percent.  kappa is sampled per device; it is the imperfection that survives
  conductance tuning, because tuning observes I(+v_read) only.

* thermal drift: the effective conductance carries a linear temperature
  coefficient that itself depends on the programmed conductance,

      g_eff(t) = g * (1 + alpha(g) * (t - t_ref)),
      alpha(g) = alpha0 * (g_ref / g) ** alpha_exponent,

  i.e. low-conductance states drift more, in relative terms, than
  high-conductance ones.  ``alpha_exponent = 0`` gives a state-independent
  coefficient, which perfectly matched feedback elements can cancel.

The kernels below are elementwise; devices themselves live only as the
cells of a :mod:`xbarnet.crossbar` array, whose one write path applies
``pulse_delta``, so every programmed device follows the same pulse rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (FINITE, FRACTION, NONNEG, POSITIVE, ConfigError,
                     ReadRegimeError, check_fields, checked)

# Reads above this magnitude would disturb state on real devices; the model
# refuses them rather than silently extrapolating.
READ_REGIME_MAX = 0.5

# Sampled thresholds are truncated below at this value so a device can never
# switch at (or below) zero bias.
THRESHOLD_FLOOR = 0.05

# Unformed devices sit two orders of magnitude below the working range.
VIRGIN_G_FACTOR = 0.01


class DefectKind(enum.IntEnum):
    """Cell defect classification. Stored as int8 in array form."""

    NONE = 0
    STUCK_ON = 1
    STUCK_OFF = 2


@dataclass(frozen=True)
class DeviceSpec:
    """Population-level device parameters; per-device values are sampled.

    Conductances in siemens, voltages in volts, times in seconds, temperature
    in degrees C.  ``beta_*`` are switching rates in S/(V*s); ``kappa`` is the
    quadratic I-V coefficient in 1/V.
    """

    g_min: float = checked(10e-6, POSITIVE)
    g_max: float = checked(100e-6, FINITE)
    vset_mean: float = checked(1.0, POSITIVE)
    vset_sigma: float = checked(0.15, NONNEG)
    vreset_mean: float = checked(1.0, POSITIVE)
    vreset_sigma: float = checked(0.15, NONNEG)
    beta_set: float = checked(2e-3, POSITIVE)
    beta_reset: float = checked(2e-3, POSITIVE)
    kappa_mean: float = checked(0.25, FINITE)
    kappa_sigma: float = checked(0.10, NONNEG)
    alpha0: float = checked(5e-3, FINITE)
    alpha_exponent: float = checked(1.0, FINITE)
    t_ref: float = checked(25.0, FINITE)
    forming_v_mean: float = checked(3.0, FINITE)
    forming_v_sigma: float = checked(0.3, NONNEG)
    forming_fail_prob: float = checked(0.10, FRACTION)

    def __post_init__(self):
        check_fields(self)
        if not self.g_min < self.g_max:
            raise ConfigError(
                f"need g_min < g_max, got g_min={self.g_min}, g_max={self.g_max}"
            )

    @property
    def g_virgin(self) -> float:
        return self.g_min * VIRGIN_G_FACTOR


# ---------------------------------------------------------------------------
# shared kernels (scalar or ndarray arguments)
# ---------------------------------------------------------------------------


def thermal_coefficient(g, spec: DeviceSpec):
    """alpha(g) = alpha0 * (g_min / g) ** alpha_exponent, elementwise.

    The reference conductance is pinned to g_min, so alpha0 is the relative
    drift per degree of the most drift-prone (lowest conductance) state.
    """
    return spec.alpha0 * (spec.g_min / g) ** spec.alpha_exponent


def effective_conductance(g, spec: DeviceSpec, t=None):
    """Conductance after thermal drift; ``t=None`` means t_ref exactly."""
    if t is None or t == spec.t_ref:
        return g
    return g * (1.0 + thermal_coefficient(g, spec) * (t - spec.t_ref))


def check_read_regime(v):
    """Raise ReadRegimeError unless every read voltage is finite and within
    the non-disturbing window |v| <= READ_REGIME_MAX.

    The batch's max and min bound it, so no full-size abs or bool array is
    made; a NaN anywhere makes both NaN, and every compare with NaN fails.
    """
    v = np.asarray(v)
    if v.size and not (v.max() <= READ_REGIME_MAX
                       and -v.min() <= READ_REGIME_MAX):
        raise ReadRegimeError(
            f"read voltages must be finite and within the read regime "
            f"limit of {READ_REGIME_MAX} V"
        )


def read_terms(g, kappa, v, spec: DeviceSpec, t=None):
    """Per-device read current I = g_eff * v * (1 + kappa * v), elementwise.

    Raises ReadRegimeError if any v is NaN or |v| exceeds the
    non-disturbing window.
    """
    v = np.asarray(v, dtype=np.float64) if np.ndim(v) else float(v)
    check_read_regime(v)
    g_eff = effective_conductance(g, spec, t)
    return g_eff * v * (1.0 + kappa * v)


def pulse_delta(g, v, width, v_set, v_reset, beta_set, beta_reset, g_lo, g_hi):
    """Conductance increment for one pulse, before clipping. Elementwise.

    Single-polarity pulses can only trip one threshold (both thresholds are
    positive), so computing both branches and summing is exact; a 0 V pulse
    returns exactly zero.

    A Python-float ``g`` (the per-cell write path) takes the builtin ``max``
    instead of ``np.maximum``, which costs microseconds on scalars; the
    formula is the same, and both give the same bits.
    """
    relu = max if type(g) is float else np.maximum
    span = g_hi - g_lo
    over_set = relu(v - v_set, 0.0)
    over_reset = relu(-v - v_reset, 0.0)
    d_set = beta_set * over_set * width * (g_hi - g) / span
    d_reset = beta_reset * over_reset * width * (g - g_lo) / span
    return d_set - d_reset


def differential_conductance(g, v_read: float):
    """(I(+v) - I(-v)) / (2 v): the two-point verify read at t_ref.
    Elementwise.

    The subtraction cancels the even kappa term exactly, so this returns the
    conductance itself and takes no kappa; computing it directly (instead of
    via two currents and a division) keeps the cancellation bit-exact.  This
    is the observable the write-verify tuner converges on.
    """
    if v_read <= 0:
        raise ConfigError("v_read must be positive")
    if not v_read <= READ_REGIME_MAX:  # NaN fails too
        raise ReadRegimeError(
            f"verify read at {v_read} V exceeds the read regime limit"
        )
    return g
