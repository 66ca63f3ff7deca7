"""Behavioral model of a single metal-oxide memristor.

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

Scalar operations here and the array operations in :mod:`xbarnet.crossbar`
share the private kernels below, so the two paths cannot diverge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ConfigError,
    FormingRequiredError,
    MeasurementError,
    ReadRegimeError,
    require_finite,
)

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


class FormingMode(enum.Enum):
    """Forming stimulus style. Both modes share one decision path; hardware
    showed no detectable difference between them and neither does the model."""

    VOLTAGE = "voltage"
    CURRENT = "current"


@dataclass(frozen=True)
class DeviceSpec:
    """Population-level device parameters; per-device values are sampled.

    Conductances in siemens, voltages in volts, times in seconds, temperature
    in degrees C.  ``beta_*`` are switching rates in S/(V*s); ``kappa`` is the
    quadratic I-V coefficient in 1/V.
    """

    g_min: float = 10e-6
    g_max: float = 100e-6
    vset_mean: float = 1.0
    vset_sigma: float = 0.15
    vreset_mean: float = 1.0
    vreset_sigma: float = 0.15
    beta_set: float = 2e-3
    beta_reset: float = 2e-3
    kappa_mean: float = 0.25
    kappa_sigma: float = 0.10
    alpha0: float = 5e-3
    alpha_exponent: float = 1.0
    t_ref: float = 25.0
    forming_v_mean: float = 3.0
    forming_v_sigma: float = 0.3
    forming_fail_prob: float = 0.10

    def __post_init__(self):
        require_finite(self, *(f.name for f in fields(self)))
        if not (0 < self.g_min < self.g_max):
            raise ConfigError(
                f"need 0 < g_min < g_max, got g_min={self.g_min}, g_max={self.g_max}"
            )
        for name in ("vset_mean", "vreset_mean"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in (
            "vset_sigma",
            "vreset_sigma",
            "kappa_sigma",
            "forming_v_sigma",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("beta_set", "beta_reset"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 <= self.forming_fail_prob <= 1:
            raise ConfigError("forming_fail_prob must lie in [0, 1]")

    @property
    def g_virgin(self) -> float:
        return self.g_min * VIRGIN_G_FACTOR


@dataclass(frozen=True)
class MemristorState:
    """One device: its sampled parameters plus current conductance.

    Immutable; operations return updated copies.  ``defect`` freezes the
    conductance, ``formed`` gates all writes.
    """

    spec: DeviceSpec
    g: float
    v_set: float
    v_reset: float
    kappa: float
    v_form: float
    formed: bool = True
    defect: DefectKind = DefectKind.NONE

    # per-cell working range; equal to the spec range unless a robustness
    # sweep narrows or widens this particular cell
    g_lo: float = None  # type: ignore[assignment]
    g_hi: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.g_lo is None:
            object.__setattr__(self, "g_lo", self.spec.g_min)
        if self.g_hi is None:
            object.__setattr__(self, "g_hi", self.spec.g_max)


# ---------------------------------------------------------------------------
# shared kernels (scalar or ndarray arguments)
# ---------------------------------------------------------------------------


def thermal_coefficient(g, spec: DeviceSpec):
    """alpha(g) = alpha0 * (g_min / g) ** alpha_exponent, elementwise.

    The reference conductance is pinned to g_min, so alpha0 is the relative
    drift per degree of the most drift-prone (lowest conductance) state.
    """
    if spec.alpha_exponent == 0:
        return np.broadcast_to(np.float64(spec.alpha0), np.shape(g)).copy() \
            if np.ndim(g) else spec.alpha0
    return spec.alpha0 * (spec.g_min / g) ** spec.alpha_exponent


def effective_conductance(g, spec: DeviceSpec, t=None):
    """Conductance after thermal drift; ``t=None`` means t_ref exactly."""
    if t is None or t == spec.t_ref:
        return g
    return g * (1.0 + thermal_coefficient(g, spec) * (t - spec.t_ref))


def check_read_regime(v):
    """Raise ReadRegimeError unless every read voltage is finite and within
    the non-disturbing window |v| <= READ_REGIME_MAX."""
    if not np.all(np.abs(v) <= READ_REGIME_MAX):  # NaN fails too
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
    positive), so computing both branches and summing is exact.
    """
    span = g_hi - g_lo
    over_set = np.maximum(v - v_set, 0.0)
    over_reset = np.maximum(-v - v_reset, 0.0)
    d_set = beta_set * over_set * width * (g_hi - g) / span
    d_reset = beta_reset * over_reset * width * (g - g_lo) / span
    return d_set - d_reset


# ---------------------------------------------------------------------------
# scalar device operations
# ---------------------------------------------------------------------------


def sample_device(spec: DeviceSpec, seed, *, formed: bool = True) -> MemristorState:
    """Draw one device from the population.

    Thresholds are normal with a hard floor at THRESHOLD_FLOOR volts; kappa is
    normal (clipped at zero from below, an asymmetry-free device is the
    limit); the forming voltage is normal.  Draw order is fixed so a seed
    pins the state completely.
    """
    rng = np.random.default_rng(seed)
    v_set = max(rng.normal(spec.vset_mean, spec.vset_sigma), THRESHOLD_FLOOR)
    v_reset = max(rng.normal(spec.vreset_mean, spec.vreset_sigma), THRESHOLD_FLOOR)
    kappa = max(rng.normal(spec.kappa_mean, spec.kappa_sigma), 0.0)
    v_form = rng.normal(spec.forming_v_mean, spec.forming_v_sigma)
    return MemristorState(
        spec=spec,
        g=spec.g_min if formed else spec.g_virgin,
        v_set=v_set,
        v_reset=v_reset,
        kappa=kappa,
        v_form=v_form,
        formed=formed,
    )


def read_current(state: MemristorState, v: float, t: float | None = None) -> float:
    """Current through the device at read bias v (|v| <= READ_REGIME_MAX)."""
    return float(read_terms(state.g, state.kappa, v, state.spec, t))


def differential_conductance(g, kappa, v_read: float, spec: DeviceSpec, t=None):
    """(I(+v) - I(-v)) / (2 v): the two-point verify read. Elementwise.

    The subtraction cancels the even kappa term exactly, so this returns the
    drifted conductance itself; computing it directly (instead of via two
    currents and a division) keeps the cancellation bit-exact.  This is the
    observable the write-verify tuner converges on.
    """
    if v_read <= 0:
        raise ConfigError("v_read must be positive")
    if v_read > READ_REGIME_MAX:
        raise ReadRegimeError(
            f"verify read at {v_read} V exceeds the read regime limit"
        )
    del kappa  # cancels identically in the differential read
    return effective_conductance(g, spec, t)


def apply_pulse(state: MemristorState, v: float, width: float) -> MemristorState:
    """One programming pulse; returns the updated device.

    Stuck cells ignore pulses entirely; unformed cells refuse them.
    """
    if not state.formed:
        raise FormingRequiredError("cannot pulse an unformed device")
    if width <= 0:
        raise ConfigError(f"pulse width must be positive, got {width}")
    if state.defect != DefectKind.NONE:
        return state
    dg = pulse_delta(
        state.g, v, width,
        state.v_set, state.v_reset,
        state.spec.beta_set, state.spec.beta_reset,
        state.g_lo, state.g_hi,
    )
    g_new = float(np.clip(state.g + dg, state.g_lo, state.g_hi))
    return replace(state, g=g_new)


def extract_thresholds(
    state: MemristorState,
    v_step: float = 0.05,
    v_limit: float = 3.0,
    *,
    width: float = 1e-2,
    change_frac: float = 0.05,
    n_condition: int = 60,
) -> tuple[float, float]:
    """Measure (v_set, v_reset) by staircase sweeps.

    Protocol per polarity: condition the device toward the opposite bound,
    then step the pulse amplitude from v_step upward; the first amplitude
    after which conductance moved by more than ``change_frac`` relative to its
    pre-pulse value is the measured threshold.  The measured value therefore
    overestimates the true threshold by at most v_step plus a kinetics-limited
    offset (slow devices need more over-drive before a 5% move shows up
    within one pulse).

    Raises MeasurementError when a sweep reaches v_limit without the change
    criterion firing; stuck cells always end up there.
    """
    if not state.formed:
        raise FormingRequiredError("cannot characterize an unformed device")
    if v_step <= 0 or v_limit <= 0:
        raise ConfigError("v_step and v_limit must be positive")

    def staircase(dev: MemristorState, sign: float) -> tuple[float, MemristorState]:
        v = v_step
        while v <= v_limit + 1e-12:
            g_before = dev.g
            dev = apply_pulse(dev, sign * v, width)
            if abs(dev.g - g_before) > change_frac * g_before:
                return v, dev
            v += v_step
        raise MeasurementError(
            f"no {'set' if sign > 0 else 'reset'} event observed up to "
            f"{v_limit} V; device may be stuck"
        )

    dev = state
    for _ in range(n_condition):  # park near g_lo so the set sweep has headroom
        dev = apply_pulse(dev, -v_limit, width)
    v_set_meas, dev = staircase(dev, +1.0)
    for _ in range(n_condition):  # park near g_hi for the reset sweep
        dev = apply_pulse(dev, +v_limit, width)
    v_reset_meas, _ = staircase(dev, -1.0)
    return v_set_meas, v_reset_meas
