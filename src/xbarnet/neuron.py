"""Opamp neuron model: differential transimpedance, clipping, output scaling.

A neuron takes the currents of its (G+, G-) column pair, converts the
difference to a voltage through the feedback resistance, clips with a
piece-linear gain stage, and divides the result down to its output swing:

    v_diff = r_f * (i_plus - i_minus)
    out    = clamp(gain * v_diff, -v_sat, +v_sat) * out_swing / v_sat

Both layers follow this one law.  A hidden neuron's swing brings its output
into the next crossbar's non-disturbing read window; an output neuron has no
divider, which is the law with out_swing = v_sat.

Per-neuron imperfections are the measured kind: output-swing spread across
the bank and stuck-high/low faults.  The temperature-compensated output
stage lives here too: a feedback and a bias conductance, each either a
drifting memristive leg or an ideal resistor.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from . import device as dev
from .device import DeviceSpec
from .errors import (FINITE, NONNEG, POSITIVE, ConfigError, DimensionError,
                     SingularityError, check_fields, checked)


class NeuronFault:
    OK = 0
    STUCK_HIGH = 1
    STUCK_LOW = 2


@dataclass(frozen=True)
class NeuronParams:
    r_f: float = checked(2000.0, POSITIVE)
    gain: float = checked(10.0, POSITIVE)
    v_sat: float = checked(5.0, POSITIVE)
    out_swing: float = checked(0.2, POSITIVE)

    def __post_init__(self):
        check_fields(self)
        if not self.out_swing <= self.v_sat:
            raise ConfigError(
                f"need out_swing <= v_sat, got out_swing={self.out_swing}, "
                f"v_sat={self.v_sat}"
            )


def transfer(v_diff, p: NeuronParams, swing=None):
    """The neuron law, clamp(gain * v_diff, +-v_sat) * swing / v_sat, at
    swing p.out_swing unless given (a bank's per-neuron swings).  With
    swing = v_sat the scale factor is exactly 1."""
    swing = p.out_swing if swing is None else swing
    return np.clip(p.gain * v_diff, -p.v_sat, p.v_sat) * (swing / p.v_sat)


def slope(p: NeuronParams) -> float:
    """d out / d v_diff inside the linear region: gain * out_swing / v_sat,
    grouped so that an output stage (out_swing = v_sat) gives gain exactly."""
    return p.gain * (p.out_swing / p.v_sat)


# ---------------------------------------------------------------------------
# neuron banks (one hidden or output layer)
# ---------------------------------------------------------------------------


@dataclass
class NeuronBank:
    """A layer's worth of neurons: shared params, per-neuron swing and fault."""

    params: NeuronParams
    swing: np.ndarray
    fault: np.ndarray

    def __post_init__(self):
        if self.swing.shape != self.fault.shape:
            raise DimensionError("swing and fault arrays must align")

    @property
    def n(self) -> int:
        return self.swing.shape[0]

    def copy(self) -> "NeuronBank":
        return NeuronBank(self.params, self.swing.copy(), self.fault.copy())


def make_bank(n: int, params: NeuronParams) -> NeuronBank:
    if n <= 0:
        raise ConfigError("bank size must be positive")
    return NeuronBank(
        params=params,
        swing=np.full(n, params.out_swing, dtype=np.float64),
        fault=np.zeros(n, dtype=np.int8),
    )


def bank_outputs(bank: NeuronBank, v_diff: np.ndarray) -> np.ndarray:
    """The neuron law over a layer, swing spread and faults applied.

    v_diff may be (n,) or (batch, n); faults pin the affected neuron's output
    at +-its swing for every pattern in the batch.
    """
    v_diff = np.asarray(v_diff, dtype=np.float64)
    if v_diff.shape[-1] != bank.n:
        raise DimensionError(
            f"v_diff trailing dim {v_diff.shape[-1]} != bank size {bank.n}"
        )
    out = transfer(v_diff, bank.params, bank.swing)
    out = np.where(bank.fault == NeuronFault.STUCK_HIGH, bank.swing, out)
    out = np.where(bank.fault == NeuronFault.STUCK_LOW, -bank.swing, out)
    return out


def inject_neuron_faults(
    bank: NeuronBank,
    stuck_high_frac: float,
    stuck_low_frac: float,
    swing_overrides: dict[int, float] | None,
    seed,
) -> NeuronBank:
    """Pin random disjoint neuron subsets high/low and set per-neuron
    swings, in place; returns bank.

    Overrides are applied after fault sampling, so a faulted neuron sticks at
    its overridden swing value.
    """
    for name, frac in (("stuck_high_frac", stuck_high_frac),
                       ("stuck_low_frac", stuck_low_frac)):
        if not 0 <= frac <= 1:
            raise ConfigError(f"{name} must lie in [0, 1]")
    if stuck_high_frac + stuck_low_frac > 1:
        raise ConfigError("stuck neuron fractions sum to more than 1")
    # checked before the first write: a refused call leaves bank as it was
    overrides = swing_overrides or {}
    for idx, swing in overrides.items():
        if not 0 <= idx < bank.n:
            raise DimensionError(f"swing override index {idx} out of range")
        if not 0 < swing <= bank.params.v_sat:
            raise ConfigError(f"override swing {swing} outside (0, v_sat]")
    n_high = int(round(stuck_high_frac * bank.n))
    n_low = int(round(stuck_low_frac * bank.n))
    if n_high + n_low:
        rng = np.random.default_rng(seed)
        picks = rng.choice(bank.n, size=n_high + n_low, replace=False)
        bank.fault[picks[:n_high]] = NeuronFault.STUCK_HIGH
        bank.fault[picks[n_high:]] = NeuronFault.STUCK_LOW
    for idx, swing in overrides.items():
        bank.swing[idx] = swing
    return bank


def vary_swing(bank: NeuronBank, sigma: float, seed) -> NeuronBank:
    """N(1, sigma) spread on the output swing, in place; returns bank.
    Floored at 5% of nominal (a swing of zero would silence the neuron
    outright, which is the stuck-fault mechanism's job, not this one's)."""
    if sigma < 0:
        raise ConfigError("swing sigma must be non-negative")
    if sigma > 0:
        rng = np.random.default_rng(seed)
        factor = 1.0 + sigma * rng.standard_normal(bank.n)
        bank.swing = np.maximum(bank.params.out_swing * factor,
                                0.05 * bank.params.out_swing)
    return bank


# ---------------------------------------------------------------------------
# temperature-compensated output stage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompensationParams:
    """Output stage: v_out = -(I + g_bias(t) * v_bias) / g_fb(t).

    ``g_fb`` is the feedback conductance and ``g_bias`` the bias-leg
    conductance.  A leg with a spec (``fb_spec``, ``bias_spec``) drifts with
    alpha(g) like an array cell; a leg without one is ideal, i.e. a fixed
    resistor.
    """

    g_fb: float = checked(MISSING, NONNEG)
    g_bias: float = checked(0.0, NONNEG)
    v_bias: float = checked(0.2, FINITE)
    fb_spec: DeviceSpec | None = None
    bias_spec: DeviceSpec | None = None

    def __post_init__(self):
        check_fields(self)


def _leg_conductance(g: float, spec: DeviceSpec | None, t) -> float:
    # an open leg (g = 0) carries no current and has nothing to drift
    if spec is None or g == 0:
        return g
    return float(dev.effective_conductance(g, spec, t))


def compensated_output(
    weighted_current: float, comp: CompensationParams, t: float | None = None
) -> float:
    g_fb = _leg_conductance(comp.g_fb, comp.fb_spec, t)
    if g_fb <= 0:
        raise SingularityError(
            f"feedback conductance {g_fb} S at t={t}; output undefined"
        )
    g_b = _leg_conductance(comp.g_bias, comp.bias_spec, t)
    return -(weighted_current + g_b * comp.v_bias) / g_fb
