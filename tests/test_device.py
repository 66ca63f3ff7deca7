"""Device model: read law, switching kinetics, sampling, thresholds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarnet import device as dev
from xbarnet.device import (DefectKind, DeviceSpec, apply_pulse,
                            extract_thresholds, pulse_delta, read_current,
                            sample_device, thermal_coefficient)
from xbarnet.errors import (ConfigError, FormingRequiredError,
                            MeasurementError, ReadRegimeError)


def make_state(spec, g, *, v_set=1.0, v_reset=1.0, kappa=0.0,
               defect=DefectKind.NONE, formed=True):
    return dev.MemristorState(spec=spec, g=g, v_set=v_set, v_reset=v_reset,
                              kappa=kappa, v_form=3.0, formed=formed,
                              defect=defect)


# --- read law ---------------------------------------------------------------

def test_read_ohmic_point(spec):
    s = make_state(spec, 100e-6)
    assert read_current(s, 0.2) == pytest.approx(20e-6, rel=1e-12)


def test_read_zero_bias(spec):
    s = make_state(spec, 100e-6, kappa=0.3)
    assert read_current(s, 0.0) == 0.0


def test_read_asymmetry_closed_form(spec):
    # kappa 0.25 at +/-0.2 V: 21 uA forward, 19 uA reverse
    s = make_state(spec, 100e-6, kappa=0.25)
    assert read_current(s, +0.2) == pytest.approx(+21e-6, rel=1e-12)
    assert read_current(s, -0.2) == pytest.approx(-19e-6, rel=1e-12)


def test_read_odd_when_symmetric(spec):
    s = make_state(spec, 37e-6, kappa=0.0)
    for v in (0.05, 0.11, 0.2, 0.5):
        assert read_current(s, -v) == -read_current(s, v)


def test_read_asymmetry_sign(spec):
    s = make_state(spec, 50e-6, kappa=0.4)
    assert abs(read_current(s, 0.2)) > abs(read_current(s, -0.2))


def test_read_regime_enforced(spec):
    s = make_state(spec, 50e-6)
    with pytest.raises(ReadRegimeError):
        read_current(s, 0.6)
    with pytest.raises(ReadRegimeError):
        read_current(s, float("nan"))


def test_thermal_drift_ratio_exact(spec):
    s = make_state(spec, 40e-6, kappa=0.0)
    a = thermal_coefficient(40e-6, spec)
    for dt in (10.0, 50.0, -30.0):
        ratio = read_current(s, 0.2, spec.t_ref + dt) / read_current(s, 0.2)
        assert ratio == pytest.approx(1.0 + a * dt, rel=1e-12)


def test_thermal_coefficient_law(spec):
    # alpha0 * (g_min/g)^exponent; reference pinned at g_min
    assert thermal_coefficient(spec.g_min, spec) == pytest.approx(spec.alpha0)
    assert thermal_coefficient(spec.g_min * 4, spec) == \
        pytest.approx(spec.alpha0 / 4)
    flat = dataclasses.replace(spec, alpha_exponent=0.0)
    assert thermal_coefficient(77e-6, flat) == pytest.approx(spec.alpha0)


def test_differential_read_cancels_kappa(spec):
    g = np.array([12e-6, 55e-6, 99e-6])
    kappa = np.array([0.0, 0.3, 0.7])
    out = dev.differential_conductance(g, kappa, 0.2, spec)
    np.testing.assert_array_equal(out, g)


def test_measured_conductance_includes_kappa(spec):
    # a one-polarity read I/v reports g * (1 + kappa*v), not g
    s = make_state(spec, 80e-6, kappa=0.25)
    assert read_current(s, 0.2) / 0.2 == pytest.approx(80e-6 * 1.05)


# --- switching kinetics -----------------------------------------------------

def test_pulse_subthreshold_identity(spec):
    s = make_state(spec, 42e-6, v_set=1.1, v_reset=0.9)
    for v in (0.0, 0.5, 1.0, -0.5, -0.8):
        assert apply_pulse(s, v, 1e-3).g == s.g


def test_pulse_delta_exactly_zero_below_threshold():
    d = pulse_delta(50e-6, 0.999, 1e-3, 1.0, 1.0, 2e-3, 2e-3, 10e-6, 100e-6)
    assert d == 0.0


def test_pulse_window_zero_at_bound(spec):
    top = make_state(spec, spec.g_max, v_set=1.0)
    assert apply_pulse(top, 2.0, 1e-3).g == spec.g_max
    bot = make_state(spec, spec.g_min, v_reset=1.0)
    assert apply_pulse(bot, -2.0, 1e-3).g == spec.g_min


def test_pulse_worked_example():
    # beta 200 uS/(V s), 0.5 V overdrive, 1 ms, mid-range window 0.5
    spec = DeviceSpec(beta_set=200e-6, beta_reset=200e-6)
    s = make_state(spec, 55e-6, v_set=1.0)
    out = apply_pulse(s, 1.5, 1e-3)
    assert out.g - s.g == pytest.approx(50e-9, rel=1e-9)
    assert out.g == pytest.approx(55.05e-6, rel=1e-9)


def test_pulse_reset_direction(spec):
    s = make_state(spec, 55e-6, v_reset=1.0)
    out = apply_pulse(s, -1.5, 1e-3)
    assert out.g < s.g


def test_pulse_stuck_fixed_point(spec):
    for kind in (DefectKind.STUCK_ON, DefectKind.STUCK_OFF):
        g = spec.g_max if kind is DefectKind.STUCK_ON else spec.g_min
        s = make_state(spec, g, defect=kind)
        for v in (2.5, -2.5, 0.7):
            assert apply_pulse(s, v, 1e-2).g == g


def test_pulse_unformed_rejected(spec):
    s = make_state(spec, spec.g_virgin, formed=False)
    with pytest.raises(FormingRequiredError):
        apply_pulse(s, 1.5, 1e-3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(1e-5, 1e-2)),
                min_size=1, max_size=40),
       st.integers(0, 2**31))
def test_pulse_sequence_stays_in_bounds(seq, seed):
    spec = DeviceSpec()
    s = sample_device(spec, seed)
    for v, width in seq:
        s = apply_pulse(s, v, width)
        assert spec.g_min <= s.g <= spec.g_max


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(-3.0, 3.0))
def test_halfselect_identity_property(v_set, v_reset, v):
    # the invariant the array's write addressing leans on
    spec = DeviceSpec()
    s = make_state(spec, 50e-6, v_set=v_set, v_reset=v_reset)
    if -v_reset < v < v_set:
        assert apply_pulse(s, v, 1e-3).g == s.g


# --- population sampling ----------------------------------------------------

def test_sample_degenerate_sigma():
    spec = DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0, kappa_sigma=0.0,
                      forming_v_sigma=0.0)
    states = [sample_device(spec, k) for k in range(20)]
    for s in states:
        assert s.v_set == spec.vset_mean
        assert s.v_reset == spec.vreset_mean
        assert s.kappa == spec.kappa_mean
        assert s.v_form == spec.forming_v_mean


def test_sample_deterministic(spec):
    assert sample_device(spec, 99) == sample_device(spec, 99)


def test_sample_statistics():
    spec = DeviceSpec(vset_sigma=0.1)
    vs = np.array([sample_device(spec, k).v_set for k in range(10_000)])
    assert abs(vs.std() - 0.1) / 0.1 < 0.05
    assert abs(vs.mean() - spec.vset_mean) < 0.01


def test_sample_threshold_floor():
    spec = DeviceSpec(vset_mean=0.06, vset_sigma=0.2)
    vs = [sample_device(spec, k).v_set for k in range(500)]
    assert min(vs) >= 0.05


def test_sample_kappa_nonnegative():
    spec = DeviceSpec(kappa_mean=0.0, kappa_sigma=0.5)
    assert min(sample_device(spec, k).kappa for k in range(500)) >= 0.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        DeviceSpec(g_min=0.0)
    with pytest.raises(ConfigError):
        DeviceSpec(g_min=2e-4, g_max=1e-4)
    with pytest.raises(ConfigError):
        DeviceSpec(vset_sigma=-0.1)
    with pytest.raises(ConfigError):
        DeviceSpec(forming_fail_prob=1.5)


# --- threshold characterization ---------------------------------------------

def test_extract_thresholds_brackets_true_value(spec):
    # fast kinetics: a 5% move fires within one step of the true threshold
    fast = dataclasses.replace(spec, beta_set=0.2, beta_reset=0.2)
    s = make_state(fast, 50e-6, v_set=1.0, v_reset=0.8)
    v_set_m, v_reset_m = extract_thresholds(s, v_step=0.05)
    assert 1.0 <= v_set_m <= 1.0 + 3 * 0.05
    assert 0.8 <= v_reset_m <= 0.8 + 3 * 0.05


def test_extract_thresholds_stuck_fails(spec):
    s = make_state(spec, spec.g_max, defect=DefectKind.STUCK_ON)
    with pytest.raises(MeasurementError):
        extract_thresholds(s)


def test_extract_thresholds_faster_kinetics_not_higher(spec):
    base = dataclasses.replace(spec, beta_set=5e-3, beta_reset=5e-3)
    fast = dataclasses.replace(spec, beta_set=1e-2, beta_reset=1e-2)
    m_base = extract_thresholds(make_state(base, 50e-6), v_step=0.05)
    m_fast = extract_thresholds(make_state(fast, 50e-6), v_step=0.05)
    assert m_fast[0] <= m_base[0]
    assert m_fast[1] <= m_base[1]
