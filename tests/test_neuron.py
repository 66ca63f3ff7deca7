"""Opamp neuron stage: transfer curve, faults, compensation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarnet import device as dev
from xbarnet.device import DeviceSpec
from xbarnet.neuron import (CompensationParams, NeuronBank, NeuronFault,
                            NeuronParams, bank_outputs, compensated_output,
                            inject_neuron_faults, make_bank, transfer,
                            vary_swing)
from xbarnet.errors import ConfigError, DimensionError, SingularityError

HIDDEN = NeuronParams()
OUTPUT = NeuronParams(out_swing=HIDDEN.v_sat)  # no divider


def di_for(v_diff, p=HIDDEN):
    """Current difference that produces the requested differential voltage."""
    return v_diff / p.r_f


def pair_out(i_plus, i_minus, p):
    """One neuron on its column pair's currents: the transimpedance stage
    network.forward computes, then the neuron law."""
    return float(transfer(p.r_f * (i_plus - i_minus), p))


# --- transfer curve ---------------------------------------------------------

def test_hidden_linear_point():
    # v_diff 0.3 V -> clip stage 3 V -> scaled by 0.2/5 -> 0.12 V
    assert pair_out(di_for(0.3), 0.0, HIDDEN) == pytest.approx(0.12)


def test_hidden_saturated_point():
    # v_diff 1 V saturates the gain stage; hidden output tops out at swing
    assert pair_out(di_for(1.0), 0.0, HIDDEN) == pytest.approx(0.2)
    assert pair_out(di_for(-1.0), 0.0, HIDDEN) == pytest.approx(-0.2)


def test_output_layer_unscaled():
    assert pair_out(di_for(0.3, OUTPUT), 0.0, OUTPUT) == pytest.approx(3.0)
    assert pair_out(di_for(2.0, OUTPUT), 0.0, OUTPUT) == pytest.approx(5.0)


def test_zero_input():
    assert pair_out(0.0, 0.0, HIDDEN) == 0.0


def test_differential_rejects_common_mode():
    assert pair_out(3e-4, 3e-4, HIDDEN) == 0.0
    a = pair_out(5e-4, 2e-4, HIDDEN)
    b = pair_out(8e-4, 5e-4, HIDDEN)
    assert a == pytest.approx(b)


def test_hidden_output_bounded():
    for di in np.linspace(-5e-3, 5e-3, 41):
        assert abs(pair_out(di, 0.0, HIDDEN)) <= HIDDEN.out_swing + 1e-15


def test_params_validation():
    with pytest.raises(ConfigError):
        NeuronParams(gain=0.0)
    with pytest.raises(ConfigError):
        NeuronParams(out_swing=0.0)
    with pytest.raises(ConfigError):
        NeuronParams(out_swing=6.0, v_sat=5.0)


# --- banks ------------------------------------------------------------------

def test_bank_matches_scalar_path():
    bank = make_bank(7, HIDDEN)
    v_diff = np.linspace(-1.2, 1.2, 7)
    got = bank_outputs(bank, v_diff)
    want = [pair_out(di_for(v), 0.0, HIDDEN) for v in v_diff]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_bank_batch_shape():
    bank = make_bank(4, HIDDEN)
    out = bank_outputs(bank, np.zeros((9, 4)))
    assert out.shape == (9, 4)
    with pytest.raises(DimensionError):
        bank_outputs(bank, np.zeros(5))


def test_fault_pins_output():
    bank = make_bank(6, HIDDEN)
    bank.fault[1] = NeuronFault.STUCK_HIGH
    bank.fault[4] = NeuronFault.STUCK_LOW
    out = bank_outputs(bank, np.zeros(6))
    assert out[1] == pytest.approx(HIDDEN.out_swing)
    assert out[4] == pytest.approx(-HIDDEN.out_swing)
    assert np.all(out[[0, 2, 3, 5]] == 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.sampled_from(
    [NeuronFault.OK, NeuronFault.STUCK_HIGH, NeuronFault.STUCK_LOW])),
    min_size=1, max_size=12))
def test_output_bank_is_the_law_without_a_divider(cells):
    # v_diff reaches 4x past saturation (gain * 2 V = 20 V against 5 V)
    v_diff = np.array([v for v, _ in cells])
    bank = make_bank(len(cells), OUTPUT)
    bank.fault[:] = [fault for _, fault in cells]
    # oracle: an output stage written apart from the hidden one, the clip
    # alone, with faults pinned at +-v_sat
    want = np.clip(OUTPUT.gain * v_diff, -OUTPUT.v_sat, OUTPUT.v_sat)
    want = np.where(bank.fault == NeuronFault.STUCK_HIGH, OUTPUT.v_sat, want)
    want = np.where(bank.fault == NeuronFault.STUCK_LOW, -OUTPUT.v_sat, want)
    assert bank_outputs(bank, v_diff).tobytes() == want.tobytes()


def test_inject_faults_counts_and_overrides():
    bank = make_bank(10, HIDDEN)
    out = inject_neuron_faults(bank, 0.2, 0.1, {0: 0.4, 3: 0.1}, seed=2)
    assert out is bank  # the bank it is given, changed in place
    assert (out.fault == NeuronFault.STUCK_HIGH).sum() == 2
    assert (out.fault == NeuronFault.STUCK_LOW).sum() == 1
    assert out.swing[0] == 0.4 and out.swing[3] == 0.1


def test_inject_faults_validation():
    bank = make_bank(4, HIDDEN)
    with pytest.raises(ConfigError):
        inject_neuron_faults(bank, 0.6, 0.6, None, seed=0)
    with pytest.raises(DimensionError):
        inject_neuron_faults(bank, 0.5, 0.0, {9: 0.2}, seed=0)
    with pytest.raises(ConfigError):
        inject_neuron_faults(bank, 0.0, 0.5, {1: 0.0}, seed=0)
    # every value is checked before the first write: the refused calls
    # pinned no neuron and set no swing
    assert bank.fault.sum() == 0
    np.testing.assert_array_equal(bank.swing, HIDDEN.out_swing)


def test_vary_swing_spread_and_floor():
    bank = make_bank(2000, HIDDEN)
    out = vary_swing(bank, 0.3, seed=3)
    assert out.swing.std() > 0
    assert np.all(out.swing >= 0.05 * HIDDEN.out_swing)
    same = vary_swing(make_bank(2000, HIDDEN), 0.0, seed=3)
    np.testing.assert_array_equal(same.swing, HIDDEN.out_swing)


@pytest.mark.parametrize("call, error, message", [
    (lambda: make_bank(0, HIDDEN), ConfigError, "bank size"),
    (lambda: NeuronBank(HIDDEN, np.ones(3), np.zeros(4, dtype=np.int8)),
     DimensionError, "must align"),
    (lambda: inject_neuron_faults(make_bank(4, HIDDEN), 1.5, 0.0, None, 0),
     ConfigError, r"stuck_high_frac must lie in \[0, 1\]"),
    (lambda: inject_neuron_faults(make_bank(4, HIDDEN), 0.0, -0.1, None, 0),
     ConfigError, r"stuck_low_frac must lie in \[0, 1\]"),
    (lambda: vary_swing(make_bank(4, HIDDEN), -0.1, 0), ConfigError,
     "swing sigma"),
], ids=["empty-bank", "misaligned-bank", "high-frac", "low-frac",
        "swing-sigma"])
def test_bank_entry_points_refuse_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


# --- temperature-compensated output stage -----------------------------------

def column_current(g_cells, spec, v, t=None):
    g_eff = dev.effective_conductance(np.asarray(g_cells), spec, t)
    return float(np.sum(g_eff * v))


def test_feedback_conductance_paths():
    # v_out = -I / g_fb(t): a leg without a spec is a fixed resistor, a leg
    # with one drifts like an array cell
    spec = DeviceSpec()
    fixed = CompensationParams(5e-4)
    assert compensated_output(1e-5, fixed) == pytest.approx(-0.02)
    assert compensated_output(1e-5, fixed, t=75.0) == \
        compensated_output(1e-5, fixed)
    memristive = CompensationParams(50e-6, fb_spec=spec)
    assert compensated_output(1e-5, memristive, t=spec.t_ref) == -1e-5 / 50e-6
    g_75 = dev.effective_conductance(50e-6, spec, 75.0)
    assert g_75 > 50e-6
    assert compensated_output(1e-5, memristive, t=75.0) == -1e-5 / g_75


def test_matched_alpha_exact_invariance():
    # uniform-alpha devices and a feedback device from the same population:
    # the drift factor cancels algebraically, leaving only rounding ulps
    spec = DeviceSpec(alpha_exponent=0.0)
    g_cells = np.array([15e-6, 40e-6, 90e-6])
    comp = CompensationParams(35e-6, fb_spec=spec)
    ref = compensated_output(column_current(g_cells, spec, 0.2), comp,
                             t=spec.t_ref)
    for t in (35.0, 55.0, 75.0, 5.0):
        out = compensated_output(column_current(g_cells, spec, 0.2, t), comp,
                                 t=t)
        assert out == pytest.approx(ref, rel=1e-13)


def test_fixed_resistor_drift_law():
    # uniform alpha, fixed feedback: output scales by exactly 1 + alpha*dT
    spec = DeviceSpec(alpha_exponent=0.0)
    g_cells = np.array([20e-6, 60e-6])
    comp = CompensationParams(1e-4)
    ref = compensated_output(column_current(g_cells, spec, 0.2), comp,
                             t=spec.t_ref)
    for dt in (10.0, 30.0, 50.0):
        out = compensated_output(
            column_current(g_cells, spec, 0.2, spec.t_ref + dt), comp,
            t=spec.t_ref + dt)
        assert out / ref == pytest.approx(1.0 + spec.alpha0 * dt, rel=1e-12)


def residual_drift(g_bias, spec, g_cells, g_fb, dt=50.0):
    comp = CompensationParams(g_fb, g_bias=g_bias, v_bias=0.2, fb_spec=spec,
                              bias_spec=spec)
    ref = compensated_output(column_current(g_cells, spec, 0.2), comp,
                             t=spec.t_ref)
    out = compensated_output(
        column_current(g_cells, spec, 0.2, spec.t_ref + dt), comp,
        t=spec.t_ref + dt)
    return abs(out - ref)


def test_high_bias_compensates_better():
    # conductance-dependent alpha: the feedback device alone cannot cancel a
    # mixed-alpha column, and a stiffer bias leg shrinks what is left over
    spec = DeviceSpec(alpha_exponent=1.0)
    rng = np.random.default_rng(17)
    g_cells = rng.uniform(15e-6, 95e-6, 16)
    i_ref = column_current(g_cells, spec, 0.2)
    g_fb = i_ref / (16 * 0.2)
    assert residual_drift(80e-6, spec, g_cells, g_fb) < \
        residual_drift(15e-6, spec, g_cells, g_fb)


def test_compensated_output_singularity():
    spec = DeviceSpec()
    for fb_spec in (spec, None):
        comp = CompensationParams(0.0, fb_spec=fb_spec)
        for t in (spec.t_ref, 75.0):
            with pytest.raises(SingularityError):
                compensated_output(1e-5, comp, t=t)


def test_compensation_validation():
    with pytest.raises(ConfigError):
        CompensationParams(-1e-3)
    with pytest.raises(ConfigError):
        CompensationParams(1e-3, g_bias=-1e-6)
    for bad in ({"g_fb": float("nan")}, {"g_bias": float("inf")},
                {"v_bias": float("nan")}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            CompensationParams(**{"g_fb": 1e-3, **bad})
