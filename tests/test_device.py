"""Device model: read law, switching kinetics, sampling, thresholds.

Devices live as cells of a crossbar: single-device cases are (1, 1) arrays
pulsed through pulse_all, and reads go through the elementwise kernel.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarnet import device as dev
from xbarnet.crossbar import pulse_all, sample_cells
from xbarnet.device import (DefectKind, DeviceSpec, pulse_delta, read_terms,
                            thermal_coefficient)
from xbarnet.errors import (ConfigError, FormingRequiredError,
                            MeasurementError, ReadRegimeError)
from xbarnet.progtune import extract_thresholds


def make_cell(spec, g, *, v_set=1.0, v_reset=1.0, defect=DefectKind.NONE):
    cell = sample_cells(spec, [0])
    cell.g[:] = g
    cell.v_set[:] = v_set
    cell.v_reset[:] = v_reset
    cell.defect[:] = defect
    return cell


def pulsed(cell, v, width):
    """Conductance after one pulse on a copy of a (1, 1) cell."""
    return pulse_all(cell.copy(), np.full((1, 1), v), width).g[0, 0]


# --- read law ---------------------------------------------------------------

def test_read_ohmic_point(spec):
    assert read_terms(100e-6, 0.0, 0.2, spec) == pytest.approx(20e-6,
                                                               rel=1e-12)


def test_read_zero_bias(spec):
    assert read_terms(100e-6, 0.3, 0.0, spec) == 0.0


def test_read_asymmetry_closed_form(spec):
    # kappa 0.25 at +/-0.2 V: 21 uA forward, 19 uA reverse
    assert read_terms(100e-6, 0.25, +0.2, spec) == \
        pytest.approx(+21e-6, rel=1e-12)
    assert read_terms(100e-6, 0.25, -0.2, spec) == \
        pytest.approx(-19e-6, rel=1e-12)


def test_read_odd_when_symmetric(spec):
    for v in (0.05, 0.11, 0.2, 0.5):
        assert read_terms(37e-6, 0.0, -v, spec) == \
            -read_terms(37e-6, 0.0, v, spec)


def test_read_asymmetry_sign(spec):
    assert abs(read_terms(50e-6, 0.4, 0.2, spec)) > \
        abs(read_terms(50e-6, 0.4, -0.2, spec))


def test_read_regime_enforced(spec):
    with pytest.raises(ReadRegimeError):
        read_terms(50e-6, 0.0, 0.6, spec)
    with pytest.raises(ReadRegimeError):
        read_terms(50e-6, 0.0, float("nan"), spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 np.nextafter(dev.READ_REGIME_MAX, 1.0),
                                 -np.nextafter(dev.READ_REGIME_MAX, 1.0)])
def test_read_regime_check_refuses_one_bad_entry_anywhere(bad):
    # the check bounds a batch by its max and min: a single NaN, inf or
    # just-out-of-window entry deep in a later 1,000-row chunk still raises
    v = np.full((2500, 17), 0.1)
    v[1500:2500:2] = -0.1
    dev.check_read_regime(v)
    v[2217, 9] = bad
    with pytest.raises(ReadRegimeError):
        dev.check_read_regime(v)
    with pytest.raises(ReadRegimeError):
        dev.check_read_regime(v[2000:])


def test_read_regime_check_accepts_the_window_edges():
    edge = dev.READ_REGIME_MAX
    dev.check_read_regime(np.array([[edge, -edge], [0.0, 0.0]]))
    dev.check_read_regime(edge)
    dev.check_read_regime(-edge)
    dev.check_read_regime(np.empty((0, 17)))


def test_verify_read_regime_rejects_nan():
    assert dev.differential_conductance(42e-6, 0.2) == 42e-6
    with pytest.raises(ReadRegimeError):
        dev.differential_conductance(42e-6, float("nan"))
    with pytest.raises(ReadRegimeError):
        dev.differential_conductance(42e-6, 0.6)
    with pytest.raises(ConfigError):
        dev.differential_conductance(42e-6, 0.0)


def test_thermal_drift_ratio_exact(spec):
    a = thermal_coefficient(40e-6, spec)
    for dt in (10.0, 50.0, -30.0):
        ratio = read_terms(40e-6, 0.0, 0.2, spec, spec.t_ref + dt) \
            / read_terms(40e-6, 0.0, 0.2, spec)
        assert ratio == pytest.approx(1.0 + a * dt, rel=1e-12)


def test_thermal_coefficient_law(spec):
    # alpha0 * (g_min/g)^exponent; reference pinned at g_min
    assert thermal_coefficient(spec.g_min, spec) == pytest.approx(spec.alpha0)
    assert thermal_coefficient(spec.g_min * 4, spec) == \
        pytest.approx(spec.alpha0 / 4)
    flat = dataclasses.replace(spec, alpha_exponent=0.0)
    # exponent 0 gives alpha0 bit for bit, for a scalar and elementwise
    assert thermal_coefficient(77e-6, flat) == spec.alpha0
    assert np.array_equal(thermal_coefficient(np.array([20e-6, 77e-6]), flat),
                          [spec.alpha0, spec.alpha0])


def test_differential_read_cancels_kappa(spec):
    # the device law's two-point read (I(+v) - I(-v)) / 2v cancels kappa,
    # so the verify read takes no kappa and returns g itself
    g = np.array([12e-6, 55e-6, 99e-6])
    kappa = np.array([0.0, 0.3, 0.7])
    two_point = (read_terms(g, kappa, 0.2, spec)
                 - read_terms(g, kappa, -0.2, spec)) / 0.4
    out = dev.differential_conductance(g, 0.2)
    np.testing.assert_array_equal(out, g)
    np.testing.assert_allclose(two_point, out, rtol=1e-12)


def test_measured_conductance_includes_kappa(spec):
    # a one-polarity read I/v reports g * (1 + kappa*v), not g
    assert read_terms(80e-6, 0.25, 0.2, spec) / 0.2 == \
        pytest.approx(80e-6 * 1.05)


# --- switching kinetics -----------------------------------------------------

def test_pulse_subthreshold_identity(spec):
    cell = make_cell(spec, 42e-6, v_set=1.1, v_reset=0.9)
    for v in (0.0, 0.5, 1.0, -0.5, -0.8):
        assert pulsed(cell, v, 1e-3) == 42e-6


def test_pulse_delta_exactly_zero_below_threshold():
    d = pulse_delta(50e-6, 0.999, 1e-3, 1.0, 1.0, 2e-3, 2e-3, 10e-6, 100e-6)
    assert d == 0.0


def test_pulse_window_zero_at_bound(spec):
    top = make_cell(spec, spec.g_max, v_set=1.0)
    assert pulsed(top, 2.0, 1e-3) == spec.g_max
    bot = make_cell(spec, spec.g_min, v_reset=1.0)
    assert pulsed(bot, -2.0, 1e-3) == spec.g_min


def test_pulse_worked_example():
    # beta 200 uS/(V s), 0.5 V overdrive, 1 ms, mid-range window 0.5
    spec = DeviceSpec(beta_set=200e-6, beta_reset=200e-6)
    g = pulsed(make_cell(spec, 55e-6, v_set=1.0), 1.5, 1e-3)
    assert g - 55e-6 == pytest.approx(50e-9, rel=1e-9)
    assert g == pytest.approx(55.05e-6, rel=1e-9)


def test_pulse_reset_direction(spec):
    assert pulsed(make_cell(spec, 55e-6, v_reset=1.0), -1.5, 1e-3) < 55e-6


def test_pulse_stuck_fixed_point(spec):
    for kind in (DefectKind.STUCK_ON, DefectKind.STUCK_OFF):
        g = spec.g_max if kind is DefectKind.STUCK_ON else spec.g_min
        cell = make_cell(spec, g, defect=kind)
        for v in (2.5, -2.5, 0.7):
            assert pulsed(cell, v, 1e-2) == g


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(1e-5, 1e-2)),
                min_size=1, max_size=40),
       st.integers(0, 2**31))
def test_pulse_sequence_stays_in_bounds(seq, seed):
    spec = DeviceSpec()
    cell = sample_cells(spec, [seed])
    for v, width in seq:
        pulse_all(cell, np.full((1, 1), v), width)
        assert spec.g_min <= cell.g[0, 0] <= spec.g_max


@st.composite
def pulse_cases(draw):
    """pulse_delta's arguments as Python floats: g anywhere in its window,
    at either bound included, and amplitudes of 0 V, exactly at either
    threshold, or anywhere in either polarity."""
    g_lo = draw(st.floats(1e-6, 50e-6))
    g_hi = g_lo + draw(st.floats(1e-6, 100e-6))
    g = draw(st.one_of(st.just(g_lo), st.just(g_hi), st.floats(g_lo, g_hi)))
    v_set = draw(st.floats(0.05, 1.5))
    v_reset = draw(st.floats(0.05, 1.5))
    v = draw(st.one_of(st.sampled_from([0.0, -0.0, v_set, -v_reset]),
                       st.floats(-3.0, 3.0)))
    return (g, v, draw(st.floats(1e-5, 1e-1)), v_set, v_reset,
            draw(st.floats(1e-6, 1e-1)), draw(st.floats(1e-6, 1e-1)),
            g_lo, g_hi)


@settings(max_examples=300, deadline=None)
@given(pulse_cases())
def test_pulse_delta_float_branch_equals_array_branch(args):
    # the per-cell write path runs on Python floats, the array paths on
    # ndarrays: one formula, the same bits
    scalar = pulse_delta(*args)
    assert type(scalar) is float
    array = pulse_delta(*(np.array([a]) for a in args))
    assert np.array([scalar]).tobytes() == array.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(-3.0, 3.0))
def test_halfselect_identity_property(v_set, v_reset, v):
    # the invariant the array's write addressing leans on
    spec = DeviceSpec()
    cell = make_cell(spec, 50e-6, v_set=v_set, v_reset=v_reset)
    if -v_reset < v < v_set:
        assert pulsed(cell, v, 1e-3) == 50e-6


# --- population sampling ----------------------------------------------------

def test_sample_degenerate_sigma():
    spec = DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0, kappa_sigma=0.0,
                      forming_v_sigma=0.0)
    cells = sample_cells(spec, range(20))
    assert cells.g.shape == (20, 1)
    assert np.all(cells.v_set == spec.vset_mean)
    assert np.all(cells.v_reset == spec.vreset_mean)
    assert np.all(cells.kappa == spec.kappa_mean)
    assert np.all(cells.v_form == spec.forming_v_mean)


def test_sample_deterministic(spec):
    # a seed pins its device wherever it sits in the column
    alone = sample_cells(spec, [99])
    column = sample_cells(spec, [5, 99, 6])
    for name in ("g", "v_set", "v_reset", "kappa", "v_form", "formed",
                 "defect", "g_lo", "g_hi"):
        np.testing.assert_array_equal(getattr(column, name)[1],
                                      getattr(alone, name)[0])
    with pytest.raises(ConfigError):
        sample_cells(spec, [])


def test_sample_statistics():
    spec = DeviceSpec(vset_sigma=0.1)
    vs = sample_cells(spec, range(10_000)).v_set
    assert abs(vs.std() - 0.1) / 0.1 < 0.05
    assert abs(vs.mean() - spec.vset_mean) < 0.01


def test_sample_threshold_floor():
    spec = DeviceSpec(vset_mean=0.06, vset_sigma=0.2)
    assert sample_cells(spec, range(500)).v_set.min() >= 0.05


def test_sample_kappa_nonnegative():
    spec = DeviceSpec(kappa_mean=0.0, kappa_sigma=0.5)
    assert sample_cells(spec, range(500)).kappa.min() >= 0.0


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
    cell = make_cell(fast, 50e-6, v_set=1.0, v_reset=0.8)
    v_set_m, v_reset_m = extract_thresholds(cell, v_step=0.05)
    assert 1.0 <= v_set_m[0, 0] <= 1.0 + 3 * 0.05
    assert 0.8 <= v_reset_m[0, 0] <= 0.8 + 3 * 0.05


def test_extract_thresholds_stuck_fails(spec):
    cell = make_cell(spec, spec.g_max, defect=DefectKind.STUCK_ON)
    with pytest.raises(MeasurementError):
        extract_thresholds(cell)
    unformed = sample_cells(spec, [0])
    unformed.formed[:] = False
    with pytest.raises(FormingRequiredError):
        extract_thresholds(unformed)


@pytest.mark.parametrize("steps", [
    {"v_step": 0.0}, {"v_step": -0.05}, {"v_limit": 0.0},
])
def test_extract_thresholds_refuses_a_non_positive_staircase(spec, steps):
    with pytest.raises(ConfigError, match="v_step and v_limit must be "
                                          "positive"):
        extract_thresholds(make_cell(spec, 50e-6), **steps)


def test_extract_thresholds_faster_kinetics_not_higher(spec):
    base = dataclasses.replace(spec, beta_set=5e-3, beta_reset=5e-3)
    fast = dataclasses.replace(spec, beta_set=1e-2, beta_reset=1e-2)
    m_base = extract_thresholds(make_cell(base, 50e-6), v_step=0.05)
    m_fast = extract_thresholds(make_cell(fast, 50e-6), v_step=0.05)
    assert m_fast[0] <= m_base[0]
    assert m_fast[1] <= m_base[1]


def test_column_thresholds_equal_each_cell_alone():
    # a cell that has fired gets 0 V, which moves it by exactly nothing, so
    # measuring a column is measuring each of its cells on its own
    spec = DeviceSpec(vset_sigma=0.3, vreset_sigma=0.3, beta_set=5e-3)
    seeds = [[4, i] for i in range(24)]
    column = sample_cells(spec, seeds)
    m_set, m_reset = extract_thresholds(column, v_step=0.02, v_limit=2.5)
    assert len(np.unique(m_set)) > 5
    for i, seed in enumerate(seeds):
        alone = sample_cells(spec, [seed])
        a_set, a_reset = extract_thresholds(alone, v_step=0.02, v_limit=2.5)
        assert (m_set[i, 0], m_reset[i, 0]) == (a_set[0, 0], a_reset[0, 0])
        assert column.g[i, 0] == alone.g[0, 0]
