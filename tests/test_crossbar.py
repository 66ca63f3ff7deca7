"""Array-level read/write paths, defect injection, bound variation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarnet import crossbar
from xbarnet.crossbar import (Crossbar, _pulse_cells, build_crossbar,
                              inject_cell_defects, measure_maps,
                              pulse_all, threshold_minima, vary_bounds,
                              vmm_currents_batch, write_pulse)
from xbarnet.device import DefectKind, DeviceSpec
from xbarnet.errors import (ConfigError, DimensionError, FormingRequiredError,
                            ReadRegimeError)


def dense_vmm(xbar, v, t=None):
    """Independent per-cell loop oracle for the read path."""
    from xbarnet import device as dev
    out = np.zeros(xbar.cols)
    for i in range(xbar.rows):
        for j in range(xbar.cols):
            g = dev.effective_conductance(xbar.g[i, j], xbar.spec, t)
            out[j] += g * v[i] * (1.0 + xbar.kappa[i, j] * v[i])
    return out


@pytest.fixture
def xbar20(spec):
    b = build_crossbar(20, 20, spec, seed=7)
    rng = np.random.default_rng(3)
    b.g[:] = rng.uniform(spec.g_min, spec.g_max, b.g.shape)
    return b


def test_build_shape_and_count(spec):
    b = build_crossbar(20, 20, spec, seed=0)
    assert b.rows == 20 and b.cols == 20
    assert b.g.size == 400
    assert np.all(b.g == spec.g_min)
    assert np.all(b.formed)


def test_build_seed_pins_array(spec):
    a = build_crossbar(8, 8, spec, seed=5)
    b = build_crossbar(8, 8, spec, seed=5)
    np.testing.assert_array_equal(a.v_set, b.v_set)
    np.testing.assert_array_equal(a.kappa, b.kappa)


def test_build_rejects_bad_dims(spec):
    with pytest.raises(ConfigError):
        build_crossbar(0, 4, spec, seed=0)


def test_vmm_matches_dense_oracle(xbar20):
    # one input vector is a one-row batch; the oracle sums term by term,
    # with and without thermal drift
    rng = np.random.default_rng(11)
    v = rng.uniform(-0.2, 0.2, xbar20.rows)
    for t in (None, 45.0):
        got = vmm_currents_batch(xbar20, v[None], t=t)[0]
        want = dense_vmm(xbar20, v, t=t)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9


def test_vmm_batch_consistent(xbar20):
    # each row of a batch reads as that row alone, and as the sum of the
    # device law's per-cell terms
    from xbarnet import device as dev
    rng = np.random.default_rng(12)
    vb = rng.uniform(-0.2, 0.2, (6, xbar20.rows))
    got = vmm_currents_batch(xbar20, vb)
    for k in range(6):
        one = vmm_currents_batch(xbar20, vb[k:k + 1])[0]
        np.testing.assert_allclose(got[k], one, rtol=1e-12)
        terms = dev.read_terms(xbar20.g, xbar20.kappa, vb[k][:, None],
                               xbar20.spec)
        np.testing.assert_allclose(got[k], terms.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(one, dense_vmm(xbar20, vb[k]),
                                   rtol=1e-9, atol=1e-15)


def test_vmm_homogeneous_when_linear(ideal_spec):
    # kappa=0 array: I(a*v) == a*I(v)
    b = build_crossbar(10, 10, ideal_spec, seed=2)
    b.g[:] = np.random.default_rng(4).uniform(10e-6, 100e-6, b.g.shape)
    v = np.random.default_rng(5).uniform(-0.1, 0.1, (1, 10))
    np.testing.assert_allclose(vmm_currents_batch(b, 2 * v),
                               2 * vmm_currents_batch(b, v), rtol=1e-12)


def test_vmm_read_regime(xbar20):
    v = np.full((1, xbar20.rows), 0.7)
    with pytest.raises(ReadRegimeError):
        vmm_currents_batch(xbar20, v)


def test_vmm_read_regime_rejects_nan(xbar20):
    v = np.full(xbar20.rows, 0.2)
    v[3] = np.nan
    with pytest.raises(ReadRegimeError):
        vmm_currents_batch(xbar20, v[None])
    with pytest.raises(ReadRegimeError):
        vmm_currents_batch(xbar20, np.vstack([np.full(xbar20.rows, 0.1), v]))


def test_vmm_shape_errors(xbar20):
    # a bare vector is not a batch, and a batch row must span every row
    with pytest.raises(DimensionError):
        vmm_currents_batch(xbar20, np.zeros(xbar20.rows))
    with pytest.raises(DimensionError):
        vmm_currents_batch(xbar20, np.zeros((1, 5)))
    with pytest.raises(DimensionError):
        vmm_currents_batch(xbar20, np.zeros((3, 5)))


def test_vmm_noise_zero_mean(xbar20):
    # every device term fluctuates as N(1, sigma): each column read is
    # centred on the clean current with spread sigma * sqrt(sum term^2)
    n, sigma = 4000, 0.05
    v = np.random.default_rng(8).uniform(-0.2, 0.2, xbar20.rows)
    clean = dense_vmm(xbar20, v)
    terms = xbar20.g * v[:, None] * (1.0 + xbar20.kappa * v[:, None])
    spread = sigma * np.sqrt(np.sum(terms * terms, axis=0))
    reads = vmm_currents_batch(xbar20, np.tile(v, (n, 1)), noise_sigma=sigma,
                               rng=np.random.default_rng(9))
    assert np.all(np.abs(reads.mean(axis=0) - clean)
                  < 4.0 * spread / np.sqrt(n))
    np.testing.assert_allclose(reads.std(axis=0), spread, rtol=0.05)


def test_measure_maps_ideal_exact(ideal_spec):
    b = build_crossbar(6, 6, ideal_spec, seed=1)
    b.g[:] = np.random.default_rng(9).uniform(10e-6, 100e-6, b.g.shape)
    g_map, asym = measure_maps(b)
    np.testing.assert_array_equal(g_map, b.g)
    np.testing.assert_array_equal(asym, np.zeros_like(asym))


def test_measure_maps_asymmetry_value(spec):
    # kappa 0.25 at 0.2 V: the one-polarity read reports g * (1 + kappa*v)
    # = 1.05 g, and the asymmetry is 100*(1.05-0.95)/1.05 ~ 9.52%
    b = build_crossbar(2, 2, spec, seed=0)
    b.g[:] = 80e-6
    b.kappa[:] = 0.25
    g_map, asym = measure_maps(b)
    np.testing.assert_allclose(g_map, 80e-6 * 1.05, rtol=1e-12)
    np.testing.assert_allclose(asym, 100 * (1.05 - 0.95) / 1.05, rtol=1e-12)


def test_write_pulse_moves_target(spec):
    b = build_crossbar(5, 5, spec, seed=3)
    out = write_pulse(b.copy(), 2, 3, 2.5, 1e-3)
    assert out.g[2, 3] > b.g[2, 3]
    assert out is not b


def test_write_pulse_locality(spec):
    # half-select touches at most the addressed row and column
    b = build_crossbar(8, 8, spec, seed=6)
    b.g[:] = 50e-6
    out = write_pulse(b.copy(), 4, 1, 2.8, 1e-2)
    changed = out.g != b.g
    rows_idx, cols_idx = np.nonzero(changed)
    assert changed.sum() <= 8 + 8 - 1
    assert np.all((rows_idx == 4) | (cols_idx == 1))


def test_write_pulse_half_select_off(spec):
    b = build_crossbar(8, 8, spec, seed=6)
    b.g[:] = 50e-6
    out = write_pulse(b.copy(), 4, 1, 2.8, 1e-2, half_select=False)
    changed = out.g != b.g
    assert changed.sum() == 1
    assert changed[4, 1]


def test_write_pulse_unformed(spec):
    b = build_crossbar(4, 4, spec, seed=0, formed=False)
    with pytest.raises(FormingRequiredError):
        write_pulse(b, 1, 1, 2.0, 1e-3)


@pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
def test_write_pulse_rejects_non_finite_amplitude(spec, v):
    b = build_crossbar(4, 4, spec, seed=0)
    g0 = b.g.copy()
    with pytest.raises(ConfigError, match="amplitude must be finite"):
        write_pulse(b, 1, 1, v, 5e-3)
    np.testing.assert_array_equal(b.g, g0)


@pytest.mark.parametrize("call, error, message", [
    (lambda b: dataclasses.replace(b, g_lo=b.g_lo[:2]),
     DimensionError, "field g_lo does not match"),
    (lambda b: write_pulse(b, 4, 0, 1.5, 5e-3), DimensionError,
     r"cell \(4, 0\) outside a 4x4 array"),
    (lambda b: write_pulse(b, 1, 1, 1.5, 0.0), ConfigError,
     "pulse width must be positive"),
    (lambda b: pulse_all(b, np.zeros((4, 3)), 5e-3), DimensionError,
     "pulse pattern shape"),
    (lambda b: pulse_all(b, np.zeros((4, 4)), -1e-3), ConfigError,
     "pulse width must be positive"),
    (lambda b: measure_maps(b, v_read=0.0), ConfigError,
     "v_read must be positive"),
    (lambda b: vary_bounds(b, -0.1, seed=0), ConfigError,
     "bounds sigma must be non-negative"),
], ids=["field-shape", "cell-index", "write-width", "pattern-shape",
        "pulse-all-width", "read-voltage", "bounds-sigma"])
def test_array_entry_points_refuse_bad_input(spec, call, error, message):
    b = build_crossbar(4, 4, spec, seed=0)
    g0 = b.g.copy()
    with pytest.raises(error, match=message):
        call(b)
    np.testing.assert_array_equal(b.g, g0)


def whole_line_write_pulse(xbar, row, col, v, width, half_select=True):
    """Oracle: the write_pulse body that pulsed every row and column
    neighbour through the whole-array path, skipping nothing."""
    if half_select:
        row_cols = np.r_[0:col, col + 1:xbar.cols]
        col_rows = np.r_[0:row, row + 1:xbar.rows]
        _pulse_cells(xbar, np.full(row_cols.shape, row), row_cols, v / 2.0, width)
        _pulse_cells(xbar, col_rows, np.full(col_rows.shape, col), v / 2.0, width)
    _pulse_cells(xbar, np.array([row]), np.array([col]), v, width)
    return xbar


NORMAL, STUCK_ON, STUCK_OFF, UNFORMED = range(4)


@st.composite
def pulsed_arrays(draw):
    """A small array with stuck-on, stuck-off and unformed cells and varied
    bounds, plus a sequence of pulses at normal cells: (row, col, v, width,
    half_select).  Some amplitudes sit exactly at twice a neighbour's
    threshold, the edge of the skip."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    kinds = np.array(draw(st.lists(
        st.sampled_from([NORMAL, NORMAL, STUCK_ON, STUCK_OFF, UNFORMED]),
        min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    targets = list(zip(*np.nonzero(kinds == NORMAL)))
    if not targets:
        kinds[0, 0] = NORMAL
        targets = [(0, 0)]
    b = build_crossbar(rows, cols, DeviceSpec(vset_sigma=0.3,
                                              vreset_sigma=0.3), seed=seed)
    b.defect[kinds == STUCK_ON] = DefectKind.STUCK_ON
    b.defect[kinds == STUCK_OFF] = DefectKind.STUCK_OFF
    b = vary_bounds(b, draw(st.sampled_from([0.0, 0.1, 0.3])), seed)
    rng = np.random.default_rng(seed)
    live = kinds == NORMAL
    b.g[live] = rng.uniform(b.g_lo, b.g_hi)[live]
    b.formed[kinds == UNFORMED] = False
    b.g[kinds == UNFORMED] = b.spec.g_virgin
    pulses = []
    for _ in range(draw(st.integers(1, 30))):
        row, col = draw(st.sampled_from(targets))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if draw(st.booleans()):
            amp = draw(st.floats(0.0, 2.5))
        else:
            thresholds = b.v_set if sign > 0 else b.v_reset
            amp = 2.0 * draw(st.sampled_from(
                list(thresholds[row]) + list(thresholds[:, col])))
        pulses.append((int(row), int(col), sign * amp,
                       draw(st.sampled_from([1e-3, 5e-3, 2e-2])),
                       draw(st.booleans())))
    return b, pulses


@settings(max_examples=200, deadline=None)
@given(pulsed_arrays())
def test_write_pulse_equals_whole_line_oracle(case):
    xbar, pulses = case
    oracle = xbar.copy()
    for row, col, v, width, half_select in pulses:
        write_pulse(xbar, row, col, v, width, half_select=half_select)
        whole_line_write_pulse(oracle, row, col, v, width, half_select)
        assert np.array_equal(xbar.g, oracle.g)


@settings(max_examples=200, deadline=None)
@given(pulsed_arrays())
def test_write_pulse_with_minima_equals_whole_line_oracle(case):
    # pulses never change thresholds, so minima built once, before the
    # sequence, serve every pulse of it
    xbar, pulses = case
    oracle = xbar.copy()
    minima = threshold_minima(xbar)
    for row, col, v, width, half_select in pulses:
        write_pulse(xbar, row, col, v, width, half_select=half_select,
                    minima=minima)
        whole_line_write_pulse(oracle, row, col, v, width, half_select)
        assert np.array_equal(xbar.g, oracle.g)
    assert threshold_minima(xbar) == minima


def test_write_pulse_sees_a_changed_threshold(spec):
    # nothing about the array is kept between pulses: a neighbour whose
    # threshold drops below v/2 is disturbed by the very next pulse
    b = build_crossbar(4, 4, spec, seed=0)
    b.g[:] = 50e-6
    b.v_set[:] = 1.5
    write_pulse(b, 1, 1, 2.0, 5e-3)
    assert b.g[1, 3] == 50e-6
    b.v_set[1, 3] = 0.5
    write_pulse(b, 1, 1, 2.0, 5e-3)
    assert b.g[1, 3] > 50e-6
    b.v_reset = np.full(b.g.shape, 0.5)
    write_pulse(b, 1, 1, -2.0, 5e-3)
    assert b.g[3, 1] < 50e-6


def test_pulse_all_pattern(spec):
    b = build_crossbar(4, 4, spec, seed=8)
    b.g[:] = 50e-6
    v = np.zeros((4, 4))
    v[0, 0] = 2.0
    v[3, 3] = -2.0
    out = pulse_all(b.copy(), v, 1e-3)
    assert out.g[0, 0] > 50e-6
    assert out.g[3, 3] < 50e-6
    mask = np.ones((4, 4), bool)
    mask[0, 0] = mask[3, 3] = False
    np.testing.assert_array_equal(out.g[mask], b.g[mask])


def test_inject_defect_counts(xbar20):
    out = inject_cell_defects(xbar20, 0.1, 0.0, seed=13)
    assert out is xbar20  # the array it is given, changed in place
    assert (out.defect != DefectKind.NONE).sum() == 40
    assert (out.defect == DefectKind.STUCK_ON).sum() == 40
    assert np.all(out.g[out.defect == DefectKind.STUCK_ON]
                  == out.g_hi[out.defect == DefectKind.STUCK_ON])


def test_inject_defect_disjoint(xbar20):
    out = inject_cell_defects(xbar20, 0.05, 0.05, seed=14)
    on = out.defect == DefectKind.STUCK_ON
    off = out.defect == DefectKind.STUCK_OFF
    assert on.sum() == 20 and off.sum() == 20
    assert not np.any(on & off)


def test_inject_defect_validation(xbar20):
    with pytest.raises(ConfigError):
        inject_cell_defects(xbar20, 0.7, 0.7, seed=0)
    with pytest.raises(ConfigError):
        inject_cell_defects(xbar20, -0.1, 0.0, seed=0)


def test_stuck_cells_ignore_pulses(spec):
    b = build_crossbar(6, 6, spec, seed=2)
    b.g[:] = 50e-6
    out = inject_cell_defects(b, 0.2, 0.2, seed=3)
    frozen = out.defect != DefectKind.NONE
    before = out.g[frozen].copy()
    hit = pulse_all(out, np.full((6, 6), 2.5), 1e-2)
    np.testing.assert_array_equal(hit.g[frozen], before)
    hit = pulse_all(hit, np.full((6, 6), -2.5), 1e-2)
    np.testing.assert_array_equal(hit.g[frozen], before)


def test_vary_bounds_zero_sigma_noop(xbar20):
    out = vary_bounds(xbar20.copy(), 0.0, seed=1)
    np.testing.assert_array_equal(out.g_lo, xbar20.g_lo)
    np.testing.assert_array_equal(out.g_hi, xbar20.g_hi)


def test_vary_bounds_window_invariants(xbar20):
    out = vary_bounds(xbar20, 0.6, seed=21)
    gap = 0.1 * (xbar20.spec.g_max - xbar20.spec.g_min)
    assert np.all(out.g_lo > 0)
    assert np.all(out.g_hi - out.g_lo >= gap * (1 - 1e-12))
    assert np.all(out.g >= out.g_lo) and np.all(out.g <= out.g_hi)


def test_vary_bounds_keeps_stuck_pinned(xbar20):
    hurt = inject_cell_defects(xbar20, 0.1, 0.1, seed=5)
    out = vary_bounds(hurt, 0.3, seed=6)
    on = out.defect == DefectKind.STUCK_ON
    off = out.defect == DefectKind.STUCK_OFF
    np.testing.assert_array_equal(out.g[on], out.g_hi[on])
    np.testing.assert_array_equal(out.g[off], out.g_lo[off])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 2**31))
def test_random_vmm_against_oracle(rows, cols, seed):
    spec = DeviceSpec()
    b = build_crossbar(rows, cols, spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    b.g[:] = rng.uniform(spec.g_min, spec.g_max, b.g.shape)
    v = rng.uniform(-0.2, 0.2, rows)
    np.testing.assert_allclose(vmm_currents_batch(b, v[None])[0],
                               dense_vmm(b, v), rtol=1e-9, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.floats(0.0, 1.0))
def test_pulse_all_bounds_property(seed, frac):
    spec = DeviceSpec()
    b = build_crossbar(5, 5, spec, seed=seed)
    rng = np.random.default_rng(seed)
    b.g[:] = rng.uniform(spec.g_min, spec.g_max, b.g.shape)
    v = rng.uniform(-3, 3, b.g.shape) * frac
    out = pulse_all(b, v, 1e-2)
    assert np.all(out.g >= out.g_lo) and np.all(out.g <= out.g_hi)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3 * crossbar._PULSE_BLOCK_ROWS), st.integers(1, 6),
       st.integers(0, 2**31))
def test_blocked_pulse_all_equals_one_whole_array_call(rows, cols, seed):
    # pulse_all sends its map through _pulse_cells a few rows at a time;
    # that must equal one whole-array call bit for bit, on maps with zeros,
    # both polarities, stuck cells and unformed cells, whether or not the
    # row count is a multiple of the block
    spec = DeviceSpec()
    b = build_crossbar(rows, cols, spec, seed=seed)
    rng = np.random.default_rng(seed)
    b.g[:] = rng.uniform(spec.g_min, spec.g_max, b.g.shape)
    b = inject_cell_defects(b, 0.1, 0.1, seed=[seed, 1])
    b.formed[rng.random(b.g.shape) < 0.1] = False
    v = rng.uniform(-3, 3, b.g.shape)
    v[rng.random(b.g.shape) < 0.3] = 0.0
    want = b.copy()
    _pulse_cells(want, slice(None), slice(None), v, 1e-2)
    got = pulse_all(b, v, 1e-2)
    np.testing.assert_array_equal(got.g, want.g)

