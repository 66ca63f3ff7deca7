"""Forming staircase and closed-loop write-verify tuning."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarnet import progtune
from xbarnet.crossbar import build_crossbar, inject_cell_defects
from xbarnet.device import DefectKind, DeviceSpec
from xbarnet.errors import ConfigError, DimensionError, FormingRequiredError
from xbarnet.progtune import (FormingConfig, TuneConfig, diagnose_defects,
                              form_array, image_to_targets,
                              import_conductance_map, tune_cell)


@pytest.fixture
def virgin(spec):
    return build_crossbar(20, 20, spec, seed=42, formed=False)


# --- forming ----------------------------------------------------------------

def test_forming_no_failures_all_auto():
    spec = DeviceSpec(forming_fail_prob=0.0)
    xbar = build_crossbar(20, 20, spec, seed=1, formed=False)
    out, rep = form_array(xbar, FormingConfig(), seed=2)
    assert rep.n_auto == 400
    assert rep.n_manual == 0 and rep.n_failed == 0
    assert np.all(out.formed)
    np.testing.assert_array_equal(out.g, out.g_lo)


def test_forming_manual_rate_binomial(virgin):
    # 400 draws at p=0.1: 95% of runs land within ~[28, 52] manual events
    _, rep = form_array(virgin, FormingConfig(), seed=3)
    assert 28 <= rep.n_manual <= 52
    assert rep.manual_rate == rep.n_manual / 400


def test_forming_modes_statistically_identical(virgin):
    # voltage- and current-pulse forming share one decision path: fig2's
    # two labelled runs differ only by their seed streams
    _, rep_v = form_array(virgin.copy(), FormingConfig(), seed=4)
    _, rep_i = form_array(virgin.copy(), FormingConfig(), seed=4)
    np.testing.assert_array_equal(rep_v.auto_mask, rep_i.auto_mask)
    np.testing.assert_array_equal(rep_v.manual_mask, rep_i.manual_mask)


def test_forming_skips_formed_cells(spec):
    xbar = build_crossbar(8, 8, spec, seed=5)  # formed at build
    out, rep = form_array(xbar.copy(), FormingConfig(), seed=6)
    assert rep.already_formed == 64
    assert rep.n_auto == 0 and rep.n_manual == 0
    np.testing.assert_array_equal(out.g, xbar.g)


def test_forming_voltage_on_staircase_grid(virgin):
    cfg = FormingConfig()
    _, rep = form_array(virgin, cfg, seed=7)
    formed = rep.auto_mask | rep.manual_mask
    v = rep.forming_v[formed]
    steps = (v - cfg.v_start) / cfg.v_step
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
    assert np.all(v >= virgin.v_form[formed] - 1e-9)
    assert np.all(v <= cfg.v_max + 1e-9)
    assert np.all(np.isnan(rep.forming_v[~formed]))


def test_forming_unreachable_cells_fail():
    spec = DeviceSpec(forming_v_mean=6.0, forming_v_sigma=0.0)
    xbar = build_crossbar(5, 5, spec, seed=8, formed=False)
    out, rep = form_array(xbar, FormingConfig(v_max=5.0), seed=9)
    assert rep.n_failed == 25
    assert not out.formed.any()


def test_forming_config_validation():
    with pytest.raises(ConfigError):
        FormingConfig(v_start=5.0, v_max=4.0)
    with pytest.raises(ConfigError):
        FormingConfig(v_step=0.0)


# --- single-cell tuning -----------------------------------------------------

def test_tune_target_already_met_zero_pulses(spec):
    xbar = build_crossbar(4, 4, spec, seed=10)
    xbar.g[1, 2] = 47e-6
    out, res = tune_cell(xbar, 1, 2, 47e-6, TuneConfig())
    assert res.ok and res.pulses == 0
    assert out.g[1, 2] == 47e-6


def test_tune_reaches_band(spec):
    cfg = TuneConfig()
    xbar = build_crossbar(4, 4, spec, seed=11)
    out, res = tune_cell(xbar, 0, 0, 70e-6, cfg)
    assert res.ok
    assert abs(res.rel_error) <= cfg.tolerance
    assert abs(out.g[0, 0] - 70e-6) / 70e-6 <= cfg.tolerance + 0.01


def test_tune_downward(spec):
    xbar = build_crossbar(4, 4, spec, seed=12)
    xbar.g[2, 2] = 90e-6
    out, res = tune_cell(xbar, 2, 2, 30e-6, TuneConfig())
    assert res.ok
    assert out.g[2, 2] < 90e-6


def test_tune_stuck_cell_reports_failure(spec):
    xbar = build_crossbar(4, 4, spec, seed=13)
    xbar.defect[3, 1] = DefectKind.STUCK_OFF
    _, res = tune_cell(xbar, 3, 1, 60e-6, TuneConfig())
    assert not res.ok
    assert res.stuck


def test_tune_validation(spec):
    xbar = build_crossbar(4, 4, spec, seed=14)
    with pytest.raises(ConfigError):
        tune_cell(xbar, 0, 0, 200e-6, TuneConfig())
    fresh = build_crossbar(4, 4, spec, seed=15, formed=False)
    with pytest.raises(FormingRequiredError):
        tune_cell(fresh, 0, 0, 50e-6, TuneConfig())
    with pytest.raises(ConfigError):
        TuneConfig(tolerance=0.0)
    with pytest.raises(ConfigError):
        TuneConfig(v_write_start=3.0, v_write_max=2.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31), st.floats(0.15, 0.85))
def test_tune_converges_when_thresholds_reachable(seed, frac):
    # write amplitude cap above every threshold in the array: the escalating
    # staircase must always find the responsiveness point and converge
    spec = DeviceSpec()
    xbar = build_crossbar(3, 3, spec, seed=seed)
    np.clip(xbar.v_set, None, 1.8, out=xbar.v_set)
    np.clip(xbar.v_reset, None, 1.8, out=xbar.v_reset)
    target = spec.g_min + frac * (spec.g_max - spec.g_min)
    _, res = tune_cell(xbar, 1, 1, target, TuneConfig(half_select=False))
    assert res.ok


# --- array import -----------------------------------------------------------

def test_import_fresh_array_to_gmin_needs_no_pulses(spec):
    xbar = build_crossbar(6, 6, spec, seed=17)
    out, rep = import_conductance_map(
        xbar.copy(), np.full((6, 6), spec.g_min), TuneConfig())
    assert np.array_equal(rep.ok_mask, ~rep.skipped_mask)
    assert rep.pulses.max() == 0
    np.testing.assert_array_equal(out.g, xbar.g)


def test_import_random_targets_converges(spec, rng):
    xbar = build_crossbar(8, 8, spec, seed=18)
    targets = rng.uniform(15e-6, 95e-6, (8, 8))
    out, rep = import_conductance_map(xbar, targets, TuneConfig())
    assert np.array_equal(rep.ok_mask, ~rep.skipped_mask)
    assert np.all(np.abs(rep.rel_error[~rep.skipped_mask]) <= 0.05)
    assert np.all(np.abs(out.g - targets) / targets <= 0.05)


def test_import_nan_skips(spec, rng):
    xbar = build_crossbar(5, 5, spec, seed=19)
    targets = rng.uniform(20e-6, 90e-6, (5, 5))
    targets[2, 2] = np.nan
    g_before = xbar.g[2, 2]
    out, rep = import_conductance_map(
        xbar, targets, TuneConfig(half_select=False))
    assert rep.skipped_mask[2, 2]
    assert out.g[2, 2] == g_before


def test_import_stuck_cells_fail_exactly(spec, rng):
    xbar = build_crossbar(6, 6, spec, seed=20)
    picks = [(0, 1), (1, 4), (2, 2), (4, 0), (5, 5)]
    for r, c in picks:
        xbar.defect[r, c] = DefectKind.STUCK_ON
        xbar.g[r, c] = xbar.g_hi[r, c]
    targets = rng.uniform(30e-6, 80e-6, (6, 6))
    _, rep = import_conductance_map(xbar, targets, TuneConfig())
    assert rep.n_failed == 5
    failed = ~rep.skipped_mask & ~rep.ok_mask
    assert sorted(map(tuple, np.argwhere(failed).tolist())) == sorted(picks)
    assert np.array_equal(rep.stuck_mask, failed)


def test_import_parallel_converges(spec, rng):
    xbar = build_crossbar(10, 10, spec, seed=21)
    targets = rng.uniform(15e-6, 95e-6, (10, 10))
    out, rep = import_conductance_map(
        xbar, targets, TuneConfig(half_select=False))
    assert np.array_equal(rep.ok_mask, ~rep.skipped_mask)
    assert np.all(np.abs(out.g - targets) / targets <= 0.05)


@pytest.mark.parametrize("seed", range(5))
def test_parallel_import_is_tune_cell_per_cell(seed):
    # the parallel import runs tune_cell's decision rule on every cell at
    # once: without half-select, tune_cell walked row-major over the live
    # cells lands on the same array, pulse counts and stuck flags exactly
    spec = DeviceSpec()
    cfg = TuneConfig(half_select=False, max_pulses=300)
    fresh = build_crossbar(12, 9, spec, seed=[seed, 0])
    xbar = inject_cell_defects(fresh, 0.05, 0.05, seed=[seed, 1])
    rng = np.random.default_rng([seed, 2])
    targets = rng.uniform(15e-6, 95e-6, xbar.g.shape)
    targets[rng.random(xbar.g.shape) < 0.1] = np.nan
    parallel, rep = import_conductance_map(xbar.copy(), targets, cfg)

    walked = xbar.copy()
    pulses = np.zeros(xbar.g.shape, dtype=np.int64)
    stuck = np.zeros(xbar.g.shape, dtype=bool)
    for r, c in np.argwhere(np.isfinite(targets)):
        _, res = tune_cell(walked, r, c, targets[r, c], cfg)
        pulses[r, c], stuck[r, c] = res.pulses, res.stuck
    assert stuck.any() and rep.ok_mask.any()
    np.testing.assert_array_equal(parallel.g, walked.g)
    np.testing.assert_array_equal(rep.pulses, pulses)
    np.testing.assert_array_equal(rep.stuck_mask, stuck)


def test_blocked_parallel_import_is_tune_cell_per_cell():
    # the parallel import runs one row block at a time; on an array taller
    # than a block, whose row count is not a multiple of it, with stuck
    # cells in several blocks, the report still equals tune_cell walked
    # row-major over the live cells, failed cells included
    spec = DeviceSpec()
    cfg = TuneConfig(half_select=False, max_pulses=200)
    block = progtune._IMPORT_BLOCK_ROWS
    rows = 2 * block + 5
    xbar = build_crossbar(rows, 9, spec, seed=[7, 0])
    rng = np.random.default_rng([7, 2])
    targets = rng.uniform(15e-6, 95e-6, xbar.g.shape)
    targets[rng.random(xbar.g.shape) < 0.1] = np.nan
    for r, c, kind in ((1, 4, DefectKind.STUCK_ON),
                       (block + 3, 0, DefectKind.STUCK_OFF),
                       (2 * block + 4, 8, DefectKind.STUCK_ON)):
        xbar.defect[r, c] = kind
        xbar.g[r, c] = xbar.g_hi[r, c] if kind == DefectKind.STUCK_ON \
            else xbar.g_lo[r, c]
        targets[r, c] = 50e-6
    parallel, rep = import_conductance_map(xbar.copy(), targets, cfg)

    walked = xbar.copy()
    shape = xbar.g.shape
    pulses = np.zeros(shape, dtype=np.int64)
    stuck = np.zeros(shape, dtype=bool)
    ok = np.zeros(shape, dtype=bool)
    rel_error = np.full(shape, np.nan)
    failed = []
    for r, c in np.argwhere(np.isfinite(targets)):
        _, res = tune_cell(walked, r, c, targets[r, c], cfg)
        pulses[r, c], stuck[r, c], ok[r, c] = res.pulses, res.stuck, res.ok
        rel_error[r, c] = res.rel_error
        if not res.ok:
            failed.append([int(r), int(c)])
    assert {r // block for r, _ in np.argwhere(stuck)} == {0, 1, 2}
    np.testing.assert_array_equal(parallel.g, walked.g)
    np.testing.assert_array_equal(rep.pulses, pulses)
    np.testing.assert_array_equal(rep.stuck_mask, stuck)
    np.testing.assert_array_equal(rep.ok_mask, ok)
    np.testing.assert_array_equal(rep.rel_error, rel_error)
    assert rep.n_failed == len(failed)
    assert np.argwhere(~rep.skipped_mask & ~rep.ok_mask).tolist() == failed


def test_import_validation(spec, rng):
    xbar = build_crossbar(4, 4, spec, seed=22)
    with pytest.raises(DimensionError):
        import_conductance_map(xbar, np.zeros((3, 3)), TuneConfig())
    bad = np.full((4, 4), 50e-6)
    bad[0, 0] = 500e-6
    with pytest.raises(ConfigError):
        import_conductance_map(xbar, bad, TuneConfig())
    fresh = build_crossbar(4, 4, spec, seed=23, formed=False)
    with pytest.raises(FormingRequiredError):
        import_conductance_map(fresh, np.full((4, 4), 50e-6), TuneConfig())


# --- defect diagnosis -------------------------------------------------------

def test_diagnose_recovers_stuck_map(spec):
    xbar = build_crossbar(6, 6, spec, seed=24)
    xbar.g[:] = 50e-6
    truth = np.zeros((6, 6), dtype=np.int8)
    for r, c, kind in ((0, 3, DefectKind.STUCK_ON),
                       (2, 5, DefectKind.STUCK_OFF),
                       (4, 1, DefectKind.STUCK_ON)):
        xbar.defect[r, c] = kind
        xbar.g[r, c] = xbar.g_hi[r, c] if kind == DefectKind.STUCK_ON \
            else xbar.g_lo[r, c]
        truth[r, c] = kind
    _, flags = diagnose_defects(xbar, TuneConfig())
    np.testing.assert_array_equal(flags, truth)
    assert (flags != DefectKind.NONE).sum() == 3


def test_diagnose_healthy_array_clean(spec):
    xbar = build_crossbar(5, 5, spec, seed=25)
    _, flags = diagnose_defects(xbar, TuneConfig())
    assert (flags == DefectKind.NONE).all()


def test_diagnose_skips_an_unformed_cell(spec):
    # a probe pulse on a never-formed cell raises FormingRequiredError, so
    # the cell is left unprobed, unmoved and unflagged
    xbar = build_crossbar(3, 3, spec, seed=26)
    xbar.formed[1, 1] = False
    out, flags = diagnose_defects(xbar.copy(), TuneConfig())
    assert (flags == DefectKind.NONE).all()
    assert out.g[1, 1] == xbar.g[1, 1]


def test_diagnose_a_healthy_cell_at_its_upper_bound_is_not_stuck(spec):
    # the set staircase cannot raise a cell sitting at g_hi; the reset
    # staircase moves it, so it is healthy, not stuck on
    xbar = build_crossbar(3, 3, spec, seed=27)
    xbar.g[1, 1] = xbar.g_hi[1, 1]
    out, flags = diagnose_defects(xbar, TuneConfig())
    assert (flags == DefectKind.NONE).all()
    assert out.g[1, 1] < xbar.g_hi[1, 1]


# --- grayscale mapping ------------------------------------------------------

def test_image_to_targets_endpoints():
    # black (level 0) -> 7 kOhm -> 142.9 uS; white (255) -> 84 kOhm -> 11.9 uS
    g = image_to_targets(np.array([[0.0, 255.0]]), 84e3, 7e3)
    assert g[0, 0] == pytest.approx(1 / 7e3)
    assert g[0, 1] == pytest.approx(1 / 84e3)
    assert g[0, 0] == pytest.approx(142.9e-6, rel=1e-3)
    assert g[0, 1] == pytest.approx(11.9e-6, rel=1e-3)


def test_image_to_targets_midpoint_resistance_linear():
    g = image_to_targets(np.array([127.5]), 84e3, 7e3)
    assert 1.0 / g[0] == pytest.approx((7e3 + 84e3) / 2)


def test_image_to_targets_validation():
    with pytest.raises(ConfigError):
        image_to_targets(np.array([300.0]), 84e3, 7e3)
    with pytest.raises(ConfigError):
        image_to_targets(np.array([10.0]), -1.0, 7e3)
