"""Two-crossbar perceptron: mapping, assembly, inference."""

import numpy as np
import pytest

from xbarnet.bench import letter_dataset
from xbarnet.device import DeviceSpec
from xbarnet.errors import ConfigError, DimensionError, ReadRegimeError
from xbarnet.network import (NetworkConfig, assemble, classify,
                             drive_voltages, evaluate, forward,
                             interleave_pairs, map_weights, pair_difference)
from xbarnet.neuron import NeuronParams


def ideal_net(config=None, seed=0):
    spec = DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0,
                      kappa_mean=0.0, kappa_sigma=0.0)
    return assemble(config or NetworkConfig(), spec, seed)


def set_weights(net, w1, w2):
    """Program exact unit weights through the ideal mapping."""
    for xbar, w, scale in ((net.xbar1, w1, net.weight_scale1),
                           (net.xbar2, w2, net.weight_scale2)):
        gp, gm, _ = map_weights(w, xbar.spec.g_min, xbar.spec.g_max,
                                scale=scale)
        xbar.g[:] = interleave_pairs(gp, gm)
    return net


def read_weights(net):
    """Unit weights read back from both conductance grids."""
    return (pair_difference(net.xbar1.g) / net.weight_scale1,
            pair_difference(net.xbar2.g) / net.weight_scale2)


# --- weight mapping ---------------------------------------------------------

def test_map_weights_zero_is_midrange():
    gp, gm, scale = map_weights(np.array([[0.0, 1.0]]), 10e-6, 100e-6)
    assert gp[0, 0] == pytest.approx(55e-6)
    assert gm[0, 0] == pytest.approx(55e-6)


def test_map_weights_extreme_hits_rails():
    gp, gm, _ = map_weights(np.array([[1.0, -1.0, 0.5]]), 10e-6, 100e-6)
    assert gp[0, 0] == pytest.approx(100e-6)
    assert gm[0, 0] == pytest.approx(10e-6)
    assert gp[0, 1] == pytest.approx(10e-6)
    assert gm[0, 1] == pytest.approx(100e-6)


def test_map_weights_roundtrip():
    rng = np.random.default_rng(2)
    w = rng.uniform(-1.7, 1.7, (6, 4))
    gp, gm, scale = map_weights(w, 10e-6, 100e-6)
    np.testing.assert_allclose((gp - gm) / scale, w, rtol=1e-12)


def test_map_weights_fixed_scale_clamps():
    gp, gm, scale = map_weights(np.array([[10.0]]), 10e-6, 100e-6,
                                scale=9e-6)
    assert scale == 9e-6
    assert gp[0, 0] == 100e-6 and gm[0, 0] == 10e-6


def test_map_weights_all_zero_warns():
    with pytest.warns(RuntimeWarning):
        gp, gm, scale = map_weights(np.zeros((2, 2)), 10e-6, 100e-6)
    assert scale == 0.0
    np.testing.assert_allclose(gp, 55e-6)


def test_map_weights_validation():
    with pytest.raises(ConfigError):
        map_weights(np.array([[np.inf]]), 10e-6, 100e-6)
    with pytest.raises(ConfigError):
        map_weights(np.zeros((1, 1)), 100e-6, 10e-6)


def test_interleave_pair_inverse():
    rng = np.random.default_rng(3)
    gp = rng.uniform(10e-6, 100e-6, (5, 7))
    gm = rng.uniform(10e-6, 100e-6, (5, 7))
    grid = interleave_pairs(gp, gm)
    assert grid.shape == (5, 14)
    np.testing.assert_array_equal(grid[:, 0::2], gp)
    np.testing.assert_array_equal(pair_difference(grid), gp - gm)
    with pytest.raises(DimensionError):
        pair_difference(np.zeros((2, 5)))


# --- assembly ---------------------------------------------------------------

def test_device_count_letter_task():
    # 17x20 first array plus 11x8 second: 428 devices
    cfg = NetworkConfig()
    assert (cfg.rows1, cfg.cols1) == (17, 20)
    assert (cfg.rows2, cfg.cols2) == (11, 8)
    assert cfg.device_count == 428


def test_config_rejects_inconsistent_portions():
    with pytest.raises(DimensionError):
        NetworkConfig(rows1=16)
    cfg = NetworkConfig(rows1=17, cols1=20)  # explicit and consistent
    assert cfg.device_count == 428


def test_config_portions_must_be_integers():
    # build_crossbar needs integers, so an integral float fails here, as a
    # config error, not later as a bare TypeError
    with pytest.raises(ConfigError, match="rows1"):
        NetworkConfig(rows1=17.0)
    for rows1 in (17, np.int64(17)):
        cfg = NetworkConfig(rows1=rows1)
        assert assemble(cfg, DeviceSpec(), seed=0).xbar1.g.shape == (17, 20)


def test_digit_scale_config():
    cfg = NetworkConfig(n_inputs=784, n_hidden=300, n_outputs=10)
    assert (cfg.rows1, cfg.cols1) == (785, 600)
    assert (cfg.rows2, cfg.cols2) == (301, 20)
    net = assemble(cfg, DeviceSpec(), seed=1)
    assert net.xbar1.g.shape == (785, 600)


def test_assemble_deterministic():
    a = assemble(NetworkConfig(), DeviceSpec(), seed=5)
    b = assemble(NetworkConfig(), DeviceSpec(), seed=5)
    np.testing.assert_array_equal(a.xbar1.v_set, b.xbar1.v_set)
    np.testing.assert_array_equal(a.xbar2.kappa, b.xbar2.kappa)


def test_assemble_independent_arrays():
    # second array's population must not shift when the first grows
    small = assemble(NetworkConfig(), DeviceSpec(), seed=4)
    big = assemble(NetworkConfig(n_inputs=32, rows1=33), DeviceSpec(), seed=4)
    np.testing.assert_array_equal(small.xbar2.v_set, big.xbar2.v_set)


def test_assemble_output_params_checked():
    with pytest.raises(ConfigError):
        assemble(NetworkConfig(), DeviceSpec(), seed=0,
                 output_params=NeuronParams())


def test_effective_weights_roundtrip():
    # the 1/r_f scale represents |w| up to (g_max-g_min)*r_f = 0.18; stay
    # inside that box so nothing clamps at the rails
    rng = np.random.default_rng(6)
    net = ideal_net(seed=2)
    w1 = rng.uniform(-0.17, 0.17, (17, 10))
    w2 = rng.uniform(-0.17, 0.17, (11, 4))
    set_weights(net, w1, w2)
    got1, got2 = read_weights(net)
    np.testing.assert_allclose(got1, w1, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got2, w2, rtol=1e-10, atol=1e-12)


# --- inference --------------------------------------------------------------

def software_forward_oracle(net, levels):
    """Plain numpy forward math for ideal devices at scale 1/r_f."""
    w1, w2 = read_weights(net)
    hp, op = net.hidden_neurons.params, net.output_neurons.params
    v = net.config.input_voltage * np.atleast_2d(levels)
    v = np.hstack([v, np.full((v.shape[0], 1), net.config.input_voltage)])
    vd1 = v @ w1
    hidden = np.clip(hp.gain * vd1, -hp.v_sat, hp.v_sat) \
        * (hp.out_swing / hp.v_sat)
    v2 = np.hstack([hidden,
                    np.full((hidden.shape[0], 1), net.config.input_voltage)])
    vd2 = v2 @ w2
    return np.clip(op.gain * vd2, -op.v_sat, op.v_sat)


def test_hardware_matches_software_on_ideal_devices():
    rng = np.random.default_rng(8)
    net = ideal_net(seed=3)
    set_weights(net, rng.uniform(-1, 1, (17, 10)), rng.uniform(-1, 1, (11, 4)))
    levels = rng.choice([-1.0, 1.0], (25, 16))
    trace = forward(net, levels)
    want = software_forward_oracle(net, levels)
    assert np.max(np.abs(trace.output - want)) < 1e-9


def test_all_midrange_ties_to_class_zero():
    net = ideal_net(seed=1)
    mid = 0.5 * (net.xbar1.spec.g_min + net.xbar1.spec.g_max)
    net.xbar1.g[:] = mid
    net.xbar2.g[:] = mid
    out = forward(net, np.ones((1, 16))).output
    assert classify(out)[0] == 0
    np.testing.assert_allclose(out[0], out[0, 0])


def test_hidden_drive_stays_in_read_window():
    rng = np.random.default_rng(9)
    net = ideal_net(seed=7)
    set_weights(net, rng.uniform(-2, 2, (17, 10)), rng.uniform(-1, 1, (11, 4)))
    trace = forward(net, rng.choice([-1.0, 1.0], (200, 16)))
    swing = net.hidden_neurons.params.out_swing
    assert np.max(np.abs(trace.hidden)) <= swing + 1e-15
    assert np.max(np.abs(trace.v_in2)) <= max(swing,
                                              net.config.input_voltage)


def test_inference_never_disturbs_weights():
    # 10^4 read passes with out_swing 0.2 V and thresholds >= 0.5 V leave
    # every conductance bit-identical
    rng = np.random.default_rng(10)
    net = ideal_net(seed=4)
    set_weights(net, rng.uniform(-1, 1, (17, 10)), rng.uniform(-1, 1, (11, 4)))
    g1, g2 = net.xbar1.g.copy(), net.xbar2.g.copy()
    assert min(net.xbar1.v_set.min(), net.xbar1.v_reset.min(),
               net.xbar2.v_set.min(), net.xbar2.v_reset.min()) >= 0.5
    forward(net, rng.choice([-1.0, 1.0], (10_000, 16)))
    np.testing.assert_array_equal(net.xbar1.g, g1)
    np.testing.assert_array_equal(net.xbar2.g, g2)


def test_classify_scale_invariant():
    rng = np.random.default_rng(11)
    out = rng.normal(size=(30, 4))
    base = classify(out)
    for c in (1e-3, 0.5, 7.0, 1e4):
        np.testing.assert_array_equal(classify(c * out), base)


def test_classify_tie_lowest_index():
    assert classify(np.array([2.0, 2.0, 1.0]))[0] == 0


def test_drive_voltages_bias_and_width():
    net = ideal_net()
    v = drive_voltages(net, np.ones((3, 16)))
    assert v.shape == (3, 17)
    np.testing.assert_allclose(v[:, -1], net.config.input_voltage)
    with pytest.raises(DimensionError):
        drive_voltages(net, np.ones((3, 15)))


def test_evaluate_letters_smoke():
    rng = np.random.default_rng(12)
    net = ideal_net(seed=6)
    set_weights(net, rng.uniform(-1, 1, (17, 10)), rng.uniform(-1, 1, (11, 4)))
    train, _ = letter_dataset()
    r = evaluate(net, train)
    assert 0.0 <= r.fidelity <= 100.0
    assert r.confusion.sum() == 40
    assert r.error_rate == pytest.approx(100.0 - r.fidelity)


def test_nan_input_voltage_fails_loudly():
    # NaN drive must raise, not score at chance through argmax of NaN: the
    # config refuses a NaN voltage, and a NaN level fails at the first read
    with pytest.raises(ConfigError, match="input_voltage"):
        NetworkConfig(input_voltage=float("nan"))
    levels = np.ones((2, 16))
    levels[1, 5] = np.nan
    with pytest.raises(ReadRegimeError):
        forward(ideal_net(), levels)


def test_evaluate_empty_dataset():
    net = ideal_net()
    train, _ = letter_dataset()
    with pytest.raises(ConfigError):
        evaluate(net, train.subset(np.zeros(0, dtype=int)))
