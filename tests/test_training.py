"""Software fit: forward/backward formulas, determinism, divergence, the
hardware contracts (ideal devices, in-situ belief), config validation and
pinned outputs of the precursor and defect-aware fits."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarnet import training
from xbarnet.bench import encode_levels, letter_dataset
from xbarnet.crossbar import inject_cell_defects
from xbarnet.device import DeviceSpec
from xbarnet.errors import ConfigError, DivergenceError
from xbarnet.network import (NetworkConfig, assemble, classify, forward,
                             interleave_pairs, map_weights)
from xbarnet.progtune import TuneConfig
from xbarnet.training import (InSituConfig, InSituState, Loss, TrainHyper,
                              build_software_net, insitu_epoch,
                              loss_and_grads, measure_network_maps,
                              software_forward, train_defect_aware)


def dense_forward(snet, levels):
    """Both layers in full: x@w + (x*x)@(c + d*w), whatever c and d are."""
    v = snet.input_voltage
    x1 = v * np.atleast_2d(levels)
    if snet.bias1:
        x1 = np.hstack([x1, np.full((x1.shape[0], 1), v)])
    l1, l2 = snet.layer1, snet.layer2
    hp, op = snet.hidden_params, snet.output_params
    vd1 = x1 @ l1.w + (x1 * x1) @ (l1.c + l1.d * l1.w)
    hidden = np.clip(hp.gain * vd1, -hp.v_sat, hp.v_sat) \
        * (hp.out_swing / hp.v_sat)
    x2 = hidden
    if snet.bias2:
        x2 = np.hstack([x2, np.full((x2.shape[0], 1), v)])
    vd2 = x2 @ l2.w + (x2 * x2) @ (l2.c + l2.d * l2.w)
    y = np.clip(op.gain * vd2, -op.v_sat, op.v_sat)
    return y, hidden, vd1, vd2, x1, x2


def dense_grads(snet, levels, labels, loss, target_volts):
    """Full backward pass through dense_forward, frozen pairs zeroed."""
    y, hidden, vd1, vd2, x1, x2 = dense_forward(snet, levels)
    value, dy = training._loss_delta(y, labels, loss, target_volts)
    l1, l2 = snet.layer1, snet.layer2
    hp, op = snet.hidden_params, snet.output_params
    delta2 = dy * op.gain * (np.abs(op.gain * vd2) < op.v_sat)
    dw2 = x2.T @ delta2 + l2.d * ((x2 * x2).T @ delta2)
    dx2 = delta2 @ l2.w.T + 2.0 * x2 * (delta2 @ (l2.c + l2.d * l2.w).T)
    delta1 = dx2[:, : hidden.shape[1]] \
        * (hp.gain * hp.out_swing / hp.v_sat) \
        * (np.abs(hp.gain * vd1) < hp.v_sat)
    dw1 = x1.T @ delta1 + l1.d * ((x1 * x1).T @ delta1)
    dw1[l1.frozen] = 0.0
    dw2[l2.frozen] = 0.0
    return value, dw1, dw2


def random_net(seed, *, quadratic, w_scale=0.5):
    """Letter-sized software net with random weights; with quadratic=True
    every pair gets nonzero c and d and a few pairs are frozen."""
    rng = np.random.default_rng(seed)
    snet = build_software_net(NetworkConfig())
    layers = []
    for layer in (snet.layer1, snet.layer2):
        kw = {"w": rng.normal(0.0, w_scale, layer.w.shape)}
        if quadratic:
            kw["c"] = rng.normal(0.0, 0.05, layer.w.shape)
            kw["d"] = rng.normal(0.0, 0.3, layer.w.shape)
            kw["frozen"] = rng.random(layer.w.shape) < 0.1
        layers.append(dataclasses.replace(layer, **kw))
    snet.layer1, snet.layer2 = layers
    levels = rng.choice([-1.0, 1.0], (12, 16))
    labels = rng.integers(0, 4, 12)
    return snet, levels, labels


def weights_digest(w1, w2):
    return hashlib.sha256(w1.tobytes() + w2.tobytes()).hexdigest()


# --- forward / backward -----------------------------------------------------

def test_layer_flags_read_from_c_d_and_frozen():
    blank, _, _ = random_net(0, quadratic=False)
    full, _, _ = random_net(0, quadratic=True)
    assert not blank.layer1.quadratic and not blank.layer1.any_frozen
    assert full.layer1.quadratic and full.layer1.any_frozen
    d = np.zeros_like(blank.layer2.d)
    d[1, 2] = 0.1
    assert dataclasses.replace(blank.layer2, d=d).quadratic


@pytest.mark.parametrize("quadratic", [False, True])
@pytest.mark.parametrize("loss", list(Loss))
def test_fit_formulas_equal_dense_oracle(quadratic, loss):
    # the skip of all-zero quadratic terms leaves every value unchanged;
    # assert_array_equal is exact (it only equates +0.0 with -0.0)
    snet, levels, labels = random_net(1, quadratic=quadratic)
    got = software_forward(snet, levels)
    want = dense_forward(snet, levels)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    value, dw1, dw2, n_err = loss_and_grads(snet, levels, labels, loss, 0.8)
    w_value, w_dw1, w_dw2 = dense_grads(snet, levels, labels, loss, 0.8)
    assert value == w_value
    np.testing.assert_array_equal(dw1, w_dw1)
    np.testing.assert_array_equal(dw2, w_dw2)
    assert n_err == int(np.sum(np.argmax(want[0], axis=1) != labels))


@pytest.mark.parametrize("loss", list(Loss))
def test_quadratic_grads_match_finite_differences(loss):
    # small weights keep every neuron off its clip, where the model is smooth
    snet, levels, labels = random_net(2, quadratic=True, w_scale=0.05)
    _, hidden, vd1, vd2, _, _ = software_forward(snet, levels)
    hp, op = snet.hidden_params, snet.output_params
    assert np.all(np.abs(hp.gain * vd1) < 0.9 * hp.v_sat)
    assert np.all(np.abs(op.gain * vd2) < 0.9 * op.v_sat)
    _, dw1, dw2, _ = loss_and_grads(snet, levels, labels, loss)
    rng = np.random.default_rng(3)
    eps = 1e-6
    for layer, dw in ((snet.layer1, dw1), (snet.layer2, dw2)):
        assert np.all(dw[layer.frozen] == 0.0)
        free = np.argwhere(~layer.frozen)
        for r, c in free[rng.choice(len(free), 12, replace=False)]:
            w0 = layer.w[r, c]
            layer.w[r, c] = w0 + eps
            up = loss_and_grads(snet, levels, labels, loss)[0]
            layer.w[r, c] = w0 - eps
            down = loss_and_grads(snet, levels, labels, loss)[0]
            layer.w[r, c] = w0
            fd = (up - down) / (2 * eps)
            assert dw[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# --- the fit loop -----------------------------------------------------------

def test_fit_is_deterministic_under_one_seed():
    train, _ = letter_dataset()
    hyper = TrainHyper(epochs=30, batch_size=7, seed=11)
    a1, a2, _, trace_a = train_defect_aware(train, NetworkConfig(), None,
                                            hyper)
    b1, b2, _, trace_b = train_defect_aware(train, NetworkConfig(), None,
                                            hyper)
    assert a1.tobytes() == b1.tobytes() and a2.tobytes() == b2.tobytes()
    assert trace_a == trace_b


def test_fit_with_non_finite_loss_raises():
    # an initial spread of 1e308 overflows to inf weights on the first draw
    train, _ = letter_dataset()
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        train_defect_aware(train, NetworkConfig(), None,
                           TrainHyper(epochs=5, init_scale=1e308),
                           weight_limit1=np.inf, weight_limit2=np.inf)
    assert err.value.epoch == 0


def test_fit_with_non_finite_weights_raises():
    # one inf weight per hidden column sums to +-inf, which the neuron clip
    # turns into a finite output and loss; the fit must still refuse it
    train, _ = letter_dataset()
    snet = build_software_net(NetworkConfig(), weight_limit1=np.inf,
                              weight_limit2=np.inf)
    frozen = np.zeros_like(snet.layer1.frozen)
    frozen[0, :] = True
    w = np.where(frozen, np.inf, 0.0)
    snet.layer1 = dataclasses.replace(snet.layer1, w=w, frozen=frozen)
    levels = encode_levels(train)
    with np.errstate(all="ignore"), \
            pytest.raises(DivergenceError, match="weights") as err:
        training._fit(snet, levels, train.labels, TrainHyper(epochs=3))
    assert err.value.epoch == 0


# --- hardware contracts ---------------------------------------------------

def test_ideal_hardware_forward_equals_software_forward():
    # kappa = 0 and the 1/r_f import scale make the crossbar forward pass
    # the software formula, up to float rounding
    spec = DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0, kappa_mean=0.0,
                      kappa_sigma=0.0)
    net = assemble(NetworkConfig(), spec, seed=2)
    snet = build_software_net(NetworkConfig())
    rng = np.random.default_rng(5)
    for xbar, layer, scale in ((net.xbar1, snet.layer1, net.weight_scale1),
                               (net.xbar2, snet.layer2, net.weight_scale2)):
        # inside the +-0.18 box the 1/r_f scale maps without clamping
        layer.w = rng.uniform(-0.17, 0.17, layer.w.shape)
        gp, gm, _ = map_weights(layer.w, spec.g_min, spec.g_max, scale=scale)
        xbar.g[:] = interleave_pairs(gp, gm)
    levels = encode_levels(letter_dataset()[0])
    hw = forward(net, levels).output
    sw = software_forward(snet, levels)[0]
    assert np.max(np.abs(hw - sw)) < 1e-12
    np.testing.assert_array_equal(classify(hw), classify(sw))


@pytest.mark.parametrize("half_select", [False, True])
def test_insitu_belief_equals_silicon_without_threshold_spread(half_select):
    # with every threshold at its mean the nominal device model the
    # training computer tracks is the silicon, pulse for pulse
    spec = DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0)
    net = assemble(NetworkConfig(), spec, seed=3)
    rng = np.random.default_rng(4)
    for xbar in (net.xbar1, net.xbar2):
        xbar.g[:] = rng.uniform(spec.g_min, spec.g_max, xbar.g.shape)
    g_start = net.xbar1.g.copy()
    state = InSituState.from_network(net)
    train, _ = letter_dataset()
    cfg = InSituConfig(half_select=half_select)
    for _ in range(8):
        net = insitu_epoch(net, train, cfg, state)[0]
    assert not np.array_equal(net.xbar1.g, g_start)  # pulses did land
    np.testing.assert_array_equal(state.bg1, net.xbar1.g)
    np.testing.assert_array_equal(state.bg2, net.xbar2.g)


# --- pinned outputs -----------------------------------------------------------

def _letter_fit(with_maps):
    """The fig9 software fit of seed 0: 5% stuck-on and 5% stuck-off cells,
    retrained through the measured maps (or blind, without them)."""
    train, _ = letter_dataset()
    spec = DeviceSpec()
    net = assemble(NetworkConfig(), spec, [0, 0])
    net.xbar1, _ = inject_cell_defects(net.xbar1, 0.05, 0.05, [0, 1])
    net.xbar2, _ = inject_cell_defects(net.xbar2, 0.05, 0.05, [0, 2])
    maps = None
    if with_maps:
        net, maps = measure_network_maps(net, TuneConfig())
    span = spec.g_max - spec.g_min
    w1, w2, snet, trace = train_defect_aware(
        train, net.config, maps, TrainHyper(), spec=spec,
        hidden_params=net.hidden_neurons.params,
        output_params=net.output_neurons.params,
        weight_limit1=0.95 * span / net.weight_scale1,
        weight_limit2=0.95 * span / net.weight_scale2,
    )
    return w1, w2, snet, trace


@pytest.mark.parametrize("with_maps, quadratic, digest", [
    (True, True,
     "d6dd932f4f1149310197dd2f283667fe5d91d0a1a2cb048c31613bf52c28df51"),
    (False, False,
     "0d2e85030b72719eda64da0bbf5955e722c0c3c2883807f4f31dfec8bdacaa8b"),
])
def test_letter_fit_weights_pinned(with_maps, quadratic, digest):
    w1, w2, snet, _ = _letter_fit(with_maps)
    assert snet.layer1.quadratic is quadratic
    assert snet.layer2.quadratic is quadratic
    assert weights_digest(w1, w2) == digest


def test_batched_letter_fit_pinned():
    # minibatches are sliced from the input drive built once per fit
    train, _ = letter_dataset()
    hyper = TrainHyper(epochs=40, batch_size=8, seed=3,
                       loss=Loss.CROSS_ENTROPY_SOFTMAX)
    w1, w2, _, trace = train_defect_aware(train, NetworkConfig(), None,
                                          hyper)
    assert weights_digest(w1, w2) == (
        "deebff774da92a2d6ca057f81a4486716919191b862c2297996bb04d0a3a50f9"
    )
    assert trace[:8] == [30, 28, 18, 11, 17, 18, 16, 13]
    assert trace[22:] == [1] + [0] * 17


# --- config validation --------------------------------------------------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
HYPER_FLOATS = ("lr", "early_stop_fidelity", "target_volts", "init_scale")
INSITU_FLOATS = ("v_pulse_set", "v_pulse_reset", "width", "target_volts")
DEVICE_FLOATS = tuple(f.name for f in dataclasses.fields(DeviceSpec))


@settings(max_examples=150, deadline=None)
@given(cls_field=st.sampled_from(
    [(TrainHyper, f) for f in HYPER_FLOATS]
    + [(InSituConfig, f) for f in INSITU_FLOATS]
    + [(DeviceSpec, f) for f in DEVICE_FLOATS]
    + [(NetworkConfig, "input_voltage")]), value=NON_FINITE)
def test_non_finite_float_settings_rejected(cls_field, value):
    cls, name = cls_field
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


@settings(max_examples=100, deadline=None)
@given(cls_field=st.sampled_from(
    [(TrainHyper, "epochs"), (TrainHyper, "margin_epochs"),
     (TrainHyper, "batch_size"), (InSituConfig, "epochs"),
     (NetworkConfig, "n_inputs"), (NetworkConfig, "n_hidden"),
     (NetworkConfig, "n_outputs")]),
    value=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.booleans(), st.integers(max_value=-1)))
def test_non_integer_counts_rejected(cls_field, value):
    cls, name = cls_field
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


def test_integer_like_settings_still_accepted():
    hyper = TrainHyper(lr=1, epochs=np.int64(3), batch_size=np.int32(4),
                       target_volts=np.float64(0.5))
    assert hyper.epochs == 3
    assert InSituConfig(epochs=0, width=1).width == 1
    arch = NetworkConfig(n_inputs=np.int64(16), input_voltage=np.float64(0.1))
    assert arch.rows1 == 17
    assert DeviceSpec(t_ref=25, g_max=np.float64(1e-4)).t_ref == 25
