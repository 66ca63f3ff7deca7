"""Software fit: forward/backward formulas, determinism, divergence, the
conductance-target rule, the hardware contracts (ideal devices, in-situ
belief, a reused fit), config validation and pinned outputs of the
precursor and defect-aware fits."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarnet import crossbar, training
from xbarnet.bench import Dataset, letter_dataset
from xbarnet.crossbar import inject_cell_defects
from xbarnet.device import DeviceSpec
from xbarnet.errors import ConfigError, DimensionError, DivergenceError
from xbarnet.network import (NetworkConfig, assemble, classify,
                             drive_voltages, forward, pair_difference)
from xbarnet.neuron import (CompensationParams, NeuronFault, NeuronParams,
                            slope)
from xbarnet.progtune import FormingConfig, TuneConfig
from xbarnet.training import (InSituConfig, InSituState, Loss, MeasuredMaps,
                              Scheme, TrainHyper, _loss_and_grads,
                              build_software_net, conductance_targets,
                              insitu_epoch, measure_network_maps,
                              run_scheme, run_schemes, software_forward,
                              software_weights_for, train_defect_aware)


def dense_forward(snet, levels):
    """Both layers in full: x@w + (x*x)@(c + d*w), whatever c and d are."""
    v = snet.config.input_voltage
    x1 = v * np.atleast_2d(levels)
    if snet.config.bias1:
        x1 = np.hstack([x1, np.full((x1.shape[0], 1), v)])
    l1, l2 = snet.layer1, snet.layer2
    hp, op = snet.hidden_params, snet.output_params
    vd1 = x1 @ l1.w + (x1 * x1) @ (l1.c + l1.d * l1.w)
    hidden = np.clip(hp.gain * vd1, -hp.v_sat, hp.v_sat) \
        * (hp.out_swing / hp.v_sat)
    x2 = hidden
    if snet.config.bias2:
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


def letter_net(seed=0):
    return assemble(NetworkConfig(), DeviceSpec(), seed)


def unbounded_software_net():
    """The letter network's software model with both weight boxes open."""
    snet = build_software_net(letter_net())
    for name in ("layer1", "layer2"):
        layer = getattr(snet, name)
        setattr(snet, name, dataclasses.replace(
            layer, w_lo=np.full_like(layer.w_lo, -np.inf),
            w_hi=np.full_like(layer.w_hi, np.inf)))
    return snet


def random_net(seed, *, quadratic, w_scale=0.5):
    """Letter-sized software net with random weights; with quadratic=True
    every pair gets nonzero c and d and a few pairs are frozen."""
    rng = np.random.default_rng(seed)
    snet = build_software_net(letter_net())
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
    return snet, Dataset(levels, rng.integers(0, 4, 12), 4)


def weights_digest(w1, w2):
    return hashlib.sha256(w1.tobytes() + w2.tobytes()).hexdigest()


# --- forward / backward -----------------------------------------------------

def test_layer_flags_read_from_c_d_and_frozen():
    blank, _ = random_net(0, quadratic=False)
    full, _ = random_net(0, quadratic=True)
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
    snet, data = random_net(1, quadratic=quadratic)
    labels = data.labels
    got = software_forward(snet, data)
    want = dense_forward(snet, data.pixels)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    value, dw1, dw2, n_err = _loss_and_grads(
        snet, drive_voltages(snet.config, data), labels, loss, 0.8)
    w_value, w_dw1, w_dw2 = dense_grads(snet, data.pixels, labels, loss, 0.8)
    assert value == w_value
    np.testing.assert_array_equal(dw1, w_dw1)
    np.testing.assert_array_equal(dw2, w_dw2)
    assert n_err == int(np.sum(np.argmax(want[0], axis=1) != labels))


def test_software_output_layer_is_the_unscaled_clip():
    # the output stage has no divider: the one neuron law at out_swing =
    # v_sat is the clip itself, bit for bit, inside and past saturation
    snet, data = random_net(1, quadratic=True)
    op = snet.output_params
    assert op.out_swing == op.v_sat
    y, _, _, vd2, _, _ = software_forward(snet, data)
    saturated = np.abs(y) == op.v_sat
    assert saturated.any() and not saturated.all()
    np.testing.assert_array_equal(
        y, np.clip(op.gain * vd2, -op.v_sat, op.v_sat))


@pytest.mark.parametrize("loss", list(Loss))
def test_quadratic_grads_match_finite_differences(loss):
    # small weights keep every neuron off its clip, where the model is smooth
    snet, data = random_net(2, quadratic=True, w_scale=0.05)
    labels = data.labels
    _, hidden, vd1, vd2, _, _ = software_forward(snet, data)
    hp, op = snet.hidden_params, snet.output_params
    assert np.all(np.abs(hp.gain * vd1) < 0.9 * hp.v_sat)
    assert np.all(np.abs(op.gain * vd2) < 0.9 * op.v_sat)
    x1 = drive_voltages(snet.config, data)
    _, dw1, dw2, _ = _loss_and_grads(snet, x1, labels, loss, 1.0)
    rng = np.random.default_rng(3)
    eps = 1e-6
    for layer, dw in ((snet.layer1, dw1), (snet.layer2, dw2)):
        assert np.all(dw[layer.frozen] == 0.0)
        free = np.argwhere(~layer.frozen)
        for r, c in free[rng.choice(len(free), 12, replace=False)]:
            w0 = layer.w[r, c]
            layer.w[r, c] = w0 + eps
            up = _loss_and_grads(snet, x1, labels, loss, 1.0)[0]
            layer.w[r, c] = w0 - eps
            down = _loss_and_grads(snet, x1, labels, loss, 1.0)[0]
            layer.w[r, c] = w0
            fd = (up - down) / (2 * eps)
            assert dw[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# --- the fit loop -----------------------------------------------------------

def test_fit_is_deterministic_under_one_seed():
    train, _ = letter_dataset()
    hyper = TrainHyper(epochs=30, batch_size=7, seed=11)
    a1, a2, _, trace_a = train_defect_aware(train, letter_net(), None, hyper)
    b1, b2, _, trace_b = train_defect_aware(train, letter_net(), None, hyper)
    assert a1.tobytes() == b1.tobytes() and a2.tobytes() == b2.tobytes()
    assert trace_a == trace_b


def test_fit_with_non_finite_loss_raises():
    # an initial spread of 1e308 overflows to inf weights on the first draw
    train, _ = letter_dataset()
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        training._fit(unbounded_software_net(), train,
                      TrainHyper(epochs=5, init_scale=1e308))
    assert err.value.epoch == 0


def test_fit_ending_at_chance_raises():
    # a huge step in an unbounded box drives every hidden neuron into its
    # clip; the gradients vanish and the fit would settle at 1 in 4 right
    train, _ = letter_dataset()
    with pytest.raises(DivergenceError, match="chance: 25.00%") as err:
        training._fit(unbounded_software_net(), train,
                      TrainHyper(lr=1e300, epochs=10))
    assert err.value.epoch == 9


def test_fit_with_non_finite_weights_raises():
    # one inf weight per hidden column sums to +-inf, which the neuron clip
    # turns into a finite output and loss; the fit must still refuse it
    train, _ = letter_dataset()
    snet = unbounded_software_net()
    frozen = np.zeros_like(snet.layer1.frozen)
    frozen[0, :] = True
    w = np.where(frozen, np.inf, 0.0)
    snet.layer1 = dataclasses.replace(snet.layer1, w=w, frozen=frozen)
    with np.errstate(all="ignore"), \
            pytest.raises(DivergenceError, match="weights") as err:
        training._fit(snet, train, TrainHyper(epochs=3))
    assert err.value.epoch == 0


# --- conductance targets -----------------------------------------------------
# a model built without maps has no stuck pair: the blind ex-situ mapping

G_MID = 0.5 * (DeviceSpec().g_min + DeviceSpec().g_max)


def test_zero_weight_targets_mid_range():
    net = letter_net()
    t1, t2 = conductance_targets(build_software_net(net), net.xbar1.spec)
    assert np.all(t1 == G_MID) and np.all(t2 == G_MID)


def test_out_of_box_weights_hit_the_rails():
    net = letter_net()
    spec = net.xbar1.spec
    snet = build_software_net(net)
    for layer in (snet.layer1, snet.layer2):
        w = np.full(layer.w.shape, 10.0)
        w[:, 1::2] = -10.0
        layer.w = w
    for grid in conductance_targets(snet, spec):
        plus, minus = grid[:, 0::2], grid[:, 1::2]
        assert np.all(plus[:, 0::2] == spec.g_max)
        assert np.all(minus[:, 0::2] == spec.g_min)
        assert np.all(plus[:, 1::2] == spec.g_min)
        assert np.all(minus[:, 1::2] == spec.g_max)


def test_targets_round_trip_inside_the_box():
    net = letter_net()
    snet = build_software_net(net)
    rng = np.random.default_rng(2)
    for layer in (snet.layer1, snet.layer2):
        layer.w = rng.uniform(layer.w_lo, layer.w_hi)
    t1, t2 = conductance_targets(snet, net.xbar1.spec)
    np.testing.assert_allclose(pair_difference(t1) / net.weight_scale1,
                               snet.layer1.w, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(pair_difference(t2) / net.weight_scale2,
                               snet.layer2.w, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("layer", ["layer1", "layer2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_target_raises(layer, value):
    net = letter_net()
    snet = build_software_net(net)
    getattr(snet, layer).w[0, 0] = value
    with pytest.raises(ConfigError, match="finite"):
        conductance_targets(snet, net.xbar1.spec)


# --- hardware contracts ---------------------------------------------------

def test_ideal_hardware_forward_equals_software_forward():
    # kappa = 0 and the 1/r_f import scale make the crossbar forward pass
    # the software formula, up to float rounding, with or without a bias
    # row on either layer
    spec = DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0, kappa_mean=0.0,
                      kappa_sigma=0.0)
    train, _ = letter_dataset()
    for bias1, bias2 in ((True, True), (False, False), (True, False),
                         (False, True)):
        net = assemble(NetworkConfig(bias1=bias1, bias2=bias2), spec, seed=2)
        snet = build_software_net(net)
        rng = np.random.default_rng(5)
        for layer in (snet.layer1, snet.layer2):
            # inside the +-0.18 box the 1/r_f scale maps without clamping
            layer.w = rng.uniform(-0.17, 0.17, layer.w.shape)
        net.xbar1.g[:], net.xbar2.g[:] = conductance_targets(snet, spec)
        hw = forward(net, drive_voltages(net.config, train)).output
        sw = software_forward(snet, train)[0]
        assert np.max(np.abs(hw - sw)) < 1e-12, (bias1, bias2)
        np.testing.assert_array_equal(classify(hw), classify(sw))


def test_software_model_takes_the_hardware_input_stage():
    # the software model reads its input stage from the network's own
    # config, so a wrong input width is refused as the hardware refuses it
    net = letter_net()
    snet = build_software_net(net)
    assert snet.config is net.config
    train, _ = letter_dataset()
    narrow = Dataset(train.pixels[:, :15], train.labels, train.n_classes)
    with pytest.raises(DimensionError, match="got 15 inputs"):
        software_forward(snet, narrow)
    with pytest.raises(DimensionError, match="got 15 inputs"):
        _loss_and_grads(snet, drive_voltages(snet.config, narrow),
                        narrow.labels, Loss.SQUARED_ERROR, 1.0)


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
    train, _ = letter_dataset()
    state = InSituState.from_network(net, train)
    cfg = InSituConfig(half_select=half_select)
    for _ in range(8):
        net = insitu_epoch(net, cfg, state)[0]
    assert not np.array_equal(net.xbar1.g, g_start)  # pulses did land
    np.testing.assert_array_equal(state.bg2, net.xbar2.g)


def _midrange_letter_net(seed):
    net = assemble(NetworkConfig(), DeviceSpec(), seed)
    rng = np.random.default_rng(seed)
    for xbar in (net.xbar1, net.xbar2):
        xbar.g[:] = rng.uniform(xbar.g_lo, xbar.g_hi)
    return net


def full_batch_accumulators(net, cfg, state):
    """_error_accumulators as it was when every array of its backward chain
    held the whole fit set, the correctly classified rows' delta2 zeroed:
    the oracle of the sign property below."""
    trace = forward(net, state.drive)
    mis = np.argmax(trace.output, axis=1) != state.labels
    n_err = int(mis.sum())
    if n_err == 0:
        return 0, None, None
    y = trace.output
    onehot = np.zeros_like(y)
    onehot[np.arange(y.shape[0]), state.labels] = 1.0
    t = cfg.target_volts * (2.0 * onehot - 1.0)
    gate2 = (np.abs(y) < net.output_neurons.swing).astype(np.float64)
    delta2 = (y - t) * slope(net.output_neurons.params) * gate2
    delta2[~mis] = 0.0
    a2 = trace.v_in2.T @ delta2
    gate1 = np.abs(trace.hidden) < net.hidden_neurons.swing
    delta1 = (delta2 @ state.believed_w2(net).T)[:, : net.config.n_hidden] \
        * slope(net.hidden_neurons.params)
    delta1 *= gate1
    a1 = state.drive.T @ delta1
    return n_err, a1, a2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       wrong=st.integers(0, 300), bias1=st.booleans(), bias2=st.booleans(),
       faults=st.lists(st.sampled_from([NeuronFault.OK,
                                        NeuronFault.STUCK_HIGH,
                                        NeuronFault.STUCK_LOW]),
                       min_size=10, max_size=10))
def test_misclassified_rows_give_the_full_batch_accumulator_signs(
        seed, n, wrong, bias1, bias2, faults):
    # the in-situ step reads only the accumulator signs, so dropping the
    # rows that add zero may regroup the sums but must keep every sign.
    # wrong labels go to the first min(wrong, n) rows (none: the fixed
    # point); a stuck hidden neuron sits at its swing, where the hidden
    # gate shuts its column of a1
    rng = np.random.default_rng(seed)
    net = assemble(NetworkConfig(bias1=bias1, bias2=bias2), DeviceSpec(),
                   seed)
    for xbar in (net.xbar1, net.xbar2):
        xbar.g[:] = rng.uniform(xbar.g_lo, xbar.g_hi)
    net.hidden_neurons.fault[:] = faults
    levels = rng.choice([-1.0, 1.0], (n, 16))
    pred = classify(forward(net, drive_voltages(
        net.config, Dataset(levels, np.zeros(n, int), 4))).output)
    labels = pred.copy()
    k = min(wrong, n)
    labels[:k] = (pred[:k] + rng.integers(1, 4, k)) % 4
    state = InSituState.from_network(net, Dataset(levels, labels, 4))
    cfg = InSituConfig()
    n_err, a1, a2 = training._error_accumulators(net, cfg, state)
    w_err, w_a1, w_a2 = full_batch_accumulators(net, cfg, state)
    assert n_err == w_err == k
    if k == 0:
        assert a1 is a2 is w_a1 is w_a2 is None
        return
    np.testing.assert_array_equal(np.sign(a1), np.sign(w_a1))
    np.testing.assert_array_equal(np.sign(a2), np.sign(w_a2))
    stuck = np.asarray(faults) != NeuronFault.OK
    assert not a1[:, stuck].any()


def test_insitu_epoch_pulses_the_network_it_is_given():
    net = _midrange_letter_net(6)
    g1, g2 = net.xbar1.g, net.xbar2.g
    g1_start, g2_start = g1.copy(), g2.copy()
    train, _ = letter_dataset()
    state = InSituState.from_network(net, train)
    assert state.drive.shape == (len(train), net.config.rows1)
    np.testing.assert_array_equal(state.labels, train.labels)
    out, n_err = insitu_epoch(net, InSituConfig(), state)
    assert n_err > 0
    assert out is net
    assert net.xbar1.g is g1 and net.xbar2.g is g2
    assert not np.array_equal(g1, g1_start)
    assert not np.array_equal(g2, g2_start)


@pytest.mark.parametrize("amplitudes, match", [
    ({"v_pulse_set": 1.0}, "mean set threshold"),
    ({"v_pulse_reset": 0.9}, "mean reset threshold"),
    ({"v_pulse_set": 3.0}, "forming regime"),
])
def test_insitu_epoch_refuses_amplitudes_that_cannot_train(amplitudes,
                                                           match):
    # the stock device has both mean thresholds at 1.0 V and forms at 3.0 V
    net = _midrange_letter_net(8)
    train, _ = letter_dataset()
    state = InSituState.from_network(net, train)
    g1, g2 = net.xbar1.g.copy(), net.xbar2.g.copy()
    with pytest.raises(ConfigError, match=match):
        insitu_epoch(net, InSituConfig(**amplitudes), state)
    np.testing.assert_array_equal(net.xbar1.g, g1)
    np.testing.assert_array_equal(net.xbar2.g, g2)


def _defective_letter_net(seed):
    net = assemble(NetworkConfig(), DeviceSpec(), [seed, 0])
    net.xbar1 = inject_cell_defects(net.xbar1, 0.05, 0.05, [seed, 1])
    net.xbar2 = inject_cell_defects(net.xbar2, 0.05, 0.05, [seed, 2])
    return net


def _run_kw(**extra):
    """run_schemes keywords of a small noisy run: import and read noise, a
    fit subset and real write-verify tuning, so every sub-seed is drawn."""
    _, test = letter_dataset()
    return dict(test_set=test, hyper=TrainHyper(seed=7),
                tune_cfg=TuneConfig(half_select=False),
                insitu_cfg=InSituConfig(epochs=4, half_select=False),
                import_noise_sigma=0.02, inference_noise_sigma=0.02,
                subsample=30, **extra)


def _outcome(run):
    """A (network, report) pair as comparable values: every report field
    and both crossbars' conductance bytes."""
    out, rep = run
    return dataclasses.asdict(rep), out.xbar1.g.tobytes(), \
        out.xbar2.g.tobytes()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_run_scheme_pinned_by_network_scheme_and_seed(scheme):
    # every random draw (subset, import noise, initialization, read noise)
    # derives from the one seed
    train, _ = letter_dataset()
    runs = [run_schemes([scheme], train, _defective_letter_net(5),
                        **_run_kw())[scheme] for _ in range(2)]
    assert _outcome(runs[0]) == _outcome(runs[1])


def _board(net):
    """Every per-cell field of both crossbars and every per-neuron field of
    both banks, as bytes."""
    return [getattr(part, f.name).tobytes()
            for part in (net.xbar1, net.xbar2, net.hidden_neurons,
                         net.output_neurons)
            for f in dataclasses.fields(part)
            if f.name not in ("spec", "params")]


def test_schemes_run_together_equal_each_run_alone():
    # run_schemes builds the fit, its import and the fit set once for all
    # schemes; sharing them must change no scheme's network or report, and
    # no stage may change the caller's network: hardware writers change the
    # board they are given, so each stage must start from its own copy
    train, _ = letter_dataset()
    net = _defective_letter_net(5)
    board = _board(net)
    together = run_schemes([s.value for s in Scheme], train, net,
                           **_run_kw())
    assert list(together) == [s.value for s in Scheme]
    assert _board(net) == board
    outs = [out for out, _ in together.values()]
    assert len({id(out) for out in outs + [net]}) == len(outs) + 1
    for scheme in Scheme:
        alone = run_scheme(scheme.value, train, _defective_letter_net(5),
                           **_run_kw())
        assert _outcome(together[scheme.value]) == _outcome(alone), scheme
        assert _board(together[scheme.value][0]) == _board(alone[0]), scheme


@pytest.mark.parametrize("scheme", ["ex-situ", "hybrid"])
def test_precomputed_fit_is_the_run_that_fits_for_itself(scheme):
    # software_weights_for's contract, which sweeps rely on to fit once per
    # seed; a handed-in fit used to report an empty ex-situ trace
    train, _ = letter_dataset()
    kw = _run_kw()
    fit = software_weights_for(_defective_letter_net(0), train, kw["hyper"],
                               kw["subsample"])
    assert fit[1]
    own = run_scheme(scheme, train, _defective_letter_net(0), **kw)
    handed = run_scheme(scheme, train, _defective_letter_net(0), fit=fit,
                        **kw)
    assert _outcome(handed) == _outcome(own)


def test_exsitu_and_hybrid_share_one_fit_and_one_import(monkeypatch):
    # hybrid is ex-situ plus an in-situ loop, and both draw the same
    # sub-seeds, so fig11 used to fit and import the same network twice
    calls = []
    fit, imp = training.train_defect_aware, training.import_grids

    def counted_fit(fit_set, net, maps, hyper):
        calls.append(("fit", maps is None))
        return fit(fit_set, net, maps, hyper)

    def counted_import(*args, **kwargs):
        calls.append(("import", None))
        return imp(*args, **kwargs)

    monkeypatch.setattr(training, "train_defect_aware", counted_fit)
    monkeypatch.setattr(training, "import_grids", counted_import)
    train, _ = letter_dataset()
    run_schemes(["ex-situ", "hybrid"], train, _defective_letter_net(0),
                **_run_kw(import_accuracy=0.0))
    assert calls == [("fit", True), ("import", None)]


def test_import_report_counts_the_failures_of_both_crossbars():
    # stuck cells in both crossbars cannot reach their targets
    net = _defective_letter_net(3)
    rng = np.random.default_rng(3)
    t1 = rng.uniform(15e-6, 95e-6, net.xbar1.g.shape)
    t2 = rng.uniform(15e-6, 95e-6, net.xbar2.g.shape)
    _, rep = training.import_grids(
        net, t1, t2, TuneConfig(half_select=False, max_pulses=100))
    assert rep.report1.n_failed > 0 and rep.report2.n_failed > 0
    assert rep.n_failed == rep.report1.n_failed + rep.report2.n_failed


def _train_on(dataset):
    return train_defect_aware(dataset, letter_net(), None, TrainHyper())


def _labelled(label):
    train, _ = letter_dataset()
    return Dataset(train.pixels, np.full(len(train), label), label + 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_software_net(
        letter_net(), MeasuredMaps(*[np.zeros((2, 2))] * 6, v_read=0.2)),
     DimensionError, "measured maps do not match"),
    (lambda: _train_on(Dataset(np.zeros((0, 16)), np.zeros(0, int), 4)),
     ConfigError, "training dataset is empty"),
    (lambda: _train_on(_labelled(4)), ConfigError,
     "dataset has label 4 but the network only has 4 outputs"),
    (lambda: training.import_grids(letter_net(), None, None, TuneConfig(),
                                   import_accuracy=-0.01),
     ConfigError, "import accuracy must be nonnegative"),
], ids=["map-shape", "empty-dataset", "label-range", "import-accuracy"])
def test_training_entry_points_refuse_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_chunked_error_count_equals_the_whole_batch_count():
    # _count_errors runs the forward pass a chunk of rows at a time; on a
    # batch that is not a multiple of the chunk it counts what one
    # whole-batch pass counts
    snet, _ = random_net(4, quadratic=True)
    n = 2 * training._COUNT_CHUNK_ROWS + 117
    rng = np.random.default_rng(4)
    levels = rng.choice([-1.0, 1.0], (n, 16))
    labels = rng.integers(0, 4, n)
    x1 = drive_voltages(snet.config, Dataset(levels, labels, 4))
    y, *_ = training._forward(snet, x1)
    want = int(np.sum(np.argmax(y, axis=1) != labels))
    assert 0 < want < n
    assert training._count_errors(snet, x1, labels) == want


def test_error_count_does_not_depend_on_the_pool_width(monkeypatch):
    # the chunks count on _each_block's pool two at a time, or inline one
    # at a time when it is one worker wide: both count what a serial loop
    # counts
    snet, _ = random_net(5, quadratic=True)
    n = 4 * training._COUNT_CHUNK_ROWS + 31
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, n)
    x1 = drive_voltages(snet.config,
                        Dataset(rng.choice([-1.0, 1.0], (n, 16)), labels, 4))
    counts = []
    for width in (1, 2):
        monkeypatch.setattr(crossbar, "_BLOCK_WORKERS", width)
        counts.append(training._count_errors(snet, x1, labels))
    y, *_ = training._forward(snet, x1)
    want = int(np.sum(np.argmax(y, axis=1) != labels))
    assert 0 < want < n
    assert counts == [want, want]


# --- pinned outputs -----------------------------------------------------------

def _letter_fit(with_maps):
    """The fig9 software fit of seed 0: 5% stuck-on and 5% stuck-off cells,
    retrained through the measured maps (or blind, without them)."""
    train, _ = letter_dataset()
    net = _defective_letter_net(0)
    maps = None
    if with_maps:
        net, maps = measure_network_maps(net, TuneConfig())
    return train_defect_aware(train, net, maps, TrainHyper())


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


def test_blind_letter_targets_pinned():
    # the map-free fit's targets; pinned from the blind mapping that the
    # map-free case of conductance_targets replaced, so the two agree bit
    # for bit
    _, _, snet, _ = _letter_fit(with_maps=False)
    t1, t2 = conductance_targets(snet, DeviceSpec())
    assert hashlib.sha256(t1.tobytes() + t2.tobytes()).hexdigest() == (
        "ece2bb1999656a7e8773a3b74296686a9761ffca02cb47509d8b9c62a8c22b82"
    )


def test_batched_letter_fit_pinned():
    # minibatches are sliced from the input drive built once per fit
    train, _ = letter_dataset()
    hyper = TrainHyper(epochs=40, batch_size=8, seed=3,
                       loss=Loss.CROSS_ENTROPY_SOFTMAX)
    w1, w2, _, trace = train_defect_aware(train, letter_net(), None, hyper)
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
TUNE_FLOATS = ("tolerance", "v_read", "v_write_start", "v_write_step",
               "v_write_max", "width")
FORMING_FLOATS = ("v_start", "v_step", "v_max")
NEURON_FLOATS = ("r_f", "gain", "v_sat", "out_swing")


@settings(max_examples=150, deadline=None)
@given(cls_field=st.sampled_from(
    [(TrainHyper, f) for f in HYPER_FLOATS]
    + [(InSituConfig, f) for f in INSITU_FLOATS]
    + [(DeviceSpec, f) for f in DEVICE_FLOATS]
    + [(TuneConfig, f) for f in TUNE_FLOATS]
    + [(FormingConfig, f) for f in FORMING_FLOATS]
    + [(NeuronParams, f) for f in NEURON_FLOATS]
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
     (NetworkConfig, "n_outputs"), (TuneConfig, "max_pulses")]),
    value=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.booleans(), st.integers(max_value=-1)))
def test_non_integer_counts_rejected(cls_field, value):
    cls, name = cls_field
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


def test_fit_needs_an_epoch():
    # a fit runs at least one epoch
    with pytest.raises(ConfigError, match="epochs must be at least 1"):
        TrainHyper(epochs=0)


def test_insitu_needs_an_epoch():
    # zero in-situ epochs would score the untrained mid-range start
    with pytest.raises(ConfigError, match="epochs must be at least 1"):
        InSituConfig(epochs=0)


def test_integer_like_settings_still_accepted():
    hyper = TrainHyper(lr=1, epochs=np.int64(3), batch_size=np.int32(4),
                       target_volts=np.float64(0.5))
    assert hyper.epochs == 3
    assert InSituConfig(epochs=1, width=1).width == 1
    arch = NetworkConfig(n_inputs=np.int64(16), input_voltage=np.float64(0.1))
    assert arch.rows1 == 17
    assert DeviceSpec(t_ref=25, g_max=np.float64(1e-4)).t_ref == 25


# every field of every config dataclass declares its check next to the
# field; these few stay unchecked: no document can set hyper.seed, and the
# compensation legs' specs are DeviceSpecs, checked when they were built
CONFIG_CLASSES = (DeviceSpec, NetworkConfig, NeuronParams, CompensationParams,
                  FormingConfig, TuneConfig, TrainHyper, InSituConfig)
UNCHECKED_FIELDS = {(TrainHyper, "seed"), (CompensationParams, "fb_spec"),
                    (CompensationParams, "bias_spec")}
REQUIRED_FIELDS = {CompensationParams: {"g_fb": 1e-3}}
CONFIG_FIELDS = [(cls, f) for cls in CONFIG_CLASSES
                 for f in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "cls, f", CONFIG_FIELDS,
    ids=[f"{cls.__name__}.{f.name}" for cls, f in CONFIG_FIELDS])
def test_every_config_field_is_checked(cls, f):
    base = REQUIRED_FIELDS.get(cls, {})
    if (cls, f.name) in UNCHECKED_FIELDS:
        assert "check" not in f.metadata
        return
    check = f.metadata.get("check")
    assert check is not None, f"{cls.__name__}.{f.name} declares no check"
    check(base.get(f.name, f.default))
    if f.type in ("float", "int", "int | None"):
        bad_values = (math.nan, math.inf, -math.inf, True)
    elif f.type == "bool":
        bad_values = ("false", 1, 0, None)
    else:  # the loss enum: its string value is not a member
        bad_values = (f.default.value, None)
    for bad in bad_values:
        with pytest.raises(ConfigError, match=f"^{f.name} must "):
            cls(**{**base, f.name: bad})


def test_field_checks_keep_the_value_as_given():
    # asdict of a section feeds the config hash, so an integral float field
    # stays an int and a numpy count stays numpy
    hyper = TrainHyper(lr=1, epochs=np.int64(3))
    assert type(hyper.lr) is int
    assert type(hyper.epochs) is np.int64
