"""Two-crossbar perceptron: differential pairs, assembly, inference."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from xbarnet import crossbar, network
from xbarnet.bench import Dataset, letter_dataset, score
from xbarnet.crossbar import vmm_currents_batch
from xbarnet.device import DeviceSpec
from xbarnet.errors import ConfigError, DimensionError, ReadRegimeError
from xbarnet.network import (ForwardTrace, NetworkConfig, assemble, classify,
                             drive_voltages, evaluate, forward,
                             interleave_pairs, pair_difference)
from xbarnet.neuron import NeuronParams, bank_outputs, make_bank
from xbarnet.training import build_software_net, conductance_targets


def ideal_net(config=None, seed=0):
    spec = DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0,
                      kappa_mean=0.0, kappa_sigma=0.0)
    return assemble(config or NetworkConfig(), spec, seed)


def set_weights(net, w1, w2):
    """Program exact unit weights through the import's target rule."""
    snet = build_software_net(net)
    snet.layer1.w, snet.layer2.w = w1, w2
    net.xbar1.g[:], net.xbar2.g[:] = conductance_targets(snet, net.xbar1.spec)
    return net


def drive(net, levels):
    """forward's row voltages for a batch of drive levels in [-1, 1], as a
    pm1 dataset of them."""
    levels = np.atleast_2d(levels)
    return drive_voltages(net.config,
                          Dataset(levels, np.zeros(len(levels), int), 1))


def read_weights(net):
    """Unit weights read back from both conductance grids."""
    return (pair_difference(net.xbar1.g) / net.weight_scale1,
            pair_difference(net.xbar2.g) / net.weight_scale2)


# --- weight mapping ---------------------------------------------------------

def test_map_weights_extreme_hits_rails():
    # at 1/r_f per unit weight, the +-(g_max-g_min)*r_f box edges span the
    # whole window and half the edge sits at three quarters of it
    net = ideal_net()
    spec = net.xbar1.spec
    edge = (spec.g_max - spec.g_min) * net.hidden_neurons.params.r_f
    w1 = np.zeros((17, 10))
    w1[0, :3] = [edge, -edge, 0.5 * edge]
    set_weights(net, w1, np.zeros((11, 4)))
    gp, gm = net.xbar1.g[0, 0::2], net.xbar1.g[0, 1::2]
    assert gp[0] == pytest.approx(spec.g_max)
    assert gm[0] == pytest.approx(spec.g_min)
    assert gp[1] == pytest.approx(spec.g_min)
    assert gm[1] == pytest.approx(spec.g_max)
    window = spec.g_max - spec.g_min
    assert gp[2] == pytest.approx(spec.g_min + 0.75 * window)
    assert gm[2] == pytest.approx(spec.g_min + 0.25 * window)


def test_map_weights_fixed_scale_clamps():
    # a weight far outside the box clamps to the rails; the scale stays
    # the fixed 1/r_f rather than stretching to fit the weight
    net = ideal_net()
    spec = net.xbar1.spec
    w2 = np.zeros((11, 4))
    w2[0, 0] = 10.0
    set_weights(net, np.zeros((17, 10)), w2)
    assert net.weight_scale2 == 1.0 / net.output_neurons.params.r_f
    assert net.xbar2.g[0, 0] == spec.g_max
    assert net.xbar2.g[0, 1] == spec.g_min


# --- differential pairs -----------------------------------------------------

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
    with pytest.raises(DimensionError, match="pair halves"):
        interleave_pairs(np.zeros((5, 7)), np.zeros((5, 6)))


# --- assembly ---------------------------------------------------------------

def test_device_count_letter_task():
    # 17x20 first array plus 11x8 second: 428 devices
    cfg = NetworkConfig()
    assert (cfg.rows1, cfg.cols1) == (17, 20)
    assert (cfg.rows2, cfg.cols2) == (11, 8)
    assert cfg.device_count == 428


def test_config_rejects_inconsistent_portions():
    # the portions are derived from the layer sizes and bias rows, so no
    # value can be given for them, consistent or not
    for portions in ({"rows1": 16}, {"rows1": 17, "cols1": 20}):
        with pytest.raises(TypeError, match=next(iter(portions))):
            NetworkConfig(**portions)
    cfg = NetworkConfig(bias1=False, bias2=False)
    assert (cfg.rows1, cfg.rows2) == (16, 10)
    with pytest.raises(AttributeError):
        cfg.rows1 = 17


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
    big = assemble(NetworkConfig(n_inputs=32), DeviceSpec(), seed=4)
    np.testing.assert_array_equal(small.xbar2.v_set, big.xbar2.v_set)


def test_weight_scales_follow_the_banks():
    # 1/r_f siemens per unit weight, read from each bank's params
    net = assemble(NetworkConfig(), DeviceSpec(), seed=0)
    assert net.weight_scale1 == net.weight_scale2 == 1.0 / 2000.0
    net.output_neurons = make_bank(4, NeuronParams(r_f=1000.0,
                                                   out_swing=5.0))
    assert net.weight_scale2 == 1.0 / 1000.0
    assert net.copy().weight_scale2 == 1.0 / 1000.0


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


# a network's parts must match its config; each swap below used to fail
# later, inside a read
@pytest.mark.parametrize("parts, message", [
    (lambda n: {"xbar1": n.xbar2}, "xbar1 shape"),
    (lambda n: {"xbar2": n.xbar1}, "xbar2 shape"),
    (lambda n: {"hidden_neurons": n.output_neurons}, "hidden bank size"),
    (lambda n: {"output_neurons": n.hidden_neurons}, "output bank size"),
], ids=["xbar1", "xbar2", "hidden", "output"])
def test_network_refuses_parts_that_do_not_match(parts, message):
    net = ideal_net()
    with pytest.raises(DimensionError, match=message):
        dataclasses.replace(net, **parts(net))


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
    trace = forward(net, drive(net, levels))
    want = software_forward_oracle(net, levels)
    assert np.max(np.abs(trace.output - want)) < 1e-9


def test_all_midrange_ties_to_class_zero():
    net = ideal_net(seed=1)
    mid = 0.5 * (net.xbar1.spec.g_min + net.xbar1.spec.g_max)
    net.xbar1.g[:] = mid
    net.xbar2.g[:] = mid
    out = forward(net, drive(net, np.ones((1, 16)))).output
    assert classify(out)[0] == 0
    np.testing.assert_allclose(out[0], out[0, 0])


def test_hidden_drive_stays_in_read_window():
    rng = np.random.default_rng(9)
    net = ideal_net(seed=7)
    set_weights(net, rng.uniform(-2, 2, (17, 10)), rng.uniform(-1, 1, (11, 4)))
    trace = forward(net, drive(net, rng.choice([-1.0, 1.0], (200, 16))))
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
    forward(net, drive(net, rng.choice([-1.0, 1.0], (10_000, 16))))
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
    v = drive(net, np.ones((3, 16)))
    assert v.shape == (3, 17)
    np.testing.assert_allclose(v[:, -1], net.config.input_voltage)
    with pytest.raises(DimensionError):
        drive(net, np.ones((3, 15)))


def test_drive_voltages_pm1_levels_pass_through():
    # a pm1 pixel is its own level: the drive is input_voltage times it
    net = ideal_net()
    train, _ = letter_dataset()
    v = drive_voltages(net.config, train)
    assert v[:, :16].tobytes() == (net.config.input_voltage
                                   * train.pixels).tobytes()


def test_drive_voltages_maps_gray_codes_to_levels():
    # code c drives ((c / 255) * 2 - 1) * v: 0 is exactly -v, 255 exactly
    # +v, and every code gives the bits of the float-level input stage it
    # replaced, v * (2 * (c / 255) - 1) from c / 255 floats
    config = NetworkConfig(n_inputs=256)
    codes = np.arange(256, dtype=np.uint8)[None, :]
    v = drive_voltages(config, Dataset(codes, np.array([0]), 10, "gray01"))
    vin = config.input_voltage
    assert v[0, 0] == -vin and v[0, 255] == vin and v[0, 256] == vin
    levels = 2.0 * (codes / 255.0)
    levels -= 1.0
    assert v[:, :256].tobytes() == (levels * vin).tobytes()


def test_evaluate_letters_smoke():
    rng = np.random.default_rng(12)
    net = ideal_net(seed=6)
    set_weights(net, rng.uniform(-1, 1, (17, 10)), rng.uniform(-1, 1, (11, 4)))
    train, _ = letter_dataset()
    r = evaluate(net, train)
    # every one of the 40 patterns is scored
    assert r in [100.0 * k / 40 for k in range(41)]


def test_nan_input_voltage_fails_loudly():
    # NaN drive must raise, not score at chance through argmax of NaN: the
    # config refuses a NaN voltage, and a NaN level fails at the first read
    with pytest.raises(ConfigError, match="input_voltage"):
        NetworkConfig(input_voltage=float("nan"))
    levels = np.ones((2, 16))
    levels[1, 5] = np.nan
    net = ideal_net()
    with pytest.raises(ReadRegimeError):
        forward(net, drive(net, levels))


def test_evaluate_empty_dataset():
    net = ideal_net()
    train, _ = letter_dataset()
    with pytest.raises(ConfigError):
        evaluate(net, train.subset(np.zeros(0, dtype=int)))


# --- row-chunked reads ------------------------------------------------------

def uniform_net(config, seed=0):
    """A network with every conductance drawn uniformly inside its cell's
    bounds, so hidden outputs span their range."""
    net = assemble(config, DeviceSpec(), seed)
    rng = np.random.default_rng(seed)
    for xbar in (net.xbar1, net.xbar2):
        xbar.g[:] = rng.uniform(xbar.g_lo, xbar.g_hi)
    return net


def digit_net(seed=0):
    """A 785x600 / 301x20 uniform_net."""
    return uniform_net(NetworkConfig(n_inputs=784, n_hidden=300,
                                     n_outputs=10), seed)


def whole_batch_forward(net, v_in, *, t=None, noise_sigma=0.0, rng=None):
    """forward as it was before either layer read in row chunks: layer 1
    in one whole-batch read, then layer 2 in one, from one generator, the
    bias column appended with np.hstack."""
    gen = np.random.default_rng(rng) if noise_sigma > 0.0 else None
    i1 = vmm_currents_batch(net.xbar1, v_in, t=t, noise_sigma=noise_sigma,
                            rng=gen)
    hidden = bank_outputs(net.hidden_neurons,
                          net.hidden_neurons.params.r_f * pair_difference(i1))
    v_in2 = np.hstack([hidden, np.full((hidden.shape[0], 1),
                                       net.config.input_voltage)])
    i2 = vmm_currents_batch(net.xbar2, v_in2, t=t, noise_sigma=noise_sigma,
                            rng=gen)
    output = bank_outputs(net.output_neurons,
                          net.output_neurons.params.r_f * pair_difference(i2))
    return ForwardTrace(hidden, v_in2, output)


def assert_traces_identical(got, want):
    for name in ("hidden", "v_in2", "output"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), (
            f"trace field {name} of the row-chunked forward differs from "
            f"the whole-batch read: a matmul split by rows is not bit-exact "
            f"on this BLAS, and forward's chunking assumption fails"
        )


@pytest.mark.parametrize("t, noise_sigma", [
    (None, 0.0),
    (None, 0.05),
    (40.0, 0.0),
    (40.0, 0.05),
])
def test_chunked_forward_equals_whole_batch(t, noise_sigma):
    # 2,500 patterns: two full chunks of 1,000 and a remainder of 500
    assert network._CHUNK_ROWS == 1000
    net = digit_net()
    v_in = drive(net, np.random.default_rng(1).uniform(-1.0, 1.0,
                                                       (2500, 784)))
    gen_got, gen_want = np.random.default_rng(7), np.random.default_rng(7)
    got = forward(net, v_in, t=t, noise_sigma=noise_sigma, rng=gen_got)
    want = whole_batch_forward(net, v_in, t=t, noise_sigma=noise_sigma,
                               rng=gen_want)
    assert_traces_identical(got, want)
    # and the generator is left where the whole-batch draws left it
    assert gen_got.standard_normal() == gen_want.standard_normal()


def test_chunked_evaluate_equals_whole_batch_with_noise():
    rng = np.random.default_rng(2)
    data = Dataset(rng.integers(0, 256, (2100, 784), dtype=np.uint8),
                   rng.integers(0, 10, 2100), 10, "gray01")
    net = digit_net(seed=3)
    got = evaluate(net, data, noise_sigma=0.05,
                   rng=np.random.default_rng(9))
    vin = net.config.input_voltage
    v_in = np.hstack([vin * (2.0 * (data.pixels / 255.0) - 1.0),
                      np.full((len(data), 1), vin)])
    want_out = whole_batch_forward(net, v_in, noise_sigma=0.05,
                                   rng=np.random.default_rng(9)).output
    want = score(classify(want_out), data.labels, 10)
    assert got == want


def test_forward_temporaries_stay_at_chunk_size():
    # a return to whole-batch layer-1 temporaries (the squared drive alone
    # is 4000 x 785 doubles, 25 MB) breaks the bound.  The hidden outputs
    # are a view of layer 2's drive, so the returned trace counts them
    # once.  Two chunks read at once, each holding at most a chunk's
    # squared drive and one chunk-sized product; both share one layer
    # read's two layer-1-sized conductance products (g_eff, which is g
    # itself at t_ref, and g_eff * kappa)
    net = digit_net()
    v_in = drive(net, np.random.default_rng(4).uniform(-1.0, 1.0,
                                                       (4000, 784)))
    chunk = network._CHUNK_ROWS
    assert v_in.shape[0] > 2 * chunk
    two_chunks = 2 * chunk * (net.xbar1.rows + net.xbar1.cols) * 8 \
        + 2 * net.xbar1.g.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = forward(net, v_in)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.shares_memory(trace.hidden, trace.v_in2)
    returned = trace.v_in2.nbytes + trace.output.nbytes
    assert peak <= returned + two_chunks, (
        f"forward allocated {peak / 2**20:.1f} MB over a returned trace of "
        f"{returned / 2**20:.1f} MB; the bound allows "
        f"{two_chunks / 2**20:.1f} MB of temporaries"
    )


@pytest.mark.parametrize("bias2", [True, False])
def test_forward_reads_layer_2_in_chunks_after_layer_1(monkeypatch, bias2):
    # both layers read _CHUNK_ROWS patterns at a time, every layer-1 chunk
    # ending before any layer-2 chunk starts, so read noise draws as one
    # whole read per layer would (test_chunked_forward_equals_whole_batch);
    # the hidden outputs are written straight into layer 2's drive.  Noisy
    # chunks read in row order; noiseless ones may read two at a time
    net = ideal_net(NetworkConfig(bias2=bias2))
    events = []
    lock = threading.Lock()

    def recorded(xbar, v_batch, **kwargs):
        read = (1 if xbar is net.xbar1 else 2, v_batch.shape[0])
        with lock:
            events.append(("start", *read))
        out = vmm_currents_batch(xbar, v_batch, **kwargs)
        with lock:
            events.append(("end", *read))
        return out

    monkeypatch.setattr(network, "vmm_currents_batch", recorded)
    monkeypatch.setattr(crossbar, "_BLOCK_WORKERS", 2)
    assert network._CHUNK_ROWS == 1000
    for noise_sigma in (0.05, 0.0):
        events.clear()
        trace = forward(net, drive(net, np.ones((2500, 16))),
                        noise_sigma=noise_sigma, rng=3)
        starts = [(layer, n) for kind, layer, n in events if kind == "start"]
        if noise_sigma > 0.0:
            assert starts == [(1, 1000), (1, 1000), (1, 500),
                              (2, 1000), (2, 1000), (2, 500)]
        for layer in (1, 2):
            assert sorted(n for ly, n in starts if ly == layer) == \
                [500, 1000, 1000]
        last_layer1_end = max(i for i, (kind, layer, _) in enumerate(events)
                              if kind == "end" and layer == 1)
        first_layer2_start = min(i for i, (kind, layer, _)
                                 in enumerate(events)
                                 if kind == "start" and layer == 2)
        assert last_layer1_end < first_layer2_start
        assert trace.v_in2.shape == (2500, net.xbar2.rows)
        assert np.shares_memory(trace.hidden, trace.v_in2)
        np.testing.assert_array_equal(trace.v_in2[:, :10], trace.hidden)
        if bias2:
            assert np.all(trace.v_in2[:, 10] == net.config.input_voltage)


def _at_each_width(monkeypatch, run):
    """run() with _each_block's pool one worker wide (every block inline,
    in order) and two wide."""
    results = []
    for width in (1, 2):
        monkeypatch.setattr(crossbar, "_BLOCK_WORKERS", width)
        results.append(run())
    return results


def test_forward_and_evaluate_do_not_depend_on_the_pool_width(monkeypatch):
    # 4,000 patterns are four layer-1 and layer-2 chunks; a block that
    # reads or writes rows not its own, or that races another block, gives
    # a trace unlike the serial one
    net = digit_net()
    v_in = drive(net, np.random.default_rng(5).uniform(-1.0, 1.0,
                                                       (4000, 784)))
    serial, pooled = _at_each_width(monkeypatch, lambda: forward(net, v_in))
    for name in ("hidden", "v_in2", "output"):
        assert np.array_equal(getattr(serial, name), getattr(pooled, name)), (
            f"trace field {name} depends on how many chunks read at once"
        )
    rng = np.random.default_rng(6)
    data = Dataset(rng.integers(0, 256, (4000, 784), dtype=np.uint8),
                   rng.integers(0, 10, 4000), 10, "gray01")
    fidelities = _at_each_width(monkeypatch, lambda: evaluate(net, data))
    assert fidelities[0] == fidelities[1]


def test_concurrent_forwards_share_the_pool(monkeypatch):
    # a threaded sweep calls forward from several threads at once, each
    # on its own board, handing its chunks to the one shared pool; with
    # more callers than cores and a short switch interval every caller
    # still gets its own serial trace
    monkeypatch.setattr(crossbar, "_BLOCK_WORKERS", 2)
    nets = [uniform_net(NetworkConfig(), seed) for seed in range(4)]
    drives = [drive(net, np.random.default_rng(seed).choice([-1.0, 1.0],
                                                            (2500, 16)))
              for seed, net in enumerate(nets)]
    want = [forward(net, v) for net, v in zip(nets, drives)]
    got = [None] * len(nets)

    def call(k):
        for _ in range(5):
            got[k] = forward(nets[k], drives[k])
            if not np.array_equal(got[k].output, want[k].output):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,))
                   for k in range(len(nets))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(trace is not None for trace in got), "a caller raised"
    for k in range(len(nets)):
        for name in ("hidden", "v_in2", "output"):
            assert np.array_equal(getattr(got[k], name),
                                  getattr(want[k], name))


@pytest.mark.parametrize("bad", [np.nan, 3.0])
def test_a_bad_row_read_on_a_pool_thread_raises(monkeypatch, bad):
    # row 1,500 sits in the second of three chunks, read on a pool thread;
    # its error reaches the caller, and the pool still reads afterwards
    monkeypatch.setattr(crossbar, "_BLOCK_WORKERS", 2)
    net = uniform_net(NetworkConfig())
    levels = np.random.default_rng(8).choice([-1.0, 1.0], (2500, 16))
    good = forward(net, drive(net, levels))
    bad_levels = levels.copy()
    bad_levels[1500, 3] = bad  # 3.0 drives 0.6 V, over READ_REGIME_MAX
    with pytest.raises(ReadRegimeError):
        forward(net, drive(net, bad_levels))
    with pytest.raises(ReadRegimeError):
        evaluate(net, Dataset(bad_levels, np.zeros(2500, int), 4))
    again = forward(net, drive(net, levels))
    for name in ("hidden", "v_in2", "output"):
        assert np.array_equal(getattr(again, name), getattr(good, name))


def test_forward_rejects_a_drive_of_the_wrong_width():
    net = ideal_net()
    with pytest.raises(DimensionError):
        forward(net, np.ones((3, 16)))
