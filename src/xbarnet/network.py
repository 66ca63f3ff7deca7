"""Two-crossbar perceptron: assembly, differential pairs, inference, scoring.

The network is a 3-layer perceptron carried by two passive arrays.  Signed
weights live as differential conductance pairs: adjacent columns (2j, 2j+1)
hold (G+, G-) of neuron j, and the neuron sees r_f * (I+ - I-).  With the
import scale fixed at 1/r_f siemens per unit weight, the differential
voltage reaching neuron j is exactly (W^T v)_j, so hardware inference and
the plain matrix forward pass agree to float rounding on ideal devices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import bench
from .crossbar import (Crossbar, _each_block, _read_products, build_crossbar,
                       vmm_currents_batch)
from .device import DeviceSpec
from .errors import (POSITIVE, ConfigError, DimensionError, boolean,
                     check_fields, checked, count)
from .neuron import NeuronBank, NeuronParams, bank_outputs, make_bank


@dataclass(frozen=True)
class NetworkConfig:
    n_inputs: int = checked(16, count())
    n_hidden: int = checked(10, count())
    n_outputs: int = checked(4, count())
    bias1: bool = checked(True, boolean)
    bias2: bool = checked(True, boolean)
    input_voltage: float = checked(0.2, POSITIVE)

    def __post_init__(self):
        check_fields(self)

    # crossbar portions, fixed by the layer sizes and bias rows
    @property
    def rows1(self) -> int:
        return self.n_inputs + int(self.bias1)

    @property
    def cols1(self) -> int:
        return 2 * self.n_hidden

    @property
    def rows2(self) -> int:
        return self.n_hidden + int(self.bias2)

    @property
    def cols2(self) -> int:
        return 2 * self.n_outputs

    @property
    def device_count(self) -> int:
        return self.rows1 * self.cols1 + self.rows2 * self.cols2


@dataclass
class Network:
    config: NetworkConfig
    xbar1: Crossbar
    xbar2: Crossbar
    hidden_neurons: NeuronBank
    output_neurons: NeuronBank

    def __post_init__(self):
        c = self.config
        if (self.xbar1.rows, self.xbar1.cols) != (c.rows1, c.cols1):
            raise DimensionError("xbar1 shape does not match config")
        if (self.xbar2.rows, self.xbar2.cols) != (c.rows2, c.cols2):
            raise DimensionError("xbar2 shape does not match config")
        if self.hidden_neurons.n != c.n_hidden:
            raise DimensionError("hidden bank size does not match config")
        if self.output_neurons.n != c.n_outputs:
            raise DimensionError("output bank size does not match config")

    def copy(self) -> "Network":
        return Network(
            config=self.config,
            xbar1=self.xbar1.copy(),
            xbar2=self.xbar2.copy(),
            hidden_neurons=self.hidden_neurons.copy(),
            output_neurons=self.output_neurons.copy(),
        )

    # import scales in siemens per unit weight: 1/r_f of each bank, so the
    # r_f transimpedance stage makes the differential voltage W^T v exactly
    @property
    def weight_scale1(self) -> float:
        return 1.0 / self.hidden_neurons.params.r_f

    @property
    def weight_scale2(self) -> float:
        return 1.0 / self.output_neurons.params.r_f


# ---------------------------------------------------------------------------
# differential pairs (weight targets: training.conductance_targets)
# ---------------------------------------------------------------------------


def interleave_pairs(g_plus: np.ndarray, g_minus: np.ndarray) -> np.ndarray:
    """(rows, n) pair halves -> (rows, 2n) column grid, (G+, G-) adjacent."""
    if g_plus.shape != g_minus.shape:
        raise DimensionError("pair halves must share a shape")
    out = np.empty((g_plus.shape[0], 2 * g_plus.shape[1]))
    out[:, 0::2] = g_plus
    out[:, 1::2] = g_minus
    return out


def pair_difference(grid: np.ndarray) -> np.ndarray:
    """(rows, 2n) column grid -> (rows, n) of G+ - G-."""
    if grid.shape[1] % 2:
        raise DimensionError("column count must be even to form pairs")
    return grid[:, 0::2] - grid[:, 1::2]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble(config: NetworkConfig, spec: DeviceSpec, seed) -> Network:
    """Build both crossbars and neuron banks; deterministic under seed.

    The two arrays draw from independently spawned seed streams, so the
    second array's devices do not depend on the first array's size.  The
    banks take the stock neuron params, so the weight scales are 1/r_f; the
    output bank has no divider, so its swing is its v_sat.
    """
    ss = np.random.SeedSequence(seed)
    s1, s2 = ss.spawn(2)
    hidden = NeuronParams()
    return Network(
        config=config,
        xbar1=build_crossbar(config.rows1, config.cols1, spec, s1),
        xbar2=build_crossbar(config.rows2, config.cols2, spec, s2),
        hidden_neurons=make_bank(config.n_hidden, hidden),
        output_neurons=make_bank(config.n_outputs,
                                 replace(hidden, out_swing=hidden.v_sat)),
    )


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# patterns per crossbar read in forward: bounds the read temporaries at a
# chunk's size without changing any result (see forward)
_CHUNK_ROWS = 1000


@dataclass
class ForwardTrace:
    """What one batched hardware forward pass leaves for its readers: the
    hidden outputs, layer 2's row voltages and the output voltages.  Layer
    2's drive holds the hidden outputs in its first n_hidden columns, so
    hidden is a view of v_in2, not an array of its own."""

    hidden: np.ndarray
    v_in2: np.ndarray
    output: np.ndarray


def with_bias(x: np.ndarray, bias: bool, v: float) -> np.ndarray:
    """A batch of row voltages (n, k) -> (n, k + 1) with a constant bias
    column at v appended, or x itself when the layer has no bias."""
    if not bias:
        return x
    n, k = x.shape
    out = np.empty((n, k + 1))
    out[:, :k] = x
    out[:, k] = v
    return out


def drive_voltages(config: NetworkConfig, dataset: bench.Dataset
                   ) -> np.ndarray:
    """A dataset's layer-1 row voltage batch, bias column appended: the one
    input stage of the hardware and the software model.

    A pm1 pixel is its own drive level; a gray01 code c is the level
    2 * (c / 255) - 1.  Each level is scaled by input_voltage.  The batch is
    one new array, and the levels are computed in it in place,
    ((c / 255) * 2 - 1) * input_voltage in that order, so no full-size
    levels array is made first.
    """
    n, k = dataset.pixels.shape
    if k != config.n_inputs:
        raise DimensionError(
            f"got {k} inputs, network expects {config.n_inputs}"
        )
    v = config.input_voltage
    out = np.empty((n, config.rows1))
    levels = out[:, :k]
    if dataset.encoding == "gray01":
        np.divide(dataset.pixels, 255.0, out=levels)
        levels *= 2.0
        levels -= 1.0
        levels *= v
    else:
        np.multiply(dataset.pixels, v, out=levels)
    if config.bias1:
        out[:, k] = v
    return out


def _read_layer(xbar: Crossbar, bank: NeuronBank, v: np.ndarray,
                out: np.ndarray, *, t: float | None, noise_sigma: float, rng):
    """Neuron outputs of one layer into out, for the drive batch v read
    _CHUNK_ROWS patterns at a time.

    The conductance products are built once and shared by every chunk.
    Noiseless chunks run two at a time on _each_block's threads: each is
    the same vmm_currents_batch call on the same rows as in a serial loop
    and writes only its own rows of out, so the result is the same bit for
    bit.  Noisy chunks run in row order on the calling thread, so the one
    generator draws as a serial loop draws.
    """
    r_f = bank.params.r_f
    products = _read_products(xbar, t)

    def read(rows: slice):
        i = vmm_currents_batch(xbar, v[rows], t=t, noise_sigma=noise_sigma,
                               rng=rng, products=products)
        out[rows] = bank_outputs(bank, r_f * pair_difference(i))

    _each_block(read, v.shape[0], _CHUNK_ROWS, ordered=noise_sigma > 0.0)


def forward(
    net: Network,
    v_in: np.ndarray,
    *,
    t: float | None = None,
    noise_sigma: float = 0.0,
    rng=None,
) -> ForwardTrace:
    """Hardware forward pass over a batch of row voltages (n, rows1), as
    drive_voltages builds it from a dataset.

    Each layer reads its batch in chunks of _CHUNK_ROWS patterns, so the
    read temporaries (squared drive, column currents, noise terms,
    pre-activations) are a chunk in size, not a batch.  The hidden outputs
    go straight into layer 2's drive, whose bias column is filled once.
    That is exact on the assumption that a matmul split by rows equals the
    whole product bit for bit, which holds on a single-threaded BLAS
    because each row keeps its own reduction order; tests/test_network.py
    compares the chunked pass with a whole-batch one and fails if a BLAS
    breaks it.

    A noiseless pass reads two chunks of a layer at a time, on two threads
    (_read_layer); that adds no assumption, since a chunk's bits do not
    depend on the thread that reads it, and at most two chunks' temporaries
    are alive at once.  With read noise every chunk reads in row order on
    the calling thread.  Layer 2 reads only after every layer-1 chunk has
    ended, so the generator still gives layer 1 its draws first, in row
    order (consecutive chunk draws are one whole-batch draw split by rows),
    then layer 2, in row order.
    """
    gen = np.random.default_rng(rng) if noise_sigma > 0.0 else None
    v_in = np.asarray(v_in, dtype=np.float64)
    if v_in.ndim != 2 or v_in.shape[1] != net.xbar1.rows:
        raise DimensionError(
            f"drive batch has shape {v_in.shape}, expected "
            f"(n, {net.xbar1.rows})"
        )
    n, k = v_in.shape[0], net.config.n_hidden
    read = dict(t=t, noise_sigma=noise_sigma, rng=gen)
    v_in2 = np.empty((n, net.xbar2.rows))
    if net.config.bias2:
        v_in2[:, k] = net.config.input_voltage
    hidden = v_in2[:, :k]
    _read_layer(net.xbar1, net.hidden_neurons, v_in, hidden, **read)
    output = np.empty((n, net.config.n_outputs))
    _read_layer(net.xbar2, net.output_neurons, v_in2, output, **read)
    return ForwardTrace(hidden, v_in2, output)


def classify(output_volts: np.ndarray) -> np.ndarray:
    """Argmax over output voltages, ties broken toward the lowest index."""
    return np.argmax(np.atleast_2d(output_volts), axis=1)


def evaluate(
    net: Network,
    dataset: bench.Dataset,
    t: float | None = None,
    *,
    noise_sigma: float = 0.0,
    rng=None,
) -> float:
    """Classification fidelity (percent) of net on dataset."""
    if len(dataset) == 0:
        raise ConfigError("dataset is empty")
    trace = forward(net, drive_voltages(net.config, dataset), t=t,
                    noise_sigma=noise_sigma, rng=rng)
    k = max(dataset.n_classes, net.config.n_outputs)
    return bench.score(classify(trace.output), dataset.labels, k)
