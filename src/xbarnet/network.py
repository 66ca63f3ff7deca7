"""Two-crossbar perceptron: assembly, weight mapping, inference, scoring.

The network is a 3-layer perceptron carried by two passive arrays.  Signed
weights live as differential conductance pairs: adjacent columns (2j, 2j+1)
hold (G+, G-) of neuron j, and the neuron sees r_f * (I+ - I-).  With the
import scale fixed at 1/r_f siemens per unit weight, the differential
voltage reaching neuron j is exactly (W^T v)_j, so hardware inference and
the plain matrix forward pass agree to float rounding on ideal devices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bench
from .crossbar import Crossbar, build_crossbar, vmm_currents_batch
from .device import DeviceSpec
from .errors import (
    ConfigError,
    DimensionError,
    require_count,
    require_finite,
)
from .neuron import NeuronBank, NeuronParams, bank_outputs, make_bank


@dataclass(frozen=True)
class NetworkConfig:
    n_inputs: int = 16
    n_hidden: int = 10
    n_outputs: int = 4
    bias1: bool = True
    bias2: bool = True
    input_voltage: float = 0.2
    # crossbar portions; None derives them from the layer sizes
    rows1: int = None  # type: ignore[assignment]
    cols1: int = None  # type: ignore[assignment]
    rows2: int = None  # type: ignore[assignment]
    cols2: int = None  # type: ignore[assignment]

    def __post_init__(self):
        require_count(self, "n_inputs", "n_hidden", "n_outputs")
        require_finite(self, "input_voltage")
        if min(self.n_inputs, self.n_hidden, self.n_outputs) < 1:
            raise ConfigError("layer sizes must be positive")
        if self.input_voltage <= 0:
            raise ConfigError("input_voltage must be positive")
        derived = (
            ("rows1", self.n_inputs + int(self.bias1)),
            ("cols1", 2 * self.n_hidden),
            ("rows2", self.n_hidden + int(self.bias2)),
            ("cols2", 2 * self.n_outputs),
        )
        for name, want in derived:
            have = getattr(self, name)
            if have is None:
                object.__setattr__(self, name, want)
                continue
            require_count(self, name)
            if have != want:
                raise DimensionError(
                    f"config field {name} = {have} inconsistent with layer "
                    f"sizes (expected {want})"
                )

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
    weight_scale1: float = 0.0
    weight_scale2: float = 0.0

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
            weight_scale1=self.weight_scale1,
            weight_scale2=self.weight_scale2,
        )


# ---------------------------------------------------------------------------
# weight <-> conductance mapping
# ---------------------------------------------------------------------------


def map_weights(
    w: np.ndarray,
    g_min: float,
    g_max: float,
    *,
    scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Map signed unit weights onto (G+, G-) target pairs.

    Default auto-scale puts max|w| across the full conductance span; passing
    ``scale`` (siemens per unit weight) fixes the mapping instead, with
    out-of-span weights clamped at the rails.  Returns (g_plus, g_minus,
    scale_used); the scale makes weights and pairs mutually convertible via
    w = (g_plus - g_minus)/scale.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ConfigError("weight matrix must be finite")
    if g_max <= g_min or g_min <= 0:
        raise ConfigError("need 0 < g_min < g_max")
    if scale is None:
        w_max = np.abs(w).max() if w.size else 0.0
        if w_max == 0.0:
            warnings.warn(
                "all-zero weights: auto-scale undefined, mapping every pair "
                "to mid-range (scale 0)",
                RuntimeWarning,
                stacklevel=2,
            )
            scale = 0.0
        else:
            scale = (g_max - g_min) / w_max
    elif scale < 0:
        raise ConfigError("scale must be nonnegative")
    g_mid = 0.5 * (g_min + g_max)
    g_plus = np.clip(g_mid + 0.5 * scale * w, g_min, g_max)
    g_minus = np.clip(g_mid - 0.5 * scale * w, g_min, g_max)
    return g_plus, g_minus, float(scale)


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


def assemble(
    config: NetworkConfig,
    spec: DeviceSpec,
    seed,
    *,
    hidden_params: NeuronParams | None = None,
    output_params: NeuronParams | None = None,
) -> Network:
    """Build both crossbars and neuron banks; deterministic under seed.

    The two arrays draw from independently spawned seed streams, so the
    second array's devices do not depend on the first array's size.  Weight
    scales are fixed at 1/r_f per layer: combined with the r_f transimpedance
    stage this makes the differential voltage equal W^T v exactly.
    """
    hp = hidden_params if hidden_params is not None else NeuronParams()
    op = output_params if output_params is not None else NeuronParams(
        is_output_layer=True
    )
    if not op.is_output_layer:
        raise ConfigError("output_params must have is_output_layer set")
    ss = np.random.SeedSequence(seed)
    s1, s2 = ss.spawn(2)
    return Network(
        config=config,
        xbar1=build_crossbar(config.rows1, config.cols1, spec, s1),
        xbar2=build_crossbar(config.rows2, config.cols2, spec, s2),
        hidden_neurons=make_bank(config.n_hidden, hp),
        output_neurons=make_bank(config.n_outputs, op),
        weight_scale1=1.0 / hp.r_f,
        weight_scale2=1.0 / op.r_f,
    )


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """Everything observable inside one batched hardware forward pass."""

    v_in: np.ndarray
    vdiff1: np.ndarray
    hidden: np.ndarray
    v_in2: np.ndarray
    vdiff2: np.ndarray
    output: np.ndarray


def with_bias(x: np.ndarray, bias: bool, v: float) -> np.ndarray:
    """A batch of row voltages (n, k) -> (n, k + 1) with a constant bias
    row at v appended, or x itself when the layer has no bias."""
    if not bias:
        return x
    return np.hstack([x, np.full((x.shape[0], 1), v)])


def drive_voltages(net: Network, levels: np.ndarray) -> np.ndarray:
    """Input drive levels in [-1, 1] -> row voltage batch, bias appended."""
    levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
    if levels.shape[1] != net.config.n_inputs:
        raise DimensionError(
            f"got {levels.shape[1]} inputs, network expects "
            f"{net.config.n_inputs}"
        )
    v = net.config.input_voltage
    return with_bias(v * levels, net.config.bias1, v)


def forward(
    net: Network,
    levels: np.ndarray,
    *,
    t: float | None = None,
    noise_sigma: float = 0.0,
    rng=None,
) -> ForwardTrace:
    """Hardware forward pass over a batch of input levels (n, n_inputs)."""
    gen = np.random.default_rng(rng) if noise_sigma > 0.0 else None
    v_in = drive_voltages(net, levels)
    i1 = vmm_currents_batch(net.xbar1, v_in, t=t, noise_sigma=noise_sigma,
                            rng=gen)
    vdiff1 = net.hidden_neurons.params.r_f * pair_difference(i1)
    hidden = bank_outputs(net.hidden_neurons, vdiff1)
    v_in2 = with_bias(hidden, net.config.bias2, net.config.input_voltage)
    i2 = vmm_currents_batch(net.xbar2, v_in2, t=t, noise_sigma=noise_sigma,
                            rng=gen)
    vdiff2 = net.output_neurons.params.r_f * pair_difference(i2)
    output = bank_outputs(net.output_neurons, vdiff2)
    return ForwardTrace(v_in, vdiff1, hidden, v_in2, vdiff2, output)


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
) -> bench.ScoreResult:
    """Classification fidelity (percent) plus confusion counts."""
    if len(dataset) == 0:
        raise ConfigError("dataset is empty")
    levels = bench.encode_levels(dataset)
    trace = forward(net, levels, t=t, noise_sigma=noise_sigma, rng=rng)
    k = max(dataset.n_classes, net.config.n_outputs)
    return bench.score(classify(trace.output), dataset.labels, k)
