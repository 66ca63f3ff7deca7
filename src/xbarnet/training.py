"""Training schemes: precursor backprop, defect-aware retraining, weight
import, in-situ Manhattan updates, and the hybrid pipeline.

One gradient engine serves both software schemes.  The forward model for a
differential pair with weight w (scale s siemens per unit, r_f * s = 1) is

    vdiff = sum_r v_r * w_r + v_r^2 * (c_r + d_r * w_r)

where c and d capture the quadratic read distortion: for a fully tunable
pair c = r_f * g_mid * (kappa+ - kappa-), d = (kappa+ + kappa-)/2; when one
device of the pair is stuck, the weight reparameterizes onto the remaining
free device, which changes c, d, and the feasible weight box; a fully stuck
pair freezes w.  A precursor run is the same engine with c = d = 0 and no
frozen cells, so defect-aware training with empty maps is bit-identical to
it under one seed; the engine skips the quadratic products there, which
are exactly zero.

Import has one rule as well: conductance_targets maps a fitted SoftwareNet,
the only carrier of a fit to hardware, onto per-cell targets; the blind
ex-situ import is its map-free case, where no pair is stuck.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import device as dev
from . import network as netmod
from .bench import Dataset
from .crossbar import (Crossbar, _each_block, measure_maps, pulse_all,
                       threshold_minima, write_pulse)
from .device import DefectKind, DeviceSpec
from .errors import (FINITE, NONNEG, POSITIVE, ConfigError, DimensionError,
                     DivergenceError, boolean, check_fields, checked, choice,
                     count, optional)
from .network import Network, NetworkConfig, drive_voltages, forward, \
    pair_difference, with_bias
from .neuron import NeuronParams, slope, transfer
from .progtune import TuneConfig, TuningReport, diagnose_defects, \
    import_conductance_map


class Loss(enum.Enum):
    SQUARED_ERROR = "squared-error"
    CROSS_ENTROPY_SOFTMAX = "cross-entropy-softmax"


class Scheme(enum.Enum):
    EX_SITU = "ex-situ"
    DEFECT_AWARE = "defect-aware"
    IN_SITU = "in-situ"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class TrainHyper:
    lr: float = checked(0.05, POSITIVE)
    epochs: int = checked(200, count())
    batch_size: int | None = checked(None, optional(count()))
    loss: Loss = checked(Loss.SQUARED_ERROR, choice(*Loss))
    seed: int = 0
    early_stop_fidelity: float = checked(100.0, FINITE)
    # epochs to keep training after the stop fidelity is first reached; the
    # extra descent grows decision margins so the fit survives the ~5%
    # conductance blur a hardware import adds on top
    margin_epochs: int = checked(20, count(0))
    target_volts: float = checked(1.0, POSITIVE)
    init_scale: float = checked(0.02, NONNEG)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class InSituConfig:
    # amplitudes sit just above the mean threshold: the fixed-voltage input
    # stage cannot scale pulses per device, so devices in the slow tail of
    # the threshold spread barely move while the fast tail overshoots
    v_pulse_set: float = checked(1.02, POSITIVE)
    v_pulse_reset: float = checked(1.02, POSITIVE)
    width: float = checked(5e-2, POSITIVE)
    epochs: int = checked(25, count())
    target_volts: float = checked(1.0, POSITIVE)
    half_select: bool = checked(True, boolean)

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainingReport:
    trace: list[int]
    final_train_fidelity: float
    final_test_fidelity: float | None


# ---------------------------------------------------------------------------
# measured maps and the defect-aware layer model
# ---------------------------------------------------------------------------


@dataclass
class MeasuredMaps:
    """Per-crossbar readouts a tester would hold before retraining."""

    g1: np.ndarray
    asym1: np.ndarray
    flags1: np.ndarray
    g2: np.ndarray
    asym2: np.ndarray
    flags2: np.ndarray
    v_read: float


def measure_network_maps(
    net: Network, cfg: TuneConfig
) -> tuple[Network, MeasuredMaps]:
    """Probe both crossbars for stuck cells and read the conductance and
    asymmetry maps.  Probing pulses the devices of net in place, so net
    comes back, perturbed, along with the maps."""
    _, flags1 = diagnose_defects(net.xbar1, cfg)
    _, flags2 = diagnose_defects(net.xbar2, cfg)
    g1, asym1 = measure_maps(net.xbar1, cfg.v_read)
    g2, asym2 = measure_maps(net.xbar2, cfg.v_read)
    return net, MeasuredMaps(g1, asym1, flags1, g2, asym2, flags2,
                             cfg.v_read)


def kappa_from_asymmetry(asym_percent: np.ndarray, v_read: float) -> np.ndarray:
    """Invert the read-asymmetry definition back to the quadratic coefficient:
    A = 100 * 2 kv / (1 + kv)  =>  k = A' / (v (2 - A'))."""
    a = np.asarray(asym_percent, dtype=np.float64) / 100.0
    return a / (v_read * (2.0 - a))


@dataclass
class LayerModel:
    """One layer of the software forward model, per differential pair.

    c, d and frozen are fixed once the layer is built, so whether the layer
    has any quadratic term or any frozen pair is read from them once, here;
    a fit changes only w.
    """

    w: np.ndarray
    c: np.ndarray
    d: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    frozen: np.ndarray
    # per-cell import bookkeeping: measured conductance of stuck devices
    stuck_plus: np.ndarray
    stuck_minus: np.ndarray
    g_stuck_plus: np.ndarray
    g_stuck_minus: np.ndarray
    quadratic: bool = field(init=False)
    any_frozen: bool = field(init=False)

    def __post_init__(self):
        self.quadratic = bool(np.any(self.c) or np.any(self.d))
        self.any_frozen = bool(np.any(self.frozen))


def _blank_layer(rows: int, pairs: int, limit: float) -> LayerModel:
    """A map-free layer.  Only w is an array of its own; every other field
    is a constant, held as a read-only broadcast view, so a kept fit costs
    its weights alone."""
    shape = (rows, pairs)

    def const(value, dtype=np.float64):
        return np.broadcast_to(np.array(value, dtype=dtype), shape)

    no = const(False, bool)
    return LayerModel(
        w=np.zeros(shape), c=const(0.0), d=const(0.0),
        w_lo=const(-limit), w_hi=const(limit),
        frozen=no, stuck_plus=no, stuck_minus=no,
        g_stuck_plus=const(np.nan), g_stuck_minus=const(np.nan),
    )


def _layer_from_maps(
    g_map: np.ndarray,
    asym: np.ndarray,
    flags: np.ndarray,
    v_read: float,
    spec: DeviceSpec,
    r_f: float,
    limit: float,
) -> LayerModel:
    kappa = kappa_from_asymmetry(asym, v_read)
    g_true = np.asarray(g_map, dtype=np.float64) / (1.0 + kappa * v_read)
    kp, km = kappa[:, 0::2], kappa[:, 1::2]
    gp, gm = g_true[:, 0::2], g_true[:, 1::2]
    stuck = np.asarray(flags) != DefectKind.NONE
    sp, sm = stuck[:, 0::2], stuck[:, 1::2]
    g_mid = 0.5 * (spec.g_min + spec.g_max)
    w_lo = np.full(sp.shape, -float(limit))
    w_hi = np.full(sp.shape, float(limit))

    free = ~sp & ~sm
    c = np.where(free, r_f * g_mid * (kp - km), 0.0)
    d = np.where(free, 0.5 * (kp + km), 0.0)

    only_p = sp & ~sm
    c = np.where(only_p, r_f * gp * (kp - km), c)
    d = np.where(only_p, km, d)
    w_lo = np.where(only_p, np.maximum(r_f * (gp - spec.g_max), -limit), w_lo)
    w_hi = np.where(only_p, np.minimum(r_f * (gp - spec.g_min), limit), w_hi)

    only_m = ~sp & sm
    c = np.where(only_m, r_f * gm * (kp - km), c)
    d = np.where(only_m, kp, d)
    w_lo = np.where(only_m, np.maximum(r_f * (spec.g_min - gm), -limit), w_lo)
    w_hi = np.where(only_m, np.minimum(r_f * (spec.g_max - gm), limit), w_hi)

    # built last: LayerModel reads its flags from c, d and frozen
    both = sp & sm
    w_frozen = r_f * (gp - gm)
    return LayerModel(
        w=np.where(both, w_frozen, 0.0),
        c=np.where(both, r_f * (gp * kp - gm * km), c),
        d=np.where(both, 0.0, d),
        w_lo=np.where(both, w_frozen, w_lo),
        w_hi=np.where(both, w_frozen, w_hi),
        frozen=both,
        stuck_plus=sp.copy(),
        stuck_minus=sm.copy(),
        g_stuck_plus=np.where(sp, gp, np.nan),
        g_stuck_minus=np.where(sm, gm, np.nan),
    )


@dataclass
class SoftwareNet:
    """Differentiable stand-in for the hardware forward pass.  config is
    the network's own, so both build their row voltages with the one input
    stage, drive_voltages."""

    layer1: LayerModel
    layer2: LayerModel
    config: NetworkConfig
    hidden_params: NeuronParams
    output_params: NeuronParams


def build_software_net(net: Network, maps: MeasuredMaps | None = None
                       ) -> SoftwareNet:
    """The differentiable model of net: its architecture, neuron params and
    device spec, each weight boxed to 0.95 of the conductance span at its
    layer's import scale.  With maps, the defect-annotated model of the
    measured arrays; without, ideal pairs and no quadratic terms."""
    arch, spec = net.config, net.xbar1.spec
    hp, op = net.hidden_neurons.params, net.output_neurons.params
    span = spec.g_max - spec.g_min
    lim1 = 0.95 * span / net.weight_scale1
    lim2 = 0.95 * span / net.weight_scale2
    if maps is None:
        layer1 = _blank_layer(arch.rows1, arch.n_hidden, lim1)
        layer2 = _blank_layer(arch.rows2, arch.n_outputs, lim2)
    else:
        if maps.g1.shape != (arch.rows1, arch.cols1) \
                or maps.g2.shape != (arch.rows2, arch.cols2):
            raise DimensionError("measured maps do not match the architecture")
        layer1 = _layer_from_maps(maps.g1, maps.asym1, maps.flags1,
                                  maps.v_read, spec, hp.r_f, lim1)
        layer2 = _layer_from_maps(maps.g2, maps.asym2, maps.flags2,
                                  maps.v_read, spec, op.r_f, lim2)
    return SoftwareNet(layer1, layer2, arch, hp, op)


# ---------------------------------------------------------------------------
# forward/backward
# ---------------------------------------------------------------------------


def _vdiff(x: np.ndarray, layer: LayerModel) -> np.ndarray:
    """x @ w + (x*x) @ (c + d*w), the second term skipped on a layer whose
    c and d are all zero, where it is exactly zero."""
    vdiff = x @ layer.w
    if layer.quadratic:
        vdiff += (x * x) @ (layer.c + layer.d * layer.w)
    return vdiff


def _forward(snet: SoftwareNet, x1: np.ndarray):
    vdiff1 = _vdiff(x1, snet.layer1)
    hidden = transfer(vdiff1, snet.hidden_params)
    x2 = with_bias(hidden, snet.config.bias2, snet.config.input_voltage)
    vdiff2 = _vdiff(x2, snet.layer2)
    y = transfer(vdiff2, snet.output_params)
    return y, hidden, vdiff1, vdiff2, x1, x2


def software_forward(snet: SoftwareNet, dataset: Dataset):
    """Batched forward pass over a dataset's drive (drive_voltages);
    returns (y, hidden, vdiff1, vdiff2, x1, x2).

    Each layer computes vdiff = x @ w + (x*x) @ (c + d*w).  On a layer
    whose c and d are all zero (both layers of a precursor fit) the
    quadratic term is exactly zero and is skipped, as is x*x.
    """
    return _forward(snet, drive_voltages(snet.config, dataset))


def _loss_delta(y: np.ndarray, labels: np.ndarray, loss: Loss,
                target_volts: float) -> tuple[float, np.ndarray]:
    """Loss value and dL/dy, both averaged over the batch."""
    n = y.shape[0]
    onehot = np.zeros_like(y)
    onehot[np.arange(n), labels] = 1.0
    if loss is Loss.SQUARED_ERROR:
        t = target_volts * (2.0 * onehot - 1.0)
        r = y - t
        return float(0.5 * np.sum(r * r) / n), r / n
    z = y - y.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    value = float(-np.mean(np.log(np.maximum(p[np.arange(n), labels], 1e-300))))
    return value, (p - onehot) / n


def _dw(x: np.ndarray, delta: np.ndarray, layer: LayerModel) -> np.ndarray:
    dw = x.T @ delta
    if layer.quadratic:
        dw += layer.d * ((x * x).T @ delta)
    if layer.any_frozen:
        dw[layer.frozen] = 0.0
    return dw


def _loss_and_grads(snet: SoftwareNet, x1: np.ndarray, labels: np.ndarray,
                    loss: Loss, target_volts: float):
    """(loss, dW1, dW2, misclassification count) for one batch of row
    voltages x1.

    Gradients on frozen pairs are zeroed; the caller applies boxes.  The
    quadratic terms are skipped on a layer without any, as in
    software_forward.
    """
    y, hidden, vdiff1, vdiff2, _, x2 = _forward(snet, x1)
    labels = np.asarray(labels)
    n_err = int(np.sum(np.argmax(y, axis=1) != labels))
    value, dy = _loss_delta(y, labels, loss, target_volts)

    l2 = snet.layer2
    hp, op = snet.hidden_params, snet.output_params
    lin2 = (np.abs(op.gain * vdiff2) < op.v_sat).astype(np.float64)
    delta2 = dy * slope(op) * lin2
    dx2 = delta2 @ l2.w.T
    if l2.quadratic:
        dx2 += 2.0 * x2 * (delta2 @ (l2.c + l2.d * l2.w).T)
    dh = dx2[:, : hidden.shape[1]]
    lin1 = (np.abs(hp.gain * vdiff1) < hp.v_sat).astype(np.float64)
    delta1 = dh * slope(hp) * lin1
    return value, _dw(x1, delta1, snet.layer1), _dw(x2, delta2, l2), n_err


# patterns per _forward in _count_errors: the per-epoch error count holds a
# chunk's activations at a time, not the fit set's
_COUNT_CHUNK_ROWS = 250


def _count_errors(snet: SoftwareNet, x1: np.ndarray,
                  labels: np.ndarray) -> int:
    """Misclassified rows of x1, counted _COUNT_CHUNK_ROWS at a time.

    A row's output may differ in its last bits from a whole-batch pass's,
    since a BLAS need not give a 250-row product the bits of the same rows
    of a longer one, so only a near-tie of two outputs could move the
    count; the chunked count is the one every pinned fit records.  The
    chunks run two at a time on crossbar._each_block's threads.  Each is
    the same _forward on the same rows as in a serial loop, and their
    counts are summed as integers, so the count is the serial one.
    """
    def count(rows: slice) -> int:
        y, *_ = _forward(snet, x1[rows])
        return int(np.sum(np.argmax(y, axis=1) != labels[rows]))

    return sum(_each_block(count, x1.shape[0], _COUNT_CHUNK_ROWS))


def _fit(snet: SoftwareNet, dataset: Dataset, hyper: TrainHyper
         ) -> list[int]:
    """In-place SGD over the software model on dataset; returns the error
    trace.

    A fit whose loss or weights become non-finite, or whose last epoch
    scores no better than chance (100 / n_classes percent) on the fit set,
    raises DivergenceError.  The input drive is built once.
    """
    rng = np.random.default_rng(hyper.seed)
    for layer in (snet.layer1, snet.layer2):
        init = rng.normal(0.0, hyper.init_scale, layer.w.shape)
        layer.w = np.where(layer.frozen, layer.w,
                           np.clip(init, layer.w_lo, layer.w_hi))
    x1 = drive_voltages(snet.config, dataset)
    labels = dataset.labels
    n = x1.shape[0]
    bs = hyper.batch_size or n
    trace = []
    tail = 0
    for epoch in range(hyper.epochs):
        order = rng.permutation(n) if bs < n else np.arange(n)
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            value, dw1, dw2, _ = _loss_and_grads(
                snet, x1[idx], labels[idx], hyper.loss, hyper.target_volts,
            )
            if not np.isfinite(value):
                raise DivergenceError(
                    f"loss became non-finite at epoch {epoch}", epoch=epoch
                )
            # w - lr * dw, clipped, computed in dw's buffer: the same
            # operations in the same order, with no whole-layer temporary
            for layer, dw in ((snet.layer1, dw1), (snet.layer2, dw2)):
                dw *= hyper.lr
                np.subtract(layer.w, dw, out=dw)
                layer.w = np.clip(dw, layer.w_lo, layer.w_hi, out=dw)
        # a skipped quadratic term cannot turn non-finite weights into a
        # NaN loss, and clipping the outputs can hide them, so check here
        if not (np.isfinite(snet.layer1.w).all()
                and np.isfinite(snet.layer2.w).all()):
            raise DivergenceError(
                f"weights became non-finite at epoch {epoch}", epoch=epoch
            )
        errors = _count_errors(snet, x1, labels)
        trace.append(errors)
        if 100.0 * (1.0 - errors / n) >= hyper.early_stop_fidelity:
            tail += 1
            if tail > hyper.margin_epochs:
                break
        else:
            tail = 0
    _refuse_chance("fit", trace, dataset)
    return trace


def _refuse_chance(what: str, trace: list[int], fit_set: Dataset):
    """Raise DivergenceError when the last error count of trace leaves the
    fit set at or below chance, 100 / n_classes percent."""
    fidelity = 100.0 * (1.0 - trace[-1] / len(fit_set))
    if fidelity <= 100.0 / fit_set.n_classes:
        epoch = len(trace) - 1
        raise DivergenceError(
            f"{what} ended at chance: {fidelity:.2f}% fidelity on the fit "
            f"set at epoch {epoch}", epoch=epoch
        )


def train_defect_aware(
    dataset: Dataset,
    net: Network,
    maps: MeasuredMaps | None,
    hyper: TrainHyper,
) -> tuple[np.ndarray, np.ndarray, SoftwareNet, list[int]]:
    """Gradient training of net's software model (build_software_net)
    through the defect/asymmetry-annotated maps.

    Returns (w1, w2, fitted software model, error trace).  With maps=None
    this is precursor training: ideal pairs, no quadratic terms, so the fit
    skips the quadratic products entirely (see software_forward).  A fit
    that diverges or ends at chance raises DivergenceError (see _fit).
    """
    if len(dataset) == 0:
        raise ConfigError("training dataset is empty")
    if dataset.labels.max() >= net.config.n_outputs:
        raise ConfigError(
            f"dataset has label {int(dataset.labels.max())} but the network "
            f"only has {net.config.n_outputs} outputs"
        )
    snet = build_software_net(net, maps)
    trace = _fit(snet, dataset, hyper)
    return snet.layer1.w.copy(), snet.layer2.w.copy(), snet, trace


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------


@dataclass
class ImportReport:
    report1: TuningReport | None
    report2: TuningReport | None

    @property
    def n_failed(self) -> int:
        return sum(rep.n_failed for rep in (self.report1, self.report2)
                   if rep is not None)


def _perturb_targets(targets, sigma, rng, xbar):
    if sigma <= 0:
        return targets
    noisy = targets * (1.0 + sigma * rng.standard_normal(targets.shape))
    return np.clip(noisy, xbar.g_lo, xbar.g_hi)


def import_grids(
    net: Network,
    targets1: np.ndarray,
    targets2: np.ndarray,
    tune_cfg: TuneConfig,
    import_noise_sigma: float = 0.0,
    import_accuracy: float | None = None,
    *,
    seed=None,
) -> tuple[Network, ImportReport]:
    """Write-verify both crossbars of net, in place, to target grids.

    import_accuracy overrides the tuning tolerance; exactly 0 is the ideal
    limit and programs conductances directly (a tuner with unbounded
    patience), still honoring stuck cells and NaN skips.
    """
    tol = tune_cfg.tolerance if import_accuracy is None else import_accuracy
    if tol < 0:
        raise ConfigError("import accuracy must be nonnegative")
    rng = np.random.default_rng(seed)
    targets1 = _perturb_targets(np.asarray(targets1, dtype=np.float64),
                                import_noise_sigma, rng, net.xbar1)
    targets2 = _perturb_targets(np.asarray(targets2, dtype=np.float64),
                                import_noise_sigma, rng, net.xbar2)
    if tol == 0.0:
        for xbar, targets in ((net.xbar1, targets1), (net.xbar2, targets2)):
            live = np.isfinite(targets) & (xbar.defect == DefectKind.NONE) \
                & xbar.formed
            xbar.g[live] = np.clip(targets, xbar.g_lo, xbar.g_hi)[live]
        return net, ImportReport(None, None)
    cfg = replace(tune_cfg, tolerance=tol)
    _, rep1 = import_conductance_map(net.xbar1, targets1, cfg)
    _, rep2 = import_conductance_map(net.xbar2, targets2, cfg)
    return net, ImportReport(rep1, rep2)


def conductance_targets(snet: SoftwareNet, spec: DeviceSpec
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell conductance target grids of a fitted software model at
    1/r_f siemens per unit weight; the model is only read.

    Free pairs map symmetrically about mid-range, clip(g_mid +- 0.5*w/r_f),
    which is every pair of a model built without maps; a pair with one
    stuck device realizes its whole weight on the free device; stuck cells
    get NaN targets (the importer skips them).  A non-finite weight raises
    ConfigError.
    """
    g_mid = 0.5 * (spec.g_min + spec.g_max)
    out = []
    for layer, params in ((snet.layer1, snet.hidden_params),
                          (snet.layer2, snet.output_params)):
        if not np.all(np.isfinite(layer.w)):
            raise ConfigError("weight matrix must be finite")
        s = 1.0 / params.r_f
        free = ~layer.stuck_plus & ~layer.stuck_minus
        only_p = layer.stuck_plus & ~layer.stuck_minus
        only_m = ~layer.stuck_plus & layer.stuck_minus
        gp = np.where(free, g_mid + 0.5 * s * layer.w, np.nan)
        gm = np.where(free, g_mid - 0.5 * s * layer.w, np.nan)
        gm = np.where(only_p, layer.g_stuck_plus - s * layer.w, gm)
        gp = np.where(only_m, layer.g_stuck_minus + s * layer.w, gp)
        # a stuck cell's NaN target stays NaN through the clip
        out.append(np.clip(netmod.interleave_pairs(gp, gm), spec.g_min,
                           spec.g_max))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# in-situ training
# ---------------------------------------------------------------------------


def _check_insitu_amplitudes(cfg: InSituConfig, spec: DeviceSpec):
    if cfg.v_pulse_set <= spec.vset_mean:
        raise ConfigError(
            f"set amplitude {cfg.v_pulse_set} V does not exceed the mean set "
            f"threshold {spec.vset_mean} V; no learning would occur"
        )
    if cfg.v_pulse_reset <= spec.vreset_mean:
        raise ConfigError(
            f"reset amplitude {cfg.v_pulse_reset} V does not exceed the mean "
            f"reset threshold {spec.vreset_mean} V; no learning would occur"
        )
    if max(cfg.v_pulse_set, cfg.v_pulse_reset) >= spec.forming_v_mean:
        raise ConfigError("pulse amplitudes reach the forming regime")


def _sign_amp_maps(signs: np.ndarray, cfg: InSituConfig
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell set / reset amplitude maps for one Manhattan step.

    signs is per-pair: +1 pushes the weight up (set G+, reset G-), -1 down.
    """
    rows, pairs = signs.shape
    up, down = signs > 0, signs < 0
    set_amps = np.empty((rows, 2 * pairs))
    reset_amps = np.empty((rows, 2 * pairs))
    # a mask times an amplitude, not np.where, which is several times slower
    # on a scattered mask; a false entry of a reset map is -0.0, which every
    # reader takes as the 0 V pulse it is
    np.multiply(up, cfg.v_pulse_set, out=set_amps[:, 0::2])
    np.multiply(down, cfg.v_pulse_set, out=set_amps[:, 1::2])
    np.multiply(down, -cfg.v_pulse_reset, out=reset_amps[:, 0::2])
    np.multiply(up, -cfg.v_pulse_reset, out=reset_amps[:, 1::2])
    return set_amps, reset_amps


def _apply_sign_pulses(xbar: Crossbar,
                       amp_maps: tuple[np.ndarray, np.ndarray],
                       cfg: InSituConfig):
    """One Manhattan step on one crossbar, in place, from its
    ``_sign_amp_maps``.

    All set pulses land first, then all resets, row-major each.  Pulses
    leave the thresholds as they are, so the V/2 path builds the array's
    threshold minima once for the whole step.
    """
    set_amps, reset_amps = amp_maps
    if cfg.half_select:
        minima = threshold_minima(xbar)
        for amps in (set_amps, reset_amps):
            for r, c in np.argwhere(amps != 0.0):
                write_pulse(xbar, r, c, amps[r, c], cfg.width,
                            half_select=True, minima=minima)
    else:
        pulse_all(xbar, set_amps, cfg.width)
        pulse_all(xbar, reset_amps, cfg.width)


@dataclass
class InSituState:
    """The training computer's open-loop picture of the output crossbar,
    and the fit set it trains on.

    Only the hidden chain of the Manhattan step needs weights, and it reads
    layer 2's alone, so that is the one array the state believes.  The
    in-situ flow reads it once at the start (that read is cheap and the
    hardware flow did it anyway), then tracks every commanded layer-2 pulse
    through the nominal device model: mean thresholds, nominal bounds, the
    same soft-bound kinetics.  What it can never know is each device's
    actual threshold, so under threshold spread the belief and the silicon
    drift apart; with zero spread they agree exactly, pulse for pulse.
    Layer-1 backprop runs through these believed weights, which is where
    threshold variation poisons in-situ training.

    The state owns the fit set: its row voltages (``drive``), built once
    per in-situ run straight from the dataset's pixels (drive_voltages),
    and its ``labels``.  Neither the patterns nor the input stage change
    between epochs, so every epoch reads the arrays with the same drive.
    """

    bg2: np.ndarray
    drive: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_network(cls, net: Network, dataset: Dataset) -> "InSituState":
        return cls(bg2=net.xbar2.g.copy(),
                   drive=drive_voltages(net.config, dataset),
                   labels=dataset.labels)

    def believed_w2(self, net: Network) -> np.ndarray:
        return pair_difference(self.bg2) / net.weight_scale2


def _believe_sign_pulses(bg: np.ndarray,
                         amp_maps: tuple[np.ndarray, np.ndarray],
                         cfg: InSituConfig, spec: DeviceSpec):
    """Advance believed conductances, in place, by the nominal-device
    response to the same commanded pulse maps the hardware just received."""
    for amps in amp_maps:
        bg += dev.pulse_delta(
            bg, amps, cfg.width,
            spec.vset_mean, spec.vreset_mean,
            spec.beta_set, spec.beta_reset,
            spec.g_min, spec.g_max,
        )
        np.clip(bg, spec.g_min, spec.g_max, out=bg)


def _error_accumulators(net: Network, cfg: InSituConfig,
                        state: InSituState):
    """One hardware forward over the state's fit-set drive and the Manhattan
    accumulators it yields: (misclassifications, a1, a2), the accumulators
    None when nothing is misclassified.

    A correctly classified pattern adds nothing to either accumulator, so
    every array of the backward chain holds the misclassified rows alone.
    Leaving out the zero rows regroups the BLAS sums, so a1 and a2 may
    differ in their last bits from full-batch sums; the step reads only
    their signs, which tests/test_training.py compares with the full-batch
    sums.  Every full-batch array is freed on return, before any pulse.
    """
    trace = forward(net, state.drive)
    mis = np.flatnonzero(np.argmax(trace.output, axis=1) != state.labels)
    if mis.size == 0:
        return 0, None, None

    y = trace.output[mis]
    onehot = np.zeros_like(y)
    onehot[np.arange(mis.size), state.labels[mis]] = 1.0
    t = cfg.target_volts * (2.0 * onehot - 1.0)
    # saturation gates from observable outputs; output-layer accumulators
    # need only measured quantities, the hidden chain needs weights
    gate2 = (np.abs(y) < net.output_neurons.swing).astype(np.float64)
    delta2 = (y - t) * slope(net.output_neurons.params) * gate2
    a2 = trace.v_in2[mis].T @ delta2
    gate1 = np.abs(trace.hidden[mis]) < net.hidden_neurons.swing
    delta1 = (delta2 @ state.believed_w2(net).T)[:, : net.config.n_hidden] \
        * slope(net.hidden_neurons.params)
    delta1 *= gate1
    a1 = state.drive[mis].T @ delta1
    return mis.size, a1, a2


def insitu_epoch(
    net: Network,
    cfg: InSituConfig,
    state: InSituState,
) -> tuple[Network, int]:
    """One batch-mode Manhattan epoch on hardware, pulsing net in place.

    Hardware forward over the state's whole fit set.  Error gradients
    accumulate only over misclassified patterns (correct patterns demand
    nothing); each differential pair whose accumulated gradient sign is
    nonzero takes one fixed-amplitude set pulse on one device and one
    reset pulse on the other.  Zero misclassifications is a fixed point:
    the network is left unchanged.  Returns (net, misclassifications),
    net being the same object, pulsed.

    The layer-1 chain term uses the computer's believed output weights
    (open loop after the initial read), and state advances by the nominal
    response to the commanded layer-2 pulses.
    """
    spec = net.xbar1.spec
    _check_insitu_amplitudes(cfg, spec)
    n_err, a1, a2 = _error_accumulators(net, cfg, state)
    if n_err == 0:
        return net, 0
    _apply_sign_pulses(net.xbar1, _sign_amp_maps(-np.sign(a1), cfg), cfg)
    # layer 2 and its belief take the same commanded pulse maps, built once
    amp_maps = _sign_amp_maps(-np.sign(a2), cfg)
    _apply_sign_pulses(net.xbar2, amp_maps, cfg)
    _believe_sign_pulses(state.bg2, amp_maps, cfg, spec)
    return net, n_err


_MIDRANGE_SPREAD = 0.2  # initialize_midrange's jitter, in half-spans


def initialize_midrange(
    net: Network,
    tune_cfg: TuneConfig,
    seed=None,
) -> tuple[Network, ImportReport]:
    """Tune every device of net, in place, to a random intermediate
    conductance, the starting point for purely in-situ training."""
    rng = np.random.default_rng(seed)
    targets = []
    for xbar in (net.xbar1, net.xbar2):
        mid = 0.5 * (xbar.g_lo + xbar.g_hi)
        half_span = 0.5 * (xbar.g_hi - xbar.g_lo)
        jitter = _MIDRANGE_SPREAD * half_span \
            * rng.uniform(-1.0, 1.0, xbar.g.shape)
        targets.append(mid + jitter)
    return import_grids(net, targets[0], targets[1], tune_cfg)


# ---------------------------------------------------------------------------
# scheme runner
# ---------------------------------------------------------------------------


# the schemes that import the blind (map-free) software fit: run_schemes
# fits only when one of them runs, and a sweep fits once per seed for them
BLIND_FIT_SCHEMES = frozenset({Scheme.EX_SITU, Scheme.HYBRID})


def prepare_fit_set(train_set: Dataset, subsample: int | None, seed
                    ) -> Dataset:
    """Deterministic training subset of a run, its first stage."""
    if subsample is not None and subsample < len(train_set):
        idx = np.random.default_rng(seed).choice(
            len(train_set), size=subsample, replace=False
        )
        return train_set.subset(np.sort(idx))
    return train_set


def _stage_seeds(hyper: TrainHyper):
    """(s_sub, s_import, s_init, s_eval): every random draw of a run."""
    return np.random.SeedSequence(hyper.seed).spawn(4)


def software_weights_for(
    net: Network,
    train_set: Dataset,
    hyper: TrainHyper,
    subsample: int | None = None,
) -> tuple[SoftwareNet, list[int]]:
    """The blind (map-free) fit stage of run_schemes: (fitted model, epoch
    error trace).  Handed back in as run_schemes(..., fit=...), it gives the
    run that fits for itself, bit for bit, trace included; the model is
    only read from then on, so concurrent runs may share it."""
    return _blind_fit(net, prepare_fit_set(train_set, subsample,
                                           _stage_seeds(hyper)[0]), hyper)


def _blind_fit(net: Network, fit_set: Dataset, hyper: TrainHyper):
    _, _, snet, trace = train_defect_aware(fit_set, net, None, hyper)
    return snet, trace


def _insitu_loop(net: Network, fit_set: Dataset, cfg: InSituConfig
                 ) -> list[int]:
    """In-situ epochs on net, in place, until an epoch finds no error or
    cfg.epochs have run; returns the error trace.  The state, with its
    fit-set drive, is freed on return, before the final evaluations.

    A loop whose last measured error count leaves the fit set at or below
    chance (100 / n_classes percent) raises DivergenceError naming that
    epoch, as a fit does; the count is the last epoch's own, so no extra
    forward pass runs.
    """
    state = InSituState.from_network(net, fit_set)
    trace = []
    for _ in range(cfg.epochs):
        _, errors = insitu_epoch(net, cfg, state)
        trace.append(errors)
        if errors == 0:
            break
    _refuse_chance("in-situ training", trace, fit_set)
    return trace


def run_schemes(
    schemes,
    train_set: Dataset,
    net: Network,
    *,
    test_set: Dataset | None = None,
    hyper: TrainHyper,
    tune_cfg: TuneConfig,
    insitu_cfg: InSituConfig,
    import_accuracy: float | None = None,
    import_noise_sigma: float = 0.0,
    inference_noise_sigma: float = 0.0,
    subsample: int | None = None,
    fit: tuple[SoftwareNet, list[int]] | None = None,
) -> dict:
    """Run training schemes against one network instance, building each
    stage they share once: {scheme: (network, report)}, in their order.

    The stages, in order: the fit set; the blind fit, unless handed in
    (software_weights_for); one import of it, which ex-situ keeps; hybrid's
    in-situ loop, on a copy of that import only when ex-situ keeps it too;
    defect-aware's probe, its fit through the measured maps and its import;
    in-situ's random mid-range start and its loop.  Each scheme evaluates
    with its own default_rng(s_eval), on train then test.

    Hardware writers change the board they are given, so this is the one
    place boards are copied: each stage that writes hardware starts from
    its own net.copy().  No stage changes net, and the sub-seeds derive
    from hyper.seed, so each scheme's run equals that scheme run alone.
    """
    wanted = {Scheme(s) for s in schemes}
    s_sub, s_import, s_init, s_eval = _stage_seeds(hyper)
    fit_set = prepare_fit_set(train_set, subsample, s_sub)
    runs = {}  # scheme -> (network, trace)

    def imported(target_net: Network, snet: SoftwareNet) -> Network:
        # the target grids live only through the import, not the in-situ
        # loops that follow
        return import_grids(target_net,
                            *conductance_targets(snet, net.xbar1.spec),
                            tune_cfg, import_noise_sigma, import_accuracy,
                            seed=s_import)[0]

    if wanted & BLIND_FIT_SCHEMES:
        snet, trace = fit or _blind_fit(net, fit_set, hyper)
        out = imported(net.copy(), snet)
        runs[Scheme.EX_SITU] = out, trace
        if Scheme.HYBRID in wanted:
            out = out.copy() if Scheme.EX_SITU in wanted else out
            runs[Scheme.HYBRID] = out, _insitu_loop(out, fit_set, insitu_cfg)
    if Scheme.DEFECT_AWARE in wanted:
        probed, maps = measure_network_maps(net.copy(), tune_cfg)
        _, _, snet, trace = train_defect_aware(fit_set, net, maps, hyper)
        runs[Scheme.DEFECT_AWARE] = imported(probed, snet), trace
    if Scheme.IN_SITU in wanted:
        out, _ = initialize_midrange(net.copy(), tune_cfg, seed=s_init)
        runs[Scheme.IN_SITU] = out, _insitu_loop(out, fit_set, insitu_cfg)

    def fidelity(out: Network, dataset: Dataset | None, rng):
        return None if dataset is None else netmod.evaluate(
            out, dataset, noise_sigma=inference_noise_sigma, rng=rng)

    results = {}
    for scheme in schemes:
        out, trace = runs[Scheme(scheme)]
        rng = np.random.default_rng(s_eval)
        results[scheme] = out, TrainingReport(
            list(trace), fidelity(out, train_set, rng),
            fidelity(out, test_set, rng))
    return results


def run_scheme(scheme, train_set: Dataset, net: Network, **kwargs):
    """One scheme run alone: run_schemes([scheme], ...)[scheme]."""
    return run_schemes([scheme], train_set, net, **kwargs)[scheme]
