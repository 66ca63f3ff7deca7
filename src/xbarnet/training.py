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
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import device as dev
from . import network as netmod
from .bench import Dataset, encode_levels
from .crossbar import Crossbar, pulse_all, write_pulse
from .device import DefectKind, DeviceSpec
from .errors import ConfigError, DimensionError, DivergenceError, \
    require_count, require_finite
from .network import Network, NetworkConfig, forward, pair_difference, \
    with_bias
from .neuron import NeuronParams
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
    lr: float = 0.05
    epochs: int = 200
    batch_size: int | None = None
    loss: Loss = Loss.SQUARED_ERROR
    seed: int = 0
    early_stop_fidelity: float = 100.0
    # epochs to keep training after the stop fidelity is first reached; the
    # extra descent grows decision margins so the fit survives the ~5%
    # conductance blur a hardware import adds on top
    margin_epochs: int = 20
    target_volts: float = 1.0
    init_scale: float = 0.02

    def __post_init__(self):
        require_finite(self, "lr", "early_stop_fidelity", "target_volts",
                       "init_scale")
        require_count(self, "epochs", "margin_epochs")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.batch_size is not None:
            require_count(self, "batch_size")
            if self.batch_size < 1:
                raise ConfigError("batch_size must be positive when given")
        if self.target_volts <= 0 or self.init_scale < 0:
            raise ConfigError("target_volts > 0 and init_scale >= 0 required")


@dataclass(frozen=True)
class InSituConfig:
    # amplitudes sit just above the mean threshold: the fixed-voltage input
    # stage cannot scale pulses per device, so devices in the slow tail of
    # the threshold spread barely move while the fast tail overshoots
    v_pulse_set: float = 1.02
    v_pulse_reset: float = 1.02
    width: float = 5e-2
    epochs: int = 25
    target_volts: float = 1.0
    half_select: bool = True

    def __post_init__(self):
        require_finite(self, "v_pulse_set", "v_pulse_reset", "width",
                       "target_volts")
        require_count(self, "epochs")
        if self.v_pulse_set <= 0 or self.v_pulse_reset <= 0:
            raise ConfigError("pulse amplitudes must be positive")
        if self.width <= 0:
            raise ConfigError("pulse width must be positive")
        if self.target_volts <= 0:
            raise ConfigError("target_volts must be positive")


@dataclass
class TrainingReport:
    scheme: str
    trace: list[int]
    final_train_fidelity: float
    final_test_fidelity: float | None
    seeds: dict
    wall_time_s: float
    n_train: int
    subsample: int | None = None
    notes: list[str] = field(default_factory=list)


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
    asymmetry maps.  Probing pulses devices, so the perturbed network comes
    back along with the maps."""
    from .crossbar import measure_maps

    out = net.copy()
    xb1, dm1 = diagnose_defects(out.xbar1, cfg, v_read=cfg.v_read)
    xb2, dm2 = diagnose_defects(out.xbar2, cfg, v_read=cfg.v_read)
    out.xbar1, out.xbar2 = xb1, xb2
    g1, asym1 = measure_maps(xb1, cfg.v_read)
    g2, asym2 = measure_maps(xb2, cfg.v_read)
    return out, MeasuredMaps(g1, asym1, dm1.flags, g2, asym2, dm2.flags,
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


def _blank_layer(rows: int, pairs: int, limit: float | None) -> LayerModel:
    lim = np.inf if limit is None else float(limit)
    shape = (rows, pairs)
    return LayerModel(
        w=np.zeros(shape),
        c=np.zeros(shape),
        d=np.zeros(shape),
        w_lo=np.full(shape, -lim),
        w_hi=np.full(shape, lim),
        frozen=np.zeros(shape, dtype=bool),
        stuck_plus=np.zeros(shape, dtype=bool),
        stuck_minus=np.zeros(shape, dtype=bool),
        g_stuck_plus=np.full(shape, np.nan),
        g_stuck_minus=np.full(shape, np.nan),
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
    """Differentiable stand-in for the hardware forward pass."""

    layer1: LayerModel
    layer2: LayerModel
    input_voltage: float
    bias1: bool
    bias2: bool
    hidden_params: NeuronParams
    output_params: NeuronParams


def build_software_net(
    arch: NetworkConfig,
    *,
    maps: MeasuredMaps | None = None,
    spec: DeviceSpec | None = None,
    hidden_params: NeuronParams | None = None,
    output_params: NeuronParams | None = None,
    weight_limit1: float | None = None,
    weight_limit2: float | None = None,
) -> SoftwareNet:
    hp = hidden_params if hidden_params is not None else NeuronParams()
    op = output_params if output_params is not None else NeuronParams(
        is_output_layer=True
    )
    # None means "the physical box of the default target devices", not
    # unbounded; pass np.inf explicitly for an unconstrained fit.
    spec_eff = spec if spec is not None else DeviceSpec()
    span = spec_eff.g_max - spec_eff.g_min
    lim1 = weight_limit1 if weight_limit1 is not None else 0.95 * hp.r_f * span
    lim2 = weight_limit2 if weight_limit2 is not None else 0.95 * op.r_f * span
    if maps is None:
        layer1 = _blank_layer(arch.rows1, arch.n_hidden, lim1)
        layer2 = _blank_layer(arch.rows2, arch.n_outputs, lim2)
    else:
        if spec is None:
            raise ConfigError("measured maps need the device spec for bounds")
        if maps.g1.shape != (arch.rows1, arch.cols1) \
                or maps.g2.shape != (arch.rows2, arch.cols2):
            raise DimensionError("measured maps do not match the architecture")
        layer1 = _layer_from_maps(maps.g1, maps.asym1, maps.flags1,
                                  maps.v_read, spec, hp.r_f, lim1)
        layer2 = _layer_from_maps(maps.g2, maps.asym2, maps.flags2,
                                  maps.v_read, spec, op.r_f, lim2)
    return SoftwareNet(layer1, layer2, arch.input_voltage, arch.bias1,
                       arch.bias2, hp, op)


# ---------------------------------------------------------------------------
# forward/backward
# ---------------------------------------------------------------------------


def _input_drive(snet: SoftwareNet, levels: np.ndarray) -> np.ndarray:
    """Layer-1 input volts for a batch of drive levels, bias column
    included."""
    levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
    return with_bias(snet.input_voltage * levels, snet.bias1,
                     snet.input_voltage)


def _vdiff(x: np.ndarray, layer: LayerModel) -> np.ndarray:
    """x @ w + (x*x) @ (c + d*w), the second term skipped on a layer whose
    c and d are all zero, where it is exactly zero."""
    vdiff = x @ layer.w
    if layer.quadratic:
        vdiff += (x * x) @ (layer.c + layer.d * layer.w)
    return vdiff


def _forward(snet: SoftwareNet, x1: np.ndarray):
    vdiff1 = _vdiff(x1, snet.layer1)
    hp = snet.hidden_params
    a1 = hp.gain * vdiff1
    hidden = np.clip(a1, -hp.v_sat, hp.v_sat) * (hp.out_swing / hp.v_sat)
    x2 = with_bias(hidden, snet.bias2, snet.input_voltage)
    vdiff2 = _vdiff(x2, snet.layer2)
    op = snet.output_params
    y = np.clip(op.gain * vdiff2, -op.v_sat, op.v_sat)
    return y, hidden, vdiff1, vdiff2, x1, x2


def software_forward(snet: SoftwareNet, levels: np.ndarray):
    """Batched forward pass; returns (y, hidden, vdiff1, vdiff2, x1, x2).

    Each layer computes vdiff = x @ w + (x*x) @ (c + d*w).  On a layer
    whose c and d are all zero (both layers of a precursor fit) the
    quadratic term is exactly zero and is skipped, as is x*x.
    """
    return _forward(snet, _input_drive(snet, levels))


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


def loss_and_grads(
    snet: SoftwareNet,
    levels: np.ndarray,
    labels: np.ndarray,
    loss: Loss = Loss.SQUARED_ERROR,
    target_volts: float = 1.0,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """(loss, dW1, dW2, misclassification count) for one batch.

    Gradients on frozen pairs are zeroed; the caller applies boxes.  The
    quadratic terms are skipped on a layer without any, as in
    software_forward.
    """
    return _loss_and_grads(snet, _input_drive(snet, levels), labels, loss,
                           target_volts)


def _dw(x: np.ndarray, delta: np.ndarray, layer: LayerModel) -> np.ndarray:
    dw = x.T @ delta
    if layer.quadratic:
        dw += layer.d * ((x * x).T @ delta)
    if layer.any_frozen:
        dw[layer.frozen] = 0.0
    return dw


def _loss_and_grads(snet: SoftwareNet, x1: np.ndarray, labels: np.ndarray,
                    loss: Loss, target_volts: float):
    y, hidden, vdiff1, vdiff2, _, x2 = _forward(snet, x1)
    labels = np.asarray(labels)
    n_err = int(np.sum(np.argmax(y, axis=1) != labels))
    value, dy = _loss_delta(y, labels, loss, target_volts)

    l2 = snet.layer2
    hp, op = snet.hidden_params, snet.output_params
    lin2 = (np.abs(op.gain * vdiff2) < op.v_sat).astype(np.float64)
    delta2 = dy * op.gain * lin2
    dx2 = delta2 @ l2.w.T
    if l2.quadratic:
        dx2 += 2.0 * x2 * (delta2 @ (l2.c + l2.d * l2.w).T)
    dh = dx2[:, : hidden.shape[1]]
    lin1 = (np.abs(hp.gain * vdiff1) < hp.v_sat).astype(np.float64)
    delta1 = dh * (hp.gain * hp.out_swing / hp.v_sat) * lin1
    return value, _dw(x1, delta1, snet.layer1), _dw(x2, delta2, l2), n_err


def _count_errors(snet: SoftwareNet, x1: np.ndarray,
                  labels: np.ndarray) -> int:
    y, *_ = _forward(snet, x1)
    return int(np.sum(np.argmax(y, axis=1) != labels))


def _fit(snet: SoftwareNet, levels: np.ndarray, labels: np.ndarray,
         hyper: TrainHyper) -> list[int]:
    """In-place SGD over the software model; returns the error trace."""
    rng = np.random.default_rng(hyper.seed)
    for layer in (snet.layer1, snet.layer2):
        init = rng.normal(0.0, hyper.init_scale, layer.w.shape)
        layer.w = np.where(layer.frozen, layer.w,
                           np.clip(init, layer.w_lo, layer.w_hi))
    x1 = _input_drive(snet, levels)
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
            for layer, dw in ((snet.layer1, dw1), (snet.layer2, dw2)):
                layer.w = np.clip(layer.w - hyper.lr * dw,
                                  layer.w_lo, layer.w_hi)
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
    return trace


def train_defect_aware(
    dataset: Dataset,
    arch: NetworkConfig,
    maps: MeasuredMaps | None,
    hyper: TrainHyper,
    *,
    spec: DeviceSpec | None = None,
    hidden_params: NeuronParams | None = None,
    output_params: NeuronParams | None = None,
    weight_limit1: float | None = None,
    weight_limit2: float | None = None,
) -> tuple[np.ndarray, np.ndarray, SoftwareNet, list[int]]:
    """Gradient training through the defect/asymmetry-annotated model.

    Returns (w1, w2, fitted software model, error trace).  With maps=None
    this is precursor training: ideal pairs, no quadratic terms, so the fit
    skips the quadratic products entirely (see software_forward).  A fit
    whose loss or weights become non-finite raises DivergenceError.
    """
    if len(dataset) == 0:
        raise ConfigError("training dataset is empty")
    if dataset.labels.max() >= arch.n_outputs:
        raise ConfigError(
            f"dataset has label {int(dataset.labels.max())} but the network "
            f"only has {arch.n_outputs} outputs"
        )
    snet = build_software_net(
        arch, maps=maps, spec=spec, hidden_params=hidden_params,
        output_params=output_params, weight_limit1=weight_limit1,
        weight_limit2=weight_limit2,
    )
    levels = encode_levels(dataset)
    trace = _fit(snet, levels, dataset.labels, hyper)
    return snet.layer1.w.copy(), snet.layer2.w.copy(), snet, trace


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------


@dataclass
class ImportReport:
    report1: TuningReport | None
    report2: TuningReport | None
    noise_sigma: float
    tolerance: float

    @property
    def n_failed(self) -> int:
        total = 0
        for rep in (self.report1, self.report2):
            if rep is not None:
                total += rep.n_failed
        return total


def _perturb_targets(targets, sigma, rng, xbar):
    if sigma <= 0:
        return targets
    noisy = targets * (1.0 + sigma * rng.standard_normal(targets.shape))
    return np.clip(noisy, xbar.g_lo, xbar.g_hi)


def import_grids(
    net: Network,
    targets1: np.ndarray,
    targets2: np.ndarray,
    tune_cfg: TuneConfig | None = None,
    import_noise_sigma: float = 0.0,
    import_accuracy: float | None = None,
    *,
    seed=None,
) -> tuple[Network, ImportReport]:
    """Write-verify both crossbars to conductance target grids.

    import_accuracy overrides the tuning tolerance; exactly 0 is the ideal
    limit and programs conductances directly (a tuner with unbounded
    patience), still honoring stuck cells and NaN skips.
    """
    cfg = tune_cfg if tune_cfg is not None else TuneConfig()
    tol = cfg.tolerance if import_accuracy is None else import_accuracy
    if tol < 0:
        raise ConfigError("import accuracy must be nonnegative")
    rng = np.random.default_rng(seed)
    out = net.copy()
    targets1 = _perturb_targets(np.asarray(targets1, dtype=np.float64),
                                import_noise_sigma, rng, out.xbar1)
    targets2 = _perturb_targets(np.asarray(targets2, dtype=np.float64),
                                import_noise_sigma, rng, out.xbar2)
    if tol == 0.0:
        for xbar, targets in ((out.xbar1, targets1), (out.xbar2, targets2)):
            live = np.isfinite(targets) & (xbar.defect == DefectKind.NONE) \
                & xbar.formed
            xbar.g[live] = np.clip(targets, xbar.g_lo, xbar.g_hi)[live]
        report = ImportReport(None, None, import_noise_sigma, 0.0)
        return out, report
    cfg = replace(cfg, tolerance=tol)
    out.xbar1, rep1 = import_conductance_map(out.xbar1, targets1, cfg)
    out.xbar2, rep2 = import_conductance_map(out.xbar2, targets2, cfg)
    return out, ImportReport(rep1, rep2, import_noise_sigma, tol)


def weight_targets(net: Network, w1: np.ndarray,
                   w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit weights -> per-cell conductance target grids at the network's
    fixed scales (blind mapping: no defect knowledge)."""
    spec = net.xbar1.spec
    gp1, gm1, _ = netmod.map_weights(w1, spec.g_min, spec.g_max,
                                     scale=net.weight_scale1)
    spec2 = net.xbar2.spec
    gp2, gm2, _ = netmod.map_weights(w2, spec2.g_min, spec2.g_max,
                                     scale=net.weight_scale2)
    return netmod.interleave_pairs(gp1, gm1), netmod.interleave_pairs(gp2, gm2)


def import_weights(
    net: Network,
    weights: tuple[np.ndarray, np.ndarray],
    tune_cfg: TuneConfig | None = None,
    import_noise_sigma: float = 0.0,
    import_accuracy: float | None = None,
    *,
    seed=None,
) -> tuple[Network, ImportReport]:
    """Map unit weights to differential targets and tune them in."""
    w1, w2 = weights
    if w1.shape != (net.config.rows1, net.config.n_hidden) \
            or w2.shape != (net.config.rows2, net.config.n_outputs):
        raise DimensionError("weight matrices do not match the network shape")
    t1, t2 = weight_targets(net, w1, w2)
    return import_grids(net, t1, t2, tune_cfg, import_noise_sigma,
                        import_accuracy, seed=seed)


def defect_aware_targets(snet: SoftwareNet, spec: DeviceSpec
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Conductance targets from a fitted defect-aware model.

    Free pairs map symmetrically about mid-range; a pair with one stuck
    device realizes its whole weight on the free device; stuck cells get
    NaN targets (the importer skips them).
    """
    out = []
    for layer, params in ((snet.layer1, snet.hidden_params),
                          (snet.layer2, snet.output_params)):
        s = 1.0 / params.r_f
        g_mid = 0.5 * (spec.g_min + spec.g_max)
        free = ~layer.stuck_plus & ~layer.stuck_minus
        only_p = layer.stuck_plus & ~layer.stuck_minus
        only_m = ~layer.stuck_plus & layer.stuck_minus
        gp = np.where(free, g_mid + 0.5 * s * layer.w, np.nan)
        gm = np.where(free, g_mid - 0.5 * s * layer.w, np.nan)
        gm = np.where(only_p, layer.g_stuck_plus - s * layer.w, gm)
        gp = np.where(only_m, layer.g_stuck_minus + s * layer.w, gp)
        gp = np.where(np.isfinite(gp), np.clip(gp, spec.g_min, spec.g_max),
                      np.nan)
        gm = np.where(np.isfinite(gm), np.clip(gm, spec.g_min, spec.g_max),
                      np.nan)
        out.append(netmod.interleave_pairs(gp, gm))
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
    set_amps = np.zeros((rows, 2 * pairs))
    reset_amps = np.zeros((rows, 2 * pairs))
    set_amps[:, 0::2] = np.where(signs > 0, cfg.v_pulse_set, 0.0)
    set_amps[:, 1::2] = np.where(signs < 0, cfg.v_pulse_set, 0.0)
    reset_amps[:, 0::2] = np.where(signs < 0, -cfg.v_pulse_reset, 0.0)
    reset_amps[:, 1::2] = np.where(signs > 0, -cfg.v_pulse_reset, 0.0)
    return set_amps, reset_amps


def _apply_sign_pulses(xbar: Crossbar, signs: np.ndarray, cfg: InSituConfig):
    """One Manhattan step on one crossbar, in place.

    All set pulses land first, then all resets, row-major each.
    """
    set_amps, reset_amps = _sign_amp_maps(signs, cfg)
    if cfg.half_select:
        for amps in (set_amps, reset_amps):
            for r, c in np.argwhere(amps != 0.0):
                write_pulse(xbar, r, c, amps[r, c], cfg.width,
                            half_select=True, copy=False)
    else:
        pulse_all(xbar, set_amps, cfg.width, copy=False)
        pulse_all(xbar, reset_amps, cfg.width, copy=False)


@dataclass
class InSituState:
    """The training computer's open-loop picture of the two crossbars.

    The in-situ flow reads the array once at the start (that read is cheap
    and the hardware flow did it anyway), then tracks every commanded pulse
    through the nominal device model: mean thresholds, nominal bounds, the
    same soft-bound kinetics.  What it can never know is each device's
    actual threshold, so under threshold spread the belief and the silicon
    drift apart; with zero spread they agree exactly, pulse for pulse.
    Layer-1 backprop runs through these believed weights, which is where
    threshold variation poisons in-situ training.
    """

    bg1: np.ndarray
    bg2: np.ndarray

    @classmethod
    def from_network(cls, net: Network) -> "InSituState":
        return cls(bg1=net.xbar1.g.copy(), bg2=net.xbar2.g.copy())

    def believed_w2(self, net: Network) -> np.ndarray:
        return pair_difference(self.bg2) / net.weight_scale2


def _believe_sign_pulses(bg: np.ndarray, signs: np.ndarray,
                         cfg: InSituConfig, spec: DeviceSpec):
    """Advance believed conductances by the nominal-device response to the
    same commanded pulse maps the hardware just received."""
    for amps in _sign_amp_maps(signs, cfg):
        bg += dev.pulse_delta(
            bg, amps, cfg.width,
            spec.vset_mean, spec.vreset_mean,
            spec.beta_set, spec.beta_reset,
            spec.g_min, spec.g_max,
        )
        np.clip(bg, spec.g_min, spec.g_max, out=bg)


def insitu_epoch(
    net: Network,
    dataset: Dataset,
    cfg: InSituConfig,
    state: InSituState,
) -> tuple[Network, int]:
    """One batch-mode Manhattan epoch on hardware.

    Hardware forward over the full set; error gradients accumulate only
    over misclassified patterns (correct patterns demand nothing); each
    differential pair whose accumulated gradient sign is nonzero takes one
    fixed-amplitude set pulse on one device and one reset pulse on the
    other.  Zero misclassifications is a fixed point: the network returns
    unchanged.

    The layer-1 chain term uses the computer's believed output weights
    (open loop after the initial read), and state advances by the nominal
    response to the commanded pulses.
    """
    spec = net.xbar1.spec
    _check_insitu_amplitudes(cfg, spec)
    levels = encode_levels(dataset)
    trace = forward(net, levels)
    preds = np.argmax(trace.output, axis=1)
    mis = preds != dataset.labels
    n_err = int(mis.sum())
    if n_err == 0:
        return net, 0

    y = trace.output
    n, n_out = y.shape
    onehot = np.zeros_like(y)
    onehot[np.arange(n), dataset.labels] = 1.0
    t = cfg.target_volts * (2.0 * onehot - 1.0)
    op = net.output_neurons.params
    hp = net.hidden_neurons.params
    # saturation gates from observable outputs; output-layer accumulators
    # need only measured quantities, the hidden chain needs weights
    gate2 = (np.abs(y) < op.v_sat).astype(np.float64)
    delta2 = (y - t) * op.gain * gate2
    delta2[~mis] = 0.0
    a2 = trace.v_in2.T @ delta2
    dh = (delta2 @ state.believed_w2(net).T)[:, : net.config.n_hidden]
    gate1 = (np.abs(trace.hidden) < net.hidden_neurons.swing).astype(np.float64)
    delta1 = dh * (hp.gain * hp.out_swing / hp.v_sat) * gate1
    a1 = trace.v_in.T @ delta1

    out = net.copy()
    signs1 = -np.sign(a1)
    signs2 = -np.sign(a2)
    _apply_sign_pulses(out.xbar1, signs1, cfg)
    _apply_sign_pulses(out.xbar2, signs2, cfg)
    _believe_sign_pulses(state.bg1, signs1, cfg, spec)
    _believe_sign_pulses(state.bg2, signs2, cfg, spec)
    return out, n_err


def initialize_midrange(
    net: Network,
    tune_cfg: TuneConfig | None = None,
    seed=None,
    spread: float = 0.2,
) -> tuple[Network, ImportReport]:
    """Tune every device to a random intermediate conductance, the starting
    point for purely in-situ training."""
    if not 0 <= spread < 1:
        raise ConfigError("spread must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    targets = []
    for xbar in (net.xbar1, net.xbar2):
        mid = 0.5 * (xbar.g_lo + xbar.g_hi)
        half_span = 0.5 * (xbar.g_hi - xbar.g_lo)
        jitter = spread * half_span * rng.uniform(-1.0, 1.0, xbar.g.shape)
        targets.append(mid + jitter)
    return import_grids(net, targets[0], targets[1], tune_cfg)


# ---------------------------------------------------------------------------
# scheme runner
# ---------------------------------------------------------------------------


def prepare_fit_set(train_set: Dataset, subsample: int | None, seed
                    ) -> tuple[Dataset, str | None]:
    """Deterministic training subset used by run_scheme; exposed so sweep
    drivers can reproduce the exact fit set when precomputing weights."""
    if subsample is not None and subsample < len(train_set):
        idx = np.random.default_rng(seed).choice(
            len(train_set), size=subsample, replace=False
        )
        return (train_set.subset(np.sort(idx)),
                f"subsampled training set to {subsample} patterns")
    return train_set, None


def _fit_for_net(fit_set: Dataset, net: Network, maps: MeasuredMaps | None,
                 hyper: TrainHyper):
    """train_defect_aware for net's architecture and neurons, each weight
    boxed to 0.95 of the device conductance span."""
    spec = net.xbar1.spec
    span = spec.g_max - spec.g_min
    return train_defect_aware(
        fit_set, net.config, maps, hyper, spec=spec,
        hidden_params=net.hidden_neurons.params,
        output_params=net.output_neurons.params,
        weight_limit1=0.95 * span / net.weight_scale1,
        weight_limit2=0.95 * span / net.weight_scale2,
    )


def software_weights_for(
    net: Network,
    train_set: Dataset,
    hyper: TrainHyper,
    subsample: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The blind software fit run_scheme would perform for ex-situ or hybrid,
    bit for bit.  Sweep drivers call this once per seed and hand the result
    to run_scheme(..., precomputed_weights=...) at every grid point where the
    fit would otherwise be recomputed unchanged.
    """
    s_sub = np.random.SeedSequence(hyper.seed).spawn(4)[0]
    fit_set, _ = prepare_fit_set(train_set, subsample, s_sub)
    w1, w2, _, _ = _fit_for_net(fit_set, net, None, hyper)
    return w1, w2


def run_scheme(
    scheme: Scheme | str,
    train_set: Dataset,
    net: Network,
    *,
    test_set: Dataset | None = None,
    hyper: TrainHyper | None = None,
    tune_cfg: TuneConfig | None = None,
    insitu_cfg: InSituConfig | None = None,
    import_accuracy: float | None = None,
    import_noise_sigma: float = 0.0,
    inference_noise_sigma: float = 0.0,
    subsample: int | None = None,
    precomputed_weights: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Network, TrainingReport]:
    """Run one full training scheme against one network instance.

    Sub-seeds (import noise, subsampling, initialization, evaluation noise)
    all derive from hyper.seed, so a (network, scheme, seed) triple pins the
    entire run.

    ``precomputed_weights`` lets sweep drivers reuse one software fit across
    many grid points; only valid for the ex-situ and hybrid schemes, and the
    caller must have produced the pair from the same (fit set, architecture,
    hyper) this call would use, or the run stops being the run it claims.
    """
    scheme = Scheme(scheme) if not isinstance(scheme, Scheme) else scheme
    hyper = hyper if hyper is not None else TrainHyper()
    tune_cfg = tune_cfg if tune_cfg is not None else TuneConfig()
    insitu_cfg = insitu_cfg if insitu_cfg is not None else InSituConfig()
    if precomputed_weights is not None \
            and scheme not in (Scheme.EX_SITU, Scheme.HYBRID):
        raise ConfigError(
            "precomputed weights only make sense for ex-situ or hybrid runs"
        )
    t0 = time.perf_counter()
    notes: list[str] = []

    ss = np.random.SeedSequence(hyper.seed)
    s_sub, s_import, s_init, s_eval = ss.spawn(4)

    fit_set, sub_note = prepare_fit_set(train_set, subsample, s_sub)
    if sub_note:
        notes.append(sub_note)

    if scheme is Scheme.DEFECT_AWARE:
        probed, maps = measure_network_maps(net, tune_cfg)
        _, _, snet, trace = _fit_for_net(fit_set, net, maps, hyper)
        t1, t2 = defect_aware_targets(snet, net.xbar1.spec)
        out, _ = import_grids(probed, t1, t2, tune_cfg, import_noise_sigma,
                              import_accuracy, seed=s_import)
    elif scheme is Scheme.IN_SITU:
        out, _ = initialize_midrange(net, tune_cfg, seed=s_init)
    else:  # ex-situ, or the ex-situ phase of hybrid
        if precomputed_weights is not None:
            notes.append("software weights supplied by the caller")
            weights, trace = precomputed_weights, []
        else:
            w1, w2, _, trace = _fit_for_net(fit_set, net, None, hyper)
            weights = (w1, w2)
        out, _ = import_weights(net, weights, tune_cfg, import_noise_sigma,
                                import_accuracy, seed=s_import)

    if scheme in (Scheme.IN_SITU, Scheme.HYBRID):
        if scheme is Scheme.HYBRID:
            notes.append(
                f"ex-situ phase ran {len(trace)} software epochs before the "
                f"in-situ loop"
            )
        state = InSituState.from_network(out)
        trace = []
        for _ in range(insitu_cfg.epochs):
            out, errors = insitu_epoch(out, fit_set, insitu_cfg, state)
            trace.append(errors)
            if errors == 0:
                break

    eval_rng = np.random.default_rng(s_eval)
    final_train = netmod.evaluate(out, train_set,
                                  noise_sigma=inference_noise_sigma,
                                  rng=eval_rng).fidelity
    final_test = None
    if test_set is not None:
        final_test = netmod.evaluate(out, test_set,
                                     noise_sigma=inference_noise_sigma,
                                     rng=eval_rng).fidelity
    report = TrainingReport(
        scheme=scheme.value,
        trace=list(trace),
        final_train_fidelity=final_train,
        final_test_fidelity=final_test,
        seeds={"hyper": hyper.seed},
        wall_time_s=time.perf_counter() - t0,
        n_train=len(fit_set),
        subsample=subsample,
        notes=notes,
    )
    return out, report
