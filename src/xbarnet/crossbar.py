"""Passive crossbar array: struct-of-arrays device state plus analog ops.

A crossbar holds one ndarray per device field (conductance, thresholds,
kinetics, asymmetry, defect flags, forming state, per-cell bounds), which
keeps vector-matrix multiplies and bulk pulse application as plain numpy
expressions.  Scalar physics comes from the shared kernels in
:mod:`xbarnet.device`.

Read path: with rows driven at voltages v and columns held at virtual
ground, the current into column j is

    I_j = sum_i g_eff[i, j] * v_i * (1 + kappa[i, j] * v_i)

Write path: a pulse of amplitude v addressed to (row, col) puts v across the
target and v/2 across every other cell sharing the row or the column (the
usual V/2 half-select scheme); cells whose thresholds sit below v/2 take
collateral disturb, which is physical and deliberately not suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from .device import DefectKind, DeviceSpec
from .errors import (
    ConfigError,
    DimensionError,
    FormingRequiredError,
)


@dataclass
class DefectMap:
    """Per-cell defect flags (DefectKind coding) plus asymmetry percentages."""

    flags: np.ndarray
    asymmetry: np.ndarray

    def __post_init__(self):
        if self.flags.shape != self.asymmetry.shape:
            raise DimensionError("defect map fields must share one shape")

    @property
    def n_stuck(self) -> int:
        return int((self.flags != DefectKind.NONE).sum())


@dataclass
class Crossbar:
    spec: DeviceSpec
    g: np.ndarray
    v_set: np.ndarray
    v_reset: np.ndarray
    kappa: np.ndarray
    v_form: np.ndarray
    formed: np.ndarray
    defect: np.ndarray
    g_lo: np.ndarray = field(default=None)  # type: ignore[arg-type]
    g_hi: np.ndarray = field(default=None)  # type: ignore[arg-type]

    def __post_init__(self):
        shape = self.g.shape
        if self.g_lo is None:
            self.g_lo = np.full(shape, self.spec.g_min)
        if self.g_hi is None:
            self.g_hi = np.full(shape, self.spec.g_max)
        for name in ("v_set", "v_reset", "kappa", "v_form", "formed",
                     "defect", "g_lo", "g_hi"):
            if getattr(self, name).shape != shape:
                raise DimensionError(f"field {name} does not match g shape {shape}")

    @property
    def rows(self) -> int:
        return self.g.shape[0]

    @property
    def cols(self) -> int:
        return self.g.shape[1]

    def copy(self) -> "Crossbar":
        return Crossbar(
            spec=self.spec,
            g=self.g.copy(),
            v_set=self.v_set.copy(),
            v_reset=self.v_reset.copy(),
            kappa=self.kappa.copy(),
            v_form=self.v_form.copy(),
            formed=self.formed.copy(),
            defect=self.defect.copy(),
            g_lo=self.g_lo.copy(),
            g_hi=self.g_hi.copy(),
        )

    def _check_index(self, row: int, col: int):
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise DimensionError(
                f"cell ({row}, {col}) outside a {self.rows}x{self.cols} array"
            )


def build_crossbar(
    rows: int,
    cols: int,
    spec: DeviceSpec,
    seed,
    *,
    formed: bool = True,
) -> Crossbar:
    """Sample a rows x cols array from the device population.

    Field arrays are drawn in a fixed order (v_set, v_reset, kappa, v_form)
    from one generator, so a seed pins the whole array.  ``formed=False``
    builds virgin devices for forming studies; otherwise every cell starts
    formed at g_min.
    """
    if rows <= 0 or cols <= 0:
        raise ConfigError(f"crossbar dimensions must be positive, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    v_set = np.maximum(
        rng.normal(spec.vset_mean, spec.vset_sigma, shape), dev.THRESHOLD_FLOOR
    )
    v_reset = np.maximum(
        rng.normal(spec.vreset_mean, spec.vreset_sigma, shape), dev.THRESHOLD_FLOOR
    )
    kappa = np.maximum(rng.normal(spec.kappa_mean, spec.kappa_sigma, shape), 0.0)
    v_form = rng.normal(spec.forming_v_mean, spec.forming_v_sigma, shape)
    g0 = spec.g_min if formed else spec.g_virgin
    return Crossbar(
        spec=spec,
        g=np.full(shape, g0, dtype=np.float64),
        v_set=v_set,
        v_reset=v_reset,
        kappa=kappa,
        v_form=v_form,
        formed=np.full(shape, formed),
        defect=np.zeros(shape, dtype=np.int8),
        g_lo=np.full(shape, spec.g_min, dtype=np.float64),
        g_hi=np.full(shape, spec.g_max, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# read path
# ---------------------------------------------------------------------------


def vmm_currents(
    xbar: Crossbar,
    v: np.ndarray,
    *,
    t: float | None = None,
) -> np.ndarray:
    """Noiseless column currents for one input vector (length ``rows``),
    summed term by term; read noise lives in vmm_currents_batch."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (xbar.rows,):
        raise DimensionError(
            f"input vector has shape {v.shape}, expected ({xbar.rows},)"
        )
    return dev.read_terms(xbar.g, xbar.kappa, v[:, None], xbar.spec,
                          t).sum(axis=0)


def vmm_currents_batch(
    xbar: Crossbar,
    v_batch: np.ndarray,
    *,
    t: float | None = None,
    noise_sigma: float = 0.0,
    rng=None,
) -> np.ndarray:
    """Column currents for a batch of input vectors, shape (n, rows) -> (n, cols).

    The noiseless result is the exact two-matmul expansion of the per-term
    sum (I = V G_eff + V^2 (G_eff kappa)).  Read noise models an independent
    multiplicative N(1, sigma) fluctuation of every device current term; it
    is applied at the column-sum level with the exactly matching variance
    sum_i term_i^2 * sigma^2, without materializing an (n, rows, cols)
    tensor.
    """
    v_batch = np.asarray(v_batch, dtype=np.float64)
    if v_batch.ndim != 2 or v_batch.shape[1] != xbar.rows:
        raise DimensionError(
            f"input batch has shape {v_batch.shape}, expected (n, {xbar.rows})"
        )
    dev.check_read_regime(v_batch)
    g_eff = dev.effective_conductance(xbar.g, xbar.spec, t)
    g_kappa = g_eff * xbar.kappa
    v2 = v_batch * v_batch
    out = v_batch @ g_eff + v2 @ g_kappa
    if noise_sigma > 0.0:
        gen = np.random.default_rng(rng)
        var = (
            v2 @ (g_eff * g_eff)
            + (v2 * v_batch) @ (2.0 * g_eff * g_kappa)
            + (v2 * v2) @ (g_kappa * g_kappa)
        )
        np.clip(var, 0.0, None, out=var)
        out = out + noise_sigma * np.sqrt(var) * gen.standard_normal(out.shape)
    return out


def measure_maps(
    xbar: Crossbar, v_read: float = 0.2, t: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (conductance map, asymmetry map) as a readout would see them.

    Conductance is I(+v_read)/v_read; asymmetry is the percent mismatch
    100 * (I(+v) - |I(-v)|) / I(+v) between forward and reverse reads.
    """
    if v_read <= 0:
        raise ConfigError("v_read must be positive")
    dev.check_read_regime(v_read)
    g_eff = dev.effective_conductance(xbar.g, xbar.spec, t)
    # I(+v)/v and the forward/reverse mismatch, written so the positive
    # factor g_eff*v cancels algebraically: an ideal array reads back its
    # stored conductances bit-exactly.
    f_fwd = 1.0 + xbar.kappa * v_read
    f_rev = 1.0 - xbar.kappa * v_read
    g_map = g_eff * f_fwd
    asym = 100.0 * (f_fwd - np.abs(f_rev)) / f_fwd
    return g_map, asym


# ---------------------------------------------------------------------------
# write path
# ---------------------------------------------------------------------------


def _pulse_cells(xbar: Crossbar, rows_idx, cols_idx, v, width: float):
    """Apply pulses of (possibly per-cell) amplitude v to an index selection
    (slices for the whole array), mutating xbar.g in place. Stuck and
    unformed cells do not move."""
    sel = (rows_idx, cols_idx)
    g = xbar.g[sel]
    delta = dev.pulse_delta(
        g, v, width,
        xbar.v_set[sel], xbar.v_reset[sel],
        xbar.spec.beta_set, xbar.spec.beta_reset,
        xbar.g_lo[sel], xbar.g_hi[sel],
    )
    movable = xbar.formed[sel] & (xbar.defect[sel] == DefectKind.NONE)
    g_new = np.clip(g + delta, xbar.g_lo[sel], xbar.g_hi[sel])
    xbar.g[sel] = np.where(movable, g_new, g)


def write_pulse(
    xbar: Crossbar,
    row: int,
    col: int,
    v: float,
    width: float,
    *,
    half_select: bool = True,
    copy: bool = True,
) -> Crossbar:
    """One addressed programming pulse with the V/2 scheme.

    The target sees the full amplitude; with ``half_select`` every other cell
    in the same row or column sees v/2 of the same polarity and may take
    disturb if weakly thresholded.  ``copy=False`` mutates in place (used by
    tuning loops that own a working copy).
    """
    xbar._check_index(row, col)
    if width <= 0:
        raise ConfigError(f"pulse width must be positive, got {width}")
    if not xbar.formed[row, col]:
        raise FormingRequiredError(
            f"cell ({row}, {col}) was never formed; run forming first"
        )
    out = xbar.copy() if copy else xbar
    if half_select:
        row_cols = np.r_[0:col, col + 1:out.cols]
        col_rows = np.r_[0:row, row + 1:out.rows]
        _pulse_cells(out, np.full(row_cols.shape, row), row_cols, v / 2.0, width)
        _pulse_cells(out, col_rows, np.full(col_rows.shape, col), v / 2.0, width)
    _pulse_cells(out, np.array([row]), np.array([col]), v, width)
    return out


def pulse_all(
    xbar: Crossbar,
    v: np.ndarray,
    width: float,
    *,
    copy: bool = True,
) -> Crossbar:
    """Apply a full-array pulse pattern (per-cell amplitudes, zeros allowed).

    This is the fully parallel write abstraction used by the vectorized
    tuner and trainer; there is no half-select disturb because every cell
    gets exactly its commanded amplitude.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != xbar.g.shape:
        raise DimensionError(
            f"pulse pattern shape {v.shape} does not match array "
            f"{xbar.g.shape}"
        )
    if width <= 0:
        raise ConfigError(f"pulse width must be positive, got {width}")
    out = xbar.copy() if copy else xbar
    _pulse_cells(out, slice(None), slice(None), v, width)
    return out


# ---------------------------------------------------------------------------
# defects and bound variation
# ---------------------------------------------------------------------------


def inject_cell_defects(
    xbar: Crossbar,
    stuck_on_frac: float,
    stuck_off_frac: float,
    seed,
) -> tuple[Crossbar, DefectMap]:
    """Pin a random disjoint subset of cells on (at g_hi) or off (at g_lo).

    Returns the modified array and the ground-truth DefectMap (flags plus the
    asymmetry percentages at the default read bias) for later comparison
    against maps recovered by probing.
    """
    for name, frac in (("stuck_on_frac", stuck_on_frac),
                       ("stuck_off_frac", stuck_off_frac)):
        if not 0 <= frac <= 1:
            raise ConfigError(f"{name} must lie in [0, 1]")
    if stuck_on_frac + stuck_off_frac > 1:
        raise ConfigError("defect fractions sum to more than 1")
    n = xbar.rows * xbar.cols
    n_on = int(round(stuck_on_frac * n))
    n_off = int(round(stuck_off_frac * n))
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=n_on + n_off, replace=False)
    out = xbar.copy()
    flat_defect = out.defect.reshape(-1)
    flat_g = out.g.reshape(-1)
    on_idx = picks[:n_on]
    off_idx = picks[n_on:]
    flat_defect[on_idx] = DefectKind.STUCK_ON
    flat_g[on_idx] = out.g_hi.reshape(-1)[on_idx]
    flat_defect[off_idx] = DefectKind.STUCK_OFF
    flat_g[off_idx] = out.g_lo.reshape(-1)[off_idx]
    _, asym = measure_maps(out)
    return out, DefectMap(flags=out.defect.copy(), asymmetry=asym)


def vary_bounds(xbar: Crossbar, sigma: float, seed) -> Crossbar:
    """Per-cell multiplicative N(1, sigma) spread on the working window edges.

    Models device-to-device on/off spread: each cell's g_lo and g_hi get an
    independent relative perturbation.  Edges are kept ordered with at least
    10% of the nominal span between them (a narrower window than that is the
    stuck-fault mechanism's territory), g_lo stays positive, and conductances
    (stuck values included) are re-pinned into the new windows.
    """
    if sigma < 0:
        raise ConfigError("bounds sigma must be non-negative")
    out = xbar.copy()
    if sigma == 0:
        return out
    rng = np.random.default_rng(seed)
    shape = out.g.shape
    lo = out.g_lo * (1.0 + sigma * rng.standard_normal(shape))
    hi = out.g_hi * (1.0 + sigma * rng.standard_normal(shape))
    floor = 0.05 * xbar.spec.g_min
    gap = 0.1 * (xbar.spec.g_max - xbar.spec.g_min)
    out.g_lo = np.maximum(lo, floor)
    out.g_hi = np.maximum(hi, out.g_lo + gap)
    np.clip(out.g, out.g_lo, out.g_hi, out=out.g)
    on = out.defect == DefectKind.STUCK_ON
    off = out.defect == DefectKind.STUCK_OFF
    out.g[on] = out.g_hi[on]
    out.g[off] = out.g_lo[off]
    return out


# ---------------------------------------------------------------------------
# map serialization
# ---------------------------------------------------------------------------


def map_to_csv(arr: np.ndarray, path):
    """Write a 2-D map row-major as CSV: a ``rows,cols`` header line, then
    one line per row.  Values keep full float precision (repr round-trip)."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D map, got shape {arr.shape}")
    lines = [f"{arr.shape[0]},{arr.shape[1]}"]
    for row in arr:
        lines.append(",".join(repr(float(x)) for x in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
