"""Passive crossbar array: struct-of-arrays device state plus analog ops.

A crossbar holds one ndarray per device field (conductance, thresholds,
kinetics, asymmetry, defect flags, forming state, per-cell bounds), which
keeps vector-matrix multiplies and bulk pulse application as plain numpy
expressions.  Scalar physics comes from the shared kernels in
:mod:`xbarnet.device`.

Read path: with rows driven at voltages v and columns held at virtual
ground, the current into column j is

    I_j = sum_i g_eff[i, j] * v_i * (1 + kappa[i, j] * v_i)

vmm_currents_batch computes these column currents for every caller; one
input vector is a batch of one row.

Write path: a pulse of amplitude v addressed to (row, col) puts v across the
target and v/2 across every other cell sharing the row or the column (the
usual V/2 half-select scheme); cells whose thresholds sit below v/2 take
collateral disturb, which is physical and deliberately not suppressed.

Write rule: a function that changes a Crossbar changes the array it is
given and returns that array, with its report where it has one; none copies
its input.  ``training.run_schemes`` makes the only copies.

Write-path invariant: every movable cell (formed, not stuck) keeps its
conductance within its own [g_lo, g_hi].  Every writer keeps it: pulses
clip, forming starts a cell at g_lo, ``vary_bounds`` re-pins into the new
window, and the ideal import clips its targets.  It is what makes
``write_pulse``'s half-select skip exact: a sub-threshold pulse has a zero
increment, and an in-bounds g plus zero, clipped, is g itself.

The skip reads each row's and column's smallest threshold of the pulse's
polarity (``threshold_minima``).  Pulses never change thresholds, so a
caller that sends many pulses into one array builds the minima once and
passes them to every ``write_pulse``; they stay valid until something
writes ``v_set`` or ``v_reset``.  Nothing is cached on the Crossbar itself,
and a ``write_pulse`` without minima reads the thresholds as they are.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np

from . import device as dev
from .device import DefectKind, DeviceSpec
from .errors import (
    ConfigError,
    DimensionError,
    FormingRequiredError,
)


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
    g_lo: np.ndarray
    g_hi: np.ndarray

    def __post_init__(self):
        shape = self.g.shape
        for name in _CELL_FIELDS:
            if getattr(self, name).shape != shape:
                raise DimensionError(f"field {name} does not match g shape {shape}")

    @property
    def rows(self) -> int:
        return self.g.shape[0]

    @property
    def cols(self) -> int:
        return self.g.shape[1]

    def _map_cells(self, fn) -> "Crossbar":
        """A Crossbar of the same spec whose every per-cell field is
        ``fn(field)``."""
        return Crossbar(self.spec, **{name: fn(getattr(self, name))
                                      for name in _CELL_FIELDS})

    def copy(self) -> "Crossbar":
        return self._map_cells(np.ndarray.copy)

    def _row_view(self, rows: slice) -> "Crossbar":
        """The cells of ``rows`` as a Crossbar whose fields are views of
        this one's, so pulsing it pulses these cells in place."""
        return self._map_cells(lambda field: field[rows])

    def _check_index(self, row: int, col: int):
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise DimensionError(
                f"cell ({row}, {col}) outside a {self.rows}x{self.cols} array"
            )


# every field but spec holds one entry per cell
_CELL_FIELDS = tuple(f.name for f in fields(Crossbar) if f.name != "spec")


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
    return _sample(spec, lambda mean, sigma: rng.normal(mean, sigma, shape),
                   formed)


def sample_cells(spec: DeviceSpec, seeds) -> Crossbar:
    """A column of independently seeded devices, shape (len(seeds), 1).

    Cell i draws v_set, v_reset, kappa and v_form, in that order, from
    default_rng(seeds[i]), so a seed pins its device wherever it sits in
    the column.  Every cell starts formed at g_min.
    """
    if len(seeds) == 0:
        raise ConfigError("sample_cells needs at least one seed")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return _sample(
        spec,
        lambda mean, sigma: np.array([[rng.normal(mean, sigma)] for rng in rngs]),
        True,
    )


def _sample(spec: DeviceSpec, draw, formed: bool) -> Crossbar:
    """Draw the per-device fields through ``draw(mean, sigma)`` in the fixed
    order v_set, v_reset, kappa, v_form; thresholds are floored at
    THRESHOLD_FLOOR and kappa at zero."""
    v_set = np.maximum(draw(spec.vset_mean, spec.vset_sigma), dev.THRESHOLD_FLOOR)
    v_reset = np.maximum(draw(spec.vreset_mean, spec.vreset_sigma),
                         dev.THRESHOLD_FLOOR)
    kappa = np.maximum(draw(spec.kappa_mean, spec.kappa_sigma), 0.0)
    v_form = draw(spec.forming_v_mean, spec.forming_v_sigma)
    shape = v_set.shape
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


# threads that run a read's row blocks (_each_block): two at most, since
# forward's memory bound allows two chunks of read temporaries at a time.
# The pool starts its threads at its first submit, not at import.
_BLOCK_WORKERS = min(2, len(os.sched_getaffinity(0)))
_BLOCK_POOL = ThreadPoolExecutor(_BLOCK_WORKERS,
                                 thread_name_prefix="xbarnet-block")


def _each_block(fn, n: int, step: int, *, ordered: bool = False) -> list:
    """``[fn(rows) for rows in blocks]`` over the ``step``-row blocks
    (slices) of ``range(n)``, the results in block order.

    The blocks run _BLOCK_WORKERS at a time on one shared thread pool;
    NumPy releases the GIL inside BLAS, so two blocks' matrix products run
    on two cores.  That is exact when fn(rows) reads and writes only its
    own rows and its bits do not depend on the thread that computes it.
    ``ordered`` (a read that draws noise from one generator), a single
    block or a one-worker pool runs the blocks in order on the calling
    thread.  fn must not call _each_block, so nothing nests.  Every block
    has ended when this returns or raises; an error raises the first
    failed block's exception, and the pool stays usable.
    """
    blocks = [slice(start, start + step) for start in range(0, n, step)]
    if ordered or len(blocks) < 2 or _BLOCK_WORKERS < 2:
        return [fn(rows) for rows in blocks]
    futures = [_BLOCK_POOL.submit(fn, rows) for rows in blocks]
    wait(futures)
    return [future.result() for future in futures]


def _read_products(xbar: Crossbar, t: float | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(g_eff, g_eff * kappa): the two conductance products of a read at
    t, which vmm_currents_batch takes as ``products``."""
    g_eff = dev.effective_conductance(xbar.g, xbar.spec, t)
    return g_eff, g_eff * xbar.kappa


def vmm_currents_batch(
    xbar: Crossbar,
    v_batch: np.ndarray,
    *,
    t: float | None = None,
    noise_sigma: float = 0.0,
    rng=None,
    products: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Column currents for a batch of input vectors, shape (n, rows) -> (n, cols).

    The noiseless result is the exact two-matmul expansion of the per-term
    sum (I = V G_eff + V^2 (G_eff kappa)).  Read noise models an independent
    multiplicative N(1, sigma) fluctuation of every device current term; it
    is applied at the column-sum level with the exactly matching variance
    sum_i term_i^2 * sigma^2, without materializing an (n, rows, cols)
    tensor.

    ``products`` is ``_read_products(xbar, t)``, built once by a caller
    that reads one array state in many batches (forward's row chunks, two
    of which may run at once on _each_block's threads); without it they
    are built here.  The quadratic product V^2 (G_eff kappa) is made first
    and V^2 freed before V G_eff is made, and the quadratic product is
    added into it in place: the same two products and the same sum, bit
    for bit, with a noiseless read's temporaries at most the drive's size
    plus the output's.  A noisy read squares the drive again for its
    variance.  Every call checks its own batch's read regime.
    """
    v_batch = np.asarray(v_batch, dtype=np.float64)
    if v_batch.ndim != 2 or v_batch.shape[1] != xbar.rows:
        raise DimensionError(
            f"input batch has shape {v_batch.shape}, expected (n, {xbar.rows})"
        )
    dev.check_read_regime(v_batch)
    g_eff, g_kappa = _read_products(xbar, t) if products is None \
        else products
    quad = (v_batch * v_batch) @ g_kappa
    out = v_batch @ g_eff
    out += quad
    if noise_sigma > 0.0:
        gen = np.random.default_rng(rng)
        v2 = v_batch * v_batch
        var = (
            v2 @ (g_eff * g_eff)
            + (v2 * v_batch) @ (2.0 * g_eff * g_kappa)
            + (v2 * v2) @ (g_kappa * g_kappa)
        )
        np.clip(var, 0.0, None, out=var)
        out = out + noise_sigma * np.sqrt(var) * gen.standard_normal(out.shape)
    return out


def measure_maps(
    xbar: Crossbar, v_read: float = 0.2
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (conductance map, asymmetry map) as a readout at t_ref
    would see them.

    Conductance is I(+v_read)/v_read; asymmetry is the percent mismatch
    100 * (I(+v) - |I(-v)|) / I(+v) between forward and reverse reads.
    """
    if v_read <= 0:
        raise ConfigError("v_read must be positive")
    dev.check_read_regime(v_read)
    # I(+v)/v and the forward/reverse mismatch, written so the positive
    # factor g*v cancels algebraically: an ideal array reads back its
    # stored conductances bit-exactly.
    f_fwd = 1.0 + xbar.kappa * v_read
    f_rev = 1.0 - xbar.kappa * v_read
    g_map = xbar.g * f_fwd
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
    # .value: numpy compares with the IntEnum member itself several times
    # more slowly
    movable = xbar.formed[sel] & (xbar.defect[sel] == DefectKind.NONE.value)
    g_new = np.clip(g + delta, xbar.g_lo[sel], xbar.g_hi[sel])
    xbar.g[sel] = np.where(movable, g_new, g)


def _pulse_cell(xbar: Crossbar, row: int, col: int, v: float, width: float):
    """Apply one pulse of amplitude v to one cell, in place, on Python
    floats; the same pulse_delta and clip as _pulse_cells. Stuck and
    unformed cells do not move."""
    if (not xbar.formed.item(row, col)
            or xbar.defect.item(row, col) != DefectKind.NONE):
        return
    g = xbar.g.item(row, col)
    lo = xbar.g_lo.item(row, col)
    hi = xbar.g_hi.item(row, col)
    delta = dev.pulse_delta(
        g, v, width,
        xbar.v_set.item(row, col), xbar.v_reset.item(row, col),
        xbar.spec.beta_set, xbar.spec.beta_reset, lo, hi,
    )
    xbar.g[row, col] = min(max(g + delta, lo), hi)


def threshold_minima(xbar: Crossbar) -> tuple:
    """The smallest threshold of every row and column, per polarity, as
    Python lists: ``((v_set row minima, v_set column minima), (v_reset row
    minima, v_reset column minima))``."""
    return tuple((t.min(axis=1).tolist(), t.min(axis=0).tolist())
                 for t in (xbar.v_set, xbar.v_reset))


def write_pulse(
    xbar: Crossbar,
    row: int,
    col: int,
    v: float,
    width: float,
    *,
    half_select: bool = True,
    minima: tuple | None = None,
) -> Crossbar:
    """One addressed programming pulse with the V/2 scheme, in place;
    returns xbar.

    The target sees the full amplitude; with ``half_select`` every other cell
    in the same row or column sees v/2 of the same polarity and may take
    disturb if weakly thresholded.  A neighbour whose threshold for that
    polarity is at least |v|/2 gets a zero increment, which leaves an
    in-bounds conductance exactly as it is, so only neighbours with a lower
    threshold are pulsed, and a row or column whose minimum threshold is
    not crossed is skipped whole.

    ``minima`` is ``threshold_minima(xbar)``, built by a caller that pulses
    this array many times while its thresholds cannot change; without it
    the minima are built from the thresholds as they are now.
    """
    xbar._check_index(row, col)
    if width <= 0:
        raise ConfigError(f"pulse width must be positive, got {width}")
    if not math.isfinite(v):
        raise ConfigError(f"pulse amplitude must be finite, got {v}")
    if not xbar.formed[row, col]:
        raise FormingRequiredError(
            f"cell ({row}, {col}) was never formed; run forming first"
        )
    if half_select:
        if minima is None:
            minima = threshold_minima(xbar)
        half = abs(v) / 2.0
        if v >= 0:
            thresholds, (row_min, col_min) = xbar.v_set, minima[0]
        else:
            thresholds, (row_min, col_min) = xbar.v_reset, minima[1]
        if half > row_min[row]:
            for c in np.flatnonzero(thresholds[row] < half).tolist():
                if c != col:
                    _pulse_cell(xbar, row, c, v / 2.0, width)
        if half > col_min[col]:
            for r in np.flatnonzero(thresholds[:, col] < half).tolist():
                if r != row:
                    _pulse_cell(xbar, r, col, v / 2.0, width)
    _pulse_cell(xbar, row, col, v, width)
    return xbar


# rows per _pulse_cells call in pulse_all: a block's temporaries stay in
# cache, where a whole-array call allocates a fresh multi-MB array for each
# step of the kernel and spends more on those allocations than on the
# arithmetic
_PULSE_BLOCK_ROWS = 16


def pulse_all(
    xbar: Crossbar,
    v: np.ndarray,
    width: float,
) -> Crossbar:
    """Apply a full-array pulse pattern (per-cell amplitudes, zeros allowed)
    in place; returns xbar.

    This is the fully parallel write abstraction used by the vectorized
    tuner and trainer; there is no half-select disturb because every cell
    gets exactly its commanded amplitude.  The pattern goes through
    _pulse_cells _PULSE_BLOCK_ROWS rows at a time.  That equals one
    whole-array call bit for bit, since each cell's update reads only its
    own fields, and it keeps every temporary a block in size.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != xbar.g.shape:
        raise DimensionError(
            f"pulse pattern shape {v.shape} does not match array "
            f"{xbar.g.shape}"
        )
    if width <= 0:
        raise ConfigError(f"pulse width must be positive, got {width}")
    for start in range(0, xbar.rows, _PULSE_BLOCK_ROWS):
        rows = slice(start, start + _PULSE_BLOCK_ROWS)
        _pulse_cells(xbar, rows, slice(None), v[rows], width)
    return xbar


# ---------------------------------------------------------------------------
# defects and bound variation
# ---------------------------------------------------------------------------


def inject_cell_defects(
    xbar: Crossbar,
    stuck_on_frac: float,
    stuck_off_frac: float,
    seed,
) -> Crossbar:
    """Pin a random disjoint subset of cells on (at g_hi) or off (at g_lo),
    in place; returns xbar, whose ``defect`` flags are the ground truth
    that maps recovered by probing can be compared against."""
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
    flat_defect = xbar.defect.reshape(-1)
    flat_g = xbar.g.reshape(-1)
    on_idx = picks[:n_on]
    off_idx = picks[n_on:]
    flat_defect[on_idx] = DefectKind.STUCK_ON
    flat_g[on_idx] = xbar.g_hi.reshape(-1)[on_idx]
    flat_defect[off_idx] = DefectKind.STUCK_OFF
    flat_g[off_idx] = xbar.g_lo.reshape(-1)[off_idx]
    return xbar


def vary_bounds(xbar: Crossbar, sigma: float, seed) -> Crossbar:
    """Per-cell N(1, sigma) spread on the window edges, in place; returns xbar.

    Models device-to-device on/off spread: each cell's g_lo and g_hi get an
    independent relative perturbation.  Edges are kept ordered with at least
    10% of the nominal span between them (a narrower window than that is the
    stuck-fault mechanism's territory), g_lo stays positive, and conductances
    (stuck values included) are re-pinned into the new windows.
    """
    if sigma < 0:
        raise ConfigError("bounds sigma must be non-negative")
    if sigma == 0:
        return xbar
    rng = np.random.default_rng(seed)
    shape = xbar.g.shape
    lo = xbar.g_lo * (1.0 + sigma * rng.standard_normal(shape))
    hi = xbar.g_hi * (1.0 + sigma * rng.standard_normal(shape))
    floor = 0.05 * xbar.spec.g_min
    gap = 0.1 * (xbar.spec.g_max - xbar.spec.g_min)
    xbar.g_lo = np.maximum(lo, floor)
    xbar.g_hi = np.maximum(hi, xbar.g_lo + gap)
    np.clip(xbar.g, xbar.g_lo, xbar.g_hi, out=xbar.g)
    on = xbar.defect == DefectKind.STUCK_ON
    off = xbar.defect == DefectKind.STUCK_OFF
    xbar.g[on] = xbar.g_hi[on]
    xbar.g[off] = xbar.g_lo[off]
    return xbar

