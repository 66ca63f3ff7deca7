"""Device programming: forming and closed-loop write-verify tuning.

Forming turns virgin high-resistive devices into switchable ones with an
escalating voltage stress staircase under current compliance.  About one in
ten attempts needs a manual compliance adjustment before succeeding; the
simulation draws that event per cell and resolves it with one doubled-
compliance retry, which matches how the lab procedure recovers them.

Write-verify tuning drives a cell to a target conductance without knowing
its switching thresholds: read, pulse toward the target, escalate the pulse
amplitude whenever nothing measurably changed (that is how the unknown
threshold is found), back off one step whenever the move was much larger
than needed, flip polarity and restart the escalation on overshoot.  The
deadband between those two rules keeps the amplitude pinned just above the
responsiveness boundary, which matters under V/2 addressing: every excess
volt on the selected cell is half a volt of disturb stress on its whole
row and column.
The verify step is a two-point differential read (I(+v) - I(-v)) / 2v, which
cancels the quadratic asymmetry term and observes the true conductance.

The per-cell decision rule is tune_cell's.  Two imports run it:

* sequential (default): one cell at a time through tune_cell with
  half-select addressing and all its disturb physics, tuning to a guard
  fraction of the band and re-passing over cells a later write knocked out
  of it; right for hardware-faithful array sizes.
* parallel: every unconverged cell pulsed per iteration with its own
  amplitude, no half-select cross-talk; right for MNIST-scale imports where
  walking 470k cells one by one is pointless.  It equals tune_cell without
  half-select looped row-major over the cells, bit for bit.  Since no cell
  affects another, it runs on a few rows at a time, each block to its own
  convergence: a block's temporaries stay in cache, and the sparse tail of
  a slow array costs only the blocks that still hold unconverged cells.

The two imports therefore do not give the same array.  Threshold
characterization (staircase sweeps over every cell at once) lives here too.

Every writer here (forming, characterization, tuning, imports, probing)
changes the crossbar it is given and returns it; none copies its input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import device as dev
from .crossbar import Crossbar, pulse_all, threshold_minima, write_pulse
from .device import DefectKind
from .errors import (FINITE, POSITIVE, ConfigError, DimensionError,
                     FormingRequiredError, MeasurementError, boolean,
                     check_fields, checked, count, real)


# ---------------------------------------------------------------------------
# forming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormingConfig:
    v_start: float = checked(2.0, FINITE)
    v_step: float = checked(0.1, POSITIVE)
    v_max: float = checked(5.0, FINITE)

    def __post_init__(self):
        check_fields(self)
        if not self.v_start < self.v_max:
            raise ConfigError("need v_start < v_max")


@dataclass
class FormingReport:
    total: int
    already_formed: int
    auto_mask: np.ndarray
    manual_mask: np.ndarray
    failed_mask: np.ndarray
    forming_v: np.ndarray

    @property
    def n_auto(self) -> int:
        return int(self.auto_mask.sum())

    @property
    def n_manual(self) -> int:
        return int(self.manual_mask.sum())

    @property
    def n_failed(self) -> int:
        return int(self.failed_mask.sum())

    @property
    def manual_rate(self) -> float:
        n_target = self.total - self.already_formed
        return self.n_manual / n_target if n_target else 0.0


def form_array(xbar: Crossbar, cfg: FormingConfig, seed) -> tuple[Crossbar, FormingReport]:
    """Form every unformed cell, in place; already-formed cells are skipped
    (counted in the report, not an error).  Returns (xbar, report).

    Per cell the staircase stops at the first amplitude reaching its sampled
    forming voltage.  Cells drawn as needing manual intervention fail the
    automatic attempts and form on the doubled-compliance retry; cells whose
    forming voltage exceeds v_max are permanent failures.  The lab formed
    with voltage pulses and with current pulses and saw no detectable
    difference between them, so the model has one stimulus, not a mode.
    """
    target = ~xbar.formed
    rng = np.random.default_rng(seed)
    # one draw per cell, target or not, so the stream is layout-independent
    needs_manual = rng.random(xbar.g.shape) < xbar.spec.forming_fail_prob

    over = np.maximum(xbar.v_form - cfg.v_start, 0.0)
    steps = np.ceil(over / cfg.v_step - 1e-12)
    v_reach = cfg.v_start + steps * cfg.v_step
    reachable = v_reach <= cfg.v_max + 1e-12

    auto = target & reachable & ~needs_manual
    manual = target & reachable & needs_manual
    failed = target & ~reachable

    formed_now = auto | manual
    report = FormingReport(
        total=int(xbar.g.size),
        already_formed=int(xbar.formed.sum()),  # read before forming
        auto_mask=auto,
        manual_mask=manual,
        failed_mask=failed,
        forming_v=np.where(formed_now, v_reach, np.nan),
    )
    xbar.formed |= formed_now
    xbar.g[formed_now] = xbar.g_lo[formed_now]
    return xbar, report


# ---------------------------------------------------------------------------
# threshold characterization
# ---------------------------------------------------------------------------

# Staircase protocol: pulse width, the relative conductance move that counts
# as a switching event, and the conditioning pulses that park every cell at
# the opposite bound before a sweep so it has headroom.
_STAIR_WIDTH = 1e-2
_STAIR_CHANGE_FRAC = 0.05
_STAIR_CONDITION = 60


def extract_thresholds(xbar: Crossbar, v_step: float = 0.05,
                       v_limit: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
    """Measure every cell's (v_set, v_reset) by staircase sweeps, in place.

    Protocol per polarity: condition the cells toward the opposite bound,
    then step the pulse amplitude from v_step upward; a cell's threshold is
    the first amplitude after which its conductance moved by more than 5%
    of its pre-pulse value, and from then on it gets 0 V, which moves it by
    exactly nothing.  The measured value therefore overestimates the true
    threshold by at most v_step plus a kinetics-limited offset (slow devices
    need more over-drive before a 5% move shows up within one pulse).

    Raises MeasurementError when a sweep reaches v_limit before every cell
    fired; stuck cells always end up there.
    """
    if not xbar.formed.all():
        raise FormingRequiredError("cannot characterize an unformed device")
    if v_step <= 0 or v_limit <= 0:
        raise ConfigError("v_step and v_limit must be positive")
    measured = []
    for sign, event in ((+1.0, "set"), (-1.0, "reset")):
        for _ in range(_STAIR_CONDITION):
            pulse_all(xbar, np.full(xbar.g.shape, -sign * v_limit),
                      _STAIR_WIDTH)
        meas = np.full(xbar.g.shape, np.nan)
        todo = np.ones(xbar.g.shape, dtype=bool)
        v = v_step
        while todo.any() and v <= v_limit + 1e-12:
            g_before = xbar.g.copy()
            pulse_all(xbar, np.where(todo, sign * v, 0.0), _STAIR_WIDTH)
            fired = todo & (np.abs(xbar.g - g_before)
                            > _STAIR_CHANGE_FRAC * g_before)
            meas[fired] = v
            todo &= ~fired
            v += v_step
        if todo.any():
            raise MeasurementError(
                f"no {event} event observed up to {v_limit} V in "
                f"{int(todo.sum())} cell(s); they may be stuck"
            )
        measured.append(meas)
    return measured[0], measured[1]


# ---------------------------------------------------------------------------
# write-verify tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuneConfig:
    tolerance: float = checked(0.05, real(0.0, 1.0, open_low=True,
                                          open_high=True))
    v_read: float = checked(0.2, real(0.0, dev.READ_REGIME_MAX,
                                      open_low=True))
    v_write_start: float = checked(0.8, POSITIVE)
    v_write_step: float = checked(0.05, POSITIVE)
    v_write_max: float = checked(2.0, FINITE)
    # low-overdrive programming moves in small steps, and low-conductance
    # targets approach their soft bound asymptotically; several hundred
    # pulses per cell is the honest price of staying gentle
    max_pulses: int = checked(800, count())
    # 5 ms: long enough that a measurable step needs only ~0.1 V of
    # overdrive, so tuning parks near threshold and half-select stress on
    # neighbors stays below almost the entire threshold population
    width: float = checked(5e-3, POSITIVE)
    half_select: bool = checked(True, boolean)

    def __post_init__(self):
        check_fields(self)
        if not self.v_write_start <= self.v_write_max:
            raise ConfigError("need v_write_start <= v_write_max")


@dataclass
class CellTuneResult:
    ok: bool
    stuck: bool
    pulses: int
    rel_error: float


@dataclass
class TuningReport:
    rel_error: np.ndarray
    pulses: np.ndarray
    ok_mask: np.ndarray
    stuck_mask: np.ndarray
    skipped_mask: np.ndarray

    @property
    def n_failed(self) -> int:
        """Cells with a target that did not end in band, stuck or not."""
        return int((~self.skipped_mask & ~self.ok_mask).sum())

    @property
    def median_pulses(self) -> float:
        attempted = ~self.skipped_mask
        return float(np.median(self.pulses[attempted])) if attempted.any() else 0.0


def _verify(xbar: Crossbar, row: int, col: int, cfg: TuneConfig) -> float:
    return float(dev.differential_conductance(xbar.g[row, col], cfg.v_read))


# Full-amplitude pulses per polarity that decide whether a cell the tuner
# gave up on is stuck; both imports probe with the same count.
_PROBE_PULSES = 3


def _probe_polarity(xbar: Crossbar, row: int, col: int, sign: float,
                    cfg: TuneConfig, minima: tuple) -> bool:
    """True if the cell's conductance moves at all under _PROBE_PULSES at
    full write amplitude.  Exact-zero comparison: a stuck or unresponsive
    cell produces literally no change in this model."""
    g0 = xbar.g[row, col]
    for _ in range(_PROBE_PULSES):
        write_pulse(xbar, row, col, sign * cfg.v_write_max, cfg.width,
                    half_select=cfg.half_select, minima=minima)
    return bool(xbar.g[row, col] != g0)


def tune_cell(
    xbar: Crossbar,
    row: int,
    col: int,
    target_g: float,
    cfg: TuneConfig,
) -> tuple[Crossbar, CellTuneResult]:
    """Write-verify one cell to target_g within cfg.tolerance (relative).

    Pulses xbar in place and returns it with a CellTuneResult; a failed
    outcome is a result, not an exception, so array-scale imports can
    collect failures.
    The response floor for "no measurable change" is a tenth of the
    tolerance band, which keeps escalation moving near the soft bounds where
    single-pulse steps become arbitrarily small.  A pulse that moves the
    cell more than three floors backs the amplitude off one step, so it
    settles at the lowest level that still makes progress; under
    half-select addressing that minimizes the V/2 stress sprayed on row
    and column neighbors.  Pulses leave the thresholds as they are, so the
    session builds the array's threshold minima once for all its pulses.
    """
    xbar._check_index(row, col)
    if not xbar.formed[row, col]:
        raise FormingRequiredError(
            f"cell ({row}, {col}) is unformed; tuning needs a formed device"
        )
    lo, hi = xbar.g_lo[row, col], xbar.g_hi[row, col]
    if not lo <= target_g <= hi:
        raise ConfigError(
            f"target {target_g:.3e} S outside cell range [{lo:.3e}, {hi:.3e}]"
        )
    band = cfg.tolerance * target_g
    floor = band / 10.0
    meas = _verify(xbar, row, col, cfg)
    if abs(meas - target_g) <= band:
        return xbar, CellTuneResult(True, False, 0,
                                    (meas - target_g) / target_g)

    minima = threshold_minima(xbar)
    v_amp = cfg.v_write_start
    last_dir = 0
    pulses = 0
    while pulses < cfg.max_pulses:
        direction = 1 if meas < target_g else -1
        if last_dir != 0 and direction != last_dir:
            v_amp = cfg.v_write_start
        last_dir = direction
        write_pulse(xbar, row, col, direction * v_amp, cfg.width,
                    half_select=cfg.half_select, minima=minima)
        pulses += 1
        new = _verify(xbar, row, col, cfg)
        if abs(new - meas) < floor:
            v_amp = min(v_amp + cfg.v_write_step, cfg.v_write_max)
        elif abs(new - meas) > 3.0 * floor:
            v_amp = max(v_amp - cfg.v_write_step, cfg.v_write_start)
        meas = new
        if abs(meas - target_g) <= band:
            return xbar, CellTuneResult(True, False, pulses,
                                        (meas - target_g) / target_g)

    set_alive = _probe_polarity(xbar, row, col, +1.0, cfg, minima)
    reset_alive = _probe_polarity(xbar, row, col, -1.0, cfg, minima)
    meas = _verify(xbar, row, col, cfg)
    return xbar, CellTuneResult(
        ok=False, stuck=not (set_alive or reset_alive),
        pulses=pulses, rel_error=(meas - target_g) / target_g,
    )


def import_conductance_map(
    xbar: Crossbar,
    targets: np.ndarray,
    cfg: TuneConfig,
) -> tuple[Crossbar, TuningReport]:
    """Tune xbar in place to a target map (row-major); NaN entries skip.

    With cfg.half_select the cells are walked sequentially through the V/2
    addressing path; otherwise all unconverged cells are pulsed in parallel
    with identical per-cell decisions (no cross-cell disturb), one block of
    _IMPORT_BLOCK_ROWS rows at a time.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != xbar.g.shape:
        raise DimensionError(
            f"target map shape {targets.shape} does not match array "
            f"{xbar.g.shape}"
        )
    live = np.isfinite(targets)
    bad = live & ((targets < xbar.g_lo) | (targets > xbar.g_hi))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ConfigError(
            f"target at ({r}, {c}) = {targets[r, c]:.3e} S outside the cell "
            f"range [{xbar.g_lo[r, c]:.3e}, {xbar.g_hi[r, c]:.3e}]"
        )
    if (live & ~xbar.formed).any():
        r, c = np.argwhere(live & ~xbar.formed)[0]
        raise FormingRequiredError(
            f"cell ({r}, {c}) has a tuning target but was never formed"
        )

    if cfg.half_select:
        return _import_sequential(xbar, targets, live, cfg)
    return _import_parallel(xbar, targets, live, cfg)


# Upper bound on write-verify passes over the array.  Sequential V/2
# addressing lets an escalated write disturb low-threshold neighbors that
# were already tuned, so one pass over the array is not enough; each pass
# re-tunes only the cells the previous pass knocked out of band, and the
# set shrinks fast.
_VERIFY_PASSES = 6

# Each pass tunes to this fraction of the requested band so cells park
# mid-band instead of at its edge; a small later disturb then leaves them
# inside the band the caller asked for instead of just outside it.
_GUARD_FRACTION = 0.6


def _import_sequential(xbar, targets, live, cfg):
    shape = xbar.g.shape
    pulses = np.zeros(shape, dtype=np.int64)
    stuck = np.zeros(shape, dtype=bool)
    inner = replace(cfg, tolerance=_GUARD_FRACTION * cfg.tolerance)

    # Targets near a soft bound need the most escalation (window -> 0), so
    # their sessions radiate the strongest half-select stress.  Tune them
    # first: the hot pulses land while the rest of the array is still
    # untuned and there is nothing to wreck.
    margin = np.minimum(targets - xbar.g_lo, xbar.g_hi - targets)

    def ordered(mask):
        cells = np.argwhere(mask)
        return cells[np.argsort(margin[tuple(cells.T)], kind="stable")]

    # the first pass meets each cell once, and a later one only cells out
    # of band, which excludes the stuck ones: no stuck cell is tuned again
    todo = ordered(live)
    for _ in range(_VERIFY_PASSES):
        for row, col in todo:
            _, res = tune_cell(xbar, row, col, targets[row, col], inner)
            pulses[row, col] += res.pulses
            stuck[row, col] = res.stuck
        meas = dev.differential_conductance(xbar.g, cfg.v_read)
        with np.errstate(invalid="ignore"):
            rel_error = np.where(live, (meas - targets) / targets, np.nan)
        out_of_band = live & ~stuck & (np.abs(rel_error) > cfg.tolerance)
        if not out_of_band.any():
            break
        todo = ordered(out_of_band)

    # the last pass's read is final: nothing has written to xbar since
    ok = live & ~stuck & (np.abs(rel_error) <= cfg.tolerance)
    return xbar, TuningReport(rel_error, pulses, ok, stuck, ~live)


# Rows per block of the parallel import.  Cells never interact there, so
# each block runs the whole state machine on its own: every per-iteration
# temporary is a block in size and stays in cache, and a block stops as soon
# as its own cells have converged instead of riding along with the slowest
# cell of the array.
_IMPORT_BLOCK_ROWS = 16


def _import_parallel(xbar, targets, live, cfg):
    shape = xbar.g.shape
    meas = np.empty(shape)
    pulses = np.zeros(shape, dtype=np.int64)
    active = np.zeros(shape, dtype=bool)
    stuck = np.zeros(shape, dtype=bool)
    for start in range(0, xbar.rows, _IMPORT_BLOCK_ROWS):
        rows = slice(start, start + _IMPORT_BLOCK_ROWS)
        meas[rows], pulses[rows], active[rows], stuck[rows] = _tune_block(
            xbar._row_view(rows), targets[rows], live[rows], cfg)

    rel_error = np.where(live, (meas - targets) / targets, np.nan)
    return xbar, TuningReport(rel_error, pulses, live & ~active, stuck, ~live)


def _tune_block(block, targets, live, cfg):
    """Write-verify every live cell of ``block`` in parallel, in place, then
    probe the cells left unconverged; (meas, pulses, active, stuck).

    A converged cell gets a 0 V pulse, which leaves it exactly as it is, so
    each cell follows tune_cell's trajectory whatever the block holds.  A
    cell never becomes active again once it has converged, so its amplitude
    and last direction are never read again either: they are updated
    without the active mask, by arithmetic instead of np.where, which is
    several times slower on a scattered mask.  The amplitude stays within
    [v_write_start, v_write_max], where adding or subtracting a zero step
    and clamping leaves it exactly as it is."""
    shape = block.g.shape
    band = cfg.tolerance * np.where(live, targets, np.inf)
    floor = band / 10.0
    backoff_floor = 3.0 * floor
    active = live.copy()
    v_amp = np.full(shape, cfg.v_write_start)
    last_dir = np.zeros(shape, dtype=np.int8)
    pulses = np.zeros(shape, dtype=np.int64)

    meas = dev.differential_conductance(block.g, cfg.v_read)
    for _ in range(cfg.max_pulses):
        # a live cell has a finite error and band, and a dead one is
        # inactive already, so ">" is the negation of "<=" here
        active &= np.abs(meas - targets) > band
        if not active.any():
            break
        direction = (meas < targets).astype(np.int8) * 2 - 1
        # on the first pass last_dir is 0 and v_amp is v_write_start, so
        # this resets nothing; after it, last_dir is never 0
        v_amp[direction != last_dir] = cfg.v_write_start
        last_dir = direction
        amp = direction * v_amp * active
        g_before = block.g.copy()
        pulse_all(block, amp, cfg.width)
        moved = np.abs(block.g - g_before)
        v_amp = np.minimum(v_amp + cfg.v_write_step * (moved < floor),
                           cfg.v_write_max)
        v_amp = np.maximum(v_amp - cfg.v_write_step * (moved > backoff_floor),
                           cfg.v_write_start)
        pulses += active
        meas = dev.differential_conductance(block.g, cfg.v_read)
    active &= np.abs(meas - targets) > band

    stuck = np.zeros(shape, dtype=bool)
    if active.any():
        g0 = block.g.copy()
        for _ in range(_PROBE_PULSES):
            pulse_all(block, np.where(active, cfg.v_write_max, 0.0), cfg.width)
        set_alive = block.g != g0
        g1 = block.g.copy()
        for _ in range(_PROBE_PULSES):
            pulse_all(block, np.where(active, -cfg.v_write_max, 0.0),
                      cfg.width)
        reset_alive = block.g != g1
        stuck = active & ~set_alive & ~reset_alive
        meas = dev.differential_conductance(block.g, cfg.v_read)
    return meas, pulses, active, stuck


# ---------------------------------------------------------------------------
# defect diagnosis (measure-and-probe workflow)
# ---------------------------------------------------------------------------


def _staircase_alive(xbar, row, col, sign, cfg, minima) -> bool:
    """Escalate from v_write_start; True at the first measurable response."""
    v_amp = cfg.v_write_start
    g_ref = xbar.g[row, col]
    while True:
        write_pulse(xbar, row, col, sign * v_amp, cfg.width,
                    half_select=cfg.half_select, minima=minima)
        if xbar.g[row, col] != g_ref:
            return True
        if v_amp >= cfg.v_write_max:
            return False
        v_amp = min(v_amp + cfg.v_write_step, cfg.v_write_max)


def diagnose_defects(xbar: Crossbar, cfg: TuneConfig
                     ) -> tuple[Crossbar, np.ndarray]:
    """Recover the stuck-cell map by probing: per-cell DefectKind flags.

    A cell that responds to neither an escalating set staircase nor an
    escalating reset staircase (up to v_write_max) is diagnosed stuck; the
    kind is read off its conductance position.  Healthy cells get nudged by
    the probes (a cheap price; imports re-tune afterwards): the probes pulse
    xbar in place, and it is returned along with the flags.
    """
    minima = threshold_minima(xbar)
    flags = np.zeros(xbar.g.shape, dtype=np.int8)
    for row in range(xbar.rows):
        for col in range(xbar.cols):
            if not xbar.formed[row, col]:
                continue
            if _staircase_alive(xbar, row, col, +1.0, cfg, minima):
                continue
            if _staircase_alive(xbar, row, col, -1.0, cfg, minima):
                continue
            g = xbar.g[row, col]
            near_hi = abs(g - xbar.g_hi[row, col]) <= abs(g - xbar.g_lo[row, col])
            flags[row, col] = DefectKind.STUCK_ON if near_hi else DefectKind.STUCK_OFF
    return xbar, flags


# ---------------------------------------------------------------------------
# image-to-conductance helper (grayscale tuning demo)
# ---------------------------------------------------------------------------


def image_to_targets(levels: np.ndarray, r_white: float, r_black: float
                     ) -> np.ndarray:
    """Map 8-bit grayscale levels linearly onto resistance [r_black, r_white]
    (level 0 -> r_black, level 255 -> r_white) and return conductances."""
    levels = np.asarray(levels, dtype=np.float64)
    if levels.min() < 0 or levels.max() > 255:
        raise ConfigError("grayscale levels must lie in [0, 255]")
    if r_white <= 0 or r_black <= 0:
        raise ConfigError("endpoint resistances must be positive")
    r = r_black + (r_white - r_black) * levels / 255.0
    return 1.0 / r
