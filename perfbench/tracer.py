"""Out-of-program tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function of the program's layer
modules at each place the function is looked up: the defining module's
globals (which is also how ``dev.pulse_delta``-style module-attribute calls
resolve) and every other package module that bound the same object by name
with ``from .x import f``.  The program itself is not edited.

Spans are aggregated by (name, parent) into call count, inclusive time and
self time, per thread, so memory stays flat however many kernel calls a run
makes.  Self time is inclusive time minus the full wrapped interval of the
direct children, so the tracer's own bookkeeping around a child is charged
to nobody's self time.  A few functions get a probe that records counts
from their arguments and results (pulses, cells, multiply-accumulates);
probe work also sits outside every self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("device", "crossbar", "progtune", "neuron", "network", "training",
          "bench", "harness")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# ---------------------------------------------------------------------------
# probes: before(args, kwargs) -> context; after(counts, context, args,
# kwargs, result) adds to the per-thread count table
# ---------------------------------------------------------------------------


def _write_pulse_before(args, kwargs):
    xbar, row, col, v = (_arg(args, kwargs, i, n)
                         for i, n in enumerate(("xbar", "row", "col", "v")))
    if not _arg(args, kwargs, 5, "half_select", True):
        return row, col, None, None, None
    # a neighbour sees v/2 of the same polarity; it moves only past the
    # threshold of that polarity (pulse_delta: v - v_set, -v - v_reset)
    thresholds = xbar.v_set if v >= 0 else xbar.v_reset
    movable = xbar.formed & (xbar.defect == 0)
    in_row = movable[row].copy()
    in_row[col] = False
    in_col = movable[:, col].copy()
    in_col[row] = False
    half = abs(float(v)) / 2.0
    free = bool(np.all(half <= thresholds[row][in_row])
                and np.all(half <= thresholds[:, col][in_col]))
    return row, col, free, xbar.g[row].copy(), xbar.g[:, col].copy()


def _write_pulse_after(counts, ctx, args, kwargs, result):
    row, col, free, g_row, g_col = ctx
    _add(counts, "trace.pulses", 1)
    if free is None:
        return
    _add(counts, "crossbar.write_pulse.half_select_calls", 1)
    _add(counts, "crossbar.write_pulse.disturb_free", int(free))
    moved_row = result.g[row] != g_row
    moved_row[col] = False
    moved_col = result.g[:, col] != g_col
    moved_col[row] = False
    _add(counts, "crossbar.write_pulse.disturbed_cells",
         int(moved_row.sum() + moved_col.sum()))


def _pulse_all_after(counts, ctx, args, kwargs, result):
    cells = int(np.count_nonzero(_arg(args, kwargs, 1, "v")))
    _add(counts, "trace.pulses", cells)
    _add(counts, "crossbar.pulse_all.cells_pulsed", cells)


def _vmm_batch_after(counts, ctx, args, kwargs, result):
    xbar = _arg(args, kwargs, 0, "xbar")
    n = np.shape(_arg(args, kwargs, 1, "v_batch"))[0]
    _add(counts, "crossbar.vmm_currents_batch.macs", n * xbar.rows * xbar.cols)


def _tune_cell_after(counts, ctx, args, kwargs, result):
    _add(counts, "progtune.tune_cell.pulses", result[1].pulses)


def _import_map_after(counts, ctx, args, kwargs, result):
    rep = result[1]
    attempted = ~rep.skipped_mask
    _add(counts, "progtune.import_conductance_map.cells_attempted",
         int(attempted.sum()))
    _add(counts, "progtune.import_conductance_map.cells_converged",
         int(rep.ok_mask.sum()))
    _add(counts, "progtune.import_conductance_map.cells_stuck",
         int(rep.stuck_mask.sum()))
    _add(counts, "progtune.import_conductance_map.pulses",
         int(rep.pulses[attempted].sum()))


def _forward_after(counts, ctx, args, kwargs, result):
    levels = _arg(args, kwargs, 1, "levels")
    _add(counts, "network.forward.patterns", np.atleast_2d(levels).shape[0])


def _train_after(counts, ctx, args, kwargs, result):
    _add(counts, "training.train_defect_aware.epochs", len(result[3]))


def _insitu_after(counts, ctx, args, kwargs, result):
    _add(counts, "training.insitu_epoch.errors", result[1])


PROBES = {
    "crossbar.write_pulse": (_write_pulse_before, _write_pulse_after),
    "crossbar.pulse_all": (None, _pulse_all_after),
    "crossbar.vmm_currents_batch": (None, _vmm_batch_after),
    "progtune.tune_cell": (None, _tune_cell_after),
    "progtune.import_conductance_map": (None, _import_map_after),
    "network.forward": (None, _forward_after),
    "training.train_defect_aware": (None, _train_after),
    "training.insitu_epoch": (None, _insitu_after),
}


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


class _ThreadTables:
    def __init__(self):
        self.stack = []   # frames [name, time covered by direct children]
        self.spans = {}   # (name, parent) -> [calls, inclusive_s, self_s]
        self.counts = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadTables] = []
        self._undo: list[tuple] = []

    def _tables_here(self) -> _ThreadTables:
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = self._local.tables = _ThreadTables()
            with self._lock:
                self._tables.append(tables)
        return tables

    def _wrap(self, name, fn):
        before, after = PROBES.get(name, (None, None))
        tables_here = self._tables_here
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_outer = clock()
            tables = tables_here()
            stack = tables.stack
            parent = stack[-1][0] if stack else ""
            ctx = before(args, kwargs) if before else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                rec = tables.spans.get((name, parent))
                if rec is None:
                    rec = tables.spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if after:
                after(tables.counts, ctx, args, kwargs, result)
            if stack:
                stack[-1][1] += clock() - t_outer
            return result

        traced.__traced__ = True
        return traced

    def install(self, package: str = "xbarnet"):
        """Wrap the public functions of every layer at every binding."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or getattr(fn, "__traced__", False)):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self._undo.append((m, bound, fn))
                            setattr(m, bound, traced)

    def uninstall(self):
        while self._undo:
            m, bound, fn = self._undo.pop()
            setattr(m, bound, fn)

    def spans(self) -> dict:
        """Merged (name, parent) -> [calls, inclusive_s, self_s]."""
        merged: dict = {}
        for tables in self._tables:
            for key, rec in tables.spans.items():
                _sum_into(merged, key, rec)
        return merged

    def counts(self) -> dict:
        merged: dict = {}
        for tables in self._tables:
            for key, value in tables.counts.items():
                _add(merged, key, value)
        return merged


def _sum_into(table: dict, key, rec):
    acc = table.setdefault(key, [0, 0.0, 0.0])
    for i, value in enumerate(rec):
        acc[i] += value


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: dict, counts: dict) -> dict:
    """The per-layer metric values, by name, from one traced run."""
    per_fn: dict = {}
    for (name, _parent), rec in spans.items():
        _sum_into(per_fn, name, rec)

    out = {}
    for name, (calls, incl, own) in per_fn.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
        out[f"{name}.incl_s"] = incl
    for key, value in counts.items():
        out[key] = value

    def get(key):
        return out.get(key, 0)

    wp = "crossbar.write_pulse"
    out[f"{wp}.us_per_call"] = 1e6 * _ratio(get(f"{wp}.self_s"),
                                            get(f"{wp}.calls"))
    out[f"{wp}.disturb_free_frac"] = _ratio(get(f"{wp}.disturb_free"),
                                            get(f"{wp}.half_select_calls"))
    vmm = "crossbar.vmm_currents_batch"
    out[f"{vmm}.gmac_per_s"] = 1e-9 * _ratio(get(f"{vmm}.macs"),
                                             get(f"{vmm}.self_s"))
    imp = "progtune.import_conductance_map"
    out[f"{imp}.converged_frac"] = _ratio(get(f"{imp}.cells_converged"),
                                          get(f"{imp}.cells_attempted"))
    out[f"{imp}.pulses_per_cell"] = _ratio(get(f"{imp}.pulses"),
                                           get(f"{imp}.cells_attempted"))
    tr = "training.train_defect_aware"
    out[f"{tr}.s_per_epoch"] = _ratio(get(f"{tr}.incl_s"), get(f"{tr}.epochs"))
    return out
