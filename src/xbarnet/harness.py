"""Named experiment recipes, parameter sweeps, and their file outputs.

Every experiment is driven by one config document (JSON on disk or a plain
dict): a schema version, a recipe name, a seed list, optional overrides for
the component config sections, and a flat ``knobs`` table for recipe-level
settings.  Unknown sections, fields, and knobs are hard errors.  Every
section field is read by the layer it configures, and a document may not
set hyper.seed, because each run takes its seed from the seed list.  The
knobs are one flat table shared by all recipes, ``_KNOBS``: each row holds
a knob's default, the check that types a document's value once, at load,
and the recipes and sweep axes that read it.  A run refuses a knob set away
from its default that neither its recipe nor its sweep axis reads, since
it would change nothing.

Recipes are one table, ``RECIPES``: each row holds the recipe's run
function and its overrides of the stock config document.  The four letter
studies are rows of data (``_LetterStudy``: schemes, epoch-trace file,
seed tally) for one engine.  The digit corpus comes from the IDX directory
the ``mnist_dir`` knob names, or is built in memory by the procedural
generator; the config alone decides which.

Determinism contract: a (config, seeds) pair pins every number in every
output file.  Reruns produce byte-identical CSV/JSON.  A sweep's worker
count is an argument of run_sweep, not a config value, so it enters neither
the results nor the config hash recorded in the manifest, and the hash
changes exactly when the semantics of the run change.

Summary statistics over seeds are medians and quartiles throughout; runs
over defective hardware produce heavy-tailed fidelity distributions and a
mean would let one wrecked seed dominate the curve.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field, replace
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bench
from .bench import Dataset
from .crossbar import (
    build_crossbar,
    inject_cell_defects,
    sample_cells,
    vary_bounds,
    vmm_currents_batch,
)
from .device import DeviceSpec
from .errors import (FINITE, FRACTION, NONNEG, POSITIVE, ConfigError,
                     DataMissingError, choice, count, list_of, real,
                     run_check)
from .network import Network, NetworkConfig, assemble, evaluate
from .neuron import (
    CompensationParams,
    compensated_output,
    inject_neuron_faults,
    vary_swing,
)
from .progtune import (
    FormingConfig,
    TuneConfig,
    extract_thresholds,
    form_array,
    image_to_targets,
    import_conductance_map,
)
from .training import (
    BLIND_FIT_SCHEMES,
    InSituConfig,
    Loss,
    Scheme,
    SoftwareNet,
    TrainHyper,
    run_schemes,
    software_forward,
    software_weights_for,
)

SCHEMA_VERSION = 1

_MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


_SECTIONS = {
    "device": DeviceSpec,
    "network": NetworkConfig,
    "hyper": TrainHyper,
    "tune": TuneConfig,
    "insitu": InSituConfig,
    "forming": FormingConfig,
}

# enum-typed fields arrive as their string values in JSON
_ENUM_FIELDS = {
    ("hyper", "loss"): Loss,
}

# Knob checks (errors.py's value checks): each returns the typed value, or
# raises ValueError saying what the value must be; config_from_dict names the
# knob and the value.


def _directory(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError("must name a directory")
    return value


def _swing_map(value) -> dict[int, float]:
    """Neuron index -> output swing; JSON spells each index as a string."""
    if isinstance(value, dict) and all(str(k).isdecimal() for k in value):
        try:
            return {int(k): FINITE(swing) for k, swing in value.items()}
        except ValueError:
            pass
    raise ValueError("must map neuron indices to finite swings")


_LETTER_RECIPES = ("fig8-exsitu", "fig9-defect-aware", "fig10-insitu",
                   "fig11-hybrid")
_AXES = ("import_accuracy", "stuck_fraction", "bounds_sigma", "noise_sigma",
         "stuck_neuron_fraction", "temperature")
# every classification recipe and sweep builds its network in _base_net and
# runs it through _run
_NETWORK_READERS = _LETTER_RECIPES + ("fig12-mnist",) + _AXES
_SCHEMES = tuple(s.value for s in Scheme)
# an import's relative tuning tolerance; 0 is the ideal import
_ACCURACY = real(0.0, 1.0, open_high=True)

# key -> (default, check, readers): a default of None means unset, and the
# reader picks its own; the check types a document's value; the readers are
# the recipes and sweep axes that read the knob
_KNOBS = {
    # geometry for the array-level recipes
    "n_rows": (None, count(), ("fig2-forming", "fig13-temp")),
    "n_cols": (None, count(), ("fig2-forming",)),
    "n_devices": (None, count(), ("fig3-thresholds",)),
    # threshold characterization
    "v_step": (0.05, POSITIVE, ("fig3-thresholds",)),
    "v_limit": (3.0, POSITIVE, ("fig3-thresholds",)),
    # tuning recipe: the resistances of white and black image levels
    "r_white": (84e3, POSITIVE, ("fig4-tuning",)),
    "r_black": (7e3, POSITIVE, ("fig4-tuning",)),
    # classification recipes
    "scheme": (None, choice(*_SCHEMES), ("fig12-mnist",)),
    "schemes": (None, list_of(choice(*_SCHEMES)), ("stuck_fraction",)),
    "import_accuracy": (None, _ACCURACY, _NETWORK_READERS),
    "import_noise_sigma": (0.0, NONNEG, _NETWORK_READERS),
    "inference_noise_sigma": (0.0, NONNEG, _NETWORK_READERS),
    "noise_phase": ("both", choice("import", "inference", "both"),
                    ("noise_sigma",)),
    "subsample": (None, count(), _NETWORK_READERS),
    "stuck_on_frac": (0.0, FRACTION, _NETWORK_READERS),
    "stuck_off_frac": (0.0, FRACTION, _NETWORK_READERS),
    "stuck_neuron_high_frac": (0.0, FRACTION, _NETWORK_READERS),
    "stuck_neuron_low_frac": (0.0, FRACTION, _NETWORK_READERS),
    "swing_overrides": (None, _swing_map, _NETWORK_READERS),
    "swing_sigma": (0.0, NONNEG, _NETWORK_READERS),
    # digit corpus
    "mnist_dir": (None, _directory, ("fig12-mnist",)),
    "n_train_digits": (8000, count(), ("fig12-mnist",)),
    "n_test_digits": (2000, count(), ("fig12-mnist",)),
    # temperature study
    "temperatures": (None, list_of(FINITE), ("fig13-temp",)),
    "g_bias_high": (80e-6, NONNEG, ("fig13-temp",)),
    "g_bias_low": (15e-6, NONNEG, ("fig13-temp",)),
    "v_bias": (0.2, FINITE, ("fig13-temp",)),
    "v_in": (0.2, FINITE, ("fig13-temp",)),
}

_TOP_LEVEL_KEYS = {"schema_version", "recipe", "seeds", "out_dir",
                   "knobs"} | set(_SECTIONS)


@dataclass
class ExperimentConfig:
    recipe: str
    seeds: list
    out_dir: str | None
    spec: DeviceSpec
    network: NetworkConfig
    hyper: TrainHyper
    tune: TuneConfig
    insitu: InSituConfig
    forming: FormingConfig
    knobs: dict


def _build_section(name: str, cls, overrides: dict):
    if not isinstance(overrides, dict):
        raise ConfigError(f"section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    kw = {}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}")
        if (name, key) == ("hyper", "seed"):
            raise ConfigError(
                "hyper.seed cannot be set: every run takes its seed from "
                "the seeds list, so set seeds instead"
            )
        enum_cls = _ENUM_FIELDS.get((name, key))
        if enum_cls is not None and not isinstance(value, enum_cls):
            try:
                value = enum_cls(value)
            except ValueError:
                choices = ", ".join(e.value for e in enum_cls)
                raise ConfigError(
                    f"{name}.{key} must be one of: {choices} (got {value!r})"
                )
        kw[key] = value
    try:
        return cls(**kw)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate and resolve one config document. Unknown keys anywhere are
    errors, not warnings; silent typos have burned enough sweep-days."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown config section {key!r}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    recipe = doc.get("recipe")
    _recipe(recipe)
    seeds = _checked_seeds(doc.get("seeds", [0]))

    sections = {}
    for name, cls in _SECTIONS.items():
        sections[name] = _build_section(name, cls, doc.get(name, {}))

    knobs = {key: default for key, (default, _, _) in _KNOBS.items()}
    raw_knobs = doc.get("knobs", {})
    if not isinstance(raw_knobs, dict):
        raise ConfigError("knobs must be an object")
    for key, value in raw_knobs.items():
        if key not in _KNOBS:
            raise ConfigError(f"unknown knob {key!r}")
        default, check, _ = _KNOBS[key]
        # None sets a knob back to unset where unset is its default
        knobs[key] = None if value is None and default is None \
            else run_check(check, value, f"knob {key!r}")

    return ExperimentConfig(
        recipe=recipe,
        seeds=seeds,
        out_dir=doc.get("out_dir"),
        spec=sections["device"],
        network=sections["network"],
        hyper=sections["hyper"],
        tune=sections["tune"],
        insitu=sections["insitu"],
        forming=sections["forming"],
        knobs=knobs,
    )


def _checked_seeds(seeds) -> list:
    """A run's seed list: non-empty, distinct ints >= 0, and no bools."""
    if (not isinstance(seeds, list) or not seeds
            or not all(type(s) is int and s >= 0 for s in seeds)):
        raise ConfigError("seeds must be a non-empty list of ints >= 0")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    return list(seeds)


def _knob(cfg: ExperimentConfig, key: str, default):
    """A knob's value, or the reader's ``default`` where it is unset (None)."""
    value = cfg.knobs[key]
    return default if value is None else value


def _refuse_unread_knobs(cfg: ExperimentConfig, *names: str):
    """Refuse a knob set away from its default that none of the recipes or
    sweep axes ``names`` reads: it would change nothing."""
    for key, (default, _, readers) in _KNOBS.items():
        if cfg.knobs[key] != default and not set(names) & set(readers):
            raise ConfigError(f"knob {key!r} is not read by "
                              f"{' or '.join(names)}")


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _recipe(name) -> "_Recipe":
    """The RECIPES row of a recipe name; the one unknown-recipe error."""
    if not isinstance(name, str) or name not in RECIPES:
        names = ", ".join(sorted(RECIPES))
        raise ConfigError(f"unknown recipe {name!r}; available: {names}")
    return RECIPES[name]


def default_config(recipe: str) -> dict:
    """The stock config document for a recipe (still a plain dict; callers
    may merge their own overrides before config_from_dict)."""
    base = {"schema_version": SCHEMA_VERSION, "recipe": recipe, "seeds": [0]}
    return _merge(base, copy.deepcopy(_recipe(recipe).stock))


def _jsonable(value):
    if isinstance(value, (Loss, Scheme)):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """The fully-resolved semantic content of a config: defaults applied,
    output location stripped."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "recipe": cfg.recipe,
        "seeds": list(cfg.seeds),
    }
    for name in _SECTIONS:
        attr = "spec" if name == "device" else name
        doc[name] = _jsonable(dataclasses.asdict(getattr(cfg, attr)))
    doc["knobs"] = {k: _jsonable(v) for k, v in sorted(cfg.knobs.items())}
    return doc


def _json_sha256(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    return _json_sha256(resolved_dict(cfg))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_json(path: Path, obj):
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _hist_rows(values: np.ndarray, edges: np.ndarray):
    counts, _ = np.histogram(values, bins=edges)
    return [(edges[i], edges[i + 1], int(counts[i]))
            for i in range(len(counts))]


def _median_q(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "median": float(np.median(arr)),
        "q25": float(np.percentile(arr, 25)),
        "q75": float(np.percentile(arr, 75)),
    }


# ---------------------------------------------------------------------------
# datasets and network assembly
# ---------------------------------------------------------------------------


_SYNTH_TRAIN_SEED = 20260214
_SYNTH_TEST_SEED = 20260215


def _digit_sets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, str]:
    """Digit corpus: the IDX files in the directory the mnist_dir knob
    names, else the procedural corpus, built in memory."""
    src = cfg.knobs["mnist_dir"]
    if src is not None:
        d = Path(src)
        missing = [name for name in _MNIST_FILES if not (d / name).exists()]
        if missing:
            raise DataMissingError(
                f"digit corpus directory {d} lacks: {', '.join(missing)}"
            )
        train = bench.load_mnist(d / _MNIST_FILES[0], d / _MNIST_FILES[1])
        test = bench.load_mnist(d / _MNIST_FILES[2], d / _MNIST_FILES[3])
        return train, test, f"idx files from {d}"

    n_train = cfg.knobs["n_train_digits"]
    n_test = cfg.knobs["n_test_digits"]
    train = bench.synthetic_digits(n_train, _SYNTH_TRAIN_SEED)
    test = bench.synthetic_digits(n_test, _SYNTH_TEST_SEED)
    return train, test, (f"procedural digit corpus ({n_train} train / "
                         f"{n_test} test)")


def _datasets_for(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, str]:
    if cfg.recipe == "fig12-mnist":
        return _digit_sets(cfg)
    train, test = bench.letter_dataset(n_classes=cfg.network.n_outputs)
    return train, test, "engineered letter set"


def _base_net(cfg: ExperimentConfig, seed: int) -> Network:
    """Assemble one network instance and apply the config's standing
    hardware imperfections (stuck cells, neuron faults, swing spread)."""
    net = assemble(cfg.network, cfg.spec, [seed, 0])
    on = cfg.knobs["stuck_on_frac"]
    off = cfg.knobs["stuck_off_frac"]
    if on > 0 or off > 0:
        inject_cell_defects(net.xbar1, on, off, [seed, 1])
        inject_cell_defects(net.xbar2, on, off, [seed, 2])
    sigma = cfg.knobs["swing_sigma"]
    if sigma > 0:
        vary_swing(net.hidden_neurons, sigma, [seed, 3])
    high = cfg.knobs["stuck_neuron_high_frac"]
    low = cfg.knobs["stuck_neuron_low_frac"]
    overrides = cfg.knobs["swing_overrides"]
    if high > 0 or low > 0 or overrides:
        inject_neuron_faults(net.hidden_neurons, high, low, overrides,
                             [seed, 4])
    return net


def _run(cfg: ExperimentConfig, schemes, train: Dataset, net: Network,
         test: Dataset, seed: int, fit=None) -> dict:
    return run_schemes(
        schemes, train, net,
        test_set=test,
        hyper=replace(cfg.hyper, seed=seed),
        tune_cfg=cfg.tune,
        insitu_cfg=cfg.insitu,
        import_accuracy=cfg.knobs["import_accuracy"],
        import_noise_sigma=cfg.knobs["import_noise_sigma"],
        inference_noise_sigma=cfg.knobs["inference_noise_sigma"],
        subsample=cfg.knobs["subsample"],
        fit=fit,
    )


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------


def _recipe_forming(cfg: ExperimentConfig, out: Path):
    rows = _knob(cfg, "n_rows", 40)
    cols = _knob(cfg, "n_cols", 50)
    modes = ("voltage", "current")  # labels: both form by one rule
    per_mode: dict[str, dict] = {m: {"runs": []} for m in modes}
    volt_pool: dict[str, list] = {m: [] for m in modes}

    for seed in cfg.seeds:
        for mi, mode in enumerate(modes):
            xbar = build_crossbar(rows, cols, cfg.spec, [seed, mi, 0],
                                  formed=False)
            _, rep = form_array(xbar, cfg.forming, [seed, mi, 1])
            per_mode[mode]["runs"].append({
                "seed": seed,
                "n_auto": rep.n_auto,
                "n_manual": rep.n_manual,
                "n_failed": rep.n_failed,
                "manual_rate": rep.manual_rate,
            })
            volt_pool[mode].append(rep.forming_v[xbar.formed])

    for mode in per_mode:
        rates = [r["manual_rate"] for r in per_mode[mode]["runs"]]
        per_mode[mode]["manual_rate"] = _median_q(rates)

    # pooled manual rates across seeds, two-proportion z statistic
    totals = {}
    for mode in per_mode:
        n_manual = sum(r["n_manual"] for r in per_mode[mode]["runs"])
        n_target = sum(r["n_manual"] + r["n_auto"] + r["n_failed"]
                       for r in per_mode[mode]["runs"])
        totals[mode] = (n_manual, n_target)
    (m1, n1), (m2, n2) = totals.values()
    p_pool = (m1 + m2) / (n1 + n2)
    denom = np.sqrt(p_pool * (1 - p_pool) * (1 / n1 + 1 / n2))
    z = float((m1 / n1 - m2 / n2) / denom) if denom > 0 else 0.0

    edges = np.arange(cfg.forming.v_start,
                      cfg.forming.v_max + cfg.forming.v_step,
                      cfg.forming.v_step)
    hist_rows = []
    for mode in per_mode:
        pooled = np.concatenate(volt_pool[mode])
        for lo, hi, n in _hist_rows(pooled, edges):
            hist_rows.append((lo, hi, n, mode))
    _write_csv(out / "forming_voltages.csv",
               "v_lo,v_hi,count,mode", hist_rows)

    summary = {
        "array": [rows, cols],
        "per_mode": per_mode,
        "mode_z_statistic": z,
        "expected_manual_rate": cfg.spec.forming_fail_prob,
    }
    return summary, ["forming_voltages.csv"]


def _recipe_thresholds(cfg: ExperimentConfig, out: Path):
    n = _knob(cfg, "n_devices", 200)
    rows = []
    for seed in cfg.seeds:
        cells = sample_cells(cfg.spec, [[seed, i] for i in range(n)])
        m_set, m_reset = extract_thresholds(cells, cfg.knobs["v_step"],
                                            cfg.knobs["v_limit"])
        for i in range(n):
            rows.append((seed, i, cells.v_set[i, 0], m_set[i, 0],
                         cells.v_reset[i, 0], m_reset[i, 0]))
    _write_csv(out / "thresholds.csv",
               "seed,device,true_vset,meas_vset,true_vreset,meas_vreset",
               rows)
    arr = np.array([r[2:] for r in rows], dtype=np.float64)
    summary = {
        "n_devices": n * len(cfg.seeds),
        "true_vset": {"mean": float(arr[:, 0].mean()),
                      "std": float(arr[:, 0].std())},
        "meas_vset": {"mean": float(arr[:, 1].mean()),
                      "std": float(arr[:, 1].std())},
        "true_vreset": {"mean": float(arr[:, 2].mean()),
                        "std": float(arr[:, 2].std())},
        "meas_vreset": {"mean": float(arr[:, 3].mean()),
                        "std": float(arr[:, 3].std())},
        "vset_bias": float((arr[:, 1] - arr[:, 0]).mean()),
        "vreset_bias": float((arr[:, 3] - arr[:, 2]).mean()),
        "max_abs_error": float(max(np.abs(arr[:, 1] - arr[:, 0]).max(),
                                   np.abs(arr[:, 3] - arr[:, 2]).max())),
    }
    return summary, ["thresholds.csv"]


def _builtin_face() -> np.ndarray:
    """20x20 test pattern: a face on white background, strokes at level 0."""
    yy, xx = np.mgrid[0:20, 0:20].astype(np.float64)
    img = np.full((20, 20), 255.0)
    r = np.hypot(xx - 9.5, yy - 9.5)
    img[np.abs(r - 8.0) <= 0.9] = 0.0
    img[5:8, 5:7] = 0.0
    img[5:8, 13:15] = 0.0
    mouth = np.hypot(xx - 9.5, yy - 6.5)
    img[(np.abs(mouth - 7.0) <= 0.7) & (yy >= 12)] = 0.0
    return img


def _recipe_tuning(cfg: ExperimentConfig, out: Path):
    targets = image_to_targets(_builtin_face(), cfg.knobs["r_white"],
                               cfg.knobs["r_black"])
    if targets.max() > cfg.spec.g_max or targets.min() < cfg.spec.g_min:
        raise ConfigError(
            "image maps outside the device range "
            f"[{cfg.spec.g_min}, {cfg.spec.g_max}] S; adjust r_white/"
            "r_black or the device section"
        )

    errors_pct = []
    converged_errors_pct = []
    n_stuck = n_failed = n_cells = 0
    pulse_medians = []
    files = []
    for si, seed in enumerate(cfg.seeds):
        xbar = build_crossbar(*targets.shape, cfg.spec, [seed, 0])
        _, rep = import_conductance_map(xbar, targets, cfg.tune)
        attempted = ~rep.skipped_mask
        errors_pct.append(100.0 * rep.rel_error[attempted])
        converged_errors_pct.append(100.0 * rep.rel_error[rep.ok_mask])
        n_stuck += int(rep.stuck_mask.sum())
        n_failed += rep.n_failed
        n_cells += int(attempted.sum())
        pulse_medians.append(rep.median_pulses)
        if si == 0:
            # each map: a rows,cols header line, then one line per row
            for name, grid in (("target_map.csv", targets),
                               ("achieved_map.csv", xbar.g),
                               ("error_map.csv", xbar.g - targets)):
                _write_csv(out / name, "{},{}".format(*grid.shape), grid)
                files.append(name)

    pooled = np.concatenate(errors_pct)
    pooled_ok = np.concatenate(converged_errors_pct)
    edges = np.linspace(-10.0, 10.0, 81)
    _write_csv(out / "tuning_errors.csv", "err_lo_pct,err_hi_pct,count",
               _hist_rows(pooled, edges))
    files.append("tuning_errors.csv")
    summary = {
        "targets": "image",
        "array": list(targets.shape),
        "n_cells_attempted": n_cells,
        "n_stuck": n_stuck,
        "n_failed": n_failed,
        "within_5pct_fraction": float(np.mean(np.abs(pooled) <= 5.0)),
        "converged_max_abs_error_pct": float(np.abs(pooled_ok).max())
        if pooled_ok.size else 0.0,
        "median_pulses": _median_q(pulse_medians),
    }
    return summary, files


@dataclass(frozen=True)
class _LetterStudy:
    """A letter recipe as data.  Each seed's schemes run together on the
    same hardware, sharing their common stages, and report paired
    fidelities (fidelity.csv)."""

    schemes: tuple[str, ...]
    # (file, schemes): the first seed's per-epoch error counts
    trace: tuple[str, tuple[str, ...]] | None = None
    # (summary key, test of a per-seed row): how many seeds pass
    tally: tuple[str, Callable[[dict], bool]] | None = None

    def __call__(self, cfg: ExperimentConfig, out: Path):
        train, test, note = _datasets_for(cfg)
        per_seed = []
        traces = {}
        for seed in cfg.seeds:
            runs = _run(cfg, self.schemes, train, _base_net(cfg, seed), test,
                        seed)
            row = {"seed": seed}
            for scheme in self.schemes:
                rep = runs[scheme][1]
                row[f"{scheme}_train"] = rep.final_train_fidelity
                row[f"{scheme}_test"] = rep.final_test_fidelity
                row[f"{scheme}_epochs"] = len(rep.trace)
                traces.setdefault(scheme, rep.trace)
            per_seed.append(row)

        summary = {"schemes": list(self.schemes), "data": note,
                   "per_seed": per_seed}
        for scheme in self.schemes:
            summary[scheme] = {
                "train": _median_q([r[f"{scheme}_train"] for r in per_seed]),
                "test": _median_q([r[f"{scheme}_test"] for r in per_seed]),
            }
        plot_rows = [
            (row["seed"], scheme, row[f"{scheme}_train"],
             row[f"{scheme}_test"])
            for row in per_seed for scheme in self.schemes
        ]
        _write_csv(out / "fidelity.csv",
                   "seed,scheme,train_fidelity,test_fidelity", plot_rows)
        files = ["fidelity.csv"]
        if self.trace is not None:
            name, schemes = self.trace
            _write_csv(out / name, "epoch,error_count,scheme",
                       [(epoch, errors, scheme) for scheme in schemes
                        for epoch, errors in enumerate(traces[scheme])])
            files.append(name)
        if self.tally is not None:
            key, passes = self.tally
            summary[key] = sum(1 for row in per_seed if passes(row))
        return summary, files


def _software_error(net: Network, snet: SoftwareNet,
                    test: Dataset) -> float:
    """Test error percentage of the software fit itself."""
    y, *_ = software_forward(snet, test)
    pred = np.argmax(y, axis=1)
    return 100.0 - bench.score(pred, test.labels,
                               max(test.n_classes, net.config.n_outputs))


def _recipe_mnist(cfg: ExperimentConfig, out: Path):
    scheme = _knob(cfg, "scheme", Scheme.EX_SITU.value)
    train, test, note = _datasets_for(cfg)
    sub = cfg.knobs["subsample"]
    per_seed = []
    for seed in cfg.seeds:
        net = _base_net(cfg, seed)
        fit = software_weights_for(net, train, replace(cfg.hyper, seed=seed),
                                   sub)
        sw_err = _software_error(net, fit[0], test)
        _, rep = _run(cfg, [scheme], train, net, test, seed, fit)[scheme]
        per_seed.append({
            "seed": seed,
            "software_test_error": sw_err,
            "hardware_train_fidelity": rep.final_train_fidelity,
            "hardware_test_fidelity": rep.final_test_fidelity,
        })
    summary = {
        "scheme": scheme,
        "data": note,
        "subsample": sub,
        "per_seed": per_seed,
        "software_test_error": _median_q(
            [r["software_test_error"] for r in per_seed]
        ),
        "hardware_test_fidelity": _median_q(
            [r["hardware_test_fidelity"] for r in per_seed]
        ),
    }
    rows = [(r["seed"], r["software_test_error"],
             100.0 - r["hardware_test_fidelity"]) for r in per_seed]
    _write_csv(out / "errors.csv", "seed,software_error,hardware_error",
               rows)
    return summary, ["errors.csv"]


def _recipe_temperature(cfg: ExperimentConfig, out: Path):
    rows_n = _knob(cfg, "n_rows", 16)
    v_in = cfg.knobs["v_in"]
    v_bias = cfg.knobs["v_bias"]
    temps = _knob(cfg, "temperatures", [25.0, 35.0, 45.0, 55.0, 65.0, 75.0])
    biases = {"high": cfg.knobs["g_bias_high"],
              "low": cfg.knobs["g_bias_low"]}
    dep_spec = cfg.spec if cfg.spec.alpha_exponent != 0 else \
        replace(cfg.spec, alpha_exponent=1.0)
    variants = {"matched": replace(dep_spec, alpha_exponent=0.0),
                "dependent": dep_spec}

    csv_rows = []
    summary: dict = {"temperatures": temps, "series": {}}
    tune = replace(cfg.tune, tolerance=0.01)
    for seed in cfg.seeds:
        for alpha_name, spec_v in variants.items():
            rng = np.random.default_rng([seed, 0])
            lo = spec_v.g_min + 0.1 * (spec_v.g_max - spec_v.g_min)
            hi = spec_v.g_min + 0.9 * (spec_v.g_max - spec_v.g_min)
            targets = rng.uniform(lo, hi, (rows_n, 1))
            xbar = build_crossbar(rows_n, 1, spec_v, [seed, 1])
            import_conductance_map(xbar, targets, tune)

            v = np.full(rows_n, v_in)
            i_ref = float(vmm_currents_batch(xbar, v[None])[0, 0])
            s_factor = float(np.sum(v * (1.0 + xbar.kappa[:, 0] * v)))
            # the feedback device tuned until the column output stops moving
            # with temperature; algebraically that lands on i_ref/s_factor
            g_fb = i_ref / s_factor
            for bias_name, g_b in biases.items():
                comps = {
                    "memristive": CompensationParams(
                        g_fb, g_b, v_bias, fb_spec=spec_v, bias_spec=spec_v),
                    "fixed": CompensationParams(
                        g_fb, g_b, v_bias, bias_spec=spec_v),
                }
                for fb_name, comp in comps.items():
                    ref = compensated_output(i_ref, comp, t=spec_v.t_ref)
                    drifts = []
                    for t in temps:
                        i_t = float(
                            vmm_currents_batch(xbar, v[None], t=t)[0, 0])
                        vo = compensated_output(i_t, comp, t=t)
                        drifts.append(vo - ref)
                        csv_rows.append((seed, t, alpha_name, fb_name,
                                         bias_name, vo, vo - ref))
                    key = f"{alpha_name}/{fb_name}/{bias_name}"
                    entry = summary["series"].setdefault(key, [])
                    entry.append({
                        "seed": seed,
                        "v_ref": ref,
                        "max_abs_drift": float(np.max(np.abs(drifts))),
                        "max_rel_drift": float(np.max(np.abs(drifts))
                                               / abs(ref)),
                    })

    _write_csv(out / "drift.csv",
               "seed,t_c,alpha_model,feedback,g_bias,v_out,drift", csv_rows)

    def worst(key, field_name):
        return max(e[field_name] for e in summary["series"][key])

    ratios = {}
    for bias_name in biases:
        fixed = worst(f"dependent/fixed/{bias_name}", "max_abs_drift")
        resid = worst(f"dependent/memristive/{bias_name}", "max_abs_drift")
        ratios[bias_name] = resid / fixed if fixed > 0 else 0.0
    summary["matched_max_rel_drift"] = worst("matched/memristive/high",
                                             "max_rel_drift")
    summary["residual_over_fixed"] = ratios
    return summary, ["drift.csv"]


class _Recipe(NamedTuple):
    run: Callable[[ExperimentConfig, Path], tuple[dict, list]]
    stock: dict = {}  # overrides of the stock config document


# The swing pattern measured on the hidden bank of the hybrid study board:
# three neurons clip at twice the nominal swing, three at half of it.
_HYBRID_SWINGS = {0: 0.4, 6: 0.4, 7: 0.4, 1: 0.1, 3: 0.1, 4: 0.1}
_STUCK_5PCT = {"stuck_on_frac": 0.05, "stuck_off_frac": 0.05}

RECIPES = {
    "fig2-forming": _Recipe(_recipe_forming),
    "fig3-thresholds": _Recipe(_recipe_thresholds),
    # the built-in test image maps down to 7 kOhm, i.e. 143 uS, so the
    # tuning demo needs devices with more headroom than the stock 100 uS
    "fig4-tuning": _Recipe(_recipe_tuning, {"device": {"g_max": 150e-6}}),
    "fig8-exsitu": _Recipe(_LetterStudy(
        ("ex-situ",), trace=("trace.csv", ("ex-situ",)))),
    "fig9-defect-aware": _Recipe(
        _LetterStudy(("ex-situ", "defect-aware"),
                     tally=("n_seeds_full_train_fidelity",
                            lambda r: r["defect-aware_train"] >= 100.0)),
        {"knobs": _STUCK_5PCT}),
    "fig10-insitu": _Recipe(
        _LetterStudy(("in-situ", "ex-situ"),
                     trace=("plotdata.csv", ("in-situ", "ex-situ"))),
        {"network": {"n_outputs": 3}}),
    "fig11-hybrid": _Recipe(
        _LetterStudy(("ex-situ", "hybrid"),
                     trace=("trace.csv", ("hybrid",)),
                     tally=("n_seeds_hybrid_at_least_exsitu",
                            lambda r: r["hybrid_test"] >= r["ex-situ_test"])),
        {"knobs": dict(_STUCK_5PCT, swing_overrides=_HYBRID_SWINGS)}),
    "fig12-mnist": _Recipe(_recipe_mnist, {
        "network": {"n_inputs": 784, "n_hidden": 300, "n_outputs": 10},
        "hyper": {"epochs": 15, "batch_size": 100, "lr": 0.05,
                  "loss": "cross-entropy-softmax"},
        "tune": {"half_select": False},
        # refinement, not training from scratch: narrow pulses so the fast
        # tail of the threshold spread cannot erase the imported fit
        "insitu": {"epochs": 12, "half_select": False, "width": 1e-3},
        "knobs": {"subsample": 8000},
    }),
    "fig13-temp": _Recipe(_recipe_temperature),
}


def run_recipe(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Execute a recipe, write its outputs plus summary.json and
    manifest.json, and return the summary."""
    target = out_dir if out_dir is not None else cfg.out_dir
    if target is None:
        raise ConfigError("no output directory: set out_dir in the config "
                          "or pass one explicitly")
    _refuse_unread_knobs(cfg, cfg.recipe)
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    summary, files = RECIPES[cfg.recipe].run(cfg, out)
    _write_json(out / "summary.json", summary)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "recipe": cfg.recipe,
        "config_sha256": config_hash(cfg),
        "seeds": list(cfg.seeds),
        "outputs": sorted(set(files) | {"summary.json"}),
        "data": summary.get("data"),
        "subsample": summary.get("subsample"),
    }
    _write_json(out / "manifest.json", manifest)
    return summary


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    axis: str
    values: list
    seeds: list
    series: dict  # name -> (n_values, n_seeds) test fidelity %
    base_recipe: str
    notes: list = field(default_factory=list)

    def error_stats(self, name: str):
        """Per-value (median, q25, q75) of the error percentage."""
        err = 100.0 - self.series[name]
        med = np.median(err, axis=1)
        q25 = np.percentile(err, 25, axis=1)
        q75 = np.percentile(err, 75, axis=1)
        return med, q25, q75


@dataclass(frozen=True)
class _SweepPoint:
    """One (value, seed) grid point and what its run needs."""

    cfg: ExperimentConfig
    series: list
    train: Dataset
    test: Dataset
    value: float
    seed: int
    # the seed's blind fit (software_weights_for), shared, read only
    fit: tuple[SoftwareNet, list[int]] | None

    def run(self, schemes, net: Network, **knobs) -> dict:
        """run_schemes here, some knobs overridden: {scheme: (net, rep)}."""
        cfg = replace(self.cfg, knobs=dict(self.cfg.knobs, **knobs))
        return _run(cfg, schemes, self.train, net, self.test, self.seed,
                    self.fit)

    def fidelity(self, schemes, net: Network, **knobs) -> dict:
        runs = self.run(schemes, net, **knobs)
        return {scheme: rep.final_test_fidelity
                for scheme, (_, rep) in runs.items()}


def _exsitu_series(cfg: ExperimentConfig) -> list[str]:
    return ["ex-situ"]


def _scheme_series(cfg: ExperimentConfig) -> list[str]:
    return _knob(cfg, "schemes", ["ex-situ", "hybrid"]
                 if cfg.recipe == "fig12-mnist" else ["ex-situ"])


def _sweep_import_accuracy(p: _SweepPoint, net: Network) -> dict:
    return p.fidelity(["ex-situ"], net, import_accuracy=p.value)


def _sweep_stuck_fraction(p: _SweepPoint, net: Network) -> dict:
    half = p.value / 2
    inject_cell_defects(net.xbar1, half, half, [p.seed, 21])
    inject_cell_defects(net.xbar2, half, half, [p.seed, 22])
    return p.fidelity(p.series, net)


def _sweep_bounds_sigma(p: _SweepPoint, net: Network) -> dict:
    vary_bounds(net.xbar1, p.value, [p.seed, 23])
    vary_bounds(net.xbar2, p.value, [p.seed, 24])
    return p.fidelity(["in-situ"], net)


def _sweep_noise_sigma(p: _SweepPoint, net: Network) -> dict:
    phase = p.series[0]
    return {phase: p.fidelity(
        ["ex-situ"], net,
        import_noise_sigma=p.value if phase in ("import", "both") else 0.0,
        inference_noise_sigma=p.value if phase in ("inference", "both")
        else 0.0,
    )["ex-situ"]}


def _sweep_stuck_neuron_fraction(p: _SweepPoint, net: Network) -> dict:
    half = p.value / 2
    inject_neuron_faults(net.hidden_neurons, half, half, None, [p.seed, 25])
    return p.fidelity(["ex-situ"], net)


def _sweep_temperature(p: _SweepPoint, net: Network) -> dict:
    final, _ = p.run(["ex-situ"], net)["ex-situ"]
    return {"ex-situ": evaluate(
        final, p.test, t=p.value,
        noise_sigma=p.cfg.knobs["inference_noise_sigma"],
        rng=np.random.default_rng([p.seed, 26]))}


class _SweepAxis(NamedTuple):
    check: Callable  # types one axis value (errors.py's value checks)
    series: Callable[[ExperimentConfig], list]  # series names
    run: Callable[[_SweepPoint, Network], dict]  # series name -> fidelity
    # the scheme every series runs; None: each series names its scheme
    scheme: str | None = None
    # knobs the axis sets at every point, so a base value is never read
    sets: tuple[str, ...] = ()


SWEEP_AXES = {
    "import_accuracy": _SweepAxis(_ACCURACY, _exsitu_series,
                                  _sweep_import_accuracy,
                                  sets=("import_accuracy",)),
    "stuck_fraction": _SweepAxis(FRACTION, _scheme_series,
                                 _sweep_stuck_fraction),
    "bounds_sigma": _SweepAxis(NONNEG, lambda cfg: ["in-situ"],
                               _sweep_bounds_sigma),
    "noise_sigma": _SweepAxis(NONNEG, lambda cfg: [cfg.knobs["noise_phase"]],
                              _sweep_noise_sigma, scheme="ex-situ",
                              sets=("import_noise_sigma",
                                    "inference_noise_sigma")),
    "stuck_neuron_fraction": _SweepAxis(FRACTION, _exsitu_series,
                                        _sweep_stuck_neuron_fraction),
    "temperature": _SweepAxis(FINITE, _exsitu_series, _sweep_temperature),
}


def run_sweep(cfg: ExperimentConfig, axis: str, values, *,
              seeds=None, workers=1) -> SweepReport:
    """Run one knob axis over a value grid x seed grid.

    All other settings come from the base config; the base recipe decides
    the dataset (fig12-mnist means digits, anything else letters).  A base
    config that sets a knob the axis sets at every point (its ``sets``)
    raises ConfigError, since that value would be ignored, and so does an
    empty value grid, a value that fails the axis's check or a ``seeds``
    list that breaks the config's seed rule, all before any run.
    Results are keyed by (value index, seed index), so the worker count
    changes wall time and nothing else.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; available: "
            + ", ".join(SWEEP_AXES)
        )
    _refuse_unread_knobs(cfg, cfg.recipe, axis)
    sweep_axis = SWEEP_AXES[axis]
    for key in sweep_axis.sets:
        if cfg.knobs[key] != _KNOBS[key][0]:
            raise ConfigError(f"knob {key!r} is set by the {axis} sweep at "
                              f"every point; leave it out of the base config")
    values = [run_check(sweep_axis.check, v, f"sweep axis {axis!r} value")
              for v in values]
    if not values:
        raise ConfigError("a sweep needs at least one value")
    seeds = _checked_seeds(list(seeds)) if seeds is not None \
        else list(cfg.seeds)
    if workers < 1:
        raise ConfigError("workers must be at least 1")

    train, test, note = _datasets_for(cfg)
    names = sweep_axis.series(cfg)
    schemes = [sweep_axis.scheme] if sweep_axis.scheme else names

    # One blind fit per seed covers every grid point whose schemes import
    # it; computed up front, and only read by the pool tasks.
    cache = {}
    if BLIND_FIT_SCHEMES & {Scheme(s) for s in schemes}:
        cache = {seed: software_weights_for(_base_net(cfg, seed), train,
                                            replace(cfg.hyper, seed=seed),
                                            cfg.knobs["subsample"])
                 for seed in seeds}

    def task(value: float, seed: int) -> dict:
        point = _SweepPoint(cfg, names, train, test, value, seed,
                            cache.get(seed))
        return sweep_axis.run(point, _base_net(cfg, seed))

    results: list[list[dict]] = [[{} for _ in seeds] for _ in values]
    if workers == 1:
        for iv, value in enumerate(values):
            for isd, seed in enumerate(seeds):
                results[iv][isd] = task(value, seed)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(task, value, seed): (iv, isd)
                for iv, value in enumerate(values)
                for isd, seed in enumerate(seeds)
            }
            for fut, (iv, isd) in futures.items():
                results[iv][isd] = fut.result()

    series = {
        name: np.array([[results[iv][isd][name]
                         for isd in range(len(seeds))]
                        for iv in range(len(values))], dtype=np.float64)
        for name in names
    }
    return SweepReport(axis=axis, values=values, seeds=seeds, series=series,
                       base_recipe=cfg.recipe, notes=[note])


def emit_plotdata(report: SweepReport, path):
    """Tidy long-format sweep summary, one row per (value, series)."""
    rows = []
    for name in report.series:
        med, q25, q75 = report.error_stats(name)
        rows += [(value, m, a, b, name)
                 for value, m, a, b in zip(report.values, med, q25, q75)]
    _write_csv(Path(path), "knob,median_error,q25,q75,series", rows)


def write_sweep_outputs(cfg: ExperimentConfig, report: SweepReport,
                        out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_plotdata(report, out / "plotdata.csv")
    series = {}
    for name, fidelity in report.series.items():
        med, q25, q75 = report.error_stats(name)
        series[name] = {"fidelity": fidelity.tolist(),
                        "median_error": med.tolist(),
                        "q25_error": q25.tolist(),
                        "q75_error": q75.tolist()}
    summary = {
        "axis": report.axis,
        "values": report.values,
        "seeds": report.seeds,
        "base_recipe": report.base_recipe,
        "notes": report.notes,
        "series": series,
    }
    _write_json(out / "sweep.json", summary)
    sweep_id = dict(resolved_dict(cfg), sweep_axis=report.axis,
                    sweep_values=report.values, sweep_seeds=report.seeds)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "recipe": cfg.recipe,
        "axis": report.axis,
        "config_sha256": _json_sha256(sweep_id),
        "seeds": report.seeds,
        "outputs": ["plotdata.csv", "sweep.json"],
        "data": report.notes[0] if report.notes else None,
    }
    _write_json(out / "manifest.json", manifest)
    return summary
