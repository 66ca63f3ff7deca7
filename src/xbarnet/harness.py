"""Named experiment recipes, parameter sweeps, and their file outputs.

Every experiment is driven by one config document (JSON on disk or a plain
dict): a schema version, a recipe name, a seed list, optional overrides for
the component config sections, and a flat ``knobs`` table for recipe-level
settings.  Unknown sections, fields, and knobs are hard errors; a config
that loads is a config whose every key means something.

Determinism contract: a (config, seeds) pair pins every number in every
output file.  Reruns produce byte-identical CSV/JSON, and the worker count
used for sweep parallelism is excluded from both the results and the config
hash recorded in the manifest, so the hash changes exactly when the
semantics of the run change.

Summary statistics over seeds are medians and quartiles throughout; runs
over defective hardware produce heavy-tailed fidelity distributions and a
mean would let one wrecked seed dominate the curve.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bench
from . import device as dev
from .bench import Dataset
from .crossbar import (
    build_crossbar,
    inject_cell_defects,
    map_to_csv,
    vary_bounds,
    vmm_currents,
)
from .device import DeviceSpec, FormingMode
from .errors import ConfigError, DataFormatError, DataMissingError
from .network import Network, NetworkConfig, assemble, evaluate
from .neuron import (
    CompensationParams,
    FixedResistor,
    NeuronParams,
    compensated_output,
    inject_neuron_faults,
    vary_swing,
)
from .progtune import (
    FormingConfig,
    TuneConfig,
    form_array,
    image_to_targets,
    import_conductance_map,
)
from .training import (
    InSituConfig,
    Loss,
    Scheme,
    TrainHyper,
    build_software_net,
    run_scheme,
    software_forward,
    software_weights_for,
)

SCHEMA_VERSION = 1

# Default location of the digit corpus IDX files; the mnist_dir knob wins.
MNIST_ENV_VAR = "XBARNET_MNIST_DIR"

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
    ("forming", "mode"): FormingMode,
}

_KNOB_DEFAULTS: dict = {
    # geometry for the array-level recipes
    "n_rows": None,
    "n_cols": None,
    "n_devices": None,
    # threshold characterization
    "v_step": 0.05,
    "v_limit": 3.0,
    # tuning recipe
    "targets": "image",
    "image": None,
    "r_white": 84e3,
    "r_black": 7e3,
    # classification recipes
    "n_classes": None,
    "scheme": None,
    "schemes": None,
    "import_accuracy": None,
    "import_noise_sigma": 0.0,
    "inference_noise_sigma": 0.0,
    "noise_phase": "both",
    "subsample": None,
    "stuck_on_frac": 0.0,
    "stuck_off_frac": 0.0,
    "stuck_neuron_high_frac": 0.0,
    "stuck_neuron_low_frac": 0.0,
    "swing_overrides": None,
    "swing_sigma": 0.0,
    # digit corpus
    "mnist_dir": None,
    "n_train_digits": 8000,
    "n_test_digits": 2000,
    # temperature study
    "temperatures": None,
    "temperature": None,
    "g_bias_high": 80e-6,
    "g_bias_low": 15e-6,
    "v_bias": 0.2,
    "v_in": 0.2,
    # sweep execution (never part of the config hash)
    "workers": 1,
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
    return cls(**kw)


def _require_finite_knob(key: str, value):
    """Knobs are untyped, so check every number in them, nested ones too: a
    NaN fraction passes every range test and silently does nothing."""
    if isinstance(value, dict):
        for item in value.values():
            _require_finite_knob(key, item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _require_finite_knob(key, item)
    elif isinstance(value, numbers.Real) and not math.isfinite(value):
        raise ConfigError(f"knob {key!r} must hold finite numbers, "
                          f"got {value!r}")


# Knobs that count things; recipes pass them through int(), which would
# run 10.9 as 10 without a word.
_COUNT_KNOBS = ("n_rows", "n_cols", "n_devices", "n_classes", "subsample",
                "n_train_digits", "n_test_digits", "workers")


def _require_count_knob(key: str, value):
    """A count knob is a non-bool integer, or None where None is its
    default."""
    if value is None and _KNOB_DEFAULTS[key] is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"knob {key!r} must be an integer, got {value!r}")


def _normalize_overrides(raw) -> dict[int, float] | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("swing_overrides must map neuron index to swing")
    out = {}
    for key, value in raw.items():
        try:
            idx = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"swing_overrides key {key!r} is not an index")
        out[idx] = float(value)
    return out


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
    if recipe not in RECIPES:
        names = ", ".join(sorted(RECIPES))
        raise ConfigError(f"unknown recipe {recipe!r}; available: {names}")

    seeds = doc.get("seeds", [0])
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and s >= 0 for s in seeds)):
        raise ConfigError("seeds must be a non-empty list of ints >= 0")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")

    sections = {}
    for name, cls in _SECTIONS.items():
        sections[name] = _build_section(name, cls, doc.get(name, {}))

    knobs = dict(_KNOB_DEFAULTS)
    raw_knobs = doc.get("knobs", {})
    if not isinstance(raw_knobs, dict):
        raise ConfigError("knobs must be an object")
    for key, value in raw_knobs.items():
        if key not in _KNOB_DEFAULTS:
            raise ConfigError(f"unknown knob {key!r}")
        _require_finite_knob(key, value)
        if key in _COUNT_KNOBS:
            _require_count_knob(key, value)
        knobs[key] = value
    knobs["swing_overrides"] = _normalize_overrides(knobs["swing_overrides"])

    return ExperimentConfig(
        recipe=recipe,
        seeds=list(seeds),
        out_dir=doc.get("out_dir"),
        spec=sections["device"],
        network=sections["network"],
        hyper=sections["hyper"],
        tune=sections["tune"],
        insitu=sections["insitu"],
        forming=sections["forming"],
        knobs=knobs,
    )


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


# The swing pattern measured on the hidden bank of the hybrid study board:
# three neurons clip at twice the nominal swing, three at half of it.
_HYBRID_SWINGS = {0: 0.4, 6: 0.4, 7: 0.4, 1: 0.1, 3: 0.1, 4: 0.1}

_RECIPE_TWEAKS: dict[str, dict] = {
    "fig2-forming": {},
    "fig3-thresholds": {},
    # the built-in test image maps down to 7 kOhm, i.e. 143 uS, so the
    # tuning demo needs devices with more headroom than the stock 100 uS
    "fig4-tuning": {"device": {"g_max": 150e-6}},
    "fig8-exsitu": {},
    "fig9-defect-aware": {
        "knobs": {"stuck_on_frac": 0.05, "stuck_off_frac": 0.05},
    },
    "fig10-insitu": {
        "network": {"n_outputs": 3},
        "knobs": {"n_classes": 3},
    },
    "fig11-hybrid": {
        "knobs": {
            "stuck_on_frac": 0.05,
            "stuck_off_frac": 0.05,
            "swing_overrides": dict(_HYBRID_SWINGS),
        },
    },
    "fig12-mnist": {
        "network": {"n_inputs": 784, "n_hidden": 300, "n_outputs": 10},
        "hyper": {"epochs": 15, "batch_size": 100, "lr": 0.05,
                  "loss": "cross-entropy-softmax"},
        "tune": {"half_select": False},
        # refinement, not training from scratch: narrow pulses so the fast
        # tail of the threshold spread cannot erase the imported fit
        "insitu": {"epochs": 12, "half_select": False, "width": 1e-3},
        "knobs": {"subsample": 8000},
    },
    "fig13-temp": {},
}


def default_config(recipe: str) -> dict:
    """The stock config document for a recipe (still a plain dict; callers
    may merge their own overrides before config_from_dict)."""
    if recipe not in _RECIPE_TWEAKS:
        names = ", ".join(sorted(_RECIPE_TWEAKS))
        raise ConfigError(f"unknown recipe {recipe!r}; available: {names}")
    base = {"schema_version": SCHEMA_VERSION, "recipe": recipe, "seeds": [0]}
    return _merge(base, _RECIPE_TWEAKS[recipe])


def _jsonable(value):
    if isinstance(value, (Loss, FormingMode, Scheme)):
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
    output location and worker count stripped."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "recipe": cfg.recipe,
        "seeds": list(cfg.seeds),
    }
    for name in _SECTIONS:
        attr = "spec" if name == "device" else name
        doc[name] = _jsonable(dataclasses.asdict(getattr(cfg, attr)))
    doc["knobs"] = {
        k: _jsonable(v) for k, v in sorted(cfg.knobs.items())
        if k != "workers"
    }
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    text = json.dumps(resolved_dict(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
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


def _letter_sets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    n_classes = cfg.knobs["n_classes"]
    return bench.letter_dataset(n_classes=4 if n_classes is None else
                                int(n_classes))


_SYNTH_TRAIN_SEED = 20260214
_SYNTH_TEST_SEED = 20260215


def _digit_sets(cfg: ExperimentConfig, cache_dir: Path | None
                ) -> tuple[Dataset, Dataset, str]:
    """Digit corpus: an IDX directory if configured (knob first, then the
    environment variable), else the procedural corpus.  With a cache
    directory the procedural corpus is written out as IDX and read back, so
    the loader path is exercised either way."""
    src = cfg.knobs["mnist_dir"] or os.environ.get(MNIST_ENV_VAR)
    if src:
        d = Path(src)
        missing = [name for name in _MNIST_FILES if not (d / name).exists()]
        if missing:
            raise DataMissingError(
                f"digit corpus directory {d} lacks: {', '.join(missing)}"
            )
        train = bench.load_mnist(d / _MNIST_FILES[0], d / _MNIST_FILES[1])
        test = bench.load_mnist(d / _MNIST_FILES[2], d / _MNIST_FILES[3])
        return train, test, f"idx files from {d}"

    n_train = int(cfg.knobs["n_train_digits"])
    n_test = int(cfg.knobs["n_test_digits"])
    train = bench.synthetic_digits(n_train, _SYNTH_TRAIN_SEED)
    test = bench.synthetic_digits(n_test, _SYNTH_TEST_SEED)
    note = f"procedural digit corpus ({n_train} train / {n_test} test)"
    if cache_dir is not None:
        data_dir = cache_dir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        bench.save_idx(train, data_dir / _MNIST_FILES[0],
                       data_dir / _MNIST_FILES[1])
        bench.save_idx(test, data_dir / _MNIST_FILES[2],
                       data_dir / _MNIST_FILES[3])
        train = bench.load_mnist(data_dir / _MNIST_FILES[0],
                                 data_dir / _MNIST_FILES[1])
        test = bench.load_mnist(data_dir / _MNIST_FILES[2],
                                data_dir / _MNIST_FILES[3])
    return train, test, note


def _datasets_for(cfg: ExperimentConfig, cache_dir: Path | None = None
                  ) -> tuple[Dataset, Dataset, str]:
    if cfg.recipe == "fig12-mnist":
        return _digit_sets(cfg, cache_dir)
    train, test = _letter_sets(cfg)
    return train, test, "engineered letter set"


def _base_net(cfg: ExperimentConfig, seed: int) -> Network:
    """Assemble one network instance and apply the config's standing
    hardware imperfections (stuck cells, neuron faults, swing spread)."""
    net = assemble(cfg.network, cfg.spec, [seed, 0])
    on = float(cfg.knobs["stuck_on_frac"])
    off = float(cfg.knobs["stuck_off_frac"])
    if on > 0 or off > 0:
        net.xbar1, _ = inject_cell_defects(net.xbar1, on, off, [seed, 1])
        net.xbar2, _ = inject_cell_defects(net.xbar2, on, off, [seed, 2])
    sigma = float(cfg.knobs["swing_sigma"])
    if sigma > 0:
        net.hidden_neurons = vary_swing(net.hidden_neurons, sigma, [seed, 3])
    high = float(cfg.knobs["stuck_neuron_high_frac"])
    low = float(cfg.knobs["stuck_neuron_low_frac"])
    overrides = cfg.knobs["swing_overrides"]
    if high > 0 or low > 0 or overrides:
        net.hidden_neurons = inject_neuron_faults(
            net.hidden_neurons, high, low, overrides, [seed, 4]
        )
    return net


def _run(cfg: ExperimentConfig, scheme, train: Dataset, net: Network,
         test: Dataset, seed: int, *, precomputed=None):
    hyper = replace(cfg.hyper, seed=seed)
    sub = cfg.knobs["subsample"]
    return run_scheme(
        scheme, train, net,
        test_set=test,
        hyper=hyper,
        tune_cfg=cfg.tune,
        insitu_cfg=cfg.insitu,
        import_accuracy=cfg.knobs["import_accuracy"],
        import_noise_sigma=float(cfg.knobs["import_noise_sigma"]),
        inference_noise_sigma=float(cfg.knobs["inference_noise_sigma"]),
        subsample=None if sub is None else int(sub),
        precomputed_weights=precomputed,
    )


# ---------------------------------------------------------------------------
# image handling for the tuning recipe
# ---------------------------------------------------------------------------


def _read_pgm(p: Path) -> np.ndarray:
    data = p.read_bytes()
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # comments running # to end-of-line
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise DataFormatError(f"{p}: not a P2/P5 PGM file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise DataFormatError(f"{p}: non-numeric PGM header")
    if maxval <= 0 or maxval > 65535:
        raise DataFormatError(f"{p}: PGM maxval {maxval} out of range")
    n = width * height
    if tokens[0] == b"P5":
        i += 1  # single whitespace after maxval
        itemsize = 1 if maxval < 256 else 2
        raw = data[i:i + n * itemsize]
        if len(raw) != n * itemsize:
            raise DataFormatError(f"{p}: PGM payload truncated")
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        pix = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    else:
        try:
            pix = np.array([int(t) for t in data[i:].split()],
                           dtype=np.float64)
        except ValueError:
            raise DataFormatError(f"{p}: non-numeric P2 sample")
        if pix.size != n:
            raise DataFormatError(
                f"{p}: expected {n} samples, found {pix.size}"
            )
    return (pix * (255.0 / maxval)).reshape(height, width)


def load_image_levels(path) -> np.ndarray:
    """Grayscale image as levels in [0, 255]: PGM (P2/P5) or a CSV grid."""
    p = Path(path)
    if not p.exists():
        raise DataMissingError(f"image file not found: {p}")
    if p.suffix.lower() == ".pgm":
        return _read_pgm(p)
    if p.suffix.lower() == ".csv":
        try:
            arr = np.loadtxt(p, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"{p}: bad CSV image: {exc}")
        if arr.min() < 0 or arr.max() > 255:
            raise DataFormatError(f"{p}: CSV levels outside [0, 255]")
        return arr
    raise ConfigError(f"unsupported image format {p.suffix!r} (pgm or csv)")


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


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------


def _recipe_forming(cfg: ExperimentConfig, out: Path):
    rows = int(cfg.knobs["n_rows"] or 40)
    cols = int(cfg.knobs["n_cols"] or 50)
    modes = (FormingMode.VOLTAGE, FormingMode.CURRENT)
    per_mode: dict[str, dict] = {m.value: {"runs": []} for m in modes}
    volt_pool: dict[str, list] = {m.value: [] for m in modes}

    for seed in cfg.seeds:
        for mi, mode in enumerate(modes):
            xbar = build_crossbar(rows, cols, cfg.spec, [seed, mi, 0],
                                  formed=False)
            fcfg = replace(cfg.forming, mode=mode)
            formed, rep = form_array(xbar, fcfg, [seed, mi, 1])
            per_mode[mode.value]["runs"].append({
                "seed": seed,
                "n_auto": rep.n_auto,
                "n_manual": rep.n_manual,
                "n_failed": rep.n_failed,
                "manual_rate": rep.manual_rate,
            })
            volt_pool[mode.value].append(rep.forming_v[formed.formed])

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
        pooled = np.concatenate(volt_pool[mode]) if volt_pool[mode] else \
            np.empty(0)
        for lo, hi, count in _hist_rows(pooled, edges):
            hist_rows.append((lo, hi, count, mode))
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
    n = int(cfg.knobs["n_devices"] or 200)
    v_step = float(cfg.knobs["v_step"])
    v_limit = float(cfg.knobs["v_limit"])
    rows = []
    for seed in cfg.seeds:
        for i in range(n):
            state = dev.sample_device(cfg.spec, [seed, i])
            m_set, m_reset = dev.extract_thresholds(state, v_step, v_limit)
            rows.append((seed, i, state.v_set, m_set,
                         state.v_reset, m_reset))
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


def _recipe_tuning(cfg: ExperimentConfig, out: Path):
    mode = cfg.knobs["targets"]
    if mode not in ("image", "random"):
        raise ConfigError(f"targets knob must be 'image' or 'random', "
                          f"got {mode!r}")
    if mode == "image":
        levels = (_builtin_face() if cfg.knobs["image"] is None
                  else load_image_levels(cfg.knobs["image"]))
        targets_fixed = image_to_targets(levels, float(cfg.knobs["r_white"]),
                                         float(cfg.knobs["r_black"]))
        if targets_fixed.max() > cfg.spec.g_max \
                or targets_fixed.min() < cfg.spec.g_min:
            raise ConfigError(
                "image maps outside the device range "
                f"[{cfg.spec.g_min}, {cfg.spec.g_max}] S; adjust r_white/"
                "r_black or the device section"
            )
        shape = targets_fixed.shape
    else:
        rows = int(cfg.knobs["n_rows"] or 20)
        cols = int(cfg.knobs["n_cols"] or 20)
        shape = (rows, cols)
        targets_fixed = None

    errors_pct = []
    converged_errors_pct = []
    n_stuck = n_failed = n_cells = 0
    pulse_medians = []
    files = []
    for si, seed in enumerate(cfg.seeds):
        if targets_fixed is None:
            rng = np.random.default_rng([seed, 1])
            targets = rng.uniform(cfg.spec.g_min, cfg.spec.g_max, shape)
        else:
            targets = targets_fixed
        xbar = build_crossbar(shape[0], shape[1], cfg.spec, [seed, 0])
        tuned, rep = import_conductance_map(xbar, targets, cfg.tune)
        attempted = ~rep.skipped_mask
        errors_pct.append(100.0 * rep.rel_error[attempted])
        converged_errors_pct.append(100.0 * rep.rel_error[rep.ok_mask])
        n_stuck += int(rep.stuck_mask.sum())
        n_failed += rep.n_failed
        n_cells += int(attempted.sum())
        pulse_medians.append(rep.median_pulses)
        if si == 0:
            map_to_csv(targets, out / "target_map.csv")
            map_to_csv(tuned.g, out / "achieved_map.csv")
            map_to_csv(tuned.g - targets, out / "error_map.csv")
            files += ["target_map.csv", "achieved_map.csv", "error_map.csv"]

    pooled = np.concatenate(errors_pct)
    pooled_ok = np.concatenate(converged_errors_pct)
    edges = np.linspace(-10.0, 10.0, 81)
    _write_csv(out / "tuning_errors.csv", "err_lo_pct,err_hi_pct,count",
               _hist_rows(pooled, edges))
    files.append("tuning_errors.csv")
    summary = {
        "targets": mode,
        "array": list(shape),
        "n_cells_attempted": n_cells,
        "n_stuck": n_stuck,
        "n_failed": n_failed,
        "within_5pct_fraction": float(np.mean(np.abs(pooled) <= 5.0)),
        "converged_max_abs_error_pct": float(np.abs(pooled_ok).max())
        if pooled_ok.size else 0.0,
        "median_pulses": _median_q(pulse_medians),
    }
    return summary, files


def _paired_scheme_recipe(cfg: ExperimentConfig, out: Path, schemes):
    """Shared engine for the classification studies: run each scheme on the
    same per-seed hardware and report paired fidelities."""
    train, test, note = _datasets_for(cfg, out)
    per_seed = []
    reports = {}
    for seed in cfg.seeds:
        base = _base_net(cfg, seed)
        row = {"seed": seed}
        for scheme in schemes:
            _, rep = _run(cfg, scheme, train, base.copy(), test, seed)
            row[f"{scheme}_train"] = rep.final_train_fidelity
            row[f"{scheme}_test"] = rep.final_test_fidelity
            row[f"{scheme}_epochs"] = len(rep.trace)
            reports.setdefault(scheme, []).append(rep)
        per_seed.append(row)

    summary = {"schemes": list(schemes), "data": note, "per_seed": per_seed}
    for scheme in schemes:
        summary[scheme] = {
            "train": _median_q([r[f"{scheme}_train"] for r in per_seed]),
            "test": _median_q([r[f"{scheme}_test"] for r in per_seed]),
        }

    plot_rows = [
        (row["seed"], scheme, row[f"{scheme}_train"], row[f"{scheme}_test"])
        for row in per_seed for scheme in schemes
    ]
    _write_csv(out / "fidelity.csv",
               "seed,scheme,train_fidelity,test_fidelity", plot_rows)
    return summary, reports, ["fidelity.csv"]


def _trace_rows(reports: dict, seed_index: int = 0):
    rows = []
    for scheme, reps in reports.items():
        for epoch, errors in enumerate(reps[seed_index].trace):
            rows.append((epoch, errors, scheme))
    return rows


def _recipe_exsitu(cfg: ExperimentConfig, out: Path):
    summary, reports, files = _paired_scheme_recipe(cfg, out, ["ex-situ"])
    _write_csv(out / "trace.csv", "epoch,error_count,scheme",
               _trace_rows(reports))
    return summary, files + ["trace.csv"]


def _recipe_defect_aware(cfg: ExperimentConfig, out: Path):
    summary, reports, files = _paired_scheme_recipe(
        cfg, out, ["ex-situ", "defect-aware"]
    )
    aware = [r["defect-aware_train"] for r in summary["per_seed"]]
    summary["n_seeds_full_train_fidelity"] = int(
        sum(1 for f in aware if f >= 100.0)
    )
    return summary, files


def _recipe_insitu(cfg: ExperimentConfig, out: Path):
    summary, reports, files = _paired_scheme_recipe(
        cfg, out, ["in-situ", "ex-situ"]
    )
    _write_csv(out / "plotdata.csv", "epoch,error_count,scheme",
               _trace_rows(reports))
    return summary, files + ["plotdata.csv"]


def _recipe_hybrid(cfg: ExperimentConfig, out: Path):
    summary, reports, files = _paired_scheme_recipe(
        cfg, out, ["ex-situ", "hybrid"]
    )
    _write_csv(out / "trace.csv", "epoch,error_count,scheme",
               _trace_rows({"hybrid": reports["hybrid"]}))
    improved = sum(
        1 for r in summary["per_seed"]
        if r["hybrid_test"] >= r["ex-situ_test"]
    )
    summary["n_seeds_hybrid_at_least_exsitu"] = int(improved)
    return summary, files + ["trace.csv"]


def _software_error(cfg: ExperimentConfig, net: Network, w1, w2,
                    test: Dataset) -> float:
    snet = build_software_net(
        net.config, spec=net.xbar1.spec,
        hidden_params=net.hidden_neurons.params,
        output_params=net.output_neurons.params,
    )
    snet.layer1.w = w1
    snet.layer2.w = w2
    y, *_ = software_forward(snet, bench.encode_levels(test))
    pred = np.argmax(y, axis=1)
    res = bench.score(pred, test.labels, max(test.n_classes,
                                            net.config.n_outputs))
    return 100.0 - res.fidelity


def _recipe_mnist(cfg: ExperimentConfig, out: Path):
    train, test, note = _digit_sets(cfg, out)
    scheme = cfg.knobs["scheme"] or "ex-situ"
    Scheme(scheme)  # validates the name
    sub = cfg.knobs["subsample"]
    per_seed = []
    for seed in cfg.seeds:
        net = _base_net(cfg, seed)
        hyper = replace(cfg.hyper, seed=seed)
        w1, w2 = software_weights_for(net, train, hyper,
                                      None if sub is None else int(sub))
        sw_err = _software_error(cfg, net, w1, w2, test)
        pre = (w1, w2) if scheme in ("ex-situ", "hybrid") else None
        _, rep = _run(cfg, scheme, train, net, test, seed, precomputed=pre)
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
    return summary, ["errors.csv"] + [f"data/{n}" for n in _MNIST_FILES
                                      if (out / "data" / n).exists()]


def _recipe_temperature(cfg: ExperimentConfig, out: Path):
    rows_n = int(cfg.knobs["n_rows"] or 16)
    v_in = float(cfg.knobs["v_in"])
    v_bias = float(cfg.knobs["v_bias"])
    temps = cfg.knobs["temperatures"] or [25.0, 35.0, 45.0, 55.0, 65.0, 75.0]
    temps = [float(t) for t in temps]
    biases = {"high": float(cfg.knobs["g_bias_high"]),
              "low": float(cfg.knobs["g_bias_low"])}
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
            xbar, _ = import_conductance_map(xbar, targets, tune)

            v = np.full(rows_n, v_in)
            i_ref = float(vmm_currents(xbar, v)[0])
            s_factor = float(np.sum(v * (1.0 + xbar.kappa[:, 0] * v)))
            # the feedback device tuned until the column output stops moving
            # with temperature; algebraically that lands on i_ref/s_factor
            g_fb = i_ref / s_factor
            fb_state = replace(dev.sample_device(spec_v, [seed, 2]), g=g_fb)
            for bias_name, g_b in biases.items():
                comps = {
                    "memristive": CompensationParams(
                        feedback=fb_state, g_bias=g_b, v_bias=v_bias,
                        bias_spec=spec_v),
                    "fixed": CompensationParams(
                        feedback=FixedResistor(1.0 / g_fb), g_bias=g_b,
                        v_bias=v_bias, bias_spec=spec_v),
                }
                for fb_name, comp in comps.items():
                    ref = compensated_output(i_ref, comp, t=spec_v.t_ref)
                    drifts = []
                    for t in temps:
                        i_t = float(vmm_currents(xbar, v, t=t)[0])
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


RECIPES = {
    "fig2-forming": _recipe_forming,
    "fig3-thresholds": _recipe_thresholds,
    "fig4-tuning": _recipe_tuning,
    "fig8-exsitu": _recipe_exsitu,
    "fig9-defect-aware": _recipe_defect_aware,
    "fig10-insitu": _recipe_insitu,
    "fig11-hybrid": _recipe_hybrid,
    "fig12-mnist": _recipe_mnist,
    "fig13-temp": _recipe_temperature,
}


def run_recipe(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Execute a recipe, write its outputs plus summary.json and
    manifest.json, and return the summary."""
    target = out_dir if out_dir is not None else cfg.out_dir
    if target is None:
        raise ConfigError("no output directory: set out_dir in the config "
                          "or pass one explicitly")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    summary, files = RECIPES[cfg.recipe](cfg, out)
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
        if err.size == 0:
            empty = np.empty(0)
            return empty, empty, empty
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
    weights: tuple | None  # the seed's software fit, shared by the grid

    def run(self, scheme: str, net: Network, **knobs):
        """run_scheme at this point with some knobs overridden; (net,
        report).  Schemes that start from imported weights reuse the fit."""
        cfg = self.cfg
        if knobs:
            cfg = replace(cfg)
            cfg.knobs = dict(self.cfg.knobs, **knobs)
        pre = self.weights if scheme in ("ex-situ", "hybrid") else None
        return _run(cfg, scheme, self.train, net, self.test, self.seed,
                    precomputed=pre)

    def fidelity(self, scheme: str, net: Network, **knobs) -> float:
        return self.run(scheme, net, **knobs)[1].final_test_fidelity


def _exsitu_series(cfg: ExperimentConfig) -> list[str]:
    return ["ex-situ"]


def _scheme_series(cfg: ExperimentConfig) -> list[str]:
    schemes = cfg.knobs["schemes"]
    if schemes is None:
        schemes = ["ex-situ", "hybrid"] if cfg.recipe == "fig12-mnist" \
            else ["ex-situ"]
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("schemes knob must be a non-empty list")
    for s in schemes:
        Scheme(s)
    return list(schemes)


def _noise_phase_series(cfg: ExperimentConfig) -> list[str]:
    phase = cfg.knobs["noise_phase"]
    if phase not in ("import", "inference", "both"):
        raise ConfigError(f"noise_phase must be import, inference or "
                          f"both, got {phase!r}")
    return [phase]


def _sweep_import_accuracy(p: _SweepPoint, net: Network) -> dict:
    return {"ex-situ": p.fidelity("ex-situ", net, import_accuracy=p.value)}


def _sweep_stuck_fraction(p: _SweepPoint, net: Network) -> dict:
    half = p.value / 2
    net.xbar1, _ = inject_cell_defects(net.xbar1, half, half, [p.seed, 21])
    net.xbar2, _ = inject_cell_defects(net.xbar2, half, half, [p.seed, 22])
    return {scheme: p.fidelity(scheme, net.copy()) for scheme in p.series}


def _sweep_bounds_sigma(p: _SweepPoint, net: Network) -> dict:
    net.xbar1 = vary_bounds(net.xbar1, p.value, [p.seed, 23])
    net.xbar2 = vary_bounds(net.xbar2, p.value, [p.seed, 24])
    return {"in-situ": p.fidelity("in-situ", net)}


def _sweep_noise_sigma(p: _SweepPoint, net: Network) -> dict:
    phase = p.series[0]
    return {phase: p.fidelity(
        "ex-situ", net,
        import_noise_sigma=p.value if phase in ("import", "both") else 0.0,
        inference_noise_sigma=p.value if phase in ("inference", "both")
        else 0.0,
    )}


def _sweep_stuck_neuron_fraction(p: _SweepPoint, net: Network) -> dict:
    half = p.value / 2
    net.hidden_neurons = inject_neuron_faults(
        net.hidden_neurons, half, half, None, [p.seed, 25]
    )
    return {"ex-situ": p.fidelity("ex-situ", net)}


def _sweep_temperature(p: _SweepPoint, net: Network) -> dict:
    final, _ = p.run("ex-situ", net)
    res = evaluate(final, p.test, t=p.value,
                   noise_sigma=float(p.cfg.knobs["inference_noise_sigma"]),
                   rng=np.random.default_rng([p.seed, 26]))
    return {"ex-situ": res.fidelity}


class _SweepAxis(NamedTuple):
    series: Callable[[ExperimentConfig], list]  # validated series names
    run: Callable[[_SweepPoint, Network], dict]  # series name -> fidelity
    shares_fit: bool = True  # runs start from the per-seed software fit


SWEEP_AXES = {
    "import_accuracy": _SweepAxis(_exsitu_series, _sweep_import_accuracy),
    "stuck_fraction": _SweepAxis(_scheme_series, _sweep_stuck_fraction),
    "bounds_sigma": _SweepAxis(lambda cfg: ["in-situ"], _sweep_bounds_sigma,
                               shares_fit=False),
    "noise_sigma": _SweepAxis(_noise_phase_series, _sweep_noise_sigma),
    "stuck_neuron_fraction": _SweepAxis(_exsitu_series,
                                        _sweep_stuck_neuron_fraction),
    "temperature": _SweepAxis(_exsitu_series, _sweep_temperature),
}


def run_sweep(cfg: ExperimentConfig, axis: str, values, *,
              seeds=None, workers=None) -> SweepReport:
    """Run one knob axis over a value grid x seed grid.

    All other settings come from the base config; the base recipe decides
    the dataset (fig12-mnist means digits, anything else letters).  Results
    are keyed by (value index, seed index), so the worker count changes
    wall time and nothing else.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; available: "
            + ", ".join(SWEEP_AXES)
        )
    sweep_axis = SWEEP_AXES[axis]
    values = [float(v) for v in values]
    seeds = list(seeds) if seeds is not None else list(cfg.seeds)
    n_workers = int(workers if workers is not None else cfg.knobs["workers"])
    if n_workers < 1:
        raise ConfigError("workers must be at least 1")

    train, test, note = _datasets_for(cfg)
    names = sweep_axis.series(cfg)
    sub = cfg.knobs["subsample"]
    sub = None if sub is None else int(sub)

    # One software fit per seed covers every grid point whose scheme starts
    # from imported weights; computed up front so the pool tasks are pure.
    cache: dict[int, tuple] = {}
    if sweep_axis.shares_fit:
        for seed in seeds:
            net0 = _base_net(cfg, seed)
            cache[seed] = software_weights_for(
                net0, train, replace(cfg.hyper, seed=seed), sub
            )

    def task(value: float, seed: int) -> dict:
        point = _SweepPoint(cfg, names, train, test, value, seed,
                            cache.get(seed))
        return sweep_axis.run(point, _base_net(cfg, seed))

    results: list[list[dict]] = [[{} for _ in seeds] for _ in values]
    if n_workers == 1:
        for iv, value in enumerate(values):
            for isd, seed in enumerate(seeds):
                results[iv][isd] = task(value, seed)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
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
        if values else np.empty((0, len(seeds)))
        for name in names
    }
    return SweepReport(axis=axis, values=values, seeds=seeds, series=series,
                       base_recipe=cfg.recipe, notes=[note])


def emit_plotdata(report: SweepReport, path):
    """Tidy long-format sweep summary, one row per (value, series)."""
    lines = ["knob,median_error,q25,q75,series"]
    for name in report.series:
        med, q25, q75 = report.error_stats(name)
        for value, m, a, b in zip(report.values, med, q25, q75):
            lines.append(f"{_fmt(value)},{_fmt(m)},{_fmt(a)},{_fmt(b)},"
                         f"{name}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_outputs(cfg: ExperimentConfig, report: SweepReport,
                        out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_plotdata(report, out / "plotdata.csv")
    summary = {
        "axis": report.axis,
        "values": report.values,
        "seeds": report.seeds,
        "base_recipe": report.base_recipe,
        "notes": report.notes,
        "series": {
            name: {
                "fidelity": report.series[name].tolist(),
                "median_error": report.error_stats(name)[0].tolist(),
                "q25_error": report.error_stats(name)[1].tolist(),
                "q75_error": report.error_stats(name)[2].tolist(),
            }
            for name in report.series
        },
    }
    _write_json(out / "sweep.json", summary)
    sweep_id = dict(resolved_dict(cfg), sweep_axis=report.axis,
                    sweep_values=report.values, sweep_seeds=report.seeds)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "recipe": cfg.recipe,
        "axis": report.axis,
        "config_sha256": hashlib.sha256(
            json.dumps(sweep_id, sort_keys=True).encode()
        ).hexdigest(),
        "seeds": report.seeds,
        "outputs": ["plotdata.csv", "sweep.json"],
        "data": report.notes[0] if report.notes else None,
    }
    _write_json(out / "manifest.json", manifest)
    return summary
