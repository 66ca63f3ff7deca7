"""Harness contracts: the config hash, knob validation, every sweep axis
under any worker count, the benchmark's workload documents, and the pinned
outputs of the fast recipes."""

import importlib
import importlib.util
import inspect
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xbarnet import bench, harness, training
from xbarnet.crossbar import build_crossbar
from xbarnet.device import DeviceSpec
from xbarnet.errors import ConfigError


def config(recipe="fig8-exsitu", **extra):
    return harness.config_from_dict(
        harness._merge(harness.default_config(recipe), extra)
    )


# --- config -------------------------------------------------------------------

def test_config_hash_ignores_out_dir():
    base = harness.config_hash(config())
    assert harness.config_hash(config(out_dir="elsewhere")) == base
    assert harness.config_hash(
        config(knobs={"import_accuracy": 0.01})) != base


def test_config_hash_of_numpy_values_is_the_plain_hash():
    # a section may hold numpy scalars, which json.dumps refuses; the hash
    # reads them as the plain int and float they equal
    plain = config(hyper={"epochs": 150}, tune={"v_write_max": 2.5})
    scalars = config(hyper={"epochs": np.int64(150)},
                     tune={"v_write_max": np.float32(2.5)})
    assert type(scalars.tune.v_write_max) is np.float32
    assert harness.config_hash(scalars) == harness.config_hash(plain)


def test_low_precision_section_values_load_without_a_warning():
    # the finite check used to compare a float32 with the float64 maximum,
    # which numpy reports as an overflow in the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = config(tune={"v_write_max": np.float32(2.5),
                              "width": np.float16(0.25)})
    assert loaded.tune.v_write_max == 2.5 and loaded.tune.width == 0.25


# config values that changed no output and were deleted; a document that
# still sets one is refused, naming it
REMOVED_VALUES = [
    ({"forming": {"i_stop": 1e-4}}, "forming.i_stop"),
    ({"forming": {"width": 1e-3}}, "forming.width"),
    ({"forming": {"max_attempts": 2}}, "forming.max_attempts"),
    ({"network": {"rows1": 17}}, "network.rows1"),
    ({"network": {"cols1": 20}}, "network.cols1"),
    ({"network": {"rows2": 11}}, "network.rows2"),
    ({"network": {"cols2": 8}}, "network.cols2"),
    ({"knobs": {"temperature": 45.0}}, "'temperature'"),
    ({"forming": {"mode": "current"}}, "forming.mode"),
    # the worker count is run_sweep's argument (sim sweep --workers)
    ({"knobs": {"workers": 2}}, "'workers'"),
    # the letter class count is the network's n_outputs
    ({"knobs": {"n_classes": 3}}, "'n_classes'"),
]


@pytest.mark.parametrize("doc, name", REMOVED_VALUES)
def test_removed_config_values_rejected(doc, name):
    with pytest.raises(ConfigError, match=re.escape(name)):
        config(**doc)


STOCK = {"schema_version": 1, "recipe": "fig8-exsitu"}


@pytest.mark.parametrize("doc, message", [
    ([STOCK], "config root must be an object"),
    (dict(STOCK, extras={}), "unknown config section 'extras'"),
    (dict(STOCK, schema_version=2), "schema_version must be 1, got 2"),
    (dict(STOCK, recipe="fig99-nothing"), "unknown recipe 'fig99-nothing'"),
    (dict(STOCK, recipe=["fig8-exsitu"]), "unknown recipe"),
    (dict(STOCK, seeds=[]), "seeds must be a non-empty list"),
    (dict(STOCK, seeds=[0, -1]), "seeds must be a non-empty list"),
    (dict(STOCK, seeds=[1, 1]), "seeds must be distinct"),
    # True ran as seed 1 under another config hash
    (dict(STOCK, seeds=[True]), "seeds must be a non-empty list"),
    (dict(STOCK, device=[]), "section 'device' must be an object"),
    (dict(STOCK, hyper={"loss": "hinge"}), "hyper.loss must be one of"),
    (dict(STOCK, knobs=[]), "knobs must be an object"),
])
def test_config_document_shape_rejected(doc, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        harness.config_from_dict(doc)


@pytest.mark.parametrize("doc, message", [
    ({"tune": {"half_select": "false"}},
     "tune: half_select must be true or false, got 'false'"),
    ({"insitu": {"half_select": 0}},
     "insitu: half_select must be true or false, got 0"),
    ({"network": {"bias1": "no"}},
     "network: bias1 must be true or false, got 'no'"),
    ({"network": {"bias2": 2}},
     "network: bias2 must be true or false, got 2"),
])
def test_section_switches_must_be_booleans(doc, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config(**doc)


def test_every_knob_is_read():
    # a knob no recipe or sweep reads would be accepted and change nothing
    text = Path(harness.__file__).read_text()
    unread = [key for key in harness._KNOBS
              if f'knobs["{key}"]' not in text
              and f'_knob(cfg, "{key}"' not in text]
    assert unread == []


def test_knob_readers_are_recipes_or_axes():
    names = set(harness.RECIPES) | set(harness.SWEEP_AXES)
    assert set(harness._AXES) == set(harness.SWEEP_AXES)
    for key, (_, _, readers) in harness._KNOBS.items():
        assert readers and set(readers) <= names, key


def test_stock_document_is_a_fresh_copy():
    # the stock document used to share its nested dicts with the recipe
    # table, so a caller's edit changed every later stock config
    harness.default_config("fig9-defect-aware")["knobs"]["stuck_on_frac"] = 0
    assert config("fig9-defect-aware").knobs["stuck_on_frac"] == 0.05


def test_hyper_seed_is_refused():
    # every run replaces hyper.seed with its run seed, so setting it did
    # nothing; the message points to the seed list instead
    with pytest.raises(ConfigError, match=r"hyper\.seed.*seeds"):
        config(hyper={"seed": 3})
    assert config(seeds=[3]).hyper.seed == 0


@pytest.mark.parametrize("knobs", [
    {"stuck_on_frac": math.nan, "inference_noise_sigma": math.nan},
    {"inference_noise_sigma": math.nan},
    {"import_accuracy": math.inf},
    {"temperatures": [25.0, -math.inf]},
    {"swing_overrides": {"0": math.nan}},
])
def test_non_finite_knobs_rejected(knobs):
    with pytest.raises(ConfigError, match=next(iter(knobs))):
        config(knobs=knobs)


@pytest.mark.parametrize("key, value", [
    ("subsample", 10.9),
    ("subsample", "ten"),
    ("n_train_digits", 8000.0),
    ("n_test_digits", None),
    ("n_rows", True),
    ("n_cols", "20"),
    ("n_devices", 2.5),
])
def test_count_knobs_must_be_integers(key, value):
    # recipes pass count knobs through int(), which would run 10.9 as 10
    with pytest.raises(ConfigError, match=repr(key)):
        config(knobs={key: value})
    assert config(knobs={key: 7}).knobs[key] == 7


@pytest.mark.parametrize("recipe, key, value", [
    ("fig3-thresholds", "n_devices", 0),
    ("fig3-thresholds", "n_devices", -3),
    ("fig13-temp", "n_rows", 0),
])
def test_count_knobs_must_be_positive(recipe, key, value):
    # a 0 used to read as unset and run the recipe's default count
    with pytest.raises(ConfigError, match=f"{key!r} must be at least 1"):
        config(recipe, knobs={key: value})


@pytest.mark.parametrize("recipe, key, value", [
    ("fig13-temp", "temperatures", []),
    ("fig13-temp", "temperatures", 25.0),
    ("fig12-mnist", "scheme", ""),
    ("fig12-mnist", "scheme", "sideways"),
    ("fig12-mnist", "mnist_dir", ""),
    # values each reader used to take or cast on its own: the first four
    # ran, the last two stopped with a bare ValueError
    ("fig8-exsitu", "stuck_on_frac", "0.05"),
    ("fig8-exsitu", "import_noise_sigma", True),
    ("fig8-exsitu", "noise_phase", "bogus"),
    ("fig8-exsitu", "r_white", -5),
    ("fig13-temp", "v_in", "abc"),
    ("fig8-exsitu", "swing_overrides", {"0": "x"}),
])
def test_empty_or_unknown_knob_values_fail(recipe, key, value):
    # an empty list or name used to read as unset: [] ran the six default
    # temperatures, "" ran the ex-situ scheme or the procedural digits;
    # every value is now checked when the document is loaded
    with pytest.raises(ConfigError, match=f"knob {key!r}"):
        config(recipe, knobs={key: value})


@pytest.mark.parametrize("key, value, message", [
    ("noise_phase", "Import", "must be one of: import, inference, both"),
    ("schemes", ["ex-situ", "sideways"], "item 'sideways' must be one of"),
    ("temperatures", [25.0, "hot"], "item 'hot' must be a finite number"),
    ("stuck_off_frac", 1.5, r"must lie in \[0, 1\]"),
    ("import_accuracy", -0.01, r"must lie in \[0, 1\)"),
    ("v_in", 10**400, "must be a finite number"),
    ("v_step", 0.0, "must be > 0"),
    ("swing_overrides", {"first": 0.2}, "must map neuron indices to finite"),
    ("swing_overrides", {"-1": 0.2}, "must map neuron indices to finite"),
    ("swing_overrides", [0.2], "must map neuron indices to finite"),
    ("mnist_dir", 7, "must name a directory"),
    # a tolerance of 1.5 used to load and fail after the software fit,
    # naming the tune field instead of the knob
    ("import_accuracy", 1.5, r"must lie in \[0, 1\)"),
])
def test_knob_check_says_what_the_value_must_be(key, value, message):
    with pytest.raises(ConfigError, match=f"knob {key!r} {message}"):
        config(knobs={key: value})


def test_knob_values_are_typed_at_load():
    knobs = config(knobs={"swing_overrides": {"3": 0.2, 4: 1},
                          "temperatures": [25, 30.5],
                          "import_accuracy": 0,
                          "subsample": np.int64(40)}).knobs
    assert knobs["swing_overrides"] == {3: 0.2, 4: 1.0}
    assert knobs["temperatures"] == [25.0, 30.5]
    assert type(knobs["temperatures"][0]) is float
    assert type(knobs["import_accuracy"]) is float
    assert type(knobs["subsample"]) is int
    # null puts a knob back to unset where unset is its default
    assert config("fig12-mnist", knobs={"subsample": None}).knobs[
        "subsample"] is None


# --- knobs a run does not read ----------------------------------------------

def test_knob_the_recipe_does_not_read_is_refused(tmp_path):
    cfg = config(knobs={"noise_phase": "import"})
    with pytest.raises(ConfigError, match="'noise_phase' is not read by "
                                          "fig8-exsitu"):
        harness.run_recipe(cfg, tmp_path)
    with pytest.raises(ConfigError, match="'noise_phase' is not read"):
        harness.run_sweep(cfg, "stuck_fraction", [0.0])
    # the noise_sigma axis reads it, and a value equal to the default is no
    # setting at all
    harness._refuse_unread_knobs(cfg, "fig8-exsitu", "noise_sigma")
    harness._refuse_unread_knobs(config(knobs={"noise_phase": "both"}),
                                 "fig8-exsitu")


@pytest.mark.parametrize("recipe", list(harness.RECIPES))
def test_stock_recipes_set_only_knobs_they_read(recipe):
    harness._refuse_unread_knobs(config(recipe), recipe)


# --- the digit corpus ---------------------------------------------------------

def write_idx_corpus(directory, n_train=12, n_test=6):
    sets = (bench.synthetic_digits(n_train, 1),
            bench.synthetic_digits(n_test, 2))
    names = harness._MNIST_FILES
    bench.save_idx(sets[0], directory / names[0], directory / names[1])
    bench.save_idx(sets[1], directory / names[2], directory / names[3])
    return sets


@pytest.mark.parametrize("recipe, n_classes", [("fig8-exsitu", 4),
                                               ("fig10-insitu", 3)])
def test_letter_class_count_is_the_networks_outputs(recipe, n_classes):
    train, test, _ = harness._datasets_for(config(recipe))
    assert train.n_classes == test.n_classes == n_classes
    with pytest.raises(ConfigError, match="3 or 4 classes"):
        harness._datasets_for(config(recipe, network={"n_outputs": 5}))


def test_mnist_dir_knob_loads_an_idx_directory(tmp_path):
    want_train, want_test = write_idx_corpus(tmp_path)
    cfg = config("fig12-mnist", knobs={"mnist_dir": str(tmp_path)})
    train, test, note = harness._digit_sets(cfg)
    assert note == f"idx files from {tmp_path}"
    np.testing.assert_array_equal(train.labels, want_train.labels)
    np.testing.assert_array_equal(test.labels, want_test.labels)
    assert len(train) == 12 and len(test) == 6


def test_environment_does_not_choose_the_digit_corpus(tmp_path,
                                                      monkeypatch):
    # the corpus used to fall back to a directory named in the environment,
    # which changed the outputs but not the config hash
    write_idx_corpus(tmp_path)
    monkeypatch.setenv("XBARNET_MNIST_DIR", str(tmp_path))
    cfg = config("fig12-mnist", knobs={"n_train_digits": 12,
                                       "n_test_digits": 6})
    *_, note = harness._digit_sets(cfg)
    assert note == "procedural digit corpus (12 train / 6 test)"


def test_map_csv_roundtrip(tmp_path):
    # fig4's maps: a rows,cols header, then one row per line at full float
    # precision
    spec = DeviceSpec()
    g = build_crossbar(20, 20, spec, seed=7).g
    g[:] = np.random.default_rng(3).uniform(spec.g_min, spec.g_max, g.shape)
    path = tmp_path / "g.csv"
    harness._write_csv(path, "{},{}".format(*g.shape), g)
    with open(path) as f:
        assert f.readline() == "20,20\n"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back, g)


# --- sweeps -------------------------------------------------------------------

# axis -> (values, series fidelity per (value, seed)), recorded before the
# axes became a table
SWEEP_PINS = {
    "import_accuracy": ([0.0], {"ex-situ": [[96.40625, 96.5625]]}),
    "stuck_fraction": ([0.0, 0.1], {"ex-situ": [[96.40625, 96.5625],
                                                [93.90625, 95.0]]}),
    "bounds_sigma": ([0.1], {"in-situ": [[65.625, 76.40625]]}),
    "noise_sigma": ([0.02], {"both": [[96.25, 96.5625]]}),
    "stuck_neuron_fraction": ([0.2], {"ex-situ": [[65.78125, 75.9375]]}),
    "temperature": ([45.0], {"ex-situ": [[96.40625, 96.5625]]}),
}


def fast_sweep_config(axis=None):
    # ideal import and whole-array in-situ writes keep every axis fast; the
    # import_accuracy axis sets the ideal import itself
    knobs = {} if axis == "import_accuracy" else {"import_accuracy": 0.0}
    return config(seeds=[0, 1], knobs=knobs, tune={"half_select": False},
                  insitu={"half_select": False, "epochs": 3})


def test_every_axis_is_pinned():
    assert set(SWEEP_PINS) == set(harness.SWEEP_AXES)


@pytest.mark.parametrize("axis", list(SWEEP_PINS))
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_axis_pinned(axis, workers):
    values, want = SWEEP_PINS[axis]
    report = harness.run_sweep(fast_sweep_config(axis), axis, values,
                               workers=workers)
    assert {name: s.tolist() for name, s in report.series.items()} == want


@pytest.mark.parametrize("phase, want", [
    ("import", [[96.71875, 97.03125]]),
    ("inference", [[96.25, 96.71875]]),
])
def test_noise_sigma_phase_pinned(phase, want):
    # SWEEP_PINS runs the noise_sigma axis with noise in both phases; each
    # phase alone leaves the other's noise at zero
    base = fast_sweep_config("noise_sigma")
    cfg = replace(base, knobs=dict(base.knobs, noise_phase=phase))
    report = harness.run_sweep(cfg, "noise_sigma", [0.02])
    assert {name: s.tolist() for name, s in report.series.items()} \
        == {phase: want}


def test_four_scheme_sweep_pinned():
    # every scheme through one stuck_fraction sweep: each point runs the
    # schemes together on one board, sharing the fit and its import
    base = fast_sweep_config()
    schemes = ["ex-situ", "hybrid", "defect-aware", "in-situ"]
    cfg = replace(base, knobs=dict(base.knobs, schemes=schemes))
    report = harness.run_sweep(cfg, "stuck_fraction", [0.0, 0.1])
    assert {name: s.tolist() for name, s in report.series.items()} == {
        "ex-situ": [[96.40625, 96.5625], [93.90625, 95.0]],
        "hybrid": [[96.40625, 96.5625], [93.90625, 95.0]],
        "defect-aware": [[96.25, 96.5625], [96.5625, 95.9375]],
        "in-situ": [[41.71875, 46.875], [63.28125, 54.375]],
    }


def test_sweep_fits_only_for_schemes_that_import_the_fit(monkeypatch):
    # a defect-aware-only sweep used to fit the map-free model per seed too
    # and never read it
    calls = []
    real = training.train_defect_aware

    def counted(fit_set, net, maps, hyper):
        calls.append(maps is None)
        return real(fit_set, net, maps, hyper)

    monkeypatch.setattr(training, "train_defect_aware", counted)
    cfg = config(seeds=[0], knobs={"import_accuracy": 0.0,
                                   "schemes": ["defect-aware"]},
                 tune={"half_select": False})
    harness.run_sweep(cfg, "stuck_fraction", [0.1])
    assert calls == [False]


@pytest.mark.parametrize("axis, knobs", [
    ("noise_sigma", {"import_noise_sigma": 0.5, "inference_noise_sigma": 0.5}),
    ("noise_sigma", {"inference_noise_sigma": 0.5}),
    ("import_accuracy", {"import_accuracy": 0.3}),
])
def test_sweep_refuses_a_base_knob_its_axis_sets(axis, knobs):
    # the axis overwrites these knobs at every point, so the base values
    # used to be accepted and ignored
    key = next(iter(knobs))
    with pytest.raises(ConfigError, match=f"{key!r} is set by the {axis} "
                                          f"sweep"):
        harness.run_sweep(config(knobs=knobs), axis, [0.02], seeds=[0])


@pytest.mark.parametrize("values, seeds, message", [
    ([0.1], [], "seeds must be a non-empty list"),
    ([0.1], [-1], "seeds must be a non-empty list"),
    # the same seed twice used to run twice
    ([0.1], [0, 0], "seeds must be distinct"),
    # an empty grid used to run nothing and write empty series
    ([], [0], "a sweep needs at least one value"),
])
def test_sweep_grid_must_be_non_empty_and_distinct(values, seeds, message):
    with pytest.raises(ConfigError, match=message):
        harness.run_sweep(fast_sweep_config(), "stuck_fraction", values,
                          seeds=seeds)


@pytest.mark.parametrize("axis, value, message", [
    ("import_accuracy", 1.5, r"must lie in \[0, 1\), got 1.5"),
    ("stuck_fraction", -0.2, r"must lie in \[0, 1\], got -0.2"),
    ("bounds_sigma", -0.1, "must be >= 0, got -0.1"),
    ("noise_sigma", -0.1, "must be >= 0, got -0.1"),
    ("stuck_neuron_fraction", -0.2, r"must lie in \[0, 1\], got -0.2"),
    ("temperature", math.nan, "must be a finite number, got nan"),
])
def test_sweep_checks_every_value_before_any_fit(monkeypatch, axis, value,
                                                 message):
    # unchecked, a negative noise sigma ran noise-free and the others failed
    # late, after the fit, naming an internal value or as a read fault
    calls = []
    monkeypatch.setattr(training, "train_defect_aware",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError,
                       match=f"sweep axis {axis!r} value {message}"):
        harness.run_sweep(fast_sweep_config(axis), axis, [0.0, value])
    assert calls == []


def test_unknown_sweep_axis_rejected():
    with pytest.raises(ConfigError, match="unknown sweep axis 'width'"):
        harness.run_sweep(fast_sweep_config(), "width", [0.1])


def test_sweep_needs_a_worker():
    with pytest.raises(ConfigError, match="workers must be at least 1"):
        harness.run_sweep(fast_sweep_config("import_accuracy"),
                          "import_accuracy", [0.0], workers=0)


# --- the benchmark's workloads -----------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_module(name):
    """perfbench/<name>.py of this checkout, loaded without running it."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the config documents the benchmark hands the program
WORKLOADS = _perfbench_module("workloads")


def _public_functions(layer: str) -> set:
    """The functions the benchmark's tracer wraps in one layer module."""
    mod = importlib.import_module(f"xbarnet.{layer}")
    return {attr for attr, fn in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__}


def test_benchmark_names_public_functions():
    # a renamed or privatized function would silently zero its probe or
    # its <layer>.<function>.<metric> per-layer metrics
    tracer = _perfbench_module("tracer")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set(tracer.PROBES) | {m["name"].rsplit(".", 1)[0]
                                  for m in metrics
                                  if m["name"].count(".") == 2}

    def public(name):
        layer, function = name.split(".")
        return layer in tracer.LAYERS and function in _public_functions(layer)
    assert names
    assert sorted(name for name in names if not public(name)) == []


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_benchmark_workload_resolves(name, seed):
    # a schema change that breaks a workload fails here, not in the
    # benchmark
    cfg, sweep = WORKLOADS.resolve(harness, name, seed)
    assert cfg.seeds
    if sweep is None:
        harness._refuse_unread_knobs(cfg, cfg.recipe)
    else:
        assert sweep["axis"] in harness.SWEEP_AXES
        harness._refuse_unread_knobs(cfg, cfg.recipe, sweep["axis"])


def test_benchmark_sweep_runs_with_the_worker_keywords(tmp_path):
    # the keywords perfbench/worker.py passes, on one value and one seed
    cfg, sweep = WORKLOADS.resolve(harness, "letters-sweep", 0)
    report = harness.run_sweep(cfg, sweep["axis"], sweep["values"][:1],
                               seeds=cfg.seeds[:1], workers=2)
    harness.write_sweep_outputs(cfg, report, tmp_path)
    assert report.series["ex-situ"].shape == (1, 1)
    assert (tmp_path / "sweep.json").is_file()


# --- pinned recipe outputs ----------------------------------------------------

# output files pinned with the summary; test_fast_recipe_table_pinned pins
# the others
SUMMARY_TABLES = {"fig2-forming": {"forming_voltages.csv": "0d40c43fec90d803"}}


@pytest.fixture(scope="module")
def stock_run(tmp_path_factory):
    """The output directory of a stock recipe's run, made once per module:
    the summary and table pins of fig3 and fig13 read the same run."""
    runs = {}

    def run(recipe):
        if recipe not in runs:
            runs[recipe] = tmp_path_factory.mktemp(recipe)
            harness.run_recipe(config(recipe), out_dir=runs[recipe])
        return runs[recipe]
    return run


@pytest.mark.parametrize("recipe, prefix", [
    ("fig2-forming", "7dea09bf8a9e9a79"),
    ("fig3-thresholds", "5cda0ff73338f921"),
    # fig13 reads each input vector as a one-row vmm_currents_batch
    ("fig13-temp", "551f679ece815520"),
])
def test_fast_recipe_summary_pinned(recipe, prefix, stock_run, output_pins):
    output_pins(stock_run(recipe), {"summary.json": prefix,
                                    **SUMMARY_TABLES.get(recipe, {})})


@pytest.mark.parametrize("cfg, out, message", [
    # 200 kOhm white pixels ask for 5 uS, below the 10 uS g_min
    (lambda: config("fig4-tuning", knobs={"r_white": 200e3}), True,
     "image maps outside the device range"),
    (lambda: config("fig2-forming"), False, "no output directory"),
], ids=["fig4-image-range", "no-out-dir"])
def test_recipe_refuses_before_it_runs(cfg, out, message, tmp_path):
    with pytest.raises(ConfigError, match=message):
        harness.run_recipe(cfg(), out_dir=tmp_path if out else None)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("recipe, extra, prefix", [
    # alpha_exponent 0 makes the dependent leg fall back to exponent 1.0,
    # the stock value, so the summary is the stock one
    ("fig13-temp", {"device": {"alpha_exponent": 0.0}}, "551f679ece815520"),
    # swing spread on the hidden bank; at 0.1 no pattern flips and the
    # summary equals the stock one, so 0.3 shows the branch ran
    ("fig8-exsitu", {"knobs": {"swing_sigma": 0.3}}, "885381d552368630"),
])
def test_branch_summary_pinned(recipe, extra, prefix, tmp_path,
                               output_pins):
    harness.run_recipe(config(recipe, **extra), out_dir=tmp_path)
    output_pins(tmp_path, {"summary.json": prefix})


@pytest.mark.parametrize("recipe, name, prefix", [
    # per-device measured thresholds, from one staircase over each column
    ("fig3-thresholds", "thresholds.csv", "b0013814aacc7111"),
    ("fig13-temp", "drift.csv", "467ebad0d8662650"),
])
def test_fast_recipe_table_pinned(recipe, name, prefix, stock_run,
                                  output_pins):
    output_pins(stock_run(recipe), {name: prefix})
