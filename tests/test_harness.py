"""Harness contracts: the config hash, knob validation, every sweep axis
under any worker count, and the pinned summaries of the fast recipes."""

import hashlib
import math

import pytest

from xbarnet import harness
from xbarnet.errors import ConfigError


def config(recipe="fig8-exsitu", **extra):
    return harness.config_from_dict(
        harness._merge(harness.default_config(recipe), extra)
    )


# --- config -------------------------------------------------------------------

def test_config_hash_ignores_workers_and_out_dir():
    base = harness.config_hash(config())
    assert harness.config_hash(
        config(out_dir="elsewhere", knobs={"workers": 2})) == base
    assert harness.config_hash(
        config(knobs={"import_accuracy": 0.01})) != base


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
    ("n_classes", 3.7),
    ("n_train_digits", 8000.0),
    ("n_test_digits", None),
    ("n_rows", True),
    ("n_cols", "20"),
    ("n_devices", 2.5),
    ("workers", None),
])
def test_count_knobs_must_be_integers(key, value):
    # recipes pass count knobs through int(), which would run 10.9 as 10
    with pytest.raises(ConfigError, match=repr(key)):
        config(knobs={key: value})
    assert config(knobs={key: 7}).knobs[key] == 7


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


def fast_sweep_config():
    # ideal import and whole-array in-situ writes keep every axis fast
    return config(seeds=[0, 1], knobs={"import_accuracy": 0.0},
                  tune={"half_select": False},
                  insitu={"half_select": False, "epochs": 3})


def test_every_axis_is_pinned():
    assert set(SWEEP_PINS) == set(harness.SWEEP_AXES)


@pytest.mark.parametrize("axis", list(SWEEP_PINS))
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_axis_pinned(axis, workers):
    values, want = SWEEP_PINS[axis]
    report = harness.run_sweep(fast_sweep_config(), axis, values,
                               workers=workers)
    assert {name: s.tolist() for name, s in report.series.items()} == want


def test_unknown_sweep_axis_rejected():
    with pytest.raises(ConfigError, match="unknown sweep axis 'width'"):
        harness.run_sweep(fast_sweep_config(), "width", [0.1])


# --- pinned recipe outputs ----------------------------------------------------

@pytest.mark.parametrize("recipe, prefix", [
    ("fig2-forming", "7dea09bf8a9e9a79"),
    ("fig3-thresholds", "5cda0ff73338f921"),
    # fig13 reads single vectors through the exact term-by-term sum
    ("fig13-temp", "91345a8cbbafd9f0"),
])
def test_fast_recipe_summary_pinned(recipe, prefix, tmp_path):
    harness.run_recipe(config(recipe), out_dir=tmp_path)
    summary = (tmp_path / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest()[:16] == prefix
