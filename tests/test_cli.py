"""Command-line exit codes follow the error taxonomy: 0 success, 2 config,
3 missing or malformed config file, 4 a simulation failure, 1 anything
else."""

import json
import re

import pytest

from xbarnet import cli


def write_config(tmp_path, text):
    path = tmp_path / "conf.json"
    path.write_text(text)
    return str(path)


def test_run_succeeds(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "fig2-forming", "--out", str(out)]) == cli.EXIT_OK
    assert (out / "summary.json").exists()


def test_run_forming_prints_each_modes_rate(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "fig2-forming", "--out", str(out)]) == cli.EXIT_OK
    assert (out / "forming_voltages.csv").exists()
    assert "median manual-forming rate" in capsys.readouterr().out


def test_sweep_succeeds(tmp_path, capsys):
    # one value and one seed, with ideal import and whole-array writes
    conf = write_config(tmp_path, json.dumps({
        "recipe": "fig8-exsitu", "knobs": {"import_accuracy": 0.0},
        "tune": {"half_select": False}}))
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", conf, "--axis", "stuck_fraction=0.1",
                     "--seeds", "1", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads((out / "sweep.json").read_text())["seeds"] == [0]
    assert "ex-situ median error" in capsys.readouterr().out


def test_run_prints_each_schemes_median(tmp_path, capsys):
    # fig9 runs ex-situ and defect-aware on one board; ideal import and
    # whole-array writes keep it fast
    conf = write_config(tmp_path, json.dumps({
        "knobs": {"import_accuracy": 0.0}, "tune": {"half_select": False}}))
    code = cli.main(["run", "fig9-defect-aware", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    for scheme in ("ex-situ", "defect-aware"):
        assert re.search(rf"^  {scheme} median test fidelity = \d+\.\d\d%$",
                         printed, re.MULTILINE), scheme


def test_unknown_recipe(tmp_path, capsys):
    code = cli.main(["run", "fig99-nothing", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "unknown recipe" in capsys.readouterr().err


def test_unknown_knob(tmp_path, capsys):
    conf = write_config(tmp_path, json.dumps({"knobs": {"n_layers": 3}}))
    code = cli.main(["run", "fig2-forming", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "unknown knob 'n_layers'" in capsys.readouterr().err


@pytest.mark.parametrize("recipe, knobs", [
    ("fig3-thresholds", {"n_devices": 0}),
    ("fig3-thresholds", {"n_devices": -3}),
    ("fig13-temp", {"n_rows": 0}),
])
def test_nonpositive_count_knob(tmp_path, recipe, knobs, capsys):
    conf = write_config(tmp_path, json.dumps({"knobs": knobs}))
    code = cli.main(["run", recipe, "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"{next(iter(knobs))!r} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("recipe, knobs", [
    ("fig13-temp", {"temperatures": []}),
    ("fig12-mnist", {"scheme": ""}),
    # "" used to run the procedural digit corpus without a word
    ("fig12-mnist", {"mnist_dir": ""}),
    # these ran, or stopped with exit 1, before knobs were checked at load
    ("fig8-exsitu", {"stuck_on_frac": "0.05"}),
    ("fig8-exsitu", {"import_noise_sigma": True}),
    ("fig8-exsitu", {"noise_phase": "bogus"}),
    ("fig8-exsitu", {"r_white": -5}),
    ("fig13-temp", {"v_in": "abc"}),
    ("fig8-exsitu", {"swing_overrides": {"0": "x"}}),
    # well-typed, but fig8 reads neither
    ("fig8-exsitu", {"noise_phase": "import"}),
    ("fig8-exsitu", {"r_white": 50e3}),
])
def test_empty_list_or_name_knob(tmp_path, recipe, knobs, capsys):
    conf = write_config(tmp_path, json.dumps({"knobs": knobs}))
    code = cli.main(["run", recipe, "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"knob {next(iter(knobs))!r}" in capsys.readouterr().err


@pytest.mark.parametrize("doc, name", [
    ({"forming": {"i_stop": 1e-4}}, "forming.i_stop"),
    ({"network": {"rows1": 17}}, "network.rows1"),
    ({"knobs": {"temperature": 45.0}}, "'temperature'"),
    ({"hyper": {"seed": 3}}, "hyper.seed"),
    ({"forming": {"mode": "current"}}, "forming.mode"),
])
def test_removed_or_run_owned_value(tmp_path, doc, name, capsys):
    conf = write_config(tmp_path, json.dumps(doc))
    code = cli.main(["run", "fig2-forming", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert name in capsys.readouterr().err


# switches that only True or False may set: "false" is a truthy string and
# ran fig8 with the V/2 import under its own config hash, "no" stopped with
# a bare int() error and 2 with a numpy shape error, both as exit 1
@pytest.mark.parametrize("doc, name", [
    ({"tune": {"half_select": "false"}}, "tune: half_select"),
    ({"network": {"bias1": "no"}}, "network: bias1"),
    ({"network": {"bias2": 2}}, "network: bias2"),
])
def test_non_boolean_switch(tmp_path, doc, name, capsys):
    conf = write_config(tmp_path, json.dumps(doc))
    code = cli.main(["run", "fig8-exsitu", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"{name} must be true or false" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    (None, "sweep needs --config"),
    ({"knobs": {"import_accuracy": 0.0}}, "must name its base recipe"),
])
def test_sweep_needs_a_base_recipe(tmp_path, doc, message, capsys):
    # argparse requires --config, so only an empty path reaches the first
    conf = "" if doc is None else write_config(tmp_path, json.dumps(doc))
    code = cli.main(["sweep", "--config", conf, "--axis", "stuck_fraction=0.1",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mnist_dir_without_the_files(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    conf = write_config(tmp_path, json.dumps({"knobs": {"mnist_dir":
                                                        str(empty)}}))
    code = cli.main(["run", "fig12-mnist", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert "lacks: train-images-idx3-ubyte" in capsys.readouterr().err


@pytest.mark.parametrize("axis", [
    "stuck_fraction", "stuck_fraction=", "stuck_fraction=0.1,high",
    "no_such_axis=0.1",
])
def test_malformed_axis(tmp_path, axis):
    conf = write_config(tmp_path, json.dumps({"recipe": "fig8-exsitu"}))
    code = cli.main(["sweep", "--config", conf, "--axis", axis,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("axis", [
    "import_accuracy=1.5", "stuck_fraction=-0.2", "bounds_sigma=-0.1",
    "noise_sigma=-0.1", "stuck_neuron_fraction=-0.2", "temperature=nan",
])
def test_sweep_value_outside_its_axis(tmp_path, axis, capsys):
    # temperature=nan would otherwise exit 4 from the read
    conf = write_config(tmp_path, json.dumps({"recipe": "fig8-exsitu"}))
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", conf, "--axis", axis,
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    name = axis.split("=")[0]
    assert f"sweep axis {name!r} value" in capsys.readouterr().err
    assert not out.exists()


def test_import_accuracy_outside_its_range(tmp_path, capsys):
    # refused at load, before the fit and the output directory, naming the
    # knob rather than the tune field it feeds
    conf = write_config(tmp_path,
                        json.dumps({"knobs": {"import_accuracy": 1.5}}))
    out = tmp_path / "out"
    code = cli.main(["run", "fig8-exsitu", "--config", conf,
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "knob 'import_accuracy' must lie in [0, 1)" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_without_seeds(tmp_path, seeds, capsys):
    # an empty seed range used to exit 0 and write empty series
    conf = write_config(tmp_path, json.dumps({"recipe": "fig8-exsitu"}))
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", conf, "--axis",
                     "stuck_fraction=0.0,0.1", "--seeds", seeds,
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "seeds must be a non-empty list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_missing_or_unreadable_config(tmp_path, text, capsys):
    conf = str(tmp_path / "absent.json") if text is None \
        else write_config(tmp_path, text)
    code = cli.main(["run", "fig2-forming", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_config_path_that_is_a_directory(tmp_path, capsys):
    # it exited 1 with an unexpected IsADirectoryError
    code = cli.main(["run", "fig2-forming", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert "not a regular file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_read_outside_regime_is_a_runtime_failure(tmp_path, capsys):
    # a 0.6 V input read is past the 0.5 V non-disturbing window
    conf = write_config(tmp_path, json.dumps({"knobs": {"v_in": 0.6}}))
    code = cli.main(["run", "fig13-temp", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME
    assert "read regime" in capsys.readouterr().err


def test_insitu_run_at_chance_is_a_runtime_failure(tmp_path, capsys):
    # pulses 50 times shorter than stock barely move a device: fig10 seed 1
    # ends its 25 in-situ epochs with 20 of its 30 fit patterns wrong, 1 in
    # 3 right on 3 classes, and the loop's DivergenceError names the epoch
    # (seed 0 ends one pattern above chance)
    conf = write_config(tmp_path, json.dumps(
        {"seeds": [1], "insitu": {"width": 1e-3}}))
    code = cli.main(["run", "fig10-insitu", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME
    assert ("in-situ training ended at chance: 33.33% fidelity on the fit "
            "set at epoch 24") in capsys.readouterr().err


def test_unexpected_failure_exits_1(tmp_path, monkeypatch, capsys):
    def broken(cfg, out_dir=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.harness, "run_recipe", broken)
    code = cli.main(["run", "fig2-forming", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_UNEXPECTED
    assert "unexpected error: RuntimeError: boom" in capsys.readouterr().err
