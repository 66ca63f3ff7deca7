"""Command-line exit codes follow the error taxonomy: 0 success, 2 config,
3 missing or malformed config file, 4 a simulation failure."""

import json

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


@pytest.mark.parametrize("axis", [
    "stuck_fraction", "stuck_fraction=", "stuck_fraction=0.1,high",
    "no_such_axis=0.1",
])
def test_malformed_axis(tmp_path, axis):
    conf = write_config(tmp_path, json.dumps({"recipe": "fig8-exsitu"}))
    code = cli.main(["sweep", "--config", conf, "--axis", axis,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_missing_or_unreadable_config(tmp_path, text, capsys):
    conf = str(tmp_path / "absent.json") if text is None \
        else write_config(tmp_path, text)
    code = cli.main(["run", "fig2-forming", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_read_outside_regime_is_a_runtime_failure(tmp_path, capsys):
    # a 0.6 V input read is past the 0.5 V non-disturbing window
    conf = write_config(tmp_path, json.dumps({"knobs": {"v_in": 0.6}}))
    code = cli.main(["run", "fig13-temp", "--config", conf,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME
    assert "read regime" in capsys.readouterr().err
