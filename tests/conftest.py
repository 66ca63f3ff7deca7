import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from xbarnet.device import DeviceSpec


@pytest.fixture
def spec():
    return DeviceSpec()


@pytest.fixture
def ideal_spec():
    """No device-to-device variation, no read asymmetry."""
    return DeviceSpec(vset_sigma=0.0, vreset_sigma=0.0,
                      kappa_mean=0.0, kappa_sigma=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def output_pins():
    """A check of a recipe's output directory: it holds exactly the
    manifest's outputs plus manifest.json, and each file named in ``pins``
    hashes to its sha256 prefix.  Returns the manifest's outputs."""
    def check(out: Path, pins: dict) -> list:
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                         if p.is_file())
        assert written == sorted(manifest["outputs"] + ["manifest.json"])
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in pins}
        assert got == pins
        return manifest["outputs"]
    return check
