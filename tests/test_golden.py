"""Golden outputs of the long recipes: each stock recipe's summary.json
hashes to the sha256 prefix in the ROADMAP baseline table.

These take minutes, so they are marked slow and deselected by default;
run them with ``pytest -m slow``.
"""

import hashlib

import pytest

from xbarnet import harness

GOLDEN = {
    "fig4-tuning": "3400836b95c1340f",
    "fig8-exsitu": "208951edc54fe7b8",
    "fig9-defect-aware": "52137618b356d8dd",
    "fig10-insitu": "0178ac573167edde",
    "fig11-hybrid": "77a8b61a25273cb1",
    "fig12-mnist": "e0ea0113e81ec680",
}


@pytest.mark.slow
@pytest.mark.parametrize("recipe, prefix", list(GOLDEN.items()))
def test_recipe_summary_golden(recipe, prefix, tmp_path):
    cfg = harness.config_from_dict(harness.default_config(recipe))
    harness.run_recipe(cfg, out_dir=tmp_path)
    summary = (tmp_path / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest()[:16] == prefix
