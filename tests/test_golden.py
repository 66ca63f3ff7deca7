"""Golden outputs of the long recipes: each stock recipe's summary.json
hashes to the sha256 prefix in the ROADMAP baseline table.

fig4, fig8 and fig10 take a few seconds each and run with every test
pass, so each one checks the write-verify tuner's byte identity.  fig9,
fig11 and fig12 take longer, so they are marked slow and deselected by
default; run them with ``pytest -m slow``.
"""

import hashlib

import pytest

from xbarnet import harness

slow = pytest.mark.slow

GOLDEN = [
    ("fig4-tuning", "3400836b95c1340f"),
    ("fig8-exsitu", "208951edc54fe7b8"),
    pytest.param("fig9-defect-aware", "52137618b356d8dd", marks=slow),
    ("fig10-insitu", "0178ac573167edde"),
    pytest.param("fig11-hybrid", "77a8b61a25273cb1", marks=slow),
    pytest.param("fig12-mnist", "e0ea0113e81ec680", marks=slow),
]


@pytest.mark.parametrize("recipe, prefix", GOLDEN)
def test_recipe_summary_golden(recipe, prefix, tmp_path):
    cfg = harness.config_from_dict(harness.default_config(recipe))
    harness.run_recipe(cfg, out_dir=tmp_path)
    summary = (tmp_path / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest()[:16] == prefix
