"""Golden outputs of the long recipes: each stock recipe's summary.json
hashes to the sha256 prefix in the ROADMAP baseline table, and every other
file it writes to the prefix in ``TABLES``.

Every recipe here runs with every test pass (fig12, the longest, takes
about ten seconds), so each one checks the write-verify tuner's byte
identity.
"""

import pytest

from xbarnet import harness

GOLDEN = [
    ("fig4-tuning", "3400836b95c1340f"),
    ("fig8-exsitu", "208951edc54fe7b8"),
    ("fig9-defect-aware", "52137618b356d8dd"),
    ("fig10-insitu", "0178ac573167edde"),
    ("fig11-hybrid", "77a8b61a25273cb1"),
    ("fig12-mnist", "e0ea0113e81ec680"),
]

# each recipe's other output files, recorded with the summaries above
TABLES = {
    "fig4-tuning": {"target_map.csv": "970f7f046cfc7c14",
                    "achieved_map.csv": "854cd3481066a082",
                    "error_map.csv": "c563c998da7172ed",
                    "tuning_errors.csv": "f637b033c37ea85b"},
    "fig8-exsitu": {"trace.csv": "13d1f2d3fa01e2b9",
                    "fidelity.csv": "16692bcc1c415447"},
    "fig9-defect-aware": {"fidelity.csv": "39f442dfaebf985f"},
    "fig10-insitu": {"plotdata.csv": "c4980b2ca82e540b",
                     "fidelity.csv": "85e7edea476d2f4e"},
    "fig11-hybrid": {"trace.csv": "46924c9cb441fdc7",
                     "fidelity.csv": "2589980c9729ba8a"},
    "fig12-mnist": {"errors.csv": "59f7b06c17acd992"},
}


@pytest.mark.parametrize("recipe, prefix", GOLDEN)
def test_recipe_summary_golden(recipe, prefix, tmp_path, output_pins):
    cfg = harness.config_from_dict(harness.default_config(recipe))
    harness.run_recipe(cfg, out_dir=tmp_path)
    pins = {"summary.json": prefix, **TABLES[recipe]}
    assert output_pins(tmp_path, pins) == sorted(pins)
