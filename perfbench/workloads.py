"""The benchmark's workloads: each is a function of the workload seed that
returns the config document the program receives, plus the sweep grid for
sweep workloads.  Pure data; importing this module imports nothing of the
program, so the worker can time ``import xbarnet`` on its own.
"""

from __future__ import annotations

# letters-sweep grid: 10 stuck fractions x 8 seeds = 80 small tasks
SWEEP_VALUES = [round(0.02 * i, 2) for i in range(10)]
SWEEP_SEEDS_PER_RUN = 8


def _merge(base: dict, extra: dict) -> dict:
    # a copy of the program's private harness._merge: the benchmark calls
    # only public API, so internal renames cannot break it
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _letters_exsitu(seed: int) -> dict:
    return {"recipe": "fig8-exsitu", "seeds": [seed]}


def _digits_hybrid(seed: int) -> dict:
    return {"recipe": "fig12-mnist", "seeds": [seed],
            "knobs": {"scheme": "hybrid"}}


def _letters_sweep(seed: int) -> dict:
    first = SWEEP_SEEDS_PER_RUN * seed
    return {
        "recipe": "fig8-exsitu",
        "seeds": list(range(first, first + SWEEP_SEEDS_PER_RUN)),
        "tune": {"half_select": False},
        "sweep": {"axis": "stuck_fraction", "values": SWEEP_VALUES},
    }


WORKLOADS = {
    "letters-exsitu": _letters_exsitu,
    "digits-hybrid": _digits_hybrid,
    "letters-sweep": _letters_sweep,
}


def spec_for(name: str, seed: int) -> tuple[dict, dict | None]:
    """(overrides over the recipe's stock config, sweep grid or None)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"available: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    doc = WORKLOADS[name](seed)
    return doc, doc.pop("sweep", None)


def resolve(harness, name: str, seed: int):
    """(resolved ExperimentConfig, sweep grid or None) for one workload."""
    overrides, sweep = spec_for(name, seed)
    doc = _merge(harness.default_config(overrides["recipe"]), overrides)
    return harness.config_from_dict(doc), sweep
