"""One fresh interpreter: a set-up probe or one run of one workload.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

The runner (run.py) starts this with the BLAS thread variables pinned; it
imports the program from this checkout's ``src``.  A set-up probe imports
the program, resolves the workload's config and prints the environment as
one line.  A workload run times the ``run_recipe`` / ``run_sweep`` call
including its output files, and prints one JSON line: wall and CPU
seconds, peak RSS, output digest, headline fidelity and, with ``--trace``,
the per-layer metrics and aggregated spans of the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in PINNED},
    }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_workload(harness, cfg, sweep, out: Path):
    """Run once; return (digest of the headline output file, fidelity %)."""
    import numpy as np

    if sweep is None:
        summary = harness.run_recipe(cfg, out_dir=out)
        if "hardware_test_fidelity" in summary:
            fidelity = summary["hardware_test_fidelity"]["median"]
        else:
            fidelity = summary[summary["schemes"][0]]["test"]["median"]
        return _digest(out / "summary.json"), float(fidelity)
    report = harness.run_sweep(cfg, sweep["axis"], sweep["values"],
                               seeds=cfg.seeds, workers=nproc())
    harness.write_sweep_outputs(cfg, report, out)
    grid = np.concatenate([s.ravel() for s in report.series.values()])
    return _digest(out / "sweep.json"), float(np.median(grid))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    unpinned = [k for k in PINNED if os.environ.get(k) != "1"]
    if unpinned:
        print(f"worker: {', '.join(unpinned)} must be 1 before numpy loads",
              file=sys.stderr)
        return 2

    import workloads
    import xbarnet
    from xbarnet import harness

    src = (ROOT / "src").resolve()
    if Path(xbarnet.__file__).resolve().parent.parent != src:
        print(f"worker: imported xbarnet from {xbarnet.__file__}, "
              f"not from this checkout's src", file=sys.stderr)
        return 2
    cfg, sweep = workloads.resolve(harness, args.workload, args.seed)

    if args.setup_only:
        import numpy as np
        import scipy

        print(json.dumps(_environment(np, scipy)), flush=True)
        return 0

    out = Path(args.out)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    cpu0 = os.times()
    t0 = time.perf_counter()
    digest, fidelity = _run_workload(harness, cfg, sweep, out)
    wall = time.perf_counter() - t0
    cpu1 = os.times()
    result = {
        "wall_s": wall,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        + (cpu1.children_user - cpu0.children_user)
        + (cpu1.children_system - cpu0.children_system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": digest,
        "fidelity_pct": fidelity,
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        result["layers"] = tracing.layer_metrics(spans, tracer.counts())
        result["spans"] = [[name, parent, *rec]
                           for (name, parent), rec in sorted(spans.items())]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
