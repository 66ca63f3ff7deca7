"""Benchmark runner for the xbarnet recipe and sweep workloads.

    python3 perfbench/run.py --workload letters-exsitu [--seed 0]
        [--seconds 55] [--trace 0|1]

Run from the root of a checkout.  One runner process runs one worker at a
time, each a fresh interpreter with the BLAS thread variables pinned to 1
before numpy loads:

1. set-up probes: import xbarnet and resolve the workload's config, two
   before the first workload run and two after each; ``setup_s`` is their
   median;
2. one traced run (perfbench/tracer.py wraps every public function of the
   program's layers): exact pulse counts and the per-layer metrics.  It is
   skipped with ``--trace 0`` on a seed whose pulse count is recorded;
3. untraced runs, repeated while the next one still fits in ``--seconds``
   counted from the start of the first workload run, traced or not (at
   least one, or two when the traced run was skipped): ``wall_s``,
   ``peak_rss_mb`` and ``harness.cpu_s`` are their medians.

Every run's output digest is checked against the digest recorded for the
workload and seed in perfbench/recorded.json, and, for a seed with no
recorded digest, against the first untraced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RECORDED = HERE / "recorded.json"
# set-up probes before the first workload run and after each one
SETUP_PROBES = 2
# every worker must end before this many seconds into the invocation
DEADLINE_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# exact counts of the physical programming cost, recorded per seed; a
# speed-up must leave them unchanged
COUNTED = ("trace.pulses", "crossbar.write_pulse.calls")
NOTE = ("the model is unvalidated against hardware: PAPER.md holds no "
        "reference measurements, so the output gate checks the program "
        "against its own recorded outputs only")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    return env


def _terminate(signum, frame):
    # an exception, unlike the default action, lets subprocess.run kill and
    # reap the running worker before this process exits
    raise SystemExit(128 + signum)


def _worker_cmd(workload: str, seed: int, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"runs did not end within {DEADLINE_S} s")
    return left


def setup_probe(workload: str, seed: int, deadline: float
                ) -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter until it has imported the
    program, resolved the workload's config and exited; plus the
    environment it reports."""
    t0 = time.perf_counter()
    proc = subprocess.run(_worker_cmd(workload, seed, "--setup-only"),
                          env=worker_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE,
                          timeout=_time_left(deadline))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe for {workload} exited with "
                         f"{proc.returncode}")
    return elapsed, json.loads(proc.stdout)


def run_worker(workload: str, seed: int, out: Path, trace: bool,
               deadline: float) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    cmd = _worker_cmd(workload, seed, "--out", str(out))
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=_time_left(deadline))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed} run exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree; read from .git
    directly so nothing outside the checkout is searched."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def recorded_entry(workload: str, seed: int) -> dict | None:
    return json.loads(RECORDED.read_text()).get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All runs of one benchmark invocation; returns the raw results.

    The traced run is skipped when it is not needed: without --trace, on a
    seed whose exact pulse count is recorded.  Its time then goes to a
    second untraced run."""
    deadline = time.monotonic() + DEADLINE_S
    setup = []

    def probe():
        # probes are spread over the whole invocation, so their median
        # spans the host's slow and fast spells instead of one moment
        for _ in range(SETUP_PROBES):
            elapsed, env = setup_probe(workload, seed, deadline)
            setup.append(elapsed)
        return env

    env = probe()
    # the traced run counts against --seconds, so an invocation takes about
    # as long on an unrecorded seed as on a recorded one
    t0 = time.perf_counter()
    traced = None
    if trace or recorded_entry(workload, seed) is None:
        traced = run_worker(workload, seed, WORK / "traced", True, deadline)
        probe()
    min_untraced = 1 if traced else 2
    untraced = []
    while True:
        untraced.append(run_worker(workload, seed, WORK / "untraced", False,
                                   deadline))
        probe()
        elapsed = time.perf_counter() - t0
        if (len(untraced) >= min_untraced
                and elapsed + untraced[-1]["wall_s"] > seconds):
            break
    return {"setup": setup, "env": env, "traced": traced,
            "untraced": untraced}


def check_outputs(rec: dict | None, traced: dict | None, untraced: list):
    """(reference digest, per-run pass flags, untraced runs first).  A run
    fails when its digest differs from the recorded one (for an unrecorded
    seed: the first untraced run's) or, for the traced run, when its exact
    counts differ from the recorded ones."""
    reference = rec["digest"] if rec else untraced[0]["digest"]
    runs = untraced + ([traced] if traced else [])
    ok = [r["digest"] == reference for r in runs]
    for key in COUNTED if rec and traced else ():
        value = traced["layers"].get(key, 0)
        if value != rec[key]:
            print(f"count mismatch: {key} = {value}, recorded {rec[key]}")
            ok[-1] = False
    return reference, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "xbarnet" / "__init__.py").is_file():
        print("perfbench: no src/xbarnet in this checkout", file=sys.stderr)
        return 2
    try:
        workloads.spec_for(args.workload, args.seed)
    except (KeyError, ValueError) as exc:
        print(f"perfbench: {exc.args[0]}", file=sys.stderr)
        return 2
    specs = _metric_specs()
    load_avg = os.getloadavg()

    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("perfbench: another benchmark run holds this checkout",
                  file=sys.stderr)
            return 2
        try:
            raw = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    traced, untraced = raw["traced"], raw["untraced"]
    rec = recorded_entry(args.workload, args.seed)
    reference, ok = check_outputs(rec, traced, untraced)
    env = dict(raw["env"], git_sha=_git_sha(),
               loadavg_at_start=list(load_avg))
    wall = statistics.median(r["wall_s"] for r in untraced)
    match = sum(ok) / len(ok)
    pulses = (traced["layers"] if traced else rec)["trace.pulses"]
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(raw["setup"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "pulses_per_s": pulses / wall,
        "test_fidelity_pct": statistics.median(r["fidelity_pct"]
                                               for r in untraced),
        "output_match_frac": match,
    }

    print(f"perfbench {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced run(s), {int(traced is not None)} traced run(s), "
          f"{len(raw['setup'])} set-up probes")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"note: {NOTE}")
    status = (f"recorded digest for seed {args.seed}" if rec else
              f"no recorded digest for seed {args.seed}: compare this "
              f"digest between parent and change")
    print(f"digest: {reference} ({status})")
    print(f"output_mismatch_frac = {1.0 - match:.6g} ratio")
    print("untraced wall_s per run: "
          + ", ".join(f"{r['wall_s']:.4f}" for r in untraced))
    print("set-up s per probe: "
          + ", ".join(f"{s:.4f}" for s in raw["setup"]))

    if traced:
        spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "columns": ["name", "parent", "calls", "incl_s", "self_s"],
            "spans": traced["spans"]}))
        print(f"spans: {spans_file.relative_to(ROOT)}")

    if args.trace:
        names = specs["per_layer"]
        values = dict(traced["layers"])
        values["harness.cpu_s"] = statistics.median(r["cpu_s"]
                                                    for r in untraced)
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - wall
    else:
        names, values = specs["end_to_end"], end_to_end
    metrics = {}
    for name, unit in names.items():
        value = values.get(name, 0)
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": all(ok), "attempted": len(ok),
                      "failed": ok.count(False), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
