"""Record reference outputs for the benchmark's output gate.

    python3 perfbench/record.py --workload letters-exsitu --seeds 0 1 2

For each seed, one traced run gives the output digest and the exact counts
that run.py checks (``run.py`` COUNTED); they are merged into
perfbench/recorded.json.  An existing entry that disagrees is reported and
left as it is: the recorded outputs are the gate, so changing one is a
deliberate edit of that file, not a side effect of recording.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)

    recorded = json.loads(run.RECORDED.read_text())
    table = recorded.setdefault(args.workload, {})
    conflicts = 0
    run.WORK.mkdir(exist_ok=True)
    for seed in args.seeds:
        deadline = time.monotonic() + run.DEADLINE_S
        traced = run.run_worker(args.workload, seed, run.WORK / "record",
                                True, deadline)
        entry = {"digest": traced["digest"]}
        entry.update({k: traced["layers"].get(k, 0) for k in run.COUNTED})
        old = table.get(str(seed))
        if old is not None and old != entry:
            print(f"{args.workload} seed {seed}: differs from the recorded "
                  f"entry, left unchanged: {entry}", file=sys.stderr)
            conflicts += 1
            continue
        table[str(seed)] = entry
        print(f"{args.workload} seed {seed}: {entry}")
    recorded[args.workload] = dict(sorted(table.items(),
                                          key=lambda kv: int(kv[0])))
    run.RECORDED.write_text(json.dumps(recorded, indent=1)
                            + "\n")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
