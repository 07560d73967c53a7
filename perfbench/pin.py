#!/usr/bin/env python3
"""Pin perfbench/reference.json from the current sources.

    python3 perfbench/pin.py

For each workload, the run at the preset master seed gives the pinned output
digests (the bit-for-bit anchor).  Runs at that seed and ``N_SEEDS - 1``
further master seeds give each checked quantity's reference value (their
mean).  The tolerance is ``tolerance_se`` of a run's own standard errors; the
largest |value - reference| / standard error seen while pinning is stored
next to it so the margin is on record.  The median times of the reference loop
and of the dependency import over these runs become the host speed that run_s
and setup_s are rescaled to.
"""

from __future__ import annotations

import json
import random
import statistics

import run

TOLERANCE_SE = 10.0
N_SEEDS = 30


def pin(name: str) -> dict:
    wl = run.WORKLOADS[name]
    rng = random.Random(name)
    seeds = [run.PRESET_SEED] + [rng.randrange(1, 2**32) for _ in range(N_SEEDS - 1)]
    with run.private_work_dir() as work:
        reps = [run.run_child(name, work, f"p{i}", s, wl["workers"], "none", False, None)
                for i, s in enumerate(seeds)]
    bad = [r for r in reps if r["problems"]]
    if bad:
        raise SystemExit(f"{name}: {len(bad)} of {len(reps)} pinning runs failed")
    ref = {k: statistics.fmean(r["quantities"][k][0] for r in reps) for k in reps[0]["quantities"]}
    worst = max(abs(r["quantities"][k][0] - v) / r["quantities"][k][1]
                for r in reps for k, v in ref.items())
    print(f"{name}: {len(reps)} runs, largest deviation {worst:.2f} se")
    loop_s = statistics.median(r["report"]["reference_loop_s"] for r in reps)
    dep_s = statistics.median(r["dep_import_s"] for r in reps)
    return {"pinned_seed": run.PRESET_SEED, "digests": reps[0]["digests"], "quantities": ref,
            "reference_loop_s": loop_s, "dep_import_s": dep_s,
            "calibration": {"master_seeds": len(seeds), "largest_deviation_se": worst}}


def main() -> int:
    reference = {"tolerance_se": TOLERANCE_SE,
                 "workloads": {name: pin(name) for name in run.WORKLOADS}}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
