"""Pin the final_loss_big references of the gate.

    python3 perfbench/pin.py

Runs every workload once on each pinned seed and writes
perfbench/reference.json.  The gate then holds those seeds to
gate.REFERENCE_RTOL.  Re-pin only with a change that is meant to move
results by more than that, and say so in the change.
"""
import json
import os
import shutil

import gate
import run


def main() -> None:
    refs: dict = {}
    for name, wl in run.WORKLOADS.items():
        for seed in (run.WORKLOAD_SEED, run.CLAIMS_SEED):
            run_dir = os.path.join(run.ROOT, ".perfbench_out", "pin", f"{name}-{seed}")
            shutil.rmtree(run_dir, ignore_errors=True)
            os.makedirs(run_dir)
            job = run.Runner(seed, run_dir, {}).job(wl)
            if job["failed"]:
                raise SystemExit(f"{name} seed {seed}: {job['failed']}")
            refs.setdefault(name, {})[str(seed)] = gate.final_losses(
                os.path.join(job["work"], "out"), wl.cells
            )
            print(f"{name} seed {seed}: {refs[name][str(seed)]}", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
