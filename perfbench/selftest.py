"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks, on the workload seed:
* two traced runs of every workload give identical counts (calls, rows,
  entries, bytes, steps, pair entries), self times plus the unattributed
  remainder add up to the traced wall time, and tracing leaves the
  artifacts byte-identical;
* the alpha=200 variant is recorded as failed cells and the harness goes on;
* a wrap point that no longer exists lands in ``missing``;
* the gate rejects tampered artifacts.
"""
import os
import shutil
import sys

import gate
import run
import spans


def check_traced_counts(runner: run.Runner) -> None:
    for name, wl in run.WORKLOADS.items():
        # two rounds: counts, attribution and artifact digests are checked
        # across both traced jobs and the untraced ones
        outcome = run.run_traced(runner, wl, seconds=0)
        assert outcome["ok"] and outcome["failed"] == 0, outcome
        steps = outcome["metrics"]["dynamics.steps"]
        assert steps == wl.steps * len(wl.cells), steps
        print(f"ok {name}: counts repeat exactly, attribution adds up", flush=True)


def check_alpha_200(runner: run.Runner) -> None:
    job = runner.job(run.SELF_CHECK)
    assert job["exit"] != 0
    assert len(job["failed"]) == len(run.SELF_CHECK.cells), job["failed"]
    print(f"ok alpha=200: exit {job['exit']}, all {len(job['failed'])} cells recorded failed", flush=True)


def check_missing_wrap_point() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    tracer = spans.Tracer()
    tracer.install(spans.WRAP_POINTS + (("rng.gone", "spinnet.rng.no_such_function", None),))
    assert tracer.missing == ["spinnet.rng.no_such_function"], tracer.missing
    print("ok missing wrap point reported, not raised", flush=True)


def check_gate_rejects(runner: run.Runner) -> None:
    wl = run.WORKLOADS["scaling-grid"]
    good = os.path.join(runner.job(wl)["work"], "out")
    tag = gate.cell_tag(*wl.cells[0])
    csv = f"run_{tag}.csv"

    def tampered(edit) -> dict:
        bad = os.path.join(runner.run_dir, "tampered")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        edit(os.path.join(bad, csv))
        return gate.check_job(bad, wl.cells, wl.unit, wl.steps, 0, {})

    def set_column(column: str, value: str):
        def edit(path):
            with open(path) as fh:
                lines = fh.read().splitlines()
            header = next(i for i, ln in enumerate(lines) if ln.startswith("step,"))
            k = lines[header].split(",").index(column)
            cells = lines[-1].split(",")
            cells[k] = value
            lines[-1] = ",".join(cells)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return edit

    assert gate.check_job(good, wl.cells, wl.unit, wl.steps, 0, {}) == {}
    assert "identity" in tampered(set_column("signed_plus", "1.5"))[tag]
    assert "sphere_dev" in tampered(set_column("sphere_dev", "1e-9"))[tag]
    assert "non-finite" in tampered(set_column("exact_loss", "inf"))[tag]
    assert "missing" in tampered(os.remove)[tag]
    far = {tag: 2.0 * gate.final_losses(good, wl.cells[:1])[tag]}
    assert "reference" in gate.check_job(good, wl.cells, wl.unit, wl.steps, 0, far)[tag]
    print("ok gate rejects tampered artifacts and off-reference losses", flush=True)


def main() -> None:
    run_dir = os.path.join(run.ROOT, ".perfbench_out", "selftest")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = run.Runner(run.WORKLOAD_SEED, run_dir, {})
    check_alpha_200(runner)
    check_missing_wrap_point()
    check_gate_rejects(runner)
    check_traced_counts(runner)
    print("selftest passed")


if __name__ == "__main__":
    main()
