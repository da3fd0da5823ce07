"""Run the benchmark jobs and both presets on two source trees and diff the
artifacts they write.

    python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are directories that hold the ``spinnet`` package,
for example the ``src/`` of two checkouts.  Each job runs once per tree, in a
fresh interpreter with that tree first on PYTHONPATH and one BLAS thread:

* the three benchmark workloads of ``perfbench/run.py`` (its ``WORKLOADS``,
  at their own thread counts) on seeds 1 and 2;
* ``train --preset paper-rbf-d5 --scale 0.01`` and
  ``train --preset paper-sigmoid-d10 --scale 0.01``;
* the sigmoid preset as batch Langevin (``--set dynamics=langevin --set
  beta=1000``), the one job that draws batch and noise streams together;
* the rbf preset as SGD from normal weights (``sgd-rbf-d5``), the one job
  whose probes evaluate the pair loss of a batch state;
* the rbf preset at d=25 with n=16 and n=100 (``rbf-d25``), the one job
  whose 3-spin and network row blocks move bits when they are cut
  differently.  It runs 200 steps at the preset's dt=1e-3 with alpha=0.2,
  so alpha*d = 5 as in the preset: with alpha=1 the run diverges at d=25
  from dt=3e-6 up, and at a smaller dt the last bits of f(z_i) never
  reach the written state;
* the sigmoid preset at d=25 with n=5 (P=1) and n=64 (P=12, then 144 after
  the quench) (``sgd-d25``), the one job with one-row batches, whose 3-spin
  values move bits when a one-row gemm gives their first contraction.

``sgd-rbf-d5`` and ``rbf-d25`` run two n values, fewer than a scaling study
accepts, so they set ``experiment=train``.

Every file a job writes (run CSVs, checkpoints, ``summary.json``,
``failures.json``) must exist on both sides with the same bytes, and the
exit codes must agree.  ``config.cfg`` is skipped: it echoes ``--out``.
Prints one line per job and exits 0 when everything matches, 1 otherwise.
Uses the standard library only.
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
PRESETS = (
    ("preset-rbf-d5", ("train", "--preset", "paper-rbf-d5", "--scale", "0.01")),
    ("preset-sigmoid-d10", ("train", "--preset", "paper-sigmoid-d10", "--scale", "0.01")),
    ("langevin-sigmoid-d10", ("train", "--preset", "paper-sigmoid-d10", "--scale", "0.01",
                              "--set", "dynamics=langevin", "--set", "beta=1000")),
    ("sgd-rbf-d5", ("train", "--preset", "paper-rbf-d5", "--scale", "0.01",
                    "--set", "experiment=train",
                    "--set", "dynamics=sgd", "--set", "c_init=normal",
                    "--set", "n_list=16,64", "--set", "realizations=1")),
    ("rbf-d25", ("train", "--preset", "paper-rbf-d5", "--scale", "0.001",
                 "--set", "experiment=train",
                 "--set", "d=25", "--set", "n_list=16,100", "--set", "realizations=1",
                 "--set", "c_init=normal", "--set", "alpha=0.2")),
    ("sgd-d25", ("train", "--preset", "paper-sigmoid-d10", "--scale", "0.01",
                 "--set", "d=25", "--set", "n_list=5,64")),
)
SKIPPED = {"config.cfg"}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def benchmark_workloads() -> dict:
    """The WORKLOADS table of perfbench/run.py, imported without running it."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def jobs() -> list:
    """(name, CLI argv) of every job, in run order."""
    out = []
    for name, wl in benchmark_workloads().items():
        for seed in SEEDS:
            argv = list(wl.argv) + ["--seed", str(seed), "--threads", str(wl.threads)]
            out.append((f"{name}-seed{seed}", argv))
    out.extend((name, list(argv)) for name, argv in PRESETS)
    return out


def run_job(src: str, argv: list, out_dir: str) -> tuple[int, float]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet.cli", *argv, "--out", out_dir],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, time.perf_counter() - t0


def artifacts(out_dir: str) -> dict:
    """Relative path -> bytes of every compared file under out_dir."""
    found = {}
    for base, _, names in os.walk(out_dir):
        for name in names:
            if name in SKIPPED:
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = fh.read()
    return found


def diff(a: dict, b: dict) -> list:
    """Sorted relative paths that are missing on one side or differ."""
    return sorted(p for p in set(a) | set(b) if a.get(p) != b.get(p))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src", help="source tree of the reference side")
    p.add_argument("change_src", help="source tree of the changed side")
    p.add_argument("--work", help="keep the outputs here (default: a removed temp dir)")
    args = p.parse_args(argv)
    srcs = [os.path.abspath(args.parent_src), os.path.abspath(args.change_src)]
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "spinnet", "cli.py")):
            sys.stderr.write(f"artifact_diff: no spinnet package under {src}\n")
            return 2
    work = args.work or tempfile.mkdtemp(prefix="artifact_diff_")
    bad = total = 0
    try:
        for name, job_argv in jobs():
            codes, secs, files = [], [], []
            for side, src in zip(("parent", "change"), srcs):
                out_dir = os.path.join(work, side, name)
                shutil.rmtree(out_dir, ignore_errors=True)
                code, elapsed = run_job(src, job_argv, out_dir)
                codes.append(code)
                secs.append(elapsed)
                files.append(artifacts(out_dir))
            differ = diff(*files)
            total += len(files[1])
            ok = not differ and codes[0] == codes[1] and bool(files[0])
            bad += not ok
            print(f"{'same' if ok else 'DIFF'} {name}: {len(files[1])} files, "
                  f"exit {codes[0]}/{codes[1]}, {secs[0]:.1f}/{secs[1]:.1f} s"
                  + (f", differ: {', '.join(differ)}" if differ else ""), flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{total} files compared, {bad} job(s) differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
