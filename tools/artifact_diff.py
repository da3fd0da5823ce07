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

``preset-rbf-d5`` is chaotic: its 2000 exact-flow steps from
uniform(-1000, 1000) weights turn a last-bit change of the 3-spin values
into an O(1) change of its result.  So it can tell that bits moved, but not
by how much, and its output line says so; size the moves of a bit note
only from jobs whose runs contract, such as the benchmark workloads.

The ``kernels`` job calls the kernels themselves rather than the CLI, since a
shape the jobs above never run can hide a moved bit.  On fixed seeded points
of the sphere it writes one file per kernel and shape holding the SHA-256 of
the output bytes: ``SpinTensor.eval_rows``, ``SpinTensor.grad_rows`` and one
exact-flow ``_Workspace.flow_drift`` (dc and dZ, alpha=0.2, normal weights)
for d in {2, 5, 10, 25} and rows (points or particles) in {1, 15, 16, 17,
300, 4096}.  For a 3-spin tensor and a 2-atom planted target at d in {5,
25}, on sigmoid ensembles of normal weights, it also hashes the streamed
final evaluation ``diagnostics._sampled_loss`` at n in {1, 16, 300} and
size in {1, 17, 4097}, and the final state of a 40-step SGD
``run_schedule`` (n=16) whose batch size goes from P to P^2 at step 20, for
P in {1, 12, 53}, with ``dynamics._WINDOW_ENTRIES`` set to 64 so that
batch windows also end inside a run of one batch size.  At d=5, for an rbf
unit at alpha=1 and at alpha=0.2 and for a sigmoid unit, it hashes
``units.network_eval_rows`` at n in {1, 3, 100, 300} on rows in {4095,
4096, 4097, 10000}, and ``_sampled_loss`` of the group of those four
ensembles on a 3-spin target at size in {4097, 10000}; on a tree whose
``_sampled_loss`` takes one ensemble, a group is one call per ensemble.
For the pair kernel and the SGD feature blocks, whose row blocks a block
rule cuts, it hashes, at n in {1, 16, 100, 250, 300, 512, 1024}: the pair
sums ``diagnostics.rbf_pair_terms`` (g and the quadratic form) and one
exact-flow ``_Workspace.flow_drift`` (alpha=1, d=5, normal weights), and,
for P in {1, 2, 12, 53, 144, 2601} batch points, ``_Workspace.batch_drift``
(dc, dZ and the batch loss) of an rbf unit at alpha=1, d=5 and of a
sigmoid unit at d=10.  A differing file names the kernel and shape that
moved.  It takes a few seconds per tree.

A job is ``same`` when both sides exit 0 and write at least one file, and
every file it writes (run CSVs, checkpoints, ``summary.json``,
``failures.json``) exists on both sides with the same bytes; ``config.cfg``
is skipped: it echoes ``--out``.  A job
that exits non-zero on both sides is ``FAIL``, whatever files it left, and
any other job is ``DIFF``.  Prints one line per job and a count of each
kind, and exits 0 when every job is ``same``, 1 otherwise.  Uses the
standard library only.
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
KERNELS = """
import hashlib, inspect, os, sys
import numpy as np
import spinnet.dynamics as dyn
from spinnet.diagnostics import _sampled_loss, rbf_pair_terms
from spinnet.dynamics import DiagnosticPlan, InitSpec, TrainConfig, _Workspace, run_schedule
from spinnet.geometry import sample_sphere_rows
from spinnet.rng import stream
from spinnet.targets import PlantedTarget, SpinTensor
from spinnet.units import RbfUnit, SigmoidUnit, network_eval_rows

def sampled_losses(es, t, size, rng_key):
    # a tree whose _sampled_loss takes one ensemble gets one call per ensemble
    if next(iter(inspect.signature(_sampled_loss).parameters)) == "ensembles":
        return _sampled_loss(es, t, size, stream(*rng_key))
    return [_sampled_loss(e, t, size, stream(*rng_key)) for e in es]

out = sys.argv[sys.argv.index("--out") + 1]
os.makedirs(out, exist_ok=True)

def write(name, arrays):
    digest = hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()
    with open(os.path.join(out, name), "w") as fh:
        fh.write(digest + "\\n")

for d in (2, 5, 10, 25):
    t = SpinTensor.sample(d, 11)
    for rows in (1, 15, 16, 17, 300, 4096):
        g = np.random.default_rng([d, rows])
        X = g.standard_normal((rows, d))
        X *= np.sqrt(d) / np.linalg.norm(X, axis=1)[:, None]
        ws = _Workspace(RbfUnit(alpha=0.2, d=d), g.standard_normal(rows), X, exact=True)
        for name, arrays in (("eval", [t.eval_rows(X)]), ("grad", [t.grad_rows(X)]),
                             ("flow_drift", ws.flow_drift(t))):
            write(f"{name}_d{d}_rows{rows}", arrays)

init = InitSpec(c_law="normal")
t = SpinTensor.sample(5, 11)
for uname, unit in (("rbf1", RbfUnit(alpha=1.0, d=5)), ("rbf02", RbfUnit(alpha=0.2, d=5)),
                    ("sigmoid", SigmoidUnit(d=5))):
    group = [init.sample(unit, n, stream(5, "net", n)) for n in (1, 3, 100, 300)]
    for e in group:
        for rows in (4095, 4096, 4097, 10000):
            X = sample_sphere_rows(5, rows, stream(5, "points", rows))
            write(f"network_eval_{uname}_n{e.n}_rows{rows}", [network_eval_rows(e, X)])
    for size in (4097, 10000):
        write(f"sampled_loss_group_{uname}_size{size}",
              [sampled_losses(group, t, size, (5, "big", size))])

t = SpinTensor.sample(5, 11)
for n in (1, 16, 100, 250, 300, 512, 1024):
    e = init.sample(RbfUnit(alpha=1.0, d=5), n, stream(5, "pairs", n))
    g, quad = rbf_pair_terms(e)
    write(f"pair_terms_n{n}", [g, quad])
    write(f"pair_flow_drift_n{n}", _Workspace(e.unit, e.c, e.z, exact=True).flow_drift(t))
for uname, d, unit in (("rbf", 5, RbfUnit(alpha=1.0, d=5)), ("sigmoid", 10, SigmoidUnit(d=10))):
    t = SpinTensor.sample(d, 11)
    for n in (1, 16, 100, 250, 300, 512, 1024):
        e = init.sample(unit, n, stream(d, "sgd", n))
        for P in (1, 2, 12, 53, 144, 2601):
            X = sample_sphere_rows(d, P, stream(d, "batch", P))
            ws = _Workspace(unit, e.c, e.z, batch=P)
            write(f"batch_drift_{uname}_n{n}_P{P}",
                  ws.batch_drift(unit._lift(X), t.eval_rows(X), loss=True))

dyn._WINDOW_ENTRIES = 64
for d in (5, 25):
    unit = SigmoidUnit(d=d)
    atoms = np.random.default_rng([d, 2]).standard_normal((2, d + 1))
    for kind, t in (("spin", SpinTensor.sample(d, 11)),
                    ("planted", PlantedTarget(unit=unit, weights=np.array([0.7, -1.2]),
                                              locations=atoms))):
        for n in (1, 16, 300):
            e = init.sample(unit, n, stream(d, "init", n))
            for size in (1, 17, 4097):
                loss = sampled_losses([e], t, size, (1000 * d + n, "big", size))[0]
                write(f"sampled_loss_{kind}_d{d}_n{n}_size{size}", [loss])
        for P in (1, 12, 53):
            cfg = TrainConfig(dt=0.05, steps=40, dynamics="sgd", init=init, master_seed=P,
                              batch_schedule=((0, P), (20, P * P)))
            e, _ = run_schedule(cfg, init.sample(unit, 16, stream(P, "init")), t, DiagnosticPlan())
            write(f"sgd_{kind}_d{d}_P{P}", [e.c, e.z])
"""
# jobs whose runs amplify a last-bit change to an O(1) change of the result
CHAOTIC = {"preset-rbf-d5"}
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
    """(name, interpreter argv before --out) of every job, in run order."""
    out = []
    for name, wl in benchmark_workloads().items():
        for seed in SEEDS:
            argv = list(wl.argv) + ["--seed", str(seed), "--threads", str(wl.threads)]
            out.append((f"{name}-seed{seed}", ["-m", "spinnet.cli", *argv]))
    out.extend((name, ["-m", "spinnet.cli", *argv]) for name, argv in PRESETS)
    out.append(("kernels", ["-c", KERNELS]))
    return out


def run_job(src: str, argv: list, out_dir: str) -> tuple[int, float]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv, "--out", out_dir],
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
    differ_jobs = failed = total = 0
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
            if codes[0] and codes[1]:
                status = "FAIL"
                failed += 1
            elif differ or codes[0] or codes[1] or not files[0]:
                status = "DIFF"
                differ_jobs += 1
            else:
                status = "same"
            print(f"{status} {name}: {len(files[1])} files, "
                  f"exit {codes[0]}/{codes[1]}, {secs[0]:.1f}/{secs[1]:.1f} s"
                  + (f", differ: {', '.join(differ)}" if differ else "")
                  + (", chaotic: size moved bits from other jobs" if name in CHAOTIC else ""),
                  flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{total} files compared, {differ_jobs} job(s) differ, {failed} job(s) failed")
    return 1 if differ_jobs or failed else 0


if __name__ == "__main__":
    sys.exit(main())
