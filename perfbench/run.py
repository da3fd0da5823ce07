"""spinnet benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sgd-quench --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  With ``--trace 0`` the workload's CLI job is repeated in fresh
processes for ``--seconds`` seconds and the end-to-end metrics are the
medians over the repetitions.  With ``--trace 1`` rounds of one untraced
and one traced job on one worker (plus one untraced job at the workload's
thread count, if that is not 1) fill ``--seconds``; the per-layer metrics
are medians over the traced jobs.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import spans  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_SEED = 1  # the seed quoted in results
CLAIMS_SEED = 2  # second pinned seed, kept apart for checking claims
MIN_REPS = 3
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    why: str
    argv: tuple
    cells: tuple
    steps: int
    unit: str
    threads: int


def _grid(n_list, realizations):
    return tuple((n, r, 0) for n in n_list for r in range(realizations))


WORKLOADS = {
    "sgd-quench": Workload(
        why="sigmoid SGD on 12x64 arrays: per-call overhead in batch draws, "
        "features and probes; no pair kernel, tangent projection or retraction",
        argv=("quench", "--preset", "paper-sigmoid-d10", "--scale", "0.01"),
        cells=_grid((64,), 1),
        steps=2000,
        unit="sigmoid",
        threads=1,
    ),
    "rbf-flow": Workload(
        why="exact RBF flow: n x n pair block, target gradient, projection and "
        "retraction every step, then a 10^5-point final evaluation per cell",
        argv=(
            "scale", "--preset", "paper-rbf-d5", "--scale", "0.0025",
            "--set", "n_list=64,128,256", "--set", "realizations=1",
            "--set", "final_eval_batch_size=100000", "--set", "c_init=normal",
        ),
        cells=_grid((64, 128, 256), 1),
        steps=500,
        unit="rbf",
        threads=1,
    ),
    "scaling-grid": Workload(
        why="criterion-7 grid: twelve small noise-free cells with dense exact-loss "
        "probes on a 2-worker pool; no per-step random numbers",
        argv=(
            "scale", "--set", "experiment=rbf-scaling", "--set", "d=5",
            "--set", "unit=rbf", "--set", "alpha=1.0",
            "--set", "n_list=16,32,64,128", "--set", "realizations=3",
            "--set", "dynamics=gd", "--set", "dt=0.001", "--set", "steps=1000",
            "--set", "c_init=zero", "--set", "probe_every=100",
            "--set", "eval_batch_size=4096", "--set", "final_eval_batch_size=100000",
        ),
        cells=_grid((16, 32, 64, 128), 3),
        steps=1000,
        unit="rbf",
        threads=2,
    ),
}

# alpha * d = 1000 overflows exp(alpha x.z): every cell must be recorded failed
SELF_CHECK = Workload(
    why="gate self-check",
    argv=(
        "scale", "--preset", "paper-rbf-d5", "--set", "alpha=200",
        "--set", "n_list=16,32,64", "--set", "realizations=1", "--set", "steps=10",
    ),
    cells=_grid((16, 32, 64), 1),
    steps=10,
    unit="rbf",
    threads=1,
)


def say(line: str) -> None:
    print(line, flush=True)


class Runner:
    """Starts job processes for one benchmark run and gates their output."""

    def __init__(self, seed: int, run_dir: str, references: dict):
        self.seed = seed
        self.run_dir = run_dir
        self.references = references
        self.count = 0
        self.t_start = time.perf_counter()
        self.env = dict(os.environ, **BLAS_ENV)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def job(self, wl: Workload | None, mode: str = "timed", threads: int | None = None) -> dict:
        """Run one job process; wl None only imports the package."""
        self.count += 1
        tag = f"job{self.count:03d}"
        work = os.path.join(self.run_dir, tag)
        os.makedirs(work)
        out_dir = os.path.join(work, "out")
        spec = {
            "argv": None,
            "mode": mode,
            "result": os.path.join(work, "result.json"),
            "timer_dir": work,
            "spans": os.path.join(work, "spans.json"),
        }
        if wl is not None:
            spec["argv"] = list(wl.argv) + [
                "--seed", str(self.seed), "--out", out_dir,
                "--threads", str(threads or wl.threads),
            ]
        budget = HARD_LIMIT_S - (time.perf_counter() - self.t_start)
        t0 = time.perf_counter()
        with open(os.path.join(work, "stderr.txt"), "w") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(1.0, budget))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = -signal.SIGKILL
        res = {"exit": code, "elapsed_s": time.perf_counter() - t0, "work": work}
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                res.update(json.load(fh))
        elif wl is None:
            raise RuntimeError(f"import-only job failed with exit {code}; see {work}/stderr.txt")
        if wl is None:
            return res
        res["failed"] = gate.check_job(
            out_dir, wl.cells, wl.unit, wl.steps, code, self.references
        )
        res["digest"] = gate.digest(out_dir) if os.path.isdir(out_dir) else "none"
        sched_s = steps = 0
        cells_s = []
        for fname in sorted(os.listdir(work)):
            if fname.endswith(".jsonl"):
                with open(os.path.join(work, fname)) as fh:
                    for line in fh:
                        rec = json.loads(line)
                        if "run_schedule" in rec:
                            sched_s += rec["run_schedule"]
                            steps += rec["steps"]
                        else:
                            cells_s.append(rec["run_cell"])
        res["step_us"] = 1e6 * sched_s / steps if steps else None
        res["cells_s"] = cells_s
        return res


def tail_summary(values: list, unit: str) -> str:
    """Median, sample count and the highest percentile with >= 10 samples above it."""
    vals = sorted(values)
    n = len(vals)
    text = f"median {statistics.median(vals):.6g} {unit}, n={n}"
    k = n - 10  # the k-th smallest value has n - k = 10 samples beyond it
    if n >= 20:
        text += f", p{100.0 * k / n:.0f} {vals[k - 1]:.6g} {unit}"
    else:
        text += ", no tail percentile (fewer than 20 samples)"
    return text


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def print_record(args, versions: dict) -> None:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    say(f"perfbench workload={args.workload} seed={args.seed} claims_seed={CLAIMS_SEED} "
        f"trace={args.trace} seconds={args.seconds}")
    say(f"record cpus={os.cpu_count()} affinity={affinity} cpu_model={cpu_model()!r}")
    say(f"record python={versions['python']} numpy={versions['numpy']} blas={versions['blas']!r} "
        + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))
    say(f"record commit={git_commit()}")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_references(workload: str, seed: int) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def tally(jobs: list, wl: Workload) -> tuple[int, int]:
    attempted = len(jobs) * len(wl.cells)
    failed = sum(len(j["failed"]) for j in jobs)
    return attempted, failed


def mark_digest_outliers(jobs: list, wl: Workload) -> None:
    """Jobs of one seed and code must write identical artifacts; a job whose
    digest differs from the most common one counts every cell as failed."""
    common = Counter(j["digest"] for j in jobs).most_common(1)[0][0]
    for j in jobs:
        if j["digest"] != common:
            j["failed"] = {gate.cell_tag(*c): "artifact digest differs from the other repetitions"
                           for c in wl.cells}


def run_untraced(runner: Runner, wl: Workload, seconds: float, metric_units: dict) -> dict:
    jobs = []
    t_start = time.perf_counter()
    while True:
        j = runner.job(wl)
        jobs.append(j)
        say(f"job {len(jobs)}: exit {j['exit']}, wall {j.get('wall_s', float('nan')):.4f} s, "
            f"step {j['step_us'] or float('nan'):.3f} us, "
            f"{len(wl.cells) - len(j['failed'])}/{len(wl.cells)} cells ok")
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(x["elapsed_s"] for x in jobs)
        if len(jobs) >= MIN_REPS and elapsed + typical > seconds:
            break
        if time.perf_counter() - runner.t_start + 2 * typical > HARD_LIMIT_S - 20:
            break
    mark_digest_outliers(jobs, wl)
    samples = {
        "wall_s": [j["wall_s"] for j in jobs if "wall_s" in j],
        "setup_s": [j["import_s"] for j in jobs if "import_s" in j],
        "step_us": [j["step_us"] for j in jobs if j["step_us"]],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs if "peak_rss_mb" in j],
    }
    attempted, failed = tally(jobs, wl)
    for name, vals in samples.items():
        if vals:
            say(f"metric {name}: {tail_summary(vals, metric_units[name])}")
    say(f"metric cell_fail_frac: {failed / attempted:.6g} ({failed} of {attempted} cells)")
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    metrics["cell_ok_frac"] = 1.0 - failed / attempted
    for j in jobs:
        for tag, reason in sorted(j["failed"].items()):
            say(f"failed {os.path.basename(j['work'])} {tag}: {reason}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "ok": True}


def run_traced(runner: Runner, wl: Workload, seconds: float) -> dict:
    """Rounds of (untraced serial job, traced serial job, and the untraced
    job at the workload's own thread count if that is not 1) for
    ``seconds``; time metrics are medians over rounds, counts must repeat."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        r = {"serial": runner.job(wl, threads=1), "traced": runner.job(wl, mode="traced", threads=1)}
        r["base"] = r["serial"] if wl.threads == 1 else runner.job(wl)
        rounds.append(r)
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(rounds)
        if len(rounds) >= 2 and elapsed + per_round > seconds:
            break
        if time.perf_counter() - runner.t_start + 2 * per_round > HARD_LIMIT_S - 20:
            break
    jobs = [j for r in rounds for j in {id(x): x for x in r.values()}.values()]
    ok = True
    if len({j["digest"] for j in jobs}) != 1:
        say("check FAILED: traced, serial and untraced jobs wrote different artifacts")
        ok = False
    summaries = []
    for r in rounds:
        j = r["traced"]
        path = os.path.join(j["work"], "spans.json")
        if not os.path.exists(path):
            say(f"check FAILED: {os.path.basename(j['work'])} wrote no spans (exit {j['exit']})")
            return {"metrics": {}, "attempted": 1, "failed": 1, "ok": False}
        with open(path) as fh:
            blob = json.load(fh)
        if blob["missing"] and not summaries:
            say(f"trace.missing: {', '.join(blob['missing'])}")
        summaries.append(spans.summarize(blob, j["wall_s"]))
    first = summaries[0]
    diff = sorted({k for s in summaries[1:] for k in first
                   if spans.is_exact_count(k) and first[k] != s.get(k)})
    if diff:
        say(f"check FAILED: counts differ between traced runs: {', '.join(diff)}")
        ok = False
    else:
        say(f"check ok: every count repeats exactly across {len(summaries)} traced runs")
    for s in summaries:
        if abs(s["trace.attributed_s"] - s["trace.root_s"]) > 1e-6 or s["trace.unattributed_s"] < 0:
            say(f"check FAILED: self times {s['trace.attributed_s']:.6f} s do not add up to "
                f"root spans {s['trace.root_s']:.6f} s within traced wall {s['trace.wall_s']:.6f} s")
            ok = False
    metrics = {k: statistics.median(s[k] for s in summaries) for k in first}

    def median_of(key, pick):
        vals = [r[pick][key] for r in rounds if key in r[pick]]
        return statistics.median(vals) if vals else math.inf

    cells = [r["serial"]["cells_s"] for r in rounds if r["serial"]["cells_s"]]
    metrics["experiments.cell_s_sum"] = statistics.median(sum(c) for c in cells) if cells else 0.0
    metrics["experiments.cell_s_max"] = statistics.median(max(c) for c in cells) if cells else 0.0
    metrics["experiments.pool_efficiency"] = metrics["experiments.cell_s_sum"] / (
        wl.threads * median_of("wall_s", "base"))
    serial_wall = median_of("wall_s", "serial")
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / serial_wall - 1.0
    metrics["cli.import_s"] = statistics.median(j["import_s"] for j in jobs if "import_s" in j)
    say(f"trace: wall {metrics['trace.wall_s']:.4f} s = self {metrics['trace.attributed_s']:.4f} s "
        f"+ unattributed {metrics['trace.unattributed_s']:.6f} s; "
        f"overhead {metrics['trace.overhead_frac']:+.3f} over untraced serial {serial_wall:.4f} s; "
        f"{metrics['trace.spans']:.0f} spans per traced run; medians of {len(rounds)} rounds")
    attempted, failed = tally(jobs, wl)
    for j in jobs:
        for tag, reason in sorted(j["failed"].items()):
            say(f"failed {os.path.basename(j['work'])} {tag}: {reason}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "ok": ok,
            "samples": len(rounds)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master_seed of every job")
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spinnet", "cli.py")):
        sys.stderr.write(f"perfbench: no spinnet sources under {ROOT}/src\n")
        return 2
    bench = load_benchmark()
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(args.seed, run_dir, load_references(args.workload, args.seed))

    # first import compiles bytecode; users do not pay that on every call
    warm = runner.job(None)
    if not warm["spinnet_file"].startswith(os.path.join(ROOT, "src")):
        sys.stderr.write(f"perfbench: imported spinnet from {warm['spinnet_file']}\n")
        return 2
    print_record(args, warm["versions"])
    say(f"workload {args.workload}: {wl.why}")

    check = runner.job(SELF_CHECK)
    self_ok = len(check["failed"]) == len(SELF_CHECK.cells)
    say(f"selfcheck alpha=200: exit {check['exit']}, {len(check['failed'])} of "
        f"{len(SELF_CHECK.cells)} cells recorded failed ({'ok' if self_ok else 'FAILED'})")

    if args.trace:
        wanted = bench["per_layer"]
        outcome = run_traced(runner, wl, args.seconds)
    else:
        wanted = bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        outcome = run_untraced(runner, wl, args.seconds, units)
    measured = outcome["metrics"]
    if args.trace:  # a layer whose wrap point is gone, or a failed trace, reads zero
        measured = {m["name"]: measured.get(m["name"], 0.0) for m in wanted}
        for m in wanted:
            say(f"metric {m['name']}: {measured[m['name']]:.6g} {m['unit']} "
                f"(median of {outcome.get('samples', 0)} traced runs)")
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.stderr.write(f"perfbench: metrics not measured: {missing}\n")
        return 2
    say(f"run took {time.perf_counter() - runner.t_start:.1f} s in {runner.count} processes")
    print(json.dumps({
        "correct": bool(self_ok and outcome["ok"] and outcome["failed"] == 0),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
