"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC_JSON

SPEC_JSON is an object with
  argv       spinnet CLI arguments, or null to only import the package;
  mode       "timed" (one clock read around each run_schedule and run_cell
             call) or "traced" (spans around every public callable);
  result     path of the result JSON to write;
  timer_dir  directory for the per-process "timed" records;
  spans      path of the span dump ("traced" only).

The job times ``import spinnet.cli`` first, so the import is measured
before anything else of spinnet is loaded.  It exits with the CLI's exit
code.
"""
import sys
import time

_t0 = time.perf_counter()
import spinnet.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import spans  # noqa: E402


def _append_record(timer_dir: str, record: dict) -> None:
    # one file per process, so pool workers never share a file
    with open(os.path.join(timer_dir, f"{os.getpid()}.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


def install_timers(timer_dir: str) -> None:
    """Record the duration of every run_schedule call (with its step count)
    and of every run_cell call, in whichever process runs it."""
    clock = time.perf_counter

    found = spans.resolve("spinnet.dynamics.run_schedule")
    if found is not None:
        owner, attr, schedule = found

        @functools.wraps(schedule)
        def timed_schedule(cfg, e0, *args, **kwargs):
            t0 = clock()
            out = schedule(cfg, e0, *args, **kwargs)
            secs = clock() - t0
            steps = spans.schedule_steps(cfg, args, kwargs)
            _append_record(timer_dir, {"run_schedule": secs, "steps": steps})
            return out

        spans.replace(owner, attr, schedule, timed_schedule)

    found = spans.resolve("spinnet.experiments.run_cell")
    if found is not None:
        owner, attr, cell = found

        @functools.wraps(cell)
        def timed_cell(*args, **kwargs):
            t0 = clock()
            out = cell(*args, **kwargs)
            _append_record(timer_dir, {"run_cell": clock() - t0})
            return out

        spans.replace(owner, attr, cell, timed_cell)


def _versions() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"import_s": IMPORT_S, "spinnet_file": spinnet.cli.__file__}
    code = 0
    if spec.get("argv") is None:
        result["versions"] = _versions()
    else:
        tracer = None
        if spec["mode"] == "traced":
            tracer = spans.Tracer()
            tracer.install()
        else:
            install_timers(spec["timer_dir"])
        main_fn = spinnet.cli.main  # looked up after the wrappers are in place
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main_fn(spec["argv"])
            result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.dump(spec["spans"])
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = rss_kb / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    # A spawn or forkserver pool worker re-imports this script as
    # __mp_main__ with the parent's argv; forked workers inherit the timers.
    _spec = json.loads(sys.argv[1])
    if _spec.get("mode") == "timed":
        install_timers(_spec["timer_dir"])
