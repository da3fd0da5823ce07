"""Span tracer that wraps spinnet's public callables from outside the package.

Each wrap point is a dotted name.  The callable found under that name is
replaced by a timing wrapper at every binding a caller looks up: the
defining module or class, and every ``spinnet.*`` module that imported the
same object with ``from .x import name``.  Names that no longer resolve are
reported in ``missing`` instead of failing the run.

Spans (name, start, end, parent, work, failed) are kept in flat arrays and
written out once at the end.  ``summarize`` turns them into the per-layer
metrics: call counts, inclusive and self time, work counts (rows, entries,
bytes) and a few derived ratios.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

MODULES = ("rng", "geometry", "targets", "units", "diagnostics", "dynamics", "experiments", "cli")


def _rows(args, kwargs, result):
    return result.shape[0]


def _entries(args, kwargs, result):
    return result.size


def _eval_entries(args, kwargs, result):
    # network_eval_rows(e, X): one feature entry per (point, particle) pair
    return result.size * args[0].n


def _bytes_arg(pos):
    def work(args, kwargs, result):
        return os.path.getsize(args[pos])
    return work


ROWS, ENTRIES, EVAL_ENTRIES = ("rows", _rows), ("entries", _entries), ("entries", _eval_entries)

# (span name, dotted path, (metric suffix, work counter) or None).  Two paths
# share a span name when two classes implement the same interface method.
WRAP_POINTS = (
    ("cli.main", "spinnet.cli.main", None),
    ("experiments.build_spec", "spinnet.experiments.build_spec", None),
    ("experiments.run_experiment", "spinnet.experiments.run_experiment", None),
    ("experiments.run_cell", "spinnet.experiments.run_cell", None),
    ("experiments.merge_reports", "spinnet.experiments.merge_reports", None),
    ("experiments.write_summary", "spinnet.experiments.write_summary", None),
    ("dynamics.run_schedule", "spinnet.dynamics.run_schedule", None),
    ("dynamics.save_checkpoint", "spinnet.dynamics.save_checkpoint", ("bytes", _bytes_arg(0))),
    ("diagnostics.draw_batch", "spinnet.diagnostics.draw_batch", None),
    ("diagnostics.empirical_loss", "spinnet.diagnostics.empirical_loss", None),
    ("diagnostics.signed_error_summary", "spinnet.diagnostics.signed_error_summary", None),
    ("diagnostics.rbf_exact_loss", "spinnet.diagnostics.rbf_exact_loss", None),
    ("diagnostics.to_csv", "spinnet.diagnostics.ExperimentReport.to_csv", ("bytes", _bytes_arg(1))),
    ("diagnostics.read_report", "spinnet.diagnostics.read_report", None),
    ("units.features", "spinnet.units.RbfUnit.features", ENTRIES),
    ("units.features", "spinnet.units.SigmoidUnit.features", ENTRIES),
    ("units.weighted_grad_sum", "spinnet.units.RbfUnit.weighted_grad_sum", None),
    ("units.weighted_grad_sum", "spinnet.units.SigmoidUnit.weighted_grad_sum", None),
    ("units.network_eval_rows", "spinnet.units.network_eval_rows", EVAL_ENTRIES),
    ("targets.evaluate_target", "spinnet.targets.evaluate_target", ROWS),
    ("targets.target_grad_rows", "spinnet.targets.target_grad_rows", ROWS),
    ("geometry.sample_sphere_rows", "spinnet.geometry.sample_sphere_rows", ROWS),
    ("geometry.tangent_project_rows", "spinnet.geometry.tangent_project_rows", None),
    ("geometry.retract_rows", "spinnet.geometry.retract_rows", None),
    ("rng.stream", "spinnet.rng.stream", None),
    ("rng.subseed", "spinnet.rng.subseed", None),
    ("rng.generator", "spinnet.rng.RngStream.generator", None),
)

WORK_KEYS = {name: work[0] for name, _, work in WRAP_POINTS if work is not None}


def schedule_steps(cfg, args, kwargs) -> int:
    """Steps a run_schedule(cfg, e0, target, plan, start_step) call takes."""
    start_step = kwargs.get("start_step", args[2] if len(args) > 2 else 0)
    return cfg.steps - start_step


def resolve(path: str):
    """(owner, attribute, object) for a dotted name, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        obj = getattr(owner, parts[-1], None)
        return None if obj is None else (owner, parts[-1], obj)
    return None


def replace(owner, attr: str, original, replacement) -> None:
    """Swap ``original`` for ``replacement`` at its home and at every
    ``from .x import name`` copy in the spinnet modules."""
    setattr(owner, attr, replacement)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("spinnet"):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)


class Tracer:
    """Collects spans from the wrappers it installs; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.failed = array("b")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self, points=WRAP_POINTS) -> None:
        self._install_schedule_counters()
        for name, path, work in points:
            found = resolve(path)
            if found is None:
                self.missing.append(path)
                continue
            if name not in self.names:
                self.names.append(name)
            owner, attr, original = found
            replace(owner, attr, original, self._wrap(self.names.index(name), original, work))

    def _wrap(self, nid: int, fn, work):
        count = None if work is None else work[1]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        works, failed, stack = self.work, self.failed, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            works.append(0)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                works[idx] = count(args, kwargs, result)
            return result

        return wrapper

    def _install_schedule_counters(self) -> None:
        """Count steps, probe rows and exact-flow pair entries per run_schedule
        call.  Installed before the timing wrappers, so it runs inside the
        run_schedule span."""
        found = resolve("spinnet.dynamics.run_schedule")
        if found is None:
            return
        owner, attr, original = found
        counters = self.counters

        @functools.wraps(original)
        def counted(cfg, e0, *args, **kwargs):
            final, report = original(cfg, e0, *args, **kwargs)
            steps = schedule_steps(cfg, args, kwargs)
            counters["dynamics.steps"] = counters.get("dynamics.steps", 0) + steps
            counters["dynamics.probe_rows"] = counters.get("dynamics.probe_rows", 0) + report.rows
            if not cfg.batch_schedule:  # batch-free exact flow: n x n pair block per step
                counters["dynamics.pair_entries"] = (
                    counters.get("dynamics.pair_entries", 0) + steps * e0.n * e0.n
                )
            return final, report

        replace(owner, attr, original, counted)

    def dump(self, path: str) -> None:
        blob = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "work": self.work.tolist(),
            "failed": self.failed.tolist(),
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(blob, fh)


def summarize(blob: dict, wall_s: float) -> dict:
    """Per-layer metrics from dumped spans and the traced wall time.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap, so the self times of all
    spans add up to the total time covered by root spans, and the rest of
    the wall time is reported as ``trace.unattributed_s``.
    """
    names = blob["names"]
    nid, parent, start, end = blob["name_id"], blob["parent"], blob["start"], blob["end"]
    work, failed = blob["work"], blob["failed"]
    count = len(nid)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]

    id_of = {name: k for k, name in enumerate(names)}
    sched = id_of.get("dynamics.run_schedule", -1)
    cell = id_of.get("experiments.run_cell", -1)
    draws = {id_of.get("geometry.sample_sphere_rows", -1), id_of.get("targets.evaluate_target", -1)}
    final_eval = id_of.get("diagnostics.empirical_loss", -1)
    net_eval = id_of.get("units.network_eval_rows", -1)

    per = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "failed": 0} for name in names}
    module_self = {m: 0.0 for m in MODULES}
    under_sched = [False] * count
    evals_in_schedule = 0
    final_eval_s = 0.0
    eval_draw_s = 0.0
    for i in range(count):
        k = nid[i]
        p = parent[i]
        under_sched[i] = p >= 0 and (under_sched[p] or nid[p] == sched)
        self_s = dur[i] - child[i]
        rec = per[names[k]]
        rec["calls"] += 1
        rec["s"] += dur[i]
        rec["self_s"] += self_s
        rec["work"] += work[i]
        rec["failed"] += failed[i]
        module_self[names[k].split(".", 1)[0]] += self_s
        if k == net_eval and under_sched[i]:
            evals_in_schedule += 1
        if p >= 0 and nid[p] == cell:
            if k == final_eval:
                final_eval_s += dur[i]
            elif k in draws:
                eval_draw_s += dur[i]

    out: dict = {}
    for name, rec in per.items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.s"] = rec["s"]
        out[f"{name}.self_s"] = rec["self_s"]
        if name in WORK_KEYS:
            out[f"{name}.{WORK_KEYS[name]}"] = rec["work"]
    for module, secs in module_self.items():
        out[f"{module}.self_s"] = secs
    counters = blob["counters"]
    for key in ("dynamics.steps", "dynamics.pair_entries"):
        out[key] = counters.get(key, 0)
    probe_rows = counters.get("dynamics.probe_rows", 0)
    out["diagnostics.evals_per_probe"] = evals_in_schedule / probe_rows if probe_rows else 0.0
    out["dynamics.step_failures"] = per.get("dynamics.run_schedule", {}).get("failed", 0)
    out["experiments.cell_failures"] = per.get("experiments.run_cell", {}).get("failed", 0)
    out["experiments.final_eval_s"] = final_eval_s
    out["experiments.eval_batch_draw_s"] = eval_draw_s
    attributed = sum(module_self.values())
    out["trace.wall_s"] = wall_s
    out["trace.attributed_s"] = attributed
    out["trace.root_s"] = sum(dur[i] for i in range(count) if parent[i] < 0)
    out["trace.unattributed_s"] = wall_s - attributed
    out["trace.missing"] = len(blob["missing"])
    out["trace.spans"] = count
    return out


def is_exact_count(metric: str) -> bool:
    """Metrics that must repeat exactly across traced runs of one seed."""
    return metric.endswith((".calls", ".rows", ".entries", ".bytes")) or metric in (
        "dynamics.steps",
        "dynamics.pair_entries",
    )
