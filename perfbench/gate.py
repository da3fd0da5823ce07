"""Correctness gate over the artifacts of one spinnet grid job.

The gate reads the files the CLI wrote, without importing spinnet, and
returns the cells that failed with the first reason found for each.  A cell
fails when the job exited non-zero, when it is listed in failures.json, or
when its probe CSV breaks one of these checks:

* the CSV and checkpoint exist and the last probe row is the final step;
* signed_plus + signed_minus == resid_nonzero exactly on every row;
* sphere_dev <= 1e-10 on every row of an RBF run;
* every loss column is finite where it is defined (exact_loss only for RBF
  runs, batch_loss only on SGD rows after step 0);
* final_loss_big is finite, positive, within BIG_BATCH_RTOL of the last
  probe row's loss and, for a seed with a pinned reference, within
  REFERENCE_RTOL of it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

SPHERE_TOL = 1e-10
# final_loss_big and the last probe row evaluate the same final state on
# the large final batch and on the 4096-point probe batch; they differ only
# by sampling error, at most 6% on every cell seen while pinning.
BIG_BATCH_RTOL = 0.25
# Wide enough for a change that only reorders floating-point sums: such a
# change moved final_loss_big by about 1e-15 relative on every workload.
REFERENCE_RTOL = 1e-6
# config.cfg echoes execution options (out_dir, threads), not results.
UNDIGESTED = ("config.cfg",)


def cell_tag(n: int, r: int, s: int) -> str:
    return f"n{n}_r{r}_s{s}"


def read_csv(path: str) -> tuple[dict, list[dict]]:
    """(summaries, rows) of a spinnet-report v1 CSV; values parsed as floats."""
    summaries: dict = {}
    header = None
    rows = []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != "# spinnet-report v1":
            raise ValueError(f"unrecognized report header {first!r}")
        for line in fh:
            line = line.strip()
            if line.startswith("# summaries "):
                summaries = json.loads(line[len("# summaries "):])
            elif not line or line.startswith("#"):
                continue
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return summaries, rows


def check_cell(csv_path: str, ckpt_path: str, unit: str, steps: int, reference) -> str | None:
    """First failed check of one cell, or None."""
    if not os.path.exists(csv_path) or not os.path.exists(ckpt_path):
        return "missing artifacts"
    try:
        summaries, rows = read_csv(csv_path)
    except (OSError, ValueError) as err:
        return f"unreadable CSV: {err}"
    if not rows or rows[-1].get("step") != steps:
        return f"last probe row is not step {steps}"
    for row in rows:
        step = int(row["step"])
        if row["signed_plus"] + row["signed_minus"] != row["resid_nonzero"]:
            return f"signed-error identity broken at step {step}"
        if not math.isfinite(row["loss"]):
            return f"non-finite loss at step {step}"
        if unit == "rbf":
            if not row["sphere_dev"] <= SPHERE_TOL:
                return f"sphere_dev {row['sphere_dev']!r} at step {step}"
            if not math.isfinite(row["exact_loss"]):
                return f"non-finite exact_loss at step {step}"
        elif row["P"] > 0 and step > 0 and not math.isfinite(row["batch_loss"]):
            return f"non-finite batch_loss at step {step}"
    big = summaries.get("final_loss_big")
    if not isinstance(big, float) or not math.isfinite(big) or big <= 0.0:
        return f"bad final_loss_big {big!r}"
    if abs(big - rows[-1]["loss"]) > BIG_BATCH_RTOL * rows[-1]["loss"]:
        return f"final_loss_big {big!r} disagrees with the last probe loss {rows[-1]['loss']!r}"
    if reference is not None and abs(big - reference) > REFERENCE_RTOL * abs(reference):
        return f"final_loss_big {big!r} outside the band around reference {reference!r}"
    return None


def check_job(out_dir: str, cells, unit: str, steps: int, exit_code: int, references: dict) -> dict:
    """{cell tag: reason} for every failed cell of one job."""
    tags = [cell_tag(*c) for c in cells]
    if exit_code != 0:
        return {tag: f"job exited {exit_code}" for tag in tags}
    failed = {}
    listed = os.path.join(out_dir, "failures.json")
    if os.path.exists(listed):
        with open(listed) as fh:
            for entry in json.load(fh).get("failures", []):
                failed[cell_tag(*entry["cell"])] = f"failures.json: {entry.get('error')}"
    for tag in tags:
        if tag in failed:
            continue
        reason = check_cell(
            os.path.join(out_dir, f"run_{tag}.csv"),
            os.path.join(out_dir, f"ckpt_{tag}.json"),
            unit,
            steps,
            references.get(tag),
        )
        if reason is not None:
            failed[tag] = reason
    return failed


def final_losses(out_dir: str, cells) -> dict:
    """{cell tag: final_loss_big} as written by a job; used to pin references."""
    out = {}
    for cell in cells:
        tag = cell_tag(*cell)
        summaries, _ = read_csv(os.path.join(out_dir, f"run_{tag}.csv"))
        out[tag] = summaries["final_loss_big"]
    return out


def digest(out_dir: str) -> str:
    """sha256 over the names and bytes of a job's artifacts."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in UNDIGESTED:
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()
