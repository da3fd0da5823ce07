"""Front-end contract: configs, presets, exit codes, artifacts, merging."""
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import spinnet.diagnostics as diag
import spinnet.experiments as experiments
from spinnet.cli import main
from spinnet.diagnostics import (
    REPORT_COLUMNS,
    ExperimentReport,
    draw_batch,
    empirical_loss,
    read_report,
)
from spinnet.dynamics import InitSpec, StepFailure, load_checkpoint, save_checkpoint
from spinnet.experiments import (
    ConfigError,
    build_spec,
    config_hash,
    load_preset,
    merge_reports,
    parse_config_text,
    run_clt_check,
    spec_from_mapping,
    spec_to_config_text,
)
from spinnet.rng import stream, subseed
from spinnet.targets import SpinTensor
from spinnet.units import RbfUnit

TINY = """\
experiment = train
d = 2
unit = rbf
alpha = 1.0
n_list = 4,8
dynamics = gd
dt = 0.01
steps = 50
probe_every = 10
eval_batch_size = 64
final_eval_batch_size = 128
master_seed = 3
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def stderr_json(err: str) -> dict:
    # warnings may precede the error object; it is always the last line
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


@pytest.fixture(scope="session")
def train_dir(tiny_cfg, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("grid") / "t1")
    code, stdout, _ = run_cli(["train", "--config", tiny_cfg, "--out", out])
    assert code == 0
    return out, json.loads(stdout)


# -- config text ----------------------------------------------------------

def test_config_text_round_trips():
    for mapping in (
        parse_config_text(TINY),
        {"experiment": "quench", "d": 3, "unit": "sigmoid", "n_list": "10",
         "dynamics": "sgd", "steps": "100", "dt": repr(1.0 / 3.0),
         "quench_frac": "0.9"},
    ):
        spec = spec_from_mapping(mapping)
        again = spec_from_mapping(parse_config_text(spec_to_config_text(spec)))
        assert again == spec
        assert config_hash(again) == config_hash(spec)


def test_parse_config_text_diagnostics():
    assert parse_config_text("# only a comment\n\n") == {}
    assert parse_config_text("d = 5  # inline comment")["d"] == "5"
    with pytest.raises(ConfigError):
        parse_config_text("d 5")
    with pytest.raises(ConfigError):
        parse_config_text("flux_capacitor = 1")
    with pytest.raises(ConfigError):
        spec_from_mapping(dict(parse_config_text(TINY), steps="ten"))


def test_spec_layering_preset_config_overrides(tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text("steps = 777\n")
    spec = build_spec(preset="paper-sigmoid-d10", config_path=str(cfg),
                      overrides={"master_seed": "9"})
    assert spec.steps == 777  # config file beats preset
    assert spec.master_seed == 9  # override beats both
    assert spec.d == 10 and spec.unit == "sigmoid"  # preset supplies the rest


def test_presets_parse_and_validate():
    rbf = build_spec(preset="paper-rbf-d5")
    assert rbf.experiment == "rbf-scaling" and rbf.d == 5
    assert rbf.n_list == (16, 32, 64, 128, 256)
    assert rbf.noise_beta == 10000.0 and rbf.c_init == "uniform:-1000.0:1000.0"
    sig = build_spec(preset="paper-sigmoid-d10")
    assert sig.experiment == "quench" and sig.quench_frac == 0.9
    assert sig.batch_size(64) == 12 and sig.quench_batch_size(64) == 144
    with pytest.raises(ConfigError):
        load_preset("no-such-preset")


def test_scale_multiplies_steps_only():
    base = build_spec(preset="paper-rbf-d5")
    scaled = build_spec(preset="paper-rbf-d5", scale=0.001)
    assert scaled.steps == 200
    assert scaled == spec_from_mapping(
        dict(parse_config_text(spec_to_config_text(base)), steps="200")
    )
    for bad in (0.0, float("inf")):
        with pytest.raises(ConfigError):
            build_spec(preset="paper-rbf-d5", scale=bad)


def test_config_hash_ignores_execution_fields():
    m = parse_config_text(TINY)
    h = config_hash(spec_from_mapping(m))
    assert config_hash(spec_from_mapping(dict(m, out_dir="elsewhere"))) == h
    assert config_hash(spec_from_mapping(dict(m, threads="8"))) == h
    assert config_hash(spec_from_mapping(dict(m, steps="51"))) != h


def test_preset_config_hashes_are_pinned():
    # the hash names every artifact of a run; it must not move with the code
    # that declares the schema
    assert config_hash(build_spec(preset="paper-rbf-d5")) == "b015ca59840d76f9"
    assert config_hash(build_spec(preset="paper-sigmoid-d10")) == "ac2046beccedaf84"


def test_spec_validation():
    m = parse_config_text(TINY)
    for bad in (
        {"d": "1"},
        {"experiment": "warp"},
        {"n_list": "8,4"},
        {"n_list": "4,4"},
        {"unit": "sigmoid"},  # gd needs rbf
        {"dt": "0"},
        {"quench_frac": "1.5"},
        {"threads": "0"},
        {"c_init": "cauchy"},
        # refused by the objects a cell builds (TrainConfig, RbfUnit,
        # noise_amplitude, InitSpec, DiagnosticPlan), not by a rule of the
        # spec's own
        {"dynamics": "warp"},
        {"steps": "-1"},
        {"probe_every": "0"},
        {"dynamics": "langevin"},  # no beta
        {"dynamics": "langevin", "beta": "nan"},
        {"dynamics": "langevin", "beta": "-2"},
        {"alpha": "nan"},
        {"alpha": "-1"},
        {"noise_beta": "0"},
        {"noise_beta": "-1"},
        {"noise_beta": "1e4", "noise_until_frac": "nan"},
        {"dt": "inf"},
        {"c_init": "uniform:-inf:inf"},
        {"c_init": "uniform:0:1e400"},
        {"c_init": "uniform:a:b"},
        {"c_init": "uniform:0:1_0"},
        # what each experiment kind needs to mean anything
        {"experiment": "quench"},  # no quench_frac
        {"experiment": "rbf-scaling"},  # two n values cannot fit a slope
        {"experiment": "sigmoid-scaling", "unit": "sigmoid", "dynamics": "sgd"},
        {"experiment": "clt-check"},  # one seed has no variance
    ):
        with pytest.raises(ConfigError):
            spec_from_mapping(dict(m, **bad))
    # int() and float() read digit-group underscores ("1_0" is 10); a NaN
    # cutoff used to surface as int()'s message, which names no key
    for key, bad in (
        ("d", {"d": "1_0"}),
        ("dt", {"dt": "1_0e-3"}),
        ("n_list", {"n_list": "1_6"}),
        ("noise_until_frac", {"noise_beta": "1e4", "noise_until_frac": "nan"}),
    ):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            spec_from_mapping(dict(m, **bad))
    with pytest.raises(ConfigError):
        spec_from_mapping({k: v for k, v in m.items() if k != "d"})
    with pytest.raises(ConfigError):
        build_spec(overrides=dict(m, warp="9"))


# -- grid runs ------------------------------------------------------------

def test_train_writes_grid_artifacts(tiny_cfg, train_dir):
    out, summary = train_dir
    names = sorted(os.listdir(out))
    assert names == [
        "ckpt_n4_r0_s0.json", "ckpt_n8_r0_s0.json", "config.cfg",
        "run_n4_r0_s0.csv", "run_n8_r0_s0.csv", "summary.json",
    ]
    assert sorted(summary["per_n"]) == ["4", "8"]
    assert all(v["mean_loss"] > 0 for v in summary["per_n"].values())
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh) == summary


def test_final_loss_is_the_loss_of_the_final_eval_batch(tiny_cfg, tmp_path):
    # 10^4 points cross 4096-row chunks, and n = 100 gives network blocks
    # of 327 rows, which do not divide a chunk
    out = tmp_path / "final"
    code, _, _ = run_cli(["train", "--config", tiny_cfg, "--set", "d=5", "--set", "n_list=100",
                          "--set", "steps=4", "--set", "final_eval_batch_size=10000",
                          "--out", str(out)])
    assert code == 0
    final, _, meta = load_checkpoint(out / "ckpt_n100_r0_s0.json")
    tensor = SpinTensor.from_dict(meta["tensor"])
    batch = draw_batch(tensor, 5, 10000, stream(meta["master_seed"], "final-eval-batch"))
    rep = read_report(out / "run_n100_r0_s0.csv")
    assert rep.summaries["final_loss_big"] == empirical_loss(final, batch)


def test_artifacts_embed_identity(tiny_cfg, train_dir):
    out, summary = train_dir
    spec = build_spec(config_path=tiny_cfg, overrides={"out_dir": out})
    h = config_hash(spec)
    assert summary["config_hash"] == h
    rep = read_report(os.path.join(out, "run_n4_r0_s0.csv"))
    assert rep.meta["config_hash"] == h
    assert rep.meta["master_seed"] == 3
    assert rep.meta["n"] == 4 and rep.meta["tensor_seed"] >= 0
    with open(os.path.join(out, "ckpt_n4_r0_s0.json")) as fh:
        meta = json.load(fh)["meta"]
    assert meta["config_hash"] == h and meta["master_seed"] == 3


def test_worker_count_does_not_change_bytes(tiny_cfg, train_dir, tmp_path):
    out1, _ = train_dir
    out2 = str(tmp_path / "t2")
    code, _, _ = run_cli(["train", "--config", tiny_cfg, "--out", out2,
                          "--threads", "2"])
    assert code == 0
    for name in sorted(os.listdir(out1)):
        if name == "config.cfg":  # records out_dir, which differs by design
            continue
        with open(os.path.join(out1, name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(out2, name), "rb") as fb:
            b = fb.read()
        assert a == b, name


# two realizations of three n at d = 5, each valued on 10^4 final points,
# three 4096-row chunks; n = 100 gives network blocks of 327 rows, which do
# not divide a chunk
GROUPED = ["--set", "d=5", "--set", "n_list=4,8,100", "--set", "realizations=2",
           "--set", "steps=4", "--set", "final_eval_batch_size=10000"]


def test_serial_grid_draws_the_final_points_once_per_realization(tiny_cfg, tmp_path,
                                                                  monkeypatch):
    draws, groups = [], []
    draw, sampled = diag._checked_sphere_rows_into, experiments._sampled_loss
    monkeypatch.setattr(diag, "_checked_sphere_rows_into",
                        lambda gen, X: draws.append(len(X)) or draw(gen, X))
    monkeypatch.setattr(experiments, "_sampled_loss",
                        lambda es, *a: groups.append([e.n for e in es]) or sampled(es, *a))
    serial, pooled = str(tmp_path / "serial"), str(tmp_path / "pooled")
    assert run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", serial])[0] == 0
    assert groups == [[4, 8, 100]] * 2
    assert draws == [4096, 4096, 1808] * 2
    monkeypatch.undo()
    assert run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", pooled,
                    "--threads", "2"])[0] == 0
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(pooled)) and len(names) == 14
    for name in names:
        if name == "config.cfg":  # records out_dir, which differs by design
            continue
        with open(os.path.join(serial, name), "rb") as fa, \
                open(os.path.join(pooled, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_pooled_grid_draws_the_final_points_once_per_realization(tiny_cfg, tmp_path,
                                                                  monkeypatch):
    # forked workers inherit the patches; each process appends its own lines
    log = tmp_path / "calls.log"

    def record(*fields):
        with open(log, "a") as fh:
            fh.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")

    draw, sampled = diag._checked_sphere_rows_into, experiments._sampled_loss
    monkeypatch.setattr(diag, "_checked_sphere_rows_into",
                        lambda gen, X: record("draw", len(X)) or draw(gen, X))
    monkeypatch.setattr(experiments, "_sampled_loss",
                        lambda es, t, *a: record("group", t.seed, *[e.n for e in es])
                        or sampled(es, t, *a))
    out = str(tmp_path / "pooled")
    assert run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", out,
                    "--threads", "2"])[0] == 0
    draws, groups = {}, []
    for line in log.read_text().splitlines():
        pid, kind, *fields = line.split()
        if kind == "draw":
            draws.setdefault(pid, []).append(int(fields[0]))
        else:
            groups.append((int(fields[0]), [int(n) for n in fields[1:]]))
    assert sorted(groups) == sorted((subseed(3, "tensor", r), [4, 8, 100]) for r in range(2))
    assert sorted(len(d) for d in draws.values()) in ([6], [3, 3])
    for d in draws.values():
        assert d == [4096, 4096, 1808] * (len(d) // 3)


def test_a_failed_cell_fails_alone_in_its_group(tiny_cfg, tmp_path, monkeypatch):
    failing_seed = subseed(3, "cell-8-0", 0)
    schedule = experiments.run_schedule

    def run_schedule(cfg, *args):
        if cfg.master_seed == failing_seed:
            raise StepFailure(2, 1, "weight")
        return schedule(cfg, *args)

    monkeypatch.setattr(experiments, "run_schedule", run_schedule)
    out = tmp_path / "failed"
    code, _, _ = run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", str(out)])
    assert code == 2
    with open(out / "failures.json") as fh:
        assert json.load(fh)["failures"] == [
            {"cell": [8, 0, 0], "error": "StepFailure: non-finite weight at step 2, particle 1"}
        ]
    assert not (out / "run_n8_r0_s0.csv").exists() and not (out / "ckpt_n8_r0_s0.json").exists()
    for n, r in ((4, 0), (100, 0), (4, 1), (8, 1), (100, 1)):
        final, _, meta = load_checkpoint(out / f"ckpt_n{n}_r{r}_s0.json")
        tensor = SpinTensor.from_dict(meta["tensor"])
        alone = diag._sampled_loss([final], tensor, 10000, stream(3, "final-eval-batch"))
        rep = read_report(out / f"run_n{n}_r{r}_s0.csv")
        assert [rep.summaries["final_loss_big"]] == alone, (n, r)


def test_a_failed_cell_fails_alone_in_its_pooled_group(tiny_cfg, tmp_path, monkeypatch):
    # the StepFailure is raised in a worker; the serial run is the reference
    failing_seed = subseed(3, "cell-8-0", 0)
    schedule = experiments.run_schedule

    def run_schedule(cfg, *args):
        if cfg.master_seed == failing_seed:
            raise StepFailure(2, 1, "weight")
        return schedule(cfg, *args)

    monkeypatch.setattr(experiments, "run_schedule", run_schedule)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", str(serial)])[0] == 2
    assert run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", str(pooled),
                    "--threads", "2"])[0] == 2
    assert (pooled / "failures.json").read_bytes() == (serial / "failures.json").read_bytes()
    assert not (pooled / "run_n8_r0_s0.csv").exists()
    for n, r in ((4, 0), (100, 0), (4, 1), (8, 1), (100, 1)):
        name = f"run_n{n}_r{r}_s0.csv"
        assert (read_report(pooled / name).summaries["final_loss_big"]
                == read_report(serial / name).summaries["final_loss_big"]), (n, r)


def test_a_dying_worker_leaves_no_temp_files(tiny_cfg, tmp_path, monkeypatch):
    # a worker that exits mid-write gets the pool broken and the other
    # worker terminated, wherever it was
    save = experiments.save_checkpoint

    def save_checkpoint(path, *args):
        if path.endswith("ckpt_n8_r0_s0.json"):
            open(f"{path}.{os.getpid()}.tmp", "w").close()
            os._exit(3)
        return save(path, *args)

    monkeypatch.setattr(experiments, "save_checkpoint", save_checkpoint)
    out = tmp_path / "died"
    code, _, err = run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", str(out),
                            "--threads", "2"])
    assert code == 2
    assert stderr_json(err)["error"] == "RuntimeError"
    with open(out / "failures.json") as fh:
        failed = [f["cell"] for f in json.load(fh)["failures"]]
    cells = [[n, r, 0] for n in (4, 8, 100) for r in range(2)]
    assert failed == sorted(c for c in cells if not (out / f"run_n{c[0]}_r{c[1]}_s0.csv").exists())
    assert [8, 0, 0] in failed
    assert list(out.glob("*.tmp")) == []
    # the n = 4 cells train fast; a realization whose finish task the broken
    # pool refused is valued and written in the parent
    written = sorted(p.name for p in out.glob("run_*.csv"))
    assert {"run_n4_r0_s0.csv", "run_n4_r1_s0.csv"} & set(written)
    monkeypatch.undo()
    serial = tmp_path / "serial"
    assert run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", str(serial)])[0] == 0
    for name in written + sorted(p.name for p in out.glob("ckpt_*.json")):
        assert (out / name).read_bytes() == (serial / name).read_bytes(), name


def test_the_pool_starts_at_most_one_worker_per_cell(tiny_cfg, tmp_path, monkeypatch):
    from concurrent.futures.process import ProcessPoolExecutor

    spawned = []
    spawn = ProcessPoolExecutor._spawn_process
    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process",
                        lambda pool: spawned.append(1) or spawn(pool))
    code, _, _ = run_cli(["train", "--config", tiny_cfg, "--out", str(tmp_path / "cap"),
                          "--threads", "8"])
    assert code == 0
    assert len(spawned) == 2  # one per cell of n_list = 4,8


def test_a_one_process_grid_imports_no_pool(tiny_cfg, tmp_path):
    # a one-process grid pays neither import at start-up
    argv = ["train", "--config", tiny_cfg, *GROUPED, "--out", str(tmp_path / "one"),
            "--threads", "1"]
    script = (
        "import json, sys\n"
        "from spinnet.cli import main\n"
        f"code = main({argv!r})\n"
        "pool = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "print(json.dumps([code, pool]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, []]


def test_run_cell_alone_writes_the_grid_checkpoint(tiny_cfg, tmp_path):
    # a cell needs nothing from the cells before it, so it can run alone
    grid, alone = tmp_path / "grid", tmp_path / "alone"
    assert run_cli(["train", "--config", tiny_cfg, *GROUPED, "--out", str(grid)])[0] == 0
    overrides = dict(kv.split("=", 1) for kv in GROUPED[1::2])
    spec = build_spec(config_path=tiny_cfg, overrides=dict(overrides, out_dir=str(alone)))
    alone.mkdir()
    experiments.run_cell(spec, 8, 1, 0)
    name = "ckpt_n8_r1_s0.json"
    assert os.listdir(alone) == [name]
    assert (alone / name).read_bytes() == (grid / name).read_bytes()


def test_rerun_reproduces_bytes(tiny_cfg, train_dir):
    out, _ = train_dir
    with open(os.path.join(out, "run_n8_r0_s0.csv"), "rb") as fh:
        before = fh.read()
    code, _, _ = run_cli(["train", "--config", tiny_cfg, "--out", out])
    assert code == 0
    with open(os.path.join(out, "run_n8_r0_s0.csv"), "rb") as fh:
        assert fh.read() == before


def test_divergent_cell_exits_2(tiny_cfg, tmp_path):
    out = str(tmp_path / "dv")
    with np.errstate(over="ignore"):
        code, _, err = run_cli([
            "train", "--config", tiny_cfg, "--out", out,
            "--set", "dt=1e150", "--set", "n_list=4",
            "--set", "c_init=uniform:-1000.0:1000.0",
        ])
    assert code == 2
    assert stderr_json(err)["error"] == "RuntimeError"
    with open(os.path.join(out, "failures.json")) as fh:
        failures = json.load(fh)["failures"]
    assert failures[0]["cell"] == [4, 0, 0]
    assert "StepFailure" in failures[0]["error"]


# -- quench and scale wiring -----------------------------------------------

def test_quench_changes_batch_size_at_fraction(tmp_path):
    out = str(tmp_path / "q")
    code, _, _ = run_cli([
        "quench", "--preset", "paper-sigmoid-d10",
        "--set", "steps=1000", "--set", "n_list=10",
        "--set", "quench_frac=0.5", "--set", "probe_every=100",
        "--set", "eval_batch_size=64", "--set", "final_eval_batch_size=128",
        "--out", out,
    ])
    assert code == 0
    rep = read_report(os.path.join(out, "run_n10_r0_s0.csv"))
    P, steps = rep.series["P"], rep.series["step"]
    assert sorted(set(P.tolist())) == [2, 4]  # floor(10/5) then its square
    assert int(steps[P == 4][0]) == 500
    assert np.array_equal(rep.series["sigma"], 0.001 / P)


def test_quench_requires_fraction(tmp_path):
    code, _, err = run_cli([
        "quench", "--preset", "paper-sigmoid-d10",
        "--set", "quench_frac=", "--set", "steps=100",
        "--out", str(tmp_path / "q2"),
    ])
    assert code == 1
    assert stderr_json(err)["error"] == "ConfigError"


def test_scale_command_forces_scaling_family(tiny_cfg, tmp_path):
    out = str(tmp_path / "sc")
    code, stdout, _ = run_cli([
        "scale", "--config", tiny_cfg, "--set", "n_list=4,8,16",
        "--set", "steps=20", "--out", out,
    ])
    assert code == 0
    summary = json.loads(stdout)
    assert sorted(summary["per_n"]) == ["16", "4", "8"]
    assert "slope" in summary
    with open(os.path.join(out, "config.cfg")) as fh:
        assert "experiment = rbf-scaling" in fh.read()


def test_scale_command_needs_three_sizes(tiny_cfg, tmp_path):
    code, _, err = run_cli(["scale", "--config", tiny_cfg,
                            "--out", str(tmp_path / "sc2")])
    assert code == 1
    assert stderr_json(err)["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ["train", "--set", "experiment=quench"],
    ["train", "--set", "experiment=rbf-scaling"],
    ["clt-check"],
    ["quench", "--set", "quench_frac="],
    ["scale"],
    # scale checks the configured kind before it swaps in its own
    ["scale", "--set", "experiment=quench", "--set", "n_list=4,8,16"],
], ids=["train-quench", "train-rbf-scaling", "clt-check", "quench", "scale", "scale-quench"])
def test_experiment_kind_rules_exit_1(tiny_cfg, tmp_path, argv):
    # a quench without quench_frac, a scaling study over fewer than 3 n
    # values and a clt-check over one seed are refused by the spec, before
    # anything is written, whichever subcommand runs them; TINY has n_list
    # 4,8, one seed and no quench_frac
    out = tmp_path / "kind"
    code, stdout, err = run_cli([*argv, "--config", tiny_cfg, "--out", str(out)])
    assert code == 1 and stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert stderr_json(err)["error"] == "ConfigError"
    assert not out.exists()


# -- checks ---------------------------------------------------------------

def test_unrepresentable_rbf_kernel_exits_1(tmp_path):
    # alpha * d = 1000 > ln(DBL_MAX): exp(alpha x.z) overflows on the sphere,
    # so the config is refused before anything is written
    out = tmp_path / "big-alpha"
    code, _, err = run_cli(["scale", "--preset", "paper-rbf-d5", "--set", "alpha=200",
                            "--out", str(out)])
    assert code == 1 and stderr_json(err)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["dynamics=langevin", "noise_beta=0", "c_init=uniform:a:b",
                                 "dt=inf"])
def test_config_a_cell_would_refuse_exits_1(tiny_cfg, tmp_path, bad):
    # a value the cell's own objects refuse (langevin without beta, a
    # non-positive noise beta, a weight law that does not parse, an
    # infinite dt) is refused before anything is written
    out = tmp_path / "refused"
    code, stdout, err = run_cli(["train", "--config", tiny_cfg, "--set", bad, "--out", str(out)])
    assert code == 1 and stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert stderr_json(err)["error"] == "ConfigError"
    assert not out.exists()


def test_runtime_value_error_exits_2(tiny_cfg, tmp_path, monkeypatch):
    import spinnet.experiments as experiments

    def broken(spec):
        raise ValueError("raised while running")

    monkeypatch.setattr(experiments, "run_gradcheck", broken)
    code, _, err = run_cli(["gradcheck", "--config", tiny_cfg, "--out", str(tmp_path / "gc")])
    assert code == 2
    assert stderr_json(err) == {"error": "ValueError", "message": "raised while running"}


def test_gradcheck_cli_passes(tiny_cfg, tmp_path):
    code, stdout, _ = run_cli(["gradcheck", "--config", tiny_cfg,
                               "--out", str(tmp_path / "gc")])
    assert code == 0
    s = json.loads(stdout)
    assert s["passed"] is True
    assert all(v < 1e-6 for v in s["max_rel_err"].values())
    assert set(s["max_rel_err"]) == {
        "drift", "target_grad", "unit_grad_input", "unit_grad_param",
    }


def test_clt_check_zero_init_is_trivially_exact(tiny_cfg, tmp_path):
    code, stdout, _ = run_cli(["clt-check", "--config", tiny_cfg,
                               "--set", "seeds=2",
                               "--out", str(tmp_path / "clt0")])
    assert code == 0
    s = json.loads(stdout)
    assert s["measured"] == 0.0 and s["predicted"] == 0.0 and s["passed"]


def test_clt_check_statistical_pass(tiny_cfg):
    spec = build_spec(config_path=tiny_cfg, overrides={
        "experiment": "clt-check", "c_init": "normal", "seeds": "600"})
    s = run_clt_check(spec)
    assert s["passed"] is True
    assert s["measured"] == pytest.approx(s["predicted"], rel=0.15)


def test_clt_check_failure_exits_2(tiny_cfg, tmp_path):
    # two seeds cannot pin the variance; this draw misses by far
    out = str(tmp_path / "cltf")
    code, _, err = run_cli(["clt-check", "--config", tiny_cfg,
                            "--set", "c_init=normal", "--set", "seeds=2",
                            "--seed", "1", "--out", out])
    assert code == 2
    assert stderr_json(err)["error"] == "RuntimeError"
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["passed"] is False


def test_clt_check_needs_two_seeds(tiny_cfg, tmp_path):
    code, _, err = run_cli(["clt-check", "--config", tiny_cfg,
                            "--out", str(tmp_path / "clt1")])
    assert code == 1
    assert stderr_json(err)["error"] == "ConfigError"


# -- slice ------------------------------------------------------------------

def test_slice_renders_checkpoint(train_dir, tmp_path):
    out, _ = train_dir
    ckpt = os.path.join(out, "ckpt_n4_r0_s0.json")
    code, stdout, _ = run_cli(["slice", ckpt, "--axes", "0,1",
                               "--resolution", "7"])
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "# spinnet-slice v1"
    meta = json.loads(lines[1][len("# meta "):])
    assert meta["step"] == 50 and meta["master_seed"] == 3
    assert lines[2] == "theta,target,network"
    assert len(lines) == 3 + 7

    dst = str(tmp_path / "slice.csv")
    code, _, _ = run_cli(["slice", ckpt, "--axes", "0,1",
                          "--resolution", "7", "--out", dst])
    assert code == 0
    with open(dst) as fh:
        assert fh.read() == stdout


def test_slice_validation(train_dir, tmp_path):
    out, _ = train_dir
    ckpt = os.path.join(out, "ckpt_n4_r0_s0.json")
    code, _, err = run_cli(["slice", ckpt, "--axes", "0,0"])
    assert code == 1 and stderr_json(err)["error"] == "InvalidDimensionError"
    # the training grid lives in d = 2, too flat for the two-angle slice
    code, _, err = run_cli(["slice", ckpt, "--two-angle"])
    assert code == 1
    code, _, err = run_cli(["slice", str(tmp_path / "missing.json")])
    assert code == 1 and stderr_json(err)["error"] == "FileNotFoundError"


def test_slice_axes_must_be_two_integers(train_dir):
    out, _ = train_dir
    ckpt = os.path.join(out, "ckpt_n4_r0_s0.json")
    for axes in ("0,x", "1", "0,1,2"):
        code, _, err = run_cli(["slice", ckpt, "--axes", axes])
        assert code == 1 and stderr_json(err)["error"] == "ConfigError"


@pytest.mark.parametrize("kind, resolution", [("great-circle", 10**11), ("two-angle", 10**5),
                                              ("two-angle", 10**11)])
def test_slice_refuses_points_past_physical_memory(tmp_path, kind, resolution):
    # (resolution, d) or (resolution^2, d) doubles that physical memory
    # cannot hold are refused before anything is allocated.  The run is
    # capped at 1 GB of address space, so an allocation that the bound
    # misses fails at once and cannot exhaust the machine
    ckpt, dst = tmp_path / "ckpt.json", tmp_path / "slice.csv"
    e = InitSpec(c_law="normal").sample(RbfUnit(alpha=1.0, d=3), 4, stream(1, "slice"))
    save_checkpoint(ckpt, e, 0, {"tensor": SpinTensor.sample(3, 1).to_dict()})
    argv = ["slice", str(ckpt), "--resolution", str(resolution), "--out", str(dst)]
    if kind == "two-angle":
        argv.append("--two-angle")
    script = (
        "import resource, sys\n"
        "from spinnet.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert stderr_json(proc.stderr)["error"] == "InvalidDimensionError"
    assert os.listdir(tmp_path) == ["ckpt.json"]


def test_corrupt_input_files_exit_1(tmp_path):
    # a damaged input file is a validation failure, not a runtime one
    ckpt = tmp_path / "ckpt_bad.json"
    ckpt.write_text("{not json")
    code, _, err = run_cli(["slice", str(ckpt)])
    assert code == 1 and stderr_json(err)["error"] == "ScheduleError"
    csv = tmp_path / "run_bad.csv"
    csv.write_text(
        "# spinnet-report v1\n"
        '# meta {"config_hash": "x", "master_seed": 1}\n'
        + ",".join(REPORT_COLUMNS) + "\n"
        + ",".join(["0"] * 5 + ["abc"] + ["0.0"] * 7) + "\n"
    )
    code, _, err = run_cli(["merge", str(csv)])
    assert code == 1 and stderr_json(err)["error"] == "ReportError"
    # meta or summaries that are not JSON objects, or hold the wrong types,
    # a data row with more cells than columns, or an integer cell too large
    # for int64
    meta = '{"config_hash": "x", "master_seed": 1}'
    zeros = ",".join(["0"] * 13)
    for meta_json, summaries_json, row in (
        ("5", "{}", zeros),
        (meta, "3", zeros),
        ('{"config_hash": ["x"], "master_seed": 1}', "{}", zeros),
        ('{"config_hash": "x", "master_seed": 1, "n": "abc"}', "{}", zeros),
        ('{"config_hash": "x", "master_seed": 1, "n": 3.7}', "{}", zeros),
        (meta, "{}", zeros + ",99,zz"),
        (meta, "{}", ",".join(["0", "0", "9" * 30] + ["0"] * 10)),  # P overflows int64
    ):
        csv.write_text(
            "# spinnet-report v1\n"
            f"# meta {meta_json}\n"
            f"# summaries {summaries_json}\n"
            + ",".join(REPORT_COLUMNS) + "\n"
            + row + "\n"
        )
        code, stdout, err = run_cli(["merge", str(csv)])
        assert code == 1 and stdout == "", (meta_json, summaries_json, row)
        assert len(err.strip().splitlines()) == 1
        assert stderr_json(err)["error"] == "ReportError"


@pytest.mark.parametrize("drop", ["tensor", "ensemble", "step", "meta"])
def test_slice_thin_checkpoint_exits_1(train_dir, tmp_path, drop):
    # a checkpoint missing a field is a validation failure with one JSON
    # error line, not a KeyError traceback
    out, _ = train_dir
    with open(os.path.join(out, "ckpt_n4_r0_s0.json")) as fh:
        blob = json.load(fh)
    if drop == "tensor":
        del blob["meta"]["tensor"]
    else:
        del blob[drop]
    ckpt = tmp_path / "ckpt_thin.json"
    ckpt.write_text(json.dumps(blob))
    code, stdout, err = run_cli(["slice", str(ckpt)])
    assert code == 1 and stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert stderr_json(err)["error"] == "ScheduleError"
    assert repr(drop) in stderr_json(err)["message"]


@pytest.mark.parametrize("damage, error", [
    ("unit", "ScheduleError"),
    ("c", "ScheduleError"),
    ("alpha", "ScheduleError"),
    ("big-alpha", "ScheduleError"),  # alpha * d overflows the kernel
    ("alpha-bool", "UnitMismatchError"),  # float() would read it as 1.0
    ("d-float", "UnitMismatchError"),  # int() would truncate it
    ("sigmoid-d-bool", "UnitMismatchError"),  # int() would read it as 1
    ("z", "UnitMismatchError"),
    ("z-nan", "UnitMismatchError"),
    ("c-nan", "UnitMismatchError"),
    ("tensor-seed-object", "DimensionMismatchError"),
    ("tensor-seed-float", "DimensionMismatchError"),  # int() would truncate it
    ("tensor-seed-bool", "DimensionMismatchError"),  # int() would read it as 1
    ("tensor-d-float", "DimensionMismatchError"),
    ("negative-step", "ScheduleError"),
])
def test_slice_damaged_ensemble_exits_1(train_dir, tmp_path, damage, error):
    # a checkpoint ensemble with a field of the wrong type, a position off
    # the sphere or NaN, a NaN weight, a tensor key that is not an int, or
    # a negative step, exits 1 with one JSON error line
    out, _ = train_dir
    with open(os.path.join(out, "ckpt_n4_r0_s0.json")) as fh:
        blob = json.load(fh)
    ens = blob["ensemble"]
    tensor = blob["meta"]["tensor"]
    if damage == "tensor-seed-object":
        tensor["seed"] = {"seed": tensor["seed"]}
    elif damage == "tensor-seed-float":
        tensor["seed"] = 2.5
    elif damage == "tensor-seed-bool":
        tensor["seed"] = True
    elif damage == "tensor-d-float":
        tensor["d"] = 2.0
    elif damage == "negative-step":
        blob["step"] = -3
    elif damage == "unit":
        ens["unit"] = 5
    elif damage == "c":
        ens["c"][0] = "abc"
    elif damage == "alpha":
        ens["unit"]["alpha"] = "abc"
    elif damage == "big-alpha":
        ens["unit"]["alpha"] = 1000.0
    elif damage == "alpha-bool":
        ens["unit"]["alpha"] = True
    elif damage == "d-float":
        ens["unit"]["d"] = 2.5
    elif damage == "z-nan":
        ens["z"][0][0] = np.nan
    elif damage == "c-nan":
        ens["c"][0] = np.nan
    elif damage == "sigmoid-d-bool":
        # (a, b) rows of a 1-d sigmoid unit have the shape of the 2-d rbf rows
        ens["unit"] = {"kind": "sigmoid", "d": True}
    else:
        ens["z"][0] = [2.0 * v for v in ens["z"][0]]
    ckpt = tmp_path / "ckpt_damaged.json"
    ckpt.write_text(json.dumps(blob))
    code, stdout, err = run_cli(["slice", str(ckpt)])
    assert code == 1 and stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert stderr_json(err)["error"] == error


def test_experiment_slice_needs_checkpoint(tiny_cfg, tmp_path):
    code, _, err = run_cli(["train", "--config", tiny_cfg,
                            "--set", "experiment=slice",
                            "--out", str(tmp_path / "x")])
    assert code == 1
    assert stderr_json(err)["error"] == "ConfigError"


# -- merge ------------------------------------------------------------------

def synth_report(path, n, loss, h="deadbeefdeadbeef", seed_index=0):
    series = {}
    for name in REPORT_COLUMNS:
        series[name] = (np.array([0], dtype=np.int64)
                        if name in ("step", "P") else np.array([0.0]))
    rep = ExperimentReport(
        meta={"config_hash": h, "master_seed": 1, "n": n,
              "realization": 0, "seed_index": seed_index},
        series=series,
        summaries={"final_loss_big": loss},
    )
    rep.to_csv(path)
    return path


def test_merge_fits_slope_from_per_n_means(tmp_path):
    paths = []
    loss = 0.3
    for k, n in enumerate((10, 20, 40, 80, 160)):
        paths.append(synth_report(str(tmp_path / f"run_{k}.csv"), n, loss))
        loss /= 2.0  # exact halving: slope is -1 up to roundoff
    summary = merge_reports(paths)
    assert summary["slope"]["value"] == pytest.approx(-1.0, abs=1e-10)
    assert [r["n"] for r in summary["runs"]] == [10, 20, 40, 80, 160]
    assert summary["per_n"]["40"] == {
        "count": 1, "mean_loss": 0.075, "sem_loss": 0.0}


def test_merge_single_size_has_no_slope(tmp_path):
    p = synth_report(str(tmp_path / "run_0.csv"), 10, 0.5)
    summary = merge_reports([p])
    assert "slope" not in summary
    assert summary["per_n"] == {"10": {"count": 1, "mean_loss": 0.5,
                                       "sem_loss": 0.0}}


def test_merge_records_why_the_slope_fit_failed(tmp_path):
    paths = [synth_report(str(tmp_path / f"run_{k}.csv"), n, 1.0 / n)
             for k, n in enumerate((10, 20, 40))]
    # a meta without n is merged as n = -1, which the log-log fit refuses
    rep = read_report(paths[0])
    del rep.meta["n"]
    rep.to_csv(paths[0])
    summary = merge_reports(paths)
    assert sorted(summary["per_n"]) == ["-1", "20", "40"]
    assert "slope" not in summary
    assert "needs positive n" in summary["slope_error"]


def test_merge_refuses_mixed_hashes(tmp_path):
    a = synth_report(str(tmp_path / "run_a.csv"), 10, 0.5, h="aaaa")
    b = synth_report(str(tmp_path / "run_b.csv"), 20, 0.25, h="bbbb")
    with pytest.raises(ConfigError):
        merge_reports([a, b])
    forced = merge_reports([a, b], force=True)
    assert forced["config_hash"] == ["aaaa", "bbbb"]
    code, _, err = run_cli(["merge", a, b])
    assert code == 1 and stderr_json(err)["error"] == "ConfigError"
    code, stdout, _ = run_cli(["merge", a, b, "--force"])
    assert code == 0 and json.loads(stdout)["config_hash"] == ["aaaa", "bbbb"]


def test_merge_directory_is_idempotent(train_dir):
    out, _ = train_dir
    code, stdout1, _ = run_cli(["merge", out])
    assert code == 0
    with open(os.path.join(out, "summary.json"), "rb") as fh:
        bytes1 = fh.read()
    code, stdout2, _ = run_cli(["merge", out])
    assert code == 0
    with open(os.path.join(out, "summary.json"), "rb") as fh:
        assert fh.read() == bytes1
    assert stdout1 == stdout2


def test_merge_nothing(tmp_path):
    code, _, err = run_cli(["merge", str(tmp_path)])
    assert code == 1
    assert stderr_json(err)["error"] == "ConfigError"


# -- exit codes --------------------------------------------------------------

def test_usage_exit_codes():
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["frobnicate"])[0] == 1
    assert run_cli([])[0] == 1


def test_missing_config_file_exits_1(tmp_path):
    code, _, err = run_cli(["train", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert stderr_json(err)["error"] == "FileNotFoundError"


def test_bad_override_exits_1(tiny_cfg, tmp_path):
    code, _, err = run_cli(["train", "--config", tiny_cfg,
                            "--set", "steps", "--out", str(tmp_path / "x")])
    assert code == 1 and stderr_json(err)["error"] == "ConfigError"
    code, _, err = run_cli(["train", "--config", tiny_cfg,
                            "--set", "warp=9", "--out", str(tmp_path / "x")])
    assert code == 1 and stderr_json(err)["error"] == "ConfigError"
