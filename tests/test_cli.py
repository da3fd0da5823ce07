"""Front-end contract: configs, presets, exit codes, artifacts, merging."""
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from spinnet.cli import main
from spinnet.diagnostics import REPORT_COLUMNS, ExperimentReport, read_report
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
    with pytest.raises(ConfigError):
        build_spec(preset="paper-rbf-d5", scale=0.0)


def test_config_hash_ignores_execution_fields():
    m = parse_config_text(TINY)
    h = config_hash(spec_from_mapping(m))
    assert config_hash(spec_from_mapping(dict(m, out_dir="elsewhere"))) == h
    assert config_hash(spec_from_mapping(dict(m, threads="8"))) == h
    assert config_hash(spec_from_mapping(dict(m, steps="51"))) != h


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
    ):
        with pytest.raises(ConfigError):
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


# -- checks ---------------------------------------------------------------

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
