import json
import subprocess
import sys

import pytest

from oseledets import sft as sf
from oseledets.errors import ConfigError, UnknownField
from oseledets.harness import records as rec
from oseledets.harness import runner
from oseledets.harness.cli import main
from oseledets.harness.config import (
    load_config,
    parse_matrices,
    parse_matrix,
    parse_vector,
)

COUNTER_CFG = """
[run]
kind = counterexample
seed = 42

[system]
a0 = [[3, 0], [0, 0.3333333333333333]]
a1 = [[0, 0.3333333333333333], [3, 0]]

[numerics]
n_pairs = 20
past_length = 80
"""

INTERVAL_CFG = """
[run]
kind = interval
seed = 7

[system]
maps = doubling

[numerics]
k = 32
n_past = 150
"""

SFT_CFG = """
[run]
kind = sft
seed = 3

[system]
theta = 0.5
amplitudes = 0.8

[numerics]
n = 2000
n_ic = 3
"""

COCYCLE_CFG = """
[run]
kind = cocycle
seed = 5

[system]
matrices = [[2, 0], [0, 0.5]]

[numerics]
n = 2000
n_past = 150
n_future = 40
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing ----------------------------------------------------------

def test_parse_vector_and_matrix():
    assert parse_vector("0.5, 0.5") == [0.5, 0.5]
    assert parse_matrix("[[1, 2], [3, 4]]") == [[1.0, 2.0], [3.0, 4.0]]
    mats = parse_matrices("[[1, 0], [0, 1]] ; [[2, 0], [0, 2]]")
    assert len(mats) == 2
    with pytest.raises(ConfigError):
        parse_matrix("[1, 2, 3]")
    with pytest.raises(ConfigError):
        parse_matrix("[[1, 2], [3]]")


def test_config_requires_seed(tmp_path):
    path = write_cfg(tmp_path, "[run]\nkind = interval\n\n[system]\nmaps = doubling\n")
    with pytest.raises(ConfigError):
        load_config(path)
    cfg = load_config(path, seed_override=9)
    assert cfg.seed == 9


def test_config_rejects_bad_theta(tmp_path):
    path = write_cfg(tmp_path, "[run]\nkind = sft\nseed = 1\n\n"
                               "[system]\ntheta = -0.5\namplitudes = 0.8\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_tolerance(tmp_path):
    path = write_cfg(tmp_path, "[run]\nkind = cocycle\nseed = 1\n\n"
                               "[system]\nmatrices = [[1]]\n\n"
                               "[numerics]\ngap_tolerance = 0\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_digest_stable(tmp_path):
    path = write_cfg(tmp_path, COUNTER_CFG)
    a = load_config(path)
    b = load_config(path)
    assert a.digest() == b.digest()


# -- runners ------------------------------------------------------------------

def test_run_counterexample_record(tmp_path):
    cfg = load_config(write_cfg(tmp_path, COUNTER_CFG))
    record = runner.run(cfg)
    assert record["status"] == "ok"
    assert record["max_gap"] > 0.1
    assert record["commutator_norm"] > 1e-8
    assert len(record["gaps"]) == 20 * 19 // 2


def test_run_interval_record(tmp_path):
    cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
    record = runner.run(cfg)
    assert record["status"] == "ok"
    assert abs(record["lambda1"]) <= 1e-10
    assert record["density_flatness"] <= 1e-8
    assert record["d1"] == 1


def test_run_sft_record(tmp_path):
    cfg = load_config(write_cfg(tmp_path, SFT_CFG))
    record = runner.run(cfg)
    assert record["status"] == "ok"
    assert abs(record["lambda1"]) <= 1e-12
    assert record["identity_residual"] == 0.0
    assert record["r_n"] == 1.0
    assert record["ly_min_slack"] >= 0.0
    assert min(record["ly_slacks"]) == record["ly_min_slack"]


def test_run_sft_certificate_passes_run_once(tmp_path, monkeypatch):
    calls = {"distortion_check": 0, "rn": 0}
    for name in calls:
        original = getattr(sf, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sf, name, counted)
    record = runner.run(load_config(write_cfg(tmp_path, SFT_CFG)))
    assert record["status"] == "ok"
    assert calls == {"distortion_check": 1, "rn": 1}


def test_run_cocycle_record(tmp_path):
    cfg = load_config(write_cfg(tmp_path, COCYCLE_CFG))
    record = runner.run(cfg)
    assert record["status"] == "ok"
    assert record["lambda1"] == pytest.approx(0.6931471805599453, abs=1e-12)
    assert max(record["equivariance_residuals"]) <= 1e-6
    # the perturbed-candidate series decays toward zero
    series = record["g_decay"]
    assert len(series) == 21
    assert series[0] > 1e-3 and series[-1] <= 1e-8


def test_plotdata_real_g_decay_series(tmp_path):
    cfg = load_config(write_cfg(tmp_path, COCYCLE_CFG))
    record = rec.finalize_record(runner.run(cfg))
    table = rec.emit_plotdata([record], ["n_past", "g_decay"])
    lines = table.strip().split("\n")
    assert lines[0] == "n_past\tk\tg_decay"
    assert len(lines) == 1 + len(record["g_decay"])


def test_run_numerical_failure_recorded(tmp_path):
    text = COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[1, 1], [0, 1]]")
    cfg = load_config(write_cfg(tmp_path, text))
    record = runner.run(cfg)
    assert record["status"] == "error"
    assert record["error"] in ("NonConvergence", "BlockDegeneracy")


# -- sweeps --------------------------------------------------------------------

def test_sweep_grid_order_and_seeds(tmp_path):
    cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
    grid = runner.parse_grid(["k=16,32,64"])
    out = runner.sweep(cfg, grid)
    assert [r["sweep_index"] for r in out] == [0, 1, 2]
    assert [r["grid_k"] for r in out] == ["16", "32", "64"]
    assert [r["seed"] for r in out] == [cfg.seed ^ 0, cfg.seed ^ 1, cfg.seed ^ 2]
    # refinement diagnostic settles as the bins refine
    gaps = [r["cauchy_gap_density"] for r in out]
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_refinement_convergence_nontrivial_density(tmp_path):
    text = """
[run]
kind = interval
seed = 6

[system]
maps = doubling
map.0 = [0, 0.5, 1.4, 0.3] ; [0.5, 1, 2, -1]

[numerics]
n_past = 200
"""
    cfg = load_config(write_cfg(tmp_path, text))
    out = runner.sweep(cfg, runner.parse_grid(["k=16,128"]))
    # per-point seeds differ, so compare orders of magnitude, not paths
    assert out[1]["cauchy_gap_density"] < out[0]["cauchy_gap_density"]


def test_sweep_empty_grid(tmp_path):
    cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
    with pytest.raises(ConfigError):
        runner.parse_grid(["k="])
    assert runner.sweep(cfg, []) == []


def test_sweep_partial_failure_tagged(tmp_path):
    cfg = load_config(write_cfg(tmp_path, SFT_CFG))
    grid = runner.parse_grid(["system.amplitudes=0.8,1.5"])
    out = runner.sweep(cfg, grid)
    assert out[0]["status"] == "ok"
    assert out[1]["status"] == "error"
    assert out[1]["error"] == "AmplitudeTooLarge"


def test_sweep_splitting_convergence_monotone(tmp_path):
    text = """
[run]
kind = cocycle
seed = 11

[system]
matrices = [[2, 1], [0, 0.5]]

[numerics]
n = 500
n_future = 40
"""
    cfg = load_config(write_cfg(tmp_path, text))
    out = runner.sweep(cfg, runner.parse_grid(["n_past=50,100,200"]))
    gaps = [max(r["cauchy_gaps"]) for r in out]
    assert gaps[0] >= gaps[1] >= gaps[2]


# -- records and plotdata ---------------------------------------------------------

def test_record_round_trip(tmp_path):
    cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
    record = runner.run(cfg)
    path = tmp_path / "out.ndjson"
    rec.write_records(str(path), [record])
    loaded = rec.read_records(str(path))
    assert len(loaded) == 1
    assert rec.dumps(loaded[0]) == rec.dumps(rec.finalize_record(record))


def test_reproducibility_byte_identical(tmp_path):
    cfg = load_config(write_cfg(tmp_path, COUNTER_CFG))
    a = rec.dumps(rec.strip_volatile(runner.run(cfg)))
    b = rec.dumps(rec.strip_volatile(runner.run(cfg)))
    assert a == b


def test_plotdata_two_columns():
    records = [{"n": 1, "lambda1": 0.5}, {"n": 2, "lambda1": 0.25}]
    table = rec.emit_plotdata(records, ["n", "lambda1"])
    lines = table.strip().split("\n")
    assert lines[0] == "n\tlambda1"
    assert lines[1] == "1\t0.5"


def test_plotdata_series_long_format():
    records = [{"n": 1, "gseries": [1.0, 0.5, 0.25]}]
    table = rec.emit_plotdata(records, ["n", "gseries"])
    lines = table.strip().split("\n")
    assert lines[0] == "n\tk\tgseries"
    assert lines[1] == "1\t0\t1.0"
    assert lines[3] == "1\t2\t0.25"


def test_plotdata_unknown_field():
    with pytest.raises(UnknownField):
        rec.emit_plotdata([{"a": 1}], ["b"])


# -- CLI ---------------------------------------------------------------------------

def test_cli_run_exit_codes(tmp_path):
    cfg_path = write_cfg(tmp_path, INTERVAL_CFG)
    out_path = str(tmp_path / "rec.ndjson")
    assert main(["run", "--config", cfg_path, "--out", out_path]) == 0
    loaded = rec.read_records(out_path)
    assert loaded[0]["status"] == "ok"

    bad_path = write_cfg(tmp_path, "[run]\nkind = sft\nseed = 1\n\n"
                                   "[system]\ntheta = -0.5\namplitudes = 0.8\n",
                         name="bad.cfg")
    assert main(["run", "--config", bad_path]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    text = COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[1, 1], [0, 1]]")
    cfg_path = write_cfg(tmp_path, text)
    out_path = str(tmp_path / "rec.ndjson")
    assert main(["run", "--config", cfg_path, "--out", out_path]) == 3
    loaded = rec.read_records(out_path)
    assert loaded[0]["status"] == "error"
    assert loaded[0]["error"]


def test_cli_sweep_and_plotdata(tmp_path):
    cfg_path = write_cfg(tmp_path, INTERVAL_CFG)
    out_path = str(tmp_path / "sweep.ndjson")
    assert main(["sweep", "--config", cfg_path, "--grid", "k=8,16",
                 "--out", out_path]) == 0
    table_path = str(tmp_path / "table.tsv")
    assert main(["plotdata", out_path, "--select", "grid_k,lambda1",
                 "--out", table_path]) == 0
    lines = open(table_path).read().strip().split("\n")
    assert lines[0] == "grid_k\tlambda1"
    assert len(lines) == 3
    assert main(["plotdata", out_path, "--select", "nope"]) == 2


def test_cli_lemma_suite(tmp_path):
    out_path = str(tmp_path / "lemmas.ndjson")
    assert main(["lemma-suite", "--seed", "11", "--out", out_path]) == 0
    loaded = rec.read_records(out_path)
    assert loaded[0]["status"] == "ok"


def test_console_entry_point(tmp_path):
    cfg_path = write_cfg(tmp_path, INTERVAL_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "oseledets.harness.cli", "run",
         "--config", cfg_path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    record = json.loads(proc.stdout.strip().split("\n")[-1])
    assert record["status"] == "ok"


def test_cli_import_skips_scipy_optimize():
    # scipy.optimize is most of the CLI's import time; only non-affine
    # interval branches need it, and they import it on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, oseledets.harness.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
