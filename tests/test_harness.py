import importlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from oseledets import cocycle as cc
from oseledets import sft as sf
from oseledets.errors import ConfigError, UnknownField
from oseledets.harness import config, lemmas
from oseledets.harness import records as rec
from oseledets.harness import runner
from oseledets.harness.cli import main
from oseledets.harness.config import (
    NUMERICS,
    _build_maps,
    build_driving,
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


def test_load_config_builds_the_system(tmp_path):
    # a config that loads is one that can be built: the map's image leaves [0, 1]
    path = write_cfg(tmp_path, INTERVAL_CFG.replace("maps = doubling", "maps = slope:2"))
    with pytest.raises(ConfigError, match="invalid \\[system\\] value"):
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


def test_run_interval_never_builds_the_filtration(tmp_path, monkeypatch):
    # the filtration frames are m×m objects built on read; an interval run
    # needs E_1 alone
    def unread(report):
        raise AssertionError("the interval path read SpectrumReport.filtration")

    monkeypatch.setattr(cc.SpectrumReport, "filtration", property(unread))
    rep = cc.oseledets_splitting(cc.Generator.from_list([np.diag([2.0, 0.5])]),
                                 cc.DrivingSystem.iid([1.0], seed=0), n_past=20, n_future=5)
    with pytest.raises(AssertionError, match="read SpectrumReport.filtration"):
        rep.filtration
    cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG.replace("k = 32", "k = 64")))
    record = runner.run_interval(cfg)
    assert record["k"] == 64 and abs(record["lambda1"]) <= 1e-10


def test_run_interval_qr_work_count(tmp_path, monkeypatch):
    # the passes of a k = 64 interval run track frames of at most 3 columns,
    # so every propagation step is a Gram-Schmidt step: `_qr_pos` runs only
    # to orthonormalise the start frames
    qr_pos, callers = cc._qr_pos, []

    def counting(y):
        callers.append(sys._getframe(1).f_code.co_name)
        return qr_pos(y)

    monkeypatch.setattr(cc, "_qr_pos", counting)
    text = INTERVAL_CFG.replace("k = 32", "k = 64").replace("doubling", "tripling, slope:0.75")
    record = runner.run_interval(load_config(write_cfg(tmp_path, text)))
    assert record["k"] == 64 and abs(record["lambda1"]) <= 1e-10
    assert callers and set(callers) == {"_start_frame"}


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
    assert calls == {"distortion_check": 1, "rn": 0}


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


def test_cli_lemma_suite(tmp_path, capsys):
    out_path = str(tmp_path / "lemmas.ndjson")
    assert main(["lemma-suite", "--seed", "11", "--out", out_path]) == 0
    loaded = rec.read_records(out_path)
    assert loaded[0]["status"] == "ok"
    # without --out, stdout holds only the record; the progress lines go to stderr
    capsys.readouterr()
    assert main(["lemma-suite", "--seed", "11"]) == 0
    out, err = capsys.readouterr()
    assert [json.loads(line) for line in out.splitlines()] == loaded
    assert len(err.splitlines()) == len(lemmas.ALL_CHECKS)
    assert all(line.startswith("[lemma-suite] ") for line in err.splitlines())


def test_cli_lemma_failure_is_named(tmp_path, monkeypatch, capsys):
    # `lemma-suite` and `run` on a lemma-suite config name the same failure
    monkeypatch.setattr(lemmas, "ALL_CHECKS", {"always_fails": lambda seed: (False, 1.0)})
    suite_out = str(tmp_path / "suite.ndjson")
    assert main(["lemma-suite", "--seed", "1", "--out", suite_out]) == 3
    run_out = str(tmp_path / "run.ndjson")
    cfg_path = write_cfg(tmp_path, "[run]\nkind = lemma-suite\nseed = 1\n")
    assert main(["run", "--config", cfg_path, "--out", run_out]) == 3
    assert capsys.readouterr().err.count("numerical failure: LemmaFailure") == 2
    for path in (suite_out, run_out):
        record = rec.read_records(path)[0]
        assert (record["status"], record["error"]) == ("fail", "LemmaFailure")
        assert record["always_fails_pass"] is False
    # without --out: the record alone on stdout, the failure on stderr
    assert main(["lemma-suite", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert [json.loads(line) for line in out.splitlines()] == rec.read_records(suite_out)
    assert "always_fails: FAIL" in err and "numerical failure: LemmaFailure" in err


@pytest.mark.parametrize("text", [
    # three i.i.d. probabilities for two matrices
    COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[2, 0], [0, 0.5]] ; [[3, 0], [0, 0.25]]")
    + "\n[driving]\nprobs = 0.2, 0.3, 0.5\n",
    # a two-state Markov law for three maps
    INTERVAL_CFG.replace("maps = doubling", "maps = doubling, tripling, tent")
    + "\n[driving]\nlaw = markov\ntransition = [[0.9, 0.1], [0.2, 0.8]]\n",
], ids=["iid", "markov"])
def test_cli_driving_size_mismatch_is_config_error(tmp_path, capsys, text):
    out_path = tmp_path / "rec.ndjson"
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out_path.exists()


def test_console_entry_point(tmp_path, child_env):
    # the CLI freezes the collector at exit instead of running its last
    # collection: a fresh process still writes its record to --out and to
    # stdout, the same record after strip_volatile, and a numerical failure
    # still exits 3 with its record written
    failing = COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[1, 1], [0, 1]]")
    for name, text, code in (("ok", INTERVAL_CFG, 0), ("fail", failing, 3)):
        cfg_path = write_cfg(tmp_path, text, name=f"{name}.cfg")
        out_path = str(tmp_path / f"{name}.ndjson")
        records = []
        for extra in (["--out", out_path], []):
            proc = subprocess.run(
                [sys.executable, "-m", "oseledets.harness.cli", "run",
                 "--config", cfg_path, *extra],
                capture_output=True, text=True, env=child_env)
            assert proc.returncode == code, proc.stderr
            records.append(rec.read_records(out_path) if extra
                           else [json.loads(line) for line in proc.stdout.splitlines()])
        assert len(records[0]) == 1
        assert records[0][0]["status"] == ("ok" if code == 0 else "error")
        assert [rec.dumps(rec.strip_volatile(r)) for r in records[0]] \
            == [rec.dumps(rec.strip_volatile(r)) for r in records[1]]


def test_cli_import_skips_scipy_optimize(tmp_path, child_env):
    # scipy is most of the CLI's import time; only non-affine interval
    # branches need it, and they import it on first use.  Neither the CLI
    # import, nor a cocycle, affine-interval or sft run, nor the growth and
    # decay diagnostics load any scipy module.
    paths = [write_cfg(tmp_path, text, name=f"{i}.cfg")
             for i, text in enumerate((COCYCLE_CFG, INTERVAL_CFG, SFT_CFG))]
    script = (
        "import sys\n"
        "import oseledets.harness.cli\n"
        "from oseledets.harness import runner\n"
        "from oseledets.harness.config import load_config\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "for path in sys.argv[1:]:\n"
        "    assert runner.run(load_config(path))['status'] == 'ok', path\n"
        "    print(loaded())\n"
        "import numpy as np\n"
        "from oseledets import cocycle as cc\n"
        "gen = cc.Generator.from_list([np.diag([2.0, 0.5]), np.diag([3.0, 0.25])])\n"
        "w = cc.DrivingSystem.iid([0.5, 0.5], seed=1).sample_window(300, 60)\n"
        "rep = cc.oseledets_splitting(gen, None, w, n_past=200, n_future=50)\n"
        "cc.backward_decay_check(gen, w, rep, 1, 100)\n"
        "cc.uniform_growth_check(gen, w, rep.splitting[0], 50)\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", script, *paths],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]"] * 5 + [""]


def _openblas_threads() -> bool:
    """Whether numpy's BLAS is OpenBLAS and this process may use 2 CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower() and len(os.sched_getaffinity(0)) >= 2


def test_import_sets_openblas_thread_timeout(child_env):
    script = "import os, oseledets\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
    bare = {k: v for k, v in child_env.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    for env, expected in ((bare, "4"), ({**bare, "OPENBLAS_THREAD_TIMEOUT": "9"}, "9")):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected + "\n"


@pytest.mark.skipif(not _openblas_threads(), reason="needs threaded OpenBLAS")
def test_idle_openblas_workers_do_not_spin(child_env):
    # without the timeout, the workers of a threaded matmul poll for about
    # 0.13 s of CPU after it returns
    script = (
        "import time\n"
        "import oseledets\n"
        "import numpy as np\n"
        "a = np.random.default_rng(0).random((512, 512))\n"
        "a @ a\n"
        "started = time.process_time()\n"
        "time.sleep(0.3)\n"
        "print(time.process_time() - started)\n")
    env = {k: v for k, v in child_env.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.03


TWO_MATRIX_CFG = COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]",
                                     "[[2, 0], [0, 0.5]] ; [[3, 0], [0, 0.25]]")


@pytest.mark.parametrize("argv, text", [
    (["run"], INTERVAL_CFG.replace("maps = doubling", "maps = doubling, tripling")
     + "\n[driving]\nlaw = markov\ntransition = [[0.5, 0.4], [0.2, 0.8]]\n"),
    (["run"], TWO_MATRIX_CFG
     + "\n[driving]\nlaw = markov\ntransition = [[1.2, -0.2], [0.5, 0.5]]\n"),
    (["run"], COCYCLE_CFG.replace("n = 2000", "n = 0")),
    (["run"], COCYCLE_CFG.replace("n_past = 150", "n_past = -3")),
    (["run"], INTERVAL_CFG.replace("k = 32", "k = 0")),
    (["run"], SFT_CFG.replace("n_ic = 3", "n_ic = 0")),
    (["run"], SFT_CFG + "ly_samples = 0\n"),
    (["run"], COUNTER_CFG.replace("n_pairs = 20", "n_pairs = 0")),
    # the bad point comes second
    (["sweep", "--grid", "k=64,0"], INTERVAL_CFG),
    # a splitting needs two past steps for its convergence check
    (["run"], COCYCLE_CFG.replace("n_past = 150", "n_past = 1")),
    (["sweep", "--grid", "n_past=150,1"], INTERVAL_CFG),
    # grid specs that would be dropped or would set nothing
    (["sweep", "--grid", "k=32", "--grid", "k=64"], INTERVAL_CFG),
    (["sweep", "--grid", "k=32", "--grid", "numerics.k=64"], INTERVAL_CFG),
    (["sweep", "--grid", "=1,2"], INTERVAL_CFG),
    (["sweep", "--grid", "numerics.=3"], INTERVAL_CFG),
    (["sweep", "--grid", ".k=3"], INTERVAL_CFG),
    # [numerics] keys that the kind never reads
    (["sweep", "--grid", "kk=1,2"], INTERVAL_CFG),
    (["run"], SFT_CFG + "k = 8\n"),
    (["run"], SFT_CFG + "m_proj = 3\n"),
    (["run"], SFT_CFG + "ic_samples = 100\n"),
    (["sweep", "--grid", "ic_samples=0,100"], SFT_CFG),
    (["run"], COUNTER_CFG + "n_past = 10\n"),
    # probabilities and transition rows must be finite
    (["run"], TWO_MATRIX_CFG + "\n[driving]\nprobs = nan, 1\n"),
    (["run"], TWO_MATRIX_CFG
     + "\n[driving]\nlaw = markov\ntransition = [[0.5, 0.5], [nan, 1]]\n"),
    # tolerances must be finite
    (["run"], COCYCLE_CFG + "convergence_tolerance = inf\n"),
    (["run"], COCYCLE_CFG + "gap_tolerance = inf\n"),
], ids=["transition-row-sum", "transition-negative", "n", "n_past", "k", "n_ic",
        "ly_samples", "n_pairs", "sweep-k", "cocycle-n_past-1",
        "sweep-interval-n_past-1", "sweep-repeated-key", "sweep-aliased-key",
        "sweep-empty-key", "sweep-empty-name", "sweep-empty-section",
        "sweep-unread-key", "sft-unread-k", "sft-unread-m_proj", "sft-unread-ic_samples",
        "sweep-sft-unread-ic_samples", "counterexample-unread-n_past",
        "probs-not-finite", "transition-not-finite", "convergence-tolerance-inf",
        "gap-tolerance-inf"])
def test_cli_out_of_range_config_is_config_error(tmp_path, capsys, argv, text):
    out_path = tmp_path / "rec.ndjson"
    assert main([*argv, "--config", write_cfg(tmp_path, text), "--out", str(out_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, text", [
    (["sweep", "--grid", "system.mapz=a,b"], INTERVAL_CFG),
    (["sweep", "--grid", "driving.lawz=a,b"], INTERVAL_CFG),
    (["run"], INTERVAL_CFG.replace("maps = doubling", "maps = doubling\nmatrices = [[2]]")),
    # map.1 without map.0 is never read
    (["run"], INTERVAL_CFG.replace("maps = doubling", "maps = doubling\nmap.1 = [0, 1, 1, 0]")),
    (["run"], COCYCLE_CFG.replace("[system]", "[system]\ntheta = 0.5")),
    (["run"], SFT_CFG.replace("[system]", "[system]\nmaps = doubling")),
    (["run"], COUNTER_CFG.replace("[system]", "[system]\namplitudes = 0.8")),
    (["run"], "[run]\nkind = lemma-suite\nseed = 1\n\n[system]\nmatrices = [[2]]\n"),
    (["run"], "[run]\nkind = lemma-suite\nseed = 1\n\n[driving]\nlaw = iid\n"),
    (["run"], TWO_MATRIX_CFG + "\n[driving]\nlaw = markov\nrows = [[0.5, 0.5], [0.5, 0.5]]\n"),
    # each law reads only its own parameters
    (["run"], TWO_MATRIX_CFG + "\n[driving]\nlaw = markov\nprobs = 0.9, 0.1\n"
     "transition = [[0.5, 0.5], [0.5, 0.5]]\n"),
    (["run"], TWO_MATRIX_CFG + "\n[driving]\nlaw = iid\n"
     "transition = [[0.5, 0.5], [-0.5, 1.5]]\n"),
], ids=["sweep-system-mapz", "sweep-driving-lawz", "interval-matrices", "interval-map-gap",
        "cocycle-theta", "sft-maps", "counterexample-amplitudes", "lemma-system",
        "lemma-driving", "cocycle-driving-rows", "markov-probs", "iid-transition"])
def test_cli_unread_system_and_driving_keys_are_config_errors(tmp_path, capsys, argv, text):
    out_path = tmp_path / "rec.ndjson"
    assert main([*argv, "--config", write_cfg(tmp_path, text), "--out", str(out_path)]) == 2
    assert "reads no [" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("text", [
    INTERVAL_CFG.replace("maps = doubling", "map.0 = [0, 1, 2]"),
    INTERVAL_CFG.replace("maps = doubling", "map.0 = [0, 0.6, 1.5, 0]"),
    INTERVAL_CFG.replace("maps = doubling", "map.0 = [0, 1, 2, 0]"),
    INTERVAL_CFG.replace("maps = doubling",
                         "map.0 = [-0.25, 0.25, 2, 0.5] ; [0.25, 0.75, 2, -0.5]"),
    INTERVAL_CFG.replace("maps = doubling", "maps = slope:0"),
    INTERVAL_CFG.replace("maps = doubling", "maps = slope:2"),
    INTERVAL_CFG.replace("maps = doubling", "maps = slope:x"),
    COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[inf, 0], [0, 1]]"),
    COUNTER_CFG.replace("a0 = [[3, 0], [0, 0.3333333333333333]]", "a0 = [[1, 0], [0, 0]]"),
    # shape errors: Generator raises DimensionMismatch, a NumericalFailure
    COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[1, 2, 3], [4, 5, 6]]"),
    COUNTER_CFG.replace("a1 = [[0, 0.3333333333333333], [3, 0]]",
                        "a1 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    SFT_CFG.replace("amplitudes = 0.8", "amplitudes = nan"),
    SFT_CFG.replace("amplitudes = 0.8", "amplitudes = 0.8, inf"),
    # non-finite map coefficients: not a weak expansion or a failed quadrature
    INTERVAL_CFG.replace("maps = doubling", "maps = slope:nan"),
    INTERVAL_CFG.replace("maps = doubling", "map.0 = [0, 1, nan, 0]"),
    INTERVAL_CFG.replace("maps = doubling", "maps = slope:inf"),
    # the grammar: bracketed rows inside one pair of brackets, finite numbers
    COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[2, 0] junk [0, 0.5]]"),
    COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", "[[2], [0.5]"),
    TWO_MATRIX_CFG + "\n[driving]\nprobs = [[0.5, 0.5]]\n",
    SFT_CFG.replace("theta = 0.5", "theta = 1e999"),
    # the demonstration is for two invertible 2x2 matrices
    COUNTER_CFG.replace("a0 = [[3, 0], [0, 0.3333333333333333]]",
                        "a0 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
               .replace("a1 = [[0, 0.3333333333333333], [3, 0]]",
                        "a1 = [[2, 0, 0], [0, 1, 0], [0, 0, 0.5]]"),
], ids=["map-row-length", "map-domains-short", "map-image-leaves", "map-domain-leaves",
        "slope-zero", "slope-image-leaves", "slope-not-a-number", "matrix-not-finite",
        "counterexample-singular", "matrix-not-square", "counterexample-sizes-differ",
        "amplitude-nan", "amplitude-inf", "slope-nan", "map-slope-nan", "slope-inf",
        "junk-between-rows", "unclosed-last-row", "nested-probs", "theta-1e999",
        "counterexample-3x3"])
def test_cli_invalid_system_values_are_config_errors(tmp_path, capsys, text):
    out_path = tmp_path / "rec.ndjson"
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("text, grid", [
    (INTERVAL_CFG, "system.maps=tripling,slope:2"),
    (INTERVAL_CFG + "\n[driving]\nprobs = 1\n", "system.maps=doubling,doubling tripling"),
    (COCYCLE_CFG, "system.matrices=[[2]],[[1 2 3]]"),
], ids=["interval-slope-image-leaves", "interval-driving-size", "cocycle-not-square"])
def test_sweep_checks_every_point_system_before_running_any(tmp_path, capsys, monkeypatch,
                                                            text, grid):
    # point 0 is valid and point 1 is not: nothing may run
    ran, run = [], runner.run
    monkeypatch.setattr(runner, "run", lambda cfg: ran.append(cfg) or run(cfg))
    out_path = tmp_path / "rec.ndjson"
    argv = ["sweep", "--config", write_cfg(tmp_path, text), "--out", str(out_path),
            "--grid", grid]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert ran == [] and not out_path.exists()


def test_read_system_keys_are_accepted(tmp_path):
    # every key each kind reads, map.0 and map.1 included
    text = INTERVAL_CFG.replace("maps = doubling",
                                "map.0 = [0, 0.5, 2, 0] ; [0.5, 1, 2, -1]\n"
                                "map.1 = [0, 1, 0.5, 0.25]")
    text += "\n[driving]\nlaw = iid\nprobs = 0.5, 0.5\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert set(cfg.system) == {"map.0", "map.1"} and len(_build_maps(cfg)) == 2
    for base in (COCYCLE_CFG, SFT_CFG, COUNTER_CFG):
        load_config(write_cfg(tmp_path, base))


def _readme_numerics_defaults() -> dict:
    """{kind: {key: default}} from the comment block under `[numerics]` in
    the README's configuration example."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("\n[numerics]\n", 1)[1]
    defaults, keys = {}, None
    for line in itertools.takewhile(lambda line: line.startswith("#"), block.splitlines()):
        head, colon, body = line[1:].partition(":")
        if colon:
            keys = defaults.setdefault(head.strip(), {})
        for item in filter(str.strip, (body if colon else head).split(",")):
            key, value = (part.strip() for part in item.split("="))
            for cast in (int, float, str):
                try:
                    keys[key] = cast(value)
                    break
                except ValueError:
                    pass
    return defaults


def test_readme_numerics_defaults_match_the_table():
    table = {kind: {key: (type(default), default) for key, (default, _) in keys.items()}
             for kind, keys in NUMERICS.items() if keys}
    readme = {kind: {key: (type(value), value) for key, value in keys.items()}
              for kind, keys in _readme_numerics_defaults().items()}
    assert readme == table


@pytest.mark.parametrize("text", [COCYCLE_CFG, INTERVAL_CFG, SFT_CFG, COUNTER_CFG],
                         ids=["cocycle", "interval", "sft", "counterexample"])
def test_runs_without_numerics_use_the_table_defaults(tmp_path, text):
    cfg = load_config(write_cfg(tmp_path, text.split("[numerics]")[0]))
    assert cfg.numerics == {}
    record = runner.run(cfg)
    assert record["status"] == "ok"
    counts = [key for key in ("n", "k", "n_past", "n_future", "n_pairs", "past_length")
              if key in record]
    assert counts
    assert {key: record[key] for key in counts} == {
        key: NUMERICS[cfg.kind][key][0] for key in counts}


def test_a_run_builds_its_system_once_and_a_sweep_once_per_point_and_base(
        tmp_path, monkeypatch, workloads):
    builds = []
    for kind, build in config.SYSTEMS.items():
        monkeypatch.setitem(config.SYSTEMS, kind,
                            lambda cfg, _build=build: builds.append(cfg.kind) or _build(cfg))
    out_path = str(tmp_path / "rec.ndjson")
    for name in ("COCYCLE_CFG", "INTERVAL_CFG", "SFT_CFG", "COUNTER_CFG"):
        builds.clear()
        assert main(["run", "--config", write_cfg(tmp_path, globals()[name]),
                     "--out", out_path]) == 0
        assert len(builds) == 1, name
    # the benchmark's 6-point interval sweep: the base config and each point
    sweep = workloads.WORKLOADS["interval-sweep"]
    builds.clear()
    assert main(sweep.argv(write_cfg(tmp_path, sweep.config(0)), out_path)) == 0
    assert builds == ["interval"] * 7


@pytest.mark.parametrize("transition", [
    "[[1, 0], [0, 1]]",
    "[[0.5, 0.5, 0], [0, 1, 0], [0, 0, 1]]",
])
def test_cli_markov_law_with_several_closed_classes_is_config_error(tmp_path, capsys,
                                                                    transition):
    mats = " ; ".join(["[[2, 0], [0, 0.5]]"] * transition.count("], ["))
    mats += " ; [[3, 0], [0, 0.25]]"
    text = (COCYCLE_CFG.replace("[[2, 0], [0, 0.5]]", mats)
            + f"\n[driving]\nlaw = markov\ntransition = {transition}\n")
    out_path = tmp_path / "rec.ndjson"
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_path)]) == 2
    assert "closed classes" in capsys.readouterr().err
    assert not out_path.exists()


def test_markov_rows_within_tolerance_are_normalised(tmp_path):
    # the second row sums to 1 + 5e-10: accepted, then normalised
    text = (TWO_MATRIX_CFG
            + "\n[driving]\nlaw = markov\ntransition = [[0.9, 0.1], [0.2, 0.8000000005]]\n")
    driving = build_driving(load_config(write_cfg(tmp_path, text)), 2)
    assert np.allclose(np.sum(driving.transition, axis=1), 1.0, rtol=0, atol=1e-15)


# digests of the benchmark configs (seed 0) and their sweep points, and of
# the module configs above, from before unread [numerics] keys were rejected
KNOWN_CONFIG_DIGESTS = {
    "orbit-markov": "7a9e2d2f01bdca96",
    "interval-sweep": "d4982c4a4ffaaef7",
    "interval-sweep[0]": "097b303f7694ec19",
    "interval-sweep[1]": "935e4a3e2e49d814",
    "interval-sweep[2]": "d5f6081f5c86d315",
    "interval-sweep[3]": "c740e1157fe82517",
    "interval-sweep[4]": "898305d69a0ffda9",
    "interval-sweep[5]": "b5071f6fd7fdbfd9",
    "sft-certificates": "a20ab2327d2195b4",
    "COUNTER_CFG": "52ec22327e1a647f",
    "INTERVAL_CFG": "53c19ff953216d67",
    "SFT_CFG": "ea1d3a388671f3bf",
    "COCYCLE_CFG": "e3d500233a73c53d",
    "TWO_MATRIX_CFG": "6bd86948a11d72b9",
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    return importlib.import_module("workloads")


def test_known_configs_stay_valid_with_their_digests(tmp_path, workloads):
    digests = {}
    for name, w in workloads.WORKLOADS.items():
        cfg = load_config(write_cfg(tmp_path, w.config(0), name=f"{name}.cfg"))
        digests[name] = cfg.digest()
        if w.grid:
            grid = runner.parse_grid(list(w.grid))
            keys = [k for k, _ in grid]
            for i, combo in enumerate(itertools.product(*[vals for _, vals in grid])):
                point = runner._apply_point(cfg, dict(zip(keys, combo)), i)
                digests[f"{name}[{i}]"] = point.digest()
    for name in ("COUNTER_CFG", "INTERVAL_CFG", "SFT_CFG", "COCYCLE_CFG", "TWO_MATRIX_CFG"):
        digests[name] = load_config(write_cfg(tmp_path, globals()[name])).digest()
    assert digests == KNOWN_CONFIG_DIGESTS


def test_mistyped_grid_key_on_benchmark_sweep_is_config_error(tmp_path, capsys, workloads):
    # `kk` is read by no interval run: it used to write two identical records
    sweep = workloads.WORKLOADS["interval-sweep"]
    out_path = tmp_path / "rec.ndjson"
    argv = sweep.argv(write_cfg(tmp_path, sweep.config(0)), str(out_path))
    assert main(argv + ["--grid", "kk=1,2"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "kk" in err
    assert not out_path.exists()
    assert main(argv) == 0
