"""Benchmark: fresh-process time to a checked result on three workloads.

    python3 perfbench/run.py --workload orbit-markov --seed 3 --seconds 30 --trace 0

With `--trace 0` the benchmark spawns the real CLI (`oseledets run|sweep`) as
a fresh process, one at a time, for `--seconds` seconds, and reports the
medians of the end-to-end metrics listed in BENCHMARK.json.  Before that it
times several fresh processes that only import the CLI and load the config
(`setup_s`).  With `--trace 1` it alternates an untraced process with a
traced one (perfbench/layertrace.py) and reports the per-layer metrics.

Every record is checked against the workload's exact oracle, and the records
of all repeats (volatile fields stripped) must hash to one digest.  The last
line of standard output is the result object; the line before it carries the
digest, the machine fingerprint and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_REPEATS = 3     # timed CLI calls per run, so the median drops one outlier
PROCESS_TIMEOUT_S = 150

SETUP_PROBE = ("import sys\n"
               "from oseledets.harness import cli\n"
               "cli.load_config(sys.argv[1])\n")

# per-layer metric -> (span in perfbench/layertrace.py, field of its table row)
SPAN_METRICS = {
    "cocycle.sample.self_s": ("cocycle.sample", "self_s"),
    "cocycle.sample.symbols": ("cocycle.sample", "work"),
    "cocycle.lyapunov_exponents.self_s": ("cocycle.lyapunov_exponents", "self_s"),
    "cocycle.qr.calls": ("cocycle.qr", "calls"),
    "cocycle.qr.self_s": ("cocycle.qr", "self_s"),
    "cocycle.qr.flops": ("cocycle.qr", "work"),
    "cocycle.oseledets_splitting.self_s": ("cocycle.oseledets_splitting", "self_s"),
    "cocycle.oseledets_splitting.calls": ("cocycle.oseledets_splitting", "calls"),
    "cocycle.oseledets_splitting.failures": ("cocycle.oseledets_splitting", "failures"),
    "cocycle.uniqueness_diagnostic.self_s": ("cocycle.uniqueness_diagnostic", "self_s"),
    "grassmann.gap.calls": ("grassmann.gap", "calls"),
    "grassmann.gap.self_s": ("grassmann.gap", "self_s"),
    "grassmann.project_along.self_s": ("grassmann.project_along", "self_s"),
    "interval.ulam_matrix.self_s": ("interval.ulam_matrix", "self_s"),
    "interval.ulam_matrix.calls": ("interval.ulam_matrix", "calls"),
    "interval.random_acim.self_s": ("interval.random_acim", "self_s"),
    "interval.random_acim.failures": ("interval.random_acim", "failures"),
    "sft.norm_and_ic_bounds.self_s": ("sft.norm_and_ic_bounds", "self_s"),
    "sft.distortion_check.self_s": ("sft.distortion_check", "self_s"),
    "sft.transfer_apply_word.self_s": ("sft.transfer_apply_word", "self_s"),
    "sft.transfer_apply_word.calls": ("sft.transfer_apply_word", "calls"),
    "sft.lipschitz_ly_check.self_s": ("sft.lipschitz_ly_check", "self_s"),
    "harness.sweep.wall_s": ("harness.sweep", "total_s"),
    "harness.run.calls": ("harness.run", "calls"),
    "harness.run.self_s": ("harness.run", "self_s"),
}


class ProcessTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ProcessTimeout


def spawn(args: list[str], env: dict, log: Path) -> tuple[int, float, float, float]:
    """Run `python3 ARGS` as a fresh process and wait for it.  Returns
    (exit code, wall s from spawn to exit, user+sys CPU s, max RSS MiB)."""
    argv = [sys.executable] + args
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    signal.alarm(PROCESS_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except ProcessTimeout:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - started
    cpu = usage.ru_utime + usage.ru_stime
    return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss / 1024.0


def fingerprint() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


class Checker:
    """Reads the records of one CLI call, checks them, and tracks the
    counts, the digest of every call and whether all outputs were correct."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.passed = 0
        self.correct = True
        self.digests: list[str] = []
        self.checked: dict[str, list[list[str] | None]] = {}
        self.errors: set[str] = set()

    def problem(self, message: str) -> None:
        self.correct = False
        print(f"{self.workload.name}: {message}", file=sys.stderr)

    def take(self, exit_code: int, out_path: Path) -> None:
        from oseledets.harness.records import strip_volatile

        self.attempted += self.workload.records
        try:
            with open(out_path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
        except (OSError, ValueError) as exc:
            self.problem(f"exit {exit_code}, records unreadable: {exc}")
            return
        finally:
            out_path.unlink(missing_ok=True)
        if len(records) != self.workload.records:
            self.problem(f"exit {exit_code}, {len(records)} records, "
                         f"expected {self.workload.records}")
            return
        ok = [r.get("status") == "ok" for r in records]
        self.errors.update(f"record {i}: {r.get('error')}"
                           for i, (r, is_ok) in enumerate(zip(records, ok)) if not is_ok)
        expected_exit = 0 if (any(ok) if self.workload.command == "sweep" else all(ok)) else 3
        if exit_code != expected_exit:
            self.problem(f"exit code {exit_code}, expected {expected_exit} from the records")
        payload = "\n".join(json.dumps(strip_volatile(r), sort_keys=True) for r in records)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if self.digests and digest != self.digests[0]:
            self.problem("records differ between repeats")
        self.digests.append(digest)
        if digest not in self.checked:  # equal digests: equal records, equal verdicts
            self.checked[digest] = [self.workload.check(r, self.seed) if is_ok else None
                                    for r, is_ok in zip(records, ok)]
            for index, failed in enumerate(self.checked[digest]):
                for name in failed or ():
                    self.problem(f"record {index}: check failed: {name}")
        self.passed += sum(failed == [] for failed in self.checked[digest])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "oseledets" / "harness" / "cli.py").is_file():
        print(f"no oseledets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("seed must be nonnegative", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _on_alarm)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        tmp = Path(tmp)
        config = tmp / "run.cfg"
        config.write_text(workload.config(args.seed), encoding="utf-8")
        out = tmp / "records.ndjson"
        log = tmp / "process.log"
        cli = ["-m", "oseledets.harness.cli"] + workload.argv(str(config), str(out))
        checker = Checker(workload, args.seed)
        samples: dict[str, list[float]] = {}

        def record_sample(name, value):
            samples.setdefault(name, []).append(value)

        def untraced():
            code, wall, cpu, rss = spawn(cli, env, log)
            checker.take(code, out)
            record_sample("wall_s", wall)
            record_sample("cpu_s", cpu)
            record_sample("peak_rss_mb", rss)

        def traced():
            table = tmp / "trace.json"
            code, wall, _, _ = spawn([str(HERE / "layertrace.py"), str(table), "--"] + cli[2:],
                                     env, log)
            checker.take(code, out)
            result = json.loads(table.read_text())
            record_sample("traced_wall_s", wall)
            record_sample("harness.import_s", result["import_s"])
            spans = result["spans"]
            for name, (span, field) in SPAN_METRICS.items():
                record_sample(name, spans.get(span, {}).get(field, 0.0 if "_s" in field else 0))
            busy = spans["harness.run"]["total_s"] if "harness.sweep" in spans else 0.0
            record_sample("harness.sweep.busy_s", busy)

        try:
            if args.trace == 0:
                for _ in range(SETUP_REPEATS):
                    code, wall, _, _ = spawn(["-c", SETUP_PROBE, str(config)], env, log)
                    if code != 0:
                        checker.problem(f"set-up process exited with {code}")
                    record_sample("setup_s", wall)
            started = time.perf_counter()
            min_repeats = 1 if args.trace else MIN_REPEATS
            while (len(samples.get("wall_s", ())) < min_repeats
                   or time.perf_counter() - started < args.seconds):
                untraced()
                if args.trace == 1:
                    traced()
        except (ProcessTimeout, OSError, ValueError, KeyError) as exc:
            log_text = log.read_text(errors="replace")[-2000:] if log.exists() else ""
            print(f"{workload.name}: benchmark aborted: {exc!r}\n{log_text}", file=sys.stderr)
            return 1

    medians = {name: statistics.median(values) for name, values in samples.items()}
    medians["ok_frac"] = checker.passed / checker.attempted
    if args.trace == 1:
        medians["trace_overhead_s"] = medians["traced_wall_s"] - medians["wall_s"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]} for m in wanted}
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "digest": checker.digests[0] if len(set(checker.digests)) == 1 else None,
            "record_errors": sorted(checker.errors), "fingerprint": fingerprint(),
            "samples": samples}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.attempted - checker.passed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
