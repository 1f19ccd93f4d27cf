"""Traced in-process run of the CLI: time the import of the CLI module, wrap
the library's public functions where their callers look them up, run
`oseledets.harness.cli.main(argv)` and write the per-span table as JSON.

    python3 perfbench/layertrace.py METRICS.json -- run --config run.cfg --out r.ndjson

Spans are kept per thread; a span's self time is its duration minus the
durations of the spans it called on the same thread.  No library file is
changed: the wrappers replace module attributes in this process only.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time

# (span name, module, attribute) of every module-level function traced
FUNCTIONS = (
    ("cocycle.lyapunov_exponents", "oseledets.cocycle", "lyapunov_exponents"),
    ("cocycle.oseledets_splitting", "oseledets.cocycle", "oseledets_splitting"),
    ("cocycle.uniqueness_diagnostic", "oseledets.cocycle", "uniqueness_diagnostic"),
    ("grassmann.gap", "oseledets.grassmann", "gap"),
    ("grassmann.project_along", "oseledets.grassmann", "project_along"),
    ("interval.ulam_matrix", "oseledets.interval", "ulam_matrix"),
    ("interval.random_acim", "oseledets.interval", "random_acim"),
    ("sft.norm_and_ic_bounds", "oseledets.sft", "norm_and_ic_bounds"),
    ("sft.distortion_check", "oseledets.sft", "distortion_check"),
    ("sft.transfer_apply_word", "oseledets.sft", "transfer_apply_word"),
    ("sft.lipschitz_ly_check", "oseledets.sft", "lipschitz_ly_check"),
    ("harness.run", "oseledets.harness.runner", "run"),
    ("harness.sweep", "oseledets.harness.runner", "sweep"),
)
SAMPLERS = ("sample_window", "sample_windows", "sample_past_variants")


class Tracer:
    """Per-thread span stacks and per-thread tables of
    name -> [calls, total_s, self_s, failures, work]."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            self._tables.append(state[1])  # list.append is atomic
        return state

    def wrap(self, name, fn, work=None):
        """`work(args, kwargs, result)` adds a count to the span's work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._state()
            children = [0.0]
            stack.append(children)
            ok = False
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                duration = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - children[0]
                if not ok:
                    row[3] += 1
            if work is not None:
                row[4] += work(args, kwargs, result)
            return result
        return traced

    def table(self) -> dict:
        out: dict[str, dict] = {}
        for table in self._tables:
            for name, (calls, total, self_s, failures, work) in table.items():
                agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "failures": 0, "work": 0})
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += self_s
                agg["failures"] += failures
                agg["work"] += work
        return out


def qr_flops(shape, mode: str) -> int:
    """Householder flops of LAPACK geqrf, plus orgqr for the reduced Q that
    the default mode returns; a count computed from the input shape."""
    *batch, m, n = shape
    k = min(m, n)
    geqrf = 4 * m * n * k - 2 * (m + n) * k * k + 4 * k ** 3 / 3
    orgqr = 2 * m * k * k - 2 * k ** 3 / 3 if mode == "reduced" else 0
    return round(math.prod(batch) * (geqrf + orgqr))


def _replace_everywhere(original, replacement) -> None:
    """Rebind every `oseledets` module attribute that holds `original`."""
    for modname, module in list(sys.modules.items()):
        if modname == "oseledets" or modname.startswith("oseledets."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    import numpy as np

    for name, modname, attr in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        _replace_everywhere(original, tracer.wrap(name, original))

    driving = sys.modules["oseledets.cocycle"].DrivingSystem
    for attr in SAMPLERS:
        work = None
        if attr == "sample_window":
            def work(args, kwargs, window):
                return window.n_past + window.n_future
        setattr(driving, attr, tracer.wrap("cocycle.sample", getattr(driving, attr), work))

    # numpy.linalg.qr is shared by every module; only the calls made from
    # oseledets.cocycle form the cocycle.qr span.
    qr = np.linalg.qr
    cocycle_qr = tracer.wrap(
        "cocycle.qr", qr,
        lambda args, kwargs, result: qr_flops(np.shape(args[0]),
                                              kwargs.get("mode", "reduced")))

    def traced_qr(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "oseledets.cocycle":
            return cocycle_qr(*args, **kwargs)
        return qr(*args, **kwargs)

    np.linalg.qr = traced_qr


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layertrace.py METRICS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    metrics_path, cli_args = argv[0], argv[2:]
    started = time.perf_counter()
    from oseledets.harness import cli
    import_s = time.perf_counter() - started

    tracer = Tracer()
    install(tracer)
    exit_code = cli.main(cli_args)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.table()}, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
