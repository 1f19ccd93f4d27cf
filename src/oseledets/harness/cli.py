"""Command-line interface.

Subcommands: run, sweep, plotdata, lemma-suite.  Exit codes are stable:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

from ..errors import ConfigError
from . import records as rec
from . import runner
from .config import load_config
from .lemmas import run_lemma_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# skip the interpreter's last collection, a walk over every live object at exit
atexit.register(gc.freeze)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oseledets",
        description="Lyapunov spectra and splittings for operator cocycles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("--config", required=True, help="configuration file")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("--out", default=None, help="record output path")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--grid", action="append", default=[],
                         metavar="KEY=V1,V2,...",
                         help="grid values; repeatable, keys may be "
                              "section.name or bare numerics names")

    p_plot = sub.add_parser("plotdata", help="tabulate fields from records")
    p_plot.add_argument("records", help="newline-delimited records file")
    p_plot.add_argument("--select", required=True,
                        help="comma-separated field names")
    p_plot.add_argument("--out", default=None, help="output path (default stdout)")

    p_lemma = sub.add_parser("lemma-suite",
                             help="run the randomized property corpus")
    p_lemma.add_argument("--seed", type=int, required=True)
    p_lemma.add_argument("--out", default=None)
    return parser


def _write_or_print(records: list[dict], out: str | None) -> None:
    if out:
        rec.write_records(out, records)
    else:
        for record in records:
            sys.stdout.write(rec.dumps(record) + "\n")


def _report(record: dict, out: str | None) -> int:
    """Write one record; a failed record is named on stderr and exits 3."""
    _write_or_print([record], out)
    if record["status"] != "ok":
        print(f"numerical failure: {record['error']}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config, args.seed, args.out)
            return _report(runner.run(cfg), cfg.out)

        if args.command == "sweep":
            cfg = load_config(args.config, args.seed, args.out)
            grid = runner.parse_grid(args.grid)
            out_records = runner.sweep(cfg, grid)
            _write_or_print(out_records, cfg.out)
            if out_records and all(r["status"] != "ok" for r in out_records):
                return EXIT_NUMERIC
            return EXIT_OK

        if args.command == "plotdata":
            loaded = rec.read_records(args.records)
            selector = [s for s in args.select.split(",") if s]
            table = rec.emit_plotdata(loaded, selector)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(table)
            else:
                sys.stdout.write(table)
            return EXIT_OK

        if args.command == "lemma-suite":
            return _report(run_lemma_suite(args.seed, verbose=True), args.out)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
