"""Run configuration: a line-oriented key-value format with section headers.

Grammar (UTF-8, parsed with configparser):

    [run]
    kind = cocycle | interval | sft | counterexample | lemma-suite
    seed = <u64>                  # required somewhere (file or --seed)
    out  = <path>                 # optional, --out overrides

    [driving]                     # optional; defaults to uniform i.i.d.
    law = iid | markov
    probs = 0.5, 0.5
    transition = [[0.9, 0.1], [0.2, 0.8]]

    [system]                      # kind-specific, see the field dictionary
    matrices = [[2, 0], [0, 0.5]] ; [[3, 0], [0, 0.333]]
    maps = doubling, tripling
    map.0 = [0, 0.5, 2, 0] ; [0.5, 1, 2, -1]
    theta = 0.5
    amplitudes = 0.8
    a0 = [[3, 0], [0, 0.3333333333333333]]
    a1 = [[0, 0.3333333333333333], [3, 0]]

    [numerics]
    n = 100000                    # integers and floats as usual
    n_past = 200
    ...

Each kind accepts only the [numerics], [system] and [driving] keys it reads
(`NUMERICS_KEYS`, `SYSTEM_KEYS`, `DRIVING_KEYS`).
Matrices are bracketed row lists; several matrices are separated by ';'.
Every tolerance must be positive and the seed must be given explicitly: runs
never draw entropy from the environment.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..cocycle import DrivingSystem, single_closed_class
from ..errors import ConfigError

KINDS = ("cocycle", "interval", "sft", "counterexample", "lemma-suite")
# smallest allowed value of each integer count in [numerics]
COUNT_MINIMA = {"n": 1, "k": 1, "n_ic": 1, "m_proj": 1, "n_pairs": 1, "ly_samples": 1,
                "n_past": 0, "n_future": 0, "g_len": 0, "ic_samples": 0,
                "past_length": 0, "future_length": 0}
# the [numerics] keys a run of each kind reads; any other key is an error
NUMERICS_KEYS = {
    "cocycle": {"n", "n_past", "n_future", "g_len", "gap_tolerance", "convergence_tolerance"},
    "interval": {"k", "n_past", "n_future"},
    "sft": {"n", "n_ic", "m_proj", "ic_samples", "ly_samples"},
    "counterexample": {"n_pairs", "past_length", "future_length", "gap_tolerance"},
    "lemma-suite": set(),
}
# the [system] keys a run of each kind reads (interval runs also read map.0,
# map.1, ... up to the first missing index), and the [driving] keys of every
# kind that samples symbols
SYSTEM_KEYS = {
    "cocycle": {"matrices"},
    "interval": {"maps"},
    "sft": {"theta", "amplitudes"},
    "counterexample": {"a0", "a1"},
    "lemma-suite": set(),
}
DRIVING_KEYS = {"law", "probs", "transition"}


def parse_vector(text: str) -> list[float]:
    text = text.strip().strip("[]")
    if not text:
        raise ConfigError("empty vector")
    try:
        return [float(x) for x in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}") from exc


def parse_matrix(text: str) -> list[list[float]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigError(f"matrix must be bracketed rows: {text!r}")
    inner = text[1:-1].strip()
    rows = []
    depth = 0
    current = ""
    for ch in inner:
        if ch == "[":
            depth += 1
            if depth == 1:
                current = ""
                continue
        if ch == "]":
            depth -= 1
            if depth == 0:
                rows.append(parse_vector(current))
                continue
        if depth >= 1:
            current += ch
    if not rows:
        raise ConfigError(f"no rows in matrix {text!r}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("ragged matrix rows")
    return rows


def parse_matrices(text: str) -> list[list[list[float]]]:
    return [parse_matrix(part) for part in text.split(";") if part.strip()]


@dataclass
class RunConfig:
    kind: str
    seed: int
    out: str | None
    system: dict = field(default_factory=dict)
    driving: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)

    def digest(self) -> str:
        payload = json.dumps(
            {"kind": self.kind, "seed": self.seed, "system": self.system,
             "driving": self.driving, "numerics": self.numerics},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def numeric(self, key: str, default, cast=float):
        if key not in self.numerics:
            return default
        try:
            return cast(self.numerics[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad numeric value for {key}") from exc


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    return dict(cp[name]) if cp.has_section(name) else {}


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not cp.has_section("run"):
        raise ConfigError("missing [run] section")
    run = dict(cp["run"])
    kind = run.get("kind", "").strip()
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if seed_override is not None:
        seed = seed_override
    elif "seed" in run:
        try:
            seed = int(run["seed"])
        except ValueError as exc:
            raise ConfigError("seed must be an integer") from exc
    else:
        raise ConfigError("a seed is required (config [run] seed or --seed)")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    out = out_override or run.get("out")
    cfg = RunConfig(kind=kind, seed=seed, out=out,
                    system=_section(cp, "system"),
                    driving=_section(cp, "driving"),
                    numerics=_section(cp, "numerics"))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    system, i = set(SYSTEM_KEYS[cfg.kind]), 0
    while cfg.kind == "interval" and f"map.{i}" in cfg.system:
        system.add(f"map.{i}")
        i += 1
    for section, keys, read in (
            ("numerics", cfg.numerics, NUMERICS_KEYS[cfg.kind]),
            ("system", cfg.system, system),
            ("driving", cfg.driving, DRIVING_KEYS if cfg.kind != "lemma-suite" else set())):
        unread = sorted(set(keys) - read)
        if unread:
            raise ConfigError(f"kind {cfg.kind} reads no [{section}] key {', '.join(unread)}")
    for key, raw in cfg.numerics.items():
        if "tolerance" in key:
            try:
                val = float(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad tolerance {key}") from exc
            if not val > 0:
                raise ConfigError(f"tolerance {key} must be positive")
    for key, low in COUNT_MINIMA.items():
        if cfg.numeric(key, low, int) < low:
            raise ConfigError(f"{key} must be at least {low}")
    # a splitting's convergence check compares against half the past
    if cfg.kind in ("cocycle", "interval") and cfg.numeric("n_past", 2, int) < 2:
        raise ConfigError("n_past must be at least 2 for a cocycle or interval run")
    if "theta" in cfg.system:
        try:
            theta = float(cfg.system["theta"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad theta") from exc
        if not 0.0 < theta < 1.0:
            raise ConfigError("theta must lie strictly between 0 and 1")
    if cfg.driving:
        law = cfg.driving.get("law", "iid")
        if law not in ("iid", "markov"):
            raise ConfigError(f"unknown driving law {law!r}")
        if "probs" in cfg.driving:
            probs = parse_vector(cfg.driving["probs"])
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise ConfigError("probs must be nonnegative and sum to 1")
        if law == "markov" and "transition" in cfg.driving:
            rows = parse_matrix(cfg.driving["transition"])
            if any(p < 0 for row in rows for p in row) or any(
                    abs(sum(row) - 1.0) > 1e-9 for row in rows):
                raise ConfigError("transition entries must be nonnegative "
                                  "and each row must sum to 1")
            if len(rows) == len(rows[0]) and not single_closed_class(rows):
                raise ConfigError("the transition matrix has several closed classes, "
                                  "so its stationary law is not unique")
    if cfg.kind == "counterexample":
        for key in ("a0", "a1"):
            if key not in cfg.system:
                raise ConfigError(f"counterexample needs system.{key}")


def build_driving(cfg: RunConfig, n_symbols: int):
    """The configured driving law over the system's `n_symbols` symbols
    (uniform i.i.d. by default); a law of another size is a ConfigError."""
    if cfg.driving.get("law", "iid") == "markov":
        if "transition" not in cfg.driving:
            raise ConfigError("markov driving needs a transition matrix")
        t = np.asarray(parse_matrix(cfg.driving["transition"]))
        if t.shape != (n_symbols, n_symbols):
            raise ConfigError(f"the transition matrix must be {n_symbols}x{n_symbols}: "
                              f"the system has {n_symbols} symbols")
        return DrivingSystem.markov(t / t.sum(axis=1, keepdims=True), seed=cfg.seed)
    probs = (parse_vector(cfg.driving["probs"]) if "probs" in cfg.driving
             else [1.0 / n_symbols] * n_symbols)
    if len(probs) != n_symbols:
        raise ConfigError(f"probs has {len(probs)} entries: "
                          f"the system has {n_symbols} symbols")
    arr = np.asarray(probs)
    return DrivingSystem.iid(arr / arr.sum(), seed=cfg.seed)
