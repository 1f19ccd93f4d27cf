"""Run configuration: a line-oriented key-value format with section headers.

Grammar (UTF-8, parsed with configparser):

    [run]
    kind = cocycle | interval | sft | counterexample | lemma-suite
    seed = <u64>                  # required somewhere (file or --seed)
    out  = <path>                 # optional, --out overrides

    [driving]                     # optional; defaults to uniform i.i.d.
    law = iid | markov
    probs = 0.5, 0.5              # iid only
    transition = [[0.9, 0.1], [0.2, 0.8]]   # markov only

    [system]                      # kind-specific, see the field dictionary
    matrices = [[2, 0], [0, 0.5]] ; [[3, 0], [0, 0.333]]
    maps = doubling, tripling
    map.0 = [0, 0.5, 2, 0] ; [0.5, 1, 2, -1]
    theta = 0.5
    amplitudes = 0.8
    a0 = [[3, 0], [0, 0.3333333333333333]]
    a1 = [[0, 0.3333333333333333], [3, 0]]

    [numerics]
    n = 10000                     # integers and floats as usual
    n_past = 200
    ...

Each kind accepts only the [numerics], [system] and [driving] keys it (or its
driving law) reads (`NUMERICS`, `SYSTEM_KEYS`, `DRIVING_KEYS`).  Every number
is read by `parse_number` and must be finite.  Numbers, and the bracketed rows
of a matrix inside its one pair of brackets, are separated by commas or spaces
(spaces inside --grid values, which commas split); ';' separates matrices.
`validate_config` checks those keys, resolves each [numerics] value from the
`NUMERICS` table (the key's default where unset; every tolerance positive,
every count an int at least its least value), then builds the system and
driving law (`SYSTEMS`), which checks every [system] and [driving] value.  It
returns the values and the system together; `load_config` keeps them on the
config as `built`, which the runner reads, so a loaded config is one that
has been built, once.  The seed must be given explicitly: runs never
draw entropy from the environment.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .. import cocycle as cc
from .. import interval as iv
from .. import sft as sf
from ..errors import ConfigError, DimensionMismatch

KINDS = ("cocycle", "interval", "sft", "counterexample", "lemma-suite")
# per kind, each [numerics] key the run reads with its default and least
# value; any other key is an error.  A count (int default) is an int at least
# its least value, a tolerance (float default) a finite float above it.
# n_past is at least 2: the splitting's convergence check compares against
# half the past.
NUMERICS = {
    "cocycle": {"n": (10_000, 1), "n_past": (200, 2), "n_future": (50, 0), "g_len": (20, 0),
                "gap_tolerance": (cc.GAP_TOLERANCE, 0.0),
                "convergence_tolerance": (cc.CONVERGENCE_TOLERANCE, 0.0)},
    "interval": {"k": (64, 1), "n_past": (200, 2), "n_future": (50, 0)},
    "sft": {"n": (100_000, 1), "n_ic": (3, 1), "ly_samples": (25, 1)},
    "counterexample": {"n_pairs": (50, 1), "past_length": (100, 0), "future_length": (20, 0),
                       "gap_tolerance": (cc.GAP_TOLERANCE, 0.0)},
    "lemma-suite": {},
}
# the [system] keys a run of each kind reads (interval runs also read map.0,
# map.1, ... up to the first missing index), and the [driving] keys each law
# reads in every kind that samples symbols
SYSTEM_KEYS = {
    "cocycle": {"matrices"},
    "interval": {"maps"},
    "sft": {"theta", "amplitudes"},
    "counterexample": {"a0", "a1"},
    "lemma-suite": set(),
}
DRIVING_KEYS = {"iid": {"law", "probs"}, "markov": {"law", "transition"}}


_SEP = re.compile(r"\s*,\s*|\s+")
_ROW = r"\[[^\[\]]*\]"
_MATRIX = re.compile(rf"\s*\[\s*{_ROW}(?:(?:{_SEP.pattern}){_ROW})*\s*\]\s*")


def parse_number(text: str) -> float:
    """The one reader of config numbers: `text` as a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text!r}")
    return value


def parse_vector(text: str) -> list[float]:
    """Numbers separated by commas or spaces, in at most one pair of brackets."""
    body = text.strip()
    if body[:1] == "[" and body[-1:] == "]":
        body = body[1:-1].strip()
    if not body or "[" in body or "]" in body:
        raise ConfigError(f"a vector is numbers separated by commas or spaces, "
                          f"in at most one pair of brackets: {text!r}")
    return [parse_number(x) for x in _SEP.split(body)]


def parse_matrix(text: str) -> list[list[float]]:
    """Bracketed rows of numbers inside one pair of brackets, rows separated
    by commas or spaces, each row as long as the first."""
    if not _MATRIX.fullmatch(text):
        raise ConfigError(f"a matrix is bracketed rows inside one pair of brackets: {text!r}")
    rows = [parse_vector(row) for row in re.findall(_ROW, text)]
    if any(len(r) != len(rows[0]) for r in rows):
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
    # (numerics, system) from `validate_config`, which `load_config` and each
    # sweep point set and the runner reads
    built: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def digest(self) -> str:
        payload = json.dumps(
            {"kind": self.kind, "seed": self.seed, "system": self.system,
             "driving": self.driving, "numerics": self.numerics},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


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
    cfg.built = validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> tuple[dict, tuple]:
    """Check that the run reads every [numerics], [system] and [driving] key,
    resolve each [numerics] value from `NUMERICS`, then build the system and
    its driving law, which checks every [system] and [driving] value.  Return
    the values of every [numerics] key the kind reads (defaults included) and
    what `SYSTEMS` builds (nothing for a lemma-suite run)."""
    kind, law = f"kind {cfg.kind}", cfg.driving.get("law", "iid")
    system, i = set(SYSTEM_KEYS[cfg.kind]), 0
    while cfg.kind == "interval" and f"map.{i}" in cfg.system:
        system.add(f"map.{i}")
        i += 1
    # a lemma-suite run reads no [driving] key; an unknown law is reported
    # when the driving law is built
    law_reader, driving = ((f"law {law}", DRIVING_KEYS.get(law, set(cfg.driving)))
                           if cfg.kind in SYSTEMS else (kind, set()))
    for reader, section, keys, read in (
            (kind, "numerics", cfg.numerics, NUMERICS[cfg.kind]),
            (kind, "system", cfg.system, system),
            (law_reader, "driving", cfg.driving, driving)):
        unread = sorted(set(keys) - set(read))
        if unread:
            raise ConfigError(f"{reader} reads no [{section}] key {', '.join(unread)}")
    numerics = {}
    for key, (default, low) in NUMERICS[cfg.kind].items():
        try:
            value = (parse_number if isinstance(default, float) else int)(
                cfg.numerics.get(key, default))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"bad numeric value for {key}: {exc}") from exc
        if isinstance(value, float) and not value > low:
            raise ConfigError(f"tolerance {key} must be positive")
        if value < low:
            raise ConfigError(f"{key} must be at least {low}")
        numerics[key] = value
    return numerics, SYSTEMS[cfg.kind](cfg) if cfg.kind in SYSTEMS else ()


def build_driving(cfg: RunConfig, n_symbols: int) -> cc.DrivingSystem:
    """The configured driving law over the system's `n_symbols` symbols
    (uniform i.i.d. by default).  The law is `iid` with `probs`, one per
    symbol, or `markov` with an `n_symbols`-square `transition`; the
    probabilities and each transition row must sum to 1 within 1e-9 (they
    are then normalised).  `DrivingSystem` checks the law's values (finite,
    nonnegative, one closed class).  Anything else is a ConfigError."""
    law = cfg.driving.get("law", "iid")
    if law == "markov":
        if "transition" not in cfg.driving:
            raise ConfigError("markov driving needs a transition matrix")
        rows = np.asarray(parse_matrix(cfg.driving["transition"]))
        if rows.shape != (n_symbols, n_symbols):
            raise ConfigError(f"the transition matrix must be {n_symbols}x{n_symbols}: "
                              f"the system has {n_symbols} symbols")
    elif law == "iid":
        rows = np.asarray([parse_vector(cfg.driving["probs"]) if "probs" in cfg.driving
                           else [1.0 / n_symbols] * n_symbols])
        if rows.shape[1] != n_symbols:
            raise ConfigError(f"probs has {rows.shape[1]} entries: "
                              f"the system has {n_symbols} symbols")
    else:
        raise ConfigError(f"unknown driving law {law!r}")
    if not np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9):
        raise ConfigError(f"{'each transition row' if law == 'markov' else 'probs'} "
                          "must sum to 1 within 1e-9")
    rows = rows / rows.sum(axis=1, keepdims=True)
    try:
        if law == "markov":
            return cc.DrivingSystem.markov(rows, seed=cfg.seed)
        return cc.DrivingSystem.iid(rows[0], seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"invalid [driving] value: {exc}") from exc


MAP_PRESETS = {
    "doubling": iv.doubling_map,
    "tripling": iv.tripling_map,
    "tent": iv.tent_map,
    "identity": iv.identity_map,
}


def _from_system(build, *args):
    """build(*args), which constructs part of a system from [system] values
    and computes nothing; a ValueError or DimensionMismatch it raises is a
    ConfigError."""
    try:
        return build(*args)
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"invalid [system] value: {exc}") from exc


def _build_maps(cfg: RunConfig) -> list[iv.PiecewiseMap]:
    maps = []
    if "maps" in cfg.system:
        for name in cfg.system["maps"].replace(",", " ").split():
            name = name.strip()
            if name.startswith("slope:"):
                maps.append(iv.single_slope_map(parse_number(name.split(":", 1)[1])))
            elif name in MAP_PRESETS:
                maps.append(MAP_PRESETS[name]())
            else:
                raise ConfigError(f"unknown map preset {name!r}")
    idx = 0
    while f"map.{idx}" in cfg.system:
        rows = [row for row in
                (parse_vector(part) for part in cfg.system[f"map.{idx}"].split(";")
                 if part.strip())]
        if any(len(row) != 4 for row in rows):
            raise ConfigError(f"system.map.{idx} rows must be [a, b, slope, intercept]")
        maps.append(iv.affine_map(rows))
        idx += 1
    if not maps:
        raise ConfigError("interval run needs system.maps or system.map.N entries")
    return maps


def _cocycle_system(cfg: RunConfig):
    if "matrices" not in cfg.system:
        raise ConfigError("cocycle run needs system.matrices")
    gen = _from_system(cc.Generator.from_list,
                       [np.asarray(m) for m in parse_matrices(cfg.system["matrices"])])
    return gen, build_driving(cfg, gen.alphabet_size)


def _interval_system(cfg: RunConfig):
    maps = _from_system(_build_maps, cfg)
    return maps, build_driving(cfg, len(maps))


def _sft_system(cfg: RunConfig):
    if "amplitudes" not in cfg.system:
        raise ConfigError("sft run needs system.amplitudes")
    amps = parse_vector(cfg.system["amplitudes"])
    theta = parse_number(cfg.system.get("theta", 0.5))
    _from_system(sf.Sft.full, 2, theta)
    return amps, theta, build_driving(cfg, len(amps))


def _counterexample_system(cfg: RunConfig):
    for key in ("a0", "a1"):
        if key not in cfg.system:
            raise ConfigError(f"counterexample run needs system.{key}")
    gen = _from_system(cc.counterexample_generator,
                       *(parse_matrix(cfg.system[key]) for key in ("a0", "a1")))
    return gen, build_driving(cfg, 2)


# per kind, the system (with theta for sft) and driving law built from the
# [system] and [driving] values; building computes nothing and raises
# ConfigError for a bad value
SYSTEMS = {
    "cocycle": _cocycle_system,
    "interval": _interval_system,
    "sft": _sft_system,
    "counterexample": _counterexample_system,
}
