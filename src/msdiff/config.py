"""Plain-text run configuration: dotted keys, one assignment per line.

Grammar: ``key = value`` with ``#`` comments and blank lines; values are
scalars or whitespace-separated lists. Keys are dotted lowercase paths.
Species indices in keys and values are 1-based (``D.1.2`` couples the
first two species). All errors carry the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .flux import DeltaOutOfRange, DiffusionMatrix, stability_constants
from .grid import PeriodicGrid
from .sim import Perturbation, Scenario, max_stable_dt
from .suites import SUITE_PARAMS, _SUITES, RunOverCap, study_runs

KNOWN_SUITES = tuple(_SUITES)


class ParseError(ValueError):
    """Malformed configuration text."""


class ValidationError(ValueError):
    """Well-formed configuration with inadmissible values."""


@dataclass
class RunConfig:
    scenario: Scenario
    suites: list
    out_dir: str = "out"
    seed: int = 0
    workers: int = 1
    # every "<suite>.<key>" of SUITE_PARAMS, typed, defaults filled in
    params: dict = field(
        default_factory=lambda: {k: v[1] for k, v in SUITE_PARAMS.items()}
    )
    # every key the config text sets: key -> (raw text, line number)
    sources: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def _split_lines(text):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if not value:
            raise ParseError(f"line {lineno}: empty value for {key!r}")
        if key in entries:
            raise ParseError(
                f"line {lineno}: duplicate key {key!r} (first set on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return entries


_REQUIRED = object()  # the default of a key that must be set

# The scalar keys: key -> (type, default, admissible, message). The check
# runs on a given value only, and a failure reads "line N: <message>". The
# CLI checks its --seed and --workers overrides against the same rows.
_SCALARS = {
    "n": (int, _REQUIRED, lambda v: v >= 2, "need at least two species"),
    "dim": (int, 1, lambda v: 1 <= v <= 3, "dim must be 1, 2, or 3"),
    "t_final": (float, 0.01, lambda v: v > 0, "t_final must be positive"),
    "dt": (float, None, lambda v: v > 0, "dt must be positive"),
    "cfl": (float, 0.25, lambda v: 0 < v <= 1, "cfl must lie in (0, 1]"),
    "scheme": (str, "euler", lambda v: v in ("euler", "heun"),
               "scheme must be 'euler' or 'heun'"),
    "cadence": (int, 1, lambda v: v >= 1, "cadence must be >= 1"),
    "preset": (str, "sine_mix", None, None),
    "amplitude": (float, 0.2, None, None),
    "mode": (int, 1, None, None),
    "seed": (int, 0, lambda v: v >= 0, "seed must be >= 0"),
    "out": (str, "out", None, None),
    "workers": (int, 1, lambda v: v >= 1, "workers must be >= 1"),
    "delta": (float, 0.05, lambda v: v > 0, "delta must be positive"),
    "perturb.amplitude": (float, None, None, None),
    "perturb.mode": (int, 1, None, None),
}

# The list keys and their entry types; parse_config applies their defaults
# and checks, which depend on other keys.
_LISTS = {"cells": int, "lengths": float, "weights": float, "suites": str, "perturb.species": int}

# how error messages name each converter: (one value, a list of them)
_EXPECTED = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers")}


def _value(conv, text):
    """conv(text), refusing the inf and nan that float() accepts."""
    value = conv(text)
    if conv is float and not math.isfinite(value):
        raise ValueError(text)
    return value


def _convert(key, text, conv, lineno, many=False):
    """Convert one raw value, or each of its tokens when ``many``; a
    failure names the key, its line and the type."""
    try:
        if many:
            return [_value(conv, tok) for tok in text.split()]
        return _value(conv, text)
    except ValueError:
        what = f"a list of {_EXPECTED[conv][1]}" if many else _EXPECTED[conv][0]
        raise ValidationError(f"line {lineno}: {key} must be {what}, got {text!r}") from None


def check_scalar(key, value, where):
    """Return value if its _SCALARS row admits it; otherwise raise that
    row's message, prefixed with ``where`` (a line number, or "--")."""
    _, _, admissible, message = _SCALARS[key]
    if admissible is not None and not admissible(value):
        raise ValidationError(f"{where}{message}")
    return value


def _per_axis(key, values, entries, default, dim, admissible, bound):
    """An axis list: one entry broadcast to every axis, or one per axis."""
    vals = values.get(key, default)
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ValidationError(f"line {entries[key][1]}: {key} needs one entry or {dim}")
    if not all(admissible(v) for v in vals):
        raise ValidationError(f"line {entries[key][1]}: {key} must be {bound}")
    return tuple(vals)


def parse_config(text):
    """Parse and validate configuration text into a RunConfig."""
    entries = _split_lines(text)
    values = {}
    params = {k: v[1] for k, v in SUITE_PARAMS.items()}
    for key, (raw, lineno) in entries.items():
        if key in _SCALARS:
            values[key] = _convert(key, raw, _SCALARS[key][0], lineno)
        elif key in _LISTS:
            values[key] = _convert(key, raw, _LISTS[key], lineno, many=True)
        elif key in SUITE_PARAMS:
            params[key] = _suite_param(key, raw, lineno)
        elif not _is_diffusivity_key(key):
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
    for key, (_, default, _, _) in _SCALARS.items():
        if key in values:
            check_scalar(key, values[key], f"line {entries[key][1]}: ")
        elif default is _REQUIRED:
            raise ValidationError(f"missing required key {key!r}")
        else:
            values[key] = default

    n, dim, delta = values["n"], values["dim"], values["delta"]
    # defaults and checks that depend on other keys; only a given key can
    # fail them, so every error below has a line
    cells = _per_axis("cells", values, entries, [64], dim, lambda m: m >= 2, "at least 2")
    lengths = _per_axis("lengths", values, entries, [1.0], dim, lambda L: L > 0, "positive")
    weights = values.get("weights")
    if weights is not None and len(weights) != n:
        raise ValidationError(f"line {entries['weights'][1]}: weights needs {n} entries")
    suites = values.get("suites", [])
    for name in suites:
        if name not in KNOWN_SUITES:
            raise ValidationError(
                f"line {entries['suites'][1]}: unknown suite {name!r}; "
                f"known: {', '.join(KNOWN_SUITES)}"
            )

    D = _parse_diffusivities(entries, n)
    if delta >= 1.0 and "twin-study" not in suites:  # check_suites gates a twin delta
        raise ValidationError(
            f"line {entries['delta'][1]}: delta must lie in (0, 1), got {delta}"
        )

    perturbation = _parse_perturbation(values, entries, n)

    grid = PeriodicGrid(cells, lengths)
    cap = max_stable_dt(grid, D)
    dt = values["dt"]
    if dt is not None and dt > cap * (1.0 + 1e-9):
        raise ValidationError(
            f"line {entries['dt'][1]}: dt={dt} exceeds the stability bound {cap:.6g}"
        )
    try:
        scenario = Scenario(
            D=D,
            grid=grid,
            weights=None if weights is None else np.asarray(weights, float),
            perturbation=perturbation,
            **{f.name: values[f.name] for f in fields(Scenario) if f.name in _SCALARS},
        )
        # the step cap first: it refuses a huge grid before its state is built
        scenario.resolve_steps()
        scenario.initial_state()
    except ValueError as exc:
        raise ValidationError(f"scenario rejected: {exc}") from None

    cfg = RunConfig(
        scenario=scenario,
        suites=list(suites),
        out_dir=values["out"],
        seed=values["seed"],
        workers=values["workers"],
        params=params,
        sources=entries,
    )
    check_suites(cfg)
    return cfg


def check_suites(cfg):
    """Resolve the steps and build the initial state of every run in the
    plan of each selected suite (``suites.study_runs``), so no run of a
    study can fail late: not on the step cap, which the plan holds each
    ladder's finest run to, and not on a study's own perturbation. A run
    over the cap is refused quoting each suite key that sets it as
    "line N: key = text", or as "key = value (default)" when the config
    leaves it out. Refuses a twin delta or D that ``stability_constants``
    cannot take, quoting its line. Sets the warnings that follow from the
    final suite selection."""
    for name in cfg.suites:
        try:
            for group in study_runs(name, cfg.scenario, cfg.params):
                for sc in group:
                    sc.resolve_steps()
                    sc.initial_state()
        except RunOverCap as exc:
            named = ", ".join(_quote_param(cfg, key) for key in exc.keys)
            raise ValidationError(
                f"scenario rejected: {name}: the {exc.which} run of {named}: {exc.reason}"
            ) from None
        except ValueError as exc:
            raise ValidationError(f"scenario rejected: {name}: {exc}") from None
    cfg.warnings = []
    if "twin-study" in cfg.suites:
        try:
            k = stability_constants(cfg.scenario.D, cfg.scenario.delta, 0.0)
        except DeltaOutOfRange:
            raise ValidationError(f"{_quote_param(cfg, 'delta')}: twin certificates need "
                                  f"delta**4 > 0 and 0 < delta < min(1, mu/(4 c4))") from None
        except OverflowError:  # M**2 with M = 1 / the smallest D.i.j
            key = min(filter(_is_diffusivity_key, cfg.sources),
                      key=lambda s: float(cfg.sources[s][0]))
            raise ValidationError(
                f"{_quote_param(cfg, key)}: overflows the twin certificate's constants") from None
        if not k.admissible:
            cfg.warnings.append(
                f"delta={k.delta} is above the certified dissipation window "
                f"(mu/(4 c4) = {k.delta_max:.6g}); the twin certificate will carry the "
                f"eroded margin explicitly"
            )


def _quote_param(cfg, key):
    if key in cfg.sources:
        text, lineno = cfg.sources[key]
        return f"line {lineno}: {key} = {text}"
    return f"{key} = {cfg.params[key]} (default)"


def _suite_param(key, text, lineno):
    """One suite parameter, typed and checked against its lowest value and
    its highest, if it has one."""
    conv, _, low, high = SUITE_PARAMS[key]
    value = _convert(key, text, conv, lineno)
    if value < low if conv is int else value <= low:
        bound = f"at least {low}" if conv is int else f"greater than {low:g}"
        raise ValidationError(f"line {lineno}: {key} must be {bound}, got {value}")
    if high is not None and value > high:
        raise ValidationError(f"line {lineno}: {key} = {text}: must be at most {high}")
    return value


def _is_diffusivity_key(key):
    parts = key.split(".")
    return len(parts) == 3 and parts[0] == "D"


def _parse_diffusivities(entries, n):
    pairs = {}
    lines = {}
    for key, (value, lineno) in entries.items():
        if not _is_diffusivity_key(key):
            continue
        _, si, sj = key.split(".")
        try:
            i, j = int(si), int(sj)
        except ValueError:
            raise ValidationError(
                f"line {lineno}: species indices in {key!r} must be integers"
            ) from None
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValidationError(
                f"line {lineno}: {key} needs two distinct species in 1..{n}"
            )
        val = _convert(key, value, float, lineno)
        if val <= 0:
            raise ValidationError(
                f"line {lineno}: diffusivities must satisfy positivity, got {val}"
            )
        pair = (min(i, j) - 1, max(i, j) - 1)
        if pair in pairs and pairs[pair] != val:
            raise ValidationError(
                f"line {lineno}: {key} breaks symmetry with line {lines[pair]} "
                f"({pairs[pair]} vs {val})"
            )
        pairs[pair] = val
        lines[pair] = lineno
    missing = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in pairs
    ]
    if missing:
        raise ValidationError(
            f"missing diffusivities for species pairs {missing}; "
            f"set D.i.j for every unordered pair"
        )
    return DiffusionMatrix.from_pairs(n, pairs)


def _parse_perturbation(values, entries, n):
    amp, mode = values["perturb.amplitude"], values["perturb.mode"]
    species = values.get("perturb.species", [1, 2])
    if len(species) != 2 or species[0] == species[1]:
        raise ValidationError(
            f"line {entries['perturb.species'][1]}: perturb.species needs two "
            f"distinct species"
        )
    if not all(1 <= s <= n for s in species):
        raise ValidationError(
            f"line {entries['perturb.species'][1]}: species must lie in 1..{n}"
        )
    if amp is None:
        return None
    return Perturbation(
        amplitude=amp, mode=mode, species=(species[0] - 1, species[1] - 1)
    )


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
