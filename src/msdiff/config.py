"""Plain-text run configuration: dotted keys, one assignment per line.

Grammar: ``key = value`` with ``#`` comments and blank lines; values are
scalars or whitespace-separated lists. Keys are dotted lowercase paths.
Species indices in keys and values are 1-based (``D.1.2`` couples the
first two species). All errors carry the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flux import DiffusionMatrix, admissible_delta_max
from .grid import PeriodicGrid
from .sim import Perturbation, Scenario, max_stable_dt
from .suites import SUITE_PARAMS, _SUITES, study_runs

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


class _Reader:
    def __init__(self, entries):
        self.entries = entries
        self.used = set()

    def take(self, key, default=None):
        self.used.add(key)
        return self.entries.get(key, (default, None))

    def scalar(self, key, conv, default=None, required=False):
        value, lineno = self.take(key)
        if value is None:
            if required:
                raise ValidationError(f"missing required key {key!r}")
            return default
        return _convert(key, value, conv, lineno)

    def list(self, key, conv, default=None):
        value, lineno = self.take(key)
        if value is None:
            return default
        try:
            return [_value(conv, tok) for tok in value.split()]
        except ValueError:
            raise ValidationError(
                f"line {lineno}: {key} must be a list of {_EXPECTED[conv][1]}, "
                f"got {value!r}"
            ) from None

    def line_of(self, key):
        return self.entries[key][1] if key in self.entries else "?"


# how error messages name each converter: (one value, a list of them)
_EXPECTED = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers")}


def _value(conv, text):
    """conv(text), refusing the inf and nan that float() accepts."""
    value = conv(text)
    if conv is float and not math.isfinite(value):
        raise ValueError(text)
    return value


def _convert(key, text, conv, lineno):
    """Convert one raw value; a failure names the key, its line and the type."""
    try:
        return _value(conv, text)
    except ValueError:
        raise ValidationError(
            f"line {lineno}: {key} must be {_EXPECTED[conv][0]}, got {text!r}"
        ) from None


def parse_config(text):
    """Parse and validate configuration text into a RunConfig."""
    entries = _split_lines(text)
    rd = _Reader(entries)

    n = rd.scalar("n", int, required=True)
    if n < 2:
        raise ValidationError(f"line {rd.line_of('n')}: need at least two species")
    dim = rd.scalar("dim", int, default=1)
    if not 1 <= dim <= 3:
        raise ValidationError(f"line {rd.line_of('dim')}: dim must be 1, 2, or 3")
    cells = rd.list("cells", int, default=[64])
    if len(cells) == 1:
        cells = cells * dim
    if len(cells) != dim:
        raise ValidationError(
            f"line {rd.line_of('cells')}: cells needs one entry or {dim}"
        )
    if any(m < 2 for m in cells):
        raise ValidationError(f"line {rd.line_of('cells')}: cells must be at least 2")
    lengths = rd.list("lengths", float, default=[1.0])
    if len(lengths) == 1:
        lengths = lengths * dim
    if len(lengths) != dim:
        raise ValidationError(
            f"line {rd.line_of('lengths')}: lengths needs one entry or {dim}"
        )
    if any(L <= 0 for L in lengths):
        raise ValidationError(f"line {rd.line_of('lengths')}: lengths must be positive")

    D = _parse_diffusivities(rd, entries, n)

    t_final = rd.scalar("t_final", float, default=0.01)
    if t_final <= 0:
        raise ValidationError(f"line {rd.line_of('t_final')}: t_final must be positive")
    dt = rd.scalar("dt", float)
    if dt is not None and dt <= 0:
        raise ValidationError(f"line {rd.line_of('dt')}: dt must be positive")
    cfl = rd.scalar("cfl", float, default=0.25)
    if not 0 < cfl <= 1:
        raise ValidationError(f"line {rd.line_of('cfl')}: cfl must lie in (0, 1]")
    scheme = rd.scalar("scheme", str, default="euler")
    if scheme not in ("euler", "heun"):
        raise ValidationError(
            f"line {rd.line_of('scheme')}: scheme must be 'euler' or 'heun'"
        )
    cadence = rd.scalar("cadence", int, default=1)
    if cadence < 1:
        raise ValidationError(f"line {rd.line_of('cadence')}: cadence must be >= 1")

    preset = rd.scalar("preset", str, default="sine_mix")
    amplitude = rd.scalar("amplitude", float, default=0.2)
    mode = rd.scalar("mode", int, default=1)
    weights = rd.list("weights", float)
    if weights is not None and len(weights) != n:
        raise ValidationError(
            f"line {rd.line_of('weights')}: weights needs {n} entries"
        )

    suites = rd.list("suites", str, default=[])
    seed = rd.scalar("seed", int, default=0)
    if seed < 0:
        raise ValidationError(f"line {rd.line_of('seed')}: seed must be >= 0")
    out_dir = rd.scalar("out", str, default="out")
    workers = rd.scalar("workers", int, default=1)
    if workers < 1:
        raise ValidationError(f"line {rd.line_of('workers')}: workers must be >= 1")
    for name in suites:
        if name not in KNOWN_SUITES:
            raise ValidationError(
                f"line {rd.line_of('suites')}: unknown suite {name!r}; "
                f"known: {', '.join(KNOWN_SUITES)}"
            )

    delta = rd.scalar("delta", float, default=0.05)
    if delta <= 0:
        raise ValidationError(f"line {rd.line_of('delta')}: delta must be positive")
    if delta >= 1.0 and "twin-study" in suites:
        raise ValidationError(
            f"line {rd.line_of('delta')}: twin certificates need "
            f"0 < delta < min(1, mu/(4 c4)) = {admissible_delta_max(D):.6g}; "
            f"got {delta}"
        )
    if delta >= 1.0:
        raise ValidationError(
            f"line {rd.line_of('delta')}: delta must lie in (0, 1), got {delta}"
        )

    perturbation = _parse_perturbation(rd, n)

    grid = PeriodicGrid(tuple(cells), tuple(lengths))
    cap = max_stable_dt(grid, D)
    if dt is not None and dt > cap * (1.0 + 1e-9):
        raise ValidationError(
            f"line {rd.line_of('dt')}: dt={dt} exceeds the stability bound {cap:.6g}"
        )
    try:
        scenario = Scenario(
            n=n,
            D=D,
            grid=grid,
            t_final=t_final,
            preset=preset,
            amplitude=amplitude,
            mode=mode,
            weights=None if weights is None else np.asarray(weights, float),
            dt=dt,
            cfl=cfl,
            scheme=scheme,
            delta=delta,
            cadence=cadence,
            perturbation=perturbation,
        )
        scenario.initial_state()
        scenario.resolve_steps()
    except ValueError as exc:
        raise ValidationError(f"scenario rejected: {exc}") from None

    cfg = RunConfig(
        scenario=scenario,
        suites=list(suites),
        out_dir=out_dir,
        seed=seed,
        workers=workers,
    )
    for key, (value, lineno) in entries.items():
        if key in rd.used:
            continue
        if key not in SUITE_PARAMS:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        cfg.params[key] = _suite_param(key, value, lineno)
    check_suites(cfg)
    return cfg


def check_suites(cfg):
    """Resolve the steps and build the perturbed initial state of every run
    of the selected suites, so a study's own perturbation cannot fail late.
    Sets the warnings that follow from the final suite selection."""
    for name in cfg.suites:
        try:
            for _, sc in study_runs(name, cfg.scenario, cfg.params):
                sc.resolve_steps()
                sc.initial_state()
        except ValueError as exc:
            raise ValidationError(f"scenario rejected: {name}: {exc}") from None
    cfg.warnings = []
    if "twin-study" in cfg.suites:
        delta, cap = cfg.scenario.delta, admissible_delta_max(cfg.scenario.D)
        if delta >= cap:
            cfg.warnings.append(
                f"delta={delta} is above the certified dissipation window "
                f"(mu/(4 c4) = {cap:.6g}); the twin certificate will carry the "
                f"eroded margin explicitly"
            )


def _suite_param(key, text, lineno):
    """One suite parameter, typed and checked against its lowest value."""
    conv, _, low = SUITE_PARAMS[key]
    value = _convert(key, text, conv, lineno)
    if value < low if conv is int else value <= low:
        bound = f"at least {low}" if conv is int else f"greater than {low:g}"
        raise ValidationError(f"line {lineno}: {key} must be {bound}, got {value}")
    return value


def _is_diffusivity_key(key):
    parts = key.split(".")
    return len(parts) == 3 and parts[0] == "D"


def _parse_diffusivities(rd, entries, n):
    pairs = {}
    lines = {}
    for key, (value, lineno) in entries.items():
        if not _is_diffusivity_key(key):
            continue
        rd.used.add(key)
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


def _parse_perturbation(rd, n):
    amp = rd.scalar("perturb.amplitude", float)
    mode = rd.scalar("perturb.mode", int, default=1)
    species = rd.list("perturb.species", int, default=[1, 2])
    if amp is None:
        return None
    if len(species) != 2 or species[0] == species[1]:
        raise ValidationError(
            f"line {rd.line_of('perturb.species')}: perturb.species needs two "
            f"distinct species"
        )
    if not all(1 <= s <= n for s in species):
        raise ValidationError(
            f"line {rd.line_of('perturb.species')}: species must lie in 1..{n}"
        )
    return Perturbation(
        amplitude=amp, mode=mode, species=(species[0] - 1, species[1] - 1)
    )


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
