"""Scenario files: a single JSON key-value tree configuring every command.

The top-level keys are the fields of ``Scenario``: ``modulator``
(``ModulatorConfig``), ``protocol`` (``ProtocolParams``), ``channel``
(``ChannelParams``), ``sim`` (``montecarlo.SimSpec``) and ``sweep``
(``SweepSpec``).  All are optional, and the defaults reproduce the
projected performance operating point, so an empty scenario is valid.

Each section is checked at load, for every command, and each rule once:
the rate engine and the Monte Carlo check none of these rules again.  An
unknown key or a value unlike its field's annotation (``int``: a
non-boolean integer, ``float``: any number, ``| None``: also null) is a
``ScenarioError`` naming ``section.key``.  Every other failure is a
``ParameterError``, naming:

- a NaN, an infinity, an int past the float range, or a value outside the
  bound its field declares (``bounds``; ``n_pulses`` < 2**63 included):
  ``section.key``;
- the decoy order, nu <= mu (1 - 1e-5) with a positive ``mu*nu - nu^2`` and a finite
  ``mu^2 e^-mu / (mu nu - nu^2)``: ``protocol.nu``;
- a finite operating phase: ``modulator.phi0_operating``;
- a step that takes the grid's last point past the float range, or that
  collapses grid points: ``sweep.step_db``;
- the allocation summing to 1 with p_signal + p_decoy > 0, stop_db >=
  start_db and the 10^7-point grid cap: the section.

``sim.chunk_pulses`` is checked (>= 1) and otherwise ignored: an MC run
is one draw keyed by its seed.
``resolved_dict`` returns the expanded sections (all defaults applied) for
provenance sidecars.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import BoundError, check_bounds
from .decoy import ChannelParams, ProtocolParams
from .modulator import ModulatorConfig
from .montecarlo import SimSpec

MAX_GRID_POINTS = 10**7


class ScenarioError(ValueError):
    """Scenario file is structurally invalid (bad JSON, unknown keys, wrong types, ...)."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(message)
        self.field_path = field_path


class ParameterError(ScenarioError):
    """Scenario parsed but a parameter violates a physical precondition."""


@dataclass(frozen=True)
class SweepSpec:
    start_db: float = field(default=0.0, metadata={"ge": 0})
    stop_db: float = 70.0
    step_db: float = field(default=0.5, metadata={"gt": 0})

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.stop_db < self.start_db:
            raise BoundError(None, "stop_db must be >= start_db")
        if not np.round((self.stop_db - self.start_db) / self.step_db) < MAX_GRID_POINTS:
            raise BoundError(None, f"a grid holds at most {MAX_GRID_POINTS} points")
        with np.errstate(over="ignore"):   # an overflowing last point is refused below
            top = float(self.points(len(self) - 1, len(self))[0])
        if not math.isfinite(top):
            raise BoundError("step_db", f"must keep the last grid point finite, got {self.step_db}")
        # every point lies within ulp(top) of its exact value: a step above twice that keeps them distinct
        if self.step_db <= 2 * math.ulp(top):
            raise BoundError("step_db", f"must exceed twice the float spacing at the last grid point "
                                        f"({2 * math.ulp(top)}) so that points stay distinct, got {self.step_db}")

    def __len__(self) -> int:
        return int(round((self.stop_db - self.start_db) / self.step_db)) + 1

    def points(self, i: int, j: int) -> np.ndarray:
        """Grid points i to j - 1, each start_db + k step_db in float64: the bits of ``grid()[i:j]``."""
        return float(self.start_db) + np.arange(i, j) * float(self.step_db)

    def grid(self) -> np.ndarray:
        return self.points(0, len(self))

    def blocks(self, size: int):
        """The grid as consecutive blocks of ``size`` points, the last one possibly shorter."""
        n = len(self)
        return (self.points(i, min(i + size, n)) for i in range(0, n, size))


@dataclass(frozen=True)
class Scenario:
    modulator: ModulatorConfig = field(default_factory=ModulatorConfig)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    sim: SimSpec = field(default_factory=SimSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)


# section name -> its dataclass, the default factory of its Scenario field
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(Scenario)}


def _check_value(value, annotation: str, path: str) -> None:
    """Type and finiteness of one value against its field's annotation."""
    accepted = {"int": int, "float": (int, float), "float | None": (int, float, type(None))}
    if isinstance(value, bool) or not isinstance(value, accepted[annotation]):
        raise ScenarioError(f"'{path}' must be {annotation}, got {type(value).__name__}", path)
    if value is not None and not abs(value) <= sys.float_info.max:   # NaN fails too
        raise ParameterError(f"'{path}' must be a finite number within the float range", path)


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"section '{path}' must be an object", path)
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in annotations:
            raise ScenarioError(f"unknown key '{path}.{key}'", f"{path}.{key}")
        _check_value(value, annotations[key], f"{path}.{key}")
    try:
        return cls(**data)
    except BoundError as exc:
        raise section_error(exc, path) from exc


def section_error(exc: BoundError, section: str) -> ParameterError:
    """The ``ParameterError`` naming ``section.field``, or the section for a rule over it that names no field."""
    key = f"{section}.{exc.field}" if exc.field else section
    return ParameterError(f"'{key}' {exc.requirement}" if exc.field else exc.requirement, key)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be an object")
    sections = {}
    for key, value in data.items():
        if key not in _SECTIONS:
            raise ScenarioError(f"unknown key '{key}'", key)
        sections[key] = _build_section(_SECTIONS[key], value, key)
    return Scenario(**sections)


def load_scenario(path: str | Path | None) -> Scenario:
    """Load a scenario file; None or a missing argument means all defaults."""
    if path is None:
        return Scenario()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:   # nesting past the interpreter's recursion limit
        raise ScenarioError(f"scenario file {path} nests too deeply: {exc}") from exc
    return scenario_from_dict(data)


def resolved_dict(scn: Scenario, sections=tuple(_SECTIONS)) -> dict:
    """Expanded parameter tree of the named sections (defaults applied) for provenance output."""
    return {name: dataclasses.asdict(getattr(scn, name)) for name in sections}
