"""Scenario files: a single JSON key-value tree configuring every command.

Top-level sections (all optional; defaults reproduce the projected
performance operating point, so an empty scenario is valid):

    {
      "modulator": { ... ModulatorConfig fields ... },
      "protocol":  { ... ProtocolParams fields ... },
      "channel":   { ... ChannelParams fields ... },
      "sim":       { "n_pulses": ..., "seed": ..., "chunk_pulses": ... },
      "sweep":     { "start_db": ..., "stop_db": ..., "step_db": ... }
    }

Unknown keys are rejected anywhere in the tree, naming the offending
path.  ``resolved_dict`` returns the expanded sections (all defaults
applied) for provenance sidecars.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decoy import ChannelParams, ProtocolParams
from .modulator import ModulatorConfig
from .montecarlo import DEFAULT_CHUNK

DEFAULT_SWEEP = {"start_db": 0.0, "stop_db": 70.0, "step_db": 0.5}
DEFAULT_SIM = {"n_pulses": 1_000_000, "seed": 12345, "chunk_pulses": DEFAULT_CHUNK}
MAX_GRID_POINTS = 10**7


class ScenarioError(ValueError):
    """Scenario file is structurally invalid (bad JSON, unknown keys, ...)."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(message)
        self.field_path = field_path


class ParameterError(ScenarioError):
    """Scenario parsed but a parameter violates a physical precondition."""


@dataclass(frozen=True)
class SweepSpec:
    start_db: float = DEFAULT_SWEEP["start_db"]
    stop_db: float = DEFAULT_SWEEP["stop_db"]
    step_db: float = DEFAULT_SWEEP["step_db"]

    def __post_init__(self) -> None:
        if self.step_db <= 0:
            raise ValueError(f"step_db must be positive, got {self.step_db}")
        if self.stop_db < self.start_db:
            raise ValueError("stop_db must be >= start_db")
        if not np.round((self.stop_db - self.start_db) / self.step_db) < MAX_GRID_POINTS:
            raise ValueError(f"a grid holds at most {MAX_GRID_POINTS} points")

    def grid(self) -> np.ndarray:
        n = int(round((self.stop_db - self.start_db) / self.step_db)) + 1
        return self.start_db + np.arange(n) * self.step_db


@dataclass(frozen=True)
class SimSpec:
    n_pulses: int = DEFAULT_SIM["n_pulses"]
    seed: int = DEFAULT_SIM["seed"]
    chunk_pulses: int = DEFAULT_SIM["chunk_pulses"]


@dataclass(frozen=True)
class Scenario:
    modulator: ModulatorConfig = field(default_factory=ModulatorConfig)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    sim: SimSpec = field(default_factory=SimSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)


_SECTIONS = {
    "modulator": ModulatorConfig,
    "protocol": ProtocolParams,
    "channel": ChannelParams,
    "sim": SimSpec,
    "sweep": SweepSpec,
}


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"section '{path}' must be an object", path)
    known = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            raise ScenarioError(f"unknown key '{path}.{key}'", f"{path}.{key}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ScenarioError(f"invalid section '{path}': {exc}", path) from exc
    except ValueError as exc:
        raise ParameterError(f"invalid value in section '{path}': {exc}", path) from exc


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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def resolved_dict(scn: Scenario, sections=tuple(_SECTIONS)) -> dict:
    """Expanded parameter tree of the named sections (defaults applied) for provenance output."""
    return {name: dataclasses.asdict(getattr(scn, name)) for name in sections}
