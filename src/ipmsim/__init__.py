"""Fiber Mach-Zehnder intensity/polarization modulator model and
decoy-state BB84 key-rate simulator."""

from .decoy import (
    ChannelParams,
    ProtocolParams,
    RatePoint,
    binary_entropy,
    e1_upper,
    gains_and_errors,
    q1_lower,
    secure_rate,
    sweep_loss,
    transmittance,
)
from .modulator import (
    Bb84State,
    DriveSettings,
    ModulatorConfig,
    bb84_drive,
    fit_delta_l,
    output_stokes,
    phi0,
    poincare_trace,
    wavelength_scan,
)
from .montecarlo import PulseTally, SimConfig, estimate, simulate
from .polarimetry import extract_stokes
from .polarization import (
    degree_of_polarization,
    jones_to_mueller,
    polarizer,
    retarder,
    rotator,
)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "Bb84State",
    "ChannelParams",
    "DriveSettings",
    "ModulatorConfig",
    "ProtocolParams",
    "PulseTally",
    "RatePoint",
    "Scenario",
    "SimConfig",
    "bb84_drive",
    "binary_entropy",
    "degree_of_polarization",
    "e1_upper",
    "estimate",
    "extract_stokes",
    "fit_delta_l",
    "gains_and_errors",
    "jones_to_mueller",
    "load_scenario",
    "output_stokes",
    "phi0",
    "poincare_trace",
    "polarizer",
    "q1_lower",
    "retarder",
    "rotator",
    "secure_rate",
    "simulate",
    "sweep_loss",
    "transmittance",
    "wavelength_scan",
]
