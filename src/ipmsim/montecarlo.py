"""Count-level Monte Carlo of the decoy-BB84 pulse train, exact in law.

Each pulse has a class (signal/decoy/vacuum) drawn from the allocation
normalised by its sum (the split ``l_mu`` reads), a BB84 state drawn
uniformly, a click type drawn from the detector law of
``decoy.click_law`` (photon click with probability ``decoy.photon_click``,
independent dark fires on every receiver detector), a uniform receiver
basis, sifting on matched bases, and an error drawn at the click type's
rate (``decoy.click_errors``).  The analytic engine reads the same law, so
the two agree in expectation at any loss and dark rate.

Pulses are iid, so a run's tally is drawn without realizing them: one
multinomial splits all ``n_pulses`` over the (class, state, click type)
cells, and binomials thin the clicks to sifted counts and those to errors.
This is the same distribution as simulating every pulse, at a cost that
does not grow with the pulse count.  The draws read one counter-based
(Philox) stream keyed by the seed, so the tally is a pure function of
(config, seed).

A ``PulseTally`` lists its per-cell counters once, in ``COUNTERS``; its
one written form, the nested JSON of ``to_dict``, follows that list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bounds import check_bounds
from .decoy import _MULTI_DARK, _NO_CLICK, _ONE_DARK, _PHOTON_DOUBLE
from .decoy import ChannelParams, ProtocolParams, click_errors, click_law, photon_click

PULSE_CLASSES = ("signal", "decoy", "vacuum")
STATES = ("H", "D", "V", "A")
COUNTERS = ("sent", "detected", "sifted", "errors")


@dataclass(frozen=True)
class SimSpec:
    """Pulse count and seed: the scenario's sim section.

    ``n_pulses`` is declared below 2**63, which bounds every count of the
    int64 tally.  ``chunk_pulses`` is accepted and ignored, as
    ``mc --workers`` is: a run is one draw whatever its value.
    """

    n_pulses: int = field(default=1_000_000_000, metadata={"gt": 0, "lt": 2**63})
    seed: int = field(default=12345, metadata={"ge": 0, "lt": 2**64})
    chunk_pulses: int = field(default=1 << 30, metadata={"gt": 0})

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class SimConfig(SimSpec):
    """A sim section plus the physical parameters it runs at."""

    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    channel: ChannelParams = field(default_factory=ChannelParams)


@dataclass(eq=False)
class PulseTally:
    """Counts per (pulse class x BB84 state), plus click bookkeeping.

    Each of the ``COUNTERS`` is an array indexed [class, state] with the
    orders of ``PULSE_CLASSES`` and ``STATES``.  Invariants: detected <=
    sent and errors <= sifted <= detected, elementwise.
    """

    sent: np.ndarray
    detected: np.ndarray
    sifted: np.ndarray
    errors: np.ndarray
    dark_only: int = 0
    double_click: int = 0

    def to_dict(self) -> dict:
        """Nested class -> state -> counters mapping plus click totals."""
        out: dict = {"dark_only": int(self.dark_only), "double_click": int(self.double_click)}
        for ci, cls_name in enumerate(PULSE_CLASSES):
            out[cls_name] = {
                state: {name: int(getattr(self, name)[ci, si]) for name in COUNTERS}
                for si, state in enumerate(STATES)
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "PulseTally":
        counters = {name: np.array([[data[c][s][name] for s in STATES] for c in PULSE_CLASSES], dtype=np.int64)
                    for name in COUNTERS}
        return cls(**counters, dark_only=int(data["dark_only"]), double_click=int(data["double_click"]))


_CELLS = (len(PULSE_CLASSES), len(STATES), _NO_CLICK + 1)


def _cell_probs(cfg: SimConfig) -> np.ndarray:
    """Per-pulse probability of each (class, state, click type) cell."""
    p, ch = cfg.protocol, cfg.channel
    click = photon_click(ch, np.array([p.mu, p.nu, 0.0]))
    click_types = np.stack([click, 1.0 - click], axis=-1) @ click_law(ch)
    allocation = np.array([p.p_signal, p.p_decoy, p.p_vacuum])
    class_p = allocation / allocation.sum() / len(STATES)
    return np.repeat((class_p[:, None] * click_types)[:, None, :], len(STATES), axis=1)


def _stream(seed: int) -> np.random.Generator:
    """The run's counter-based (Philox) random stream, keyed by the seed."""
    # spawn key (0,) was chunk 0's: every run that fit in one chunk keeps its tally
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))


def simulate(cfg: SimConfig) -> PulseTally:
    """Draw the tally of all ``cfg.n_pulses`` pulses at count level."""
    rng = _stream(cfg.seed)
    counts = rng.multinomial(cfg.n_pulses, _cell_probs(cfg).ravel()).reshape(_CELLS)
    clicks = counts[..., :_NO_CLICK]
    sifted = rng.binomial(clicks, 0.5)
    errors = rng.binomial(sifted, click_errors(cfg.protocol, cfg.channel))
    return PulseTally(
        sent=counts.sum(axis=-1),
        detected=clicks.sum(axis=-1),
        sifted=sifted.sum(axis=-1),
        errors=errors.sum(axis=-1),
        dark_only=int(clicks[..., _ONE_DARK:].sum()),
        double_click=int(clicks[..., [_PHOTON_DOUBLE, _MULTI_DARK]].sum()),
    )


@dataclass(frozen=True)
class RateEstimate:
    """A tally ratio with its binomial standard error."""

    value: float
    stderr: float
    numerator: int
    denominator: int


@dataclass(frozen=True)
class EmpiricalRates:
    """Empirical gains, error rates and vacuum yield from one tally."""

    q_mu: RateEstimate
    q_nu: RateEstimate
    e_mu: RateEstimate
    e_nu: RateEstimate
    y0: RateEstimate
    flags: tuple[str, ...] = ()


MIN_EVENTS = 100


def _ratio(num: int, den: int) -> RateEstimate:
    if den <= 0:
        return RateEstimate(value=float("nan"), stderr=float("nan"), numerator=num, denominator=den)
    value = num / den
    stderr = float(np.sqrt(max(value * (1.0 - value), 0.0) / den))
    return RateEstimate(value=value, stderr=stderr, numerator=num, denominator=den)


def estimate(tally: PulseTally, cfg: SimConfig) -> EmpiricalRates:
    """Empirical Q_mu, Q_nu, E_mu, E_nu and Y0 with standard errors.

    Gains divide detections by pulses sent per class; error rates divide
    errors by sifted counts; Y0 comes from the vacuum class.  Estimates
    whose denominator holds fewer than 100 events are flagged, not failed.
    """
    sent, detected, sifted, errors = (getattr(tally, name).sum(axis=1) for name in COUNTERS)

    rates = {
        "q_mu": _ratio(int(detected[0]), int(sent[0])),
        "q_nu": _ratio(int(detected[1]), int(sent[1])),
        "e_mu": _ratio(int(errors[0]), int(sifted[0])),
        "e_nu": _ratio(int(errors[1]), int(sifted[1])),
        "y0": _ratio(int(detected[2]), int(sent[2])),
    }
    flags = tuple(
        f"low_statistics:{name}" for name, est in rates.items() if est.denominator < MIN_EVENTS
    )
    return EmpiricalRates(**rates, flags=flags)
