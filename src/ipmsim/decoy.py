"""Vacuum+weak decoy-state BB84 key-rate engine and the detector law.

Channel model (Poissonian weak coherent pulses, threshold detectors):

    eta  = 10^(-loss_db/10) * detector_efficiency
    P_x  = 1 - exp(-eta x)                   photon click, x in {mu, nu, 0}
    p_d  = min(dark_rate * gate_window, 1)   dark fire, per detector and pulse

``click_law`` is the one detector law of this engine and the Monte Carlo:
five click-type probabilities given a photon click (row 0) or none (row 1),
darks independent on each of the n detectors.  A photon pulse double-clicks
only when another detector dark-fires; a double click is a random bit
(Lutkenhaus, PRA 61, 052304, 2000).  Over the four click types:

    Q_x     = P_x sum(row 0) + (1 - P_x) sum(row 1)
    E_x Q_x = the same, weighted by the error rates (e_d, 1/2, e0, 1/2)
    Y0      = sum(row 1) = 1 - (1 - p_d)^n

Decoy bounds on the single-photon contribution (Ma, Qi, Zhao, Lo, PRA 72,
012326, 2005):

    Q1_L = mu^2 e^-mu / (mu nu - nu^2)
           * ( Q_nu e^nu - Q_mu e^mu nu^2/mu^2 - (mu^2 - nu^2)/mu^2 Y0 )
    e1_U = (E_nu Q_nu e^nu - e0 Y0) mu e^-mu / (nu Q1_L)

Secure rate per pulse:

    R = q L_mu { -Q_mu f H2(QBER) + Q1_L [1 - H2(e1_U)] }

with L_mu = p_signal / (p_signal + p_decoy) and QBER = E_mu.  Negative
rates clamp to zero (flagged) so loss sweeps cross the threshold smoothly.
All functions are pure.  Gains, bounds and rate are numpy array code over
loss: a sweep evaluates its grid a block at a time, and a single point is
a one-element block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundError, check_bounds


# least relative gap (mu - nu)/mu: Q1_L cancels as nu nears mu, and keeps about 10
# digits at this gap (3.3e-11 relative at 30 dB and mu = 0.6; 1.1 % at a gap of 1e-14)
DECOY_GAP = 1e-5


@dataclass(frozen=True)
class ProtocolParams:
    """Decoy-BB84 protocol settings.

    Defaults are the projected-performance operating point: signal 0.6 and
    decoy 0.2 photons per pulse, basis reconciliation q = 1/2, constant
    error-correction efficiency 1.22, vacuum error rate 0.5, and a
    2:1:1 signal/decoy/vacuum pulse allocation.  A ``BoundError`` naming
    ``nu`` refuses nu > mu (1 - DECOY_GAP), a ``mu*nu - nu^2`` that
    underflows to 0 in floating point, and one so small (a subnormal nu)
    that ``q1_lower``'s factor mu^2 e^-mu / (mu nu - nu^2) overflows.  One with
    no field refuses an allocation that does not sum to 1 or has no signal
    or decoy pulses: ``l_mu`` divides by p_signal + p_decoy.
    """

    mu: float = field(default=0.6, metadata={"gt": 0, "lt": 1})
    nu: float = field(default=0.2, metadata={"gt": 0})
    q: float = field(default=0.5, metadata={"gt": 0, "le": 1})
    f_ec: float = field(default=1.22, metadata={"ge": 1})
    e0: float = field(default=0.5, metadata={"ge": 0, "le": 1})
    p_signal: float = field(default=0.5, metadata={"ge": 0})
    p_decoy: float = field(default=0.25, metadata={"ge": 0})
    p_vacuum: float = field(default=0.25, metadata={"ge": 0})

    def __post_init__(self) -> None:
        check_bounds(self)
        # the gap first, as nu**2 overflows past 1.3e154; the difference as q1_lower computes it
        if not (self.nu <= self.mu * (1.0 - DECOY_GAP) and self.mu * self.nu - self.nu**2 > 0):
            raise BoundError("nu", f"must satisfy nu < mu, by nu <= mu (1 - {DECOY_GAP}), with "
                                   f"mu*nu - nu^2 > 0 in floating point, got mu={self.mu}, nu={self.nu}")
        if not math.isfinite(_q1_factor(self)):
            raise BoundError("nu", f"must keep mu^2 e^-mu / (mu nu - nu^2) finite, got mu={self.mu}, nu={self.nu}")
        total = self.p_signal + self.p_decoy + self.p_vacuum
        if abs(total - 1.0) > 1e-9 or not self.p_signal + self.p_decoy > 0:
            raise BoundError(None, f"pulse allocation must sum to 1 with p_signal + p_decoy > 0, got "
                                   f"{self.p_signal} + {self.p_decoy} + {self.p_vacuum} = {total}")

    @property
    def l_mu(self) -> float:
        """Signal fraction among non-vacuum pulses, N_mu / (N_mu + N_nu)."""
        return self.p_signal / (self.p_signal + self.p_decoy)


@dataclass(frozen=True)
class ChannelParams:
    """Link and receiver settings.

    ``gate_window`` is the effective per-pulse coincidence window for dark
    counts; the sub-ns default reflects the temporal filtering a
    picosecond-pulse system can apply.  ``click_law``'s (1 - p_d)^n is off
    by about n 2^-54 relative, so up to 1000 detectors keep its rows
    summing to 1 within the Monte Carlo multinomial's 1e-12.
    """

    total_loss_db: float = field(default=45.0, metadata={"ge": 0})
    detector_efficiency: float = field(default=0.6, metadata={"gt": 0, "le": 1})
    dark_rate: float = field(default=50.0, metadata={"ge": 0})   # counts/s per detector
    num_detectors: int = field(default=4, metadata={"ge": 1, "le": 1000})
    rep_rate: float = field(default=76e6, metadata={"gt": 0})    # pulses/s
    intrinsic_qber: float = field(default=0.01, metadata={"ge": 0, "le": 1})
    gate_window: float = field(default=1e-10, metadata={"ge": 0})   # s

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class GainsAndErrors:
    """Gains and error rates at one loss, or arrays of them over a loss array."""

    q_mu: float
    q_nu: float
    e_mu: float
    e_nu: float
    y0: float


@dataclass(frozen=True)
class RatePoint:
    """One operating point of the rate curve."""

    loss_db: float
    q_mu: float
    q_nu: float
    e_mu: float
    e_nu: float
    y0: float
    q1_lower: float
    e1_upper: float
    qber: float
    rate_per_pulse: float
    rate_per_second: float
    flags: tuple[str, ...] = field(default=())


def transmittance(ch: ChannelParams, loss_db=None):
    """eta = 10^(-loss/10) * detector efficiency, at the channel's loss or over ``loss_db``."""
    loss = ch.total_loss_db if loss_db is None else loss_db
    return 10.0 ** (-loss / 10.0) * ch.detector_efficiency


def photon_click(ch: ChannelParams, x, loss_db=None):
    """P_x = 1 - e^(-eta x), 1 - (1 - eta)^n averaged over the Poisson photon number n.

    The result has the shape of x followed by the shape of the loss.
    """
    return -np.expm1(-np.multiply.outer(x, transmittance(ch, loss_db)))


# click types, the columns of click_law: a photon click (a dark on the same
# detector is the same click), a photon click plus a dark on another
# detector, one dark alone, several darks alone, and no click
_PHOTON, _PHOTON_DOUBLE, _ONE_DARK, _MULTI_DARK, _NO_CLICK = range(5)


def click_law(ch: ChannelParams) -> np.ndarray:
    """Click-type probabilities given a photon click (row 0) or none (row 1)."""
    n_det = ch.num_detectors
    dark_p = min(ch.dark_rate * ch.gate_window, 1.0)      # per detector, per pulse
    none = (1.0 - dark_p) ** n_det
    one = n_det * dark_p * (1.0 - dark_p) ** (n_det - 1)
    # multi = 1 - none - one, with 1 - none from expm1 so that the
    # O(dark_p^2) remainder is not lost to rounding at small dark_p
    any_dark = -np.expm1(n_det * np.log1p(-dark_p)) if dark_p < 1.0 else 1.0
    multi = max(any_dark - one, 0.0)
    # a lone dark fires another detector than the photon's w.p. (n_det - 1)/n_det
    return np.array([
        [none + one / n_det, one * (n_det - 1) / n_det + multi, 0.0, 0.0, 0.0],
        [0.0, 0.0, one, multi, none],
    ])


def click_errors(p: ProtocolParams, ch: ChannelParams) -> np.ndarray:
    """Error rate of each click type but the last: e_d, a random bit, e0, a random bit."""
    return np.array([ch.intrinsic_qber, 0.5, p.e0, 0.5])


def gains_and_errors(
    p: ProtocolParams, ch: ChannelParams, loss_db: float | np.ndarray | None = None
) -> GainsAndErrors:
    """Gains Q_mu/Q_nu and total error rates E_mu/E_nu plus the vacuum yield.

    ``loss_db`` defaults to the channel's own loss; an array of losses,
    each >= 0 as load keeps them, gives array gains and error rates.
    """
    loss = np.asarray(ch.total_loss_db if loss_db is None else loss_db, dtype=float)
    # click and error-click probabilities given a photon click or none
    clicks = click_law(ch)[:, :_NO_CLICK]
    q_photon, q_dark = clicks.sum(axis=1)
    eq_photon, eq_dark = (clicks * click_errors(p, ch)).sum(axis=1)
    click = photon_click(ch, np.array([p.mu, p.nu]), loss)
    q = click * q_photon + (1.0 - click) * q_dark
    eq = click * eq_photon + (1.0 - click) * eq_dark
    err = np.divide(eq, q, out=np.full_like(q, p.e0), where=q > 0)
    return GainsAndErrors(q_mu=q[0], q_nu=q[1], e_mu=err[0], e_nu=err[1], y0=float(q_dark))


def _q1_factor(p: ProtocolParams) -> float:
    """mu^2 e^-mu / (mu nu - nu^2), the factor of the bracket in Q1_L."""
    return p.mu**2 * math.exp(-p.mu) / (p.mu * p.nu - p.nu**2)


def q1_lower(p: ProtocolParams, q_mu, q_nu, y0):
    """Lower bound on the single-photon gain; negative values clamp to 0 (a finite factor by load)."""
    raw = _q1_factor(p) * (
        q_nu * math.exp(p.nu)
        - q_mu * math.exp(p.mu) * p.nu**2 / p.mu**2
        - (p.mu**2 - p.nu**2) / p.mu**2 * y0
    )
    return np.maximum(raw, 0.0)


def e1_upper(p: ProtocolParams, q1_low, e_nu, q_nu, y0):
    """Upper bound on the single-photon error rate, clamped to [0, 1]; it reads 1 where nu Q1_L is 0."""
    num, nu_q1 = (e_nu * q_nu * math.exp(p.nu) - p.e0 * y0) * p.mu * math.exp(-p.mu), p.nu * q1_low
    raw = np.divide(num, nu_q1, out=np.ones(np.broadcast(num, nu_q1).shape), where=nu_q1 > 0)
    return np.clip(raw, 0.0, 1.0)[()]


def binary_entropy(x):
    """Binary entropy H2(x) in bits, with H2(0) = H2(1) = 0."""
    x = np.asarray(x, dtype=float)
    bad = x[~((x >= 0.0) & (x <= 1.0))]
    if bad.size:
        raise ValueError(f"binary entropy needs x in [0, 1], got {bad[0]}")
    inner = (x > 0.0) & (x < 1.0)
    x = np.where(inner, x, 0.5)
    h = -x * np.log2(x) - (1.0 - x) * np.log1p(-x) / np.log(2.0)   # log1p keeps a small x's second term
    return np.where(inner, h, 0.0)[()]


# RatePoint.flags by bit code: 1 no single-photon gain, 2 e1 >= 1/2, 4 clamped
_FLAG_NAMES = ("no_single_photon_gain", "e1_at_or_above_half", "rate_clamped")
_FLAGS_BY_CODE = tuple(
    tuple(name for bit, name in enumerate(_FLAG_NAMES) if code >> bit & 1) for code in range(8)
)


def _rate_curve(p: ProtocolParams, ch: ChannelParams, loss) -> tuple[dict, np.ndarray, np.ndarray]:
    """Rate columns, flag codes and the unclamped per-pulse rate over an array of losses.

    The columns map each numeric RatePoint field, in field order, to its
    array over loss.  Where nu Q1_L is 0 (flagged "no_single_photon_gain")
    e1_U reads 1 and only the error-correction cost remains.
    """
    loss = np.asarray(loss, dtype=float)
    ge = gains_and_errors(p, ch, loss)
    q1 = q1_lower(p, ge.q_mu, ge.q_nu, ge.y0)
    gain = p.nu * q1 > 0.0
    e1 = e1_upper(p, q1, ge.e_nu, ge.q_nu, ge.y0)
    ec = -ge.q_mu * p.f_ec * binary_entropy(ge.e_mu)
    raw = p.q * p.l_mu * np.where(gain, ec + q1 * (1.0 - binary_entropy(e1)), ec)
    clamped = raw < 0.0
    rate = np.where(raw <= 0.0, 0.0, raw)   # -0.0 prints as 0; NaN stays visible
    per_second = np.where(rate > 0.0, rate * ch.rep_rate, 0.0)
    codes = 1 * ~gain + 2 * (gain & (e1 >= 0.5)) + 4 * clamped
    columns = {
        "loss_db": loss, "q_mu": ge.q_mu, "q_nu": ge.q_nu, "e_mu": ge.e_mu, "e_nu": ge.e_nu,
        "y0": np.full_like(loss, ge.y0), "q1_lower": q1, "e1_upper": e1, "qber": ge.e_mu,
        "rate_per_pulse": rate, "rate_per_second": per_second,
    }
    return columns, codes, raw


def _rate_points(columns: dict[str, np.ndarray], codes: np.ndarray) -> list[RatePoint]:
    rows = zip(*(c.tolist() for c in columns.values()), codes.tolist())
    return [RatePoint(*values, flags=_FLAGS_BY_CODE[code]) for *values, code in rows]


def secure_rate(p: ProtocolParams, ch: ChannelParams) -> RatePoint:
    """Secure key rate point at the channel's loss, a one-element rate curve.

    The rate clamps at zero when the bound goes negative (flagged
    "rate_clamped"); rate_per_second = R * rep_rate when R > 0, else 0.
    """
    columns, codes, _ = _rate_curve(p, ch, [ch.total_loss_db])
    return _rate_points(columns, codes)[0]


@dataclass(frozen=True)
class SweepResult:
    """Positive-rate threshold of a loss sweep, and whether it is only the grid's last loss."""

    threshold_db: float
    threshold_is_grid_edge: bool = False


def sweep_loss(p: ProtocolParams, ch: ChannelParams, loss_blocks, consume) -> SweepResult:
    """Rate points over a loss grid, a block at a time, plus the positive-rate threshold.

    ``loss_blocks`` yields the grid of a loaded ``SweepSpec`` as non-empty
    arrays: together finite, >= 0 and strictly increasing.  Each block's
    columns and flag codes (as ``_rate_curve`` gives them) go to
    ``consume(columns, codes)`` before the next block is evaluated, so no
    array spans the grid.  The threshold is the loss where the unclamped
    per-pulse rate reaches 0, bracketed by the last positive grid loss and
    the one after it: each engine pass over the bracket's 255 interior
    points keeps the step after the last positive one (the first if none
    is) until the bracket is at most 1e-9 dB wide, and its midpoint is
    returned.  A rate still positive at the grid's end returns the last
    grid loss as a lower bound (``threshold_is_grid_edge`` set).
    """
    last = after = None   # the last positive grid loss and the grid loss after it
    for loss in loss_blocks:
        columns, codes, raw = _rate_curve(p, ch, loss)
        consume(columns, codes)
        if last is not None and after is None:
            after = float(loss[0])
        positive = np.flatnonzero(raw > 0.0)
        if positive.size:
            k = int(positive[-1])
            last, after = float(loss[k]), (float(loss[k + 1]) if k + 1 < raw.size else None)
    if last is None:
        return SweepResult(float("nan"))   # no grid point is positive
    if after is None:
        return SweepResult(last, threshold_is_grid_edge=True)
    while after - last > 1e-9:   # only interior points: the ends keep the signs the grid gave them
        steps = np.linspace(last, after, 257)
        positive = np.flatnonzero(_rate_curve(p, ch, steps[1:-1])[2] > 0.0)
        k = int(positive[-1]) + 1 if positive.size else 0
        last, after = float(steps[k]), float(steps[k + 1])
    return SweepResult(0.5 * (last + after))
