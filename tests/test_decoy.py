import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ipmsim import decoy
from ipmsim.bounds import BoundError
from ipmsim.decoy import (
    DECOY_GAP,
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

from ipmsim.cli import _WRITE_ROWS
from ipmsim.scenario import SweepSpec

from helpers import _fmt, _rate_row, bitwise_equal, sweep_points

# Independent oracle: photon-number-resolved gains by truncated Poisson
# summation, with the detector law written out from first principles.  An
# i-photon pulse gives a photon click with probability eta_i = 1 - (1-eta)^i;
# each of n detectors dark-fires independently with probability d.  A photon
# click is clean (error e_d) unless one of the other n - 1 detectors fires
# (a double click, a random bit); without one, a lone dark errs at e0 and
# several darks are a random bit.  This is the law of decoy.click_law by a
# different computational path, and it exposes the exact single-photon
# truth Y1, e1 Y1 as the i = 1 term.


def _one_minus_pow(d, k):
    """1 - (1-d)^k without cancellation."""
    return -math.expm1(k * math.log1p(-d)) if d < 1.0 else float(k > 0)


def oracle_yield_error(eta_i, d, n, e_d, e0=0.5):
    """Yield Y_i and error-click probability e_i Y_i given photon-click probability eta_i."""
    y0 = _one_minus_pow(d, n)
    double = _one_minus_pow(d, n - 1)
    lone = n * d * (1.0 - d) ** (n - 1)
    y = eta_i + (1.0 - eta_i) * y0
    ey = eta_i * (e_d * (1.0 - double) + 0.5 * double) + (1.0 - eta_i) * (
        e0 * lone + 0.5 * (y0 - lone)
    )
    return y, ey


def oracle_gain_error(x, eta, d, n, e_d, e0=0.5, terms=80):
    q = 0.0
    eq = 0.0
    p_i = math.exp(-x)
    for i in range(terms):
        y_i, ey_i = oracle_yield_error(_one_minus_pow(eta, i), d, n, e_d, e0)
        q += p_i * y_i
        eq += p_i * ey_i
        p_i *= x / (i + 1)
    return q, eq / q if q > 0 else e0


def oracle_single_photon_truth(eta, d, n, e_d, e0=0.5):
    y1, ey1 = oracle_yield_error(eta, d, n, e_d, e0)
    return y1, ey1 / y1 if y1 > 0 else e0


class TestParams:
    def test_rejects_mu_not_above_nu(self):
        with pytest.raises(ValueError, match="nu < mu"):
            ProtocolParams(mu=0.1, nu=0.2)
        with pytest.raises(ValueError, match="nu < mu"):
            ProtocolParams(mu=0.2, nu=0.2)

    def test_refuses_a_decoy_within_the_least_gap_of_the_signal(self):
        edge = 0.6 * (1 - DECOY_GAP)
        assert ProtocolParams(mu=0.6, nu=edge).nu == edge
        with pytest.raises(BoundError, match="nu < mu") as exc:
            ProtocolParams(mu=0.6, nu=math.nextafter(edge, 1.0))
        assert exc.value.field == "nu"

    def test_rejects_bad_allocation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProtocolParams(p_signal=0.5, p_decoy=0.5, p_vacuum=0.5)

    def test_default_signal_fraction(self):
        assert ProtocolParams().l_mu == pytest.approx(2.0 / 3.0)

    def test_l_mu_undefined_for_all_vacuum(self):
        # l_mu divides by p_signal + p_decoy, so the allocation rule refuses 0
        with pytest.raises(BoundError, match="^pulse allocation must sum to 1") as exc:
            ProtocolParams(p_signal=0.0, p_decoy=0.0, p_vacuum=1.0)
        assert exc.value.field is None

    def test_channel_validation(self):
        with pytest.raises(ValueError, match="detector_efficiency"):
            ChannelParams(detector_efficiency=0.0)
        with pytest.raises(ValueError, match="total_loss_db"):
            ChannelParams(total_loss_db=-1.0)
        with pytest.raises(ValueError, match="rep_rate"):
            ChannelParams(rep_rate=0.0)

    @pytest.mark.parametrize("kwargs, error", [
        ({"detector_efficiency": 0}, "'detector_efficiency' must be > 0, got 0"),
        ({"intrinsic_qber": 1.5}, "'intrinsic_qber' must be <= 1, got 1.5"),
        ({"total_loss_db": float("nan")}, "'total_loss_db' must be >= 0, got nan"),
    ])
    def test_bound_error_names_the_field(self, kwargs, error):
        with pytest.raises(BoundError) as info:
            ChannelParams(**kwargs)
        assert (info.value.field, str(info.value)) == (*kwargs, error)


class TestTransmittance:
    def test_lossless_perfect_detector(self):
        assert transmittance(ChannelParams(total_loss_db=0.0, detector_efficiency=1.0)) == 1.0

    def test_satellite_passage_operating_point(self):
        ch = ChannelParams(total_loss_db=45.0, detector_efficiency=0.6)
        assert transmittance(ch) == pytest.approx(1.897366596e-05, rel=1e-9)

    def test_ten_db(self):
        assert transmittance(
            ChannelParams(total_loss_db=10.0, detector_efficiency=1.0)
        ) == pytest.approx(0.1)


class TestGainsAndErrors:
    def test_lossless_signal_gain(self):
        p = ProtocolParams()
        ch = ChannelParams(total_loss_db=0.0, detector_efficiency=1.0, dark_rate=0.0)
        assert gains_and_errors(p, ch).q_mu == pytest.approx(0.451188364, rel=1e-9)

    def test_dark_count_budget(self):
        # Y0 = 1 - (1 - p_d)^4 with p_d = 5e-8 per detector, just under 4 p_d
        ch = ChannelParams(dark_rate=50.0, num_detectors=4, gate_window=1e-9)
        y0 = gains_and_errors(ProtocolParams(), ch).y0
        assert y0 == pytest.approx(-math.expm1(4 * math.log1p(-5e-8)), rel=1e-15)
        assert y0 == pytest.approx(2.0e-7, rel=1e-6)

    def test_dark_dominated_limit(self):
        p = ProtocolParams()
        ch = ChannelParams(total_loss_db=300.0, gate_window=1e-9)
        ge = gains_and_errors(p, ch)
        assert ge.q_mu == pytest.approx(ge.y0, rel=1e-6)
        assert ge.e_mu == pytest.approx(p.e0, rel=1e-6)

    def test_monotone_in_intensity_and_transmittance(self):
        p = ProtocolParams()
        ge_45 = gains_and_errors(p, ChannelParams(total_loss_db=45.0))
        ge_30 = gains_and_errors(p, ChannelParams(total_loss_db=30.0))
        assert ge_45.q_mu > ge_45.q_nu
        assert ge_30.q_mu > ge_45.q_mu

    def test_matches_poisson_series_oracle(self):
        rng = np.random.default_rng(31)
        p = ProtocolParams()
        for _ in range(200):
            ch = ChannelParams(
                total_loss_db=rng.uniform(0.0, 70.0),
                detector_efficiency=rng.uniform(0.05, 1.0),
                dark_rate=rng.uniform(0.0, 1e4),
                num_detectors=int(rng.integers(1, 5)),
                gate_window=rng.uniform(1e-11, 1e-8),
                intrinsic_qber=rng.uniform(0.0, 0.1),
            )
            ge = gains_and_errors(p, ch)
            law = (transmittance(ch), ch.dark_rate * ch.gate_window, ch.num_detectors)
            q_mu, e_mu = oracle_gain_error(p.mu, *law, ch.intrinsic_qber)
            q_nu, e_nu = oracle_gain_error(p.nu, *law, ch.intrinsic_qber)
            assert ge.q_mu == pytest.approx(q_mu, rel=1e-12, abs=1e-15)
            assert ge.q_nu == pytest.approx(q_nu, rel=1e-12, abs=1e-15)
            assert ge.e_mu == pytest.approx(e_mu, rel=1e-12, abs=1e-15)
            assert ge.e_nu == pytest.approx(e_nu, rel=1e-12, abs=1e-15)


def decimal_q1_lower(p, ch, digits=60):
    """Q1_L of the engine's channel law, from the exact values of its float inputs, to ``digits`` digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        mu, nu = Decimal(p.mu), Decimal(p.nu)
        eta = Decimal(10) ** (-Decimal(ch.total_loss_db) / 10) * Decimal(ch.detector_efficiency)
        dark = min(Decimal(ch.dark_rate) * Decimal(ch.gate_window), Decimal(1))
        y0 = 1 - (1 - dark) ** ch.num_detectors
        # a photon click always clicks; without one a pulse clicks on any dark, Y0
        q_mu, q_nu = (1 - (-eta * x).exp() * (1 - y0) for x in (mu, nu))
        return mu**2 * (-mu).exp() / (mu * nu - nu**2) * (
            q_nu * nu.exp() - q_mu * mu.exp() * nu**2 / mu**2 - (mu**2 - nu**2) / mu**2 * y0)


class TestQ1Lower:
    @pytest.mark.parametrize("gap", [DECOY_GAP, 2e-5, 1e-3, 0.5])
    @pytest.mark.parametrize("loss_db", [0.0, 30.0, 60.0])
    def test_matches_a_decimal_oracle_down_to_the_least_gap(self, gap, loss_db):
        # the bracket and mu nu - nu^2 cancel as nu nears mu; the least gap keeps 1e-10
        p, ch = ProtocolParams(mu=0.6, nu=0.6 * (1 - gap)), ChannelParams(total_loss_db=loss_db)
        want = decimal_q1_lower(p, ch)
        assert abs(Decimal(secure_rate(p, ch).q1_lower) - want) <= Decimal("1e-10") * want

    def test_frozen_lossless_value(self):
        p = ProtocolParams()
        ch = ChannelParams(total_loss_db=0.0, detector_efficiency=1.0, dark_rate=0.0)
        ge = gains_and_errors(p, ch)
        q1 = q1_lower(p, ge.q_mu, ge.q_nu, ge.y0)
        assert q1 == pytest.approx(0.321193663, rel=1e-9)
        true_q1 = 0.6 * math.exp(-0.6)  # = 0.329286982, bound must sit below
        assert q1 <= true_q1

    def test_signal_free_channel_keeps_valid_dark_floor(self):
        # with zero transmittance the bound stays positive (dark clicks on
        # single-photon pulses are real single-photon detections) but must
        # sit below the truth Y0 * mu * e^-mu
        p = ProtocolParams()
        y0 = 1e-5
        q1 = q1_lower(p, y0, y0, y0)
        assert 0.0 < q1 <= y0 * p.mu * math.exp(-p.mu) + 1e-18

    def test_pathological_inputs_clamp_to_zero(self):
        # a decoy gain far below anything the signal gain allows drives the
        # raw bound negative; it must come back clamped
        p = ProtocolParams()
        assert q1_lower(p, 0.5, 0.0, 0.0) == 0.0

    def test_bound_below_truth_over_random_channels(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            p = ProtocolParams(
                mu=rng.uniform(0.15, 0.95), nu=rng.uniform(0.01, 0.1), e0=0.5
            )
            eta = 10 ** rng.uniform(-6, 0)
            y0 = 10 ** rng.uniform(-9, -3)
            e_d = rng.uniform(0, 0.05)
            # one detector, so its dark fire probability is Y0
            q_mu, _ = oracle_gain_error(p.mu, eta, y0, 1, e_d)
            q_nu, _ = oracle_gain_error(p.nu, eta, y0, 1, e_d)
            y1, _ = oracle_single_photon_truth(eta, y0, 1, e_d)
            q1 = q1_lower(p, q_mu, q_nu, y0)
            assert q1 <= y1 * p.mu * math.exp(-p.mu) + 1e-12


class TestE1Upper:
    def test_errorless_channel_gives_zero(self):
        p = ProtocolParams()
        ch = ChannelParams(total_loss_db=20.0, dark_rate=0.0, intrinsic_qber=0.0)
        ge = gains_and_errors(p, ch)
        q1 = q1_lower(p, ge.q_mu, ge.q_nu, ge.y0)
        assert e1_upper(p, q1, ge.e_nu, ge.q_nu, ge.y0) == 0.0

    def test_dark_regime_kills_the_rate(self):
        p = ProtocolParams()
        ch = ChannelParams(total_loss_db=80.0, gate_window=1e-9)
        ge = gains_and_errors(p, ch)
        q1 = q1_lower(p, ge.q_mu, ge.q_nu, ge.y0)
        assert q1 > 0
        assert e1_upper(p, q1, ge.e_nu, ge.q_nu, ge.y0) >= 0.5

    def test_reads_one_without_single_photon_gain(self):
        p = ProtocolParams()
        assert e1_upper(p, 0.0, 0.02, 1e-4, 1e-6) == 1.0
        assert e1_upper(p, 1e-323, 0.02, 1e-4, 1e-6) == 1.0   # nu * Q1 underflows to 0

    @pytest.mark.parametrize("loss_db", [3219.0, 3223.0, 3224.0, 3225.0, 3226.0])
    def test_subnormal_q1_is_no_single_photon_gain(self, loss_db):
        # dark-free past about 3219 dB, Q1_L is subnormal and nu * Q1_L is 0
        ch = ChannelParams(total_loss_db=loss_db, dark_rate=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = secure_rate(ProtocolParams(), ch)
        assert pt.q1_lower > 0.0
        assert (pt.e1_upper, pt.rate_per_pulse, pt.flags) == (1.0, 0.0, ("no_single_photon_gain",))

    def test_bound_above_truth_over_random_channels(self):
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(1000):
            p = ProtocolParams(mu=rng.uniform(0.15, 0.95), nu=rng.uniform(0.01, 0.1))
            eta = 10 ** rng.uniform(-5, 0)
            y0 = 10 ** rng.uniform(-9, -3)
            e_d = rng.uniform(0, 0.05)
            q_mu, _ = oracle_gain_error(p.mu, eta, y0, 1, e_d)
            q_nu, e_nu = oracle_gain_error(p.nu, eta, y0, 1, e_d)
            q1 = q1_lower(p, q_mu, q_nu, y0)
            if q1 <= 0:
                continue
            _, e1_true = oracle_single_photon_truth(eta, y0, 1, e_d)
            assert e1_upper(p, q1, e_nu, q_nu, y0) >= e1_true - 1e-12
            checked += 1
        assert checked > 900


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958, abs=1e-9)

    def test_symmetry(self):
        for x in (0.01, 0.2, 0.37):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-300.0, math.log10(0.49)).map(lambda e: min(max(10.0**e, 1e-300), 0.49)))   # log-uniform
    @example(1e-12)
    @example(5.4e-17)
    @example(1.6e-8)   # e1_U at 0 dB with intrinsic_qber 0
    def test_small_x_keeps_full_precision(self, x):
        # log2(1 - x) cancelled for small x: 7.7e-7 relative off at x = 1e-12, 2.6 % at 5.4e-17
        with localcontext() as ctx:
            ctx.prec = 400
            d = Decimal(x)
            exact = -(d * d.ln() + (1 - d) * (1 - d).ln()) / Decimal(2).ln()
        assert abs(binary_entropy(x) - float(exact)) <= 1e-14 * float(exact)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestSecureRate:
    def test_lossless_noiseless_rate(self):
        p = ProtocolParams()
        ch = ChannelParams(
            total_loss_db=0.0, detector_efficiency=1.0, dark_rate=0.0, intrinsic_qber=0.0
        )
        pt = secure_rate(p, ch)
        # q * L_mu * Q1_L with no error terms
        assert pt.rate_per_pulse == pytest.approx(0.107064554, rel=1e-8)
        assert pt.rate_per_pulse > 0.1
        assert pt.e1_upper == 0.0
        assert pt.qber == 0.0

    def test_clamps_beyond_threshold(self):
        pt = secure_rate(ProtocolParams(), ChannelParams(total_loss_db=70.0))
        assert pt.rate_per_pulse == 0.0
        assert pt.rate_per_second == 0.0
        assert "rate_clamped" in pt.flags or "no_single_photon_gain" in pt.flags

    def test_qber_is_signal_error_rate(self):
        pt = secure_rate(ProtocolParams(), ChannelParams(total_loss_db=30.0))
        assert pt.qber == pt.e_mu

    def test_rate_per_second_scaling(self):
        p = ProtocolParams()
        base = secure_rate(p, ChannelParams(total_loss_db=40.0, rep_rate=76e6))
        fast = secure_rate(p, ChannelParams(total_loss_db=40.0, rep_rate=1e9))
        # same per-pulse physics (same gate) means exact linear scaling
        assert base.rate_per_pulse == fast.rate_per_pulse
        assert fast.rate_per_second / base.rate_per_second == pytest.approx(1e9 / 76e6)

    def test_vacuum_limit_drives_rate_down(self):
        p = ProtocolParams(mu=1e-4, nu=1e-5)
        ch = ChannelParams(total_loss_db=0.0, detector_efficiency=1.0, dark_rate=0.0)
        assert secure_rate(p, ch).rate_per_pulse < 1e-4


class TestSweepLoss:
    def test_single_point_noiseless_grid(self):
        p = ProtocolParams()
        ch = ChannelParams(total_loss_db=0.0, detector_efficiency=1.0, dark_rate=0.0)
        points, result = sweep_points(p, ch, [0.0])
        assert len(points) == 1
        assert points[0].rate_per_pulse > 0
        assert result.threshold_is_grid_edge

    def test_threshold_brackets_sign_change(self):
        p, ch = ProtocolParams(), ChannelParams()
        _, result = sweep_points(p, ch, np.arange(40.0, 70.0 + 0.25, 0.5))
        th = result.threshold_db
        assert not result.threshold_is_grid_edge
        before = secure_rate(p, ChannelParams(total_loss_db=th - 0.5))
        after = secure_rate(p, ChannelParams(total_loss_db=th + 0.5))
        assert before.rate_per_pulse > 0
        assert after.rate_per_pulse == 0.0

    def test_rate_monotone_in_loss_and_dark_rate(self):
        p, ch = ProtocolParams(), ChannelParams()
        rates = [pt.rate_per_second for pt in sweep_points(p, ch, np.arange(0, 66, 1.0))[0]]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        noisier = ChannelParams(dark_rate=500.0)
        quiet = sweep_points(p, ch, [45.0])[0][0].rate_per_second
        loud = sweep_points(p, noisier, [45.0])[0][0].rate_per_second
        assert loud <= quiet

    def test_qber_non_decreasing_in_loss(self):
        p, ch = ProtocolParams(), ChannelParams()
        qbers = [pt.qber for pt in sweep_points(p, ch, np.arange(0, 71, 1.0))[0]]
        assert all(b >= a - 1e-15 for a, b in zip(qbers, qbers[1:]))

    @pytest.mark.parametrize("step", [0.5, 0.01])
    @pytest.mark.parametrize(
        "channel",
        [ChannelParams(), ChannelParams(dark_rate=1e5, gate_window=1e-9)],
        ids=["default", "1e5-darks"],
    )
    def test_threshold_is_the_zero_of_the_rate(self, channel, step, monkeypatch):
        # on the default channel and grid, linear interpolation between the
        # grid points read 62.30657 dB; the rate's zero is at 62.29798 dB
        p = ProtocolParams()
        grid = np.arange(round(70.0 / step) + 1) * step
        calls = []
        engine = decoy._rate_curve
        monkeypatch.setattr(decoy, "_rate_curve", lambda *args: calls.append(1) or engine(*args))
        threshold = sweep_loss(p, channel, [grid], lambda columns, codes: None).threshold_db
        last = int(np.flatnonzero(grid < threshold)[-1])
        exact = bisect_threshold(p, channel, grid[last], grid[last + 1])
        assert threshold == pytest.approx(exact, abs=1e-8)
        if step == 0.01:
            # the grid pass (one block), then at most three one-point refinements
            assert len(calls) <= 4

    @pytest.mark.parametrize(
        "channel, grid",
        [
            (ChannelParams(), np.arange(141) * 0.5),
            (ChannelParams(dark_rate=1e5, gate_window=1e-9), np.arange(7001) * 0.01),
            # no sign change: the dark-free rate underflows to 0, flickering between 3218 and 3222 dB
            (ChannelParams(dark_rate=0.0), np.arange(41) * 100.0),
        ],
        ids=["default", "1e5-darks", "dark-free"],
    )
    def test_each_pass_evaluates_only_inside_the_bracket_and_narrows_it_256_fold(self, channel, grid, monkeypatch):
        p, calls = ProtocolParams(), []
        engine = decoy._rate_curve

        def recording_engine(*args):
            out = engine(*args)
            calls.append((args[2], out[2]))
            return out

        monkeypatch.setattr(decoy, "_rate_curve", recording_engine)
        threshold = sweep_loss(p, channel, [grid], lambda columns, codes: None).threshold_db
        (_, raw), *passes = calls
        last = int(np.flatnonzero(raw > 0.0)[-1])
        lo, hi = grid[last], grid[last + 1]
        assert passes
        for loss, raw in passes:
            assert hi - lo > 1e-9
            assert np.all((lo < loss) & (loss < hi))
            positive = np.flatnonzero(raw > 0.0)
            k = positive[-1] + 1 if positive.size else 0
            ends = np.concatenate([[lo], loss, [hi]])
            width = hi - lo
            lo, hi = ends[k], ends[k + 1]
            assert hi - lo <= width / 256 + 4 * np.spacing(hi)
        assert hi - lo <= 1e-9
        assert threshold == 0.5 * (lo + hi)

    def test_all_dead_grid_has_nan_threshold(self):
        p, ch = ProtocolParams(), ChannelParams()
        _, result = sweep_points(p, ch, [68.0, 69.0, 70.0])
        assert math.isnan(result.threshold_db)


def whole_grid_sweep(p, ch, grid):
    """Columns, flag codes, threshold and edge flag of one whole-grid pass, as sweep_loss gave them before blocks."""
    columns, codes, raw = decoy._rate_curve(p, ch, grid)
    positive = np.flatnonzero(raw > 0.0)
    if not positive.size:
        return columns, codes, float("nan"), False
    last = int(positive[-1])
    if last == grid.size - 1:
        return columns, codes, float(grid[-1]), True
    # the threshold depends only on the bracket, so a sweep of the bracket alone finds it
    return columns, codes, sweep_loss(p, ch, [grid[last:last + 2]], lambda *_: None).threshold_db, False


class TestSweepBlocks:
    """The sweep in the CLI's blocks against one whole-grid pass, bit for bit, at block edges."""

    B = _WRITE_ROWS

    @pytest.mark.parametrize(
        "start, step, points, last_positive",
        [
            (0.0, 0.01, 1, 0),                       # one point, positive: the grid edge
            (40.0, 0.01, B - 1, None),
            (50.0, 0.01, B, None),
            (60.0, 0.005, B + 1, None),
            (21.34, 0.01, 2 * B + 1, B - 1),         # the last positive point ends the first block
            (0.0, 0.01, B + 1, B),                   # positive up to a one-point last block
            (70.0, 0.01, 2 * B + 1, -1),             # no positive point
        ],
    )
    def test_blocks_give_the_bits_of_one_whole_grid_pass(self, start, step, points, last_positive):
        p, ch = ProtocolParams(), ChannelParams()
        spec = SweepSpec(start, start + (points - 1) * step, step)
        assert len(spec) == points
        grid = spec.grid()
        want_columns, want_codes, want_threshold, want_edge = whole_grid_sweep(p, ch, grid)
        raw = decoy._rate_curve(p, ch, grid)[2]
        if last_positive is not None:
            assert np.flatnonzero(raw > 0.0)[-1:].tolist() == ([last_positive] if last_positive >= 0 else [])
        blocks = []
        result = sweep_loss(p, ch, spec.blocks(self.B), lambda columns, codes: blocks.append((columns, codes)))
        assert [len(codes) for _, codes in blocks] == [min(self.B, points - i) for i in range(0, points, self.B)]
        for name, want in want_columns.items():
            assert bitwise_equal(np.concatenate([columns[name] for columns, _ in blocks]), want), name
        assert bitwise_equal(np.concatenate([codes for _, codes in blocks]), want_codes)
        assert result.threshold_is_grid_edge == want_edge
        assert result.threshold_db == want_threshold or math.isnan(result.threshold_db) and math.isnan(want_threshold)


class TestArrayBuildingBlocks:
    def test_gains_broadcast_over_loss(self):
        p, ch = ProtocolParams(), ChannelParams(gate_window=1e-9)
        losses = np.array([0.0, 25.0, 45.0, 70.0])
        ge = gains_and_errors(p, ch, losses)
        assert ge.q_mu.shape == ge.e_nu.shape == losses.shape
        for i, loss in enumerate(losses):
            one = gains_and_errors(p, replace(ch, total_loss_db=float(loss)))
            assert (ge.q_mu[i], ge.q_nu[i], ge.e_mu[i], ge.e_nu[i]) == pytest.approx(
                (one.q_mu, one.q_nu, one.e_mu, one.e_nu), rel=1e-15
            )
        assert ge.y0 == pytest.approx(-math.expm1(4 * math.log1p(-50.0 * 1e-9)), rel=1e-15)

    def test_bounds_and_entropy_broadcast(self):
        p = ProtocolParams()
        ge = gains_and_errors(p, ChannelParams(), np.array([10.0, 30.0, 50.0]))
        q1 = q1_lower(p, ge.q_mu, ge.q_nu, ge.y0)
        e1 = e1_upper(p, q1, ge.e_nu, ge.q_nu, ge.y0)
        h = binary_entropy(e1)
        for i in range(3):
            assert q1[i] == q1_lower(p, ge.q_mu[i], ge.q_nu[i], ge.y0)
            assert e1[i] == e1_upper(p, q1[i], ge.e_nu[i], ge.q_nu[i], ge.y0)
            assert h[i] == binary_entropy(e1[i])
        np.testing.assert_array_equal(binary_entropy(np.array([0.0, 0.5, 1.0])), [0.0, 1.0, 0.0])

    def test_array_errors_match_scalar_errors(self):
        p = ProtocolParams()
        e1 = e1_upper(p, np.array([1e-4, 0.0]), 0.02, 1e-4, 1e-6)
        np.testing.assert_array_equal(e1, [e1_upper(p, 1e-4, 0.02, 1e-4, 1e-6), 1.0])
        with pytest.raises(ValueError, match=r"x in \[0, 1\], got 1\.5$"):
            binary_entropy(np.array([0.2, 1.5, np.nan, 2.0]))


# Scalar oracle: the rate law written one loss at a time with the math
# module.  The array engine must reproduce it point for point.


def scalar_gains_and_errors(p, ch):
    eta = transmittance(ch)
    n, e_d = ch.num_detectors, ch.intrinsic_qber
    d = min(ch.dark_rate * ch.gate_window, 1.0)
    none = (1.0 - d) ** n
    one = n * d * (1.0 - d) ** (n - 1)
    multi = max((-math.expm1(n * math.log1p(-d)) if d < 1.0 else 1.0) - one, 0.0)
    photon, double = none + one / n, one * (n - 1) / n + multi
    y0 = one + multi

    def gain_error(x):
        click = -math.expm1(-eta * x)
        q = click * (photon + double) + (1.0 - click) * y0
        eq = click * (e_d * photon + 0.5 * double) + (1.0 - click) * (p.e0 * one + 0.5 * multi)
        return q, eq / q if q > 0 else p.e0

    q_mu, e_mu = gain_error(p.mu)
    q_nu, e_nu = gain_error(p.nu)
    return SimpleNamespace(q_mu=q_mu, q_nu=q_nu, e_mu=e_mu, e_nu=e_nu, y0=y0)


def scalar_q1_lower(p, q_mu, q_nu, y0):
    denom = p.mu * p.nu - p.nu**2
    if denom <= 0:
        raise ValueError(f"mu must exceed nu (mu*nu - nu^2 > 0), got mu={p.mu}, nu={p.nu}")
    raw = (
        p.mu**2
        * math.exp(-p.mu)
        / denom
        * (
            q_nu * math.exp(p.nu)
            - q_mu * math.exp(p.mu) * p.nu**2 / p.mu**2
            - (p.mu**2 - p.nu**2) / p.mu**2 * y0
        )
    )
    return max(raw, 0.0)


def scalar_e1_upper(p, q1_low, e_nu, q_nu, y0):
    if p.nu * q1_low <= 0:
        raise ValueError("e1 bound undefined for nu Q1_lower <= 0; treat the rate as 0")
    raw = (e_nu * q_nu * math.exp(p.nu) - p.e0 * y0) * p.mu * math.exp(-p.mu) / (p.nu * q1_low)
    return min(max(raw, 0.0), 1.0)


def scalar_binary_entropy(x):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _rate_per_pulse_raw(p, ge):
    flags = []
    q1 = scalar_q1_lower(p, ge.q_mu, ge.q_nu, ge.y0)
    if p.nu * q1 <= 0.0:
        flags.append("no_single_photon_gain")
        ec = p.q * p.l_mu * (-ge.q_mu * p.f_ec * scalar_binary_entropy(ge.e_mu))
        return ec, q1, 1.0, tuple(flags)
    e1 = scalar_e1_upper(p, q1, ge.e_nu, ge.q_nu, ge.y0)
    if e1 >= 0.5:
        flags.append("e1_at_or_above_half")
    raw = p.q * p.l_mu * (
        -ge.q_mu * p.f_ec * scalar_binary_entropy(ge.e_mu) + q1 * (1.0 - scalar_binary_entropy(e1))
    )
    return raw, q1, e1, tuple(flags)


def scalar_rate_point(p, ch):
    """The oracle's RatePoint and unclamped rate at the channel's loss."""
    ge = scalar_gains_and_errors(p, ch)
    raw, q1, e1, flags = _rate_per_pulse_raw(p, ge)
    rate = 0.0 if raw <= 0.0 else raw
    if raw < 0.0:
        flags = flags + ("rate_clamped",)
    point = RatePoint(
        loss_db=ch.total_loss_db,
        q_mu=ge.q_mu,
        q_nu=ge.q_nu,
        e_mu=ge.e_mu,
        e_nu=ge.e_nu,
        y0=ge.y0,
        q1_lower=q1,
        e1_upper=e1,
        qber=ge.e_mu,
        rate_per_pulse=rate,
        rate_per_second=rate * ch.rep_rate if rate > 0 else 0.0,
        flags=flags,
    )
    return point, raw


def random_design(rng):
    """Protocol and channel drawn around the rate-design operating region."""
    mu = rng.uniform(0.2, 0.95)
    p_signal = rng.uniform(0.3, 0.8)
    p_decoy = rng.uniform(0.05, 1.0 - p_signal)
    protocol = ProtocolParams(
        mu=mu,
        nu=mu * rng.uniform(0.05, 0.6),
        q=rng.uniform(0.3, 1.0),
        f_ec=rng.uniform(1.0, 1.5),
        e0=rng.uniform(0.3, 0.5),
        p_signal=p_signal,
        p_decoy=p_decoy,
        p_vacuum=1.0 - p_signal - p_decoy,
    )
    channel = ChannelParams(
        detector_efficiency=rng.uniform(0.05, 1.0),
        dark_rate=10.0 ** rng.uniform(-1.0, 5.0),
        num_detectors=int(rng.integers(1, 5)),
        rep_rate=10.0 ** rng.uniform(6.0, 9.5),
        intrinsic_qber=rng.uniform(0.0, 0.08),
        gate_window=10.0 ** rng.uniform(-11.0, -8.0),
    )
    return protocol, channel


def csv_row(pt):
    """The point as the rate CSVs print it."""
    return [_fmt(v) for v in _rate_row(pt)]


FIELDS = [name for name in RatePoint.__dataclass_fields__ if name != "flags"]


def assert_sweep_matches_oracle(p, ch, grid):
    """Field by field, flag by flag and CSV row by CSV row against the oracle.

    Returns the number of interior thresholds checked (0 or 1).
    """
    points, result = sweep_points(p, ch, grid)
    channels = [replace(ch, total_loss_db=float(loss)) for loss in grid]
    oracle = [scalar_rate_point(p, at_loss) for at_loss in channels]
    refs = [ref for ref, _ in oracle]
    got = np.array([[getattr(pt, name) for name in FIELDS] for pt in points])
    want = np.array([[getattr(ref, name) for name in FIELDS] for ref in refs])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    assert [pt.flags for pt in points] == [ref.flags for ref in refs]
    assert [csv_row(pt) for pt in points] == [csv_row(ref) for ref in refs]
    # a point is a one-element sweep: every row is secure_rate at its loss, bit for bit
    assert points == [secure_rate(p, at_loss) for at_loss in channels]

    raws = [raw for _, raw in oracle]
    positive = [i for i, r in enumerate(raws) if r > 0.0]
    if not positive or positive[-1] == len(raws) - 1:
        return 0
    last = positive[-1]
    assert result.threshold_db == pytest.approx(bisect_threshold(p, ch, grid[last], grid[last + 1]), abs=1e-8)
    return 1


def bisect_threshold(p, ch, positive_db, dead_db, tol_db=1e-10):
    """The loss where the oracle's unclamped rate reaches 0, by bisection."""
    while dead_db - positive_db > tol_db:
        mid = 0.5 * (positive_db + dead_db)
        if scalar_rate_point(p, replace(ch, total_loss_db=mid))[1] > 0.0:
            positive_db = mid
        else:
            dead_db = mid
    return 0.5 * (positive_db + dead_db)


class TestThresholdPrecision:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.001, 5.0))
    def test_threshold_is_within_1e_9_db_of_the_oracle_root(self, seed, step):
        p, ch = random_design(np.random.default_rng(seed))
        spec = SweepSpec(0.0, 80.0, step)
        grid = spec.grid()
        raw = decoy._rate_curve(p, ch, grid)[2]
        positive = np.flatnonzero(raw > 0.0)
        # a sign change inside the grid: the grid point after the bracket has a negative rate
        assume(positive.size and positive[-1] + 1 < grid.size and raw[positive[-1] + 1] < 0.0)
        last = positive[-1]
        result = sweep_loss(p, ch, spec.blocks(_WRITE_ROWS), lambda columns, codes: None)
        exact = bisect_threshold(p, ch, grid[last], grid[last + 1], tol_db=1e-11)
        assert abs(result.threshold_db - exact) <= 1e-9


class TestArrayEngineAgainstScalarOracle:
    DESIGNS = 200
    GRID = [float(loss) for loss in range(81)]   # 0-80 dB

    def test_random_designs_match_the_scalar_oracle(self):
        rng = np.random.default_rng(2005)
        thresholds = sum(
            assert_sweep_matches_oracle(*random_design(rng), self.GRID)
            for _ in range(self.DESIGNS)
        )
        # most designs cross their threshold inside the grid
        assert thresholds > self.DESIGNS // 2

    def test_dark_free_channel_past_underflow_matches_the_oracle(self):
        # with no darks and eta underflowed to 0 every gain is 0, so Q1_L is
        # 0: the no-single-photon-gain branch
        p, ch = ProtocolParams(), ChannelParams(dark_rate=0.0)
        grid = [0.0, 40.0, 1000.0, 3300.0, 4000.0]
        assert_sweep_matches_oracle(p, ch, grid)
        assert sweep_points(p, ch, grid)[0][-1].flags == ("no_single_photon_gain",)

    def test_flags_cover_the_clamped_regimes(self):
        rng = np.random.default_rng(2005)
        seen = set()
        for _ in range(20):
            p, ch = random_design(rng)
            seen.update(pt.flags for pt in sweep_points(p, ch, self.GRID)[0])
        assert {(), ("rate_clamped",), ("e1_at_or_above_half", "rate_clamped")} <= seen
