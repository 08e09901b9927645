"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import binom

from ipmsim.cli import main as cli_main
from ipmsim.decoy import (
    ChannelParams,
    ProtocolParams,
    e1_upper,
    gains_and_errors,
    q1_lower,
    secure_rate,
    sweep_loss,
)
from ipmsim.modulator import (
    ModulatorConfig,
    bb84_table,
    fit_delta_l,
    modulator_mueller,
    output_stokes,
    poincare_trace,
    wavelength_scan,
)
from ipmsim.montecarlo import STATES, SimConfig, estimate, simulate
from ipmsim.polarimetry import measure_stokes
from ipmsim.polarization import apply_mueller

from helpers import BB84_TARGET_STOKES

H_IN = np.array([1.0, 1.0, 0.0, 0.0])
Y0_TAIL = math.erfc(3.0 / math.sqrt(2.0)) / 2.0  # one tail of a two-sided 3 sigma test


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f} s)")


def random_physical_stokes(rng):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    s0 = rng.uniform(0.3, 2.5)
    return np.concatenate(([s0], s0 * rng.uniform(0.0, 1.0) * direction))


def test_criterion_1_closed_form_equals_component_pipeline():
    with criterion(1, "closed form vs element pipeline, 1e4 draws at 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(10_000):
            cfg = ModulatorConfig(
                delta=rng.uniform(-0.2, 0.2),
                phi0_operating=rng.uniform(0.0, 2 * np.pi),
            )
            v1, v2 = rng.uniform(-8.0, 8.0, size=2)
            closed = output_stokes(v1, v2, cfg)
            composed = apply_mueller(modulator_mueller(v1, v2, cfg), H_IN)
            worst = max(worst, float(np.max(np.abs(closed - composed))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"worst component deviation {worst:.3e}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s"


def test_criterion_2_bb84_state_table():
    with criterion(2, "drive table states and basis geometry at 1e-12"):
        cfg = ModulatorConfig()  # operating phase pi/4, no splitter offset
        expected_volts = {"H": (0.5, -0.5), "D": (-0.5, 0.5), "V": (-1.5, 1.5), "A": (1.5, -1.5)}
        volts, stokes = bb84_table(cfg)
        vectors = {}
        for state, (v1, v2), s in zip(STATES, volts, stokes):
            assert (v1, v2) == expected_volts[state]
            assert v1 + v2 == 0.0
            np.testing.assert_allclose(s, BB84_TARGET_STOKES[state], atol=1e-12)
            assert abs(s[3]) <= 1e-12  # equator
            vectors[state] = s[1:]
        assert abs(np.dot(vectors["H"], vectors["V"]) + 1) <= 1e-12
        assert abs(np.dot(vectors["D"], vectors["A"]) + 1) <= 1e-12
        for z in "HV":
            for x in "DA":
                assert abs(np.dot(vectors[z], vectors[x])) <= 1e-12


def test_criterion_3_arm_imbalance_recovery():
    with criterion(3, "arm imbalance fit: 0.1% noiseless, 1% at 2% noise, 100 seeds"):
        start = time.perf_counter()
        cfg = ModulatorConfig()
        lam = np.linspace(1548.8e-9, 1551.2e-9, 1201)  # 2.4 nm around 1550 nm
        clean = wavelength_scan(cfg, lam)

        fit = fit_delta_l(lam, clean, cfg.n_1)
        noiseless_err = abs(fit.delta_l - cfg.delta_l) / cfg.delta_l
        assert noiseless_err < 1e-3, f"noiseless error {noiseless_err:.2e}"

        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + rng.uniform(-0.02, 0.02, size=clean.size)
            fit = fit_delta_l(lam, noisy, cfg.n_1)
            worst = max(worst, abs(fit.delta_l - cfg.delta_l) / cfg.delta_l)
        elapsed = time.perf_counter() - start
        assert worst < 1e-2, f"worst noisy error {worst:.2e}"
        assert elapsed < 10.0, f"runtime {elapsed:.2f} s exceeds 10 s"


def test_criterion_4_polarimetry_round_trip_and_bias():
    with criterion(4, "exact Stokes recovery at pi/2; sin(retardance) bias at 0.93*pi/2"):
        rng = np.random.default_rng(1004)
        for _ in range(500):
            s = random_physical_stokes(rng)
            np.testing.assert_allclose(measure_stokes(s), s, atol=1e-13)

        biased = 0.93 * np.pi / 2
        factor = np.sin(biased)
        for _ in range(500):
            s = random_physical_stokes(rng)
            s[2] = 0.0  # isolate the pure bias factor
            est = measure_stokes(s, retardance=biased)
            assert abs(est[3] - factor * s[3]) < 1e-9
        # general states: bias factor on S3 plus cos(retardance) leakage from S2
        for _ in range(500):
            s = random_physical_stokes(rng)
            est = measure_stokes(s, retardance=biased)
            predicted = s[3] * np.sin(biased) + s[2] * np.cos(biased)
            assert abs(est[3] - predicted) < 1e-9


def test_criterion_5_headline_key_rates():
    with criterion(5, "155 bit/s and 2300 bit/s within x/2, >60 dB threshold, >13x ratio"):
        start = time.perf_counter()
        protocol = ProtocolParams(mu=0.6, nu=0.2, f_ec=1.22)
        ch76 = ChannelParams(
            total_loss_db=45.0,
            detector_efficiency=0.6,
            dark_rate=50.0,
            intrinsic_qber=0.01,
            rep_rate=76e6,
        )
        rate76 = secure_rate(protocol, ch76).rate_per_second
        assert 155.0 / 2.0 <= rate76 <= 155.0 * 2.0, f"76 MHz rate {rate76:.1f} bit/s"

        sweep = sweep_loss(protocol, ch76, [np.arange(40.0, 70.0 + 0.25, 0.5)], lambda columns, codes: None)
        assert sweep.threshold_db > 60.0, f"threshold {sweep.threshold_db:.2f} dB"

        # gate window scales with the clock so the per-pulse dark budget shrinks
        ch1g = ChannelParams(
            total_loss_db=45.0,
            detector_efficiency=0.6,
            dark_rate=50.0,
            intrinsic_qber=0.01,
            rep_rate=1e9,
            gate_window=ch76.gate_window * ch76.rep_rate / 1e9,
        )
        rate1g = secure_rate(protocol, ch1g).rate_per_second
        assert 2300.0 / 2.0 <= rate1g <= 2300.0 * 2.0, f"1 GHz rate {rate1g:.1f} bit/s"
        # better than the bare clock ratio: the shorter gate improves SNR
        assert rate1g / rate76 > max(13.0, 1000.0 / 76.0), f"ratio {rate1g / rate76:.2f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"


def _series_gains(x, eta, y0, e_d, e0, yield_model, terms=80):
    """Photon-number-resolved oracle gains under a named yield model."""
    q = eq = 0.0
    p_i = math.exp(-x)
    for i in range(terms):
        eta_i = -math.expm1(i * math.log1p(-eta)) if eta < 1.0 else float(i > 0)
        if yield_model == "additive":
            y_i = y0 + eta_i
            err_i = e0 * y0 + e_d * eta_i
        else:  # independent dark/photon clicks
            y_i = 1.0 - (1.0 - y0) * (1.0 - eta_i)
            err_i = e_d * eta_i + e0 * y0 * (1.0 - eta_i)
        q += p_i * y_i
        eq += p_i * err_i
        p_i *= x / (i + 1)
    return q, eq


def test_criterion_6_decoy_bound_validity():
    with criterion(6, "Q1 lower / e1 upper bounds valid over 1000 random channels"):
        rng = np.random.default_rng(1006)
        for yield_model in ("additive", "independent"):
            checked = 0
            for _ in range(1000):
                mu = rng.uniform(0.1, 0.99)
                nu = rng.uniform(0.01, 0.9) * mu
                nu = max(nu, 1e-3)
                p = ProtocolParams(mu=mu, nu=nu)
                eta = 10.0 ** rng.uniform(-6.0, 0.0)
                y0 = 10.0 ** rng.uniform(-9.0, -2.0)
                e_d = rng.uniform(0.0, 0.1)

                q_mu, _ = _series_gains(mu, eta, y0, e_d, p.e0, yield_model)
                q_nu, eq_nu = _series_gains(nu, eta, y0, e_d, p.e0, yield_model)
                e_nu = eq_nu / q_nu
                if yield_model == "additive":
                    y1 = y0 + eta
                    e1_y1 = p.e0 * y0 + e_d * eta
                else:
                    y1 = 1.0 - (1.0 - y0) * (1.0 - eta)
                    e1_y1 = e_d * eta + p.e0 * y0 * (1.0 - eta)
                q1_true = y1 * mu * math.exp(-mu)
                e1_true = e1_y1 / y1

                q1 = q1_lower(p, q_mu, q_nu, y0)
                assert q1 <= q1_true + 1e-12, (
                    f"{yield_model}: Q1 bound {q1:.3e} above truth {q1_true:.3e}"
                )
                if q1 > 0.0:
                    e1 = e1_upper(p, q1, e_nu, q_nu, y0)
                    assert e1 >= min(e1_true, 1.0) - 1e-12, (
                        f"{yield_model}: e1 bound {e1:.3e} below truth {e1_true:.3e}"
                    )
                    checked += 1
            assert checked > 900, f"{yield_model}: only {checked} channels exercised e1"


def test_criterion_7_monte_carlo_agreement():
    with criterion(7, "MC vs analytic at 25 dB, 40 runs of 1e7; same-seed determinism"):
        start = time.perf_counter()
        protocol = ProtocolParams()
        channel = ChannelParams(total_loss_db=25.0)
        ge = gains_and_errors(protocol, channel)

        runs_passing = 0
        first_tally = None
        for seed in range(40):
            cfg = SimConfig(n_pulses=10_000_000, seed=seed, protocol=protocol, channel=channel)
            tally = simulate(cfg)
            if seed == 0:
                first_tally = tally
            emp = estimate(tally, cfg)
            checks = []
            for est, target in (
                (emp.q_mu, ge.q_mu),
                (emp.q_nu, ge.q_nu),
                (emp.e_mu, ge.e_mu),
            ):
                se = math.sqrt(target * (1.0 - target) / est.denominator)
                checks.append(abs(est.value - target) <= 3.0 * se)
            # y0 expects 0.05 vacuum clicks per run, where one click sits at
            # +4.25 sigma; judge it by the exact binomial tails at the same
            # two-sided 0.27 % level as the 3-sigma legs
            k, n = emp.y0.numerator, emp.y0.denominator
            tail = min(binom.cdf(k, n, ge.y0), binom.sf(k - 1, n, ge.y0))
            checks.append(tail >= Y0_TAIL)
            runs_passing += all(checks)
        assert runs_passing >= 38, f"only {runs_passing}/40 runs within 3 sigma"

        cfg0 = SimConfig(n_pulses=10_000_000, seed=0, protocol=protocol, channel=channel)
        rerun = simulate(cfg0)
        assert first_tally.to_json() == rerun.to_json()

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 60 s"


def test_criterion_8_poincare_trace(tmp_path):
    with criterion(8, "triangular drive: equatorial great circle, monotone phase per half period"):
        _, v1, v2, stokes = poincare_trace(ModulatorConfig())
        assert np.max(np.abs(stokes[:, 3])) <= 1e-12
        np.testing.assert_allclose(np.hypot(stokes[:, 1], stokes[:, 2]), 1.0, atol=1e-12)

        out = tmp_path / "trace.csv"
        assert cli_main(["trace", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        data = np.array([[float(x) for x in row] for row in rows])
        v_diff = data[:, 1] - data[:, 2]
        s = data[:, 3:7]
        assert np.max(np.abs(s[:, 3])) <= 1e-12

        phase = np.unwrap(np.arctan2(s[:, 2], s[:, 1]))
        direction = np.sign(np.diff(v_diff))
        bounds = [0]
        bounds += [i + 1 for i in range(len(direction) - 1) if direction[i + 1] != direction[i]]
        bounds.append(len(v_diff) - 1)
        for a, b in zip(bounds, bounds[1:]):
            seg = np.diff(phase[a : b + 1])
            assert np.all(seg > 0) or np.all(seg < 0), f"phase not monotone in [{a},{b}]"
        # the sweep covers the full circle each period
        assert np.ptp(phase) >= 2 * np.pi - 1e-9
