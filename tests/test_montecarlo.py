import json
import math

import numpy as np
import pytest

from ipmsim.decoy import (
    _NO_CLICK,
    ChannelParams,
    ProtocolParams,
    click_errors,
    gains_and_errors,
    secure_rate,
    transmittance,
)
from ipmsim.montecarlo import (
    PULSE_CLASSES,
    STATES,
    EmpiricalRates,
    PulseTally,
    SimConfig,
    _cell_probs,
    _stream,
    estimate,
    simulate,
)


def make_cfg(n_pulses=1_000_000, seed=123, **channel_kwargs) -> SimConfig:
    return SimConfig(
        n_pulses=n_pulses,
        seed=seed,
        protocol=ProtocolParams(),
        channel=ChannelParams(**channel_kwargs),
    )


# Event-level reference: every pulse realized explicitly.  The package draws
# a run's tally at count level; this per-pulse kernel samples the same law
# and is kept here as the oracle it is checked against.

# Below this per-pulse any-dark probability the dark fires are sampled
# sparsely (count of affected pulses first, then their positions); above it
# a per-pulse binomial is drawn directly.  Both sample the same law.
_SPARSE_DARK_LIMIT = 1e-4


def _binom_pmf(k: int, n: int, p: float) -> float:
    from math import comb

    return comb(n, k) * p**k * (1.0 - p) ** (n - k)


def _draw_darks(rng: np.random.Generator, n: int, n_det: int, dark_p: float) -> np.ndarray:
    """Per-pulse count of dark-firing detectors, iid Binomial(n_det, dark_p)."""
    dark_p = min(dark_p, 1.0)
    p_any = -np.expm1(n_det * np.log1p(-dark_p)) if dark_p < 1.0 else 1.0
    if p_any > _SPARSE_DARK_LIMIT:
        return rng.binomial(n_det, dark_p, size=n)
    n_dark = np.zeros(n, dtype=np.int16)
    hits = int(rng.binomial(n, p_any))
    if hits:
        where = rng.choice(n, size=hits, replace=False)
        # count conditioned on at least one fire
        pmf = np.array([_binom_pmf(k, n_det, dark_p) for k in range(1, n_det + 1)])
        n_dark[where] = 1 + rng.choice(n_det, size=hits, p=pmf / pmf.sum())
    return n_dark


def _event_tally(cfg: SimConfig) -> PulseTally:
    """Simulate the run's pulses one by one, from the stream ``simulate`` reads."""
    p, ch = cfg.protocol, cfg.channel
    n = cfg.n_pulses
    rng = _stream(cfg.seed)
    eta = transmittance(ch)
    dark_p = ch.dark_rate * ch.gate_window      # per detector, per pulse
    n_det = ch.num_detectors

    # pulse class from the allocation, BB84 state and receiver basis uniform
    u_class = rng.random(n)
    pulse_class = np.full(n, 2, dtype=np.uint8)          # vacuum
    pulse_class[u_class < p.p_signal + p.p_decoy] = 1    # decoy
    pulse_class[u_class < p.p_signal] = 0                # signal
    state_basis = rng.integers(0, 8, size=n, dtype=np.uint8)
    state = state_basis & 3
    # H=0, D=1, V=2, A=3: Alice's basis is state & 1; Bob's is the next bit
    basis_match = ((state_basis >> 2) & 1) == (state & 1)

    # photon numbers (vacuum sends none); each photon survives independently
    # with probability eta, so the pulse shows a photon click with
    # probability 1 - (1 - eta)^i, drawn directly
    photons = np.zeros(n, dtype=np.int16)
    signal_mask = pulse_class == 0
    decoy_mask = pulse_class == 1
    photons[signal_mask] = rng.poisson(p.mu, size=int(signal_mask.sum()))
    photons[decoy_mask] = rng.poisson(p.nu, size=int(decoy_mask.sum()))
    photon_click = np.zeros(n, dtype=bool)
    carrying = np.flatnonzero(photons > 0)
    if carrying.size:
        survive_none = np.power(1.0 - eta, photons[carrying].astype(np.float64))
        photon_click[carrying] = rng.random(carrying.size) >= survive_none

    # independent dark fires on each detector
    n_dark = _draw_darks(rng, n, n_det, dark_p)
    any_dark = n_dark > 0
    detected = photon_click | any_dark
    dark_only = any_dark & ~photon_click

    # a photon pulse double-clicks when a dark fires on another detector;
    # darks alone double-click when two or more detectors fire
    double = np.zeros(n, dtype=bool)
    both = np.flatnonzero(photon_click & any_dark)
    if both.size:
        other = n_dark[both] >= 2
        lone = np.flatnonzero(~other)
        if lone.size:
            # the lone dark landed on one of n_det detectors uniformly
            other[lone] = rng.random(lone.size) < (n_det - 1) / n_det
        double[both] = other
    double |= dark_only & (n_dark >= 2)

    sifted = detected & basis_match

    # error probability by click type: random bit on double clicks,
    # intrinsic QBER on photon clicks, vacuum error rate on dark-only
    sifted_idx = np.flatnonzero(sifted)
    errors = np.zeros(n, dtype=bool)
    if sifted_idx.size:
        err_p = np.where(
            double[sifted_idx],
            0.5,
            np.where(photon_click[sifted_idx], ch.intrinsic_qber, p.e0),
        )
        errors[sifted_idx] = rng.random(sifted_idx.size) < err_p

    # bincount over the 12 (class, state) cells
    code = (pulse_class << 2) | state
    n_cells = len(PULSE_CLASSES) * len(STATES)
    return PulseTally(
        *(np.bincount(code[mask], minlength=n_cells).reshape(3, 4)
          for mask in (slice(None), detected, sifted, errors)),
        dark_only=int(dark_only.sum()),
        double_click=int(double.sum()),
    )


def _counters(tally: PulseTally) -> np.ndarray:
    """The 50 counters of a tally: 12 cells x 4 counters, then the click totals."""
    cells = np.stack([tally.sent, tally.detected, tally.sifted, tally.errors]).ravel()
    return np.concatenate([cells, [tally.dark_only, tally.double_click]])


# load refuses an allocation with no signal or decoy pulses; a decoy share
# of 5e-324 passes, and no pulse draws it: each cell's probability is 0
ALL_VACUUM = ProtocolParams(p_signal=0.0, p_decoy=5e-324, p_vacuum=1.0)

ORACLE_CHANNELS = {
    "dense-darks": dict(total_loss_db=8.0, dark_rate=5e6, gate_window=1e-9, intrinsic_qber=0.03),
    "sparse-darks": dict(total_loss_db=20.0, dark_rate=2e4, gate_window=1e-9),
    "dark-p-at-least-1": dict(total_loss_db=10.0, dark_rate=2e9, gate_window=1e-9, num_detectors=2),
    "lossless-eta-1": dict(
        total_loss_db=0.0, detector_efficiency=1.0, dark_rate=1e6, gate_window=1e-9
    ),
    "one-detector": dict(total_loss_db=5.0, dark_rate=5e6, gate_window=1e-9, num_detectors=1),
    "all-vacuum": dict(dark_rate=2e5, gate_window=1e-9),
}


class TestAgainstEventLevelOracle:
    # 300 runs of 8192 pulses per sampler, one seed per run; the two seed
    # ranges are disjoint, so no stream is shared.  Every counter's run mean
    # is compared by a two-sample z (|z| <= 4.5, a 6.8e-6 two-sided normal
    # tail per counter); counters that are constant on both sides must be
    # equal; counters averaging >= 5 per run on both sides must also agree
    # in variance, |log ratio| <= 0.6 (about 5 standard errors at 300 runs)
    REF_SEEDS = range(0, 300)
    SAMPLER_SEEDS = range(300, 600)
    N = 8192

    @pytest.mark.parametrize("name", list(ORACLE_CHANNELS))
    def test_count_sampler_matches_event_level_law(self, name):
        protocol = ALL_VACUUM if name == "all-vacuum" else ProtocolParams()
        channel = ChannelParams(**ORACLE_CHANNELS[name])

        def cfg(seed: int) -> SimConfig:
            return SimConfig(n_pulses=self.N, seed=seed, protocol=protocol, channel=channel)

        ref = np.array([_counters(_event_tally(cfg(seed))) for seed in self.REF_SEEDS])
        new = np.array([_counters(simulate(cfg(seed))) for seed in self.SAMPLER_SEEDS])

        ref_mean, new_mean = ref.mean(axis=0), new.mean(axis=0)
        ref_var, new_var = ref.var(axis=0, ddof=1), new.var(axis=0, ddof=1)
        se = np.sqrt((ref_var + new_var) / len(ref))
        constant = se == 0
        np.testing.assert_array_equal(ref_mean[constant], new_mean[constant])
        z = (new_mean[~constant] - ref_mean[~constant]) / se[~constant]
        assert np.max(np.abs(z)) <= 4.5, f"counter z-scores {np.round(z, 2)}"
        busy = (ref_mean >= 5) & (new_mean >= 5) & ~constant
        log_ratio = np.log(new_var[busy] / ref_var[busy])
        assert np.max(np.abs(log_ratio)) <= 0.6, f"variance log-ratios {np.round(log_ratio, 2)}"


DARK_25_DB = dict(total_loss_db=25.0, dark_rate=1e5, gate_window=1e-9)


class TestOneClickLaw:
    """The MC and the analytic engine read one detector law."""

    @pytest.mark.parametrize("seed", [101, 202])
    def test_large_run_agrees_with_the_analytic_engine(self, seed):
        # 1e12 pulses resolve Q_mu to about 3e-5 relative, so a law
        # mismatch of the size of the dark-count term (3.4e-4) shows
        cfg = make_cfg(n_pulses=10**12, seed=seed, **DARK_25_DB)
        emp = estimate(simulate(cfg), cfg)
        ge = gains_and_errors(cfg.protocol, cfg.channel)
        for name in ("q_mu", "q_nu", "e_mu", "e_nu", "y0"):
            est, target = getattr(emp, name), getattr(ge, name)
            z = (est.value - target) / math.sqrt(target * (1.0 - target) / est.denominator)
            assert abs(z) <= 4.5, f"{name} = {est.value:.9g} is {z:+.2f} sigma from {target:.9g}"

    @pytest.mark.parametrize(
        "channel",
        [{}, DARK_25_DB, dict(total_loss_db=45.0, dark_rate=1e5, gate_window=1e-9),
         ORACLE_CHANNELS["dense-darks"], ORACLE_CHANNELS["dark-p-at-least-1"],
         ORACLE_CHANNELS["one-detector"]],
    )
    def test_cell_probabilities_sum_to_the_analytic_gains(self, channel):
        cfg = make_cfg(**channel)
        p = cfg.protocol
        share = np.array([p.p_signal, p.p_decoy, p.p_vacuum])
        clicks = _cell_probs(cfg)[..., :_NO_CLICK]
        gains = clicks.sum(axis=(1, 2)) / share
        error_clicks = (clicks * click_errors(p, cfg.channel)).sum(axis=(1, 2)) / share
        ge = gains_and_errors(p, cfg.channel)
        np.testing.assert_allclose(gains, [ge.q_mu, ge.q_nu, ge.y0], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(
            error_clicks[:2], [ge.e_mu * ge.q_mu, ge.e_nu * ge.q_nu], rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize("allocation", [(0.5, 0.25, 0.25), (0.7500000009, 0.25, 0.0), (0.7, 0.2, 0.1)])
    def test_class_split_is_the_allocation_over_its_sum(self, allocation):
        # load accepts a sum within 1e-9 of 1; the MC reads the split l_mu reads
        p = ProtocolParams(**dict(zip(("p_signal", "p_decoy", "p_vacuum"), allocation)))
        split = _cell_probs(SimConfig(protocol=p)).sum(axis=(1, 2))
        assert split[0] / (split[0] + split[1]) == pytest.approx(p.l_mu, rel=1e-15)
        assert split.sum() == pytest.approx(1.0, rel=1e-15)
        assert simulate(SimConfig(n_pulses=10**6, seed=1, protocol=p)).sent.sum() == 10**6


class TestSimConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="n_pulses"):
            make_cfg(n_pulses=0)
        with pytest.raises(ValueError, match="chunk_pulses"):
            SimConfig(n_pulses=1, seed=1, chunk_pulses=0)

    def test_rejects_pulse_counts_an_int64_tally_cannot_hold(self):
        # 2**65 pulses would wrap the int64 sent total, whatever chunk_pulses says
        for chunk in (2**62, 2**65):
            with pytest.raises(ValueError, match="must be < 9223372036854775808"):
                SimConfig(n_pulses=2**65, seed=1, chunk_pulses=chunk)
        with pytest.raises(ValueError, match="must be < 9223372036854775808"):
            SimConfig(n_pulses=2**63, seed=1)
        SimConfig(n_pulses=2**63 - 1, seed=1, chunk_pulses=2**65)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(n_pulses=1, seed=2**64)



class TestSimulate:
    def test_largest_pulse_count_is_one_draw(self):
        tally = simulate(SimConfig(n_pulses=2**63 - 1, seed=1))
        assert tally.sent.sum() == 2**63 - 1

    def test_dead_channel_detects_nothing(self):
        cfg = make_cfg(n_pulses=200_000, total_loss_db=300.0, dark_rate=0.0)
        tally = simulate(cfg)
        assert tally.detected.sum() == 0
        assert tally.sifted.sum() == 0
        assert tally.errors.sum() == 0

    def test_counter_invariants(self):
        cfg = make_cfg(n_pulses=500_000, total_loss_db=10.0)
        tally = simulate(cfg)
        assert np.all(tally.detected <= tally.sent)
        assert np.all(tally.sifted <= tally.detected)
        assert np.all(tally.errors <= tally.sifted)
        assert tally.sent.sum() == cfg.n_pulses

    def test_lossless_signal_gain_matches_analytic(self):
        cfg = make_cfg(
            n_pulses=1_000_000,
            total_loss_db=0.0,
            detector_efficiency=1.0,
            dark_rate=0.0,
            intrinsic_qber=0.0,
        )
        tally = simulate(cfg)
        emp = estimate(tally, cfg)
        target = 1.0 - math.exp(-0.6)  # 0.451188364
        se = math.sqrt(target * (1 - target) / emp.q_mu.denominator)
        assert abs(emp.q_mu.value - target) < 3 * se
        assert emp.e_mu.value == 0.0

    def test_states_uniform_and_classes_follow_allocation(self):
        cfg = make_cfg(n_pulses=400_000)
        tally = simulate(cfg)
        sent = tally.sent
        n = cfg.n_pulses
        for ci, frac in ((0, 0.5), (1, 0.25), (2, 0.25)):
            se = math.sqrt(frac * (1 - frac) / n)
            assert abs(sent[ci].sum() / n - frac) < 4 * se
        for si in range(4):
            frac = sent[:, si].sum() / n
            assert abs(frac - 0.25) < 4 * math.sqrt(0.25 * 0.75 / n)

    def test_sifting_keeps_half(self):
        cfg = make_cfg(n_pulses=1_000_000, total_loss_db=5.0)
        tally = simulate(cfg)
        detected = tally.detected.sum()
        sifted = tally.sifted.sum()
        se = math.sqrt(0.25 * detected)
        assert abs(sifted - detected / 2) < 4 * se

    def test_dense_dark_regime_counts(self):
        # large dark probability exercises the double-click bookkeeping
        cfg = make_cfg(
            n_pulses=200_000,
            seed=77,
            total_loss_db=300.0,
            dark_rate=5e6,
            gate_window=1e-9,
            num_detectors=4,
        )
        dark_p = 5e6 * 1e-9
        tally = simulate(cfg)
        p_any = 1.0 - (1.0 - dark_p) ** 4
        expected = cfg.n_pulses * p_any
        assert abs(tally.detected.sum() - expected) < 5 * math.sqrt(expected)
        p_multi = p_any - 4 * dark_p * (1 - dark_p) ** 3
        expected_multi = cfg.n_pulses * p_multi
        assert abs(tally.double_click - expected_multi) < 6 * math.sqrt(expected_multi)
        assert tally.dark_only == tally.detected.sum()


class TestDeterminism:
    def test_same_seed_same_tally(self):
        cfg = make_cfg(n_pulses=300_000, seed=5)
        assert simulate(cfg).to_dict() == simulate(cfg).to_dict()

    def test_different_seed_different_tally(self):
        a = simulate(make_cfg(n_pulses=300_000, seed=5, total_loss_db=20.0))
        b = simulate(make_cfg(n_pulses=300_000, seed=6, total_loss_db=20.0))
        assert a.to_dict() != b.to_dict()

    def test_chunk_pulses_does_not_change_the_tally(self):
        # the seed alone pins the tally; chunk_pulses is accepted and ignored
        tallies = {
            simulate(SimConfig(n_pulses=300_000, seed=5, chunk_pulses=chunk,
                               channel=ChannelParams(total_loss_db=20.0))).to_json()
            for chunk in (1, 1 << 16, 1 << 30)
        }
        assert len(tallies) == 1


class TestTallySerialization:
    def test_round_trip(self):
        tally = simulate(make_cfg(n_pulses=200_000, total_loss_db=15.0))
        data = json.loads(tally.to_json())
        assert PulseTally.from_dict(data).to_dict() == tally.to_dict()

    def test_nested_layout(self):
        tally = simulate(make_cfg(n_pulses=100_000))
        data = tally.to_dict()
        assert set(data) == set(PULSE_CLASSES) | {"dark_only", "double_click"}
        assert set(data["signal"]) == set(STATES)
        assert set(data["signal"]["H"]) == {"sent", "detected", "sifted", "errors"}


class TestEstimate:
    def test_all_vacuum_run_measures_y0(self):
        protocol = ALL_VACUUM
        channel = ChannelParams(total_loss_db=300.0, dark_rate=2e5, gate_window=1e-9)
        cfg = SimConfig(n_pulses=500_000, seed=11, protocol=protocol, channel=channel)
        tally = simulate(cfg)
        emp = estimate(tally, cfg)
        y0 = 4 * 2e5 * 1e-9
        assert abs(emp.y0.value - y0) < 4 * emp.y0.stderr
        assert math.isnan(emp.q_mu.value)
        assert "low_statistics:q_mu" in emp.flags

    def test_agrees_with_analytic_gains(self):
        cfg = make_cfg(n_pulses=4_000_000, seed=17, total_loss_db=20.0)
        emp = estimate(simulate(cfg), cfg)
        ge = gains_and_errors(cfg.protocol, cfg.channel)
        for est, target in (
            (emp.q_mu, ge.q_mu),
            (emp.q_nu, ge.q_nu),
            (emp.e_mu, ge.e_mu),
            (emp.e_nu, ge.e_nu),
        ):
            se = math.sqrt(target * (1 - target) / est.denominator)
            assert abs(est.value - target) < 4 * se

    def test_qber_at_25_db_within_field_plausibility_band(self):
        # a deployed system at 25 dB total loss measured 1.8 +/- 0.9 % QBER
        # over hours; hardware imperfections push the real number above the
        # model, so the simulated QBER only has to be consistent with the
        # [0.9%, 2.7%] band, not hit it exactly
        ge = gains_and_errors(ProtocolParams(), ChannelParams(total_loss_db=25.0))
        assert 0.009 <= ge.e_mu <= 0.027
        cfg = make_cfg(n_pulses=4_000_000, seed=29, total_loss_db=25.0)
        emp = estimate(simulate(cfg), cfg)
        assert emp.e_mu.value + 3 * emp.e_mu.stderr >= 0.009
        assert emp.e_mu.value - 3 * emp.e_mu.stderr <= 0.027

    def test_empirical_gains_reproduce_analytic_rate(self):
        from ipmsim.decoy import binary_entropy, e1_upper, q1_lower

        cfg = make_cfg(n_pulses=4_000_000, seed=19, total_loss_db=20.0)
        p = cfg.protocol
        emp = estimate(simulate(cfg), cfg)
        q1 = q1_lower(p, emp.q_mu.value, emp.q_nu.value, emp.y0.value)
        e1 = e1_upper(p, q1, emp.e_nu.value, emp.q_nu.value, emp.y0.value)
        rate_emp = p.q * p.l_mu * (
            -emp.q_mu.value * p.f_ec * binary_entropy(emp.e_mu.value)
            + q1 * (1 - binary_entropy(e1))
        )
        analytic = secure_rate(p, cfg.channel).rate_per_pulse
        assert rate_emp == pytest.approx(analytic, rel=0.10)

    def test_standard_error_scaling_with_n(self):
        ses_small, ses_large = [], []
        for seed in range(5):
            small = make_cfg(n_pulses=200_000, seed=seed, total_loss_db=10.0)
            large = make_cfg(n_pulses=400_000, seed=seed, total_loss_db=10.0)
            ses_small.append(estimate(simulate(small), small).q_mu.stderr)
            ses_large.append(estimate(simulate(large), large).q_mu.stderr)
        ratio = np.mean(ses_small) / np.mean(ses_large)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.1)

    def test_flags_low_statistics(self):
        cfg = make_cfg(n_pulses=5_000, total_loss_db=60.0)
        emp = estimate(simulate(cfg), cfg)
        assert any(flag.startswith("low_statistics:e_") for flag in emp.flags)
        assert isinstance(emp, EmpiricalRates)
