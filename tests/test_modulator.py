import numpy as np
import pytest

from ipmsim.modulator import (
    BB84_TARGET_STOKES,
    RECEIVER_FRAME,
    Bb84State,
    ModulatorConfig,
    bb84_drive,
    bb84_table,
    drive_angle,
    fit_delta_l,
    im_transmission,
    modulator_mueller,
    mzi_jones,
    operating_phi0,
    output_stokes,
    phi0,
    poincare_trace,
    triangular_wave,
    wavelength_scan,
)
from ipmsim.polarization import apply_mueller

from helpers import is_unitary

H_IN = np.array([1.0, 1.0, 0.0, 0.0])

# frozen: 2 pi * 1.468 * 6.0e-3 / 1550e-9
PHI0_AT_1550 = 35704.707217


def monotone_phase_segments(v_diff, stokes) -> bool:
    """Check the equator phase is strictly monotone between drive turning points."""
    phase = np.unwrap(np.arctan2(stokes[:, 2], stokes[:, 1]))
    direction = np.sign(np.diff(v_diff))
    boundaries = [0] + [i + 1 for i in range(len(direction) - 1) if direction[i + 1] != direction[i]]
    boundaries.append(len(v_diff) - 1)
    for a, b in zip(boundaries, boundaries[1:]):
        seg = np.diff(phase[a : b + 1])
        if not (np.all(seg > 0) or np.all(seg < 0)):
            return False
    return True


def cfg_with(**kwargs) -> ModulatorConfig:
    return ModulatorConfig(**kwargs)


class TestIntensityModulator:
    def test_full_transmission_at_zero_volts(self):
        assert im_transmission(0.0, cfg_with()) == pytest.approx(1.0)

    def test_extinction_at_half_wave_voltage(self):
        assert im_transmission(4.0, cfg_with()) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_point(self):
        assert im_transmission(2.0, cfg_with()) == pytest.approx(0.5)

    def test_range_respects_modulation_depth(self):
        cfg = cfg_with(mod_depth=0.8, phi_1=0.4)
        rng = np.random.default_rng(0)
        for v in rng.uniform(-20, 20, size=200):
            t = im_transmission(v, cfg)
            assert 0.1 - 1e-12 <= t <= 0.9 + 1e-12


class TestPhi0:
    def test_zero_imbalance(self):
        cfg = cfg_with(delta_l=0.0)
        for lam in (1200e-9, 1550e-9, 1600e-9):
            assert phi0(lam, cfg) == 0.0

    def test_default_geometry_value(self):
        assert phi0(1550e-9, cfg_with()) == pytest.approx(PHI0_AT_1550, rel=1e-9)

    def test_linear_in_wavenumber(self):
        cfg = cfg_with()
        assert phi0(775e-9, cfg) == pytest.approx(2 * phi0(1550e-9, cfg), rel=1e-12)

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ValueError):
            phi0(0.0, cfg_with())

    def test_operating_default_is_quarter_pi(self):
        assert operating_phi0(cfg_with()) == np.pi / 4

    def test_operating_falls_back_to_geometry(self):
        cfg = cfg_with(phi0_operating=None)
        assert operating_phi0(cfg) == pytest.approx(PHI0_AT_1550, rel=1e-9)

    def test_temperature_drift_shifts_operating_phase(self):
        cfg = cfg_with(temp_coeff=0.3, temp_delta=2.0)
        assert operating_phi0(cfg) == pytest.approx(np.pi / 4 + 0.6)


class TestMziJones:
    def test_identity_at_zero(self):
        cfg = cfg_with(phi0_operating=0.0)
        np.testing.assert_allclose(mzi_jones(0.0, 0.0, cfg), np.eye(2), atol=1e-12)

    def test_pi_phase_on_arm_one(self):
        cfg = cfg_with(phi0_operating=0.0)
        np.testing.assert_allclose(
            mzi_jones(4.0, 0.0, cfg), np.diag([-1.0 + 0j, 1.0]), atol=1e-12
        )

    def test_zero_voltage_phase_only(self):
        cfg = cfg_with(phi0_operating=np.pi / 4)
        np.testing.assert_allclose(
            mzi_jones(0.0, 0.0, cfg), np.diag([np.exp(1j * np.pi / 4), 1.0]), atol=1e-12
        )

    def test_unitary_for_random_drives(self):
        rng = np.random.default_rng(1)
        cfg = cfg_with()
        for _ in range(50):
            v1, v2 = rng.uniform(-10, 10, size=2)
            assert is_unitary(mzi_jones(v1, v2, cfg))


class TestOutputStokes:
    def test_equator_point_at_zero_volts(self):
        s = output_stokes(0.0, 0.0, cfg_with())
        np.testing.assert_allclose(
            s, [1.0, np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-12
        )

    def test_table1_h_voltages_give_quarter_turn(self):
        cfg = cfg_with()
        drive = bb84_drive(Bb84State.H, cfg)
        assert drive_angle(drive.v1, drive.v2, cfg) == pytest.approx(np.pi / 2)
        s = output_stokes(drive.v1, drive.v2, cfg)
        assert abs(s[3]) < 1e-12  # equator

    def test_full_splitter_offset_pins_circular(self):
        # 2 delta = pi/2 puts everything in one arm: circular output
        cfg = cfg_with(delta=np.pi / 4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v1, v2 = rng.uniform(-10, 10, size=2)
            s = output_stokes(v1, v2, cfg)
            np.testing.assert_allclose(s, [1, 0, 0, 1], atol=1e-12)
            pipeline = apply_mueller(modulator_mueller(v1, v2, cfg), H_IN)
            np.testing.assert_allclose(pipeline, [1, 0, 0, 1], atol=1e-9)

    def test_closed_form_matches_component_pipeline(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            cfg = cfg_with(
                delta=rng.uniform(-0.2, 0.2),
                phi0_operating=rng.uniform(0, 2 * np.pi),
                v_pi_pm=rng.uniform(2.0, 6.0),
            )
            v1, v2 = rng.uniform(-8, 8, size=2)
            closed = output_stokes(v1, v2, cfg)
            composed = apply_mueller(modulator_mueller(v1, v2, cfg), H_IN)
            np.testing.assert_allclose(composed, closed, atol=1e-9)

    def test_equator_confinement_at_zero_offset(self):
        cfg = cfg_with(delta=0.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            v1, v2 = rng.uniform(-12, 12, size=2)
            assert output_stokes(v1, v2, cfg)[3] == 0.0

    def test_periodic_in_differential_voltage(self):
        cfg = cfg_with()
        rng = np.random.default_rng(5)
        for _ in range(50):
            v1, v2 = rng.uniform(-5, 5, size=2)
            np.testing.assert_allclose(
                output_stokes(v1, v2, cfg),
                output_stokes(v1 + 2 * cfg.v_pi_pm, v2, cfg),
                atol=1e-9,
            )

    def test_depends_only_on_differential_voltage(self):
        cfg = cfg_with()
        rng = np.random.default_rng(6)
        for _ in range(50):
            v1, v2, shift = rng.uniform(-5, 5, size=3)
            np.testing.assert_allclose(
                output_stokes(v1, v2, cfg),
                output_stokes(v1 + shift, v2 + shift, cfg),
                atol=1e-12,
            )


class TestBb84Drive:
    def test_table_voltages_at_four_volts(self):
        cfg = cfg_with()
        drive = bb84_drive(Bb84State.H, cfg)
        assert (drive.v1, drive.v2) == (0.5, -0.5)
        expected = {
            Bb84State.H: (0.5, -0.5),
            Bb84State.D: (-0.5, 0.5),
            Bb84State.V: (-1.5, 1.5),
            Bb84State.A: (1.5, -1.5),
        }
        for state, (v1, v2) in expected.items():
            d = bb84_drive(state, cfg)
            assert (d.v1, d.v2) == (v1, v2)

    def test_zero_dc_bias(self):
        cfg = cfg_with(v_pi_pm=3.7)
        for state in Bb84State:
            d = bb84_drive(state, cfg)
            assert d.v1 + d.v2 == 0.0

    def test_receiver_frame_states_hit_targets(self):
        for state, _, stokes in bb84_table(cfg_with()):
            np.testing.assert_allclose(stokes, BB84_TARGET_STOKES[state], atol=1e-12)

    def test_basis_geometry(self):
        vecs = {state: s[1:] for state, _, s in bb84_table(cfg_with())}
        assert np.dot(vecs[Bb84State.H], vecs[Bb84State.V]) == pytest.approx(-1.0, abs=1e-12)
        assert np.dot(vecs[Bb84State.D], vecs[Bb84State.A]) == pytest.approx(-1.0, abs=1e-12)
        for z in (Bb84State.H, Bb84State.V):
            for x in (Bb84State.D, Bb84State.A):
                assert abs(np.dot(vecs[z], vecs[x])) < 1e-12

    def test_receiver_frame_is_relabeled_closed_form(self):
        # at delta = 0 the half-wave plate at 22.5 deg acts on the closed
        # form as the S1 <-> S2 swap
        cfg = cfg_with()
        rng = np.random.default_rng(7)
        for _ in range(50):
            v1, v2 = rng.uniform(-6, 6, size=2)
            s_mod = output_stokes(v1, v2, cfg)
            np.testing.assert_allclose(
                RECEIVER_FRAME @ s_mod, s_mod[[0, 2, 1, 3]], rtol=0, atol=1e-12
            )


class TestWavelengthScan:
    def test_balanced_analyzer_sees_flat_half(self):
        lam = np.linspace(1549e-9, 1551e-9, 101)
        out = wavelength_scan(cfg_with(), np.pi / 4, lam)
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_zero_imbalance_is_flat(self):
        cfg = cfg_with(delta_l=0.0)
        theta = 0.3
        out = wavelength_scan(cfg, theta, np.linspace(1549e-9, 1551e-9, 51))
        np.testing.assert_allclose(out, 0.5 * (1 + np.cos(2 * theta)), atol=1e-12)

    def test_fringe_spacing_in_wavenumber(self):
        cfg = cfg_with()
        lam = np.linspace(1548.8e-9, 1551.2e-9, 20001)
        out = wavelength_scan(cfg, 0.0, lam)
        m = 1.0 / lam
        maxima = [
            i
            for i in range(1, len(out) - 1)
            if out[i] >= out[i - 1] and out[i] >= out[i + 1] and out[i] > 0.99
        ]
        spacings = np.abs(np.diff(m[maxima]))
        expected = 1.0 / (cfg.n_1 * cfg.delta_l)  # 113.533 1/m
        np.testing.assert_allclose(spacings, expected, rtol=2e-3)

    def test_intensities_within_unit_range(self):
        out = wavelength_scan(cfg_with(), 0.1, np.linspace(1549e-9, 1551e-9, 501))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestFitDeltaL:
    LAM = np.linspace(1548.8e-9, 1551.2e-9, 1201)

    def test_noiseless_round_trip(self):
        cfg = cfg_with()
        fit = fit_delta_l(self.LAM, wavelength_scan(cfg, 0.0, self.LAM), cfg.n_1)
        assert abs(fit.delta_l - cfg.delta_l) / cfg.delta_l < 1e-3
        assert fit.residual_rms < 1e-8
        assert fit.periods_spanned > 2.0

    def test_recovers_with_additive_noise(self):
        cfg = cfg_with()
        rng = np.random.default_rng(8)
        clean = wavelength_scan(cfg, 0.0, self.LAM)
        noisy = clean + rng.uniform(-0.02, 0.02, size=clean.size)
        fit = fit_delta_l(self.LAM, noisy, cfg.n_1)
        assert abs(fit.delta_l - cfg.delta_l) / cfg.delta_l < 1e-2

    def test_constant_scan_rejected(self):
        with pytest.raises(ValueError, match="constant|no oscillation"):
            fit_delta_l(self.LAM, np.full(self.LAM.size, 0.5), 1.468)

    def test_under_two_periods_rejected(self):
        cfg = cfg_with(delta_l=1.5e-4)  # ~0.18 periods over the span
        scan = wavelength_scan(cfg, 0.0, self.LAM)
        with pytest.raises(ValueError, match="period"):
            fit_delta_l(self.LAM, scan, cfg.n_1)

    def test_non_monotone_grid_rejected(self):
        lam = self.LAM.copy()
        lam[10], lam[11] = lam[11], lam[10]
        with pytest.raises(ValueError, match="monotone"):
            fit_delta_l(lam, np.ones_like(lam) * 0.5, 1.468)


class TestPoincareTrace:
    def test_triangular_wave_shape(self):
        t = np.array([0.0, 0.25, 0.5, 0.75])
        np.testing.assert_allclose(triangular_wave(t), [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_equator_great_circle_at_zero_offset(self):
        _, _, _, stokes = poincare_trace(cfg_with(), n_periods=2, samples_per_period=256)
        assert np.max(np.abs(stokes[:, 3])) <= 1e-12
        radius = np.hypot(stokes[:, 1], stokes[:, 2])
        np.testing.assert_allclose(radius, 1.0, atol=1e-12)

    def test_constant_latitude_with_offset(self):
        cfg = cfg_with(delta=0.05)
        _, _, _, stokes = poincare_trace(cfg, n_periods=1, samples_per_period=128)
        np.testing.assert_allclose(stokes[:, 3], np.sin(0.1), atol=1e-12)

    def test_phase_monotone_per_half_period(self):
        _, v1, v2, stokes = poincare_trace(cfg_with(), n_periods=2, samples_per_period=256)
        assert monotone_phase_segments(v1 - v2, stokes)

    def test_differential_span_covers_full_circle(self):
        _, v1, v2, stokes = poincare_trace(cfg_with())
        angles = np.arctan2(stokes[:, 2], stokes[:, 1])
        # a full great circle visits every quadrant
        assert (angles > 0).any() and (angles < 0).any()
        assert np.ptp(v1 - v2) == pytest.approx(2 * cfg_with().v_pi_pm)
