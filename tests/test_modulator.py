import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from ipmsim.bounds import BoundError
from ipmsim.modulator import (
    OUTPUT_STAGE,
    RECEIVER_FRAME,
    ModulatorConfig,
    bb84_table,
    drive_angle,
    fit_delta_l,
    modulator_mueller,
    operating_phi0,
    output_stokes,
    phi0,
    poincare_trace,
    triangular_wave,
    wavelength_scan,
)
from ipmsim.montecarlo import STATES
from ipmsim.polarization import apply_mueller, jones_to_mueller, rotator

from helpers import (
    BB84_TARGET_STOKES,
    bitwise_equal,
    is_unitary,
    mzi_jones,
    oracle_modulator_mueller,
    scipy_fit_delta_l,
)

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

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"phi0_operating": None, "delta_l": 1e305}, "phi0_operating"),
            ({"temp_coeff": 1e200, "temp_delta": 1e200}, "phi0_operating"),
            ({"phi0_operating": 1e308, "temp_coeff": 1e308, "temp_delta": 1.0}, "phi0_operating"),
            ({"wavelength": 1e-9}, "wavelength"),
            ({"wavelength": 1.2e-9}, "wavelength"),
        ],
    )
    def test_non_finite_phase_or_scan_past_zero_names_a_field(self, kwargs, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundError) as info:
                cfg_with(**kwargs)
        assert info.value.field == field


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
        v1, v2 = bb84_table(cfg)[0][STATES.index("H")]
        assert drive_angle(v1, v2, cfg) == pytest.approx(np.pi / 2)
        s = output_stokes(v1, v2, cfg)
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


def retarder_mueller(t):
    """Mueller matrix of a retarder at 0 with retardance t, the MZI up to a global phase."""
    c, s = np.cos(t), np.sin(t)
    return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, s], [0, 0, -s, c]])


def rotation_mueller(theta):
    """Mueller matrix of rotator(theta): a rotation of (S1, S2) by 2 theta."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]])


@st.composite
def modulator_drives(draw):
    """(v1, v2, cfg): drives in [-12, 12] V, |delta| <= pi/4, an operating or geometric (drifted) phi0."""
    v1, v2 = draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0))
    geometric = draw(st.booleans())
    cfg = cfg_with(
        delta=draw(st.floats(-np.pi / 4, np.pi / 4)),
        v_pi_pm=draw(st.floats(2.0, 6.0)),
        phi0_operating=None if geometric else draw(st.floats(-2 * np.pi, 2 * np.pi)),
        temp_coeff=draw(st.floats(-1.0, 1.0)) if geometric else 0.0,
        temp_delta=draw(st.floats(-10.0, 10.0)) if geometric else 0.0,
    )
    return v1, v2, cfg


class TestModulatorMueller:
    """The closed-form element pipeline against the Jones route it replaced, and its physics."""

    @settings(max_examples=300, deadline=None)
    @given(modulator_drives())
    def test_agrees_with_jones_oracle_and_closed_form(self, drive):
        v1, v2, cfg = drive
        m = modulator_mueller(v1, v2, cfg)
        # the oracle rounds its arm phase v1 pi/V_pi + phi0 to about eps of its size,
        # which the geometric phi0 (about 3.6e4 rad) lifts past 1e-12
        arm_phase = abs(v1 * np.pi / cfg.v_pi_pm + operating_phi0(cfg))
        oracle_tol = 1e-12 + 4 * np.finfo(float).eps * arm_phase
        np.testing.assert_allclose(m, oracle_modulator_mueller(v1, v2, cfg), rtol=0, atol=oracle_tol)
        np.testing.assert_allclose(apply_mueller(m, H_IN), output_stokes(v1, v2, cfg), rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(modulator_drives())
    def test_is_lossless(self, drive):
        m = modulator_mueller(*drive)
        e0 = np.eye(4)[0]
        np.testing.assert_allclose(m[0], e0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m[:, 0], e0, rtol=0, atol=1e-12)
        block = m[1:, 1:]
        np.testing.assert_allclose(block.T @ block, np.eye(3), rtol=0, atol=1e-12)
        assert np.linalg.det(block) == pytest.approx(1.0, abs=1e-12)

    def test_element_literals_are_the_jones_elements(self):
        rng = np.random.default_rng(9)
        for theta, t in rng.uniform(-10, 10, size=(50, 2)):
            np.testing.assert_allclose(rotation_mueller(theta), jones_to_mueller(rotator(theta)),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(retarder_mueller(t), jones_to_mueller(np.diag([1.0, np.exp(-1j * t)])),
                                       rtol=0, atol=1e-12)

    def test_is_output_stage_after_the_two_elements(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            cfg = cfg_with(delta=rng.uniform(-np.pi / 4, np.pi / 4), phi0_operating=rng.uniform(0, 2 * np.pi))
            v1, v2 = rng.uniform(-12, 12, size=2)
            composed = (jones_to_mueller(OUTPUT_STAGE) @ retarder_mueller(drive_angle(v1, v2, cfg))
                        @ rotation_mueller(np.pi / 4 + cfg.delta))
            np.testing.assert_allclose(modulator_mueller(v1, v2, cfg), composed, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["v1", "v2", "delta"])
    def test_non_finite_drive_is_non_physical(self, where, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if where == "delta":   # a non-finite splitter offset is refused where it is declared
                with pytest.raises(BoundError) as info:
                    cfg_with(delta=value)
                assert info.value.field == "delta"
                return
            args = {"v1": 0.5, "v2": -0.5} | {where: value}
            with pytest.raises(ValueError, match="^non-physical drive"):
                modulator_mueller(args["v1"], args["v2"], cfg_with())

    @pytest.mark.parametrize("delta", [-1e307, 1e307])
    def test_largest_splitter_offset_gives_a_finite_matrix(self, delta):
        assert np.isfinite(modulator_mueller(0.5, -0.5, cfg_with(delta=delta))).all()
        with pytest.raises(BoundError) as info:
            cfg_with(delta=float(np.nextafter(delta, 2 * delta)))
        assert info.value.field == "delta"


class TestBb84Drive:
    def test_table_voltages_at_four_volts(self):
        v, _ = bb84_table(cfg_with())
        assert v.shape == (4, 2)
        expected = {"H": (0.5, -0.5), "D": (-0.5, 0.5), "V": (-1.5, 1.5), "A": (1.5, -1.5)}
        for state, volts in expected.items():
            assert tuple(v[STATES.index(state)]) == volts

    def test_zero_dc_bias(self):
        v, _ = bb84_table(cfg_with(v_pi_pm=3.7))
        assert np.all(v[:, 0] + v[:, 1] == 0.0)

    def test_receiver_frame_states_hit_targets(self):
        _, stokes = bb84_table(cfg_with())
        assert stokes.shape == (4, 4)
        for state, s in zip(STATES, stokes):
            np.testing.assert_allclose(s, BB84_TARGET_STOKES[state], atol=1e-12)

    def test_basis_geometry(self):
        vecs = dict(zip(STATES, bb84_table(cfg_with())[1][:, 1:]))
        assert np.dot(vecs["H"], vecs["V"]) == pytest.approx(-1.0, abs=1e-12)
        assert np.dot(vecs["D"], vecs["A"]) == pytest.approx(-1.0, abs=1e-12)
        for z in "HV":
            for x in "DA":
                assert abs(np.dot(vecs[z], vecs[x])) < 1e-12

    def test_rows_equal_the_per_state_receiver_frame_output_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            cfg = cfg_with(v_pi_pm=rng.uniform(0.1, 10.0), delta=rng.uniform(-np.pi, np.pi),
                           phi0_operating=rng.uniform(-10.0, 10.0), temp_coeff=rng.uniform(-1.0, 1.0),
                           temp_delta=rng.uniform(-5.0, 5.0))
            v, stokes = bb84_table(cfg)
            for (v1, v2), s in zip(v, stokes):
                assert bitwise_equal(s, RECEIVER_FRAME @ output_stokes(v1, v2, cfg))

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
    def test_zero_imbalance_is_flat(self):
        out = wavelength_scan(cfg_with(delta_l=0.0), np.linspace(1549e-9, 1551e-9, 51))
        np.testing.assert_array_equal(out, 1.0)

    def test_fringe_spacing_in_wavenumber(self):
        cfg = cfg_with()
        lam = np.linspace(1548.8e-9, 1551.2e-9, 20001)
        out = wavelength_scan(cfg, lam)
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
        out = wavelength_scan(cfg_with(), np.linspace(1549e-9, 1551e-9, 501))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestFitDeltaL:
    LAM = np.linspace(1548.8e-9, 1551.2e-9, 1201)

    def test_noiseless_round_trip(self):
        cfg = cfg_with()
        fit = fit_delta_l(self.LAM, wavelength_scan(cfg, self.LAM), cfg.n_1)
        assert abs(fit.delta_l - cfg.delta_l) / cfg.delta_l < 1e-3
        assert fit.residual_rms < 1e-8
        assert fit.periods_spanned > 2.0

    def test_recovers_with_additive_noise(self):
        cfg = cfg_with()
        rng = np.random.default_rng(8)
        clean = wavelength_scan(cfg, self.LAM)
        noisy = clean + rng.uniform(-0.02, 0.02, size=clean.size)
        fit = fit_delta_l(self.LAM, noisy, cfg.n_1)
        assert abs(fit.delta_l - cfg.delta_l) / cfg.delta_l < 1e-2

    def test_constant_scan_rejected(self):
        with pytest.raises(ValueError, match="constant|no oscillation"):
            fit_delta_l(self.LAM, np.full(self.LAM.size, 0.5), 1.468)

    def test_under_two_periods_rejected(self):
        cfg = cfg_with(delta_l=1.5e-4)  # ~0.18 periods over the span
        scan = wavelength_scan(cfg, self.LAM)
        with pytest.raises(ValueError, match="period"):
            fit_delta_l(self.LAM, scan, cfg.n_1)

    def test_non_monotone_grid_rejected(self):
        lam = self.LAM.copy()
        lam[10], lam[11] = lam[11], lam[10]
        with pytest.raises(ValueError, match="monotone"):
            fit_delta_l(lam, np.ones_like(lam) * 0.5, 1.468)

    @pytest.mark.parametrize(
        "where, index, value, error",
        [
            ("intensity", 7, np.nan, "intensities must be finite"),
            ("intensity", 7, np.inf, "intensities must be finite"),
            ("intensity", 7, -np.inf, "intensities must be finite"),
            ("wavelength", 7, np.nan, "wavelengths must be finite and positive"),
            ("wavelength", 7, np.inf, "wavelengths must be finite and positive"),
            ("wavelength", 0, 0.0, "wavelengths must be finite and positive"),
            # a whole negative grid is monotone, so only the sign check can name it
            ("wavelength", slice(None), -LAM, "wavelengths must be finite and positive"),
        ],
    )
    def test_non_finite_or_non_physical_input_named(self, where, index, value, error):
        lam = self.LAM.copy()
        scan = wavelength_scan(cfg_with(), self.LAM)
        (scan if where == "intensity" else lam)[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{error}$"):
                fit_delta_l(lam, scan, 1.468)

    @pytest.mark.parametrize("scale", [1.5, 3.0, 1e100, 1e160, 1e300, 1e-7])
    def test_scaled_scan_fits_the_same_fringe(self, scale):
        # the offset is fitted, so a scan in any units gives the same dL and visibility
        cfg = cfg_with()
        scan = wavelength_scan(cfg, self.LAM) + np.random.default_rng(8).uniform(-0.02, 0.02, self.LAM.size)
        unit = fit_delta_l(self.LAM, scan, cfg.n_1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_delta_l(self.LAM, scan * scale, cfg.n_1)
        assert fit.delta_l == pytest.approx(unit.delta_l, rel=1e-12)
        assert fit.contrast == pytest.approx(unit.contrast, rel=1e-12)
        assert circular_distance(fit.phase, unit.phase) < 1e-9
        assert fit.residual_rms == pytest.approx(scale * unit.residual_rms, rel=1e-12)

    def test_fits_without_lstsq_or_argsort(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the fit called lstsq or argsort")

        cfg = cfg_with()
        scan = wavelength_scan(cfg, self.LAM) + np.random.default_rng(11).uniform(-0.02, 0.02, self.LAM.size)
        expected = fit_delta_l(self.LAM, scan, cfg.n_1)
        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        monkeypatch.setattr(np, "argsort", forbidden)
        assert fit_delta_l(self.LAM, scan, cfg.n_1) == expected
        assert fit_delta_l(self.LAM[::-1], scan[::-1], cfg.n_1) == expected

    @pytest.mark.parametrize("n, n_fft", [(8, 1024), (1024, 1024), (1025, 2048), (1201, 2048), (2048, 2048)])
    def test_resamples_at_the_next_power_of_two(self, n, n_fft, monkeypatch):
        sizes, rfft = [], np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kwargs: sizes.append(len(a)) or rfft(a, *args, **kwargs))
        lam = np.linspace(1548.8e-9, 1551.2e-9, n)
        cfg = cfg_with(delta_l=2e-3)   # about 2.9 periods over the span
        fit_delta_l(lam, wavelength_scan(cfg, lam), cfg.n_1)
        assert sizes == [n_fft]

    def test_nonpositive_offset_rejected(self):
        scan = -wavelength_scan(cfg_with(), self.LAM)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^fitted fringe offset -0.5 must be positive$"):
                fit_delta_l(self.LAM, scan, 1.468)

    def test_zero_offset_is_named_before_the_visibility_divides(self, monkeypatch):
        # a zeroed first row of the inverse normal matrix makes every fitted c0 exactly 0
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) * [[0.0], [1.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^fitted fringe offset 0 must be positive$"):
                fit_delta_l(self.LAM, wavelength_scan(cfg_with(), self.LAM), 1.468)


N_1 = 1.468


@st.composite
def fringe_scans(draw):
    """(wavelengths, intensities) of a noisy fringe scan, 0-5 % noise.

    Coarse scans of 8-64 points span 2.5 to max(2.5, n/8) periods.  Longer
    scans, up to 2000 points, span 2.5-20 periods or up to n/8 periods
    (8 points a fringe), so scans past 1024 points, resampled at the next
    power of two rather than the 1024-point floor, meet many fringes.
    """
    n = draw(st.integers(8, 64) | st.integers(64, 2000))
    most = max(2.5, n / 8) if n < 64 else max(20.0, n / 8)
    centre_nm = draw(st.floats(1500.0, 1600.0))
    span_nm = draw(st.floats(1.0, 5.0))
    lam = np.linspace(centre_nm - span_nm / 2, centre_nm + span_nm / 2, n) * 1e-9
    if draw(st.booleans()):
        lam = lam[::-1]
    m = 1.0 / lam
    periods = draw(st.floats(2.5, min(20.0, most)) | st.floats(2.5, most))
    delta_l = periods / (N_1 * (m.max() - m.min()))
    contrast = draw(st.floats(0.3, 1.0))
    psi = draw(st.floats(0.0, 2 * np.pi))
    noise = draw(st.floats(0.0, 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = 0.5 * (1.0 + contrast * np.cos(2 * np.pi * N_1 * delta_l * m + psi))
    return lam, y + rng.uniform(-noise, noise, n)


def centred(fit, lam, y):
    """A ScanFit in the centred wavenumber: u in [-1, 1] and params (w, c0, c1, c2).

    The model is c0 + c1 cos(w u) + c2 sin(w u).  With the centre phase
    reduced to [0, 2 pi), the fringe argument is rounded by about eps |w|
    at each point, instead of the eps 2 pi n_1 dL m of the phase at m = 0.
    The offset c0 is the least-squares one for the fit's dL, visibility
    and phase; at the fit's optimum it is the fit's own.
    """
    m = 1.0 / lam
    m_c, h = 0.5 * (m.max() + m.min()), 0.5 * (m.max() - m.min())
    u = (m - m_c) / h
    w = 2 * np.pi * N_1 * fit.delta_l * h
    phi = np.mod(fit.phase + w * m_c / h, 2 * np.pi)
    shape = 1.0 + fit.contrast * np.cos(w * u + phi)
    c0 = (shape @ y) / (shape @ shape)
    return u, np.array([w, c0, c0 * fit.contrast * np.cos(phi), -c0 * fit.contrast * np.sin(phi)])


def fringe_residuals(params, u, y):
    """The one residual function both fits are judged by."""
    return params[1] + params[2] * np.cos(params[0] * u) + params[3] * np.sin(params[0] * u) - y


def fringe_cost(fit, lam, y) -> float:
    u, params = centred(fit, lam, y)
    return float(np.sum(fringe_residuals(params, u, y) ** 2))


def cost_rounding(fit, lam, y) -> float:
    """How far rounding alone can move the cost of a ScanFit.

    Each residual is computed to about eps |w u + phi| <= eps (|w| + 2 pi)
    of the fringe amplitude, and psi, stored at m = 0, is known to about
    eps 2 pi n_1 dL m; either bound outgrows 1e-12 of the cost once the
    noise is below about 1e-4.
    """
    eps = np.finfo(float).eps
    u, params = centred(fit, lam, y)
    amplitude = np.hypot(params[2], params[3])
    per_residual = 4 * eps * (abs(params[0]) + 2 * np.pi) * amplitude
    phase = 8 * eps * 2 * np.pi * N_1 * fit.delta_l * (1.0 / lam).max()
    residuals = fringe_residuals(params, u, y)
    return 2 * per_residual * float(np.abs(residuals).sum()) + lam.size * (amplitude * phase) ** 2


def circular_distance(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


class TestFitAgainstOracle:
    """The variable-projection fit against scipy's four-parameter least squares."""

    @settings(max_examples=100, deadline=None)
    @given(fringe_scans())
    # 2.5 periods on 8 points, whose frequency seed reads 1.995 periods: refused before
    # the fit judged the period count on its fitted frequency as well
    @example((np.array([1.501151473031263e-06, 1.5008224807366164e-06, 1.50049348844197e-06,
                        1.5001644961473234e-06, 1.499835503852677e-06, 1.4995065115580302e-06,
                        1.4991775192633837e-06, 1.498848526968737e-06]),
              np.array([0.5949666257756546, 0.3234415109432559, 0.5260673497924453, 0.6296909210418047,
                        0.38914600741763755, 0.6264279706712308, 0.5870698291663551, 0.4002407196928689])))
    def test_agrees_with_oracle_at_no_higher_cost(self, scan):
        lam, y = scan
        fit, oracle = fit_delta_l(lam, y, N_1), scipy_fit_delta_l(lam, y, N_1)
        assert abs(fit.delta_l - oracle.delta_l) <= 1e-7 * oracle.delta_l
        assert fringe_cost(fit, lam, y) <= (fringe_cost(oracle, lam, y) * (1 + 1e-12)
                                            + cost_rounding(fit, lam, y))

    @settings(max_examples=100, deadline=None)
    @given(fringe_scans())
    def test_one_ulp_change_moves_no_digit(self, scan):
        lam, y = scan
        fit = fit_delta_l(lam, y, N_1)
        moved = fit_delta_l(lam, np.nextafter(y, np.inf), N_1)
        assert abs(moved.delta_l - fit.delta_l) < 1e-12 * fit.delta_l
        assert circular_distance(moved.phase, fit.phase) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(fringe_scans())
    def test_scipy_cannot_lower_the_cost(self, scan):
        lam, y = scan
        fit = fit_delta_l(lam, y, N_1)
        u, start = centred(fit, lam, y)
        polished = least_squares(fringe_residuals, start, args=(u, y), method="lm",
                                 xtol=1e-15, ftol=1e-15, gtol=1e-15)
        cost = fringe_cost(fit, lam, y)
        assert 2 * polished.cost >= cost * (1 - 1e-12) - cost_rounding(fit, lam, y)

    @settings(max_examples=100, deadline=None)
    @given(fringe_scans(), st.integers(-1000, 1000), st.floats(0.0, 0.5))
    def test_scale_and_background_leave_delta_l(self, scan, k, background):
        # 2^k y + b has offset 2^k c0 + b under the same fringe; below unit
        # scale a background would round the fringe away, so it needs k >= 0
        lam, y = scan
        if k < 0:
            background = 0.0
        fit = fit_delta_l(lam, y, N_1)
        moved = fit_delta_l(lam, np.ldexp(y, k) + background, N_1)
        assert abs(moved.delta_l - fit.delta_l) <= 1e-12 * fit.delta_l
        offset = centred(fit, lam, y)[1][1]
        assert moved.contrast == pytest.approx(fit.contrast / (1 + background / np.ldexp(offset, k)), rel=1e-12)


class TestPoincareTrace:
    def test_triangular_wave_shape(self):
        t = np.array([0.0, 0.25, 0.5, 0.75])
        np.testing.assert_allclose(triangular_wave(t), [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_equator_great_circle_at_zero_offset(self):
        _, _, _, stokes = poincare_trace(cfg_with())
        assert np.max(np.abs(stokes[:, 3])) <= 1e-12
        radius = np.hypot(stokes[:, 1], stokes[:, 2])
        np.testing.assert_allclose(radius, 1.0, atol=1e-12)

    def test_constant_latitude_with_offset(self):
        cfg = cfg_with(delta=0.05)
        _, _, _, stokes = poincare_trace(cfg)
        np.testing.assert_allclose(stokes[:, 3], np.sin(0.1), atol=1e-12)

    def test_phase_monotone_per_half_period(self):
        _, v1, v2, stokes = poincare_trace(cfg_with())
        assert monotone_phase_segments(v1 - v2, stokes)

    def test_differential_span_covers_full_circle(self):
        _, v1, v2, stokes = poincare_trace(cfg_with())
        angles = np.arctan2(stokes[:, 2], stokes[:, 1])
        # a full great circle visits every quadrant
        assert (angles > 0).any() and (angles < 0).any()
        assert np.ptp(v1 - v2) == pytest.approx(2 * cfg_with().v_pi_pm)
