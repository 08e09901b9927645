import warnings

import numpy as np
import pytest

from ipmsim.polarimetry import (
    DEFAULT_QWP_RETARDANCE,
    IDEAL_RETARDANCE,
    InconsistentProjectionsWarning,
    extract_stokes,
    measure_stokes,
)
from helpers import Setting, projected_intensity, standard_settings

RIGHT_CIRCULAR = np.array([1.0, 0.0, 0.0, 1.0])
UNPOLARIZED = np.array([1.0, 0.0, 0.0, 0.0])


def closed_form_intensity(s, meas):
    """Hand-derived intensity behind retarder (b, d) and polarizer (a):

    I = 1/2 { S0 + (S1 cos 2b + S2 sin 2b) cos 2(a - b)
              + [(S2 cos 2b - S1 sin 2b) cos d + S3 sin d] sin 2(a - b) }
    """
    s0, s1, s2, s3 = np.asarray(s, dtype=float)
    a, b, d = meas.polarizer_angle, meas.qwp_angle, meas.retardance
    c2b, s2b = np.cos(2 * b), np.sin(2 * b)
    return float(
        0.5
        * (
            s0
            + (s1 * c2b + s2 * s2b) * np.cos(2 * (a - b))
            + ((s2 * c2b - s1 * s2b) * np.cos(d) + s3 * np.sin(d)) * np.sin(2 * (a - b))
        )
    )


def random_physical_stokes(rng, dop_max=1.0):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    s0 = rng.uniform(0.3, 2.5)
    return np.concatenate(([s0], s0 * rng.uniform(0, dop_max) * direction))


class TestProjectedIntensity:
    def test_s1_setting_passes_horizontal(self):
        assert projected_intensity([1, 1, 0, 0], standard_settings()[0]) == pytest.approx(1.0)

    def test_s3_setting_passes_right_circular(self):
        assert projected_intensity(RIGHT_CIRCULAR, standard_settings()[2]) == pytest.approx(1.0)

    def test_unpolarized_gives_half_everywhere(self):
        for meas in standard_settings():
            assert projected_intensity(UNPOLARIZED, meas) == pytest.approx(0.5)

    def test_result_within_physical_range(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            s = random_physical_stokes(rng)
            meas = Setting(
                rng.uniform(0, np.pi), rng.uniform(0, np.pi), rng.uniform(0, np.pi)
            )
            i = projected_intensity(s, meas)
            assert -1e-12 <= i <= s[0] + 1e-12

    def test_malus_law_when_flat_retarder_aligned(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            angle = rng.uniform(0, np.pi)
            pol_angle = rng.uniform(0, np.pi)
            s0 = rng.uniform(0.5, 2.0)
            linear = s0 * np.array([1, np.cos(2 * angle), np.sin(2 * angle), 0])
            meas = Setting(pol_angle, pol_angle, retardance=0.0)
            expected = s0 * np.cos(pol_angle - angle) ** 2
            assert projected_intensity(linear, meas) == pytest.approx(expected, abs=1e-12)

    def test_affine_in_each_stokes_component(self):
        rng = np.random.default_rng(23)
        meas = Setting(0.3, 1.1, 1.4)
        base = np.array([1.0, 0.1, -0.2, 0.3])
        for idx in (1, 2, 3):
            bumped, doubled = base.copy(), base.copy()
            bumped[idx] += 0.2
            doubled[idx] += 0.4
            i0, i1, i2 = (projected_intensity(s, meas) for s in (base, bumped, doubled))
            assert i2 - i1 == pytest.approx(i1 - i0, abs=1e-12)

    def test_matches_jones_pipeline(self):
        # the element product must equal the hand-derived closed form, which
        # pins the handedness set in ipmsim.polarization
        rng = np.random.default_rng(24)
        for _ in range(300):
            s = random_physical_stokes(rng)
            alpha, beta = rng.uniform(0, np.pi, size=2)
            delta = rng.uniform(0, np.pi)
            meas = Setting(alpha, beta, delta)
            assert projected_intensity(s, meas) == pytest.approx(
                closed_form_intensity(s, meas), abs=1e-12
            )


class TestExtractStokes:
    def test_recovers_horizontal(self):
        np.testing.assert_allclose(extract_stokes(1.0, 0.5, 0.5, 1.0), [1, 1, 0, 0])

    def test_exact_round_trip_at_ideal_retardance(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            s = random_physical_stokes(rng)
            np.testing.assert_allclose(measure_stokes(s), s, atol=1e-13)

    def test_stacked_analyzers_equal_per_setting_projections(self):
        # measure_stokes builds its three analyzer rows in one loop over the settings; each
        # recovered vector keeps the bytes of the per-setting projections
        rng = np.random.default_rng(27)
        for _ in range(200):
            s = random_physical_stokes(rng)
            # within 15% of a quarter wave the bias keeps the DOP below the warning margin
            retardance = rng.uniform(0.85, 1.15) * IDEAL_RETARDANCE
            per_setting = [projected_intensity(s, m) for m in standard_settings(retardance)]
            expected = extract_stokes(*per_setting, s[0])
            assert measure_stokes(s, retardance).tobytes() == expected.tobytes()

    def test_stacked_call_equals_per_vector_calls(self):
        rng = np.random.default_rng(28)
        stack = np.array([random_physical_stokes(rng) for _ in range(60)]).reshape(5, 3, 4, 4)
        for retardance in (IDEAL_RETARDANCE, DEFAULT_QWP_RETARDANCE, 0.9 * IDEAL_RETARDANCE):
            got = measure_stokes(stack, retardance)
            assert got.shape == stack.shape
            per_vector = [measure_stokes(s, retardance) for s in stack.reshape(-1, 4)]
            assert got.tobytes() == np.array(per_vector).reshape(stack.shape).tobytes()
            # a stack of one is one vector too
            assert measure_stokes(stack[:1, 0, 0], retardance).tobytes() == per_vector[0].tobytes()

    def test_biased_retardance_leaks_s2_into_s3(self):
        rng = np.random.default_rng(26)
        delta = DEFAULT_QWP_RETARDANCE
        for _ in range(200):
            s = random_physical_stokes(rng)
            est = measure_stokes(s, retardance=delta)
            np.testing.assert_allclose(est[:3], s[:3], atol=1e-13)
            expected_s3 = s[3] * np.sin(delta) + s[2] * np.cos(delta)
            assert est[3] == pytest.approx(expected_s3, abs=1e-12)

    def test_pure_bias_factor_on_circular_content(self):
        # with no S2 the estimate is exactly sin(delta) * S3
        delta = DEFAULT_QWP_RETARDANCE
        s = np.array([1.0, 0.2, 0.0, 0.9])
        est = measure_stokes(s, retardance=delta)
        assert est[3] / s[3] == pytest.approx(np.sin(delta), abs=1e-12)
        # 7% retardance offset costs only ~0.6% of S3
        assert np.sin(delta) == pytest.approx(0.9939610, abs=1e-7)

    def test_warns_on_inconsistent_projections(self):
        # a state past DOP 1 survives the ideal round trip, and measure_stokes judges what it recovers
        with pytest.warns(InconsistentProjectionsWarning):
            measure_stokes([1.0, 1.0, 1.0, 1.0])

    def test_extraction_leaves_the_dop_to_its_caller(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(extract_stokes(1.0, 1.0, 1.0, 1.0), [1, 1, 1, 1])

    def test_no_warning_for_consistent_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extract_stokes(1.0, 0.5, 0.5, 1.0)

    def test_rejects_nonpositive_s0(self):
        with pytest.raises(ValueError, match="S0"):
            extract_stokes(0.5, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="S0 must be positive, got -1.0"):
            extract_stokes([0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [1.0, -1.0])

    @pytest.mark.parametrize(
        "row",
        [
            (np.nan, 0.5, 0.5, 1.0),
            (0.5, 0.5, 0.5, np.nan),
            (0.5, -np.inf, 0.5, 1.0),
            (np.inf, 0.5, 0.5, np.inf),
            # finite projections whose 2 I_j - S0 overflows
            (1e308, 1e308, 1e308, 1e308),
        ],
    )
    def test_rejects_non_finite_projections_without_warning(self, row):
        good = (0.5, 0.5, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^projections must be finite$"):
                extract_stokes(*np.array([good, row]).T)

    def test_batch_equals_per_row_calls(self):
        rng = np.random.default_rng(27)
        rows = rng.uniform(0.0, 1.0, size=(500, 4))
        rows[:, 3] += 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            per_row = np.array([extract_stokes(*row) for row in rows])
            batch = extract_stokes(*rows.T)
        assert batch.shape == (500, 4)
        np.testing.assert_array_equal(batch, per_row)
        assert extract_stokes(1.0, 0.5, 0.5, 1.0).shape == (4,)

    def test_warns_once_per_batch_naming_the_worst_dop(self):
        # DOPs 0, sqrt(2) and sqrt(3)
        s = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        with pytest.warns(InconsistentProjectionsWarning) as record:
            measure_stokes(s)
        assert len(record) == 1
        assert f"{np.sqrt(3):.4f}" in str(record[0].message)


class TestSettings:
    def test_table_angles(self):
        by_label = {m.label: m for m in standard_settings()}
        assert (by_label["S1+"].polarizer_angle, by_label["S1+"].qwp_angle) == (0.0, 0.0)
        assert by_label["S2+"].polarizer_angle == pytest.approx(np.pi / 4)
        assert by_label["S2+"].qwp_angle == pytest.approx(np.pi / 4)
        assert by_label["S3+"].polarizer_angle == pytest.approx(np.pi / 4)
        assert by_label["S3+"].qwp_angle == 0.0

    def test_default_retardance_is_ideal(self):
        assert all(m.retardance == IDEAL_RETARDANCE for m in standard_settings())
