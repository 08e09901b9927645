from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ipmsim.polarization import (
    apply_mueller,
    degree_of_polarization,
    jones_to_mueller,
    polarizer,
    retarder,
    rotator,
)

from helpers import ELEMENT_TOL, bitwise_equal, is_unitary, kron_jones_to_mueller, stokes_from_jones

# randomized property tests run at 1e-9
PROPERTY_TOL = 1e-9

HORIZONTAL = np.array([1.0, 0.0], dtype=complex)
H_STOKES = np.array([1.0, 1.0, 0.0, 0.0])
V_STOKES = np.array([1.0, -1.0, 0.0, 0.0])


def random_jones_state(rng):
    e = rng.normal(size=2) + 1j * rng.normal(size=2)
    return e / np.linalg.norm(e)


def random_physical_stokes(rng):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    s0 = rng.uniform(0.2, 3.0)
    dop = rng.uniform(0.0, 1.0)
    return np.concatenate(([s0], s0 * dop * direction))


def random_lossless_element(rng):
    kind = rng.integers(0, 2)
    angle = rng.uniform(0, 2 * np.pi)
    if kind == 0:
        return rotator(angle)
    return retarder(angle, rng.uniform(0, 2 * np.pi))


class TestJonesToMueller:
    def test_identity(self):
        np.testing.assert_allclose(jones_to_mueller(np.eye(2)), np.eye(4), atol=ELEMENT_TOL)

    def test_global_phase_is_invisible(self):
        j = np.exp(1j * 0.7) * np.eye(2)
        np.testing.assert_allclose(jones_to_mueller(j), np.eye(4), atol=ELEMENT_TOL)

    def test_horizontal_polarizer(self):
        # A (J kron J*) A^-1 evaluated by hand for J = [[1,0],[0,0]]
        expected = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(
            jones_to_mueller(polarizer(0.0)), expected, atol=ELEMENT_TOL
        )

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            jones_to_mueller(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            jones_to_mueller(np.eye(3))

    @pytest.mark.parametrize("scale", [1e3, 1e5, 1e6])
    def test_any_scale_converts_like_the_kron_oracle(self, scale):
        # the imaginary part of A (J kron J*) A^-1 is rounding that grows with
        # the scale of J (about 1e-7 at 1e5 here), never a sign of a bad J
        j = scale * np.array([[0.3 + 0.7j, 1.1 - 0.2j], [-0.4 + 0.9j, 0.6 + 0.5j]])
        np.testing.assert_array_equal(jones_to_mueller(j), kron_jones_to_mueller(j))

    def test_multiplicative_over_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            j1, j2 = random_lossless_element(rng), random_lossless_element(rng)
            np.testing.assert_allclose(
                jones_to_mueller(j1 @ j2),
                jones_to_mueller(j1) @ jones_to_mueller(j2),
                atol=PROPERTY_TOL,
            )

    def test_global_phase_invariance_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            j = random_lossless_element(rng)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            np.testing.assert_allclose(
                jones_to_mueller(phase * j), jones_to_mueller(j), atol=PROPERTY_TOL
            )

    def test_unitary_preserves_power_and_dop(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = random_lossless_element(rng) @ random_lossless_element(rng)
            assert is_unitary(u, tol=1e-11)
            m = jones_to_mueller(u)
            s = random_physical_stokes(rng)
            out = apply_mueller(m, s)
            assert abs(out[0] - s[0]) < PROPERTY_TOL
            assert abs(degree_of_polarization(out) - degree_of_polarization(s)) < PROPERTY_TOL


FINITE = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def jones_stacks(draw):
    """(n, 2, 2) or (n, m, 2, 2) complex stacks with entries in [-10, 10] + j[-10, 10]."""
    lead = draw(st.sampled_from([(draw(st.integers(1, 6)),),
                                 (draw(st.integers(1, 4)), draw(st.integers(1, 4)))]))
    parts = arrays(float, (2, *lead, 2, 2), elements=FINITE)
    re, im = draw(parts)
    return re + 1j * im


ANGLES = st.one_of(
    st.sampled_from([0.0, np.pi / 4, np.pi / 2, np.pi, -np.pi / 2, 3 * np.pi / 2]),
    st.floats(-10.0, 10.0),
)


class TestStacks:
    @settings(max_examples=200, deadline=None)
    @given(jones_stacks())
    def test_stack_equals_per_matrix_calls_and_kron_oracle(self, stack):
        mueller = jones_to_mueller(stack)
        assert mueller.shape == stack.shape[:-2] + (4, 4)
        flat = stack.reshape(-1, 2, 2)
        per_matrix = np.array([jones_to_mueller(j) for j in flat]).reshape(mueller.shape)
        oracle = np.array([kron_jones_to_mueller(j) for j in flat]).reshape(mueller.shape)
        assert bitwise_equal(mueller, per_matrix)
        assert bitwise_equal(mueller, oracle)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANGLES, min_size=1, max_size=8), st.lists(FINITE, min_size=1, max_size=8))
    def test_array_angles_equal_scalar_calls(self, thetas, retardances):
        n = min(len(thetas), len(retardances))
        theta, delta = np.array(thetas[:n]), np.array(retardances[:n])
        assert bitwise_equal(rotator(theta), np.array([rotator(t) for t in theta]))
        assert bitwise_equal(polarizer(theta), np.array([polarizer(t) for t in theta]))
        assert bitwise_equal(retarder(theta, delta),
                             np.array([retarder(t, d) for t, d in zip(theta, delta)]))
        # a scalar argument broadcasts against an array one
        assert bitwise_equal(retarder(theta, delta[0]),
                             np.array([retarder(t, delta[0]) for t in theta]))
        assert bitwise_equal(retarder(theta[0], delta),
                             np.array([retarder(theta[0], d) for d in delta]))

    def test_one_bad_matrix_fails_the_whole_stack(self):
        good = np.array([rotator(0.3), retarder(0.2, 1.1), polarizer(0.4)])
        non_finite = good.copy()
        non_finite[1, 1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            jones_to_mueller(non_finite)
        with pytest.raises(ValueError, match="2x2"):
            jones_to_mueller(np.zeros((3, 2, 3), dtype=complex))
        with pytest.raises(ValueError, match="2x2"):
            jones_to_mueller(np.zeros(2, dtype=complex))
        assert jones_to_mueller(np.zeros((0, 2, 2))).shape == (0, 4, 4)


class TestElements:
    def test_rotator_at_45_degrees(self):
        expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        np.testing.assert_allclose(rotator(np.pi / 4), expected, atol=ELEMENT_TOL)

    def test_half_wave_at_zero(self):
        np.testing.assert_allclose(
            retarder(0.0, np.pi), np.diag([1.0, -1.0]), atol=ELEMENT_TOL
        )

    def test_polarizer_is_h_projector(self):
        np.testing.assert_allclose(
            polarizer(0.0), np.array([[1, 0], [0, 0]]), atol=ELEMENT_TOL
        )

    def test_lossless_elements_are_unitary(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            assert is_unitary(rotator(rng.uniform(0, 2 * np.pi)))
            assert is_unitary(retarder(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)))

    def test_polarizers_are_idempotent_projectors(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            p = polarizer(rng.uniform(0, 2 * np.pi))
            np.testing.assert_allclose(p @ p, p, atol=ELEMENT_TOL)

    def test_s3_sign_adoption(self):
        # quarter wave at +45 deg on horizontal light gives right circular, S3 = +1
        out = retarder(np.pi / 4, np.pi / 2) @ HORIZONTAL
        np.testing.assert_allclose(stokes_from_jones(out), [1, 0, 0, 1], atol=ELEMENT_TOL)


class TestApplyMueller:
    def test_identity(self):
        s = np.array([1.5, 0.3, -0.2, 0.1])
        np.testing.assert_array_equal(apply_mueller(np.eye(4), s), s)

    def test_h_polarizer_passes_h(self):
        m = jones_to_mueller(polarizer(0.0))
        np.testing.assert_allclose(apply_mueller(m, H_STOKES), H_STOKES, atol=ELEMENT_TOL)

    def test_h_polarizer_blocks_v(self):
        m = jones_to_mueller(polarizer(0.0))
        np.testing.assert_allclose(apply_mueller(m, V_STOKES), np.zeros(4), atol=ELEMENT_TOL)

    def test_passive_elements_never_overpolarize(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            kind = rng.integers(0, 3)
            angle = rng.uniform(0, 2 * np.pi)
            if kind == 0:
                j = rotator(angle)
            elif kind == 1:
                j = retarder(angle, rng.uniform(0, 2 * np.pi))
            else:
                j = polarizer(angle)
            s = random_physical_stokes(rng)
            out = apply_mueller(jones_to_mueller(j), s)
            if out[0] > 1e-9:
                assert degree_of_polarization(out) <= 1.0 + PROPERTY_TOL


class TestDegreeOfPolarization:
    def test_fully_polarized(self):
        assert degree_of_polarization([1, 1, 0, 0]) == pytest.approx(1.0)

    def test_unpolarized(self):
        assert degree_of_polarization([1, 0, 0, 0]) == pytest.approx(0.0)

    def test_partial(self):
        # sqrt(1^2 + 1^2) / 2 = sqrt(2)/2
        assert degree_of_polarization([2, 1, 1, 0]) == pytest.approx(0.7071067811865476)

    def test_broadcasts_over_rows(self):
        rng = np.random.default_rng(18)
        rows = np.array([random_physical_stokes(rng) for _ in range(100)])
        dop = degree_of_polarization(rows)
        assert dop.shape == (100,)
        np.testing.assert_array_equal(dop, [degree_of_polarization(s) for s in rows])
        assert isinstance(degree_of_polarization(rows[0]), float)
        with pytest.raises(ValueError, match="S0"):
            degree_of_polarization(np.vstack([rows, [0.0, 0, 0, 0]]))

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError, match="S0"):
            degree_of_polarization([0.0, 0, 0, 0])
        with pytest.raises(ValueError, match="S0"):
            degree_of_polarization([-1.0, 0, 0, 0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=5e-324, allow_infinity=False),
                              *[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                    min_size=1, max_size=8))
    def test_rows_the_plain_formula_computes_keep_its_bits(self, rows):
        rows = np.array(rows)
        plain = []
        for row in rows[:, :, None]:   # each row as arrays of one, so ** 2 squares as on a stack
            try:
                with np.errstate(all="raise"):
                    plain.append((np.sqrt(row[1] ** 2 + row[2] ** 2 + row[3] ** 2) / row[0])[0])
            except FloatingPointError:   # a square over- or underflows, or the quotient does
                plain.append(None)
        kept = [k for k, dop in enumerate(plain) if dop is not None]
        with np.errstate(over="ignore"):   # some drawn rows have a DOP past the float range
            dop = degree_of_polarization(rows)
        np.testing.assert_array_equal(dop[kept], [plain[k] for k in kept], strict=True)

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
    def test_large_finite_vectors_do_not_overflow(self, scale):
        with np.errstate(all="raise"):
            assert degree_of_polarization([scale, scale, scale, scale]) == pytest.approx(np.sqrt(3), rel=1e-15)
            assert degree_of_polarization([scale, 0.6 * scale, 0.0, -0.8 * scale]) == pytest.approx(1.0, rel=1e-15)

    def test_norm_past_the_float_range_gives_a_finite_dop(self):
        # sqrt(3) 1.68e308 passes the float range; S0 is scaled instead
        with np.errstate(all="raise"):
            dop = degree_of_polarization([[1e307, 1.68e308, 1.68e308, 1.68e308], [2.0, 1.0, 1.0, 0.0]])
        np.testing.assert_allclose(dop, [np.sqrt(3) * 16.8, np.sqrt(0.5)], rtol=1e-15)

    def test_dop_past_the_float_range_warns_of_an_overflow(self):
        # sqrt(2) 1.7e308 / 1e-300 passes the float range; the one warning names an overflow
        with pytest.warns(RuntimeWarning) as record:
            assert degree_of_polarization((1e-300, 1.7e308, 1.7e308, 0)) == np.inf
        assert [str(w.message) for w in record] == ["overflow encountered in ldexp"]

    @pytest.mark.parametrize("s", [[3e-320, 1e-320, 1e-320, 1e-320], [1e-310, 6e-311, 0.0, 8e-311]])
    def test_subnormal_vectors_give_the_dop_of_their_stored_values(self, s):
        # rebuilding the norm of subnormal S1..S3 before dividing by S0 rounded it to a few bits
        with localcontext() as ctx:
            ctx.prec = 60
            s0, *rest = map(Decimal, s)
            exact = float(sum(x * x for x in rest).sqrt() / s0)
        with np.errstate(all="raise"):
            assert degree_of_polarization(s) == exact
            np.testing.assert_array_equal(degree_of_polarization([s, s]), [exact, exact])
