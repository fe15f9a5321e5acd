import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scl_lab.benchmarks import (
    ADRC_B,
    ADRC_DESIGN,
    ADRC_OMEGA0,
    BACKSTEPPING,
    FLC_DESIGN,
    build_run,
    lqr_gain,
)
from scl_lab.controllers import (
    AdrcLaw,
    BacksteppingParams,
    BacksteppingSecondary,
    FlcEx3,
    LqrLaw,
    PidGains,
    PidTrackingLaw,
    NEAR_SINGULAR,
    SINGULAR_GUARD,
    RflcEx3,
    SingularInput,
    leso_error_matrix,
)
from scl_lab.numerics import CareProblem, NonFiniteState, eigenvalues, solve_care


def tracking_pid(kp, ki, kd):
    """The PID law on a zero output, so its tracking error is ``ref``."""
    return PidTrackingLaw(PidGains(kp, ki, kd), lambda x: 0.0)


def update(law, e, dt):
    """One PID step on the error ``e``, as a float."""
    [u] = law.step(None, e, 0.0, dt)
    return u


class TestPid:
    def test_pure_proportional(self):
        pid = tracking_pid(1.0, 0.0, 0.0)
        assert update(pid, 2.0, 1e-3) == pytest.approx(2.0)

    def test_trapezoidal_integral_of_constant(self):
        pid = tracking_pid(0.0, 1.0, 0.0)
        u = 0.0
        for _ in range(1000):
            u = update(pid, 1.0, 1e-3)
        assert u == pytest.approx(1.0, abs=1e-3)

    def test_backward_difference_spike(self):
        pid = tracking_pid(0.0, 0.0, 1.0)
        assert update(pid, 0.0, 1e-3) == 0.0
        assert update(pid, 1.0, 1e-3) == pytest.approx(1000.0, abs=1e-9)
        assert update(pid, 1.0, 1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_first_call_has_no_derivative_kick(self):
        pid = tracking_pid(0.0, 0.0, 1.0)
        assert update(pid, 21.0, 1e-3) == 0.0

    def test_gain_scaling_doubles_output(self):
        rng = np.random.default_rng(23)
        errors = rng.standard_normal(200)
        p1 = tracking_pid(0.7, 1.1, -0.02)
        p2 = tracking_pid(1.4, 2.2, -0.04)
        for e in errors:
            u1 = update(p1, float(e), 1e-3)
            u2 = update(p2, float(e), 1e-3)
            assert u2 == pytest.approx(2.0 * u1, rel=1e-12)

    def test_reset_restores_initial_state(self):
        pid = tracking_pid(1.0, 1.0, 1.0)
        update(pid, 1.0, 1e-3)
        update(pid, -2.0, 1e-3)
        pid.reset()
        assert pid.integral == 0.0
        assert update(pid, 2.0, 1e-3) == pytest.approx(2.0 + 0.002, abs=1e-12)


class TestLqr:
    def test_scalar_gain(self):
        # For the scalar problem with Q = R = 1 the gain is 1 + sqrt(2).
        _, K = solve_care(CareProblem([[1.0]], [[1.0]], [[1.0]], [[1.0]]))
        law = LqrLaw(K)
        assert law.step(np.array([1.0]), 0.0, 0.0, 1e-3)[0] == pytest.approx(
            -(1.0 + math.sqrt(2.0)), abs=1e-9)

    def test_zero_state(self):
        law = LqrLaw([[1.7, 2.1]])
        assert law.step(np.zeros(2), 0.0, 0.0, 1e-3)[0] == 0.0


class TestBackstepping:
    def test_origin(self):
        law = BacksteppingSecondary(BACKSTEPPING)
        assert law.u_s(np.zeros(2), np.zeros(2))[0] == 0.0

    def test_zero_remainder_estimate(self):
        law = BacksteppingSecondary(BACKSTEPPING)
        u = law.u_s(np.array([2.0, 2.0]), np.zeros(2))[0]
        assert u == pytest.approx(-8.0 - 10.0 * math.sin(2.0), abs=1e-12)

    def test_surface_term(self):
        law = BacksteppingSecondary(BACKSTEPPING)
        u = law.u_s(np.array([0.0, 0.0]), np.array([1.0, 0.0]))[0]
        assert u == pytest.approx(2.0 - 100.0 * math.pi / 4.0, abs=1e-12)

    def test_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            BacksteppingParams(a=0.0, c=10.0)

    @pytest.mark.parametrize("name", ["a", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_parameters_must_be_finite(self, name, value):
        params = {"a": 10.0, "c": 10.0, name: value}
        with pytest.raises(ValueError, match=f"parameter {name} must be"):
            BacksteppingParams(**params)


class TestFlc:
    def test_origin(self):
        law = FlcEx3(lqr_gain(*FLC_DESIGN))
        assert law.control(np.zeros(2))[0] == 0.0

    def test_half_transform_point(self):
        law = FlcEx3(lqr_gain(*FLC_DESIGN))
        k1 = law.K[0]
        u = law.control(np.array([1.0, 0.0]))[0]
        assert u == pytest.approx(-k1 / 2.0 + 2.0, abs=1e-12)

    def test_singularity_raises(self):
        law = FlcEx3(lqr_gain(*FLC_DESIGN))
        with pytest.raises(SingularInput):
            law.control(np.array([0.0, -math.pi]))
        with pytest.raises(SingularInput):
            law.control(np.array([0.0, -math.pi + 1e-7]))
        assert law.singular_count == 2

    def test_clamped_control_stays_finite(self):
        law = FlcEx3(lqr_gain(*FLC_DESIGN))
        u = law.control_clamped(np.array([1.0, -math.pi]))
        assert np.all(np.isfinite(u))
        assert law.singular_count == 1


class TestRflc:
    def test_origin(self):
        law = RflcEx3(lqr_gain(np.array([[0.0, 2.0], [-2.0, -3.0]]),
                               np.array([[0.0], [1.0]])))
        assert law.control(np.zeros(2))[0] == 0.0

    def test_half_transform_point(self):
        law = RflcEx3(lqr_gain(np.array([[0.0, 2.0], [-2.0, -3.0]]),
                               np.array([[0.0], [1.0]])))
        u = law.control(np.array([1.0, 0.0]))[0]
        assert u == pytest.approx(-law.K[0], abs=1e-12)

    def test_singularity_raises(self):
        law = RflcEx3(np.array([[1.7, 2.1]]))
        with pytest.raises(SingularInput):
            law.control(np.array([0.0, -math.pi]))


# x2 near +-pi: offsets of up to 0.2 cover the near-singular band
# (|delta| < ~0.14), offsets of up to 2e-3 the hard band (|delta| < ~1.4e-3).
_NEAR_PI = st.builds(
    lambda sign, turn, delta: sign * math.pi + 2 * math.pi * turn + delta,
    st.sampled_from([-1.0, 1.0]), st.integers(-1, 1),
    st.floats(-0.2, 0.2) | st.floats(-2e-3, 2e-3) | st.just(0.0))


class TestSingularGuard:
    @settings(max_examples=400, deadline=None)
    @given(law_type=st.sampled_from([FlcEx3, RflcEx3]), x1=st.floats(-5.0, 5.0),
           x2=_NEAR_PI)
    def test_checked_and_clamped_control_share_one_guard(self, law_type, x1, x2):
        K = [1.3, 2.7]
        x = np.array([x1, x2])
        den = 1.0 + math.cos(x2)
        checked, clamped = law_type(K), law_type(K)
        u = clamped.control_clamped(x)
        if abs(den) < SINGULAR_GUARD:
            with pytest.raises(SingularInput):
                checked.control(x)
            assert u.tobytes() == law_type(K)._u(x, SINGULAR_GUARD).tobytes()
        else:
            assert checked.control(x).tobytes() == u.tobytes()
        counts = (int(abs(den) < SINGULAR_GUARD), int(abs(den) < NEAR_SINGULAR))
        for law in (checked, clamped):
            assert (law.singular_count, law.near_singular_count) == counts


class TestTransformConsistency:
    """Substituting the emitted input back into the nominal dynamics must
    reproduce each design's target linear dynamics."""

    def plant_rate(self, x, u):
        return -2.0 * x[0] - 3.0 * x[1] + 2.0 * x[1] ** 2 + u

    def test_flc_realizes_double_integrator(self):
        law = FlcEx3(lqr_gain(*FLC_DESIGN))
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 50:
            x = rng.uniform(-4.0, 4.0, size=2)
            if abs(1.0 + math.cos(x[1])) <= 0.1:
                continue
            u = law.control(x)[0]
            z2_dot = (1.0 + math.cos(x[1])) * self.plant_rate(x, u)
            v = -(law.K[0] * x[0] + law.K[1] * (x[1] + math.sin(x[1])))
            assert z2_dot == pytest.approx(v, abs=1e-9)
            checked += 1

    def test_rflc_realizes_origin_jacobian(self):
        law = RflcEx3(lqr_gain(np.array([[0.0, 2.0], [-2.0, -3.0]]),
                               np.array([[0.0], [1.0]])))
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            x = rng.uniform(-4.0, 4.0, size=2)
            if abs(1.0 + math.cos(x[1])) <= 0.1:
                continue
            u = law.control(x)[0]
            z1 = x[0]
            z2 = 0.5 * x[1] + 0.5 * math.sin(x[1])
            z2_dot = 0.5 * (1.0 + math.cos(x[1])) * self.plant_rate(x, u)
            v = -(law.K[0] * z1 + law.K[1] * z2)
            assert z2_dot == pytest.approx(-2.0 * z1 - 3.0 * z2 + v, abs=1e-9)
            checked += 1


class TestLeso:
    def test_error_dynamics_poles(self):
        for w0 in (1.0, 2.0, 5.0):
            lam = eigenvalues(leso_error_matrix(w0))
            assert np.max(np.abs(lam + w0)) < 1e-6

    def test_rest_stays_at_rest(self):
        law = AdrcLaw(ADRC_B, ADRC_OMEGA0, lqr_gain(*ADRC_DESIGN))
        for k in range(10):
            u = law.step(np.zeros(2), 0.0, k * 1e-3, 1e-3)
            assert u[0] == 0.0
        np.testing.assert_array_equal(law.xhat, 0.0)

    def test_control_formula(self):
        law = AdrcLaw(2.0, ADRC_OMEGA0, lqr_gain(*ADRC_DESIGN))
        # Pick x so the nominal channel contributes exactly +1.
        x = np.array([-1.0 / law.K[0], 0.0])
        law.step(x, 0.0, 0.0, 1e-3)
        law.xhat[2] = 4.0
        law._prev = None  # isolate the formula from the observer advance
        u = law.step(x, 0.0, 1e-3, 1e-3)
        assert u[0] == pytest.approx(-4.0 / 2.0 + 1.0, abs=1e-12)

    def test_non_finite_measurement_raises_at_the_next_observer_step(self):
        # A NaN in x makes that step's command NaN; the LESO consumes
        # the (y, u) pair one step later and refuses it there.
        law = AdrcLaw(ADRC_B, ADRC_OMEGA0, lqr_gain(*ADRC_DESIGN))
        law.step(np.array([1.0, 0.0]), 0.0, 0.0, 1e-3)
        assert math.isnan(law.step(np.array([math.nan, 0.0]), 0.0, 1e-3, 1e-3)[0])
        with pytest.raises(NonFiniteState) as err:
            law.step(np.array([1.0, 0.0]), 0.0, 2e-3, 1e-3)
        assert err.value.t == pytest.approx(1e-3)

    def test_rejects_zero_gain_estimate(self):
        with pytest.raises(ValueError):
            AdrcLaw(0.0, 2.0, [[1.0, 1.0]])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gain_estimate_and_bandwidth(self, value):
        # A NaN bandwidth used to build, and simulate then refused the
        # LESO matrix at the first step, a matrix the caller never passed.
        with pytest.raises(ValueError, match="^input-gain estimate b"):
            AdrcLaw(value, 2.0, [[1.0, 1.0]])
        with pytest.raises(ValueError, match="^observer bandwidth omega0"):
            AdrcLaw(2.0, value, [[1.0, 1.0]])


@pytest.mark.parametrize("law", [LqrLaw, FlcEx3, RflcEx3,
                                 lambda K: AdrcLaw(ADRC_B, ADRC_OMEGA0, K)])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_laws_reject_a_non_finite_gain(law, value):
    with pytest.raises(ValueError, match="^K has non-finite entries$"):
        law([[1.7, value]])


class TestMethodEquivalence:
    def test_composite_equals_comparison_law_plus_secondary_at_zero_remainder(self):
        sclc = build_run("ex3", "sclc").law
        jlc = build_run("ex3", "jlc").law
        x0 = np.array([2.0, 2.0])
        u_sclc = sclc.step(x0, 0.0, 0.0, 1e-3)[0]
        u_jlc = jlc.step(x0, 0.0, 0.0, 1e-3)[0]
        u_s = BacksteppingSecondary(BACKSTEPPING).u_s(x0, np.zeros(2))[0]
        assert u_sclc == pytest.approx(u_jlc + u_s, abs=1e-12)
