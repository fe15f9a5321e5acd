import math
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scl_lab.numerics import (
    FD_STEP,
    MAX_STEPS,
    CareProblem,
    DivergenceDetected,
    GridError,
    NonFiniteState,
    NotStabilizable,
    care_residual,
    eigenvalues,
    integrate,
    is_hurwitz,
    jacobian_fd,
    rk4_affine,
    rk4_step,
    solve_care,
    step_count,
)
from scl_lab.controllers import ControlLaw, SingularInput
from scl_lab.plants import Scenario, build_example3, simulate


class TestRk4:
    def test_zero_field_fixes_state(self):
        x = rk4_step(lambda t, x: np.zeros(2), 0.0, np.array([1.0, 2.0]), 0.01)
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_exponential_decay_step(self):
        x = rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.1)
        assert abs(x[0] - math.exp(-0.1)) < 1e-7

    def test_constant_field(self):
        x = rk4_step(lambda t, x: np.ones(1), 0.0, np.array([0.0]), 0.5)
        assert x[0] == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.0)

    def test_fourth_order_convergence(self):
        # Halving dt must cut the endpoint error by roughly 2^4.
        def endpoint_error(dt):
            samples = integrate(lambda t, x: -x, [1.0], 0.0, 1.0, dt)
            return abs(samples[-1][1][0] - math.exp(-1.0))

        ratio = endpoint_error(1e-2) / endpoint_error(5e-3)
        assert 14.0 <= ratio <= 18.0

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.5, 3.0), c=st.floats(0.5, 3.0), k=st.floats(-2.0, 2.0))
    def test_fourth_order_convergence_on_hurwitz_systems(self, a, c, k):
        # The Hurwitz family of the polynomial test plants, against the
        # matrix exponential: halving dt cuts the endpoint error by ~2^4.
        A = np.array([[-a, k], [-k, -c]])
        exact = scipy.linalg.expm(A) @ np.array([1.0, 0.0])

        def endpoint_error(dt):
            samples = integrate(lambda t, x: A @ x, [1.0, 0.0], 0.0, 1.0, dt)
            return np.abs(samples[-1][1] - exact).max()

        assert 14.0 <= endpoint_error(0.1) / endpoint_error(0.05) <= 20.0


@st.composite
def linear_steps(draw):
    n = draw(st.integers(1, 4))
    entries = st.floats(-10.0, 10.0)
    A = draw(hnp.arrays(np.float64, (n, n), elements=entries))
    x = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    b = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    return A, draw(st.floats(1e-4, 0.05)), x, b


class TestRk4Affine:
    @settings(max_examples=200, deadline=None)
    @given(case=linear_steps())
    def test_matches_one_rk4_step_of_the_linear_field(self, case):
        A, dt, x, b = case
        T, S = rk4_affine(A, dt)
        expected = rk4_step(lambda t, xi: A @ xi + b, 0.0, x, dt)
        tol = 1e-12 * (1.0 + np.abs(x).max() + np.abs(b).max())
        assert np.abs(T @ x + S @ b - expected).max() <= tol

    def test_zero_matrix_holds_the_state_and_integrates_the_drive(self):
        T, S = rk4_affine(np.zeros((2, 2)), 0.5)
        np.testing.assert_array_equal(T, np.eye(2))
        np.testing.assert_array_equal(S, 0.5 * np.eye(2))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_affine(np.eye(1), 0.0)


class TestIntegrate:
    def test_constant_trace(self):
        samples = integrate(lambda t, x: np.zeros(1), [3.0], 0.0, 1.0, 1e-3)
        assert len(samples) == 1001
        assert all(x[0] == 3.0 for _, x in samples)

    def test_exponential_endpoint(self):
        samples = integrate(lambda t, x: -x, [1.0], 0.0, 5.0, 1e-3)
        assert abs(samples[-1][1][0] - math.exp(-5.0)) < 1e-9

    def test_divergence_detected(self):
        # e^t crosses 1e6 near t = ln(1e6) = 13.8.
        with pytest.raises(DivergenceDetected) as info:
            integrate(lambda t, x: x, [1.0], 0.0, 20.0, 1e-3)
        assert 13.0 < info.value.t < 14.0
        assert len(info.value.samples) > 1

    def test_dt_must_divide_span(self):
        with pytest.raises(ValueError):
            integrate(lambda t, x: -x, [1.0], 0.0, 1.0, 3e-4)


class TestExceptionsPickle:
    # A forked worker sends its exception back pickled; the copy keeps
    # the type, the message and the fields.
    @pytest.mark.parametrize("exc", [
        NonFiniteState(0.5, "RK4 update"),
        DivergenceDetected(13.8, [(0.0, np.ones(1))]),
        SingularInput(math.pi, 1.5e-7),
    ], ids=lambda exc: type(exc).__name__)
    def test_round_trip_keeps_type_message_and_fields(self, exc):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        fields = {k: v for k, v in vars(exc).items() if k != "samples"}
        assert {k: getattr(copy, k) for k in fields} == fields
        if isinstance(exc, DivergenceDetected):
            assert [(t, x.tolist()) for t, x in copy.samples] == [(0.0, [1.0])]


class TestStepCount:
    def test_limit_is_inclusive(self):
        assert step_count(0.0, 1.0, 1.0 / MAX_STEPS) == MAX_STEPS

    @pytest.mark.parametrize("t_end,dt", [(1.0, 0.5 / MAX_STEPS), (1e300, 1e-3),
                                          (10.0, 1e-300), (1e300, 1e-300)])
    def test_rejects_more_than_max_steps(self, t_end, dt):
        with pytest.raises(ValueError, match=f"more than MAX_STEPS={MAX_STEPS}"):
            step_count(0.0, t_end, dt)

    @pytest.mark.parametrize("t_end,dt,problem", [
        (-1.0, 1e-3, "t_end must be finite and exceed t0"),
        (1.0, 0.0, "dt must be positive"),
        (1e300, 1e-3, "dt=0.001 takes 1e+303 steps over the span 1e+300, "
                      f"more than MAX_STEPS={MAX_STEPS}"),
        (1.0, 0.3, "dt=0.3 does not divide the span 1")])
    def test_each_refusal_is_a_grid_error(self, t_end, dt, problem):
        with pytest.raises(GridError) as info:
            step_count(0.0, t_end, dt)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == f"invalid time grid: {problem}"


class TestJacobianFd:
    def test_two_state_example_field_at_origin(self):
        def f(x, u):
            return np.array([x[1] + np.sin(x[1]),
                             -2 * x[0] - 3 * x[1] + 2 * x[1] ** 2 + u[0]])

        A, B = jacobian_fd(f, np.zeros(2), np.zeros(1))
        np.testing.assert_allclose(A, [[0.0, 2.0], [-2.0, -3.0]], atol=1e-6)
        np.testing.assert_allclose(B, [[0.0], [1.0]], atol=1e-6)

    def test_exact_on_linear_fields(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        Afd, Bfd = jacobian_fd(lambda x, u: A @ x + B @ u,
                               rng.standard_normal(3), rng.standard_normal(2))
        np.testing.assert_allclose(Afd, A, atol=1e-9)
        np.testing.assert_allclose(Bfd, B, atol=1e-9)

    def test_bilinear_field_at_origin(self):
        A, B = jacobian_fd(lambda x, u: np.array([-4 * x[0] + x[0] * u[0]]),
                           np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(A, [[-4.0]], atol=1e-9)
        np.testing.assert_allclose(B, [[0.0]], atol=1e-9)

    @staticmethod
    def two_loops(f, x0, u0):
        """Reference: one central-difference loop over x, one over u."""
        h = FD_STEP
        n, m = x0.shape[0], u0.shape[0]
        A = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            A[:, j] = (f(x0 + e, u0) - f(x0 - e, u0)) / (2.0 * h)
        B = np.empty((n, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            B[:, j] = (f(x0, u0 + e) - f(x0, u0 - e)) / (2.0 * h)
        return A, B

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), m=st.integers(1, 2))
    def test_one_loop_over_the_stacked_point_equals_two_loops(self, data, n, m):
        coefficients = st.floats(-3.0, 3.0)
        W, G = (data.draw(hnp.arrays(float, (n, k), elements=coefficients))
                for k in (n, m))
        x0 = data.draw(hnp.arrays(float, n, elements=coefficients))
        u0 = data.draw(hnp.arrays(float, m, elements=coefficients))

        def f(x, u):  # smooth, with products of x and u
            return np.sin(W @ x) + (G @ u) * x + np.cos(G @ u) * x * x

        A, B = jacobian_fd(f, x0, u0)
        A_ref, B_ref = self.two_loops(f, x0, u0)
        # Bit for bit up to the sign of a zero: a -0.0 in the block that a
        # column does not perturb is probed as +0.0 here, and as -0.0 by
        # the reference; adding 0.0 maps -0.0 to +0.0 and nothing else.
        assert (A + 0.0).tobytes() == (A_ref + 0.0).tobytes()
        assert (B + 0.0).tobytes() == (B_ref + 0.0).tobytes()
        assert A.shape == (n, n) and B.shape == (n, m)
        assert A.flags.c_contiguous and B.flags.c_contiguous


class TestEigenvalues:
    def test_complex_pair(self):
        lam = np.sort_complex(eigenvalues([[0.0, 2.0], [-2.0, -3.0]]))
        expected = np.sort_complex(np.roots([1.0, 3.0, 4.0]))
        np.testing.assert_allclose(lam, expected, atol=1e-12)
        assert lam[0] == pytest.approx(-1.5 - 1.3228756555j, abs=1e-9)

    def test_cubic_with_real_and_complex_roots(self):
        lam = eigenvalues([[0, 1, 0], [0, 0, 1], [-4, -6, -4]])
        assert sorted(np.round(lam.real, 9)) == pytest.approx([-2.0, -1.0, -1.0])
        assert sorted(np.round(lam.imag, 9)) == pytest.approx([-1.0, 0.0, 1.0])

    def test_identity(self):
        lam = eigenvalues(np.eye(3))
        np.testing.assert_allclose(lam, np.ones(3), atol=1e-12)

    def test_characteristic_residual_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4, 6):
            for _ in range(20):
                M = rng.standard_normal((n, n)) * rng.uniform(0.5, 3.0)
                bound = 1e-6 * (1.0 + np.max(np.abs(M).sum(axis=1))) ** n
                for lam in eigenvalues(M):
                    res = abs(np.linalg.det(M - lam * np.eye(n)))
                    assert res < bound

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(9))


class TestHurwitz:
    def test_examples(self):
        assert is_hurwitz([[0.0, 2.0], [-2.0, -3.0]])
        assert not is_hurwitz([[2.0, 0.0], [-2.0, -3.0]])
        assert is_hurwitz([[-4.0]])

    def test_agrees_with_trace_determinant_criterion(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            M = rng.uniform(-3.0, 3.0, size=(2, 2))
            tr = M[0, 0] + M[1, 1]
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(tr) < 1e-6 or abs(det) < 1e-6:
                continue  # borderline cases are tolerance territory
            assert is_hurwitz(M) == (tr < 0 and det > 0)


class TestCare:
    def test_scalar_closed_form(self):
        P, K = solve_care(CareProblem([[1.0]], [[1.0]], [[1.0]], [[1.0]]))
        assert P[0, 0] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-9)
        assert K[0, 0] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-9)
        assert 1.0 - K[0, 0] == pytest.approx(-math.sqrt(2.0), abs=1e-9)

    def test_stable_plant_zero_cost(self):
        P, K = solve_care(CareProblem([[-1.0]], [[1.0]], [[0.0]], [[1.0]]))
        assert abs(P[0, 0]) < 1e-12
        assert abs(K[0, 0]) < 1e-12

    def test_two_state_design_model(self):
        p = CareProblem([[0.0, 2.0], [-2.0, -3.0]], [[0.0], [1.0]],
                        np.diag([10.0, 10.0]), [[1.0]])
        P, K = solve_care(p)
        assert care_residual(p, P) < 1e-8 * (1.0 + np.max(np.abs(P)) ** 2)
        assert is_hurwitz(p.A - p.B @ K)

    @pytest.mark.filterwarnings("error")
    def test_unstabilizable_pair_rejected(self):
        # Unstable mode with zero input coupling: the stable subspace of
        # the Hamiltonian is not a graph [I; P].
        with pytest.raises(NotStabilizable):
            solve_care(CareProblem([[1.0]], [[0.0]], [[1.0]], [[1.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A", [
        [[0.0, 1.0], [-1.0, 0.0]],  # undamped oscillator: eigenvalues +-i
        [[0.0, 1.0], [0.0, 0.0]],   # double integrator: a singular Hamiltonian
        # +-3i: the first step leaves a nearly singular iterate whose
        # inverse overflows; the condition check must stop there.
        [[0.0, 3.0], [-3.0, 0.0]],
    ], ids=["oscillator", "double-integrator", "oscillator-3"])
    def test_hamiltonian_on_imaginary_axis_rejected(self, A):
        # With no state cost the Hamiltonian keeps the eigenvalues of A.
        with pytest.raises(NotStabilizable):
            solve_care(CareProblem(A, [[0.0], [1.0]], np.zeros((2, 2)), [[1.0]]))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            CareProblem(np.eye(2), np.eye(2),
                        [[1.0, 1e-6], [0.0, 1.0]], np.eye(2))

    def test_random_stabilizable_batch(self):
        rng = np.random.default_rng(17)
        solved = 0
        while solved < 25:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            p = CareProblem(rng.standard_normal((n, n)),
                            rng.standard_normal((n, m)),
                            np.eye(n), np.eye(m))
            P, K = solve_care(p)
            assert care_residual(p, P) < 1e-8 * (1.0 + np.max(np.abs(P)) ** 2)
            assert is_hurwitz(p.A - p.B @ K)
            solved += 1


def _min_singular_value(M) -> float:
    return float(np.linalg.svd(M, compute_uv=False)[-1])


@st.composite
def care_problems(draw):
    """(A, B, Q) with (A, B) controllable and (C, A) observable, both
    with a margin, for Q = I (C = I) or Q = C'C."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    entries = st.floats(-2.0, 2.0)
    A = draw(hnp.arrays(np.float64, (n, n), elements=entries))
    B = draw(hnp.arrays(np.float64, (n, m), elements=entries))
    if draw(st.booleans()):
        C = np.eye(n)
    else:
        C = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), n),
                            elements=entries))
    powers = [np.linalg.matrix_power(A, k) for k in range(n)]
    assume(_min_singular_value(np.hstack([Ak @ B for Ak in powers])) > 0.1)
    assume(_min_singular_value(np.vstack([C @ Ak for Ak in powers])) > 0.1)
    return A, B, C.T @ C


class TestCareAgainstReference:
    """The sign-function solve against scipy's Schur-method CARE solver,
    used here as a test-only reference."""

    @settings(max_examples=150, deadline=None)
    @given(problem=care_problems())
    def test_matches_reference_solution(self, problem):
        A, B, Q = problem
        p = CareProblem(A, B, Q, np.eye(B.shape[1]))
        P, K = solve_care(p)
        ref = scipy.linalg.solve_continuous_are(A, B, Q, p.R)
        assert np.max(np.abs(P - ref)) <= 1e-8 * np.max(np.abs(ref))
        assert care_residual(p, P) < 1e-8 * (1.0 + np.max(np.abs(P)) ** 2)
        assert is_hurwitz(A - B @ K)


class _Replay(ControlLaw):
    """Emits the given commands in order, one per step."""

    def __init__(self, commands):
        self.commands = np.asarray(commands, dtype=float)

    def reset(self):
        self.k = 0

    def step(self, x, ref, t, dt):
        self.k += 1
        return self.commands[self.k - 1:self.k]


def delayed(commands, delay, dt=1e-3):
    """The input `simulate` applies to ex3 at rest when its law commands
    `commands` through an input delay of `delay` seconds."""
    plant, _ = build_example3()
    sc = Scenario(label="delay", x0=np.zeros(2),
                  t_end=(len(commands) - 1) * dt, input_delay=delay)
    trace = simulate(plant, _Replay(commands), sc, dt=dt)
    assert len(trace) == len(commands) and not trace.diverged
    return trace.u_applied[:, 0]


class TestDelayLine:
    """The input delay line, which `simulate` reads from its own command
    record: `step_count(0, delay, dt)` rows of zero fill, then the commands."""

    def test_zero_delay_is_identity(self):
        assert delayed([4.2, -1.5], 0.0).tolist() == [4.2, -1.5]

    def test_constant_input_warmup(self):
        outs = delayed(np.ones(400), 0.2).tolist()
        assert outs[:200] == [0.0] * 200
        assert outs[200:] == [1.0] * 200

    def test_ramp_shift(self):
        dt = 1e-3
        outs = delayed(np.arange(500) * dt, 0.2, dt)
        for k in range(200, 500):
            assert outs[k] == pytest.approx((k - 200) * dt, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(19)
        u1 = rng.standard_normal(300)
        u2 = rng.standard_normal(300)
        a, b = 2.5, -1.25
        y1, y2, ymix = (delayed(u, 0.05) for u in (u1, u2, a * u1 + b * u2))
        np.testing.assert_allclose(ymix, a * y1 + b * y2, rtol=0, atol=1e-12)
