import math

import numpy as np
import pytest

from scl_lab.benchmarks import BACKSTEPPING, build_run, lqr_gain
from scl_lab.controllers import BacksteppingSecondary, LqrLaw, ZeroLaw
from scl_lab.decomposition import (
    CompositeLaw,
    Decomposition,
    UnstableA1,
    ZeroReferenceGain,
    make_decomposition,
    make_decomposition_ex1,
    replay_observer,
    decomposition_deviation,
)
from scl_lab.numerics import NonFiniteState
from scl_lab.plants import PlantModel, build_example1, build_example2, build_example3, simulate

SCLC_CELLS = [("ex1", None), ("ex2", None)] + [("ex3", sc) for sc in ("i", "ii", "iii", "iv")]


def linear_plant():
    A = np.array([[0.0, 2.0], [-2.0, -3.0]])
    B = np.array([[0.0], [1.0]])
    return PlantModel(
        name="linear", n=2, m=1, p=1,
        field=lambda t, x, u, d: x @ A.T + u[..., 0:1] * B[:, 0] + d,
        output=lambda x: x[..., 0:1],
        analytic_jacobian=(A, B),
    )


def unstable_plant():
    return PlantModel(
        name="unstable", n=1, m=1, p=1,
        field=lambda t, x, u, d: x + u + d,
        output=lambda x: x,
        analytic_jacobian=(np.array([[1.0]]), np.array([[1.0]])),
    )


class TestConstruction:
    def test_two_state_example(self):
        plant, _ = build_example3()
        dec = make_decomposition(plant)
        np.testing.assert_array_equal(dec.A1, [[0.0, 2.0], [-2.0, -3.0]])
        np.testing.assert_array_equal(dec.B1, [[0.0], [1.0]])
        law = CompositeLaw(dec, ZeroLaw(1))
        np.testing.assert_array_equal(law.xhat_s, [0.0, 0.0])

    def test_bilinear_origin_jacobian_has_zero_input_matrix(self):
        plant, _ = build_example1()
        dec = make_decomposition(plant)
        np.testing.assert_array_equal(dec.A1, [[-4.0]])
        np.testing.assert_array_equal(dec.B1, [[0.0]])

    def test_finite_difference_fallback_matches_analytic(self):
        plant, _ = build_example3()
        bare = PlantModel(name="bare", n=2, m=1, p=1,
                          field=plant.field, output=plant.output)
        dec = make_decomposition(bare)
        np.testing.assert_allclose(dec.A1, [[0.0, 2.0], [-2.0, -3.0]], atol=1e-6)
        np.testing.assert_allclose(dec.B1, [[0.0], [1.0]], atol=1e-6)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(UnstableA1):
            make_decomposition(unstable_plant())

    def test_reference_gain_construction(self):
        assert make_decomposition_ex1(20.0).B1[0, 0] == 20.0
        assert make_decomposition_ex1(1.0).B1[0, 0] == 1.0
        with pytest.raises(ZeroReferenceGain):
            make_decomposition_ex1(0.0)


class TestObserver:
    def test_linear_plant_keeps_zero_remainder(self):
        # With the full input routed to the primary channel (u_s = 0) a
        # linear plant decomposes trivially: the observer drive
        # A1 x + B1 u + A1(0 - x) + B1(0 - u) vanishes identically.
        dec = make_decomposition(linear_plant())
        rng = np.random.default_rng(3)
        xhat_s = np.zeros(2)
        for _ in range(5):
            x = rng.standard_normal(2)
            u = rng.standard_normal(1)
            xhat_s = dec.advance(xhat_s, x, u, np.zeros(1), 1e-3)
            np.testing.assert_allclose(xhat_s, 0.0, atol=1e-15)
            np.testing.assert_allclose(x - xhat_s, x, atol=1e-15)

    def test_saturated_plant_inactive_region(self):
        # Commands inside the saturation band leave nothing to absorb.
        plant, _ = build_example2()
        dec = make_decomposition(plant)
        rng = np.random.default_rng(5)
        xhat_s = np.zeros(3)
        for _ in range(5):
            x = rng.standard_normal(3)
            u = rng.uniform(-1.9, 1.9, size=1)
            xhat_s = dec.advance(xhat_s, x, u, np.zeros(1), 1e-3)
            np.testing.assert_allclose(xhat_s, 0.0, atol=1e-15)

    def test_replay_matches_recorded_estimates(self):
        setup = build_run("ex3", "sclc", "i")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=2.0)
        dec = make_decomposition(setup.plant)
        assert replay_observer(dec, trace) < 1e-9

    @pytest.mark.parametrize("example, scenario", SCLC_CELLS)
    def test_replay_is_exact_on_every_composite_cell(self, bench, example, scenario):
        # Replay steps through the same ``advance`` on the recorded
        # (x, u, u_s), so it repeats the run's arithmetic bit for bit.
        trace, _ = bench.cell(example, "sclc", scenario)
        assert replay_observer(build_run(example, "sclc", scenario).law.dec, trace) == 0.0

    @pytest.mark.parametrize("bad", ["x", "u"])
    def test_non_finite_input_raises(self, bad):
        dec = make_decomposition(build_example3()[0])
        x, u = np.array([1.0, -1.0]), np.array([0.5])
        (x if bad == "x" else u)[0] = math.nan
        with pytest.raises(NonFiniteState):
            dec.advance(np.zeros(2), x, u, np.zeros(1), 1e-3)

    def test_replay_reports_the_step_time_of_a_non_finite_update(self):
        setup = build_run("ex3", "sclc", "i")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=0.1)
        trace.x[40, 1] = math.nan
        with pytest.raises(NonFiniteState) as err:
            replay_observer(setup.law.dec, trace)
        assert err.value.t == pytest.approx(40e-3)

    def test_reconstruction_identity(self):
        # xhat_p = x - xhat_s is algebraic; only rounding can show up.
        setup = build_run("ex3", "sclc", "i")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=2.0)
        defect = np.max(np.abs(trace.xhat_p + trace.xhat_s - trace.x))
        assert defect < 1e-9


class TestCompositeLaw:
    def test_zero_laws_emit_zero(self):
        dec = make_decomposition(linear_plant())
        law = CompositeLaw(dec, ZeroLaw(1), secondary=ZeroLaw(1))
        u = law.step(np.array([1.0, -2.0]), 0.0, 0.0, 1e-3)
        assert u[0] == 0.0

    def test_first_step_matches_hand_evaluation(self):
        # At t=0 the remainder estimate is zero, so the primary sees x0.
        setup = build_run("ex3", "sclc", "i")
        x0 = np.array([2.0, 2.0])
        u = setup.law.step(x0, 0.0, 0.0, 1e-3)
        K = lqr_gain(np.array([[0.0, 2.0], [-2.0, -3.0]]),
                     np.array([[0.0], [1.0]]))
        u_p = -(K @ x0)[0]
        u_s = BacksteppingSecondary(BACKSTEPPING).u_s(x0, np.zeros(2))[0]
        assert u_s == pytest.approx(-8.0 - 10.0 * math.sin(2.0), abs=1e-12)
        assert u[0] == pytest.approx(u_p + u_s, abs=1e-12)
        law_u_p, law_u_s, _ = setup.law.channels(u)
        assert law_u_p[0] == pytest.approx(u_p, abs=1e-12)
        assert law_u_s[0] == pytest.approx(u_s, abs=1e-12)

    def test_laws_sharing_a_model_keep_their_own_estimates(self):
        # One Decomposition backs two laws stepped interleaved on the
        # same states; each integrates its own estimate, so both emit
        # exactly what a law run alone emitted.
        setup = build_run("ex3", "sclc", "i")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=1.0)
        dec = setup.law.dec
        K = lqr_gain(dec.A1, dec.B1)
        laws = [CompositeLaw(dec, LqrLaw(K), BacksteppingSecondary(BACKSTEPPING))
                for _ in range(2)]
        for k in range(len(trace)):
            for law in laws:
                u = law.step(trace.x[k], trace.y_d[k], trace.t[k], trace.dt)
                np.testing.assert_array_equal(u, trace.u_cmd[k])
                np.testing.assert_array_equal(law.xhat_s, trace.xhat_s[k])
        assert replay_observer(dec, trace) < 1e-9

    def test_non_finite_remainder_update_reports_its_step_time(self):
        # A NaN state at t = 5 ms is consumed by the estimate update at
        # the next step, which integrates over [5, 6] ms.
        law = build_run("ex3", "sclc", "i").law
        dt = 1e-3
        for k in range(5):
            law.step(np.array([1.0, -1.0]), 0.0, k * dt, dt)
        law.step(np.array([math.nan, -1.0]), 0.0, 5 * dt, dt)
        with pytest.raises(NonFiniteState) as err:
            law.step(np.array([1.0, -1.0]), 0.0, 6 * dt, dt)
        assert err.value.t == pytest.approx(5 * dt)

    def test_bilinear_composite_is_pure_primary(self):
        setup = build_run("ex1", "sclc")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=1.0)
        np.testing.assert_array_equal(trace.u_s, 0.0)
        np.testing.assert_array_equal(trace.u_p, trace.u_cmd)


class TestDecompositionExactness:
    def test_linear_plant_superposition(self):
        dec = make_decomposition(linear_plant())
        dev = decomposition_deviation(dec, lambda t: [math.sin(t)],
                            d=[0.5, -0.25], x0=[1.0, -1.0], t_end=5.0, dt=1e-3)
        assert dev < 1e-9

    def test_two_state_example_with_disturbance(self):
        plant, _ = build_example3()
        dec = make_decomposition(plant)
        dev = decomposition_deviation(dec, lambda t: [math.sin(t)],
                            d=[1.0, 1.0], x0=[2.0, 2.0], t_end=10.0, dt=1e-3)
        assert dev < 1e-6

    def test_bilinear_example(self):
        dec = make_decomposition_ex1(20.0)
        dev = decomposition_deviation(dec, lambda t: [1.0], d=[3.0],
                            x0=[-1.0], t_end=10.0, dt=1e-3)
        assert dev < 1e-6

    def test_split_input_between_channels(self):
        plant, _ = build_example3()
        dec = make_decomposition(plant)
        dev = decomposition_deviation(dec, lambda t: [math.sin(t)],
                            d=None, x0=[1.0, 0.5], t_end=5.0, dt=1e-3,
                            up_of_t=lambda t: [0.25 * math.sin(t)])
        assert dev < 1e-6

    def test_detects_wrong_primary_matrix(self):
        # Against the hand-derived remainder dynamics, a wrong primary
        # matrix breaks the x = xp + xs identity immediately.
        plant, _ = build_example3()
        good = make_decomposition(plant)
        bad = Decomposition(np.array([[0.0, 1.0], [-2.0, -3.0]]), good.B1,
                            good.model_field, 2, 1,
                            remainder_field=good.remainder_field)
        dev = decomposition_deviation(bad, lambda t: [math.sin(t)],
                            d=None, x0=[2.0, 2.0], t_end=5.0, dt=1e-3)
        assert dev > 1e-3

    def test_detects_wrong_remainder_reading(self):
        # A remainder that reads the nonlinearity off its own state
        # instead of the measured one is not the original minus the
        # primary; the harness must flag it.
        plant, _ = build_example3()
        good = make_decomposition(plant)

        def misread(t, x, xs, u, u_s):
            s1, s2 = xs[..., 0], xs[..., 1]
            return np.stack((2.0 * s2 - s2 + np.sin(s2),
                             -2.0 * s1 - 3.0 * s2 + 2.0 * s2 * s2
                             + u_s[..., 0]), axis=-1)

        bad = Decomposition(good.A1, good.B1, good.model_field, 2, 1,
                            remainder_field=misread)
        dev = decomposition_deviation(bad, lambda t: [math.sin(t)],
                            d=None, x0=[2.0, 2.0], t_end=5.0, dt=1e-3)
        assert dev > 1e-3


class TestSecondaryConvergence:
    def test_remainder_estimate_settles_in_disturbance_free_runs(self, bench):
        # ex2 plus the delay-free two-state scenarios: the stabilizer
        # drives the remainder estimate to (near) zero by the horizon.
        for example, sc in (("ex2", None), ("ex3", "i"), ("ex3", "ii"),
                            ("ex3", "iv")):
            trace, _ = bench.cell(example, "sclc", sc)
            assert np.max(np.abs(trace.xhat_s[-1])) < 1e-2, (example, sc)

    def test_constant_disturbance_leaves_a_predictable_offset(self, bench):
        # With d = [1, 1] the first remainder equation settles where
        # 2*xs2 = x2 - sin(x2) - ... , i.e. xs2 -> x2_ss + d1/2 with
        # x2_ss solving x2 + sin(x2) = -1.  The estimate cannot vanish.
        trace, _ = bench.cell("ex3", "sclc", "iii")
        x2_ss = trace.x[-1, 1]
        expected = x2_ss + 0.5
        assert trace.xhat_s[-1, 1] == pytest.approx(expected, abs=1e-4)
        assert 1e-2 < abs(trace.xhat_s[-1, 1]) < 2e-2


class TestJacobianConsistency:
    def test_comparison_pipeline_shares_the_linearization(self):
        plant, _ = build_example3()
        dec = make_decomposition(plant)
        jlc = build_run("ex3", "jlc").law
        sclc = build_run("ex3", "sclc").law
        K = lqr_gain(dec.A1, dec.B1)
        np.testing.assert_array_equal(jlc.K, K)
        np.testing.assert_array_equal(sclc.primary.K, K)
        np.testing.assert_array_equal(sclc.dec.A1, dec.A1)
        np.testing.assert_array_equal(sclc.dec.B1, dec.B1)
