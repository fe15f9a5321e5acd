import dataclasses
import hashlib
import math
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from conftest import OBSERVER_MODELS
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scl_lab import decomposition
from scl_lab.benchmarks import BACKSTEPPING, build_run, lqr_gain
from scl_lab.controllers import BacksteppingSecondary, ControlLaw, LqrLaw, ZeroLaw
from scl_lab.decomposition import (
    CompositeLaw,
    Decomposition,
    ExactnessCase,
    UnstableA1,
    ZeroReferenceGain,
    make_decomposition,
    make_decomposition_ex1,
    replay_observer,
    decomposition_deviation,
)
from scl_lab.numerics import NonFiniteState, rk4_step
from scl_lab.plants import (
    PlantModel,
    Scenario,
    SimulationTrace,
    build_example1,
    build_example2,
    build_example3,
    simulate,
)

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


def recorded(x, u, u_s, xhat_s, dt):
    """A trace holding the signals the remainder observer reads."""
    rows = x.shape[0]
    return SimulationTrace(
        t=np.arange(rows) * dt, x=x, u_cmd=u, u_applied=u, u_p=u - u_s,
        u_s=u_s, xhat_p=x - xhat_s, xhat_s=xhat_s, y=x[:, :1],
        y_d=np.zeros(rows), sat_active=np.zeros(rows, dtype=bool), dt=dt)


def step_estimates(dec, x, u, u_s, dt, start=0.0):
    """The estimates a run records: ``advance`` one row at a time from
    ``start`` (zero, as a composite law starts)."""
    xhat_s = np.zeros_like(x)
    xhat_s[0] = start
    for k in range(x.shape[0] - 1):
        xhat_s[k + 1] = dec.advance(xhat_s[k], x[k], u[k], u_s[k], k * dt, dt)
    return xhat_s


def sequential_replay(dec, trace):
    """Reference: the observer re-integrated one ``advance`` at a time."""
    replay = step_estimates(dec, trace.x, trace.u_cmd, trace.u_s, trace.dt)
    return float(np.abs(replay - trace.xhat_s).max())


@st.composite
def observer_records(draw):
    """A model, random (x, u, u_s) rows, a step and a replay chunk size
    small enough that records span several chunks."""
    model = draw(st.sampled_from(sorted(OBSERVER_MODELS)))
    dec = OBSERVER_MODELS[model]()
    rows = draw(st.integers(2, 40))
    signal = st.floats(-10.0, 10.0, allow_nan=False)
    x, u, u_s = (draw(arrays(np.float64, (rows, cols), elements=signal))
                 for cols in (dec.n, dec.m, dec.m))
    dt = draw(st.sampled_from([1e-3, 1e-2]))
    chunk = draw(st.integers(1, 16))
    return dec, x, u, u_s, dt, chunk


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

    @pytest.mark.parametrize("y_d", [math.nan, math.inf, -math.inf])
    def test_reference_gain_must_be_finite(self, y_d):
        with pytest.raises(ValueError, match="y_d must be finite"):
            make_decomposition_ex1(y_d)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 8), data=st.data())
    def test_ex1_model_read_from_the_catalogue_equals_the_written_out_one(
            self, rows, data):
        # The ex1 model written out by hand: A1 = [-4], B1 = [y_d], the
        # plant field without disturbance and the bilinear remainder.
        y_d = 20.0

        def field(t, x, u):
            return (-4.0 * x[..., 0] + x[..., 0] * u[..., 0])[..., None] + 0.0

        def remainder(t, x, xs, u, u_s):
            uv = u[..., 0]
            return (-4.0 * xs[..., 0] + x[..., 0] * uv - y_d * uv
                    + y_d * u_s[..., 0])[..., None]

        dec = make_decomposition_ex1(y_d)
        assert dec.A1.tobytes() == np.array([[-4.0]]).tobytes()
        assert dec.B1.tobytes() == np.array([[y_d]]).tobytes()
        batch = arrays(float, (rows, 1), elements=st.floats(-1e3, 1e3))
        x, xs, u, u_s = (data.draw(batch) for _ in range(4))
        assert dec.model_field(0.0, x, u).tobytes() == field(0.0, x, u).tobytes()
        assert (dec.remainder_field(0.0, x, xs, u, u_s).tobytes()
                == remainder(0.0, x, xs, u, u_s).tobytes())


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
            xhat_s = dec.advance(xhat_s, x, u, np.zeros(1), 0.0, 1e-3)
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
            xhat_s = dec.advance(xhat_s, x, u, np.zeros(1), 0.0, 1e-3)
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
            dec.advance(np.zeros(2), x, u, np.zeros(1), 0.0, 1e-3)

    def test_replay_reports_the_step_time_of_a_non_finite_update(self):
        setup = build_run("ex3", "sclc", "i")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=0.1)
        trace.x[40, 1] = math.nan
        with pytest.raises(NonFiniteState) as err:
            replay_observer(setup.law.dec, trace)
        assert err.value.t == pytest.approx(40e-3)

    def test_estimate_tracks_a_time_varying_plant(self):
        # x' = -(1 + t) x + u: the model is evaluated at each sample's
        # time, so xhat_p = x - xhat_s follows the primary system
        # xp' = -xp + u_p, re-integrated here from the recorded u_p, up to
        # the first-order gap of the held x.  Read at t = 0, the remainder
        # drive would vanish and xhat_p would stay x, 0.108 away.
        plant = PlantModel(name="clocked", n=1, m=1, p=1,
                           field=lambda t, x, u, d: -(1.0 + t) * x + u + d,
                           output=lambda x: x)
        dec = Decomposition(np.array([[-1.0]]), np.array([[1.0]]),
                            plant.nominal_field, 1, 1)
        scenario = Scenario(label="clocked", x0=np.array([1.0]), t_end=2.0)
        dt = 1e-3
        trace = simulate(plant, CompositeLaw(dec, LqrLaw([[0.5]])), scenario, dt=dt)
        assert not trace.diverged
        xp = trace.x.copy()
        for k in range(len(trace) - 1):
            drive = dec.B1 @ trace.u_p[k]
            xp[k + 1] = rk4_step(lambda _t, v: dec.A1 @ v + drive, k * dt, xp[k], dt)
        assert np.abs(trace.xhat_p - xp).max() < 1e-3
        assert replay_observer(dec, trace) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(record=observer_records())
    def test_stepped_record_replays_to_exactly_zero(self, record):
        dec, x, u, u_s, dt, chunk = record
        trace = recorded(x, u, u_s, step_estimates(dec, x, u, u_s, dt), dt)
        with mock.patch.object(decomposition, "REPLAY_CHUNK", chunk):
            assert replay_observer(dec, trace) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(record=observer_records(), data=st.data())
    def test_perturbed_record_matches_sequential_replay(self, record, data):
        # The estimates were computed from other u_s values, and from a
        # start other than zero, than the record holds, so the replay
        # deviates; the batched replay must find the deviation a
        # sequential re-integration finds.
        dec, x, u, u_s, dt, chunk = record
        unit = st.floats(-1.0, 1.0)
        start = data.draw(arrays(np.float64, dec.n, elements=unit))
        xhat_s = step_estimates(dec, x, u, u_s, dt, start)
        shift = data.draw(arrays(np.float64, u_s.shape, elements=unit))
        shift[0] = 0.5
        trace = recorded(x, u, u_s + shift, xhat_s, dt)
        with mock.patch.object(decomposition, "REPLAY_CHUNK", chunk):
            dev = replay_observer(dec, trace)
        assert dev == pytest.approx(sequential_replay(dec, trace), rel=1e-6)

    def test_perturbed_run_matches_sequential_replay(self):
        setup = build_run("ex3", "sclc", "iii")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=5.0)
        trace.u_s[::7] += 0.5
        dev = replay_observer(setup.law.dec, trace)
        assert dev > 1e-4
        assert dev == pytest.approx(sequential_replay(setup.law.dec, trace), rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(record=observer_records(), data=st.data())
    def test_perturbed_record_replays_to_the_sequential_deviation(self, record, data):
        # A record that is not faithful is re-integrated one ``advance``
        # at a time, as the reference is, so the two agree bit for bit.
        dec, x, u, u_s, dt, chunk = record
        xhat_s = step_estimates(dec, x, u, u_s, dt)
        row = data.draw(st.integers(0, len(x) - 1))
        xhat_s[row] += data.draw(st.floats(-1.0, 1.0).filter(bool))
        trace = recorded(x, u, u_s, xhat_s, dt)
        with mock.patch.object(decomposition, "REPLAY_CHUNK", chunk):
            assert replay_observer(dec, trace) == sequential_replay(dec, trace)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_estimate_replays_to_a_non_finite_deviation(self, bad):
        # The signals are finite, so every replayed update is: the
        # recorded estimate is what is off, and no tolerance accepts it.
        setup = build_run("ex3", "sclc", "i")
        trace = simulate(setup.plant, setup.law, setup.scenario, dt=1e-3,
                         t_end=0.1)
        trace.xhat_s[40, 0] = bad
        assert not math.isfinite(replay_observer(setup.law.dec, trace))

    def test_replay_refuses_a_trace_of_other_widths(self):
        setup = build_run("ex2", "sclc")
        trace = simulate(setup.plant, setup.law, setup.scenario, t_end=0.01)
        for model, widths in (("ex3", r"\(2, 1\)"), ("ex1", r"\(1, 1\)")):
            with pytest.raises(ValueError, match=r"\(3, 1\).*" + widths):
                replay_observer(OBSERVER_MODELS[model](), trace)

    def test_run_without_samples_replays_to_zero(self):
        # A run whose first command is non-finite records no sample.
        class NanPrimary(ControlLaw):
            def step(self, x, ref, t, dt):
                return np.array([math.nan])

        setup = build_run("ex3", "sclc", "i")
        law = CompositeLaw(setup.law.dec, NanPrimary())
        trace = simulate(setup.plant, law, setup.scenario)
        assert len(trace) == 0 and trace.diverged
        assert replay_observer(law.dec, trace) == 0.0

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


def one_signal(u_of_t, up_of_t=None):
    """``decomposition_deviation`` inputs for one lane: the signal and its
    primary part, the whole signal unless ``up_of_t`` is given, at each
    stage time."""
    def inputs(times):
        u = np.array([[u_of_t(t)] for t in times.tolist()], dtype=float)
        if up_of_t is None:
            return u, u
        return u, np.array([[up_of_t(t)] for t in times.tolist()], dtype=float)
    return inputs


class TestDecompositionExactness:
    def test_linear_plant_superposition(self):
        dec = make_decomposition(linear_plant())
        [dev] = decomposition_deviation(dec, one_signal(lambda t: [math.sin(t)]),
                            d=[0.5, -0.25], x0=[1.0, -1.0], t_end=5.0, dt=1e-3)
        assert dev < 1e-9

    def test_two_state_example_with_disturbance(self):
        plant, _ = build_example3()
        dec = make_decomposition(plant)
        [dev] = decomposition_deviation(dec, one_signal(lambda t: [math.sin(t)]),
                            d=[1.0, 1.0], x0=[2.0, 2.0], t_end=10.0, dt=1e-3)
        assert dev < 1e-6

    def test_bilinear_example(self):
        dec = make_decomposition_ex1(20.0)
        [dev] = decomposition_deviation(dec, one_signal(lambda t: [1.0]), d=[3.0],
                            x0=[-1.0], t_end=10.0, dt=1e-3)
        assert dev < 1e-6

    def test_split_input_between_channels(self):
        plant, _ = build_example3()
        dec = make_decomposition(plant)
        [dev] = decomposition_deviation(
            dec, one_signal(lambda t: [math.sin(t)], lambda t: [0.25 * math.sin(t)]),
            d=[0.0, 0.0], x0=[1.0, 0.5], t_end=5.0, dt=1e-3)
        assert dev < 1e-6

    def test_detects_wrong_primary_matrix(self):
        # Against the hand-derived remainder dynamics, a wrong primary
        # matrix breaks the x = xp + xs identity immediately.
        plant, _ = build_example3()
        good = make_decomposition(plant)
        bad = Decomposition(np.array([[0.0, 1.0], [-2.0, -3.0]]), good.B1,
                            good.model_field, 2, 1,
                            remainder_field=good.remainder_field)
        [dev] = decomposition_deviation(bad, one_signal(lambda t: [math.sin(t)]),
                            d=[0.0, 0.0], x0=[2.0, 2.0], t_end=5.0, dt=1e-3)
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
        [dev] = decomposition_deviation(bad, one_signal(lambda t: [math.sin(t)]),
                            d=[0.0, 0.0], x0=[2.0, 2.0], t_end=5.0, dt=1e-3)
        assert dev > 1e-3

# A step at which the sweep is cheap and every horizon is a whole number
# of steps; the worker path does not depend on it.
SWEEP_DT = 0.01
# sha256 of the 60 case reprs at SWEEP_DT, one per line, as the serial
# sweep gave them before its ex2 share moved to a worker.
SWEEP_SHA256 = "07d2c712a42ff00fae7ea0cbc305d64acce7c704fff1be0338850d3a3193998f"


class TestExactnessChunks:
    # The sweep evaluates its inputs and reduces its defects once per
    # chunk of EXACTNESS_CHUNK steps.

    @pytest.mark.parametrize("example", decomposition.EXAMPLES)
    def test_chunk_size_moves_no_bit(self, example):
        draws = decomposition._draw_inputs(np.random.default_rng(20240811), 20)
        default = decomposition._exactness_deviation(example, draws, SWEEP_DT)
        for chunk in (1, 7):
            with mock.patch.object(decomposition, "EXACTNESS_CHUNK", chunk):
                dev = decomposition._exactness_deviation(example, draws, SWEEP_DT)
            assert dev.tobytes() == default.tobytes(), chunk

    @pytest.mark.parametrize("chunk", [1, 7, 128])
    def test_inputs_run_once_per_chunk_on_each_stage_time(self, chunk):
        # 50 steps; each call gets the chunk's stage times, each once, and
        # together they are the floats rk4_step passes, k dt + 0, dt/2, dt.
        dt, steps = 0.01, 50
        signal = one_signal(lambda t: [math.sin(t)])
        calls = []

        def counting(times):
            calls.append(times.tolist())
            return signal(times)

        with mock.patch.object(decomposition, "EXACTNESS_CHUNK", chunk):
            decomposition_deviation(make_decomposition(linear_plant()), counting,
                                    d=[0.0, 0.0], x0=[1.0, -1.0], t_end=steps * dt,
                                    dt=dt)
        assert len(calls) == math.ceil(steps / chunk)
        assert all(len(set(times)) == len(times) for times in calls)
        stage_times = {k * dt + h for k in range(steps) for h in (0.0, 0.5 * dt, dt)}
        assert {t for times in calls for t in times} == stage_times

    @pytest.mark.parametrize("shape", [lambda T: (2, 1), lambda T: (T, 2),
                                       lambda T: (T, 2, 2), lambda T: (T + 1, 2, 1)],
                             ids=("lanes-only", "no-lanes", "wide", "long"))
    @pytest.mark.parametrize("which", ["u", "u_p"])
    def test_inputs_of_another_shape_are_refused(self, shape, which):
        def wrong(times):
            good = np.zeros((len(times), 2, 1))
            bad = np.zeros(shape(len(times)))
            return (bad, good) if which == "u" else (good, bad)

        with pytest.raises(ValueError, match=r"\(len\(times\), B, m\) = \(\d+, 2, 1\)"):
            decomposition_deviation(make_decomposition(linear_plant()), wrong,
                                    d=[0.0, 0.0], x0=[[1.0, -1.0], [0.5, 0.5]],
                                    t_end=0.05, dt=0.01)


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestExactnessSuite:
    @pytest.mark.parametrize("cpus,daemon,forks", [(1, False, 0), (2, False, 1),
                                                   (2, True, 0)])
    def test_cases_match_the_kernel_run_in_process(self, monkeypatch, cpus,
                                                   daemon, forks):
        # Every input is drawn up front, so the ex2 share gives the same
        # bits in a worker as in the caller, and the cases keep their
        # order.  A daemonic process may not start children: it runs
        # every share itself.
        rng = np.random.default_rng(20240811)
        draws = [decomposition._draw_inputs(rng, 20)
                 for _ in decomposition.EXAMPLES]
        expected = [
            repr(ExactnessCase(example, i, float(dev)))
            for example, draw in zip(decomposition.EXAMPLES, draws)
            for i, dev in enumerate(
                decomposition._exactness_deviation(example, draw, SWEEP_DT))]
        usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", daemon)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            cases = decomposition.exactness_suite(dt=SWEEP_DT)
        assert fork.call_count == forks
        assert [repr(case) for case in cases] == expected
        assert hashlib.sha256("\n".join(expected).encode()).hexdigest() == SWEEP_SHA256
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_non_finite_share_raises_its_step_time_in_the_caller(
            self, monkeypatch, where):
        # The model field turns NaN from t = 0.505 on, only in the worker
        # (ex2) or only in the caller (ex1 and ex3): the step from
        # t = 0.5 is the first whose stages reach it.
        caller = os.getpid()
        build = decomposition._exactness_example

        def poisoned(example):
            plant, sc = build(example)
            field = plant.field

            def bad_field(t, x, u, d):
                here = "worker" if os.getpid() != caller else "caller"
                poison = t >= 0.505 and here == where
                return field(t, x, u, d) * (math.nan if poison else 1.0)
            return dataclasses.replace(plant, field=bad_field), sc

        monkeypatch.setattr(decomposition, "_exactness_example", poisoned)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(NonFiniteState, match="RK4 update at t=0.5$") as info:
            decomposition.exactness_suite(dt=SWEEP_DT)
        assert info.value.t == pytest.approx(0.5)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_without_a_result_raises_in_the_caller(
            self, monkeypatch):
        caller = os.getpid()
        build = decomposition._exactness_example

        def dying(example):
            if os.getpid() != caller:
                os._exit(7)
            return build(example)

        monkeypatch.setattr(decomposition, "_exactness_example", dying)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            decomposition.exactness_suite(dt=SWEEP_DT)
        assert multiprocessing.active_children() == []

    def test_a_bad_dt_raises_before_any_process_starts(self, monkeypatch):
        # 0.3 divides the 30 s and 10 s horizons of ex1 and ex3 but not
        # the 25 s of ex2, the worker's share.
        usable_cpus(monkeypatch, 2)
        with mock.patch.object(os, "fork", side_effect=AssertionError) as fork:
            with pytest.raises(ValueError, match="does not divide the span 25"):
                decomposition.exactness_suite(dt=0.3)
        assert fork.call_count == 0


@st.composite
def polynomial_plants(draw):
    """A 2-state plant ``x' = A x + b u + quadratic terms + x u terms``
    with a Hurwitz ``A`` (negative trace, positive determinant), given
    without an analytic Jacobian or a remainder field."""
    coeff = st.floats(-1.0, 1.0)
    a, c = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    k = draw(st.floats(-2.0, 2.0))
    A = np.array([[-a, k], [-k, -c]])
    b = np.array([draw(coeff), draw(coeff)])
    quad = np.array([[draw(coeff) for _ in range(3)] for _ in range(2)])
    bilinear = np.array([draw(coeff), draw(coeff)])

    def field(t, x, u, d):
        x1, x2 = x[..., 0:1], x[..., 1:2]
        monomials = np.concatenate((x1 * x1, x1 * x2, x2 * x2), axis=-1)
        return (x @ A.T + u[..., 0:1] * b + monomials @ quad.T
                + x * u[..., 0:1] * bilinear + d)

    plant = PlantModel(name="poly", n=2, m=1, p=1, field=field,
                       output=lambda x: x[..., 0:1])
    return plant, A


class TestPolynomialPlantExactness:
    @settings(max_examples=40, deadline=None)
    @given(plant_and_A=polynomial_plants(),
           x0=arrays(np.float64, 2, elements=st.floats(-0.5, 0.5)),
           d=arrays(np.float64, 2, elements=st.floats(-0.5, 0.5)),
           tone=st.tuples(st.floats(-1.0, 1.0), st.floats(0.2, 3.0),
                          st.floats(0.0, 1.0)))
    def test_generic_remainder_keeps_x_equal_to_xp_plus_xs(
            self, plant_and_A, x0, d, tone):
        # The finite-difference origin Jacobian and the generic
        # remainder f - A1 xp - B1 up, which no shipped plant uses.
        plant, A = plant_and_A
        dec = make_decomposition(plant)
        assert dec.remainder_field is None
        np.testing.assert_allclose(dec.A1, A, atol=1e-8)
        amp, w, split = tone
        [dev] = decomposition_deviation(
            dec, one_signal(lambda t: [amp * math.sin(w * t)],
                            lambda t: [split * amp * math.sin(w * t)]),
            d=d, x0=x0, t_end=0.25, dt=0.01)
        assert dev < 1e-6


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
