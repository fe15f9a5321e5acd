import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scl_lab.controllers import ControlLaw, ZeroLaw
from scl_lab.metrics import report
from scl_lab.numerics import eigenvalues, is_hurwitz
from scl_lab.plants import (
    EX2_A,
    EX2_B,
    EX2_C,
    PlantModel,
    Saturation,
    Scenario,
    build_example1,
    build_example2,
    build_example3,
    simulate,
)


class ConstantLaw(ControlLaw):
    def __init__(self, value):
        self.value = float(value)

    def step(self, x, ref, t, dt):
        return np.array([self.value])


def field_at(plant, x, u, d=0.0):
    return plant.field(0.0, np.asarray(x, float), np.asarray(u, float), d)


class TestExample1:
    def test_field_values(self):
        plant, _ = build_example1()
        assert field_at(plant, [1.0], [0.0])[0] == pytest.approx(-4.0)
        assert field_at(plant, [0.0], [5.0])[0] == pytest.approx(0.0)
        assert field_at(plant, [2.0], [3.0], d=3.0)[0] == pytest.approx(1.0)

    def test_scenario(self):
        _, sc = build_example1()
        assert sc.x0[0] == -1.0
        assert sc.d[0] == 3.0
        assert sc.ref(0.0) == 20.0 and sc.ref(9.9) == 20.0

    def test_open_loop_settles_at_d_over_four(self):
        plant, sc = build_example1()
        trace = simulate(plant, ZeroLaw(), sc, dt=1e-3, t_end=10.0)
        assert trace.x[-1, 0] == pytest.approx(3.0 / 4.0, abs=1e-9)


SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@st.composite
def clamps(draw):
    # Nonzero bounds: a u of +-0 then never ties with one, so the sign of
    # the result does not rest on numpy's undocumented tie rule.
    bound = st.floats(allow_nan=False).filter(lambda v: v != 0.0)
    lo, hi = sorted((draw(bound), draw(bound)))
    assume(lo < hi)
    shape = draw(st.sampled_from([(1,), (3,), (20, 1), (7, 3)]))
    u = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        SPECIAL, st.sampled_from([lo, hi, -lo, -hi]), st.floats())))
    return Saturation(lo, hi), u


class TestSaturation:
    @settings(max_examples=300, deadline=None)
    @given(case=clamps())
    def test_equals_np_clip_bit_for_bit(self, case):
        sat, u = case
        got, expected = sat(u), np.clip(u, sat.lo, sat.hi)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestExample2:
    def test_saturation(self):
        sat = Saturation(-2.0, 2.0)
        assert sat(3.0) == 2.0
        assert sat(-5.0) == -2.0
        assert sat(1.5) == 1.5

    def test_output_map(self):
        plant, _ = build_example2()
        y = plant.output(np.array([1.0, 0.0, 2.0]))
        assert y[0] == pytest.approx(1.0)

    def test_reference_stops_after_half_sine(self):
        _, sc = build_example2()
        assert sc.ref(4.0 * math.pi + 0.1) == 0.0
        assert sc.ref(2.0 * math.pi) == pytest.approx(1.0)

    def test_open_loop_stable(self):
        lam = eigenvalues(EX2_A)
        assert is_hurwitz(EX2_A)
        assert sorted(np.round(lam.real, 9)) == pytest.approx([-2.0, -1.0, -1.0])
        plant, sc = build_example2()
        bumped = Scenario(label="bump", x0=np.array([1.0, -2.0, 0.5]),
                          t_end=25.0)
        trace = simulate(plant, ZeroLaw(), bumped, dt=1e-3)
        assert np.max(np.abs(trace.x[-1])) < 1e-6

    def test_nonminimum_phase_zeros(self):
        # Invariant zeros from the system-matrix pencil; one must sit in
        # the open right half-plane.
        n = 3
        M = np.block([[EX2_A, EX2_B.reshape(3, 1)],
                      [EX2_C.reshape(1, 3), np.zeros((1, 1))]])
        N = np.block([[np.eye(n), np.zeros((n, 1))],
                      [np.zeros((1, n + 1))]])
        zeros = [z for z in scipy.linalg.eigvals(M, N) if np.isfinite(z)]
        zeros = np.sort_complex(np.asarray(zeros))
        np.testing.assert_allclose(zeros, [-1.0, 1.0], atol=1e-9)
        assert max(z.real for z in zeros) > 0

    def test_constant_command_saturates_throughout(self):
        plant, sc = build_example2()
        trace = simulate(plant, ConstantLaw(10.0), sc, dt=1e-3, t_end=2.0)
        assert np.all(trace.u_applied == 2.0)
        assert np.all(trace.sat_active)

    def test_saturation_flag_compares_with_the_delayed_command(self):
        # Until the 0.2 s delay has passed, the applied input is the zero
        # fill, which the clamp leaves alone: not saturated, although the
        # command of 10 is far outside [-2, 2].
        plant, sc = build_example2()
        delayed = Scenario(label="delayed", x0=sc.x0, t_end=1.0, input_delay=0.2)
        trace = simulate(plant, ConstantLaw(10.0), delayed, dt=1e-3)
        assert len(trace) == 1001
        assert not np.any(trace.sat_active[:200])
        assert np.all(trace.u_applied[:200] == 0.0)
        assert np.all(trace.sat_active[200:])
        assert np.all(trace.u_applied[200:] == 2.0)


class TestExample3:
    def test_field_values(self):
        plant, _ = build_example3()
        np.testing.assert_allclose(field_at(plant, [0.0, 0.0], [0.0]), [0.0, 0.0])
        expected = [math.pi / 2 + 1.0,
                    -3.0 * math.pi / 2 + 2.0 * (math.pi / 2) ** 2]
        np.testing.assert_allclose(field_at(plant, [0.0, math.pi / 2], [0.0]),
                                   expected, atol=1e-12)

    def test_scenarios(self):
        _, scs = build_example3()
        labels = [s.label for s in scs]
        assert labels == ["i", "ii", "iii", "iv"]
        assert np.array_equal(scs[0].x0, [2.0, 2.0])
        assert np.array_equal(scs[1].x0, [5.0, 5.0])
        assert np.array_equal(scs[2].d, [1.0, 1.0])
        assert scs[3].input_delay == 0.2
        assert all(s.t_end == 10.0 for s in scs)

    def test_zero_controller_zero_state_stays_put(self):
        plant, scs = build_example3()
        rest = Scenario(label="rest", x0=np.zeros(2), t_end=1.0)
        trace = simulate(plant, ZeroLaw(), rest, dt=1e-3)
        assert np.all(trace.x == 0.0)
        assert np.all(trace.u_cmd == 0.0)


class TestEquilibria:
    def test_origin_is_equilibrium_for_every_example(self):
        plants = [build_example1()[0], build_example2()[0], build_example3()[0]]
        for plant in plants:
            dx = plant.field(0.0, np.zeros(plant.n), np.zeros(plant.m), 0.0)
            np.testing.assert_allclose(dx, np.zeros(plant.n), atol=1e-15)


class ReplayLaw(ControlLaw):
    """Emits the given commands in order, one per step."""

    def __init__(self, commands):
        self.commands = commands
        self.reset()

    def reset(self):
        self.k = 0

    def step(self, x, ref, t, dt):
        self.k += 1
        return self.commands[self.k - 1:self.k]


class TestScenario:
    @pytest.mark.parametrize("field,value", [
        ("t_end", 0.0), ("t_end", -1.0), ("t_end", math.nan),
        ("t_end", math.inf), ("input_delay", -0.1), ("input_delay", math.nan),
        ("input_delay", math.inf)])
    def test_rejects_non_positive_horizon_and_negative_delay(self, field, value):
        kwargs = {"t_end": 1.0, field: value}
        with pytest.raises(ValueError, match=field.replace("_", "[_ ]")):
            Scenario(label="bad", x0=np.zeros(2), **kwargs)

    @pytest.mark.parametrize("field,value", [
        ("x0", [math.nan, 0.0]), ("x0", [0.0, -math.inf]),
        ("d", [math.inf, 0.0]), ("d", [0.0, math.nan])])
    def test_rejects_non_finite_initial_state_and_disturbance(self, field, value):
        # Simulated, these gave a trace that diverged at t=0.
        kwargs = {"x0": np.zeros(2), field: np.array(value)}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            Scenario(label="bad", t_end=1.0, **kwargs)


class TestHarness:
    @settings(max_examples=60, deadline=None)
    @given(lag=st.integers(0, 50),
           commands=hnp.arrays(np.float64, st.integers(2, 120),
                               elements=st.floats(-10.0, 10.0)))
    def test_delay_shifts_the_command_record(self, lag, commands):
        # The applied input is the command record shifted by lag rows,
        # zero-filled, bit for bit: identity at lag 0, a pure shift (so
        # linear) otherwise.
        dt = 1e-3
        plant, _ = build_example3()
        sc = Scenario(label="replay", x0=np.zeros(2),
                      t_end=(len(commands) - 1) * dt, input_delay=lag * dt)
        trace = simulate(plant, ReplayLaw(commands), sc, dt=dt)
        assert len(trace) == len(commands) and not trace.diverged
        assert trace.u_cmd[:, 0].tobytes() == commands.tobytes()
        expected = np.concatenate((np.zeros(lag), commands))[:len(commands)]
        assert trace.u_applied[:, 0].tobytes() == expected.tobytes()
        assert not np.any(trace.sat_active)

    def test_step_that_does_not_divide_the_delay_is_rejected(self):
        # round(0.2 / 0.0625) = 3 would silently run a 0.1875 s delay;
        # 0.0625 does divide the 10 s horizon.
        plant, scs = build_example3()
        with pytest.raises(ValueError, match="does not divide"):
            simulate(plant, ZeroLaw(), scs[3], dt=0.0625)

    def test_delay_block_shifts_applied_input(self):
        plant, scs = build_example3()
        trace = simulate(plant, ConstantLaw(1.0), scs[3], dt=1e-3, t_end=1.0)
        # 0.2 s of fill value, then the command appears.
        assert np.all(trace.u_applied[:200] == 0.0)
        assert np.all(trace.u_applied[200:] == 1.0)
        assert np.all(trace.u_cmd == 1.0)

    def test_divergent_run_truncates_cleanly(self):
        plant, scs = build_example3()

        class PositiveFeedback(ControlLaw):
            def step(self, x, ref, t, dt):
                return np.array([100.0 * x[1] ** 2 + 10.0])

        trace = simulate(plant, PositiveFeedback(), scs[1], dt=1e-3)
        assert trace.diverged
        assert trace.divergence_time is not None
        assert np.all(np.isfinite(trace.x))
        assert len(trace) < 10001

    def test_non_finite_command_truncates_cleanly(self):
        plant, scs = build_example3()

        class NanFromHalfSecond(ControlLaw):
            def step(self, x, ref, t, dt):
                return np.array([math.nan if t >= 0.5 else 0.0])

        trace = simulate(plant, NanFromHalfSecond(), scs[0], dt=1e-3)
        assert len(trace) == 500
        assert trace.diverged
        assert trace.divergence_time == 0.5
        assert np.all(np.isfinite(trace.u_cmd))
        assert np.all(np.isfinite(trace.u_applied))

    def test_report_on_divergence_before_first_sample(self):
        # A NaN first command leaves an empty trace; the report must
        # still classify it, with no final state to measure.
        plant, scs = build_example3()

        class NanAlways(ControlLaw):
            def step(self, x, ref, t, dt):
                return np.array([math.nan])

        trace = simulate(plant, NanAlways(), scs[0], dt=1e-3)
        assert len(trace) == 0
        assert trace.diverged and trace.divergence_time == 0.0
        rep = report(trace)
        assert rep.classification == "unstable"
        assert rep.iae is None and rep.itae is None
        assert rep.final_state_norm is None
        assert json.loads(json.dumps(rep.as_dict()))["final_state_norm"] is None

    def test_output_must_take_a_batch(self):
        plant, _ = build_example1()
        per_state = PlantModel(name="per-state", n=1, m=1, p=1, field=plant.field,
                               output=lambda x: x[0])
        rest = Scenario(label="rest", x0=np.zeros(1), t_end=0.01)
        with pytest.raises(ValueError, match="must map"):
            simulate(per_state, ZeroLaw(), rest, dt=1e-3)

    def test_dt_must_divide_horizon(self):
        plant, sc = build_example1()
        with pytest.raises(ValueError):
            simulate(plant, ZeroLaw(), sc, dt=3e-4, t_end=1.0)
