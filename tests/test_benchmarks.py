"""The benchmark cell table: every (example, method) pair either builds
its one law or is rejected with the reason the benchmark set gives."""

import itertools
import math
import multiprocessing
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import scl_lab
from scl_lab import benchmarks, plants
from scl_lab.benchmarks import (
    ADRC_DESIGN,
    BACKSTEPPING,
    EXAMPLES,
    FLC_DESIGN,
    METHODS,
    PID_EX1,
    PID_EX2,
    SCENARIOS_EX3,
    ConfigError,
    build_run,
    lqr_gain,
)
from scl_lab.controllers import (
    NEAR_SINGULAR,
    AdrcLaw,
    BacksteppingSecondary,
    FlcEx3,
    LqrLaw,
    PidTrackingLaw,
    RflcEx3,
    ZeroLaw,
)
from scl_lab.decomposition import CompositeLaw, make_decomposition
from scl_lab.metrics import report
from scl_lab.numerics import DIVERGENCE_LIMIT, GridError
from scl_lab.plants import build_example3, simulate
from test_golden import TABLE1

# Valid cell -> (law type, primary type, secondary type); None for the
# single-channel laws.
CELLS = {
    ("ex1", "sclc"): (CompositeLaw, PidTrackingLaw, ZeroLaw),
    ("ex2", "sclc"): (CompositeLaw, PidTrackingLaw, ZeroLaw),
    ("ex2", "jlc"): (PidTrackingLaw, None, None),
    ("ex3", "sclc"): (CompositeLaw, LqrLaw, BacksteppingSecondary),
    ("ex3", "jlc"): (LqrLaw, None, None),
    ("ex3", "flc"): (FlcEx3, None, None),
    ("ex3", "rflc"): (RflcEx3, None, None),
    ("ex3", "adrc"): (AdrcLaw, None, None),
}

GRID = list(itertools.product(EXAMPLES, METHODS))

# The 23 runnable (example, method, scenario) cells.
RUNS = ([(ex, m, None) for ex, m in CELLS if ex != "ex3"]
        + [("ex3", m, sc) for m in METHODS for sc in SCENARIOS_EX3])


def test_cells_and_rejections_partition_the_grid():
    assert len(GRID) == 15
    assert len(CELLS) == 8
    assert set(CELLS).isdisjoint(benchmarks._REJECTIONS)
    assert set(CELLS) | set(benchmarks._REJECTIONS) == set(GRID)


@pytest.mark.parametrize("example,method", GRID)
def test_cell_builds_its_law_or_is_rejected(example, method):
    if (example, method) not in CELLS:
        with pytest.raises(ConfigError) as err:
            build_run(example, method)
        assert benchmarks._REJECTIONS[(example, method)] in str(err.value)
        return
    law_type, primary_type, secondary_type = CELLS[(example, method)]
    law = build_run(example, method).law
    assert type(law) is law_type
    if law_type is CompositeLaw:
        assert type(law.primary) is primary_type
        assert type(law.secondary) is secondary_type
        assert not law.stage_feedback
    if law_type is LqrLaw:
        assert law.stage_feedback


def bits(gains):
    """The gains' bits, each of them a Python float."""
    assert all(type(g) is float for g in gains), gains
    return [g.hex() for g in gains]


def test_laws_hold_the_benchmark_numbers():
    # Each law keeps the gains it was built from, bit for bit.
    for law, gains in ((build_run("ex1", "sclc").law.primary, PID_EX1),
                       (build_run("ex2", "sclc").law.primary, PID_EX2),
                       (build_run("ex2", "jlc").law, PID_EX2)):
        assert bits([law.kp, law.ki, law.kd]) == bits(gains)
    dec = make_decomposition(build_example3()[0])
    designs = {"flc": FLC_DESIGN, "rflc": (dec.A1, dec.B1), "adrc": ADRC_DESIGN}
    for sc in SCENARIOS_EX3:
        secondary = build_run("ex3", "sclc", sc).law.secondary
        assert bits([secondary.a, secondary.c]) == bits(BACKSTEPPING)
        for method, design in designs.items():
            K = lqr_gain(*design).ravel().tolist()
            assert bits(build_run("ex3", method, sc).law.K) == bits(K), (method, sc)


@pytest.mark.parametrize("method", METHODS)
def test_ex3_cell_builds_one_plant(method, monkeypatch):
    built = []
    original = plants.build_example3

    def counting_build():
        built.append(original())
        return built[-1]

    monkeypatch.setattr(plants, "build_example3", counting_build)
    setup = build_run("ex3", method, "iii")
    assert len(built) == 1
    plant, scenarios = built[0]
    assert setup.plant is plant and setup.scenario is scenarios[2]
    if method == "sclc":
        # The observer integrates the model of the plant that runs.
        assert setup.law.dec.model_field.__self__ is plant


def test_set_up_imports_no_scipy():
    # Every CLI invocation pays for what set-up imports: the CLI module
    # and every valid cell, the LQR designs included, stay numpy-only.
    # run_jobs imports its process pool only when a forked run may start.
    code = ("import itertools, sys\n"
            "import scl_lab.cli\n"
            "from scl_lab.benchmarks import (EXAMPLES, METHODS, SCENARIOS_EX3,\n"
            "                                ConfigError, build_run)\n"
            "built = 0\n"
            "for ex, method in itertools.product(EXAMPLES, METHODS):\n"
            "    for sc in SCENARIOS_EX3 if ex == 'ex3' else (None,):\n"
            "        try:\n"
            "            build_run(ex, method, sc)\n"
            "        except ConfigError:\n"
            "            continue\n"
            "        built += 1\n"
            "forbidden = {'scipy', 'multiprocessing', 'concurrent'}\n"
            "print(built, sorted(m for m in sys.modules if m.split('.')[0] in forbidden))\n")
    src = os.path.dirname(os.path.dirname(scl_lab.__file__))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["23", "[]"]


# (singular, near-singular) counts of the first 2 s; every other cell
# has none.
GUARD_COUNTS = {("flc", "ii"): (0, 8), ("rflc", "ii"): (0, 5),
                ("rflc", "iv"): (1, 25)}
TRACE_ARRAYS = ("t", "x", "u_cmd", "u_applied", "u_p", "u_s", "xhat_p",
                "xhat_s", "y", "y_d", "sat_active")


@pytest.mark.parametrize("example,method,scenario", RUNS)
def test_a_reused_law_reruns_bit_for_bit(example, method, scenario):
    # simulate resets the law, so a second run on the same law object
    # repeats the first; the counters come from the reset, not a diff.
    setup = build_run(example, method, scenario)
    first, second = (simulate(setup.plant, setup.law, setup.scenario, t_end=2.0)
                     for _ in range(2))
    for name in TRACE_ARRAYS:
        a, b = getattr(first, name), getattr(second, name)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
    counts = (first.singular_events, first.near_singular_events)
    assert counts == GUARD_COUNTS.get((method, scenario), (0, 0))
    assert (second.diverged, second.singular_events,
            second.near_singular_events) == (first.diverged, *counts)


@pytest.mark.parametrize("method", ["flc", "rflc"])
def test_stage_fed_law_is_evaluated_once_per_state(method):
    # The sample's command drives RK4's first stage, so a delay-free
    # stage-fed run evaluates the law at each sample and at stages 2-4
    # only, never twice on one state, and its guard counts each
    # evaluated state once.
    setup = build_run("ex3", method, "ii")
    law, clamped = setup.law, setup.law.control_clamped
    states, near = [], []

    def counting(x):
        states.append(x)
        near.append(abs(1.0 + math.cos(x[1])) < NEAR_SINGULAR)
        return clamped(x)

    law.control_clamped = counting
    trace = simulate(setup.plant, law, setup.scenario, t_end=2.0)
    steps = len(trace) - 1
    assert not trace.diverged and steps == 2000
    assert len(states) == 4 * steps + 1
    assert len({id(x) for x in states}) == len(states)
    assert trace.near_singular_events == sum(near) == GUARD_COUNTS[(method, "ii")][1]


def test_table1_cells_in_shuffled_order_match_the_pins():
    # Each cell's law is built once and the cells run in an order other
    # than table1's: no state may leak from one run into the next.
    cells = list(TABLE1)
    setups = {(sc, m): build_run("ex3", m, sc) for sc, m in cells}
    random.Random(20240811).shuffle(cells)
    assert cells != list(TABLE1)
    got = {}
    for key in cells:
        setup = setups[key]
        rep = report(simulate(setup.plant, setup.law, setup.scenario))
        got[key] = (rep.classification, repr(rep.iae), repr(rep.itae))
    assert got == TABLE1


def test_table1_checks_every_grid_before_its_first_cell(monkeypatch):
    # 0.0625 divides the 10 s horizons but not (iv)'s 0.2 s delay, so
    # no cell may run: not (i)-(iii), whose grids it fits.
    calls = []

    def counting_run(*args, **kwargs):
        calls.append(args)
        return None, None

    monkeypatch.setattr(benchmarks, "run", counting_run)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    with pytest.raises(GridError, match="does not divide the span 0.2$"), \
            mock.patch.object(os, "fork", side_effect=AssertionError) as fork:
        benchmarks.table1(dt=0.0625)
    assert calls == []
    assert fork.call_count == 0


@pytest.fixture(scope="module")
def coarse_tables():
    """``table1(dt=0.01)`` with 2 usable CPUs, with 1, and with 2 in a
    daemonic process, keyed ``(cpus, daemon)``: the rows, the reprs of
    the cells' reports, the forks and the cells run in the calling
    process (a worker's runs are not seen here)."""
    caller, original = os.getpid(), benchmarks.run
    tables = {}
    for cpus, daemon in ((2, False), (1, False), (2, True)):
        ran_here = []

        def run(example, method, scenario, dt):
            if os.getpid() == caller:
                ran_here.append((scenario, method))
            return original(example, method, scenario, dt)

        with pytest.MonkeyPatch.context() as mp, \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                       raising=False)
            mp.setattr(multiprocessing.current_process(), "daemon", daemon)
            mp.setattr(benchmarks, "run", run)
            table = benchmarks.table1(dt=0.01)
        tables[cpus, daemon] = (table.rows(), repr(table.cells),
                                fork.call_count, ran_here)
    assert multiprocessing.active_children() == []
    return tables


def test_table1_forks_once_with_two_usable_cpus(coarse_tables):
    forks = {key: table[2] for key, table in coarse_tables.items()}
    assert forks == {(2, False): 1, (1, False): 0, (2, True): 0}


def test_table1_has_the_same_rows_and_reports_without_its_worker(coarse_tables):
    # On one CPU, or in a daemonic process, the caller runs the worker's
    # cells itself, with the same bits.
    results = {key: table[:2] for key, table in coarse_tables.items()}
    assert len(set(map(repr, results.values()))) == 1, results
    assert len(results[2, False][0]) == 9


def test_table1_runs_the_observer_cells_in_its_worker(coarse_tables):
    # The sclc and adrc cells go to the worker; the caller runs the rest,
    # each set in table order.
    cells = [(sc, m) for sc in SCENARIOS_EX3 for m in METHODS]
    assert coarse_tables[2, False][3] == [(sc, m) for sc, m in cells
                                          if m not in ("sclc", "adrc")]
    assert coarse_tables[1, False][3] == coarse_tables[2, True][3] == cells


def expm_reference(method, scenario):
    """The design's exact (IAE, ITAE) of an ex3 FLC or RFLC cell.

    In transformed coordinates z with z1 = x1 = y, the closed loop of
    FLC and RFLC is linear, z' = (A - B K) z, so IAE and ITAE are
    integrals of |z1(t)| with z(t) = expm((A - B K) t) z0.
    """
    plant, scenarios = build_example3()
    sc = scenarios[SCENARIOS_EX3.index(scenario)]
    x1, x2 = sc.x0
    if method == "flc":
        (A, B), z2 = FLC_DESIGN, x2 + math.sin(x2)
    else:
        dec = make_decomposition(plant)
        (A, B), z2 = (dec.A1, dec.B1), (x2 + math.sin(x2)) / 2
    M = A - B @ lqr_gain(A, B)

    def y(t):
        return abs((scipy.linalg.expm(M * t) @ np.array([x1, z2]))[0])

    def integral(f):
        return scipy.integrate.quad(f, 0.0, sc.t_end, limit=200,
                                    epsabs=1e-12, epsrel=1e-12)[0]

    return integral(y), integral(lambda t: t * y(t))


def dop853_reference(method, scenario, rtol=1e-11, atol=1e-12, events=None):
    """scipy's DOP853 on the continuous closed loop x' = f(t, x, u(x), d)
    of an ex3 cell, with IAE and ITAE as two extra states."""
    setup = build_run("ex3", method, scenario)
    plant, law, sc = setup.plant, setup.law, setup.scenario
    d = sc.disturbance(plant.n)

    def rate(t, z):
        x = z[:plant.n]
        e = abs(sc.ref(t) - x[0])
        return np.concatenate((plant.field(t, x, law.control_clamped(x), d), [e, t * e]))

    z0 = np.concatenate((sc.x0, [0.0, 0.0]))
    return scipy.integrate.solve_ivp(rate, (0.0, sc.t_end), z0, method="DOP853",
                                     rtol=rtol, atol=atol, events=events)


@pytest.mark.parametrize("method", ["flc", "rflc"])
def test_stage_feedback_realizes_the_continuous_closed_loop(bench, method):
    # Stage feedback integrates the design's loop, not a sampled one: the
    # table's (i) cells match its closed form to the trapezoid rule's error.
    iae, itae = expm_reference(method, "i")
    cell = bench.table().cells[("i", method)]
    assert cell.iae == pytest.approx(iae, rel=1e-6, abs=0)
    assert cell.itae == pytest.approx(itae, rel=1e-6, abs=0)


@pytest.mark.parametrize("scenario", ["i", "iii"])
@pytest.mark.parametrize("method", ["jlc", "flc", "rflc"])
def test_stage_fed_cell_matches_an_adaptive_reference(bench, method, scenario):
    # A delay-free stage-fed cell integrates the continuous closed loop,
    # so DOP853 on that loop reproduces every converged one.
    sol = dop853_reference(method, scenario)
    assert sol.success
    cell = bench.table().cells[(scenario, method)]
    assert cell.classification == "converged"
    assert cell.iae == pytest.approx(sol.y[-2, -1], rel=1e-6, abs=0)
    assert cell.itae == pytest.approx(sol.y[-1, -1], rel=1e-6, abs=0)


@pytest.mark.parametrize("method", ["flc", "rflc"])
def test_adaptive_reference_crosses_the_singular_spike_as_the_design_does(method):
    # On (ii) the fixed-step loop through the 1 + cos x2 = 0 spike does
    # not converge in dt (README, reproduction accuracy), but DOP853 does:
    # it equals the closed form, which checks the reference itself.
    sol = dop853_reference(method, "ii")
    assert sol.success
    iae, itae = expm_reference(method, "ii")
    assert sol.y[-2, -1] == pytest.approx(iae, rel=1e-6, abs=0)
    assert sol.y[-1, -1] == pytest.approx(itae, rel=1e-6, abs=0)


def test_jlc_ii_escapes_in_the_adaptive_reference_within_the_librarys_last_step(bench):
    # JLC (ii) escapes in finite time through the 2 x2^2 term.  As x2
    # grows, sin x2 oscillates ever faster, so DOP853 at the tolerances
    # above takes about 4e5 field calls to reach the library's divergence
    # bound; the escape time itself is the same to 7 digits at rtol 1e-8.
    def escaped(t, z):
        return DIVERGENCE_LIMIT - np.abs(z[:2]).max()

    escaped.terminal = True
    sol = dop853_reference("jlc", "ii", rtol=1e-8, atol=1e-10, events=escaped)
    assert sol.status == 1
    (t_escape,) = sol.t_events[0]
    trace, rep = bench.cell("ex3", "jlc", "ii")
    assert rep.classification == "unstable"
    assert trace.divergence_time - trace.dt < t_escape <= trace.divergence_time < 10.0
