"""The benchmark cell table: every (example, method) pair either builds
its one law or is rejected with the reason the benchmark set gives."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import scl_lab
from scl_lab import benchmarks
from scl_lab.benchmarks import EXAMPLES, METHODS, SCENARIOS_EX3, ConfigError, build_run
from scl_lab.controllers import (
    AdrcLaw,
    BacksteppingSecondary,
    FlcEx3,
    LqrLaw,
    PidTrackingLaw,
    RflcEx3,
    ZeroLaw,
)
from scl_lab.decomposition import CompositeLaw
from scl_lab.metrics import report
from scl_lab.plants import simulate
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


@pytest.mark.parametrize("method", METHODS)
def test_ex3_cell_builds_one_plant(method, monkeypatch):
    built = []
    original = benchmarks.build_example3

    def counting_build():
        built.append(original())
        return built[-1]

    monkeypatch.setattr(benchmarks, "build_example3", counting_build)
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
    # The exactness sweep's process pool is imported only when it runs.
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
GUARD_COUNTS = {("flc", "ii"): (0, 10), ("rflc", "ii"): (0, 6),
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
