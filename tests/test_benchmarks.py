"""The benchmark cell table: every (example, method) pair either builds
its one law or is rejected with the reason the benchmark set gives."""

import itertools

import pytest

from scl_lab import benchmarks
from scl_lab.benchmarks import EXAMPLES, METHODS, ConfigError, build_run
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
        assert not law.primary.stage_feedback
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
