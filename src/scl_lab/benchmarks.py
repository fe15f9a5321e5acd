"""Benchmark wiring: the five control pipelines, with every gain fixed
once here, and regeneration of the comparison table.  Each LQR design
solves its own Riccati problem, on its own linearized model, with the
shared weights LQR_Q and LQR_R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .controllers import (
    AdrcLaw,
    BacksteppingSecondary,
    ControlLaw,
    FlcEx3,
    LqrLaw,
    PidTrackingLaw,
    RflcEx3,
)
from .decomposition import CompositeLaw, example_decomposition, run_jobs
from .metrics import PerformanceReport, report
from .numerics import CareProblem, DEFAULT_DT, solve_care
from .plants import (
    EXAMPLES,
    PlantModel,
    Scenario,
    SimulationTrace,
    build_example,
    simulate,
)

METHODS = ("sclc", "jlc", "flc", "rflc", "adrc")
SCENARIOS_EX3 = tuple(sc.label for sc in build_example("ex3")[1])

PID_EX1 = (0.66, 1.33, -0.02)  # (kp, ki, kd)
PID_EX2 = (-0.5, -1.3, 0.0)
LQR_Q = np.diag([10.0, 10.0])
LQR_R = np.array([[1.0]])
BACKSTEPPING = (10.0, 10.0)  # (a, c)
ADRC_OMEGA0 = 2.0
ADRC_B = 2.0  # 1 + cos x2 at the origin

# Design models for the methods that do not linearize about the origin
# Jacobians: exact linearization yields a double integrator, and the
# disturbance-rejection model is a double integrator with input gain b.
FLC_DESIGN = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
ADRC_DESIGN = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [ADRC_B]]))


class ConfigError(ValueError):
    """Invalid example/method/scenario combination or option."""


_REJECTIONS = {
    ("ex1", "jlc"): "the bilinear plant has no fixed equilibrium to expand "
                    "about (any input is an equilibrium input at x = 0), so a "
                    "Taylor-expansion pipeline cannot be constructed",
    ("ex1", "flc"): "the input transform loses the plant at x = 0, which the "
                    "trajectory must cross on its way to the reference",
    ("ex1", "rflc"): "not part of the benchmark set for the bilinear example",
    ("ex1", "adrc"): "not part of the benchmark set for the bilinear example",
    ("ex2", "flc"): "the saturation block is irreversible, so the real input "
                    "cannot be recovered from the linearizing transform",
    ("ex2", "rflc"): "the saturation block is irreversible, so the real input "
                     "cannot be recovered from the linearizing transform",
    ("ex2", "adrc"): "not part of the benchmark set for the saturated example",
}


def lqr_gain(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Feedback gain K (for u = -K x) with the shared Q, R weights."""
    _, K = solve_care(CareProblem(A, B, LQR_Q, LQR_R))
    return K


@dataclass
class RunSetup:
    scenario: Scenario
    plant: PlantModel
    law: ControlLaw


def _law(example: str, method: str, plant: PlantModel,
         scenario: Scenario) -> ControlLaw:
    """The law of one valid benchmark cell, built on that cell's plant
    and scenario: the one place a cell's controller is chosen."""
    dec = example_decomposition(plant, scenario)
    if example != "ex3":
        pid = PidTrackingLaw(PID_EX1 if example == "ex1" else PID_EX2,
                             lambda x: float(plant.output(x)[0]))
        return CompositeLaw(dec, pid) if method == "sclc" else pid
    K = lqr_gain(*{"flc": FLC_DESIGN, "adrc": ADRC_DESIGN}.get(method, (dec.A1, dec.B1)))
    if method == "sclc":
        return CompositeLaw(dec, LqrLaw(K), BacksteppingSecondary(*BACKSTEPPING))
    if method == "adrc":
        return AdrcLaw(ADRC_B, ADRC_OMEGA0, K)
    return {"jlc": LqrLaw, "flc": FlcEx3, "rflc": RflcEx3}[method](K)


def build_run(example: str, method: str,
              scenario: Optional[str] = None) -> RunSetup:
    """Resolve one benchmark cell into (scenario, plant, law).

    Rejects combinations the benchmark set rules out, with the reason.
    """
    if example not in EXAMPLES:
        raise ConfigError(f"unknown example {example!r}; choose from {EXAMPLES}")
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    if (example, method) in _REJECTIONS:
        raise ConfigError(f"{method} on {example}: {_REJECTIONS[(example, method)]}")
    plant, scenarios = build_example(example)
    labels = tuple(sc.label for sc in scenarios)
    if len(labels) == 1 and scenario is not None:
        raise ConfigError(f"{example} has a single scenario; drop --scenario")
    label = labels[0] if scenario is None else scenario
    if label not in labels:
        raise ConfigError(f"unknown scenario {label!r}; choose from {labels}")
    sc = scenarios[labels.index(label)]
    return RunSetup(sc, plant, _law(example, method, plant, sc))


def run(example: str, method: str, scenario: Optional[str] = None,
        dt: float = DEFAULT_DT) -> Tuple[SimulationTrace, PerformanceReport]:
    """Simulate one benchmark cell over its horizon and evaluate it."""
    setup = build_run(example, method, scenario)
    trace = simulate(setup.plant, setup.law, setup.scenario, dt=dt)
    return trace, report(trace)


@dataclass
class Table1:
    """IAE/ITAE of the five pipelines over the four ex3 scenarios."""

    cells: Dict[Tuple[str, str], PerformanceReport]

    def rows(self) -> List[List[str]]:
        """Rows shaped like the published comparison: scenario x
        {IAE, ITAE} with one column per method."""
        out = [["Sce.", "Index"] + [m.upper() for m in METHODS]]
        for sc in SCENARIOS_EX3:
            for index in ("iae", "itae"):
                values = [getattr(self.cells[(sc, method)], index) for method in METHODS]
                out.append([f"({sc})", index.upper()]
                           + ["-" if v is None else f"{v:.3f}" for v in values])
        return out


def _table1_cell(scenario: str, method: str, dt: float) -> PerformanceReport:
    """One table1 cell's report; its trace stays where the cell ran."""
    return run("ex3", method, scenario=scenario, dt=dt)[1]


def table1(dt: float = DEFAULT_DT) -> Table1:
    """Run all 5 methods x 4 scenarios of ex3, once ``dt`` fits every grid;
    the sclc and adrc cells, which run an observer, in run_jobs's worker."""
    for sc in build_example("ex3")[1]:
        sc.grid(dt)
    cells = [(sc, method) for sc in SCENARIOS_EX3 for method in METHODS]
    reports = run_jobs([(method in ("sclc", "adrc"), _table1_cell, (sc, method, dt))
                        for sc, method in cells])
    return Table1(dict(zip(cells, reports)))
