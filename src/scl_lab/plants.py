"""Benchmark plants, scenarios, input blocks, and the closed-loop harness.

The ex1 field indexes components as ``x.T[k]``: a float64 scalar on one
state and the ``(B,)`` columns on a batch.  The ex3 field reads one
float64 state and its input as Python floats (``x.tolist()``) and any
other state as ``x.T[k]``; either skips the per-call array dispatch of a
single-lane step (README, simulation conventions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .numerics import (
    DEFAULT_DT,
    DIVERGENCE_LIMIT,
    NonFiniteState,
    as_vector,
    matvec,
    rk4_step,
    step_count,
)


@dataclass(frozen=True)
class Saturation:
    """Symmetric-or-not hard input clamp into [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("saturation bounds must satisfy lo < hi")

    def __call__(self, u):
        # np.clip's bits, NaN included, at half its call overhead, while
        # neither bound is +-0 (numpy leaves a +-0 tie's sign undocumented).
        return np.minimum(self.hi, np.maximum(self.lo, u))


@dataclass(frozen=True)
class PlantModel:
    """Nonlinear plant x' = field(t, x, u_eff, d), y = output(x).

    ``field`` and ``output`` take one state ``(n,)`` or a batch
    ``(B, n)``, row for row (README, simulation conventions); a field
    that rounds its batch differently replays to rounding noise, not
    0.0.  ``field`` receives the input after ``saturation`` and any
    scenario delay.  ``analytic_jacobian`` is the exact (A, B) at the
    origin, when known; ``remainder_field(t, x, xs, u, u_s)`` is the
    hand-derived remainder that ``lemma1-check`` certifies.
    """

    name: str
    n: int
    m: int
    p: int
    field: Callable
    output: Callable
    analytic_jacobian: Optional[Tuple[np.ndarray, np.ndarray]] = None
    saturation: Optional[Saturation] = None
    remainder_field: Optional[Callable] = None

    def nominal_field(self, t, x, u):
        """Disturbance-free field with the known saturation block applied.

        This is the model a controller-side observer is allowed to use:
        it knows the plant equations and the saturation, never the
        disturbance or an unmodeled input delay.
        """
        u_eff = self.saturation(u) if self.saturation is not None else u
        return self.field(t, x, u_eff, 0.0)


@dataclass(frozen=True)
class Scenario:
    """One benchmark run: initial state, disturbance, blocks, horizon."""

    label: str
    x0: np.ndarray
    t_end: float
    d: Optional[np.ndarray] = None
    input_delay: float = 0.0
    reference: Optional[Callable] = None  # y_d(t); None means stabilization

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 <= self.input_delay < math.inf:
            raise ValueError("input delay must be non-negative and finite")
        for name in ("x0", "d"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")

    def grid(self, dt: float, t_end: Optional[float] = None) -> Tuple[int, int]:
        """(steps, lag): ``dt`` steps over ``t_end`` (default the horizon)
        and over the input delay; GridError unless dt divides both."""
        steps = step_count(0.0, self.t_end if t_end is None else t_end, dt)
        lag = step_count(0.0, self.input_delay, dt) if self.input_delay > 0.0 else 0
        return steps, lag

    def disturbance(self, n: int) -> np.ndarray:
        if self.d is None:
            return np.zeros(n)
        return as_vector(self.d, dim=n, name="d")

    def ref(self, t: float) -> float:
        return float(self.reference(t)) if self.reference is not None else 0.0

    @property
    def tracking(self) -> bool:
        return self.reference is not None


@dataclass
class SimulationTrace:
    """Uniform-grid record of one closed-loop run; ``u_p``, ``u_s`` and
    ``xhat_s`` are what the law's ``channels`` reported each step, and
    the README's simulation conventions list the derived columns."""

    t: np.ndarray
    x: np.ndarray
    u_cmd: np.ndarray
    u_applied: np.ndarray
    u_p: np.ndarray
    u_s: np.ndarray
    xhat_p: np.ndarray
    xhat_s: np.ndarray
    y: np.ndarray
    y_d: np.ndarray
    sat_active: np.ndarray
    dt: float
    diverged: bool = False
    divergence_time: Optional[float] = None
    singular_events: int = 0
    near_singular_events: int = 0
    tracking: bool = False

    def __len__(self) -> int:
        return self.t.shape[0]


# --- Example plants -------------------------------------------------------

def _ex1_field(t, x, u, d):
    x1 = x.T[0]
    return (-4.0 * x1 + x1 * u.T[0])[..., None] + d


def _first_state(x):  # the output y = x1 of ex1 and ex3
    return x[..., 0:1]


EX2_A = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [-4.0, -6.0, -4.0]])
EX2_B = np.array([0.0, 0.0, 1.0])
EX2_C = np.array([-1.0, 0.0, 1.0])
EX2_SAT = Saturation(-2.0, 2.0)


def _ex2_field(t, x, u, d):
    return matvec(EX2_A, x) + u[..., 0:1] * EX2_B + d


def _ex2_output(x):
    return (x @ EX2_C)[..., None]


def _ex2_remainder(t, x, xs, u, u_s):
    # A xs + b (sat(u) - u) + b u_s; the trailing term vanishes for the
    # benchmark split u_p = u.
    drive = EX2_SAT(u[..., 0:1]) - u[..., 0:1] + u_s[..., 0:1]
    return xs @ EX2_A.T + drive * EX2_B


def _ex3_field(t, x, u, d):
    if x.ndim == 1 and x.dtype.type is np.float64:  # float32 products round in float32
        (x1, x2), v = x.tolist(), u.tolist()[0]
    else:
        x1, x2, v = x.T[0], x.T[1], u.T[0]
    out = np.empty(x.shape)
    o = out.T
    o[0] = x2 + np.sin(x2)
    o[1] = -2.0 * x1 - 3.0 * x2 + 2.0 * x2 * x2 + v
    out += d
    return out


def _ex3_remainder(t, x, xs, u, u_s):
    # The sin and quadratic terms read the measured x2; only this
    # reading matches the generic remainder f - A1 xp - B1 up term by
    # term (the exactness harness certifies it).
    x2 = x.T[1]
    s1 = xs.T[0]
    s2 = xs.T[1]
    out = np.empty(xs.shape)
    o = out.T
    o[0] = 2.0 * s2 - x2 + np.sin(x2)
    o[1] = -2.0 * s1 - 3.0 * s2 + 2.0 * x2 * x2 + u_s.T[0]
    return out


def _ex2_reference(t: float) -> float:
    return math.sin(0.25 * t) if t <= 4.0 * math.pi else 0.0


def build_example1() -> Tuple[PlantModel, Scenario]:
    """Scalar bilinear plant x' = -4x + x u + d, y = x.

    Scenario: constant reference y_d = 20, constant disturbance d = 3,
    x0 = -1.  The horizon is 30 s: the remainder state contracts at rate
    4 - u, and u settles at 77/20 = 3.85, so the true output needs about
    27 s to come within 2 percent of the reference.
    """
    plant = PlantModel(
        name="ex1", n=1, m=1, p=1,
        field=_ex1_field, output=_first_state,
        analytic_jacobian=(np.array([[-4.0]]), np.array([[0.0]])),
    )
    scenario = Scenario(
        label="nominal", x0=np.array([-1.0]), t_end=30.0,
        d=np.array([3.0]), reference=lambda t: 20.0,
    )
    return plant, scenario


def build_example2() -> Tuple[PlantModel, Scenario]:
    """Third-order non-minimum-phase plant with a +/-2 input saturation.

    x' = A x + b sat(u), y = c'x; the reference is a half sine,
    sin(0.25 t) up to 4*pi and zero afterwards, over a 25 s horizon.
    """
    plant = PlantModel(
        name="ex2", n=3, m=1, p=1,
        field=_ex2_field, output=_ex2_output,
        analytic_jacobian=(EX2_A.copy(), EX2_B.reshape(3, 1).copy()),
        saturation=EX2_SAT,
        remainder_field=_ex2_remainder,
    )
    scenario = Scenario(
        label="nominal", x0=np.zeros(3), t_end=25.0,
        reference=_ex2_reference,
    )
    return plant, scenario


def build_example3() -> Tuple[PlantModel, List[Scenario]]:
    """Two-state plant with a mismatched sin nonlinearity, four scenarios.

    x1' = x2 + sin x2 + d1, x2' = -2 x1 - 3 x2 + 2 x2^2 + u + d2.
    Scenarios: (i) x0=[2,2]; (ii) x0=[5,5]; (iii) x0=[2,2], d=[1,1];
    (iv) x0=[2,2] with a 0.2 s input delay.  All stabilization runs over
    10 s.
    """
    plant = PlantModel(
        name="ex3", n=2, m=1, p=1,
        field=_ex3_field, output=_first_state,
        analytic_jacobian=(np.array([[0.0, 2.0], [-2.0, -3.0]]),
                           np.array([[0.0], [1.0]])),
        remainder_field=_ex3_remainder,
    )
    scenarios = [
        Scenario(label="i", x0=np.array([2.0, 2.0]), t_end=10.0),
        Scenario(label="ii", x0=np.array([5.0, 5.0]), t_end=10.0),
        Scenario(label="iii", x0=np.array([2.0, 2.0]), t_end=10.0,
                 d=np.array([1.0, 1.0])),
        Scenario(label="iv", x0=np.array([2.0, 2.0]), t_end=10.0,
                 input_delay=0.2),
    ]
    return plant, scenarios


EXAMPLES = ("ex1", "ex2", "ex3")


def build_example(name: str) -> Tuple[PlantModel, List[Scenario]]:
    """A fresh (plant, scenarios) of one example; ex1 and ex2 have one
    scenario.  The builder is looked up at each call, so a rebound
    ``build_example1..3`` (an instrumented one, say) is the one that runs."""
    if name not in EXAMPLES:
        raise ValueError(f"unknown example {name!r}; choose from {EXAMPLES}")
    if name == "ex3":
        return build_example3()
    plant, scenario = build_example1() if name == "ex1" else build_example2()
    return plant, [scenario]


# --- Closed-loop harness --------------------------------------------------

def simulate(plant: PlantModel, law, scenario: Scenario,
             dt: float = DEFAULT_DT, t_end: Optional[float] = None) -> SimulationTrace:
    """Run one closed-loop simulation by the README's simulation
    conventions (sampled or stage-fed, delay, divergence stop).

    The disturbance is applied to the plant only; the law never sees it.
    The law receives the commanded input history only through its own
    internal state (an input delay is an unmodeled uncertainty).
    """
    n_steps, lag = scenario.grid(dt, t_end)

    n, m = plant.n, plant.m
    x = as_vector(scenario.x0, dim=n, name="x0").copy()
    d_vec = scenario.disturbance(n)
    sat = plant.saturation

    law.reset()
    N = n_steps + 1
    rec_x = np.empty((N, n))
    # lag rows of zero fill, then the commands: row k is the delayed
    # command of step k.
    rec_ucmd = np.zeros((lag + N, m))
    rec_up = np.empty((N, m))
    rec_us = np.empty((N, m))
    rec_xhs = np.empty((N, n))
    rec_yd = np.empty(N)

    field = plant.field
    stage_fed = law.stage_feedback and lag == 0

    def rate(tau, xi):
        # rk4_step's first stage is the sampled x, whose command u_applied holds.
        if stage_fed and xi is not x:
            u = law.control_clamped(xi)
            return field(tau, xi, sat(u) if sat is not None else u, d_vec)
        return field(tau, xi, u_applied, d_vec)

    divergence_time = None
    rows = 0
    for k in range(N):
        t = k * dt
        ref = scenario.ref(t)
        try:
            u_cmd = as_vector(law.step(x, ref, t, dt), dim=m, name="u")
            finite = all(map(math.isfinite, u_cmd.tolist()))
        except NonFiniteState:  # raised by the law's own observer
            finite = False
        if not finite:
            divergence_time = t
            break
        rec_ucmd[lag + k] = u_cmd
        u_applied = rec_ucmd[k] if sat is None else sat(rec_ucmd[k])

        rec_x[k] = x
        rec_up[k], rec_us[k], rec_xhs[k] = law.channels(u_cmd)
        rec_yd[k] = ref
        rows = k + 1
        if k == n_steps:
            break

        try:
            x = rk4_step(rate, t, x, dt)
            # x is the finite (n,) state, so the builtins compare its floats.
            bounded = max(map(abs, x.tolist())) <= DIVERGENCE_LIMIT
        except NonFiniteState:
            bounded = False
        if not bounded:
            divergence_time = t + dt
            break

    # Nothing below feeds back, so it is derived from the record after
    # the loop.  u_applied is a copy, never a view of the command record;
    # a row is saturated where it differs from the delayed command.
    delayed = rec_ucmd[:rows]
    u_applied = sat(delayed) if sat is not None else delayed.copy()
    y = plant.output(rec_x[:rows])
    if np.shape(y) != (rows, plant.p):
        raise ValueError(
            f"output of {plant.name!r} must map (B, n) states to (B, {plant.p})")
    return SimulationTrace(
        t=np.arange(rows) * dt, x=rec_x[:rows], u_cmd=rec_ucmd[lag:lag + rows],
        u_applied=u_applied, u_p=rec_up[:rows], u_s=rec_us[:rows],
        xhat_p=rec_x[:rows] - rec_xhs[:rows], xhat_s=rec_xhs[:rows],
        y=y, y_d=rec_yd[:rows], dt=dt,
        sat_active=np.any(u_applied != delayed, axis=1),
        diverged=divergence_time is not None, divergence_time=divergence_time,
        singular_events=law.singular_count,
        near_singular_events=law.near_singular_count,
        tracking=scenario.tracking,
    )
