"""Additive decomposition of a nonlinear plant into a linear primary part
and an exact nonlinear remainder, plus the open-loop observer that
recovers both parts from measured signals and the composite two-channel
control law built on top of them.

The construction: pick (A1, B1) for the primary system

    xp' = A1 xp + B1 up + d,        xp(0) = x0,

and the remainder (secondary) system is whatever is left,

    xs' = f(x, u) - A1 xp - B1 up,  xs(0) = 0,

so x = xp + xs holds identically.  Written in terms of measurable
signals only, the secondary dynamics become

    xs' = f(x, u) + A1 (xs - x) + B1 (us - u),

which is exactly the observer ODE: integrating it from zero initial
state reproduces xs, and xp = x - xs follows algebraically.  A1 must be
Hurwitz for the open-loop observer to be usable.

A Decomposition is the model only, with no run state: ``advance`` maps
one remainder estimate to the next.  The estimate belongs to whoever
integrates it, the composite law during a run or ``replay_observer``
afterwards, so one model can back any number of laws and replays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .controllers import ControlLaw, ZeroLaw
from .numerics import (
    NonFiniteState,
    as_matrix,
    as_vector,
    is_hurwitz,
    jacobian_fd,
    matvec,
    rk4_affine,
    rk4_step,
    step_count,
)
from .plants import EXAMPLES, PlantModel, Scenario, _ex1_field, build_example


class UnstableA1(RuntimeError):
    """The chosen primary matrix is not Hurwitz; the open-loop observer
    would diverge, so construction is refused."""


class ZeroReferenceGain(ValueError):
    """A zero reference would zero the primary input matrix and destroy
    controllability of the primary loop."""


class NonDifferentiable(RuntimeError):
    """Finite differencing of the plant field failed at the origin."""


@dataclass
class Decomposition:
    """The (A1, B1, model field) model of the additive split; no run state.

    ``model_field(t, x, u)`` is the disturbance-free plant model with any
    known saturation block applied; the observer never sees the
    disturbance or an unmodeled input delay.  ``remainder_field`` is an
    optional hand-derived form of the secondary dynamics used by the
    exactness harness (see decomposition_deviation).
    """

    A1: np.ndarray
    B1: np.ndarray
    model_field: Callable
    n: int
    m: int
    remainder_field: Optional[Callable] = None

    def __post_init__(self):
        self.A1 = as_matrix(self.A1, rows=self.n, cols=self.n, name="A1")
        self.B1 = as_matrix(self.B1, rows=self.n, cols=self.m, name="B1")

    def advance(self, xhat_s, x, u, u_s, dt: float) -> np.ndarray:
        """The remainder estimate one RK4 step after ``xhat_s``, with
        (x, u, u_s) held constant.  Pure: the caller keeps the estimate
        and passes (n,)/(m,) float arrays, or a batch of rows (B, n)/
        (B, m) whose results have, row for row, the bits of the single
        calls (the model field must keep its rows apart the same way).
        A non-finite update raises NonFiniteState at t=0, since the
        model has no clock; callers re-raise it at the step time."""
        drive = (self.model_field(0.0, x, u) - matvec(self.A1, x)
                 + matvec(self.B1, u_s - u))
        return rk4_step(lambda _t, xs: matvec(self.A1, xs) + drive, 0.0, xhat_s, dt)


def make_decomposition(plant: PlantModel) -> Decomposition:
    """Standard construction: (A1, B1) are the origin Jacobians of the
    plant model (analytic when the plant provides them, central
    differences otherwise).  Refuses a non-Hurwitz A1."""
    if plant.analytic_jacobian is not None:
        A1, B1 = plant.analytic_jacobian
    else:
        try:
            A1, B1 = jacobian_fd(
                lambda x, u: plant.nominal_field(0.0, x, u),
                np.zeros(plant.n), np.zeros(plant.m))
        except Exception as exc:
            raise NonDifferentiable(
                f"cannot difference the field of {plant.name!r} at the origin") from exc
    if not is_hurwitz(A1):
        raise UnstableA1(
            f"A1 of {plant.name!r} is not Hurwitz; the open-loop observer needs a stable A1")
    return Decomposition(np.asarray(A1, float), np.asarray(B1, float),
                         plant.nominal_field, plant.n, plant.m,
                         remainder_field=plant.remainder_field)


def make_decomposition_ex1(y_d: float) -> Decomposition:
    """Special primary choice for the scalar bilinear plant.

    The origin Jacobian has a zero input matrix (d(xu)/du = x = 0), so
    the primary input gain is taken as the reference value instead:
    A1 = [-4], B1 = [y_d].  The remainder then carries the bilinear
    term exactly: xs' = -4 xs + x u - y_d u (+ y_d u_s for a general
    input split; the benchmark uses u_p = u).
    """
    gain = float(y_d)
    if not np.isfinite(gain):
        raise ValueError(f"reference y_d must be finite, got {y_d!r}")
    if gain == 0.0:
        raise ZeroReferenceGain("y_d = 0 gives B1 = 0; primary loop uncontrollable")

    def remainder(t, x, xs, u, u_s):
        uv = u[..., 0]
        return (-4.0 * xs[..., 0] + x[..., 0] * uv - gain * uv
                + gain * u_s[..., 0])[..., None]

    return Decomposition(np.array([[-4.0]]), np.array([[gain]]),
                         lambda t, x, u: _ex1_field(t, x, u, 0.0), 1, 1,
                         remainder_field=remainder)


def example_decomposition(plant: PlantModel, scenario: Scenario) -> Decomposition:
    """The decomposition an example's runs and sweep use: ex1's special
    primary on the scenario's reference at t = 0, the standard
    construction for every other plant."""
    return (make_decomposition_ex1(scenario.ref(0.0)) if plant.name == "ex1"
            else make_decomposition(plant))


class CompositeLaw(ControlLaw):
    """Two-channel controller: primary law on xhat_p, secondary on (x, xhat_s).

    The law owns the run's remainder estimate ``xhat_s`` (zero after
    ``reset``); ``dec`` is only the model it integrates.  The secondary
    law provides ``u_s(x, xhat_s)`` and ``reset()``; it defaults to
    ``ZeroLaw(m)``, a zero secondary channel.  The emitted input is
    exactly u_p + u_s.  The estimate is advanced at the start of each
    step using the previous step's (x, u, u_s) held constant, keeping
    the loop causal; the laws then act on estimates current at the step
    time.  ``step`` takes the (n,) float state the harness passes, and
    both channel laws return (m,) float arrays; the harness checks the
    emitted sum.
    """

    name = "sclc"

    def __init__(self, dec: Decomposition, primary: ControlLaw, secondary=None):
        self.dec = dec
        self.primary = primary
        self.secondary = ZeroLaw(dec.m) if secondary is None else secondary
        self.reset()

    def step(self, x, ref, t, dt):
        if self._prev is not None:
            try:
                self.xhat_s = self.dec.advance(self.xhat_s, *self._prev, dt)
            except NonFiniteState as exc:
                raise NonFiniteState(t - dt, "RK4 update") from exc
        xhat_s = self.xhat_s
        u_p = self.primary.step(x - xhat_s, ref, t, dt)
        u_s = self.secondary.u_s(x, xhat_s)
        u = u_p + u_s
        self._prev = (x.copy(), u.copy(), u_s.copy())
        self._channels = (u_p, u_s, xhat_s)
        return u

    def channels(self, u):
        return self._channels

    def reset(self):
        self.xhat_s = np.zeros(self.dec.n)
        self.primary.reset()
        self.secondary.reset()
        self._prev = None
        self._channels = None


# Rows of a trace replayed per batched ``advance`` call; bounds the
# replay's scratch arrays whatever the trace length.
REPLAY_CHUNK = 4096


def replay_observer(dec: Decomposition, trace) -> float:
    """Re-integrate the observer ODE from zero on the recorded (x, u, u_s)
    signals and return max_k |xhat_s(replay) - xhat_s(trace)|_inf (0.0
    for an empty trace); anything above arithmetic noise means the trace
    does not record what the observer consumed.

    The deviation d_k = replay_k - xhat_s[k] obeys d_{k+1} = T d_k + r_k,
    with the residuals r_k from batched ``advance`` calls; the README's
    ``observer-check`` entry explains why a faithful trace replays to
    exactly 0.0.  A non-finite update raises NonFiniteState at its step
    time.
    """
    widths = (trace.xhat_s.shape[1], trace.u_s.shape[1])
    if widths != (dec.n, dec.m):
        raise ValueError(f"trace widths (n, m) = {widths} do not match the "
                         f"decomposition's ({dec.n}, {dec.m})")
    rows = len(trace)
    if rows == 0:
        return 0.0
    T, _ = rk4_affine(dec.A1, trace.dt)
    dev = -trace.xhat_s[0]
    worst = float(np.abs(dev).max())
    for start in range(0, rows - 1, REPLAY_CHUNK):
        chunk = slice(start, min(start + REPLAY_CHUNK, rows - 1))
        signals = (trace.xhat_s[chunk], trace.x[chunk], trace.u_cmd[chunk],
                   trace.u_s[chunk])
        try:
            nxt = dec.advance(*signals, trace.dt)
        except NonFiniteState:
            _raise_first_nonfinite(dec, signals, start, trace.dt)
            raise
        resid = nxt - trace.xhat_s[chunk.start + 1:chunk.stop + 1]
        if not (resid.any() or dev.any()):
            continue
        for r in resid:
            dev = T @ dev + r
            worst = max(worst, float(np.abs(dev).max()))
    return worst


def _raise_first_nonfinite(dec, signals, start, dt):
    """Re-raise a batch's non-finite update at the step time of its first
    non-finite row; the single calls repeat the batch's bits."""
    for k, row in enumerate(zip(*signals)):
        try:
            dec.advance(*row, dt)
        except NonFiniteState as exc:
            raise NonFiniteState((start + k) * dt, "RK4 update") from exc


# --- Decomposition exactness (x = xp + xs) --------------------------------

def decomposition_deviation(dec: Decomposition, inputs, d, x0,
                            t_end: float, dt: float) -> np.ndarray:
    """Worst deviation |x - (xp + xs)|_inf per lane when the original,
    primary and secondary systems are co-integrated under a shared input
    split.

    All three systems advance inside one RK4 state so the deviation is
    free of raw integration error; it measures whether the secondary
    dynamics really are the original system minus the (A1, B1) primary.
    With a hand-derived ``remainder_field`` this certifies that
    derivation term by term; without one the generic form
    f - A1 xp - B1 up is used.  ``x0`` is one state (n,) or a batch of
    lanes (B, n); ``inputs(t)`` returns the input and its primary part
    ``(u, u_p)`` as (B, m) arrays, and is evaluated once per stage time
    (the two midpoint stages share theirs).  The disturbance ``d`` (n,)
    enters the original and primary systems only.
    """
    x0 = as_matrix(np.atleast_2d(x0), cols=dec.n, name="x0")
    d = as_vector(d, dim=dec.n, name="d")
    batch, n = x0.shape
    last = {}

    def combined_rate(t, z):
        x = z[..., :n]
        xp = z[..., n:2 * n]
        xs = z[..., 2 * n:]
        if t not in last:
            last.clear()
            last[t] = inputs(t)
        u, up = last[t]
        fx = dec.model_field(t, x, u)
        lin = xp @ dec.A1.T + up @ dec.B1.T
        if dec.remainder_field is not None:
            ds = dec.remainder_field(t, x, xs, u, u - up)
        else:
            ds = fx - lin
        return np.concatenate((fx + d, lin + d, ds), axis=-1)

    z = np.concatenate((x0, x0, np.zeros_like(x0)), axis=-1)
    worst = np.zeros(batch)
    for k in range(step_count(0.0, t_end, dt)):
        z = rk4_step(combined_rate, k * dt, z, dt)
        defect = np.abs(z[..., :n] - z[..., n:2 * n] - z[..., 2 * n:]).max(axis=-1)
        worst = np.maximum(worst, defect)
    return worst


@dataclass(frozen=True)
class ExactnessCase:
    example: str
    index: int
    deviation: float


def _draw_inputs(rng, count: int):
    """One example's random inputs: smooth one-channel three-tone
    sinusoid mixes bounded by 2 (amplitudes ``a``, frequencies ``w``,
    phases ``phi``) and each input's primary share ``split``, drawn in
    that order."""
    tones = 3
    a = rng.uniform(-1.0, 1.0, size=(count, tones))
    a *= 2.0 / np.maximum(np.abs(a).sum(axis=1, keepdims=True), 1e-9)
    w = rng.uniform(0.2, 3.0, size=(count, tones))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(count, tones))
    split = rng.uniform(0.0, 1.0, size=(count, 1))
    return a, w, phi, split


def _exactness_example(example: str):
    """(plant, scenario) of one example of the sweep; ex3 runs scenario
    (iii), the one with a disturbance."""
    plant, scenarios = build_example(example)
    return plant, scenarios[2 if example == "ex3" else 0]


def _exactness_deviation(example: str, draws, dt: float) -> np.ndarray:
    """The sweep's kernel, run in the caller or in its worker: the worst
    defect of each of one example's inputs ``draws`` (see _draw_inputs)."""
    plant, sc = _exactness_example(example)
    dec = example_decomposition(plant, sc)
    a, w, phi, split = draws

    def inputs(t):
        u = (a * np.sin(w * t + phi)).sum(axis=1, keepdims=True)
        return u, split * u

    return decomposition_deviation(dec, inputs, sc.disturbance(dec.n),
                                   np.tile(sc.x0, (len(split), 1)), sc.t_end, dt)


def _fork_context():
    """The fork start method when this process may use 2 or more CPUs and
    may start children; None otherwise."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    # Imported here, so importing scl_lab stays as fast as it was.
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


def exactness_suite(dt: float = 1e-3, n_inputs: int = 20,
                    seed: int = 20240811) -> List[ExactnessCase]:
    """Decomposition-exactness sweep over all example plants.

    For each example, runs ``n_inputs`` randomized bounded input signals
    (with a randomized primary/secondary input split) over the full
    benchmark horizon and reports the worst x - (xp + xs) defect per
    case.  Deterministic for a fixed seed: every input is drawn up front,
    and with 2 or more usable CPUs the ex2 sweep runs in a forked worker
    while the caller runs ex1 and ex3, with the bits of a serial run
    (the README's simulation conventions say how the worker behaves).
    """
    rng = np.random.default_rng(seed)
    draws = {example: _draw_inputs(rng, n_inputs) for example in EXAMPLES}
    for example in EXAMPLES:
        _exactness_example(example)[1].grid(dt)
    ctx = _fork_context()
    if ctx is None:
        deviations = {example: _exactness_deviation(example, draws[example], dt)
                      for example in EXAMPLES}
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(1, mp_context=ctx) as pool:
            ex2 = pool.submit(_exactness_deviation, "ex2", draws["ex2"], dt)
            deviations = {example: _exactness_deviation(example, draws[example], dt)
                          for example in ("ex1", "ex3")}
            deviations["ex2"] = ex2.result()
    return [ExactnessCase(example, i, float(deviations[example][i]))
            for example in EXAMPLES for i in range(n_inputs)]
