"""Additive decomposition of a nonlinear plant into a linear primary part
and an exact nonlinear remainder, the open-loop observer that recovers
both from measured signals, and the composite two-channel law built on
them.  The README's "The decomposition in one page" derives the split;
its simulation conventions say where the remainder estimate lives.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .controllers import ControlLaw, ZeroLaw
from .numerics import (
    DEFAULT_DT,
    NonFiniteState,
    as_matrix,
    as_vector,
    is_hurwitz,
    jacobian_fd,
    matvec,
    rk4_linear,
    rk4_step,
    step_count,
)
from .plants import EXAMPLES, PlantModel, Scenario, build_example, build_example1


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

    ``model_field(t, x, u)`` is what the observer knows of the plant (see
    PlantModel.nominal_field).  ``remainder_field`` is an optional
    hand-derived form of the secondary dynamics that
    decomposition_deviation certifies.
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

    def advance(self, xhat_s, x, u, u_s, t: float, dt: float) -> np.ndarray:
        """The remainder estimate one RK4 step after ``xhat_s``, taken
        from the sample time ``t`` with (x, u, u_s) held constant; pure,
        and batched row for row (README, simulation conventions).  A
        non-finite update raises NonFiniteState at ``t``."""
        A1 = self.A1
        drive = self.model_field(t, x, u) - matvec(A1, x) + matvec(self.B1, u_s - u)
        return rk4_linear(A1, xhat_s, drive, t, dt)


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
    return Decomposition(A1, B1, plant.nominal_field, plant.n, plant.m,
                         remainder_field=plant.remainder_field)


def make_decomposition_ex1(y_d: float) -> Decomposition:
    """Special primary choice for the scalar bilinear plant.

    The origin Jacobian has a zero input matrix (d(xu)/du = x = 0), so
    the primary input gain is taken as the reference value instead:
    A1 = [-4], the catalogue plant's Jacobian, and B1 = [y_d].  The
    remainder then carries the bilinear term exactly:
    xs' = -4 xs + x u - y_d u (+ y_d u_s for a general input split; the
    benchmark uses u_p = u).
    """
    gain = float(y_d)
    if not math.isfinite(gain):
        raise ValueError(f"reference y_d must be finite, got {y_d!r}")
    if gain == 0.0:
        raise ZeroReferenceGain("y_d = 0 gives B1 = 0; primary loop uncontrollable")

    plant = build_example1()[0]
    A1 = plant.analytic_jacobian[0]
    a = A1[0, 0]

    def remainder(t, x, xs, u, u_s):
        return a * xs + x * u - gain * u + gain * u_s

    return Decomposition(A1, np.array([[gain]]), plant.nominal_field, 1, 1,
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
    provides ``u_s(x, xhat_s)`` and ``reset()``, and defaults to
    ``ZeroLaw(m)``.  The emitted input is exactly u_p + u_s.  Each step
    first advances the estimate from the previous step's time on its
    (x, u, u_s), so the loop stays causal.  ``step`` takes the (n,) float
    state the harness passes, unchecked; the harness checks the sum.
    """

    name = "sclc"

    def __init__(self, dec: Decomposition, primary: ControlLaw, secondary=None):
        self.dec = dec
        self.primary = primary
        self.secondary = ZeroLaw(dec.m) if secondary is None else secondary
        self.reset()

    def step(self, x, ref, t, dt):
        if self._prev is not None:
            self.xhat_s = self.dec.advance(self.xhat_s, *self._prev, dt)
        xhat_s = self.xhat_s
        u_p = self.primary.step(x - xhat_s, ref, t, dt)
        u_s = self.secondary.u_s(x, xhat_s)
        u = u_p + u_s
        self._prev = (x.copy(), u.copy(), u_s.copy(), t)
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
    signals and return max_k |xhat_s(replay) - xhat_s(trace)|_inf.  The
    README's ``observer-check`` entry explains the batched faithfulness
    pass and why a faithful trace replays to exactly 0.0.  A non-finite
    update raises NonFiniteState at its step time.
    """
    widths = (trace.xhat_s.shape[1], trace.u_s.shape[1])
    if widths != (dec.n, dec.m):
        raise ValueError(f"trace widths (n, m) = {widths} do not match the "
                         f"decomposition's ({dec.n}, {dec.m})")
    rows, dt = len(trace), trace.dt
    if rows == 0:
        return 0.0
    xhat, x, u, u_s = trace.xhat_s, trace.x, trace.u_cmd, trace.u_s
    if not xhat[0].any():
        chunks = (slice(s, min(s + REPLAY_CHUNK, rows - 1))
                  for s in range(0, rows - 1, REPLAY_CHUNK))
        # A non-finite row only ends the pass; the re-integration reports it.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if not any((dec.advance(xhat[c], x[c], u[c], u_s[c], c.start * dt, dt)
                            != xhat[c.start + 1:c.stop + 1]).any() for c in chunks):
                    return 0.0
        except NonFiniteState:
            pass
    est = np.zeros(dec.n)
    worst = np.abs(xhat[0]).max()
    for k in range(rows - 1):
        est = dec.advance(est, x[k], u[k], u_s[k], k * dt, dt)
        worst = np.maximum(worst, np.abs(est - xhat[k + 1]).max())
    return float(worst)


# --- Decomposition exactness (x = xp + xs) --------------------------------

# Steps of the exactness sweep whose inputs and defects are evaluated
# together; bounds its input table and state buffer whatever the horizon.
EXACTNESS_CHUNK = 128


def decomposition_deviation(dec: Decomposition, inputs, d, x0,
                            t_end: float, dt: float) -> np.ndarray:
    """Worst deviation |x - (xp + xs)|_inf per lane of the original,
    primary and secondary systems co-integrated in one RK4 state under a
    shared input split, so the deviation is free of integration error.
    It certifies ``remainder_field`` when there is one, else the generic
    f - A1 xp - B1 up.  ``x0`` is one state (n,) or lanes (B, n); ``d``
    (n,) enters the original and primary systems.  ``inputs(times)``
    returns ``(u, u_p)`` shaped (len(times), B, m) for a chunk's stage
    times (README, ``lemma1-check``).
    """
    x0 = as_matrix(np.atleast_2d(x0), cols=dec.n, name="x0")
    d = as_vector(d, dim=dec.n, name="d")
    batch, n = x0.shape
    A1_T, B1_T = dec.A1.T, dec.B1.T

    def combined_rate(t, z):
        x, xp, xs = z[..., :n], z[..., n:2 * n], z[..., 2 * n:]
        u, up_B1, us = stage[t]
        fx = dec.model_field(t, x, u)
        lin = xp @ A1_T + up_B1
        ds = (fx - lin if dec.remainder_field is None
              else dec.remainder_field(t, x, xs, u, us))
        return np.concatenate((fx + d, lin + d, ds), axis=-1)

    steps = step_count(0.0, t_end, dt)
    z = np.concatenate((x0, x0, np.zeros_like(x0)), axis=-1)
    worst = np.zeros(batch)
    # A diverging lane overflows before rk4_step's NonFiniteState stops
    # the sweep; that error is the report, so numpy's warnings are muted.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, EXACTNESS_CHUNK):
            ks = range(start, min(start + EXACTNESS_CHUNK, steps))
            t0 = np.array(ks) * dt
            times = list(dict.fromkeys(
                np.concatenate((t0, t0 + 0.5 * dt, t0 + dt)).tolist()))
            u, up = inputs(np.array(times))
            shape = (len(times), batch, dec.m)
            if np.shape(u) != shape or np.shape(up) != shape:
                raise ValueError(f"inputs(times) must return (u, u_p) shaped "
                                 f"(len(times), B, m) = {shape}, got "
                                 f"{np.shape(u)} and {np.shape(up)}")
            # The input-only terms of every stage, keyed by its time.
            stage = dict(zip(times, zip(u, up @ B1_T, u - up)))
            states = []
            for k in ks:
                z = rk4_step(combined_rate, k * dt, z, dt)
                states.append(z)
            zs = np.stack(states)
            defect = np.abs(zs[..., :n] - zs[..., n:2 * n] - zs[..., 2 * n:])
            worst = np.maximum(worst, defect.max(axis=(0, 2)))
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

    def inputs(times):
        t = times[:, None, None]
        u = (a * np.sin(w * t + phi)).sum(axis=-1, keepdims=True)
        return u, split * u

    return decomposition_deviation(dec, inputs, sc.disturbance(dec.n),
                                   np.tile(sc.x0, (len(split), 1)), sc.t_end, dt)


def run_jobs(jobs) -> list:
    """``[fn(*args) for in_worker, fn, args in jobs]`` for independent calls; the
    ``in_worker`` ones share one forked worker when 2+ CPUs are usable (README)."""
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        # Imported here, so importing scl_lab stays as fast as it was.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
                sent = [pool.submit(fn, *args) if in_worker else None
                        for in_worker, fn, args in jobs]
                mine = [fn(*args) if future is None else None
                        for future, (_, fn, args) in zip(sent, jobs)]
                return [result if future is None else future.result()
                        for future, result in zip(sent, mine)]
    return [fn(*args) for _, fn, args in jobs]


def exactness_suite(dt: float = DEFAULT_DT, n_inputs: int = 20,
                    seed: int = 20240811) -> List[ExactnessCase]:
    """Decomposition-exactness sweep over all example plants: the worst
    x - (xp + xs) defect of ``n_inputs`` random bounded inputs, each with
    a random primary/secondary split, per example over its horizon.
    Deterministic for a fixed seed; ex2 runs in run_jobs's worker."""
    rng = np.random.default_rng(seed)
    draws = {example: _draw_inputs(rng, n_inputs) for example in EXAMPLES}
    for example in EXAMPLES:
        _exactness_example(example)[1].grid(dt)
    deviations = run_jobs([(example == "ex2", _exactness_deviation,
                            (example, draws[example], dt)) for example in EXAMPLES])
    return [ExactnessCase(example, i, float(worst[i]))
            for example, worst in zip(EXAMPLES, deviations) for i in range(n_inputs)]
