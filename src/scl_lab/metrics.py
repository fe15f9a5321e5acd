"""Trace evaluation: IAE/ITAE indices, saturation intervals, and run
classification for the benchmark table."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .plants import SimulationTrace


class DivergentTrace(RuntimeError):
    """Integral indices are undefined for a divergent run."""


def tracking_error(trace: SimulationTrace) -> np.ndarray:
    """Per-sample reference error y_d - y (first output channel).

    This is the control error behind the benchmark indices.
    Stabilization runs have y_d = 0, so the indices integrate |y|; this
    output-error convention is what reproduces the benchmark table
    (state-norm variants were 1.3x to 2x off on every cell).
    """
    return trace.y_d - trace.y[:, 0]


def _trapezoid(index: str, w: np.ndarray, trace: SimulationTrace) -> float:
    if trace.diverged:
        raise DivergentTrace(f"{index} undefined: trace diverged")
    return float(0.5 * np.sum((w[1:] + w[:-1]) * np.diff(trace.t)))


def iae(trace: SimulationTrace) -> float:
    """Integral of the absolute error over the trace (trapezoidal)."""
    return _trapezoid("IAE", np.abs(tracking_error(trace)), trace)


def itae(trace: SimulationTrace) -> float:
    """Integral of time-weighted absolute error over the trace."""
    return _trapezoid("ITAE", trace.t * np.abs(tracking_error(trace)), trace)


def saturation_interval(trace: SimulationTrace) -> Optional[Tuple[float, float]]:
    """(first entry, last exit) of the input-saturation flag, or None.

    Exit is the first unsaturated sample time after the last saturated
    one (the horizon end if saturation never releases).
    """
    idx = np.flatnonzero(trace.sat_active)
    if idx.size == 0:
        return None
    t_enter = float(trace.t[idx[0]])
    last = int(idx[-1])
    t_exit = float(trace.t[min(last + 1, len(trace) - 1)])
    return (t_enter, t_exit)


def classify(trace: SimulationTrace) -> str:
    """'singular' when the run passed through the input-transform guard
    band (hard guard trips or near-singular passes), 'unstable' on
    divergence, 'converged' otherwise.  Singularity takes precedence:
    a singularity-induced blow-up reports as singular."""
    if trace.singular_events > 0 or trace.near_singular_events > 0:
        return "singular"
    if trace.diverged:
        return "unstable"
    return "converged"


@dataclass
class PerformanceReport:
    """Quantitative summary of one benchmark run.

    ``iae``/``itae`` are None for divergent runs (table cells render as
    a dash); a bounded run that merely grazed a singularity still gets
    its indices, with the classification carrying the flag.
    ``final_state_norm`` is None for a run that diverged before its
    first sample (an empty trace).
    """

    classification: str
    stable: bool
    singular: bool
    iae: Optional[float]
    itae: Optional[float]
    saturation_interval: Optional[Tuple[float, float]]
    final_state_norm: Optional[float]
    near_singular_events: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def report(trace: SimulationTrace) -> PerformanceReport:
    """Assemble the performance report for one trace."""
    stable = not trace.diverged
    return PerformanceReport(
        classification=classify(trace),
        stable=stable,
        singular=trace.singular_events > 0,
        iae=iae(trace) if stable else None,
        itae=itae(trace) if stable else None,
        saturation_interval=saturation_interval(trace),
        final_state_norm=(float(np.max(np.abs(trace.x[-1])))
                          if len(trace) else None),
        near_singular_events=trace.near_singular_events,
    )
