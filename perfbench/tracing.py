"""Span tracer and the wrappers that time scl_lab's layers from outside.

Nothing under ``src/`` is edited: ``install`` rebinds the library's
public functions in every scl_lab module that holds them, and wraps the
plant and law objects that ``benchmarks.build_run`` hands back.  With
tracing off only the hooks that read results (simulate, table1, replay,
the exactness sweep) are installed; nothing runs per step.

Spans live in flat arrays (name id, parent index, start, end) and are
written out once, when the traced operation ends.  A span's self time
is its duration minus the durations of its direct children; calls are
synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Per-layer metrics of a traced run, in the order they are printed.
PER_LAYER = (
    ("plants.steps", "count"),
    ("plants.diverged_runs", "count"),
    ("plants.field.calls", "count"),
    ("plants.field.us_per_call", "us"),
    ("plants.simulate.self_us_per_step", "us"),
    ("controllers.step.calls", "count"),
    ("controllers.pid.us_per_call", "us"),
    ("controllers.lqr.us_per_call", "us"),
    ("controllers.flc.us_per_call", "us"),
    ("controllers.rflc.us_per_call", "us"),
    ("controllers.adrc.us_per_call", "us"),
    ("controllers.backstepping.us_per_call", "us"),
    ("controllers.stage.calls", "count"),
    ("controllers.stage.us_per_call", "us"),
    ("controllers.singular_events", "count"),
    ("controllers.near_singular_events", "count"),
    ("decomposition.advance.calls", "count"),
    ("decomposition.advance.us_per_call", "us"),
    ("decomposition.composite.self_us_per_step", "us"),
    ("decomposition.replay.us_per_step", "us"),
    ("decomposition.exactness.us_per_lane_step", "us"),
    ("numerics.solve_care.calls", "count"),
    ("numerics.solve_care.ms_per_call", "ms"),
    ("benchmarks.build_run.ms_per_call", "ms"),
    ("metrics.report.ms_per_call", "ms"),
    ("cli.write_trace_csv.s", "s"),
    ("cli.trace_csv.bytes", "bytes"),
    ("cli.write_plot_svg.s", "s"),
    ("svg.render.s", "s"),
    ("svg.render.bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("outputs.digest_match", "count"),
    ("outputs.digest_checked", "count"),
)

# Law classes -> layer name of their ``step`` span.
LAW_KINDS = {
    "PidTrackingLaw": "pid",
    "LqrLaw": "lqr",
    "FlcEx3": "flc",
    "RflcEx3": "rflc",
    "AdrcLaw": "adrc",
}
SECONDARY_KINDS = {"BacksteppingSecondary": "backstepping"}

# Step of the exactness sweep (the default of ``exactness_suite``).
EXACTNESS_DT = 1e-3


class Tracer:
    """Records spans when ``enabled``; always runs result hooks."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.results: defaultdict = defaultdict(list)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def observe(self, fn, on_result):
        """Call ``on_result(args, result)`` after each call; no span."""
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, result)
            return result
        observed.__wrapped__ = fn
        return observed

    def wrap(self, name: str, fn, on_result=None):
        """A span around every call of ``fn`` (tracing on), else only the
        result hook (or ``fn`` itself when there is none)."""
        if not self.enabled:
            return fn if on_result is None else self.observe(fn, on_result)
        nid = self._id(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path: Path):
        ids, parents, starts, ends = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=ids,
                 parent=parents, start=starts, end=ends)


def _rebind(modules, fn, wrapped):
    """Point every module attribute that holds ``fn`` at ``wrapped``."""
    for mod in modules:
        for attr in [a for a, v in vars(mod).items() if v is fn]:
            setattr(mod, attr, wrapped)


def install(tracer: Tracer):
    """Instrument scl_lab in this process; call before the operation."""
    import scl_lab
    from scl_lab import (benchmarks, cli, decomposition, metrics, numerics,
                         plants, svg)

    modules = (scl_lab, benchmarks, cli, decomposition, metrics, numerics,
               plants, svg)
    counts, results = tracer.counts, tracer.results
    horizons = {"ex1": plants.build_example1()[1].t_end,
                "ex2": plants.build_example2()[1].t_end,
                "ex3": plants.build_example3()[1][0].t_end}
    horizon_steps = {ex: numerics.step_count(0.0, t_end, EXACTNESS_DT)
                     for ex, t_end in horizons.items()}

    def patch(fn, name, on_result=None):
        _rebind(modules, fn, tracer.wrap(name, fn, on_result))

    def on_simulate(args, trace):
        counts["plants.steps"] += len(trace) - 1 + int(trace.diverged)
        counts["plants.diverged_runs"] += int(trace.diverged)
        counts["controllers.singular_events"] += trace.singular_events
        counts["controllers.near_singular_events"] += trace.near_singular_events

    def on_replay(args, deviation):
        counts["decomposition.replay.steps"] += len(args[1]) - 1
        results["replays"].append(float(deviation))

    def on_exactness(args, cases):
        counts["decomposition.exactness.lane_steps"] += sum(
            horizon_steps[case.example] for case in cases)

    patch(plants.simulate, "plants.simulate", on_simulate)
    patch(cli.build_table1, "benchmarks.table1",
          lambda args, table: results["table1"].append(table))
    patch(decomposition.replay_observer, "decomposition.replay", on_replay)
    patch(decomposition.exactness_suite, "decomposition.exactness",
          on_exactness)
    if not tracer.enabled:
        return

    def wrap_field(args, built):
        plant = built[0]
        # PlantModel is frozen; the field is swapped on this instance only.
        object.__setattr__(plant, "field",
                           tracer.wrap("plants.field", plant.field))

    def instrument_law(law):
        if isinstance(law, decomposition.CompositeLaw):
            law.step = tracer.wrap("decomposition.composite", law.step)
            law.dec.advance = tracer.wrap("decomposition.advance",
                                          law.dec.advance)
            instrument_law(law.primary)
            if law.secondary is not None:
                kind = SECONDARY_KINDS.get(type(law.secondary).__name__,
                                           "secondary")
                law.secondary.u_s = tracer.wrap(f"controllers.{kind}",
                                                law.secondary.u_s)
            return
        kind = LAW_KINDS.get(type(law).__name__, law.name)
        law.step = tracer.wrap(f"controllers.{kind}", law.step)
        # The callable simulate evaluates at RK4 stages under stage feedback.
        stage = next((a for a in ("control_clamped", "control")
                      if hasattr(law, a)), None)
        if stage is not None:
            setattr(law, stage, tracer.wrap("controllers.stage",
                                            getattr(law, stage)))

    for build in (plants.build_example1, plants.build_example2,
                  plants.build_example3):
        _rebind(modules, build, tracer.observe(build, wrap_field))
    patch(benchmarks.build_run, "benchmarks.build_run",
          lambda args, setup: instrument_law(setup.law))
    patch(numerics.solve_care, "numerics.solve_care")
    patch(metrics.report, "metrics.report")
    patch(cli.write_trace_csv, "cli.write_trace_csv",
          lambda args, _: counts.update(
              {"cli.trace_csv.bytes": Path(args[1]).stat().st_size}))
    patch(cli.write_plot_svg, "cli.write_plot_svg")
    patch(svg.render, "svg.render",
          lambda args, doc: counts.update(
              {"svg.render.bytes": len(doc.encode())}))


def layer_metrics(names, ids, parents, starts, ends, counts) -> dict:
    """Per-layer metrics from one traced operation's spans and counts.

    Every name in PER_LAYER except the trace overhead and the digest
    counts, which the caller adds.  A layer that did not run reads 0.
    """
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    parent_name = np.full(len(dur), -1)
    parent_name[has_parent] = ids[parents[has_parent]]

    def mask(*span_names):
        wanted = [names.index(s) for s in span_names if s in names]
        return np.isin(ids, wanted)

    def under_simulate(m):
        sim = names.index("plants.simulate") if "plants.simulate" in names else -2
        return m & (parent_name == sim)

    def per(total, n, scale):
        return float(total) / n * scale if n else 0.0

    def calls(m):
        return int(np.count_nonzero(m))

    def mean(m, scale):
        return per(dur[m].sum(), calls(m), scale)

    steps = counts.get("plants.steps", 0)
    law_steps = under_simulate(
        mask("decomposition.composite",
             *(f"controllers.{k}" for k in LAW_KINDS.values())))
    stage = under_simulate(mask("controllers.stage"))
    composite = mask("decomposition.composite")
    out = {
        "plants.steps": steps,
        "plants.diverged_runs": counts.get("plants.diverged_runs", 0),
        "plants.field.calls": calls(mask("plants.field")),
        "plants.field.us_per_call": mean(mask("plants.field"), 1e6),
        "plants.simulate.self_us_per_step": per(
            self_time[mask("plants.simulate")].sum(), steps, 1e6),
        "controllers.step.calls": calls(law_steps),
        "controllers.stage.calls": calls(stage),
        "controllers.stage.us_per_call": mean(stage, 1e6),
        "controllers.singular_events": counts.get(
            "controllers.singular_events", 0),
        "controllers.near_singular_events": counts.get(
            "controllers.near_singular_events", 0),
        "decomposition.advance.calls": calls(mask("decomposition.advance")),
        "decomposition.advance.us_per_call": mean(
            mask("decomposition.advance"), 1e6),
        "decomposition.composite.self_us_per_step": per(
            self_time[composite].sum(), calls(composite), 1e6),
        "decomposition.replay.us_per_step": per(
            dur[mask("decomposition.replay")].sum(),
            counts.get("decomposition.replay.steps", 0), 1e6),
        "decomposition.exactness.us_per_lane_step": per(
            dur[mask("decomposition.exactness")].sum(),
            counts.get("decomposition.exactness.lane_steps", 0), 1e6),
        "numerics.solve_care.calls": calls(mask("numerics.solve_care")),
        "numerics.solve_care.ms_per_call": mean(
            mask("numerics.solve_care"), 1e3),
        "benchmarks.build_run.ms_per_call": mean(
            mask("benchmarks.build_run"), 1e3),
        "metrics.report.ms_per_call": mean(mask("metrics.report"), 1e3),
        "cli.write_trace_csv.s": float(dur[mask("cli.write_trace_csv")].sum()),
        "cli.trace_csv.bytes": counts.get("cli.trace_csv.bytes", 0),
        "cli.write_plot_svg.s": float(dur[mask("cli.write_plot_svg")].sum()),
        "svg.render.s": float(dur[mask("svg.render")].sum()),
        "svg.render.bytes": counts.get("svg.render.bytes", 0),
    }
    for kind in ("pid", "lqr", "flc", "rflc", "adrc", "backstepping"):
        out[f"controllers.{kind}.us_per_call"] = mean(
            mask(f"controllers.{kind}"), 1e6)
    return out
