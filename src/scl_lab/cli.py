"""Command-line front end for the benchmark suite: the ``run``,
``table1``, ``lemma1-check`` and ``observer-check`` subcommands and the
exit codes (``EXIT_*``) that the README's CLI section describes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import svg
from .benchmarks import (
    ConfigError,
    EXAMPLES,
    METHODS,
    SCENARIOS_EX3,
    build_run,
    table1 as build_table1,
)
from .decomposition import (
    UnstableA1,
    exactness_suite,
    example_decomposition,
    make_decomposition,
    replay_observer,
    run_jobs,
)
from .metrics import report as evaluate
from .numerics import DEFAULT_DT, GridError, NonFiniteState
from .plants import PlantModel, SimulationTrace, build_example, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

LEMMA_TOL = 1e-6
OBSERVER_TOL = 1e-9
CSV_BLOCK_ROWS = 4096  # trace rows per formatted write; bounds its memory

# The JSON type of each config key's value.  A number (int or float) is
# kept as a float; null, and bool (an int subclass), are refused.
_CONFIG_TYPES = {**dict.fromkeys(("example", "method", "scenario", "out"), "string"),
                 "dt": "number", "t_end": "number"}


def _default_out() -> str:
    return os.environ.get("SCL_LAB_OUT") or "out"


def write_trace_csv(trace: SimulationTrace, path: Path):
    """RFC-4180 CSV with 15 significant digits, ``np.savetxt``'s bytes,
    formatted ``CSV_BLOCK_ROWS`` rows at a time; byte-identical per run.

    Each group is ``(name, 2-D column array, numbered)``; a group's
    columns are ``name1..namek``, or just ``name`` when it has a single
    column and is not ``numbered``.
    """
    groups = [("t", trace.t[:, None], False), ("x", trace.x, True),
              ("u_commanded", trace.u_cmd, False),
              ("u_applied", trace.u_applied, False),
              ("u_p", trace.u_p, False), ("u_s", trace.u_s, False),
              ("xhat_p", trace.xhat_p, True), ("xhat_s", trace.xhat_s, True),
              ("y", trace.y, False), ("y_d", trace.y_d[:, None], False)]
    header = ",".join(
        name if cols.shape[1] == 1 and not numbered else f"{name}{j + 1}"
        for name, cols, numbered in groups for j in range(cols.shape[1]))
    row_format = ",".join(["%.15g"] * (header.count(",") + 1)) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(trace), CSV_BLOCK_ROWS):
            block = np.hstack([c[start:start + CSV_BLOCK_ROWS] for _, c, _ in groups])
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def write_plot_svg(trace: SimulationTrace, path: Path, title: str):
    t = trace.t
    state_series = [(f"x{j + 1}", t, col) for j, col in enumerate(trace.x.T)]
    if trace.tracking:
        state_series.append(("y_d", t, trace.y_d))
    input_series = [("u_commanded", t, trace.u_cmd[:, 0]),
                    ("u_applied", t, trace.u_applied[:, 0])]
    doc = svg.render([
        svg.Panel(f"{title}: state", "t [s]", "state", state_series),
        svg.Panel(f"{title}: input", "t [s]", "input", input_series),
    ])
    path.write_text(doc)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8 (UnicodeDecodeError) or not JSON
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - set(_CONFIG_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        kind = _CONFIG_TYPES[key]
        if type(value) not in ((str,) if kind == "string" else (int, float)):
            raise ConfigError(f"config {key!r} must be a {kind}, got {value!r}")
        if kind == "number":
            try:
                cfg[key] = float(value)
            except OverflowError as exc:  # an int beyond the float range
                raise ConfigError(f"config {key!r}: {exc}") from None
    return cfg


def cmd_run(args) -> int:
    """One cell; a flag overrides the config file's value, and identical
    settings give byte-identical output files."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    config = {**_load_config(args.config), **given}
    example, method = config.get("example"), config.get("method")
    if example is None or method is None:
        raise ConfigError("both --example and --method are required")
    out_dir = Path(config.get("out") or _default_out())

    setup = build_run(example, method, config.get("scenario"))
    trace = simulate(setup.plant, setup.law, setup.scenario,
                     config.get("dt", DEFAULT_DT), config.get("t_end"))
    rep = evaluate(trace)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    scenario = setup.scenario.label if example == "ex3" else None
    meta = {"example": example, "method": method, "scenario": scenario,
            "dt": trace.dt, "t_end": float(trace.t[-1]) if len(trace) else None,
            "samples": len(trace)}
    (out_dir / "report.json").write_text(
        json.dumps({**meta, **rep.as_dict()}, indent=2, sort_keys=True) + "\n")
    label = f"{example}/{method}" + (f"/{scenario}" if scenario else "")
    write_plot_svg(trace, out_dir / "plot.svg", label)

    print(f"{label}: {rep.classification}", end="")
    if rep.iae is not None:
        print(f"  IAE={rep.iae:.3f} ITAE={rep.itae:.3f}", end="")
    if rep.saturation_interval is not None:
        t0, t1 = rep.saturation_interval
        print(f"  saturated {t0:.1f}s..{t1:.1f}s", end="")
    print(f"  -> {out_dir}")
    return EXIT_DIVERGED if trace.diverged else EXIT_OK


def cmd_table1(args) -> int:
    out_dir = Path(args.out or _default_out())
    table = build_table1(dt=args.dt)
    rows = table.rows()

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "table1.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    text = "".join("  ".join(map(str.rjust, r, widths)) + "\n" for r in rows)
    (out_dir / "table1.txt").write_text(text)
    print(text, end="")
    print(f"-> {out_dir}/table1.csv, {out_dir}/table1.txt")
    return EXIT_OK


def cmd_lemma1_check(args) -> int:
    try:
        cases = exactness_suite(dt=args.dt)
    except NonFiniteState as exc:
        print(f"exactness sweep stopped: {exc} (FAIL)")
        return EXIT_CHECK_FAILED
    worst = 0.0
    for case in cases:
        print(f"{case.example} input {case.index:2d}: "
              f"max |x - (xp + xs)| = {case.deviation:.3e}")
        worst = max(worst, case.deviation)
    ok = worst < LEMMA_TOL
    print(f"worst deviation {worst:.3e} ({'OK' if ok else 'FAIL'}, tolerance {LEMMA_TOL:g})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


class _ReplayColumns(SimpleNamespace):
    """What replay_observer reads of a trace: x, u_cmd, u_s, xhat_s, dt."""
    def __len__(self):
        return len(self.x)


def _sclc_run(example: str, scenario: Optional[str], dt: float) -> _ReplayColumns:
    """One observer-check cell, simulated in the caller or the worker."""
    setup = build_run(example, "sclc", scenario)
    trace = simulate(setup.plant, setup.law, setup.scenario, dt=dt)
    return _ReplayColumns(x=trace.x, u_cmd=trace.u_cmd, u_s=trace.u_s,
                          xhat_s=trace.xhat_s, dt=trace.dt)


def cmd_observer_check(args) -> int:
    runs = [(ex, plant, sc) for ex in EXAMPLES
            for plant, scenarios in [build_example(ex)] for sc in scenarios]
    for _, _, sc in runs:
        sc.grid(args.dt)  # every grid is checked before the first run
    cells = [(ex, sc.label if ex == "ex3" else None) for ex, _, sc in runs]
    # ex2 and ex3 (i) simulate in the worker, by measured cost (README, CLI).
    records = run_jobs([(cell in (("ex2", None), ("ex3", "i")), _sclc_run, (*cell, args.dt))
                        for cell in cells])
    ok = True
    for (example, scenario), (_, plant, sc), record in zip(cells, runs, records):
        dev = replay_observer(example_decomposition(plant, sc), record)
        label = example + (f"({scenario})" if scenario else "")
        good = dev < OBSERVER_TOL
        ok = ok and good
        print(f"{label}: replay deviation {dev:.3e} {'OK' if good else 'FAIL'}")

    # The construction must refuse a non-Hurwitz primary matrix.
    unstable = PlantModel(name="unstable", n=1, m=1, p=1,
                          field=lambda t, x, u, d: x + u + d, output=lambda x: x,
                          analytic_jacobian=(np.array([[1.0]]), np.array([[1.0]])))
    try:
        make_decomposition(unstable)
    except UnstableA1:
        print("non-Hurwitz A1 rejected: OK")
    else:
        print("non-Hurwitz A1 rejected: FAIL (accepted)")
        ok = False
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scl-lab",
        description="State-compensation linearization benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one example/method cell")
    p_run.add_argument("--example", choices=EXAMPLES)
    p_run.add_argument("--method", choices=METHODS)
    p_run.add_argument("--scenario", choices=SCENARIOS_EX3)
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--t-end", dest="t_end", type=float)
    p_run.add_argument("--out")
    p_run.add_argument("--config", help="JSON config; flags take precedence")
    p_run.set_defaults(func=cmd_run)

    p_tab = sub.add_parser("table1", help="regenerate the comparison table")
    p_tab.add_argument("--dt", type=float, default=DEFAULT_DT)
    p_tab.add_argument("--out")
    p_tab.set_defaults(func=cmd_table1)

    p_lem = sub.add_parser("lemma1-check", help="decomposition exactness sweep")
    p_lem.add_argument("--dt", type=float, default=DEFAULT_DT)
    p_lem.set_defaults(func=cmd_lemma1_check)

    p_obs = sub.add_parser("observer-check", help="observer replay + construction guards")
    p_obs.add_argument("--dt", type=float, default=DEFAULT_DT)
    p_obs.set_defaults(func=cmd_observer_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
