"""One benchmark operation in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports scl_lab, resolves every cell of the workload
through ``benchmarks.build_run`` (the set-up a CLI user pays on each
invocation), runs the workload once, checks its outputs and prints one
JSON line.  ``--setup-only`` stops after set-up; ``--trace 1`` installs
the span wrappers first; ``--record`` writes the reference values from
this run instead of checking against them.

    PYTHONPATH=src python3 perfbench/child.py --workload table1 --record
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("run-ex1", "table1", "checks")
DEFAULT_SEED = 20240811


def resolve_cells(workload: str):
    """Set-up: every cell the workload runs, resolved before any step."""
    from scl_lab import benchmarks, decomposition, plants

    if workload == "run-ex1":
        return [benchmarks.build_run("ex1", "sclc")]
    if workload == "table1":
        return [benchmarks.build_run("ex3", method, sc)
                for sc in benchmarks.SCENARIOS_EX3
                for method in benchmarks.METHODS]
    cells = [benchmarks.build_run("ex1", "sclc"),
             benchmarks.build_run("ex2", "sclc")]
    cells += [benchmarks.build_run("ex3", "sclc", sc)
              for sc in benchmarks.SCENARIOS_EX3]
    cells += [decomposition.make_decomposition_ex1(20.0),
              decomposition.make_decomposition(plants.build_example2()[0]),
              decomposition.make_decomposition(plants.build_example3()[0])]
    return cells


def operate(workload: str, out: Path, seed: int):
    """Run the workload once; returns (exit code, exactness cases)."""
    from scl_lab import cli, decomposition

    if workload == "run-ex1":
        return cli.main(["run", "--example", "ex1", "--method", "sclc",
                         "--out", str(out)]), []
    if workload == "table1":
        return cli.main(["table1", "--out", str(out)]), []
    cases = decomposition.exactness_suite(seed=seed)
    return cli.main(["observer-check"]), cases


def check(workload, out, code, cases, stdout, tracer, ref):
    import checks

    if workload == "run-ex1":
        return checks.check_run_ex1(out, code, ref)
    if workload == "table1":
        tables = tracer.results["table1"]
        cells = checks.table_cells(tables[-1]) if tables else None
        return checks.check_table1(out, code, cells, ref)
    return checks.check_checks(cases, tracer.results["replays"], stdout,
                               code, ref)


def reference(workload, out, cases, stdout, tracer) -> dict:
    import checks

    if workload == "run-ex1":
        return checks.reference_run_ex1(out)
    if workload == "table1":
        return checks.reference_table1(
            out, checks.table_cells(tracer.results["table1"][-1]))
    return checks.reference_checks(cases, tracer.results["replays"], stdout)


def versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--spawn-time", type=float,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "op"))
    args = parser.parse_args(argv)
    spawned = args.spawn_time if args.spawn_time is not None else time.monotonic()
    from speed import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    import scl_lab

    src = (ROOT / "src").resolve()
    if src not in Path(scl_lab.__file__).resolve().parents:
        print(f"error: scl_lab imported from {scl_lab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    resolve_cells(args.workload)
    setup_raw_s, setup_s = sampler.rescale(spawned, time.monotonic())
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    from tracing import PER_LAYER, Tracer, install, layer_metrics

    tracer = Tracer(enabled=bool(args.trace))
    install(tracer)
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    buf = io.StringIO()
    run_op = tracer.wrap("workload", operate)
    with contextlib.redirect_stdout(buf):
        t0 = time.monotonic()
        code, cases = run_op(args.workload, out, args.seed)
        t1 = time.monotonic()
        wall_raw_s, wall_s = sampler.rescale(t0, t1)
    sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.record:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs[args.workload] = reference(args.workload, out, cases,
                                        buf.getvalue(), tracer)
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0

    ref = json.loads(REFERENCE.read_text())[args.workload]
    outcome = check(args.workload, out, code, cases, buf.getvalue(), tracer,
                    ref)
    steps = (tracer.counts["plants.steps"]
             + tracer.counts["decomposition.exactness.lane_steps"])
    result = {
        "setup_s": setup_s, "setup_raw_s": setup_raw_s, "wall_s": wall_s,
        "wall_raw_s": wall_raw_s, "rss_mb": rss_mb,
        "steps": steps, "attempted": outcome.attempted,
        "failed": outcome.failed, "failures": outcome.failures,
        "digests": outcome.digests, "digest_match": outcome.digest_match,
        "versions": versions(),
    }
    if args.trace:
        layers = layer_metrics(tracer.names, *tracer.arrays(), tracer.counts)
        # Spans include the sampler's pauses, so scale by the whole region.
        to_reference = wall_s / (t1 - t0)
        for name, unit in PER_LAYER:
            if unit in ("us", "ms", "s"):
                layers[name] *= to_reference
        result["layers"] = layers
        tracer.save(out / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
