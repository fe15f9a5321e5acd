"""scl-lab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload run-ex1 --seed 1 --seconds 30 --trace 0

Closed loop with a single client: each operation is one fresh child
process (``child.py``), and the next starts when the previous ends.
With ``--trace 0`` it first starts a few set-up-only children, then runs
operations until the next one would overrun ``--seconds`` (at least
one), and prints the end-to-end metrics.  With ``--trace 1`` it runs
pairs of an untraced and a traced operation instead and prints the
per-layer metrics of the traced ones, plus the tracing overhead.

Every operation's outputs are checked against ``reference.json``.  The
last stdout line is the result; the line before it holds provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import DEFAULT_SEED, WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

END_TO_END = (("wall_s", "s"), ("steps_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
# Every child must end before the whole run's 180 s limit.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        # Hold BLAS to one thread: load stays within the cores nproc reports.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def child(self, *flags: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise ChildFailed("out of time")
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(ROOT / ".bench_out" / self.workload), *flags,
               "--spawn-time", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}:\n"
                              f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repeat(self, seconds: float, *flag_sets):
        """Run the operations in ``flag_sets`` as one group, repeating the
        group until the next would overrun ``seconds``; at least once."""
        groups = []
        t0 = time.monotonic()
        while True:
            groups.append([self.child(*flags) for flags in flag_sets])
            elapsed = time.monotonic() - t0
            if elapsed + elapsed / len(groups) > seconds:
                return groups


def measure(runner: Runner, seconds: int):
    probes = [runner.child("--setup-only") for _ in range(SETUP_PROBES)]
    ops = [g[0] for g in runner.repeat(seconds, ())]
    wall = statistics.median(op["wall_s"] for op in ops)
    metrics = {
        "wall_s": wall,
        "steps_per_s": statistics.median(op["steps"] / op["wall_s"]
                                         for op in ops),
        "setup_s": statistics.median(p["setup_s"] for p in probes + ops),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }
    samples = {"wall_s": len(ops), "steps_per_s": len(ops),
               "setup_s": len(probes) + len(ops), "peak_rss_mb": len(ops)}
    raw = {"wall_raw_s": statistics.median(op["wall_raw_s"] for op in ops),
           "setup_raw_s": statistics.median(p["setup_raw_s"]
                                            for p in probes + ops),
           "steps_per_op": sorted({op["steps"] for op in ops})}
    return ops, metrics, samples, raw


def measure_traced(runner: Runner, seconds: int):
    pairs = runner.repeat(seconds, (), ("--trace", "1"))
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    # The wrappers must not change what the program computes.
    for untraced, op in pairs:
        if op["digests"] != untraced["digests"]:
            op["failed"] = op["attempted"]
            op["failures"].append("traced outputs differ from the untraced run")
    layers = {name: statistics.median(op["layers"][name] for op in traced)
              for name, _ in PER_LAYER if name in traced[0]["layers"]}
    overhead = (statistics.median(op["wall_s"] for op in traced)
                / statistics.median(op["wall_s"] for op in plain) - 1.0)
    ops = plain + traced
    layers["trace.overhead_frac"] = overhead
    layers["outputs.digest_match"] = sum(op["digest_match"] for op in ops)
    layers["outputs.digest_checked"] = sum(len(op["digests"]) for op in ops)
    samples = {name: len(traced) for name, _ in PER_LAYER}
    samples["trace.overhead_frac"] = len(pairs)
    return ops, layers, samples, {"trace_overhead_frac": overhead}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scl_lab" / "__init__.py").is_file():
        print(f"error: no scl_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            ops, values, samples, extra = measure_traced(runner, args.seconds)
            units = dict(PER_LAYER)
        else:
            ops, values, samples, extra = measure(runner, args.seconds)
            units = dict(END_TO_END)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **ops[0]["versions"], "commit": git_commit(),
        "samples": samples, "failed_frac": failed / attempted,
        "digest_match": sum(op["digest_match"] for op in ops),
        "digest_checked": sum(len(op["digests"]) for op in ops),
        "failures": sorted({f for op in ops for f in op["failures"]})[:20],
        "trace_overhead_frac": None, **extra,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
