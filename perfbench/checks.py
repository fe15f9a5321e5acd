"""Correctness checks behind ``failed``: each workload's outputs against
reference values recorded from the library, compared as numbers with a
tolerance, never as bytes.

Byte-identical outputs are counted separately (``digest_match``); a
digest mismatch alone is not a failure.  Any NaN or Inf in an emitted
file is a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

# FLC on scenario (ii) crosses the singular band and amplifies ulp noise:
# a 1e-15 change in x0 moves its IAE by 2e-7 relative.  Every other cell
# moves by at most 1e-15, so 1e-6 separates noise from a real change.
RTOL = 1e-6
ATOL = 1e-9
# The library's cli.LEMMA_TOL and cli.OBSERVER_TOL, fixed here so that
# loosening them in the library does not loosen the benchmark.
LEMMA_TOL = 1e-6
OBSERVER_TOL = 1e-9
# Every TRACE_STRIDE-th row of ex1's trace.csv (and its last row) is
# stored; column sums of |value| cover the rows in between.
TRACE_STRIDE = 50

GUARD_LINE = "non-Hurwitz A1 rejected: OK"
_NONFINITE = re.compile(r"(?<![A-Za-z])(nan|inf|infinity)(?![A-Za-z])",
                        re.IGNORECASE)


@dataclass
class Outcome:
    """Result of checking one operation's outputs."""

    attempted: int
    failures: List[str] = field(default_factory=list)
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    digest_match: int = 0

    def fail(self, count: int, reason: str):
        self.failed = min(self.attempted, self.failed + count)
        self.failures.append(reason)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def has_nonfinite(text: str) -> bool:
    return _NONFINITE.search(text) is not None


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


def _same(value, ref) -> bool:
    """Recursive equality with a tolerance on floats."""
    if isinstance(ref, float) and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return _close(float(value), ref)
    if isinstance(ref, dict):
        return (isinstance(value, dict) and value.keys() == ref.keys()
                and all(_same(value[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(value, list) and len(value) == len(ref)
                and all(_same(v, r) for v, r in zip(value, ref)))
    return type(value) is type(ref) and value == ref


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _digest(outcome: Outcome, name: str, path: Path, ref: dict):
    outcome.digests[name] = sha256(path)
    outcome.digest_match += int(outcome.digests[name] == ref["sha256"][name])


# --- run-ex1 --------------------------------------------------------------

def _read_trace(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def reference_run_ex1(out: Path) -> dict:
    header, data = _read_trace(out / "trace.csv")
    keep = sorted(set(range(0, len(data), TRACE_STRIDE)) | {len(data) - 1})
    return {
        "header": header,
        "rows": len(data),
        "stride_rows": {str(i): data[i].tolist() for i in keep},
        "abs_sums": np.abs(data).sum(axis=0).tolist(),
        "report": json.loads((out / "report.json").read_text()),
        "sha256": {"trace.csv": sha256(out / "trace.csv")},
    }


def check_run_ex1(out: Path, code: int, ref: dict) -> Outcome:
    """One operation: trace.csv, report.json and plot.svg together."""
    outcome = Outcome(attempted=1)
    if code != 0:
        outcome.fail(1, f"exit code {code}")
    try:
        header, data = _read_trace(out / "trace.csv")
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=_reject_constant)
        svg_text = (out / "plot.svg").read_text()
    except (OSError, ValueError) as exc:
        outcome.fail(1, f"unreadable output: {exc}")
        return outcome
    _digest(outcome, "trace.csv", out / "trace.csv", ref)
    if not np.all(np.isfinite(data)):
        outcome.fail(1, "trace.csv holds NaN or Inf")
    if has_nonfinite(svg_text):
        outcome.fail(1, "plot.svg holds NaN or Inf")
    if header != ref["header"] or len(data) != ref["rows"]:
        outcome.fail(1, f"trace.csv shape {len(data)} rows, header {header}")
        return outcome
    for i, want in ref["stride_rows"].items():
        if not all(_close(v, w) for v, w in zip(data[int(i)], want)):
            outcome.fail(1, f"trace.csv row {i} differs from the reference")
            break
    if not all(_close(v, w) for v, w in
               zip(np.abs(data).sum(axis=0), ref["abs_sums"])):
        outcome.fail(1, "trace.csv column sums differ from the reference")
    if not _same(report, ref["report"]):
        outcome.fail(1, "report.json differs from the reference")
    return outcome


# --- table1 ---------------------------------------------------------------

def table_cells(table) -> dict:
    """Plain ``"scenario/method" -> {classification, iae, itae}`` view of
    a ``benchmarks.Table1``."""
    return {f"{sc}/{method}": {"classification": rep.classification,
                               "iae": rep.iae, "itae": rep.itae}
            for (sc, method), rep in table.cells.items()}


def _table_entries(rows: List[List[str]]) -> Dict[str, str]:
    """``"scenario/method/index" -> printed value`` from table1 rows."""
    methods = [m.lower() for m in rows[0][2:]]
    out = {}
    for row in rows[1:]:
        sc, index = row[0].strip("()"), row[1].lower()
        for method, value in zip(methods, row[2:]):
            out[f"{sc}/{method}/{index}"] = value
    return out


def reference_table1(out: Path, cells: dict) -> dict:
    return {"cells": cells,
            "sha256": {"table1.txt": sha256(out / "table1.txt")}}


def check_table1(out: Path, code: int, cells: Optional[dict],
                 ref: dict) -> Outcome:
    """One operation per cell: its classification, IAE and ITAE, as
    computed and as printed in table1.csv and table1.txt."""
    ref_cells = ref["cells"]
    outcome = Outcome(attempted=len(ref_cells))
    if code != 0:
        outcome.fail(len(ref_cells), f"exit code {code}")
        return outcome
    try:
        with (out / "table1.csv").open(newline="") as fh:
            printed = [_table_entries(list(csv.reader(fh)))]
        printed.append(_table_entries(
            [line.split() for line in
             (out / "table1.txt").read_text().splitlines()]))
    except (OSError, IndexError) as exc:
        outcome.fail(len(ref_cells), f"unreadable output: {exc}")
        return outcome
    _digest(outcome, "table1.txt", out / "table1.txt", ref)
    cells = cells or {}
    for key, want in ref_cells.items():
        got = cells.get(key)
        reason = _cell_error(key, got, want, printed)
        if reason:
            outcome.fail(1, f"cell {key}: {reason}")
    return outcome


def _cell_error(key: str, got: Optional[dict], want: dict,
                printed: List[Dict[str, str]]) -> Optional[str]:
    if got is None:
        return "missing"
    if got["classification"] != want["classification"]:
        return f"classified {got['classification']}, want {want['classification']}"
    for index in ("iae", "itae"):
        value, ref_value = got[index], want[index]
        if (value is None) != (ref_value is None) or (
                ref_value is not None and not _close(value, ref_value)):
            return f"{index} {value}, want {ref_value}"
        for table in printed:
            text = table.get(f"{key}/{index}")
            if text is None:
                return f"{index} not printed"
            if ref_value is None:
                if text != "-":
                    return f"{index} printed {text!r}, want '-'"
                continue
            try:
                shown = float(text)
            except ValueError:
                return f"{index} printed {text!r}"
            if not math.isfinite(shown) or abs(shown - ref_value) > 5e-4 + RTOL * abs(ref_value):
                return f"{index} printed {text!r}, want {ref_value:.3f}"
    return None


# --- checks ---------------------------------------------------------------

def reference_checks(cases: list, replays: list, stdout: str) -> dict:
    return {"exactness_cases": len(cases), "replays": len(replays),
            "sha256": {"observer-check": hashlib.sha256(
                stdout.encode()).hexdigest()}}


def check_checks(cases: list, replays: list, stdout: str, code: int,
                 ref: dict) -> Outcome:
    """One operation per exactness case, per replay, and for the guard."""
    n_cases, n_replays = ref["exactness_cases"], ref["replays"]
    outcome = Outcome(attempted=n_cases + n_replays + 1)
    outcome.digests["observer-check"] = hashlib.sha256(stdout.encode()).hexdigest()
    outcome.digest_match = int(outcome.digests["observer-check"]
                               == ref["sha256"]["observer-check"])
    bad = [c for c in cases if not c.deviation < LEMMA_TOL]
    missing = max(0, n_cases - len(cases))
    if bad or missing:
        outcome.fail(len(bad) + missing,
                     f"exactness: {len(bad)} cases at or above {LEMMA_TOL:g}, "
                     f"{missing} missing")
    bad = [d for d in replays if not d < OBSERVER_TOL]
    missing = max(0, n_replays - len(replays))
    if bad or missing:
        outcome.fail(len(bad) + missing,
                     f"replay: {len(bad)} at or above {OBSERVER_TOL:g}, "
                     f"{missing} missing")
    if GUARD_LINE not in stdout.splitlines():
        outcome.fail(1, "non-Hurwitz guard did not reject")
    elif code != 0 and not outcome.failed:
        outcome.fail(1, f"observer-check exit code {code}")
    return outcome
