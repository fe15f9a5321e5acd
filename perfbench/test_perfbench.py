"""Tests of the benchmark itself: its correctness checks count failures,
and every metric it prints is declared in BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((HERE / "reference.json").read_text())


def _result_line(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == dict(END_TO_END)
    assert _declared("per_layer") == dict(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == ["run-ex1", "table1", "checks"]


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_declared(trace, kind):
    result = _result_line("--workload", "run-ex1", "--seed", "3",
                          "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(kind)


def test_layer_metrics_self_time_and_names():
    names = ["workload", "plants.simulate", "plants.field", "controllers.stage"]
    # simulate [0, 10] holds two field calls (2 s each) and one stage call.
    ids = np.array([0, 1, 2, 2, 3])
    parents = np.array([-1, 0, 1, 1, 1])
    starts = np.array([0.0, 0.0, 1.0, 4.0, 7.0])
    ends = np.array([10.0, 10.0, 3.0, 6.0, 8.0])
    out = layer_metrics(names, ids, parents, starts, ends,
                        {"plants.steps": 5})
    assert out["plants.simulate.self_us_per_step"] == pytest.approx(1e6)
    assert out["plants.field.calls"] == 2
    assert out["controllers.stage.calls"] == 1
    assert out["controllers.lqr.us_per_call"] == 0.0
    declared = set(_declared("per_layer"))
    extra = {"trace.overhead_frac", "outputs.digest_match",
             "outputs.digest_checked"}
    assert set(out) | extra == declared


@pytest.fixture(scope="module")
def ex1_out(tmp_path_factory):
    from scl_lab import cli

    out = tmp_path_factory.mktemp("ex1")
    assert cli.main(["run", "--example", "ex1", "--method", "sclc",
                     "--out", str(out)]) == 0
    return out


def test_run_ex1_clean_outputs_pass(ex1_out):
    outcome = checks.check_run_ex1(ex1_out, 0, REFS["run-ex1"])
    assert (outcome.attempted, outcome.failed) == (1, 0), outcome.failures
    assert outcome.digest_match == 1


@pytest.mark.parametrize("name,old,new", [
    ("trace.csv", "\n0.001,", "\nnan,"),
    ("plot.svg", '<polyline points="', '<polyline points="NaN,1 '),
    ("report.json", '"iae": ', '"iae": Infinity, "x": '),
])
def test_run_ex1_nonfinite_output_fails(ex1_out, tmp_path, name, old, new):
    out = Path(shutil.copytree(ex1_out, tmp_path / "out"))
    text = (out / name).read_text()
    assert old in text
    (out / name).write_text(text.replace(old, new, 1))
    assert checks.check_run_ex1(out, 0, REFS["run-ex1"]).failed == 1


@pytest.mark.parametrize("corrupt", [
    lambda r: r["stride_rows"]["600"].__setitem__(1, r["stride_rows"]["600"][1] * (1 + 1e-5)),
    lambda r: r["abs_sums"].__setitem__(2, r["abs_sums"][2] * (1 + 1e-5)),
    lambda r: r["report"].__setitem__("itae", r["report"]["itae"] * (1 + 1e-5)),
    lambda r: r["report"].__setitem__("classification", "unstable"),
])
def test_run_ex1_corrupted_reference_fails(ex1_out, corrupt):
    ref = copy.deepcopy(REFS["run-ex1"])
    corrupt(ref)
    assert checks.check_run_ex1(ex1_out, 0, ref).failed == 1


def _write_table(out: Path, cells: dict):
    """table1.csv / table1.txt in the layout ``cli table1`` emits."""
    methods = ["sclc", "jlc", "flc", "rflc", "adrc"]
    rows = [["Sce.", "Index"] + [m.upper() for m in methods]]
    for sc in ("i", "ii", "iii", "iv"):
        for index in ("iae", "itae"):
            row = [f"({sc})", index.upper()]
            for m in methods:
                v = cells[f"{sc}/{m}"][index]
                row.append("-" if v is None else f"{v:.3f}")
            rows.append(row)
    (out / "table1.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    (out / "table1.txt").write_text("\n".join("  ".join(r) for r in rows) + "\n")


def test_table1_checks(tmp_path):
    ref = REFS["table1"]
    cells = copy.deepcopy(ref["cells"])
    _write_table(tmp_path, cells)
    outcome = checks.check_table1(tmp_path, 0, cells, ref)
    assert (outcome.attempted, outcome.failed) == (20, 0), outcome.failures

    corrupted = copy.deepcopy(ref)
    corrupted["cells"]["iii/adrc"]["iae"] *= 1 + 1e-5
    assert checks.check_table1(tmp_path, 0, cells, corrupted).failed == 1

    cells["ii/sclc"]["classification"] = "unstable"
    assert checks.check_table1(tmp_path, 0, cells, ref).failed == 1


def test_table1_nan_in_emitted_file_fails(tmp_path):
    ref = REFS["table1"]
    cells = copy.deepcopy(ref["cells"])
    _write_table(tmp_path, cells)
    text = (tmp_path / "table1.csv").read_text()
    value = f"{cells['i/rflc']['itae']:.3f}"
    (tmp_path / "table1.csv").write_text(text.replace(value, "nan", 1))
    outcome = checks.check_table1(tmp_path, 0, cells, ref)
    assert outcome.failed == 1 and "i/rflc" in outcome.failures[0]


def test_checks_count_each_failed_check():
    ref = REFS["checks"]
    case = SimpleNamespace(example="ex1", index=0, deviation=1e-15)
    cases = [case] * ref["exactness_cases"]
    stdout = checks.GUARD_LINE + "\n"
    good = checks.check_checks(cases, [1e-16] * 6, stdout, 0, ref)
    assert (good.attempted, good.failed) == (67, 0)

    nan_case = SimpleNamespace(example="ex3", index=4, deviation=float("nan"))
    assert checks.check_checks(cases[:-1] + [nan_case], [1e-16] * 6,
                               stdout, 0, ref).failed == 1
    assert checks.check_checks(cases, [1e-16] * 5, stdout, 0, ref).failed == 1
    assert checks.check_checks(cases, [1e-16] * 6, "", 1, ref).failed == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "table1", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
