import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import re
import string
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scl_lab import cli
from scl_lab.benchmarks import (
    _REJECTIONS,
    EXAMPLES,
    METHODS,
    SCENARIOS_EX3,
    build_run,
)
from scl_lab.cli import main, write_trace_csv
from scl_lab.controllers import ControlLaw, ZeroLaw
from scl_lab.numerics import DEFAULT_DT, step_count
from scl_lab.plants import PlantModel, SimulationTrace, build_example


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def refused_with(tmp_path, capsys, flags, config=None):
    """Run ``run`` on a selection it must refuse; return its exit code and
    stderr, and check that no output directory was made."""
    out = tmp_path / "out"
    argv = ["run", *flags, "--out", str(out)]
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses names outside its choices
        code = exc.code
    assert not out.exists()
    return code, capsys.readouterr().err


class TestRunCommand:
    def test_writes_trace_report_and_plot(self, tmp_path):
        out = tmp_path / "cell"
        code = main(["run", "--example", "ex3", "--method", "sclc",
                     "--scenario", "i", "--t-end", "2", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "trace.csv")
        # t + x(2) + four input channels + xhat_p(2) + xhat_s(2) + y + y_d
        assert rows[0] == ["t", "x1", "x2", "u_commanded", "u_applied",
                           "u_p", "u_s", "xhat_p1", "xhat_p2",
                           "xhat_s1", "xhat_s2", "y", "y_d"]
        assert len(rows) == 1 + 2001
        report = json.loads((out / "report.json").read_text())
        assert report["classification"] == "converged"
        assert report["samples"] == 2001
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--example", "ex3", "--method", "jlc",
                         "--scenario", "i", "--t-end", "1",
                         "--out", str(out)]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_divergent_run_exits_3_and_still_reports(self, tmp_path):
        out = tmp_path / "div"
        code = main(["run", "--example", "ex3", "--method", "jlc",
                     "--scenario", "ii", "--out", str(out)])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["stable"] is False
        assert report["iae"] is None
        for row in read_rows(out / "trace.csv")[1:]:
            assert all(cell not in ("nan", "inf", "-inf") for cell in row)

    def test_divergence_before_first_sample_reports_null_t_end(
            self, tmp_path, monkeypatch):
        class NanAlways(ControlLaw):
            def step(self, x, ref, t, dt):
                return np.array([math.nan])

        def nan_cell(example, method, scenario):
            return replace(build_run(example, method, scenario), law=NanAlways())

        monkeypatch.setattr(cli, "build_run", nan_cell)
        out = tmp_path / "nan"
        assert main(["run", "--example", "ex3", "--method", "jlc",
                     "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["t_end"] is None and report["samples"] == 0
        assert report["classification"] == "unstable"
        assert len(read_rows(out / "trace.csv")) == 1
        assert "(no data)" in (out / "plot.svg").read_text()

    def test_near_constant_run_plots_distinct_finite_labels(
            self, tmp_path, monkeypatch):
        # x drifts by about 1e-6 from 5e5: at six digits every state
        # axis tick would read "500000".
        drift = PlantModel(name="drift", n=1, m=1, p=1,
                           field=lambda t, x, u, d: 0.0 * x + 1e-6,
                           output=lambda x: x[..., 0:1])

        def drift_cell(example, method, scenario):
            setup = build_run(example, method, scenario)
            return replace(setup, plant=drift, law=ZeroLaw(1),
                           scenario=replace(setup.scenario, x0=np.array([5e5]),
                                            reference=None))

        monkeypatch.setattr(cli, "build_run", drift_cell)
        out = tmp_path / "drift"
        assert main(["run", "--example", "ex1", "--method", "sclc",
                     "--t-end", "1", "--out", str(out)]) == 0
        doc = (out / "plot.svg").read_text()
        state_panel = doc.split('<text class="t"')[1]
        labels = re.findall(r'text-anchor="end">([^<]*)</text>', state_panel)
        values = [float(v) for v in labels]
        assert len(set(labels)) == len(labels) >= 3
        assert all(map(math.isfinite, values))
        assert len({f"{v:.6g}" for v in values}) < len(values)

    def test_default_scenario_is_recorded(self, tmp_path, capsys):
        out = tmp_path / "default"
        code = main(["run", "--example", "ex3", "--method", "jlc",
                     "--t-end", "1", "--out", str(out)])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["scenario"] == "i"
        assert capsys.readouterr().out.startswith("ex3/jlc/i: ")

    def test_single_scenario_examples_record_null(self, tmp_path):
        out = tmp_path / "ex2"
        assert main(["run", "--example", "ex2", "--method", "jlc",
                     "--t-end", "1", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["scenario"] is None

    def test_invalid_time_grid_exits_2(self, tmp_path, capsys):
        bad = (["--dt", "3e-4"], ["--dt", "0"], ["--dt", "-1"],
               ["--t-end", "-1"], ["--dt", "nan"], ["--t-end", "inf"])
        for flags in bad:
            code = main(["run", "--example", "ex3", "--method", "jlc",
                         "--out", str(tmp_path / "grid")] + flags)
            assert code == 2, flags
            assert "invalid time grid" in capsys.readouterr().err
        assert not (tmp_path / "grid").exists()

    def test_delay_not_on_grid_exits_2(self, tmp_path, capsys):
        # 0.0625 divides the 10 s horizon but not the 0.2 s input delay.
        code = main(["run", "--example", "ex3", "--method", "sclc",
                     "--scenario", "iv", "--dt", "0.0625",
                     "--out", str(tmp_path / "delay")])
        assert code == 2
        assert "invalid time grid" in capsys.readouterr().err
        assert not (tmp_path / "delay").exists()

    def test_non_numeric_config_time_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        for key in ("dt", "t_end"):
            for value in ("abc", None, True):
                cfg.write_text(json.dumps({"example": "ex3", "method": "jlc",
                                           key: value}))
                assert main(["run", "--config", str(cfg),
                             "--out", str(tmp_path / "cfg")]) == 2, (key, value)
                assert "must be a number" in capsys.readouterr().err
        assert not (tmp_path / "cfg").exists()

    @pytest.mark.parametrize("key", ["t_end", "dt"])
    def test_config_integer_beyond_the_float_range_exits_2(
            self, tmp_path, capsys, key):
        code, err = refused_with(tmp_path, capsys, [],
                                 {"example": "ex3", "method": "jlc", key: 10**400})
        assert code == 2
        assert err == f"error: config {key!r}: int too large to convert to float\n"

    def test_rejected_combinations_exit_2(self, tmp_path, capsys):
        # Every rejected (example, method) pair, and unknown names given
        # by flag (argparse) or by config file.
        cases = [(["--example", ex, "--method", m], None, f"{m} on {ex}: {reason}")
                 for (ex, m), reason in sorted(_REJECTIONS.items())]
        cases += [
            (["--example", "ex4", "--method", "sclc"], None, "invalid choice: 'ex4'"),
            (["--example", "ex3", "--method", "lqr"], None, "invalid choice: 'lqr'"),
            (["--example", "ex3", "--method", "sclc", "--scenario", "v"], None,
             "invalid choice: 'v'"),
            ([], {"example": "ex4", "method": "sclc"}, "unknown example 'ex4'"),
            ([], {"example": "ex3", "method": "lqr"}, "unknown method 'lqr'"),
            ([], {"example": "ex3", "method": "sclc", "scenario": "v"},
             "unknown scenario 'v'"),
        ]
        assert any("irreversible" in reason for *_, reason in cases)
        assert any("equilibrium" in reason for *_, reason in cases)
        for flags, config, reason in cases:
            code, err = refused_with(tmp_path, capsys, flags, config)
            assert (code, reason in err) == (2, True), (flags, config, err)

    def test_scenario_flag_rejected_outside_ex3(self, tmp_path, capsys):
        for ex, method in (("ex1", "sclc"), ("ex2", "jlc")):
            for scenario in ("i", "iv"):
                code, err = refused_with(tmp_path, capsys, [
                    "--example", ex, "--method", method, "--scenario", scenario])
                assert code == 2
                assert f"{ex} has a single scenario" in err

    def test_missing_selection_exits_2(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 2

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"example": "ex3", "method": "jlc",
                                   "scenario": "ii", "t_end": 1.0}))
        out = tmp_path / "cfg"
        # The flag overrides the config's divergent scenario (ii).
        code = main(["run", "--config", str(cfg), "--scenario", "i",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "i"
        assert report["t_end"] == 1.0

    @pytest.mark.parametrize("key, in_config, flag, expected", [
        ("example", "ex2", ["--example", "ex3"], "ex3"),
        ("method", "jlc", ["--method", "flc"], "flc"),
        ("scenario", "ii", ["--scenario", "iii"], "iii"),
        ("dt", 1e-3, ["--dt", "0.002"], 0.002),
        ("t_end", 1.0, ["--t-end", "0.5"], 0.5),
        ("out", "from-config", ["--out", "from-flag"], None),
    ])
    def test_each_flag_overrides_its_config_value(
            self, tmp_path, monkeypatch, key, in_config, flag, expected):
        monkeypatch.chdir(tmp_path)
        config = {"example": "ex3", "method": "jlc", "t_end": 0.5,
                  "out": "from-config", key: in_config}
        Path("run.json").write_text(json.dumps(config))
        assert main(["run", "--config", "run.json", *flag]) == 0
        if key == "out":
            assert Path("from-flag", "report.json").exists()
            assert not Path("from-config").exists()
        else:
            report = json.loads(Path("from-config", "report.json").read_text())
            assert report[key] == expected

    def test_integer_config_dt_is_reported_as_a_float(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"example": "ex3", "method": "sclc",
                                   "dt": 1, "t_end": 2}))
        out = tmp_path / "int"
        # A 1 s step diverges at once; only the recorded dt matters here.
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert '"dt": 1.0,' in (out / "report.json").read_text()

    def test_config_only_run_matches_flags_only_run(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"example": "ex3", "method": "sclc",
                                   "scenario": "iv", "dt": 0.002, "t_end": 1.0,
                                   "out": str(tmp_path / "cfg")}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["run", "--example", "ex3", "--method", "sclc",
                     "--scenario", "iv", "--dt", "0.002", "--t-end", "1",
                     "--out", str(tmp_path / "flags")]) == 0
        for name in ("trace.csv", "report.json", "plot.svg"):
            assert ((tmp_path / "cfg" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes()), name

    @pytest.mark.parametrize("key, value", [
        ("out", ["a"]), ("out", 5), ("out", None), ("example", ["ex3"]),
        ("method", True), ("scenario", None)],
        ids=["out-list", "out-int", "out-null", "example-list", "method-bool",
             "scenario-null"])
    def test_config_selection_and_out_must_be_strings(
            self, tmp_path, monkeypatch, capsys, key, value):
        # Run from a fresh directory without --out: a refused value
        # leaves nothing behind, not even the default directory.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SCL_LAB_OUT", raising=False)
        config = {"example": "ex3", "method": "jlc", "t_end": 0.5, key: value}
        Path("run.json").write_text(json.dumps(config))
        assert main(["run", "--config", "run.json"]) == 2
        assert f"config {key!r} must be a string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"example": "ex3", "methods": "jlc"}))
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("content", [b'{"example": "ex3",', b"\xff\xfe{}"],
                             ids=["not-json", "not-utf8"])
    def test_unreadable_config_exits_2_with_reason(self, tmp_path, capsys, content):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config file {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_env_var_sets_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCL_LAB_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--example", "ex3", "--method", "jlc",
                     "--scenario", "i", "--t-end", "1"])
        assert code == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--example", "ex3", "--method", "jlc", "--t-end", "0.01"],
        ["table1", "--dt", "0.1"]], ids=["run", "table1"])
    def test_empty_env_var_means_the_default_out(self, tmp_path, monkeypatch, argv):
        # An empty SCL_LAB_OUT counts as unset, as an empty --out does: the
        # files go to ./out, not into the current directory.
        monkeypatch.setenv("SCL_LAB_OUT", "")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


# The run command's input surface.  Every name is ASCII letters, so a
# drawn output directory stays inside the case's working directory.
_NAMES = st.text(st.sampled_from(string.ascii_letters), min_size=1, max_size=6)
# Steps and spans that make valid grids of a few steps, and numbers that
# are huge, tiny, negative or non-finite.
_STEPS = st.sampled_from([1e-3, 0.01, 0.05, 0.5, 1.0, 2.5])
_SPANS = st.sampled_from([0.01, 0.05, 0.5, 1.0, 2.5, 5.0])
_NUMBERS = st.integers() | st.floats() | st.just(10**400) | _STEPS | _SPANS
_WORDS = st.sampled_from([*EXAMPLES, *METHODS, *SCENARIOS_EX3, "", "ex9", "pid"])
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | _NAMES | _WORDS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=6)
_FLAG_TEXT = (_NUMBERS.map(str) | _NAMES | _WORDS
              | st.sampled_from(["nan", "inf", "-inf", "-1", "1e400", "0"]))
_FLAG = {"example": "--example", "method": "--method", "scenario": "--scenario",
         "dt": "--dt", "t_end": "--t-end", "out": "--out"}
_CELLS = [(ex, m, sc) for ex in EXAMPLES for m in METHODS if (ex, m) not in _REJECTIONS
          for sc in (SCENARIOS_EX3 if ex == "ex3" else [None])]


@st.composite
def _run_inputs(draw):
    """(config, flags) of one ``run``: a valid cell on a grid of a few
    steps, each setting given in the config, by flag, by both or not at
    all; then up to three faults, each a config value of any JSON type,
    a junk config key, or a flag of the vocabulary with any value."""
    example, method, scenario = draw(st.sampled_from(_CELLS))
    valid = {"example": example, "method": method, "scenario": scenario,
             "dt": draw(_STEPS), "t_end": draw(_SPANS), "out": draw(_NAMES)}
    config, flags = {}, []
    for key, value in valid.items():
        where = draw(st.sampled_from(["config", "flag", "both"] * 2 + ["neither"]))
        if value is not None and where in ("config", "both"):
            config[key] = value
        if value is not None and where in ("flag", "both"):
            flags += [_FLAG[key], str(value)]
    for fault in draw(st.lists(st.sampled_from([*_FLAG, "junk", "flag"]), max_size=3)):
        if fault == "flag":
            flags += [draw(st.sampled_from(list(_FLAG.values()))), draw(_FLAG_TEXT)]
        else:
            config[draw(_NAMES) if fault == "junk" else fault] = draw(_JSON)
    return config, flags


_HORIZONS = [sc.t_end for ex in EXAMPLES for sc in build_example(ex)[1]]


def _most_steps(config, flags):
    """The most steps the drawn run could take, 0 if its grid is invalid:
    a flag beats the config value, which beats the default."""
    def last(flag, default):
        values = [flags[i + 1] for i in range(0, len(flags), 2) if flags[i] == flag]
        return values[-1] if values else default

    dt = last("--dt", config.get("dt", DEFAULT_DT))
    t_end = last("--t-end", config.get("t_end"))

    def steps(span):
        try:
            return step_count(0.0, float(span), float(dt))
        except (TypeError, ValueError, OverflowError):
            return 0

    return max(steps(span) for span in (_HORIZONS if t_end is None else [t_end]))


@contextlib.contextmanager
def _working_directory(path):
    """contextlib.chdir, which Python 3.10 lacks."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class TestRunInputSurface:
    @settings(max_examples=150, deadline=None)
    @given(inputs=_run_inputs())
    @example(inputs=({"example": "ex3", "method": "jlc", "t_end": 10**400}, []))
    @example(inputs=({"example": "ex3", "method": "jlc", "dt": 10**400}, []))
    def test_run_exits_0_2_or_3_and_a_refusal_writes_nothing(self, inputs):
        config, flags = inputs
        # Cheap cases only: a valid grid of at most 50 steps.
        assume(_most_steps(config, flags) <= 50)
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "run.json").write_text(json.dumps(config))
            err = io.StringIO()
            with _working_directory(tmp), \
                    mock.patch.dict(os.environ, {"SCL_LAB_OUT": "default"}), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(["run", "--config", "run.json", *flags])
                except SystemExit as exc:  # argparse refuses the flags
                    code = exc.code
            assert code in (0, 2, 3)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert sum("error:" in line for line in lines) == 1, lines
                assert os.listdir(tmp) == ["run.json"]


class TestTableCommand:
    def test_table_shape(self, tmp_path):
        # Coarse step keeps this a smoke test of the command path.
        code = main(["table1", "--dt", "0.01", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "table1.csv")
        assert rows[0] == ["Sce.", "Index", "SCLC", "JLC", "FLC", "RFLC", "ADRC"]
        assert len(rows) == 9
        assert [r[0] for r in rows[1::2]] == ["(i)", "(ii)", "(iii)", "(iv)"]
        assert (tmp_path / "table1.txt").exists()

    def test_invalid_dt_exits_2(self, tmp_path, capsys):
        for dt in ("3e-4", "0", "-1"):
            assert main(["table1", "--dt", dt, "--out", str(tmp_path)]) == 2
            assert "invalid time grid" in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

    def test_delay_not_on_grid_exits_2(self, tmp_path, capsys):
        assert main(["table1", "--dt", "0.0625", "--out", str(tmp_path)]) == 2
        assert "invalid time grid" in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()


class TestCheckCommands:
    def test_lemma_check_passes_at_coarse_step(self, capsys):
        assert main(["lemma1-check", "--dt", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "worst deviation" in out and "OK" in out

    def test_observer_check_passes_at_coarse_step(self, capsys):
        assert main(["observer-check", "--dt", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "non-Hurwitz A1 rejected: OK" in out

    @pytest.mark.parametrize("dt", ["1.25", "1.0"])
    def test_lemma_check_reports_a_non_finite_sweep_as_failed(self, capsys, dt):
        # Each step divides every horizon, and ex3's RK4 update goes
        # non-finite in the caller while the ex2 share runs in the forked
        # worker; the report is a failed check and the worker is gone.
        assert main(["lemma1-check", "--dt", dt]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1 and "non-finite RK4 update" in out
        assert multiprocessing.active_children() == []

    def test_non_finite_sweep_emits_no_runtime_warning(self, capsys):
        # The diverging lanes overflow before the sweep stops; that is the
        # FAIL line, and numpy warns of nothing, in the caller or the worker.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["lemma1-check", "--dt", "1.25"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_commands_reject_invalid_dt(self, capsys):
        for command in ("lemma1-check", "observer-check"):
            assert main([command, "--dt", "3e-4"]) == 2
            assert "invalid time grid" in capsys.readouterr().err

    def test_observer_check_rejects_delay_not_on_grid(self, capsys):
        assert main(["observer-check", "--dt", "0.0625"]) == 2
        assert "invalid time grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--example", "ex3", "--method", "jlc", "--t-end", "1e300"],
    ["run", "--example", "ex3", "--method", "jlc", "--dt", "1e-300"],
    ["table1", "--dt", "1e-12"],
    ["lemma1-check", "--dt", "1e-12"],
    ["observer-check", "--dt", "1e-12"],
])
def test_grid_of_too_many_steps_exits_2(tmp_path, capsys, monkeypatch, argv):
    # Refused by the step count, before any allocation or output.
    monkeypatch.setenv("SCL_LAB_OUT", str(tmp_path / "out"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid time grid" in err and "more than MAX_STEPS=10000000" in err
    assert not (tmp_path / "out").exists()


def reference_trace_csv(trace):
    """Row-by-row writer: csv.writer with f"{v:.15g}" per cell."""
    n, m, p = trace.x.shape[1], trace.u_cmd.shape[1], trace.y.shape[1]

    def cols(base, count):
        return [base] if count == 1 else [f"{base}{j + 1}" for j in range(count)]

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"x{j + 1}" for j in range(n)]
                    + cols("u_commanded", m) + cols("u_applied", m)
                    + cols("u_p", m) + cols("u_s", m)
                    + [f"xhat_p{j + 1}" for j in range(n)]
                    + [f"xhat_s{j + 1}" for j in range(n)]
                    + cols("y", p) + ["y_d"])
    for k in range(len(trace)):
        row = ([trace.t[k]] + list(trace.x[k])
               + list(trace.u_cmd[k]) + list(trace.u_applied[k])
               + list(trace.u_p[k]) + list(trace.u_s[k])
               + list(trace.xhat_p[k]) + list(trace.xhat_s[k])
               + list(trace.y[k]) + [trace.y_d[k]])
        writer.writerow([f"{v:.15g}" for v in row])
    return buf.getvalue().encode()


@st.composite
def traces(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 40))
    # Finite doubles; hypothesis mixes in -0.0, subnormals and extremes.
    cells = st.floats(allow_nan=False, allow_infinity=False)

    def block(cols):
        return draw(hnp.arrays(np.float64, (rows, cols), elements=cells))

    return SimulationTrace(
        t=block(1)[:, 0], x=block(n), u_cmd=block(m), u_applied=block(m),
        u_p=block(m), u_s=block(m), xhat_p=block(n), xhat_s=block(n),
        y=block(p), y_d=block(1)[:, 0], sat_active=np.zeros(rows, dtype=bool),
        dt=1e-3)


class TestTraceCsv:
    @settings(max_examples=40, deadline=None)
    @given(trace=traces())
    def test_matches_row_by_row_writer(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_csv(trace, path)
            assert path.read_bytes() == reference_trace_csv(trace)
