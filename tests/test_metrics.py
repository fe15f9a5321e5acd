import math

import numpy as np
import pytest

from scl_lab.metrics import (
    DivergentTrace,
    classify,
    iae,
    itae,
    report,
    saturation_interval,
    tracking_error,
)
from scl_lab.plants import SimulationTrace


def make_trace(t, y, y_d=None, sat=None, diverged=False, singular=0, near=0):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(t)
    x = y.reshape(n, 1)
    zeros = np.zeros((n, 1))
    return SimulationTrace(
        t=t, x=x, u_cmd=zeros, u_applied=zeros, u_p=zeros, u_s=zeros,
        xhat_p=x, xhat_s=np.zeros_like(x), y=x,
        y_d=np.zeros(n) if y_d is None else np.asarray(y_d, dtype=float),
        sat_active=np.zeros(n, dtype=bool) if sat is None else np.asarray(sat),
        dt=float(t[1] - t[0]) if n > 1 else 1.0,
        diverged=diverged, singular_events=singular, near_singular_events=near,
    )


GRID = np.arange(0.0, 10.0 + 1e-12, 1e-3)


class TestIndices:
    def test_zero_error(self):
        tr = make_trace(GRID, np.zeros_like(GRID))
        assert iae(tr) == 0.0
        assert itae(tr) == 0.0

    def test_exponential_error(self):
        tr = make_trace(GRID, np.exp(-GRID))
        assert iae(tr) == pytest.approx(1.0 - math.exp(-10.0), abs=1e-5)
        assert itae(tr) == pytest.approx(1.0 - 11.0 * math.exp(-10.0), abs=1e-3)

    def test_constant_error(self):
        tr = make_trace(GRID, np.ones_like(GRID))
        assert iae(tr) == pytest.approx(10.0, abs=1e-9)
        assert itae(tr) == pytest.approx(50.0, abs=1e-6)

    def test_divergent_trace_rejected(self):
        tr = make_trace(GRID, np.ones_like(GRID), diverged=True)
        with pytest.raises(DivergentTrace):
            iae(tr)
        with pytest.raises(DivergentTrace):
            itae(tr)

    def test_error_extractors(self):
        tr = make_trace([0.0, 1.0], [2.0, -3.0], y_d=[1.0, 1.0])
        np.testing.assert_allclose(tracking_error(tr), [-1.0, 4.0])


class TestIndexProperties:
    def test_scaling(self):
        rng = np.random.default_rng(37)
        y = rng.standard_normal(GRID.shape)
        lam = 3.7
        base_iae = iae(make_trace(GRID, y))
        base_itae = itae(make_trace(GRID, y))
        assert iae(make_trace(GRID, lam * y)) == pytest.approx(lam * base_iae, rel=1e-12)
        assert itae(make_trace(GRID, lam * y)) == pytest.approx(lam * base_itae, rel=1e-12)

    def test_horizon_monotonicity(self):
        rng = np.random.default_rng(41)
        y = np.abs(rng.standard_normal(GRID.shape)) + 0.1
        short = make_trace(GRID[:5001], y[:5001])
        full = make_trace(GRID, y)
        assert iae(full) >= iae(short)
        assert itae(full) >= itae(short)

    def test_itae_bounded_by_horizon_times_iae(self):
        rng = np.random.default_rng(43)
        y = rng.standard_normal(GRID.shape)
        tr = make_trace(GRID, y)
        assert itae(tr) <= 10.0 * iae(tr) + 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(47)
        tr = make_trace(GRID, rng.standard_normal(GRID.shape))
        assert iae(tr) >= 0.0
        assert itae(tr) >= 0.0


class TestSaturationInterval:
    def test_never_saturated(self):
        tr = make_trace(GRID, np.ones_like(GRID))
        assert saturation_interval(tr) is None

    def test_always_saturated(self):
        tr = make_trace(GRID, np.ones_like(GRID), sat=np.ones_like(GRID, dtype=bool))
        assert saturation_interval(tr) == (0.0, 10.0)

    def test_single_interval(self):
        sat = (GRID >= 3.3) & (GRID <= 11.5)
        tr = make_trace(GRID, np.ones_like(GRID), sat=sat)
        t0, t1 = saturation_interval(tr)
        assert t0 == pytest.approx(3.3, abs=2e-3)
        assert t1 == pytest.approx(10.0, abs=2e-3)  # clipped at horizon end


class TestClassify:
    def test_converged(self):
        assert classify(make_trace(GRID, np.zeros_like(GRID))) == "converged"

    def test_unstable(self):
        assert classify(make_trace(GRID, np.ones_like(GRID), diverged=True)) == "unstable"

    def test_singular_takes_precedence(self):
        tr = make_trace(GRID, np.ones_like(GRID), diverged=True, singular=1)
        assert classify(tr) == "singular"

    def test_near_singular_pass_flags_run(self):
        assert classify(make_trace(GRID, np.ones_like(GRID), near=3)) == "singular"


class TestReport:
    def test_converged_report_carries_indices(self):
        rep = report(make_trace(GRID, np.exp(-GRID)))
        assert rep.classification == "converged"
        assert rep.stable
        assert rep.iae == pytest.approx(1.0 - math.exp(-10.0), abs=1e-5)
        assert rep.final_state_norm == pytest.approx(math.exp(-10.0), rel=1e-9)

    def test_divergent_report_has_dash_semantics(self):
        rep = report(make_trace(GRID, np.ones_like(GRID), diverged=True))
        assert rep.iae is None and rep.itae is None
        assert not rep.stable

    def test_bounded_singular_run_keeps_indices(self):
        rep = report(make_trace(GRID, np.ones_like(GRID), near=2))
        assert rep.classification == "singular"
        assert rep.iae is not None

    def test_as_dict_round_trip(self):
        rep = report(make_trace(GRID, np.exp(-GRID)))
        d = rep.as_dict()
        assert d["classification"] == "converged"
        assert d["saturation_interval"] is None
