"""The plant fields, the observer step, the linear products and the
harness's batched output keep their bits.

``_ex1_field`` and ``_ex3_remainder`` index components as ``x.T[k]``;
``_ex3_field`` reads one float64 state and its input as Python floats
(``x.tolist()``) and a batch, or a state of another dtype, as ``x.T[k]``.
The ex3 forms write through one ``out.T`` view of a preallocated output,
and the ex1 remainder is a whole-array expression on the ``(..., 1)``
arrays.  The references below are the ``np.stack`` and ``[..., 0]``
forms they replaced; the new forms must equal them bit for bit, on one
state and on a batch, and lane k of a batch must equal the single call
on lane k.
The same per-lane identity holds for the ex1 and ex2 fields and for
``Decomposition.advance`` on every shipped model, which is what lets
``replay_observer`` batch the run's observer steps and still find them
exact.  ``matvec`` and ``LqrLaw`` multiply one vector with ``.dot``, or
a one-column matrix as the plain product, which must give the bits of
the ``@`` product, up to the sign of a zero when the inner dimension is
1 (see ``matmul_bits``); a batch row of ``matvec`` has the bits of the
one-vector call, signed zeros included.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import OBSERVER_MODELS
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scl_lab.controllers import LqrLaw
from scl_lab.decomposition import make_decomposition_ex1
from scl_lab.numerics import matvec, rk4_affine, rk4_step
from scl_lab.plants import (
    _ex1_field,
    _ex2_field,
    _ex3_field,
    _ex3_remainder,
)


def reference_ex1_field(t, x, u, d):
    xv = x[..., 0]
    uv = u[..., 0]
    return (-4.0 * xv + xv * uv)[..., None] + d


def reference_ex1_remainder(gain):
    def remainder(t, x, xs, u, u_s):
        uv = u[..., 0]
        return (-4.0 * xs[..., 0] + x[..., 0] * uv - gain * uv
                + gain * u_s[..., 0])[..., None]

    return remainder


def reference_ex3_field(t, x, u, d):
    x1 = x[..., 0]
    x2 = x[..., 1]
    dx1 = x2 + np.sin(x2)
    dx2 = -2.0 * x1 - 3.0 * x2 + 2.0 * x2 * x2 + u[..., 0]
    return np.stack((dx1, dx2), axis=-1) + d


def reference_ex3_remainder(t, x, xs, u, u_s):
    x2 = x[..., 1]
    s1 = xs[..., 0]
    s2 = xs[..., 1]
    d1 = 2.0 * s2 - x2 + np.sin(x2)
    d2 = -2.0 * s1 - 3.0 * s2 + 2.0 * x2 * x2 + u_s[..., 0]
    return np.stack((d1, d2), axis=-1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits_but_nan(a, b):
    """``same_bits`` with NaN matching NaN: where two NaNs meet in a sum,
    IEEE 754 leaves open which one comes out, and numpy's scalar and array
    loops need not pick alike."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan]))


values = st.floats(-1e6, 1e6, allow_nan=False)


def vectors(*shape):
    return arrays(np.float64, shape, elements=values)


@st.composite
def batches(draw, cols):
    size = draw(st.integers(1, 20))
    return draw(vectors(size, cols))


disturbances = st.one_of(st.just(0.0), vectors(2))

SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.5)


class TestEx1Field:
    @settings(max_examples=200, deadline=None)
    @given(x=vectors(1), u=vectors(1), d=st.one_of(st.just(0.0), vectors(1)))
    def test_single_state_matches_indexed_form(self, x, u, d):
        assert same_bits(_ex1_field(0.0, x, u, d), reference_ex1_field(0.0, x, u, d))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.one_of(st.just(0.0), vectors(1)))
    def test_batch_matches_indexed_form(self, data, d):
        x = data.draw(batches(1))
        u = data.draw(vectors(x.shape[0], 1))
        assert same_bits(_ex1_field(0.0, x, u, d), reference_ex1_field(0.0, x, u, d))


gains = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda g: g != 0.0)


class TestEx1Remainder:
    @settings(max_examples=200, deadline=None)
    @given(gain=gains, x=vectors(1), xs=vectors(1), u=vectors(1), u_s=vectors(1))
    def test_single_state_matches_indexed_form(self, gain, x, xs, u, u_s):
        remainder = make_decomposition_ex1(gain).remainder_field
        assert same_bits(remainder(0.0, x, xs, u, u_s),
                         reference_ex1_remainder(gain)(0.0, x, xs, u, u_s))

    @settings(max_examples=100, deadline=None)
    @given(gain=gains, data=st.data())
    def test_batch_matches_indexed_form(self, gain, data):
        x = data.draw(batches(1))
        xs, u, u_s = (data.draw(vectors(x.shape[0], 1)) for _ in range(3))
        remainder = make_decomposition_ex1(gain).remainder_field
        assert same_bits(remainder(0.0, x, xs, u, u_s),
                         reference_ex1_remainder(gain)(0.0, x, xs, u, u_s))


class TestEx3Field:
    @settings(max_examples=200, deadline=None)
    @given(x=vectors(2), u=vectors(1), d=disturbances)
    def test_single_state_matches_stack_form(self, x, u, d):
        assert same_bits(_ex3_field(0.0, x, u, d), reference_ex3_field(0.0, x, u, d))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=disturbances)
    def test_batch_matches_stack_form_and_each_lane(self, data, d):
        x = data.draw(batches(2))
        u = data.draw(vectors(x.shape[0], 1))
        out = _ex3_field(0.0, x, u, d)
        assert same_bits(out, reference_ex3_field(0.0, x, u, d))
        for k in range(x.shape[0]):
            assert same_bits(out[k], _ex3_field(0.0, x[k], u[k], d))

    @pytest.mark.parametrize("d", [0.0, np.zeros(2), np.array([-0.0, -0.0])],
                             ids=["scalar-d", "vector-d", "negative-zero-d"])
    def test_single_state_keeps_signed_zeros_and_non_finite_values(self, d):
        # Values the finite strategy never draws, read as floats on one
        # state; only a -0.0 disturbance lets a -0.0 derivative through.
        rows = np.array(list(itertools.product(SPECIAL_FLOATS, repeat=3)))
        x, u = rows[:, :2], rows[:, 2:]
        with np.errstate(all="ignore"):
            out = _ex3_field(0.0, x, u, d)
            for k in range(rows.shape[0]):
                single = _ex3_field(0.0, x[k], u[k], d)
                assert same_bits_but_nan(single, reference_ex3_field(0.0, x[k], u[k], d)), rows[k]
                assert same_bits_but_nan(single, out[k]), rows[k]

    @pytest.mark.parametrize("x", [np.array([0.1, 0.7], np.float32),
                                   np.array([3, -2**53 - 1], np.int64)],
                             ids=["float32", "int64"])
    @pytest.mark.parametrize("d", [0.0, np.zeros(2)], ids=["scalar-d", "vector-d"])
    def test_single_state_of_another_dtype_keeps_its_arithmetic(self, x, d):
        # A Python float times a float32 scalar rounds in float32 (NEP 50),
        # so only a float64 state is read as floats.
        u = np.array([0.3])
        assert same_bits(_ex3_field(0.0, x, u, d), reference_ex3_field(0.0, x, u, d))


class TestEx3Remainder:
    @settings(max_examples=200, deadline=None)
    @given(x=vectors(2), xs=vectors(2), u=vectors(1), u_s=vectors(1))
    def test_single_state_matches_stack_form(self, x, xs, u, u_s):
        assert same_bits(_ex3_remainder(0.0, x, xs, u, u_s),
                         reference_ex3_remainder(0.0, x, xs, u, u_s))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_batch_matches_stack_form_and_each_lane(self, data):
        x = data.draw(batches(2))
        xs, u, u_s = (data.draw(vectors(x.shape[0], cols)) for cols in (2, 1, 1))
        out = _ex3_remainder(0.0, x, xs, u, u_s)
        assert same_bits(out, reference_ex3_remainder(0.0, x, xs, u, u_s))
        for k in range(x.shape[0]):
            assert same_bits(out[k], _ex3_remainder(0.0, x[k], xs[k], u[k], u_s[k]))


def lanes_match_single_calls(out, fn, *batch):
    return all(same_bits(out[k], fn(*(a[k] for a in batch)))
               for k in range(batch[0].shape[0]))


class TestLinearFields:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.one_of(st.just(0.0), vectors(1)))
    def test_ex1_batch_matches_each_lane(self, data, d):
        x = data.draw(batches(1))
        u = data.draw(vectors(x.shape[0], 1))
        out = _ex1_field(0.0, x, u, d)
        assert lanes_match_single_calls(out, lambda xk, uk: _ex1_field(0.0, xk, uk, d), x, u)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.one_of(st.just(0.0), vectors(3)))
    def test_ex2_batch_matches_each_lane(self, data, d):
        # A batched ``x @ A.T`` is one BLAS gemm and rounds differently
        # from the single-state product; the field must not use it.
        x = data.draw(batches(3))
        u = data.draw(vectors(x.shape[0], 1))
        out = _ex2_field(0.0, x, u, d)
        assert lanes_match_single_calls(out, lambda xk, uk: _ex2_field(0.0, xk, uk, d), x, u)


dims = st.integers(1, 8)


def matmul_bits(product, inner):
    """``product`` with the bits ``A @ x`` must have: all of them when the
    inner dimension exceeds 1.  With one inner entry ``matvec`` takes the
    plain product, so a zero entry may keep the -0.0 that ``A @ x``, a
    sum from +0.0, turns into +0.0; adding +0.0 maps -0.0 to +0.0 and
    leaves every other value's bits alone."""
    return product if inner > 1 else product + 0.0


class TestDotProducts:
    @settings(max_examples=300, deadline=None)
    @given(rows=dims, cols=dims, data=st.data())
    def test_matvec_has_the_bits_of_matmul(self, rows, cols, data):
        A = data.draw(vectors(rows, cols))
        x = data.draw(vectors(cols))
        assert same_bits(matmul_bits(matvec(A, x), cols), A @ x)
        batch = data.draw(batches(cols))
        out = matvec(A, batch)
        assert out.shape == (batch.shape[0], rows)
        assert lanes_match_single_calls(out, lambda xk: matvec(A, xk), batch)
        assert lanes_match_single_calls(matmul_bits(out, cols), lambda xk: A @ xk, batch)

    @pytest.mark.parametrize("a,x", [(-1.0, 0.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_one_by_one_keeps_the_sign_of_a_zero_product(self, a, x):
        A, v = np.array([[a]]), np.array([x])
        assert same_bits(matvec(A, v), np.array([-0.0]))
        assert same_bits(A @ v, np.array([0.0]))
        assert same_bits(matvec(A, v[None]), np.array([[-0.0]]))

    def test_one_column_keeps_the_sign_of_an_underflowing_product(self):
        # 1e-200 * -1e-200 rounds to -0.0, where a fused BLAS kernel (the
        # AVX-512 gemv) may keep or drop the sign; matvec takes the product.
        A, v = np.array([[1e-200], [0.0], [2.0]]), np.array([-1e-200])
        expected = np.array([-0.0, -0.0, -2e-200])
        assert same_bits(matvec(A, v), expected)
        assert same_bits(matvec(A, v[None]), expected[None])

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 3), n=dims, data=st.data())
    def test_lqr_control_has_the_bits_of_minus_k_x(self, m, n, data):
        K = data.draw(vectors(m, n))
        x = data.draw(vectors(n))
        assert same_bits(matmul_bits(LqrLaw(K).control(x), n), -K @ x)


observer_signals = st.floats(-1e3, 1e3, allow_nan=False)
signed_zeros_and_units = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])


class TestObserverStep:
    @settings(max_examples=100, deadline=None)
    @given(model=st.sampled_from(sorted(OBSERVER_MODELS)), data=st.data(),
           dt=st.sampled_from([1e-3, 1e-2, 0.1]))
    def test_batch_matches_each_lane(self, model, data, dt):
        dec = OBSERVER_MODELS[model]()
        size = data.draw(st.integers(1, 20))
        xs, x, u, u_s = (
            data.draw(arrays(np.float64, (size, cols), elements=observer_signals))
            for cols in (dec.n, dec.n, dec.m, dec.m))
        out = dec.advance(xs, x, u, u_s, 0.0, dt)
        assert out.shape == (size, dec.n)
        assert lanes_match_single_calls(
            out, lambda *row: dec.advance(*row, 0.0, dt), xs, x, u, u_s)

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from(sorted(OBSERVER_MODELS)), data=st.data())
    def test_zero_signals_keep_the_bits_of_the_matmul_step(self, model, data):
        # Exact zeros, of both signs, are where matvec's one-column
        # product and ``@`` can differ (in the sign of a zero).  The
        # shipped model fields add their disturbance, +0.0 in the model,
        # last, so they never return -0.0 and the step keeps the bits of
        # the ``@`` form: rk4_step's stages for ex1's 1x1 A1, the closed
        # form ``T xs + S drive`` for n >= 2.  Its batched row has its
        # bits whatever the field returns, as matvec's rows do.
        dec = OBSERVER_MODELS[model]()
        xs, x, u, u_s = (
            data.draw(arrays(np.float64, cols, elements=signed_zeros_and_units))
            for cols in (dec.n, dec.n, dec.m, dec.m))
        out = dec.advance(xs, x, u, u_s, 0.0, 1e-3)
        drive = dec.model_field(0.0, x, u) - dec.A1 @ x + dec.B1 @ (u_s - u)
        if dec.n == 1:
            expected = rk4_step(lambda _t, v: dec.A1 @ v + drive, 0.0, xs, 1e-3)
        else:
            T, S = rk4_affine(dec.A1, 1e-3)
            expected = T @ xs + S @ drive
        assert same_bits(out, expected)
        assert same_bits(dec.advance(xs[None], x[None], u[None], u_s[None], 0.0, 1e-3)[0], out)


def test_batched_output_matches_per_row_output_on_ex2(bench):
    # ex2's output is a matmul, the one shipped output where a batched
    # call could round differently from a per-row call.
    trace, _ = bench.cell("ex2", "sclc")
    output = bench.setup("ex2", "sclc").plant.output
    per_row = np.array([output(row) for row in trace.x])
    assert len(trace) == 25001
    assert same_bits(trace.y, per_row)
