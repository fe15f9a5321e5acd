"""Small dense linear algebra, fixed-step ODE integration, and Riccati synthesis.

Everything here operates on plain numpy arrays: vectors are 1-D float64
arrays, matrices are 2-D.  The routines are sized for desk-scale control
problems (state dimension <= 8) and favour determinism over generality:
fixed-step RK4, central finite differences, closed-form eigenvalues up to
3x3 with a LAPACK fallback above, and a Riccati solve by the matrix sign
function of the Hamiltonian.  numpy is the only dependency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

# Default integration step for all benchmark simulations (seconds).
DEFAULT_DT = 1e-3

# Central finite-difference step for Jacobians.
FD_STEP = 1e-5

# Most steps one fixed-step run may take, about 333x the longest
# shipped run; a finer grid would allocate or loop without end.
MAX_STEPS = 10**7

# |x|_inf beyond this declares the trajectory divergent.
DIVERGENCE_LIMIT = 1e6

# A matrix is Hurwitz when every eigenvalue real part is below this margin.
HURWITZ_MARGIN = -1e-9

MAX_EIG_DIM = 8

# Newton sign iteration of the CARE Hamiltonian: relative 1-norm step
# that ends it, and the iteration cap.
CARE_SIGN_TOL = 1e-13
CARE_MAX_ITER = 50


class NonFiniteState(RuntimeError):
    """A state or derivative evaluation produced NaN or Inf."""

    def __init__(self, t: float, what: str):
        super().__init__(f"non-finite {what} at t={t:.6g}")
        self.t = t
        self.what = what

    def __reduce__(self):
        # args holds only the message; pickle rebuilds from the fields.
        return type(self), (self.t, self.what)


class DivergenceDetected(RuntimeError):
    """State norm exceeded DIVERGENCE_LIMIT; carries the partial trajectory."""

    def __init__(self, t: float, samples: list):
        super().__init__(f"|x|_inf exceeded {DIVERGENCE_LIMIT:g} at t={t:.6g}")
        self.t = t
        self.samples = samples

    def __reduce__(self):
        # args holds only the message; pickle rebuilds from the fields.
        return type(self), (self.t, self.samples)


class NoConvergence(RuntimeError):
    """An iterative numerical routine failed to converge."""


class NotStabilizable(RuntimeError):
    """No stabilizing feedback exists (or none was found) for the pair (A, B)."""


class GridError(ValueError):
    """The time step does not fit a run's span (see step_count)."""


# numpy's own float64 dtype; as_vector and the RK4 steps test for it by identity.
_FLOAT64 = np.dtype(np.float64)


def as_vector(x, dim: Optional[int] = None, name: str = "x") -> np.ndarray:
    """``x`` as a 1-D float64 array; such an array comes back as it is."""
    if not (type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1:
            raise ValueError(f"{name} must be a 1-D vector, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {x.shape[0]}")
    return x


def as_matrix(M, rows: Optional[int] = None, cols: Optional[int] = None,
              name: str = "M") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {A.shape}")
    if rows is not None and A.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {A.shape[0]}")
    if cols is not None and A.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {A.shape[1]}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for one vector ``(n,)``, and row by row for a batch
    ``(B, n)`` with each row the bits of the single call, signed zeros
    included (README, simulation conventions)."""
    if A.shape[1] == 1:  # the plain product, which a BLAS kernel may fuse
        return x * A.ravel()
    return A.dot(x) if x.ndim == 1 else (A @ x[..., None])[..., 0]


def rk4_step(f: Callable, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of x' = f(t, x).

    ``x`` may be one state ``(n,)`` or a batch ``(B, n)``.  Deterministic
    for identical inputs.  Raises NonFiniteState when the combined update
    is not finite (a NaN or Inf at any stage propagates into the sum).
    A float64 ``(1,)`` or ``(2,)`` state whose rates are float64 of its
    shape sums its stages on Python floats with the bits of a batch row,
    and a wider one takes the array expressions (README, simulation conventions).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    h = 0.5 * dt
    k1 = f(t, x)
    if x.shape in ((1,), (2,)) and k1.shape == x.shape and x.dtype is k1.dtype is _FLOAT64:
        w = dt / 6.0
        if x.shape == (1,):  # the sums of the array expressions, on floats
            (a,), (p,) = x.tolist(), k1.tolist()
            (q,) = f(t + h, np.array([a + h * p])).tolist()
            (r,) = f(t + h, np.array([a + h * q])).tolist()
            (s,) = f(t + dt, np.array([a + dt * r])).tolist()
            out = [a + w * (p + 2.0 * q + 2.0 * r + s)]
        else:
            (a, b), (p, p2) = x.tolist(), k1.tolist()
            q, q2 = f(t + h, np.array([a + h * p, b + h * p2])).tolist()
            r, r2 = f(t + h, np.array([a + h * q, b + h * q2])).tolist()
            s, s2 = f(t + dt, np.array([a + dt * r, b + dt * r2])).tolist()
            out = [a + w * (p + 2.0 * q + 2.0 * r + s),
                   b + w * (p2 + 2.0 * q2 + 2.0 * r2 + s2)]
        if not all(map(math.isfinite, out)):
            raise NonFiniteState(t, "RK4 update")
        return np.array(out)
    k2 = f(t + h, x + h * k1)
    k3 = f(t + h, x + h * k2)
    k4 = f(t + dt, x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NonFiniteState(t, "RK4 update")
    return out


def rk4_linear(A, x: np.ndarray, b: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One RK4 step of ``x' = A x + b``, ``b`` held: ``T x + S b`` of a cached
    ``rk4_affine`` for ``n >= 2``, ``rk4_step``'s stage sums for a 1x1 ``A``
    (README, simulation conventions).  A non-finite update raises NonFiniteState."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    one = x.shape == b.shape == (1,) and x.dtype is A.dtype is b.dtype is _FLOAT64
    if A.shape != (1, 1):
        T, S = _affine_maps(A.dtype, A.shape, A.tobytes(), dt)
        out = matvec(T, x) + matvec(S, b)
    else:
        # ex1's 1x1 A becomes T*s + S*c in the benchmark change that re-records its digest.
        a, s, c = ((A.item(), x.item(), b.item()) if one
                   else (float(A[0, 0]), np.asarray(x, float), np.asarray(b, float)))
        h = 0.5 * dt
        p = a * s + c
        q = a * (s + h * p) + c
        r = a * (s + h * q) + c
        out = s + dt / 6.0 * (p + 2.0 * q + 2.0 * r + (a * (s + dt * r) + c))
    if one:
        finite = math.isfinite(out)
    elif out.ndim == 1 and out.dtype is _FLOAT64:  # one state: its floats, as simulate's command
        finite = all(map(math.isfinite, out.tolist()))
    else:
        finite = np.isfinite(out).all()
    if not finite:
        raise NonFiniteState(t, "RK4 update")
    return np.array([out]) if one else out


@functools.lru_cache(maxsize=64)
def _affine_maps(dtype: np.dtype, shape: tuple, data: bytes, dt: float):
    """``rk4_affine`` of the matrix with these contents, so never stale."""
    return rk4_affine(np.frombuffer(data, dtype).reshape(shape), dt)


def rk4_affine(A, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(T, S)`` such that ``T @ x + S @ b`` is exactly one ``rk4_step``
    of the linear field ``x' = A x + b`` with ``b`` held constant:

        T = sum_{k<=4} (dt A)^k / k!,   S = dt * sum_{k<=3} (dt A)^k / (k+1)!.

    Exact in real arithmetic; the README says how far the two round apart.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    M = dt * as_matrix(A, name="A")
    eye = np.eye(M.shape[0])
    M2 = M @ M
    M3 = M2 @ M
    T = eye + M + M2 / 2.0 + M3 / 6.0 + M3 @ M / 24.0
    S = dt * (eye + M / 2.0 + M2 / 6.0 + M3 / 24.0)
    return T, S


def step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of RK4 steps covering [t0, t_end]; dt must divide the span
    in at most MAX_STEPS steps, else GridError."""
    if not t0 < t_end < math.inf:
        raise GridError("invalid time grid: t_end must be finite and exceed t0")
    if not dt > 0.0:
        raise GridError("invalid time grid: dt must be positive")
    span = t_end - t0
    if not span / dt < MAX_STEPS + 0.5:
        raise GridError(f"invalid time grid: dt={dt:g} takes {span / dt:.3g} steps "
                        f"over the span {span:g}, more than MAX_STEPS={MAX_STEPS}")
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > 1e-9:
        raise GridError(f"invalid time grid: dt={dt:g} does not divide the span {span:g}")
    return n


def integrate(f: Callable, x0, t0: float, t_end: float,
              dt: float) -> List[Tuple[float, np.ndarray]]:
    """Fixed-step RK4 trajectory of x' = f(t, x) over [t0, t_end].

    Returns ``1 + (t_end - t0)/dt`` samples of (t, x).  Raises
    DivergenceDetected (carrying the partial trajectory, divergent
    sample included) as soon as |x|_inf exceeds DIVERGENCE_LIMIT.
    """
    x = as_vector(x0)
    n = step_count(t0, t_end, dt)
    samples = [(t0, x.copy())]
    for k in range(n):
        x = rk4_step(f, t0 + k * dt, x, dt)  # a new array, so no copy
        t_next = t0 + (k + 1) * dt
        samples.append((t_next, x))
        if max(map(abs, x.tolist())) > DIVERGENCE_LIMIT:
            raise DivergenceDetected(t_next, samples)
    return samples


def jacobian_fd(f: Callable, x0, u0) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference Jacobians (A, B) of f(x, u) at (x0, u0).

    Column j of ``[A, B]`` is (f(z0 + h e_j) - f(z0 - h e_j)) / (2 h) over
    the stacked point z0 = (x0, u0), with h = FD_STEP.  Exact for affine
    fields up to round-off.  A and B come back contiguous, the layout of a
    written-out matrix, so ``matvec`` multiplies them the same way.
    """
    x0 = as_vector(x0, name="x0")
    z0 = np.concatenate((x0, as_vector(u0, name="u0")))
    n, k = x0.shape[0], z0.shape[0]

    def probe(z):
        val = np.asarray(f(z[:n], z[n:]), dtype=float)
        if not np.isfinite(val).all():
            raise NonFiniteState(0.0, "finite-difference probe")
        return val

    J = np.empty((n, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = FD_STEP
        J[:, j] = (probe(z0 + e) - probe(z0 - e)) / (2.0 * FD_STEP)
    return np.ascontiguousarray(J[:, :n]), np.ascontiguousarray(J[:, n:])


def _roots_quadratic(c1: float, c0: float) -> np.ndarray:
    # x^2 + c1 x + c0
    disc = c1 * c1 - 4.0 * c0
    if disc >= 0.0:
        s = math.sqrt(disc)
        # Avoid cancellation: compute the larger-magnitude root first.
        if c1 >= 0.0:
            r1 = (-c1 - s) / 2.0
        else:
            r1 = (-c1 + s) / 2.0
        r2 = c0 / r1 if r1 != 0.0 else (-c1 - r1)
        return np.array([r1, r2], dtype=complex)
    s = math.sqrt(-disc) / 2.0
    return np.array([complex(-c1 / 2.0, s), complex(-c1 / 2.0, -s)])


def _roots_cubic(c2: float, c1: float, c0: float) -> np.ndarray:
    # x^3 + c2 x^2 + c1 x + c0, real coefficients.
    shift = c2 / 3.0
    p = c1 - 3.0 * shift * shift
    q = 2.0 * shift ** 3 - shift * c1 + c0
    scale_p = max(abs(c1), 3.0 * shift * shift, 1.0e-300)
    scale_q = max(abs(c0), abs(shift * c1), 2.0 * abs(shift) ** 3, 1.0e-300)
    if abs(p) <= 1e-12 * scale_p and abs(q) <= 1e-12 * scale_q:
        # Triple root; exact for observer-gain companion matrices.
        return np.full(3, complex(-shift))
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    disc_scale = 4.0 * abs(p) ** 3 + 27.0 * q * q
    if abs(disc) <= 1e-10 * disc_scale:
        # One simple and one double real root.
        t1 = 3.0 * q / p
        t2 = -t1 / 2.0
        ts = np.array([t1, t2, t2], dtype=complex)
    elif disc > 0.0:
        # Three distinct real roots (requires p < 0): trigonometric form.
        r = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * r)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        ts = np.array([r * math.cos((theta - 2.0 * math.pi * k) / 3.0)
                       for k in range(3)], dtype=complex)
    else:
        # One real root and a complex pair: Cardano with a stable cube root.
        s = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        if q >= 0.0:
            u = -_cbrt(q / 2.0 + s)
        else:
            u = _cbrt(-q / 2.0 + s)
        v = -p / (3.0 * u)
        t_real = u + v
        re = -t_real / 2.0
        im = (math.sqrt(3.0) / 2.0) * (u - v)
        ts = np.array([complex(t_real), complex(re, im), complex(re, -im)])
    return ts - shift


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a small square matrix.

    Uses characteristic-polynomial closed forms for n <= 3 (so repeated
    observer-gain poles come out exact) and LAPACK above that, up to
    n = 8.
    """
    A = as_matrix(M)
    n, cols = A.shape
    if n != cols:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if n > MAX_EIG_DIM:
        raise ValueError(f"eigenvalues supports n <= {MAX_EIG_DIM}, got {n}")
    if n == 1:
        return np.array([complex(A[0, 0])])
    if n == 2:
        tr = A[0, 0] + A[1, 1]
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        return _roots_quadratic(-tr, det)
    if n == 3:
        c2 = -(A[0, 0] + A[1, 1] + A[2, 2])
        c1 = (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
              + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
              + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
        c0 = -np.linalg.det(A)
        return _roots_cubic(c2, c1, c0)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc


def is_hurwitz(M) -> bool:
    """True when every eigenvalue real part is below -1e-9."""
    return bool(np.max(eigenvalues(M).real) < HURWITZ_MARGIN)


@dataclass
class CareProblem:
    """Data for the continuous algebraic Riccati equation.

    A'P + PA - P B R^-1 B' P + Q = 0 with Q symmetric PSD and R symmetric
    positive definite.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.A = as_matrix(self.A, name="A")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError("A must be square")
        self.B = as_matrix(self.B, rows=n, name="B")
        m = self.B.shape[1]
        self.Q = as_matrix(self.Q, rows=n, cols=n, name="Q")
        self.R = as_matrix(self.R, rows=m, cols=m, name="R")
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-12:
            raise ValueError("Q must be symmetric within 1e-12")
        try:
            np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("R must be symmetric positive definite") from exc


def care_residual(p: CareProblem, P: np.ndarray) -> float:
    """Infinity norm of the Riccati residual at P."""
    RiBtP = np.linalg.solve(p.R, p.B.T @ P)
    res = p.A.T @ P + P @ p.A - P @ p.B @ RiBtP + p.Q
    return float(np.max(np.abs(res)))


def solve_care(p: CareProblem) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the CARE and return (P, K) with K = R^-1 B' P.

    W = sign(H) for H = [[A, -B R^-1 B'], [-Q, -A']] comes from the
    Newton iteration Z <- (Z / c + c Z^-1) / 2 with determinant scaling
    c = |det Z|^(1/2n) (Roberts 1980; Byers 1987).  The stable invariant
    subspace of H is the null space of W + I and, when the stabilizing
    solution exists, the graph [I; P]: so [W12; W22 + I] P =
    -[W11 + I; W21], solved in the least-squares sense.

    The returned P is symmetric PSD with residual below
    1e-8 * (1 + |P|_inf^2), and A - B K is verified Hurwitz.  Raises
    NotStabilizable when no stabilizing solution exists (a singular
    iterate, as when H has eigenvalues on the imaginary axis; no
    convergence within CARE_MAX_ITER steps; a rank-deficient graph
    block) and NoConvergence when the result fails the residual bound.
    """
    n = p.A.shape[0]
    G = p.B @ np.linalg.solve(p.R, p.B.T)
    Z = np.block([[p.A, -G], [-p.Q, -p.A.T]])
    eps = np.finfo(float).eps
    for _ in range(CARE_MAX_ITER):
        det = abs(np.linalg.det(Z))
        if not 0.0 < det < math.inf:
            raise NotStabilizable("Hamiltonian has eigenvalues on the imaginary axis")
        Zi = np.linalg.inv(Z)
        # Numerically singular: Zi is noise, and Z / c or c Zi may overflow.
        if not np.linalg.norm(Z, 1) * np.linalg.norm(Zi, 1) < 1.0 / eps:
            raise NotStabilizable("Hamiltonian has eigenvalues on the imaginary axis")
        c = det ** (1.0 / (2 * n))
        Z, prev = 0.5 * (Z / c + c * Zi), Z
        if np.linalg.norm(Z - prev, 1) <= CARE_SIGN_TOL * np.linalg.norm(Z, 1):
            break
    else:
        raise NotStabilizable(f"sign iteration did not converge in {CARE_MAX_ITER} steps")
    eye = np.eye(n)
    graph = np.vstack((Z[:n, n:], Z[n:, n:] + eye))
    P, _, _, sv = np.linalg.lstsq(graph, -np.vstack((Z[:n, :n] + eye, Z[n:, :n])),
                                  rcond=None)
    if sv[-1] <= 2 * n * eps * np.linalg.norm(Z, 1):
        raise NotStabilizable("stable subspace of the Hamiltonian is not a graph [I; P]")
    P = 0.5 * (P + P.T)
    res = care_residual(p, P)
    bound = 1e-8 * (1.0 + float(np.max(np.abs(P))) ** 2)
    if not math.isfinite(res) or res > bound:
        raise NoConvergence(f"CARE residual {res:.3e} exceeds bound {bound:.3e}")
    K = np.linalg.solve(p.R, p.B.T @ P)
    if not is_hurwitz(p.A - p.B @ K):
        raise NotStabilizable("closed loop A - B K is not Hurwitz")
    return P, K
