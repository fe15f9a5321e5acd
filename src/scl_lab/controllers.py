"""Concrete control laws: PID, LQR state feedback, backstepping, the two
feedback-linearizing controllers with their singularity guards, and a
disturbance-rejection law built on a linear extended state observer.

All laws implement the small ControlLaw interface used by the simulation
harness: ``step(x, ref, t, dt) -> u``, ``control_clamped(x)``, ``reset``
and the declared stage-feedback and singular-event attributes.  Laws are
deterministic for identical call sequences and single-owner mutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NonFiniteState, as_matrix, as_vector, matvec, rk4_affine

# Feedback-linearizing input transforms are declared singular when the
# denominator magnitude drops below this.
SINGULAR_GUARD = 1e-6

# Denominators below this are counted as near-singular passes (input
# spike territory) without tripping the hard guard.
NEAR_SINGULAR = 1e-2


def _gain_vector(K) -> np.ndarray:
    """``K`` flattened to a vector of gains, all of them finite."""
    K = np.asarray(K, dtype=float).ravel()
    if not np.isfinite(K).all():
        raise ValueError("K has non-finite entries")
    return K


class SingularInput(RuntimeError):
    """The input transform denominator vanished (system uncontrollable there)."""

    def __init__(self, x2: float, denominator: float):
        super().__init__(
            f"singular input transform at x2={x2:.9g} (1 + cos x2 = {denominator:.3e})")
        self.x2 = x2
        self.denominator = denominator

    def __reduce__(self):
        # args holds only the message; pickle rebuilds from the fields.
        return type(self), (self.x2, self.denominator)


class ControlLaw:
    """Uniform controller interface: measured state in, input vector out.

    The base ``step`` returns ``control_clamped(x)``, declared here; the
    harness evaluates it at every RK4 stage state of a ``stage_feedback``
    law (the continuous closed loop) instead of holding the sampled command.
    ``reset()`` returns a law to its initial state and zeroes
    ``singular_count`` and ``near_singular_count``; the harness resets a
    law before each run.

    ``channels(u)`` splits the command ``u`` just returned by ``step``
    into ``(u_p, u_s, xhat_s)``: the primary input, the secondary input
    and the remainder-state estimate the trace records.  Each entry is
    an array or a scalar that broadcasts to its trace row.  A
    single-channel law is all primary: ``(u, 0.0, 0.0)``.
    """

    name = "law"
    stage_feedback = False
    singular_count = 0
    near_singular_count = 0

    def step(self, x, ref, t, dt) -> np.ndarray:
        return self.control_clamped(x)

    def control_clamped(self, x) -> np.ndarray:
        raise NotImplementedError

    def reset(self):
        pass

    def channels(self, u):
        """``(u_p, u_s, xhat_s)`` behind the command ``u`` of the last step."""
        return u, 0.0, 0.0


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        for g in (self.kp, self.ki, self.kd):
            if not math.isfinite(g):
                raise ValueError("PID gains must be finite")


class PidTrackingLaw(ControlLaw):
    """Textbook discrete PID on the tracking error ref - output_map(x).

    ``output_map`` extracts the scalar controlled output from whatever
    state vector the law is fed (the raw plant state, or a primary-state
    estimate when used inside a composite law).  Trapezoidal integral,
    backward-difference derivative, no derivative filter and no
    anti-windup.  The first step primes the difference so the derivative
    term starts at zero.
    """

    name = "pid"

    def __init__(self, gains: PidGains, output_map):
        self.gains = gains
        self.output_map = output_map
        self.reset()

    def step(self, x, ref, t, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        e = float(ref) - float(self.output_map(x))
        e_prev = e if self._e_prev is None else self._e_prev
        self.integral += 0.5 * dt * (e + e_prev)
        derivative = (e - e_prev) / dt
        self._e_prev = e
        g = self.gains
        return np.array([g.kp * e + g.ki * self.integral + g.kd * derivative])

    def reset(self):
        self.integral = 0.0
        self._e_prev = None


class LqrLaw(ControlLaw):
    """Static full-state feedback u = -K x.

    Memoryless, so as the top-level law it is always stage-fed; as the
    primary of a composite law it is driven through ``step`` only.
    """

    name = "lqr"
    stage_feedback = True

    def __init__(self, K):
        self.K = as_matrix(K, name="K")
        self._minus_K = -self.K

    def control(self, x):
        # Negating K is exact; -matvec(K, x) can flip the sign of a zero.
        return matvec(self._minus_K, x)

    control_clamped = control


class ZeroLaw(ControlLaw):
    """Emits zero input; stands in for an absent controller channel."""

    name = "zero"

    def __init__(self, m: int = 1):
        self.m = m

    def step(self, x, ref, t, dt):
        return np.zeros(self.m)

    def u_s(self, x, xhat_s):
        return np.zeros(self.m)


@dataclass(frozen=True)
class BacksteppingParams:
    a: float
    c: float

    def __post_init__(self):
        for name in ("a", "c"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"backstepping parameter {name} must be "
                                 "positive and finite")


class BacksteppingSecondary:
    """Recursive stabilizer for the two-state remainder system.

    Drives the remainder-state estimate to zero through the surface
    z2 = xs2 + a*arctan(xs1); the sin terms use the measured x2 so the
    plant nonlinearity cancels exactly.
    """

    def __init__(self, params: BacksteppingParams):
        self.params = params

    def u_s(self, x, xhat_s) -> np.ndarray:
        a, c = self.params.a, self.params.c
        x2 = float(x[1])
        s1 = float(xhat_s[0])
        s2 = float(xhat_s[1])
        z2 = s2 + a * math.atan(s1)
        g = math.sin(x2) - math.sin(s2)
        u = (2.0 * s1 + 3.0 * s2 - 2.0 * x2 * x2
             - a / (s1 * s1 + 1.0) * (math.sin(s2) + s2 + g)
             - c * z2)
        return np.array([u])

    def reset(self):
        pass


class _SingularGuardLaw(ControlLaw):
    """Shared guard of the laws with a 1/(1 + cos x2) input transform
    (README, simulation conventions).  ``control`` checks its argument
    and raises SingularInput inside the hard band; ``control_clamped``
    takes the (2,) float state the harness built and floors the
    denominator there instead, so a run can record the aftermath.
    """

    stage_feedback = True

    def __init__(self, K):
        self.K = _gain_vector(K)
        self.reset()

    def reset(self):
        self.singular_count = 0
        self.near_singular_count = 0

    def _u(self, x, denominator):
        raise NotImplementedError

    def _guarded(self, x, clamp: bool) -> np.ndarray:
        # The hard band lies inside the near-singular one, and counts in both.
        den = 1.0 + math.cos(x[1])
        if abs(den) < NEAR_SINGULAR:
            self.near_singular_count += 1
            if abs(den) < SINGULAR_GUARD:
                self.singular_count += 1
                if not clamp:
                    raise SingularInput(x[1], den)
                den = SINGULAR_GUARD
        return self._u(x, den)

    def control(self, x) -> np.ndarray:
        return self._guarded(as_vector(x, dim=2), clamp=False)

    def control_clamped(self, x) -> np.ndarray:
        return self._guarded(x, clamp=True)


class FlcEx3(_SingularGuardLaw):
    """Exact linearization to a double integrator in z = (x1, x2 + sin x2)."""

    name = "flc"

    def _u(self, x, den):
        x1, x2 = float(x[0]), float(x[1])
        z1 = x1
        z2 = x2 + math.sin(x2)
        v = -(self.K[0] * z1 + self.K[1] * z2)
        u = v / den + 2.0 * x1 + 3.0 * x2 - 2.0 * x2 * x2
        return np.array([u])


class RflcEx3(_SingularGuardLaw):
    """Robust variant: transforms onto the origin-Jacobian target system."""

    name = "rflc"

    def _u(self, x, den):
        x1, x2 = float(x[0]), float(x[1])
        z1 = x1
        z2 = 0.5 * x2 + 0.5 * math.sin(x2)
        v = -(self.K[0] * z1 + self.K[1] * z2)
        u = (2.0 * v / den + 2.0 * x1 + 3.0 * x2 - 2.0 * x2 * x2
             - (4.0 * x1 + 3.0 * x2 + 3.0 * math.sin(x2)) / den)
        return np.array([u])


def leso_error_matrix(omega0: float) -> np.ndarray:
    """Estimation-error dynamics matrix of the bandwidth-parameterized
    extended state observer; all three poles sit at -omega0."""
    return np.array([
        [-3.0 * omega0, 1.0, 0.0],
        [-3.0 * omega0 ** 2, 0.0, 1.0],
        [-omega0 ** 3, 0.0, 0.0],
    ])


class AdrcLaw(ControlLaw):
    """Disturbance-rejection law: LESO plus u = -x3_hat/b + u0.

    The observer gains are pinned at (3 w0, 3 w0^2, w0^3), so the LESO
    rate is ``leso_error_matrix(w0) @ xhat + c`` with
    ``c = (3 w0 y, 3 w0^2 y + b u, w0^3 y)``.  Each control step takes
    one RK4 step (README, simulation conventions) on the previous
    sample's (y, u), held constant, so the loop stays causal.  The
    output channel starts at the first measurement, which skips the
    artificial output-estimation transient.  The nominal feedback u0
    acts on the measured states (the lumped-disturbance channel x3_hat
    is what the observer contributes), so the law engages at full
    authority from the first sample.
    """

    name = "adrc"

    def __init__(self, b: float, omega0: float, K):
        if b == 0.0 or not math.isfinite(b):
            raise ValueError("input-gain estimate b must be nonzero and finite")
        if not 0.0 < omega0 < math.inf:
            raise ValueError("observer bandwidth omega0 must be positive and finite")
        self.b = float(b)
        self.omega0 = float(omega0)
        self.K = _gain_vector(K)
        # dt -> rk4_affine of the error matrix: derived constants.
        self._rk4_maps: dict = {}
        self.reset()

    def step(self, x, ref, t, dt):
        y = float(x[0])
        if self._prev is None:
            self.xhat[0] = y
        else:
            y_prev, u_prev = self._prev
            if dt not in self._rk4_maps:
                self._rk4_maps[dt] = rk4_affine(leso_error_matrix(self.omega0), dt)
            T, S = self._rk4_maps[dt]
            w0 = self.omega0
            c = np.array([3.0 * w0 * y_prev,
                          3.0 * w0 ** 2 * y_prev + self.b * u_prev,
                          w0 ** 3 * y_prev])
            xhat = matvec(T, self.xhat) + matvec(S, c)
            if not np.isfinite(xhat).all():
                raise NonFiniteState(t - dt, "RK4 update")
            self.xhat = xhat
        u0 = -(self.K[0] * float(x[0]) + self.K[1] * float(x[1]))
        u = -self.xhat[2] / self.b + u0
        self._prev = (y, u)
        return np.array([u])

    def reset(self):
        self.xhat = np.zeros(3)
        self._prev = None
