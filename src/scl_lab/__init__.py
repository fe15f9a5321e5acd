"""State-compensation linearization toolkit.

Decomposes a nonlinear plant into a linear primary system plus an exact
nonlinear remainder, recovers both from measurements with an open-loop
observer, and composes independent primary/secondary controllers.  Ships
the classical comparison pipelines (Jacobian, exact and robust feedback
linearization, extended-state-observer disturbance rejection) and a CLI
that reruns the benchmark suite.
"""

from .controllers import (
    AdrcLaw,
    BacksteppingSecondary,
    ControlLaw,
    FlcEx3,
    LqrLaw,
    PidTrackingLaw,
    RflcEx3,
    SingularInput,
    ZeroLaw,
    leso_error_matrix,
)
from .decomposition import (
    CompositeLaw,
    Decomposition,
    ExactnessCase,
    NonDifferentiable,
    UnstableA1,
    ZeroReferenceGain,
    exactness_suite,
    make_decomposition,
    make_decomposition_ex1,
    replay_observer,
    decomposition_deviation,
)
from .metrics import (
    DivergentTrace,
    PerformanceReport,
    classify,
    iae,
    itae,
    report,
    saturation_interval,
    tracking_error,
)
from .numerics import (
    CareProblem,
    DivergenceDetected,
    GridError,
    NoConvergence,
    NonFiniteState,
    NotStabilizable,
    eigenvalues,
    integrate,
    is_hurwitz,
    jacobian_fd,
    rk4_step,
    solve_care,
)
from .plants import (
    EXAMPLES,
    PlantModel,
    Saturation,
    Scenario,
    SimulationTrace,
    build_example,
    simulate,
)

__version__ = "0.1.0"
