"""Derivative-clamped finite elements for Mania's problem.

Mania's problem minimizes J(v) = int v'^6 (v^3 - x)^2 dx over v(0) = 0,
v(1) = 1.  Its minimizer x^(1/3) has J = 0, yet piecewise-linear finite
elements minimizing J directly stall at a positive energy (the Lavrentiev
gap).  This package implements the repaired method -- minimize J with the
derivative clamped at h^(-alpha) -- together with the fractional-Sobolev
machinery and the convergence studies that quantify why it works.
"""

from .errors import ConsistencyError, EvaluationError, RegimeError
from .mesh import FeFunction, Mesh1D, interpolate
from .quadrature import StudyGrid
from .functionals import AdmissibleParams, energy_clamped
from .fractional import (
    PiecewiseConstant,
    SeminormResult,
    gagliardo_oracle_mc,
    gagliardo_pc,
    norm_wkp,
    seminorm_w1sp,
)
from .optimize import SolveConfig, SolveResult, minimize_from
from .studies import (
    RateStudy,
    interp_error,
    recovery_gap,
    slope_mismatch_term,
    value_mismatch_term,
)
from .experiments import (
    ExperimentConfig,
    run_all,
    run_gap_demo,
    run_interp_rates,
    run_inverse_study,
    run_split_rates,
    run_min_convergence,
    run_recovery,
)

__version__ = "0.1.0"
