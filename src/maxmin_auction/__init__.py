"""Numerics for a worst-case-optimal second-price auction with a random reserve.

The package solves the reserve parameter from the known signal mean, builds
the reserve and worst-case signal distributions in closed form, evaluates
revenue three independent ways (closed form, quadrature, Monte Carlo), runs
the adversary's constrained minimization, bounds all incentive-compatible
mechanisms with a reduced-form LP on geometric cells, and covers the
second-moment and multi-valuation extensions.
"""

from .adversary import (
    AdversaryResult,
    GridDistribution,
    P1P2Report,
    SaddleReport,
    check_p1_p2,
    minimize_revenue,
    pav_nondecreasing,
    reserve_with_linear_ramp,
    reserve_with_zero_atom,
    verify_pointwise_saddle,
)
from .constants import (
    SolvedConstants,
    constants_from_a,
    reserve_cdf,
    reserve_cdf_integral,
    reserve_pdf,
    signal_cdf,
    signal_quantile,
    solve_a,
)
from .distributions import PiecewiseCdf, read_cdf_csv, write_cdf_csv
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    MaxminError,
    MeanMismatchError,
)
from .extensions import MpsReport, mps_check, second_moment_solution
from .functional import check_ode, revenue_functional
from .mechanism import (
    Outcome,
    RevenueReport,
    dominated_equilibrium_revenue,
    mc_revenue,
    outcome,
    uniform_pairs,
    winner_payment,
)
from .upper_bound import (
    DiscreteDirectMechanism,
    ReducedFormBound,
    lp_max_revenue,
    reduced_form_bound,
)

__version__ = "0.1.0"
