"""Stability analysis toolkit: compound matrices, Lozinskii measures, and
threshold/criterion checks for two small epidemic ODE models."""

from .compound import add_compound, add_compound2_closed, lex_tuples, mult_compound
from .covid import (
    CovidParams,
    DerivedParams,
    chi_cubic,
    derived,
    det_jp0,
    dfe,
    endemic,
    jacobian_closed,
    jacobian_fd,
    ngm_full,
    r0_reduced,
    rhs,
    stability_report,
    state,
    sum_rate,
    table_params,
)
from .linalg import (
    ConvergenceError,
    DimensionError,
    SingularMatrixError,
    det4_block,
    determinant,
    eigenvalues,
    inverse,
    spectral_abscissa,
    spectral_radius,
)
from .lozinskii import MeasureKind, measure
from .model import Equilibrium, InfeasibleError
from .paper_check import build_report
from .seir import SeirParams, endemic3, figure_params, jacobian3, r0_seir, rhs3, seir_stability
from .sim import DivergenceError, Trajectory, integrate, invariance_audit, simulate_covid
from .stability import (
    CubicRoots,
    MMatrixFlags,
    Verdict,
    cardano,
    cubic_stability,
    det_bounds,
    dominance,
    hurwitz_exact,
    li_wang_exact,
    li_wang_sufficient,
    m_matrix,
    price_bounds,
    schur_sufficient,
)

__version__ = "0.1.0"
