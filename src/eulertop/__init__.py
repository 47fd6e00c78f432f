"""Exact series and numeric oracles for the Euler top near its hyperbolic
equilibrium: Birkhoff normal form, action integrals from the Picard-Fuchs
equation, and the semi-global symplectic invariant."""

from .series import (
    KappaPoly,
    LogSeries,
    PowerSeries,
    SeriesUsageError,
    SingularReversionError,
    InternalConsistencyError,
)
from .normalform import (
    PolyHamiltonian,
    birkhoff_normalize,
    euler_normal_form,
    expand_hamiltonian,
    williamson_reduce,
)
from .picardfuchs import (
    ActionSeries,
    BetaAction,
    FrobeniusTable,
    PFCoefficients,
    SymbolicConstant,
    assemble_beta_actions,
    build_action_series,
    derive_pf_coefficients,
    frobenius_table,
    pf_residual,
)
from .invariants import (
    InvariantReport,
    RadiusReport,
    alpha_action,
    bnf_via_reversion,
    extract_sigma,
    pendulum_compare,
    radius_analysis,
)
from .oracle import (
    QuadratureResult,
    TopParams,
    action_quadrature,
    params_from_inertia,
    period_quadrature,
    separatrix_action,
    verify_series_numerics,
)

__version__ = "0.1.0"
