"""Solver and verification toolkit for average-cost risk-sensitive Markov
control on finite models."""

from .certificates import (
    ContractionCertificate,
    DoeblinCertificate,
    L2Certificate,
    LyapunovCertificate,
    check_l2,
    contraction_certificate,
    doeblin_minorization,
    entropic_envelope_minorization,
    fit_lyapunov,
    invariant_bound_K,
    local_doeblin,
    map_minorization_factor,
)
from .mdp import (
    FiniteMCP,
    PolicyVector,
    ValidationReport,
    level_set,
    policy_transition_and_cost,
    validate_mcp,
    weighted_seminorm,
)
from .models import (
    DiffusionSpec,
    GridSpec,
    PowerCost,
    QuadraticCost,
    TabulatedCost,
    attach_cost,
    builtin_chain,
    diffusion_entropic_weight,
    discretize_diffusion,
)
from .oracles import (
    OracleResult,
    PolicyEnumeration,
    entropic_spectral_rho,
    enumerate_policies,
    neutral_average_cost,
    static_total_cost_risk,
    total_cost_law,
)
from .risk import (
    PiecewiseLinearUtility,
    RiskMapSpec,
    check_risk_axioms,
    density_band,
    entropic,
    eval_risk,
    mean_semideviation,
    risk_values,
    shortfall,
)
from .solver import (
    ContractionStats,
    SolveConfig,
    SolveResult,
    bellman_F,
    bellman_T,
    finite_horizon_risk,
    measure_contraction,
    poisson_residual,
    relative_value_iteration,
)

__version__ = "0.1.0"
