"""Numerical certificates for drift, minorization and contraction constants.

Each routine either fits the best constants of an assumed inequality on a
finite model (reporting the worst witness), or assembles the derived
contraction constants from already-verified ingredients.  Nothing here
trusts the solver: checks are direct evaluations of the defining
inequalities on (sampled or exhaustive) inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import FiniteMCP
from .risk import RiskMapSpec, risk_values

__all__ = [
    "ContractionCertificate",
    "DoeblinCertificate",
    "L2Certificate",
    "LyapunovCertificate",
    "check_l2",
    "contraction_certificate",
    "doeblin_minorization",
    "entropic_envelope_minorization",
    "fit_lyapunov",
    "invariant_bound_K",
    "local_doeblin",
    "map_minorization_factor",
]

DEFAULT_GAMMA_GRID = tuple(np.round(np.linspace(0.05, 0.95, 19), 10))

# A drift residual that comes out nonpositive still certifies the inequality,
# but the downstream bounds need a strictly positive constant.
K0_FLOOR = 1e-12


@dataclass
class LyapunovCertificate:
    w0: np.ndarray
    gamma0: float
    K0: float
    satisfied: bool
    worst_pair: tuple[int, int] | None
    gamma_grid: tuple[float, ...] = ()
    K0_by_gamma: tuple[float, ...] = ()


@dataclass
class DoeblinCertificate:
    subset: np.ndarray
    alpha: float | None = None
    mu: np.ndarray | None = None
    lambda_minus: float | None = None
    lambda_plus: float | None = None
    R: float | None = None
    satisfied: bool = False


@dataclass
class ContractionCertificate:
    gamma: float
    K_bar: float
    alpha: float
    R: float
    alpha0: float
    beta: float
    gamma0: float
    gamma1: float
    gamma2: float
    alpha_bar: float
    w_hat: np.ndarray


@dataclass
class L2Certificate:
    passed: bool
    min_slack: float
    K0: float
    K: float
    worst_witness: dict | None = None
    n_samples: int = 0


def _subset_row_index(mcp: FiniteMCP, subset: np.ndarray) -> np.ndarray:
    """Indices into the stacked (x, a) rows belonging to states in subset."""
    offs = mcp.row_offsets
    return np.concatenate([np.arange(offs[x], offs[x + 1]) for x in subset])


def _row_state_action(mcp: FiniteMCP, row_idx: int) -> tuple[int, int]:
    x = int(mcp.row_state[row_idx])
    return x, int(row_idx - mcp.row_offsets[x])


def fit_lyapunov(
    mcp: FiniteMCP,
    spec: RiskMapSpec,
    w0: np.ndarray,
    gamma_grid=None,
    states: np.ndarray | None = None,
) -> LyapunovCertificate:
    """Fit the two-sided drift bound max(T(w0), -T(-w0)) <= gamma0 w0 + K0.

    For each grid value of gamma0, the minimal feasible K0 is the largest
    residual over the (state, action) pairs under consideration; the
    certificate keeps the grid point with the smallest K0 (first such point
    on ties, which favors the smallest gamma0).  A non-finite residual at
    every grid point — e.g. w0 with infinite entries standing in for
    superlinear growth — flags the certificate unsatisfied.
    """
    w0 = np.asarray(w0, dtype=float)
    if np.any(w0 < 0) or np.any(np.isnan(w0)):
        raise ValueError("w0 must be nonnegative")
    grid = DEFAULT_GAMMA_GRID if gamma_grid is None else tuple(float(g) for g in gamma_grid)
    if any(not 0 < g < 1 for g in grid):
        raise ValueError("gamma grid must lie in (0, 1)")
    rows = mcp.stacked_transition
    cost = mcp.stacked_cost
    with np.errstate(invalid="ignore"):
        up = cost + risk_values(spec, w0, rows)
        down = -(cost + risk_values(spec, -w0, rows))
    drift = np.maximum(up, down)
    if states is not None:
        keep = np.isin(mcp.row_state, np.asarray(states))
        drift = drift[keep]
        row_ids = np.flatnonzero(keep)
    else:
        row_ids = np.arange(len(drift))
    w0_of_row = w0[mcp.row_state[row_ids]]
    k0s = []
    argmaxes = []
    for g in grid:
        with np.errstate(invalid="ignore"):
            resid = drift - g * w0_of_row
        j = int(np.nanargmax(resid)) if np.any(np.isfinite(resid)) else int(np.argmax(resid))
        k0s.append(float(resid[j]))
        argmaxes.append(j)
    k0s_arr = np.asarray(k0s)
    finite = np.isfinite(k0s_arr)
    if not np.any(finite):
        return LyapunovCertificate(
            w0=w0, gamma0=float(grid[0]), K0=math.inf, satisfied=False, worst_pair=None,
            gamma_grid=grid, K0_by_gamma=tuple(k0s),
        )
    masked = np.where(finite, k0s_arr, np.inf)
    best = int(np.argmin(masked))
    worst = _row_state_action(mcp, int(row_ids[argmaxes[best]]))
    return LyapunovCertificate(
        w0=w0,
        gamma0=float(grid[best]),
        K0=float(max(k0s_arr[best], K0_FLOOR)),
        satisfied=True,
        worst_pair=worst,
        gamma_grid=grid,
        K0_by_gamma=tuple(k0s),
    )


def doeblin_minorization(mcp: FiniteMCP, subset) -> DoeblinCertificate:
    """Common-mass minorization on a state subset.

    mu_tilde(y) = min over x in subset and actions a of q(y | x, a);
    alpha is its total mass and mu the normalized measure.  alpha = 0 (rows
    with disjoint support) comes back unsatisfied with mu = None.
    """
    subset = np.asarray(subset, dtype=np.intp)
    if subset.size == 0:
        raise ValueError("subset must be nonempty")
    rows = mcp.stacked_transition[_subset_row_index(mcp, subset)]
    mu_tilde = rows.min(axis=0)
    alpha = float(mu_tilde.sum())
    if alpha <= 0.0:
        return DoeblinCertificate(subset=subset, alpha=0.0, mu=None, satisfied=False)
    return DoeblinCertificate(subset=subset, alpha=alpha, mu=mu_tilde / alpha, satisfied=True)


def local_doeblin(mcp: FiniteMCP, subset) -> DoeblinCertificate:
    """Two-sided density sandwich on a subset C.

    With mu_C the normalized average of the rows restricted to C, finds the
    tightest lambda_minus, lambda_plus with
    lambda_minus mu_C(y) <= q(y | x, a) <= lambda_plus mu_C(y) on C for all
    x in C and actions a.  lambda_minus = 0 (a row vanishing where mu_C
    charges) is flagged as an absolute-continuity failure.
    """
    subset = np.asarray(subset, dtype=np.intp)
    if subset.size == 0:
        raise ValueError("subset must be nonempty")
    block = mcp.stacked_transition[_subset_row_index(mcp, subset)][:, subset]
    avg = block.mean(axis=0)
    total = avg.sum()
    if total <= 0.0:
        return DoeblinCertificate(subset=subset, satisfied=False)
    mu_c = avg / total
    pos = mu_c > 0
    ratios = block[:, pos] / mu_c[pos]
    lam_minus = float(ratios.min())
    lam_plus = float(ratios.max())
    mu_full = np.zeros(mcp.n_states)
    mu_full[subset] = mu_c
    return DoeblinCertificate(
        subset=subset,
        mu=mu_full,
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        satisfied=lam_minus > 0.0,
    )


def invariant_bound_K(
    kind: str,
    *,
    K0: float,
    alpha: float | None = None,
    lambda_minus: float | None = None,
    lambda_plus: float | None = None,
    l: float | None = None,
    L: float | None = None,
) -> float:
    """Radius K of the seminorm ball the one-step operators preserve.

    kind = "coherent": K0 / alpha  (common-mass alpha).
    kind = "entropic": K0 + log(2)/2 + log(lambda_plus / lambda_minus).
    kind = "shortfall": L K0 / (alpha l)  (utility slope bounds l, L).
    """
    if K0 <= 0:
        raise ValueError("K0 must be positive")
    if kind == "coherent":
        if alpha is None or alpha <= 0:
            raise ValueError("coherent bound needs alpha > 0")
        return K0 / alpha
    if kind == "entropic":
        if lambda_minus is None or lambda_plus is None or lambda_minus <= 0:
            raise ValueError("entropic bound needs lambda_plus >= lambda_minus > 0")
        return K0 + 0.5 * math.log(2.0) + math.log(lambda_plus / lambda_minus)
    if kind == "shortfall":
        if alpha is None or alpha <= 0 or l is None or L is None or l <= 0:
            raise ValueError("shortfall bound needs alpha > 0 and slopes 0 < l <= L")
        return L * K0 / (alpha * l)
    raise ValueError(f"unknown invariant bound kind {kind!r}")


def map_minorization_factor(spec: RiskMapSpec) -> float:
    """Fraction of the kernel's common mass the risk map itself retains.

    The coherent ball radius K0 / alpha needs alpha measured on the map's
    monotone differences, R(v) - R(u) >= alpha mu[v - u] for v >= u, not on
    the raw kernel.  Every supergradient of these maps is a reweighted
    kernel row, so a kernel minorization with mass a gives the map mass
    factor * a:

      neutral             1          (the map is the kernel)
      density_band        g1         (admissible densities sit above g1 q)
      mean_semideviation  1 - |lam|  (subgradient weights stay above 1 - |lam|)

    The remaining kinds have no reweighting of this form; asking for their
    factor is an error rather than a silent 1.
    """
    if spec.kind == "neutral":
        return 1.0
    if spec.kind == "density_band":
        return float(spec.band[0])
    if spec.kind == "mean_semideviation":
        return max(0.0, 1.0 - abs(float(spec.lam)))
    raise ValueError(f"no coherent minorization factor for kind {spec.kind!r}")


def contraction_certificate(
    gamma: float,
    K_bar: float,
    alpha: float,
    R: float,
    w0: np.ndarray,
    alpha0: float | None = None,
) -> ContractionCertificate:
    """Assemble the seminorm contraction factor from envelope constants.

    Inputs: envelope drift bound (gamma, K_bar), envelope minorization mass
    alpha on the sublevel set {w0 <= R}.  Requires R > 2 K_bar / (1 - gamma).
    With beta = alpha0 / K_bar the certificate weight is w_hat = 1 + beta w0
    and the contraction factor is alpha_bar = max(gamma1, gamma2) < 1, where
    gamma0 = gamma + 2 K_bar / R, gamma1 = (2 + beta R gamma0)/(2 + beta R),
    gamma2 = max(1 - alpha + alpha0, gamma).
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    if K_bar <= 0:
        raise ValueError("K_bar must be positive")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    threshold = 2.0 * K_bar / (1.0 - gamma)
    if R <= threshold:
        raise ValueError(f"level radius R={R} too small: need R > 2*K_bar/(1-gamma) = {threshold}")
    if alpha0 is None:
        alpha0 = alpha / 2.0
    if not 0 < alpha0 < alpha:
        raise ValueError("alpha0 must be in (0, alpha)")
    w0 = np.asarray(w0, dtype=float)
    beta = alpha0 / K_bar
    gamma0 = gamma + 2.0 * K_bar / R
    gamma1 = (2.0 + beta * R * gamma0) / (2.0 + beta * R)
    gamma2 = max(1.0 - alpha + alpha0, gamma)
    alpha_bar = max(gamma1, gamma2)
    assert 0 < alpha_bar < 1
    return ContractionCertificate(
        gamma=gamma, K_bar=K_bar, alpha=alpha, R=R, alpha0=alpha0,
        beta=beta, gamma0=gamma0, gamma1=gamma1, gamma2=gamma2,
        alpha_bar=alpha_bar, w_hat=1.0 + beta * w0,
    )


def _sign_pattern_values(bound: np.ndarray, order: np.ndarray) -> list[np.ndarray]:
    """All +-bound vectors whose sign flips once along the given ordering."""
    n = len(bound)
    out = []
    for k in range(n + 1):
        pattern = np.ones(n)
        pattern[order[k:]] = -1.0
        out.append(pattern * bound)
        out.append(-pattern * bound)
    return out


def check_l2(
    mcp: FiniteMCP,
    spec: RiskMapSpec,
    w0: np.ndarray,
    K0: float,
    K: float,
    B0,
    n_samples: int = 10_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> L2Certificate:
    """Sampled check of the pairwise small-set inequality on B0.

    For v with |v| <= w0 + K the inequality
      R_{x,a}(w0 + K) - R_{x,a}(v) + R_{y,b}(v) - R_{y,b}(-w0 - K) >= 2 K0
    must hold for all x, y in B0.  Random v plus adversarial single-threshold
    sign mixtures of +-(w0 + K); reports the minimal slack and its witness.
    """
    w0 = np.asarray(w0, dtype=float)
    B0 = np.asarray(B0, dtype=np.intp)
    if B0.size == 0:
        return L2Certificate(passed=True, min_slack=math.inf, K0=K0, K=K, n_samples=0)
    rng = np.random.default_rng(seed)
    row_idx = _subset_row_index(mcp, B0)
    rows = mcp.stacked_transition[row_idx]
    bound = w0 + K
    r_plus = risk_values(spec, bound, rows)
    r_minus = risk_values(spec, -bound, rows)

    samples = _sign_pattern_values(bound, np.arange(mcp.n_states))
    samples += _sign_pattern_values(bound, np.argsort(w0, kind="stable"))
    n_random = max(0, n_samples - len(samples))
    for _ in range(n_random):
        samples.append(rng.uniform(-1.0, 1.0, size=mcp.n_states) * bound)

    min_slack = math.inf
    witness = None
    for v in samples:
        rv = risk_values(spec, v, rows)
        i = int(np.argmin(r_plus - rv))
        j = int(np.argmax(r_minus - rv))  # minimizes rv - r_minus
        slack = float((r_plus[i] - rv[i]) + (rv[j] - r_minus[j]) - 2.0 * K0)
        if slack < min_slack:
            min_slack = slack
            witness = {
                "v": v.tolist(),
                "pair_xa": _row_state_action(mcp, int(row_idx[i])),
                "pair_yb": _row_state_action(mcp, int(row_idx[j])),
                "slack": slack,
            }
    return L2Certificate(
        passed=min_slack >= -tol,
        min_slack=min_slack,
        K0=K0,
        K=K,
        worst_witness=witness,
        n_samples=len(samples),
    )


def entropic_envelope_minorization(mcp: FiniteMCP, subset, K: float, w: np.ndarray) -> DoeblinCertificate:
    """Minorization mass surviving the exponential tilts of the envelope.

    Starting from the common-mass pair (alpha_B, mu_B) on the subset, the
    tilt-robust mass is alpha = alpha_B mu_B[e^{-K w}] / max_rows Q[e^{K w}]
    with minorizing measure proportional to e^{-K w} d mu_B.  Computed in
    log space so large K w cannot overflow.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    w = np.asarray(w, dtype=float)
    base = doeblin_minorization(mcp, subset)
    if not base.satisfied:
        return base
    rows = mcp.stacked_transition[_subset_row_index(mcp, np.asarray(subset, dtype=np.intp))]
    # log max_rows Q[e^{K w}] is K times the largest entropic value of w at lam = K
    log_denom = K * float(np.max(risk_values(RiskMapSpec("entropic", lam=K), w, rows))) if K > 0 else 0.0
    tilt = np.exp(-K * w)
    num = float(base.mu @ tilt)
    alpha = math.exp(math.log(base.alpha) + math.log(num) - log_denom)
    mu = base.mu * tilt
    mu /= mu.sum()
    return DoeblinCertificate(subset=base.subset, alpha=alpha, mu=mu, R=None, satisfied=alpha > 0.0)
