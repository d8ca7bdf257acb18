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

from .mdp import WORST_PAIR_RTOL, FiniteMCP, row_blocks
from .risk import RiskMapSpec, require_finite, risk_table, risk_values

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
    "lyapunov_weight",
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


def _read_subset(mcp: FiniteMCP, states, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The states of a subset and the stacked indices of their (x, a) rows;
    ``ValueError`` naming ``name`` unless ``states`` is a nonempty 1-d array
    of distinct whole state indices in [0, n).  One state mask finds repeats
    and rows: a sort or ``np.unique`` left the process a larger heap."""
    arr, n = np.asarray(states), mcp.n_states
    good = arr.ndim == 1 and arr.size > 0 and arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() < n
    member = np.zeros(n, dtype=bool)
    member[arr if good else []] = True
    if not good or np.count_nonzero(member) < arr.size:  # a repeated state counts once
        raise ValueError(f"{name} must be nonempty distinct whole state indices in [0, {n}), got {arr}")
    return arr, np.flatnonzero(member[mcp.row_state])


def lyapunov_weight(w0) -> np.ndarray:
    """w0 as a float array; ``ValueError`` unless it is nonnegative (inf passes, NaN fails)."""
    w0 = np.asarray(w0, dtype=float)
    if not np.all(w0 >= 0):  # written so that a NaN fails too
        k = int(np.argmin(w0 >= 0))
        raise ValueError(f"w0 must be nonnegative, got {w0.flat[k]} at state {k}")
    return w0


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

    One table holds the residual drift - g w0 of each grid value g (a row)
    at each (state, action) pair of all states or of ``states`` (a column);
    the minimal feasible K0 at g is the largest entry of its row, so a NaN
    residual makes it NaN.  The certificate keeps the grid point with the
    smallest finite K0 (first such point on ties).  As w0 >= 0, K0 never
    increases with gamma0, so that is the largest grid gamma0 unless K0 is
    flat there: 0.95 on the default grid.  The worst pair is the first
    column within ``WORST_PAIR_RTOL`` of that K0.  With no finite K0 the
    certificate is unsatisfied, and so, before any risk map is evaluated,
    is w0 with infinite entries standing in for superlinear growth.
    """
    w0 = lyapunov_weight(w0)
    grid = DEFAULT_GAMMA_GRID if gamma_grid is None else tuple(float(g) for g in gamma_grid)
    if not grid or any(not 0 < g < 1 for g in grid):
        raise ValueError(f"gamma_grid must be nonempty and lie in (0, 1), got {list(grid)}")
    row_ids = np.arange(len(mcp.row_state)) if states is None else _read_subset(mcp, states, "states")[1]
    k0s = np.full(len(grid), math.inf)
    if not np.any(np.isinf(w0)):
        with np.errstate(invalid="ignore"):
            up = mcp.stacked_cost + risk_values(spec, w0, mcp.rows)
            down = -(mcp.stacked_cost + risk_values(spec, -w0, mcp.rows))
            table = np.maximum(up, down)[row_ids] - np.multiply.outer(grid, w0[mcp.row_state[row_ids]])
        k0s = table.max(axis=1)
    best = int(np.argmin(np.where(np.isfinite(k0s), k0s, np.inf)))  # the first point when none is finite
    K0, worst = float(k0s[best]), None
    if math.isfinite(K0):
        worst = _row_state_action(mcp, int(row_ids[np.argmax(table[best] >= K0 - WORST_PAIR_RTOL * abs(K0))]))
    satisfied = worst is not None
    return LyapunovCertificate(w0=w0, gamma0=float(grid[best]), K0=max(K0, K0_FLOOR) if satisfied else math.inf,
                               satisfied=satisfied, worst_pair=worst, gamma_grid=grid, K0_by_gamma=tuple(k0s.tolist()))


def doeblin_minorization(mcp: FiniteMCP, subset) -> DoeblinCertificate:
    """Common-mass minorization on a state subset.

    mu_tilde(y) = min over x in subset and actions a of q(y | x, a);
    alpha is its total mass and mu the normalized measure.  alpha = 0 (rows
    with disjoint support) comes back unsatisfied with mu = None.  A subset
    that is not distinct states in [0, n), or is empty, is a ``ValueError``.
    """
    subset, row_idx = _read_subset(mcp, subset, "subset")
    mu_tilde = np.full(mcp.n_states, np.inf)
    for sl in row_blocks(len(row_idx), mcp.n_states):
        np.minimum(mu_tilde, mcp.rows.take(row_idx[sl]).min(axis=0), out=mu_tilde)
    alpha = float(mu_tilde.sum())
    if alpha <= 0.0:
        return DoeblinCertificate(subset=subset, alpha=0.0, mu=None, satisfied=False)
    # a kernel row can sum to 1 + ulp, but no common mass exceeds 1
    return DoeblinCertificate(subset=subset, alpha=min(alpha, 1.0), mu=mu_tilde / alpha, satisfied=True)


def local_doeblin(mcp: FiniteMCP, subset) -> DoeblinCertificate:
    """Two-sided density sandwich on a subset C.

    With mu_C the normalized average of the rows restricted to C, finds the
    tightest lambda_minus, lambda_plus with
    lambda_minus mu_C(y) <= q(y | x, a) <= lambda_plus mu_C(y) on C for all
    x in C and actions a.  lambda_minus = 0 (a row vanishing where mu_C
    charges) is flagged as an absolute-continuity failure.  The subset is
    read as by ``doeblin_minorization``.
    """
    subset, row_idx = _read_subset(mcp, subset, "subset")
    block = mcp.rows.take(row_idx)[:, subset]
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
    # every range check is written as "not good" so that a NaN fails it
    if not K0 > 0:
        raise ValueError("K0 must be positive")
    if kind == "coherent":
        if alpha is None or not 0 < alpha <= 1:
            raise ValueError("coherent bound needs alpha in (0, 1]")
        return K0 / alpha
    if kind == "entropic":
        if lambda_minus is None or lambda_plus is None or not 0 < lambda_minus <= lambda_plus:
            raise ValueError("entropic bound needs lambda_plus >= lambda_minus > 0")
        return K0 + 0.5 * math.log(2.0) + math.log(lambda_plus / lambda_minus)
    if kind == "shortfall":
        if alpha is None or not 0 < alpha <= 1 or l is None or L is None or not 0 < l <= L:
            raise ValueError("shortfall bound needs alpha in (0, 1] and slopes 0 < l <= L")
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

    The remaining kinds have no reweighting of this form, nor has a
    mean-semideviation that is not monotone (lam < 0 and r > 1, where no
    positive factor holds); asking for their factor is an error rather
    than a silent 1.
    """
    if spec.kind == "neutral":
        return 1.0
    if spec.kind == "density_band":
        return float(spec.band[0])
    if spec.kind == "mean_semideviation":
        if not spec.monotone:
            raise ValueError(f"no coherent minorization factor for mean_semideviation with lam {spec.lam} < 0 "
                             f"and r {spec.r} > 1: the map is not monotone")
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
    gamma2 = max(1 - alpha + alpha0, gamma).  w0 must be nonnegative, as in
    ``fit_lyapunov``; this and every range check below is a ``ValueError``.
    """
    # every range check is written as "not good" so that a NaN fails it
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    if not K_bar > 0:
        raise ValueError("K_bar must be positive")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    threshold = 2.0 * K_bar / (1.0 - gamma)
    if not R > threshold:
        raise ValueError(f"level radius R={R} too small: need R > 2*K_bar/(1-gamma) = {threshold}")
    if alpha0 is None:
        alpha0 = alpha / 2.0
    if not 0 < alpha0 < alpha:
        raise ValueError("alpha0 must be in (0, alpha)")
    w0 = lyapunov_weight(w0)
    beta = alpha0 / K_bar
    gamma0 = gamma + 2.0 * K_bar / R
    gamma1 = (2.0 + beta * R * gamma0) / (2.0 + beta * R)
    gamma2 = max(1.0 - alpha + alpha0, gamma)
    alpha_bar = max(gamma1, gamma2)
    if not 0 < alpha_bar < 1:
        raise ValueError(f"contraction factor alpha_bar={alpha_bar} is not in (0, 1)")
    return ContractionCertificate(
        gamma=gamma, K_bar=K_bar, alpha=alpha, R=R, alpha0=alpha0,
        beta=beta, gamma0=gamma0, gamma1=gamma1, gamma2=gamma2,
        alpha_bar=alpha_bar, w_hat=1.0 + beta * w0,
    )


def _sign_pattern_values(bound: np.ndarray, order: np.ndarray) -> np.ndarray:
    """All +-bound vectors whose sign flips once along the given ordering:
    row 2k is +bound on the first k states of ``order`` and -bound on the
    rest, row 2k + 1 its negation."""
    n = len(bound)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    pattern = np.where(rank < np.arange(n + 1)[:, None], 1.0, -1.0)
    return np.stack((pattern * bound, -pattern * bound), axis=1).reshape(2 * (n + 1), n)


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
    sign mixtures of +-(w0 + K), evaluated by ``risk_table`` in blocks of
    samples; reports the minimal slack and, as witness, the first sample
    whose slack is within ``WORST_PAIR_RTOL`` of it.  ``min_slack`` is the
    minimum over the checked samples only, so it is an upper bound on the
    true minimum over the ball, and ``passed`` means that no sample
    violated the inequality.  K0 must be finite and positive, K finite
    and nonnegative, n_samples nonnegative, w0 finite and nonnegative and
    B0 distinct state indices in [0, n) (``ValueError`` otherwise); an
    empty B0 passes with no samples.
    """
    if not (math.isfinite(K0) and K0 > 0 and math.isfinite(K) and K >= 0):
        raise ValueError(f"check_l2 needs finite K0 > 0 and K >= 0, got K0={K0}, K={K}")
    if n_samples < 0:
        raise ValueError(f"check_l2 needs n_samples >= 0, got {n_samples}")
    require_finite(np.atleast_2d(w0))  # named as the risk maps name it, before the sign rule
    w0 = lyapunov_weight(w0)
    if np.size(B0) == 0:
        return L2Certificate(passed=True, min_slack=math.inf, K0=K0, K=K, n_samples=0)
    B0, row_idx = _read_subset(mcp, B0, "B0")
    rng = np.random.default_rng(seed)
    rows = mcp.rows.take(row_idx)
    bound = w0 + K
    r_plus = risk_values(spec, bound, rows)
    r_minus = risk_values(spec, -bound, rows)

    n = mcp.n_states
    n_random = max(0, n_samples - 4 * (n + 1))
    samples = np.concatenate([_sign_pattern_values(bound, np.arange(n)),
                              _sign_pattern_values(bound, np.argsort(w0, kind="stable")),
                              rng.uniform(-1.0, 1.0, size=(n_random, n))])
    samples[4 * (n + 1) :] *= bound

    slack = np.empty(len(samples))
    pairs = np.empty((len(samples), 2), dtype=np.intp)
    for sl in row_blocks(len(samples), len(rows)):
        RV = risk_table(spec, samples[sl], rows)
        at = np.arange(len(RV))
        i = np.argmin(r_plus - RV, axis=1)
        j = np.argmax(r_minus - RV, axis=1)  # minimizes rv - r_minus
        slack[sl] = (r_plus[i] - RV[at, i]) + (RV[at, j] - r_minus[j]) - 2.0 * K0
        pairs[sl] = np.column_stack((i, j))
    slack = np.where(np.isnan(slack), np.inf, slack)  # a NaN slack never wins
    best = int(np.argmin(slack))
    min_slack = float(slack[best])
    if math.isfinite(min_slack):  # the first sample tied with the minimum
        best = int(np.argmax(slack <= min_slack + WORST_PAIR_RTOL * abs(min_slack)))
    witness = None
    if min_slack < math.inf:
        witness = {
            "v": samples[best].tolist(),
            "pair_xa": _row_state_action(mcp, int(row_idx[pairs[best, 0]])),
            "pair_yb": _row_state_action(mcp, int(row_idx[pairs[best, 1]])),
            "slack": min_slack,
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
    log space through the entropic kernel, so large K w can neither
    overflow nor underflow to a log of 0.  A NaN or infinite entry of w is
    a ``ValueError`` naming it for every K, K = 0 included, where no risk
    map would see it and 0 * inf would make mu NaN.
    """
    if not (math.isfinite(K) and K >= 0):
        raise ValueError(f"K must be finite and nonnegative, got {K}")
    w = np.asarray(w, dtype=float)
    require_finite(w[None])
    base = doeblin_minorization(mcp, subset)
    if not base.satisfied:
        return base
    rows = mcp.rows.take(_read_subset(mcp, base.subset, "subset")[1])
    # log max_rows Q[e^{K w}] is K times the largest entropic value of w at
    # lam = K, and log mu_B[e^{-K w}] is -K times its entropic value at lam = -K
    log_num = log_denom = 0.0
    if K > 0:
        log_denom = K * float(np.max(risk_values(RiskMapSpec("entropic", lam=K), w, rows)))
        log_num = -K * float(risk_values(RiskMapSpec("entropic", lam=-K), w, base.mu)[0])
    alpha = math.exp(math.log(base.alpha) + log_num - log_denom)
    mu = base.mu * np.exp(-K * (w - np.min(w[base.mu > 0])))
    mu /= mu.sum()
    return DoeblinCertificate(subset=base.subset, alpha=alpha, mu=mu, satisfied=alpha > 0.0)
