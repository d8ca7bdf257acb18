"""Risk-averse dynamic-programming operators and the average-cost solver.

The long-run cost rho and bias h solve the fixed-point equation
rho + h(x) = min_a [ c(x, a) + R(h | x, a) ].  Relative value iteration
tracks the increments Delta_n = F(v_n) - v_n, whose running min/max bracket
rho from below/above; the iterate is re-anchored at a reference state each
sweep so the values stay bounded.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .mdp import FiniteMCP, PolicyVector, policy_reduce, weighted_seminorm
from .risk import RiskMapSpec, risk_values

__all__ = [
    "ContractionStats",
    "SolveConfig",
    "SolveResult",
    "TraceRecord",
    "bellman_F",
    "bellman_T",
    "finite_horizon_risk",
    "measure_contraction",
    "poisson_residual",
    "relative_value_iteration",
    "trace_to_csv",
]


@dataclass(frozen=True)
class SolveConfig:
    tol: float = 1e-10
    max_iter: int = 100_000
    reference_state: int = 0


@dataclass
class TraceRecord:
    iter: int
    span: float
    m: float
    M: float
    rho_est: float
    wall_ns: int


@dataclass
class SolveResult:
    """``rho`` is the midpoint of the last sweep's certified bracket
    ``[rho_lower, rho_upper]`` (the min and max increment), which contains
    the true rho."""

    rho: float
    rho_lower: float
    rho_upper: float
    h: np.ndarray
    policy: PolicyVector
    converged: bool
    iterations: int
    trace: list[TraceRecord] = field(default_factory=list)


def bellman_T(mcp: FiniteMCP, spec: RiskMapSpec, policy: PolicyVector, v: np.ndarray) -> np.ndarray:
    """T^pi(v)(x) = sum_a pi(a|x) [ c(x,a) + R(v|x,a) ]."""
    vals = mcp.stacked_cost + risk_values(spec, np.asarray(v, dtype=float), mcp.stacked_transition)
    return policy_reduce(mcp, policy, vals)


def bellman_F(mcp: FiniteMCP, spec: RiskMapSpec, v: np.ndarray) -> tuple[np.ndarray, PolicyVector]:
    """F(v)(x) = min_a [ c(x,a) + R(v|x,a) ], with the greedy policy.

    Ties go to the lowest action index; a NaN counts as the minimum, as in
    ``np.argmin``.
    """
    vals = mcp.stacked_cost + risk_values(spec, np.asarray(v, dtype=float), mcp.stacked_transition)
    starts = mcp.row_offsets[:-1]
    best = np.minimum.reduceat(vals, starts)
    hit = (vals == best[mcp.row_state]) | np.isnan(vals)
    first = np.minimum.reduceat(np.where(hit, np.arange(len(vals)), len(vals)), starts)
    return vals[first], PolicyVector.det(first - starts)


def relative_value_iteration(
    mcp: FiniteMCP,
    spec: RiskMapSpec,
    cfg: SolveConfig = SolveConfig(),
    v0: np.ndarray | None = None,
) -> SolveResult:
    """Solve rho + h = F(h) by relative value iteration.

    Each sweep's increment F(v) - v has min m and max M, and [m, M]
    contains rho (Odoni 1969; Puterman 1994 sec. 8.5).  The estimate is the
    midpoint (m + M)/2, so stopping at the first sweep with
    (M - m)/2 < ``cfg.tol`` bounds its error by ``cfg.tol``.  Hitting
    ``cfg.max_iter`` returns a result with ``converged=False`` rather than
    raising, so callers can inspect the trace.  A non-finite increment span
    raises ``FloatingPointError`` at the sweep where it appears.
    """
    n = mcp.n_states
    if not 0 <= cfg.reference_state < n:
        raise ValueError("reference_state out of range")
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float).copy()
    trace: list[TraceRecord] = []
    t0 = time.monotonic_ns()
    converged = False
    m = M = 0.0
    policy = PolicyVector.det(np.zeros(n, dtype=np.intp))
    it = 0
    for it in range(1, cfg.max_iter + 1):
        u, policy = bellman_F(mcp, spec, v)
        delta = u - v
        m = float(delta.min())
        M = float(delta.max())
        if not np.isfinite(M - m):
            raise FloatingPointError(f"non-finite increment at sweep {it}: min {m}, max {M}")
        trace.append(TraceRecord(it, M - m, m, M, 0.5 * (m + M), time.monotonic_ns() - t0))
        v = u - u[cfg.reference_state]
        if 0.5 * (M - m) < cfg.tol:
            converged = True
            break
    return SolveResult(
        rho=0.5 * (m + M),
        rho_lower=m,
        rho_upper=M,
        h=v,
        policy=policy,
        converged=converged,
        iterations=it,
        trace=trace,
    )


def poisson_residual(mcp: FiniteMCP, spec: RiskMapSpec, rho: float, h: np.ndarray) -> float:
    """How far (rho, h) is from solving rho + h = F(h).

    Measured as the larger of the half-span of F(h) - h - rho (its
    unit-weight seminorm) and the gap between rho and the mean increment.
    """
    h = np.asarray(h, dtype=float)
    Fh, _ = bellman_F(mcp, spec, h)
    delta = Fh - h
    return max(0.5 * float(np.ptp(delta - rho)), abs(float(delta.mean()) - rho))


def finite_horizon_risk(
    mcp: FiniteMCP,
    spec: RiskMapSpec,
    policy_seq: list[PolicyVector],
    T: int,
    v_terminal: np.ndarray | None = None,
) -> np.ndarray:
    """Nested T-step risk J_T(x) under a time-indexed policy sequence.

    ``policy_seq`` supplies the decision rules for times 0..T (length T+1);
    the recursion composes T^{pi_T}, ..., T^{pi_0} on the terminal value.
    """
    if T < 0:
        raise ValueError("horizon must be nonnegative")
    if len(policy_seq) != T + 1:
        raise ValueError(f"need {T + 1} decision rules for horizon {T}, got {len(policy_seq)}")
    v = np.zeros(mcp.n_states) if v_terminal is None else np.asarray(v_terminal, dtype=float).copy()
    for t in range(T, -1, -1):
        v = bellman_T(mcp, spec, policy_seq[t], v)
    return v


@dataclass
class ContractionStats:
    max_ratio: float
    mean_ratio: float
    min_ratio: float
    n_pairs: int


def _random_policy(mcp: FiniteMCP, rng: np.random.Generator) -> PolicyVector:
    # one exponential draw per (x, a) row, normalized within each state
    offs = mcp.row_offsets
    e = rng.exponential(1.0, size=offs[-1])
    w = e / np.repeat(np.add.reduceat(e, offs[:-1]), np.diff(offs))
    return PolicyVector.rand(np.split(w, offs[1:-1]))


def _random_in_ball(n: int, rng: np.random.Generator, ball_radius: float | None) -> np.ndarray:
    v = rng.uniform(-1.0, 1.0, size=n)
    if ball_radius is None:
        return v
    s = 0.5 * float(np.ptp(v))
    if s == 0.0:
        return np.zeros(n)
    return v * (ball_radius * rng.uniform(0.0, 1.0) / s)


def measure_contraction(
    mcp: FiniteMCP,
    spec: RiskMapSpec,
    w_hat: np.ndarray,
    n_trials: int,
    ball_radius: float | None = None,
    seed: int = 0,
) -> ContractionStats:
    """Empirical contraction factors of R^pi in the w_hat-weighted seminorm.

    For each trial draws a random single-step policy and a pair (v, u) —
    inside the unit-weight seminorm (half-span) ball of radius
    ``ball_radius`` when given — and measures
    seminorm(R^pi v - R^pi u, w_hat) / seminorm(v - u, w_hat), where R^pi
    is T^pi of the model with zero cost.  Degenerate pairs (v = u) are
    skipped.
    """
    rng = np.random.default_rng(seed)
    w_hat = np.asarray(w_hat, dtype=float)
    n = mcp.n_states
    risk_only = mcp.with_cost(np.zeros_like(mcp.stacked_cost))
    ratios = []
    for _ in range(n_trials):
        v = _random_in_ball(n, rng, ball_radius)
        u = _random_in_ball(n, rng, ball_radius)
        denom = weighted_seminorm(v - u, w_hat)
        if denom < 1e-300:
            continue
        pi = _random_policy(mcp, rng)
        num = weighted_seminorm(bellman_T(risk_only, spec, pi, v) - bellman_T(risk_only, spec, pi, u), w_hat)
        ratios.append(num / denom)
    if not ratios:
        return ContractionStats(0.0, 0.0, 0.0, 0)
    arr = np.asarray(ratios)
    return ContractionStats(float(arr.max()), float(arr.mean()), float(arr.min()), len(arr))


def trace_to_csv(trace: list[TraceRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "span", "m", "M", "rho_est", "wall_ns"])
        for rec in trace:
            writer.writerow([rec.iter, repr(rec.span), repr(rec.m), repr(rec.M), repr(rec.rho_est), rec.wall_ns])
