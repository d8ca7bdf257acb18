"""Risk-averse dynamic-programming operators and the average-cost solver.

The long-run cost rho and bias h solve the fixed-point equation
rho + h(x) = min_a [ c(x, a) + R(h | x, a) ].  Relative value iteration
tracks the increments Delta_n = F(v_n) - v_n, whose min/max bracket rho from
below/above at any iterate v_n (Odoni 1969), so the iterates may be
extrapolated: they are mixed by Anderson acceleration (Walker & Ni 2011) and
the certified bracket is the intersection of every sweep's.  The iterate is
re-anchored at a reference state each sweep so the values stay bounded.

The order-based kinds (density band, mean-semideviation, shortfall, but
not where they are the mean) perturb the mean, so with no start given
their solve starts from the bias of the risk-neutral solve of the same
model: nested iteration (Briggs, Henson & McCormick 2000) across risk maps.
On the 41x41 benchmark grid one of their sweeps costs 20 to 40 neutral
ones, and the neutral solve saves one or two of their 9 sweeps.  Entropic
starts at 0, as its sweep costs about one neutral sweep and the stage did
not pay.

For a risk map that is monotone and translation invariant, and for any
two vectors v, w and any row q, R(v | q) lies in [R(w | q) + min(v - w),
R(w | q) + max(v - w)].  A sweep that keeps each row's last exact value
c + R(v_j | q) and bounds on min(v - v_j) and max(v - v_j), carried from
sweep to sweep (a ``RowHistory``), can therefore rule out a row whose
lower bound lies above its state's smallest upper bound plus the greedy
tie band: MacQueen's test for suboptimal actions (MacQueen 1967, Oper.
Res. 15).  Every map here is translation
invariant, but mean-semideviation with lam < 0 and r > 1 is not monotone
(``RiskMapSpec.monotone``), so its sweeps evaluate every row.  The minimum
and the greedy policy are those of the full sweep while the kernels'
rounding stays within the bounds' margin (see ``RowHistory._step``):
bit for bit for mean-semideviation.  For the band and the shortfall on
dense rows it holds to rounding, since their checkpoint products round a
row by the rows that share them and their chunk count follows the number
of rows evaluated.  On factored rows a kept row reads its column of one
product over every row, with the chunks of every row, and so its full
sweep's bits, but in a row block of one row for one vector, whose sums
over a chunk numpy takes pairwise.  Only
the order-based kinds (density band, mean-semideviation, shortfall, but
not where they are the mean: ``RiskMapSpec.is_mean``) skip rows, reading
the kept ones from the row store one row block at a time (factored rows
contracted or read entry by entry, never written): a copy of all
kept rows up front cost about what the skipped rows saved, and the mean
and entropic are one product over all rows (of the matrix, or of per-axis
factors: see ``mdp.FactoredRows``), cheaper than any gather.
``poisson_residual`` is a full sweep, independent of the history.
"""

from __future__ import annotations

import csv
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .mdp import WORST_PAIR_RTOL, FiniteMCP, PolicyVector, policy_reduce, row_blocks, weighted_seminorm
from .risk import RiskMapSpec, risk_table, risk_values

__all__ = [
    "ContractionStats",
    "RowHistory",
    "SolveConfig",
    "SolveResult",
    "TraceRecord",
    "bellman_F",
    "bellman_T",
    "check_measure",
    "finite_horizon_risk",
    "measure_contraction",
    "poisson_residual",
    "relative_value_iteration",
    "trace_to_csv",
]


@dataclass(frozen=True)
class SolveConfig:
    """Settings of ``relative_value_iteration``, checked on construction."""

    tol: float = 1e-10
    max_iter: int = 100_000
    reference_state: int = 0

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if self.reference_state < 0:
            raise ValueError(f"reference_state must be >= 0, got {self.reference_state!r}")


@dataclass
class TraceRecord:
    """One RVI sweep: the certified bracket [m, M] so far (the intersection
    of every sweep's increment bracket), its span M - m, the estimate
    (m + M)/2 and the wall time since the solve started.
    ``rows_evaluated`` is the number of (state, action) rows whose risk
    value the sweep computed; the rest were ruled out by the bound of
    ``RowHistory``.  ``policy_changes`` counts the states whose greedy
    action differs from the previous sweep's and ``span_ratio`` is span /
    previous span, the per-sweep shrink of the certified bracket; both are
    None on sweep 1."""

    iter: int
    span: float
    m: float
    M: float
    rho_est: float
    wall_ns: int
    rows_evaluated: int
    policy_changes: int | None = None
    span_ratio: float | None = None


@dataclass
class SolveResult:
    """``rho`` is the midpoint of the certified bracket ``[rho_lower,
    rho_upper]``, the intersection of every sweep's [min, max] increment,
    which contains the true rho.  ``start_iterations`` counts the sweeps of
    the neutral solve the solve started from, 0 when there was none."""

    rho: float
    rho_lower: float
    rho_upper: float
    h: np.ndarray
    policy: PolicyVector
    converged: bool
    iterations: int
    start_iterations: int
    trace: list[TraceRecord] = field(default_factory=list)


def bellman_T(mcp: FiniteMCP, spec: RiskMapSpec, policy: PolicyVector, v: np.ndarray) -> np.ndarray:
    """T^pi(v)(x) = sum_a pi(a|x) [ c(x,a) + R(v|x,a) ]."""
    vals = mcp.stacked_cost + risk_values(spec, np.asarray(v, dtype=float), mcp.rows)
    return policy_reduce(mcp, policy, vals)


class RowHistory:
    """Each (state, action) row's last exact value c + R(v_j | q), NaN for a
    row with no history, and bounds ``low`` and ``high`` on min(v - v_j)
    and max(v - v_j) at the last iterate ``last`` (None before the first
    sweep), for ``bellman_F`` to bound rows from.  ``evaluated`` counts the
    rows the last sweep evaluated.
    """

    def __init__(self, mcp: FiniteMCP) -> None:
        rows = len(mcp.stacked_cost)
        self.value = np.full(rows, np.nan)
        self.low = np.zeros(rows)
        self.high = np.zeros(rows)
        self.last: np.ndarray | None = None
        self.evaluated = 0
        self.rtol = WORST_PAIR_RTOL + 8 * mcp.n_states * np.finfo(float).eps

    def _step(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every row's bounds moved by the min and max of the step from
        ``last`` to v, each widened by ``rtol`` times max |v| + max |last|.
        Mean-semideviation errs by at most 4 n eps max |v| and the band by
        (4 n + 9) eps max |v|, dense or factored: within ``rtol`` from n = 3
        states, so the widening covers the rounding at v and at v_j to first
        order.  The shortfall's root may err by that over its smallest slope.
        README's "Rounding of skipped rows" derives the bounds.
        """
        d = v - self.last
        slack = self.rtol * (np.max(np.abs(self.last)) + np.max(np.abs(v)))
        return self.low + (d.min() - slack), self.high + (d.max() + slack)

    def kept_rows(self, mcp: FiniteMCP, v: np.ndarray) -> np.ndarray:
        """Indices of the rows that may hold, or tie with, their state's
        minimum at v: all but those whose lower bound from the history lies
        above the state's smallest upper bound plus the tie band.  The
        bounds are c + R(v_j | q) moved by those of ``_step``, each widened
        by ``WORST_PAIR_RTOL`` times the row's value.  A row with a NaN
        bound is always kept."""
        if self.last is None:
            return np.arange(len(self.value))
        low, high = self._step(v)
        with np.errstate(invalid="ignore"):  # inf - inf for an infinite cost: a NaN bound
            room = WORST_PAIR_RTOL * np.abs(self.value)
            lo = self.value + low - room
            up = self.value + high + room
            top = np.fmin.reduceat(up, mcp.row_offsets[:-1])
            top += WORST_PAIR_RTOL * np.abs(top)
            return np.flatnonzero(~(lo > top[mcp.row_state]))

    def record(self, v: np.ndarray, keep: np.ndarray, vals: np.ndarray) -> None:
        """Store the values ``vals[keep]`` of the rows evaluated at v, and
        move every other row's bounds to v."""
        if self.last is not None:
            self.low, self.high = self._step(v)
        self.low[keep] = self.high[keep] = 0.0
        self.value[keep] = vals[keep]
        self.last = v.copy()
        self.evaluated = len(keep)


def _skips_rows(spec: RiskMapSpec) -> bool:
    """Whether RVI's sweeps skip the rows a RowHistory rules out: for the
    monotone order-based kinds only, since for the rest one product over
    every row costs less than gathering the kept ones."""
    return spec.order_based and spec.monotone


def bellman_F(mcp: FiniteMCP, spec: RiskMapSpec, v: np.ndarray,
              history: RowHistory | None = None) -> tuple[np.ndarray, PolicyVector]:
    """F(v)(x) = min_a [ c(x,a) + R(v|x,a) ], with the greedy policy.

    F(v)(x) is the exact minimum.  The greedy action is the lowest-indexed
    one whose value is within a relative ``WORST_PAIR_RTOL`` of it, so that
    actions tied in exact arithmetic keep their order whatever the kernel's
    rounding; a NaN counts as the minimum, as in ``np.argmin``.

    Without ``history``, or for a map that is not monotone (whose rows the
    history cannot bound), every row is evaluated.  Otherwise only the rows
    ``history.kept_rows`` keeps are, and the history is updated with their
    values; a skipped row lies above its state's minimum plus the tie band,
    so the minimum and the greedy policy are those of the full sweep.
    """
    v = np.asarray(v, dtype=float)
    if history is None or not spec.monotone:
        vals = mcp.stacked_cost + risk_values(spec, v, mcp.rows)
    else:
        keep = history.kept_rows(mcp, v)
        vals = np.full(len(mcp.stacked_cost), np.inf)
        # sorted, distinct indices: as many as rows is every row, evaluated with no gather
        every = len(keep) == len(vals)
        kept = risk_values(spec, v, mcp.rows, None if every else keep)
        vals[keep] = mcp.stacked_cost[keep] + kept
        history.record(v, keep, vals)
    starts = mcp.row_offsets[:-1]
    best = np.minimum.reduceat(vals, starts)
    cut = best + WORST_PAIR_RTOL * np.abs(np.where(np.isfinite(best), best, 0.0))
    hit = (vals <= cut[mcp.row_state]) | np.isnan(vals)
    first = np.minimum.reduceat(np.where(hit, np.arange(len(vals)), len(vals)), starts)
    return best, PolicyVector.det(first - starts)


_ANDERSON_PAIRS = 8  # (g, f) pairs kept by relative_value_iteration: depth 7


def relative_value_iteration(
    mcp: FiniteMCP,
    spec: RiskMapSpec,
    cfg: SolveConfig = SolveConfig(),
    v0: np.ndarray | None = None,
) -> SolveResult:
    """Solve rho + h = F(h) by Anderson-accelerated relative value iteration.

    At any iterate v, the increment F(v) - v has min m and max M with
    m <= rho <= M (Odoni 1969; Puterman 1994 sec. 8.5): the bound does not
    ask v to come from a plain sweep, so the iteration may extrapolate and
    keep its certificate.  The reported bracket ``[rho_lower, rho_upper]``
    is the intersection of all sweeps' brackets, [max m_j, min M_j], and the
    estimate its midpoint, so stopping at the first sweep whose intersected
    bracket has half-width below ``cfg.tol`` bounds its error by
    ``cfg.tol``.  Hitting ``cfg.max_iter`` returns a result with
    ``converged=False`` rather than raising, so callers can inspect the
    trace.  A non-finite increment span raises ``FloatingPointError`` at
    the sweep where it appears.

    Each sweep evaluates u = F(v) and forms the plain iterate
    g = u - u[ref] and its residual f = g - v.  Anderson mixing (Walker &
    Ni 2011, SIAM J. Numer. Anal. 49) over the last ``_ANDERSON_PAIRS``
    pairs (g, f), depth 7, solves gamma = argmin ||f_k - dF gamma||_2 on
    the column differences dF, dG and steps to v = g_k - dG gamma,
    re-anchored at the reference state.  The first sweep takes the plain
    step v = g.  The history is dropped, and the sweep takes the plain
    step, when the raw span M - m grew over the previous sweep's; a
    non-finite extrapolation also falls back to g.  ``h`` is the last g.

    With no ``v0`` the solve starts at 0, but an order-based kind
    (``RiskMapSpec.order_based``: density band, mean-semideviation,
    shortfall, not the mean) starts from the bias ``h`` of a neutral solve
    of ``mcp`` with ``cfg``, anchored at the reference state, whether or not
    that solve converged; ``start_iterations`` counts its sweeps, and
    ``iterations`` and ``trace`` the risk sweeps alone.  Entropic, whose
    sweep costs about a neutral one, starts at 0.  The bracket is still the
    risk sweeps' own.

    For the monotone order-based kinds the sweeps share one ``RowHistory``,
    so each skips the rows the monotone bound rules out (see the module
    docstring); the bracket, the iterates and the policy are those of full
    sweeps, to rounding for the band and the shortfall.
    """
    n = mcp.n_states
    ref = cfg.reference_state
    if not 0 <= ref < n:
        raise ValueError("reference_state out of range")
    start = relative_value_iteration(mcp, RiskMapSpec("neutral"), cfg) if v0 is None and spec.order_based else None
    if start is not None:
        v0 = start.h
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float).copy()
    trace: list[TraceRecord] = []
    history: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=_ANDERSON_PAIRS)
    lower, upper = -math.inf, math.inf
    raw_span = math.inf
    seen = RowHistory(mcp) if _skips_rows(spec) else None
    t0 = time.monotonic_ns()
    converged = False
    for it in range(1, cfg.max_iter + 1):  # max_iter >= 1, so the loop binds it, g and policy
        u, greedy = bellman_F(mcp, spec, v, seen)
        delta = u - v
        m = float(delta.min())
        M = float(delta.max())
        if not np.isfinite(M - m):
            raise FloatingPointError(f"non-finite increment at sweep {it}: min {m}, max {M}")
        lower, upper = max(lower, m), min(upper, M)
        rec = TraceRecord(it, upper - lower, lower, upper, 0.5 * (lower + upper), time.monotonic_ns() - t0,
                          len(mcp.stacked_cost) if seen is None else seen.evaluated)
        if trace:
            prev = trace[-1].span
            rec.policy_changes = int(np.count_nonzero(greedy.deterministic != policy.deterministic))
            rec.span_ratio = rec.span / prev if prev > 0 else math.nan
        trace.append(rec)
        policy = greedy
        g = u - u[ref]
        if 0.5 * (upper - lower) < cfg.tol:
            converged = True
            break
        if M - m > raw_span:
            history.clear()
        raw_span = M - m
        history.append((g, g - v))
        v = _anderson_step(history) if len(history) > 1 else g
    return SolveResult(
        rho=0.5 * (lower + upper),
        rho_lower=lower,
        rho_upper=upper,
        h=g,
        policy=policy,
        converged=converged,
        iterations=it,
        start_iterations=0 if start is None else start.iterations,
        trace=trace,
    )


def _anderson_step(history: deque[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """g_k - dG gamma with gamma = argmin ||f_k - dF gamma||_2, anchored at
    the reference state (where every g is 0); g_k if that is not finite or
    the squares overflow.  Modified Gram-Schmidt on dF's k <= 7 columns and
    f_k gives dF = Q R and Q^T f_k; gamma is lstsq's min-norm solution of
    R gamma = Q^T f_k at dF's cutoff eps max(n, k): numpy.linalg sees k x k
    arrays only, never a tall one, whose LAPACK calls wake BLAS threads."""
    gs, fs = zip(*history)
    k, n = len(fs) - 1, len(fs[0])
    Q, R = np.empty((k + 1, n)), np.zeros((k + 1, k + 1))  # dF's columns and f_k, orthonormalized in place
    for j in range(k):
        np.subtract(fs[j + 1], fs[j], out=Q[j])
    Q[k] = fs[k]
    for j in range(k + 1):
        for i in range(j):
            R[i, j] = Q[i] @ Q[j]
            Q[j] -= R[i, j] * Q[i]
        R[j, j] = math.sqrt(Q[j] @ Q[j])
        if R[j, j] > 0:
            Q[j] /= R[j, j]
    if not np.isfinite(R).all():
        return gs[k]
    gamma = np.linalg.lstsq(R[:k, :k], R[:k, k], rcond=np.finfo(float).eps * max(n, k))[0]
    for j in range(k):  # now dG's columns
        np.subtract(gs[j + 1], gs[j], out=Q[j])
    v = gs[k] - np.einsum("j,jy->y", gamma, Q[:k])  # never threaded; a BLAS gemv is at n ~ 2e5
    return v if np.all(np.isfinite(v)) else gs[k]


def poisson_residual(mcp: FiniteMCP, spec: RiskMapSpec, rho: float, h: np.ndarray) -> float:
    """How far (rho, h) is from solving rho + h = F(h).

    Measured as the larger of the half-span of F(h) - h - rho (its
    unit-weight seminorm) and the gap between rho and the mean increment.
    F(h) is a full sweep, with no ``RowHistory``, so the residual also
    checks an RVI whose sweeps skipped rows.
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
    return PolicyVector(randomized=w, offsets=offs)


def _random_in_ball(n: int, rng: np.random.Generator, ball_radius: float | None) -> np.ndarray:
    v = rng.uniform(-1.0, 1.0, size=n)
    if ball_radius is None:
        return v
    s = 0.5 * float(np.ptp(v))
    if s == 0.0:
        return np.zeros(n)
    return v * (ball_radius * rng.uniform(0.0, 1.0) / s)


def check_measure(n_trials: int, ball_radius: float | None) -> None:
    """``ValueError`` unless n_trials >= 1 and ball_radius is None or finite and positive."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    if ball_radius is not None and not (math.isfinite(ball_radius) and ball_radius > 0):
        raise ValueError(f"ball_radius must be finite and > 0, got {ball_radius}")


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
    is T^pi of the model with zero cost.  The trials are drawn and
    evaluated a block at a time, in the order of one stream: one
    ``risk_table`` call evaluates a block's pairs on every row, a table of
    at most a sixteenth of ``BLOCK_ELEMENTS``, and only that block's trials
    are held (larger blocks left the process's heap larger and were no
    faster end to end).  Degenerate pairs (v = u) are skipped; when
    every pair is degenerate the ratios are NaN and ``n_pairs`` is 0.
    The two settings go through ``check_measure``.
    """
    check_measure(n_trials, ball_radius)
    rng = np.random.default_rng(seed)
    w_hat = np.asarray(w_hat, dtype=float)
    n, rows = mcp.n_states, mcp.rows
    ratios = []
    for sl in row_blocks(n_trials, 32 * len(rows)):
        trials = []
        for _ in range(n_trials)[sl]:
            v = _random_in_ball(n, rng, ball_radius)
            u = _random_in_ball(n, rng, ball_radius)
            denom = weighted_seminorm(v - u, w_hat)
            if denom < 1e-300:
                continue
            trials.append((v, u, denom, _random_policy(mcp, rng)))
        if trials:
            R = risk_table(spec, [x for v, u, *_ in trials for x in (v, u)], rows)
            for (_, _, denom, pi), Rv, Ru in zip(trials, R[0::2], R[1::2]):
                ratios.append(weighted_seminorm(policy_reduce(mcp, pi, Rv - Ru), w_hat) / denom)
    if not ratios:
        return ContractionStats(math.nan, math.nan, math.nan, 0)
    arr = np.asarray(ratios)
    return ContractionStats(float(arr.max()), float(arr.mean()), float(arr.min()), len(arr))


def trace_to_csv(trace: list[TraceRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "span", "m", "M", "rho_est", "wall_ns", "policy_changes", "span_ratio",
                         "rows_evaluated"])
        for rec in trace:
            writer.writerow([rec.iter, repr(rec.span), repr(rec.m), repr(rec.M), repr(rec.rho_est), rec.wall_ns,
                             "" if rec.policy_changes is None else rec.policy_changes,
                             "" if rec.span_ratio is None else repr(rec.span_ratio), rec.rows_evaluated])
