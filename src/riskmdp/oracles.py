"""Independent cross-checking oracles for small models.

These deliberately avoid the dynamic-programming code paths in
``solver``: the entropic oracle goes through a Perron eigenproblem, the
risk-neutral oracle through stationary distributions, and the horizon
oracle through brute-force path enumeration.  Agreement between a solver
run and the matching oracle is the package's main correctness evidence.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .mdp import FiniteMCP, PolicyVector, policy_transition_and_cost
from .risk import RiskMapSpec, eval_risk
from .solver import SolveConfig, relative_value_iteration

__all__ = [
    "OracleResult",
    "PolicyEnumeration",
    "entropic_spectral_rho",
    "enumerate_policies",
    "is_primitive",
    "neutral_average_cost",
    "policy_table_to_csv",
    "static_total_cost_risk",
    "total_cost_law",
]


@dataclass
class OracleResult:
    rho: float
    h: np.ndarray
    method: str
    error_bound: float


def is_primitive(P: np.ndarray) -> bool:
    """Whether some power of P is entrywise positive (irreducible + aperiodic).

    Uses boolean powers up to the Wielandt exponent n^2 - 2n + 2; for a
    stochastic P, positivity of a power persists at higher powers, so
    repeated squaring is enough.
    """
    X = np.asarray(P) > 0
    n = X.shape[0]
    bound = n * n - 2 * n + 2
    Y = X.copy()
    e = 1
    while not Y.all() and e < bound:
        Y = (Y.astype(np.uint8) @ Y.astype(np.uint8)) > 0
        e *= 2
    return bool(Y.all())


def entropic_spectral_rho(
    P: np.ndarray,
    c: np.ndarray,
    lam: float,
    reference_state: int = 0,
    tol: float = 1e-13,
    max_iter: int = 1_000_000,
) -> OracleResult:
    """Fixed-policy entropic long-run cost via the Perron eigenproblem.

    The multiplicative Poisson equation e^{lam rho} phi = diag(e^{lam c}) P phi
    identifies rho = (1/lam) log r(M) with M = diag(e^{lam c}) P and the bias
    h = (1/lam) log phi, centered at the reference state.  Power iteration
    with max-norm normalization.  For every positive phi the entries of
    (1/lam) log((M phi) / phi) bracket rho (Collatz-Wielandt; Seneta 1981);
    it stops once the bracket's half-width, the ``error_bound``, is below
    ``tol``, and ``rho`` is the bracket's midpoint.  The iteration runs on
    M = diag(e^{lam c - s}) P with s = max(lam c), which keeps M finite and
    moves rho by s / lam exactly.  Non-finite P or c is a ``ValueError``; a
    ratio (M phi) / phi that is not finite and positive (M phi underflowed)
    raises ``FloatingPointError`` at the step where it appears.
    """
    P = np.asarray(P, dtype=float)
    c = np.asarray(c, dtype=float)
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(c))):
        raise ValueError("spectral oracle needs a finite transition matrix and cost")
    if not is_primitive(P):
        raise ValueError("spectral oracle needs an irreducible aperiodic chain")
    shift = float(np.max(lam * c))
    M = np.exp(lam * c - shift)[:, None] * P
    phi = np.ones(len(c))
    for step in range(1, max_iter + 1):
        nxt = M @ phi
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = nxt / phi
        if not (ratio.min() > 0 and np.isfinite(ratio.max())):
            raise FloatingPointError(f"power iteration ratio outside (0, inf) at step {step}")
        lo, hi = sorted((np.log([ratio.min(), ratio.max()]) + shift) / lam)  # lam < 0 swaps the ends
        phi = nxt / nxt.max()
        if hi - lo < 2.0 * tol:
            h = np.log(phi) / lam
            h -= h[reference_state]
            return OracleResult(rho=0.5 * (lo + hi), h=h, method="entropic_spectral", error_bound=0.5 * (hi - lo))
    raise RuntimeError("power iteration did not converge")


def neutral_average_cost(P: np.ndarray, c: np.ndarray, reference_state: int = 0) -> OracleResult:
    """Fixed-policy mean long-run cost via the stationary distribution.

    With pi the stationary law, the bias solves the Poisson equation through
    the fundamental matrix, (I - P + 1 pi') h = c - <pi, c> (Kemeny & Snell),
    and is recentered at the reference state.  One application of the
    operator, delta = c + P h - h, brackets rho by [min delta, max delta], as
    in relative value iteration: ``rho`` is its midpoint and ``error_bound``
    its half-width.  Requires a unique stationary law (one closed class);
    a singular stationary system raises ``LinAlgError``, a ``ValueError``.
    """
    P = np.asarray(P, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(c)
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    if np.any(pi < -1e-10):
        raise ValueError("stationary solve produced negative mass; chain not irreducible?")
    h = np.linalg.solve(np.eye(n) - P + pi, c - pi @ c)
    h -= h[reference_state]
    delta = c + P @ h - h
    lo, hi = float(delta.min()), float(delta.max())
    return OracleResult(rho=0.5 * (lo + hi), h=h, method="neutral_stationary", error_bound=0.5 * (hi - lo))


@dataclass
class PolicyEnumeration:
    """``table`` lists each policy with its long-run cost and ``routes`` how
    that cost was evaluated, in the same order: ``spectral`` (entropic
    Perron oracle), ``stationary`` (neutral stationary oracle) or ``rvi``
    (fixed-policy relative value iteration, the only route through the
    solver)."""

    best_rho: float
    best_policy: PolicyVector
    table: list[tuple[tuple[int, ...], float]]
    routes: list[str] = field(default_factory=list)


def enumerate_policies(mcp: FiniteMCP, spec: RiskMapSpec, budget: int = 10_000, tol: float = 1e-9) -> PolicyEnumeration:
    """Long-run cost of every deterministic stationary policy.

    Per-policy evaluation routes: entropic -> spectral oracle, neutral ->
    stationary oracle, everything else -> fixed-policy relative value
    iteration on the single-action restriction.  Raises if the policy count
    exceeds ``budget``.
    """
    counts = [mcp.n_actions(x) for x in range(mcp.n_states)]
    total = int(np.prod(counts))
    if total > budget:
        raise ValueError(f"{total} policies exceed the enumeration budget {budget}")
    enum = PolicyEnumeration(best_rho=np.inf, best_policy=None, table=[])
    for combo in itertools.product(*[range(k) for k in counts]):
        policy = PolicyVector.det(combo)
        if spec.kind == "entropic":
            route, rho = "spectral", entropic_spectral_rho(*policy_transition_and_cost(mcp, policy), spec.lam).rho
        elif spec.kind == "neutral":
            route, rho = "stationary", neutral_average_cost(*policy_transition_and_cost(mcp, policy)).rho
        else:
            res = relative_value_iteration(
                mcp.restrict_to_policy(policy), spec, SolveConfig(tol=tol)
            )
            if not res.converged:
                raise RuntimeError(f"fixed-policy iteration did not converge for {combo}")
            route, rho = "rvi", res.rho
        enum.table.append((combo, rho))
        enum.routes.append(route)
        if rho < enum.best_rho:
            enum.best_rho, enum.best_policy = rho, policy
    return enum


def total_cost_law(
    mcp: FiniteMCP, policy: PolicyVector, T: int, budget: int = 10_000_000
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact law of the accumulated cost sum_{t=0}^{T} c(x_t) per start state.

    Brute-force path expansion under a deterministic policy; zero-probability
    paths are pruned.  Refuses horizons with more than ``budget`` paths.
    """
    if not policy.is_deterministic:
        raise ValueError("path enumeration needs a deterministic policy")
    n = mcp.n_states
    if n ** (T + 1) > budget:
        raise ValueError(f"{n}^{T + 1} paths exceed the enumeration budget {budget}")
    P, c = policy_transition_and_cost(mcp, policy)
    out = []
    for x0 in range(n):
        states = np.array([x0], dtype=np.intp)
        probs = np.array([1.0])
        costs = np.array([0.0])
        for _ in range(T):
            probs = (probs[:, None] * P[states]).ravel()
            costs = (costs + c[states])[:, None].repeat(n, axis=1).ravel()
            states = np.tile(np.arange(n, dtype=np.intp), len(states))
            keep = probs > 0.0
            states, probs, costs = states[keep], probs[keep], costs[keep]
        costs = costs + c[states]
        out.append((probs, costs))
    return out


def static_total_cost_risk(mcp: FiniteMCP, policy: PolicyVector, spec: RiskMapSpec, T: int) -> np.ndarray:
    """Risk of the total-cost law applied once (the non-nested evaluation)."""
    laws = total_cost_law(mcp, policy, T)
    return np.array([eval_risk(spec, costs, probs) for probs, costs in laws])


def policy_table_to_csv(enum: PolicyEnumeration, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy_id", "action_per_state", "rho"])
        for i, (combo, rho) in enumerate(enum.table):
            writer.writerow([i, ";".join(str(a) for a in combo), repr(rho)])
