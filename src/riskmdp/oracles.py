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
from dataclasses import dataclass

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
    with max-norm normalization; stops when the eigenvalue estimate drifts
    by less than ``tol`` per step.
    """
    P = np.asarray(P, dtype=float)
    c = np.asarray(c, dtype=float)
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    if not is_primitive(P):
        raise ValueError("spectral oracle needs an irreducible aperiodic chain")
    M = np.exp(lam * c)[:, None] * P
    phi = np.ones(len(c))
    r_old = np.inf
    for _ in range(max_iter):
        nxt = M @ phi
        r = float(nxt.max())
        phi = nxt / r
        if abs(r - r_old) < tol:
            h = np.log(phi) / lam
            h -= h[reference_state]
            return OracleResult(rho=np.log(r) / lam, h=h, method="entropic_spectral", error_bound=abs(r - r_old))
        r_old = r
    raise RuntimeError("power iteration did not converge")


def neutral_average_cost(P: np.ndarray, c: np.ndarray, reference_state: int = 0) -> OracleResult:
    """Fixed-policy mean long-run cost via the stationary distribution.

    rho = <pi, c> with pi the stationary law; the bias solves the linear
    Poisson system (I - P) h = c - rho with h pinned to 0 at the reference
    state.  Requires an irreducible chain (unique stationary law).
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
    rho = float(pi @ c)
    B = np.eye(n) - P
    rhs = c - rho
    B[reference_state, :] = 0.0
    B[reference_state, reference_state] = 1.0
    rhs[reference_state] = 0.0
    h = np.linalg.solve(B, rhs)
    # The replaced equation must hold automatically; a large residual there
    # means the chain was not irreducible.
    dropped = float(abs((np.eye(n) - P)[reference_state] @ h - (c - rho)[reference_state]))
    if dropped > 1e-8:
        raise ValueError("Poisson system inconsistent; chain not irreducible?")
    return OracleResult(rho=rho, h=h, method="neutral_stationary", error_bound=dropped)


@dataclass
class PolicyEnumeration:
    best_rho: float
    best_policy: PolicyVector
    table: list[tuple[tuple[int, ...], float]]


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
    table: list[tuple[tuple[int, ...], float]] = []
    best_rho = np.inf
    best: tuple[int, ...] | None = None
    for combo in itertools.product(*[range(k) for k in counts]):
        policy = PolicyVector.det(combo)
        if spec.kind == "entropic":
            P, c = policy_transition_and_cost(mcp, policy)
            rho = entropic_spectral_rho(P, c, spec.lam).rho
        elif spec.kind == "neutral":
            P, c = policy_transition_and_cost(mcp, policy)
            rho = neutral_average_cost(P, c).rho
        else:
            res = relative_value_iteration(
                mcp.restrict_to_policy(policy), spec, SolveConfig(tol=tol)
            )
            if not res.converged:
                raise RuntimeError(f"fixed-policy iteration did not converge for {combo}")
            rho = res.rho
        table.append((combo, rho))
        if rho < best_rho:
            best_rho = rho
            best = combo
    return PolicyEnumeration(best_rho=best_rho, best_policy=PolicyVector.det(best), table=table)


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
