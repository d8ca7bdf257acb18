"""One-step risk maps on finite probability rows, and their upper envelopes.

Every map R(.|q) here is monotone, translation invariant (R(v + c) =
R(v) + c for scalar c) and centralized (R(0) = 0).  The supported kinds:

- ``neutral``: the plain expectation.
- ``entropic``: (1/lam) log E[exp(lam v)], evaluated with a max shift so it
  never overflows.
- ``density_band``: sup of E[xi v] over densities xi with g1 <= xi <= g2 and
  E[xi] = 1 (g1 = 0, g2 = 1/beta recovers average value-at-risk).
- ``mean_semideviation``: mean plus lam times the upper semideviation of
  order r.
- ``shortfall``: the utility-shortfall level, i.e. the unique m with
  E[u(v - m)] = 0 for a piecewise-linear increasing u with u(0) = 0, solved
  exactly on the linear piece of E[u(v - m)] that holds it.

The core evaluator is vectorized over stacks of rows (and optionally stacks
of value vectors), which is what makes value iteration cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mdp import FiniteMCP

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "PiecewiseLinearUtility",
    "RiskMapSpec",
    "RISK_KINDS",
    "check_axioms_of",
    "check_risk_axioms",
    "density_band",
    "entropic",
    "entropic_upper_envelope",
    "eval_risk",
    "maximize_ratio_over_box",
    "mean_semideviation",
    "risk_values",
    "shortfall",
    "shortfall_upper_envelope",
]

RISK_KINDS = ("neutral", "entropic", "density_band", "mean_semideviation", "shortfall")


class PiecewiseLinearUtility:
    """Continuous piecewise-linear increasing u with u(0) = 0.

    ``breakpoints`` are strictly increasing knots; ``slopes`` has one more
    entry than ``breakpoints`` (slope below the first knot, between knots,
    above the last).  Slopes must lie in [l, L] with 0 < l <= 1 <= L, the
    normalization under which shortfall levels are well behaved.
    """

    def __init__(self, breakpoints=(), slopes=(1.0,)):
        self.breakpoints = np.asarray(breakpoints, dtype=float).reshape(-1)
        self.slopes = np.asarray(slopes, dtype=float).reshape(-1)
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValueError("need len(slopes) == len(breakpoints) + 1")
        if len(self.breakpoints) > 1 and np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(self.slopes <= 0):
            raise ValueError("slopes must be positive (u increasing)")
        if self.l > 1.0 or self.L < 1.0:
            raise ValueError("slopes must straddle 1: min <= 1 <= max")
        # Knot values, anchored so that u(0) = 0.
        k = len(self.breakpoints)
        vals = np.zeros(k)
        if k:
            j0 = int(np.searchsorted(self.breakpoints, 0.0, side="right"))
            if j0 > 0:
                vals[j0 - 1] = self.slopes[j0] * self.breakpoints[j0 - 1]
                for j in range(j0 - 2, -1, -1):
                    vals[j] = vals[j + 1] - self.slopes[j + 1] * (
                        self.breakpoints[j + 1] - self.breakpoints[j]
                    )
            if j0 < k:
                vals[j0] = self.slopes[j0] * self.breakpoints[j0]
                for j in range(j0 + 1, k):
                    vals[j] = vals[j - 1] + self.slopes[j] * (
                        self.breakpoints[j] - self.breakpoints[j - 1]
                    )
        self._knot_values = vals

    @property
    def l(self) -> float:
        return float(self.slopes.min())

    @property
    def L(self) -> float:
        return float(self.slopes.max())

    @classmethod
    def linear(cls) -> "PiecewiseLinearUtility":
        return cls((), (1.0,))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if len(self.breakpoints) == 0:
            return self.slopes[0] * x
        seg = np.searchsorted(self.breakpoints, x, side="right")
        ref = np.where(seg > 0, self.breakpoints[np.maximum(seg - 1, 0)], self.breakpoints[0])
        base = np.where(seg > 0, self._knot_values[np.maximum(seg - 1, 0)], self._knot_values[0])
        return base + self.slopes[seg] * (x - ref)

    def to_dict(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(), "slopes": self.slopes.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseLinearUtility":
        return cls(data.get("breakpoints", ()), data.get("slopes", (1.0,)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseLinearUtility)
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.slopes, other.slopes)
        )

    def __repr__(self) -> str:
        return f"PiecewiseLinearUtility({self.breakpoints.tolist()}, {self.slopes.tolist()})"


@dataclass(frozen=True)
class RiskMapSpec:
    """Which risk map to use and its parameters.

    ``lam`` is the entropic sensitivity (any nonzero float) or, for
    mean-semideviation, the risk-preference weight in [-1, 1].  ``band`` is
    the (g1, g2) density corridor with 0 <= g1 <= 1 <= g2.  ``utility`` is
    the shortfall utility (linear when omitted).
    """

    kind: str
    lam: float = 0.0
    r: float = 2.0
    band: tuple[float, float] = (1.0, 1.0)
    utility: PiecewiseLinearUtility | None = None

    def __post_init__(self) -> None:
        if self.kind not in RISK_KINDS:
            raise ValueError(f"unknown risk kind {self.kind!r}")
        if self.kind == "entropic" and self.lam == 0.0:
            raise ValueError("entropic risk needs lam != 0 (use kind='neutral' for the limit)")
        if self.kind == "mean_semideviation":
            if not -1.0 <= self.lam <= 1.0:
                raise ValueError("mean_semideviation needs lam in [-1, 1]")
            if self.r < 1.0:
                raise ValueError("mean_semideviation needs order r >= 1")
        if self.kind == "density_band":
            g1, g2 = self.band
            if not (0.0 <= g1 <= 1.0 <= g2):
                raise ValueError("density band needs 0 <= g1 <= 1 <= g2")
        if self.kind == "shortfall" and self.utility is None:
            object.__setattr__(self, "utility", PiecewiseLinearUtility.linear())

    @property
    def claims(self) -> frozenset[str]:
        """Structural properties this kind is expected to satisfy."""
        coherent = frozenset({"convex", "homogeneous", "subadditive"})
        if self.kind == "neutral" or self.kind == "density_band":
            return coherent
        if self.kind == "entropic":
            return frozenset({"convex"}) if self.lam > 0 else frozenset()
        if self.kind == "mean_semideviation":
            return coherent if self.lam >= 0 else frozenset({"homogeneous"})
        return frozenset()

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in ("entropic", "mean_semideviation"):
            out["lambda"] = self.lam
        if self.kind == "mean_semideviation":
            out["r"] = self.r
        if self.kind == "density_band":
            out["band"] = list(self.band)
        if self.kind == "shortfall":
            out["utility"] = self.utility.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RiskMapSpec":
        """Inverse of ``to_dict``; unknown keys, such as the ``shortfall_tol``
        of older configs, are ignored."""
        util = data.get("utility")
        return cls(
            kind=data["kind"],
            lam=float(data.get("lambda", 0.0)),
            r=float(data.get("r", 2.0)),
            band=tuple(data.get("band", (1.0, 1.0))),
            utility=None if util is None else PiecewiseLinearUtility.from_dict(util),
        )


# ---------------------------------------------------------------------------
# Vectorized evaluation kernel
# ---------------------------------------------------------------------------


def _as_stack(v, rows):
    """``rows`` as an (m, n) array, and ``v`` as a shared length-n vector or an
    (m, n) stack paired row by row; the kernels broadcast a shared v."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    v = np.asarray(v, dtype=float)
    if v.shape not in (rows.shape[1:], rows.shape):
        raise ValueError(f"values {v.shape} match neither one row {rows.shape[1:]} nor the rows {rows.shape}")
    return v, rows


def _sort_by_value(V: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V sorted ascending along its last axis, and the (m, n) W permuted to match.

    A shared length-n V is sorted once and permutes the columns of W; an
    (m, n) stack is sorted row by row.
    """
    if V.ndim == 1:
        order = np.argsort(V, kind="stable")
        return V[order], np.take(W, order, axis=1)
    order = np.argsort(V, axis=1, kind="stable")
    return np.take_along_axis(V, order, axis=1), np.take_along_axis(W, order, axis=1)


def _logsumexp_rows(A: np.ndarray) -> np.ndarray:
    """log(sum(exp(A), axis=1)), shifted by each row's max so it cannot overflow."""
    amax = np.max(A, axis=1)
    out = np.empty_like(amax)
    finite = np.isfinite(amax)
    if np.any(finite):
        Af = A[finite]
        mf = amax[finite]
        out[finite] = mf + np.log(np.sum(np.exp(Af - mf[:, None]), axis=1))
    # +inf max -> +inf; all -inf (impossible for probability rows) -> -inf
    out[~finite] = amax[~finite]
    return out


def _entropic_rows(V: np.ndarray, rows: np.ndarray, lam: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        A = np.log(rows) + lam * V
    return _logsumexp_rows(A) / lam


def _band_rows(V: np.ndarray, rows: np.ndarray, g1: float, g2: float) -> np.ndarray:
    # With xi = g1 + (g2 - g1) eta, the best 0 <= eta <= 1 puts its mass
    # (1 - g1)/(g2 - g1) on the largest outcomes, so the (g2 - g1) eta part
    # adds min((g2 - g1) cum, 1 - g1) of q-mass, cum counted from the top.
    negVs, Qs = _sort_by_value(-V, rows)
    top = np.diff(np.minimum((g2 - g1) * np.cumsum(Qs, axis=1), 1.0 - g1), axis=1, prepend=0.0)
    return -np.sum((g1 * Qs + top) * negVs, axis=1)


def _semidev_rows(V: np.ndarray, rows: np.ndarray, lam: float, r: float) -> np.ndarray:
    mean = np.sum(rows * V, axis=1)
    excess = np.maximum(V - mean[:, None], 0.0)
    dev = np.sum(rows * excess**r, axis=1) ** (1.0 / r)
    return mean + lam * dev


def _shortfall_rows(V: np.ndarray, rows: np.ndarray, utility: PiecewiseLinearUtility) -> np.ndarray:
    # g(m) = E[u(v - m)] is piecewise linear and decreasing, with kinks at
    # v_y - b_k.  Below every kink g(m) = A - S (m - a) with all outcomes on
    # u's top piece; passing kink t lowers S by q_y (s_{k+1} - s_k) and A by
    # that times (t - a).  The root is on the piece after the last kink where
    # g > 0.  Anchoring at the mean keeps the sums on the scale of v's spread;
    # a non-finite mean falls back to 0, so such rows give +-inf or NaN.
    b, s = utility.breakpoints, utility.slopes
    x0 = b.max(initial=0.0)  # a point on u's top piece
    c = float(utility(x0)) - s[-1] * x0
    a = np.nan_to_num(np.sum(rows * V, axis=1), nan=0.0, posinf=0.0, neginf=0.0)[:, None]
    T, W = _sort_by_value(
        (V[..., None] - b).reshape(*V.shape[:-1], -1),
        (rows[:, :, None] * np.diff(s)).reshape(len(rows), -1),
    )
    T = T - a
    S = np.cumsum(np.column_stack((s[-1] * rows.sum(axis=1), -W)), axis=1)
    A = np.cumsum(np.column_stack((np.sum(rows * (s[-1] * (V - a) + c), axis=1), -W * T)), axis=1)
    piece = np.sum(A[:, 1:] - S[:, 1:] * T > 0, axis=1)[:, None]
    return (a + np.take_along_axis(A, piece, axis=1) / np.take_along_axis(S, piece, axis=1))[:, 0]


def risk_values(spec: RiskMapSpec, v, rows) -> np.ndarray:
    """Evaluate R(v | q) for a stack of probability rows.

    ``rows`` has shape (m, n).  ``v`` is either a shared length-n vector or
    an (m, n) stack paired row-by-row.  Returns a length-m array.
    """
    V, rows = _as_stack(v, rows)
    if spec.kind == "neutral":
        return np.sum(rows * V, axis=1)
    if spec.kind == "entropic":
        return _entropic_rows(V, rows, spec.lam)
    if spec.kind == "density_band":
        return _band_rows(V, rows, *spec.band)
    if spec.kind == "mean_semideviation":
        return _semidev_rows(V, rows, spec.lam, spec.r)
    return _shortfall_rows(V, rows, spec.utility)


def eval_risk(spec: RiskMapSpec, v, q) -> float:
    """R(v | q) for a single probability row q."""
    return float(risk_values(spec, np.asarray(v, dtype=float), np.asarray(q, dtype=float)[None, :])[0])


def entropic(v, q, lam: float) -> float:
    """(1/lam) log sum_y q(y) exp(lam v(y)), overflow-safe."""
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    return eval_risk(RiskMapSpec("entropic", lam=lam), v, q)


def density_band(v, q, g1: float, g2: float) -> float:
    """sup{ sum q xi v : g1 <= xi <= g2, sum q xi = 1 }."""
    return eval_risk(RiskMapSpec("density_band", band=(g1, g2)), v, q)


def mean_semideviation(v, q, lam: float, r: float = 2.0) -> float:
    """mean + lam * (upper semideviation of order r)."""
    return eval_risk(RiskMapSpec("mean_semideviation", lam=lam, r=r), v, q)


def shortfall(v, q, utility: PiecewiseLinearUtility) -> float:
    """Unique m with sum_y q(y) u(v(y) - m) = 0, solved exactly on its linear piece."""
    return eval_risk(RiskMapSpec("shortfall", utility=utility), v, q)


# ---------------------------------------------------------------------------
# Linear-fractional maximization and upper envelopes
# ---------------------------------------------------------------------------


def maximize_ratio_over_box(u, p, lo, hi):
    """Maximize sum(p d u) / sum(p d) over the box lo <= d <= hi.

    The maximum sits at a threshold vertex: d_y = hi_y on the j largest u_y
    and lo_y on the rest, which is the inner maximizer of sum(p d (u - theta))
    at the optimal ratio theta.  With u sorted once from the top, prefix sums
    of the hi part and suffix sums of the lo part give all n + 1 candidate
    ratios exactly; the first best (fewest hi entries, so ties go to lo) wins.
    Returns (value, argmax d).
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), u.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), u.shape)
    if np.any(lo <= 0):
        raise ValueError("box lower bounds must be positive")
    if np.any(hi < lo):
        raise ValueError("box upper bounds must dominate lower bounds")

    order = np.argsort(-u, kind="stable")
    ph, pl, us = (p * hi)[order], (p * lo)[order], u[order]

    def split_sums(top, rest):
        # entry j: the first j of ``top`` plus the rest of ``rest``, j = 0..n
        return np.concatenate(([0.0], np.cumsum(top))) + np.concatenate((np.cumsum(rest[::-1])[::-1], [0.0]))

    j = int(np.argmax(split_sums(ph * us, pl * us) / split_sums(ph, pl)))
    d = lo.copy()
    d[order[:j]] = hi[order[:j]]
    return float(np.dot(p * d, u) / np.dot(p, d)), d


def entropic_upper_envelope(u, q, b) -> float:
    """sup over |f| <= b of sum q e^f u / sum q e^f.

    Because the objective only depends on the tilt e^f, this is a ratio
    maximization over the box [exp(-b), exp(b)].  Entries of b above 700
    are rejected rather than silently overflowing.
    """
    b = np.broadcast_to(np.asarray(b, dtype=float), np.shape(u)).astype(float)
    if np.any(b < 0):
        raise ValueError("bound b must be nonnegative")
    if np.any(b > 700):
        raise ValueError("bound b exceeds the exp overflow guard (700)")
    value, _ = maximize_ratio_over_box(u, q, np.exp(-b), np.exp(b))
    return value


def shortfall_upper_envelope(u, q, l: float, L: float) -> float:
    """sup over slope reweightings delta in [l, L] of sum(delta q u)/sum(delta q)."""
    if not 0 < l <= L:
        raise ValueError("need 0 < l <= L")
    u = np.asarray(u, dtype=float)
    value, _ = maximize_ratio_over_box(u, q, np.full(u.shape, l), np.full(u.shape, L))
    return value


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


@dataclass
class AxiomCheck:
    name: str
    claimed: bool
    passed: bool
    n_checked: int
    max_violation: float
    witness: dict | None = None


@dataclass
class AxiomReport:
    checks: dict[str, AxiomCheck] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """All required axioms (base ones plus whatever the kind claims) hold."""
        return all(c.passed for c in self.checks.values() if c.claimed)


_BASE_AXIOMS = ("monotonicity", "translation_invariance", "centralization")

# Check names vs. the adjectives used in RiskMapSpec.claims.
_CLAIM_OF_CHECK = {
    "convexity": "convex",
    "positive_homogeneity": "homogeneous",
    "subadditivity": "subadditive",
}


def check_axioms_of(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    claims: frozenset[str] | set[str],
    rows: np.ndarray,
    values: np.ndarray,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> AxiomReport:
    """Sampled axiom checks for a batched risk evaluator.

    ``fn(V, rows)`` must accept an (m, n) stack of value vectors paired with
    (m, n) probability rows and return m risk values.  Base axioms are always
    exercised; convexity / positive homogeneity / subadditivity are exercised
    too but only count against the report when listed in ``claims``.
    """
    m, n = rows.shape
    V = values
    U = V + np.abs(rng.normal(0.0, 1.5, size=(m, n)))
    shifts = rng.normal(0.0, 3.0, size=m)
    scales = rng.uniform(0.0, 2.0, size=m)
    alphas = rng.uniform(0.0, 1.0, size=m)
    W = rng.normal(0.0, 2.0, size=(m, n))

    rv = fn(V, rows)
    ru = fn(U, rows)
    rw = fn(W, rows)

    report = AxiomReport()

    def record(name: str, lhs: np.ndarray, rhs: np.ndarray, extra: dict) -> None:
        viol = lhs - rhs
        worst = int(np.argmax(viol))
        passed = bool(viol[worst] <= tol)
        witness = None
        if not passed:
            witness = {
                "axiom": name,
                "row": rows[worst].tolist(),
                "v": V[worst].tolist(),
                "lhs": float(lhs[worst]),
                "rhs": float(rhs[worst]),
            }
            for k, vv in extra.items():
                witness[k] = vv[worst].tolist() if vv.ndim > 1 else float(vv[worst])
        report.checks[name] = AxiomCheck(
            name=name,
            claimed=name in _BASE_AXIOMS or _CLAIM_OF_CHECK.get(name, name) in claims,
            passed=passed,
            n_checked=m,
            max_violation=float(viol[worst]),
            witness=witness,
        )

    record("monotonicity", rv, ru, {"u": U})
    record("translation_invariance", np.abs(fn(V + shifts[:, None], rows) - (rv + shifts)), np.zeros(m), {"c": shifts})
    record("centralization", np.abs(fn(np.zeros_like(V), rows)), np.zeros(m), {})
    mix = alphas[:, None] * V + (1 - alphas[:, None]) * W
    record("convexity", fn(mix, rows), alphas * rv + (1 - alphas) * rw, {"u": W, "alpha": alphas})
    record("positive_homogeneity", np.abs(fn(scales[:, None] * V, rows) - scales * rv), np.zeros(m), {"s": scales})
    record("subadditivity", fn(V + W, rows), rv + rw, {"u": W})
    return report


def check_risk_axioms(
    spec: RiskMapSpec,
    mcp: FiniteMCP,
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> AxiomReport:
    """Sampled axiom checks for ``spec`` on transition rows drawn from ``mcp``."""
    rng = np.random.default_rng(seed)
    all_rows = mcp.stacked_transition
    idx = rng.integers(0, all_rows.shape[0], size=n_samples)
    rows = all_rows[idx]
    values = rng.normal(0.0, 2.0, size=rows.shape)
    return check_axioms_of(lambda V, R: risk_values(spec, V, R), spec.claims, rows, values, rng, tol)
