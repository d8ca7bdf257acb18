"""One-step risk maps on finite probability rows, and their upper envelopes.

Every map R(.|q) here is monotone, translation invariant (R(v + c) =
R(v) + c for scalar c) and centralized (R(0) = 0).  The supported kinds:

- ``neutral``: the plain expectation.
- ``entropic``: (1/lam) log E[exp(lam v)], evaluated with a max shift so it
  never overflows.
- ``density_band``: sup of E[xi v] over densities xi with g1 <= xi <= g2 and
  E[xi] = 1 (g1 = 0, g2 = 1/beta recovers average value-at-risk).  It is
  the distortion (Choquet) risk measure of g(s) = min(g2 s, g1 s + 1 - g1).
- ``mean_semideviation``: mean plus lam times the upper semideviation of
  order r.
- ``shortfall``: the utility-shortfall level, i.e. the unique m with
  E[u(v - m)] = 0 for a piecewise-linear increasing u with u(0) = 0, solved
  exactly on the linear piece of E[u(v - m)] that holds it.

Evaluation is vectorized over a stack of probability rows.  A value vector
shared by all rows, as every Bellman sweep and certificate passes it, never
makes a full (rows, n) temporary: ``neutral`` is one matrix-vector product
and ``entropic`` a shifted one, s + log(Q exp(lam (v - s))) / lam, which
falls back to a row-wise logsumexp where the product underflows or v is not
finite.  The order-based kinds sort v once and sweep the rows in blocks of
about 2^17 elements.  Per block, the band is v_(n) + sum_{k<n} g(C_k)
(v_(k) - v_(k+1)), with v sorted from the top and C_k the q-mass of the k
largest outcomes: one gather, one cumsum, the distortion and one row dot
(a v that is not finite, or whose spread overflows, takes the weighted sum
sum_k (g(C_k) - g(C_{k-1})) v_(k) instead).  Mean-semideviation takes its
mean and its excess moment as row dots, with one block temporary.
``risk_table`` evaluates many value vectors against the same rows the same
way, with one matrix product for neutral and entropic.  An (m, n) stack of
value vectors paired row by row, as the axiom checks pass it, takes the
same row-block reductions, with a logsumexp for entropic.
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
    "risk_table",
    "risk_values",
    "shortfall",
    "shortfall_upper_envelope",
]

RISK_KINDS = ("neutral", "entropic", "density_band", "mean_semideviation", "shortfall")


@dataclass(frozen=True)
class PiecewiseLinearUtility:
    """Continuous piecewise-linear increasing u with u(0) = 0.

    ``breakpoints`` b are strictly increasing knots; ``slopes`` has one more
    entry than ``breakpoints`` (slope below the first knot, between knots,
    above the last), all in [l, L] with 0 < l <= 1 <= L, the normalization
    under which shortfall levels are well behaved.  Both are float tuples, so
    utilities compare and hash by value.  u has the kink form
    u(x) = s x + c + sum_k ds_k max(b_k - x, 0) with s the top slope, ds_k =
    slopes[k + 1] - slopes[k] and the intercept c = -sum_k ds_k max(b_k, 0).
    """

    breakpoints: tuple[float, ...] = ()
    slopes: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        b, s = (np.asarray(x, dtype=float).reshape(-1) for x in (self.breakpoints, self.slopes))
        object.__setattr__(self, "breakpoints", tuple(b.tolist()))
        object.__setattr__(self, "slopes", tuple(s.tolist()))
        if len(s) != len(b) + 1:
            raise ValueError("need len(slopes) == len(breakpoints) + 1")
        # Written as "not all good" so that a NaN fails too.
        if not (np.all(np.isfinite(b)) and np.all(np.diff(b) > 0)):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not np.all((s > 0) & np.isfinite(s)):
            raise ValueError("slopes must be positive and finite (u increasing)")
        if self.l > 1.0 or self.L < 1.0:
            raise ValueError("slopes must straddle 1: min <= 1 <= max")

    @property
    def l(self) -> float:
        return float(np.min(self.slopes))

    @property
    def L(self) -> float:
        return float(np.max(self.slopes))

    @property
    def intercept(self) -> float:
        return -float(np.sum(np.diff(self.slopes) * np.maximum(self.breakpoints, 0.0)))

    @classmethod
    def linear(cls) -> "PiecewiseLinearUtility":
        return cls()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        kinks = np.diff(self.slopes) * np.maximum(np.subtract(self.breakpoints, x[..., None]), 0.0)
        return self.slopes[-1] * x + self.intercept + np.sum(kinks, axis=-1)

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "slopes": list(self.slopes)}

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseLinearUtility":
        return cls(data.get("breakpoints", ()), data.get("slopes", (1.0,)))


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
        """The structural checks of ``check_axioms_of`` this kind is expected to pass."""
        coherent = frozenset(_STRUCTURAL_AXIOMS)
        if self.kind == "neutral" or self.kind == "density_band":
            return coherent
        if self.kind == "entropic":
            return frozenset({"convexity"}) if self.lam > 0 else frozenset()
        if self.kind == "mean_semideviation":
            return coherent if self.lam >= 0 else frozenset({"positive_homogeneity"})
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
# Evaluation kernels
# ---------------------------------------------------------------------------

# Elements of one row-block temporary in the order-based kernels (1 MB of
# float64): small enough to stay in cache, large enough that numpy's
# per-call overhead is amortized.
_BLOCK_ELEMENTS = 1 << 17

_TINY = np.finfo(float).tiny


def _blocks(V: np.ndarray, m: int, width: int) -> list:
    """How an order-based kernel sweeps m rows in blocks of
    ``max(1, _BLOCK_ELEMENTS // width)``: ``(values, [row slice, ...])``
    groups, each group's values sorted once.  A shared 1-D v is one group
    over every block; an (m, n) stack paired with the rows gives each block
    its own slice of values."""
    per = max(1, _BLOCK_ELEMENTS // width)
    sls = [slice(i, i + per) for i in range(0, m, per)]
    if V.ndim == 1:
        return [(V, sls)]
    return [(V[sl], [sl]) for sl in sls]


def _gather(Q: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The columns of the row block Q in the values' order: one shared 1-D
    order, or a paired (mb, w) order row by row."""
    if order.ndim == 1:
        return np.take(Q, order, axis=1)
    return np.take_along_axis(Q, order, axis=1)


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


def _entropic_table(V: np.ndarray, rows: np.ndarray, lam: float) -> np.ndarray:
    # s + log(Q exp(lam (v - s))) / lam with s = max v (lam > 0) or min v
    # (lam < 0), so every exponent is <= 0: one gemm for all samples.  A
    # product below the normal range (underflow) or a non-finite v goes
    # through the row-wise logsumexp instead.
    finite = np.isfinite(V).all(axis=1)
    Vf = V[finite]
    s = (Vf.max(axis=1) if lam > 0 else Vf.min(axis=1))[:, None]
    P = np.exp(lam * (Vf - s)) @ rows.T
    ok = np.zeros((len(V), len(rows)), dtype=bool)
    ok[finite] = P >= _TINY
    np.log(P, out=P, where=ok[finite])
    P /= lam
    P += s
    out = np.empty(ok.shape)
    out[finite] = P
    for k in np.flatnonzero(~ok.all(axis=1)):
        out[k, ~ok[k]] = _entropic_rows(V[k], rows[~ok[k]], lam)
    return out


def _rowdot(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of a row block A with one shared vector b or
    with a paired stack b; both layouts take the same einsum reduction, so a
    shared v and its tiled stack give the same bits."""
    return np.einsum("ij,j->i" if b.ndim == 1 else "ij,ij->i", A, b)


def _band(V: np.ndarray, rows: np.ndarray, g1: float, g2: float) -> np.ndarray:
    # Choquet form v_(n) + sum_{k<n} g(C_k) (v_(k) - v_(k+1)) (see the
    # module docstring): nonnegative weights times nonnegative increments,
    # so nothing cancels.  Rows whose increments are not finite (v not
    # finite, or a spread past the float range) are spoiled here and redone
    # by _band_by_weights.
    out = np.empty(len(rows))
    for Vb, sls in _blocks(V, len(rows), rows.shape[1]):
        order = np.argsort(-Vb, axis=-1, kind="stable")
        vs = np.take_along_axis(Vb, order, axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):
            dv = vs[..., :-1] - vs[..., 1:]
            for sl in sls:
                G = _gather(rows[sl], order[..., :-1])
                np.cumsum(G, axis=1, out=G)
                H = G * g1  # G becomes g(C) = min(g2 C, g1 C + 1 - g1)
                H += 1.0 - g1
                G *= g2
                np.minimum(G, H, out=G)
                out[sl] = vs[..., -1] + _rowdot(G, dv)
        ok = np.isfinite(vs[..., -1]) & np.all(np.isfinite(dv), axis=-1)
        if not np.all(ok):
            for sl in sls:
                bad = np.flatnonzero(~np.broadcast_to(ok, out[sl].shape))
                out[sl.start + bad] = _band_by_weights(Vb if Vb.ndim == 1 else Vb[bad], rows[sl][bad], g1, g2)
    return out


def _band_by_weights(V: np.ndarray, rows: np.ndarray, g1: float, g2: float) -> np.ndarray:
    # sum_k w_k v_(k) with w_k = g(C_k) - g(C_{k-1}) written as g1 q + the
    # increments of min((g2 - g1) C, 1 - g1), so an infinite outcome gives
    # +-inf where its weight is positive and NaN where it is zero.
    order = np.argsort(-V, axis=-1, kind="stable")
    Qs = _gather(rows, order)
    top = np.diff(np.minimum((g2 - g1) * np.cumsum(Qs, axis=1), 1.0 - g1), axis=1, prepend=0.0)
    return np.sum((g1 * Qs + top) * np.take_along_axis(V, order, axis=-1), axis=1)


def _semideviation(V: np.ndarray, rows: np.ndarray, lam: float, r: float) -> np.ndarray:
    out = np.empty(len(rows))
    for Vb, sls in _blocks(V, len(rows), rows.shape[1]):
        for sl in sls:
            Q = rows[sl]
            mean = _rowdot(Q, Vb)
            excess = Vb - mean[:, None]
            np.maximum(excess, 0.0, out=excess)
            excess **= r
            out[sl] = mean + lam * _rowdot(Q, excess) ** (1.0 / r)
    return out


def _shortfall(V: np.ndarray, rows: np.ndarray, utility: PiecewiseLinearUtility) -> np.ndarray:
    # g(m) = E[u(v - m)] is piecewise linear and decreasing, with kinks at
    # v_y - b_k.  Below every kink g(m) = A - S (m - a) with all outcomes on
    # u's top piece; passing kink t lowers S by q_y (s_{k+1} - s_k) and A by
    # that times (t - a).  The root is on the piece after the last kink where
    # g > 0.  Anchoring at the mean keeps the sums on the scale of v's spread;
    # a non-finite mean falls back to 0, so such rows give +-inf or NaN.
    b, s, c = np.asarray(utility.breakpoints), np.asarray(utility.slopes), utility.intercept
    ds, k = np.diff(s), max(len(b), 1)
    out = np.empty(len(rows))
    for Vb, sls in _blocks(V, len(rows), rows.shape[1] * k):
        kinks = (Vb[..., None] - b).reshape(*Vb.shape[:-1], -1)
        order = np.argsort(kinks, axis=-1, kind="stable")
        kinks = np.take_along_axis(kinks, order, axis=-1)
        y, j = np.divmod(order, k)  # outcome and slope step of each sorted kink
        for sl in sls:
            Q = rows[sl]
            a = np.nan_to_num(np.sum(Q * Vb, axis=1), nan=0.0, posinf=0.0, neginf=0.0)[:, None]
            W = _gather(Q, y) * ds[j]
            T = kinks - a
            S0 = s[-1] * Q.sum(axis=1)[:, None]  # S and A below every kink
            A0 = np.sum(Q * (s[-1] * (Vb - a) + c), axis=1)[:, None]
            S = np.cumsum(np.concatenate((S0, -W), axis=1), axis=1)
            A = np.cumsum(np.concatenate((A0, -W * T), axis=1), axis=1)
            piece = np.sum(A[:, 1:] - S[:, 1:] * T > 0, axis=1)[:, None]
            out[sl] = (a + np.take_along_axis(A, piece, axis=1) / np.take_along_axis(S, piece, axis=1))[:, 0]
    return out


def _order_based(spec: RiskMapSpec, V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    if spec.kind == "density_band":
        return _band(V, rows, *spec.band)
    if spec.kind == "mean_semideviation":
        return _semideviation(V, rows, spec.lam, spec.r)
    return _shortfall(V, rows, spec.utility)


def risk_table(spec: RiskMapSpec, V, rows) -> np.ndarray:
    """R(v_k | q_i) for an (S, n) stack of value vectors against shared (m, n)
    rows; returns (S, m).

    Neutral and entropic are one matrix product (entropic with one shift per
    sample, falling back to a row-wise logsumexp where the product
    underflows or v is not finite); the order-based kinds take one v at a
    time, sort it once and sweep the rows in blocks of bounded size.
    """
    V = np.asarray(V, dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if V.ndim != 2 or V.shape[1] != rows.shape[1]:
        raise ValueError(f"values {V.shape} are not a stack of vectors of length {rows.shape[1]}")
    if spec.kind == "neutral":
        return V @ rows.T
    if spec.kind == "entropic":
        return _entropic_table(V, rows, spec.lam)
    out = np.empty((len(V), len(rows)))
    for k, v in enumerate(V):
        out[k] = _order_based(spec, v, rows)
    return out


def risk_values(spec: RiskMapSpec, v, rows) -> np.ndarray:
    """Evaluate R(v | q) for a stack of probability rows.

    ``rows`` has shape (m, n).  ``v`` is either a shared length-n vector,
    evaluated as ``risk_table(spec, v[None], rows)[0]``, or an (m, n) stack
    paired row-by-row.  Returns a length-m array.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    V = np.asarray(v, dtype=float)
    if V.shape == rows.shape[1:]:
        return risk_table(spec, V[None], rows)[0]
    if V.shape != rows.shape:
        raise ValueError(f"values {V.shape} match neither one row {rows.shape[1:]} nor the rows {rows.shape}")
    if spec.kind == "neutral":
        return np.sum(rows * V, axis=1)
    if spec.kind == "entropic":
        return _entropic_rows(V, rows, spec.lam)
    return _order_based(spec, V, rows)


def eval_risk(spec: RiskMapSpec, v, q) -> float:
    """R(v | q) for a single probability row q."""
    return float(risk_values(spec, np.asarray(v, dtype=float), np.asarray(q, dtype=float)[None, :])[0])


def entropic(v, q, lam: float) -> float:
    """(1/lam) log sum_y q(y) exp(lam v(y)), overflow-safe."""
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
_STRUCTURAL_AXIOMS = ("convexity", "positive_homogeneity", "subadditivity")


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
    too but only count when their check names are in ``claims``, and any
    other claim name raises ``ValueError``.
    """
    if unknown := set(claims).difference(_BASE_AXIOMS, _STRUCTURAL_AXIOMS):
        raise ValueError(f"unknown axiom claims {sorted(unknown)}; the checks are {_BASE_AXIOMS + _STRUCTURAL_AXIOMS}")
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
            claimed=name in _BASE_AXIOMS or name in claims,
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
