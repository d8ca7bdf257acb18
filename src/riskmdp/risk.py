"""One-step risk maps on finite probability rows, and their axiom checks.

Every map R(.|q) here is translation invariant (R(v + c) = R(v) + c for
scalar c) and centralized (R(0) = 0), and every one but mean-semideviation
with lam < 0 and r > 1 is monotone (u <= v gives R(u) <= R(v); see
``RiskMapSpec.monotone``).  The supported kinds:

- ``neutral``: the plain expectation.
- ``entropic``: (1/lam) log E[exp(lam v)], evaluated with a max shift so it
  never overflows.
- ``density_band``: sup of E[xi v] over densities xi with g1 <= xi <= g2 and
  E[xi] = 1 (g1 = 0, g2 = 1/beta recovers average value-at-risk).  It is
  the distortion (Choquet) risk measure of g(s) = min(g2 s, g1 s + 1 - g1)
  (Wang 1996), and g1 E[v] plus g2 - g1 times the quantile form
  beta v* + E[(v - v*)_+] of Rockafellar & Uryasev (2000), beta =
  (1 - g1) / (g2 - g1) and v* the outcome where the top mass reaches beta.
- ``mean_semideviation``: mean plus lam times the upper semideviation of
  order r.
- ``shortfall``: the utility-shortfall level, i.e. the unique m with
  E[u(v - m)] = 0 for a piecewise-linear increasing u with u(0) = 0, solved
  exactly on the linear piece of E[u(v - m)] that holds it.

Evaluation has one layout: ``risk_table(spec, V, rows)`` evaluates an
(S, n) stack of value vectors, each shared by all of the (m, n) probability
rows, and returns the (S, m) table; ``risk_values`` is its one-vector case,
as every Bellman sweep and certificate calls it.  Both take an optional
index array ``keep`` and then return the rows ``keep`` only: the
order-based kinds read just those rows where the store holds them, one row
block of ``mdp.row_blocks`` at a time, since a copy of all kept rows up
front cost as much as the skipped rows saved.
Values must be finite:
``risk_table`` rejects a NaN or infinite entry before any kernel runs.  The
rows are an (m, n) array or a row store of ``mdp`` (a model's ``rows``),
read through its four readers ``product``, ``dots``, ``entries`` and
``take`` only.
No kind makes a full (rows, n) temporary per value vector: the mean
(``RiskMapSpec.is_mean``) is one product of the store over every row, and
``entropic`` a shifted one, s + log(Q exp(lam (v - s))) / lam, which falls
back to a row-wise logsumexp on row blocks where the product underflows.
The order-based kinds sweep the rows in blocks of ``mdp.BLOCK_ELEMENTS``.
Mean-semideviation takes its means with ``dots`` once per value vector,
over every row, and its excess moment with ``dots`` one block of rows at a
time, at v 2^-e (e the exponent of max |v|) and scaled back where the
r-th powers would leave the float range.  For rows stored
as per-axis factors the product and the row dots contract the factors and
``entries`` multiplies per-axis entries, so only the logsumexp fallback
writes row blocks from the factors.  The band and the shortfall
sort each v once and share one checkpoint kernel, for a block of value
vectors at once: both are expectations of a piecewise-linear
function of v - t with kinks at the n K points v_y - b_k (the band: K = 1,
b = 0).  Sorted from the top and cut into about sqrt(n K) chunks (at most
sqrt(2 m) for m rows), the kinks of each v make a checkpoint matrix of
2 nb + 1 rows of n: one matrix product per dense row block, or one
``product`` of factored rows over every row, whose columns the row blocks
read.  A count over the chunk starts picks each row's chunk, ``entries``
reads its masses, and running sums there find v* or the exact root.  A
spread of kinks past the float range is evaluated at v / 2 and b / 2 and
doubled.  The axiom checks evaluate tables too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mdp import BLOCK_ELEMENTS, DenseRows, FactoredRows, FiniteMCP, json_value, row_blocks, row_store

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
    "eval_risk",
    "mean_semideviation",
    "require_finite",
    "risk_table",
    "risk_values",
    "shortfall",
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
        return -sum((hi - lo) * max(b, 0.0) for b, lo, hi in zip(self.breakpoints, self.slopes, self.slopes[1:]))

    @classmethod
    def linear(cls) -> "PiecewiseLinearUtility":
        return cls()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.slopes[-1] * x + self.intercept
        for b, lo, hi in zip(self.breakpoints, self.slopes, self.slopes[1:]):
            out += (hi - lo) * np.maximum(b - x, 0.0)
        return out

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "slopes": list(self.slopes)}

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseLinearUtility":
        data = json_value(data, dict, "utility")
        return cls(json_value(data.get("breakpoints", []), [float], "breakpoints"),
                   json_value(data.get("slopes", [1.0]), [float], "slopes"))


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
        for name in ("lam", "r", "band"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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

    @property
    def is_mean(self) -> bool:
        """Whether the map is the plain expectation: ``neutral``, a band with
        g1 = g2 (= 1), or a shortfall with a linear utility (slope 1)."""
        return (self.kind == "neutral" or (self.kind == "density_band" and self.band[0] == self.band[1])
                or (self.kind == "shortfall" and not self.utility.breakpoints))

    @property
    def order_based(self) -> bool:
        """Whether the map is an order-based kind (density band,
        mean-semideviation, shortfall) other than the mean: its kernel costs
        many products of the row store, where the mean and entropic are one."""
        return not (self.is_mean or self.kind == "entropic")

    @property
    def monotone(self) -> bool:
        """Whether R(.|q) is monotone for every row q.  All maps are but
        mean-semideviation with lam < 0 and r > 1: near a point mass, its
        order-r semideviation grows like q_y^(1/r) x in v_y = x, faster
        than the mean's q_y x, so raising v_y can lower R.  With r = 1 the
        derivative in v_y stays at or above q_y (1 - |lam|)."""
        return not (self.kind == "mean_semideviation" and self.lam < 0 and self.r > 1)

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
        data = json_value(data, dict, "risk")
        util = data.get("utility")
        return cls(
            kind=json_value(data["kind"], str, "kind"),
            lam=json_value(data.get("lambda", 0.0), float, "lambda"),
            r=json_value(data.get("r", 2.0), float, "r"),
            band=json_value(data.get("band", [1.0, 1.0]), (float, float), "band"),
            utility=None if util is None else PiecewiseLinearUtility.from_dict(util),
        )


# ---------------------------------------------------------------------------
# Evaluation kernels
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny


def _entropic_table(V: np.ndarray, rows: DenseRows | FactoredRows, lam: float) -> np.ndarray:
    # s + log(Q exp(lam (v - s))) / lam with s = max v (lam > 0) or min v
    # (lam < 0), so every exponent is <= 0: one product for all samples.  A
    # product below the normal range (underflow) goes through the row-wise
    # logsumexp of A = log q + lam (v - t) instead, on those rows only, with
    # t the row's own extreme of v on its support: there lam (v - t) <= 0
    # with a 0 at the extreme, so neither lam v nor a spread past the float
    # range can overflow it, and the sum is at least that entry's q.
    s = (V.max(axis=1) if lam > 0 else V.min(axis=1))[:, None]
    with np.errstate(over="ignore"):  # an exponent past -inf is an exp of 0, as it should be
        out = rows.product(np.exp(lam * (V - s)))
    ok = out >= _TINY
    np.log(out, out=out, where=ok)
    out /= lam
    out += s
    far = -np.inf if lam > 0 else np.inf
    for k in np.flatnonzero(~ok.all(axis=1)):
        low = np.flatnonzero(~ok[k])
        for sl in row_blocks(len(low), rows.shape[1]):
            Q = rows.take(low[sl])
            on = Q > 0
            t = (np.max if lam > 0 else np.min)(np.where(on, V[k], far), axis=1, keepdims=True)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # off the support, masked
                A = np.where(on, np.log(Q) + lam * (V[k] - t), -np.inf)
                top = np.max(A, axis=1, keepdims=True)
                top[~np.isfinite(top)] = 0.0  # a row with no mass: t is -inf (lam > 0) or inf
                out[k, low[sl]] = (t + (top + np.log(np.sum(np.exp(A - top), axis=1, keepdims=True))) / lam)[:, 0]
    return out


def _chunks(N: int, m: int, n: int | None) -> tuple[int, int]:
    """(nb, w): nb chunks of w sorted positions that cover N, for m rows of
    n states.  About sqrt(N) chunks, but no more than sqrt(2 m): a chunk
    costs about n per vector to build and the refine m N / nb, which
    balance near nb = sqrt(c m) (c = 2 timed as fast as 4 on few rows and
    leaves one row one chunk).  On dense rows (``n`` given) also few enough
    that a checkpoint matrix of about 2 nb rows of n stays within two
    blocks, as each row block multiplies it; factored rows (``n`` None)
    take its product once over every row, in about n sum(p_d) per
    checkpoint, and the refine's arrays shrink as nb grows."""
    nb = max(1, min(-(-N // max(8, math.isqrt(N))), math.isqrt(2 * m), BLOCK_ELEMENTS // (n or 1)))
    w = -(-N // nb)
    return -(-N // w), w


def _kink_table(V: np.ndarray, rows: DenseRows | FactoredRows, keep, b: np.ndarray, ds: np.ndarray, s0: float,
                band: tuple[float, float] | None = None) -> np.ndarray:
    # Both maps are expectations of a piecewise-linear function of v - t
    # with kinks at the n K points v_y - b_k, of weights ds_k, sorted from
    # the top and anchored at the lowest (low): a = v_y - b_k - low >= 0.
    # Chunk c holds w sorted positions from checkpoint t_c.  X holds, per
    # state, the weight of its kinks above each checkpoint, their sum of
    # ds_k (a - t_c)_+, and v - x0 - low, so Q @ X is each row's weighted
    # mass M and excess E above every checkpoint, and its mean.
    # The band (K = 1, b = 0, unit weight, x0 = 0) is g1 E[v] + (g2 - g1)
    # min_t (beta t + E[(v - t)_+]) (Rockafellar & Uryasev 2000), the
    # minimum at a*, the first sorted position whose top mass reaches beta:
    #   R = low + g1 E[a] + (g2 - g1) (E[(a - a*)_+] + beta a*),
    # every term nonnegative.  Its chunk is the count of checkpoints with M
    # below beta; running sums of its masses find a*, and E[(a - a*)_+] is
    # E, plus M (t_c - a*), plus the chunk's own excess above a*.
    # The shortfall: u(x) = s0 (x - x0) + sum_k ds_k (x - b_k)_+, s0 the
    # lowest slope, so g(t) = E[u(v - low - t)] = s0 (mean - t) + E at a
    # checkpoint.  Its chunk is the count of checkpoints with g < 0; running
    # sums of the weights q_y ds_k give g at each kink of it, and the root
    # is exact on the line past the last kink with g < 0 (or the start).
    m, n, K = len(rows) if keep is None else len(keep), rows.shape[1], len(b)
    N = n * K
    # factored rows take the product over every row, and so the chunks of
    # every row: a kept row reads the same sums as in a full sweep
    factored = rows.layout == "factored"
    nb, w = _chunks(N, len(rows), None) if factored else _chunks(N, m, n)
    if band is not None:
        g1, g2 = band
        beta = (1.0 - g1) / (g2 - g1)
    top = b[-1] + np.sum(ds * np.minimum(b, 0.0)) / s0  # b_K - x0, as u(0) = 0
    starts = np.arange(0, N, w)[:, None]
    out = np.empty((len(V), m))
    # The checkpoint matrices of a block of vectors take at most a quarter
    # block; the product of a dense row block, and then its chunk gathers,
    # about half of one.  On factored rows the product is taken once per
    # block of vectors, and each row block reads its columns.
    for vb in row_blocks(len(V), 4 * (2 * nb + 1) * n):
        s = len(V[vb])
        with np.errstate(over="ignore", invalid="ignore"):
            a = (V[vb, :, None] - b).reshape(s, N)
            half = ~np.isfinite(np.ptp(a, axis=1))
        if half.any():
            # a spread past the float range is evaluated at v / 2 and b / 2
            # (exact, as u_b(2 x) = 2 u_{b/2}(x)) and doubled
            a[half] = (V[vb][half, :, None] / 2.0 - b / 2.0).reshape(-1, N)
        low = a.min(axis=1)
        a -= low[:, None]
        order = np.argsort(-a, axis=1, kind="stable")
        rank = np.empty_like(order)
        k = np.arange(s)[:, None]
        rank[k, order] = np.arange(N)
        # positions past N repeat the last one, at a = 0: they add no excess,
        # and the shortfall gives them no weight
        order = np.concatenate((order, np.repeat(order[:, -1:], nb * w - N, axis=1)), axis=1)
        vs = a[k, order]
        t = vs[:, ::w]
        X = np.empty((s, 2 * nb + 1, n))
        M, E = X[:, :nb], X[:, nb:-1]
        np.less(rank[:, None, ::K], starts, out=M)  # each state's first kink, unweighted
        np.maximum(np.subtract(a[:, None, ::K], t[..., None], out=E), 0.0, out=E)
        if K > 1 or ds[0] != 1.0:  # not the band's one kink of unit weight
            M *= ds[0]
            E *= ds[0]
            for j in range(1, K):
                M += ds[j] * (rank[:, None, j::K] < starts)
                E += ds[j] * np.maximum(a[:, None, j::K] - t[..., None], 0.0)
        X[:, -1] = a[:, K - 1::K]
        if top:  # the band's is 0
            X[:, -1] += np.where(half, top / 2.0, top)[:, None]
        del a, rank
        # position j of chunk c of vector k is [j, k nb + c] of these
        by_position = lambda x: x.reshape(-1, w).T.copy()
        y, vs = by_position(order if K == 1 else order // K), by_position(vs)  # the state at each position
        if band is None:
            wk = ds[order % K]  # the weight of the kink at each position
            wk[:, N:] = 0.0
            wk = by_position(wk)
        P = rows.product(X.reshape(-1, n)) if factored else None
        # a dense block reads whole rows, so it is at least n wide
        width = s * (2 * nb + 1 + 2 * w)
        for sl in row_blocks(m, width if factored else max(width, n)):
            idx = sl if keep is None else keep[sl]
            Y = P[:, idx].T if factored else rows.take(idx) @ X.reshape(-1, n).T
            Y = Y.reshape(len(Y), s, -1)
            if band is not None:
                i = (Y[:, :, 1:nb] < beta).sum(axis=2)
            else:
                i = (s0 * (Y[:, :, -1:] - t[:, 1:]) + Y[:, :, nb + 1:-1] < 0).sum(axis=2)
            # the refine runs on (position, vector, row) arrays, so that its
            # running sums and counts take whole rows of them
            r = np.arange(len(Y))[:, None]
            c, M, E, mean = (x.T for x in (i + nb * k.T, Y[r, k.T, i], Y[r, k.T, i + nb], Y[:, :, -1].copy()))
            del Y
            W = rows.entries(idx, y.take(c, axis=1))  # the chunk's masses
            A, tc = vs.take(c, axis=1), t.ravel()[c]
            if band is not None:
                j = (np.cumsum(W, axis=0) < beta - M).sum(axis=0)
                star = vs.take(np.minimum(j, w - 1) * vs.shape[1] + c)
                A -= star
                np.maximum(A, 0.0, out=A)
                A *= W
                bracket = E + M * (tc - star) + A.sum(axis=0) + beta * star
                out[vb, sl] = low[:, None] + (g1 * mean + (g2 - g1) * bracket)
            else:
                # with d = t_c - A, g = g_c + (s0 + M + sum W) d - sum W d
                # over the kinks above; the root's line is summed pairwise,
                # so its rounding does not grow with the chunk's length
                W *= wk.take(c, axis=1)  # the weights q_y ds_k
                g, S = s0 * (mean - tc) + E, s0 + M
                np.subtract(tc, A, out=A)
                WD = W * A
                past = (g + (S + np.cumsum(W, axis=0)) * A - np.cumsum(WD, axis=0) < 0).sum(axis=0)
                on = np.arange(w)[:, None, None] < past
                out[vb, sl] = low[:, None] + (tc + (g - WD.sum(axis=0, where=on)) / (S + W.sum(axis=0, where=on)))
            del W, A  # before the next block's product
        out[vb][half] *= 2.0
        del X, P  # before the next block's
    return out


def _semideviation(v: np.ndarray, rows: DenseRows | FactoredRows, spec: RiskMapSpec, keep) -> np.ndarray:
    means = rows.dots(slice(None), v[None])  # once over every row: a kept row reads a full sweep's bits
    out = np.empty(len(rows) if keep is None else len(keep))
    blocks = row_blocks(len(out), len(v))
    block = np.empty((min(len(out), blocks[0].stop) if blocks else 0, len(v)))  # each row block's excess in turn
    ab, vb = np.ones((len(block), 2)), np.stack((v, np.ones_like(v)))
    for sl in blocks:
        idx = sl if keep is None else keep[sl]
        mean = means[idx]
        # v - mean as the product [1, -mean] [v; 1]: both terms are exact, so
        # each entry is fl(v_y - m_i) in any order, as np.subtract rounds it
        ab[: len(mean), 1] = -mean
        excess = np.matmul(ab[: len(mean)], vb, out=block[: len(mean)])
        np.maximum(excess, 0.0, out=excess)
        excess **= spec.r
        out[sl] = mean + spec.lam * rows.dots(idx, excess) ** (1.0 / spec.r)
    return out


def _shortfall_table(V: np.ndarray, rows: DenseRows | FactoredRows, utility: PiecewiseLinearUtility,
                     keep) -> np.ndarray:
    # E[u] / 2^k has the same root; with every slope below 1/2 its values,
    # and the kernel's, stay within the kinks' spread (exact: k is whole)
    slopes = np.ldexp(utility.slopes, -1 - np.frexp(utility.L)[1])
    return _kink_table(V, rows, keep, np.array(utility.breakpoints), np.diff(slopes), slopes[0])


def require_finite(V: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite entry of the
    (S, n) stack ``V``, its vector and its state."""
    if not np.isfinite(V).all():
        k, y = np.argwhere(~np.isfinite(V))[0]
        raise ValueError(f"values must be finite, got {V[k, y]} at vector {k}, state {y}")


def risk_table(spec: RiskMapSpec, V, rows, keep=None) -> np.ndarray:
    """R(v_k | q_i) for an (S, n) stack of value vectors, each against all of
    the shared (m, n) probability rows; returns (S, m).  With an index array
    ``keep`` only the rows ``rows[keep]`` are evaluated: (S, len(keep));
    ``keep`` must be a 1-d integer array of indices below m.

    ``rows`` is an array or a row store (``mdp.DenseRows`` or
    ``mdp.FactoredRows``).  Every value must be finite; a NaN or infinite
    one is a ``ValueError`` naming it, its vector and its state.  The mean
    and entropic are one product of the store over every row (entropic
    with one shift per sample, falling back to a row-wise logsumexp where
    the product underflows); the order-based kinds read the store's rows
    (the kept ones) in blocks of bounded size: mean-semideviation as row
    dots, its means once per vector over every row, the band and the
    shortfall sorting each v once, for a block of value vectors at a
    time.  Those two take each dense row block for a matrix product; on
    factored rows they read ``product``, once over every row, and
    ``entries``, and write no row.
    """
    V = np.asarray(V, dtype=float)
    rows = row_store(rows)
    m, n = rows.shape
    if V.ndim != 2 or V.shape[1] != n:
        raise ValueError(f"values {V.shape} are not a stack of vectors of length {n}")
    require_finite(V)
    if keep is not None:
        keep = np.asarray(keep)
        # a boolean mask is not indices (it would convert to 0 and 1); an empty list reads as floats
        integral = not keep.size or np.issubdtype(keep.dtype, np.integer)
        keep = keep.astype(np.intp, copy=False) if integral else keep
        if not integral or keep.ndim != 1 or (keep.size and not 0 <= keep.min() <= keep.max() < m):
            raise ValueError(f"keep must be a 1-d array of row indices below {m}")
    if not spec.order_based:  # one product over every row costs less than a gather
        out = rows.product(V) if spec.is_mean else _entropic_table(V, rows, spec.lam)
        return out if keep is None else out[:, keep]
    if spec.kind == "shortfall":
        return _shortfall_table(V, rows, spec.utility, keep)
    if spec.kind == "density_band":
        return _kink_table(V, rows, keep, np.zeros(1), np.ones(1), 1.0, spec.band)
    # R is positively homogeneous, so a v whose r-th powers would leave the
    # float range is evaluated at v 2^-e, e the exponent of max |v|, and
    # scaled back: the spread's r-th power, below 2^(r (e + 1)), would
    # overflow, or max |v|'s, above 2^(r (e - 1)), would lose bits below
    # the normal range.  The scaling is exact for integer r and within a
    # rounding otherwise; every other v is evaluated as it is
    e = np.frexp(np.abs(V).max(axis=1))[1]
    e[(spec.r * (e + 1) < 1024) & (spec.r * (e - 1) > -969)] = 0
    e = e[:, None]
    out = np.empty((len(V), len(rows) if keep is None else len(keep)))
    for k, v in enumerate(np.ldexp(V, -e)):
        out[k] = _semideviation(v, rows, spec, keep)
    return np.ldexp(out, e)


def risk_values(spec: RiskMapSpec, v, rows, keep=None) -> np.ndarray:
    """R(v | q_i) for one length-n value vector v shared by the (m, n)
    probability rows: ``risk_table(spec, v[None], rows, keep)[0]``, a
    length-m array (length ``len(keep)`` with ``keep``).  A stack of value
    vectors goes to ``risk_table``."""
    rows = row_store(rows)
    v = np.asarray(v, dtype=float)
    if v.shape != rows.shape[1:]:
        raise ValueError(f"values {v.shape} are not one vector for the rows {rows.shape}; "
                         "evaluate a stack of vectors with risk_table")
    return risk_table(spec, v[None], rows, keep)[0]


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
    """Unique m with sum_y q(y) u(v(y) - m) = 0, solved exactly on its linear piece.
    R(v) - R(w) is at most E(v - w), the dominating envelope: the sup over delta
    in [l, L] of sum(delta q v) / sum(delta q), which is this map for the utility
    ``PiecewiseLinearUtility((0.0,), (1.0, L / l))`` (the mean when l = L)."""
    return eval_risk(RiskMapSpec("shortfall", utility=utility), v, q)


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
    """Sampled axiom checks for a risk evaluator in table form.

    ``fn(V, rows)`` must return the (S, m) table of an (S, n) stack of value
    vectors against shared (m, n) probability rows, as ``risk_table`` does;
    each (vector, row) pair is one check and a failure's witness is the
    worst pair.  Base axioms are always exercised; convexity / positive
    homogeneity / subadditivity are exercised too but only count when their
    check names are in ``claims``, and any other claim name raises
    ``ValueError``.
    """
    if unknown := set(claims).difference(_BASE_AXIOMS, _STRUCTURAL_AXIOMS):
        raise ValueError(f"unknown axiom claims {sorted(unknown)}; the checks are {_BASE_AXIOMS + _STRUCTURAL_AXIOMS}")
    S, n = values.shape
    V = values
    U = V + np.abs(rng.normal(0.0, 1.5, size=(S, n)))
    shifts = rng.normal(0.0, 3.0, size=S)
    scales = rng.uniform(0.0, 2.0, size=S)
    alphas = rng.uniform(0.0, 1.0, size=S)
    W = rng.normal(0.0, 2.0, size=(S, n))

    rv = fn(V, rows)
    rw = fn(W, rows)

    report = AxiomReport()

    def record(name: str, lhs: np.ndarray, rhs: np.ndarray, extra: dict) -> None:
        viol = lhs - rhs
        k, i = np.unravel_index(int(np.argmax(viol)), viol.shape)
        passed = bool(viol[k, i] <= tol)
        witness = None
        if not passed:
            witness = {
                "axiom": name,
                "row": rows[i].tolist(),
                "v": V[k].tolist(),
                "lhs": float(lhs[k, i]),
                "rhs": float(rhs[k, i]),
            }
            for key, vv in extra.items():
                witness[key] = vv[k].tolist() if vv.ndim > 1 else float(vv[k])
        report.checks[name] = AxiomCheck(
            name=name,
            claimed=name in _BASE_AXIOMS or name in claims,
            passed=passed,
            n_checked=viol.size,
            max_violation=float(viol[k, i]),
            witness=witness,
        )

    zero = np.zeros_like(rv)
    a, c, s = alphas[:, None], shifts[:, None], scales[:, None]  # one per value vector
    record("monotonicity", rv, fn(U, rows), {"u": U})
    record("translation_invariance", np.abs(fn(V + c, rows) - (rv + c)), zero, {"c": shifts})
    record("centralization", np.abs(fn(np.zeros_like(V), rows)), zero, {})
    record("convexity", fn(a * V + (1 - a) * W, rows), a * rv + (1 - a) * rw, {"u": W, "alpha": alphas})
    record("positive_homogeneity", np.abs(fn(s * V, rows) - s * rv), zero, {"s": scales})
    record("subadditivity", fn(V + W, rows), rv + rw, {"u": W})
    return report


def check_risk_axioms(
    spec: RiskMapSpec,
    mcp: FiniteMCP,
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> AxiomReport:
    """Sampled axiom checks for ``spec`` on a ``risk_table`` of ceil(N / ceil(sqrt(N)))
    random value vectors against ceil(sqrt(N)) rows drawn from ``mcp``, N = ``n_samples``."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    m, n = mcp.rows.shape
    n_rows = math.isqrt(n_samples - 1) + 1
    rows = mcp.rows.take(rng.integers(0, m, size=n_rows))
    values = rng.normal(0.0, 2.0, size=(-(-n_samples // n_rows), n))
    report = check_axioms_of(lambda V, R: risk_table(spec, V, R), spec.claims, rows, values, rng, tol)
    report.checks["monotonicity"].claimed = spec.monotone
    return report
