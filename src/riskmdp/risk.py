"""One-step risk maps on finite probability rows, and their upper envelopes.

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
index array ``keep`` and then evaluate the rows ``rows[keep]`` only: the
order-based kinds gather them one row block at a time inside their block
loop, since a copy of all kept rows up front cost as much as the skipped
rows saved.  Values must be finite:
``risk_table`` rejects a NaN or infinite entry before any kernel runs.  No
kind makes a full (rows, n) temporary per value vector: ``neutral`` is one
matrix product and ``entropic`` a shifted one, s + log(Q exp(lam (v - s))) / lam,
which falls back to a row-wise logsumexp where the product underflows.
The order-based kinds sort each v once and sweep the rows in blocks of
``mdp.BLOCK_ELEMENTS``.  Mean-semideviation takes its mean and its excess
moment as row dots, with one block temporary per value vector.  The band
and the shortfall evaluate a block of value vectors at once: each sorted v
is cut into nb chunks, about sqrt(N) for N sorted positions but no more
than sqrt(2 m) for m rows, and the checkpoint matrix of each v, about
2 nb rows of n, takes one matrix product per row block.  For the band (n
sorted outcomes) it gives each row's top mass and excess above each chunk
start and its mean; the count of chunk starts whose top mass is below beta
picks the chunk that holds v*, and running sums of that chunk's masses
find v* in it (a spread past the float range is evaluated at v / 2 and
doubled).  For the shortfall (the N = n K kinks) it gives E[u(v - m)] and
its slope where each chunk starts, the sign count picks the root's chunk,
and running sums there give the exact root.  The axiom checks evaluate
tables too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mdp import BLOCK_ELEMENTS, FiniteMCP, row_blocks

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
    "require_finite",
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

_TINY = np.finfo(float).tiny


def _entropic_table(V: np.ndarray, rows: np.ndarray, lam: float) -> np.ndarray:
    # s + log(Q exp(lam (v - s))) / lam with s = max v (lam > 0) or min v
    # (lam < 0), so every exponent is <= 0: one gemm for all samples.  A
    # product below the normal range (underflow) goes through the row-wise
    # logsumexp of A = log q + lam (v - t) instead, with t the row's own
    # extreme of v on its support: there lam (v - t) <= 0 with a 0 at the
    # extreme, so neither lam v nor a spread past the float range can
    # overflow it, and the sum is at least that entry's q.
    s = (V.max(axis=1) if lam > 0 else V.min(axis=1))[:, None]
    with np.errstate(over="ignore"):  # an exponent past -inf is an exp of 0, as it should be
        out = np.exp(lam * (V - s)) @ rows.T
    ok = out >= _TINY
    np.log(out, out=out, where=ok)
    out /= lam
    out += s
    far = -np.inf if lam > 0 else np.inf
    for k in np.flatnonzero(~ok.all(axis=1)):
        Q = rows[~ok[k]]
        on = Q > 0
        t = (np.max if lam > 0 else np.min)(np.where(on, V[k], far), axis=1, keepdims=True)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # off the support, masked
            A = np.where(on, np.log(Q) + lam * (V[k] - t), -np.inf)
            top = np.max(A, axis=1, keepdims=True)
            top[~np.isfinite(top)] = 0.0  # a row with no mass: t is -inf (lam > 0) or inf
            out[k, ~ok[k]] = (t + (top + np.log(np.sum(np.exp(A - top), axis=1, keepdims=True))) / lam)[:, 0]
    return out


def _blocks(rows: np.ndarray, keep: np.ndarray | None, width: int):
    """(output slice, row block) pairs: the rows in blocks of
    ``row_blocks(.., width)``, or the rows ``rows[keep]`` gathered one
    block of at most ``BLOCK_ELEMENTS`` entries at a time into one array
    allocated per call.  A block is valid until the next is drawn."""
    if keep is None:
        yield from ((sl, rows[sl]) for sl in row_blocks(len(rows), width))
        return
    blocks = row_blocks(len(keep), max(width, rows.shape[1]))
    block = np.empty((blocks[0].stop if blocks else 0, rows.shape[1]))
    for sl in blocks:
        idx = keep[sl]
        # keep is checked by risk_table; mode="raise" would buffer the output
        yield sl, np.take(rows, idx, axis=0, out=block[: len(idx)], mode="clip")


def _chunks(N: int, m: int, n: int) -> tuple[int, int]:
    """(nb, w): nb chunks of w sorted positions that cover N, for m rows of
    n states.  About sqrt(N) chunks, but no more than sqrt(2 m): a chunk
    costs about n per vector to build and the refine m N / nb, which
    balance near nb = sqrt(c m) (c = 2 timed as fast as 4 on few rows and
    leaves one row one chunk); and few enough that a checkpoint matrix of
    about 2 nb rows of n stays within two blocks."""
    nb = max(1, min(-(-N // max(8, math.isqrt(N))), math.isqrt(2 * m), BLOCK_ELEMENTS // n))
    w = -(-N // nb)
    return -(-N // w), w


def _crossing(Q: np.ndarray, X: np.ndarray, nb: int, before: Callable) -> tuple[np.ndarray, ...]:
    """One product of the row block Q with the (s, c, n) checkpoint
    matrices X of s value vectors.  Rows 0 .. nb - 1 of each hold a first
    quantity at the nb checkpoints (chunk starts), rows nb .. 2 nb - 1 a
    second, and any further rows are carried along.  A row's chunk i is the
    count of checkpoints 1 .. nb - 1 where ``before`` holds of the first
    quantity.  Returns, each (len(Q), s): the chunk as row k nb + i of the
    vectors' stacked chunks, and both quantities at checkpoint i; and the
    further rows' products, (len(Q), s, c - 2 nb)."""
    Y = (Q @ X.reshape(-1, X.shape[2]).T).reshape(len(Q), len(X), -1)
    i = before(Y[:, :, 1:nb]).sum(axis=2)
    r, k = np.arange(len(Q))[:, None], np.arange(len(X))
    return i + nb * k, Y[r, k, i], Y[r, k, i + nb], Y[:, :, 2 * nb:].copy()


def _band_table(V: np.ndarray, rows: np.ndarray, band: tuple[float, float], keep) -> np.ndarray:
    # With xi = g1 + (g2 - g1) eta, the band is g1 E[v] + (g2 - g1) times
    # the sup of E[eta v] over 0 <= eta <= 1 with E[eta] = beta: the minimum
    # over t of beta t + E[(v - t)_+] (Rockafellar & Uryasev 2000), taken at
    # v*, the value at the first sorted position whose top mass reaches
    # beta.  Anchored at v_min, with a = v - v_min >= 0,
    #   R = v_min + g1 E[a] + (g2 - g1) (E[(a - a*)_+] + beta a*),
    # every term nonnegative.  At checkpoint i (sorted position i w, value
    # t_i) X holds the indicator of the positions above it and (a - t_i)_+;
    # in chunk c, E[(a - a*)_+] is the excess above t_c, plus C (t_c - a*)
    # for the top mass C above t_c, plus the chunk's own excess above a*.
    g1, g2 = band
    if g1 == g2:  # g1 = g2 = 1: the mean
        return V @ (rows if keep is None else rows[keep]).T
    beta = (1.0 - g1) / (g2 - g1)
    m, n = len(rows) if keep is None else len(keep), rows.shape[1]
    nb, w = _chunks(n, m, n)
    tri = np.tri(w)  # its product with a chunk's masses is their running sums
    out = np.empty((len(V), m))
    # The checkpoint matrices of a block of vectors take at most a quarter
    # block; the product of a row block, and then its chunk gathers, about
    # half of one.
    for vb in row_blocks(len(V), 4 * (2 * nb + 1) * n):
        a = V[vb].copy()
        s = len(a)
        # A spread past the float range is evaluated at v / 2 (exact; the
        # band is positively homogeneous) and doubled.
        with np.errstate(over="ignore"):
            half = ~np.isfinite(np.ptp(a, axis=1))
        a[half] /= 2.0
        low = a.min(axis=1)
        a -= low[:, None]
        order = np.argsort(-a, axis=1, kind="stable")
        rank = np.empty_like(order)
        k = np.arange(s)[:, None]
        rank[k, order] = np.arange(n)
        # positions past n repeat the last one, at a = 0: they add no excess
        order = np.concatenate((order, np.repeat(order[:, -1:], nb * w - n, axis=1)), axis=1)
        vs = a[k, order]
        t = vs[:, ::w]
        X = np.empty((s, 2 * nb + 1, n))
        np.less(rank[:, None, :], np.arange(0, n, w)[:, None], out=X[:, :nb])
        np.subtract(a[:, None, :], t[..., None], out=X[:, nb:-1])
        np.maximum(X[:, nb:-1], 0.0, out=X[:, nb:-1])
        X[:, -1] = a
        # position j of chunk c of vector k is [j, k nb + c] of these
        order, vs, t = order.reshape(-1, w).T.copy(), vs.reshape(-1, w).T.copy(), t.ravel()
        for sl, Q in _blocks(rows, keep, s * (2 * nb + 1 + 2 * w)):
            # the refine runs on (position, vector, row) arrays, so that its
            # running sums and counts take whole rows of them
            c, C, above, mean = (x.T for x in _crossing(Q, X, nb, lambda top: top < beta))
            at = order.take(c, axis=1)
            at += n * np.arange(len(Q))
            W = Q.take(at)  # the chunk's masses
            del at
            j = ((tri @ W.reshape(w, -1)).reshape(W.shape) < beta - C).sum(axis=0)
            star = vs.take(np.minimum(j, w - 1) * vs.shape[1] + c)
            Z = vs.take(c, axis=1)
            Z -= star
            np.maximum(Z, 0.0, out=Z)
            Z *= W
            bracket = above + C * (t[c] - star) + Z.sum(axis=0) + beta * star
            out[vb, sl] = low[:, None] + (g1 * mean[0] + (g2 - g1) * bracket)
            del W, Z  # before the next block's product
        out[vb][half] *= 2.0
        del X  # before the next block's
    return out


def _semideviation(v: np.ndarray, rows: np.ndarray, spec: RiskMapSpec, keep) -> np.ndarray:
    out = np.empty(len(rows) if keep is None else len(keep))
    blocks = row_blocks(len(out), len(v))
    block = np.empty((min(len(out), blocks[0].stop) if blocks else 0, len(v)))  # each row block's excess in turn
    for sl, Q in _blocks(rows, keep, rows.shape[1]):
        mean = np.einsum("ij,j->i", Q, v)
        excess = np.subtract(v, mean[:, None], out=block[: len(Q)])
        np.maximum(excess, 0.0, out=excess)
        excess **= spec.r
        out[sl] = mean + spec.lam * np.einsum("ij,ij->i", Q, excess) ** (1.0 / spec.r)
    return out


def _shortfall_table(V: np.ndarray, rows: np.ndarray, utility: PiecewiseLinearUtility, keep) -> np.ndarray:
    # g(m) = E[u(v - m)] is piecewise linear and decreasing, with kinks at
    # v_y - b_k; passing kink t lowers its slope S by q_y (s_{k+1} - s_k).
    # Chunk i of the sorted kinks is refined from checkpoint i: the first
    # kink with none passed, else the last kink of chunk i - 1.  X holds
    # u(v - t_i) and the slope left after the kinks at sorted positions up
    # to t_i's, so Q @ X is g and S at each checkpoint.
    b, ds = utility.breakpoints, np.diff(utility.slopes)
    if not b:
        return V @ (rows if keep is None else rows[keep]).T
    m, n, K = len(rows) if keep is None else len(keep), rows.shape[1], len(b)
    N = n * K
    nb, w = _chunks(N, m, n)
    out = np.empty((len(V), m))
    # Blocks of value vectors share every call, so many vectors against few
    # rows (the certificates' samples) pay numpy's overhead once a block;
    # the setup's few (nb, n) temporaries per vector stay within a block.
    for vb in row_blocks(len(V), 4 * n * nb):
        s = len(V[vb])
        kinks = (V[vb, :, None] - b).reshape(s, N)
        order = np.argsort(kinks, axis=1, kind="stable")
        order = np.concatenate((order, np.repeat(order[:, -1:], nb * w - N, axis=1)), axis=1)
        y, j = np.divmod(order, K)  # outcome and slope step of each sorted kink
        wk = ds[j]
        wk[:, N:] = 0.0  # the last chunk is padded with its last kink, with no weight
        kinks = kinks[np.arange(s)[:, None], order]
        t = np.concatenate((kinks[:, :1], kinks[:, w - 1:-1:w]), axis=1)
        # the slope steps of chunk i are passed at checkpoints i + 1 and on
        p = (nb - 1) * w
        at = ((np.arange(0, s * nb, nb)[:, None] + np.repeat(np.arange(1, nb), w)) * n + y[:, :p]).ravel()
        passed = np.bincount(at, wk[:, :p].ravel(), s * nb * n).reshape(s, nb, n)
        X = np.concatenate((utility(V[vb, None, :] - t[:, :, None]), utility.slopes[-1] - passed.cumsum(axis=1)), axis=1)
        # chunk c of vector k and the checkpoint before it are row k nb + c of these
        kinks, y, wk, t = kinks.reshape(-1, w), y.reshape(-1, w), wk.reshape(-1, w), t.ravel()
        for sl, Q in _blocks(rows, keep, s * w):
            # the root's chunk: g > 0 on a prefix of the checkpoints
            c, A, S, _ = _crossing(Q, X, nb, lambda g: g > 0)
            r = np.arange(len(Q))[:, None]
            T = kinks[c] - t[c][..., None]
            W = Q[r[..., None], y[c]] * wk[c]
            WT = W * T
            # Running sums give g at each kink and so the root's piece; the
            # line there is summed pairwise, so its rounding does not grow
            # with the distance from the checkpoint (a row's spread for one chunk).
            piece = (A[..., None] - WT.cumsum(axis=2) - (S[..., None] - W.cumsum(axis=2)) * T > 0).sum(axis=2)
            before = np.arange(w) < piece[..., None]
            out[vb, sl] = (t[c] + (A - WT.sum(axis=2, where=before)) / (S - W.sum(axis=2, where=before))).T
    return out


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

    Every value must be finite; a NaN or infinite one is a ``ValueError``
    naming it, its vector and its state.  Neutral and entropic are one
    matrix product (entropic with one shift per sample, falling back to a
    row-wise logsumexp where the product underflows); the order-based kinds
    sort each v once and sweep the rows in blocks of bounded size, the
    band and the shortfall for a block of value vectors at a time.
    """
    V = np.asarray(V, dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if V.ndim != 2 or V.shape[1] != rows.shape[1]:
        raise ValueError(f"values {V.shape} are not a stack of vectors of length {rows.shape[1]}")
    require_finite(V)
    if keep is not None:
        keep = np.asarray(keep)
        # a boolean mask is not indices (it would convert to 0 and 1); an empty list reads as floats
        integral = not keep.size or np.issubdtype(keep.dtype, np.integer)
        keep = keep.astype(np.intp, copy=False) if integral else keep
        if not integral or keep.ndim != 1 or (keep.size and not 0 <= keep.min() <= keep.max() < len(rows)):
            raise ValueError(f"keep must be a 1-d array of row indices below {len(rows)}")
    if spec.kind in ("neutral", "entropic"):
        if keep is not None:
            rows = rows[keep]
        return V @ rows.T if spec.kind == "neutral" else _entropic_table(V, rows, spec.lam)
    if spec.kind == "shortfall":
        return _shortfall_table(V, rows, spec.utility, keep)
    if spec.kind == "density_band":
        return _band_table(V, rows, spec.band, keep)
    out = np.empty((len(V), len(rows) if keep is None else len(keep)))
    for k, v in enumerate(V):
        out[k] = _semideviation(v, rows, spec, keep)
    return out


def risk_values(spec: RiskMapSpec, v, rows, keep=None) -> np.ndarray:
    """R(v | q_i) for one length-n value vector v shared by the (m, n)
    probability rows: ``risk_table(spec, v[None], rows, keep)[0]``, a
    length-m array (length ``len(keep)`` with ``keep``).  A stack of value
    vectors goes to ``risk_table``."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
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
    all_rows = mcp.stacked_transition
    n_rows = math.isqrt(n_samples - 1) + 1
    rows = all_rows[rng.integers(0, all_rows.shape[0], size=n_rows)]
    values = rng.normal(0.0, 2.0, size=(-(-n_samples // n_rows), all_rows.shape[1]))
    report = check_axioms_of(lambda V, R: risk_table(spec, V, R), spec.claims, rows, values, rng, tol)
    report.checks["monotonicity"].claimed = spec.monotone
    return report
