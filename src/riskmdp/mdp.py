"""Finite Markov control processes and the weighted seminorm.

A model is a finite state set {0..n-1}, a per-state list of action labels,
a transition row for each (state, action) pair and a scalar running cost
for each pair, stored once, stacked, with per-state views (see
:class:`FiniteMCP`).  The rows sit in one row store: a dense ``(rows, n)``
array (:class:`DenseRows`) or, for rows whose every action's block is a
Kronecker product of per-axis matrices, those factors
(:class:`FactoredRows`).  A store is read through four methods only:
``product``, a stack of vectors against every row; ``dots``, one vector
per row against a set of rows; ``entries``, the masses of a set of rows
at given states; and ``take``, the rows themselves.  No store keeps a
second, dense copy of factored rows, and only ``take`` writes a row.
Value functions are plain 1-d numpy arrays indexed by state.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "BLOCK_ELEMENTS",
    "NUMBERS",
    "WORST_PAIR_RTOL",
    "DenseRows",
    "FactoredRows",
    "FiniteMCP",
    "PolicyVector",
    "ValidationReport",
    "json_value",
    "level_set",
    "outer_rows",
    "policy_reduce",
    "policy_transition_and_cost",
    "row_blocks",
    "row_store",
    "validate_mcp",
    "weighted_seminorm",
]

# Values within this relative distance of the best one (the greedy action's,
# the largest drift residual, the smallest l2 slack) count as tied with it,
# and the first of them is reported, so that rows equal in exact arithmetic
# (mirror images on a symmetric model) are not told apart by last-bit
# rounding.
WORST_PAIR_RTOL = 1e-12

# Elements of one block temporary (1 MB of float64), for every loop that
# slices rows into blocks: the order-based risk kernels, check_l2's
# (samples, rows) tables and the diffusion build's Gaussian rows under
# correlated noise and the factored rows' products.  A kernel
# block is small enough to stay in cache and large enough that numpy's
# per-call overhead is amortized; one check_l2 table for all 2002 samples of
# the 201-state verify model raised the process's peak RSS from 69 to 88 MB.
BLOCK_ELEMENTS = 1 << 17


def row_blocks(count: int, width: int) -> list[slice]:
    """Slices that sweep ``count`` rows of ``width`` elements in blocks of
    ``max(1, BLOCK_ELEMENTS // width)`` rows."""
    per = max(1, BLOCK_ELEMENTS // width)
    return [slice(i, i + per) for i in range(0, count, per)]


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; the caller's own array stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


def _indices(idx, count: int) -> np.ndarray:
    """The row indices that ``idx``, a slice or an index array, selects from ``count`` rows."""
    return np.arange(*idx.indices(count)) if isinstance(idx, slice) else np.arange(count)[idx]


def _stacked(data, counts: np.ndarray, tail: tuple[int, ...], name: str) -> np.ndarray:
    """One read-only ``(sum(counts), *tail)`` array from per-state blocks.

    ``data`` is either already stacked (an ndarray with one row axis) or a
    sequence with one block per state; a block of the wrong shape raises
    ``ValueError`` naming its state.
    """
    want = (int(counts.sum()), *tail)
    if isinstance(data, np.ndarray) and data.ndim == 1 + len(tail):
        out = np.asarray(data, dtype=float)
        if out.shape != want:
            raise ValueError(f"stacked {name} shape {out.shape}, want {want}")
        return _read_only(out)
    if len(data) != len(counts):
        raise ValueError(f"{name} has {len(data)} states, want {len(counts)}")
    blocks = []
    for x, block in enumerate(data):
        try:
            block = np.asarray(block, dtype=float)
        except ValueError as e:
            raise ValueError(f"{name} at x={x} is not a rectangular array: {e}") from None
        if not tail:
            block = block.reshape(-1)
        if block.shape != (counts[x], *tail):
            raise ValueError(f"{name} shape {block.shape} at x={x}, want {(int(counts[x]), *tail)}")
        blocks.append(block)
    return _read_only(np.concatenate(blocks))


def outer_rows(factors: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Row r of ``out`` (each row contiguous) set to the outer product of
    the rows ``f[r]`` of the ``(m, p_d)`` factors, the last axis varying
    fastest: the factors multiplied axis by axis and the last product
    written straight into a view of ``out``."""
    prod = np.ones((len(out), 1))
    for f in factors[:-1]:
        prod = np.einsum("ia,ib->iab", prod, f).reshape(len(out), prod.shape[1] * f.shape[1])
    target = out.view()
    # assigning .shape raises where a reshape would silently copy
    target.shape = (len(out), prod.shape[1], factors[-1].shape[1])
    np.einsum("ia,ib->iab", prod, factors[-1], out=target)
    return out


class DenseRows:
    """Transition rows stored as one read-only ``(rows, n)`` array, ``dense``.

    A row store has a ``shape`` ``(rows, n)``, a ``layout`` name and four
    readers: ``product(W)``, the ``(S, rows)`` table ``W @ Q.T`` of an
    ``(S, n)`` stack of vectors against the rows Q; ``dots(idx, G)``, the
    row dots ``sum_y Q[idx_i, y] G[i, y]`` of the rows ``idx`` with a
    ``(len(idx), n)`` block G, or a ``(1, n)`` row that they all share;
    ``entries(idx, cols)``, the masses ``Q[idx_i, cols[..., i]]`` of the
    rows ``idx`` at the states of an integer array whose last axis runs
    over them; and ``take(idx)``, the dense rows
    ``idx``.  ``idx`` is a slice or an index array, whose indices are the
    caller's to check.  Here a slice is a read-only view and an index array
    is gathered; ``dots`` is one ``einsum`` over
    the rows it takes, a row's bits the same whichever rows share the call,
    and ``entries`` one gather from the array.
    """

    layout = "dense"

    def __init__(self, dense: np.ndarray) -> None:
        self.dense = dense
        self.shape = dense.shape

    def __len__(self) -> int:
        return self.shape[0]

    def product(self, W: np.ndarray) -> np.ndarray:
        return W @ self.dense.T

    def dots(self, idx, G: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.dense[idx], G)

    def entries(self, idx, cols: np.ndarray) -> np.ndarray:
        return self.dense.take(cols + self.shape[1] * _indices(idx, len(self)))

    def take(self, idx) -> np.ndarray:
        return self.dense[idx]


class FactoredRows:
    """Transition rows of k actions per state, each action's rows the
    Kronecker product of per-axis matrices.

    Axis d holds a read-only ``(k, p_d, p_d)`` array ``factors[d]``: row i
    of ``factors[d][a]`` is action a's one-dimensional row from the axis's
    node i.  The n = prod(p_d) states are the node indices (i_1 .. i_D) in
    row-major order (the last axis varying fastest); state x owns rows
    x k .. x k + k - 1, and row x k + a is the outer product of the rows
    ``factors[d][a][i_d]``, so action a's rows form the (n, n) matrix
    ``factors[0][a] ⊗ .. ⊗ factors[D-1][a]``.  Such rows come from a grid
    whose per-axis rows depend on that axis's coordinate only.

    ``product`` contracts a stack of vectors with each action's factors,
    one matrix product per axis, and never forms a whole row: n sum(p_d)
    multiply-adds per vector and action in place of n^2.  ``dots``
    contracts each row's own vector with its per-axis rows, or reads a row
    they share from ``product``, and ``entries`` multiplies one factor
    entry per axis, so neither forms a row.  ``take`` writes the rows asked
    for and keeps none of them.  The interface is that of :class:`DenseRows`.
    """

    layout = "factored"

    def __init__(self, factors) -> None:
        self.factors = [_read_only(np.asarray(f, dtype=float)) for f in factors]
        if not self.factors or any(f.ndim != 3 or f.shape[1] != f.shape[2] or len(f) != len(self.factors[0])
                                   for f in self.factors):
            raise ValueError("need one (k, p_d, p_d) array per axis d, the same k actions on every axis")
        self.widths = tuple(f.shape[1] for f in self.factors)
        n = math.prod(self.widths)
        self.shape = (len(self.factors[0]) * n, n)

    def __len__(self) -> int:
        return self.shape[0]

    def coords(self, idx=slice(None)) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The rows ``idx`` (a slice or indices) as their actions and their
        states' node index per axis."""
        x, a = np.divmod(_indices(idx, len(self)), len(self.factors[0]))
        return a, np.unravel_index(x, self.widths)

    def take(self, idx) -> np.ndarray:
        """The rows ``idx`` written by :func:`outer_rows`."""
        a, nodes = self.coords(idx)
        return outer_rows([f[a, i] for f, i in zip(self.factors, nodes)], np.empty((len(a), self.shape[1])))

    def entries(self, idx, cols: np.ndarray) -> np.ndarray:
        """Entry (.., i) the product of row i's per-axis entries at the
        nodes of state ``cols[.., i]``, multiplied first axis first."""
        a, nodes = self.coords(idx)
        out = None
        for f, i, j in zip(self.factors, nodes, np.unravel_index(cols, self.widths)):
            e = f[a, i, j]
            out = e if out is None else np.multiply(out, e, out=out)
        return out

    def dots(self, idx, G: np.ndarray) -> np.ndarray:
        """Row i's dot with G[i], its factor rows contracted into G[i] last
        axis first, one batched matrix product per axis: about n
        multiply-adds per row, nested sums of p_d terms.  A ``(1, n)`` row
        that the rows share is ``product(G)[0, idx]`` instead, about n
        sum(p_d) multiply-adds per action (for one row, a block of one)."""
        if len(G) != len(_indices(idx, len(self))):
            return self.product(G)[0, idx]
        a, nodes = self.coords(idx)
        width = self.shape[1]
        T = G
        for f, i in zip(self.factors[::-1], nodes[::-1]):
            width //= f.shape[1]
            T = np.matmul(T.reshape(len(a), width, f.shape[1]), f[a, i][:, :, None])
        return T.reshape(len(a))

    def product(self, W: np.ndarray) -> np.ndarray:
        k = len(self.factors[0])
        out = np.empty((len(W), len(self)))
        # each contraction's temporaries hold n entries per vector
        for vb in row_blocks(len(W), self.shape[1]):
            for a in range(k):
                T = W[vb].reshape(-1, *self.widths)
                for f in self.factors:  # (s, p_d .. p_D, p_1 .. p_d-1) -> (s, p_d+1 .. p_D, p_1 .. p_d)
                    T = np.tensordot(T, f[a], axes=(1, 1))
                out[vb, a::k] = T.reshape(len(T), -1)
        return out


def row_store(rows) -> DenseRows | FactoredRows:
    """``rows`` as a row store: a store as it is, an ``(m, n)`` array as a
    :class:`DenseRows`."""
    if isinstance(rows, (DenseRows, FactoredRows)):
        return rows
    return DenseRows(np.atleast_2d(np.asarray(rows, dtype=float)))


class _StateBlocks(Sequence):
    """Per-state read-only views ``data[offsets[x]:offsets[x + 1]]``."""

    def __init__(self, data: np.ndarray, offsets: np.ndarray) -> None:
        self._data, self._offsets = data, offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, x) -> np.ndarray:
        x = range(len(self))[x]
        return self._data[self._offsets[x] : self._offsets[x + 1]]


class FiniteMCP:
    """Finite-state, finite-action controlled Markov chain with running costs.

    The rows are stored once, stacked, one probability row per (state,
    action) pair in state order, state x owning rows
    ``row_offsets[x]:row_offsets[x + 1]`` (``row_state`` maps a row back to
    its state); ``stacked_cost`` holds the matching costs.  The rows sit in
    one row store, ``rows``: dense (:class:`DenseRows`) or, for a grid
    diffusion in dim >= 2 whose rows are Kronecker products of per-axis
    rows, those factors (:class:`FactoredRows`).  Every risk kernel and
    certificate reaches the rows through the store's ``product``, ``dots``,
    ``entries`` and ``take``: the neutral and entropic products,
    mean-semideviation's row dots and the band's and the shortfall's
    checkpoint products and chunk masses never form a whole row, and the
    other readers take bounded blocks of rows or a subset's rows.
    ``stacked_transition``, the read-only dense ``(rows, n)`` array, is an
    export for ``to_dict`` and randomized policies' kernels, written once
    on first access for a factored store;
    ``transition[x]`` (shape ``(n_actions(x), n_states)``) and ``cost[x]``
    are views into the stacked arrays.  Action sets may differ in size
    between states.  ``state_coords`` optionally embeds states in R^d (grid
    discretizations, coordinate costs).

    ``transition`` and ``cost`` are given per state or already stacked (a
    2-d ``(rows, n)`` array or a row store, and a 1-d cost array).  A wrong
    shape or an empty action set raises ``ValueError`` naming the state.
    The stored arrays are read-only so that models can share them: derive a
    new model instead.
    """

    def __init__(self, actions: list[list[str]], transition, cost, state_coords=None) -> None:
        self.actions = actions
        n = len(actions)
        counts = np.fromiter(map(len, actions), dtype=np.intp, count=n)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ValueError(f"empty action set at x={empty[0]}")
        self.row_offsets = _read_only(np.concatenate([[0], np.cumsum(counts)]).astype(np.intp))
        self.row_state = _read_only(np.repeat(np.arange(n), counts))
        if isinstance(transition, (DenseRows, FactoredRows)):
            if transition.shape != (len(self.row_state), n):
                raise ValueError(f"stacked transition shape {transition.shape}, want {(len(self.row_state), n)}")
            self.rows = transition
        else:
            self.rows = DenseRows(_stacked(transition, counts, (n,), "transition"))
        self.stacked_cost = _stacked(cost, counts, (), "cost")
        if state_coords is not None:
            coords = np.asarray(state_coords, dtype=float)
            coords = coords.reshape(len(coords), -1)
            if len(coords) != n:
                raise ValueError(f"coords length {len(coords)} != n_states {n}")
            state_coords = _read_only(coords)
        self.state_coords = state_coords

    @property
    def n_states(self) -> int:
        return len(self.actions)

    def n_actions(self, x: int) -> int:
        return len(self.actions[x])

    @cached_property
    def stacked_transition(self) -> np.ndarray:
        return _read_only(self.rows.take(slice(None)))

    @property
    def transition(self) -> Sequence[np.ndarray]:
        return _StateBlocks(self.stacked_transition, self.row_offsets)

    @property
    def cost(self) -> Sequence[np.ndarray]:
        return _StateBlocks(self.stacked_cost, self.row_offsets)

    @cached_property
    def row_labels(self) -> np.ndarray:
        """Action label of each stacked row (object array)."""
        return np.array(list(itertools.chain.from_iterable(self.actions)), dtype=object)

    def with_cost(self, cost) -> "FiniteMCP":
        """The model with a replaced cost table; rows and coordinates are shared."""
        out = copy.copy(self)
        out.stacked_cost = _stacked(cost, np.diff(self.row_offsets), (), "cost")
        return out

    def restrict_to_policy(self, policy: "PolicyVector") -> "FiniteMCP":
        """Single-action model induced by a deterministic policy."""
        if policy.deterministic is None:
            raise ValueError("restrict_to_policy needs a deterministic policy")
        policy.validate(self)
        rows = self.row_offsets[:-1] + policy.deterministic
        return FiniteMCP(self.row_labels[rows, None].tolist(), self.rows.take(rows),
                         self.stacked_cost[rows], self.state_coords)

    # JSON interchange.  Field names are part of the on-disk contract.

    def to_dict(self) -> dict:
        return {
            "n_states": self.n_states,
            "actions": [list(a) for a in self.actions],
            "transition": [rows.tolist() for rows in self.transition],
            "cost": [c.tolist() for c in self.cost],
            "coords": None if self.state_coords is None else self.state_coords.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMCP":
        """Inverse of ``to_dict``; every field is read by ``json_value``."""
        data = json_value(data, dict, "model")
        n = json_value(data["n_states"], int, "n_states")
        actions = json_value(data["actions"], [[str]], "actions")
        if len(actions) != n:
            raise ValueError(f"n_states={n} but {len(actions)} action lists")
        coords = data.get("coords")
        return cls(actions, json_value(data["transition"], [NUMBERS], "transition"),
                   json_value(data["cost"], [NUMBERS], "cost"),
                   None if coords is None else json_value(coords, NUMBERS, "coords"))

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load_json(cls, path) -> "FiniteMCP":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# One set of rules reads every value of a config or model file.  A kind is
# float (any JSON number), int (a number with no fractional part, so 3.0
# reads as 3), bool, str, dict, NUMBERS (a number or nested lists of them),
# [kind] (a list of any length) or a tuple of kinds (a list of that many).
NUMBERS = "numbers"
_KIND_NAMES = {float: ("a real number", "real numbers"), int: ("a whole number", "whole numbers"),
               bool: ("true or false", "bools"), str: ("a string", "strings"),
               dict: ("a JSON object", "JSON objects"), NUMBERS: ("a real number", "real numbers or lists of them")}


def _kind_name(kind, plural: bool = False) -> str:
    """How a message names ``kind``; a tuple is named by its first kind."""
    if isinstance(kind, (list, tuple)):
        count = f"{len(kind)} " if isinstance(kind, tuple) else ""
        return "lists" if plural else f"a list of {count}{_kind_name(kind[0], True)}"
    return _KIND_NAMES[kind][plural]


def json_value(val, kind, name: str):
    """The JSON value ``val`` of key ``name`` read as ``kind``: a float, an
    int, the value itself or a list (a tuple for a tuple of kinds) of its
    entries read in turn.  A value of another type, such as true or "2" for
    a number or an integer beyond float range, is a ``ValueError`` naming
    the key, an entry as name[i]."""
    if kind is NUMBERS and isinstance(val, list) and all(type(x) in (int, float) for x in val):
        return val  # a row of numbers, checked in one pass: model files hold millions
    if kind is NUMBERS:
        kind = [NUMBERS] if isinstance(val, list) else float
    if isinstance(kind, list) and isinstance(val, list):
        return [json_value(x, kind[0], f"{name}[{i}]") for i, x in enumerate(val)]
    if isinstance(kind, tuple) and isinstance(val, list) and len(val) == len(kind):
        return tuple(json_value(x, k, f"{name}[{i}]") for i, (x, k) in enumerate(zip(val, kind)))
    number = isinstance(val, float) or (isinstance(val, int) and not isinstance(val, bool) and abs(val) < 2**1023)
    if (kind is float and number) or (kind is int and number and (isinstance(val, int) or val.is_integer())):
        return kind(val)
    if kind in (bool, str, dict) and isinstance(val, kind):
        return val
    raise ValueError(f"{name!r} must be {_kind_name(kind)}, got {val!r}")


@dataclass
class PolicyVector:
    """Single-step policy: one action index per state, or mixture weights.

    ``randomized`` holds the weights stacked like a model's rows, state x
    owning ``randomized[offsets[x]:offsets[x + 1]]``.
    """

    deterministic: np.ndarray | None = None
    randomized: np.ndarray | None = None
    offsets: np.ndarray | None = None

    @classmethod
    def det(cls, indices) -> "PolicyVector":
        return cls(deterministic=np.asarray(indices, dtype=np.intp))

    @classmethod
    def rand(cls, rows) -> "PolicyVector":
        """From one mixture row per state."""
        rows = [np.asarray(r, dtype=float) for r in rows]
        return cls(randomized=np.concatenate([np.zeros(0), *rows]), offsets=np.cumsum([0, *map(len, rows)]))

    @property
    def is_deterministic(self) -> bool:
        return self.deterministic is not None

    def validate(self, mcp: FiniteMCP, tol: float = 1e-12) -> None:
        if (self.deterministic is None) == (self.randomized is None):
            raise ValueError("policy must be exactly one of deterministic/randomized")
        counts = np.diff(mcp.row_offsets)
        if self.deterministic is not None:
            f = np.asarray(self.deterministic)
            if len(f) != mcp.n_states:
                raise ValueError("policy length != n_states")
            bad = np.flatnonzero((f < 0) | (f >= counts))
            if bad.size:
                raise ValueError(f"action index {f[bad[0]]} out of range at state {bad[0]}")
        else:
            if len(self.offsets) != mcp.n_states + 1:
                raise ValueError("policy length != n_states")
            bad = np.flatnonzero(np.diff(self.offsets) != counts)
            if bad.size:
                raise ValueError(f"mixture length mismatch at state {bad[0]}")
            probs, starts = self.randomized, mcp.row_offsets[:-1]
            ok = (np.minimum.reduceat(probs, starts) >= 0) & (np.abs(np.add.reduceat(probs, starts) - 1.0) <= tol)
            if not ok.all():
                raise ValueError(f"mixture at state {np.argmin(ok)} is not a probability vector")


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_mcp(mcp: FiniteMCP, row_sum_tol: float = 1e-12) -> ValidationReport:
    """Stochastic rows and finite costs, checked over the stacked rows at once.

    Factored rows are checked on their per-axis rows: entries >= 0, and
    the product of each row's per-axis sums (its sum) within
    ``row_sum_tol`` of 1, which a NaN or infinite entry fails too; no whole
    row is formed.
    Shapes are already enforced when a model is built.  Violations are
    listed by state, then action.
    """
    store = mcp.rows
    x_of = mcp.row_state
    a_of = np.arange(store.shape[0]) - mcp.row_offsets[x_of]
    found: list[tuple[int, int, int, str]] = []
    for x in np.flatnonzero(np.logical_or.reduceat(~np.isfinite(mcp.stacked_cost), mcp.row_offsets[:-1])):
        found.append((int(x), -1, 0, f"non-finite cost at x={x}"))
    if isinstance(store, FactoredRows):
        action, nodes = store.coords()
        for d, (f, node) in enumerate(zip(store.factors, nodes)):
            for r in np.flatnonzero((f.min(axis=2) < 0)[action, node]):
                x, a, row = int(x_of[r]), int(a_of[r]), f[action[r], node[r]]
                y = int(np.argmax(row < 0))
                found.append((x, a, 0, f"negative factor entry {row[y]:.12g} at (x={x}, a={a}, axis={d}, y={y})"))
        sums = math.prod(f.sum(axis=2)[action, node] for f, node in zip(store.factors, nodes))
    else:
        rows = store.take(slice(None))
        for r in np.flatnonzero(rows.min(axis=1) < 0):
            x, a, y = int(x_of[r]), int(a_of[r]), int(np.argmax(rows[r] < 0))
            found.append((x, a, 0, f"negative entry {rows[r, y]:.12g} at (x={x}, a={a}, y={y})"))
        sums = rows.sum(axis=1)
    for r in np.flatnonzero(~(np.abs(sums - 1.0) <= row_sum_tol)):
        x, a = int(x_of[r]), int(a_of[r])
        found.append((x, a, 1, f"row sum {sums[r]:.12g} at (x={x}, a={a})"))
    bad = [msg for *_, msg in sorted(found)]
    return ValidationReport(ok=not bad, violations=bad)


def weighted_seminorm(v, w) -> float:
    """max_{x != y} |v(x) - v(y)| / (w(x) + w(y)), exactly, in O(n) per step.

    Dinkelbach's ratio iteration: at the guess t the pair maximizing
    v(x) - v(y) - t (w(x) + w(y)) splits into argmax(v - t w) and
    argmax(-v - t w), and its ratio is the next guess.  The guesses rise
    strictly through finitely many pair ratios, so the loop ends at the
    maximum.  A NaN in v gives NaN (``np.argmax`` picks it first).
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    if not np.all((w > 0) & (w < np.inf)):
        raise ValueError("weights must be finite and strictly positive")
    if v.size < 2:
        return 0.0
    t = 0.0
    while True:
        x = np.argmax(v - t * w)
        y = np.argmax(-v - t * w)
        t_next = float((v[x] - v[y]) / (w[x] + w[y]))
        if not t_next > t:
            return t_next if np.isnan(t_next) else t
        t = t_next


def level_set(w0, radius: float) -> np.ndarray:
    """Indices of states with w0[x] <= radius."""
    w0 = np.asarray(w0, dtype=float)
    return np.flatnonzero(w0 <= radius)


def policy_reduce(mcp: FiniteMCP, policy: PolicyVector, vals: np.ndarray) -> np.ndarray:
    """Per-state entries of per-(x, a) ``vals`` (stacked along axis 0) under a
    policy: the chosen action's entry, or the mixture-weighted sum."""
    starts = mcp.row_offsets[:-1]
    if policy.is_deterministic:
        return vals[starts + policy.deterministic]
    weights = policy.randomized.reshape((-1,) + (1,) * (vals.ndim - 1))
    return np.add.reduceat(weights * vals, starts)


def policy_transition_and_cost(mcp: FiniteMCP, policy: PolicyVector) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and cost of the chain induced by a single-step policy.  A
    deterministic policy takes its own rows from the row store, so a
    factored model forms those rows only."""
    policy.validate(mcp)
    if policy.is_deterministic:
        rows = mcp.row_offsets[:-1] + policy.deterministic
        return mcp.rows.take(rows), mcp.stacked_cost[rows]
    return policy_reduce(mcp, policy, mcp.stacked_transition), policy_reduce(mcp, policy, mcp.stacked_cost)
