"""Model builders: grid discretizations of controlled diffusions, costs,
and a few small built-in chains used throughout the tests.

The discretization puts a regular grid on [-extent, extent]^d, evaluates the
one-step Gaussian transition density at the nodes, scales by the cell volume
and renormalizes each row; probability mass that would leave the grid is
therefore folded back proportionally.  When D D^T is diagonal the density
and its row sums factor over the axes, so each normalized row is the outer
product of normalized one-dimensional rows.  In dim >= 2, when every
action's noise is diagonal and each axis's mean coordinate depends on that
axis's coordinate alone, the one-dimensional rows from each axis's nodes
make each action's rows a Kronecker product: the model keeps those
per-axis factors as its row store (``mdp.FactoredRows``) and never writes
the dense matrix.  Otherwise (1-D, correlated noise, coupled axes or a
drift clipped at some nodes only) the rows are written into one dense
matrix, correlated noise evaluating the full density one ``mdp.row_blocks``
block of source states at a time.  No truncation-error bound is claimed;
refining the grid is the intended way to study it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mdp import FactoredRows, FiniteMCP, outer_rows, row_blocks

__all__ = [
    "DiffusionSpec",
    "GridSpec",
    "PowerCost",
    "QuadraticCost",
    "TabulatedCost",
    "attach_cost",
    "builtin_chain",
    "diffusion_entropic_weight",
    "discretize_diffusion",
    "gaussian_kernel_row",
    "grid_nodes",
]


@dataclass(frozen=True)
class GridSpec:
    """Regular tensor grid on [-extent, extent] per axis (odd point counts
    keep the origin on the grid)."""

    points: int | tuple[int, ...] = 201
    extent: float | tuple[float, ...] = 5.0

    def axes(self, dim: int) -> list[np.ndarray]:
        pts = (self.points,) * dim if isinstance(self.points, int) else tuple(self.points)
        ext = (self.extent,) * dim if isinstance(self.extent, (int, float)) else tuple(self.extent)
        if len(pts) != dim or len(ext) != dim:
            raise ValueError("grid spec does not match the model dimension")
        if any(p < 3 for p in pts):
            raise ValueError("need at least 3 points per axis")
        for e in ext:
            # written as "not good" so that a NaN fails too
            if not (np.isfinite(e) and e > 0):
                raise ValueError(f"extent must be finite and > 0, got {e}")
        return [np.linspace(-e, e, p) for p, e in zip(pts, ext)]


def grid_nodes(grid: GridSpec, dim: int) -> tuple[np.ndarray, float]:
    """Node coordinates (n, dim) in row-major order, and the cell volume."""
    axes = grid.axes(dim)
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    vol = float(np.prod([ax[1] - ax[0] for ax in axes]))
    return coords, vol


@dataclass
class DiffusionSpec:
    """One-step linear diffusion x' = A x + b(x, a) + D(a) W, W ~ N(0, I).

    ``drift`` gives a constant drift vector per action label; an optional
    ``drift_linear`` matrix per action makes it affine, clipped to norm
    sqrt(drift_bound) so the bound stays honest.  ``gamma_tilde`` bounds
    |A x|^2 <= gamma_tilde |x|^2, ``ellipticity`` bounds the eigenvalues of
    D D^T into [1/ellipticity, ellipticity].
    """

    dim: int
    A: np.ndarray
    actions: list[str]
    drift: dict[str, np.ndarray]
    diffusion: dict[str, np.ndarray]
    gamma_tilde: float
    drift_bound: float
    ellipticity: float
    drift_linear: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float).reshape(self.dim, self.dim)
        self.drift = {k: np.asarray(v, dtype=float).reshape(self.dim) for k, v in self.drift.items()}
        self.diffusion = {
            k: np.asarray(v, dtype=float).reshape(self.dim, self.dim) for k, v in self.diffusion.items()
        }
        self.drift_linear = {
            k: np.asarray(v, dtype=float).reshape(self.dim, self.dim) for k, v in self.drift_linear.items()
        }

    def validate(self) -> None:
        named = [("A", self.A)] + [(f"{name}[{a!r}]", arr) for name in ("drift", "diffusion", "drift_linear")
                                   for a, arr in getattr(self, name).items()]
        for where, arr in named:
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{where} has a non-finite entry")
        if not 0 < self.gamma_tilde < 1:
            raise ValueError("gamma_tilde must be in (0, 1)")
        # written as "not good" so that a NaN fails too
        if not (np.isfinite(self.drift_bound) and self.drift_bound > 0):
            raise ValueError(f"drift_bound must be finite and > 0, got {self.drift_bound}")
        if not (np.isfinite(self.ellipticity) and self.ellipticity >= 1):
            raise ValueError(f"ellipticity must be finite and >= 1, got {self.ellipticity}")
        sig = float(np.linalg.eigvalsh(self.A.T @ self.A).max())
        if sig > self.gamma_tilde + 1e-12:
            raise ValueError(f"|Ax|^2 reaches {sig:.6g} |x|^2 > gamma_tilde = {self.gamma_tilde}")
        for a in self.actions:
            if a not in self.drift or a not in self.diffusion:
                raise ValueError(f"missing drift or diffusion for action {a!r}")
            DDt = self.diffusion[a] @ self.diffusion[a].T
            eig = np.linalg.eigvalsh(DDt)
            if eig.min() < 1.0 / self.ellipticity - 1e-12 or eig.max() > self.ellipticity + 1e-12:
                raise ValueError(f"diffusion for action {a!r} violates the ellipticity bounds")

    def drift_at(self, x: np.ndarray, a: str) -> np.ndarray:
        """b(x, a), clipped into the ball of squared norm drift_bound."""
        b = np.broadcast_to(self.drift[a], x.shape).copy()
        if a in self.drift_linear:
            b = b + x @ self.drift_linear[a].T
        norms = np.linalg.norm(b, axis=-1, keepdims=True)
        cap = np.sqrt(self.drift_bound)
        scale = np.where(norms > cap, cap / np.maximum(norms, 1e-300), 1.0)
        return b * scale


def gaussian_kernel_row(mean: np.ndarray, cov_inv: np.ndarray, nodes: np.ndarray, cell_volume: float) -> np.ndarray:
    """Unnormalized transition weights: Gaussian density times cell volume.

    A mean of shape (d,) gives one row of shape (n,); a stack of means of
    shape (s, d) gives one row per mean, shape (s, n).  The exponent is the
    expanded quadratic form -(y - m)'C(y - m)/2 = (m'C) y - y'Cy/2 - m'Cm/2,
    with m'C and (m'C) y summed elementwise over the d <= 3 axes: a matrix
    product would round a row by how many means share the call.  Only the
    symmetric part of C enters a quadratic form, so C is symmetrized first.
    """
    d = nodes.shape[1]
    C = 0.5 * (cov_inv + cov_inv.T)
    means = np.atleast_2d(mean)
    mC = sum(means[:, i, None] * C[i] for i in range(d))
    rows = sum(mC[:, i, None] * nodes[:, i] for i in range(d))
    rows -= 0.5 * np.sum((nodes @ C) * nodes, axis=1)
    rows -= 0.5 * np.sum(mC * means, axis=1)[:, None]
    np.exp(rows, out=rows)
    rows *= (2.0 * np.pi) ** (-d / 2.0) * np.sqrt(np.linalg.det(cov_inv)) * cell_volume
    return rows if np.ndim(mean) == 2 else rows[0]


def discretize_diffusion(spec: DiffusionSpec, grid: GridSpec) -> FiniteMCP:
    """Finite chain on the grid nodes with renormalized Gaussian rows.

    Costs are zero; attach them with :func:`attach_cost`.  Supported up to
    dim = 3 (the node count explodes beyond that).  A model in dim >= 2
    whose rows are Kronecker products of per-axis rows stores those
    factors (see the module docstring).
    """
    spec.validate()
    if spec.dim > 3:
        raise ValueError("grid discretization supports dim <= 3")
    axes = grid.axes(spec.dim)
    nodes, vol = grid_nodes(grid, spec.dim)
    n, k = len(nodes), len(spec.actions)
    means = [nodes @ spec.A.T + spec.drift_at(nodes, a) for a in spec.actions]
    covs = [spec.diffusion[a] @ spec.diffusion[a].T for a in spec.actions]
    diagonal = [np.array_equal(cov, np.diag(np.diag(cov))) for cov in covs]
    # Stacked rows: (state x, action ai) sits at row x * k + ai.
    factors = [_separable_factors(mu, np.diag(cov), axes) if diag and spec.dim > 1 else None
               for mu, cov, diag in zip(means, covs, diagonal)]
    if all(f is not None for f in factors):
        rows = FactoredRows([np.stack(f) for f in zip(*factors)])
    else:
        rows = np.empty((n * k, n))
        for ai, cov in enumerate(covs):
            if diagonal[ai]:
                outer_rows([_axis_rows(means[ai][:, d], cov[d, d], ax) for d, ax in enumerate(axes)], rows[ai::k])
                continue
            cov_inv = np.linalg.inv(cov)
            for sl in row_blocks(n, n):
                block = gaussian_kernel_row(means[ai][sl], cov_inv, nodes, vol)
                np.divide(block, _row_mass(block), out=rows[ai::k][sl])
    return FiniteMCP(actions=[list(spec.actions)] * n, transition=rows, cost=np.zeros(n * k), state_coords=nodes)


def _row_mass(rows: np.ndarray) -> np.ndarray:
    """Row sums as a column, each checked to be > 0."""
    sums = rows.sum(axis=1, keepdims=True)
    if not np.all(sums > 0):
        raise ValueError("a transition row lost all mass; grid too coarse or extent too small")
    return sums


def _separable_factors(means: np.ndarray, variances: np.ndarray, axes: list[np.ndarray]) -> list[np.ndarray] | None:
    """Per axis d, the ``(p_d, p_d)`` normalized rows from each of the
    axis's nodes (:func:`_axis_rows`), when every node's mean coordinate d
    depends on the node's coordinate d alone (a diagonal A, and a drift
    that is constant or has a diagonal ``drift_linear`` clipped at no
    node); else None."""
    shape = tuple(len(ax) for ax in axes)
    factors = []
    for d, ax in enumerate(axes):
        centers = np.moveaxis(means[:, d].reshape(shape), d, 0).reshape(len(ax), -1)
        if not (centers == centers[:, :1]).all():
            return None
        factors.append(_axis_rows(centers[:, 0], variances[d], ax))
    return factors


def _axis_rows(centers: np.ndarray, variance: float, ax: np.ndarray) -> np.ndarray:
    """Normalized one-dimensional Gaussian rows on the axis nodes ``ax``,
    one per center.  With diagonal covariance the density on the tensor
    grid is the product of these densities, and so is its sum over the
    grid, so each normalized row is the outer product of the rows of its
    mean's coordinates: one exponential per axis node in place of one per
    matrix entry."""
    rows = gaussian_kernel_row(centers[:, None], np.array([[1.0 / variance]]), ax[:, None], 1.0)
    rows /= _row_mass(rows)
    return rows


@dataclass(frozen=True)
class TabulatedCost:
    table: list


@dataclass(frozen=True)
class QuadraticCost:
    """c(x, a) = c0 |x|^2 + action_terms[label]."""

    c0: float
    action_terms: dict[str, float] | None = None


@dataclass(frozen=True)
class PowerCost:
    """c(x, a) = c0 w1(x)^q — carries its exponent q so certificate
    configurations can refer to the same power of the weight."""

    c0: float
    q: float
    w1: np.ndarray


def attach_cost(mcp: FiniteMCP, form) -> FiniteMCP:
    """New model with costs given by a tabulated/quadratic/power form."""
    n = mcp.n_states
    if isinstance(form, TabulatedCost):
        if len(form.table) != n:
            raise ValueError("tabulated cost length != n_states")
        return mcp.with_cost(form.table)
    if isinstance(form, QuadraticCost):
        if mcp.state_coords is None:
            raise ValueError("quadratic cost needs state coordinates")
        sq = np.sum(mcp.state_coords**2, axis=1)
        cost = form.c0 * sq[mcp.row_state]
        for label, term in (form.action_terms or {}).items():
            if label not in mcp.row_labels:
                raise ValueError(f"action_terms label {label!r} is not an action of the model")
            cost[mcp.row_labels == label] += term
        return mcp.with_cost(cost)
    if isinstance(form, PowerCost):
        w1 = np.asarray(form.w1, dtype=float)
        if w1.shape != (n,):
            raise ValueError("w1 length != n_states")
        if np.any(w1 < 0):
            raise ValueError("w1 must be nonnegative")
        return mcp.with_cost((form.c0 * w1**form.q)[mcp.row_state])
    raise TypeError(f"unknown cost form {type(form).__name__}")


def diffusion_entropic_weight(grid: GridSpec, gamma: float, spec: DiffusionSpec) -> tuple[np.ndarray, float]:
    """Quadratic drift weight for the entropic map on the grid.

    Returns (w1_hat, eps) with w1_hat(x) = (eps/2) |x|^2 and
    eps = ((gamma - gamma_tilde) / gamma) / ellipticity, the largest
    curvature for which the Gaussian tilt keeps the drift factor at gamma.
    """
    if not spec.gamma_tilde < gamma < 1:
        raise ValueError("need gamma_tilde < gamma < 1")
    eps = (gamma - spec.gamma_tilde) / gamma / spec.ellipticity
    nodes, _ = grid_nodes(grid, spec.dim)
    w1_hat = 0.5 * eps * np.sum(nodes**2, axis=1)
    return w1_hat, eps


def builtin_chain(name: str, **params) -> FiniteMCP:
    """Small named chains: uniform2, biased2, ring(n), random_seeded(n, m, seed)."""
    if name in ("uniform2", "biased2"):
        rows = [[0.5, 0.5], [0.5, 0.5]] if name == "uniform2" else [[0.6, 0.4], [0.3, 0.7]]
        return FiniteMCP(actions=[["a"], ["a"]], transition=np.array(rows), cost=np.array([0.0, 1.0]),
                         state_coords=np.array([[0.0], [1.0]]))
    if name == "ring":
        n = int(params.get("n", 5))
        if n < 3:
            raise ValueError("ring needs n >= 3")
        states = np.arange(n)
        rows = np.zeros((n, n))
        rows[states, (states - 1) % n] = rows[states, (states + 1) % n] = 0.5
        # Cost 1 at state 0, else 0: the long-run mean cost is 1/n.
        cost = (states == 0).astype(float)
        return FiniteMCP(actions=[["a"]] * n, transition=rows, cost=cost, state_coords=states[:, None])
    if name == "random_seeded":
        n = int(params.get("n", 4))
        m = int(params.get("m", 2))
        seed = int(params.get("seed", 0))
        rng = np.random.default_rng(seed)
        transition = []
        cost = []
        for _ in range(n):
            raw = rng.uniform(0.1, 1.0, size=(m, n))
            transition.append(raw / raw.sum(axis=1, keepdims=True))
            cost.append(rng.uniform(0.0, 1.0, size=m))
        return FiniteMCP(
            actions=[[f"a{j}" for j in range(m)] for _ in range(n)],
            transition=transition,
            cost=cost,
            state_coords=np.arange(n, dtype=float)[:, None],
        )
    raise ValueError(f"unknown builtin chain {name!r}")
