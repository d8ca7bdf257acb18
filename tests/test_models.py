import tracemalloc

import numpy as np
import pytest

from riskmdp import mdp, models
from riskmdp.certificates import check_l2
from riskmdp.mdp import row_blocks, validate_mcp
from riskmdp.models import (
    DiffusionSpec,
    GridSpec,
    PowerCost,
    QuadraticCost,
    TabulatedCost,
    attach_cost,
    builtin_chain,
    diffusion_entropic_weight,
    discretize_diffusion,
    gaussian_kernel_row,
    grid_nodes,
)
from riskmdp.risk import PiecewiseLinearUtility, RiskMapSpec, risk_table


def ou_spec(dim=1, a=0.5, drift=0.5, gamma_tilde=0.25):
    """Controlled mean-reverting diffusion with a push-left/push-right pair."""
    eye = np.eye(dim)
    return DiffusionSpec(
        dim=dim,
        A=a * eye,
        actions=["left", "right"],
        drift={"left": -drift * np.ones(dim) / np.sqrt(dim), "right": drift * np.ones(dim) / np.sqrt(dim)},
        diffusion={"left": eye, "right": eye},
        gamma_tilde=gamma_tilde,
        drift_bound=drift * drift + 1e-9,
        ellipticity=1.0,
    )


# --- grids ----------------------------------------------------------------------


def test_grid_axes_include_origin_for_odd_counts():
    axes = GridSpec(points=5, extent=2.0).axes(1)
    assert np.allclose(axes[0], [-2.0, -1.0, 0.0, 1.0, 2.0])


def test_grid_axes_per_dimension_tuples():
    axes = GridSpec(points=(3, 5), extent=(1.0, 2.0)).axes(2)
    assert len(axes[0]) == 3 and axes[0][-1] == 1.0
    assert len(axes[1]) == 5 and axes[1][-1] == 2.0
    with pytest.raises(ValueError):
        GridSpec(points=(3, 5), extent=1.0).axes(3)
    with pytest.raises(ValueError):
        GridSpec(points=2).axes(1)


@pytest.mark.parametrize("extent, dim, bad", [
    (float("nan"), 1, "nan"), (float("inf"), 1, "inf"), (0.0, 1, "0.0"), (-5.0, 1, "-5.0"), (0, 1, "0"),
    ((3.0, float("nan")), 2, "nan"), ((-1.0, 2.0), 2, "-1.0"),
])
def test_grid_axes_reject_an_extent_that_is_not_finite_and_positive(extent, dim, bad):
    # with rows normalized per axis the cell volume drops out, so extent 0
    # would build uniform rows and a negative one a reversed grid
    with pytest.raises(ValueError, match=f"extent must be finite and > 0, got {bad}$"):
        GridSpec(points=5, extent=extent).axes(dim)


def test_grid_nodes_count_and_cell_volume():
    nodes, vol = grid_nodes(GridSpec(points=5, extent=2.0), dim=2)
    assert nodes.shape == (25, 2)
    assert vol == pytest.approx(1.0)
    # row-major: the first axis varies slowest
    assert np.allclose(nodes[0], [-2.0, -2.0])
    assert np.allclose(nodes[1], [-2.0, -1.0])
    assert np.allclose(nodes[5], [-1.0, -2.0])


# --- diffusion spec ------------------------------------------------------------------


def test_diffusion_spec_validates_worked_instance():
    ou_spec().validate()


def test_diffusion_spec_rejects_fast_mean_reversion():
    spec = ou_spec(a=0.8, gamma_tilde=0.25)
    with pytest.raises(ValueError, match="gamma_tilde"):
        spec.validate()


def test_diffusion_spec_rejects_bad_ellipticity():
    spec = ou_spec()
    spec.diffusion["left"] = 2.0 * np.eye(1)
    with pytest.raises(ValueError, match="ellipticity"):
        spec.validate()


@pytest.mark.parametrize("field, value", [
    ("drift_bound", float("nan")), ("drift_bound", -1.0), ("drift_bound", 0.0), ("drift_bound", float("inf")),
    ("ellipticity", float("nan")), ("ellipticity", 0.0), ("ellipticity", 0.5), ("ellipticity", float("inf")),
])
def test_diffusion_spec_rejects_bad_bounds_naming_the_field(field, value):
    spec = ou_spec()
    setattr(spec, field, value)
    with pytest.raises(ValueError, match=field):
        spec.validate()


def test_diffusion_spec_rejects_missing_action_data():
    spec = ou_spec()
    del spec.drift["right"]
    with pytest.raises(ValueError, match="right"):
        spec.validate()


def test_drift_clipping_respects_bound():
    spec = ou_spec()
    spec.drift_bound = 0.04  # cap |b| at 0.2 < the nominal 0.5
    x = np.array([[0.0], [1.0], [-3.0]])
    b = spec.drift_at(x, "right")
    assert np.all(np.linalg.norm(b, axis=1) <= 0.2 + 1e-12)


def test_drift_linear_term_is_affine_then_clipped():
    spec = ou_spec()
    spec.drift_linear["right"] = np.array([[0.1]])
    spec.drift_bound = 1.0
    x = np.array([[2.0]])
    assert spec.drift_at(x, "right")[0, 0] == pytest.approx(0.5 + 0.2)
    spec.drift_bound = 0.25
    assert spec.drift_at(x, "right")[0, 0] == pytest.approx(0.5)


# --- kernel rows -----------------------------------------------------------------------


def test_gaussian_kernel_row_matches_density_times_volume():
    nodes = np.linspace(-6.0, 6.0, 121)[:, None]
    w = gaussian_kernel_row(np.array([0.5]), np.eye(1), nodes, cell_volume=0.1)
    direct = np.exp(-0.5 * (nodes[:, 0] - 0.5) ** 2) / np.sqrt(2 * np.pi) * 0.1
    assert np.allclose(w, direct, atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-3)


def test_gaussian_kernel_row_batches_means():
    nodes = np.linspace(-3.0, 3.0, 13)[:, None]
    means = np.array([[-1.0], [0.0], [2.5]])
    rows = gaussian_kernel_row(means, np.eye(1), nodes, cell_volume=0.5)
    assert rows.shape == (3, 13)
    for mean, row in zip(means, rows):
        assert np.array_equal(row, gaussian_kernel_row(mean, np.eye(1), nodes, cell_volume=0.5))


def density_rows(means, cov_inv, nodes, cell_volume):
    """The density formula evaluated node by node, as the oracle of the kernel."""
    d = nodes.shape[1]
    norm = (2 * np.pi) ** (-d / 2) * np.sqrt(np.linalg.det(cov_inv)) * cell_volume
    return np.array([[norm * np.exp(-0.5 * (y - m) @ cov_inv @ (y - m)) for y in nodes] for m in means])


@pytest.mark.parametrize("dim", [2, 3])
def test_gaussian_kernel_row_matches_density_with_nonsymmetric_cov_inv(dim):
    rng = np.random.default_rng(dim)
    L = rng.normal(size=(dim, dim))
    skew = rng.normal(size=(dim, dim))
    cov_inv = L @ L.T + 0.5 * np.eye(dim) + (skew - skew.T)  # SPD plus a skew part
    assert not np.allclose(cov_inv, cov_inv.T)
    nodes, vol = grid_nodes(GridSpec(points=7, extent=3.0), dim)
    means = rng.uniform(-3.5, 3.5, size=(5, dim))
    got = gaussian_kernel_row(means, cov_inv, nodes, vol)
    want = density_rows(means, cov_inv, nodes, vol)
    big = want > 1e-200
    assert np.all(np.abs(got - want)[big] <= 1e-12 * want[big])
    assert np.all(np.abs(got - want)[~big] <= 1e-15)


def benchmark_spec():
    """The benchmark's 2-D model, x' = 0.5 x +- 0.5 e1 + W on [-5, 5]^2."""
    eye = np.eye(2)
    return DiffusionSpec(dim=2, A=0.5 * eye, actions=["left", "right"],
                         drift={"left": [-0.5, 0.0], "right": [0.5, 0.0]},
                         diffusion={"left": eye, "right": eye},
                         gamma_tilde=0.25, drift_bound=0.2500001, ellipticity=1.0)


def test_benchmark_grid_rows_match_the_difference_form():
    # The 41 x 41 benchmark model against the rows of the (y - m)'C(y - m)
    # difference form.
    spec, eye = benchmark_spec(), np.eye(2)
    grid = GridSpec(points=41, extent=5.0)
    m = discretize_diffusion(spec, grid)
    nodes, vol = grid_nodes(grid, 2)
    for ai, a in enumerate(spec.actions):
        means = nodes @ spec.A.T + spec.drift_at(nodes, a)
        diff = nodes[None, :, :] - means[:, None, :]
        rows = np.exp(-0.5 * np.einsum("snd,de,sne->sn", diff, eye, diff)) / (2 * np.pi) * vol
        rows /= rows.sum(axis=1, keepdims=True)
        assert np.max(np.abs(m.stacked_transition[ai::2] - rows)) <= 1e-16


def test_benchmark_build_holds_little_beside_the_matrix():
    # the rows are written straight into the matrix from per-axis factors,
    # so the 41 x 41 build (a 43 MB matrix) allocates only a few MB beside it
    tracemalloc.start()
    try:
        m = discretize_diffusion(benchmark_spec(), GridSpec(points=41, extent=5.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= m.stacked_transition.nbytes + 4 * 2**20


def test_results_do_not_depend_on_the_block_budget(monkeypatch):
    # a budget of a few dozen elements cuts check_l2's 300 samples, the
    # kernels' rows and the correlated-noise build's 63 source states into
    # many blocks; the diagonal-noise build takes no blocks
    m = builtin_chain("random_seeded", n=6, m=2, seed=3)
    w0 = np.linspace(0.0, 1.5, 6)
    specs = [RiskMapSpec("neutral"), RiskMapSpec("density_band", band=(0.5, 1.5)),
             RiskMapSpec("mean_semideviation", lam=0.5)]

    def run():
        certs = [check_l2(m, spec, w0, K0=0.05, K=1.0, B0=np.arange(6), n_samples=300, seed=4) for spec in specs]
        builds = [discretize_diffusion(benchmark_spec(), GridSpec(points=9, extent=3.0)),
                  discretize_diffusion(correlated_noise_spec(), GridSpec(points=(7, 9), extent=(3.0, 2.0)))]
        return certs, [b.stacked_transition for b in builds]

    assert len(row_blocks(300, 12)) == 1 and len(row_blocks(81, 81)) == 1 and len(row_blocks(63, 63)) == 1
    one_block, rows = run()
    monkeypatch.setattr(mdp, "BLOCK_ELEMENTS", 40)
    assert len(row_blocks(300, 12)) == 100 and len(row_blocks(81, 81)) == 81 and len(row_blocks(63, 63)) == 63
    blocked, blocked_rows = run()
    for a, b in zip(one_block, blocked):
        assert (a.min_slack, a.worst_witness, a.n_samples) == (b.min_slack, b.worst_witness, b.n_samples)
    for a, b in zip(rows, blocked_rows):
        assert np.array_equal(a, b)


def unequal_noise_spec():
    """2-D model with unequal diagonal noise per action and an affine drift."""
    return DiffusionSpec(dim=2, A=0.5 * np.eye(2), actions=["left", "right"],
                         drift={"left": [-0.5, 0.0], "right": [0.5, 0.2]},
                         diffusion={"left": np.diag([1.0, 0.7]), "right": np.diag([0.8, 1.2])},
                         drift_linear={"right": [[0.1, 0.0], [0.05, -0.1]]},
                         gamma_tilde=0.25, drift_bound=1.0, ellipticity=2.1)


def correlated_noise_spec():
    """2-D model whose "left" action has correlated noise D D^T = [[1.09, 0.3], [0.3, 1]]."""
    eye = np.eye(2)
    return DiffusionSpec(dim=2, A=0.5 * eye, actions=["left", "right"],
                         drift={"left": [-0.5, 0.0], "right": [0.5, 0.0]},
                         diffusion={"left": [[1.0, 0.3], [0.0, 1.0]], "right": eye},
                         gamma_tilde=0.25, drift_bound=0.2500001, ellipticity=1.4)


def oracle_transition(spec, grid):
    """Stacked rows from the node-by-node density, each normalized to sum 1."""
    nodes, vol = grid_nodes(grid, spec.dim)
    per_action = []
    for a in spec.actions:
        D = spec.diffusion[a]
        rows = density_rows(nodes @ spec.A.T + spec.drift_at(nodes, a), np.linalg.inv(D @ D.T), nodes, vol)
        per_action.append(rows / rows.sum(axis=1, keepdims=True))
    return np.stack(per_action, axis=1).reshape(-1, len(nodes))


def kernel_widths(monkeypatch):
    """Record the node dimension of every gaussian_kernel_row call the build makes."""
    widths = []

    def recording(mean, cov_inv, nodes, cell_volume):
        widths.append(nodes.shape[1])
        return gaussian_kernel_row(mean, cov_inv, nodes, cell_volume)

    monkeypatch.setattr(models, "gaussian_kernel_row", recording)
    return widths


@pytest.mark.parametrize("spec, grid", [
    (ou_spec(dim=1), GridSpec(points=101, extent=5.0)),
    (ou_spec(dim=2), GridSpec(points=9, extent=3.0)),
    (ou_spec(dim=3), GridSpec(points=5, extent=2.0)),
    (unequal_noise_spec(), GridSpec(points=(7, 9), extent=(3.0, 2.0))),
], ids=["1d", "2d", "3d", "unequal-noise"])
def test_diagonal_noise_rows_are_per_axis_outer_products_matching_the_density(monkeypatch, spec, grid):
    widths = kernel_widths(monkeypatch)
    got = discretize_diffusion(spec, grid).stacked_transition
    assert set(widths) == {1}  # only one-dimensional factors, never the full density
    assert np.max(np.abs(got - oracle_transition(spec, grid))) <= 1e-16


def test_correlated_noise_takes_the_blocked_density_path(monkeypatch):
    spec, grid = correlated_noise_spec(), GridSpec(points=(7, 9), extent=(3.0, 2.0))
    widths = kernel_widths(monkeypatch)
    got = discretize_diffusion(spec, grid).stacked_transition
    assert 2 in widths and 1 in widths  # "left" evaluates the 2-D density, "right" factors
    want = oracle_transition(spec, grid)
    assert np.max(np.abs(got - want)) <= 1e-16
    # one source state per block matches the oracle as well
    monkeypatch.setattr(mdp, "BLOCK_ELEMENTS", 40)
    assert len(row_blocks(63, 63)) == 63
    assert np.max(np.abs(discretize_diffusion(spec, grid).stacked_transition - want)) <= 1e-16


def test_discretize_rejects_non_finite_drift():
    spec = ou_spec()
    spec.drift["right"] = np.array([np.nan])
    with pytest.raises(ValueError, match=r"drift\['right'\]"):
        discretize_diffusion(spec, GridSpec(points=11, extent=2.0))


def test_discretized_model_is_stored_once():
    m = discretize_diffusion(ou_spec(dim=2), GridSpec(points=5, extent=2.0))
    assert m.stacked_transition.shape == (50, 25)
    for x in (0, 12, 24):
        assert np.shares_memory(m.transition[x], m.stacked_transition)
    out = attach_cost(m, QuadraticCost(c0=1.0))
    assert np.shares_memory(out.stacked_transition, m.stacked_transition)


def test_discretized_rows_are_probability_rows():
    m = discretize_diffusion(ou_spec(), GridSpec(points=41, extent=4.0))
    assert m.n_states == 41
    assert m.state_coords.shape == (41, 1)
    report = validate_mcp(m)
    assert report.ok, report.violations[:3]
    assert all(np.all(rows > 0) for rows in m.transition)


def test_discretization_folds_escaping_mass_inward():
    # mass that a wide kernel pushes past the boundary is renormalized back,
    # so every row still sums to one even at the edge nodes
    m = discretize_diffusion(ou_spec(), GridSpec(points=11, extent=1.0))
    edge = m.transition[0][1]  # leftmost node pushed right
    assert edge.sum() == pytest.approx(1.0, abs=1e-12)


def test_discretization_2d_smoke():
    m = discretize_diffusion(ou_spec(dim=2), GridSpec(points=7, extent=3.0))
    assert m.n_states == 49
    assert validate_mcp(m).ok


def test_discretization_dimension_cap():
    with pytest.raises(ValueError, match="dim"):
        discretize_diffusion(ou_spec(dim=4), GridSpec(points=3))


def test_discretization_symmetric_pair_mirrors():
    m = discretize_diffusion(ou_spec(), GridSpec(points=21, extent=4.0))
    center = 10  # x = 0: pushing left then reading reversed equals pushing right
    assert np.allclose(m.transition[center][0], m.transition[center][1][::-1], atol=1e-12)


# --- factored rows ---------------------------------------------------------------------


def two_action_spec(dim, A, linear, drift_bound):
    """Two actions with unequal diagonal noise per axis.  "left" has the
    diagonal affine drift ``linear`` on a constant one, "right" a constant
    drift of norm 1.34.  The noise of "left" is so narrow that its rows have
    no float mass at the far nodes."""
    return DiffusionSpec(dim=dim, A=A, actions=["left", "right"],
                         drift={"left": [-0.5, 0.0, 0.2][:dim], "right": [1.2, 0.6, 0.0][:dim]},
                         diffusion={"left": np.diag([0.15, 0.2, 0.18][:dim]), "right": np.diag([0.8, 1.2, 1.0][:dim])},
                         drift_linear={"left": np.diag(linear[:dim])},
                         gamma_tilde=0.25, drift_bound=drift_bound, ellipticity=50.0)


def factored_spec(dim):
    # "right" is clipped alike at every node, "left" (at most 0.77) at none
    return two_action_spec(dim, np.diag([0.5, 0.3, 0.4][:dim]), [0.05, -0.04, 0.03], drift_bound=1.0)


def clipped_spec(dim):
    # "left" is clipped at some nodes, by a factor that depends on every coordinate
    return two_action_spec(dim, np.diag([0.5, 0.3, 0.4][:dim]), [0.3, -0.2, 0.1], drift_bound=2.0)


def coupled_spec():
    return two_action_spec(2, np.array([[0.4, 0.1], [0.1, 0.3]]), [0.05, -0.04], drift_bound=1.0)


def clipped_nodes(spec, nodes, a):
    raw = spec.drift[a] + nodes @ spec.drift_linear.get(a, np.zeros((spec.dim, spec.dim))).T
    return np.linalg.norm(raw, axis=1) > np.sqrt(spec.drift_bound)


GRID_2D, GRID_3D = GridSpec(points=(9, 11), extent=(4.0, 3.0)), GridSpec(points=(5, 7, 9), extent=(3.0, 3.5, 3.0))
FACTORED = [(factored_spec(2), GRID_2D), (factored_spec(3), GRID_3D)]


@pytest.mark.parametrize("spec, grid, layout", [
    (*FACTORED[0], "factored"), (*FACTORED[1], "factored"),
    (clipped_spec(2), GRID_2D, "dense"), (clipped_spec(3), GRID_3D, "dense"), (coupled_spec(), GRID_2D, "dense"),
], ids=["2d", "3d", "2d-clipped", "3d-clipped", "2d-coupled"])
def test_separable_rows_are_bit_identical_to_the_per_action_outer_products(spec, grid, layout):
    # rows whose per-axis rows depend on that axis's coordinate alone are
    # stored as factors; a drift clipped at some nodes only, or coupled
    # axes, keep the dense rows
    m = discretize_diffusion(spec, grid)
    assert m.rows.layout == layout
    nodes, _ = grid_nodes(grid, spec.dim)
    left, right = clipped_nodes(spec, nodes, "left"), clipped_nodes(spec, nodes, "right")
    assert (left.any() and not left.all()) == (spec.drift_bound == 2.0)  # clipped at some nodes only
    assert right.all() == (spec.drift_bound == 1.0)  # clipped alike at every node
    for ai, a in enumerate(spec.actions):
        # the dense build's rows: one normalized row per node and axis,
        # multiplied axis by axis
        means, variances = nodes @ spec.A.T + spec.drift_at(nodes, a), np.diag(spec.diffusion[a] @ spec.diffusion[a].T)
        rows = np.ones((len(nodes), 1))
        for d, ax in enumerate(grid.axes(spec.dim)):
            f = gaussian_kernel_row(means[:, d:d + 1], np.array([[1.0 / variances[d]]]), ax[:, None], 1.0)
            f /= f.sum(axis=1, keepdims=True)
            rows = (rows[:, :, None] * f[:, None, :]).reshape(len(nodes), -1)
        assert np.array_equal(m.stacked_transition[ai::2], rows)


@pytest.mark.parametrize("spec, grid", FACTORED, ids=["2d", "3d"])
def test_factored_neutral_and_entropic_tables_match_the_dense_rows(spec, grid):
    m = discretize_diffusion(spec, grid)
    rows = m.rows.take(slice(None))  # the dense twin; m's dense export stays unwritten
    rng = np.random.default_rng(spec.dim)
    x = m.state_coords
    V = np.stack([5.0 * x.sum(axis=1), 2.0 * np.sum(x**2, axis=1), rng.normal(0.0, 3.0, size=len(x))])
    keep = np.sort(rng.choice(len(rows), size=len(rows) // 3, replace=False))
    scale = np.abs(V).max()
    for risk in (RiskMapSpec("neutral"), RiskMapSpec("entropic", lam=40.0), RiskMapSpec("entropic", lam=-40.0),
                 RiskMapSpec("entropic", lam=0.7)):
        if risk.kind == "entropic" and abs(risk.lam) == 40.0:  # some rows take the underflow fallback
            s = (V.max if risk.lam > 0 else V.min)(axis=1, keepdims=True)
            assert (np.exp(risk.lam * (V - s)) @ rows.T < np.finfo(float).tiny).any()
        full = risk_table(risk, V, rows)
        for k in (None, keep):
            got = risk_table(risk, V, m.rows, k)
            np.testing.assert_allclose(got, risk_table(risk, V, rows, k), rtol=0, atol=1e-15 * scale)
            np.testing.assert_allclose(got, full if k is None else full[:, k], rtol=0, atol=1e-15 * scale)
    assert "stacked_transition" not in vars(m)


@pytest.mark.parametrize("spec, grid", FACTORED, ids=["2d", "3d"])
def test_factored_band_and_shortfall_tables_match_the_dense_rows(spec, grid, monkeypatch):
    # on factored rows the checkpoint product contracts the factors and the
    # chunk masses are products of per-axis entries: no row is written.
    # Each kernel is within 8 n eps max|v| of the exact band (the bound of
    # RowHistory._step), and the shortfall's root within that over l / L;
    # a kept row reads the bits of a full sweep
    m = discretize_diffusion(spec, grid)
    rows = m.rows.take(slice(None))
    monkeypatch.setattr(mdp.FactoredRows, "take", None)
    rng = np.random.default_rng(10 + spec.dim)
    x = m.state_coords
    V = np.stack([5.0 * x.sum(axis=1), 2.0 * np.sum(x**2, axis=1), rng.normal(0.0, 3.0, size=len(x)),
                  np.round(rng.normal(0.0, 2.0, size=len(x)))])  # ties
    keep = np.sort(rng.choice(len(rows), size=len(rows) // 3, replace=False))
    bound = 16 * rows.shape[1] * np.finfo(float).eps * np.abs(V).max()
    s_shaped = PiecewiseLinearUtility((-1.0, 1.0), (0.5, 2.0, 0.8))
    for risk in (RiskMapSpec("density_band", band=(0.5, 1.5)), RiskMapSpec("density_band", band=(0.0, 4.0)),
                 RiskMapSpec("shortfall", utility=PiecewiseLinearUtility((0.0,), (0.5, 2.0))),
                 RiskMapSpec("shortfall", utility=s_shaped)):
        ratio = 1.0 if risk.kind == "density_band" else risk.utility.L / risk.utility.l
        full = risk_table(risk, V, m.rows)
        for k in (None, keep):
            got = risk_table(risk, V, m.rows, k)
            np.testing.assert_allclose(got, risk_table(risk, V, rows, k), rtol=0, atol=bound * ratio)
            assert np.array_equal(got, full if k is None else full[:, k])
    assert "stacked_transition" not in vars(m)


def test_one_dimensional_and_correlated_models_stay_dense():
    for spec, grid in ((ou_spec(dim=1), GridSpec(points=21, extent=3.0)),
                       (correlated_noise_spec(), GridSpec(points=(7, 9), extent=(3.0, 2.0)))):
        assert discretize_diffusion(spec, grid).rows.layout == "dense"


# --- costs ------------------------------------------------------------------------------


def test_attach_tabulated_cost():
    m = builtin_chain("random_seeded", n=3, m=2, seed=50)
    out = attach_cost(m, TabulatedCost([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert out.cost[1][0] == 3.0
    assert m.cost[1][0] != 3.0  # original untouched
    with pytest.raises(ValueError):
        attach_cost(m, TabulatedCost([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        attach_cost(m, TabulatedCost([[1.0], [2.0], [3.0]]))


def test_attach_quadratic_cost_uses_coordinates():
    m = discretize_diffusion(ou_spec(), GridSpec(points=5, extent=2.0))
    out = attach_cost(m, QuadraticCost(c0=2.0, action_terms={"right": 0.5}))
    x0 = float(m.state_coords[0, 0])
    assert out.cost[0][0] == pytest.approx(2.0 * x0 * x0)
    assert out.cost[0][1] == pytest.approx(2.0 * x0 * x0 + 0.5)
    with pytest.raises(ValueError, match="action_terms label 'lefty' is not an action of the model"):
        attach_cost(m, QuadraticCost(c0=2.0, action_terms={"right": 0.5, "lefty": 1.0}))
    bare = builtin_chain("uniform2").with_cost([np.zeros(1)] * 2)
    object.__setattr__(bare, "state_coords", None)
    with pytest.raises(ValueError):
        attach_cost(bare, QuadraticCost(c0=1.0))


def test_attach_power_cost():
    m = builtin_chain("random_seeded", n=3, m=2, seed=51)
    w1 = np.array([0.0, 1.0, 4.0])
    out = attach_cost(m, PowerCost(c0=0.5, q=0.5, w1=w1))
    assert np.allclose([c[0] for c in out.cost], [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        attach_cost(m, PowerCost(c0=1.0, q=1.0, w1=np.array([1.0])))
    with pytest.raises(ValueError):
        attach_cost(m, PowerCost(c0=1.0, q=1.0, w1=np.array([-1.0, 0.0, 1.0])))
    with pytest.raises(TypeError):
        attach_cost(m, object())


# --- entropic drift weight -------------------------------------------------------------------


def test_entropic_weight_worked_curvature():
    grid = GridSpec(points=201, extent=5.0)
    w1, eps = diffusion_entropic_weight(grid, gamma=0.5, spec=ou_spec())
    assert eps == pytest.approx(0.5)
    nodes, _ = grid_nodes(grid, 1)
    assert np.allclose(w1, 0.25 * nodes[:, 0] ** 2)


def test_entropic_weight_needs_room_above_gamma_tilde():
    with pytest.raises(ValueError):
        diffusion_entropic_weight(GridSpec(points=5), gamma=0.2, spec=ou_spec(gamma_tilde=0.25))


# --- builtin chains -----------------------------------------------------------------------------


def test_builtin_uniform2_and_biased2():
    u = builtin_chain("uniform2")
    assert np.allclose(u.transition[0][0], [0.5, 0.5])
    assert u.cost[0][0] == 0.0 and u.cost[1][0] == 1.0
    b = builtin_chain("biased2")
    assert np.allclose(b.transition[0][0], [0.6, 0.4])
    assert np.allclose(b.transition[1][0], [0.3, 0.7])


def test_builtin_ring_structure():
    r = builtin_chain("ring", n=7)
    assert r.n_states == 7
    assert validate_mcp(r).ok
    row = r.transition[3][0]
    assert row[2] == 0.5 and row[4] == 0.5 and row.sum() == 1.0
    with pytest.raises(ValueError):
        builtin_chain("ring", n=2)


def test_builtin_random_seeded_reproducible_and_positive():
    a = builtin_chain("random_seeded", n=5, m=3, seed=7)
    b = builtin_chain("random_seeded", n=5, m=3, seed=7)
    c = builtin_chain("random_seeded", n=5, m=3, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a.transition, b.transition))
    assert any(not np.array_equal(x, y) for x, y in zip(a.transition, c.transition))
    assert all(np.all(rows > 0) for rows in a.transition)
    assert validate_mcp(a).ok


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_chain("nope")
