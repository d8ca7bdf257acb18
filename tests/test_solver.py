import collections
from pathlib import Path

import numpy as np
import pytest

from riskmdp import mdp, solver
from riskmdp.cli import build_model
from riskmdp.mdp import (WORST_PAIR_RTOL, FiniteMCP, PolicyVector, policy_reduce, policy_transition_and_cost,
                         weighted_seminorm)
from riskmdp.models import DiffusionSpec, GridSpec, QuadraticCost, attach_cost, builtin_chain, discretize_diffusion
from riskmdp.oracles import entropic_spectral_rho, neutral_average_cost
from riskmdp.risk import PiecewiseLinearUtility, RiskMapSpec, eval_risk, risk_table, risk_values
from riskmdp.solver import (
    RowHistory,
    SolveConfig,
    bellman_F,
    bellman_T,
    finite_horizon_risk,
    measure_contraction,
    poisson_residual,
    relative_value_iteration,
)
from riskmdp.solver import _random_in_ball, _random_policy

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

NEUTRAL = RiskMapSpec("neutral")
ENTROPIC = RiskMapSpec("entropic", lam=1.0)


def stationary_policy(mcp, a=0):
    return PolicyVector.det([a] * mcp.n_states)


# --- one-step operators -----------------------------------------------------


def test_bellman_T_at_zero_is_policy_cost():
    m = builtin_chain("random_seeded", n=4, m=2, seed=1)
    pi = PolicyVector.det([0, 1, 1, 0])
    _, c = policy_transition_and_cost(m, pi)
    for spec in (NEUTRAL, ENTROPIC):
        assert np.allclose(bellman_T(m, spec, pi, np.zeros(4)), c, atol=1e-12)


def test_bellman_T_translation_invariance():
    m = builtin_chain("random_seeded", n=3, m=2, seed=2)
    pi = PolicyVector.det([1, 0, 1])
    v = np.array([0.3, -1.0, 2.0])
    for spec in (NEUTRAL, ENTROPIC, RiskMapSpec("mean_semideviation", lam=0.5)):
        base = bellman_T(m, spec, pi, v)
        shifted = bellman_T(m, spec, pi, v + 5.0)
        assert np.allclose(shifted, base + 5.0, atol=1e-9)


def test_bellman_T_neutral_matches_matrix_form():
    m = builtin_chain("random_seeded", n=5, m=3, seed=3)
    pi = PolicyVector.det([2, 0, 1, 1, 0])
    P, c = policy_transition_and_cost(m, pi)
    v = np.random.default_rng(0).normal(size=5)
    assert np.allclose(bellman_T(m, NEUTRAL, pi, v), c + P @ v, atol=1e-12)


def test_bellman_T_randomized_mixes_actions():
    m = builtin_chain("random_seeded", n=3, m=2, seed=4)
    v = np.array([1.0, 0.0, -1.0])
    mix = PolicyVector.rand([np.array([0.3, 0.7])] * 3)
    t0 = bellman_T(m, NEUTRAL, PolicyVector.det([0, 0, 0]), v)
    t1 = bellman_T(m, NEUTRAL, PolicyVector.det([1, 1, 1]), v)
    assert np.allclose(bellman_T(m, NEUTRAL, mix, v), 0.3 * t0 + 0.7 * t1, atol=1e-12)


def test_random_policy_draws_and_bellman_T_on_three_actions():
    m = builtin_chain("random_seeded", n=6, m=3, seed=7)
    pi = _random_policy(m, np.random.default_rng(3))
    # one exponential per (x, a) row, normalized within each state
    e = np.random.default_rng(3).exponential(1.0, size=18)
    assert np.array_equal(pi.randomized, e / np.repeat(np.add.reduceat(e, m.row_offsets[:-1]), 3))
    pi.validate(m)
    per_state_rows = PolicyVector.rand([pi.randomized[3 * x : 3 * x + 3] for x in range(6)])
    v = np.random.default_rng(4).normal(size=6)
    for spec in (NEUTRAL, ENTROPIC, RiskMapSpec("density_band", band=(0.5, 1.5))):
        want = [pi.randomized[3 * x : 3 * x + 3] @ (m.cost[x] + risk_values(spec, v, m.transition[x]))
                for x in range(6)]
        got = bellman_T(m, spec, pi, v)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
        assert np.array_equal(bellman_T(m, spec, per_state_rows, v), got)


def test_bellman_F_is_min_over_actions():
    m = builtin_chain("random_seeded", n=4, m=3, seed=5)
    v = np.random.default_rng(1).normal(size=4)
    vals, greedy = bellman_F(m, ENTROPIC, v)
    for x in range(4):
        per_action = [
            m.cost[x][a] + float(np.log(m.transition[x][a] @ np.exp(v)))
            for a in range(m.n_actions(x))
        ]
        assert vals[x] == pytest.approx(min(per_action), abs=1e-12)
        assert greedy.deterministic[x] == int(np.argmin(per_action))


def test_bellman_F_single_action_equals_T():
    m = builtin_chain("biased2")
    v = np.array([0.2, -0.4])
    vals, greedy = bellman_F(m, NEUTRAL, v)
    assert np.allclose(vals, bellman_T(m, NEUTRAL, stationary_policy(m), v))
    assert greedy.deterministic.tolist() == [0, 0]


def test_bellman_F_tie_goes_to_lowest_action_index():
    # two identical actions: argmin must report index 0
    row = np.array([[0.5, 0.5], [0.5, 0.5]])
    m = FiniteMCP(
        actions=[["a", "b"], ["a", "b"]],
        transition=[row.copy(), row.copy()],
        cost=[np.array([1.0, 1.0]), np.array([0.0, 0.0])],
    )
    _, greedy = bellman_F(m, NEUTRAL, np.zeros(2))
    assert greedy.deterministic.tolist() == [0, 0]


def two_action_loop(costs):
    """One state with two self-looping actions of the given costs."""
    return FiniteMCP(actions=[["a", "b"]], transition=[np.ones((2, 1))], cost=[np.asarray(costs, dtype=float)])


def test_bellman_F_rounding_gap_goes_to_lowest_action_index():
    # F is the exact minimum; an action within a relative 1e-12 of it counts
    # as tied and the lowest index wins, a larger gap does not
    vals, greedy = bellman_F(two_action_loop([np.nextafter(1.0, 2.0), 1.0]), NEUTRAL, np.zeros(1))
    assert vals.tolist() == [1.0] and greedy.deterministic.tolist() == [0]
    vals, greedy = bellman_F(two_action_loop([1.0 + 1e-9, 1.0]), NEUTRAL, np.zeros(1))
    assert vals.tolist() == [1.0] and greedy.deterministic.tolist() == [1]
    vals, greedy = bellman_F(two_action_loop([-np.inf, -np.inf]), NEUTRAL, np.zeros(1))
    assert vals.tolist() == [-np.inf] and greedy.deterministic.tolist() == [0]


def test_grid_band_greedy_policy_survives_rounding(monkeypatch):
    # on the mirror-symmetric 21x21 grid the two actions tie in exact
    # arithmetic on the middle column; a relative 1e-14 nudge per row of the
    # risk values must not move the reported policy
    eye = np.eye(2)
    diff = DiffusionSpec(dim=2, A=0.5 * eye, actions=["left", "right"],
                         drift={"left": np.array([-0.5, 0.0]), "right": np.array([0.5, 0.0])},
                         diffusion={"left": eye, "right": eye}, gamma_tilde=0.25, drift_bound=0.2500001,
                         ellipticity=1.0)
    m = attach_cost(discretize_diffusion(diff, GridSpec(points=21, extent=5.0)), QuadraticCost(c0=0.1))
    spec = RiskMapSpec("density_band", band=(0.5, 1.5))
    h = relative_value_iteration(m, spec, SolveConfig(tol=1e-9)).h
    vals, greedy = bellman_F(m, spec, h)

    rng = np.random.default_rng(0)
    nudge = 1.0 + 1e-14 * rng.choice([-1.0, 1.0], size=len(m.stacked_transition))

    def nudged(spec, v, rows):
        return risk_values(spec, v, rows) * nudge

    monkeypatch.setattr(solver, "risk_values", nudged)
    vals_nudged, greedy_nudged = bellman_F(m, spec, h)
    assert np.allclose(vals_nudged, vals, rtol=0.0, atol=1e-12)
    assert np.array_equal(greedy_nudged.deterministic, greedy.deterministic)
    # the nudge does split ties: a plain argmin would report other actions
    strict = np.argmin((m.stacked_cost + nudged(spec, h, m.stacked_transition)).reshape(-1, 2), axis=1)
    assert np.any(strict != greedy.deterministic)


def uneven_chain():
    """Four states with 3, 1, 2 and 3 actions; state 0 ties actions 1 and 2."""
    rng = np.random.default_rng(21)
    counts = [3, 1, 2, 3]
    rows = [rng.dirichlet(np.ones(4), size=k) for k in counts]
    rows[0][2] = rows[0][1]
    cost = [rng.uniform(0.0, 1.0, size=k) for k in counts]
    cost[0][:] = [5.0, 0.25, 0.25]
    return FiniteMCP(actions=[[f"a{j}" for j in range(k)] for k in counts], transition=rows, cost=cost)


def test_bellman_F_matches_per_state_argmin_with_uneven_actions():
    m = uneven_chain()
    for spec in (NEUTRAL, ENTROPIC):
        for v in (np.zeros(4), np.array([0.3, -1.0, 2.0, 0.5])):
            vals, greedy = bellman_F(m, spec, v)
            for x in range(m.n_states):
                seg = np.array([m.cost[x][a] + eval_risk(spec, v, m.transition[x][a])
                                for a in range(m.n_actions(x))])
                a = int(np.argmin(seg))
                assert greedy.deterministic[x] == a
                assert vals[x] == pytest.approx(seg[a], abs=1e-12)
    assert bellman_F(m, NEUTRAL, np.zeros(4))[1].deterministic[0] == 1  # tie to lowest


def test_bellman_F_nan_keeps_every_state():
    # a NaN cost (a model validate_mcp would flag) counts as its state's
    # minimum, as in np.argmin; the other states keep their greedy action
    m = uneven_chain()
    cost = m.stacked_cost.copy()
    cost[m.row_offsets[0] + 2] = cost[m.row_offsets[2] + 1] = np.nan
    vals, greedy = bellman_F(m.with_cost(cost), NEUTRAL, np.zeros(4))
    want_vals, want = bellman_F(m, NEUTRAL, np.zeros(4))
    assert vals.shape == (4,) and greedy.deterministic.shape == (4,)
    assert np.isnan(vals).tolist() == [True, False, True, False]
    assert greedy.deterministic.tolist() == [2, 0, 1, want.deterministic[3]]
    assert vals[[1, 3]].tolist() == want_vals[[1, 3]].tolist()


# --- relative value iteration -------------------------------------------------


def test_rvi_uniform2_neutral():
    res = relative_value_iteration(builtin_chain("uniform2"), NEUTRAL)
    assert res.converged
    assert res.rho == pytest.approx(0.5, abs=1e-10)
    assert res.h[0] == 0.0


def test_rvi_uniform2_entropic_closed_form():
    res = relative_value_iteration(builtin_chain("uniform2"), ENTROPIC)
    assert res.converged
    assert res.rho == pytest.approx(np.log(0.5 * (1 + np.e)), abs=1e-10)


def test_rvi_ring_neutral_mean_cost():
    res = relative_value_iteration(builtin_chain("ring", n=5), NEUTRAL, SolveConfig(tol=1e-12))
    assert res.converged
    assert res.rho == pytest.approx(0.2, abs=1e-10)


def test_rvi_matches_spectral_oracle_on_random_chain():
    m = builtin_chain("random_seeded", n=7, m=1, seed=11)
    res = relative_value_iteration(m, ENTROPIC, SolveConfig(tol=1e-12))
    P, c = policy_transition_and_cost(m, stationary_policy(m))
    orc = entropic_spectral_rho(P, c, 1.0)
    assert res.rho == pytest.approx(orc.rho, abs=1e-10)
    # bias agrees up to the shared normalization h[0] = 0
    assert np.allclose(res.h, orc.h, atol=1e-8)


def test_rvi_brackets_are_monotone_and_contain_rho():
    m = builtin_chain("random_seeded", n=6, m=2, seed=12)
    res = relative_value_iteration(m, ENTROPIC, SolveConfig(tol=1e-11))
    ms = [t.m for t in res.trace]
    Ms = [t.M for t in res.trace]
    assert all(a <= b + 1e-12 for a, b in zip(ms, ms[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(Ms, Ms[1:]))
    for t in res.trace:
        assert t.m - 1e-12 <= res.rho <= t.M + 1e-12
        assert t.rho_est == pytest.approx(0.5 * (t.m + t.M))
        assert t.span == pytest.approx(t.M - t.m)


@pytest.mark.parametrize(
    "chain", [("biased2", {}), ("ring", {"n": 5}), ("random_seeded", {"n": 6, "m": 1, "seed": 3})]
)
def test_rvi_reported_bracket_contains_oracle_rho(chain):
    m = builtin_chain(chain[0], **chain[1])
    P, c = policy_transition_and_cost(m, stationary_policy(m))
    for spec, orc in ((NEUTRAL, neutral_average_cost(P, c)), (ENTROPIC, entropic_spectral_rho(P, c, 1.0))):
        res = relative_value_iteration(m, spec, SolveConfig(tol=1e-10))
        assert res.converged
        assert res.rho_lower - 1e-12 <= orc.rho <= res.rho_upper + 1e-12


def test_rvi_stops_at_the_first_sweep_with_half_width_below_tol():
    m = builtin_chain("random_seeded", n=6, m=2, seed=12)
    spans = [t.span for t in relative_value_iteration(m, ENTROPIC, SolveConfig(tol=1e-12)).trace]
    for k in (3, 6, 9):
        # sweep k's span lies in [tol, 2 tol): the half-width rule stops by
        # sweep k, a full-width rule would run past it
        tol = 0.75 * spans[k - 1]
        res = relative_value_iteration(m, ENTROPIC, SolveConfig(tol=tol))
        first = next(i for i, s in enumerate(spans, 1) if 0.5 * s < tol)
        assert res.iterations == first <= k
        assert (res.rho_lower, res.rho_upper) == (res.trace[-1].m, res.trace[-1].M)
        assert res.rho == 0.5 * (res.rho_lower + res.rho_upper)
        assert res.rho_upper - res.rho_lower < 2 * tol


def test_rvi_hitting_max_iter_reports_nonconvergence():
    m = builtin_chain("random_seeded", n=5, m=2, seed=13)
    res = relative_value_iteration(m, NEUTRAL, SolveConfig(tol=1e-14, max_iter=2))
    assert not res.converged
    assert res.iterations == 2
    assert len(res.trace) == 2


def test_rvi_raises_on_the_first_non_finite_sweep():
    m = builtin_chain("biased2").with_cost([np.array([np.nan]), np.array([1.0])])
    with pytest.raises(FloatingPointError, match="sweep 1:"):
        relative_value_iteration(m, NEUTRAL, SolveConfig(max_iter=100_000))


def test_rvi_converged_residual_within_ten_tol():
    for seed in range(5):
        m = builtin_chain("random_seeded", n=5, m=2, seed=seed)
        for spec in (NEUTRAL, ENTROPIC, RiskMapSpec("density_band", band=(0.5, 1.5))):
            cfg = SolveConfig(tol=1e-10)
            res = relative_value_iteration(m, spec, cfg)
            assert res.converged
            assert poisson_residual(m, spec, res.rho, res.h) <= 10 * cfg.tol


def test_rvi_insensitive_to_start_point():
    m = builtin_chain("random_seeded", n=5, m=2, seed=14)
    cfg = SolveConfig(tol=1e-11)
    base = relative_value_iteration(m, ENTROPIC, cfg)
    rng = np.random.default_rng(0)
    for _ in range(10):
        res = relative_value_iteration(m, ENTROPIC, cfg, v0=rng.normal(size=5) * 3)
        assert res.converged
        assert abs(res.rho - base.rho) <= 100 * cfg.tol


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
                                    {"max_iter": 0}, {"max_iter": -3}, {"reference_state": -1}])
def test_solve_config_rejects_settings_that_cannot_stop_or_anchor(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SolveConfig(**kwargs)


def test_rvi_reference_state_pins_bias():
    m = builtin_chain("random_seeded", n=4, m=2, seed=15)
    res = relative_value_iteration(m, NEUTRAL, SolveConfig(tol=1e-11, reference_state=2))
    assert res.h[2] == 0.0
    with pytest.raises(ValueError):
        relative_value_iteration(m, NEUTRAL, SolveConfig(reference_state=7))


# --- Anderson acceleration against plain relative value iteration ---------------


def plain_rvi(mcp, spec, tol, v0=None):
    """Unaccelerated RVI, v <- F(v) - F(v)[0]: the last sweep's bracket and the
    number of sweeps to half-width below tol."""
    v = np.zeros(mcp.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    for sweep in range(1, 100_001):
        u, _ = bellman_F(mcp, spec, v)
        delta = u - v
        m, M = float(delta.min()), float(delta.max())
        v = u - u[0]
        if 0.5 * (M - m) < tol:
            return m, M, sweep
    raise AssertionError("plain RVI did not converge")


BENCHMARK_KINDS = [
    {"kind": "neutral"},
    {"kind": "entropic", "lambda": 1.0},
    {"kind": "density_band", "band": [0.5, 1.5]},
    {"kind": "mean_semideviation", "lambda": 0.5, "r": 2},
    {"kind": "shortfall", "utility": {"breakpoints": [0.0], "slopes": [0.5, 2.0]}},
]


@pytest.fixture(scope="module")
def grid11():
    # the benchmark's 2-D diffusion x' = 0.5 x +- 0.5 e1 + W, on an 11x11 grid
    eye = np.eye(2).tolist()
    model = {"diffusion": {"dim": 2, "A": [[0.5, 0.0], [0.0, 0.5]], "actions": ["left", "right"],
                           "drift": {"left": [-0.5, 0.0], "right": [0.5, 0.0]},
                           "diffusion": {"left": eye, "right": eye},
                           "gamma_tilde": 0.25, "drift_bound": 0.2500001, "ellipticity": 1.0},
             "grid": {"points": 11, "extent": 5.0},
             "cost": {"form": "power", "c0": 0.1, "q": 0.5, "w1": {"entropic_w1": {"gamma": 0.5}}}}
    return build_model({"model": model}, Path("."))[0]


@pytest.mark.parametrize("risk", BENCHMARK_KINDS, ids=[d["kind"] for d in BENCHMARK_KINDS])
def test_rvi_takes_at_most_six_tenths_of_plain_sweeps(grid11, risk):
    # measured 8/17, 8/17, 10/21, 9/21 and 12/22 sweeps in the order above
    spec = RiskMapSpec.from_dict(risk)
    res = relative_value_iteration(grid11, spec, SolveConfig(tol=1e-10))
    lo, hi, sweeps = plain_rvi(grid11, spec, 1e-10)
    assert res.converged
    assert res.iterations <= 0.6 * sweeps
    assert max(lo, res.rho_lower) <= min(hi, res.rho_upper)


def check_against_plain(m, spec, res, tol, v0=None):
    lo, hi, _ = plain_rvi(m, spec, 1e-12, v0)
    assert res.converged
    assert lo <= res.rho <= hi
    assert poisson_residual(m, spec, res.rho, res.h) <= 10 * tol


def test_rvi_history_reset_fires_when_the_greedy_policy_switches(monkeypatch):
    # from this start the greedy policy changes at sweeps 2, 3, 4, 7 and 8
    # and a raw span grows on the way
    clears = []

    class CountingDeque(collections.deque):
        def clear(self):
            clears.append(len(self))
            super().clear()

    monkeypatch.setattr(solver, "deque", CountingDeque)
    m = builtin_chain("random_seeded", n=8, m=3, seed=11)
    spec = RiskMapSpec("density_band", band=(0.2, 3.0))
    v0 = 10.0 * np.random.default_rng(11).normal(size=8)
    res = relative_value_iteration(m, spec, SolveConfig(tol=1e-10), v0=v0)
    assert clears
    assert sum(1 for t in res.trace if t.policy_changes) >= 3
    check_against_plain(m, spec, res, 1e-10, v0)


def test_rvi_falls_back_to_the_plain_step_on_a_non_finite_extrapolation(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def poisoned(a, b, rcond=None):
        calls.append(a.shape)
        gamma, *rest = lstsq(a, b, rcond=rcond)
        return (np.full_like(gamma, np.nan) if len(calls) == 3 else gamma, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", poisoned)
    m = builtin_chain("random_seeded", n=8, m=3, seed=8)
    res = relative_value_iteration(m, NEUTRAL, SolveConfig(tol=1e-10))
    assert len(calls) > 3
    check_against_plain(m, NEUTRAL, res, 1e-10)


# --- sweeps that skip the rows a monotone bound rules out ----------------------------

S_SHAPED = PiecewiseLinearUtility((-0.3, 0.0, 0.4), (0.6, 2.5, 0.4, 1.2))
SKIP_SPECS = [
    RiskMapSpec("density_band", band=(0.3, 2.0)),
    RiskMapSpec("mean_semideviation", lam=0.7, r=2.0),
    RiskMapSpec("mean_semideviation", lam=-0.6, r=1.0),
    RiskMapSpec("shortfall", utility=S_SHAPED),
    # not monotone, so no row is skipped
    RiskMapSpec("mean_semideviation", lam=-0.6, r=1.5),
    RiskMapSpec("entropic", lam=-0.8),
    NEUTRAL,
]


def spy_on_kept_rows(monkeypatch):
    """Record the rows every risk_values call of the solver evaluates."""
    calls = []

    def spy(spec, v, rows, keep=None):
        calls.append(np.arange(len(rows)) if keep is None else keep)
        return risk_values(spec, v, rows, keep)

    monkeypatch.setattr(solver, "risk_values", spy)
    return calls


def full_sweeps(monkeypatch, mcp, spec, cfg):
    """The same RVI with every row evaluated in every sweep."""
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_skips_rows", lambda spec: False)
        return relative_value_iteration(mcp, spec, cfg)


@pytest.mark.parametrize("spec", SKIP_SPECS, ids=lambda s: f"{s.kind}-{s.lam}-{s.r}")
def test_rvi_skipping_rows_gives_the_full_sweeps_result(monkeypatch, spec):
    cfg = SolveConfig(tol=1e-11)
    for seed in range(12):
        m = builtin_chain("random_seeded", n=20, m=3, seed=seed)
        res = relative_value_iteration(m, spec, cfg)
        full = full_sweeps(monkeypatch, m, spec, cfg)
        assert res.converged and res.iterations == full.iterations
        assert np.array_equal(res.policy.deterministic, full.policy.deterministic)
        rows = [t.rows_evaluated for t in res.trace]
        assert [t.rows_evaluated for t in full.trace] == [60] * full.iterations
        if spec.kind in ("neutral", "entropic") or not spec.monotone:
            assert rows == [60] * res.iterations
        else:
            assert rows[0] == 60 and min(rows) <= 30, rows
        if spec.kind == "shortfall":
            # the chunk count follows the number of rows a call evaluates
            assert abs(res.rho - full.rho) <= 1e-15
            continue
        assert (res.rho, res.rho_lower, res.rho_upper) == (full.rho, full.rho_lower, full.rho_upper)
        assert np.array_equal(res.h, full.h)


def test_a_linear_utility_shortfall_evaluates_every_row():
    # it is one matrix product, like neutral, so a gather would only cost
    m = builtin_chain("random_seeded", n=20, m=3, seed=0)
    res = relative_value_iteration(m, RiskMapSpec("shortfall"), SolveConfig(tol=1e-11))
    assert res.converged and [t.rows_evaluated for t in res.trace] == [60] * res.iterations


def test_mirror_tied_rows_are_never_skipped(monkeypatch, grid11):
    # the grid is mirror-symmetric in x1 with left and right swapped, so the
    # two actions tie in exact arithmetic on the middle column
    calls = spy_on_kept_rows(monkeypatch)
    spec = RiskMapSpec("density_band", band=(0.5, 1.5))
    res = relative_value_iteration(grid11, spec, SolveConfig(tol=1e-10))
    middle = np.flatnonzero(grid11.state_coords[:, 0] == 0.0)
    tied = (grid11.row_offsets[middle, None] + np.arange(2)).ravel()
    assert len(middle) == 11 and len(calls) == res.iterations
    assert min(len(keep) for keep in calls) < len(grid11.stacked_cost)  # other rows were skipped
    for keep in calls:
        assert np.isin(tied, keep).all()
    assert np.all(res.policy.deterministic[middle] == 0)
    full = full_sweeps(monkeypatch, grid11, spec, SolveConfig(tol=1e-10))
    assert np.array_equal(res.policy.deterministic, full.policy.deterministic)


@pytest.mark.parametrize("risk", BENCHMARK_KINDS[2:4], ids=[d["kind"] for d in BENCHMARK_KINDS[2:4]])
def test_rvi_skips_rows_on_the_benchmark_dynamics(grid11, risk):
    # measured 0.545 of the 242 rows from the fifth sweep on, for both kinds
    res = relative_value_iteration(grid11, RiskMapSpec.from_dict(risk), SolveConfig(tol=1e-10))
    assert res.converged and res.iterations >= 6
    assert all(t.rows_evaluated <= 0.6 * len(grid11.stacked_cost) for t in res.trace[4:])


def test_row_history_keeps_rows_with_a_nan_bound():
    m = uneven_chain()
    hist = RowHistory(m)
    assert np.array_equal(hist.kept_rows(m, np.zeros(4)), np.arange(9))  # no history yet
    cost = m.stacked_cost.copy()
    cost[m.row_offsets[0]] = np.nan
    nan_cost = m.with_cost(cost)
    for _ in range(3):
        vals, greedy = bellman_F(nan_cost, NEUTRAL, np.zeros(4), hist)
        assert m.row_offsets[0] in hist.kept_rows(nan_cost, np.zeros(4))
        assert np.isnan(vals[0]) and greedy.deterministic[0] == 0


def test_a_map_that_is_not_monotone_skips_no_row():
    # state 0 has row a, q = (1 - e, e) at cost 1.2, and row b, a point mass
    # on state 1 at cost 0.  From w = 0 (values 1.2 and 0) to v = (0, 1) the
    # bound would put a at or above 1.2 and b at or below 1, but for this
    # map R(v | q_a) = e - e^(1/10) (1 - e), so a's value is about 0.70
    e = 1e-3
    m = FiniteMCP(actions=[["a", "b"], ["a"]], transition=[np.array([[1 - e, e], [0.0, 1.0]]), np.array([[0.0, 1.0]])],
                  cost=[np.array([1.2, 0.0]), np.array([0.0])])
    spec = RiskMapSpec("mean_semideviation", lam=-1.0, r=10.0)
    hist = RowHistory(m)
    for v in (np.zeros(2), np.array([0.0, 1.0])):
        u, greedy = bellman_F(m, spec, v, hist)
        want_u, want = bellman_F(m, spec, v)
        assert np.array_equal(u, want_u) and np.array_equal(greedy.deterministic, want.deterministic)
    assert u[0] == pytest.approx(1.2 + e - e ** 0.1 * (1 - e)) and greedy.deterministic[0] == 0
    assert hist.sweeps == 0  # the history holds nothing for such a map
    assert not solver._skips_rows(spec)


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 10_000), st.sampled_from(SKIP_SPECS[:4]), st.floats(0.0, 10.0), st.floats(0.0, 1e-3))
    @settings(max_examples=40, deadline=None)
    def test_every_skipped_row_lies_above_its_state_minimum_plus_the_tie_band(seed, spec, scale, jitter):
        # plain RVI from a random start, each iterate jittered; at every sweep
        # the rows the history rules out are checked against a full sweep
        m = builtin_chain("random_seeded", n=8, m=3, seed=seed)
        rng = np.random.default_rng(seed)
        hist = RowHistory(m)
        starts = m.row_offsets[:-1]
        v = scale * rng.normal(size=8)
        for _ in range(12):
            keep = hist.kept_rows(m, v)
            full = m.stacked_cost + risk_values(spec, v, m.stacked_transition)
            best = np.minimum.reduceat(full, starts)
            skipped = np.setdiff1d(np.arange(len(full)), keep)
            cut = best + WORST_PAIR_RTOL * np.abs(best)
            assert np.all(full[skipped] > cut[m.row_state[skipped]])
            u, greedy = bellman_F(m, spec, v, hist)
            want_u, want = bellman_F(m, spec, v)
            assert np.array_equal(u, want_u) and np.array_equal(greedy.deterministic, want.deterministic)
            v = u - u[0] + jitter * rng.normal(size=8)


# --- Poisson residual ----------------------------------------------------------


def test_poisson_residual_accepts_oracle_solution():
    m = builtin_chain("biased2")
    P, c = policy_transition_and_cost(m, stationary_policy(m))
    orc = neutral_average_cost(P, c)
    assert poisson_residual(m, NEUTRAL, orc.rho, orc.h) < 1e-12


def test_poisson_residual_detects_wrong_rho():
    m = builtin_chain("biased2")
    P, c = policy_transition_and_cost(m, stationary_policy(m))
    orc = neutral_average_cost(P, c)
    assert poisson_residual(m, NEUTRAL, orc.rho + 0.1, orc.h) >= 0.1 - 1e-9


def test_poisson_residual_invariant_to_bias_shift():
    m = builtin_chain("random_seeded", n=4, m=2, seed=16)
    res = relative_value_iteration(m, ENTROPIC)
    a = poisson_residual(m, ENTROPIC, res.rho, res.h)
    b = poisson_residual(m, ENTROPIC, res.rho, res.h + 3.0)
    assert a == pytest.approx(b, abs=1e-12)


# --- finite horizon ---------------------------------------------------------------


def test_horizon_zero_is_policy_cost():
    m = builtin_chain("random_seeded", n=3, m=2, seed=17)
    pi = PolicyVector.det([1, 0, 1])
    _, c = policy_transition_and_cost(m, pi)
    assert np.allclose(finite_horizon_risk(m, NEUTRAL, [pi], 0), c)


def test_horizon_neutral_matches_matrix_recursion():
    m = builtin_chain("random_seeded", n=4, m=2, seed=18)
    pi = PolicyVector.det([0, 1, 0, 1])
    P, c = policy_transition_and_cost(m, pi)
    T = 6
    v = np.zeros(4)
    for _ in range(T + 1):
        v = c + P @ v
    got = finite_horizon_risk(m, NEUTRAL, [pi] * (T + 1), T)
    assert np.allclose(got, v, atol=1e-12)


def test_horizon_policy_sequence_length_checked():
    m = builtin_chain("uniform2")
    pi = stationary_policy(m)
    with pytest.raises(ValueError):
        finite_horizon_risk(m, NEUTRAL, [pi] * 3, 3)


def test_horizon_average_approaches_rho_like_one_over_T():
    m = builtin_chain("biased2")
    res = relative_value_iteration(m, NEUTRAL, SolveConfig(tol=1e-12))
    errs = {}
    for T in (50, 100, 200):
        J = finite_horizon_risk(m, NEUTRAL, [res.policy] * (T + 1), T)
        errs[T] = float(np.max(np.abs(J / T - res.rho)))
    assert errs[100] / errs[200] >= 1.9
    assert errs[50] / errs[100] >= 1.9


# --- contraction measurement --------------------------------------------------------


def test_contraction_identical_rows_gives_zero_ratios():
    stats = measure_contraction(builtin_chain("uniform2"), ENTROPIC, np.ones(2), 50)
    assert stats.n_pairs > 0
    assert stats.max_ratio <= 1e-12


def test_contraction_with_no_measurable_pair_reports_nan_and_zero_pairs():
    # the seminorm of any v - u is 0 on one state, so no pair is measured
    one = FiniteMCP(actions=[["a"]], transition=[np.array([[1.0]])], cost=[np.array([0.5])])
    stats = measure_contraction(one, NEUTRAL, np.ones(1), 50)
    assert stats.n_pairs == 0
    assert np.isnan(stats.max_ratio) and np.isnan(stats.mean_ratio) and np.isnan(stats.min_ratio)


def contraction_trial_by_trial(mcp, spec, w_hat, n_trials, ball_radius, seed):
    """The ratios of measure_contraction, each pair evaluated on its own."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_trials):
        v = _random_in_ball(mcp.n_states, rng, ball_radius)
        u = _random_in_ball(mcp.n_states, rng, ball_radius)
        denom = weighted_seminorm(v - u, w_hat)
        if denom < 1e-300:
            continue
        pi = _random_policy(mcp, rng)
        Rv, Ru = risk_table(spec, np.stack((v, u)), mcp.stacked_transition)
        ratios.append(weighted_seminorm(policy_reduce(mcp, pi, Rv - Ru), w_hat) / denom)
    return np.array(ratios)


@pytest.mark.parametrize("spec", [ENTROPIC, RiskMapSpec("density_band", band=(0.3, 2.0)),
                                  RiskMapSpec("mean_semideviation", lam=0.5),
                                  RiskMapSpec("shortfall", utility=PiecewiseLinearUtility([0.0], [0.5, 2.0]))],
                         ids=lambda s: s.kind)
def test_contraction_trials_in_blocks_match_trial_by_trial(monkeypatch, spec):
    # tables of a sixteenth of a budget of 7 * 32 * 36 cut 60 trials into 9 blocks
    m = builtin_chain("random_seeded", n=12, m=3, seed=5)
    w_hat = 1.0 + np.linspace(0.0, 1.0, 12)
    monkeypatch.setattr(mdp, "BLOCK_ELEMENTS", 7 * 32 * 36)
    calls = []
    monkeypatch.setattr(solver, "risk_table", lambda spec, V, rows: calls.append(len(V)) or risk_table(spec, V, rows))
    stats = measure_contraction(m, spec, w_hat, 60, ball_radius=2.0, seed=3)
    want = contraction_trial_by_trial(m, spec, w_hat, 60, 2.0, 3)
    assert calls == [14] * 8 + [8] and stats.n_pairs == len(want) == 60
    got = (stats.max_ratio, stats.mean_ratio, stats.min_ratio)
    assert got == pytest.approx((want.max(), want.mean(), want.min()), rel=1e-12, abs=0.0)


def test_contraction_neutral_bounded_by_dobrushin_coefficient():
    # rows (0.6, 0.4) and (0.3, 0.7): total-variation distance 0.3 bounds the
    # span-seminorm contraction of the kernel, and random pairs approach it
    stats = measure_contraction(builtin_chain("biased2"), NEUTRAL, np.ones(2), 500, seed=1)
    assert stats.max_ratio <= 0.3 + 1e-12
    assert stats.max_ratio >= 0.25


@pytest.mark.parametrize("n_trials, ball_radius, words", [
    (0, None, "n_trials must be at least 1"),
    (-1, None, "n_trials must be at least 1"),
    (10, float("nan"), "ball_radius must be finite and > 0"),
    (10, float("inf"), "ball_radius must be finite and > 0"),
    (10, 0.0, "ball_radius must be finite and > 0"),
])
def test_contraction_measurement_rejects_what_it_cannot_measure(n_trials, ball_radius, words):
    # zero trials used to report a max ratio of 0, and a NaN radius a NaN one
    with pytest.raises(ValueError, match=words):
        measure_contraction(builtin_chain("biased2"), NEUTRAL, np.ones(2), n_trials, ball_radius=ball_radius)


def test_contraction_respects_ball_radius():
    m = builtin_chain("random_seeded", n=4, m=2, seed=19)
    stats = measure_contraction(m, ENTROPIC, np.ones(4), 200, ball_radius=0.5, seed=2)
    assert stats.n_pairs > 0
    assert stats.max_ratio < 1.0
