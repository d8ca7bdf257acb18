import collections
from pathlib import Path

import numpy as np
import pytest

from riskmdp import solver
from riskmdp.cli import build_model
from riskmdp.mdp import FiniteMCP, PolicyVector, policy_transition_and_cost
from riskmdp.models import DiffusionSpec, GridSpec, QuadraticCost, attach_cost, builtin_chain, discretize_diffusion
from riskmdp.oracles import entropic_spectral_rho, neutral_average_cost
from riskmdp.risk import RiskMapSpec, eval_risk, risk_values
from riskmdp.solver import (
    SolveConfig,
    bellman_F,
    bellman_T,
    finite_horizon_risk,
    measure_contraction,
    poisson_residual,
    relative_value_iteration,
)
from riskmdp.solver import _random_policy

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
    m = uneven_chain()
    v = np.array([0.0, np.nan, 0.0, 0.0])
    vals, greedy = bellman_F(m, NEUTRAL, v)
    assert vals.shape == (4,) and greedy.deterministic.shape == (4,)
    assert np.all(np.isnan(vals))
    assert greedy.deterministic.tolist() == [0, 0, 0, 0]


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


def test_contraction_neutral_bounded_by_dobrushin_coefficient():
    # rows (0.6, 0.4) and (0.3, 0.7): total-variation distance 0.3 bounds the
    # span-seminorm contraction of the kernel, and random pairs approach it
    stats = measure_contraction(builtin_chain("biased2"), NEUTRAL, np.ones(2), 500, seed=1)
    assert stats.max_ratio <= 0.3 + 1e-12
    assert stats.max_ratio >= 0.25


def test_contraction_respects_ball_radius():
    m = builtin_chain("random_seeded", n=4, m=2, seed=19)
    stats = measure_contraction(m, ENTROPIC, np.ones(4), 200, ball_radius=0.5, seed=2)
    assert stats.n_pairs > 0
    assert stats.max_ratio < 1.0
