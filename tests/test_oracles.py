from pathlib import Path

import numpy as np
import pytest

from riskmdp.cli import build_model
from riskmdp.mdp import FiniteMCP, PolicyVector, policy_transition_and_cost
from riskmdp.models import builtin_chain
from riskmdp.oracles import (
    OracleResult,
    entropic_spectral_rho,
    enumerate_policies,
    is_primitive,
    neutral_average_cost,
    policy_table_to_csv,
    static_total_cost_risk,
    total_cost_law,
)
from riskmdp.risk import RiskMapSpec
from riskmdp.solver import SolveConfig, finite_horizon_risk, relative_value_iteration


# --- primitivity -------------------------------------------------------------


def test_is_primitive_positive_matrix():
    assert is_primitive(np.full((3, 3), 1 / 3))


def test_is_primitive_rejects_identity():
    assert not is_primitive(np.eye(3))


def test_is_primitive_rejects_periodic_cycle():
    P = np.roll(np.eye(4), 1, axis=1)
    assert not is_primitive(P)


def test_is_primitive_wielandt_worst_case():
    # cycle plus a single chord: primitive, but only at high powers
    n = 5
    P = np.roll(np.eye(n), 1, axis=1)
    P[n - 1, 1] = 1.0
    P[n - 1] /= P[n - 1].sum()
    assert is_primitive(P)


# --- entropic spectral oracle --------------------------------------------------


def test_spectral_uniform2_closed_form():
    m = builtin_chain("uniform2")
    P, c = policy_transition_and_cost(m, PolicyVector.det([0, 0]))
    res = entropic_spectral_rho(P, c, 1.0)
    assert res.rho == pytest.approx(np.log(0.5 * (1.0 + np.e)), abs=1e-12)
    assert res.h[0] == 0.0


def test_spectral_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(10):
        P = rng.uniform(0.05, 1.0, size=(5, 5))
        P /= P.sum(axis=1, keepdims=True)
        c = rng.uniform(0.0, 2.0, size=5)
        lam = rng.uniform(0.2, 2.0)
        res = entropic_spectral_rho(P, c, lam)
        M = np.exp(lam * c)[:, None] * P
        r = max(np.linalg.eigvals(M).real)
        assert res.rho == pytest.approx(np.log(r) / lam, abs=1e-10)


def test_spectral_satisfies_multiplicative_poisson():
    m = builtin_chain("random_seeded", n=6, m=1, seed=21)
    P, c = policy_transition_and_cost(m, PolicyVector.det([0] * 6))
    res = entropic_spectral_rho(P, c, 0.7)
    phi = np.exp(0.7 * res.h)
    lhs = np.exp(0.7 * res.rho) * phi
    rhs = np.exp(0.7 * c) * (P @ phi)
    assert np.allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize("lam", [1.0, -1.0])
@pytest.mark.parametrize("n", [20, 60])
def test_spectral_bracket_bounds_the_perron_root_on_a_lazy_ring(n, lam):
    # stay 1/2, each neighbour 1/4, cost 1 on the first half: the largest
    # entry of M phi settles long before phi does
    P = 0.5 * np.eye(n) + 0.25 * (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))
    c = (np.arange(n) < n // 2).astype(float)
    res = entropic_spectral_rho(P, c, lam)
    want = np.log(np.max(np.abs(np.linalg.eigvals(np.exp(lam * c)[:, None] * P)))) / lam
    assert 0.0 < res.error_bound <= 1e-13
    assert abs(res.rho - want) <= res.error_bound + 1e-14


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_spectral_costs_past_the_exp_range_shift_out(lam):
    # lam c reaches 1011, past exp's overflow at about 709: rho moves with
    # the costs, so the ring with costs 1001..1011 is the one with 1..11
    # plus 1000
    n = 20
    P = 0.5 * np.eye(n) + 0.25 * (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))
    c = np.linspace(1001.0, 1011.0, n)
    res = entropic_spectral_rho(P, c, lam)
    base = entropic_spectral_rho(P, c - 1000.0, lam)
    assert abs(res.rho - (base.rho + 1000.0)) <= res.error_bound + base.error_bound + 1e-12
    assert np.allclose(res.h, base.h, rtol=0.0, atol=1e-9)
    if lam == 1.0:
        assert res.rho == pytest.approx(1010.5276600877029, abs=res.error_bound + 1e-12)  # Perron root by eigvals


@pytest.mark.parametrize("P, c", [
    (np.array([[0.5, np.nan], [0.5, 0.5]]), np.zeros(2)),
    (np.full((2, 2), 0.5), np.array([0.0, np.inf])),
    (np.full((2, 2), 0.5), np.array([np.nan, 0.0])),
])
def test_spectral_rejects_non_finite_inputs(P, c):
    with pytest.raises(ValueError, match="finite"):
        entropic_spectral_rho(P, c, 1.0)


def test_spectral_underflow_fails_fast():
    # costs 0 and 1000 at lam 1: e^{lam c - s} underflows to 0 on the cheap
    # state, so M phi has a zero entry at the first step
    with pytest.raises(FloatingPointError, match="step 1"):
        entropic_spectral_rho(np.full((2, 2), 0.5), np.array([0.0, 1000.0]), 1.0)


def test_spectral_rejects_periodic_chain():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        entropic_spectral_rho(P, np.array([1.0, 0.0]), 1.0)


def test_spectral_rejects_zero_lambda():
    with pytest.raises(ValueError):
        entropic_spectral_rho(np.full((2, 2), 0.5), np.zeros(2), 0.0)


# --- neutral stationary oracle ----------------------------------------------------


def test_neutral_uniform2():
    m = builtin_chain("uniform2")
    P, c = policy_transition_and_cost(m, PolicyVector.det([0, 0]))
    assert neutral_average_cost(P, c).rho == pytest.approx(0.5, abs=1e-14)


def test_neutral_biased2_hand_value():
    m = builtin_chain("biased2")
    P, c = policy_transition_and_cost(m, PolicyVector.det([0, 0]))
    assert neutral_average_cost(P, c).rho == pytest.approx(4.0 / 7.0, abs=1e-13)


def test_neutral_ring_uniform_stationary():
    m = builtin_chain("ring", n=6)
    P, c = policy_transition_and_cost(m, PolicyVector.det([0] * 6))
    assert neutral_average_cost(P, c).rho == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_neutral_bias_solves_poisson_equation():
    m = builtin_chain("random_seeded", n=7, m=1, seed=22)
    P, c = policy_transition_and_cost(m, PolicyVector.det([0] * 7))
    res = neutral_average_cost(P, c, reference_state=3)
    assert res.h[3] == 0.0
    assert np.allclose(res.h + res.rho, c + P @ res.h, atol=1e-10)
    assert res.error_bound < 1e-10


def test_neutral_accepts_primitive_grid_chain_with_a_tiny_corner_mass():
    # The neutral greedy chain of x' = 0.5 x +- 0.5 e1 + W on a 21x21 grid
    # is primitive (every entry >= 5.6e-25), but the stationary mass of the
    # corner state 0 is 3e-11, so a Poisson system pinned there is
    # ill-conditioned; the fundamental matrix is not.
    eye = np.eye(2).tolist()
    model = {"diffusion": {"dim": 2, "A": [[0.5, 0.0], [0.0, 0.5]], "actions": ["left", "right"],
                           "drift": {"left": [-0.5, 0.0], "right": [0.5, 0.0]},
                           "diffusion": {"left": eye, "right": eye},
                           "gamma_tilde": 0.25, "drift_bound": 0.2500001, "ellipticity": 1.0},
             "grid": {"points": 21, "extent": 5.0},
             "cost": {"form": "power", "c0": 0.1, "q": 0.5, "w1": {"entropic_w1": {"gamma": 0.5}}}}
    mcp, _ = build_model({"model": model}, Path("."))
    res = relative_value_iteration(mcp, RiskMapSpec("neutral"), SolveConfig(tol=1e-9))
    P, c = policy_transition_and_cost(mcp, res.policy)
    assert is_primitive(P)
    orc = neutral_average_cost(P, c)
    assert orc.error_bound < 1e-12
    assert res.rho_lower <= orc.rho <= res.rho_upper
    assert abs(orc.rho - res.rho) <= 1e-9
    assert orc.h[0] == 0.0 and np.max(np.abs(orc.h - res.h)) < 1e-8
    assert np.max(np.abs(c + P @ orc.h - orc.h - orc.rho)) < 1e-12


def test_neutral_rejects_reducible_chain():
    P = np.eye(2)
    with pytest.raises(ValueError):
        neutral_average_cost(P, np.array([0.0, 1.0]))


# --- policy enumeration ------------------------------------------------------------


def test_enumeration_matches_rvi_optimum_neutral():
    m = builtin_chain("random_seeded", n=4, m=3, seed=23)
    enum = enumerate_policies(m, RiskMapSpec("neutral"))
    res = relative_value_iteration(m, RiskMapSpec("neutral"), SolveConfig(tol=1e-12))
    assert len(enum.table) == 3**4
    assert enum.best_rho == pytest.approx(res.rho, abs=1e-9)
    assert enum.best_rho <= min(rho for _, rho in enum.table) + 1e-15


def test_enumeration_matches_rvi_optimum_entropic():
    m = builtin_chain("random_seeded", n=3, m=2, seed=24)
    spec = RiskMapSpec("entropic", lam=0.8)
    enum = enumerate_policies(m, spec)
    res = relative_value_iteration(m, spec, SolveConfig(tol=1e-12))
    assert enum.best_rho == pytest.approx(res.rho, abs=1e-9)
    assert res.policy.deterministic.tolist() == list(enum.best_policy.deterministic)


def test_enumeration_fixed_policy_route_for_band():
    m = builtin_chain("random_seeded", n=3, m=2, seed=25)
    spec = RiskMapSpec("density_band", band=(0.5, 1.5))
    enum = enumerate_policies(m, spec)
    res = relative_value_iteration(m, spec, SolveConfig(tol=1e-11))
    assert enum.best_rho <= res.rho + 1e-8
    assert enum.best_rho == pytest.approx(res.rho, abs=1e-7)


def test_enumeration_records_each_policy_route():
    m = builtin_chain("random_seeded", n=2, m=2, seed=28)
    for spec, route in ((RiskMapSpec("neutral"), "stationary"), (RiskMapSpec("entropic", lam=0.5), "spectral"),
                        (RiskMapSpec("mean_semideviation", lam=0.5), "rvi")):
        enum = enumerate_policies(m, spec)
        assert len(enum.table) == 4 and enum.routes == [route] * 4


def test_enumeration_budget_enforced():
    m = builtin_chain("random_seeded", n=6, m=3, seed=26)
    with pytest.raises(ValueError):
        enumerate_policies(m, RiskMapSpec("neutral"), budget=100)


def test_policy_table_csv_layout(tmp_path):
    m = builtin_chain("random_seeded", n=2, m=2, seed=27)
    enum = enumerate_policies(m, RiskMapSpec("neutral"))
    out = tmp_path / "table.csv"
    policy_table_to_csv(enum, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "policy_id,action_per_state,rho"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "0;0"
    assert float(first[2]) == enum.table[0][1]


# --- exact path enumeration ----------------------------------------------------------


def test_total_cost_law_is_a_probability_law():
    m = builtin_chain("random_seeded", n=3, m=2, seed=28)
    laws = total_cost_law(m, PolicyVector.det([1, 0, 1]), T=4)
    assert len(laws) == 3
    for probs, costs in laws:
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0)
        assert len(probs) == len(costs)


def test_total_cost_law_expectation_matches_neutral_horizon():
    m = builtin_chain("random_seeded", n=3, m=2, seed=29)
    pi = PolicyVector.det([0, 1, 0])
    T = 5
    laws = total_cost_law(m, pi, T)
    expect = np.array([probs @ costs for probs, costs in laws])
    nested = finite_horizon_risk(m, RiskMapSpec("neutral"), [pi] * (T + 1), T)
    assert np.allclose(expect, nested, atol=1e-10)


def test_total_cost_law_prunes_impossible_paths():
    # deterministic cycle: exactly one path per start state
    P = np.roll(np.eye(3), 1, axis=1)
    m = FiniteMCP(
        actions=[["a"]] * 3,
        transition=[P[i : i + 1] for i in range(3)],
        cost=[np.array([float(i)]) for i in range(3)],
    )
    laws = total_cost_law(m, PolicyVector.det([0, 0, 0]), T=4)
    for x0, (probs, costs) in enumerate(laws):
        assert len(probs) == 1
        assert probs[0] == 1.0
        # five stage costs along the deterministic orbit
        orbit = [(x0 + t) % 3 for t in range(5)]
        assert costs[0] == pytest.approx(sum(float(s) for s in orbit))


def test_total_cost_law_budget_and_policy_guards():
    m = builtin_chain("random_seeded", n=4, m=2, seed=30)
    with pytest.raises(ValueError):
        total_cost_law(m, PolicyVector.det([0] * 4), T=3, budget=10)
    mix = PolicyVector.rand([np.array([0.5, 0.5])] * 4)
    with pytest.raises(ValueError):
        total_cost_law(m, mix, T=2)


def test_entropic_nesting_collapses_to_static():
    # the entropic map is the one kind whose nested and one-shot total-cost
    # evaluations agree exactly
    m = builtin_chain("random_seeded", n=3, m=2, seed=31)
    pi = PolicyVector.det([1, 1, 0])
    lam = 0.6
    T = 5
    static = static_total_cost_risk(m, pi, RiskMapSpec("entropic", lam=lam), T)
    nested = finite_horizon_risk(m, RiskMapSpec("entropic", lam=lam), [pi] * (T + 1), T)
    assert np.allclose(static, nested, atol=1e-12)


def test_static_risk_general_kinds_run_on_the_law():
    m = builtin_chain("random_seeded", n=3, m=1, seed=32)
    pi = PolicyVector.det([0, 0, 0])
    spec = RiskMapSpec("mean_semideviation", lam=0.9, r=2)
    static = static_total_cost_risk(m, pi, spec, T=3)
    neutral = static_total_cost_risk(m, pi, RiskMapSpec("neutral"), T=3)
    assert np.all(static >= neutral - 1e-12)


def test_static_band_on_a_long_law_matches_the_distortion_form():
    # T = 8 is 4^8 = 65536 outcomes per start state, one long row each:
    # the band's running sums must not grow as the square of the law
    m = builtin_chain("random_seeded", n=4, m=2, seed=3)
    pi = PolicyVector.det([0, 1, 0, 1])
    static = static_total_cost_risk(m, pi, RiskMapSpec("density_band", band=(0.5, 1.5)), T=8)
    for got, (probs, costs) in zip(static, total_cost_law(m, pi, 8)):
        assert len(costs) == 4 ** 8
        order = np.argsort(-costs)
        C = np.concatenate(([0.0], np.cumsum(probs[order])))
        assert got == pytest.approx(costs[order] @ np.diff(np.minimum(1.5 * C, 0.5 * C + 0.5)), abs=1e-12)


def test_semideviation_nested_differs_from_static():
    # unlike the entropic case, recursive composition genuinely changes the
    # number for the semideviation map
    m = builtin_chain("uniform2")
    pi = PolicyVector.det([0, 0])
    spec = RiskMapSpec("mean_semideviation", lam=0.9, r=2)
    T = 2
    static = static_total_cost_risk(m, pi, spec, T)
    nested = finite_horizon_risk(m, spec, [pi] * (T + 1), T)
    assert np.max(np.abs(static - nested)) >= 1e-3
