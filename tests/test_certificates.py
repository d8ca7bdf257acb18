import math
from pathlib import Path

import numpy as np
import pytest

from riskmdp import certificates
from riskmdp.certificates import (
    DEFAULT_GAMMA_GRID,
    check_l2,
    contraction_certificate,
    doeblin_minorization,
    entropic_envelope_minorization,
    fit_lyapunov,
    invariant_bound_K,
    local_doeblin,
    map_minorization_factor,
)
from riskmdp.cli import build_model
from riskmdp.mdp import FiniteMCP
from riskmdp.models import builtin_chain, diffusion_entropic_weight
from riskmdp.risk import PiecewiseLinearUtility, RiskMapSpec, risk_values

NEUTRAL = RiskMapSpec("neutral")
ENTROPIC = RiskMapSpec("entropic", lam=1.0)


def chain3():
    """Three states with linearly growing weight and known drift residuals."""
    rows = [
        np.array([[0.5, 0.5, 0.0]]),
        np.array([[0.5, 0.0, 0.5]]),
        np.array([[0.25, 0.0, 0.75]]),
    ]
    return FiniteMCP(
        actions=[["a"]] * 3,
        transition=rows,
        cost=[np.zeros(1)] * 3,
    )


# --- drift fitting ------------------------------------------------------------


def test_fit_lyapunov_hand_chain_picks_smallest_tied_gamma():
    # residuals K0(g) = max(1, 2 - 2g, 3 - 4g): minimized at 1 for every
    # g >= 0.5, so the fit must report gamma0 = 0.5 exactly
    cert = fit_lyapunov(chain3(), NEUTRAL, np.array([0.0, 2.0, 4.0]))
    assert cert.satisfied
    assert cert.gamma0 == 0.5
    assert cert.K0 == pytest.approx(1.0, abs=1e-12)
    assert cert.gamma_grid == DEFAULT_GAMMA_GRID
    assert len(cert.K0_by_gamma) == len(DEFAULT_GAMMA_GRID)


def test_fit_lyapunov_inequality_holds_at_fit():
    rng = np.random.default_rng(5)
    for seed in range(4):
        m = builtin_chain("random_seeded", n=5, m=2, seed=seed)
        w0 = rng.uniform(0.0, 3.0, size=5)
        for spec in (NEUTRAL, ENTROPIC):
            cert = fit_lyapunov(m, spec, w0)
            assert cert.satisfied
            up = m.stacked_cost + risk_values(spec, w0, m.stacked_transition)
            down = -(m.stacked_cost + risk_values(spec, -w0, m.stacked_transition))
            state_of_row = np.repeat(np.arange(5), [m.n_actions(x) for x in range(5)])
            bound = cert.gamma0 * w0[state_of_row] + cert.K0
            assert np.all(np.maximum(up, down) <= bound + 1e-9)


def test_fit_lyapunov_worst_pair_attains_K0():
    m = builtin_chain("random_seeded", n=4, m=3, seed=9)
    w0 = np.array([0.0, 1.0, 2.0, 3.0])
    cert = fit_lyapunov(m, ENTROPIC, w0)
    x, a = cert.worst_pair
    row = m.transition[x][a]
    c = m.cost[x][a]
    up = c + math.log(float(row @ np.exp(w0)))
    down = -(c + math.log(float(row @ np.exp(-w0))))
    assert max(up, down) - cert.gamma0 * w0[x] == pytest.approx(cert.K0, abs=1e-10)


def test_fit_lyapunov_worst_pair_is_the_first_of_rounding_ties():
    # Row 1's residual is one ulp above row 0's: a rounding tie.  The pair
    # is the first of them; K0 stays the true maximum.
    top = 1.0 + 2.0**-52
    m = builtin_chain("uniform2").with_cost([np.array([1.0]), np.array([top])])
    cert = fit_lyapunov(m, NEUTRAL, np.zeros(2))
    assert cert.worst_pair == (0, 0)
    assert cert.K0 == top


def test_fit_lyapunov_infinite_weight_is_unsatisfied():
    cert = fit_lyapunov(builtin_chain("uniform2"), ENTROPIC, np.array([0.0, np.inf]))
    assert not cert.satisfied
    assert cert.K0 == math.inf


def test_fit_lyapunov_infinite_weight_evaluates_no_risk_map(monkeypatch):
    # the risk kernels take finite values only, so an infinite w0 is settled first
    def no_kernel(*args):
        raise AssertionError("a risk map was evaluated")

    monkeypatch.setattr(certificates, "risk_values", no_kernel)
    cert = fit_lyapunov(builtin_chain("uniform2"), ENTROPIC, np.array([0.0, np.inf]), gamma_grid=[0.3, 0.6])
    assert (cert.satisfied, cert.gamma0, cert.K0, cert.worst_pair) == (False, 0.3, math.inf, None)
    assert cert.K0_by_gamma == (math.inf, math.inf)


def test_fit_lyapunov_zero_residual_hits_floor():
    m = builtin_chain("uniform2").with_cost([np.zeros(1), np.zeros(1)])
    cert = fit_lyapunov(m, NEUTRAL, np.zeros(2))
    assert cert.satisfied
    assert cert.K0 == 1e-12


def test_fit_lyapunov_state_restriction_can_shrink_K0():
    m = chain3()
    w0 = np.array([0.0, 2.0, 4.0])
    full = fit_lyapunov(m, NEUTRAL, w0)
    inner = fit_lyapunov(m, NEUTRAL, w0, states=np.array([0]))
    assert inner.satisfied
    assert inner.K0 <= full.K0 + 1e-15
    assert inner.worst_pair[0] == 0


def test_fit_lyapunov_K0_never_increases_with_gamma_so_gamma0_is_the_top():
    # the benchmark's 1-D 201-point diffusion with w0 = 1 + its entropic weight
    dyn = {"dim": 1, "A": [[0.5]], "actions": ["left", "right"],
           "drift": {"left": [-0.5], "right": [0.5]}, "diffusion": {"left": [[1.0]], "right": [[1.0]]},
           "gamma_tilde": 0.25, "drift_bound": 0.2500001, "ellipticity": 1.0}
    w1 = {"entropic_w1": {"gamma": 0.5}}
    m, meta = build_model({"model": {"diffusion": dyn, "grid": {"points": 201, "extent": 5.0},
                                     "cost": {"form": "power", "c0": 0.1, "q": 0.5, "w1": w1}}}, Path("."))
    w0 = 1.0 + diffusion_entropic_weight(meta["grid"], 0.5, meta["diffusion"])[0]
    for spec in (NEUTRAL, ENTROPIC, RiskMapSpec("density_band", band=(0.5, 1.5)),
                 RiskMapSpec("mean_semideviation", lam=0.5, r=2.0),
                 RiskMapSpec("shortfall", utility=PiecewiseLinearUtility([0.0], [0.5, 2.0]))):
        cert = fit_lyapunov(m, spec, w0)
        assert np.all(np.diff(cert.K0_by_gamma) <= 0.0), spec.kind
        assert cert.gamma0 == 0.95


def test_fit_lyapunov_input_validation():
    m = builtin_chain("uniform2")
    with pytest.raises(ValueError):
        fit_lyapunov(m, NEUTRAL, np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        fit_lyapunov(m, NEUTRAL, np.zeros(2), gamma_grid=[0.0, 0.5])
    with pytest.raises(ValueError, match=r"gamma_grid must be nonempty and lie in \(0, 1\), got \[\]"):
        fit_lyapunov(m, NEUTRAL, np.zeros(2), gamma_grid=[])
    with pytest.raises(ValueError, match="w0 must be nonnegative, got nan at state 1"):
        fit_lyapunov(m, NEUTRAL, np.array([0.0, np.nan]))


def test_fit_lyapunov_nan_cost_row_fails_the_fit():
    # the NaN row's residual used to be skipped, and the fit came back satisfied
    m = builtin_chain("random_seeded", n=4, m=2, seed=0)
    cert = fit_lyapunov(m.with_cost(np.where(np.arange(len(m.stacked_cost)) == 3, np.nan, m.stacked_cost)),
                        NEUTRAL, np.arange(4.0))
    assert (cert.satisfied, cert.K0, cert.worst_pair) == (False, math.inf, None)
    assert not np.any(np.isfinite(cert.K0_by_gamma))


# --- state subsets ------------------------------------------------------------

W4 = np.arange(4.0)
SUBSET_READERS = {
    "doeblin_minorization": (doeblin_minorization, "subset"),
    "local_doeblin": (local_doeblin, "subset"),
    "fit_lyapunov": (lambda m, s: fit_lyapunov(m, NEUTRAL, W4, states=s), "states"),
    "check_l2": (lambda m, s: check_l2(m, NEUTRAL, W4, K0=1.0, K=1.0, B0=s, n_samples=20), "B0"),
    "entropic_envelope_minorization": (lambda m, s: entropic_envelope_minorization(m, s, 1.0, W4), "subset"),
}


@pytest.mark.parametrize("subset", [[5], [4], [-1], [0, 2, 0], [1.5], [1.0], [True], [[0, 1]], 2],
                         ids=["above", "n", "negative", "repeated", "fraction", "float", "bool", "2-d", "scalar"])
@pytest.mark.parametrize("reader", list(SUBSET_READERS))
def test_every_subset_reader_rejects_what_is_not_distinct_states(reader, subset):
    # out of range, negative, repeated, non-integer and boolean subsets used
    # to certify alpha = inf, read state 1 for 1.5, or fail deep inside numpy
    call, name = SUBSET_READERS[reader]
    with pytest.raises(ValueError, match=rf"^{name} must be nonempty distinct whole state indices in \[0, 4\), got "):
        call(builtin_chain("random_seeded", n=4, m=2, seed=0), subset)


@pytest.mark.parametrize("reader", [r for r in SUBSET_READERS if r != "check_l2"])
def test_subset_readers_reject_an_empty_subset(reader):
    call, name = SUBSET_READERS[reader]
    with pytest.raises(ValueError, match=rf"^{name} must be nonempty"):
        call(builtin_chain("random_seeded", n=4, m=2, seed=0), [])


# --- minorization -------------------------------------------------------------


def test_doeblin_biased2_hand_values():
    cert = doeblin_minorization(builtin_chain("biased2"), [0, 1])
    assert cert.satisfied
    assert cert.alpha == pytest.approx(0.7, abs=1e-15)
    assert np.allclose(cert.mu, [3.0 / 7.0, 4.0 / 7.0])
    assert cert.mu.sum() == pytest.approx(1.0, abs=1e-15)


def test_doeblin_minorization_inequality_holds():
    m = builtin_chain("random_seeded", n=6, m=2, seed=40)
    subset = np.array([1, 3, 4])
    cert = doeblin_minorization(m, subset)
    assert cert.satisfied
    floor = cert.alpha * cert.mu
    for x in subset:
        for a in range(m.n_actions(x)):
            assert np.all(m.transition[x][a] >= floor - 1e-12)


def test_doeblin_disjoint_support_unsatisfied():
    m = FiniteMCP(
        actions=[["a"], ["a"]],
        transition=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
        cost=[np.zeros(1)] * 2,
    )
    cert = doeblin_minorization(m, [0, 1])
    assert not cert.satisfied
    assert cert.alpha == 0.0
    assert cert.mu is None


def test_doeblin_mass_of_a_row_that_sums_above_one_is_one():
    # this row sums to 1 + 2.2e-16 in floating point; a mass above 1 would
    # make the coherent ball radius a ValueError
    m = builtin_chain("random_seeded", n=5, m=1, seed=196)
    assert m.stacked_transition[3].sum() > 1.0
    cert = doeblin_minorization(m, [3])
    assert cert.alpha == 1.0 and cert.mu.sum() == pytest.approx(1.0, abs=1e-15)
    assert invariant_bound_K("coherent", K0=1.0, alpha=cert.alpha) == 1.0


def test_doeblin_empty_subset_rejected():
    with pytest.raises(ValueError):
        doeblin_minorization(builtin_chain("uniform2"), [])


def test_local_doeblin_biased2_hand_values():
    cert = local_doeblin(builtin_chain("biased2"), [0, 1])
    assert cert.satisfied
    assert cert.lambda_minus == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert cert.lambda_plus == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_local_doeblin_sandwich_holds_on_subset():
    m = builtin_chain("random_seeded", n=6, m=2, seed=41)
    subset = np.array([0, 2, 5])
    cert = local_doeblin(m, subset)
    assert cert.satisfied
    mu = cert.mu[subset]
    for x in subset:
        for a in range(m.n_actions(x)):
            block = m.transition[x][a][subset]
            assert np.all(block >= cert.lambda_minus * mu - 1e-12)
            assert np.all(block <= cert.lambda_plus * mu + 1e-12)
    # off-subset entries of the stored measure are zero
    off = np.setdiff1d(np.arange(6), subset)
    assert np.all(cert.mu[off] == 0.0)


def test_local_doeblin_absolute_continuity_failure():
    m = FiniteMCP(
        actions=[["a"], ["a"]],
        transition=[np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])],
        cost=[np.zeros(1)] * 2,
    )
    cert = local_doeblin(m, [0, 1])
    assert not cert.satisfied
    assert cert.lambda_minus == 0.0


# --- invariant ball radius -----------------------------------------------------


def test_invariant_bound_hand_values():
    assert invariant_bound_K("coherent", K0=1.0, alpha=0.7) == pytest.approx(1.0 / 0.7)
    got = invariant_bound_K("entropic", K0=1.0, lambda_minus=0.5, lambda_plus=1.0)
    assert got == pytest.approx(1.0 + 0.5 * math.log(2.0) + math.log(2.0), abs=1e-15)
    assert invariant_bound_K("shortfall", K0=1.0, alpha=0.5, l=0.5, L=2.0) == pytest.approx(8.0)


def test_invariant_bound_validation():
    for kind, args, words in [
        ("coherent", {"K0": 0.0, "alpha": 0.5}, "K0 must be positive"),
        ("coherent", {"alpha": 0.0}, r"alpha in \(0, 1\]"),
        ("entropic", {"lambda_minus": 0.0, "lambda_plus": 1.0}, "lambda_plus >= lambda_minus > 0"),
        ("shortfall", {"alpha": 0.5, "l": 0.0, "L": 1.0}, "slopes 0 < l <= L"),
        ("total_variation", {"alpha": 0.5}, "unknown invariant bound kind"),
        # each case below used to return a number its message rules out:
        # 0.653 below K0, NaN, or a radius from a mass above 1
        ("entropic", {"lambda_minus": 2.0, "lambda_plus": 1.0}, "lambda_plus >= lambda_minus > 0"),
        ("entropic", {"lambda_minus": math.nan, "lambda_plus": 1.0}, "lambda_plus >= lambda_minus > 0"),
        ("entropic", {"lambda_minus": 0.5, "lambda_plus": math.nan}, "lambda_plus >= lambda_minus > 0"),
        ("coherent", {"alpha": math.nan}, r"alpha in \(0, 1\]"),
        ("coherent", {"alpha": 1.5}, r"alpha in \(0, 1\]"),
        ("coherent", {"K0": math.nan, "alpha": 0.5}, "K0 must be positive"),
        ("shortfall", {"alpha": 0.5, "l": 2.0, "L": 1.0}, "slopes 0 < l <= L"),
        ("shortfall", {"alpha": 0.5, "l": math.nan, "L": 1.0}, "slopes 0 < l <= L"),
        ("shortfall", {"alpha": math.nan, "l": 0.5, "L": 1.0}, r"alpha in \(0, 1\]"),
    ]:
        with pytest.raises(ValueError, match=words):
            invariant_bound_K(kind, **{"K0": 1.0, **args})


def test_map_minorization_factor_values():
    assert map_minorization_factor(NEUTRAL) == 1.0
    assert map_minorization_factor(RiskMapSpec("density_band", band=(0.5, 1.5))) == 0.5
    assert map_minorization_factor(RiskMapSpec("density_band", band=(0.0, 2.0))) == 0.0
    assert map_minorization_factor(RiskMapSpec("mean_semideviation", lam=0.3, r=2)) == pytest.approx(0.7)
    assert map_minorization_factor(RiskMapSpec("mean_semideviation", lam=-0.4, r=1)) == pytest.approx(0.6)
    assert map_minorization_factor(RiskMapSpec("mean_semideviation", lam=1.0, r=1)) == 0.0
    with pytest.raises(ValueError):
        map_minorization_factor(ENTROPIC)
    with pytest.raises(ValueError):
        map_minorization_factor(RiskMapSpec("shortfall"))
    # lam < 0 with r > 1 is not monotone, so no positive factor holds
    with pytest.raises(ValueError, match="not monotone"):
        map_minorization_factor(RiskMapSpec("mean_semideviation", lam=-0.4, r=2))


def test_map_minorization_factor_bounds_monotone_differences():
    # For v >= u the map's difference should dominate factor * alpha * mu[v-u].
    rng = np.random.default_rng(7)
    m = builtin_chain("random_seeded", n=5, m=2, seed=9)
    base = doeblin_minorization(m, np.arange(5))
    rows = m.stacked_transition
    for spec in (
        RiskMapSpec("density_band", band=(0.4, 1.6)),
        RiskMapSpec("mean_semideviation", lam=0.5, r=2),
        RiskMapSpec("mean_semideviation", lam=0.5, r=1),
        RiskMapSpec("mean_semideviation", lam=-0.5, r=1),
    ):
        floor = map_minorization_factor(spec) * base.alpha
        for _ in range(200):
            u = rng.normal(0.0, 2.0, size=5)
            v = u + np.abs(rng.normal(0.0, 1.5, size=5))
            diff = risk_values(spec, v, rows) - risk_values(spec, u, rows)
            assert np.all(diff >= floor * float(base.mu @ (v - u)) - 1e-9), spec.kind


def test_map_factor_radius_passes_l2_where_kernel_radius_fails():
    # On the biased two-state chain the band map keeps only half the kernel's
    # common mass: the kernel-alpha radius is certifiably too small while the
    # corrected radius has nonnegative slack.
    m = builtin_chain("biased2")
    spec = RiskMapSpec("density_band", band=(0.5, 1.5))
    w0 = np.zeros(2)
    fit = fit_lyapunov(m, spec, w0)
    alpha = doeblin_minorization(m, [0, 1]).alpha
    K_kernel = invariant_bound_K("coherent", K0=fit.K0, alpha=alpha)
    K_map = invariant_bound_K("coherent", K0=fit.K0,
                              alpha=alpha * map_minorization_factor(spec))
    bad = check_l2(m, spec, w0, fit.K0, K_kernel, B0=[0, 1], n_samples=500)
    good = check_l2(m, spec, w0, fit.K0, K_map, B0=[0, 1], n_samples=500)
    assert not bad.passed and bad.min_slack < 0
    assert good.passed and good.min_slack >= 0


# --- contraction constants -------------------------------------------------------


def test_contraction_worked_constants():
    cert = contraction_certificate(
        gamma=0.5, K_bar=1.0, alpha=0.5, R=5.0, w0=np.array([0.0, 1.0]), alpha0=0.25
    )
    assert cert.beta == pytest.approx(0.25)
    assert cert.gamma0 == pytest.approx(0.9)
    assert cert.gamma1 == pytest.approx(3.125 / 3.25, abs=1e-15)
    assert cert.gamma2 == pytest.approx(0.75)
    assert cert.alpha_bar == pytest.approx(3.125 / 3.25, abs=1e-15)
    assert np.allclose(cert.w_hat, [1.0, 1.25])


def test_contraction_default_alpha0_is_half_alpha():
    cert = contraction_certificate(gamma=0.4, K_bar=2.0, alpha=0.6, R=20.0, w0=np.zeros(2))
    assert cert.alpha0 == pytest.approx(0.3)
    assert 0.0 < cert.alpha_bar < 1.0


def test_contraction_small_R_rejected_naming_threshold():
    with pytest.raises(ValueError, match="R too small|too small"):
        contraction_certificate(gamma=0.5, K_bar=1.0, alpha=0.5, R=4.0, w0=np.zeros(2))


def test_contraction_limits_stay_inside_unit_interval():
    # near-full minorization mass, tiny drift rate, huge level: the factor
    # settles at gamma2 = 1 - alpha + alpha0 and stays strictly below one
    cert = contraction_certificate(
        gamma=0.05, K_bar=1.0, alpha=0.999, R=1e6, w0=np.zeros(2), alpha0=0.5
    )
    assert cert.alpha_bar < 1.0
    assert cert.alpha_bar == pytest.approx(0.501)
    assert cert.gamma1 == pytest.approx(cert.gamma0, abs=1e-5)


@pytest.mark.parametrize("w0", [[-5.0, 0.0], [0.0, math.nan]])
def test_contraction_rejects_a_weight_that_is_not_nonnegative(w0):
    # a negative w0 used to give a certificate weight w_hat below 1
    with pytest.raises(ValueError, match="w0 must be nonnegative"):
        contraction_certificate(gamma=0.5, K_bar=1.0, alpha=0.5, R=5.0, w0=w0)


def test_contraction_parameter_validation():
    z = np.zeros(2)
    with pytest.raises(ValueError):
        contraction_certificate(gamma=1.0, K_bar=1.0, alpha=0.5, R=10.0, w0=z)
    with pytest.raises(ValueError):
        contraction_certificate(gamma=0.5, K_bar=0.0, alpha=0.5, R=10.0, w0=z)
    with pytest.raises(ValueError):
        contraction_certificate(gamma=0.5, K_bar=1.0, alpha=1.5, R=10.0, w0=z)
    with pytest.raises(ValueError):
        contraction_certificate(gamma=0.5, K_bar=1.0, alpha=0.5, R=10.0, w0=z, alpha0=0.5)


@pytest.mark.parametrize("field, value, words", [
    ("gamma", float("nan"), "gamma must be in"), ("K_bar", float("nan"), "K_bar must be positive"),
    ("alpha", float("nan"), "alpha must be in"), ("R", float("nan"), "too small"),
    ("R", float("inf"), "alpha_bar=nan is not in"), ("alpha0", float("nan"), "alpha0 must be in"),
])
def test_contraction_non_finite_constants_are_value_errors(field, value, words):
    # each used to slip past a "<=" check and end in a bare AssertionError
    params = {"gamma": 0.5, "K_bar": 1.0, "alpha": 0.5, "R": 10.0, field: value}
    with pytest.raises(ValueError, match=words):
        contraction_certificate(**params, w0=np.zeros(2))


# --- pairwise small-set inequality -------------------------------------------------


def test_check_l2_tight_radius_on_biased2():
    # with w0 = 0 the worst direction is v = (K, -K); slack = 1.4 K - 2 K0,
    # so K = K0 / 0.7 is exactly tight
    m = builtin_chain("biased2")
    K0 = 1.0
    cert = check_l2(m, NEUTRAL, np.zeros(2), K0=K0, K=K0 / 0.7, B0=[0, 1], n_samples=500)
    assert cert.passed
    assert cert.min_slack == pytest.approx(0.0, abs=1e-9)


def test_check_l2_small_radius_fails_with_witness():
    m = builtin_chain("biased2")
    cert = check_l2(m, NEUTRAL, np.zeros(2), K0=1.0, K=1.0, B0=[0, 1], n_samples=500)
    assert not cert.passed
    assert cert.min_slack == pytest.approx(1.4 - 2.0, abs=1e-12)
    v = np.asarray(cert.worst_witness["v"])
    assert np.allclose(np.abs(v), 1.0)
    assert "pair_xa" in cert.worst_witness and "pair_yb" in cert.worst_witness


def test_check_l2_generous_radius_passes_all_kinds():
    m = builtin_chain("random_seeded", n=4, m=2, seed=42)
    w0 = np.array([0.0, 0.5, 1.0, 1.5])
    for spec in (NEUTRAL, ENTROPIC, RiskMapSpec("density_band", band=(0.5, 1.5))):
        cert = check_l2(m, spec, w0, K0=0.01, K=50.0, B0=[0, 1, 2, 3], n_samples=300)
        assert cert.passed, spec.kind
        assert cert.n_samples >= 300


def test_check_l2_keeps_the_first_witness_of_tied_minimal_slacks():
    # Dyadic rows and bounds make every neutral value exact.  w0 is sorted,
    # so the two sign-pattern sets coincide: samples 0-5 repeat as 6-11, and
    # v = (1, -2) (samples 2 and 8) ties v = (-1, 2) (samples 3 and 9) at the
    # minimal slack 2.5 - 2 K0.  The first, sample 2, is the witness.
    m = FiniteMCP([["a"], ["a"]], [[[0.5, 0.5]], [[0.25, 0.75]]], [[0.0], [0.0]])
    cert = check_l2(m, NEUTRAL, np.array([0.0, 1.0]), K0=1.0, K=1.0, B0=[0, 1], n_samples=12)
    assert cert.n_samples == 12
    assert cert.min_slack == 0.5
    assert cert.worst_witness == {"v": [1.0, -2.0], "pair_xa": (0, 0), "pair_yb": (1, 0), "slack": 0.5}


def test_check_l2_witness_is_the_first_of_rounding_ties():
    # States 0 and 2 are mirror images and w0 = 0, so samples 2-5, the sign
    # patterns (+--), (-++), (++-) and (--+), have equal slacks in exact
    # arithmetic; in floating point they split by one ulp.  The first is the
    # witness, and min_slack stays the true minimum.
    a, b = 0.09, 0.3
    c = 1.0 - a - b
    m = FiniteMCP([["a"]] * 3, [[[a, b, c]], [[0.25, 0.5, 0.25]], [[c, b, a]]], [[0.0]] * 3)
    cert = check_l2(m, NEUTRAL, np.zeros(3), K0=0.25, K=2.8, B0=[0, 2], n_samples=16)
    assert cert.worst_witness["v"] == [2.8, -2.8, -2.8]
    assert cert.min_slack == pytest.approx(2.188, rel=1e-14)
    rows = m.stacked_transition[[0, 2]]
    bound = np.full(3, 2.8)
    for v in ([2.8, -2.8, -2.8], [-2.8, 2.8, 2.8], [2.8, 2.8, -2.8], [-2.8, -2.8, 2.8]):
        rv = rows @ np.array(v)
        assert cert.min_slack <= np.min(rows @ bound - rv) + np.min(rv + rows @ bound) - 0.5


@pytest.mark.parametrize("K0, K", [(math.nan, 1.0), (0.0, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                   (1.0, -1.0), (1.0, math.inf)])
def test_check_l2_rejects_constants_it_cannot_check(K0, K):
    # with a NaN K every slack is NaN, and a NaN K0 empties the level set:
    # both used to pass
    m = builtin_chain("random_seeded", n=4, m=2, seed=1)
    for B0 in ([0, 1, 2, 3], []):
        with pytest.raises(ValueError, match="finite K0 > 0 and K >= 0"):
            check_l2(m, NEUTRAL, np.zeros(4), K0=K0, K=K, B0=B0, n_samples=50)


def test_check_l2_rejects_a_negative_sample_count():
    # it used to run the 4 (n + 1) sign patterns alone
    m = builtin_chain("random_seeded", n=4, m=2, seed=1)
    for B0 in ([0, 1, 2, 3], []):
        with pytest.raises(ValueError, match="n_samples >= 0, got -3"):
            check_l2(m, NEUTRAL, np.zeros(4), K0=1.0, K=1.0, B0=B0, n_samples=-3)


@pytest.mark.parametrize("w0", [-1.0, [0.0, -1.0, 0.0, 0.0]])
def test_check_l2_rejects_a_negative_weight(w0):
    # it used to sample the ball of the negative weight and fail the check
    m = builtin_chain("random_seeded", n=4, m=2, seed=0)
    for B0 in ([0, 1], []):
        with pytest.raises(ValueError, match="w0 must be nonnegative, got -1.0 at state"):
            check_l2(m, NEUTRAL, w0, K0=1.0, K=1.0, B0=B0, n_samples=20)


def test_check_l2_empty_subset_vacuous():
    cert = check_l2(builtin_chain("uniform2"), NEUTRAL, np.zeros(2), 1.0, 2.0, B0=[])
    assert cert.passed
    assert cert.n_samples == 0
    assert cert.min_slack == math.inf


# --- envelope minorization ------------------------------------------------------


def test_entropic_envelope_minorization_hand_value():
    m = builtin_chain("biased2")
    cert = entropic_envelope_minorization(m, [0, 1], K=2.0, w=np.ones(2))
    assert cert.satisfied
    assert cert.alpha == pytest.approx(0.7 * math.exp(-4.0), rel=1e-12)
    assert cert.mu.sum() == pytest.approx(1.0)


def test_entropic_envelope_minorization_zero_K_reduces_to_base():
    m = builtin_chain("random_seeded", n=4, m=2, seed=43)
    base = doeblin_minorization(m, [0, 1, 2, 3])
    tilted = entropic_envelope_minorization(m, [0, 1, 2, 3], K=0.0, w=np.ones(4))
    assert tilted.alpha == pytest.approx(base.alpha, rel=1e-12)
    assert np.allclose(tilted.mu, base.mu)


def test_entropic_envelope_minorization_matches_direct_formula():
    m = builtin_chain("random_seeded", n=5, m=2, seed=44)
    w = np.array([0.0, 0.3, 0.8, 1.1, 2.0])
    K = 3.0
    cert = entropic_envelope_minorization(m, [0, 2, 4], K=K, w=w)
    base = doeblin_minorization(m, [0, 2, 4])
    rows = np.vstack([m.transition[x][a] for x in (0, 2, 4) for a in range(m.n_actions(x))])
    direct = base.alpha * float(base.mu @ np.exp(-K * w)) / float((rows @ np.exp(K * w)).max())
    assert cert.alpha == pytest.approx(direct, rel=1e-10)
    assert cert.alpha <= base.alpha


def test_entropic_envelope_minorization_survives_underflowing_tilts():
    # exp(-K w) underflows to 0 on every state: the mass is 0, not a log of 0
    m = builtin_chain("random_seeded", n=5, m=2, seed=1)
    cert = entropic_envelope_minorization(m, np.arange(5), K=1.0, w=np.arange(800.0, 805.0))
    assert cert.alpha == 0.0 and not cert.satisfied
    assert np.all(np.isfinite(cert.mu)) and cert.mu.sum() == pytest.approx(1.0, abs=1e-15)
    # the tilt of mu is relative, so a shift of w leaves it alone
    near = entropic_envelope_minorization(m, np.arange(5), K=1.0, w=np.arange(0.0, 5.0))
    assert np.allclose(cert.mu, near.mu, rtol=1e-12, atol=0.0)


def test_entropic_envelope_minorization_rejects_negative_K():
    with pytest.raises(ValueError):
        entropic_envelope_minorization(builtin_chain("uniform2"), [0, 1], K=-1.0, w=np.ones(2))


@pytest.mark.parametrize("K", [math.nan, math.inf])
def test_entropic_envelope_minorization_rejects_non_finite_K(K):
    # a NaN K used to skip the tilts and report the un-tilted mass
    m = builtin_chain("random_seeded", n=4, m=2, seed=1)
    with pytest.raises(ValueError, match="K must be finite"):
        entropic_envelope_minorization(m, np.arange(4), K=K, w=np.ones(4))


def test_entropic_envelope_minorization_propagates_base_failure():
    m = FiniteMCP(
        actions=[["a"], ["a"]],
        transition=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
        cost=[np.zeros(1)] * 2,
    )
    cert = entropic_envelope_minorization(m, [0, 1], K=1.0, w=np.ones(2))
    assert not cert.satisfied
