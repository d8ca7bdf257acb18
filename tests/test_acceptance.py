"""End-to-end acceptance checks tying the solver to its independent oracles.

Each test covers one headline guarantee, prints a single PASS/FAIL summary
line (so the -v run doubles as a checklist), and enforces a wall-clock
budget.  Tolerances are the advertised ones, not tuned-to-pass values.
"""

import math
import time

import numpy as np
import pytest

from riskmdp.certificates import (
    check_l2,
    contraction_certificate,
    doeblin_minorization,
    entropic_envelope_minorization,
    fit_lyapunov,
    invariant_bound_K,
    local_doeblin,
    map_minorization_factor,
)
from riskmdp.mdp import (
    PolicyVector,
    level_set,
    policy_transition_and_cost,
    weighted_seminorm,
)
from riskmdp.models import (
    DiffusionSpec,
    GridSpec,
    PowerCost,
    attach_cost,
    builtin_chain,
    diffusion_entropic_weight,
    discretize_diffusion,
)
from riskmdp.oracles import (
    entropic_spectral_rho,
    enumerate_policies,
    neutral_average_cost,
    static_total_cost_risk,
)
from riskmdp.risk import (
    PiecewiseLinearUtility,
    RiskMapSpec,
    check_axioms_of,
    check_risk_axioms,
    eval_risk,
    risk_table,
)
from riskmdp.solver import (
    SolveConfig,
    bellman_F,
    bellman_T,
    finite_horizon_risk,
    measure_contraction,
    poisson_residual,
    relative_value_iteration,
)

KINKED = PiecewiseLinearUtility([0.0], [0.5, 2.0])

ALL_KINDS = {
    "neutral": RiskMapSpec("neutral"),
    "entropic": RiskMapSpec("entropic", lam=0.7),
    "density_band": RiskMapSpec("density_band", band=(0.5, 1.5)),
    "mean_semideviation": RiskMapSpec("mean_semideviation", lam=0.5, r=2),
    "shortfall": RiskMapSpec("shortfall", utility=KINKED),
}


def report(capsys, num: int, ok: bool, detail: str) -> None:
    """One human-readable verdict line per criterion, emitted before asserts."""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def zero_cost(m):
    return m.with_cost([np.zeros(m.n_actions(x)) for x in range(m.n_states)])


def fixed_policy(m):
    return PolicyVector.det(np.zeros(m.n_states, dtype=np.intp))


# 1 -------------------------------------------------------------------------------


def test_entropic_solver_matches_spectral_oracle_on_seeded_chains(capsys):
    t0 = time.perf_counter()
    lams = (0.25, 1.0, 2.0)
    worst = 0.0
    for seed in range(50):
        n = 2 + (seed % 19)
        lam = lams[seed % 3]
        m = builtin_chain("random_seeded", n=n, m=1, seed=seed)
        res = relative_value_iteration(m, RiskMapSpec("entropic", lam=lam), SolveConfig(tol=1e-12))
        P, c = policy_transition_and_cost(m, fixed_policy(m))
        orc = entropic_spectral_rho(P, c, lam)
        worst = max(worst, abs(res.rho - orc.rho))

    hand = relative_value_iteration(
        builtin_chain("uniform2"), RiskMapSpec("entropic", lam=1.0), SolveConfig(tol=1e-12)
    )
    hand_err = abs(hand.rho - math.log((1.0 + math.e) / 2.0))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-8 and hand_err <= 1e-8 and elapsed < 5.0
    report(capsys, 1, ok,
           f"50 chains max |rho_vi - rho_spectral| = {worst:.3e}, "
           f"hand case err = {hand_err:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert hand_err <= 1e-8
    assert elapsed < 5.0


# 2 -------------------------------------------------------------------------------


def test_neutral_reduction_and_small_lambda_continuity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        m = builtin_chain("random_seeded", n=2 + i, m=1, seed=200 + i)
        res = relative_value_iteration(m, RiskMapSpec("neutral"), SolveConfig(tol=1e-12))
        P, c = policy_transition_and_cost(m, fixed_policy(m))
        worst = max(worst, abs(res.rho - neutral_average_cost(P, c).rho))

    lam = 1e-3
    rho_lam = relative_value_iteration(
        builtin_chain("uniform2"), RiskMapSpec("entropic", lam=lam), SolveConfig(tol=1e-12)
    ).rho
    gap = rho_lam - 0.5
    gap_err = abs(gap - lam / 8.0)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and abs(gap) <= 1.5e-4 and gap_err <= 1e-10 and elapsed < 1.0
    report(capsys, 2, ok,
           f"neutral max err = {worst:.3e}, entropic gap at lam=1e-3 is {gap:.6e} "
           f"(|gap - lam/8| = {gap_err:.2e}), {elapsed:.2f}s")
    assert worst <= 1e-10
    assert abs(gap) <= 1.5e-4
    assert gap_err <= 1e-10
    assert elapsed < 1.0


# 3 -------------------------------------------------------------------------------


def test_optimal_average_risk_matches_policy_enumeration(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    via_rvi = set()
    for name, spec in ALL_KINDS.items():
        for i in range(20):
            m = builtin_chain("random_seeded", n=2 + (i % 3), m=2 + (i % 2), seed=100 + i)
            res = relative_value_iteration(m, spec, SolveConfig(tol=1e-9))
            enum = enumerate_policies(m, spec, tol=1e-9)
            worst = max(worst, abs(res.rho - enum.best_rho))
            if "rvi" in enum.routes:
                via_rvi.add(name)
    elapsed = time.perf_counter() - t0
    independent = [name for name in ALL_KINDS if name not in via_rvi]

    ok = worst <= 1e-6 and elapsed < 30.0
    report(capsys, 3, ok,
           f"5 kinds x 20 chains max |rho_vi - rho_enum| = {worst:.3e}, {elapsed:.2f}s; "
           f"checked without RVI: {', '.join(independent) or 'none'}")
    assert worst <= 1e-6
    assert elapsed < 30.0


# 4 -------------------------------------------------------------------------------


def test_measured_contraction_ratios_stay_below_certificate(capsys):
    t0 = time.perf_counter()
    worked = contraction_certificate(
        gamma=0.5, K_bar=1.0, alpha=0.5, R=5.0, w0=np.zeros(2), alpha0=0.25
    )
    worked_ok = round(worked.alpha_bar, 6) == 0.961538

    neutral = RiskMapSpec("neutral")
    margins = []

    # Two-state chain with a nontrivial weight: the certificate is loose but
    # must still dominate the sampled ratios.
    m = builtin_chain("biased2")
    w0 = np.array([0.0, 2.0])
    fit = fit_lyapunov(zero_cost(m), neutral, w0)
    R = 3.0
    dob = doeblin_minorization(m, level_set(w0, R))
    cert = contraction_certificate(gamma=fit.gamma0, K_bar=fit.K0, alpha=dob.alpha, R=R, w0=w0)
    stats = measure_contraction(m, neutral, cert.w_hat, 1000, seed=11)
    margins.append((cert.alpha_bar, stats.max_ratio, stats.n_pairs))

    # Larger random chain with quadratic weight.
    m = builtin_chain("random_seeded", n=6, m=2, seed=77)
    w0 = np.arange(6.0) ** 2
    fit = fit_lyapunov(zero_cost(m), neutral, w0)
    R = max(40.0, 2.0 * fit.K0 / (1.0 - fit.gamma0) * 1.05)
    dob = doeblin_minorization(m, level_set(w0, R))
    cert = contraction_certificate(gamma=fit.gamma0, K_bar=fit.K0, alpha=dob.alpha, R=R, w0=w0)
    stats = measure_contraction(m, neutral, cert.w_hat, 1000, seed=12)
    margins.append((cert.alpha_bar, stats.max_ratio, stats.n_pairs))

    # Entropic route: the minorization must survive the exponential tilts, and
    # the ratios are measured inside the ball the tilt constant came from.
    lam = 0.3
    spec = RiskMapSpec("entropic", lam=lam)
    m = builtin_chain("random_seeded", n=5, m=2, seed=88)
    m = m.with_cost([0.1 * c for c in m.cost])
    n = m.n_states
    w0 = np.zeros(n)
    fit_full = fit_lyapunov(m, spec, w0)
    B0 = level_set(w0, 2.0 * fit_full.K0 / (1.0 - fit_full.gamma0))
    loc = local_doeblin(m, B0)
    K_ball = invariant_bound_K(
        "entropic", K0=fit_full.K0, lambda_minus=loc.lambda_minus, lambda_plus=loc.lambda_plus
    )
    env = entropic_envelope_minorization(m, np.arange(n), K=lam, w=np.full(n, K_ball))
    fit0 = fit_lyapunov(zero_cost(m), spec, w0)
    cert = contraction_certificate(gamma=fit0.gamma0, K_bar=fit0.K0, alpha=env.alpha, R=1.0, w0=w0)
    stats = measure_contraction(m, spec, cert.w_hat, 1000, ball_radius=K_ball, seed=13)
    margins.append((cert.alpha_bar, stats.max_ratio, stats.n_pairs))

    elapsed = time.perf_counter() - t0
    bounded = all(meas <= abar + 1e-9 for abar, meas, _ in margins)
    complete = all(np_ == 1000 and abar < 1.0 for abar, _, np_ in margins)
    ok = worked_ok and bounded and complete and elapsed < 10.0
    summary = ", ".join(f"{meas:.3f}<={abar:.3f}" for abar, meas, _ in margins)
    report(capsys, 4, ok,
           f"worked alpha_bar = {worked.alpha_bar:.6f}, measured vs certified: {summary}, "
           f"{elapsed:.2f}s")
    assert worked_ok
    for abar, meas, n_pairs in margins:
        assert abar < 1.0
        assert n_pairs == 1000
        assert meas <= abar + 1e-9
    assert elapsed < 10.0


# 5 -------------------------------------------------------------------------------


def test_poisson_residual_and_start_independence(capsys):
    t0 = time.perf_counter()
    tol = 1e-10
    worst_resid = 0.0
    for spec in ALL_KINDS.values():
        for seed in range(5):
            m = builtin_chain("random_seeded", n=3 + (seed % 3), m=2, seed=500 + seed)
            res = relative_value_iteration(m, spec, SolveConfig(tol=tol))
            assert res.converged
            worst_resid = max(worst_resid, poisson_residual(m, spec, res.rho, res.h))

    # Starts drawn inside each model's certified ball must all land on the
    # same average risk.
    starts = [
        (builtin_chain("biased2"), RiskMapSpec("neutral"), 1.0 / 0.7),
        (builtin_chain("uniform2"), RiskMapSpec("entropic", lam=1.0), 1.0 + 0.5 * math.log(2.0)),
        (builtin_chain("biased2"), RiskMapSpec("density_band", band=(0.5, 1.5)), 1.0 / 0.35),
    ]
    rng = np.random.default_rng(42)
    worst_spread = 0.0
    for m, spec, K in starts:
        n = m.n_states
        rhos = []
        for _ in range(10):
            v0 = rng.normal(size=n)
            s = weighted_seminorm(v0, np.ones(n))
            v0 *= rng.uniform(0.0, K) / s
            rhos.append(relative_value_iteration(m, spec, SolveConfig(tol=tol), v0=v0).rho)
        worst_spread = max(worst_spread, max(rhos) - min(rhos))
    elapsed = time.perf_counter() - t0

    ok = worst_resid <= 10 * tol and worst_spread <= 100 * tol and elapsed < 10.0
    report(capsys, 5, ok,
           f"max residual = {worst_resid:.3e} (<= {10 * tol:.0e}), "
           f"max rho spread over 10 starts = {worst_spread:.3e} (<= {100 * tol:.0e}), "
           f"{elapsed:.2f}s")
    assert worst_resid <= 10 * tol
    assert worst_spread <= 100 * tol
    assert elapsed < 10.0


# 6 -------------------------------------------------------------------------------


def _certified_ball(m, spec):
    """Fit the drift constants, take the matching ball radius, and insist the
    pairwise small-set inequality actually certifies it."""
    n = m.n_states
    w0 = np.zeros(n)
    fit = fit_lyapunov(m, spec, w0)
    assert fit.satisfied
    B0 = level_set(w0, 2.0 * fit.K0 / (1.0 - fit.gamma0))
    if spec.kind == "entropic":
        loc = local_doeblin(m, B0)
        assert loc.satisfied
        K = invariant_bound_K(
            "entropic", K0=fit.K0, lambda_minus=loc.lambda_minus, lambda_plus=loc.lambda_plus
        )
    else:
        dob = doeblin_minorization(m, B0)
        assert dob.satisfied
        alpha = dob.alpha * map_minorization_factor(spec)
        K = invariant_bound_K("coherent", K0=fit.K0, alpha=alpha)
    gate = check_l2(m, spec, w0, fit.K0, K, B0, n_samples=2000)
    assert gate.passed, f"{spec.kind}: slack {gate.min_slack}"
    return K


def test_seminorm_ball_is_forward_invariant_on_certified_models(capsys):
    t0 = time.perf_counter()
    models = [
        ("biased2 neutral", builtin_chain("biased2"), RiskMapSpec("neutral")),
        ("uniform2 band", builtin_chain("uniform2"), RiskMapSpec("density_band", band=(0.5, 1.5))),
        ("biased2 band", builtin_chain("biased2"), RiskMapSpec("density_band", band=(0.5, 1.5))),
        ("entropic chain",
         builtin_chain("random_seeded", n=5, m=2, seed=88).with_cost(
             [0.2 * c for c in builtin_chain("random_seeded", n=5, m=2, seed=88).cost]),
         RiskMapSpec("entropic", lam=1.0)),
    ]
    rng = np.random.default_rng(0)
    rows = []
    for label, m, spec in models:
        K = _certified_ball(m, spec)
        n = m.n_states
        w = np.ones(n)
        pi = fixed_policy(m)
        worst = -math.inf
        for i in range(1000):
            v = rng.uniform(-1.0, 1.0, size=n)
            s = weighted_seminorm(v, w)
            if s < 1e-12:
                continue
            v *= K / s * (1.0 if i % 2 == 0 else rng.uniform())
            for img in (bellman_T(m, spec, pi, v), bellman_F(m, spec, v)[0]):
                worst = max(worst, weighted_seminorm(img, w))
        rows.append((label, K, worst))
    elapsed = time.perf_counter() - t0

    ok = all(worst <= K + 1e-9 for _, K, worst in rows) and elapsed < 5.0
    summary = ", ".join(f"{lbl}: {worst:.3f}<=K={K:.3f}" for lbl, K, worst in rows)
    report(capsys, 6, ok, f"{summary}, {elapsed:.2f}s")
    for _, K, worst in rows:
        assert worst <= K + 1e-9
    assert elapsed < 5.0


# 7 -------------------------------------------------------------------------------


def test_risk_axiom_suite_with_claims_and_witnesses(capsys):
    t0 = time.perf_counter()
    pool = builtin_chain("random_seeded", n=6, m=3, seed=7)
    trio = ("convexity", "positive_homogeneity", "subadditivity")
    reports = {k: check_risk_axioms(s, pool, n_samples=10_000, seed=3)
               for k, s in ALL_KINDS.items()}

    all_ok = all(rep.ok for rep in reports.values())
    base_counts = all(
        rep.checks[name].n_checked >= 10_000
        for rep in reports.values()
        for name in ("monotonicity", "translation_invariance", "centralization")
    )
    coherent_ok = all(
        reports[k].checks[name].claimed and reports[k].checks[name].passed
        for k in ("neutral", "density_band", "mean_semideviation")
        for name in trio
    )
    ph = reports["entropic"].checks["positive_homogeneity"]
    entropic_ok = (not ph.passed) and ph.witness is not None and not ph.claimed
    shortfall_unclaimed = not any(reports["shortfall"].checks[n].claimed for n in trio)

    # The shortfall map itself promises nothing beyond the base axioms, but
    # its dominating envelope, the sup over slope reweightings in [l, L] =
    # [0.5, 2], must be fully coherent, on a 45 x 45 table of value vectors
    # against drawn rows.  It is the shortfall map of slopes (1, L / l).
    rng = np.random.default_rng(5)
    rows = pool.stacked_transition[rng.integers(0, len(pool.stacked_transition), size=45)]
    values = rng.normal(0.0, 2.0, size=(45, rows.shape[1]))
    envelope = RiskMapSpec("shortfall", utility=PiecewiseLinearUtility((0.0,), (1.0, KINKED.L / KINKED.l)))
    env_rep = check_axioms_of(lambda V, R: risk_table(envelope, V, R), frozenset(trio), rows, values, rng)
    env_ok = env_rep.ok and all(
        env_rep.checks[name].claimed and env_rep.checks[name].passed for name in trio
    )
    elapsed = time.perf_counter() - t0

    ok = (all_ok and base_counts and coherent_ok and entropic_ok
          and shortfall_unclaimed and env_ok and elapsed < 10.0)
    report(capsys, 7, ok,
           f"5 kinds ok on 10k samples, coherent trio hold, entropic homogeneity fails "
           f"with witness, shortfall envelope coherent, {elapsed:.2f}s")
    assert all_ok
    assert base_counts
    assert coherent_ok
    assert entropic_ok
    assert shortfall_unclaimed
    assert env_ok
    assert elapsed < 10.0


# 8 -------------------------------------------------------------------------------


def test_entropic_time_consistency_and_semideviation_gap(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n, T, lam, seed in [(2, 8, 0.5, 300), (3, 8, 1.0, 301), (4, 8, 1.3, 302),
                            (5, 8, 0.7, 303), (5, 6, 2.0, 304)]:
        m = builtin_chain("random_seeded", n=n, m=2, seed=seed)
        rng = np.random.default_rng(seed)
        pi = PolicyVector.det(rng.integers(0, 2, size=n))
        static = static_total_cost_risk(m, pi, RiskMapSpec("entropic", lam=lam), T)
        nested = finite_horizon_risk(m, RiskMapSpec("entropic", lam=lam), [pi] * (T + 1), T)
        worst = max(worst, float(np.max(np.abs(static - nested))))

    m2 = builtin_chain("uniform2")
    pi2 = PolicyVector.det([0, 0])
    semidev = RiskMapSpec("mean_semideviation", lam=0.9, r=2)
    static2 = static_total_cost_risk(m2, pi2, semidev, T=2)
    nested2 = finite_horizon_risk(m2, semidev, [pi2] * 3, 2)
    gap = float(np.max(np.abs(static2 - nested2)))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and gap >= 1e-3 and elapsed < 30.0
    report(capsys, 8, ok,
           f"entropic nested = static to {worst:.3e}; mean-semideviation nested vs static "
           f"gap = {gap:.3f}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert gap >= 1e-3
    assert elapsed < 30.0


# 9 -------------------------------------------------------------------------------


def test_diffusion_grid_pipeline_end_to_end(capsys):
    t0 = time.perf_counter()
    spec_d = DiffusionSpec(
        dim=1,
        A=np.array([[0.5]]),
        actions=["left", "right"],
        drift={"left": np.array([-0.5]), "right": np.array([0.5])},
        diffusion={"left": np.eye(1), "right": np.eye(1)},
        gamma_tilde=0.25,
        drift_bound=0.2500001,
        ellipticity=1.0,
    )
    grid = GridSpec(points=201, extent=5.0)
    w1_hat, eps = diffusion_entropic_weight(grid, gamma=0.5, spec=spec_d)
    mcp = discretize_diffusion(spec_d, grid)
    mcp = attach_cost(mcp, PowerCost(c0=0.1, q=0.5, w1=1.0 + w1_hat))

    rs = RiskMapSpec("entropic", lam=1.0)
    interior = np.flatnonzero(np.abs(mcp.state_coords[:, 0]) <= 4.0 + 1e-12)
    fit = fit_lyapunov(mcp, rs, w1_hat, states=interior)

    alphas = {}
    for radius in (1.0, 2.0, 4.0, 6.0):
        alphas[radius] = doeblin_minorization(mcp, level_set(w1_hat, radius)).alpha

    res = relative_value_iteration(mcp, rs, SolveConfig(tol=1e-10))
    resid = poisson_residual(mcp, rs, res.rho, res.h)

    errs = {}
    for T in (100, 200):
        J = finite_horizon_risk(mcp, rs, [res.policy] * (T + 1), T)
        errs[T] = float(np.max(np.abs(J / T - res.rho)))
    halving = errs[100] / errs[200]
    elapsed = time.perf_counter() - t0

    ok = (eps == pytest.approx(0.5) and fit.satisfied and all(a > 0 for a in alphas.values())
          and res.converged and resid <= 1e-9 and errs[200] <= 1e-2 and halving >= 1.9
          and elapsed < 60.0)
    report(capsys, 9, ok,
           f"eps = {eps}, drift holds (gamma0 = {fit.gamma0:.2f}, K0 = {fit.K0:.3f}), "
           f"min doeblin alpha = {min(alphas.values()):.2e}, rho = {res.rho:.6f}, "
           f"|J_200/200 - rho| = {errs[200]:.2e}, halving x{halving:.3f}, {elapsed:.2f}s")
    assert eps == pytest.approx(0.5)
    assert fit.satisfied
    assert all(a > 0 for a in alphas.values())
    assert res.converged
    assert resid <= 1e-9
    assert errs[200] <= 1e-2
    assert halving >= 1.9
    assert elapsed < 60.0


# 10 ------------------------------------------------------------------------------


def _avar_sorted_tail(q: np.ndarray, v: np.ndarray, beta: float) -> float:
    """Average of the worst outcomes carrying total mass beta."""
    order = np.argsort(-v)
    q, v = q[order], v[order]
    cum = acc = 0.0
    for qi, vi in zip(q, v):
        take = min(qi, beta - cum)
        acc += take * vi
        cum += take
        if cum >= beta - 1e-18:
            break
    return acc / beta


def test_average_value_at_risk_matches_sorted_tail_formula(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        q = rng.uniform(0.05, 1.0, size=n)
        q /= q.sum()
        v = rng.normal(0.0, 3.0, size=n)
        beta = float(rng.uniform(0.05, 1.0))
        got = eval_risk(RiskMapSpec("density_band", band=(0.0, 1.0 / beta)), v, q)
        worst = max(worst, abs(got - _avar_sorted_tail(q, v, beta)))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 2.0
    report(capsys, 10, ok,
           f"1000 laws max |band - sorted tail| = {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 2.0
