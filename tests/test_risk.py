import itertools

import numpy as np
import pytest

from riskmdp.models import builtin_chain
from riskmdp.risk import (
    PiecewiseLinearUtility,
    RiskMapSpec,
    check_axioms_of,
    check_risk_axioms,
    density_band,
    entropic,
    entropic_upper_envelope,
    eval_risk,
    maximize_ratio_over_box,
    mean_semideviation,
    risk_values,
    shortfall,
    shortfall_upper_envelope,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def random_law(rng, n):
    q = rng.uniform(0.05, 1.0, size=n)
    return q / q.sum()


KINKED = PiecewiseLinearUtility([0.0], [1.0, 2.0])

ALL_SPECS = [
    RiskMapSpec("neutral"),
    RiskMapSpec("entropic", lam=1.0),
    RiskMapSpec("entropic", lam=-0.7),
    RiskMapSpec("density_band", band=(0.5, 1.5)),
    RiskMapSpec("mean_semideviation", lam=0.5, r=2.0),
    RiskMapSpec("shortfall", utility=KINKED),
]


# --- dispatch and zero ------------------------------------------------------


def test_eval_risk_neutral_is_expectation():
    assert eval_risk(RiskMapSpec("neutral"), [1.0, 3.0], [0.25, 0.75]) == pytest.approx(2.5)


def test_eval_risk_zero_vector_gives_zero_for_all_kinds():
    q = np.array([0.3, 0.5, 0.2])
    for spec in ALL_SPECS:
        assert eval_risk(spec, np.zeros(3), q) == pytest.approx(0.0, abs=1e-10)


def test_risk_values_matches_scalar_eval_on_stacks():
    rng = np.random.default_rng(0)
    rows = np.array([random_law(rng, 4) for _ in range(6)])
    V = rng.normal(size=(6, 4)) * 2
    for spec in ALL_SPECS:
        stacked = risk_values(spec, V, rows)
        singles = [eval_risk(spec, V[i], rows[i]) for i in range(6)]
        assert np.allclose(stacked, singles, atol=1e-10)
        # one v shared by every row is sorted once; it must equal the tiled stack
        shared = risk_values(spec, V[0], rows)
        assert np.array_equal(shared, risk_values(spec, np.tile(V[0], (6, 1)), rows))


# --- entropic ---------------------------------------------------------------


def test_entropic_hand_value():
    assert entropic([0.0, np.log(3.0)], [0.5, 0.5], 1.0) == pytest.approx(np.log(2.0), abs=1e-12)


def test_entropic_point_mass_returns_value():
    assert entropic([2.0, 5.0], [0.0, 1.0], 1.3) == pytest.approx(5.0, abs=1e-12)


def test_entropic_small_lambda_approaches_mean():
    rng = np.random.default_rng(1)
    v = rng.normal(size=5)
    q = random_law(rng, 5)
    mean = float(q @ v)
    assert entropic(v, q, 1e-6) == pytest.approx(mean, abs=1e-5)


def test_entropic_no_overflow_at_huge_values():
    # max-shift keeps this finite even though exp(800) overflows naively
    val = entropic([800.0, 0.0], [0.5, 0.5], 1.0)
    assert np.isfinite(val)
    assert val == pytest.approx(800.0 + np.log(0.5), abs=1e-9)


def test_entropic_exceeds_mean_for_positive_lambda():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=4) * 3
        q = random_law(rng, 4)
        assert entropic(v, q, 1.0) >= float(q @ v) - 1e-12
        assert entropic(v, q, -1.0) <= float(q @ v) + 1e-12


def test_entropic_rejects_zero_lambda():
    with pytest.raises(ValueError):
        entropic([1.0], [1.0], 0.0)


# --- density band -----------------------------------------------------------


def brute_force_band(v, q, g1, g2):
    """LP over the box with one equality: scan all vertices (at most one
    fractional coordinate)."""
    n = len(v)
    best = -np.inf
    for j in range(n):
        rest = [i for i in range(n) if i != j]
        for highs in itertools.product([False, True], repeat=n - 1):
            xi = np.empty(n)
            for i, hi in zip(rest, highs):
                xi[i] = g2 if hi else g1
            used = sum(q[i] * xi[i] for i in rest)
            if q[j] > 0:
                xi[j] = (1.0 - used) / q[j]
                if not g1 - 1e-12 <= xi[j] <= g2 + 1e-12:
                    continue
            else:
                if abs(used - 1.0) > 1e-12:
                    continue
                xi[j] = g1
            best = max(best, float(np.dot(q * xi, v)))
    return best


def test_band_degenerate_corridor_is_expectation():
    rng = np.random.default_rng(3)
    v = rng.normal(size=4)
    q = random_law(rng, 4)
    assert density_band(v, q, 1.0, 1.0) == pytest.approx(float(q @ v), abs=1e-12)


def test_band_hand_value():
    assert density_band([0.0, 1.0], [0.5, 0.5], 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_band_matches_vertex_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        v = rng.normal(size=n) * 2
        q = random_law(rng, n)
        g1 = float(rng.uniform(0.0, 1.0))
        g2 = float(rng.uniform(1.0, 3.0))
        got = density_band(v, q, g1, g2)
        want = brute_force_band(v, q, g1, g2)
        assert got == pytest.approx(want, abs=1e-10)


def test_band_with_zero_mass_states():
    # states with q = 0 must not disturb the allocation
    v = np.array([5.0, 1.0, -2.0])
    q = np.array([0.0, 0.6, 0.4])
    got = density_band(v, q, 0.0, 2.0)
    want = brute_force_band(v, q, 0.0, 2.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_band_ties_are_value_invariant():
    # permuting tied outcomes must not change the value
    q = np.array([0.2, 0.3, 0.5])
    v = np.array([1.0, 1.0, 0.0])
    a = density_band(v, q, 0.0, 1.5)
    b = density_band(v[[1, 0, 2]], q[[1, 0, 2]], 0.0, 1.5)
    assert a == pytest.approx(b, abs=1e-14)


def test_band_with_upper_bound_one_is_expectation():
    # g2 = 1 forces xi = 1, even on rows whose cumulative mass falls short of 1
    rng = np.random.default_rng(19)
    rows = rng.dirichlet(np.ones(400), size=50)
    v = rng.normal(size=400)
    got = risk_values(RiskMapSpec("density_band", band=(0.5, 1.0)), v, rows)
    assert np.allclose(got, rows @ v, rtol=0.0, atol=1e-12)


def test_band_spec_rejects_bad_corridor():
    with pytest.raises(ValueError):
        RiskMapSpec("density_band", band=(1.2, 2.0))
    with pytest.raises(ValueError):
        RiskMapSpec("density_band", band=(0.0, 0.9))


# --- mean semideviation -------------------------------------------------------


def test_semidev_hand_value():
    got = mean_semideviation([0.0, 2.0], [0.5, 0.5], 0.5, 2.0)
    assert got == pytest.approx(1.0 + 0.5 * np.sqrt(0.5), abs=1e-12)


def test_semidev_lambda_zero_is_mean():
    rng = np.random.default_rng(5)
    v = rng.normal(size=4)
    q = random_law(rng, 4)
    assert mean_semideviation(v, q, 0.0, 2.0) == pytest.approx(float(q @ v), abs=1e-12)


def test_semidev_order_one_matches_direct_formula():
    rng = np.random.default_rng(6)
    v = rng.normal(size=5)
    q = random_law(rng, 5)
    m = float(q @ v)
    want = m + 0.3 * float(q @ np.maximum(v - m, 0.0))
    assert mean_semideviation(v, q, 0.3, 1.0) == pytest.approx(want, abs=1e-12)


def test_semidev_lower_subgradient_bound():
    # for v >= u the increase is at least (1 - lam) times the mean increase
    rng = np.random.default_rng(7)
    for r in (1.0, 2.0):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            q = random_law(rng, n)
            u = rng.normal(size=n) * 2
            v = u + rng.uniform(0, 2, size=n)
            lam = float(rng.uniform(0.0, 1.0))
            lhs = mean_semideviation(v, q, lam, r) - mean_semideviation(u, q, lam, r)
            rhs = (1.0 - lam) * float(q @ (v - u))
            assert lhs >= rhs - 1e-9


def test_semidev_spec_rejects_bad_params():
    with pytest.raises(ValueError):
        RiskMapSpec("mean_semideviation", lam=1.5)
    with pytest.raises(ValueError):
        RiskMapSpec("mean_semideviation", lam=0.5, r=0.5)


# --- utility shortfall ----------------------------------------------------------


def test_utility_evaluation():
    u = KINKED
    assert u(0.0) == 0.0
    assert u(-2.0) == -2.0
    assert u(3.0) == 6.0
    assert np.allclose(u(np.array([-1.0, 0.5])), [-1.0, 1.0])


def test_utility_multi_knot_anchored_at_zero():
    u = PiecewiseLinearUtility([-1.0, 1.0], [0.5, 1.0, 2.0])
    assert u(0.0) == 0.0
    assert u(1.0) == 1.0
    assert u(2.0) == pytest.approx(3.0)
    assert u(-1.0) == pytest.approx(-1.0)
    assert u(-3.0) == pytest.approx(-2.0)


def test_utility_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([0.0], [1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([1.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([0.0], [1.0, -2.0])
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([], [2.0])  # slopes must straddle 1


def test_shortfall_linear_utility_is_mean():
    rng = np.random.default_rng(8)
    v = rng.normal(size=5)
    q = random_law(rng, 5)
    got = shortfall(v, q, PiecewiseLinearUtility.linear())
    assert got == pytest.approx(float(q @ v), abs=1e-10)


def test_shortfall_hand_value():
    assert shortfall([0.0, 1.0], [0.5, 0.5], KINKED) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_shortfall_constant_vector():
    assert shortfall([4.0] * 3, [0.2, 0.3, 0.5], KINKED) == pytest.approx(4.0, abs=1e-10)


def test_shortfall_root_property():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        v = rng.normal(size=n) * 3
        q = random_law(rng, n)
        m = shortfall(v, q, KINKED)
        assert abs(float(q @ KINKED(v - m))) < 1e-10


def test_shortfall_increment_bounded_by_slope_ratio():
    # R(v) - R(u) <= (L/l) max(v - u) and >= (l/L) min(v - u) for v >= u
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        q = random_law(rng, n)
        u_vec = rng.normal(size=n)
        v = u_vec + rng.uniform(0, 1, size=n)
        d = shortfall(v, q, KINKED) - shortfall(u_vec, q, KINKED)
        ratio = KINKED.L / KINKED.l
        assert d <= ratio * float(np.max(v - u_vec)) + 1e-9
        assert d >= (1.0 / ratio) * float(np.min(v - u_vec)) - 1e-9


def brute_force_shortfall(v, q, u):
    """Evaluate g(m) = E[u(v - m)] at every kink v_y - b_k and at min v and
    max v, where g >= 0 and g <= 0; g is linear between consecutive points,
    so interpolate on the piece where it changes sign."""
    pts = np.unique(np.concatenate([np.subtract.outer(v, u.breakpoints).ravel(), [v.min(), v.max()]]))
    g = np.array([float(q @ u(v - m)) for m in pts])
    i = int(np.argmax(g <= 0))
    if g[i] == 0:
        return float(pts[i])
    return float(pts[i - 1] + g[i - 1] * (pts[i] - pts[i - 1]) / (g[i - 1] - g[i]))


def test_shortfall_matches_kink_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(0, 4))
        slopes = rng.uniform(0.3, 3.0, size=k + 1)
        slopes[rng.integers(k + 1)] = 1.0  # slopes straddle 1
        u = PiecewiseLinearUtility(np.sort(rng.normal(size=k)), slopes)
        n = int(rng.integers(2, 7))
        q = random_law(rng, n)
        q[rng.random(n) < 0.3] = 0.0  # some zero-mass outcomes
        if q.sum() == 0:
            q[0] = 1.0
        q /= q.sum()
        v = rng.normal(size=n) * 3
        assert shortfall(v, q, u) == pytest.approx(brute_force_shortfall(v, q, u), abs=1e-10)


def test_shortfall_translation_invariant_at_offset_1e6():
    rng = np.random.default_rng(12)
    Q = rng.dirichlet(np.ones(50), size=200)
    v = rng.normal(size=50)
    spec = RiskMapSpec("shortfall", utility=KINKED)
    base = risk_values(spec, v, Q)
    shifted = risk_values(spec, v + 1e6, Q)
    assert np.allclose(shifted - 1e6, base, rtol=0.0, atol=1e-9)


def test_shortfall_point_mass_on_zero_is_exactly_zero():
    assert shortfall([0.0, 1.0], [1.0, 0.0], PiecewiseLinearUtility.linear()) == 0.0


def test_shortfall_linear_utility_is_exact_at_huge_values():
    # equal mass on -1e50 and 1e50: the level is exactly 0, with no rounding residue
    assert shortfall([-1e50, 1e50], [0.5, 0.5], PiecewiseLinearUtility.linear()) == 0.0


def test_shortfall_rows_with_non_finite_values_give_inf_or_nan():
    V = np.array([[0.0, np.inf, 1.0], [-np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0], [0.0, 1.0, 2.0]])
    with np.errstate(invalid="ignore"):
        got = risk_values(RiskMapSpec("shortfall", utility=KINKED), V, np.full((4, 3), 1.0 / 3.0))
    assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])
    assert got[3] == pytest.approx(shortfall([0.0, 1.0, 2.0], np.full(3, 1.0 / 3.0), KINKED))


# --- ratio maximization over a box ---------------------------------------------


def brute_force_ratio(u, p, lo, hi):
    """The maximum sits at a vertex of the box: try all 2^n."""
    best = -np.inf
    for signs in itertools.product([0, 1], repeat=len(u)):
        d = np.where(signs, hi, lo)
        best = max(best, float(np.dot(p * d, u) / np.dot(p, d)))
    return best


def test_ratio_box_collapsed_box_is_weighted_mean():
    rng = np.random.default_rng(11)
    u = rng.normal(size=4)
    p = random_law(rng, 4)
    d = rng.uniform(0.5, 2.0, size=4)
    val, arg = maximize_ratio_over_box(u, p, d, d)
    assert val == pytest.approx(float(np.dot(p * d, u) / np.dot(p, d)), abs=1e-12)
    assert np.array_equal(arg, d)


def test_ratio_box_hand_value():
    val, arg = maximize_ratio_over_box([0.0, 1.0], [0.5, 0.5], [1.0, 1.0], [1.0, 3.0])
    assert val == pytest.approx(0.75, abs=1e-12)
    assert np.array_equal(arg, [1.0, 3.0])


def test_ratio_box_matches_vertex_enumeration():
    rng = np.random.default_rng(12)
    for tied in (False, True):
        for _ in range(80):
            n = int(rng.integers(2, 7))
            u = rng.normal(size=n) * 3
            if tied:
                u = np.round(u / 3)  # mostly repeated values in {-2, ..., 2}
            p = random_law(rng, n)
            lo = rng.uniform(0.2, 1.0, size=n)
            hi = lo + rng.uniform(0.0, 3.0, size=n)
            val, arg = maximize_ratio_over_box(u, p, lo, hi)
            want = brute_force_ratio(u, p, lo, hi)
            assert val == pytest.approx(want, abs=1e-10)
            # the reported maximizer must achieve the reported value
            assert float(np.dot(p * arg, u) / np.dot(p, arg)) == pytest.approx(val, abs=1e-12)


def test_ratio_box_rejects_bad_boxes():
    with pytest.raises(ValueError):
        maximize_ratio_over_box([1.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        maximize_ratio_over_box([1.0, 1.0], [0.5, 0.5], [2.0, 2.0], [1.0, 1.0])


# --- upper envelopes ------------------------------------------------------------


def test_entropic_envelope_zero_bound_is_expectation():
    rng = np.random.default_rng(13)
    u = rng.normal(size=5)
    q = random_law(rng, 5)
    assert entropic_upper_envelope(u, q, np.zeros(5)) == pytest.approx(float(q @ u), abs=1e-10)


def test_entropic_envelope_constant_input():
    q = np.array([0.4, 0.6])
    assert entropic_upper_envelope([2.5, 2.5], q, np.array([3.0, 3.0])) == pytest.approx(2.5, abs=1e-12)


def test_entropic_envelope_rejects_huge_bounds():
    with pytest.raises(ValueError):
        entropic_upper_envelope([0.0, 1.0], [0.5, 0.5], np.array([0.0, 701.0]))
    with pytest.raises(ValueError):
        entropic_upper_envelope([0.0, 1.0], [0.5, 0.5], np.array([-1.0, 1.0]))


def test_entropic_envelope_dominates_tilted_means():
    # the envelope is the sup over tilts, so any specific tilt stays below it
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        u = rng.normal(size=n) * 2
        q = random_law(rng, n)
        b = rng.uniform(0.2, 3.0, size=n)
        env = entropic_upper_envelope(u, q, b)
        f = rng.uniform(-1.0, 1.0, size=n) * b
        tilt = q * np.exp(f)
        assert float(tilt @ u / tilt.sum()) <= env + 1e-9


def test_entropic_envelope_dominates_entropic_increments():
    # R(v) - R(w) <= envelope(v - w) when both arguments fit in the tilt box
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        q = random_law(rng, n)
        b = rng.uniform(0.5, 4.0, size=n)
        v = rng.uniform(-0.5, 0.5, size=n) * b
        w = rng.uniform(-0.5, 0.5, size=n) * b
        lhs = entropic(v, q, 1.0) - entropic(w, q, 1.0)
        assert lhs <= entropic_upper_envelope(v - w, q, b) + 1e-9


def test_shortfall_envelope_collapsed_slopes_is_mean():
    rng = np.random.default_rng(16)
    u = rng.normal(size=4)
    q = random_law(rng, 4)
    assert shortfall_upper_envelope(u, q, 1.0, 1.0) == pytest.approx(float(q @ u), abs=1e-12)


def test_shortfall_envelope_hand_value():
    assert shortfall_upper_envelope([0.0, 1.0], [0.5, 0.5], 1.0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_shortfall_envelope_dominates_shortfall_increments():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        q = random_law(rng, n)
        v = rng.normal(size=n) * 2
        w = rng.normal(size=n) * 2
        lhs = shortfall(v, q, KINKED) - shortfall(w, q, KINKED)
        assert lhs <= shortfall_upper_envelope(v - w, q, KINKED.l, KINKED.L) + 1e-8


def test_shortfall_envelope_rejects_bad_slopes():
    with pytest.raises(ValueError):
        shortfall_upper_envelope([0.0], [1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        shortfall_upper_envelope([0.0], [1.0], 2.0, 1.0)


# --- axiom checking ---------------------------------------------------------------


def test_axioms_neutral_all_pass():
    rep = check_risk_axioms(RiskMapSpec("neutral"), builtin_chain("biased2"), n_samples=500)
    assert rep.ok
    assert all(c.passed for c in rep.checks.values())


def test_axioms_entropic_homogeneity_fails_with_witness():
    rep = check_risk_axioms(RiskMapSpec("entropic", lam=1.0), builtin_chain("biased2"), n_samples=500)
    assert rep.ok  # base axioms + claimed convexity hold
    hom = rep.checks["positive_homogeneity"]
    assert not hom.claimed
    assert not hom.passed
    assert hom.witness is not None and "s" in hom.witness


def test_axioms_coherent_kinds_pass_coherency():
    m = builtin_chain("random_seeded", n=4, m=2, seed=3)
    for spec in (RiskMapSpec("density_band", band=(0.25, 1.75)),
                 RiskMapSpec("mean_semideviation", lam=0.4, r=2.0)):
        rep = check_risk_axioms(spec, m, n_samples=800)
        assert rep.ok, {k: (c.passed, c.max_violation) for k, c in rep.checks.items()}
        for name in ("convexity", "positive_homogeneity", "subadditivity"):
            assert rep.checks[name].claimed
            assert rep.checks[name].passed


def test_axioms_generic_checker_on_shortfall_envelope():
    rng = np.random.default_rng(18)
    rows = np.array([random_law(rng, 3) for _ in range(300)])
    values = rng.normal(size=(300, 3)) * 2

    def fn(V, R):
        return np.array([shortfall_upper_envelope(V[i], R[i], 1.0, 2.0) for i in range(len(R))])

    rep = check_axioms_of(fn, {"convex", "homogeneous", "subadditive"}, rows, values, rng)
    assert rep.ok, {k: (c.passed, c.max_violation) for k, c in rep.checks.items()}


# --- spec round trip ----------------------------------------------------------------


def test_risk_spec_json_round_trip():
    for spec in ALL_SPECS:
        d = spec.to_dict()
        spec2 = RiskMapSpec.from_dict(d)
        assert spec2.kind == spec.kind
        if spec.kind in ("entropic", "mean_semideviation"):
            assert spec2.lam == spec.lam
        if spec.kind == "density_band":
            assert spec2.band == spec.band
        if spec.kind == "shortfall":
            assert spec2.utility == spec.utility


def test_risk_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        RiskMapSpec("cvar")


# --- hypothesis properties -----------------------------------------------------------

if HAVE_HYPOTHESIS:
    vec3 = st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=3, max_size=3)

    @given(vec3, st.floats(min_value=-10, max_value=10))
    @settings(max_examples=150, deadline=None)
    def test_translation_invariance_property_all_kinds(vals, c):
        v = np.array(vals)
        q = np.array([0.2, 0.5, 0.3])
        for spec in ALL_SPECS:
            assert eval_risk(spec, v + c, q) == pytest.approx(eval_risk(spec, v, q) + c, abs=1e-8)

    @given(vec3, vec3)
    @settings(max_examples=150, deadline=None)
    def test_monotonicity_property_all_kinds(a, b):
        v = np.array(a)
        u = np.maximum(v, np.array(b))
        q = np.array([0.2, 0.5, 0.3])
        for spec in ALL_SPECS:
            assert eval_risk(spec, v, q) <= eval_risk(spec, u, q) + 1e-8
