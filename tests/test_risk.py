import itertools
import re
import tracemalloc

import numpy as np
import pytest

from riskmdp.certificates import check_l2, entropic_envelope_minorization
from riskmdp import mdp, risk
from riskmdp.mdp import BLOCK_ELEMENTS, PolicyVector, row_blocks
from riskmdp.models import builtin_chain
from riskmdp.risk import (
    PiecewiseLinearUtility,
    RiskMapSpec,
    check_axioms_of,
    check_risk_axioms,
    density_band,
    entropic,
    eval_risk,
    mean_semideviation,
    risk_table,
    risk_values,
    shortfall,
)
from riskmdp.solver import bellman_F, bellman_T, finite_horizon_risk

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
        singles = [[eval_risk(spec, v, q) for q in rows] for v in V]
        assert np.allclose([risk_values(spec, v, rows) for v in V], singles, atol=1e-10)
        assert np.allclose(risk_table(spec, V, rows), singles, atol=1e-10)


Q3 = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
TWO_STATES, TWO_STATE_RULE = builtin_chain("biased2"), PolicyVector.det([0, 0])

# Each evaluator gets x at state 2 of a 3-state v, or at state 1 of a value
# vector of the 2-state model, and names where x sits.
EVALUATORS = {
    "risk_table": (lambda x: [risk_table(spec, [[0.0, 1.0, 2.0], [0.0, 1.0, x]], Q3) for spec in ALL_SPECS],
                   "vector 1, state 2"),
    "risk_values": (lambda x: risk_values(ALL_SPECS[0], [0.0, 1.0, x], Q3), "vector 0, state 2"),
    "eval_risk": (lambda x: eval_risk(ALL_SPECS[3], [0.0, 1.0, x], Q3[0]), "vector 0, state 2"),
    "entropic": (lambda x: entropic([0.0, 1.0, x], Q3[0], 1.0), "vector 0, state 2"),
    "density_band": (lambda x: density_band([0.0, 1.0, x], Q3[0], 0.5, 1.5), "vector 0, state 2"),
    "mean_semideviation": (lambda x: mean_semideviation([0.0, 1.0, x], Q3[0], 0.5), "vector 0, state 2"),
    "shortfall": (lambda x: shortfall([0.0, 1.0, x], Q3[0], KINKED), "vector 0, state 2"),
    "bellman_F": (lambda x: bellman_F(TWO_STATES, ALL_SPECS[1], [0.0, x]), "vector 0, state 1"),
    "bellman_T": (lambda x: bellman_T(TWO_STATES, ALL_SPECS[4], TWO_STATE_RULE, [0.0, x]), "vector 0, state 1"),
    "finite_horizon_risk": (lambda x: finite_horizon_risk(TWO_STATES, ALL_SPECS[5], [TWO_STATE_RULE] * 2, 1,
                                                          v_terminal=[0.0, x]), "vector 0, state 1"),
    # w0 + K is the first value vector check_l2 evaluates
    "check_l2": (lambda x: check_l2(TWO_STATES, ALL_SPECS[2], [0.0, x], K0=0.5, K=1.0, B0=[0]), "vector 0, state 1"),
    "entropic_envelope_minorization": (lambda x: entropic_envelope_minorization(TWO_STATES, [0, 1], 1.0, [0.0, x]),
                                       "vector 0, state 1"),
    # K = 0 evaluates no risk map: w is checked before any tilt
    "entropic_envelope_minorization_K0": (
        lambda x: entropic_envelope_minorization(TWO_STATES, [0, 1], 0.0, [0.0, x]), "vector 0, state 1"),
}


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("evaluator", list(EVALUATORS))
def test_every_evaluator_rejects_non_finite_values(evaluator, x):
    # values must be finite: risk_table checks them once before any kernel
    # runs, and every evaluator passes its value vectors through it
    call, where = EVALUATORS[evaluator]
    with pytest.raises(ValueError, match=re.escape(f"values must be finite, got {x} at {where}")):
        call(x)


ORDER_BASED = [
    RiskMapSpec("density_band", band=(0.5, 1.5)),
    RiskMapSpec("mean_semideviation", lam=0.5, r=2.0),
    RiskMapSpec("shortfall", utility=KINKED),
    RiskMapSpec("shortfall", utility=PiecewiseLinearUtility([-1.0, 0.0, 1.0], [0.5, 1.0, 1.5, 3.0])),
]


def test_order_based_kinds_in_row_blocks_equal_row_by_row():
    # 1000 rows of 300 states are several 2^17-element blocks (436 rows)
    # ending in a partial one; the shortfall's blocks of 2^17 / w rows span
    # many blocks in test_shortfall_temporaries_stay_in_row_blocks
    rng = np.random.default_rng(20)
    rows = rng.dirichlet(np.ones(300), size=1000)
    v = rng.normal(size=300) * 3
    V = rng.normal(size=(2, 300)) * 3
    for spec in ORDER_BASED:
        want = [eval_risk(spec, v, q) for q in rows]
        table = [[eval_risk(spec, u, q) for q in rows] for u in V]
        if spec.kind in ("shortfall", "density_band"):
            # a row alone is one chunk where 1000 rows cut 18 or 30, and BLAS
            # rounds a row by how many rows share the checkpoint product
            assert np.max(np.abs(risk_values(spec, v, rows) - want)) <= 1e-14 * max(1.0, np.max(np.abs(v)))
            assert np.max(np.abs(risk_table(spec, V, rows) - table)) <= 1e-14 * max(1.0, np.max(np.abs(V)))
            continue
        assert np.array_equal(risk_values(spec, v, rows), want)
        assert np.array_equal(risk_table(spec, V, rows), table)


@pytest.mark.parametrize("spec", ALL_SPECS + ORDER_BASED, ids=lambda s: s.kind)
def test_kept_rows_equal_the_full_table_at_those_rows(spec):
    # 1000 rows of 300 states: the kept ones span several row blocks, and
    # the order-based kinds read them one block at a time where they are
    rng = np.random.default_rng(23)
    rows = rng.dirichlet(np.ones(300), size=1000)
    V = rng.normal(size=(2, 300)) * 3
    keep = np.flatnonzero(rng.random(1000) < 0.55)
    full = risk_table(spec, V, rows)
    got = risk_table(spec, V, rows, keep)
    assert got.shape == (2, len(keep))
    if spec.kind in ("density_band", "mean_semideviation"):
        assert np.array_equal(got, full[:, keep])
    else:
        # a matrix product rounds a row by how many rows share it, and the
        # shortfall's chunk count follows the number of rows evaluated
        assert np.max(np.abs(got - full[:, keep])) <= 1e-14 * np.max(np.abs(V))
    if spec.order_based:  # reading the kept rows in place is reading a copy of them
        assert np.array_equal(got, risk_table(spec, V, rows[keep]))
    assert np.array_equal(risk_values(spec, V[0], rows, keep), risk_table(spec, V[:1], rows, keep)[0])
    assert risk_table(spec, V, rows, keep[:0]).shape == risk_table(spec, V, rows, []).shape == (2, 0)
    # a boolean mask is not a list of indices: it would read as rows 0 and 1
    for bad in ([0, 1000], [-1], [[0, 1]], np.ones(1000, dtype=bool), [0.0, 1.0]):
        with pytest.raises(ValueError, match="keep must be a 1-d array of row indices below 1000"):
            risk_table(spec, V, rows, bad)


def semideviation_reference(V, Q, lam, r):
    """Mean-semideviation of each v in V against the rows Q: einsum means,
    the excess by np.subtract, and risk_table's scaling by 2^-e."""
    e = np.frexp(np.abs(V).max(axis=1))[1]
    e[(r * (e + 1) < 1024) & (r * (e - 1) > -969)] = 0
    out, excesses = [], []
    for v in np.ldexp(V, -e[:, None]):
        mean = np.einsum("ij,ij->i", Q, v[None])
        excess = np.maximum(np.subtract(v, mean[:, None]), 0.0)
        excesses.append(excess)
        out.append(mean + lam * np.einsum("ij,ij->i", Q, excess ** r) ** (1.0 / r))
    return np.ldexp(out, e[:, None]), np.array(excesses)


@pytest.mark.parametrize("budget", [BLOCK_ELEMENTS, 7 * 60])  # one row block, or blocks of 7 rows
@pytest.mark.parametrize("lam, r", [(0.5, 2.0), (-0.3, 1.0), (0.8, 1.5)])
def test_semideviation_excess_is_the_exact_difference(monkeypatch, budget, lam, r):
    # the kernel writes v - mean as a rank-2 matrix product; each entry is
    # the one rounding of v_y - m_i, the bits of np.subtract, for random
    # rows, point masses (v_y = m_i, an excess of +0.0), spreads near the
    # square's overflow and below the normal range, and a kept subset
    monkeypatch.setattr(mdp, "BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(24)
    n = 60
    rows = np.vstack([rng.dirichlet(np.ones(n), size=150), np.eye(n)[rng.permutation(n)[:20]]])
    rows[::3, 0] = 0.0  # no mass where the tiny vector below has its 1
    rows /= rows.sum(axis=1, keepdims=True)
    tiny = np.concatenate([[1.0], rng.uniform(1e-310, 1e-305, size=n - 1)])
    V = np.vstack([rng.normal(size=(2, n)) * 3, np.zeros(n), rng.integers(-3, 4, size=n),
                   rng.normal(size=n) * 1e150, rng.normal(size=n) * 1e155, rng.normal(size=n) * 1e-301, tiny])
    spec = RiskMapSpec("mean_semideviation", lam=lam, r=r)
    want, excess = semideviation_reference(V, rows, lam, r)
    assert np.any((excess > 0) & (excess < np.finfo(float).tiny))  # subnormal differences occur
    assert np.any((excess == 0) & ~np.signbit(excess))
    assert np.array_equal(risk_table(spec, V, rows), want)
    keep = np.flatnonzero(rng.random(len(rows)) < 0.4)
    assert np.array_equal(risk_table(spec, V, rows, keep), semideviation_reference(V, rows[keep], lam, r)[0])


@pytest.mark.parametrize("lam, r, e", [(-0.6, 1.5, 0.01), (-1.0, 10.0, 1e-3), (-0.2, 1.2, 1e-6)])
def test_semideviation_below_zero_lambda_and_above_order_one_is_not_monotone(lam, r, e):
    # near a point mass the semideviation grows like e^(1/r) x, faster than
    # the mean's e x, so raising v_1 from 0 to 1 lowers R below R(0) = 0
    spec = RiskMapSpec("mean_semideviation", lam=lam, r=r)
    assert not spec.monotone
    assert eval_risk(spec, [0.0, 1.0], [1.0 - e, e]) < 0.0 == eval_risk(spec, [0.0, 0.0], [1.0 - e, e])
    assert all(s.monotone for s in ALL_SPECS + [RiskMapSpec("mean_semideviation", lam=lam, r=1.0)])


def logsumexp_reference(v, q, lam):
    """(1/lam) log sum_y q(y) exp(lam v(y)) for one row, shifted by the max of log q + lam v."""
    with np.errstate(divide="ignore"):
        a = np.log(q) + lam * np.asarray(v)
    top = a.max()
    return (top + np.log(np.sum(np.exp(a - top)))) / lam


@pytest.mark.parametrize("spread", [2.0, 40.0])
@pytest.mark.parametrize("lam", [1.0, -1.0, 5.0])
def test_entropic_matrix_product_matches_paired_logsumexp(lam, spread):
    # the shifted matrix product against a logsumexp of log q + lam v taken
    # row by row
    rng = np.random.default_rng(21)
    rows = rng.dirichlet(np.ones(200), size=300)
    v = rng.uniform(-0.5, 0.5, size=200) * spread
    spec = RiskMapSpec("entropic", lam=lam)
    got = risk_values(spec, v, rows)
    want = [logsumexp_reference(v, q, lam) for q in rows]
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def test_entropic_underflowing_row_falls_back_to_logsumexp():
    # exp(-800) underflows to 0, so the shifted product cannot take the log
    assert entropic([0.0, -800.0], [0.0, 1.0], 1.0) == -800.0
    rows = np.array([[0.0, 1.0], [0.5, 0.5]])
    got = risk_values(RiskMapSpec("entropic", lam=1.0), [0.0, -800.0], rows)
    assert got[0] == -800.0 and got[1] == pytest.approx(np.log(0.5))


@pytest.mark.parametrize("v, q, lam, want", [
    # lam v overflows for a finite v; lam (v - max v) does not
    ([1.2e308, 1.19e308, 0.0], [0.0, 1.0, 0.0], 1.5, 1.19e308),
    ([-1.2e308, -1.19e308, 0.0], [0.0, 1.0, 0.0], -1.5, -1.19e308),
    # a spread past the float range: the row's own extreme is the shift
    ([1e308, -1e308], [0.0, 1.0], 1.0, -1e308),
    ([1e308, -1e308], [1.0, 0.0], -1.0, 1e308),
])
def test_entropic_fallback_is_finite_where_the_exponent_overflows(v, q, lam, want):
    assert entropic(v, q, lam) == want


def test_risk_table_equals_per_sample_risk_values():
    rng = np.random.default_rng(22)
    for m, n, S in ((6, 4, 40), (700, 300, 3)):  # many samples per block; many blocks per sample
        rows = rng.dirichlet(np.ones(n), size=m)
        V = rng.normal(size=(S, n)) * 3
        for spec in ALL_SPECS + ORDER_BASED:
            table = risk_table(spec, V, rows)
            per_sample = np.array([risk_values(spec, v, rows) for v in V])
            assert table.shape == (S, m)
            if spec.kind in ("neutral", "entropic"):
                assert np.allclose(table, per_sample, rtol=0.0, atol=1e-14)
            else:
                assert np.array_equal(table, per_sample)


def test_risk_table_rejects_values_of_the_wrong_shape():
    rows = np.full((3, 4), 0.25)
    for V in (np.zeros(4), np.zeros((2, 3)), np.zeros((2, 4, 1))):
        with pytest.raises(ValueError):
            risk_table(RiskMapSpec("neutral"), V, rows)
    # risk_values takes one vector; a stack is named with the rows' shape
    for spec in ALL_SPECS:
        with pytest.raises(ValueError, match=r"\(2, 4\).*\(3, 4\)"):
            risk_values(spec, np.zeros((2, 4)), rows)
        with pytest.raises(ValueError, match=r"\(3,\).*\(3, 4\)"):
            risk_values(spec, np.zeros(3), rows)


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


BAND_CORRIDORS = [(0.0, 4.0), (0.5, 1.5), (1.0, 1.0), (0.5, 1.0), (0.0, 20.0)]


@pytest.mark.parametrize("g1, g2", BAND_CORRIDORS)
def test_band_matches_vertex_enumeration_with_ties_and_zero_mass(g1, g2):
    # AVaR (g1 = 0), an interior corridor, the two expectation corridors and
    # a wide AVaR whose cap binds on the first outcome; values drawn from a
    # few levels so ties are common, and some states carry no mass
    rng = np.random.default_rng(23)
    spec = RiskMapSpec("density_band", band=(g1, g2))
    for _ in range(40):
        n = int(rng.integers(2, 7))
        v = rng.integers(-2, 3, size=n) * 1.5 + (rng.normal(size=n) if rng.random() < 0.5 else 0.0)
        q = random_law(rng, n) * (rng.random(n) < 0.7)
        if q.sum() == 0.0:
            q[0] = 1.0
        q /= q.sum()
        got = risk_values(spec, v, q[None, :])[0]
        assert got == pytest.approx(brute_force_band(v, q, g1, g2), abs=1e-12)
        # xi >= g1 puts at least g1 of the mass on the mean, the rest is at least min v
        assert got >= g1 * float(q @ v) + (1.0 - g1) * float(v.min()) - 1e-12


def test_band_spread_beyond_float_range_stays_finite():
    # v_(k) - v_(k+1) overflows here, so the increments cannot carry the sum
    v = np.array([1e308, -1e308])
    q = np.array([[0.5, 0.5], [0.25, 0.75]])
    got = risk_values(RiskMapSpec("density_band", band=(0.5, 1.5)), v, q)
    assert np.allclose(got, [0.5e308, -0.25e308], rtol=1e-14, atol=0.0)


def band_edge_cases():
    """name -> (v, rows, g1, g2): laws of ten states or fewer, which the
    kernel cuts into two chunks of five sorted positions when it evaluates
    two rows or more, and into one for a single row."""
    v = np.arange(10.0, 0.0, -1.0)  # sorted from the top, so rank is index
    eighth, sixteenth = 0.125, 0.0625
    dyadic = np.array([eighth, eighth, eighth, sixteenth, sixteenth] * 2)
    rng = np.random.default_rng(41)
    laws = np.array([random_law(rng, 10) for _ in range(3)])
    zero_mass = laws.copy()
    zero_mass[:, 3:7] = 0.0  # the crossing of beta = 0.5 falls among them
    zero_mass /= zero_mass.sum(axis=1, keepdims=True)
    tail = np.vstack([np.full(10, 0.099), np.r_[np.full(9, 0.0999), 0.1009]])
    tail /= tail.sum(axis=1, keepdims=True)
    return {
        # the top five carry exactly beta = 0.5: k* is the last position of chunk 0
        "kstar_on_a_chunk_boundary": (v, np.vstack([dyadic, dyadic[::-1]]), 0.0, 2.0),
        # beta = 1 / 1.0001 exceeds the mass above the last outcome
        "beta_only_at_the_last_position": (v, tail, 0.0, 1.0001),
        "ties_straddling_a_boundary": (np.r_[9.0, 8.0, 7.0, 5.0, 5.0, 5.0, 5.0, 2.0, 1.0, 0.0], laws, 0.3, 1.7),
        "zero_mass_in_the_crossing_chunk": (v, zero_mass, 0.0, 2.0),
        "one_row": (rng.normal(size=10), laws[:1], 0.25, 2.5),
        "fewer_states_than_a_chunk": (rng.normal(size=3), np.array([random_law(rng, 3) for _ in range(6)]), 0.0, 3.0),
        "a_padded_last_chunk": (rng.normal(size=9), np.array([random_law(rng, 9) for _ in range(4)]), 0.5, 1.5),
        "average_value_at_risk": (rng.normal(size=10), laws, 0.0, 4.0),
        "the_mean": (rng.normal(size=10), laws, 1.0, 1.0),
        "a_wide_corridor": (rng.normal(size=10), laws, 0.2, 30.0),
    }


BAND_EDGE_CASES = band_edge_cases()


@pytest.mark.parametrize("name", list(BAND_EDGE_CASES))
def test_band_edge_cases_match_vertex_enumeration(name):
    v, rows, g1, g2 = BAND_EDGE_CASES[name]
    got = risk_values(RiskMapSpec("density_band", band=(g1, g2)), v, rows)
    want = [brute_force_band(v, q, g1, g2) for q in rows]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_band_table_in_vector_blocks_equals_vector_by_vector():
    # 100 vectors of 300 states against 3 rows are 5 blocks of 21 vectors;
    # one vector's spread is past the float range, and is evaluated halved
    rng = np.random.default_rng(42)
    rows = rng.dirichlet(np.ones(300), size=3)
    V = rng.normal(size=(100, 300)) * 3
    V[30, :2] = 1e308, -1e308
    spec = RiskMapSpec("density_band", band=(0.3, 2.5))
    got = risk_table(spec, V, rows)
    want = np.array([[eval_risk(spec, v, q) for q in rows] for v in V])
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.max(np.abs(V), axis=1))[:, None])


def test_band_is_translation_invariant_far_from_zero():
    rng = np.random.default_rng(43)
    rows = rng.dirichlet(np.ones(200), size=50)
    V = rng.normal(size=(8, 200)) * 3
    spec = RiskMapSpec("density_band", band=(0.5, 1.5))
    assert np.max(np.abs(risk_table(spec, V + 1e6, rows) - (risk_table(spec, V, rows) + 1e6))) <= 1e-9


def test_band_table_temporaries_stay_within_the_block_budget():
    # check_l2's blocks on the 201-state verify model: 326 samples against its
    # 402 rows, a 1 MiB table.  The kernel's temporaries for all of them stay
    # within 1.26 MiB, about two (rows, n) arrays.
    rng = np.random.default_rng(44)
    rows = rng.dirichlet(np.ones(200), size=402)
    V = rng.normal(size=(326, 200)) * 3
    spec = RiskMapSpec("density_band", band=(0.5, 1.5))
    tracemalloc.start()
    try:
        risk_table(spec, V, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.26 * 2 ** 20


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


@pytest.mark.parametrize("lam", [-0.6, 0.5])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
def test_semidev_matches_direct_formula_across_row_blocks(r, lam):
    # 1000 rows of 300 states are three 2^17-element blocks
    rng = np.random.default_rng(24)
    rows = rng.dirichlet(np.ones(300), size=1000)
    spec = RiskMapSpec("mean_semideviation", lam=lam, r=r)

    def direct(V):
        mean = np.sum(rows * V, axis=1)
        return mean + lam * np.sum(rows * np.maximum(V - mean[:, None], 0.0) ** r, axis=1) ** (1.0 / r)

    v = rng.normal(size=300) * 3
    V = rng.normal(size=(2, 300)) * 3
    assert np.allclose(risk_values(spec, v, rows), direct(np.tile(v, (1000, 1))), rtol=1e-12, atol=1e-12)
    want = [direct(np.tile(u, (1000, 1))) for u in V]
    assert np.allclose(risk_table(spec, V, rows), want, rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize("v, r, want", [
    ([1e160, -1e160], 2, 1e160 / 8 ** 0.5),  # the square of 1e160 overflows
    ([1e308, -1e308], 2, 1e308 / 8 ** 0.5),
    ([1e-200, 0.0], 2, 5e-201 * (1 + 8 ** -0.5)),  # the square of 5e-201 underflows
    # (c^1.5 / 2)^(1 / 1.5) = c 2^(-2/3) for mean 0, where c^1.5 overflows
    # (1e300) or underflows (1e-300) and 2^(-1.5 e) is no power of two
    ([1e300, -1e300], 1.5, 1e300 * 2 ** (-5 / 3)),
    ([1e-300, -1e-300], 1.5, 1e-300 * 2 ** (-5 / 3)),
])
def test_semidev_powers_neither_overflow_nor_underflow(v, r, want):
    # half the mass on each outcome: R = mean + lam (d^r / 2)^(1/r) for the
    # top outcome's excess d; warnings are errors here
    assert mean_semideviation(v, [0.5, 0.5], 0.5, r) == pytest.approx(want, rel=1e-15, abs=0.0)


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
    x = np.linspace(-5.0, 5.0, 101)
    want = np.where(x < -1.0, -1.0 + 0.5 * (x + 1.0), np.where(x > 1.0, 1.0 + 2.0 * (x - 1.0), x))
    assert np.allclose(u(x), want, rtol=0.0, atol=1e-14)
    assert u.intercept == -1.0  # the top piece is 2 x - 1


def test_utility_and_spec_hash_by_value():
    u = PiecewiseLinearUtility([-1.0, 1.0], [0.5, 1.0, 2.0])
    same = PiecewiseLinearUtility(np.array([-1.0, 1.0]), [0.5, 1, 2])
    assert u == same and hash(u) == hash(same)
    spec = RiskMapSpec("shortfall", utility=u)
    assert hash(spec) == hash(RiskMapSpec("shortfall", utility=same))
    assert len({spec, RiskMapSpec("shortfall", utility=same), RiskMapSpec("shortfall")}) == 2
    assert hash(RiskMapSpec("shortfall")) == hash(RiskMapSpec("shortfall", utility=PiecewiseLinearUtility.linear()))


def test_utility_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([0.0], [1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([1.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([0.0], [1.0, -2.0])
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([], [2.0])  # slopes must straddle 1


@pytest.mark.parametrize("breakpoints, slopes", [([np.nan], [0.5, 2.0]), ([0.0], [np.nan, 2.0]),
                                                 ([], [np.nan])])
def test_utility_rejects_nan(breakpoints, slopes):
    with pytest.raises(ValueError):
        PiecewiseLinearUtility(breakpoints, slopes)


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


INF, NAN = np.inf, np.nan


@pytest.mark.parametrize("v, want", [
    ([INF, 0.0, 1.0], [INF, NAN, INF, NAN]),
    ([-INF, 0.0, 1.0], [-INF, NAN, -INF, NAN]),
    ([NAN, 0.0, 1.0], [NAN] * 4),
    ([INF, -INF, 1.0], [NAN] * 4),
    ([0.0, 1.0, INF], [NAN, INF, INF, NAN]),
    ([-INF, 0.0, INF], [NAN] * 4),
])
@pytest.mark.parametrize("utility", [KINKED, PiecewiseLinearUtility([-1.0, 0.0, 1.0], [0.5, 1.0, 1.5, 3.0])])
def test_shortfall_rejects_non_finite_values(v, want, utility):
    # the mean of such a v is +-inf where an infinite outcome is charged and
    # NaN for 0 inf or inf - inf, so E[u(v - m)] = 0 has no finite root: the
    # shortfall rejects v, naming its first non-finite entry
    rows = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0]])
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(rows @ np.array(v), want)
    y = int(np.argmax(~np.isfinite(v)))
    with pytest.raises(ValueError, match=re.escape(f"values must be finite, got {v[y]} at vector 0, state {y}")):
        risk_values(RiskMapSpec("shortfall", utility=utility), v, rows)


@pytest.mark.parametrize("breakpoints, slopes", [
    ([0.0], [1.0, 2.0]),
    ([-1.0, 0.0, 1.0], [0.5, 1.0, 1.5, 3.0]),
    ([-0.5, 2.0], [1.0, 0.4, 1.0]),
    ([-50.0], [0.5, 1.0]),  # every kink above max v: the root is below the first kink
    ([30.0, 50.0], [1.0, 2.0, 3.0]),  # every kink below min v: the root is past the last
])
@pytest.mark.parametrize("n", [60, 137, 300])
def test_shortfall_on_wide_rows_matches_kink_enumeration(n, breakpoints, slopes):
    # one row is one chunk of all n K kinks, six rows cut six chunks, and the
    # six repeated eleven times cut about sqrt(n K); rounded v ties kinks,
    # and a fifth of the outcomes carry no mass
    u = PiecewiseLinearUtility(breakpoints, slopes)
    rng = np.random.default_rng(n + len(breakpoints))
    rows = rng.dirichlet(np.full(n, 0.5), size=6)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    spec = RiskMapSpec("shortfall", utility=u)
    for v in (rng.normal(size=n) * 3, np.round(rng.normal(size=n) * 3)):
        want = np.array([brute_force_shortfall(v, q, u) for q in rows])
        for got in (risk_values(spec, v, rows[:1]), risk_values(spec, v, rows),
                    risk_values(spec, v, np.tile(rows, (11, 1)))[:6]):
            assert np.max(np.abs(got - want[:len(got)])) <= 1e-10 * max(1.0, np.max(np.abs(v)))


def test_shortfall_temporaries_stay_in_row_blocks():
    # the checkpoint product and the refine both run per row block, so the
    # kernel's peak allocation is a small part of the rows it reads
    rng = np.random.default_rng(23)
    rows = rng.dirichlet(np.ones(1000), size=8000)
    v = rng.normal(size=1000) * 3
    spec = RiskMapSpec("shortfall", utility=PiecewiseLinearUtility([-1.0, 0.0, 1.0], [0.5, 1.0, 1.5, 3.0]))
    tracemalloc.start()
    try:
        got = risk_values(spec, v, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes / 4
    # 3000 kinks make w = 54 and blocks of 2427 rows: rows on both sides of
    # each block edge agree with the rows evaluated alone
    edges = [0, 2426, 2427, 4853, 4854, 7280, 7281, 7999]
    alone = [eval_risk(spec, v, rows[i]) for i in edges]
    assert np.max(np.abs(got[edges] - alone)) <= 1e-14 * np.max(np.abs(v))


def test_shortfall_rows_on_both_sides_of_each_row_block_edge_agree_with_rows_alone():
    # the rows are evaluated in blocks of the checkpoint product's width for
    # one value vector; the product rounds a row by the rows beside it, so
    # each edge is checked from the kernel's own chunking
    rng = np.random.default_rng(23)
    rows = rng.dirichlet(np.ones(1000), size=8000)
    v = rng.normal(size=1000) * 3
    spec = RiskMapSpec("shortfall", utility=PiecewiseLinearUtility([-1.0, 0.0, 1.0], [0.5, 1.0, 1.5, 3.0]))
    nb, w = risk._chunks(3000, len(rows), 1000)
    blocks = row_blocks(len(rows), 2 * nb + 1 + 2 * w)
    assert len(blocks) > 2
    edges = [i for sl in blocks[1:] for i in (sl.start - 1, sl.start)]
    got = risk_values(spec, v, rows)[edges]
    alone = [eval_risk(spec, v, rows[i]) for i in edges]
    assert np.max(np.abs(got - alone)) <= 1e-14 * np.max(np.abs(v))


def test_shortfall_of_one_long_row_allocates_a_few_arrays_of_its_kinks():
    # one row is one chunk, so no (n, chunks) matrix grows with the law
    n = 100_000
    rng = np.random.default_rng(24)
    q, v = rng.dirichlet(np.ones(n)), rng.normal(size=n) * 3
    tracemalloc.start()
    try:
        shortfall(v, q, KINKED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 8 * n


def test_band_of_one_long_row_allocates_a_few_arrays_of_its_outcomes():
    # one row is one chunk of all n outcomes, whose running sums are a
    # cumulative sum, not a product with an (n, n) triangle
    n = 100_000
    rng = np.random.default_rng(26)
    q, v = rng.dirichlet(np.ones(n)), rng.normal(size=n) * 3
    tracemalloc.start()
    try:
        got = density_band(v, q, 0.5, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 8 * n
    # the distortion form: sum of v_(k) (g(C_k) - g(C_(k-1))) for the top mass C_k
    order = np.argsort(-v)
    C = np.concatenate(([0.0], np.cumsum(q[order])))
    assert got == pytest.approx(v[order] @ np.diff(np.minimum(1.5 * C, 0.5 * C + 0.5)), abs=1e-12)


def test_shortfall_spread_beyond_float_range_stays_finite():
    # the kinks 1e308 and -1e308 are halved with the breakpoints, and E[u]
    # at a kink (up to L times the spread) is scaled below the float range;
    # the root solves 2 q_1 (1e308 - m) = 0.5 q_2 (1e308 + m)
    u = PiecewiseLinearUtility([0.0], [0.5, 2.0])
    assert shortfall([1e308, -1e308], [0.5, 0.5], u) == pytest.approx(6e307, rel=1e-15)
    q = np.array([[0.5, 0.5], [0.25, 0.75]])
    got = risk_values(RiskMapSpec("shortfall", utility=u), np.array([1e308, -1e308]), q)
    assert np.allclose(got, [6e307, 1e308 / 7], rtol=1e-15, atol=0.0)


def test_shortfall_table_in_vector_blocks_equals_vector_by_vector():
    # 100 vectors of 300 states against 3 rows are blocks of 36 vectors
    rng = np.random.default_rng(25)
    rows = rng.dirichlet(np.ones(300), size=3)
    V = rng.normal(size=(100, 300)) * 3
    spec = RiskMapSpec("shortfall", utility=PiecewiseLinearUtility([-1.0, 0.0, 1.0], [0.5, 1.0, 1.5, 3.0]))
    got = risk_table(spec, V, rows)
    want = np.array([[eval_risk(spec, v, q) for q in rows] for v in V])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(V))


# --- the shortfall's dominating envelope -------------------------------------------


def envelope_spec(l, L):
    """The shortfall map of slopes (1, L / l) kinked at 0: the sup over slope
    reweightings delta in [l, L] of sum(delta q u) / sum(delta q)."""
    return RiskMapSpec("shortfall", utility=PiecewiseLinearUtility((0.0,), (1.0, L / l)))


def brute_force_ratio(u, p, lo, hi):
    """The maximum sits at a vertex of the box: try all 2^n."""
    best = -np.inf
    for signs in itertools.product([0, 1], repeat=len(u)):
        d = np.where(signs, hi, lo)
        best = max(best, float(np.dot(p * d, u) / np.dot(p, d)))
    return best


def test_ratio_box_matches_vertex_enumeration():
    # the envelope over a constant box [l, L] is the vertex maximum, ties included
    rng = np.random.default_rng(12)
    for tied in (False, True):
        for _ in range(80):
            n = int(rng.integers(2, 7))
            u = rng.normal(size=n) * 3
            if tied:
                u = np.round(u / 3)  # mostly repeated values in {-2, ..., 2}
            p = random_law(rng, n)
            l = rng.uniform(0.2, 1.0)
            L = l + rng.uniform(0.0, 3.0)
            val = shortfall(u, p, envelope_spec(l, L).utility)
            assert val == pytest.approx(brute_force_ratio(u, p, np.full(n, l), np.full(n, L)), abs=1e-10)
            # the value is the root of E[L (u - m)_+ - l (u - m)_-]
            root = np.dot(p, L * np.maximum(u - val, 0.0) - l * np.maximum(val - u, 0.0))
            assert root == pytest.approx(0.0, abs=1e-12)


def test_shortfall_envelope_collapsed_slopes_is_mean():
    rng = np.random.default_rng(16)
    u = rng.normal(size=4)
    q = random_law(rng, 4)
    assert shortfall(u, q, envelope_spec(1.0, 1.0).utility) == pytest.approx(float(q @ u), abs=1e-12)


def test_shortfall_envelope_hand_value():
    # (0 - m) / 2 + 2 (1 - m) / 2 = 0
    assert shortfall([0.0, 1.0], [0.5, 0.5], envelope_spec(1.0, 2.0).utility) == pytest.approx(2.0 / 3.0, abs=1e-12)


S_SHAPED = PiecewiseLinearUtility([-1.0, 1.0], [0.5, 2.0, 0.8])  # mixed preferences: l = 0.5, L = 2


def test_shortfall_envelope_dominates_shortfall_increments():
    # R(v) - R(w) <= S(v - w), S the shortfall of slopes (1, L / l); for an
    # S-shaped u this is more than subadditivity, which fails on some draws
    rng = np.random.default_rng(17)
    spec, env = RiskMapSpec("shortfall", utility=S_SHAPED), envelope_spec(S_SHAPED.l, S_SHAPED.L)
    past_subadditivity = 0.0
    for n in (2, 3, 5):
        rows = np.array([random_law(rng, n) for _ in range(20)])
        V, W = rng.normal(size=(2, 30, n)) * 2
        lhs = risk_table(spec, V, rows) - risk_table(spec, W, rows)
        assert np.all(lhs <= risk_table(env, V - W, rows) + 1e-12)
        past_subadditivity = max(past_subadditivity, np.max(lhs - risk_table(spec, V - W, rows)))
    assert past_subadditivity > 0.1


# --- axiom checking ---------------------------------------------------------------


def test_axioms_neutral_all_pass():
    rep = check_risk_axioms(RiskMapSpec("neutral"), builtin_chain("biased2"), n_samples=500)
    assert rep.ok
    assert all(c.passed for c in rep.checks.values())


@pytest.mark.parametrize("n_samples", [0, -3])
def test_axioms_reject_sample_counts_below_one(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        check_risk_axioms(RiskMapSpec("neutral"), builtin_chain("biased2"), n_samples=n_samples)


def test_axioms_entropic_homogeneity_fails_with_witness():
    rep = check_risk_axioms(RiskMapSpec("entropic", lam=1.0), builtin_chain("biased2"), n_samples=500)
    assert rep.ok  # base axioms + claimed convexity hold
    hom = rep.checks["positive_homogeneity"]
    assert not hom.claimed
    assert not hom.passed
    assert hom.witness is not None and "s" in hom.witness
    # the witness is one (vector, row) pair of a table of at least 500 pairs
    assert len(hom.witness["v"]) == len(hom.witness["row"]) == 2 and hom.n_checked >= 500
    v, q, s = (np.array(hom.witness[k]) for k in ("v", "row", "s"))
    assert hom.witness["lhs"] == pytest.approx(abs(entropic(s * v, q, 1.0) - s * entropic(v, q, 1.0)), abs=1e-12)


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
    rows = np.array([random_law(rng, 3) for _ in range(18)])
    values = rng.normal(size=(17, 3)) * 2

    spec = envelope_spec(1.0, 2.0)
    rep = check_axioms_of(lambda V, R: risk_table(spec, V, R), {"convexity", "positive_homogeneity", "subadditivity"},
                          rows, values, rng)
    assert rep.ok, {k: (c.passed, c.max_violation) for k, c in rep.checks.items()}
    assert all(c.n_checked == 17 * 18 for c in rep.checks.values())


def test_axioms_checker_rejects_unknown_claim_names():
    rng = np.random.default_rng(19)
    rows = np.array([random_law(rng, 3) for _ in range(5)])
    values = rng.normal(size=(5, 3))
    for claims in ({"convex"}, {"homogeneous", "convexity"}, {"subadditive"}):
        with pytest.raises(ValueError, match="unknown axiom claims"):
            check_axioms_of(lambda V, R: V @ R.T, claims, rows, values, rng)


def test_axiom_checks_do_not_claim_monotonicity_for_a_map_that_is_not_monotone():
    # lam -0.6, r 1.5 fails only near a point mass, which these draws never
    # reach, so the check passes; it is reported but not claimed
    pool = builtin_chain("random_seeded", n=6, m=3, seed=7)
    spec = RiskMapSpec("mean_semideviation", lam=-0.6, r=1.5)
    check = check_risk_axioms(spec, pool, n_samples=10_000, seed=3).checks["monotonicity"]
    assert not spec.monotone and not check.claimed and check.n_checked >= 10_000
    steep = check_risk_axioms(RiskMapSpec("mean_semideviation", lam=-1.0, r=10.0), pool, n_samples=10_000, seed=3)
    assert not steep.checks["monotonicity"].claimed and not steep.checks["monotonicity"].passed
    assert steep.ok


def test_spec_claims_are_check_names():
    pool = builtin_chain("random_seeded", n=4, m=2, seed=7)
    for spec in ALL_SPECS:
        rep = check_risk_axioms(spec, pool, n_samples=20, seed=1)
        assert spec.claims <= set(rep.checks)
        assert {k for k, c in rep.checks.items() if c.claimed} == spec.claims | {
            "monotonicity", "translation_invariance", "centralization"}


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


@pytest.mark.parametrize("kind, params, field", [
    ("entropic", {"lam": np.nan}, "lam"),
    ("entropic", {"lam": np.inf}, "lam"),
    ("mean_semideviation", {"lam": 0.5, "r": np.inf}, "r"),
    ("mean_semideviation", {"lam": 0.5, "r": np.nan}, "r"),
    ("density_band", {"band": (0.5, np.inf)}, "band"),
    ("neutral", {"lam": np.nan}, "lam"),
])
def test_risk_spec_rejects_non_finite_params_naming_the_field(kind, params, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RiskMapSpec(kind, **params)


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

    @given(vec3, vec3, st.floats(min_value=1e-4, max_value=0.5), st.floats(min_value=-1.0, max_value=0.0))
    @settings(max_examples=150, deadline=None)
    def test_monotonicity_property_of_order_one_semideviation_with_negative_lambda(a, b, e, lam):
        # the derivative in v_y stays at or above q_y (1 - |lam|), even near a point mass
        v = np.array(a)
        u = np.maximum(v, np.array(b))
        q = np.array([1.0 - e, e / 2, e / 2])
        spec = RiskMapSpec("mean_semideviation", lam=lam, r=1.0)
        assert spec.monotone
        assert eval_risk(spec, v, q) <= eval_risk(spec, u, q) + 1e-8
