import functools
import json

import numpy as np
import pytest

from riskmdp import mdp
from riskmdp.mdp import (
    BLOCK_ELEMENTS,
    DenseRows,
    FactoredRows,
    NUMBERS,
    FiniteMCP,
    PolicyVector,
    json_value,
    level_set,
    policy_transition_and_cost,
    row_blocks,
    validate_mcp,
    weighted_seminorm,
)
from riskmdp.models import builtin_chain

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def two_state(rows, cost=((0.0,), (1.0,))):
    return FiniteMCP(
        actions=[["a"], ["a"]],
        transition=[np.array([rows[0]]), np.array([rows[1]])],
        cost=[np.array(cost[0]), np.array(cost[1])],
    )


# --- stacked storage ----------------------------------------------------


def test_per_state_views_share_the_stacked_rows():
    m = builtin_chain("random_seeded", n=4, m=3, seed=3)
    assert m.stacked_transition.shape == (12, 4)
    assert m.row_offsets.tolist() == [0, 3, 6, 9, 12]
    for x in range(m.n_states):
        assert np.shares_memory(m.transition[x], m.stacked_transition)
        assert np.shares_memory(m.cost[x], m.stacked_cost)
        assert np.array_equal(m.transition[x], m.stacked_transition[3 * x : 3 * x + 3])
    assert len(m.transition) == 4
    assert np.array_equal(m.transition[-1], m.transition[3])
    with pytest.raises(IndexError):
        m.transition[4]


def test_with_cost_shares_rows_and_replaces_only_cost():
    m = builtin_chain("random_seeded", n=4, m=2, seed=4)
    m2 = m.with_cost(np.arange(8.0))
    assert np.shares_memory(m2.stacked_transition, m.stacked_transition)
    assert m2.cost[1].tolist() == [2.0, 3.0]
    assert not np.array_equal(m.stacked_cost, m2.stacked_cost)  # original untouched
    assert m2.with_cost([np.zeros(2)] * 4).stacked_cost.tolist() == [0.0] * 8


def test_stacked_arrays_are_read_only():
    m = builtin_chain("biased2")
    with pytest.raises(ValueError):
        m.stacked_transition[0, 0] = 1.0
    with pytest.raises(ValueError):
        m.transition[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        m.stacked_cost[0] = 5.0


def test_read_only_rule_leaves_the_callers_array_writable():
    rows = np.array([[0.5, 0.5], [0.3, 0.7]])
    m = FiniteMCP(actions=[["a"], ["a"]], transition=rows, cost=np.zeros(2))
    rows[0, 0] = 0.25
    assert not m.stacked_transition.flags.writeable


def test_stacked_and_per_state_inputs_build_the_same_model():
    m = builtin_chain("random_seeded", n=3, m=2, seed=6)
    m2 = FiniteMCP(actions=m.actions, transition=np.array(m.stacked_transition),
                   cost=np.array(m.stacked_cost))
    assert np.array_equal(m2.stacked_transition, m.stacked_transition)
    assert np.array_equal(m2.stacked_cost, m.stacked_cost)
    assert m2.row_offsets.tolist() == m.row_offsets.tolist()


@pytest.mark.parametrize(
    "transition, cost, where",
    [
        ([[[0.5, 0.5]], [[1.0]]], [[0.0], [1.0]], "x=1"),
        ([[[0.5, 0.5]], [[0.5, 0.5], [1.0]]], [[0.0], [1.0]], "x=1"),
        ([[[0.5, 0.5]], [[0.5, 0.5]]], [[0.0], [1.0, 2.0]], "x=1"),
        ([[[0.5, 0.5]]], [[0.0], [1.0]], "states"),
        (np.full((3, 2), 0.5), np.zeros(2), "stacked transition"),
    ],
)
def test_mismatched_shapes_raise_at_construction(transition, cost, where):
    with pytest.raises(ValueError, match=where):
        FiniteMCP(actions=[["a"], ["a"]], transition=transition, cost=cost)


def test_empty_action_set_raises_at_construction():
    with pytest.raises(ValueError, match="empty action set at x=1"):
        FiniteMCP(actions=[["a"], []], transition=[[[1.0, 0.0]], np.empty((0, 2))], cost=[[0.0], []])


# --- validation ---------------------------------------------------------


def test_validate_builtin_chains_ok():
    for name in ("uniform2", "biased2", "ring"):
        rep = validate_mcp(builtin_chain(name))
        assert rep.ok, rep.violations
    rep = validate_mcp(builtin_chain("random_seeded", n=5, m=3, seed=1))
    assert rep.ok


def test_validate_flags_bad_row_sum_with_location():
    m = two_state(((0.6, 0.5), (0.5, 0.5)))
    rep = validate_mcp(m)
    assert not rep.ok
    assert any("row sum" in v and "x=0" in v and "a=0" in v for v in rep.violations)


def test_validate_flags_negative_entry():
    m = two_state(((1.1, -0.1), (0.5, 0.5)))
    rep = validate_mcp(m)
    assert not rep.ok
    assert any("negative entry" in v for v in rep.violations)


def test_validate_flags_nonfinite_cost():
    m = two_state(((0.5, 0.5), (0.5, 0.5)), cost=((np.inf,), (1.0,)))
    rep = validate_mcp(m)
    assert not rep.ok
    assert any("cost" in v for v in rep.violations)


def test_validate_lists_violations_by_state_then_action():
    m = FiniteMCP(
        actions=[["a", "b"], ["a"]],
        transition=[np.array([[0.5, 0.5], [1.2, -0.1]]), np.array([[0.5, 0.6]])],
        cost=[np.array([0.0, 0.0]), np.array([np.nan])],
    )
    assert validate_mcp(m).violations == [
        "negative entry -0.1 at (x=0, a=1, y=1)",
        "row sum 1.1 at (x=0, a=1)",
        "non-finite cost at x=1",
        "row sum 1.1 at (x=1, a=0)",
    ]


def stochastic(rng, shape):
    f = rng.uniform(0.1, 1.0, size=shape)
    return f / f.sum(axis=-1, keepdims=True)


def kron_store(rng, k, widths):
    """A store of k actions per state whose per-axis factors are random stochastic matrices."""
    return FactoredRows([stochastic(rng, (k, p, p)) for p in widths])


def factored_chain(store, n_actions=None):
    """A model on prod(p_d) states with the rows of ``store``, n_actions (by default k) per state."""
    n = store.shape[1]
    n_actions = len(store) // n if n_actions is None else n_actions
    return FiniteMCP(actions=[[f"a{j}" for j in range(n_actions)]] * n, transition=store,
                     cost=np.zeros(n * n_actions))


def kron_rows(store):
    """The store's rows, each action's as the Kronecker product of its factors."""
    k = len(store.factors[0])
    rows = np.empty(store.shape)
    for a in range(k):
        rows[a::k] = functools.reduce(np.kron, [f[a] for f in store.factors])
    return rows


def test_validate_checks_factored_rows_on_their_factors():
    factors = [stochastic(np.random.default_rng(3), (2, p, p)) for p in (2, 3)]  # 6 states, 2 actions each
    assert validate_mcp(factored_chain(FactoredRows(factors))).ok
    factors[1][1, 2, 1] += factors[1][1, 2, 0] + 0.1  # action 1 from node 2 of axis 1: a negative
    factors[1][1, 2, 0] = -0.1  # entry, in a row that still sums to one
    factors[0][0, 1] *= 1.1  # action 0 from node 1 of axis 0: row sum 1.1
    m = factored_chain(FactoredRows(factors))
    assert validate_mcp(m).violations == [  # every row that has such a factor row is named
        "negative factor entry -0.1 at (x=2, a=1, axis=1, y=0)",
        "row sum 1.1 at (x=3, a=0)",
        "row sum 1.1 at (x=4, a=0)",
        "row sum 1.1 at (x=5, a=0)",
        "negative factor entry -0.1 at (x=5, a=1, axis=1, y=0)",
    ]
    assert "stacked_transition" not in vars(m)  # checked without the dense export


def test_validate_flags_non_finite_factor_entries_by_their_row_sum():
    factors = [stochastic(np.random.default_rng(4), (2, 2, 2)) for _ in range(2)]
    factors[0][1, 1, 1] = np.nan  # action 1 from node 1 of axis 0
    factors[1][0, 0, 0] = np.inf  # action 0 from node 0 of axis 1
    assert validate_mcp(factored_chain(FactoredRows(factors))).violations == [
        "row sum inf at (x=0, a=0)",
        "row sum inf at (x=2, a=0)",
        "row sum nan at (x=2, a=1)",
        "row sum nan at (x=3, a=1)",
    ]


def test_factored_rows_are_kronecker_products_of_each_actions_factors():
    store = kron_store(np.random.default_rng(5), 2, (2, 3, 4))
    want = kron_rows(store)
    assert store.shape == (48, 24) and len(store) == 48
    np.testing.assert_allclose(store.take([7, 2, 7]), want[[7, 2, 7]], rtol=1e-15, atol=0)
    dense = store.take(slice(None))
    np.testing.assert_allclose(dense, want, rtol=1e-15, atol=0)
    assert np.array_equal(store.take([7, 2]), dense[[7, 2]])  # one way of writing rows
    assert np.array_equal(store.take(slice(5, 9)), dense[5:9])


@pytest.mark.parametrize("widths", [(5,), (4, 7), (3, 5, 2)])
@pytest.mark.parametrize("k", [1, 3])
def test_factored_product_matches_the_dense_rows(monkeypatch, widths, k):
    rng = np.random.default_rng(len(widths) + k)
    store = kron_store(rng, k, widths)
    dense = DenseRows(kron_rows(store))
    W = rng.normal(0.0, 5.0, size=(6, store.shape[1]))
    want = dense.product(W)
    for budget in (BLOCK_ELEMENTS, 7):  # one block, or one vector at a time
        monkeypatch.setattr(mdp, "BLOCK_ELEMENTS", budget)
        np.testing.assert_allclose(store.product(W), want, rtol=0, atol=1e-15 * np.abs(W).max())


@pytest.mark.parametrize("widths", [(5,), (4, 7), (3, 5, 2)])
def test_row_dots_match_the_dots_of_the_rows_taken(widths):
    # dots(idx, G)[i] = sum_y Q[idx_i, y] G[i, y], G a block or one shared
    # row: the dense store's is the einsum over the rows it takes, bit for
    # bit, and the factored store's contracts the per-axis rows instead, or
    # reads a shared row's product, within sum(p_d) roundings a term
    rng = np.random.default_rng(40 + len(widths))
    factored = kron_store(rng, 2, widths)
    dense = DenseRows(kron_rows(factored))
    n = factored.shape[1]
    bound = sum(widths) * np.finfo(float).eps
    for idx in (slice(None), slice(3, 2 * n + 9), slice(4, 4), np.array([7, 2, 7, 0]), np.array([], dtype=np.intp),
                np.array([5])):
        count = len(dense.take(idx))
        for G in (rng.normal(0.0, 5.0, size=(count, n)), rng.normal(0.0, 5.0, size=(1, n))):
            for store in (dense, factored):
                Q = store.take(idx)
                got, want = store.dots(idx, G), np.einsum("ij,ij->i", Q, np.broadcast_to(G, Q.shape))
                assert got.shape == (count,)
                if store is dense:
                    assert np.array_equal(got, want)
                else:
                    if len(G) == 1 != count:  # a shared row; one row's own is a block of one
                        assert np.array_equal(got, store.product(G)[0, idx])
                    assert np.all(np.abs(got - want) <= bound * (np.abs(Q) * np.abs(G)).sum(axis=1))


@pytest.mark.parametrize("widths", [(5,), (4, 7), (3, 5, 2)])
def test_entries_are_the_masses_of_the_rows_taken(widths):
    # entries(idx, cols)[.., i] = Q[idx_i, cols[.., i]]: gathered from the
    # dense rows, and on factored rows the product of one entry per axis,
    # first axis first, as take writes them: the same bits either way
    rng = np.random.default_rng(50 + len(widths))
    factored = kron_store(rng, 2, widths)
    dense = DenseRows(kron_rows(factored))
    n = factored.shape[1]
    for idx in (slice(None), slice(3, 2 * n + 9), slice(4, 4), np.array([7, 2, 7, 0]), np.array([], dtype=np.intp)):
        Q = dense.take(idx)
        cols = rng.integers(0, n, size=(3, 2, len(Q)))
        want = Q[np.arange(len(Q)), cols]
        assert np.array_equal(dense.entries(idx, cols), want)
        got = factored.entries(idx, cols)
        assert got.shape == cols.shape and np.array_equal(got, want)
        assert np.array_equal(got, factored.take(idx)[np.arange(len(Q)), cols])


def test_a_store_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match=r"stacked transition shape \(12, 6\), want \(6, 6\)"):
        factored_chain(kron_store(np.random.default_rng(0), 2, (2, 3)), n_actions=1)
    for factors in ([], [np.ones((2, 2))], [np.ones((2, 3, 2))], [np.ones((2, 2, 2)), np.ones((3, 3, 3))]):
        with pytest.raises(ValueError, match=r"one \(k, p_d, p_d\) array per axis d"):
            FactoredRows(factors)


def test_factored_model_restricts_and_round_trips_through_json_as_dense_rows():
    m = factored_chain(kron_store(np.random.default_rng(8), 2, (2, 3)))
    one = m.restrict_to_policy(PolicyVector.det([1, 0, 0, 1, 1, 0]))
    assert one.rows.layout == "dense" and "stacked_transition" not in vars(m)
    back = FiniteMCP.from_dict(json.loads(json.dumps(m.to_dict())))
    assert back.rows.layout == "dense" and np.array_equal(back.stacked_transition, m.stacked_transition)
    assert np.array_equal(one.stacked_transition, m.stacked_transition[[1, 2, 4, 7, 9, 10]])


def test_policy_kernel_of_a_factored_model_takes_the_policy_rows_only():
    m = factored_chain(kron_store(np.random.default_rng(6), 2, (2, 3)))
    pi = PolicyVector.det([1, 0, 0, 1, 1, 0])
    P, c = policy_transition_and_cost(m, pi)
    assert "stacked_transition" not in vars(m)
    assert np.array_equal(P, m.stacked_transition[m.row_offsets[:-1] + pi.deterministic])
    mix = PolicyVector.rand([[0.5, 0.5]] * 6)
    P_mix, _ = policy_transition_and_cost(m, mix)
    np.testing.assert_allclose(P_mix, 0.5 * (m.stacked_transition[0::2] + m.stacked_transition[1::2]), rtol=1e-15)


# --- weighted seminorm ----------------------------------------------------


def pair_scan_seminorm(v, w):
    """Reference: max over all pairs of |v(x) - v(y)| / (w(x) + w(y))."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    if v.size < 2:
        return 0.0
    return float(np.max(np.abs(v[:, None] - v[None, :]) / (w[:, None] + w[None, :])))


def test_weighted_seminorm_hand_values():
    assert weighted_seminorm([0.0, 1.0], [1.0, 1.0]) == 0.5
    assert weighted_seminorm([0.0, 1.0, 3.0], [1.0, 1.0, 1.0]) == 1.5
    assert weighted_seminorm([4.0, 4.0, 4.0], [1.0, 2.0, 1.0]) == 0.0


def test_weighted_seminorm_single_state_is_zero():
    assert weighted_seminorm([7.0], [2.0]) == 0.0


def test_seminorm_invariant_under_constant_shift():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=6)
        w = rng.uniform(0.5, 3.0, size=6)
        c = rng.normal() * 10
        assert weighted_seminorm(v + c, w) == pytest.approx(weighted_seminorm(v, w), abs=1e-12)


def test_seminorm_below_norm_for_weights_at_least_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.normal(size=5) * 3
        w = rng.uniform(1.0, 4.0, size=5)
        assert weighted_seminorm(v, w) <= np.max(np.abs(v) / w) + 1e-12


SEMINORM_CASES = {
    "random": lambda rng, n: (rng.normal(size=n) * rng.uniform(0.01, 1e3), rng.uniform(0.1, 10.0, size=n)),
    "ties": lambda rng, n: (rng.integers(-2, 3, size=n).astype(float), rng.integers(1, 4, size=n).astype(float)),
    "constant": lambda rng, n: (np.full(n, rng.normal()), rng.uniform(0.1, 10.0, size=n)),
    "unit_weights": lambda rng, n: (rng.normal(size=n), np.ones(n)),
    "large_offset": lambda rng, n: (1e6 + rng.normal(size=n), 1.0 + rng.exponential(5.0, size=n)),
}


@pytest.mark.parametrize("case", sorted(SEMINORM_CASES))
def test_seminorm_equals_pair_scan(case):
    rng = np.random.default_rng(7)
    for n in rng.integers(1, 30, size=500):
        v, w = SEMINORM_CASES[case](rng, n)
        assert weighted_seminorm(v, w) == pair_scan_seminorm(v, w)


def test_seminorm_at_a_size_the_pair_scan_cannot_allocate():
    # 20,000 states: the pair scan would need three 3.2 GB temporaries
    v = np.random.default_rng(5).normal(size=20_000)
    assert weighted_seminorm(v, np.ones(v.size)) == np.ptp(v) / 2


def test_seminorm_rejects_bad_weights_and_propagates_nan():
    with pytest.raises(ValueError, match="shape mismatch"):
        weighted_seminorm([1.0, 2.0], [1.0])
    for w in ([1.0, 0.0], [1.0, np.inf], [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            weighted_seminorm([1.0, 2.0], w)
    assert np.isnan(weighted_seminorm([1.0, np.nan, 3.0], [1.0, 2.0, 1.0]))


# --- row blocks -----------------------------------------------------------------


def test_row_blocks_cover_the_rows_in_order():
    per = BLOCK_ELEMENTS // 300
    blocks = row_blocks(1000, 300)
    assert [(b.start, b.stop) for b in blocks] == [(i, i + per) for i in range(0, 1000, per)]
    assert row_blocks(3, 10 * BLOCK_ELEMENTS) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert row_blocks(0, 5) == []


# --- level sets ---------------------------------------------------------


def test_level_set():
    w0 = np.array([0.0, 1.0, 5.0, 2.0])
    assert level_set(w0, 2.0).tolist() == [0, 1, 3]
    assert level_set(w0, -1.0).size == 0
    assert level_set(w0, np.inf).tolist() == [0, 1, 2, 3]


# --- policies -------------------------------------------------------------


def test_policy_validation():
    m = builtin_chain("random_seeded", n=3, m=2, seed=0)
    PolicyVector.det([0, 1, 0]).validate(m)
    with pytest.raises(ValueError):
        PolicyVector.det([0, 2, 0]).validate(m)
    with pytest.raises(ValueError):
        PolicyVector.det([0, 0]).validate(m)
    PolicyVector.rand([np.array([0.5, 0.5])] * 3).validate(m)
    with pytest.raises(ValueError, match="mixture at state 0 is not a probability vector"):
        PolicyVector.rand([np.array([0.5, 0.4])] * 3).validate(m)
    with pytest.raises(ValueError, match="mixture at state 2 is not a probability vector"):
        PolicyVector.rand([[0.5, 0.5], [0.0, 1.0], [1.5, -0.5]]).validate(m)
    with pytest.raises(ValueError, match="mixture length mismatch at state 1"):
        PolicyVector.rand([[0.5, 0.5], [1.0], [0.5, 0.5]]).validate(m)
    with pytest.raises(ValueError, match="policy length != n_states"):
        PolicyVector.rand([[0.5, 0.5]] * 2).validate(m)


def test_policy_kernel_deterministic_and_randomized():
    m = builtin_chain("random_seeded", n=3, m=2, seed=5)
    P, c = policy_transition_and_cost(m, PolicyVector.det([1, 0, 1]))
    assert np.allclose(P[0], m.transition[0][1])
    assert c[2] == m.cost[2][1]
    mix = PolicyVector.rand([np.array([0.25, 0.75])] * 3)
    P2, c2 = policy_transition_and_cost(m, mix)
    assert np.allclose(P2[1], 0.25 * m.transition[1][0] + 0.75 * m.transition[1][1])
    assert c2[1] == pytest.approx(0.25 * m.cost[1][0] + 0.75 * m.cost[1][1])
    assert np.allclose(P2.sum(axis=1), 1.0)


# --- JSON round trip ------------------------------------------------------


def test_json_round_trip_is_exact(tmp_path):
    m = builtin_chain("random_seeded", n=4, m=3, seed=9)
    path = tmp_path / "model.json"
    m.save_json(path)
    m2 = FiniteMCP.load_json(path)
    assert m2.n_states == m.n_states
    assert m2.actions == m.actions
    for x in range(m.n_states):
        assert np.array_equal(m2.transition[x], m.transition[x])
        assert np.array_equal(m2.cost[x], m.cost[x])
    assert np.array_equal(m2.state_coords, m.state_coords)


def test_json_field_names():
    m = builtin_chain("uniform2")
    d = m.to_dict()
    assert set(d) == {"n_states", "actions", "transition", "cost", "coords"}
    assert d["n_states"] == 2
    # must survive a plain json dump/load
    d2 = json.loads(json.dumps(d))
    m2 = FiniteMCP.from_dict(d2)
    assert np.array_equal(m2.transition[0], m.transition[0])


def test_restrict_to_policy_picks_rows():
    m = builtin_chain("random_seeded", n=3, m=2, seed=2)
    sub = m.restrict_to_policy(PolicyVector.det([1, 1, 0]))
    assert sub.n_actions(0) == 1
    assert np.array_equal(sub.transition[0][0], m.transition[0][1])
    assert sub.cost[2][0] == m.cost[2][0]
    assert sub.actions == [["a1"], ["a1"], ["a0"]]
    with pytest.raises(ValueError, match="out of range"):
        m.restrict_to_policy(PolicyVector.det([2, 0, 0]))


# --- reading JSON values --------------------------------------------------

ODD_VALUES = [True, "2", 2.5, [], {}, None]


@pytest.mark.parametrize("kind, accepts", [
    (float, {2: 2.5}), (int, {}), (bool, {0: True}), (str, {1: "2"}), (dict, {4: {}}),
    (NUMBERS, {2: 2.5, 3: []}), ([float], {3: []}), ((float, float), {}),
], ids=["float", "int", "bool", "str", "dict", "numbers", "list", "tuple"])
def test_json_value_takes_each_kind_by_its_json_type_only(kind, accepts):
    # accepts maps the index of each value in ODD_VALUES that the kind reads to what it reads as
    for i, val in enumerate(ODD_VALUES):
        if i in accepts:
            got = json_value(val, kind, "key")
            assert got == accepts[i] and type(got) is type(accepts[i])
        else:
            with pytest.raises(ValueError, match=r"^'key' must be .*, got "):
                json_value(val, kind, "key")


def test_json_value_converts_numbers_and_names_list_entries():
    assert json_value(2, float, "k") == 2.0 and type(json_value(2, float, "k")) is float
    assert json_value(3.0, int, "k") == 3 and type(json_value(3.0, int, "k")) is int
    assert json_value([1.0, 2], [int], "k") == [1, 2]
    assert json_value([0, 2], (float, float), "k") == (0.0, 2.0)
    assert json_value([[1, 2.5], []], NUMBERS, "k") == [[1, 2.5], []]
    for val, kind, words in [
        ([[1.0, "x"]], NUMBERS, "'A[0][1]' must be a real number, got 'x'"),
        ([1.0, True], [float], "'A[1]' must be a real number, got True"),
        ([1.0], (float, float), "'A' must be a list of 2 real numbers, got [1.0]"),
        (["ab"], [[str]], "'A[0]' must be a list of strings, got 'ab'"),
        (float("inf"), int, "'A' must be a whole number, got inf"),
        (float("nan"), int, "'A' must be a whole number, got nan"),
        ({"a": 1}, [dict], "'A' must be a list of JSON objects, got {'a': 1}"),
        ("yes", bool, "'A' must be true or false, got 'yes'"),
        (10**400, float, f"'A' must be a real number, got {10**400!r}"),  # float() raised OverflowError
    ]:
        with pytest.raises(ValueError) as err:
            json_value(val, kind, "A")
        assert str(err.value) == words


# --- hypothesis properties ------------------------------------------------

if HAVE_HYPOTHESIS:
    finite_vectors = st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=6
    )

    @given(finite_vectors, st.floats(min_value=-20, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_seminorm_translation_invariance_property(vals, c):
        v = np.array(vals)
        w = np.ones(len(v))
        assert weighted_seminorm(v + c, w) == pytest.approx(weighted_seminorm(v, w), abs=1e-9)

    @given(finite_vectors, st.floats(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_seminorm_absolute_homogeneity_property(vals, s):
        v = np.array(vals)
        w = np.ones(len(v))
        assert weighted_seminorm(s * v, w) == pytest.approx(s * weighted_seminorm(v, w), rel=1e-9, abs=1e-9)

    @given(finite_vectors, finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_seminorm_triangle_inequality_property(a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        w = np.ones(n)
        assert weighted_seminorm(va + vb, w) <= weighted_seminorm(va, w) + weighted_seminorm(vb, w) + 1e-9
