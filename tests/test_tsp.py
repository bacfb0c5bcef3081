import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_cost_matrix
from oracles import (
    brute_force_path,
    brute_force_tour,
    held_karp_loop,
    nearest_neighbor_ref,
    route_cost_ref,
    tie_rule_order,
    two_opt_loop,
)
from routeseq import tsp
from routeseq.errors import InvalidInputError
from routeseq.tsp import (
    _held_karp,
    _nearest_neighbor,
    _seq_cost,
    _two_opt,
    route_cost,
    solve_path,
    solve_tour,
)


def test_single_node_tour():
    sol = solve_tour(np.zeros((1, 1)), origin=0)
    assert sol.order == [0]
    assert sol.cost == 0.0


def test_symmetric_triangle():
    m = np.ones((3, 3)) - np.eye(3)
    sol = solve_tour(m, origin=0)
    assert sol.cost == 3.0
    assert sol.order[0] == 0


def _tie_heavy_matrix(rng, n):
    """Integer costs in 1..3, so many tours and paths tie."""
    m = rng.integers(1, 4, size=(n, n)).astype(float)
    np.fill_diagonal(m, 0.0)
    return m


def test_tour_matches_brute_force(rng):
    for i in range(20):
        m = random_cost_matrix(rng, 7) if i < 10 else _tie_heavy_matrix(rng, 7)
        sol = solve_tour(m, origin=0)
        _, best = brute_force_tour(m, 0)
        assert sol.cost == pytest.approx(best, rel=1e-12)
        assert sol.method == "exact"


def test_path_two_nodes():
    m = np.array([[0.0, 4.0], [9.0, 0.0]])
    sol = solve_path(m, 0, 1)
    assert sol.order == [0, 1]
    assert sol.cost == 4.0


def test_path_single_node():
    sol = solve_path(np.zeros((1, 1)), 0, 0)
    assert sol.order == [0]
    assert sol.cost == 0.0


def test_path_same_endpoints_rejected():
    m = random_cost_matrix(np.random.default_rng(0), 4)
    with pytest.raises(InvalidInputError):
        solve_path(m, 2, 2)


def test_path_matches_brute_force(rng):
    for i in range(20):
        m = random_cost_matrix(rng, 6) if i < 10 else _tie_heavy_matrix(rng, 6)
        sol = solve_path(m, 0, 5)
        _, best = brute_force_path(m, 0, 5)
        assert sol.cost == pytest.approx(best, rel=1e-12)


# Held-Karp's tie rule: walking back from the end, each tie goes to the
# smallest node index.  On an all-equal matrix every order ties, so the last
# interior node is the smallest one, the one before it the next smallest, and
# so on: the interior comes out in descending order.
TIE_RULE_TOURS = {  # (n, origin): order
    (3, 0): [0, 2, 1], (3, 1): [1, 2, 0],
    (4, 0): [0, 3, 2, 1], (4, 2): [2, 3, 1, 0],
    (5, 0): [0, 4, 3, 2, 1], (5, 2): [2, 4, 3, 1, 0],
    (6, 0): [0, 5, 4, 3, 2, 1], (6, 3): [3, 5, 4, 2, 1, 0],
}
TIE_RULE_PATHS = {  # (n, first, last): order
    (3, 0, 2): [0, 1, 2], (3, 2, 0): [2, 1, 0],
    (4, 0, 3): [0, 2, 1, 3], (4, 3, 0): [3, 2, 1, 0],
    (5, 0, 4): [0, 3, 2, 1, 4], (5, 4, 0): [4, 3, 2, 1, 0],
    (6, 0, 5): [0, 4, 3, 2, 1, 5], (6, 5, 0): [5, 4, 3, 2, 1, 0],
    (6, 1, 4): [1, 5, 3, 2, 0, 4], (6, 4, 1): [4, 5, 3, 2, 0, 1],
}


def test_held_karp_tie_rule_on_all_equal_matrix():
    for (n, origin), order in TIE_RULE_TOURS.items():
        sol = solve_tour(np.ones((n, n)) - np.eye(n), origin=origin)
        assert (sol.order, sol.cost, sol.method) == (order, float(n), "exact"), (n, origin)
    for (n, first, last), order in TIE_RULE_PATHS.items():
        sol = solve_path(np.ones((n, n)) - np.eye(n), first, last)
        assert (sol.order, sol.cost, sol.method) == (order, float(n - 1), "exact"), (n, first, last)


def _square_matrices(draw_matrix):
    """Square cost matrices of 1..7 nodes with a zero diagonal."""
    def zero_diagonal(m):
        np.fill_diagonal(m, 0.0)
        return m

    return st.integers(1, 7).flatmap(draw_matrix).map(zero_diagonal)


def _assert_tie_rule_exact(m):
    n = m.shape[0]
    for origin in range(n):
        sol = solve_tour(m, origin=origin)
        assert (sol.order, sol.cost) == tie_rule_order(m, origin, None), ("tour", origin)
    for first in range(n):
        for last in range(n):
            if first != last:
                sol = solve_path(m, first, last)
                assert (sol.order, sol.cost) == tie_rule_order(m, first, last), (first, last)


# Every tour and every path of small matrices, against exhaustive enumeration
# under the same tie rule and summation order: order and cost must be equal.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_square_matrices(lambda n: arrays(np.float64, (n, n), elements=st.integers(1, 3))))
def test_tie_rule_matches_oracle_on_integer_matrices(m):
    _assert_tie_rule_exact(m)


# Real matrices are uniform draws: distinct entries with full mantissas.  The
# DP only ever extends a cheapest prefix, so it can part from enumeration
# where two prefixes of unequal cost round to a tie once a leg is added.
# Hand-picked floats (repeated values with long mantissas) can build that
# case; continuous draws make it vanishingly rare.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_square_matrices(lambda n: st.integers(0, 2**32 - 1).map(
    lambda seed: np.random.default_rng(seed).uniform(0.5, 50.0, size=(n, n)))))
def test_tie_rule_matches_oracle_on_real_matrices(m):
    _assert_tie_rule_exact(m)


def test_matches_plain_loop_held_karp_up_to_threshold(rng):
    # Past enumeration and up to the exact threshold, tours and paths agree
    # bit for bit with the loop DP.
    for n in (8, 11, 13):
        for m in (random_cost_matrix(rng, n), _tie_heavy_matrix(rng, n)):
            origin, first, last = (int(v) for v in rng.choice(n, size=3, replace=False))
            sol = solve_tour(m, origin=origin)
            order, cost = held_karp_loop(m, origin, origin)
            assert (sol.order, sol.cost, sol.method) == (order[:-1], cost, "exact"), n
            sol = solve_path(m, first, last)
            assert (sol.order, sol.cost) == held_karp_loop(m, first, last), n


def test_stacked_held_karp_matches_each_start_alone(rng):
    # The tables of several starts share one DP; each start reads out the
    # same ends bytes and paths as its table built alone, in any start order.
    for n in range(1, 14):
        for m in (random_cost_matrix(rng, n), _tie_heavy_matrix(rng, n)):
            starts = [int(v) for v in rng.permutation(n)[:3]]
            for start, (interior, ends, path) in zip(starts, _held_karp(m, starts)):
                alone_interior, alone_ends, alone_path = _held_karp(m, [start])[0]
                assert interior == alone_interior, (n, starts)
                assert ends.tobytes() == alone_ends.tobytes(), (n, starts)
                assert [path(u) for u in range(n - 1)] == [alone_path(u) for u in range(n - 1)]


def test_invalid_matrices_rejected():
    with pytest.raises(InvalidInputError):
        solve_tour(np.zeros((2, 3)))
    bad = np.zeros((3, 3))
    bad[0, 1] = -1.0
    with pytest.raises(InvalidInputError):
        solve_tour(bad)


def test_route_cost_examples():
    assert route_cost([0], np.zeros((1, 1)), close_tour=True) == 0.0
    m = np.zeros((3, 3))
    m[0, 1], m[1, 2], m[2, 0] = 5.0, 7.0, 9.0
    assert route_cost([0, 1, 2], m, close_tour=True) == 21.0
    with pytest.raises(InvalidInputError):
        route_cost([0, 1, 1], m)


def test_asymmetric_reversal_differs():
    m = np.array([
        [0.0, 1.0, 10.0],
        [10.0, 0.0, 1.0],
        [1.0, 10.0, 0.0],
    ])
    fwd = route_cost([0, 1, 2], m, close_tour=True)
    rev = route_cost([0, 2, 1], m, close_tour=True)
    assert fwd != rev


def test_symmetric_reversal_equal(rng):
    m = random_cost_matrix(rng, 6, symmetric=True)
    order = [0, 3, 1, 5, 2, 4]
    rev = [order[0]] + order[1:][::-1]
    assert route_cost(order, m, close_tour=True) == pytest.approx(
        route_cost(rev, m, close_tour=True), rel=1e-12)


def test_heuristic_never_beats_exact(rng):
    for _ in range(10):
        m = random_cost_matrix(rng, 9)
        exact = solve_tour(m, origin=0)
        heur = solve_tour(m, origin=0, exact_threshold=3)
        assert heur.method == "heuristic"
        assert heur.cost >= exact.cost - 1e-9
        assert sorted(heur.order) == list(range(9))


def test_two_opt_improves_nearest_neighbor(rng):
    for _ in range(10):
        m = random_cost_matrix(rng, 12)
        nn_order = _nearest_neighbor(m, 0, list(range(1, 12)), None)
        nn_cost = route_cost_ref(nn_order, m, close=True)
        _, improved = _two_opt(list(nn_order), m, close=True, fixed_last=False)
        assert improved <= nn_cost + 1e-9


@st.composite
def _two_opt_cases(draw):
    """Matrices of 4..20 nodes, real or with entries 0..2 (so candidate
    costs tie), the integer ones with -0.0 legs among their zeros, and an
    order starting at node 0; a fixed-last path keeps its last node."""
    n = draw(st.integers(4, 20))
    if draw(st.booleans()):
        elements = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    else:
        elements = st.sampled_from([0.0, -0.0, 1.0, 2.0])
    m = draw(arrays(np.float64, (n, n), elements=elements))
    np.fill_diagonal(m, 0.0)
    return m, [0, *draw(st.permutations(range(1, n)))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_two_opt_cases())
def test_two_opt_matches_plain_loop_oracle(case):
    # Every candidate's cost is summed in the loop's order, so the moves,
    # the orders and the costs keep their bits, ties and -0.0 legs included.
    m, order = case
    for close, fixed_last in ((True, False), (False, True)):
        got_order, got_cost = _two_opt(list(order), m, close, fixed_last)
        want_order, want_cost = two_opt_loop(list(order), m, close, fixed_last)
        assert got_order == want_order
        assert type(got_cost) is float and got_cost.hex() == want_cost.hex()


def test_two_opt_with_negative_zero_legs_matches_oracle():
    m = np.array([[0.0, -0.0, 2.0, 1.0, -0.0],
                  [2.0, 0.0, -0.0, 2.0, 1.0],
                  [-0.0, 1.0, 0.0, -0.0, 2.0],
                  [1.0, 2.0, 1.0, 0.0, -0.0],
                  [-0.0, -0.0, 2.0, 1.0, 0.0]])
    for close, fixed_last in ((True, False), (False, True)):
        got = _two_opt([0, 4, 3, 2, 1], m, close, fixed_last)
        want = two_opt_loop([0, 4, 3, 2, 1], m, close, fixed_last)
        assert got[0] == want[0] and got[1].hex() == want[1].hex()


def test_two_opt_cap_binds(monkeypatch, rng):
    # With the cap at one move per 16^2 nodes, 2-opt stops after its first
    # improving move: a permutation whose cost is its full sum, short of
    # what the uncapped run reaches.
    n = 16
    m = random_cost_matrix(rng, n, symmetric=True)
    order = list(range(n))
    free_order, free_cost = _two_opt(list(order), m, close=True, fixed_last=False)
    monkeypatch.setattr(tsp, "TWO_OPT_CAP", 1 / n**2)
    capped_order, capped_cost = _two_opt(list(order), m, close=True, fixed_last=False)
    assert sorted(capped_order) == list(range(n)) and capped_order[0] == 0
    assert capped_cost == _seq_cost(capped_order, m, close=True)
    assert (capped_order, capped_cost) == two_opt_loop(list(order), m, True, False, cap=1)
    assert capped_order != order and capped_cost > free_cost


@st.composite
def _nearest_neighbor_cases(draw):
    """Integer matrices with entries 0..2 (so nearest nodes tie) of 1..9
    nodes, a start, an end other than the start (None for one node), and
    every node in a drawn order."""
    n = draw(st.integers(1, 9))
    m = draw(arrays(np.float64, (n, n), elements=st.integers(0, 2)))
    start = draw(st.integers(0, n - 1))
    end = draw(st.sampled_from([v for v in range(n) if v != start] or [None]))
    return m, start, end, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_nearest_neighbor_cases())
def test_nearest_neighbor_matches_plain_loop_oracle(case):
    # Ties go to the smallest index whatever the order of the pool, with
    # and without a fixed end.
    m, start, fixed_end, nodes = case
    for end in (None, fixed_end):
        pool = [v for v in nodes if v not in (start, end)]
        assert _nearest_neighbor(m, start, pool, end) == nearest_neighbor_ref(m, start, pool, end)


def test_tour_cost_invariant_to_relabeling(rng):
    m = random_cost_matrix(rng, 8)
    perm = list(rng.permutation(8))
    m2 = m[np.ix_(perm, perm)]
    cost1 = solve_tour(m, origin=perm[0]).cost
    cost2 = solve_tour(m2, origin=0).cost
    assert cost1 == pytest.approx(cost2, rel=1e-12)


def test_heuristic_path_respects_endpoints(rng):
    m = random_cost_matrix(rng, 16)
    sol = solve_path(m, 2, 9, exact_threshold=5)
    assert sol.order[0] == 2 and sol.order[-1] == 9
    assert sorted(sol.order) == list(range(16))
    assert sol.method == "heuristic"
