import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import erp_exhaustive, erp_traceback_ref, sd_ref, time_norm_ref
from routeseq import completion, datagen, scoring
from routeseq.errors import InvalidInputError
from routeseq.predictor import prepare_route
from routeseq.scoring import (
    disparity,
    erp,
    evaluate_testset,
    first_k_accuracy,
    score_route,
    sequence_deviation,
)
from routeseq.training import TrainConfig, train


def _random_matrix(rng, n):
    m = rng.uniform(1.0, 30.0, size=(n + 1, n + 1))
    np.fill_diagonal(m, 0.0)
    return m


# --- sequence deviation --------------------------------------------------------

def test_sd_identity_is_zero():
    assert sequence_deviation([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0


def test_sd_hand_value_one_third():
    assert sequence_deviation([1, 2, 3, 4], [1, 3, 2, 4]) == 1 / 3


def test_sd_reversal_preserves_adjacency():
    assert sequence_deviation([1, 2, 3], [3, 2, 1]) == 0.0


def test_sd_matches_reference(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        actual = list(rng.permutation(n) + 1)
        predicted = list(rng.permutation(n) + 1)
        assert sequence_deviation(actual, predicted) == pytest.approx(
            sd_ref(actual, predicted), abs=1e-15)


def test_sd_invariant_under_relabeling(rng):
    actual = [1, 2, 3, 4, 5]
    predicted = [2, 1, 5, 3, 4]
    base = sequence_deviation(actual, predicted)
    relabel = {s: s * 10 for s in actual}
    assert sequence_deviation([relabel[s] for s in actual],
                              [relabel[s] for s in predicted]) == base


def test_sd_single_element_convention():
    assert sequence_deviation([1], [1]) == 0.0


def test_sd_rejects_non_permutation():
    with pytest.raises(InvalidInputError):
        sequence_deviation([1, 2, 3], [1, 2, 2])


# --- erp -------------------------------------------------------------------------

def test_erp_identity_is_zero(rng):
    m = _random_matrix(rng, 5)
    seq = [1, 2, 3, 4, 5]
    norm, edits = erp(seq, seq, m)
    assert norm == 0.0
    assert edits == 0


def test_time_norm_hand_value():
    # times from s1 to (s1, s2, s3) are (0, 2, 6): Time_norm(s1, s3) = 0.75
    m = np.zeros((4, 4))
    m[1, 2], m[1, 3] = 2.0, 6.0
    tn = time_norm_ref(m, {1, 2, 3})
    assert tn(1, 3) == 0.75


def test_erp_zero_row_guard():
    m = np.zeros((3, 3))  # all travel times zero
    norm, edits = erp([1, 2], [2, 1], m)
    assert norm == 0.0
    assert edits == 0


def test_erp_matches_exhaustive_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = _random_matrix(rng, n)
        actual = list(rng.permutation(n) + 1)
        predicted = list(rng.permutation(n) + 1)
        norm, edits = erp(actual, predicted, m)
        ref_norm, ref_edits = erp_exhaustive(actual, predicted, m)
        assert norm == pytest.approx(ref_norm, abs=1e-12)
        assert edits == ref_edits


@st.composite
def _two_orders(draw):
    """Two orders of the stops 1..n (n <= 8) and a travel-time matrix with
    the depot at 0: uniform reals, or integers 0..3 (ties, zero rows)."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = rng.integers(0, 4, size=(n + 1, n + 1)).astype(float)
        np.fill_diagonal(m, 0.0)
    else:
        m = _random_matrix(rng, n)
    stops = range(1, n + 1)
    return list(draw(st.permutations(stops))), list(draw(st.permutations(stops))), m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_two_orders())
def test_erp_and_disparity_identities(case):
    a, b, m = case
    assert erp(a, a, m) == (0.0, 0)
    assert disparity(a, a, m) == 0.0
    norm, edits = erp(a, b, m)
    assert norm >= 0.0
    assert 0 <= edits <= len(a) + len(b)


@st.composite
def _route_scale_pair(draw):
    """An order of the stops 1..n (n <= 80), a shuffle or a few neighbour
    swaps of it, and a matrix with the depot at 0: uniform reals, integers
    0..3 (heavy on ties), or uniform reals with one row zeroed."""
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(("real", "integer", "zeroed_row")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":
        m = rng.integers(0, 4, size=(n + 1, n + 1)).astype(float)
    else:
        m = _random_matrix(rng, n)
    if kind == "zeroed_row":
        m[draw(st.integers(0, n))] = 0.0
    actual = list(rng.permutation(n) + 1)
    if draw(st.booleans()):
        predicted = list(rng.permutation(actual))
    else:
        predicted = list(actual)
        for i in rng.integers(0, n, size=3):
            if i + 1 < n:
                predicted[i], predicted[i + 1] = predicted[i + 1], predicted[i]
    return actual, predicted, m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_route_scale_pair())
def test_erp_is_bit_identical_to_the_traceback_reference(case):
    actual, predicted, m = case
    norm, edits = erp(actual, predicted, m)
    ref_norm, ref_edits = erp_traceback_ref(actual, predicted, m)
    assert norm.hex() == ref_norm.hex()
    assert edits == ref_edits


# --- disparity ---------------------------------------------------------------------

def test_disparity_identity_zero(rng):
    m = _random_matrix(rng, 4)
    assert disparity([1, 2, 3, 4], [1, 2, 3, 4], m) == 0.0


def test_disparity_composition():
    # SD = 1/3, ERP_norm = 0.9, ERP_e = 3 -> R = 0.1 by direct arithmetic
    assert (1 / 3) * 0.9 / 3 == pytest.approx(0.1, abs=1e-15)


def test_disparity_matches_components(rng):
    for _ in range(10):
        n = 5
        m = _random_matrix(rng, n)
        actual = list(rng.permutation(n) + 1)
        predicted = list(rng.permutation(n) + 1)
        r = disparity(actual, predicted, m)
        sd = sequence_deviation(actual, predicted)
        norm, edits = erp(actual, predicted, m)
        expected = 0.0 if edits == 0 else sd * norm / edits
        assert r == pytest.approx(expected, rel=1e-12)
        assert r >= 0.0


def test_disparity_zero_iff_match(rng):
    m = _random_matrix(rng, 5)
    actual = [1, 2, 3, 4, 5]
    assert disparity(actual, list(actual), m) == 0.0
    for _ in range(10):
        predicted = list(rng.permutation(5) + 1)
        if predicted != actual:
            assert disparity(actual, predicted, m) > 0.0


def test_disparity_of_reversal_is_zero(rng):
    # SD of a reversal is 0, so R is 0: a documented metric property
    m = _random_matrix(rng, 5)
    actual = [1, 2, 3, 4, 5]
    assert disparity(actual, actual[::-1], m) == 0.0


# --- first-k accuracy -----------------------------------------------------------------

def test_first_k_identical():
    assert first_k_accuracy([5, 2, 7, 1], [5, 2, 7, 1]) == (1, 1, 1, 1)


def test_first_k_first_wrong():
    assert first_k_accuracy([5, 2, 7, 1], [2, 5, 7, 1])[0] == 0


def test_first_k_swap():
    assert first_k_accuracy([1, 2, 3, 4], [2, 1, 3, 4]) == (0, 0, 1, 1)


def test_first_k_short_sequences():
    assert first_k_accuracy([1, 2], [1, 2]) == (1, 1)
    assert first_k_accuracy([3, 1, 2], [1, 3]) == (0, 0)
    assert first_k_accuracy([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 6, 5]) == (1, 1, 1, 1)


# --- evaluate_testset ---------------------------------------------------------------------

def _dataset(behavior="cluster_biased", n=6, seed=0):
    return datagen.generate(datagen.SynthConfig(
        n_routes=n, zones_per_route=(4, 6), stops_per_zone=(2, 4),
        behavior=behavior, seed=seed))


def test_perfect_predictor_scores_zero():
    routes = _dataset()
    sequences = {
        r.route_id: {"stop_sequence": [r.stops[i].stop_id for i in r.actual_stop_sequence]}
        for r in routes
    }
    report = evaluate_testset(routes, sequences=sequences)
    assert report.mean_r == 0.0
    assert report.accuracy == (1.0, 1.0, 1.0, 1.0)
    assert not report.failures


def test_single_route_aggregate():
    routes = _dataset(n=2)[:1]
    prep = prepare_route(routes[0])
    sequences = {routes[0].route_id: {
        "zone_sequence": [prep.zinst.zones[z].zone_id for z in prep.targets]}}
    report = evaluate_testset(routes, sequences=sequences)
    assert report.std_r == 0.0
    assert report.median_r == report.mean_r


def test_tsp_baseline_positive_on_planted_rule():
    routes = _dataset(behavior="cluster_biased", n=10, seed=5)
    sequences = {}
    for r in routes:
        prep = prepare_route(r)
        sequences[r.route_id] = {
            "zone_sequence": [prep.zinst.zones[z].zone_id for z in prep.tsp_order]}
    report = evaluate_testset(routes, sequences=sequences)
    assert report.mean_r > 0.0


def test_failures_surfaced_not_fatal():
    routes = _dataset(n=3)
    sequences = {
        r.route_id: {"stop_sequence": [r.stops[i].stop_id for i in r.actual_stop_sequence]}
        for r in routes[:2]
    }
    report = evaluate_testset(routes, sequences=sequences)
    assert len(report.rows) == 2
    assert len(report.failures) == 1
    assert report.failures[0][0] == routes[2].route_id


def test_unknown_stop_id_is_a_route_failure():
    routes = _dataset(n=2)
    sequences = {
        r.route_id: {"stop_sequence": [r.stops[i].stop_id for i in r.actual_stop_sequence]}
        for r in routes
    }
    sequences[routes[1].route_id]["stop_sequence"][0] = "NO-SUCH-STOP"
    report = evaluate_testset(routes, sequences=sequences)
    assert len(report.rows) == 1
    assert report.failures == [
        (routes[1].route_id, "InvalidInputError: unknown stop id 'NO-SUCH-STOP'")]


def test_non_mapping_entry_is_a_route_failure():
    routes = _dataset(n=2)
    sequences = {
        r.route_id: {"stop_sequence": [r.stops[i].stop_id for i in r.actual_stop_sequence]}
        for r in routes
    }
    sequences[routes[0].route_id] = ["Z"]
    report = evaluate_testset(routes, sequences=sequences)
    assert len(report.rows) == 1
    assert report.failures == [
        (routes[0].route_id, "InvalidInputError: prediction entry must be a mapping, not list")]


def test_non_list_sequence_is_a_route_failure():
    routes = _dataset(n=3)
    sequences = {
        r.route_id: {"stop_sequence": [r.stops[i].stop_id for i in r.actual_stop_sequence]}
        for r in routes
    }
    sequences[routes[0].route_id] = {"stop_sequence": 5}
    sequences[routes[1].route_id] = {"zone_sequence": 7}
    report = evaluate_testset(routes, sequences=sequences)
    assert len(report.rows) == 1
    assert report.failures == [
        (routes[0].route_id, "InvalidInputError: stop_sequence must be a list, not int"),
        (routes[1].route_id, "InvalidInputError: zone_sequence must be a list, not int")]


def test_unknown_mode_rejected_before_any_route(monkeypatch):
    routes = _dataset(n=3)
    params, _ = train(routes, TrainConfig(epochs=1, hidden=8, asnn_hidden=(16, 16), att_dim=8))
    prepared = []
    monkeypatch.setattr(scoring, "prepare_route", lambda r: prepared.append(r) or prepare_route(r))
    with pytest.raises(InvalidInputError, match="unknown generation mode 'bogus'"):
        evaluate_testset(routes, params=params, mode="bogus")
    assert prepared == []


def test_program_errors_propagate(monkeypatch):
    routes = _dataset(n=2)
    sequences = {}
    for r in routes:
        prep = prepare_route(r)
        sequences[r.route_id] = {
            "zone_sequence": [prep.zinst.zones[z].zone_id for z in prep.targets]}

    def broken(*args, **kwargs):
        raise RuntimeError("bug in completion")

    monkeypatch.setattr(completion, "complete_sequence", broken)
    with pytest.raises(RuntimeError, match="bug in completion"):
        evaluate_testset(routes, sequences=sequences)


def test_score_route_expands_zone_order():
    route = _dataset(n=1)[0]
    prep = prepare_route(route)
    row = score_route(route, prep, zone_order=list(prep.targets))
    assert row.r == 0.0  # planted within-zone paths match the expansion
    assert row.first_k == tuple([1] * len(row.first_k))


def test_evaluate_requires_input():
    routes = _dataset(n=2)
    with pytest.raises(InvalidInputError):
        evaluate_testset(routes)
    with pytest.raises(InvalidInputError):
        evaluate_testset([], sequences={})
