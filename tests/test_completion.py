from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_route
from oracles import zone_path_per_pair_ref
from routeseq import completion, tsp
from routeseq.completion import N_CANDIDATES, best_zone_path, complete_sequence
from routeseq.domain import build_zone_instance
from routeseq.errors import InvalidInputError


def _candidate_pairs(route, members, entry_from, next_nodes):
    """Independent re-derivation of the 3x3 candidate endpoint pairs."""
    tt = route.travel_time
    firsts = sorted(members, key=lambda m: (tt[entry_from, m + 1], m))[:N_CANDIDATES]
    lasts = sorted(members, key=lambda m: (np.mean([tt[m + 1, t] for t in next_nodes]), m))[:N_CANDIDATES]
    return firsts, lasts


def _path_cost(tt, perm):
    return sum(tt[a + 1, b + 1] for a, b in zip(perm, perm[1:]))


def _brute_force_zone(route, members, entry_from, next_nodes):
    """Exhaustive mirror of the candidate procedure: enumerate permutations
    for each (f, l) pair with f != l; for degenerate (f, f) pairs enumerate
    closed tours from f and drop the closing edge of the best one."""
    tt = route.travel_time
    firsts, lasts = _candidate_pairs(route, members, entry_from, next_nodes)
    options = []
    for f in firsts:
        for l in lasts:
            if f != l:
                for perm in permutations(members):
                    if perm[0] == f and perm[-1] == l:
                        options.append((_path_cost(tt, perm), list(perm)))
            else:
                best_tour, best_tour_cost = None, None
                for perm in permutations(members):
                    if perm[0] != f:
                        continue
                    tour_cost = _path_cost(tt, perm) + tt[perm[-1] + 1, f + 1]
                    if best_tour_cost is None or tour_cost < best_tour_cost:
                        best_tour_cost, best_tour = tour_cost, perm
                options.append((best_tour_cost - tt[best_tour[-1] + 1, f + 1], list(best_tour)))
    best_cost = min(c for c, _ in options)
    candidates = [p for c, p in options if abs(c - best_cost) <= 1e-12]
    return min(candidates), best_cost


def test_singleton_zones_passthrough():
    route = make_route(["A-1.1A", "B-1.1A", "C-1.1A"])
    zi = build_zone_instance(route)
    for zone_order in permutations(range(3)):
        seq = complete_sequence(list(zone_order), zi, route)
        assert seq == [zi.zones[z].member_stops[0] for z in zone_order]


def test_two_stop_zone_picks_cheaper_orientation():
    # stops 0,1 share a zone; enumerate both orientations by hand
    times = np.array([
        [0.0, 10.0, 30.0, 5.0],
        [4.0, 0.0, 2.0, 9.0],
        [3.0, 20.0, 0.0, 8.0],
        [7.0, 6.0, 11.0, 0.0],
    ])
    route = make_route(["A-1.1A", "A-1.1A", "B-1.1A"], times=times)
    zi = build_zone_instance(route)
    seq = complete_sequence([0, 1], zi, route)
    forward = times[1, 2]   # 0 -> 1 within the zone
    backward = times[2, 1]  # 1 -> 0
    expected = [0, 1] if forward <= backward else [1, 0]
    assert seq[:2] == expected
    assert seq[2] == 2


def test_zone_path_matches_brute_force(rng):
    for trial in range(20):
        n = int(rng.integers(2, 7))
        total = n + 2
        times = rng.uniform(5.0, 80.0, size=(total + 1, total + 1))
        np.fill_diagonal(times, 0.0)
        zone_ids = ["Z-1.1A"] * n + ["N-1.1A", "N-1.1A"]
        route = make_route(zone_ids, times=times)
        members = list(range(n))
        next_nodes = [n + 1, n + 2]
        path, cost = best_zone_path(route, members, 0, next_nodes)
        ref_path, ref_cost = _brute_force_zone(route, members, 0, next_nodes)
        assert cost == pytest.approx(ref_cost, rel=1e-12)
        assert sorted(path) == members


def _zone_case(rng, n, kind, entry):
    """A zone of stops 0..n-1 (in shuffled order) beside a next zone of
    1..30 stops; travel times lognormal reals or integers 0..2 (ties); the
    entry from the depot or from a stop of a third zone."""
    total = n + int(rng.integers(1, 31)) + 1
    if kind == "lognormal":
        times = rng.lognormal(4.0, 1.0, size=(total + 1, total + 1))
    else:
        times = rng.integers(0, 3, size=(total + 1, total + 1)).astype(float)
    np.fill_diagonal(times, 0.0)
    route = make_route(["Z-1.1A"] * n + ["N-1.1A"] * (total - n - 1) + ["E-1.1A"], times=times)
    members = [int(m) for m in rng.permutation(n)]
    next_nodes = list(range(n + 1, total))
    return route, members, 0 if entry == "depot" else total, next_nodes


@pytest.mark.parametrize("entry", ["depot", "stop"])
@pytest.mark.parametrize("kind", ["lognormal", "integer"])
@pytest.mark.parametrize("n", range(1, 16))
def test_best_zone_path_is_bit_identical_to_the_per_pair_reference(n, kind, entry):
    # Zones of up to 13 stops read their pairs from per-entry tables, larger
    # ones still solve each pair heuristically.
    rng = np.random.default_rng([n, len(kind), len(entry)])
    for _ in range(4):
        route, members, entry_from, next_nodes = _zone_case(rng, n, kind, entry)
        for nxt in (next_nodes, [0]):
            path, cost = best_zone_path(route, members, entry_from, nxt)
            ref_path, ref_cost = zone_path_per_pair_ref(route, members, entry_from, nxt)
            assert (path, cost.hex()) == (ref_path, ref_cost.hex())


def test_best_zone_path_builds_one_table_per_candidate_entry(monkeypatch):
    # Every exit candidate's path comes from its entry's Held-Karp table, and
    # a zone builds the tables of its at most N_CANDIDATES entries as one
    # stacked DP.
    calls = []

    def counted(m, starts):
        calls.append(starts)
        return held_karp(m, starts)

    held_karp = tsp._held_karp
    monkeypatch.setattr(tsp, "_held_karp", counted)
    monkeypatch.setattr(completion, "_held_karp", counted)
    rng = np.random.default_rng(7)
    for n in range(1, 14):
        for kind in ("lognormal", "integer"):
            route, members, entry_from, next_nodes = _zone_case(rng, n, kind, "stop")
            calls.clear()
            best_zone_path(route, members, entry_from, next_nodes)
            assert len(calls) == (n > 1), (n, kind, calls)
            for starts in calls:
                assert len(starts) == len(set(starts)) <= N_CANDIDATES, (n, kind, calls)


def test_output_is_partition_into_contiguous_zones(rng):
    from routeseq import datagen

    routes = datagen.generate(datagen.SynthConfig(
        n_routes=4, zones_per_route=(3, 5), stops_per_zone=(2, 5), seed=8))
    for route in routes:
        zi = build_zone_instance(route)
        zone_order = list(rng.permutation(zi.n_zones))
        seq = complete_sequence(zone_order, zi, route)
        assert sorted(seq) == list(range(len(route.stops)))
        # zone contiguity in the given order
        walked = []
        for s in seq:
            z = next(k for k, zone in enumerate(zi.zones) if s in zone.member_stops)
            if not walked or walked[-1] != z:
                walked.append(z)
        assert walked == [int(z) for z in zone_order]


@st.composite
def _routes_with_zone_orders(draw):
    """A route of 1..9 stops in up to four zones, its travel times integer
    1..3 (tie-heavy) or uniform reals, and an order of its zones."""
    ids = draw(st.lists(st.sampled_from(["A-1.1A", "A-2.1B", "B-1.1A", "C-3.2C"]),
                        min_size=1, max_size=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(ids)
    if draw(st.booleans()):
        times = rng.integers(1, 4, size=(n + 1, n + 1)).astype(float)
    else:
        times = rng.uniform(1.0, 60.0, size=(n + 1, n + 1))
    np.fill_diagonal(times, 0.0)
    route = make_route(ids, times=times)
    zi = build_zone_instance(route)
    return route, zi, draw(st.permutations(range(zi.n_zones)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_routes_with_zone_orders())
def test_completion_is_a_permutation_with_contiguous_zones(case):
    route, zi, zone_order = case
    seq = complete_sequence(list(zone_order), zi, route)
    assert sorted(seq) == list(range(len(route.stops)))
    zone_of = {s: k for k, zone in enumerate(zi.zones) for s in zone.member_stops}
    runs = [zone_of[s] for k, s in enumerate(seq) if k == 0 or zone_of[s] != zone_of[seq[k - 1]]]
    assert runs == list(zone_order)


def test_rejects_non_permutation():
    route = make_route(["A-1.1A", "B-1.1A"])
    zi = build_zone_instance(route)
    with pytest.raises(InvalidInputError):
        complete_sequence([0, 0], zi, route)


def test_last_zone_uses_depot_as_next(rng):
    # the final zone's exit candidates are computed against the depot: its
    # segment must equal best_zone_path with next_nodes = [depot]
    n = 6
    times = rng.uniform(5.0, 80.0, size=(n + 1, n + 1))
    np.fill_diagonal(times, 0.0)
    route = make_route(["A-1.1A", "A-1.1A", "A-1.1A", "B-1.1A", "B-1.1A", "B-1.1A"],
                       times=times)
    zi = build_zone_instance(route)
    seq = complete_sequence([0, 1], zi, route)
    first_members = zi.zones[0].member_stops
    entry_into_last = seq[len(first_members) - 1] + 1
    ref_path, _ = best_zone_path(route, zi.zones[1].member_stops, entry_into_last, [0])
    assert seq[len(first_members):] == ref_path


def test_all_equal_travel_times_pin_the_tie_rules():
    # Every within-zone path of a zone costs the same, so the sequence is
    # decided by the tie rules alone: the smallest candidate stops, Held-Karp's
    # descending interior, then the lexicographically smallest path.
    ids = ["B-1.1A", "A-1.1A", "C-1.1A", "A-1.1A", "B-1.1A", "A-1.1A", "C-1.1A", "A-1.1A", "B-1.1A"]
    n = len(ids)
    route = make_route(ids, times=np.ones((n + 1, n + 1)) - np.eye(n + 1))
    zi = build_zone_instance(route)
    assert [z.member_stops for z in zi.zones] == [[0, 4, 8], [1, 3, 5, 7], [2, 6]]
    expected = {
        (0, 1, 2): [0, 4, 8, 1, 7, 3, 5, 2, 6],
        (2, 0, 1): [2, 6, 0, 4, 8, 1, 7, 3, 5],
        (1, 2, 0): [1, 7, 3, 5, 2, 6, 0, 4, 8],
    }
    for zone_order, seq in expected.items():
        assert complete_sequence(list(zone_order), zi, route) == seq, zone_order
