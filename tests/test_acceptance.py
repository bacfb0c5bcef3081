"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 6 and 7 share one trained setup (module
fixture), whose two trainings run in two worker processes, and dominate
the runtime.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import random_cost_matrix
from oracles import brute_force_path, brute_force_tour, erp_exhaustive
from routeseq import datagen, inference, scoring, training
from routeseq.cli import main
from routeseq.completion import best_zone_path
from routeseq.kernel import Tape
from routeseq.predictor import (
    ModelConfig,
    fit_scaler,
    forward_logprob,
    init_model,
    model_tensors,
    prepare_route,
    scale_route,
)
from routeseq.scoring import erp, sequence_deviation
from routeseq.tsp import _heuristic, _nearest_neighbor, _two_opt, route_cost, solve_path, solve_tour

SEED = 2024


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS — {detail}")


# -- criterion 1: metric oracle equivalence ------------------------------------

def test_criterion_1_metric_oracles():
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = rng.uniform(1.0, 30.0, size=(n + 1, n + 1))
        np.fill_diagonal(m, 0.0)
        actual = list(rng.permutation(n) + 1)
        predicted = list(rng.permutation(n) + 1)
        norm, edits = erp(actual, predicted, m)
        ref_norm, ref_edits = erp_exhaustive(actual, predicted, m)
        assert abs(norm - ref_norm) <= 1e-12
        assert edits == ref_edits
        checked += 1
    assert sequence_deviation([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0
    assert sequence_deviation([1, 2, 3, 4], [1, 3, 2, 4]) == 1 / 3
    assert sequence_deviation([1, 2, 3], [3, 2, 1]) == 0.0
    _report("1 metric-oracle-equivalence",
            f"ERP DP == exhaustive minimum on {checked} pairs; SD hand values 0, 1/3, 0")


# -- criterion 2: gradient fidelity ----------------------------------------------

def test_criterion_2_gradient_fidelity():
    route = datagen.generate(datagen.SynthConfig(
        n_routes=1, zones_per_route=(3, 3), stops_per_zone=(2, 4), seed=SEED))[0]
    prep = prepare_route(route)
    eps = 1e-5
    checked = 0
    for variant in ("pairwise", "pointer", "lstm_ed", "asnn"):
        for seed in range(10):
            cfg = ModelConfig(variant=variant,
                              kz=prep.n_zones if variant == "lstm_ed" else None)
            params = init_model(cfg, np.random.default_rng(seed))
            params.scaler = fit_scaler([prep])
            sc = scale_route(prep, params)
            tape = Tape()
            loss, _ = forward_logprob(params, sc, tape)
            tape.backward()
            named = model_tensors(params)
            grads = tape.gradients(named)
            for name, arr in named.items():
                flat = arr.ravel()
                for idx in {0, flat.size // 2, flat.size - 1}:
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp, _ = forward_logprob(params, sc)
                    flat[idx] = orig - eps
                    lm, _ = forward_logprob(params, sc)
                    flat[idx] = orig
                    fd = (float(lp) - float(lm)) / (2 * eps)
                    an = grads[name].ravel()[idx]
                    # relative error with a floor where central differences
                    # lose resolution (|grad| below ~1e-4)
                    rel = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
                    assert rel < 1e-4, f"{variant} seed={seed} {name}[{idx}]: fd={fd} an={an}"
                    checked += 1
    _report("2 gradient-fidelity",
            f"{checked} sampled components across 4 variants x 10 seeds, rel err < 1e-4")


# -- criterion 3: TSP correctness -------------------------------------------------

def test_criterion_3_tsp_correctness():
    rng = np.random.default_rng(SEED)
    for trial in range(50):
        n = int(rng.integers(4, 9))
        m = random_cost_matrix(rng, n)
        tour = solve_tour(m, origin=0)
        _, ref_tour = brute_force_tour(m, 0)
        assert abs(tour.cost - ref_tour) <= 1e-9 * max(1.0, ref_tour)
        first, last = 0, n - 1
        path = solve_path(m, first, last)
        _, ref_path = brute_force_path(m, first, last)
        assert abs(path.cost - ref_path) <= 1e-9 * max(1.0, ref_path)
        heur = _heuristic(m, 0, None)
        assert heur.cost >= tour.cost - 1e-9
        nn = _nearest_neighbor(m, 0, list(range(1, n)), None)
        nn_cost = route_cost(nn, m, close_tour=True)
        _, opt_cost = _two_opt(list(nn), m, close=True, fixed_last=False)
        assert opt_cost <= nn_cost + 1e-9
    _report("3 tsp-correctness",
            "Held-Karp == brute force on 50 instances (n<=8); heuristic >= exact; 2-opt <= NN")


# -- criterion 4: Algorithm 1 contract ----------------------------------------------

def test_criterion_4_first_stop_iteration_contract():
    routes = datagen.generate(datagen.SynthConfig(
        n_routes=8, zones_per_route=(3, 6), stops_per_zone=(2, 4), seed=SEED))
    cfgs = [("pairwise", 0), ("pairwise", 1), ("pointer", 2), ("asnn", 3)]
    for variant, seed in cfgs:
        for route in routes:
            prep = prepare_route(route)
            cfg = ModelConfig(variant=variant, hidden=8, asnn_hidden=(16, 16))
            params = init_model(cfg, np.random.default_rng(seed))
            params.scaler = fit_scaler([prep])
            best = inference.generate_best_first(params, prep)
            candidate_ocs = [
                inference.greedy_decode(params, prep, forced_first=z).operational_cost
                for z in range(prep.n_zones)
            ]
            assert best.operational_cost == min(candidate_ocs)  # exact
            greedy = inference.greedy_decode(params, prep)
            assert best.operational_cost <= greedy.operational_cost
    _report("4 first-stop-iteration-contract",
            "best-first OC == min over forced candidates (exact) and <= greedy OC")


# -- criterion 5: zone completion correctness ------------------------------------------

def test_criterion_5_zone_completion():
    from test_completion import _brute_force_zone

    rng = np.random.default_rng(SEED)
    from conftest import make_route
    for trial in range(100):
        n = int(rng.integers(2, 7))
        extra = 2
        total = n + extra
        times = rng.uniform(5.0, 90.0, size=(total + 1, total + 1))
        np.fill_diagonal(times, 0.0)
        zone_ids = ["Z-1.1A"] * n + ["N-1.1A"] * extra
        route = make_route(zone_ids, times=times)
        members = list(range(n))
        entry = int(rng.integers(0, total + 1))
        if entry - 1 in members:
            entry = 0
        next_nodes = [n + 1, n + 2]
        path, cost = best_zone_path(route, members, entry, next_nodes)
        ref_path, ref_cost = _brute_force_zone(route, members, entry, next_nodes)
        assert abs(cost - ref_cost) <= 1e-9
        assert sorted(path) == members
    _report("5 zone-completion", "per-zone path == brute-force minimum on 100 random zones (<=6 stops)")


# -- criteria 6 and 7: planted-signal learning -------------------------------------------

def _planted_report(train_routes, test_routes, order_mode):
    """The best-first report on ``test_routes`` of the pairwise model
    trained on ``train_routes`` in input order ``order_mode``."""
    tc = training.TrainConfig(variant="pairwise", epochs=30, lr=0.001,
                              seed=SEED, input_order=order_mode)
    params, _ = training.train(train_routes, tc)
    return scoring.evaluate_testset(test_routes, params=params, mode="best_first")


@pytest.fixture(scope="module")
def planted_setup():
    cfg = datagen.SynthConfig(n_routes=500, behavior="cluster_biased", seed=SEED)
    routes = datagen.generate(cfg)
    train_routes, test_routes = training.split_dataset(routes, (0.8, 0.2), seed=SEED)
    assert len(train_routes) == 400 and len(test_routes) == 100

    # The two input orders train and evaluate independently, one process each.
    with ProcessPoolExecutor(2) as pool:
        futures = {order_mode: pool.submit(_planted_report, train_routes, test_routes, order_mode)
                   for order_mode in ("tsp", "random")}
        tsp_sequences = {}
        for r in test_routes:
            prep = prepare_route(r)
            tour = solve_tour(prep.zinst.zone_travel_time, origin=0)
            tsp_sequences[r.route_id] = {
                "zone_sequence": [prep.zinst.zones[v - 1].zone_id for v in tour.order[1:]]}
        tsp_report = scoring.evaluate_testset(test_routes, sequences=tsp_sequences)
        reports = {order_mode: future.result() for order_mode, future in futures.items()}
    return tsp_report, reports


def test_criterion_6_planted_signal_learning(planted_setup):
    tsp_report, reports = planted_setup
    model_report = reports["tsp"]
    assert model_report.mean_r < tsp_report.mean_r, (
        f"model R {model_report.mean_r} vs TSP {tsp_report.mean_r}")
    assert model_report.accuracy[0] >= 0.5, f"first-zone accuracy {model_report.accuracy[0]}"
    _report("6 planted-signal-learning",
            f"mean R {model_report.mean_r:.5f} < TSP {tsp_report.mean_r:.5f}; "
            f"first-zone accuracy {model_report.accuracy[0]:.3f} >= 0.5")


def test_criterion_7_input_order_robustness(planted_setup):
    tsp_report, reports = planted_setup
    base, rand = reports["tsp"], reports["random"]
    degradation = (rand.mean_r - base.mean_r) / base.mean_r
    assert degradation < 0.25, f"relative degradation {degradation:.3f}"
    assert rand.mean_r < tsp_report.mean_r
    _report("7 input-order-robustness",
            f"random-order mean R {rand.mean_r:.5f} vs {base.mean_r:.5f} "
            f"({degradation * 100:+.1f}% rel, < +25%) and below TSP {tsp_report.mean_r:.5f}")


# -- criterion 8: determinism ---------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    artifacts = {}
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        data = d / "data.json"
        ckpt = d / "model.ckpt"
        train_rep = d / "train.json"
        pred = d / "pred.json"
        eval_rep = d / "eval.json"
        assert main(["generate", "--out", str(data), "--n-routes", "12",
                     "--zones", "3", "5", "--stops-per-zone", "2", "4", "--seed", "7"]) == 0
        assert main(["train", "--data", str(data), "--checkpoint", str(ckpt),
                     "--epochs", "2", "--seed", "7", "--train-fraction", "0.75",
                     "--report", str(train_rep)]) == 0
        assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(pred), "--split", "test", "--train-fraction", "0.75",
                     "--seed", "7", "--stops"]) == 0
        assert main(["evaluate", "--data", str(data), "--predictions", str(pred),
                     "--split", "test", "--train-fraction", "0.75", "--seed", "7",
                     "--out", str(eval_rep)]) == 0
        train_payload = json.loads(train_rep.read_text())
        train_payload.pop("wall_time_s")  # wall clock is inherently non-reproducible
        artifacts[run] = (
            data.read_bytes(), ckpt.read_bytes(), pred.read_bytes(),
            eval_rep.read_bytes(), json.dumps(train_payload, sort_keys=True),
        )
    labels = ("dataset", "checkpoint", "predictions", "evaluation report", "train report")
    for label, a, b in zip(labels, artifacts["a"], artifacts["b"]):
        assert a == b, f"{label} differs between identically seeded runs"
    _report("8 determinism",
            "dataset, checkpoint, predictions, and reports byte-identical across two runs")
