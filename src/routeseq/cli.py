"""Command-line entry point wiring the modules into reproducible workflows.

Every run prints its resolved configuration (defaults < config file < flags)
and the seed before doing work.  Exit codes: 0 success, 1 usage error,
2 runtime failure (with a machine-readable error JSON on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import datagen, inference, scoring, training
from .completion import complete_sequence
from .errors import RouteSeqError, SchemaError
from .predictor import VARIANTS, load_model, prepare_route

PREDICTIONS_VERSION = "routeseq-predictions/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": {"type": "usage", "message": message}}), file=sys.stderr)
        raise SystemExit(1)


def _opt(parser, *flags, **kwargs):
    kwargs.setdefault("default", argparse.SUPPRESS)
    parser.add_argument(*flags, **kwargs)


def _mode_arg(value: str) -> str:
    return {"greedy": inference.GREEDY, "best-first": inference.BEST_FIRST}[value]


def build_parser():
    parser = _Parser(prog="routeseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="create a synthetic dataset")
    _opt(p, "--out", required=True)
    _opt(p, "--n-routes", type=int)
    _opt(p, "--zones", type=int, nargs=2, metavar=("MIN", "MAX"))
    _opt(p, "--stops-per-zone", type=int, nargs=2, metavar=("MIN", "MAX"))
    _opt(p, "--extent-km", type=float)
    _opt(p, "--speed-kmph", type=float)
    _opt(p, "--noise-sigma", type=float)
    _opt(p, "--behavior", choices=datagen.BEHAVIORS)
    _opt(p, "--seed", type=int)
    _opt(p, "--config")

    p = sub.add_parser("solve-tsp", help="planned (minimum travel time) sequences")
    _opt(p, "--data", required=True)
    _opt(p, "--out", required=True)
    _opt(p, "--stops", action="store_true")
    _opt(p, "--config")

    p = sub.add_parser("train", help="train one model variant")
    _opt(p, "--data", required=True)
    _opt(p, "--checkpoint", required=True)
    _opt(p, "--variant", choices=VARIANTS)
    _opt(p, "--epochs", type=int)
    _opt(p, "--lr", type=float)
    _opt(p, "--seed", type=int)
    _opt(p, "--input-order", choices=("tsp", "random"))
    _opt(p, "--train-fraction", type=float)
    _opt(p, "--clip-norm", type=float)
    _opt(p, "--report")
    _opt(p, "--config")

    p = sub.add_parser("predict", help="generate sequences from a checkpoint")
    _opt(p, "--checkpoint", required=True)
    _opt(p, "--data", required=True)
    _opt(p, "--out", required=True)
    _opt(p, "--mode", choices=("greedy", "best-first"))
    _opt(p, "--stops", action="store_true")
    _opt(p, "--split", choices=("all", "train", "test"))
    _opt(p, "--train-fraction", type=float)
    _opt(p, "--seed", type=int)
    _opt(p, "--config")

    p = sub.add_parser("evaluate", help="score predictions against executed routes")
    _opt(p, "--data", required=True)
    _opt(p, "--checkpoint")
    _opt(p, "--predictions")
    _opt(p, "--mode", choices=("greedy", "best-first"))
    _opt(p, "--out")
    _opt(p, "--csv")
    _opt(p, "--split", choices=("all", "train", "test"))
    _opt(p, "--train-fraction", type=float)
    _opt(p, "--seed", type=int)
    _opt(p, "--config")

    p = sub.add_parser("benchmark", help="TSP baseline + all variants x {greedy, first-stop iteration}")
    _opt(p, "--data", required=True)
    _opt(p, "--out", required=True)
    _opt(p, "--epochs", type=int)
    _opt(p, "--lr", type=float)
    _opt(p, "--seed", type=int)
    _opt(p, "--input-order", choices=("tsp", "random"))
    _opt(p, "--train-fraction", type=float)
    _opt(p, "--config")
    return parser


_DEFAULTS = {
    "generate": {
        "n_routes": 50, "zones": [5, 15], "stops_per_zone": [3, 10],
        "extent_km": 6.0, "speed_kmph": 30.0, "noise_sigma": 0.1,
        "behavior": "cluster_biased", "seed": 0,
    },
    "solve-tsp": {"stops": False},
    "train": {
        "variant": "pairwise", "epochs": 30, "lr": 0.001, "seed": 0,
        "input_order": "tsp", "train_fraction": 0.8, "clip_norm": None,
        "report": None,
    },
    "predict": {
        "mode": "best-first", "stops": False,
        "split": "all", "train_fraction": 0.8, "seed": 0,
    },
    "evaluate": {
        "checkpoint": None, "predictions": None, "mode": "best-first",
        "out": None, "csv": None,
        "split": "all", "train_fraction": 0.8, "seed": 0,
    },
    "benchmark": {
        "epochs": 30, "lr": 0.001, "seed": 0, "input_order": "tsp",
        "train_fraction": 0.8,
    },
}


def _resolve(args) -> dict:
    cfg = dict(_DEFAULTS[args.command])
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        unknown = set(overrides) - set(cfg) - set(given)
        if unknown:
            raise RouteSeqError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(overrides)
    cfg.update(given)
    return cfg


def _split_routes(routes, which: str, fraction: float, seed: int):
    if which == "all":
        return routes
    train, test = training.split_dataset(routes, (fraction, 1.0 - fraction), seed)
    return train if which == "train" else test


def _write_json(path, payload) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_generate(cfg):
    sc = datagen.SynthConfig(
        n_routes=cfg["n_routes"],
        zones_per_route=tuple(cfg["zones"]),
        stops_per_zone=tuple(cfg["stops_per_zone"]),
        extent_km=cfg["extent_km"],
        speed_kmph=cfg["speed_kmph"],
        noise_sigma=cfg["noise_sigma"],
        behavior=cfg["behavior"],
        seed=cfg["seed"],
    )
    routes = datagen.generate(sc)
    datagen.save_routes(routes, cfg["out"])
    print(json.dumps({"written": cfg["out"], "n_routes": len(routes)}))


def _prediction_row(route, prep, zone_order, cost, mode, with_stops) -> dict:
    """One row of a predictions file; ``with_stops`` adds the completed
    stop sequence."""
    row = {
        "route_id": route.route_id,
        "zone_sequence": [prep.zinst.zones[z].zone_id for z in zone_order],
        "operational_cost": cost,
        "mode": mode,
    }
    if with_stops:
        stop_idx = complete_sequence(zone_order, prep.zinst, route)
        row["stop_sequence"] = [route.stops[i].stop_id for i in stop_idx]
    return row


def _cmd_solve_tsp(cfg):
    rows = []
    for route in datagen.load_routes(cfg["data"]):
        prep = prepare_route(route)
        cost = inference.operational_cost(prep.tsp_order, prep.zinst)
        rows.append(_prediction_row(route, prep, prep.tsp_order, cost, "tsp", cfg["stops"]))
    _write_json(cfg["out"], {"version": PREDICTIONS_VERSION, "mode": "tsp", "predictions": rows})
    print(json.dumps({"written": cfg["out"], "n_routes": len(rows)}))


def _cmd_train(cfg):
    routes = datagen.load_routes(cfg["data"])
    if cfg["train_fraction"] < 1.0:
        train_routes, _ = training.split_dataset(
            routes, (cfg["train_fraction"], 1.0 - cfg["train_fraction"]), cfg["seed"])
    else:
        train_routes = routes
    tc = training.TrainConfig(
        variant=cfg["variant"],
        epochs=cfg["epochs"],
        lr=cfg["lr"],
        seed=cfg["seed"],
        input_order=cfg["input_order"],
        grad_clip=cfg["clip_norm"],
        checkpoint_path=cfg["checkpoint"],
    )
    _, report = training.train(train_routes, tc)
    _write_json(cfg["report"], report.to_dict())
    print(json.dumps({"checkpoint": cfg["checkpoint"], "checkpoint_id": report.checkpoint_id,
                      "final_loss": report.epoch_losses[-1]}))


def _cmd_predict(cfg):
    params = load_model(cfg["checkpoint"])
    routes = _split_routes(datagen.load_routes(cfg["data"]), cfg["split"],
                           cfg["train_fraction"], cfg["seed"])
    mode = _mode_arg(cfg["mode"])
    rows = []
    for route in routes:
        prep = prepare_route(route)
        pred = inference.predict(params, prep, mode)
        rows.append(_prediction_row(route, prep, pred.zone_order, pred.operational_cost,
                                    pred.mode, cfg["stops"]))
    _write_json(cfg["out"], {"version": PREDICTIONS_VERSION, "mode": mode, "predictions": rows})
    print(json.dumps({"written": cfg["out"], "n_routes": len(rows)}))


def _load_predictions(path) -> dict:
    payload = datagen.read_json_object(path)
    version = payload.get("version")
    if version != PREDICTIONS_VERSION:
        raise SchemaError("version", f"expected {PREDICTIONS_VERSION!r}, got {version!r}")
    rows = datagen.require_field(payload, "predictions", "$", list)
    return {datagen.require_field(row, "route_id", f"predictions[{i}]", str): row
            for i, row in enumerate(rows)}


def _cmd_evaluate(cfg):
    routes = _split_routes(datagen.load_routes(cfg["data"]), cfg["split"],
                           cfg["train_fraction"], cfg["seed"])
    if cfg["predictions"]:
        report = scoring.evaluate_testset(routes, sequences=_load_predictions(cfg["predictions"]))
    elif cfg["checkpoint"]:
        params = load_model(cfg["checkpoint"])
        report = scoring.evaluate_testset(routes, params=params, mode=_mode_arg(cfg["mode"]))
    else:
        raise RouteSeqError("evaluate needs --checkpoint or --predictions")
    _write_json(cfg["out"], report.to_dict())
    if cfg["csv"]:
        with open(cfg["csv"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["route_id", "disparity", "sd", "erp_norm", "erp_e",
                             *(f"hit_{i}" for i in range(1, scoring.FIRST_K + 1)),
                             "n_zones", "n_stops"])
            for row in report.rows:
                hits = list(row.first_k) + [""] * (scoring.FIRST_K - len(row.first_k))
                writer.writerow([row.route_id, row.r, row.sd, row.erp_norm, row.erp_e,
                                 *hits, row.n_zones, row.n_stops])
    print(json.dumps({"mean_disparity": report.mean_r,
                      "first_k_accuracy": list(report.accuracy),
                      "n_routes": len(report.rows), "n_failures": len(report.failures)}))


def _cmd_benchmark(cfg):
    routes = datagen.load_routes(cfg["data"])
    train_routes, test_routes = training.split_dataset(
        routes, (cfg["train_fraction"], 1.0 - cfg["train_fraction"]), cfg["seed"])
    tsp_sequences = {}
    for route in test_routes:
        prep = prepare_route(route)
        tsp_sequences[route.route_id] = {
            "zone_sequence": [prep.zinst.zones[z].zone_id for z in prep.tsp_order],
        }
    rows = []
    tsp_report = scoring.evaluate_testset(test_routes, sequences=tsp_sequences)
    rows.append(_bench_row("-", "tsp", tsp_report))
    trained = {}
    for variant in VARIANTS:
        tc = training.TrainConfig(variant=variant, epochs=cfg["epochs"], lr=cfg["lr"],
                                  seed=cfg["seed"], input_order=cfg["input_order"])
        trained[variant], _ = training.train(train_routes, tc)
    for gen_mode in (inference.GREEDY, inference.BEST_FIRST):
        for variant in ("asnn", "lstm_ed", "pointer", "pairwise"):
            report = scoring.evaluate_testset(test_routes, params=trained[variant], mode=gen_mode)
            rows.append(_bench_row(gen_mode, variant, report))
    _write_json(cfg["out"], {"rows": rows})
    header = f"{'generation':<12} {'model':<10} {'mean R':>9} {'std R':>9} " \
             f"{'acc1':>6} {'acc2':>6} {'acc3':>6} {'acc4':>6}"
    print(header)
    for row in rows:
        print(f"{row['generation']:<12} {row['model']:<10} {row['mean_disparity']:>9.4f} "
              f"{row['std_disparity']:>9.4f} "
              + " ".join(f"{a:>6.3f}" for a in row["first_k_accuracy"]))


def _bench_row(generation, model, report) -> dict:
    return {
        "generation": generation,
        "model": model,
        "mean_disparity": report.mean_r,
        "std_disparity": report.std_r,
        "median_disparity": report.median_r,
        "first_k_accuracy": list(report.accuracy),
        "n_routes": len(report.rows),
    }


_HANDLERS = {
    "generate": _cmd_generate,
    "solve-tsp": _cmd_solve_tsp,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        print(json.dumps({"command": args.command, "config": cfg}, sort_keys=True))
        _HANDLERS[args.command](cfg)
    except Exception as exc:  # noqa: BLE001 - uniform runtime error surface
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
