"""Command-line entry point wiring the modules into reproducible workflows.

Every run prints its resolved configuration (defaults < config file < flags)
and the seed before doing work.  ``build_parser`` declares each option and
its default once; a ``--config`` file is checked against those declarations
and becomes the command's defaults, so flags still win.  Exit codes:
0 success, 1 usage error, 2 runtime failure (with a machine-readable error
JSON on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import datagen, inference, scoring, training
from .completion import complete_sequence
from .errors import ConfigError, SchemaError
from .predictor import INPUT_ORDER_MODES, VARIANTS, load_model, prepare_route, save_model

PREDICTIONS_VERSION = "routeseq-predictions/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": {"type": "usage", "message": message}}), file=sys.stderr)
        raise SystemExit(1)


_MODES = {"greedy": inference.GREEDY, "best-first": inference.BEST_FIRST}


def build_parser():
    parser = _Parser(prog="routeseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # Options shared by several commands.  Each child shares its parents' Action
    # objects, whose defaults ``--config`` sets, so every parser has fresh parents.
    data, split, fit, pick = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    data.add_argument("--data", required=True)
    split.add_argument("--train-fraction", type=float, default=0.8)
    split.add_argument("--seed", type=int, default=0)
    fit.add_argument("--epochs", type=int, default=30)
    fit.add_argument("--lr", type=float, default=0.001)
    fit.add_argument("--input-order", choices=INPUT_ORDER_MODES, default="tsp")
    pick.add_argument("--mode", choices=_MODES, default="best-first")
    pick.add_argument("--split", choices=("all", "train", "test"), default="all")

    p = sub.add_parser("generate", help="create a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-routes", type=int, default=50)
    p.add_argument("--zones", type=int, nargs=2, metavar=("MIN", "MAX"), default=[5, 15])
    p.add_argument("--stops-per-zone", type=int, nargs=2, metavar=("MIN", "MAX"), default=[3, 10])
    p.add_argument("--extent-km", type=float, default=6.0)
    p.add_argument("--speed-kmph", type=float, default=30.0)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--behavior", choices=datagen.BEHAVIORS, default="cluster_biased")
    p.add_argument("--seed", type=int, default=0)  # seeds the data, not a split

    p = sub.add_parser("solve-tsp", parents=[data], help="planned (minimum travel time) sequences")
    p.add_argument("--out", required=True)
    p.add_argument("--stops", action="store_true")

    p = sub.add_parser("train", parents=[data, split, fit], help="train one model variant")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="pairwise")
    p.add_argument("--clip-norm", type=float)
    p.add_argument("--report")

    p = sub.add_parser("predict", parents=[data, split, pick],
                       help="generate sequences from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stops", action="store_true")

    p = sub.add_parser("evaluate", parents=[data, split, pick],
                       help="score predictions against executed routes")
    p.add_argument("--checkpoint")
    p.add_argument("--predictions")
    p.add_argument("--out")
    p.add_argument("--csv")

    p = sub.add_parser("benchmark", parents=[data, split, fit],
                       help="TSP baseline + all variants x {greedy, first-stop iteration}")
    p.add_argument("--out", required=True)

    for p in sub.choices.values():
        p.add_argument("--config")
    parser.commands = sub.choices
    return parser


_JSON_KINDS = {int: int, float: (int, float), None: str}  # by an option's ``type``


def _takes(action, value) -> bool:
    """Whether ``value`` is one that ``action``'s flag gives for one of its
    arguments; a JSON boolean is never a number."""
    return (isinstance(value, _JSON_KINDS[action.type]) and not isinstance(value, bool)
            and (action.choices is None or value in action.choices))


def _checked_config(command, doc: dict) -> dict:
    """``doc``, a ``--config`` object for ``command``'s parser, once every
    key is one of its options and every value one that the option's flag
    could give (as JSON); ``null`` stands only where the default is null.
    Anything else is a ``SchemaError`` at ``$.<key>``."""
    options = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    for key, value in doc.items():
        action = options.get(key)
        if action is None:
            raise SchemaError(f"$.{key}", f"not an option of {command.prog}")
        if value is None and action.default is None:
            continue
        if action.nargs == 0:
            valid = isinstance(value, bool)
        elif action.nargs == 2:
            valid = isinstance(value, list) and len(value) == 2 \
                and all(_takes(action, v) for v in value)
        else:
            valid = _takes(action, value)
        if not valid:
            raise SchemaError(f"$.{key}", f"{action.option_strings[0]} does not take "
                                          f"{json.dumps(value)}")
    return doc


def _split_routes(cfg, which: str):
    """The routes of ``cfg``'s ``--data`` in split ``which``, split by its
    ``--train-fraction`` and ``--seed``; the train split at fraction 1.0 is every route."""
    routes, fraction = datagen.load_routes(cfg["data"]), cfg["train_fraction"]
    if which == "all" or (which == "train" and fraction == 1.0):
        return routes
    train, test = training.split_dataset(routes, (fraction, 1.0 - fraction), cfg["seed"])
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


def _train_config(cfg, variant, grad_clip=None) -> training.TrainConfig:
    """The ``TrainConfig`` of ``variant`` from a command's shared training options."""
    return training.TrainConfig(variant=variant, epochs=cfg["epochs"], lr=cfg["lr"],
                                seed=cfg["seed"], input_order=cfg["input_order"],
                                grad_clip=grad_clip)


def _cmd_train(cfg):
    tc = _train_config(cfg, cfg["variant"], grad_clip=cfg["clip_norm"])
    params, report = training.train(_split_routes(cfg, "train"), tc)
    save_model(params, cfg["checkpoint"])
    _write_json(cfg["report"], report.to_dict())
    print(json.dumps({"checkpoint": cfg["checkpoint"], "checkpoint_id": report.checkpoint_id,
                      "final_loss": report.epoch_losses[-1]}))


def _cmd_predict(cfg):
    params = load_model(cfg["checkpoint"])
    routes = _split_routes(cfg, cfg["split"])
    mode = _MODES[cfg["mode"]]
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
    ids = [datagen.require_field(row, "route_id", f"predictions[{i}]", str)
           for i, row in enumerate(rows)]
    datagen.require_unique_route_ids(ids, "predictions")
    return dict(zip(ids, rows))


def _cmd_evaluate(cfg):
    if bool(cfg["checkpoint"]) == bool(cfg["predictions"]):
        raise ConfigError("evaluate needs exactly one of --checkpoint and --predictions")
    routes = _split_routes(cfg, cfg["split"])
    if cfg["predictions"]:
        report = scoring.evaluate_testset(routes, sequences=_load_predictions(cfg["predictions"]))
    else:
        params = load_model(cfg["checkpoint"])
        report = scoring.evaluate_testset(routes, params=params, mode=_MODES[cfg["mode"]])
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
        trained[variant], _ = training.train(train_routes, _train_config(cfg, variant))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            command = parser.commands[args.command]
            command.set_defaults(**_checked_config(command, datagen.read_json_object(args.config)))
            args = parser.parse_args(argv)
        cfg = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        print(json.dumps({"command": args.command, "config": cfg}, sort_keys=True))
        _HANDLERS[args.command](cfg)
    except Exception as exc:  # noqa: BLE001 - uniform runtime error surface
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
