import json

import pytest

from routeseq import datagen
from routeseq.cli import main

GEN_ARGS = ["--n-routes", "4", "--zones", "3", "4", "--stops-per-zone", "2", "3", "--seed", "5"]


def _gen(tmp_path, name="data.json", extra=()):
    path = tmp_path / name
    code = main(["generate", "--out", str(path), *GEN_ARGS, *extra])
    assert code == 0
    return path


def test_generate_same_seed_identical_files(tmp_path, capsys):
    p1 = _gen(tmp_path, "a.json")
    p2 = _gen(tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    out = capsys.readouterr().out
    assert '"command": "generate"' in out
    assert '"seed": 5' in out


def test_unknown_flag_rejected(tmp_path):
    ckpt, data, out = (str(tmp_path / name) for name in ("m.ckpt", "d.json", "p.json"))
    for argv in (
        ["generate", "--out", str(tmp_path / "x.json"), "--bogus", "1"],
        # the flag of the removed unforced best-first candidate
        ["predict", "--checkpoint", ckpt, "--data", data, "--out", out, "--strict-alg1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1, argv


def test_runtime_error_exits_2(tmp_path, capsys):
    code = main(["solve-tsp", "--data", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload


def test_solve_tsp_and_stops(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "tsp.json"
    assert main(["solve-tsp", "--data", str(data), "--out", str(out), "--stops"]) == 0
    payload = json.loads(out.read_text())
    assert payload["version"] == "routeseq-predictions/1"
    assert len(payload["predictions"]) == 4
    for row in payload["predictions"]:
        assert row["zone_sequence"]
        assert row["stop_sequence"]
        assert row["operational_cost"] > 0


def test_train_predict_evaluate_cycle(tmp_path):
    data = _gen(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    report_path = tmp_path / "train.json"
    assert main(["train", "--data", str(data), "--checkpoint", str(ckpt),
                 "--epochs", "1", "--seed", "3", "--train-fraction", "0.75",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["epoch_losses"]) == 1
    assert ckpt.exists()

    pred_path = tmp_path / "pred.json"
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(pred_path), "--split", "test",
                 "--train-fraction", "0.75", "--seed", "3", "--stops"]) == 0
    payload = json.loads(pred_path.read_text())
    assert payload["predictions"]

    eval_path = tmp_path / "eval.json"
    csv_path = tmp_path / "eval.csv"
    assert main(["evaluate", "--data", str(data), "--predictions", str(pred_path),
                 "--split", "test", "--train-fraction", "0.75", "--seed", "3",
                 "--out", str(eval_path), "--csv", str(csv_path)]) == 0
    result = json.loads(eval_path.read_text())
    assert result["n_routes"] == len(payload["predictions"])
    assert csv_path.read_text().startswith("route_id,")


def test_evaluate_actual_sequences_score_zero(tmp_path, capsys):
    data = _gen(tmp_path)
    routes = datagen.load_routes(data)
    preds = {
        "version": "routeseq-predictions/1",
        "predictions": [
            {"route_id": r.route_id,
             "stop_sequence": [r.stops[i].stop_id for i in r.actual_stop_sequence]}
            for r in routes
        ],
    }
    pred_path = tmp_path / "actual.json"
    pred_path.write_text(json.dumps(preds))
    out = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--predictions", str(pred_path),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mean_disparity"] == 0.0
    assert report["first_k_accuracy"] == [1.0, 1.0, 1.0, 1.0]


def test_evaluate_with_checkpoint(tmp_path):
    data = _gen(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(data), "--checkpoint", str(ckpt),
                 "--epochs", "1", "--train-fraction", "1.0"]) == 0
    out = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                 "--mode", "greedy", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_routes"] == 4


@pytest.mark.parametrize("text, json_path", [
    ("{not json", "$"),
    ("[]", "$"),
    ('{"version": "routeseq-predictions/0", "predictions": []}', "version"),
    ('{"version": "routeseq-predictions/1", "predictions": {}}', "$.predictions"),
    ('{"version": "routeseq-predictions/1", "predictions": [7]}', "predictions[0].route_id"),
    ('{"version": "routeseq-predictions/1", "predictions": [{"zone_sequence": []}]}',
     "predictions[0].route_id"),
])
def test_malformed_predictions_file_is_a_schema_error(tmp_path, capsys, text, json_path):
    data = _gen(tmp_path)
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(text)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--predictions", str(pred_path),
                 "--out", str(tmp_path / "report.json")]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(f"{json_path}: ")


def test_benchmark_emits_nine_rows(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "bench.json"
    assert main(["benchmark", "--data", str(data), "--out", str(out),
                 "--epochs", "1", "--seed", "2", "--train-fraction", "0.5"]) == 0
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    assert len(rows) == 9
    assert rows[0]["model"] == "tsp"
    labels = {(r["generation"], r["model"]) for r in rows}
    for model in ("asnn", "lstm_ed", "pointer", "pairwise"):
        assert ("greedy", model) in labels
        assert ("best_first", model) in labels


def test_config_file_merging(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"n_routes": 2, "seed": 9,
                                    "zones": [3, 3], "stops_per_zone": [2, 2]}))
    out = tmp_path / "d.json"
    assert main(["generate", "--out", str(out), "--config", str(cfg_path),
                 "--seed", "4"]) == 0
    resolved = json.loads(capsys.readouterr().out.splitlines()[0])
    assert resolved["config"]["n_routes"] == 2   # from the config file
    assert resolved["config"]["seed"] == 4       # flag wins
    assert len(datagen.load_routes(out)) == 2


def test_config_file_unknown_key(tmp_path):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"routes_n": 2}))
    code = main(["generate", "--out", str(tmp_path / "d.json"), "--config", str(cfg_path)])
    assert code == 2


@pytest.mark.parametrize("text", ["{not json", "5", "[1, 2]"])
def test_config_file_not_a_json_object_is_a_schema_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(text)
    assert main(["generate", "--out", str(tmp_path / "d.json"), "--config", str(cfg_path)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith("$: ")


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "d.json"
    proc = subprocess.run(
        [sys.executable, "-m", "routeseq", "generate", "--out", str(out), *GEN_ARGS],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
