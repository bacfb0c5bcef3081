import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeseq import cli, datagen
from routeseq.cli import main
from routeseq.predictor import VARIANTS

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


def test_evaluate_needs_exactly_one_source(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt, preds = tmp_path / "model.ckpt", tmp_path / "tsp.json"
    assert main(["train", "--data", str(data), "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
    assert main(["solve-tsp", "--data", str(data), "--out", str(preds)]) == 0
    for sources in ([], ["--checkpoint", str(ckpt), "--predictions", str(preds)]):
        capsys.readouterr()
        assert main(["evaluate", "--data", str(data), "--out", str(tmp_path / "r.json"),
                     *sources]) == 2, sources
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error == {"type": "ConfigError", "message":
                         "evaluate needs exactly one of --checkpoint and --predictions"}


@pytest.mark.parametrize("command, fraction", [
    ("train", "1.5"), ("train", "nan"), ("train", "-inf"), ("evaluate", "nan"), ("evaluate", "1.5"),
])
def test_train_fraction_outside_the_split_range_is_a_typed_error(tmp_path, capsys, command, fraction):
    # Only exactly 1.0 means "train on every route"; any other fraction must
    # split the routes, and a non-finite one cannot.
    data = _gen(tmp_path)
    preds, out = tmp_path / "tsp.json", tmp_path / "out.json"
    assert main(["solve-tsp", "--data", str(data), "--out", str(preds)]) == 0
    argv = {
        "train": ["train", "--data", str(data), "--checkpoint", str(out), "--epochs", "1"],
        "evaluate": ["evaluate", "--data", str(data), "--predictions", str(preds),
                     "--out", str(out), "--split", "test"],
    }[command]
    capsys.readouterr()
    assert main([*argv, f"--train-fraction={fraction}"]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "InvalidInputError"
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--lr", "0"), ("train", "--lr", "-0.01"), ("train", "--lr", "nan"),
    ("train", "--clip-norm", "-1"), ("train", "--clip-norm", "0"), ("train", "--clip-norm", "nan"),
    ("generate", "--extent-km", "nan"), ("generate", "--speed-kmph", "inf"),
    ("generate", "--noise-sigma", "inf"),
])
def test_a_number_outside_its_range_is_a_typed_error(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(_gen(tmp_path)), "--checkpoint", str(out), "--epochs", "1"],
        "generate": ["generate", "--out", str(out), *GEN_ARGS],
    }[command]
    capsys.readouterr()
    assert main([*argv, f"{flag}={value}"]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "InvalidInputError"
    assert not out.exists()


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


# --- --config values are checked against the flags' declarations --------------

# One valid config file per command, setting every key; the runs chain in one
# directory (generate's dataset feeds the rest).
CONFIGS = {
    "generate": {"out": "data.json", "n_routes": 4, "zones": [3, 4], "stops_per_zone": [2, 3],
                 "extent_km": 5.0, "speed_kmph": 25.0, "noise_sigma": 0.2,
                 "behavior": "nearest_zone", "seed": 5},
    "solve-tsp": {"data": "data.json", "out": "tsp.json", "stops": True},
    "train": {"data": "data.json", "checkpoint": "m.ckpt", "variant": "pointer", "epochs": 1,
              "lr": 0.01, "seed": 3, "input_order": "random", "train_fraction": 0.75,
              "clip_norm": 1.0, "report": "train.json"},
    "predict": {"checkpoint": "m.ckpt", "data": "data.json", "out": "pred.json", "mode": "greedy",
                "stops": True, "split": "test", "train_fraction": 0.75, "seed": 3},
    "evaluate": {"data": "data.json", "checkpoint": None, "predictions": "pred.json",
                 "mode": "greedy", "out": "eval.json", "csv": "eval.csv", "split": "test",
                 "train_fraction": 0.75, "seed": 3},
    "benchmark": {"data": "data.json", "out": "bench.json", "epochs": 1, "lr": 0.01, "seed": 2,
                  "input_order": "random", "train_fraction": 0.5},
}
REQUIRED = {"generate": ("out",), "solve-tsp": ("data", "out"), "train": ("data", "checkpoint"),
            "predict": ("checkpoint", "data", "out"), "evaluate": ("data",),
            "benchmark": ("data", "out")}
NULLABLE = {("train", "clip_norm"), ("train", "report"), ("evaluate", "checkpoint"),
            ("evaluate", "predictions"), ("evaluate", "out"), ("evaluate", "csv")} \
    | {(command, key) for command, keys in REQUIRED.items() for key in keys}
CHOICES = {"behavior": datagen.BEHAVIORS, "variant": VARIANTS, "input_order": ("tsp", "random"),
           "mode": ("greedy", "best-first"), "split": ("all", "train", "test")}


def _flags(doc) -> list:
    """The command-line flags that give ``doc``'s values."""
    argv = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, *map(str, value if isinstance(value, list) else [value])]
    return argv


def _run_with_config(tmp_dir, command, doc):
    """(exit code, stdout, stderr) of ``command`` with ``doc`` as its
    ``--config`` file, its required flags from ``CONFIGS`` and no command
    body run."""
    cfg_path = tmp_dir / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    required = {key: CONFIGS[command][key] for key in REQUIRED[command]}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._HANDLERS, {command: lambda cfg: None}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *_flags(required), "--config", str(cfg_path)])
    return code, out.getvalue(), err.getvalue()


def _assert_rejected_at(result, key):
    code, _, err = result
    assert code == 2
    error = json.loads(err.strip().splitlines()[-1])["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(f"$.{key}: ")


@pytest.mark.parametrize("command, doc, key", [
    ("predict", {"stops": "no"}, "stops"),
    ("generate", {"noise_sigma": True}, "noise_sigma"),
    ("predict", {"split": "dev"}, "split"),
    ("predict", {"mode": "best_first"}, "mode"),
    ("train", {"epochs": "ten"}, "epochs"),
    ("generate", {"seed": "5"}, "seed"),
    ("generate", {"zones": [3]}, "zones"),
    ("train", {"clip_norm": "1"}, "clip_norm"),
    ("train", {"epochs": 1.5}, "epochs"),
    ("train", {"epochs": 2, "warmup": 3}, "warmup"),
])
def test_config_value_no_flag_gives_is_a_schema_error(tmp_path, command, doc, key):
    _assert_rejected_at(_run_with_config(tmp_path, command, doc), key)


FLOAT_KEYS = {"extent_km", "speed_kmph", "noise_sigma", "lr", "train_fraction", "clip_norm"}

_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1),
    st.floats(-1e9, 1e9, allow_nan=False), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 20), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 20), max_size=2),
)


def _json_kind(value, is_float: bool) -> str:
    """The JSON kind of a parsed value; a float option's integers are
    numbers like its floats."""
    if isinstance(value, int) and not isinstance(value, bool) and is_float:
        return "number"
    return {type(None): "null", bool: "bool", int: "integer", float: "number", str: "string",
            list: "array", dict: "object"}[type(value)]


@st.composite
def _config_cases(draw):
    """(command, config, the key it must be rejected at, or None): a valid
    config with one value, or one element of a pair, replaced either by a
    value of another JSON kind or a string outside the option's choices, or
    by another value that the flag gives."""
    command = draw(st.sampled_from(sorted(CONFIGS)))
    doc = dict(CONFIGS[command])
    key = draw(st.sampled_from(sorted(doc)))
    index = draw(st.sampled_from(range(2))) if isinstance(doc[key], list) else None
    old = doc[key] if index is None else doc[key][index]
    is_float = index is None and key in FLOAT_KEYS
    nullable = index is None and (command, key) in NULLABLE
    if draw(st.booleans()):
        allowed = {_json_kind(old, is_float)} | ({"null"} if nullable else set())
        new = _JSON_VALUES.filter(lambda v: _json_kind(v, is_float) not in allowed)
        if key in CHOICES:
            new |= st.text(max_size=12).filter(lambda v: v not in CHOICES[key])
        bad = key
    else:
        new = (st.sampled_from(CHOICES[key]) if key in CHOICES
               else st.booleans() if isinstance(old, bool)
               else st.integers(0, 9) | st.floats(0, 9) if is_float
               else st.integers(0, 9) if isinstance(old, int)
               else st.text(max_size=4))
        if nullable:
            new |= st.none()
        bad = None
    new = draw(new)
    doc[key] = new if index is None else [new if i == index else v for i, v in enumerate(doc[key])]
    return command, doc, bad


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_config_cases())
def test_config_values_are_checked_against_the_flags(tmp_path_factory, case):
    command, doc, bad = case
    result = _run_with_config(tmp_path_factory.mktemp("cfg"), command, doc)
    if bad is not None:
        _assert_rejected_at(result, bad)
        return
    code, out, err = result
    assert code == 0, err
    resolved = json.loads(out.splitlines()[0])["config"]
    assert {k: v for k, v in doc.items() if k not in REQUIRED[command]} \
        == {k: resolved[k] for k in doc if k not in REQUIRED[command]}


def test_config_file_setting_every_key_acts_as_the_same_flags(tmp_path, monkeypatch, capsys):
    results = []
    for how in ("flags", "file"):
        run_dir = tmp_path / how
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        stdout = []
        for command, doc in CONFIGS.items():
            if how == "flags":
                argv = [command, *_flags(doc)]
            else:
                cfg_path = tmp_path / f"{command}.json"
                cfg_path.write_text(json.dumps(doc))
                required = {key: doc[key] for key in REQUIRED[command]}
                argv = [command, *_flags(required), "--config", str(cfg_path)]
            assert main(argv) == 0, argv
            stdout.append(capsys.readouterr().out)
        files = {}
        for path in sorted(run_dir.iterdir()):
            raw = path.read_bytes()
            if path.name == "train.json":
                report = json.loads(raw)
                del report["wall_time_s"]
                raw = report
            files[path.name] = raw
        results.append((stdout, files))
    assert results[0] == results[1]
    assert sorted(results[0][1]) == ["bench.json", "data.json", "eval.csv", "eval.json",
                                     "m.ckpt", "pred.json", "train.json", "tsp.json"]
