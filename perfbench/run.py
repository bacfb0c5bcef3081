#!/usr/bin/env python3
"""The routeseq benchmark: one command, three workloads, untraced or traced.

    python3 perfbench/run.py --workload generate|train|predict \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` beside this directory and from nowhere
else, so the command fails without printing a result when the sources are
absent.  Everything runs sequentially in this one process (a closed loop
with one caller), and every output is checked; a failed check makes the
result ``"correct": false`` and the exit code 1.

Inputs come from ``datagen.generate`` with the ``SynthConfig`` defaults
(cluster_biased behaviour, 3-10 stops per zone).  Zone counts are
stratified: every round holds one route of each count from 5 to 15, which
is the default zone-count range with its sampling noise removed, because
cost grows steeply with zone count.  Route contents come from ``--seed``.

With ``--trace 0`` the last line holds every end-to-end metric of
``END_TO_END``; with ``--trace 1`` every per-layer metric of
``spans.PER_LAYER``.  A full record (environment, sample counts, error
rate) goes to ``.perfbench_out/`` in the repository root, and the spans of a
traced run beside it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import routeseq  # noqa: E402
from routeseq import completion, datagen, domain, predictor, scoring, training  # noqa: E402
from routeseq.errors import RouteSeqError  # noqa: E402
from routeseq.kernel import checkpoint_id, deserialize_checkpoint, serialize_checkpoint  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import spans  # noqa: E402  (the benchmark's own module, not part of set-up)

if Path(routeseq.__file__).resolve().parent != ROOT / "src" / "routeseq":
    raise SystemExit(f"routeseq was imported from {routeseq.__file__}, not from {ROOT / 'src'}")

WORKLOADS = ("generate", "train", "predict")

# name -> (unit, better).  mean_r, acc1 and final_loss are quality guards from
# the fixed reference model, so a speed-up cannot buy itself with worse results.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "routes_per_s": ("1/s", "higher"),
    "route_ms_p50": ("ms", "lower"),
    "route_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mean_r": ("R", "lower"),
    "acc1": ("fraction", "higher"),
    "final_loss": ("nll", "lower"),
}

# Route streams.  WORKLOAD routes follow --seed; the others are fixed, so the
# reference model and its quality figures are the same in every run.
WORKLOAD, REFERENCE, QUALITY, WARMUP = range(4)

# Seconds one _calibration_work call takes at nominal speed (shared 2-core
# x86-64 VM, Python 3.11, numpy 2.4).  Scaled times are seconds at that speed.
CALIBRATION_NOMINAL_S = 0.00029

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  A round is one route per zone count."""

    zone_counts: tuple = tuple(range(5, 16))
    setup_repeats: int = 3    # set-up is timed this often; setup_s takes the median
    train_rounds: int = 2     # route sets of the train workload; rounds take them in turn
    train_epochs: int = 8     # epochs per training.train call, so Adam steps dominate prepare_route
    ref_epochs: int = 12
    quality_rounds: int = 2   # held-out routes for mean_r and acc1
    calibration: int = 90     # least _calibration_work calls per calibration slice (~25 ms)


TINY = Scale(zone_counts=(5, 6), setup_repeats=1, train_rounds=1, train_epochs=1,
             ref_epochs=1, quality_rounds=1, calibration=2)


def synth_config(stream: int, seed: int, rnd: int, zones: int) -> datagen.SynthConfig:
    state = np.random.SeedSequence([stream, seed, rnd, zones]).generate_state(1)[0]
    return datagen.SynthConfig(n_routes=1, zones_per_route=(zones, zones), seed=int(state))


def make_route(stream: int, seed: int, rnd: int, zones: int):
    route = datagen.generate(synth_config(stream, seed, rnd, zones))[0]
    route.route_id = f"s{stream}-{seed}-{rnd}-z{zones}"
    return route


def make_routes(stream: int, seed: int, rounds: int, scale: Scale) -> list:
    return [make_route(stream, seed, r, z) for r in range(rounds) for z in scale.zone_counts]


def round_trip(route):
    payload = json.loads(datagen.routes_to_json([route]))
    return datagen.route_from_dict(payload["routes"][0], "routes[0]")


def zones_contiguous(stops, route) -> bool:
    """``stops`` visits every stop once and each zone's stops back to back."""
    if sorted(stops) != list(range(route.n_stops)):
        return False
    zone_ids = [route.stops[s].zone_id for s in stops]
    runs = [z for k, z in enumerate(zone_ids) if k == 0 or z != zone_ids[k - 1]]
    return len(runs) == len(set(runs))


def reference_model(scale: Scale):
    """The fixed model behind predict and the quality guards, trained on one
    round of fixed routes."""
    routes = make_routes(REFERENCE, 0, 1, scale)
    return training.train(routes, training.TrainConfig(epochs=scale.ref_epochs, seed=0))


class CompletionTap:
    """Keeps every (route, zone order, stop sequence) that scoring completes,
    so evaluate_testset's outputs are checked without computing them twice."""

    def __init__(self):
        self.calls = []

    def __enter__(self):
        self._original = completion.complete_sequence

        def tap(zone_order, instance, route, *args, **kwargs):
            stops = self._original(zone_order, instance, route, *args, **kwargs)
            self.calls.append((route, list(zone_order), list(stops)))
            return stops

        completion.complete_sequence = tap
        return self

    def __exit__(self, *exc):
        completion.complete_sequence = self._original
        return False


def check_report(routes, report, completed) -> int:
    """Failed routes of one evaluate_testset call: swallowed failures, plus
    routes whose zone order, stop sequence or R is wrong.  ``completed`` holds
    the CompletionTap records of the call."""
    done = {route.route_id: (order, stops) for route, order, stops in completed}
    scored = {row.route_id: row for row in report.rows}
    failed = 0
    for route in routes:
        row = scored.get(route.route_id)
        order, stops = done.get(route.route_id, (None, None))
        n_zones = len({s.zone_id for s in route.stops})
        ok = (row is not None and order is not None
              and sorted(order) == list(range(n_zones))
              and zones_contiguous(stops, route)
              and math.isfinite(row.r) and row.r >= 0.0
              and row.n_stops == route.n_stops)
        failed += not ok
    return failed


_CAL_W = np.full((32, 32), 1.0 / 32)


def _calibration_work() -> float:
    """Fixed work, half interpreter loops over lists of floats (like the
    program's dynamic programs) and half tiny numpy calls (like its kernel).
    It is the benchmark's own code, so a change to the program never changes
    it."""
    m = [[float((i * 7 + j * 13) % 17) for j in range(12)] for i in range(12)]
    best = 0.0
    for a in range(12):
        for b in range(12):
            mab, mb = m[a][b], m[b]
            for c in range(12):
                if mab + mb[c] > best:
                    best = mab + mb[c]
    x = np.linspace(0.0, 1.0, 32)
    for _ in range(30):
        x = np.tanh(_CAL_W @ x + 0.1)
    return best + float(x[0])


class Speed:
    """The machine's current speed, from calibration slices run between
    timed samples.

    On a shared machine the speed of identical work drifts by tens of percent
    within a minute, so every reported time is scaled to nominal speed:
    ``raw * nominal / calibration``, where ``calibration`` is the mean time
    per ``_calibration_work`` call in the slices just before and just after
    the sample.  A slice lasts a tenth of the sample it follows, and at least
    ``min_calls`` calls.  Interpreter loops alone tracked training best and
    numpy calls alone tracked prediction best, so the kernel mixes the two.
    """

    def __init__(self, min_calls: int):
        self.min_calls = min_calls
        self.first = self.last = self.slice(min_calls)

    @staticmethod
    def slice(calls: int) -> float:
        """Seconds per calibration call, over ``calls`` calls.  The cyclic
        garbage collector is off meanwhile, so the garbage the program leaves
        is collected in its own timed samples and is not scaled away as a
        slow machine."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                _calibration_work()
            return (time.perf_counter() - t0) / calls
        finally:
            gc.enable()

    def factor(self, seconds: float) -> float:
        """Calibrate after ``seconds`` of timed work; the factor that scales
        that work's raw time to nominal speed."""
        calls = max(self.min_calls, int(0.1 * seconds / CALIBRATION_NOMINAL_S))
        before, self.last = self.last, self.slice(calls)
        return CALIBRATION_NOMINAL_S / ((before + self.last) / 2)


@dataclass
class Sample:
    seconds: float   # timed program work
    units: int       # routes, or Adam steps on train
    scaled: float = 0.0   # seconds at nominal speed


class Generate:
    """datagen.generate of one route, then its JSON round trip."""

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale
        self.outputs = []

    def setup(self):
        round_trip(datagen.generate(synth_config(WARMUP, 0, 0, min(self.scale.zone_counts)))[0])

    def run_round(self, k: int, mark):
        for z in self.scale.zone_counts:
            mark(f"{self.seed}-{k}-z{z}")
            config = synth_config(WORKLOAD, self.seed, k, z)
            t0 = time.perf_counter()
            route = datagen.generate(config)[0]
            back = round_trip(route)
            seconds = time.perf_counter() - t0
            self.outputs.append((route, back))
            yield Sample(seconds, 1)

    def check(self) -> tuple:
        failed = 0
        for route, back in self.outputs:
            try:
                domain.validate_route(route)
                ok = datagen.routes_equal(route, back) and zones_contiguous(
                    route.actual_stop_sequence, route)
            except RouteSeqError:
                ok = False
            failed += not ok
        attempted = len(self.outputs)
        self.outputs.clear()
        return attempted, failed


class Train:
    """One training.train call (pairwise) per sample, on half a round of the
    routes made in set-up: the odd or the even zone counts, whose mean zone
    count is the same.  Calls of about a second let the calibration slices
    between them follow the machine's speed; a round is both halves."""

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale
        self.outputs = []
        self.losses = []

    def setup(self):
        self.rounds = [[make_route(WORKLOAD, self.seed, r, z) for z in self.scale.zone_counts]
                       for r in range(self.scale.train_rounds)]

    def run_round(self, k: int, mark):
        routes = self.rounds[k % len(self.rounds)]
        for h, half in enumerate((routes[0::2], routes[1::2])):
            mark(f"{self.seed}-train-{k}-{h}")
            config = training.TrainConfig(epochs=self.scale.train_epochs, seed=self.seed)
            t0 = time.perf_counter()
            params, report = training.train(half, config)
            seconds = time.perf_counter() - t0
            self.outputs.append((params, report))
            yield Sample(seconds, len(half) * config.epochs)

    def check(self) -> tuple:
        failed = 0
        for params, report in self.outputs:
            raw = serialize_checkpoint(predictor.checkpoint_tensors(params), predictor.model_meta(params))
            again = predictor.params_from_checkpoint(*deserialize_checkpoint(raw))
            raw2 = serialize_checkpoint(predictor.checkpoint_tensors(again), predictor.model_meta(again))
            ok = (all(math.isfinite(v) for v in report.epoch_losses)
                  and raw2 == raw and checkpoint_id(raw) == report.checkpoint_id)
            failed += not ok
            self.losses.append(report.epoch_losses[-1])
        attempted = len(self.outputs)
        self.outputs.clear()
        return attempted, failed


class Predict:
    """Best-first prediction, completion and scoring of one held-out route per
    evaluate_testset call, with the reference model trained in set-up.

    Every round has fresh routes, made untimed before the round and outside
    set-up: route_ms_p50 rests on all of them, and with the two rounds that
    set-up could afford, it moved by ~30% from seed to seed."""

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale
        self.rounds = {}      # round -> routes, reused by the traced pass
        self.outputs = []

    def setup(self):
        self.params, self.train_report = reference_model(self.scale)

    def run_round(self, k: int, mark):
        if k not in self.rounds:
            self.rounds[k] = [make_route(WORKLOAD, self.seed, k, z) for z in self.scale.zone_counts]
        for route in self.rounds[k]:
            mark(route.route_id)
            with CompletionTap() as tap:
                t0 = time.perf_counter()
                report = scoring.evaluate_testset([route], params=self.params)
                seconds = time.perf_counter() - t0
            self.outputs.append((route, report, tap.calls))
            yield Sample(seconds, 1)

    def check(self) -> tuple:
        failed = sum(check_report([route], report, completed)
                     for route, report, completed in self.outputs)
        attempted = len(self.outputs)
        self.outputs.clear()
        return attempted, failed


WORKLOAD_CLASSES = {"generate": Generate, "train": Train, "predict": Predict}


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)   # name -> value
    units: dict = field(default_factory=dict)     # name -> (unit, better)
    attempted: int = 0
    failed: int = 0
    spans_ok: bool = True   # traced spans nest and lie within the traced wall time
    extra: dict = field(default_factory=dict)
    tracer: object = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.spans_ok and all(
            math.isfinite(v) for v in self.metrics.values())


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rate(rounds) -> float:
    """Median over rounds of units per scaled second.  Every round holds the
    same mix of zone counts, so their rates are comparable."""
    return statistics.median(sum(s.units for s in r) / sum(s.scaled for s in r) for r in rounds)


def _run_round(work, k: int, mark, speed: Speed) -> tuple:
    """One round, its samples scaled to nominal speed, and the raw wall time
    spent in the round outside calibration."""
    samples, wall = [], 0.0
    rnd = work.run_round(k, mark)
    while True:
        t0 = time.perf_counter()
        sample = next(rnd, None)
        wall += time.perf_counter() - t0
        if sample is None:
            return samples, wall
        sample.scaled = sample.seconds * speed.factor(sample.seconds)
        samples.append(sample)


def _measure(work, result: Result, seconds: float, speed: Speed) -> list:
    """The samples of whole rounds until ``seconds`` of timed work; outputs
    are checked between rounds, outside the timed work."""
    rounds = []
    while not rounds or sum(s.seconds for r in rounds for s in r) < seconds:
        rounds.append(_run_round(work, len(rounds), lambda route_id: None, speed)[0])
        attempted, failed = work.check()
        result.attempted += attempted
        result.failed += failed
    result.extra["rounds"] = len(rounds)
    return rounds


def run(workload: str, seed: int, seconds: float, trace: int, scale: Scale = Scale()) -> Result:
    result = Result()
    work = WORKLOAD_CLASSES[workload](seed, scale)
    speed = Speed(scale.calibration)
    import_s = IMPORT_S * CALIBRATION_NOMINAL_S / speed.first
    setup_times = []
    for _ in range(scale.setup_repeats):
        t0 = time.perf_counter()
        work.setup()
        took = time.perf_counter() - t0
        setup_times.append(took * speed.factor(took))
    result.extra["setup_repeats_s"] = setup_times

    if trace:
        untraced = _measure(work, result, seconds / 2, speed)
        tracer = spans.Tracer()

        def mark(route_id):
            tracer.route = route_id

        wall = 0.0
        traced = []
        with tracer:
            for k in range(result.extra["rounds"]):
                samples, round_wall = _run_round(work, k, mark, speed)
                traced.append(samples)
                wall += round_wall
        attempted, failed = work.check()
        result.attempted += attempted
        result.failed += failed
        overhead = _rate(untraced) / _rate(traced) - 1.0
        result.metrics = tracer.layer_metrics(wall, overhead)
        result.units = spans.PER_LAYER
        result.spans_ok = tracer.nesting_ok() and result.metrics["trace.unwrapped_s"] >= -1e-9
        result.tracer = tracer
        result.extra["spans"] = len(tracer.spans)
        return result

    rounds = _measure(work, result, seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [s for r in rounds for s in r]
    latencies = [1000.0 * s.scaled / s.units for s in samples]

    if workload == "predict":
        params, train_report = work.params, work.train_report
    else:
        params, train_report = reference_model(scale)
    quality_routes = make_routes(QUALITY, 0, scale.quality_rounds, scale)
    with CompletionTap() as tap:
        quality = scoring.evaluate_testset(quality_routes, params=params)
    result.attempted += len(quality_routes)
    result.failed += check_report(quality_routes, quality, tap.calls)

    result.metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "routes_per_s": _rate(rounds),
        "route_ms_p50": statistics.median(latencies),
        "route_ms_p90": _percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "mean_r": quality.mean_r,
        "acc1": quality.accuracy[0],
        "final_loss": train_report.epoch_losses[-1],
    }
    result.units = END_TO_END
    result.extra.update({
        "import_s": IMPORT_S,
        "raw_routes_per_s": sum(s.units for s in samples) / sum(s.seconds for s in samples),
        "latency_samples": len(latencies),
        "quality_routes": len(quality_routes),
        "error_rate": result.failed / result.attempted,
    })
    if workload == "train":
        result.extra["workload_final_losses"] = work.losses
    return result


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": nproc,
        "platform": platform.platform(),
        **git_state(),
        "seed": seed,
    }


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or unknown outside a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        out = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30, env=env, check=True)
        return out.stdout.strip()

    try:
        return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment(args.seed)
    result = run(args.workload, args.seed, args.seconds, args.trace)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.dump(out_dir / f"{stem}-spans.json", _T0)
    record = {
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": result.units[name][0], "better": result.units[name][1]}
                    for name, v in result.metrics.items()},
        **result.extra,
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, value in result.metrics.items():
        unit, better = result.units[name]
        print(f"{args.workload} {name} = {value:.6g} {unit} ({better} is better)")
    print(f"{args.workload} error_rate = {result.failed}/{result.attempted} failed/attempted")
    if not args.trace:
        print(f"{args.workload} latency samples = {result.extra['latency_samples']}, "
              f"quality routes = {result.extra['quality_routes']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": result.units[name][0]}
                    for name, v in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
