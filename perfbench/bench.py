"""One benchmark run: set-up, timed training jobs, timed evaluation passes.

Set-up builds the workload's dataset from the seed and touches every
snapshot's ``normalized_adjacency``. It runs once before the timed phase and
again at even steps through it (releasing the live copy first, so one copy
is held), and its median is reported: the host's speed shifts from second to
second, so set-ups made back to back all read the one state they met.

The timed phase alternates two kinds of repeat, each given half of
``--seconds``: one fixed training job (``meta.train`` from fresh parameters)
and one evaluation pass over the test snapshots (one ``evaluate_sequence``
call per snapshot) with the first job's parameters. At least two of each
kind run; a further one starts only while the last of its kind suggests it
will end inside its half. The process changes CPU every two turns (see
``measure``). Every repeat must reproduce the first bit for bit.

Timings come from the fastest repeat of each operation: every episode
(one target time, run once per epoch of every job) and every evaluated
snapshot keeps its fastest time over the run, and the rates and the median
are taken over those. On a shared host, other tenants slow the process by
up to threefold in bursts of under a second, with a mix that shifts over
minutes, so a mean or median over the run reads fast or slow by the load it
met; the fastest repeat is the one least disturbed (the rule ``timeit``
uses), and an operation repeated many times reaches it in almost every run.

An operation is one training episode or one evaluated snapshot. It fails
when it raises or yields a non-finite objective, gradient norm or score; a
failure is counted, not fatal. ``correct`` holds when nothing failed, every
repeat matched and ``test_map`` lies in [0, 1].

Untraced runs print the end-to-end metrics. Traced runs alternate untraced
and traced training jobs (their median episodes, leaving out the first job,
give ``trace.overhead_share``), trace
set-up and evaluation, print per-layer metrics and write the spans to
``.bench_out/``. The line before the result carries the environment, the
input's shape and the sample counts.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import ledg
from ledg import evaluation as ev
from ledg import meta as mt
from ledg.model import init_parameters

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: unit of every metric ``BENCHMARK.json`` declares, by name
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


class Tally:
    """Operations attempted and failed, plus whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)


def _phase(tracer, name):
    return tracer.phase(name) if tracer is not None else nullcontext()


def _fits(durations: list[float], budget: float) -> bool:
    """Whether to start another repeat: the first two always run, so that the
    fastest is a choice; later ones only if, as long as the last, they end
    inside the budget."""
    return len(durations) < 2 or sum(durations) + durations[-1] <= budget


class Dataset:
    """The workload's dataset, built anew by each set-up; jobs and passes use
    the latest build."""

    def __init__(self, workload, seed, stream_path, tracer, tally):
        self.workload, self.seed, self.stream_path = workload, seed, stream_path
        self.tracer, self.tally = tracer, tally
        self.times = []  # set-up seconds
        self.shape = None  # hash of the first build's edges
        self.sequence = None
        self.set_up()

    def set_up(self) -> None:
        self.sequence = None  # release the live copy before building the next
        start = time.perf_counter()
        with _phase(self.tracer, tracing.PHASES[0]):
            sequence = self.workload.build(self.seed, self.stream_path)
            for snapshot in sequence:
                snapshot.normalized_adjacency
        self.times.append(time.perf_counter() - start)
        shape = hash(tuple(snapshot.edges for snapshot in sequence))
        if self.shape is None:
            self.shape = shape
        elif shape != self.shape:
            self.tally.problem("repeated set-ups built different snapshots")
        self.sequence = sequence

    def keep_pace(self, progress: float) -> None:
        """Set up again until the set-ups done keep pace with ``progress``, the
        share of the timed phase behind; 1 completes them."""
        repeats = self.workload.setup_repeats
        while len(self.times) < min(1 + (repeats - 1) * progress, repeats):
            self.set_up()


def train_job(sequence, spec, config, tracer, tally):
    """One ``meta.train`` call; returns (params or None, records, episode times, seconds)."""
    expected = (sequence.split[0] - mt.earliest_target_time(config) + 1) * config.epochs
    stamps, records = [], []

    def log(record):
        stamps.append(time.perf_counter())
        records.append(record)

    start = time.perf_counter()
    params = None
    with _phase(tracer, tracing.PHASES[1]):
        try:
            params = mt.train(sequence, spec, config, log_hook=log).params
        except Exception:  # a raising job fails its unlogged episodes
            traceback.print_exc()
    end = time.perf_counter()
    finite = [math.isfinite(r.objective) and math.isfinite(r.grad_norm) for r in records]
    tally.attempted += expected
    tally.failed += expected - sum(finite)
    times = list(np.diff([start] + stamps))
    return params, records, times, end - start


class Training:
    """Repeats one training job; traced runs alternate untraced and traced jobs."""

    def __init__(self, dataset, spec, config, tracer, tally):
        self.dataset, self.spec, self.config = dataset, spec, config
        self.tracer, self.tally = tracer, tally
        self.plain, self.traced = [], []  # job seconds
        self.episode_times = []  # one list per untraced job
        self.fastest = {}  # target time -> fastest untraced episode seconds
        self.traced_episode_times = []
        self.params, self.outcome = None, None
        # one untimed episode first, so allocator growth and first-touch costs
        # that a long training run pays once stay out of the timed jobs
        try:
            mt.run_episode(
                dataset.sequence,
                mt.earliest_target_time(config),
                init_parameters(spec, config.seed),
                spec,
                config,
            )
        except Exception:  # the timed jobs count the failure
            traceback.print_exc()

    def step(self) -> None:
        tracer = self.tracer if len(self.plain) > len(self.traced) else None
        params, records, times, seconds = train_job(
            self.dataset.sequence, self.spec, self.config, tracer, self.tally
        )
        (self.traced if tracer else self.plain).append(seconds)
        (self.traced_episode_times if tracer else self.episode_times).append(times)
        if tracer is None:
            for record, elapsed in zip(records, times):
                _keep_fastest(self.fastest, record.target_time, elapsed)
        outcome = None if params is None else (params.fingerprint(), [r.to_json() for r in records])
        if len(self.plain) + len(self.traced) == 1:
            self.params, self.outcome = params, outcome
        elif outcome != self.outcome:
            self.tally.problem("a repeated training job differed from the first")


class Evaluation:
    """Repeats passes over the test snapshots, one ``evaluate_sequence`` call each."""

    def __init__(self, dataset, spec, config, ratio, tracer, tally):
        self.dataset, self.args = dataset, (spec, config, ratio)
        self.tracer, self.tally = tracer, tally
        self.passes = []  # pass seconds
        self.fastest = {}  # test time -> fastest evaluation seconds
        self.maps = None  # per-snapshot MAP of the first pass, None where unscored

    def step(self, params) -> None:
        sequence, (spec, config, ratio) = self.dataset.sequence, self.args
        start = time.perf_counter()
        maps = []
        for t in sequence.times_in("test"):
            self.tally.attempted += 1
            started = time.perf_counter()
            with _phase(self.tracer, tracing.PHASES[2]):
                try:
                    report = ev.evaluate_sequence(
                        sequence, params, spec, config, [t], negative_ratio=ratio
                    )["map"]
                except Exception:  # unscored snapshot: counted as failed
                    traceback.print_exc()
                    report = None
            _keep_fastest(self.fastest, t, time.perf_counter() - started)
            if report is None or not math.isfinite(report.value):
                self.tally.failed += 1
            maps.append(None if report is None else report.value)
        self.passes.append(time.perf_counter() - start)
        if self.maps is None:
            self.maps = maps
        elif maps != self.maps:
            self.tally.problem("a repeated evaluation pass differed from the first")


def _keep_fastest(fastest: dict, key, seconds: float) -> None:
    fastest[key] = min(seconds, fastest.get(key, math.inf))


def measure(dataset: Dataset, training: Training, evaluation: Evaluation, seconds: float) -> None:
    """Alternate training jobs and evaluation passes, half of ``seconds`` each,
    so the fastest repeats are drawn from the whole span of the run, and
    spread the set-ups evenly between them.

    Every two turns the process moves to the next CPU it may use: on a shared
    host one core can stay slowed by a neighbour for a whole run while another
    runs at full speed, and the fastest repeats then come from the faster one.
    Two turns per CPU put both untraced and traced jobs on each."""
    budget = seconds / 2
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for turn in itertools.count():
            os.sched_setaffinity(0, {cpus[turn // 2 % len(cpus)]})
            done = sum(training.plain + training.traced) + sum(evaluation.passes)
            dataset.keep_pace(done / seconds)
            # a traced run needs an untraced job after the first to compare with
            ran = _fits(training.plain + training.traced, budget) or bool(
                training.tracer and len(training.plain) < 2
            )
            if ran:
                training.step()
            if training.params is not None and _fits(evaluation.passes, budget):
                evaluation.step(training.params)
                ran = True
            if not ran:
                dataset.keep_pace(1.0)
                return
    finally:
        os.sched_setaffinity(0, cpus)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run(name: str, seed: int, seconds: float, trace: bool, environment: dict) -> int:
    workload = workloads.WORKLOADS.get(name)
    if workload is None:
        print(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(ledg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ledg imported from {ledg.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    stream_path = None
    if workload.stream is not None:
        OUT.mkdir(exist_ok=True)
        stream_path = OUT / f"stream-{name}.txt"
        workloads.write_edge_stream(stream_path, workload.stream, seed)

    dataset = Dataset(workload, seed, stream_path, tracer, tally)
    spec = workload.spec(dataset.sequence)
    config = workload.config(seed)
    training = Training(dataset, spec, config, tracer, tally)
    evaluation = Evaluation(dataset, spec, config, workload.negative_ratio, tracer, tally)
    measure(dataset, training, evaluation, seconds)
    sequence, setup_times = dataset.sequence, dataset.times
    plain, traced, episode_times = training.plain, training.traced, training.episode_times
    maps, passes = evaluation.maps or [], evaluation.passes
    scored = [m for m in maps if m is not None]
    test_map = float(np.mean(scored)) if scored else float("nan")
    if not 0.0 <= test_map <= 1.0:
        tally.problem(f"test_map {test_map} outside [0, 1]")

    snapshots = len(maps) * len(passes)
    if trace:
        metrics = tracing.layer_metrics(
            tracer,
            setups=len(setup_times),
            episodes=len(tracer.tapes),
            snapshots=snapshots,
        )
        # the first job of a run is slower than later ones, so it is left out
        traced_p50 = statistics.median(sum(training.traced_episode_times, []) or [math.nan])
        plain_p50 = statistics.median(sum(episode_times[1:], []) or [math.nan])
        metrics["trace.overhead_share"] = traced_p50 / plain_p50 - 1.0
        tracer.write(OUT / f"spans-{name}.json")
    else:
        fastest_episodes = list(training.fastest.values()) or [math.nan]
        fastest_snapshots = list(evaluation.fastest.values()) or [math.nan]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_episodes_per_s": len(fastest_episodes) / sum(fastest_episodes),
            "episode_s.p50": statistics.median(fastest_episodes),
            "eval_snapshots_per_s": len(fastest_snapshots) / sum(fastest_snapshots),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "test_map": test_map,
            "ok_ops_share": 1.0 - tally.failed / tally.attempted,
        }
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": {
            **environment,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": blas_threads(),
        },
        "input": {
            "num_nodes": sequence.num_nodes,
            "mean_edges_per_snapshot": float(np.mean([s.num_edges for s in sequence])),
            "snapshots": len(sequence),
            "split": list(sequence.split),
            "feature_width": sequence.feature_width,
        },
        "samples": {
            "setups": len(setup_times),
            "train_jobs": len(plain),
            "traced_train_jobs": len(traced),
            "episodes": sum(map(len, episode_times)),
            "eval_passes": len(passes),
            "eval_snapshots": snapshots,
        },
        "problems": tally.problems,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0
