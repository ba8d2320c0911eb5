"""Spans and tape counters recorded from outside the library.

:class:`Tracer` replaces public functions of the library's modules with
timing wrappers, under every module name a caller looks them up by (``meta``
imports ``embed`` by name, so ``meta.embed`` is wrapped as well as
``model.embed``). Spans (name, start, end, parent) are kept in memory and
the originals are restored on exit. The tape each episode hands to
``meta.outer_step`` is read for node, byte and per-op counts and for the
share of nodes the outer objective depends on.

Self time of a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from ledg import evaluation, graphdata, meta, model, numerics

#: modules searched for every name a wrapped function is bound to
LAYERS = (graphdata, model, numerics, meta, evaluation)

#: (defining module, public function, span name)
WRAPPED = (
    (graphdata, "generate_drifting_sbm", "graphdata.build"),
    (graphdata, "ingest_edge_stream", "graphdata.build"),
    (graphdata, "normalize_adjacency", "graphdata.adjacency"),
    (graphdata, "sample_link_prediction_batch", "graphdata.negatives"),
    (model, "embed", "model.embed"),
    (model, "encode", "model.encode"),
    (model, "disentangle", "model.heads"),
    (model, "task_predict", "model.heads"),
    (model, "time_loss", "model.heads"),
    (model, "task_loss", "model.heads"),
    (meta, "run_episode", "meta.episode"),
    (meta, "inner_adapt", "meta.inner_adapt"),
    (meta, "outer_step", "meta.outer_step"),
    (meta, "adapt_and_predict", "meta.adapt_and_predict"),
    (evaluation, "symmetrized_edge_scores", "evaluation.scoring"),
    (evaluation, "queries_from_batch", "evaluation.ranking"),
    (evaluation, "mean_average_precision", "evaluation.ranking"),
    (evaluation, "mean_reciprocal_rank", "evaluation.ranking"),
)

#: wrapped functions whose calls feed a counter, by attribute name
COUNTERS = {
    "sample_link_prediction_batch": "_count_negatives",
    "queries_from_batch": "_count_queries",
    "outer_step": "_count_tape",
}

#: tape ops reported one by one (the rest only count toward the total)
TAPE_OPS = ("matmul", "transpose", "add", "broadcast_rows")

#: phase spans the benchmark opens around set-up, training and evaluation
PHASES = ("bench.setup", "bench.train", "bench.eval")

_OUTER_STEP = inspect.signature(meta.outer_step)


class Tracer:
    """Records spans around library calls inside its phases."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._objectives: dict[int, numerics.Tensor] = {}
        self.negatives: Counter = Counter()  # sampled negative items per phase
        self.queries: Counter = Counter()  # ranked queries per phase
        self.tapes: list[dict] = []  # one record per outer step

    # -- spans ---------------------------------------------------------------

    def start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def stop(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield
        finally:
            self.stop(index)

    @contextmanager
    def phase(self, name: str):
        """Install the wrappers and open a top-level span (see ``PHASES``)."""
        self._install()
        try:
            with self.span(name):
                yield
        finally:
            self._remove()

    def _current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def _phase_name(self) -> str | None:
        return self.spans[self._open[0]][0] if self._open else None

    # -- installing wrappers -------------------------------------------------

    def _install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            counter = getattr(self, COUNTERS[attr]) if attr in COUNTERS else None
            wrapper = self._wrapper(original, name, counter)
            for module in LAYERS:
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        gradient = numerics.Tape.gradient
        self._restore.append((numerics.Tape, "gradient", gradient))
        numerics.Tape.gradient = self._gradient_wrapper(gradient)

    def _remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                # a span of its own keeps the counting out of the caller's self time
                with tracer.span("trace.counters"):
                    counter(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _gradient_wrapper(self, original):
        tracer = self

        def gradient(tape, output, *args, **kwargs):
            if tracer._current() == "meta.outer_step":
                tracer._objectives[id(tape)] = output
            with tracer.span("numerics.backward"):
                return original(tape, output, *args, **kwargs)

        gradient.__wrapped__ = original
        return gradient

    # -- counters --------------------------------------------------------------

    def _count_negatives(self, args, kwargs, batch) -> None:
        self.negatives[self._phase_name()] += int((batch.labels == 0).sum())

    def _count_queries(self, args, kwargs, queries) -> None:
        self.queries[self._phase_name()] += len(queries)

    def _count_tape(self, args, kwargs, result) -> None:
        tape = _OUTER_STEP.bind(*args, **kwargs).arguments["tape"]
        self.tapes.append(tape_counts(tape, self._objectives.pop(id(tape))))

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON list of [name, start, end, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def tape_counts(tape: numerics.Tape, objective: numerics.Tensor) -> dict:
    """Node count, output megabytes, per-op counts and live share of a tape.

    A node is live when the objective depends on its output, i.e. the outer
    backward pass reads it.
    """
    producer = {id(node.output): k for k, node in enumerate(tape.nodes)}
    live = set()
    stack = [objective]
    while stack:
        k = producer.get(id(stack.pop()))
        if k is not None and k not in live:
            live.add(k)
            stack.extend(tape.nodes[k].inputs)
    ops = Counter(node.op for node in tape.nodes)
    return {
        "nodes": len(tape.nodes),
        "mb": sum(node.output.data.nbytes for node in tape.nodes) / 1e6,
        "live": len(live),
        "ops": {op: ops.get(op, 0) for op in TAPE_OPS},
    }


def layer_metrics(tracer: Tracer, setups: int, episodes: int, snapshots: int) -> dict[str, float]:
    """Per-layer figures: set-up metrics per set-up, training metrics per
    episode and evaluation metrics per evaluated snapshot."""
    episodes, snapshots = max(episodes, 1), max(snapshots, 1)
    spans = tracer.spans
    duration = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    phase = [None] * len(spans)
    for k, (name, _, _, parent) in enumerate(spans):
        if parent is None:
            phase[k] = name
        else:
            child_time[parent] += duration[k]
            phase[k] = phase[parent]
    total = defaultdict(float)  # (phase, span name) -> inclusive seconds
    own = defaultdict(float)  # (phase, span name) -> self seconds
    calls = Counter()
    for k, (name, _, _, _) in enumerate(spans):
        total[phase[k], name] += duration[k]
        own[phase[k], name] += duration[k] - child_time[k]
        calls[phase[k], name] += 1

    setup, train, ev = PHASES
    out = {
        "graphdata.build_s": total[setup, "graphdata.build"] / setups,
        "graphdata.adjacency_s": total[setup, "graphdata.adjacency"] / setups,
        "graphdata.negatives_s.train": total[train, "graphdata.negatives"] / episodes,
        "graphdata.negatives_items.train": tracer.negatives[train] / episodes,
        "graphdata.negatives_s.eval": total[ev, "graphdata.negatives"] / snapshots,
        "graphdata.negatives_items.eval": tracer.negatives[ev] / snapshots,
        "model.encode_s": own[train, "model.encode"] / episodes,
        "model.encode_calls": calls[train, "model.encode"] / episodes,
        "model.heads_s": own[train, "model.heads"] / episodes,
        "numerics.backward_s": own[train, "numerics.backward"] / episodes,
        "meta.inner_adapt_s": total[train, "meta.inner_adapt"] / episodes,
        "meta.outer_step_s": own[train, "meta.outer_step"] / episodes,
        "evaluation.adapt_s": total[ev, "meta.adapt_and_predict"] / snapshots,
        "evaluation.scoring_s": total[ev, "evaluation.scoring"] / snapshots,
        "evaluation.ranking_s": total[ev, "evaluation.ranking"] / snapshots,
        "evaluation.queries": tracer.queries[ev] / snapshots,
    }
    tapes = tracer.tapes
    steps = max(len(tapes), 1)
    nodes = sum(t["nodes"] for t in tapes)
    out["numerics.tape_nodes"] = nodes / steps
    out["numerics.tape_mb"] = sum(t["mb"] for t in tapes) / steps
    for op in TAPE_OPS:
        out[f"numerics.tape_nodes.{op}"] = sum(t["ops"][op] for t in tapes) / steps
    out["numerics.tape_live_share"] = sum(t["live"] for t in tapes) / max(nodes, 1)
    return out
