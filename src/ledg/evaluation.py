"""Ranking and classification metrics over evaluation snapshots.

Link prediction is scored per source node: each evaluation query ranks one
source's true neighbors against its sampled non-neighbors, candidates sorted
by descending score with ties broken by candidate id ascending. Reported
values are unweighted means over evaluation snapshots. Edge scores are
symmetrized by averaging the two endpoint orders before ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import meta as mt
from .errors import NumericalError, ValidationError
from .graphdata import DynamicGraphSequence, TaskBatch, seed_from, supervised_batch
from .model import ModelSpec, symmetric_pair_probabilities, task_predict
from .numerics import ParameterSet

__all__ = [
    "RankedQuery",
    "MetricReport",
    "mean_average_precision",
    "mean_reciprocal_rank",
    "micro_f1",
    "queries_from_batch",
    "symmetrized_edge_scores",
    "evaluate_sequence",
    "reports_to_csv",
]


@dataclass(frozen=True)
class RankedQuery:
    """One source node's scored candidate list."""

    query_id: int
    candidate_ids: np.ndarray
    scores: np.ndarray
    relevance: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.candidate_ids, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        rel = np.asarray(self.relevance, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValidationError("a query needs at least one candidate")
        if scores.shape != ids.shape or rel.shape != ids.shape:
            raise ValidationError("candidate ids, scores and relevance must align")
        if not np.all(np.isfinite(scores)):
            raise ValidationError(f"query {self.query_id}: scores must be finite")
        if not np.all((rel == 0) | (rel == 1)):
            raise ValidationError("relevance must be 0 or 1")
        for name, arr in (("candidate_ids", ids), ("scores", scores), ("relevance", rel)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_relevant(self) -> int:
        return int(self.relevance.sum())

    def ranking(self) -> np.ndarray:
        """Candidate order: descending score, ties by ascending candidate id."""
        return np.lexsort((self.candidate_ids, -self.scores))

    @cached_property
    def ranked_relevance(self) -> np.ndarray:
        """Relevance in ranking order, sorted once and shared by the metrics."""
        ranked = self.relevance[self.ranking()]
        ranked.flags.writeable = False
        return ranked


def _kept(queries) -> list[RankedQuery]:
    queries = list(queries)
    if not queries:
        raise ValidationError("no queries to evaluate")
    kept = [q for q in queries if q.num_relevant > 0]
    if not kept:
        raise ValidationError("every query lacks a relevant candidate")
    return kept


def mean_average_precision(queries) -> float:
    """Mean over queries of average precision.

    AP is the mean, over a query's relevant candidates, of the precision at
    each relevant candidate's rank. Queries without any relevant candidate
    are excluded from the mean; an empty or all-excluded list is an error.
    """
    aps = []
    for q in _kept(queries):
        rel = q.ranked_relevance
        hits = np.cumsum(rel)
        ranks = np.arange(1, rel.size + 1)
        precisions = hits[rel == 1] / ranks[rel == 1]
        aps.append(float(precisions.mean()))
    return float(np.mean(aps))


def mean_reciprocal_rank(queries) -> float:
    """Mean over queries of 1 / rank of the best-ranked relevant candidate."""
    rrs = []
    for q in _kept(queries):
        first = int(np.argmax(q.ranked_relevance)) + 1
        rrs.append(1.0 / first)
    return float(np.mean(rrs))


def micro_f1(predictions, labels, num_classes: int) -> float:
    """Micro-averaged F1 from globally pooled per-class counts.

    Computed as TP / (TP + (FP + FN) / 2) with counts summed over classes,
    which for single-label multiclass prediction coincides with accuracy.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValidationError("predictions and labels must be equal-length 1-D")
    if predictions.size == 0:
        raise ValidationError("nothing to score")
    for name, arr in (("predictions", predictions), ("labels", labels)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValidationError(f"{name} outside class range [0, {num_classes})")
    tp = fp = fn = 0
    for c in range(num_classes):
        tp += int(np.sum((predictions == c) & (labels == c)))
        fp += int(np.sum((predictions == c) & (labels != c)))
        fn += int(np.sum((predictions != c) & (labels == c)))
    return tp / (tp + 0.5 * (fp + fn))


def queries_from_batch(batch: TaskBatch, scores) -> list[RankedQuery]:
    """Group a scored link-prediction batch into per-source ranked queries."""
    if batch.kind != "edge":
        raise ValidationError("ranking queries need an edge batch")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (batch.size,):
        raise ValidationError("need one score per batch item")
    sources = batch.items[:, 0]
    # a stable sort keeps each source's candidates in batch order
    order = np.argsort(sources, kind="stable")
    starts = np.flatnonzero(np.diff(sources[order])) + 1
    return [
        RankedQuery(
            query_id=int(sources[pick[0]]),
            candidate_ids=batch.items[pick, 1],
            scores=scores[pick],
            relevance=batch.labels[pick],
        )
        for pick in np.split(order, starts)
    ]


def symmetrized_edge_scores(bundle, params: ParameterSet, spec: ModelSpec, batch: TaskBatch) -> np.ndarray:
    """Positive-class probability averaged over both endpoint orders."""
    return _symmetrized_probabilities(bundle, params, spec, batch)[:, 1]


def _symmetrized_probabilities(bundle, params, spec, batch) -> np.ndarray:
    parts = (
        ("classifier_time", bundle.time_part.data),
        ("classifier_graph", bundle.graph_part.data),
    )
    return symmetric_pair_probabilities(params, spec, parts, batch.items)


@dataclass(frozen=True)
class MetricReport:
    """A metric value with its per-snapshot breakdown."""

    name: str
    value: float
    breakdown: tuple[tuple[int, float], ...]
    aggregation: str = "mean"

    @classmethod
    def from_breakdown(cls, name: str, pairs) -> "MetricReport":
        pairs = tuple((int(t), float(v)) for t, v in pairs)
        if not pairs:
            raise ValidationError(f"metric {name!r} has an empty breakdown")
        value = float(np.mean([v for _, v in pairs]))
        return cls(name=name, value=value, breakdown=pairs)

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValidationError(f"metric {self.name!r} value {self.value} outside [0, 1]")
        agg = float(np.mean([v for _, v in self.breakdown]))
        if not math.isclose(agg, self.value, rel_tol=0, abs_tol=1e-12):
            raise ValidationError(f"metric {self.name!r} value is not the {self.aggregation}")


def evaluate_sequence(
    sequence: DynamicGraphSequence,
    params: ParameterSet,
    spec: ModelSpec,
    config: mt.TrainingConfig,
    times,
    negative_ratio: int = 100,
    scorer=None,
) -> dict[str, MetricReport]:
    """Adapt to each evaluation time, score its batch, and aggregate metrics.

    Link prediction reports ``map`` and ``mrr`` over per-source queries;
    classification tasks report ``micro_f1``. Aggregation is the unweighted
    mean over snapshots; times whose snapshot has no supervised items are
    skipped. ``scorer`` (a callable ``batch -> scores``) replaces the whole
    model path, for oracle tests. Raises NumericalError, naming the time,
    when the adapted model's scores or class probabilities are not finite.
    """
    times = [int(t) for t in times]
    if not times:
        raise ValidationError("no evaluation times given")
    batch_seed = int(seed_from(config.seed, "evalbatch").generate_state(1)[0])
    per_time: dict[str, list[tuple[int, float]]] = {}
    for t in times:
        batch = supervised_batch(
            sequence.snapshot_at(t), sequence.task, negative_ratio, "eval", batch_seed
        )
        if batch is None:
            continue
        if scorer is None:
            bundle, state = mt.adapt_and_predict(sequence, params, t, spec, config)
        if sequence.task == "link_prediction":
            if scorer is not None:
                scores = np.asarray(scorer(batch), dtype=np.float64)
            else:
                scores = _require_finite(t, symmetrized_edge_scores(bundle, state, spec, batch))
            queries = queries_from_batch(batch, scores)
            per_time.setdefault("map", []).append((t, mean_average_precision(queries)))
            per_time.setdefault("mrr", []).append((t, mean_reciprocal_rank(queries)))
        else:
            if scorer is not None:
                predicted = np.asarray(scorer(batch), dtype=np.int64)
            else:
                if batch.kind == "node":
                    probabilities = task_predict(bundle, state, spec, batch).data
                else:
                    probabilities = _symmetrized_probabilities(bundle, state, spec, batch)
                predicted = np.argmax(_require_finite(t, probabilities), axis=1)
            score = micro_f1(predicted, batch.labels, sequence.num_classes)
            per_time.setdefault("micro_f1", []).append((t, score))
    if not per_time:
        raise ValidationError("no evaluation time produced a scoreable batch")
    return {name: MetricReport.from_breakdown(name, pairs) for name, pairs in per_time.items()}


def _require_finite(t: int, values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"evaluation at time {t}: the adapted model's outputs are not finite")
    return values


def reports_to_csv(reports: dict[str, MetricReport], fingerprint: str | None = None) -> str:
    """Render reports as CSV text: per-snapshot rows plus an aggregate row."""
    lines = []
    if fingerprint is not None:
        lines.append(f"# config_sha256={fingerprint}")
    lines.append("metric,snapshot_time,value")
    for name in sorted(reports):
        report = reports[name]
        for t, v in report.breakdown:
            lines.append(f"{name},{t},{v:.12g}")
        lines.append(f"{name},all,{report.value:.12g}")
    return "\n".join(lines) + "\n"
