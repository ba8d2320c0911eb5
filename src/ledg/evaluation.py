"""Ranking and classification metrics over evaluation snapshots.

Link prediction is scored per source node: each evaluation query ranks one
source's true neighbors against its sampled non-neighbors, candidates sorted
by descending score with ties broken by candidate id ascending. Reported
values are unweighted means over evaluation snapshots. Edge scores are
symmetrized by averaging the two endpoint orders before ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import meta as mt
from .errors import NumericalError, ValidationError
from .graphdata import DynamicGraphSequence, TaskBatch, seed_from, supervised_batch
from .model import ModelSpec, symmetric_pair_probabilities, task_predict
from .numerics import ParameterSet, frozen


#: sampled non-neighbours per true edge in an evaluation batch, by default
EVAL_NEGATIVE_RATIO = 100


@dataclass(frozen=True)
class RankedQueries:
    """Many queries' candidates in one flat ranking order.

    Query ``i`` owns the slice ``starts[i]:starts[i + 1]`` of the flat
    arrays, in which its candidates run by descending score, ties by
    ascending candidate id. ``len()`` is the number of queries.
    """

    query_ids: np.ndarray
    starts: np.ndarray
    candidate_ids: np.ndarray
    scores: np.ndarray
    relevance: np.ndarray

    def __len__(self) -> int:
        return self.query_ids.size

    @cached_property
    def relevant_ranks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every relevant candidate's (query, hits so far, rank), in ranking order.

        The query index counts only queries with a relevant candidate, so
        queries without one drop out of both metrics.
        """
        positions = np.flatnonzero(self.relevance)
        if positions.size == 0:
            raise ValidationError("every query lacks a relevant candidate")
        query = np.searchsorted(self.starts, positions, side="right") - 1
        rank = positions - self.starts[query] + 1
        first = _run_heads(query)
        kept = np.cumsum(first) - 1
        hits = np.arange(1, positions.size + 1) - np.flatnonzero(first)[kept]
        return kept, hits, rank


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys starts."""
    heads = np.ones(keys.size, dtype=bool)
    heads[1:] = keys[1:] != keys[:-1]
    return heads


def _dense_rank(values: np.ndarray) -> np.ndarray:
    """Each value's index among the distinct values, smallest first."""
    by_value = np.argsort(values)
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[by_value] = np.cumsum(_run_heads(values[by_value])) - 1
    return ranks


def _ranking_order(keys, candidate_ids, scores) -> np.ndarray:
    """The order ``np.lexsort((candidate_ids, -scores, keys))``, from integer sorts.

    Items sort by key, then by descending score, then by candidate id, and
    items equal on all three keep their input order. One float sort ranks
    the scores densely; two stable sorts of two-rank integer keys then give
    the order. A dense rank is below M, the item count, so such a key is
    below M², which int64 holds for every M up to 3·10⁹.
    """
    m = scores.size
    major = _dense_rank(keys) * m + _dense_rank(-scores)
    order = np.argsort(major, kind="stable")
    # runs of equal (key, score) in that order still need their candidates sorted
    tied = np.cumsum(_run_heads(major[order])) - 1
    return order[np.argsort(tied * m + _dense_rank(candidate_ids)[order], kind="stable")]


def _rank(keys, candidate_ids, scores, relevance) -> RankedQueries:
    """Sort items into one query per distinct key, each in ranking order."""
    order = _ranking_order(keys, candidate_ids, scores)
    keys = keys[order]
    starts = np.flatnonzero(_run_heads(keys))
    arrays = (keys[starts], starts, candidate_ids[order], scores[order], relevance[order])
    # relevant_ranks caches what it reads, so the value owns its arrays read-only
    return RankedQueries(*map(frozen, arrays))


def mean_average_precision(queries: RankedQueries) -> float:
    """Mean over queries of average precision.

    AP is the mean, over a query's relevant candidates, of the precision at
    each relevant candidate's rank, summed in rank order. Queries without
    any relevant candidate are excluded from the mean; an all-excluded batch
    is an error.
    """
    query, hits, rank = queries.relevant_ranks
    counts = np.bincount(query)
    # one column per query, zero-padded below its last relevant candidate; a
    # running sum down the columns adds each query's precisions in rank order
    # (a plain column sum may regroup them, as it does for a single column)
    precisions = np.zeros((int(counts.max()), counts.size))
    precisions[hits - 1, query] = hits / rank
    return float(np.mean(np.cumsum(precisions, axis=0)[-1] / counts))


def mean_reciprocal_rank(queries: RankedQueries) -> float:
    """Mean over queries of 1 / rank of the best-ranked relevant candidate."""
    _, hits, rank = queries.relevant_ranks
    return float(np.mean(1.0 / rank[hits == 1]))


def micro_f1(predictions, labels, num_classes: int) -> float:
    """Micro-averaged F1 from globally pooled per-class counts.

    Pooled over classes, TP / (TP + (FP + FN) / 2). For single-label
    multiclass prediction every wrong item is one FP and one FN, so
    FP = FN = M - TP, the denominator is exactly M, and the value is the
    accuracy, computed as correct / M.
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
    return int(np.count_nonzero(predictions == labels)) / predictions.size


def queries_from_batch(batch: TaskBatch, scores) -> RankedQueries:
    """Rank a scored link-prediction batch as one query per source node."""
    if batch.kind != "edge":
        raise ValidationError("ranking queries need an edge batch")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (batch.size,):
        raise ValidationError("need one score per batch item")
    sources = batch.items[:, 0]
    finite = np.isfinite(scores)
    if not finite.all():
        raise ValidationError(f"query {int(sources[~finite].min())}: scores must be finite")
    if not np.all((batch.labels == 0) | (batch.labels == 1)):
        raise ValidationError("relevance must be 0 or 1")
    return _rank(sources, batch.items[:, 1], scores, batch.labels)


def symmetrized_edge_scores(bundle, params: ParameterSet, spec: ModelSpec, batch: TaskBatch) -> np.ndarray:
    """Positive-class probability averaged over both endpoint orders."""
    return symmetric_pair_probabilities(params, spec, bundle.head_parts, batch.items)[:, 1]


@dataclass(frozen=True)
class MetricReport:
    """A metric's per-snapshot breakdown and its value, their unweighted mean."""

    name: str
    breakdown: tuple[tuple[int, float], ...]
    value: float = field(init=False)

    def __post_init__(self):
        pairs = tuple((int(t), float(v)) for t, v in self.breakdown)
        if not pairs:
            raise ValidationError(f"metric {self.name!r} has an empty breakdown")
        value = float(np.mean([v for _, v in pairs]))
        if not (0.0 <= value <= 1.0):
            raise ValidationError(f"metric {self.name!r} value {value} outside [0, 1]")
        object.__setattr__(self, "breakdown", pairs)
        object.__setattr__(self, "value", value)


def evaluation_batch(
    sequence: DynamicGraphSequence,
    t: int,
    config: mt.TrainingConfig,
    negative_ratio: int = EVAL_NEGATIVE_RATIO,
) -> TaskBatch | None:
    """The batch evaluation scores at time t, or None when the snapshot offers
    no supervised items; its negatives are drawn from one seed that depends
    only on ``config.seed``, so runs sharing a seed score the same batches."""
    seed = int(seed_from(config.seed, "evalbatch").generate_state(1)[0])
    return supervised_batch(sequence.snapshot_at(t), sequence.task, negative_ratio, "eval", seed)


def evaluate_sequence(
    sequence: DynamicGraphSequence,
    params: ParameterSet,
    spec: ModelSpec,
    config: mt.TrainingConfig,
    times,
    negative_ratio: int = EVAL_NEGATIVE_RATIO,
) -> dict[str, MetricReport]:
    """Adapt to each evaluation time, score its :func:`evaluation_batch`, and
    aggregate metrics.

    Link prediction reports ``map`` and ``mrr`` over per-source queries;
    classification tasks report ``micro_f1``. Aggregation is the unweighted
    mean over snapshots; times whose snapshot has no supervised items are
    skipped. Raises NumericalError, naming the time, when the adapted
    model's scores or class probabilities are not finite.
    """
    times = [int(t) for t in times]
    if not times:
        raise ValidationError("no evaluation times given")
    per_time: dict[str, list[tuple[int, float]]] = {}
    for t in times:
        batch = evaluation_batch(sequence, t, config, negative_ratio)
        if batch is None:
            continue
        bundle, state = mt.adapt_and_predict(sequence, params, t, spec, config)
        if sequence.task == "link_prediction":
            scores = _require_finite(t, symmetrized_edge_scores(bundle, state, spec, batch))
            queries = queries_from_batch(batch, scores)
            per_time.setdefault("map", []).append((t, mean_average_precision(queries)))
            per_time.setdefault("mrr", []).append((t, mean_reciprocal_rank(queries)))
        else:
            if batch.kind == "node":
                probabilities = task_predict(bundle, state, spec, batch).data
            else:
                probabilities = symmetric_pair_probabilities(state, spec, bundle.head_parts, batch.items)
            predicted = np.argmax(_require_finite(t, probabilities), axis=1)
            score = micro_f1(predicted, batch.labels, sequence.num_classes)
            per_time.setdefault("micro_f1", []).append((t, score))
    if not per_time:
        raise ValidationError("no evaluation time produced a scoreable batch")
    return {name: MetricReport(name, pairs) for name, pairs in per_time.items()}


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
