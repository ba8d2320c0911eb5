"""Ranking metrics, micro-F1, sequence evaluation, CSV reports."""

import numpy as np
import pytest

import oracles
from ledg import evaluation as ev
from ledg import graphdata as gd
from ledg import meta as mt
from ledg import model as md
from ledg.errors import NumericalError, ValidationError
from ledg.evaluation import MetricReport
from ledg.meta import TrainingConfig
from ledg.model import EncoderConfig, ModelSpec
from ledg.numerics import Tensor


def _query(ids, scores, relevance, query_id=0):
    return oracles.Query(query_id, np.array(ids), np.array(scores, dtype=float),
                       np.array(relevance))


def _random_queries(rng, num_queries, allow_empty=True, single_relevant=False):
    queries = []
    for qid in range(num_queries):
        n = int(rng.integers(3, 30))
        ids = rng.choice(1000, size=n, replace=False)
        # one decimal place forces plenty of score ties
        scores = np.round(rng.random(n), 1)
        if single_relevant:
            rel = np.zeros(n, dtype=int)
            rel[rng.integers(0, n)] = 1
        else:
            rel = (rng.random(n) < 0.3).astype(int)
            if not allow_empty and rel.sum() == 0:
                rel[rng.integers(0, n)] = 1
        queries.append(_query(ids, scores, rel, query_id=qid))
    return queries


# ------------------------------------------------------------ ranking metrics


def test_map_and_mrr_hand_worked_example():
    q = _query([10, 20, 30], [3.0, 2.0, 1.0], [1, 0, 1])
    # relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2
    ranked = oracles.ranked_queries([q])
    assert ev.mean_average_precision(ranked) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert ev.mean_reciprocal_rank(ranked) == 1.0
    q2 = _query([10, 20, 30], [3.0, 2.0, 1.0], [0, 1, 0])
    assert ev.mean_average_precision(oracles.ranked_queries([q2])) == 0.5
    assert ev.mean_reciprocal_rank(oracles.ranked_queries([q2])) == 0.5


def test_perfect_and_inverted_rankings():
    ids = list(range(5))
    perfect = _query(ids, [5.0, 4.0, 3.0, 2.0, 1.0], [1, 1, 0, 0, 0])
    assert ev.mean_average_precision(oracles.ranked_queries([perfect])) == 1.0
    assert ev.mean_reciprocal_rank(oracles.ranked_queries([perfect])) == 1.0
    worst = _query(ids, [5.0, 4.0, 3.0, 2.0, 1.0], [0, 0, 0, 0, 1])
    assert ev.mean_reciprocal_rank(oracles.ranked_queries([worst])) == pytest.approx(0.2)


def test_ties_break_by_ascending_candidate_id():
    q = _query([9, 2, 5], [1.0, 1.0, 1.0], [0, 0, 1])
    # all tied: order is 2, 5, 9, so candidate 5 sits at rank 2
    assert ev.mean_reciprocal_rank(oracles.ranked_queries([q])) == 0.5
    q2 = _query([9, 2, 5], [1.0, 1.0, 1.0], [0, 1, 0])
    assert ev.mean_reciprocal_rank(oracles.ranked_queries([q2])) == 1.0


def test_queries_without_relevant_candidates_are_excluded():
    with_rel = _query([1, 2], [2.0, 1.0], [1, 0], query_id=0)
    without = _query([3, 4], [2.0, 1.0], [0, 0], query_id=1)
    assert ev.mean_average_precision(oracles.ranked_queries([with_rel, without])) == 1.0
    with pytest.raises(ValidationError):
        ev.mean_average_precision(oracles.ranked_queries([without]))
    with pytest.raises(ValidationError):
        ev.mean_average_precision(oracles.ranked_queries([]))


def test_metrics_match_brute_force_on_random_instances():
    for instance in range(50):
        rng = np.random.default_rng([100, instance])
        queries = _random_queries(rng, int(rng.integers(1, 7)), allow_empty=instance % 3 == 0)
        if all(q.relevance.sum() == 0 for q in queries):
            continue
        assert abs(ev.mean_average_precision(oracles.ranked_queries(queries))
                   - oracles.brute_force_map(queries)) <= 1e-12
        assert abs(ev.mean_reciprocal_rank(oracles.ranked_queries(queries))
                   - oracles.brute_force_mrr(queries)) <= 1e-12


def test_metrics_invariant_under_monotone_score_transforms():
    rng = np.random.default_rng(42)
    queries = _random_queries(rng, 5, allow_empty=False)
    base_map = ev.mean_average_precision(oracles.ranked_queries(queries))
    base_mrr = ev.mean_reciprocal_rank(oracles.ranked_queries(queries))
    for transform in (lambda s: 3.0 * s + 7.0, np.exp):
        moved = [
            oracles.Query(q.query_id, q.candidate_ids, transform(q.scores), q.relevance)
            for q in queries
        ]
        assert ev.mean_average_precision(oracles.ranked_queries(moved)) == base_map
        assert ev.mean_reciprocal_rank(oracles.ranked_queries(moved)) == base_mrr


def test_mrr_equals_map_with_a_single_relevant_candidate():
    rng = np.random.default_rng(3)
    queries = _random_queries(rng, 20, single_relevant=True)
    ranked = oracles.ranked_queries(queries)
    assert ev.mean_reciprocal_rank(ranked) == ev.mean_average_precision(ranked)


# ------------------------------------------------------------------- micro F1


def test_micro_f1_trivial_values():
    assert ev.micro_f1([0, 1, 1, 0], [0, 1, 1, 0], 2) == 1.0
    assert ev.micro_f1([0, 0, 1, 1], [0, 1, 0, 1], 2) == 0.5


def test_micro_f1_matches_confusion_matrix_oracle():
    for case in range(50):
        rng = np.random.default_rng([200, case])
        c = int(rng.integers(2, 7))
        n = int(rng.integers(5, 200))
        preds = rng.integers(0, c, size=n)
        labels = rng.integers(0, c, size=n)
        ours = ev.micro_f1(preds, labels, c)
        assert abs(ours - oracles.confusion_micro_f1(preds, labels, c)) <= 1e-12


def test_micro_f1_equals_accuracy_for_single_label_predictions():
    rng = np.random.default_rng(8)
    preds = rng.integers(0, 4, size=500)
    labels = rng.integers(0, 4, size=500)
    assert ev.micro_f1(preds, labels, 4) == float(np.mean(preds == labels))


def test_micro_f1_validation():
    with pytest.raises(ValidationError):
        ev.micro_f1([0, 3], [0, 1], 2)
    with pytest.raises(ValidationError):
        ev.micro_f1([0, 1], [0, -1], 2)
    with pytest.raises(ValidationError):
        ev.micro_f1([0, 1], [0], 2)
    with pytest.raises(ValidationError):
        ev.micro_f1([], [], 2)


# ------------------------------------------------------------- query building


def _segments(queries, name):
    # one array per query, cut from the flat ranked arrays
    return np.split(getattr(queries, name), queries.starts[1:])


def test_queries_from_batch_groups_by_source():
    batch = gd.TaskBatch(1, "edge", np.array([[0, 1], [0, 2], [3, 4]]),
                         np.array([1, 0, 1]))
    queries = ev.queries_from_batch(batch, [0.9, 0.2, 0.7])
    assert queries.query_ids.tolist() == [0, 3]
    assert np.array_equal(_segments(queries, "candidate_ids")[0], [1, 2])
    assert np.array_equal(_segments(queries, "scores")[0], [0.9, 0.2])
    assert np.array_equal(_segments(queries, "relevance")[0], [1, 0])
    with pytest.raises(ValidationError):
        ev.queries_from_batch(batch, [0.9, 0.2])
    node_batch = gd.TaskBatch(1, "node", np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(ValidationError):
        ev.queries_from_batch(node_batch, [0.1, 0.2])


def test_symmetrized_edge_scores_are_order_invariant():
    spec = ModelSpec(EncoderConfig(num_layers=1, input_dim=6, hidden_dim=3))
    params = md.init_parameters(spec, seed=0)
    snap = gd.SnapshotGraph(1, 6, [(0, 1), (2, 3), (4, 5)], np.eye(6))
    bundle = md.embed(snap, params, spec)
    batch = gd.TaskBatch(1, "edge", np.array([[0, 1], [2, 5], [4, 3]]),
                         np.array([1, 0, 0]))
    swapped = gd.TaskBatch(1, "edge", batch.items[:, ::-1], batch.labels)
    a = ev.symmetrized_edge_scores(bundle, params, spec, batch)
    b = ev.symmetrized_edge_scores(bundle, params, spec, swapped)
    assert np.array_equal(a, b)
    assert np.all((a > 0.0) & (a < 1.0))


def _two_order_probabilities(bundle, params, spec, batch):
    # the symmetric formula as two taped-path predictions, one per order
    swapped = gd.TaskBatch(batch.time_index, "edge", batch.items[:, ::-1], batch.labels)
    forward = md.task_predict(bundle, params, spec, batch).data
    backward = md.task_predict(bundle, params, spec, swapped).data
    return 0.5 * (forward + backward)


def test_symmetrized_edge_scores_match_two_task_predicts():
    seq = _link_sequence()
    spec = ModelSpec(EncoderConfig(num_layers=2, input_dim=16, hidden_dim=4))
    params = md.init_parameters(spec, seed=3)
    snap = seq.snapshot_at(5)
    bundle = md.embed(snap, params, spec)
    batch = gd.sample_link_prediction_batch(snap, 7, mode="eval", seed=2)
    reference = _two_order_probabilities(bundle, params, spec, batch)
    scores = ev.symmetrized_edge_scores(bundle, params, spec, batch)
    assert np.max(np.abs(scores - reference[:, 1])) <= 1e-12


def test_symmetric_edge_class_probabilities_match_two_task_predicts():
    spec = ModelSpec(EncoderConfig(num_layers=2, input_dim=9, hidden_dim=5),
                     task="edge_classification", num_classes=4)
    params = md.init_parameters(spec, seed=5)
    rng = np.random.default_rng(6)
    pairs = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.4]
    snap = gd.SnapshotGraph(1, 9, pairs, rng.normal(size=(9, 9)))
    bundle = md.embed(snap, params, spec)
    items = rng.integers(0, 9, size=(40, 2))
    batch = gd.TaskBatch(1, "edge", items, rng.integers(0, 4, size=40))
    reference = _two_order_probabilities(bundle, params, spec, batch)
    parts = (("classifier_time", bundle.time_part.data),
             ("classifier_graph", bundle.graph_part.data))
    probabilities = md.symmetric_pair_probabilities(params, spec, parts, batch.items)
    assert np.max(np.abs(probabilities - reference)) <= 1e-12
    assert np.array_equal(np.argmax(probabilities, axis=1), np.argmax(reference, axis=1))


def test_static_scorer_matches_the_two_order_static_predict():
    from ledg import baselines as bl

    seq = _link_sequence()
    spec = ModelSpec(EncoderConfig(num_layers=2, input_dim=16, hidden_dim=4))
    params = bl.init_static_parameters(spec, seed=1)
    frozen = seq.snapshot_at(seq.split[0])
    batch = gd.sample_link_prediction_batch(seq.snapshot_at(len(seq)), 5, mode="eval", seed=1)
    swapped = gd.TaskBatch(batch.time_index, "edge", batch.items[:, ::-1], batch.labels)
    forward = bl.static_predict(frozen, params, spec, batch).data[:, 1]
    backward = bl.static_predict(frozen, params, spec, swapped).data[:, 1]
    scores = bl.static_scorer(seq, params, spec)(batch)
    assert np.max(np.abs(scores - 0.5 * (forward + backward))) <= 1e-12


def test_static_scorer_encodes_once_over_a_multi_time_evaluation(monkeypatch):
    from ledg import baselines as bl

    seq, spec, _, config = _link_setup()
    params = bl.init_static_parameters(spec, seed=1)
    frozen = seq.snapshot_at(seq.split[0])
    encoded = []
    encode = md.encode
    monkeypatch.setattr(bl, "encode", lambda snap, *args: encoded.append(snap) or encode(snap, *args))
    scorer = bl.static_scorer(seq, params, spec)
    scored = []

    def recorded(batch):
        scored.append((batch, scorer(batch)))
        return scored[-1][1]

    ev.evaluate_sequence(seq, params, spec, config, range(3, 7), negative_ratio=5, scorer=recorded)
    assert encoded == [frozen]
    assert len({batch.time_index for batch, _ in scored}) == 4
    # the embedding made once gives the bits of a scorer built for each batch
    for batch, scores in scored:
        assert np.array_equal(scores, bl.static_scorer(seq, params, spec)(batch))


def test_evaluate_sequence_never_calls_task_predict(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return md.task_predict(*args, **kwargs)

    for module in (ev, mt, md):
        monkeypatch.setattr(module, "task_predict", counted)
    seq, spec, params, config = _link_setup()
    reports = ev.evaluate_sequence(seq, params, spec, config, seq.times_in("test"),
                                   negative_ratio=5)
    assert set(reports) == {"map", "mrr"} and calls == []


def test_queries_from_batch_matches_per_source_masks():
    rng = np.random.default_rng(9)
    items = rng.integers(0, 12, size=(200, 2))
    batch = gd.TaskBatch(1, "edge", items, rng.integers(0, 2, size=200))
    scores = np.round(rng.random(200), 1)
    queries = ev.queries_from_batch(batch, scores)
    sources = batch.items[:, 0]
    assert queries.query_ids.tolist() == np.unique(sources).tolist()
    assert len(queries) == np.unique(sources).size
    segments = zip(queries.query_ids, *(_segments(queries, name) for name in
                                        ("candidate_ids", "scores", "relevance")))
    for query_id, ids, query_scores, relevance in segments:
        pick = sources == query_id
        # each source's candidates by descending score, ties by ascending id
        order = np.lexsort((batch.items[pick, 1], -scores[pick]))
        assert np.array_equal(ids, batch.items[pick, 1][order])
        assert np.array_equal(query_scores, scores[pick][order])
        assert np.array_equal(relevance, batch.labels[pick][order])


def _per_source_queries(batch, scores):
    sources = batch.items[:, 0]
    return [oracles.Query(int(s), batch.items[sources == s, 1], scores[sources == s],
                        batch.labels[sources == s]) for s in np.unique(sources)]


def _random_batch(rng, num_sources, max_relevant):
    # repeated sources interleaved in batch order, one-decimal scores for
    # ties, single-candidate queries, queries without a relevant candidate
    # and (for max_relevant >= 8) queries with many relevant candidates
    items, labels = [], []
    for source in rng.choice(1000, size=num_sources, replace=False):
        n = int(rng.integers(1, 40))
        relevant = min(n, int(rng.integers(0, max_relevant + 1)))
        items += [(source, c) for c in rng.choice(1000, size=n, replace=False)]
        labels += [1] * relevant + [0] * (n - relevant)
    shuffle = rng.permutation(len(items))
    batch = gd.TaskBatch(1, "edge", np.array(items)[shuffle], np.array(labels)[shuffle])
    return batch, np.round(rng.random(batch.size), 1)


def test_batched_metrics_match_brute_force_on_random_batches():
    seen = set()
    for instance in range(60):
        rng = np.random.default_rng([300, instance])
        batch, scores = _random_batch(rng, int(rng.integers(1, 12)), max_relevant=20)
        per_source = _per_source_queries(batch, scores)
        if all(q.relevance.sum() == 0 for q in per_source):
            continue
        queries = ev.queries_from_batch(batch, scores)
        assert len(queries) == len(per_source)
        assert abs(ev.mean_average_precision(queries)
                   - oracles.brute_force_map(per_source)) <= 1e-12
        assert abs(ev.mean_reciprocal_rank(queries)
                   - oracles.brute_force_mrr(per_source)) <= 1e-12
        seen |= {min(int(q.relevance.sum()), 8) for q in per_source}
        seen |= {"single" for q in per_source if q.candidate_ids.size == 1}
    assert {0, 1, 8, "single"} <= seen


def test_batched_metrics_repeat_per_query_bits_below_eight_relevant():
    for instance in range(60):
        rng = np.random.default_rng([400, instance])
        batch, scores = _random_batch(rng, int(rng.integers(1, 12)), max_relevant=7)
        per_source = _per_source_queries(batch, scores)
        if all(q.relevance.sum() == 0 for q in per_source):
            continue
        queries = ev.queries_from_batch(batch, scores)
        got = (ev.mean_average_precision(queries), ev.mean_reciprocal_rank(queries))
        assert got == oracles.per_query_map_mrr(per_source)
        # a list of single-query records goes through the same code
        ranked = oracles.ranked_queries(per_source)
        listed = (ev.mean_average_precision(ranked), ev.mean_reciprocal_rank(ranked))
        assert listed == got


def test_map_adds_many_precisions_in_rank_order():
    # 20 relevant candidates in one query and in two: both sum in rank order,
    # which numpy's pairwise sum of 8 or more terms does not
    rng = np.random.default_rng(11)
    relevance = np.zeros(60, dtype=int)
    relevance[rng.choice(60, size=20, replace=False)] = 1
    q = _query(np.arange(60), rng.random(60), relevance)
    expected = oracles.brute_force_map([q])
    assert ev.mean_average_precision(oracles.ranked_queries([q])) == expected
    assert ev.mean_average_precision(oracles.ranked_queries([q, q])) == expected


def test_map_and_mrr_rank_each_query_once(monkeypatch):
    rng = np.random.default_rng(10)
    batch, scores = _random_batch(rng, 6, max_relevant=10)
    per_source = _per_source_queries(batch, scores)
    expected = (oracles.brute_force_map(per_source), oracles.brute_force_mrr(per_source))
    calls = []
    original = ev._ranking_order

    def counted(keys, candidate_ids, scores):
        calls.append(scores.size)
        return original(keys, candidate_ids, scores)

    monkeypatch.setattr(ev, "_ranking_order", counted)
    queries = ev.queries_from_batch(batch, scores)
    got = (ev.mean_average_precision(queries), ev.mean_reciprocal_rank(queries))
    # one sort of the whole batch ranks every query for both metrics
    assert calls == [batch.size]
    assert abs(got[0] - expected[0]) <= 1e-12 and abs(got[1] - expected[1]) <= 1e-12


def test_ranking_order_is_the_three_key_lexsort():
    """Source, descending score, candidate id, then input position: the
    order ``np.lexsort`` gives, on ties of every kind."""
    rng = np.random.default_rng(41)
    zeros = np.array([0.0, -0.0])
    # adjacent doubles: ties must be exact, not merely close
    adjacent = 0.5 + np.arange(4) * np.spacing(0.5)
    for instance in range(80):
        m = int(rng.integers(1, 400))
        sources = rng.integers(0, [1, 3, 40][instance % 3], m)
        candidates = rng.integers(0, [2, 9, 1000][instance % 3 - 1], m)
        if instance % 7 == 0:  # one candidate per query
            sources = np.arange(m)
        if instance % 5 == 0:  # ids far apart: any product of raw ids would overflow
            sources = sources * (2**61) - 2**62
            candidates = candidates * (2**60) - 2**61
        scores = [rng.choice(zeros, m), np.round(rng.random(m), 1), rng.random(m),
                  rng.choice(adjacent, m)][instance % 4]
        expected = np.lexsort((candidates, -scores, sources))
        assert np.array_equal(ev._ranking_order(sources, candidates, scores), expected)


def test_queries_from_batch_checks():
    batch = gd.TaskBatch(1, "edge", np.array([[4, 1], [2, 3], [4, 5], [2, 0]]),
                         np.array([1, 0, 0, 1]))
    with pytest.raises(ValidationError, match="edge batch"):
        ev.queries_from_batch(gd.TaskBatch(1, "node", np.array([0, 1]), np.array([0, 1])),
                              [0.1, 0.2])
    with pytest.raises(ValidationError, match="one score per batch item"):
        ev.queries_from_batch(batch, [0.1, 0.2, 0.3])
    with pytest.raises(ValidationError, match="one score per batch item"):
        ev.queries_from_batch(batch, np.zeros((4, 1)))
    # the message names the first query, by source id, with a bad score
    with pytest.raises(ValidationError, match="query 2: scores must be finite"):
        ev.queries_from_batch(batch, [np.nan, 0.1, 0.2, np.inf])
    with pytest.raises(ValidationError, match="query 4: scores must be finite"):
        ev.queries_from_batch(batch, [np.nan, 0.1, 0.2, 0.3])
    two = gd.TaskBatch(1, "edge", batch.items, np.array([1, 0, 2, 1]))
    with pytest.raises(ValidationError, match="relevance must be 0 or 1"):
        ev.queries_from_batch(two, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValidationError, match="empty task batch"):
        gd.TaskBatch(1, "edge", np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int))
    none = gd.TaskBatch(1, "edge", batch.items, np.zeros(4, dtype=int))
    queries = ev.queries_from_batch(none, [0.1, 0.2, 0.3, 0.4])
    for metric in (ev.mean_average_precision, ev.mean_reciprocal_rank):
        with pytest.raises(ValidationError, match="every query lacks a relevant candidate"):
            metric(queries)


# -------------------------------------------------------------------- reports


def test_metric_report_aggregates_by_mean():
    report = MetricReport("map", [(5, 0.5), (6, 0.7)])
    assert report.value == pytest.approx(0.6, abs=1e-15)
    assert report.breakdown == ((5, 0.5), (6, 0.7))
    with pytest.raises(ValidationError):
        MetricReport("map", [])
    with pytest.raises(ValidationError):
        MetricReport("map", [(5, 1.5)])
    with pytest.raises(ValidationError):
        MetricReport("map", ((5, 1.5), (6, 0.7)))


def test_reports_to_csv_roundtrip():
    reports = {
        "map": MetricReport("map", [(5, 0.5), (6, 0.25)]),
        "mrr": MetricReport("mrr", [(5, 1.0), (6, 0.5)]),
    }
    text = ev.reports_to_csv(reports, fingerprint="abc123")
    lines = text.strip().split("\n")
    assert lines[0] == "# config_sha256=abc123"
    assert lines[1] == "metric,snapshot_time,value"
    rows = [line.split(",") for line in lines[2:]]
    for name in ("map", "mrr"):
        per_snapshot = [float(v) for m, t, v in rows if m == name and t != "all"]
        aggregate = [float(v) for m, t, v in rows if m == name and t == "all"]
        assert len(aggregate) == 1
        assert abs(aggregate[0] - np.mean(per_snapshot)) <= 5e-12


# ----------------------------------------------------------- whole sequences


def _link_sequence(seed=2):
    return gd.generate_drifting_sbm(16, 2, 0.4, 0.1, 0.1, 6, seed=seed,
                                    train_frac=0.7, val_frac=0.1)


def _link_setup():
    seq = _link_sequence()
    spec = ModelSpec(EncoderConfig(num_layers=2, input_dim=16, hidden_dim=4))
    params = md.init_parameters(spec, seed=0)
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01, seed=0)
    return seq, spec, params, config


def test_evaluate_sequence_model_path_reports_both_link_metrics():
    seq, spec, params, config = _link_setup()
    reports = ev.evaluate_sequence(seq, params, spec, config, seq.times_in("test"),
                                   negative_ratio=5)
    assert set(reports) == {"map", "mrr"}
    for report in reports.values():
        assert 0.0 <= report.value <= 1.0
        assert [t for t, _ in report.breakdown] == list(seq.times_in("test"))


def test_evaluate_sequence_single_snapshot_equals_its_breakdown():
    seq, spec, params, config = _link_setup()
    reports = ev.evaluate_sequence(seq, params, spec, config, [6], negative_ratio=5)
    for report in reports.values():
        assert len(report.breakdown) == 1
        assert report.value == report.breakdown[0][1]


def test_evaluate_sequence_perfect_scorer_scores_one():
    seq, spec, params, config = _link_setup()
    reports = ev.evaluate_sequence(
        seq, params, spec, config, seq.times_in("test"), negative_ratio=5,
        scorer=lambda batch: batch.labels.astype(float),
    )
    assert reports["map"].value == 1.0
    assert reports["mrr"].value == 1.0


def test_evaluate_sequence_micro_f1_path():
    seq = gd.generate_drifting_sbm(12, 2, 0.8, 0.1, 0.1, 5, seed=4,
                                   task="node_classification",
                                   train_frac=0.7, val_frac=0.1)
    spec = ModelSpec(EncoderConfig(num_layers=1, input_dim=12, hidden_dim=3),
                     task="node_classification")
    params = md.init_parameters(spec, seed=1)
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01)
    reports = ev.evaluate_sequence(seq, params, spec, config, [5],
                                   scorer=lambda batch: batch.labels)
    assert set(reports) == {"micro_f1"}
    assert reports["micro_f1"].value == 1.0


@pytest.mark.parametrize("task", ["link_prediction", "node_classification"])
def test_evaluate_sequence_non_finite_model_is_a_numerical_error(task):
    seq = gd.generate_drifting_sbm(12, 2, 0.8, 0.1, 0.1, 5, seed=4, task=task,
                                   train_frac=0.7, val_frac=0.1)
    spec = ModelSpec(EncoderConfig(num_layers=1, input_dim=12, hidden_dim=3), task=task)
    params = md.init_parameters(spec, seed=1)
    broken = params.with_updates(
        {"gnn_w1": Tensor(np.full(params["gnn_w1"].shape, np.nan), requires_grad=True)}
    )
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="time 5"):
        ev.evaluate_sequence(seq, broken, spec, config, [5], negative_ratio=2)


def test_evaluate_sequence_non_finite_oracle_scores_are_invalid_input():
    seq, spec, params, config = _link_setup()
    with pytest.raises(ValidationError, match="finite"):
        ev.evaluate_sequence(seq, params, spec, config, [6], negative_ratio=5,
                             scorer=lambda batch: np.full(batch.size, np.nan))


def test_evaluate_sequence_validation():
    seq, spec, params, config = _link_setup()
    with pytest.raises(ValidationError):
        ev.evaluate_sequence(seq, params, spec, config, [])
    snaps = [gd.SnapshotGraph(1, 4, [(0, 1), (2, 3)], np.eye(4)),
             gd.SnapshotGraph(2, 4, [(0, 2), (1, 3)], np.eye(4)),
             gd.SnapshotGraph(3, 4, [(0, 3), (1, 2)], np.eye(4)),
             gd.SnapshotGraph(4, 4, [], np.eye(4))]
    gappy = gd.DynamicGraphSequence(snaps, (3, 3, 4), "link_prediction", 2)
    with pytest.raises(ValidationError):
        ev.evaluate_sequence(gappy, params, spec, config, [4])


def test_uniform_scorer_mrr_concentrates_at_the_moment_oracle():
    # 1000 single-relevant queries over 101 candidates with iid uniform
    # scores: the relevant rank is uniform on 1..101
    rng = np.random.default_rng(1234)
    queries = []
    for qid in range(1000):
        scores = rng.random(101)
        rel = np.zeros(101, dtype=int)
        rel[rng.integers(0, 101)] = 1
        queries.append(_query(np.arange(101), scores, rel, query_id=qid))
    observed = ev.mean_reciprocal_rank(oracles.ranked_queries(queries))
    mean, var = oracles.uniform_rank_mrr_moments(101)
    assert abs(observed - mean) <= 3.0 * np.sqrt(var / 1000)
