"""The nine-point acceptance gate, one test per numbered criterion.

Each test is self-contained, pins its tolerance inline, and checks the
shipped guarantee end to end against an independent oracle (central
finite differences, brute-force metric enumeration, bitwise comparison,
or the frozen desk benchmark). The conftest terminal summary prints one
PASS/FAIL line per criterion after the run.
"""

import time
from dataclasses import replace

import numpy as np

import benchmark
import oracles
from ledg import cli
from ledg import evaluation as ev
from ledg import graphdata as gd
from ledg import meta as mt
from ledg import model as md
from ledg import numerics as nx
from ledg.evaluation import RankedQuery
from ledg.meta import TrainingConfig
from ledg.model import EncoderConfig, ModelSpec
from ledg.numerics import Tape, Tensor


def _bit_equal(a, b):
    return all(np.array_equal(a[name].data, b[name].data) for name in a.names)


# ------------------------------------------------- criterion 1: gradient suite


def _composite_loss_setup():
    """Four nodes, three-dimensional embeddings, two GCN layers, link task."""
    snap = gd.SnapshotGraph(1, 4, [(0, 1), (1, 2), (2, 3), (0, 3)], np.eye(4))
    spec = ModelSpec(
        EncoderConfig(num_layers=2, input_dim=4, hidden_dim=3),
        task="link_prediction",
    )
    batch = gd.sample_link_prediction_batch(snap, negative_ratio=1, seed=11)
    return snap, spec, batch


def _composite_loss(snap, spec, batch, params, target_time=0.35):
    tape = Tape()
    with tape:
        bundle = md.embed(snap, params, spec)
        l_task = md.task_loss(md.task_predict(bundle, params, spec, batch), batch.labels)
        l_time = md.time_loss(bundle.time_part, params, spec, target_time)
        loss = nx.add(l_task, nx.mul_scalar(l_time, 0.1))
    return tape, loss


def test_criterion_1_gradient_suite():
    start = time.monotonic()

    # every primitive, ten random instantiations each
    for op in sorted(nx._FORWARD):
        for point in range(10):
            rng = np.random.default_rng(gd.seed_from(41, op, point))
            errs = oracles.primitive_gradient_errors(op, rng)
            assert max(errs) <= 1e-4, (op, point, errs)

    # composite objective task + 0.1 * time on the small link model
    snap, spec, batch = _composite_loss_setup()
    params = md.init_parameters(spec, seed=0)
    tape, loss = _composite_loss(snap, spec, batch, params)
    pairs = params.items_in()
    grads = tape.gradient(loss, [tensor for _, tensor in pairs])
    # the time head must be live, otherwise the time term checks nothing
    assert np.any(grads[[n for n, _ in pairs].index("time_predictor_w1")].data != 0.0)
    for (name, tensor), analytic in zip(pairs, grads):
        def f(x, name=name):
            moved = params.with_updates({name: Tensor(x, requires_grad=True)})
            return _composite_loss(snap, spec, batch, moved)[1].item()

        fd = oracles.central_difference(f, tensor.data.copy())
        err = oracles.max_rel_err(analytic.data, fd)
        assert err <= 1e-4, (name, err)

    assert time.monotonic() - start < 60.0


# --------------------------------------- criterion 2: meta-gradient exactness


def _metagrad_instance():
    """Two nodes, two-dimensional embeddings, window two: 47 parameters.

    Features must not cancel under the normalized adjacency of the single
    edge (a symmetric +-1 pair would zero every embedding and park the
    model on activation kinks), and the init seed is one whose time head
    is live so the inner loop actually moves.
    """
    feats = np.array([[1.0], [0.2]])
    snaps = [
        gd.SnapshotGraph(1, 2, [(0, 1)], feats, node_labels=[0, 1]),
        gd.SnapshotGraph(2, 2, [], feats, node_labels=[1, 0]),
        gd.SnapshotGraph(3, 2, [(0, 1)], feats, node_labels=[0, 1]),
    ]
    seq = gd.DynamicGraphSequence(snaps, (3, 3, 3), "node_classification", 2)
    spec = ModelSpec(
        EncoderConfig(num_layers=1, input_dim=1, hidden_dim=2),
        task="node_classification",
    )
    config = TrainingConfig(
        window_size=2, eta_in=0.3, eta_out=0.05, gradient_mode="exact",
        lambda_time=0.1, seed=0,
    )
    return seq, spec, config


def _outer_objective(seq, spec, config, params, mode):
    """Full episode objective at target time 3: adapt over the window, then
    sum task + lambda * time across every adapted state."""
    window = mt.build_window(seq, 3, config)
    batch = gd.classification_batch(seq.snapshot_at(3), "node_classification")
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, replace(config, gradient_mode=mode), tape)
    states, inner_losses = adapted.states, adapted.losses
    total = None
    with tape:
        for state in states:
            bundle = md.embed(window.structure_snapshot, state, spec)
            l_task = md.task_loss(md.task_predict(bundle, state, spec, batch), batch.labels)
            l_time = md.time_loss(
                bundle.time_part, state, spec, float(window.target_regression_index)
            )
            term = nx.add(l_task, nx.mul_scalar(l_time, config.lambda_time))
            total = term if total is None else nx.add(total, term)
    return tape, total, inner_losses


def test_criterion_2_meta_gradient_exactness():
    seq, spec, config = _metagrad_instance()
    params = md.init_parameters(spec, seed=1)
    assert oracles.total_parameters(params) == 47  # stays under the 50-entry budget

    tape, total, inner_losses = _outer_objective(seq, spec, config, params, "exact")
    # guard: a relu-dead time head would reduce this to the joint objective
    assert abs(inner_losses[0] - 0.5) > 1e-3

    pairs = params.items_in()
    grads = tape.gradient(total, [tensor for _, tensor in pairs])

    def value_at(name, x):
        moved = params.with_updates({name: Tensor(x, requires_grad=True)})
        return _outer_objective(seq, spec, config, moved, "first_order")[1].item()

    worst_exact = 0.0
    fd_by_name = {}
    for (name, tensor), analytic in zip(pairs, grads):
        fd = oracles.central_difference(lambda x, n=name: value_at(n, x), tensor.data.copy())
        fd_by_name[name] = fd
        worst_exact = max(worst_exact, oracles.max_rel_err(analytic.data, fd))
    assert worst_exact <= 1e-3, worst_exact

    # the first-order approximation must be visibly wrong on this instance,
    # otherwise the check could not tell the two modes apart
    tape_fo, total_fo, _ = _outer_objective(seq, spec, config, params, "first_order")
    grads_fo = tape_fo.gradient(total_fo, [tensor for _, tensor in params.items_in()])
    worst_fo = max(
        oracles.max_rel_err(g.data, fd_by_name[name])
        for (name, _), g in zip(params.items_in(), grads_fo)
    )
    assert worst_fo > 1e-2, worst_fo


# ------------------------------------ criterion 3: eta_in = 0 degeneracy


def _joint_training_oracle(seq, spec, config):
    """Plain joint SGD on task + lambda * time, batch-for-batch identical."""
    params = md.init_parameters(spec, config.seed)
    first = mt.earliest_target_time(config)
    for epoch in range(1, config.epochs + 1):
        for t in range(first, seq.split[0] + 1):
            batch_seed = int(gd.seed_from(config.seed, "episode", epoch).generate_state(1)[0])
            batch = gd.sample_link_prediction_batch(
                seq.snapshot_at(t), config.train_negative_ratio, mode="train",
                seed=batch_seed,
            )
            window = mt.build_window(seq, t, config)
            tape = Tape()
            with tape:
                bundle = md.embed(window.structure_snapshot, params, spec)
                l_task = md.task_loss(
                    md.task_predict(bundle, params, spec, batch), batch.labels
                )
                l_time = md.time_loss(
                    bundle.time_part, params, spec,
                    float(window.target_regression_index),
                )
                objective = nx.add(l_task, nx.mul_scalar(l_time, config.lambda_time))
            pairs = params.items_in()
            grads = tape.gradient(objective, [tensor for _, tensor in pairs])
            updates = {
                name: Tensor(tensor.data - config.eta_out * g.data, requires_grad=True)
                for (name, tensor), g in zip(pairs, grads)
            }
            params = params.with_updates(updates)
    return params


def test_criterion_3_zero_inner_rate_degeneracy():
    seq = gd.generate_drifting_sbm(
        16, 2, 0.4, 0.1, 0.1, 6, seed=2, train_frac=0.7, val_frac=0.1
    )
    spec = ModelSpec(
        EncoderConfig(num_layers=2, input_dim=16, hidden_dim=4),
        task="link_prediction",
    )
    base = dict(window_size=1, eta_in=0.0, eta_out=0.05, lambda_time=0.1,
                epochs=2, seed=4, outer_optimizer="sgd")
    fo = mt.train(seq, spec, TrainingConfig(gradient_mode="first_order", **base))
    exact = mt.train(seq, spec, TrainingConfig(gradient_mode="exact", **base))
    assert _bit_equal(fo.params, exact.params)
    assert fo.epoch_objectives == exact.epoch_objectives

    joint = _joint_training_oracle(seq, spec, TrainingConfig(**base))
    assert _bit_equal(fo.params, joint)


# -------------------------------------------- criterion 4: disentanglement


def test_criterion_4_disentanglement_identity():
    spec = ModelSpec(
        EncoderConfig(num_layers=1, input_dim=5, hidden_dim=5),
        task="link_prediction",
    )
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        params = md.init_parameters(spec, seed=int(rng.integers(1 << 30)))
        h = Tensor(rng.normal(size=(6, 5)) * rng.uniform(0.5, 3.0))
        bundle = md.disentangle(h, params, spec)
        gap = np.max(np.abs(bundle.graph_part.data + bundle.time_part.data - h.data))
        worst = max(worst, gap)
        assert np.all(bundle.gate.data > 0.0)
        assert np.all(bundle.gate.data < 1.0)
    assert worst <= 1e-12, worst


# ------------------------------------------------- criterion 5: smooth L1


def _smooth_l1_scalar(v):
    return nx.smooth_l1(Tensor([[v]])).item()


def _smooth_l1_derivative(v):
    x = Tensor([[v]], requires_grad=True)
    tape = Tape()
    with tape:
        y = nx.smooth_l1(x)
    (g,) = tape.gradient(y, [x])
    return float(g.data[0, 0])


def test_criterion_5_smooth_l1_values_and_smoothness():
    assert _smooth_l1_scalar(0.5) == 0.125
    assert _smooth_l1_scalar(2.0) == 1.5
    assert _smooth_l1_scalar(-2.0) == 1.5
    assert _smooth_l1_scalar(0.0) == 0.0
    # both branches give exactly 0.5 at the joint
    assert _smooth_l1_scalar(1.0) == 0.5
    assert _smooth_l1_scalar(-1.0) == 0.5

    # continuity and derivative continuity approaching |x| = 1 from each side
    for joint in (1.0, -1.0):
        value_at_joint = _smooth_l1_scalar(joint)
        slope_at_joint = _smooth_l1_derivative(joint)
        assert slope_at_joint == np.sign(joint)
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            for side in (joint - eps, joint + eps):
                assert abs(_smooth_l1_scalar(side) - value_at_joint) <= 2.05 * eps
                assert abs(_smooth_l1_derivative(side) - slope_at_joint) <= 1.05 * eps


# ---------------------------------------------- criterion 6: metric oracles


def _random_queries(rng, num_queries):
    queries = []
    for qid in range(num_queries):
        n = int(rng.integers(3, 30))
        ids = rng.choice(1000, size=n, replace=False)
        # one decimal place forces plenty of score ties
        scores = np.round(rng.random(n), 1)
        rel = (rng.random(n) < 0.3).astype(int)
        if qid == 0 and rel.sum() == 0:
            rel[rng.integers(0, n)] = 1
        queries.append(RankedQuery(qid, ids, scores.astype(float), rel))
    return queries


def test_criterion_6_metric_oracles():
    for instance in range(50):
        rng = np.random.default_rng([600, instance])
        queries = _random_queries(rng, int(rng.integers(1, 7)))
        assert abs(ev.mean_average_precision(queries)
                   - oracles.brute_force_map(queries)) <= 1e-12
        assert abs(ev.mean_reciprocal_rank(queries)
                   - oracles.brute_force_mrr(queries)) <= 1e-12

    for case in range(50):
        rng = np.random.default_rng([700, case])
        c = int(rng.integers(2, 7))
        n = int(rng.integers(5, 200))
        preds = rng.integers(0, c, size=n)
        labels = rng.integers(0, c, size=n)
        ours = ev.micro_f1(preds, labels, c)
        assert abs(ours - oracles.confusion_micro_f1(preds, labels, c)) <= 1e-12
        # single-label micro-F1 collapses to plain accuracy, bit for bit
        assert ours == float(np.mean(preds == labels))


# --------------------------------------- criterion 7: desk-scale method benefit


def test_criterion_7_method_benefit(desk_benchmark):
    b = desk_benchmark
    for arm in ("ledg", "ablation", "static"):
        maps = b[f"{arm}_maps"]
        assert len(maps) == len(benchmark.SEEDS)
        assert np.all(np.isfinite(maps)), (arm, maps)
    assert b["elapsed_seconds"] < 600.0, b["elapsed_seconds"]
    assert b["ledg_median"] >= 1.10 * b["ablation_median"], (
        b["ledg_median"], b["ablation_median"])
    assert b["ledg_median"] >= 1.10 * b["static_median"], (
        b["ledg_median"], b["static_median"])


# ------------------------------------------- criterion 8: window-size sweep


def test_criterion_8_window_size_sweep(desk_benchmark):
    seq = benchmark.make_sequence(0)
    spec = benchmark.make_spec()

    # w = 3 comes from the full benchmark arm; shorter budget for the others
    sweep = {3: desk_benchmark["ledg_maps"][0]}
    for w in (2, 5):
        config = benchmark.ledg_config(0, window_size=w, epochs=60)
        records = []
        result = mt.train(seq, spec, config, log_hook=records.append)
        assert records, w
        assert all(np.isfinite(r.objective) for r in records), w
        assert all(np.isfinite(v) for v in result.epoch_objectives), w
        sweep[w] = benchmark.test_map(seq, result.params, spec, config)
    for w, value in sorted(sweep.items()):
        assert np.isfinite(value) and 0.0 < value <= 1.0, (w, value)
    assert max(sweep.values()) > desk_benchmark["ablation_median"], sweep

    # longest window the training split admits still trains and evaluates
    boundary = seq.split[0] - 1
    config = benchmark.ledg_config(0, window_size=boundary, epochs=2)
    result = mt.train(seq, spec, config)
    assert np.isfinite(benchmark.test_map(seq, result.params, spec, config))


# ----------------------------------------------- criterion 9: determinism


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "sbm"
    assert cli.main([
        "generate", "--out", str(data), "--num-nodes", "30", "--intra-p", "0.3",
        "--inter-p", "0.05", "--num-snapshots", "10", "--seed", "5",
    ]) == 0

    runs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli.main([
            "train", "--dataset", str(data), "--out", str(out),
            "--hidden-dim", "8", "--window-size", "2", "--epochs", "2",
            "--eta-out", "0.01", "--seed", "3",
        ]) == 0
        runs.append(out)
    for artifact in ("config.resolved", "train_log.csv", "episodes.jsonl"):
        assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes(), artifact
    # npz bytes embed zip timestamps, so checkpoints compare by content
    params_a, spec_a, _ = md.load_checkpoint(runs[0] / "checkpoint.npz")
    params_b, spec_b, _ = md.load_checkpoint(runs[1] / "checkpoint.npz")
    assert spec_a == spec_b
    assert params_a.fingerprint() == params_b.fingerprint()

    outputs = []
    for name in ("eval_a", "eval_b"):
        out = tmp_path / name
        assert cli.main([
            "eval", "--checkpoint", str(runs[0] / "checkpoint.npz"),
            "--out", str(out),
        ]) == 0
        outputs.append((out / "metrics_test.csv").read_bytes())
    assert outputs[0] == outputs[1]
