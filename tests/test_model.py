"""Encoder, gated embedding split, heads, losses, checkpoints."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from ledg import graphdata as gd
from ledg import model as md
from ledg import numerics as nx
from ledg.errors import ContractError, DatasetError, ShapeError, ValidationError
from ledg.model import EncoderConfig, ModelSpec
from ledg.numerics import Tape, Tensor


def _zeroed(params, *names):
    updates = {}
    for name in names:
        updates[name] = Tensor(np.zeros(params[name].shape), requires_grad=True)
    return params.with_updates(updates)


def _zero_head(params, role):
    return _zeroed(params, f"{role}_w1", f"{role}_b1", f"{role}_w2", f"{role}_b2")


def _edge_spec(hidden=3, input_dim=4, layers=1, base="gcn"):
    return ModelSpec(
        EncoderConfig(base_model=base, num_layers=layers, input_dim=input_dim,
                      hidden_dim=hidden),
        task="link_prediction",
    )


# ------------------------------------------------------------------- encoder


def test_encode_isolated_node_with_identity_weights_is_identity():
    spec = ModelSpec(
        EncoderConfig(num_layers=1, input_dim=2, hidden_dim=2),
        task="link_prediction",
    )
    params = md.init_parameters(spec, seed=0).with_updates(
        {"gnn_w1": Tensor(np.eye(2), requires_grad=True)}
    )
    snap = gd.SnapshotGraph(1, 1, [], np.array([[1.5, 2.0]]))
    h = md.encode(snap, params, spec.encoder)
    assert np.array_equal(h.data, [[1.5, 2.0]])


def test_encode_gives_equal_rows_for_symmetric_nodes():
    feats = np.array([[1.0, 2.0], [1.0, 2.0]])
    snap = gd.SnapshotGraph(1, 2, [(0, 1)], feats)
    for base in ("gcn", "attention"):
        spec = _edge_spec(hidden=3, input_dim=2, layers=2, base=base)
        params = md.init_parameters(spec, seed=1)
        h = md.encode(snap, params, spec.encoder).data
        assert np.allclose(h[0], h[1], atol=1e-12)


def test_encode_permutation_equivariance():
    rng = np.random.default_rng(6)
    n = 6
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    feats = rng.normal(size=(n, 3))
    perm = rng.permutation(n)
    for base in ("gcn", "attention"):
        spec = _edge_spec(hidden=4, input_dim=3, layers=2, base=base)
        params = md.init_parameters(spec, seed=2)
        snap = gd.SnapshotGraph(1, n, pairs, feats)
        moved = gd.SnapshotGraph(1, n, [(perm[u], perm[v]) for u, v in pairs], feats[np.argsort(perm)])
        base_h = md.encode(snap, params, spec.encoder).data
        perm_h = md.encode(moved, params, spec.encoder).data
        assert np.allclose(perm_h[perm[np.argsort(perm)]], base_h[np.argsort(perm)], atol=1e-10)


# every encoder layer ends in a ReLU, which the ids name
@pytest.mark.parametrize("layers", [1, 2, 3], ids=lambda layers: f"relu-{layers}")
def test_attention_encode_matches_the_dense_masked_reference(layers):
    """Pair-list scores and the segment softmax give the dense masked
    encoder's embeddings: its non-neighbour weights are exactly 0."""
    config = EncoderConfig(base_model="attention", num_layers=layers, input_dim=3, hidden_dim=5)
    params = md.init_parameters(ModelSpec(config), seed=layers)
    rng = np.random.default_rng([layers, 4])
    for edge_p in (0.0, 0.1, 0.3, 0.8):
        snap = oracles.random_snapshot(rng, 1, 14, edge_p, rng.normal(size=(14, 3)))
        got = md.encode(snap, params, config).data
        reference = oracles.dense_attention_encode(snap, params, config).data
        assert oracles.norm_rel_err(got, reference) <= 1e-12, edge_p


def _encoder_derivatives(base, create_graph):
    """A derivatives function of an encoder on a fixed 12-node snapshot:
    the gradients of a random projection of its output with respect to the
    ``gnn`` parameters and, with ``create_graph``, the gradients of a random
    projection of those."""
    config = EncoderConfig(base_model=base, num_layers=2, input_dim=3, hidden_dim=4)
    rng = np.random.default_rng(21)
    snap = oracles.random_snapshot(rng, 1, 12, 0.3, rng.normal(size=(12, 3)))
    params = md.init_parameters(ModelSpec(config), seed=4)
    tracked = [t for _, t in params.items_in("gnn")]
    upstream = Tensor(rng.normal(size=(12, 4)))
    probes = [Tensor(rng.normal(size=t.shape)) for t in tracked]

    def derivatives(encoder):
        tape = Tape()
        with tape:
            loss = nx.sums(nx.hadamard(encoder(snap, params, config), upstream), None)
        grads = tape.gradient(loss, tracked, create_graph=create_graph)
        found = [g.data for g in grads]
        if create_graph:
            with tape:
                probed = [nx.sums(nx.hadamard(g, p), None) for g, p in zip(grads, probes)]
                total = probed[0]
                for term in probed[1:]:
                    total = nx.add(total, term)
            found += [g.data for g in tape.gradient(total, tracked)]
        return found

    return derivatives


@pytest.mark.parametrize("create_graph", [False, True], ids=["first_order", "exact"])
def test_attention_gradients_match_the_dense_masked_reference(create_graph):
    """Gradients through spmm/sddmm aggregation equal the dense encoder's
    within 1e-12, and with a recorded gradient so do its second derivatives."""
    derivatives = _encoder_derivatives("attention", create_graph)
    for got, want in zip(derivatives(md.encode), derivatives(oracles.dense_attention_encode)):
        assert oracles.norm_rel_err(got, want) <= 1e-12


# every encoder layer ends in a ReLU, which the ids name
@pytest.mark.parametrize("layers", [1, 2, 3], ids=lambda layers: f"relu-{layers}")
def test_gcn_encode_matches_the_dense_reference_bit_for_bit(layers):
    """``spmm`` on the normalized adjacency's pair values builds the dense
    A_hat and makes the same BLAS product with it, so no bit moves."""
    config = EncoderConfig(num_layers=layers, input_dim=3, hidden_dim=5)
    params = md.init_parameters(ModelSpec(config), seed=layers)
    rng = np.random.default_rng([layers, 4])
    for edge_p in (0.0, 0.1, 0.3, 0.8):
        snap = oracles.random_snapshot(rng, 1, 14, edge_p, rng.normal(size=(14, 3)))
        got = md.encode(snap, params, config).data
        assert got.tobytes() == oracles.dense_gcn_encode(snap, params, config).data.tobytes()


@pytest.mark.parametrize("create_graph", [False, True], ids=["first_order", "exact"])
def test_gcn_gradients_match_the_dense_reference_bit_for_bit(create_graph):
    """spmm's backward ``S^T @ g`` is matmul's ``A_hat^T @ g``, and on a
    recorded gradient its second derivative is ``A_hat @ g`` as well."""
    derivatives = _encoder_derivatives("gcn", create_graph)
    got, want = derivatives(md.encode), derivatives(oracles.dense_gcn_encode)
    assert len(got) == len(want) == (4 if create_graph else 2)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("create_graph", [False, True], ids=["first_order", "exact"])
@pytest.mark.parametrize("base", ["gcn", "attention"])
def test_identity_features_encode_like_the_dense_eye(base, create_graph):
    """On identity features the first layer reads gnn_w1 for X @ W1. The
    embeddings, gradients and, with a recorded gradient, second derivatives
    equal the dense reference fed np.eye(N): bit for bit for GCN, whose
    spmm(a_hat, W1) is the BLAS product (A_hat I) W1 on the same operands,
    and within 1e-12 for attention."""
    n = 12
    config = EncoderConfig(base_model=base, num_layers=2, input_dim=n, hidden_dim=4)
    rng = np.random.default_rng(22)
    marked = oracles.random_snapshot(rng, 1, n, 0.3, gd.IdentityFeatures(n))
    dense = gd.SnapshotGraph(1, n, marked.pairs, oracles.feature_values(marked.features))
    params = md.init_parameters(ModelSpec(config), seed=5)
    tracked = [t for _, t in params.items_in("gnn")]
    upstream = Tensor(rng.normal(size=(n, 4)))
    probes = [Tensor(rng.normal(size=t.shape)) for t in tracked]
    reference = oracles.dense_gcn_encode if base == "gcn" else oracles.dense_attention_encode

    def derivatives(encoder, snap):
        tape = Tape()
        with tape:
            h = encoder(snap, params, config)
            loss = nx.sums(nx.hadamard(h, upstream), None)
        grads = tape.gradient(loss, tracked, create_graph=create_graph)
        found = [h.data] + [g.data for g in grads]
        if create_graph:
            with tape:
                total = nx.sums(nx.hadamard(grads[0], probes[0]), None)
                for g, p in zip(grads[1:], probes[1:]):
                    total = nx.add(total, nx.sums(nx.hadamard(g, p), None))
            found += [g.data for g in tape.gradient(total, tracked)]
        return found

    got, want = derivatives(md.encode, marked), derivatives(reference, dense)
    assert len(got) == len(want) == len(tracked) * (2 if create_graph else 1) + 1
    if base == "gcn":
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    for a, b in zip(got, want):
        assert oracles.norm_rel_err(a, b) <= 1e-12


def test_encode_rejects_feature_width_mismatch():
    spec = _edge_spec(input_dim=4)
    params = md.init_parameters(spec, seed=0)
    snap = gd.SnapshotGraph(1, 2, [(0, 1)], np.eye(2))
    with pytest.raises(ShapeError):
        md.encode(snap, params, spec.encoder)


# ---------------------------------------------------------------- embedding


def test_disentangle_zero_adapter_splits_in_half():
    spec = _edge_spec(hidden=3, input_dim=3)
    params = _zero_head(md.init_parameters(spec, seed=0), "adapter")
    h = Tensor(np.array([[2.0, -4.0, 1.0], [0.5, 0.0, -8.0]]))
    bundle = md.disentangle(h, params, spec)
    assert np.array_equal(bundle.gate.data, np.full((2, 3), 0.5))
    assert np.array_equal(bundle.graph_part.data, h.data / 2.0)
    assert np.array_equal(bundle.time_part.data, h.data / 2.0)


def test_disentangle_sum_identity_and_open_gate():
    spec = _edge_spec(hidden=5, input_dim=5)
    rng = np.random.default_rng(17)
    for _ in range(50):
        params = md.init_parameters(spec, seed=int(rng.integers(1 << 30)))
        h = Tensor(rng.normal(size=(4, 5)))
        bundle = md.disentangle(h, params, spec)
        total = bundle.graph_part.data + bundle.time_part.data
        assert np.max(np.abs(total - h.data)) <= 1e-12
        assert np.all(bundle.gate.data > 0.0)
        assert np.all(bundle.gate.data < 1.0)


def test_disentangle_saturated_gate_routes_everything_to_graph_part():
    spec = _edge_spec(hidden=3, input_dim=3)
    params = _zero_head(md.init_parameters(spec, seed=0), "adapter")
    params = params.with_updates(
        {"adapter_b2": Tensor(np.full((1, 3), 20.0), requires_grad=True)}
    )
    h = Tensor(np.array([[2.0, -1.0, 0.5]]))
    bundle = md.disentangle(h, params, spec)
    assert np.all(bundle.gate.data < 1.0)
    assert np.max(np.abs(bundle.graph_part.data - h.data)) <= 1e-8
    assert np.max(np.abs(bundle.time_part.data)) <= 1e-8


def test_embed_is_encode_then_disentangle():
    spec = _edge_spec(hidden=3, input_dim=4)
    params = md.init_parameters(spec, seed=5)
    snap = gd.SnapshotGraph(1, 4, [(0, 1), (2, 3)], np.eye(4))
    bundle = md.embed(snap, params, spec)
    h = md.encode(snap, params, spec.encoder)
    assert np.array_equal(bundle.combined.data, h.data)
    again = md.disentangle(h, params, spec)
    assert np.array_equal(bundle.gate.data, again.gate.data)


# -------------------------------------------------------------------- losses


def test_time_loss_values_with_zeroed_predictor():
    spec = _edge_spec(hidden=3, input_dim=3)
    params = _zero_head(md.init_parameters(spec, seed=0), "time_predictor")
    time_part = Tensor(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]]))
    # zero head predicts 0, so the residual is -target
    for target, expected in ((0.5, 0.125), (2.0, 1.5), (1.0, 0.5)):
        loss = md.time_loss(time_part, params, spec, target_time=target)
        assert loss.item() == expected


def test_time_loss_gradient_matches_central_differences():
    spec = _edge_spec(hidden=3, input_dim=3)
    base = md.init_parameters(spec, seed=4)
    time_part_value = np.random.default_rng(0).normal(size=(4, 3))

    def value(p):
        return md.time_loss(Tensor(time_part_value), p, spec, target_time=0.4).item()

    tape = Tape()
    with tape:
        loss = md.time_loss(Tensor(time_part_value), base, spec, target_time=0.4)
    pairs = base.items_in("time_predictor")
    grads = tape.gradient(loss, [t for _, t in pairs])
    for (name, tensor), g in zip(pairs, grads):
        def f(x, name=name):
            return value(base.with_updates({name: Tensor(x, requires_grad=True)}))
        fd = oracles.central_difference(f, tensor.data.copy())
        assert oracles.max_rel_err(g.data, fd) <= 1e-4


def test_task_predict_uniform_for_zero_heads():
    spec = _edge_spec(hidden=3, input_dim=4)
    params = _zero_head(_zero_head(md.init_parameters(spec, seed=0), "classifier_time"),
                        "classifier_graph")
    snap = gd.SnapshotGraph(1, 4, [(0, 1), (2, 3)], np.eye(4))
    batch = gd.TaskBatch(1, "edge", np.array([[0, 1], [0, 2], [2, 3]]), np.array([1, 0, 1]))
    probs = md.task_predict(md.embed(snap, params, spec), params, spec, batch)
    assert np.array_equal(probs.data, np.full((3, 2), 0.5))


def test_task_predict_bias_only_softmax_arithmetic():
    spec = _edge_spec(hidden=3, input_dim=4)
    params = _zero_head(_zero_head(md.init_parameters(spec, seed=0), "classifier_time"),
                        "classifier_graph")
    params = params.with_updates(
        {"classifier_graph_b2": Tensor(np.array([[math.log(3.0), 0.0]]), requires_grad=True)}
    )
    snap = gd.SnapshotGraph(1, 4, [(0, 1)], np.eye(4))
    batch = gd.TaskBatch(1, "edge", np.array([[0, 1], [2, 3]]), np.array([1, 0]))
    probs = md.task_predict(md.embed(snap, params, spec), params, spec, batch).data
    assert np.max(np.abs(probs - np.array([[0.75, 0.25], [0.75, 0.25]]))) <= 1e-12


def test_task_predict_rejects_wrong_batch_kind():
    spec = _edge_spec(hidden=3, input_dim=4)
    params = md.init_parameters(spec, seed=0)
    snap = gd.SnapshotGraph(1, 4, [(0, 1)], np.eye(4))
    node_batch = gd.TaskBatch(1, "node", np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(ContractError):
        md.task_predict(md.embed(snap, params, spec), params, spec, node_batch)


def test_task_predict_node_task_uses_node_rows():
    spec = ModelSpec(
        EncoderConfig(num_layers=1, input_dim=5, hidden_dim=3),
        task="node_classification",
        num_classes=3,
    )
    params = md.init_parameters(spec, seed=1)
    snap = gd.SnapshotGraph(1, 5, [(0, 1), (1, 2)], np.eye(5))
    batch = gd.TaskBatch(1, "node", np.array([0, 2, 4]), np.array([0, 1, 2]))
    probs = md.task_predict(md.embed(snap, params, spec), params, spec, batch)
    assert probs.shape == (3, 3)
    assert np.max(np.abs(probs.data.sum(axis=1) - 1.0)) <= 1e-12


def test_task_loss_uniform_and_perfect_values():
    uniform = Tensor(np.full((4, 2), 0.5))
    assert md.task_loss(uniform, [0, 1, 1, 0]).item() == math.log(2.0)
    perfect = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert md.task_loss(perfect, [0, 1]).item() == 0.0


def test_task_loss_matches_manual_cross_entropy():
    preds = Tensor(np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
    labels = [0, 1, 1]
    expected = -(math.log(0.7) + math.log(0.8) + math.log(0.5)) / 3.0
    assert md.task_loss(preds, labels).item() == pytest.approx(expected, abs=1e-15)


def test_task_loss_stays_finite_on_saturated_rows():
    preds = Tensor(np.array([[1.0, 0.0]]))
    loss = md.task_loss(preds, [1]).item()
    assert np.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)


def test_task_loss_label_validation():
    preds = Tensor(np.full((2, 2), 0.5))
    with pytest.raises(ValidationError):
        md.task_loss(preds, [0, 2])
    with pytest.raises(ValidationError):
        md.task_loss(preds, [0])


def test_task_gradient_matches_central_differences():
    spec = _edge_spec(hidden=3, input_dim=4)
    base = md.init_parameters(spec, seed=9)
    snap = gd.SnapshotGraph(1, 4, [(0, 1), (1, 2), (2, 3)], np.eye(4))
    batch = gd.sample_link_prediction_batch(snap, negative_ratio=1, seed=0)

    def value(p):
        probs = md.task_predict(md.embed(snap, p, spec), p, spec, batch)
        return md.task_loss(probs, batch.labels).item()

    tape = Tape()
    with tape:
        probs = md.task_predict(md.embed(snap, base, spec), base, spec, batch)
        loss = md.task_loss(probs, batch.labels)
    pairs = base.items_in("classifier_time", "classifier_graph", "adapter")
    grads = tape.gradient(loss, [t for _, t in pairs])
    for (name, tensor), g in zip(pairs, grads):
        def f(x, name=name):
            return value(base.with_updates({name: Tensor(x, requires_grad=True)}))
        fd = oracles.central_difference(f, tensor.data.copy())
        assert oracles.max_rel_err(g.data, fd) <= 1e-4, name


# ----------------------------------------------------------------- pair head

#: repeated pairs and u == v pairs exercise the scatter adjoints
_PAIRS = np.array([[0, 1], [2, 2], [0, 1], [3, 0], [4, 4], [1, 3], [1, 0]])


def _random_pair_head(rng, hidden, num_nodes=5, classes=3):
    """A classifier head with random weights and biases, and tracked random
    node rows of width ``hidden``."""
    spec = ModelSpec(EncoderConfig(num_layers=1, input_dim=2, hidden_dim=hidden),
                     task="edge_classification", num_classes=classes)
    head = md.MlpHead("classifier_graph", 2 * hidden, hidden, classes)
    params = md.init_parameters(spec, seed=0)
    params = params.with_updates({
        name: Tensor(rng.normal(size=params[name].shape), requires_grad=True)
        for name in head.parameter_names
    })
    h = Tensor(rng.normal(size=(num_nodes, hidden)), requires_grad=True)
    return head, params, h


@pytest.mark.parametrize("create_graph", [False, True], ids=["first_order", "exact"])
def test_apply_pairs_matches_the_concatenated_pair_head(create_graph):
    rng = np.random.default_rng(11)
    head, params, h = _random_pair_head(rng, hidden=4)
    upstream = rng.normal(size=(len(_PAIRS), head.out_dim))
    weights = [params[name] for name in head.parameter_names]
    tape = Tape()
    with tape:
        logits = head.apply_pairs(params, h, nx.PairPlan.of_pairs(_PAIRS))
        loss = nx.sums(nx.hadamard(logits, Tensor(upstream)), None)
    grads = tape.gradient(loss, [h] + weights, create_graph=create_graph)
    ref_logits, ref_grads = oracles.concatenated_pair_head(
        h.data, _PAIRS, *(w.data for w in weights), upstream
    )
    assert oracles.norm_rel_err(logits.data, ref_logits) <= 1e-12
    for key, g in zip(("h", "w1", "b1", "w2", "b2"), grads):
        assert oracles.norm_rel_err(g.data, ref_grads[key]) <= 1e-12, key


@pytest.mark.parametrize("hidden", [4, 32, 128])
def test_apply_pairs_equals_untaped_pair_logits_bit_for_bit(hidden):
    rng = np.random.default_rng(hidden)
    head, params, h = _random_pair_head(rng, hidden, num_nodes=40)
    items = rng.integers(0, 40, size=(300, 2))
    forward, _ = head.pair_logits(params, h.data, items)
    assert np.array_equal(head.apply_pairs(params, h, nx.PairPlan.of_pairs(items)).data, forward)


@pytest.mark.parametrize("create_graph", [False, True], ids=["first_order", "exact"])
def test_apply_pairs_equals_the_gathered_relu_chain_bit_for_bit(create_graph):
    """One pair_hidden node gives the logits and gradients of the unfused
    gather/add/relu chain bit for bit, recorded or not."""
    rng = np.random.default_rng(12)
    head, params, h = _random_pair_head(rng, hidden=8, num_nodes=20)
    plan = nx.PairPlan.of_pairs(rng.integers(0, 20, size=(60, 2)))
    upstream = Tensor(rng.normal(size=(60, head.out_dim)))
    tracked = [h] + [params[name] for name in head.parameter_names]

    def run(apply):
        tape = Tape()
        with tape:
            logits = apply(head, params, h, plan)
            loss = nx.sums(nx.hadamard(logits, upstream), None)
        grads = tape.gradient(loss, tracked, create_graph=create_graph)
        return [logits.data.tobytes()] + [g.data.tobytes() for g in grads]

    assert run(md.MlpHead.apply_pairs) == run(oracles.gathered_pair_head)


def test_apply_pairs_rejects_a_pair_width_mismatch():
    head, params, _ = _random_pair_head(np.random.default_rng(0), hidden=4)
    with pytest.raises(ShapeError):
        head.apply_pairs(params, Tensor(np.ones((5, 3))), nx.PairPlan.of_pairs(_PAIRS))


def test_task_and_static_predict_score_pairs_with_apply_pairs(monkeypatch):
    from ledg import baselines as bl

    roles = []
    apply_pairs = md.MlpHead.apply_pairs

    def spy(head, *args):
        roles.append(head.role)
        return apply_pairs(head, *args)

    monkeypatch.setattr(md.MlpHead, "apply_pairs", spy)
    spec = _edge_spec(hidden=3, input_dim=4)
    params = md.init_parameters(spec, seed=0)
    snap = gd.SnapshotGraph(1, 4, [(0, 1), (2, 3)], np.eye(4))
    batch = gd.TaskBatch(1, "edge", _PAIRS[:3] % 4, np.array([1, 0, 1]))
    md.task_predict(md.embed(snap, params, spec), params, spec, batch)
    assert roles == ["classifier_time", "classifier_graph"]
    bl.static_predict(snap, bl.init_static_parameters(spec, 0), spec, batch)
    assert roles[2:] == ["classifier_graph"]


# ------------------------------------------------------------ initialization


def test_heads_are_built_once_per_spec():
    spec = _edge_spec(hidden=3, input_dim=4)
    assert spec.heads is spec.heads
    assert tuple(spec.heads) == md.HEAD_ROLES
    assert spec.heads["classifier_time"].in_dim == 6
    # equal specs share values, not the cached dict
    assert _edge_spec(hidden=3, input_dim=4).heads == spec.heads


def test_init_parameters_deterministic_and_grouped():
    spec = _edge_spec(hidden=3, input_dim=4)
    a = md.init_parameters(spec, seed=3)
    b = md.init_parameters(spec, seed=3)
    c = md.init_parameters(spec, seed=4)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert set(a.groups) == {"gnn", *md.HEAD_ROLES}
    assert np.array_equal(a["adapter_b1"].data, np.zeros((1, 3)))


def test_init_parameters_small_node_model_has_47_parameters():
    # 2 (gnn) + 12 (adapter) + 9 (time head) + 12 + 12 (classifiers)
    spec = ModelSpec(
        EncoderConfig(num_layers=1, input_dim=1, hidden_dim=2),
        task="node_classification",
    )
    assert oracles.total_parameters(md.init_parameters(spec, seed=0)) == 47


def test_attention_encoder_has_score_vectors():
    spec = _edge_spec(hidden=3, input_dim=4, layers=2, base="attention")
    params = md.init_parameters(spec, seed=0)
    for name in ("gnn_al1", "gnn_ar1", "gnn_al2", "gnn_ar2"):
        assert name in params
        assert params[name].shape == (3, 1)


def test_spec_validation():
    with pytest.raises(ValidationError):
        EncoderConfig(base_model="sage")
    with pytest.raises(ValidationError):
        EncoderConfig(num_layers=0)
    with pytest.raises(ValidationError):
        ModelSpec(EncoderConfig(), task="regression")
    with pytest.raises(ValidationError):
        ModelSpec(EncoderConfig(), num_classes=1)
    with pytest.raises(ValidationError, match="link_prediction is binary"):
        ModelSpec(EncoderConfig(), task="link_prediction", num_classes=3)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    spec = _edge_spec(hidden=3, input_dim=4, base="attention")
    params = md.init_parameters(spec, seed=11)
    path = tmp_path / "model.npz"
    md.save_checkpoint(params, spec, path, extra_meta={"epoch": 7})
    loaded, loaded_spec, extra = md.load_checkpoint(path)
    assert loaded_spec == spec
    assert extra == {"epoch": 7}
    assert loaded.fingerprint() == params.fingerprint()


#: signed zeros, subnormals of both signs and the largest magnitudes
_EDGE_VALUES = (0.0, -0.0, 5e-324, -2.0e-308, 1.7976931348623157e308, -1e300)


@st.composite
def _specs_and_values(draw):
    encoder = EncoderConfig(
        base_model=draw(st.sampled_from(md.BASE_MODELS)),
        num_layers=draw(st.integers(1, 3)),
        input_dim=draw(st.integers(1, 6)),
        hidden_dim=draw(st.integers(1, 5)),
    )
    task = draw(st.sampled_from(gd.TASKS))
    classes = 2 if task == "link_prediction" else draw(st.integers(2, 6))
    spec = ModelSpec(encoder, task=task, num_classes=classes)
    values = st.floats(width=64) | st.sampled_from(_EDGE_VALUES)
    params = md.init_parameters(spec, seed=0)
    updates = {
        name: Tensor(draw(arrays(np.float64, params[name].shape, elements=values)),
                     requires_grad=True)
        for name in params.names
    }
    return spec, params.with_updates(updates)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(case=_specs_and_values())
def test_checkpoint_roundtrip_is_bit_exact_on_random_specs_and_values(case):
    spec, params = case
    buffer = io.BytesIO()
    md.save_checkpoint(params, spec, buffer)
    buffer.seek(0)
    loaded, loaded_spec, extra = md.load_checkpoint(buffer)
    assert loaded_spec == spec
    assert extra == {}
    assert {g: loaded.group_names(g) for g in loaded.groups} == {
        g: params.group_names(g) for g in params.groups
    }
    for name in params.names:
        assert loaded[name].shape == params[name].shape
        assert loaded[name].data.tobytes() == params[name].data.tobytes()


@pytest.mark.parametrize("moved", [False, True], ids=["as_written", "head_weight_in_gnn"])
def test_checkpoint_groups_and_relu_activation_entries_are_ignored(tmp_path, moved):
    """Older checkpoints carry ``groups`` and ``"activation": "relu"``. They
    load with the spec's groups and the same tensors, also when their groups
    move the time head's weight into ``gnn``, which the inner loop adapts."""
    import json

    spec = _edge_spec(hidden=3, input_dim=4)
    params = md.init_parameters(spec, seed=11)
    path = tmp_path / "older.npz"
    md.save_checkpoint(params, spec, path)
    with np.load(path) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode())
    groups = {g: list(params.group_names(g)) for g in params.groups}
    if moved:
        groups["time_predictor"].remove("time_predictor_w1")
        groups["gnn"].append("time_predictor_w1")
    meta["groups"] = groups
    meta["encoder"]["activation"] = "relu"
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    loaded, loaded_spec, _ = md.load_checkpoint(path)
    assert loaded_spec == spec
    assert loaded.fingerprint() == params.fingerprint()
    assert {g: loaded.group_names(g) for g in loaded.groups} == {
        g: params.group_names(g) for g in params.groups
    }


def test_checkpoint_rejects_foreign_and_truncated_files(tmp_path):
    plain = tmp_path / "plain.npz"
    np.savez(plain, weights=np.eye(2))
    with pytest.raises(DatasetError):
        md.load_checkpoint(plain)

    spec = _edge_spec(hidden=2, input_dim=2)
    params = md.init_parameters(spec, seed=0)
    good = tmp_path / "good.npz"
    md.save_checkpoint(params, spec, good)
    import json
    import zipfile

    with np.load(good) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode())
    meta["format"] = "SOMETHINGELSE"
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    bad_format = tmp_path / "bad_format.npz"
    np.savez(bad_format, **arrays)
    with pytest.raises(DatasetError):
        md.load_checkpoint(bad_format)

    with np.load(good) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    del arrays["gnn_w1"]
    truncated = tmp_path / "truncated.npz"
    np.savez(truncated, **arrays)
    with pytest.raises(DatasetError):
        md.load_checkpoint(truncated)

    # malformed files name their path: unreadable, non-JSON meta, meta fields
    # that are missing or mistyped, values the spec or the parameter set
    # refuses, and a tensor that is not numbers
    def with_array(name, key, value):
        with np.load(good) as bundle:
            arrays = {member: bundle[member] for member in bundle.files}
        arrays[key] = value
        path = tmp_path / name
        np.savez(path, **arrays)
        return path

    def with_meta(name, raw):
        return with_array(name, "__meta__", np.frombuffer(raw, dtype=np.uint8))

    good_meta = json.loads(arrays["__meta__"].tobytes().decode())
    no_encoder = {k: v for k, v in good_meta.items() if k != "encoder"}
    fractional = dict(good_meta, num_classes=2.5)

    def changed_meta(name, **changes):
        return with_meta(name, json.dumps(dict(good_meta, **changes)).encode())

    # a five-way edge-classification checkpoint relabelled as link prediction
    five_way = ModelSpec(spec.encoder, task="edge_classification", num_classes=5)
    links = tmp_path / "five_way_links.npz"
    md.save_checkpoint(md.init_parameters(five_way, seed=0), five_way, links)
    with np.load(links) as bundle:
        arrays = {member: bundle[member] for member in bundle.files}
    relabelled = dict(json.loads(arrays["__meta__"].tobytes().decode()), task="link_prediction")
    arrays["__meta__"] = np.frombuffer(json.dumps(relabelled).encode(), dtype=np.uint8)
    np.savez(links, **arrays)
    text = tmp_path / "text.npz"
    text.write_text("not a checkpoint\n")
    # one flipped byte inside a tensor's stored bytes fails its member's CRC
    raw = bytearray(good.read_bytes())
    at = bytes(raw).index(params["classifier_time_w1"].data.tobytes())
    raw[at + params["classifier_time_w1"].data.nbytes // 2] ^= 0xFF
    flipped = tmp_path / "flipped.npz"
    flipped.write_bytes(bytes(raw))
    malformed = [
        (flipped, "Bad CRC-32"),
        (with_array("object_tensor.npz", "gnn_w1", np.array([[1.0, None]], dtype=object)),
         "Object arrays cannot be loaded"),
        (text, "is not a readable checkpoint"),
        (with_meta("not_json.npz", b"{format: LEDGCKPT1"), "no JSON __meta__ entry"),
        (with_meta("no_encoder.npz", json.dumps(no_encoder).encode()),
         "'encoder' is missing or not of type dict"),
        (with_meta("fractional.npz", json.dumps(fractional).encode()),
         "'num_classes' is missing or not of type int"),
        (with_array("text_tensor.npz", "gnn_w1", np.array([["a", "b"], ["c", "d"]])),
         "tensor 'gnn_w1' is not numeric"),
        (changed_meta("extra_list.npz", extra=[1]), "'extra' is missing or not of type dict"),
        (changed_meta("no_layers.npz", encoder=dict(good_meta["encoder"], num_layers=0)),
         "num_layers must be at least 1"),
        (links, "link_prediction is binary: num_classes must be 2"),
        (changed_meta("linear.npz", encoder=dict(good_meta["encoder"], activation="linear")),
         "encoder activation 'linear' is not 'relu'"),
    ]
    for path, message in malformed:
        with pytest.raises(DatasetError) as caught:
            md.load_checkpoint(path)
        assert str(caught.value).startswith(str(path)) and message in str(caught.value)
