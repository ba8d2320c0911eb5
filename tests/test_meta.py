"""Episode windows, inner adaptation, outer updates, the training loop."""

from dataclasses import fields, replace

import numpy as np
import pytest

import baselines as bl
import benchmark
import oracles
from ledg import graphdata as gd
from ledg import meta as mt
from ledg import model as md
from ledg import numerics as nx
from ledg.errors import ConfigError, ContractError, NumericalError, ValidationError
from ledg.meta import TrainingConfig
from ledg.model import EncoderConfig, ModelSpec
from ledg.numerics import Tape, Tensor


def _small_sequence(seed=2, snapshots=6, nodes=16):
    return gd.generate_drifting_sbm(
        nodes, 2, 0.4, 0.1, 0.1, snapshots, seed=seed, train_frac=0.7, val_frac=0.1
    )


def _small_spec(nodes=16, hidden=4):
    return ModelSpec(
        EncoderConfig(num_layers=2, input_dim=nodes, hidden_dim=hidden),
        task="link_prediction",
    )


def _bit_equal(a, b):
    return all(np.array_equal(a[name].data, b[name].data) for name in a.names)


# -------------------------------------------------------------------- config


def test_config_defaults_and_validation():
    config = TrainingConfig(eta_out=0.004)
    assert config.eta_in == 0.04  # ten times eta_out when unset
    assert TrainingConfig(eta_out=0.004, eta_in=0.0).eta_in == 0.0
    with pytest.raises(ValidationError):
        TrainingConfig(window_size=0)
    with pytest.raises(ValidationError):
        TrainingConfig(eta_out=0.0)
    with pytest.raises(ValidationError):
        TrainingConfig(eta_in=-0.1)
    with pytest.raises(ValidationError):
        TrainingConfig(gradient_mode="second_order")
    with pytest.raises(ValidationError):
        TrainingConfig(target_structure_mode="next_snapshot")
    with pytest.raises(ValidationError):
        TrainingConfig(outer_optimizer="rmsprop")
    with pytest.raises(ValidationError):
        TrainingConfig(early_stop_patience=0)


@pytest.mark.parametrize("field", ["eta_out", "eta_in", "lambda_time"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ValidationError, match=field):
        TrainingConfig(**{field: value})


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed"):
        TrainingConfig(seed=-1)


def test_config_names_every_invalid_field_at_once():
    with pytest.raises(ValidationError) as err:
        TrainingConfig(window_size=0, lambda_time=np.nan, epochs=-1, outer_optimizer="rmsprop")
    for field in ("window_size", "lambda_time", "epochs", "outer_optimizer"):
        assert field in str(err.value)
    with pytest.raises(ValidationError) as err:
        EncoderConfig(base_model="sage", input_dim=0, hidden_dim=0)
    for field in ("base_model", "input_dim", "hidden_dim"):
        assert field in str(err.value)


# ------------------------------------------------------------------- windows


def test_build_window_same_snapshot_indices():
    seq = _small_sequence()
    config = TrainingConfig(window_size=3)
    window = mt.build_window(seq, 5, config)
    assert [s.time_index for s in window.snapshots] == [3, 4, 5]
    assert window.structure_snapshot.time_index == 5
    assert window.target_regression_index == 3
    assert window.size == 3


def test_build_window_previous_snapshot_indices():
    seq = _small_sequence()
    config = TrainingConfig(window_size=3, target_structure_mode="previous_snapshot")
    window = mt.build_window(seq, 5, config)
    assert [s.time_index for s in window.snapshots] == [2, 3, 4]
    assert window.structure_snapshot.time_index == 4
    assert window.target_regression_index == 4


@pytest.mark.parametrize("mode", mt.STRUCTURE_MODES)
@pytest.mark.parametrize("w", [1, 2, 3])
def test_window_structure_is_its_last_snapshot(mode, w):
    seq = _small_sequence()
    config = TrainingConfig(window_size=w, target_structure_mode=mode)
    same = mode == "same_snapshot"
    for t in range(mt.earliest_target_time(config), len(seq) + 1):
        window = mt.build_window(seq, t, config)
        assert [f.name for f in fields(window)] == ["target_time", "snapshots"]
        assert window.structure_snapshot is window.snapshots[-1]
        assert window.structure_snapshot is seq.snapshot_at(t if same else t - 1)
        assert window.target_regression_index == (w if same else w + 1)


def test_build_window_bounds():
    seq = _small_sequence()
    assert mt.earliest_target_time(TrainingConfig(window_size=3)) == 3
    assert mt.earliest_target_time(
        TrainingConfig(window_size=3, target_structure_mode="previous_snapshot")
    ) == 4
    with pytest.raises(ValidationError):
        mt.build_window(seq, 2, TrainingConfig(window_size=3))
    with pytest.raises(ValidationError):
        mt.build_window(seq, 7, TrainingConfig(window_size=3))


# ----------------------------------------------------------- inner adaptation


def test_single_inner_step_arithmetic():
    # L = 0.5 (p - 1)^2 at p = 0 with eta 0.1 lands exactly on 0.1
    tape = Tape()
    p = Tensor(0.0, requires_grad=True)
    with tape:
        r = nx.add_scalar(p, -1.0)
        loss = nx.mul_scalar(nx.hadamard(r, r), 0.5)
        g = tape.gradient(loss, [p])[0]
        p1 = nx.sub(p, nx.mul_scalar(g, 0.1))
    assert g.item() == -1.0
    assert p1.item() == 0.1


def test_inner_adapt_zero_eta_is_the_identity():
    seq = _small_sequence()
    spec = _small_spec()
    params = md.init_parameters(spec, seed=0)
    config = TrainingConfig(window_size=3, eta_in=0.0, eta_out=0.01)
    window = mt.build_window(seq, 4, config)
    adapted = mt.inner_adapt(window, params, spec, config, Tape())
    states, losses = adapted.states, adapted.losses
    assert len(states) == len(losses) == 3
    for state in states:
        assert _bit_equal(state, params)
    assert all(np.isfinite(losses))


def test_inner_adapt_moves_only_encoder_and_adapter():
    seq = _small_sequence()
    spec = _small_spec()
    params = md.init_parameters(spec, seed=1)
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01)
    window = mt.build_window(seq, 4, config)
    states = mt.inner_adapt(window, params, spec, config, Tape()).states
    for state in states:
        for group in ("time_predictor", "classifier_time", "classifier_graph"):
            assert state.fingerprint(group) == params.fingerprint(group)
    assert states[0].fingerprint("gnn") != params.fingerprint("gnn")
    assert states[0].fingerprint("adapter") != params.fingerprint("adapter")
    # states must be distinct points along the trajectory
    assert states[1].fingerprint() != states[0].fingerprint()


def test_inner_adapt_two_steps_match_stepwise_recomputation():
    seq = _small_sequence()
    spec = _small_spec()
    params = md.init_parameters(spec, seed=3)
    config = TrainingConfig(window_size=2, eta_in=0.2, eta_out=0.01)
    window = mt.build_window(seq, 4, config)
    adapted = mt.inner_adapt(window, params, spec, config, Tape())
    states, losses = adapted.states, adapted.losses

    current = params
    for i, snap in enumerate(window.snapshots, start=1):
        tape = Tape()
        with tape:
            bundle = md.embed(snap, current, spec)
            loss = md.time_loss(bundle.time_part, current, spec, target_time=float(i))
        pairs = current.items_in("gnn", "adapter")
        grads = tape.gradient(loss, [tensor for _, tensor in pairs])
        updates = {
            name: Tensor(tensor.data - config.eta_in * g.data, requires_grad=True)
            for (name, tensor), g in zip(pairs, grads)
        }
        assert loss.item() == losses[i - 1]
        current = current.with_updates(updates)
        assert _bit_equal(current, states[i - 1])


def test_inner_adapt_checks_window_size():
    seq = _small_sequence()
    spec = _small_spec()
    params = md.init_parameters(spec, seed=0)
    window = mt.build_window(seq, 4, TrainingConfig(window_size=2))
    with pytest.raises(ContractError):
        mt.inner_adapt(window, params, spec, TrainingConfig(window_size=3),
                       Tape())


#: the ops of one embed + time_loss of a two-layer GCN on identity features
_IDENTITY_GCN_STEP_OPS = (
    ["spmm", "clamp_min", "spmm", "matmul", "clamp_min"]  # encode: spmm(a_hat, gnn_w1), then a full layer
    + ["matmul", "add", "clamp_min", "matmul", "add", "sigmoid", "one_minus", "hadamard"]  # gate
    + ["sums", "mul_scalar"]  # mean_pool
    + ["matmul", "add", "clamp_min", "matmul", "add", "add", "smooth_l1"]  # time head and loss
)


def test_first_order_inner_adapt_records_only_the_updates():
    """Steps 1..w-1 record only their updates; step w also records its
    forward pass, whose embedding the outer step reuses."""
    seq = _small_sequence()
    spec = _small_spec()
    params = md.init_parameters(spec, seed=1)
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01)
    window = mt.build_window(seq, 4, config)
    tape = Tape()
    mt.inner_adapt(window, params, spec, config, tape)
    per_step = len(params.items_in(*mt.INNER_LOOP_GROUPS))
    expected = ["add"] * (2 * per_step) + _IDENTITY_GCN_STEP_OPS + ["add"] * per_step
    assert [node.op for node in tape.nodes] == expected


def test_first_order_episode_tape_feeds_its_objective_from_every_node(monkeypatch):
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01)
    params, window, batch = _episode_pieces(seq, spec, config)
    targets = []
    gradient = Tape.gradient

    def spy(tape, output, *args, **kwargs):
        targets.append(output)
        return gradient(tape, output, *args, **kwargs)

    monkeypatch.setattr(Tape, "gradient", spy)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    mt.outer_step(window, adapted, batch, params, spec, config, tape)
    # the last inner step's time loss, from its mean_pool's sums to its
    # smooth_l1, is the one part of its recorded forward pass nothing reads
    step_w_loss = targets[config.window_size - 1]
    last_loss = next(k for k, node in enumerate(tape.nodes) if node.output is step_w_loss)
    time_loss_nodes = set(range(last_loss - 8, last_loss + 1))
    assert [tape.nodes[k].op for k in (last_loss - 8, last_loss)] == ["sums", "smooth_l1"]
    live = oracles.recorded_ancestors(tape, targets[-1])
    assert live == set(range(len(tape))) - time_loss_nodes


def test_first_order_episode_tape_holds_only_tracked_nodes(monkeypatch):
    """Inner gradients are constants: no update scales them on the tape, and
    no recorded node makes an untracked result."""
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01)
    params, window, batch = _episode_pieces(seq, spec, config)
    inner_grads = []
    gradient = Tape.gradient

    def spy(tape, output, wrt, create_graph=False):
        grads = gradient(tape, output, wrt, create_graph)
        inner_grads.extend(grads)
        return grads

    monkeypatch.setattr(Tape, "gradient", spy)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    monkeypatch.setattr(Tape, "gradient", gradient)
    every_state = mt.Adaptation(adapted.states, adapted.losses, None)
    mt.outer_step(window, every_state, batch, params, spec, config, tape)
    assert len(inner_grads) == 3 * len(params.items_in(*mt.INNER_LOOP_GROUPS))
    assert not any(g.requires_grad for g in inner_grads)
    assert all(node.output.requires_grad for node in tape.nodes)
    grad_ids = {id(g) for g in inner_grads}
    assert not any(id(t) in grad_ids for node in tape.nodes for t in node.inputs)


def test_exact_inner_steps_differentiate_back_to_their_own_parameters_only(monkeypatch):
    """Exact inner step k's gradient reads nothing recorded before step
    k-1's first update, and the episode tape feeds its objective from at
    least 90% of its nodes."""
    seq = _small_sequence()
    spec = ModelSpec(
        EncoderConfig(base_model="attention", num_layers=2, input_dim=16, hidden_dim=4),
        task="link_prediction",
    )
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01, gradient_mode="exact")
    params, window, batch = _episode_pieces(seq, spec, config)
    calls = []  # (output, tape length before, tape length after) per gradient
    gradient = Tape.gradient

    def spy(tape, output, *args, **kwargs):
        before = len(tape)
        grads = gradient(tape, output, *args, **kwargs)
        calls.append((output, before, len(tape)))
        return grads

    monkeypatch.setattr(Tape, "gradient", spy)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    every_state = mt.Adaptation(adapted.states, adapted.losses, None)
    mt.outer_step(window, every_state, batch, params, spec, config, tape)
    producer = {id(node.output): k for k, node in enumerate(tape.nodes)}
    inner = calls[: config.window_size]
    for (_, _, first_update), (_, start, end) in zip(inner, inner[1:]):
        # step k-1's updates are the first nodes after its gradient
        assert tape.nodes[first_update].op == "mul_scalar"
        read = {producer.get(id(t), len(tape)) for node in tape.nodes[start:end] for t in node.inputs}
        assert end > start and min(read) >= first_update
    live = oracles.recorded_ancestors(tape, calls[-1][0])
    assert len(live) >= 0.9 * len(tape), (len(live), len(tape))


def test_exact_attention_episode_records_no_dense_or_pair_row_outputs():
    """Attention aggregates with spmm and each pair head's hidden layer is
    one pair_hidden node, so an exact episode's tape holds no N x N output
    and no (M, hidden) rows gathered for the M pairs of the batch."""
    seq = _small_sequence()
    hidden = 5
    spec = ModelSpec(
        EncoderConfig(base_model="attention", num_layers=2, input_dim=16, hidden_dim=hidden),
        task="link_prediction",
    )
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01, gradient_mode="exact")
    params, window, batch = _episode_pieces(seq, spec, config)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    every_state = mt.Adaptation(adapted.states, adapted.losses, None)
    mt.outer_step(window, every_state, batch, params, spec, config, tape)
    n = seq.num_nodes
    outputs = [(node.op, node.output.shape) for node in tape.nodes]
    assert not [op for op, shape in outputs if shape == (n, n)]
    assert ("gather_rows", (batch.size, hidden)) not in outputs
    assert {"spmm", "sddmm", "pair_hidden"} <= {op for op, _ in outputs}


@pytest.mark.parametrize("mode", ["first_order", "exact"])
def test_gcn_episode_records_no_dense_input_or_output(mode, monkeypatch):
    """GCN propagates with spmm on the normalized adjacency's pair values, so
    no tape of an episode, the w - 1 throwaway first-order step tapes
    included, records a node with an N x N input or output."""
    seq = gd.generate_drifting_sbm(16, 2, 0.4, 0.1, 0.1, 6, seed=2, train_frac=0.7,
                                   val_frac=0.1, feature_mode="degree_buckets")
    spec = ModelSpec(
        EncoderConfig(num_layers=2, input_dim=seq.feature_width, hidden_dim=5),
        task="link_prediction",
    )
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01, gradient_mode=mode)
    params, window, batch = _episode_pieces(seq, spec, config)
    tapes = []

    class KeptTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(mt, "Tape", KeptTape)
    tape = KeptTape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    mt.outer_step(window, adapted, batch, params, spec, config, tape)
    assert len(tapes) == (1 if mode == "exact" else config.window_size)
    n = seq.num_nodes
    shapes = [
        (node.op, t.shape) for kept in tapes for node in kept.nodes
        for t in (*node.inputs, node.output)
    ]
    assert not [op for op, shape in shapes if shape == (n, n)]
    assert "spmm" in {op for op, _ in shapes}


@pytest.mark.parametrize("structure", ["same_snapshot", "previous_snapshot"])
@pytest.mark.parametrize("mode", ["first_order", "exact"])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_an_episode_encodes_2w_minus_1_times(monkeypatch, w, mode, structure):
    """The last inner step embeds the structure snapshot with state w-1 and
    the outer step reuses that embedding, so an episode of w >= 2 encodes
    2w - 1 times; a one-step window embeds with the initial parameters,
    which the outer step does not score, so it encodes twice."""
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=w, eta_in=0.1, eta_out=0.01, gradient_mode=mode,
                            target_structure_mode=structure)
    calls = []
    encode = md.encode

    def counted(*args):
        calls.append(args[0])
        return encode(*args)

    monkeypatch.setattr(md, "encode", counted)
    _, record = mt.run_episode(seq, 4, md.init_parameters(spec, seed=0), spec, config)
    assert record is not None
    assert len(calls) == (2 if w == 1 else 2 * w - 1)
    structure_snapshot = mt.build_window(seq, 4, config).structure_snapshot
    assert sum(snap is structure_snapshot for snap in calls) == w + (w == 1)


@pytest.mark.parametrize("features", ["identity", "degree_buckets"])
@pytest.mark.parametrize("mode", ["first_order", "exact"])
@pytest.mark.parametrize("base", ["gcn", "attention"])
def test_outer_gradient_equals_the_reembedding_reference(monkeypatch, base, mode, features):
    """Reusing the last inner step's embedding gives the outer gradient of
    an episode that embeds every adapted state afresh. Under first order
    the reused nodes get the same contributions in the same order, and a
    parameter that feeds one op per embedding sums two adjoints, which
    commute, so the bits agree. Attention's first weight on identity
    features feeds three ops, and an exact tape adds the recorded inner
    backward's contributions, so there the sums associate differently and
    the whole gradient agrees within 1e-12."""
    seq = gd.generate_drifting_sbm(16, 2, 0.4, 0.1, 0.1, 6, seed=2, train_frac=0.7,
                                   val_frac=0.1, feature_mode=features)
    spec = ModelSpec(
        EncoderConfig(base_model=base, num_layers=2, input_dim=seq.feature_width, hidden_dim=4),
        task="link_prediction",
    )
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01, gradient_mode=mode)
    params, window, batch = _episode_pieces(seq, spec, config)
    reference = oracles.reembedding_outer_gradients(window, params, spec, config, batch)
    found = []
    gradient = Tape.gradient

    def spy(tape, *args, **kwargs):
        found[:] = gradient(tape, *args, **kwargs)
        return found[:]

    monkeypatch.setattr(Tape, "gradient", spy)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    mt.outer_step(window, adapted, batch, params, spec, config, tape)
    assert len(found) == len(reference)
    if mode == "first_order" and not (base == "attention" and features == "identity"):
        assert [g.data.tobytes() for g in found] == [g.data.tobytes() for g in reference]
    flat = [np.concatenate([g.data.ravel() for g in grads]) for grads in (found, reference)]
    assert oracles.norm_rel_err(*flat) <= 1e-12


# --------------------------------------------------------------- outer update


def _episode_pieces(seq, spec, config, t=4, seed=0):
    params = md.init_parameters(spec, seed=seed)
    window = mt.build_window(seq, t, config)
    batch = gd.sample_link_prediction_batch(seq.snapshot_at(t), 1, seed=7)
    return params, window, batch


def test_outer_step_contract_errors():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01)
    params, window, batch = _episode_pieces(seq, spec, config)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    one_state = mt.Adaptation(adapted.states[:1], adapted.losses[:1], None)
    with pytest.raises(ContractError):
        mt.outer_step(window, one_state, batch, params, spec, config, tape)
    with pytest.raises(ContractError):
        mt.outer_step(window, adapted, None, params, spec, config, tape)


def test_outer_step_lambda_zero_leaves_time_predictor_alone():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.05, lambda_time=0.0)
    params, window, batch = _episode_pieces(seq, spec, config)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    every_state = mt.Adaptation(adapted.states, adapted.losses, None)
    new_params, record = mt.outer_step(window, every_state, batch, params, spec, config, tape)
    for name in params.group_names("time_predictor"):
        assert np.array_equal(new_params[name].data, params[name].data)
    assert new_params.fingerprint("gnn") != params.fingerprint("gnn")
    assert np.isfinite(record.objective)
    assert record.objective == record.task_loss_sum


def test_outer_step_without_optimizer_takes_one_step_of_the_configured_kind():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01, outer_optimizer="adam")
    params, window, batch = _episode_pieces(seq, spec, config)
    stepped = []
    for optimizer in (None, mt._AdamState(config.eta_out), mt.SgdStep(config.eta_out)):
        tape = Tape()
        adapted = mt.inner_adapt(window, params, spec, config, tape)
        every_state = mt.Adaptation(adapted.states, adapted.losses, None)
        new_params, _ = mt.outer_step(
            window, every_state, batch, params, spec, config, tape, optimizer
        )
        stepped.append(new_params)
    assert _bit_equal(stepped[0], stepped[1])
    assert not _bit_equal(stepped[0], stepped[2])


def test_sgd_step_matches_the_numpy_formula_bitwise():
    spec = ModelSpec(
        EncoderConfig(base_model="attention", num_layers=2, input_dim=6, hidden_dim=5),
        task="link_prediction",
    )
    params = md.init_parameters(spec, seed=3)
    rng = np.random.default_rng(29)
    sgd = mt.SgdStep(0.37)
    for scale in (1.0, 1e-3, 40.0):
        grads = {name: Tensor(rng.normal(size=t.shape) * scale) for name, t in params.items_in()}
        stepped = sgd.apply(params, grads)
        for name, g in grads.items():
            old = params[name].data - 0.37 * g.data
            assert np.array_equal(stepped[name].data.view(np.int64), old.view(np.int64))
            # on no tape the new parameters stay trainable
            assert stepped[name].requires_grad
        params = stepped


def test_flat_adam_matches_the_per_tensor_loop_bitwise():
    spec = ModelSpec(
        EncoderConfig(base_model="attention", num_layers=2, input_dim=6, hidden_dim=5),
        task="link_prediction",
    )
    params = md.init_parameters(spec, seed=3)
    shapes = {t.shape for _, t in params.items_in()}
    assert {(5, 1), (1, 5), (1, 1)} <= shapes
    names = [name for name, _ in params.items_in()]
    rng = np.random.default_rng(23)
    flat, reference = mt._AdamState(0.01), oracles.PerTensorAdam(0.01)
    stepped, expected = params, params
    for scale in (1.0, 1e-3, 40.0, 0.2):
        grads = {name: Tensor(rng.normal(size=t.shape) * scale) for name, t in params.items_in()}
        grads["gnn_al1"] = Tensor(np.zeros(params["gnn_al1"].shape))
        stepped = flat.apply(stepped, grads)
        expected = reference.apply(expected, grads)
        assert stepped.names == expected.names
        assert _bit_equal(stepped, expected)
        for moment, per_name in ((flat.m, reference.m), (flat.v, reference.v)):
            joined = np.concatenate([per_name[name].ravel() for name in names])
            assert np.array_equal(moment.view(np.int64), joined.view(np.int64))
    dropped = dict(grads)
    del dropped["gnn_w1"]
    renamed = {("x_" + name if name == "gnn_w1" else name): g for name, g in grads.items()}
    for changed in (dropped, renamed, {**grads, "extra": grads["gnn_w1"]}):
        with pytest.raises(ContractError, match="adam step 5 updates"):
            flat.apply(stepped, changed)


def test_episode_objective_is_task_plus_weighted_time():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01, lambda_time=0.3)
    params, window, batch = _episode_pieces(seq, spec, config)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    every_state = mt.Adaptation(adapted.states, adapted.losses, None)
    _, record = mt.outer_step(window, every_state, batch, params, spec, config, tape)
    assert record.objective == pytest.approx(
        record.task_loss_sum + 0.3 * record.time_loss_sum, abs=1e-12
    )
    assert record.grad_norm > 0.0


def test_run_episode_skips_targets_without_supervision():
    snaps = [
        gd.SnapshotGraph(1, 4, [(0, 1), (2, 3)], np.eye(4)),
        gd.SnapshotGraph(2, 4, [(0, 2)], np.eye(4)),
        gd.SnapshotGraph(3, 4, [], np.eye(4)),
    ]
    seq = gd.DynamicGraphSequence(snaps, (3, 3, 3), "link_prediction", 2)
    spec = ModelSpec(EncoderConfig(num_layers=1, input_dim=4, hidden_dim=3))
    params = md.init_parameters(spec, seed=0)
    config = TrainingConfig(window_size=1, eta_in=0.1, eta_out=0.01)
    out, record = mt.run_episode(seq, 3, params, spec, config, epoch=1)
    assert record is None
    assert out is params


def _attention_metagrad_instance():
    """Two nodes, one attention layer of width two, window two."""
    feats = np.array([[1.0], [0.2]])
    snaps = [
        gd.SnapshotGraph(1, 2, [(0, 1)], feats, node_labels=[0, 1]),
        gd.SnapshotGraph(2, 2, [], feats, node_labels=[1, 0]),
        gd.SnapshotGraph(3, 2, [(0, 1)], feats, node_labels=[0, 1]),
    ]
    seq = gd.DynamicGraphSequence(snaps, (3, 3, 3), "node_classification", 2)
    spec = ModelSpec(
        EncoderConfig(base_model="attention", num_layers=1, input_dim=1, hidden_dim=2),
        task="node_classification",
    )
    config = TrainingConfig(
        window_size=2, eta_in=0.3, eta_out=0.05, gradient_mode="exact", lambda_time=0.1
    )
    return seq, spec, config


def _episode_objective(seq, spec, config, params, mode):
    """Adapt over the window of target 3, then sum task + lambda * time over
    every adapted state, as outer_step does."""
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


def test_attention_exact_meta_gradient_matches_central_differences():
    seq, spec, config = _attention_metagrad_instance()
    params = md.init_parameters(spec, seed=1)
    tape, total, inner_losses = _episode_objective(seq, spec, config, params, "exact")
    # a relu-dead time head would leave the inner loop standing still
    assert abs(inner_losses[0] - 0.5) > 1e-3
    pairs = params.items_in()
    grads = tape.gradient(total, [tensor for _, tensor in pairs])
    tape_fo, total_fo, _ = _episode_objective(seq, spec, config, params, "first_order")
    grads_fo = tape_fo.gradient(total_fo, [tensor for _, tensor in pairs])

    worst_exact = worst_fo = 0.0
    for (name, tensor), exact, first_order in zip(pairs, grads, grads_fo):
        def value_at(x, name=name):
            moved = params.with_updates({name: Tensor(x, requires_grad=True)})
            return _episode_objective(seq, spec, config, moved, "first_order")[1].item()

        fd = oracles.central_difference(value_at, tensor.data.copy())
        worst_exact = max(worst_exact, oracles.max_rel_err(exact.data, fd))
        worst_fo = max(worst_fo, oracles.max_rel_err(first_order.data, fd))
    assert worst_exact <= 1e-3, worst_exact
    # the first-order approximation must miss, or the check could not tell
    # an exact second-order path from a dropped one
    assert worst_fo > 1e-2, worst_fo


def _meta_gradients_against(monkeypatch, base, layers, mode, reference):
    """The episode objective and meta-gradient through ``md.encode`` and then
    through the ``reference`` encoder, on windows with isolated nodes and an
    edgeless snapshot."""
    rng = np.random.default_rng([5, layers])
    feats = rng.normal(size=(10, 2))
    snaps = [
        oracles.random_snapshot(rng, t, 10, p, feats, node_labels=rng.integers(0, 2, 10))
        for t, p in ((1, 0.3), (2, 0.0), (3, 0.5))
    ]
    seq = gd.DynamicGraphSequence(snaps, (3, 3, 3), "node_classification", 2)
    spec = ModelSpec(
        EncoderConfig(base_model=base, num_layers=layers, input_dim=2, hidden_dim=3),
        task="node_classification",
    )
    config = TrainingConfig(window_size=2, eta_in=0.3, eta_out=0.05, gradient_mode=mode)
    params = md.init_parameters(spec, seed=layers)
    pairs = params.items_in()

    def meta_gradient():
        tape, total, _ = _episode_objective(seq, spec, config, params, mode)
        grads = tape.gradient(total, [tensor for _, tensor in pairs])
        return total.item(), np.concatenate([g.data.ravel() for g in grads])

    found = meta_gradient()
    monkeypatch.setattr(md, "encode", reference)
    return found, meta_gradient()


# every encoder layer ends in a ReLU, which the ids name
@pytest.mark.parametrize("layers", [1, 2, 3], ids=lambda layers: f"relu-{layers}")
def test_attention_exact_meta_gradient_matches_the_dense_masked_reference(monkeypatch, layers):
    """The exact meta-gradient through the pair-list encoder equals the one
    through the dense masked encoder, on windows with isolated nodes and an
    edgeless snapshot."""
    (objective, grad), (reference_objective, reference_grad) = _meta_gradients_against(
        monkeypatch, "attention", layers, "exact", oracles.dense_attention_encode
    )
    assert objective == pytest.approx(reference_objective, rel=1e-12, abs=0.0)
    assert oracles.norm_rel_err(grad, reference_grad) <= 1e-12


@pytest.mark.parametrize("mode", ["first_order", "exact"])
@pytest.mark.parametrize("layers", [1, 2])
def test_gcn_meta_gradient_equals_the_dense_reference_bit_for_bit(monkeypatch, layers, mode):
    """GCN's spmm propagation gives the dense A_hat encoder's objective and
    meta-gradient bit for bit, inner backward passes recorded or not."""
    found, reference = _meta_gradients_against(
        monkeypatch, "gcn", layers, mode, oracles.dense_gcn_encode
    )
    assert found[0] == reference[0]
    assert found[1].tobytes() == reference[1].tobytes()


# -------------------------------------------- eta_in = 0 degeneracy (joint)


def _joint_training_oracle(seq, spec, config):
    """Plain joint training on task + lambda * time loss, batch-for-batch."""
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


def test_zero_inner_rate_collapses_to_joint_training():
    seq = _small_sequence()
    spec = _small_spec()
    base = dict(window_size=1, eta_in=0.0, eta_out=0.05, lambda_time=0.1,
                epochs=2, seed=4, outer_optimizer="sgd")
    fo = mt.train(seq, spec, TrainingConfig(gradient_mode="first_order", **base))
    exact = mt.train(seq, spec, TrainingConfig(gradient_mode="exact", **base))
    assert _bit_equal(fo.params, exact.params)
    assert fo.epoch_objectives == exact.epoch_objectives
    joint = _joint_training_oracle(seq, spec, TrainingConfig(**base))
    assert _bit_equal(fo.params, joint)


def test_zero_inner_rate_mode_identity_holds_for_wider_windows():
    seq = _small_sequence()
    spec = _small_spec()
    base = dict(window_size=3, eta_in=0.0, eta_out=0.01, epochs=2, seed=1,
                outer_optimizer="adam")
    fo = mt.train(seq, spec, TrainingConfig(gradient_mode="first_order", **base))
    exact = mt.train(seq, spec, TrainingConfig(gradient_mode="exact", **base))
    assert _bit_equal(fo.params, exact.params)


def test_gradient_modes_differ_once_adaptation_is_on():
    seq = _small_sequence()
    spec = _small_spec()
    base = dict(window_size=2, eta_in=0.3, eta_out=0.05, epochs=1, seed=0)
    fo = mt.train(seq, spec, TrainingConfig(gradient_mode="first_order", **base))
    exact = mt.train(seq, spec, TrainingConfig(gradient_mode="exact", **base))
    assert not _bit_equal(fo.params, exact.params)


# ------------------------------------------------------------- training loop


def test_train_zero_epochs_returns_initial_parameters():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_out=0.01, epochs=0, seed=5)
    result = mt.train(seq, spec, config)
    assert result.params.fingerprint() == md.init_parameters(spec, 5).fingerprint()
    assert result.records == [] and result.epoch_objectives == []


def test_train_rejects_windows_wider_than_the_training_split(monkeypatch):
    """In same_snapshot mode a window as wide as the training split leaves
    one target, t = train_end; a wider one leaves none, and both trainers
    refuse it alike."""
    seq = _small_sequence()  # train_end = 4
    spec = _small_spec()
    config = TrainingConfig(window_size=4, eta_out=0.01, epochs=2)
    records = mt.train(seq, spec, config).records
    assert [(r.epoch, r.target_time) for r in records] == [(1, 4), (2, 4)]
    targets = []
    predict = bl.static_predict
    monkeypatch.setattr(
        bl, "static_predict", lambda s, *args: targets.append(s.time_index) or predict(s, *args)
    )
    _, losses = bl.train_static_gcn(seq, spec, config)
    assert len(losses) == 2 and targets == [4, 4]
    for width in (5, 6):
        wide = TrainingConfig(window_size=width, eta_out=0.01)
        with pytest.raises(ConfigError):
            mt.train(seq, spec, wide)
        with pytest.raises(ConfigError):
            bl.train_static_gcn(seq, spec, wide)


def test_both_trainers_refuse_a_training_split_with_no_supervised_target():
    """Edgeless training snapshots give no target a batch: neither trainer
    returns its seeded init as if it had trained."""
    edges = [[], [], [(0, 1), (2, 3)], [(0, 2)]]
    snaps = [gd.SnapshotGraph(t, 4, e, np.eye(4)) for t, e in enumerate(edges, start=1)]
    seq = gd.DynamicGraphSequence(snaps, (2, 3, 4), "link_prediction", 2)
    spec = ModelSpec(EncoderConfig(num_layers=1, input_dim=4, hidden_dim=3))
    config = TrainingConfig(window_size=1, eta_out=0.01, epochs=2)
    for trainer in (mt.train, bl.train_static_gcn):
        with pytest.raises(ConfigError, match="no training target produced a batch"):
            trainer(seq, spec, config)


def test_train_same_config_reproduces_logs_exactly():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_in=0.2, eta_out=0.02, epochs=3, seed=8)
    a = mt.train(seq, spec, config)
    b = mt.train(seq, spec, config)
    assert [r.to_json() for r in a.records] == [r.to_json() for r in b.records]
    assert a.epoch_objectives == b.epoch_objectives
    assert _bit_equal(a.params, b.params)


def test_train_sweeps_targets_in_temporal_order():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_out=0.02, epochs=2, seed=0)
    result = mt.train(seq, spec, config)
    first = mt.earliest_target_time(config)
    per_epoch = {}
    for record in result.records:
        per_epoch.setdefault(record.epoch, []).append(record.target_time)
    assert sorted(per_epoch) == [1, 2]
    for times in per_epoch.values():
        assert times == list(range(first, seq.split[0] + 1))


def test_train_keeps_best_epoch_by_validation_score():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_out=0.02, epochs=6, seed=2,
                            early_stop_patience=2)
    scripted = {1: 0.5, 2: 0.9, 3: 0.1, 4: 0.1, 5: 0.4, 6: 0.8}
    seen = {}

    def hook(params, epoch):
        seen[epoch] = params.fingerprint()
        return scripted[epoch]

    result = mt.train(seq, spec, config, val_hook=hook)
    # patience 2 exhausted at epoch 4; best epoch was 2
    assert result.stopped_early
    assert result.val_scores == [0.5, 0.9, 0.1, 0.1]
    assert result.params.fingerprint() == seen[2]


def test_train_refuses_early_stop_patience_without_a_val_hook():
    """Patience counts epochs a validation score did not improve; with no
    hook to score them it would never stop, so train refuses it up front."""
    config = TrainingConfig(window_size=2, eta_out=0.02, epochs=3, seed=2,
                            early_stop_patience=1)
    logged = []
    with pytest.raises(ConfigError, match="early_stop_patience needs a val_hook"):
        mt.train(_small_sequence(), _small_spec(), config, log_hook=logged.append)
    assert logged == []


def test_train_raises_at_the_first_non_finite_inner_loss():
    """A desk-cell run with rates far too large overflows in epoch 1 and
    must stop there, naming where, instead of training on NaNs."""
    seq = benchmark.make_sequence(0)
    config = TrainingConfig(window_size=3, eta_out=5.0, eta_in=500.0, epochs=3, seed=0)
    seen = []
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
        mt.train(seq, benchmark.make_spec(), config, log_hook=seen.append)
    assert "epoch 1, target time 8, inner step 1: inner loss inf" in str(err.value)
    assert [record.target_time for record in seen] == [3, 4, 5, 6, 7]
    assert all(np.isfinite(record.objective) for record in seen)


@pytest.mark.parametrize("field", ["objective", "grad_norm"])
def test_train_raises_on_a_non_finite_outer_step(monkeypatch, field):
    seq = _small_sequence()
    config = TrainingConfig(window_size=2, epochs=2)
    episode = mt.run_episode

    def poisoned(*args, **kwargs):
        params, record = episode(*args, **kwargs)
        if record is not None and record.epoch == 2:
            record = replace(record, **{field: float("nan")})
        return params, record

    monkeypatch.setattr(mt, "run_episode", poisoned)
    with pytest.raises(NumericalError) as err:
        mt.train(seq, _small_spec(), config)
    first = mt.earliest_target_time(config)
    assert f"epoch 2, target time {first}, outer step after inner step 2: {field} nan" in str(
        err.value
    )


def test_log_hook_sees_every_record():
    seq = _small_sequence()
    spec = _small_spec()
    config = TrainingConfig(window_size=2, eta_out=0.02, epochs=2, seed=0)
    streamed = []
    result = mt.train(seq, spec, config, log_hook=streamed.append)
    assert streamed == result.records


# --------------------------------------------------------- adapt and predict


def test_adapt_and_predict_zero_eta_equals_direct_forward():
    seq = _small_sequence()
    spec = _small_spec()
    params = md.init_parameters(spec, seed=6)
    config = TrainingConfig(window_size=2, eta_in=0.0, eta_out=0.01)
    t = 5
    batch = gd.sample_link_prediction_batch(seq.snapshot_at(t), 2, mode="eval")
    bundle, adapted = mt.adapt_and_predict(seq, params, t, spec, config)
    preds = md.task_predict(bundle, adapted, spec, batch)
    window = mt.build_window(seq, t, config)
    direct = md.task_predict(
        md.embed(window.structure_snapshot, params, spec), params, spec, batch
    )
    assert np.array_equal(preds.data, direct.data)


def test_adapt_and_predict_leaves_caller_parameters_untouched():
    seq = _small_sequence()
    spec = _small_spec()
    # seed with a live time head at init (some seeds start it relu-dead)
    params = md.init_parameters(spec, seed=7)
    before = params.fingerprint()
    config = TrainingConfig(window_size=2, eta_in=0.5, eta_out=0.01)
    _, adapted = mt.adapt_and_predict(seq, params, 5, spec, config)
    assert params.fingerprint() == before
    assert adapted.fingerprint("gnn") != params.fingerprint("gnn")


@pytest.mark.parametrize("base_model", ["gcn", "attention"])
def test_adapt_and_predict_adapts_first_order_under_an_exact_config(monkeypatch, base_model):
    """Evaluation records no inner backward: an exact config adapts to the
    first-order config's bits without a recorded gradient."""
    seq = _small_sequence()
    spec = ModelSpec(
        EncoderConfig(base_model=base_model, num_layers=2, input_dim=16, hidden_dim=4),
        task="link_prediction",
    )
    params = md.init_parameters(spec, seed=7)
    config = TrainingConfig(window_size=2, eta_in=0.5, eta_out=0.01)
    _, first_order = mt.adapt_and_predict(seq, params, 5, spec, config)
    recorded = []
    gradient = Tape.gradient

    def spy(tape, output, wrt, create_graph=False):
        recorded.append(create_graph)
        return gradient(tape, output, wrt, create_graph)

    monkeypatch.setattr(Tape, "gradient", spy)
    exact = replace(config, gradient_mode="exact")
    _, adapted = mt.adapt_and_predict(seq, params, 5, spec, exact)
    assert recorded == [False] * config.window_size
    assert _bit_equal(adapted, first_order)
    assert adapted.fingerprint("gnn") != params.fingerprint("gnn")


def test_adapt_and_predict_rejects_times_without_a_window():
    seq = _small_sequence()
    spec = _small_spec()
    params = md.init_parameters(spec, seed=0)
    config = TrainingConfig(window_size=3, eta_in=0.1, eta_out=0.01)
    with pytest.raises(ValidationError):
        mt.adapt_and_predict(seq, params, 2, spec, config)


def test_previous_snapshot_mode_never_reads_the_target_structure():
    rng = np.random.default_rng(14)
    base_snaps = []
    for t in range(1, 5):
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4]
        base_snaps.append(gd.SnapshotGraph(t, 8, pairs, np.eye(8)))
    altered_last = gd.SnapshotGraph(4, 8, [(0, 7), (1, 6)], np.eye(8))
    seq_a = gd.DynamicGraphSequence(base_snaps, (4, 4, 4), "link_prediction", 2)
    seq_b = gd.DynamicGraphSequence(base_snaps[:3] + [altered_last], (4, 4, 4),
                                    "link_prediction", 2)
    spec = ModelSpec(EncoderConfig(num_layers=1, input_dim=8, hidden_dim=3))
    params = md.init_parameters(spec, seed=9)
    config = TrainingConfig(window_size=2, eta_in=0.2, eta_out=0.01,
                            target_structure_mode="previous_snapshot")
    batch = gd.TaskBatch(4, "edge", np.array([[0, 1], [2, 5]]), np.array([1, 0]))
    bundle_a, adapted_a = mt.adapt_and_predict(seq_a, params, 4, spec, config)
    bundle_b, adapted_b = mt.adapt_and_predict(seq_b, params, 4, spec, config)
    preds_a = md.task_predict(bundle_a, adapted_a, spec, batch)
    preds_b = md.task_predict(bundle_b, adapted_b, spec, batch)
    assert np.array_equal(preds_a.data, preds_b.data)


# ----------------------------------------------- properties on the benchmark


def test_training_objective_decreases_on_the_benchmark(desk_benchmark):
    first = np.median([objs[0] for objs in desk_benchmark["ledg_epoch_objectives"]])
    later = np.median([objs[19] for objs in desk_benchmark["ledg_epoch_objectives"]])
    assert later < first


def test_adaptation_beats_frozen_inner_loop_on_held_out_snapshots(desk_benchmark):
    # the ablation can peak higher on the small ratio-20 validation split,
    # so the benefit is asserted where it matters: test MAP at ratio 50
    adaptive = np.median(desk_benchmark["ledg_maps"])
    frozen = np.median(desk_benchmark["ablation_maps"])
    assert adaptive > frozen
    # both arms' validation hooks scored real epochs
    for key in ("ledg_best_val", "ablation_best_val"):
        assert all(score > 0.0 for score in desk_benchmark[key])


@pytest.mark.parametrize("mode, fingerprint, losses", [
    ("same_snapshot",
     "2311b42ae3f2697678d5583d3ead253fa3c7c18be07a358c251c534b032bf8b0",
     ["0x1.09caa692b3cf8p+1", "0x1.09620080144f6p+1"]),
    ("previous_snapshot",
     "82bc0f725cae00c6644750b1e07c5bddb65c6e0b3b498850b24e8664d9b9cbd5",
     ["0x1.626879aec49c8p+0", "0x1.62728dd97d5d6p+0"]),
], ids=["same_snapshot", "previous_snapshot"])
def test_static_gcn_training_reproduces_its_recorded_bits(mode, fingerprint, losses):
    # the losses were recorded from the static trainer with its own inline
    # SGD step and structure-snapshot choice, and the shared trainer code
    # must not move a bit of them (both were re-recorded once, when negatives
    # became exact draws of the r-th non-neighbour); the fingerprints are
    # those of the head's per-node pair projections, whose rounding differs
    # from a head on concatenated pair rows by about 1e-16 relative
    config = TrainingConfig(window_size=2, eta_out=0.05, epochs=2, seed=3,
                            target_structure_mode=mode)
    params, epoch_losses = bl.train_static_gcn(_small_sequence(), _small_spec(), config)
    assert params.fingerprint() == fingerprint
    assert [loss.hex() for loss in epoch_losses] == losses


# ------------------------------------------------- pinned training bits


def _desk_fo_shaped_run():
    # desk-fo's shape at a small size: GCN, first order, identity features,
    # previous_snapshot structure, Adam
    sequence = gd.generate_drifting_sbm(
        30, 2, 0.2, 0.03, 0.05, 10, seed=4, train_frac=0.6, val_frac=0.1
    )
    spec = ModelSpec(EncoderConfig(base_model="gcn", num_layers=2, input_dim=30, hidden_dim=8))
    return sequence, spec, "first_order"


def _attn_exact_shaped_run():
    # attn-exact's shape at a small size: attention, exact meta-gradients,
    # degree features of an ingested stream of 40 nodes, 10 buckets of 10 s
    rng = np.random.default_rng(11)
    src, dst = rng.integers(0, 40, size=(2, 600))
    stamps = np.sort(rng.integers(0, 100, size=600))
    stamps[0] = 0
    lines = [f"n{u} n{v} {ts}" for u, v, ts in zip(src, dst, stamps)]
    sequence = gd.ingest_edge_stream(lines, gd.FixedIntervalBucketing(10.0), train_frac=0.6)
    spec = ModelSpec(EncoderConfig(
        base_model="attention", num_layers=2, input_dim=sequence.feature_width, hidden_dim=8,
    ))
    return sequence, spec, "exact"


@pytest.mark.parametrize("run, fingerprint, records", [
    (_desk_fo_shaped_run,
     "61b4c7aa2fcf61ab2b01500713d2563cd3a3311bf5768d9b0982527c6f1ff94b",
     "6d54ce12f2915d87a0784a4b51b3901248d0ab0a95b626925c5e7d8a770e146c"),
    (_attn_exact_shaped_run,
     "bdd4d49866ad61a13aca3c19d5983469af417c1819df9be1365ca9fc31422c91",
     "2803648d90d3b82dd14c6bc8e2e6a23a5d3608f48a0a88962472efb46c4c8468"),
], ids=["desk_fo_shape", "attn_exact_shape"])
def test_training_reproduces_its_pinned_bits(run, fingerprint, records):
    """Two short runs shaped like the benchmark's workloads reproduce their
    recorded parameter fingerprint and the sha256 of their episode records
    (recorded before pair ops took checked index plans).

    Recipe: build the run's sequence and spec, train two epochs with window
    3, eta_out 0.01, eta_in 0.25, previous_snapshot structure, Adam, seed 1
    and 3 negatives per training edge; join every ``EpisodeRecord.to_json()``
    with newlines and hash the UTF-8 bytes. A change that claims to keep
    every bit must keep both values; one that moves them records the new
    values here with the reason.
    """
    import hashlib

    sequence, spec, mode = run()
    config = TrainingConfig(
        window_size=3, eta_out=0.01, eta_in=0.25, gradient_mode=mode,
        target_structure_mode="previous_snapshot", epochs=2, seed=1,
        outer_optimizer="adam", train_negative_ratio=3,
    )
    result = mt.train(sequence, spec, config)
    lines = "\n".join(record.to_json() for record in result.records)
    assert len(result.records) > 2
    assert result.params.fingerprint() == fingerprint
    assert hashlib.sha256(lines.encode()).hexdigest() == records
