"""The network: message-passing encoder, gated embedding split into a
time-varying and a graph-intrinsic part, a time-regression head, and dual
classification heads whose logits are summed before one softmax.

Parameters live in a :class:`~ledg.numerics.ParameterSet` under five groups
named here: ``gnn`` (encoder) and one per ``HEAD_ROLES`` entry, ``adapter``
(the gate MLP), ``time_predictor`` and the two classifier heads. All forward
functions are pure in (parameters, input) and record onto whatever tape is
active.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .errors import ContractError, DatasetError, ShapeError, ValidationError
from .graphdata import TASKS, IdentityFeatures, SnapshotGraph, TaskBatch, seed_from
from .numerics import ParameterSet, Tensor


BASE_MODELS = ("gcn", "attention")
ACTIVATIONS = ("relu", "linear")
HEAD_ROLES = ("adapter", "time_predictor", "classifier_time", "classifier_graph")

#: attention scores pass through a leaky ReLU with this negative slope
ATTENTION_SLOPE = 0.2
#: probabilities are clamped here before the log in cross-entropy
PROB_FLOOR = 1e-12

CHECKPOINT_FORMAT = "LEDGCKPT1"


@dataclass(frozen=True)
class EncoderConfig:
    """Shape and flavor of the message-passing encoder."""

    base_model: str = "gcn"
    num_layers: int = 2
    input_dim: int = 1
    hidden_dim: int = 128
    activation: str = "relu"

    def __post_init__(self):
        problems = []
        if self.base_model not in BASE_MODELS:
            problems.append(f"base_model must be one of {BASE_MODELS}")
        if self.num_layers < 1:
            problems.append("num_layers must be at least 1")
        if self.input_dim < 1:
            problems.append("input_dim must be positive")
        if self.hidden_dim < 1:
            problems.append("hidden_dim must be positive")
        if self.activation not in ACTIVATIONS:
            problems.append(f"activation must be one of {ACTIVATIONS}")
        if problems:
            raise ValidationError("; ".join(problems))


@dataclass(frozen=True)
class ModelSpec:
    """Encoder config plus the task the heads are shaped for."""

    encoder: EncoderConfig
    task: str = "link_prediction"
    num_classes: int = 2

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be at least 2")

    @property
    def batch_kind(self) -> str:
        return "node" if self.task == "node_classification" else "edge"

    @property
    def classifier_input_dim(self) -> int:
        # an edge task's first layer reads the pair [h_src, h_dst]
        d = self.encoder.hidden_dim
        return d if self.batch_kind == "node" else 2 * d

    @functools.cached_property
    def heads(self) -> dict[str, MlpHead]:
        """The four heads by role (see ``HEAD_ROLES``), built once per spec."""
        d = self.encoder.hidden_dim
        pair = self.classifier_input_dim
        return {
            "adapter": MlpHead("adapter", d, d, d),
            "time_predictor": MlpHead("time_predictor", d, d, 1),
            "classifier_time": MlpHead("classifier_time", pair, d, self.num_classes),
            "classifier_graph": MlpHead("classifier_graph", pair, d, self.num_classes),
        }


@dataclass(frozen=True)
class EmbeddingBundle:
    """Encoder output split by the learned gate.

    ``graph_part + time_part == combined`` holds exactly by construction and
    every gate entry lies strictly inside (0, 1).
    """

    combined: Tensor
    gate: Tensor
    time_part: Tensor

    @functools.cached_property
    def graph_part(self) -> Tensor:
        """gate * combined, formed on first read on whatever tape is active
        then: inner steps read only the time part, so they never form it."""
        return nx.hadamard(self.gate, self.combined)


@dataclass(frozen=True)
class MlpHead:
    """Two linear layers with a ReLU between, addressed by parameter names."""

    role: str
    in_dim: int
    hidden_dim: int
    out_dim: int

    def __post_init__(self):
        if self.role not in HEAD_ROLES:
            raise ValidationError(f"unknown head role {self.role!r}")

    @property
    def parameter_names(self) -> tuple[str, ...]:
        r = self.role
        return (f"{r}_w1", f"{r}_b1", f"{r}_w2", f"{r}_b2")

    def apply(self, params: ParameterSet, x: Tensor) -> Tensor:
        w1 = params[self.parameter_names[0]]
        if x.shape[1] != w1.shape[0]:
            raise ShapeError(
                f"{self.role}: input width {x.shape[1]} != expected {w1.shape[0]}"
            )
        _, b1, w2, b2 = (params[n] for n in self.parameter_names)
        hidden = nx.relu(nx.add(nx.matmul(x, w1), b1))
        return nx.add(nx.matmul(hidden, w2), b2)

    def apply_pairs(self, params: ParameterSet, h: Tensor, plan: nx.PairPlan) -> Tensor:
        """``apply`` on the rows [h_u, h_v] of every pair (u, v) of ``plan``
        (an edge batch's :attr:`~ledg.graphdata.TaskBatch.pair_plan`).

        The first layer on a pair is h_u W1[:d] + h_v W1[d:], so every node
        row is projected once by each half of W1. The hidden layer
        relu(first[u] + second[v] + b1) is one ``pair_hidden`` node, whose
        (M, hidden) rows are the only pair-sized output the head records.
        The same arithmetic as ``pair_logits``' first output, recorded on the
        active tape.
        """
        w1, b1, w2, b2 = (params[n] for n in self.parameter_names)
        d = h.shape[1]
        if 2 * d != w1.shape[0]:
            raise ShapeError(f"{self.role}: pair width {2 * d} != expected {w1.shape[0]}")
        first = nx.matmul(h, nx.gather_rows(w1, np.arange(d)))
        second = nx.matmul(h, nx.gather_rows(w1, np.arange(d, 2 * d)))
        hidden = nx.pair_hidden(first, second, b1, plan)
        return nx.add(nx.matmul(hidden, w2), b2)

    def pair_logits(self, params: ParameterSet, h: np.ndarray, items: np.ndarray):
        """Untaped ``apply_pairs`` on both endpoint orders of every pair
        (u, v) in ``items``, as two arrays; the first equals ``apply_pairs``
        bit for bit.

        Both orders gather the same two node projections, and the hidden
        layer is ``pair_hidden``'s kernel, which works in place on one
        (M, hidden) array; that matters at evaluation's negative ratios.
        """
        w1, b1, w2, b2 = (params[n].data for n in self.parameter_names)
        d = h.shape[1]
        if 2 * d != w1.shape[0]:
            raise ShapeError(f"{self.role}: pair width {2 * d} != expected {w1.shape[0]}")
        first, second = h @ w1[:d], h @ w1[d:]
        u, v = items[:, 0], items[:, 1]
        forward = nx.pair_hidden_rows(first, second, b1, u, v) @ w2 + b2
        backward = nx.pair_hidden_rows(first, second, b1, v, u) @ w2 + b2
        return forward, backward


def _glorot(rng, fan_in: int, fan_out: int, shape) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def init_parameters(spec: ModelSpec, seed: int) -> ParameterSet:
    """Fresh Glorot-uniform weights and zero biases, deterministic in seed."""
    rng = np.random.default_rng(seed_from(seed, "init"))
    cfg = spec.encoder
    tensors: dict[str, Tensor] = {}
    gnn_names = []
    d_in = cfg.input_dim
    for layer in range(1, cfg.num_layers + 1):
        name = f"gnn_w{layer}"
        tensors[name] = _glorot(rng, d_in, cfg.hidden_dim, (d_in, cfg.hidden_dim))
        gnn_names.append(name)
        if cfg.base_model == "attention":
            for side in ("al", "ar"):
                vname = f"gnn_{side}{layer}"
                tensors[vname] = _glorot(rng, cfg.hidden_dim, 1, (cfg.hidden_dim, 1))
                gnn_names.append(vname)
        d_in = cfg.hidden_dim
    groups = {"gnn": tuple(gnn_names)}
    for role, head in spec.heads.items():
        w1, b1, w2, b2 = head.parameter_names
        tensors[w1] = _glorot(rng, head.in_dim, head.hidden_dim, (head.in_dim, head.hidden_dim))
        tensors[b1] = Tensor(np.zeros((1, head.hidden_dim)), requires_grad=True)
        tensors[w2] = _glorot(rng, head.hidden_dim, head.out_dim, (head.hidden_dim, head.out_dim))
        tensors[b2] = Tensor(np.zeros((1, head.out_dim)), requires_grad=True)
        groups[role] = head.parameter_names
    return ParameterSet(tensors, groups)


def _activate(x: Tensor, activation: str) -> Tensor:
    return nx.relu(x) if activation == "relu" else x


def encode(snapshot: SnapshotGraph, params: ParameterSet, config: EncoderConfig) -> Tensor:
    """Run the message-passing encoder over one snapshot.

    Both bases propagate with ``spmm`` over the 2E + N self-looped neighbour
    pairs, the snapshot's checked plan (:meth:`SnapshotGraph.neighbourhood`);
    they differ in the pair weights. The gcn base stacks
    ``h <- act(A_hat h W)`` layers with the normalized adjacency's values
    (:attr:`SnapshotGraph.normalized_adjacency`).
    The attention base scores each (target, source) pair additively,
    leaky-ReLUs the score, softmax-normalizes over the target's
    neighbourhood and aggregates ``spmm(alpha, wh)`` before the activation;
    single head. On :class:`IdentityFeatures` the first layer's ``X @ W1``
    is ``gnn_w1`` itself: GCN's first layer is ``spmm(a_hat, gnn_w1)``, the
    same BLAS product on the same operands as ``(A_hat I) W1``, and
    attention's first ``wh`` is ``gnn_w1``. The tape holds no N x N matrix;
    only ``spmm``'s kernel forms a transient dense one, as a BLAS product
    beats a numpy segment sum here.
    """
    if snapshot.feature_width != config.input_dim:
        raise ShapeError(
            f"snapshot feature width {snapshot.feature_width} != config input_dim {config.input_dim}"
        )
    # None stands for identity features, whose product with W is W
    h = None if isinstance(snapshot.features, IdentityFeatures) else snapshot.features
    plan = snapshot.neighbourhood()
    if config.base_model == "gcn":
        a_hat = snapshot.normalized_adjacency
        for layer in range(1, config.num_layers + 1):
            w = params[f"gnn_w{layer}"]
            h = nx.spmm(a_hat, w, plan) if h is None else nx.matmul(nx.spmm(a_hat, h, plan), w)
            h = _activate(h, config.activation)
        return h

    for layer in range(1, config.num_layers + 1):
        w = params[f"gnn_w{layer}"]
        wh = w if h is None else nx.matmul(h, w)
        left = nx.matmul(wh, params[f"gnn_al{layer}"])
        right = nx.matmul(wh, params[f"gnn_ar{layer}"])
        scores = nx.add(nx.gather_rows(left, plan.rows), nx.gather_rows(right, plan.cols))
        alpha = nx.segment_softmax(nx.leaky_relu(scores, ATTENTION_SLOPE), plan)
        h = _activate(nx.spmm(alpha, wh, plan), config.activation)
    return h


def disentangle(h: Tensor, params: ParameterSet, spec: ModelSpec) -> EmbeddingBundle:
    """Split embeddings by the sigmoid gate of the adapter head.

    gate = sigmoid(adapter(h)); the graph-intrinsic part is gate * h, the
    time-varying part is (1 - gate) * h, so the two parts sum back to h
    exactly. The graph part is formed only when read
    (:attr:`EmbeddingBundle.graph_part`).
    """
    gate = nx.sigmoid(spec.heads["adapter"].apply(params, h))
    time_part = nx.hadamard(nx.one_minus(gate), h)
    return EmbeddingBundle(combined=h, gate=gate, time_part=time_part)


def embed(snapshot: SnapshotGraph, params: ParameterSet, spec: ModelSpec) -> EmbeddingBundle:
    """encode then disentangle."""
    return disentangle(encode(snapshot, params, spec.encoder), params, spec)


def head_logits(
    params: ParameterSet, spec: ModelSpec, role: str, h: Tensor, batch: TaskBatch
) -> Tensor:
    """Logits of one classifier head for a batch, read from node rows ``h``:
    on the pairs of an edge batch, on the gathered rows of a node batch."""
    if batch.kind != spec.batch_kind:
        raise ContractError(
            f"task {spec.task!r} needs {spec.batch_kind!r} batches, got {batch.kind!r}"
        )
    head = spec.heads[role]
    if batch.kind == "edge":
        return head.apply_pairs(params, h, batch.pair_plan)
    return head.apply(params, nx.gather_rows(h, batch.items))


def time_loss(time_part: Tensor, params: ParameterSet, spec: ModelSpec, target_time: float) -> Tensor:
    """Robust regression loss of the predicted window position.

    Mean-pools the time-varying embedding rows, regresses a single real
    with the time-predictor head, and applies the smooth L1 penalty
    0.5 x^2 for |x| < 1 and |x| - 0.5 beyond to the residual. Returns a 1x1
    tensor.
    """
    pooled = nx.mean_pool(time_part)
    predicted = spec.heads["time_predictor"].apply(params, pooled)
    residual = nx.add_scalar(predicted, -float(target_time))
    return nx.smooth_l1(residual)


def task_predict(bundle: EmbeddingBundle, params: ParameterSet, spec: ModelSpec, batch: TaskBatch) -> Tensor:
    """Class probabilities for a batch: softmax of the two heads' summed logits.

    One head reads the time-varying embedding part, the other the
    graph-intrinsic part (:func:`head_logits`).
    """
    logits_time = head_logits(params, spec, "classifier_time", bundle.time_part, batch)
    logits_graph = head_logits(params, spec, "classifier_graph", bundle.graph_part, batch)
    return nx.softmax_rows(nx.add(logits_time, logits_graph))


def symmetric_pair_probabilities(params: ParameterSet, spec: ModelSpec, parts, items) -> np.ndarray:
    """Class probabilities of (u, v) pairs averaged over both endpoint orders,
    computed untaped.

    ``parts`` lists (classifier head role, node embedding array) pairs; per
    order the heads' logits are summed, in the listed order, before one
    softmax, as in :func:`task_predict` (whose two heads read the time and
    graph parts of a bundle). Each head projects node rows once
    (:meth:`MlpHead.pair_logits`), so the cost grows with nodes plus pairs.
    """
    if spec.batch_kind != "edge":
        raise ContractError(f"task {spec.task!r} has no edge pairs to score")
    forward = backward = 0.0
    for role, h in parts:
        f, b = spec.heads[role].pair_logits(params, h, items)
        forward, backward = forward + f, backward + b
    forward, backward = (nx.softmax_rows(Tensor(x)).data for x in (forward, backward))
    return 0.5 * (forward + backward)


def task_loss(predictions: Tensor, labels) -> Tensor:
    """Mean cross-entropy of predicted class probabilities, as a 1x1 tensor.

    Probabilities are clamped at 1e-12 before the log so saturated rows stay
    finite.
    """
    labels = np.asarray(labels, dtype=np.int64)
    b, c = predictions.shape
    if labels.shape != (b,):
        raise ValidationError(f"need {b} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValidationError(f"labels outside class range [0, {c})")
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    picked = nx.sums(nx.hadamard(predictions, Tensor(onehot)), 1)
    logs = nx.log(nx.clamp_min(picked, PROB_FLOOR))
    return nx.mul_scalar(nx.sums(logs, None), -1.0 / b)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(params: ParameterSet, spec: ModelSpec, path, extra_meta: dict | None = None) -> None:
    """Write parameters plus their shapes and model spec to an npz file."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "groups": {g: list(params.group_names(g)) for g in params.groups},
        "encoder": dataclasses.asdict(spec.encoder),
        "task": spec.task,
        "num_classes": spec.num_classes,
        "extra": extra_meta or {},
    }
    arrays = {name: params[name].data for name in params.names}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _meta_field(path, table: dict, key: str, kind: type):
    if isinstance(table.get(key), kind) and not isinstance(table[key], bool):
        return table[key]
    raise DatasetError(f"{path} checkpoint meta: {key!r} is missing or not of type {kind.__name__}")


def load_checkpoint(path) -> tuple[ParameterSet, ModelSpec, dict]:
    """Load a checkpoint. A file that is not an npz archive, a member that
    fails its checksum or holds objects, a missing or non-JSON ``__meta__``
    entry, an unknown format, a missing or mistyped meta field, a spec its
    class refuses, a group the spec has not and a missing, non-numeric or
    mis-shaped tensor are each a DatasetError whose message starts with the
    path."""
    if not zipfile.is_zipfile(path):
        raise DatasetError(f"{path} is not a readable checkpoint: not an npz archive")
    try:
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
    except (ValueError, zipfile.BadZipFile) as exc:
        raise DatasetError(f"{path} is not a readable checkpoint: {exc}") from None
    try:
        meta = json.loads(arrays.pop("__meta__").tobytes().decode())
    except (KeyError, ValueError):
        raise DatasetError(f"{path} is not a checkpoint: no JSON __meta__ entry") from None
    found = meta.get("format") if isinstance(meta, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise DatasetError(f"{path}: unknown checkpoint format {found!r}, expected {CHECKPOINT_FORMAT}")
    enc = _meta_field(path, meta, "encoder", dict)
    encoder = {
        f.name: _meta_field(path, enc, f.name, type(f.default))
        for f in dataclasses.fields(EncoderConfig)
    }
    groups = _meta_field(path, meta, "groups", dict)
    if not all(isinstance(names, list) and all(isinstance(n, str) for n in names)
               for names in groups.values()):
        raise DatasetError(f"{path} checkpoint meta: a group is not a list of tensor names")
    for name, array in arrays.items():
        if array.dtype.kind not in "biuf":
            raise DatasetError(f"{path}: checkpoint tensor {name!r} is not numeric")
    try:
        spec = ModelSpec(
            EncoderConfig(**encoder),
            task=_meta_field(path, meta, "task", str),
            num_classes=_meta_field(path, meta, "num_classes", int),
        )
        expected = init_parameters(spec, seed=0)
        for group in groups:
            if group not in expected.groups:
                raise ValidationError(f"unknown parameter group {group!r}")
        params = ParameterSet(
            {name: Tensor(arrays[name], requires_grad=True)
             for names in groups.values() for name in names if name in arrays},
            {group: tuple(names) for group, names in groups.items()},
        )
    except (ShapeError, ValidationError) as exc:
        raise DatasetError(f"{path} checkpoint: {exc}") from None
    for name in expected.names:
        if name not in params or params[name].shape != expected[name].shape:
            raise DatasetError(f"{path}: checkpoint tensor {name!r} missing or mis-shaped for its model spec")
    return params, spec, _meta_field(path, meta, "extra", dict)
