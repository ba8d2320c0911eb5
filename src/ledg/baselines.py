"""Static GCN baseline: one encoder plus one classifier head, trained by
accumulating task gradients over every training snapshot and stepping once
per epoch. No adaptation, no time loss.

A static model has no notion of time, so once training ends its node
representations are frozen: evaluation embeds the last training snapshot
and reuses those embeddings for every later time. Training is kept
protocol-compatible with the episodic trainer (same target times, same
structure mode, same batch sampling seeds) so comparisons isolate the
method rather than the data pipeline.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nx
from .errors import ConfigError
from .graphdata import DynamicGraphSequence, SnapshotGraph, TaskBatch
from .meta import SgdStep, TrainingConfig, build_window, training_batch, training_targets
from .model import (
    ModelSpec,
    encode,
    head_logits,
    init_parameters,
    symmetric_pair_probabilities,
    task_loss,
)
from .numerics import ParameterSet, Tape, Tensor


def init_static_parameters(spec: ModelSpec, seed: int) -> ParameterSet:
    """Encoder plus single classifier head, sharing the full model's init values."""
    full = init_parameters(spec, seed)
    groups = {group: full.group_names(group) for group in ("gnn", "classifier_graph")}
    return ParameterSet({name: full[name] for names in groups.values() for name in names}, groups)


def static_predict(
    snapshot: SnapshotGraph, params: ParameterSet, spec: ModelSpec, batch: TaskBatch
) -> Tensor:
    """Class probabilities from the plain encoder and the single head."""
    h = encode(snapshot, params, spec.encoder)
    return nx.softmax_rows(head_logits(params, spec, "classifier_graph", h, batch))


def static_scorer(sequence: DynamicGraphSequence, params: ParameterSet, spec: ModelSpec):
    """Edge scorer that embeds the last training snapshot, whatever time is asked.

    Static models never observe post-training structure; their embeddings
    are computed once, when the scorer is built, and go stale as the graph
    drifts. Each batch gets the positive-class probability averaged over
    both endpoint orders, on that embedding.
    """
    frozen = sequence.snapshot_at(sequence.split[0])
    parts = (("classifier_graph", encode(frozen, params, spec.encoder)),)

    def scorer(batch: TaskBatch) -> np.ndarray:
        return symmetric_pair_probabilities(params, spec, parts, batch.items)[:, 1]

    return scorer


def train_static_gcn(
    sequence: DynamicGraphSequence,
    spec: ModelSpec,
    config: TrainingConfig,
) -> tuple[ParameterSet, list[float]]:
    """Accumulated-gradient training: sum the task loss over every training
    target, then take one gradient step per epoch.

    Ignores ``eta_in``, ``lambda_time`` and ``outer_optimizer``; takes plain
    SGD steps of size ``eta_out``, encodes each target on the trainer's
    structure snapshot and uses the trainer's batch-sampling seeds. Returns
    the trained parameters and the per-epoch summed losses.
    """
    targets = training_targets(config, sequence.split[0])
    params = init_static_parameters(spec, config.seed)
    optimizer = SgdStep(config.eta_out)
    losses = []
    for epoch in range(1, config.epochs + 1):
        tape = Tape()
        total = None
        with tape:
            for t in targets:
                batch = training_batch(sequence, t, config, epoch)
                if batch is None:
                    continue
                structure = build_window(sequence, t, config).structure_snapshot
                predictions = static_predict(structure, params, spec, batch)
                loss = task_loss(predictions, batch.labels)
                total = loss if total is None else nx.add(total, loss)
            if total is None:
                raise ConfigError("no training target produced a batch")
            pairs = params.items_in()
            grads = tape.gradient(total, [tensor for _, tensor in pairs])
        params = optimizer.apply(params, {name: g for (name, _), g in zip(pairs, grads)})
        losses.append(total.item())
    return params, losses
