"""Episodic meta-training over snapshot windows.

Every training episode targets one snapshot time t. The inner loop walks the
w-snapshot window before (and, in the default mode, including) t, taking one
SGD step per window snapshot on the self-supervised time-regression loss;
only the encoder and adapter groups move. The outer loop then differentiates
the summed target-snapshot objective (task loss plus a weighted time loss,
evaluated at every intermediate adapted state) with respect to the original
parameters and updates all groups. With ``gradient_mode="exact"`` the inner
gradients are recorded, so the outer gradient flows through them; with
``"first_order"`` they are constants, which yields the cheaper first-order
approximation. With eta_in = 0 both modes collapse, bit for bit, to joint
training.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numerics as nx
from .errors import ConfigError, ContractError, NumericalError, ValidationError
from .graphdata import (
    DynamicGraphSequence,
    SnapshotGraph,
    TaskBatch,
    seed_from,
    supervised_batch,
)
from .model import (
    EmbeddingBundle,
    ModelSpec,
    embed,
    init_parameters,
    task_loss,
    task_predict,
    time_loss,
)
from .numerics import ParameterSet, Tape, Tensor, l2_norm


#: the only parameter groups the inner adaptation loop modifies
INNER_LOOP_GROUPS = ("gnn", "adapter")

GRADIENT_MODES = ("first_order", "exact")
STRUCTURE_MODES = ("same_snapshot", "previous_snapshot")
OUTER_OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of the episodic training loop.

    ``eta_in`` left unset defaults to ten times ``eta_out``. Setting
    ``eta_in`` to zero disables adaptation entirely (the joint-training
    ablation). ``target_structure_mode`` picks whether the window ends at
    the target snapshot itself (``same_snapshot``) or one step earlier
    (``previous_snapshot``, which also encodes the target batch with the
    previous snapshot's structure and never touches the target's edges).
    Every invalid field is named in one ValidationError; the rates must be
    finite.
    """

    window_size: int = 5
    eta_out: float = 0.002
    eta_in: float | None = None
    lambda_time: float = 0.1
    gradient_mode: str = "first_order"
    target_structure_mode: str = "same_snapshot"
    epochs: int = 20
    seed: int = 0
    outer_optimizer: str = "sgd"
    train_negative_ratio: int = 1
    early_stop_patience: int | None = None

    def __post_init__(self):
        if self.eta_in is None:
            object.__setattr__(self, "eta_in", 10.0 * self.eta_out)
        problems = []
        if self.window_size < 1:
            problems.append("window_size must be at least 1")
        # each rate check is written so that NaN fails it
        if not 0 < self.eta_out < math.inf:
            problems.append("eta_out must be positive and finite")
        if not 0 <= self.eta_in < math.inf:
            problems.append("eta_in must be nonnegative and finite")
        if not 0 <= self.lambda_time < math.inf:
            problems.append("lambda_time must be nonnegative and finite")
        if self.gradient_mode not in GRADIENT_MODES:
            problems.append(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.target_structure_mode not in STRUCTURE_MODES:
            problems.append(f"target_structure_mode must be one of {STRUCTURE_MODES}")
        if self.epochs < 0:
            problems.append("epochs must be nonnegative")
        if self.seed < 0:
            problems.append("seed must be nonnegative")
        if self.outer_optimizer not in OUTER_OPTIMIZERS:
            problems.append(f"outer_optimizer must be one of {OUTER_OPTIMIZERS}")
        if self.train_negative_ratio < 1:
            problems.append("train_negative_ratio must be at least 1")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            problems.append("early_stop_patience must be at least 1 when set")
        if problems:
            raise ValidationError("; ".join(problems))


@dataclass(frozen=True)
class EpisodeWindow:
    """The w snapshots adapted over for one target time.

    ``snapshots[i-1]`` carries relative index i (i = 1..w). The last one is
    the structure snapshot in both structure modes (see :func:`build_window`).
    """

    target_time: int
    snapshots: tuple[SnapshotGraph, ...]

    @property
    def size(self) -> int:
        return len(self.snapshots)

    @property
    def structure_snapshot(self) -> SnapshotGraph:
        """The snapshot whose adjacency and features encode the target batch."""
        return self.snapshots[-1]

    @property
    def target_regression_index(self) -> int:
        """The target's relative index under the window's re-indexing: w when
        the window ends at the target, w+1 when it ends one step earlier."""
        return self.size + self.target_time - self.snapshots[-1].time_index


def earliest_target_time(config: TrainingConfig) -> int:
    """Smallest t whose whole window lies within the sequence (times >= 1)."""
    w = config.window_size
    return w if config.target_structure_mode == "same_snapshot" else w + 1


def training_targets(config: TrainingConfig, train_end: int) -> range:
    """The target times a training epoch sweeps, in order, from
    :func:`earliest_target_time` to ``train_end``; ConfigError if none."""
    targets = range(earliest_target_time(config), train_end + 1)
    if not targets:
        raise ConfigError(
            f"window_size {config.window_size} leaves no training target in the "
            f"{train_end} training snapshots in {config.target_structure_mode} mode"
        )
    return targets


def build_window(sequence: DynamicGraphSequence, t: int, config: TrainingConfig) -> EpisodeWindow:
    """Assemble the episode window for target time t.

    In same_snapshot mode the window covers times t-w+1 .. t, in
    previous_snapshot mode t-w .. t-1; in both, the window's last snapshot
    is the structure snapshot that encodes the target batch.
    """
    w = config.window_size
    first = earliest_target_time(config)
    if t < first:
        raise ValidationError(
            f"target time {t} needs window snapshots before time 1 "
            f"(earliest valid target is {first})"
        )
    if t > len(sequence):
        raise ValidationError(f"target time {t} beyond last snapshot {len(sequence)}")
    # the window starts at time 1 for the earliest target and moves with t
    start = t - first + 1
    return EpisodeWindow(t, tuple(sequence.snapshot_at(i) for i in range(start, start + w)))


@dataclass(frozen=True)
class Adaptation:
    """What :func:`inner_adapt` returns and :func:`outer_step` scores.

    ``states`` are the w adapted states and ``losses`` the w inner losses.
    ``structure_bundle`` is the last inner step's embedding of the structure
    snapshot under state w-1, recorded on the episode tape, which
    :func:`outer_step` scores in place of embedding that state again; None
    when w = 1, whose only step embeds with the initial parameters.
    """

    states: list[ParameterSet]
    losses: list[float]
    structure_bundle: EmbeddingBundle | None


def inner_adapt(
    window: EpisodeWindow,
    params: ParameterSet,
    spec: ModelSpec,
    config: TrainingConfig,
    tape: Tape,
) -> Adaptation:
    """Sequential SGD on time regression over the window snapshots.

    Step i embeds window snapshot i with the current state, regresses its
    relative index i, and moves only the encoder and adapter groups by
    eta_in times the gradient. Returns all w intermediate states (each a
    full parameter set sharing the untouched heads), the w loss values and,
    for w >= 2, the last step's embedding (see :class:`Adaptation`).
    The update arithmetic runs on the given tape. Under ``config``'s exact
    gradient mode each step's forward pass and gradient are recorded there
    too, so later outer gradients flow through every step. A first-order
    update reads its gradient as a constant, so the forward pass and
    gradient of each step before the last run on a throwaway tape and only
    their updates are recorded. The last step of a window of w >= 2 embeds
    the structure snapshot with state w-1, which the outer step scores too,
    so its forward pass is recorded on the given tape in both modes; under
    first order its time-loss nodes, from ``mean_pool`` to ``smooth_l1``,
    are then the only recorded nodes the outer objective does not read.
    """
    if window.size != config.window_size:
        raise ContractError(
            f"window has {window.size} snapshots, config expects {config.window_size}"
        )
    states: list[ParameterSet] = []
    losses: list[float] = []
    current = params
    exact = config.gradient_mode == "exact"
    sgd = _SgdState(config.eta_in)
    shared = None
    with tape:
        for i, snap in enumerate(window.snapshots, start=1):
            shares = i == window.size >= 2
            step_tape = tape if exact or shares else Tape()
            with step_tape:
                bundle = embed(snap, current, spec)
                loss = time_loss(bundle.time_part, current, spec, target_time=float(i))
                names, tensors = zip(*current.items_in(*INNER_LOOP_GROUPS))
                grads = step_tape.gradient(loss, list(tensors), create_graph=exact)
            if shares:
                shared = bundle
            current = sgd.apply(current, dict(zip(names, grads)))
            states.append(current)
            losses.append(loss.item())
    return Adaptation(states, losses, shared)


@dataclass(frozen=True)
class EpisodeRecord:
    """One structured log line per (epoch, target time)."""

    epoch: int
    target_time: int
    inner_losses: tuple[float, ...]
    task_loss_sum: float
    time_loss_sum: float
    objective: float
    grad_norm: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class _SgdState:
    """One plain gradient step, p - eta * g, for the inner and outer loops.

    The step is built from tape primitives, so the active tape records it;
    on no tape the new parameters stay tracked. Adding ``(-eta) * g`` gives the
    difference's bits, and ``add`` passes its adjoint on with no op to record.
    """

    def __init__(self, eta: float):
        self.eta = eta

    def apply(self, params: ParameterSet, grads: dict[str, Tensor]) -> ParameterSet:
        updates = {
            name: nx.add(params[name], nx.mul_scalar(g, -self.eta)) for name, g in grads.items()
        }
        return params.with_updates(updates)


class _AdamState:
    """Plain adaptive-moment estimation with bias correction.

    The moments are flat vectors over every updated tensor, laid out in the
    first step's name order and updated in place. Each entry sees the same
    elementwise arithmetic, in the same operand order, as a per-tensor
    update, so it gets the same bits.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, eta: float):
        self.eta = eta
        self.step = 0
        self.shapes: dict[str, tuple[int, int]] = {}
        self._slices: list[slice] = []
        self.m = self.v = np.empty(0)

    def apply(self, params: ParameterSet, grads: dict[str, Tensor]) -> ParameterSet:
        if self.step == 0:
            self.shapes = {name: g.shape for name, g in grads.items()}
            ends = np.cumsum([g.size for g in grads.values()]).tolist()
            self._slices = [slice(a, b) for a, b in zip([0, *ends], ends)]
            self.m, self.v = np.zeros(ends[-1]), np.zeros(ends[-1])
        elif grads.keys() != self.shapes.keys():
            raise ContractError(
                f"adam step {self.step + 1} updates {sorted(grads)},"
                f" but step 1 updated {sorted(self.shapes)}"
            )
        names = self.shapes
        g = np.concatenate([grads[name].data.ravel() for name in names])
        current = np.concatenate([params[name].data.ravel() for name in names])
        self.step += 1
        m, v = self.m, self.v
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g
        scratch = np.multiply(g, 1 - self.beta1)
        m *= self.beta1
        m += scratch
        np.multiply(g, 1 - self.beta2, out=scratch)
        scratch *= g
        v *= self.beta2
        v += scratch
        # current - eta m_hat / (sqrt(v_hat) + eps), with g as the second scratch
        np.divide(m, 1 - self.beta1**self.step, out=scratch)
        scratch *= self.eta
        np.divide(v, 1 - self.beta2**self.step, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        scratch /= g
        current -= scratch
        return params.with_updates(
            {
                name: Tensor._raw(current[part].reshape(shape), True)
                for (name, shape), part in zip(names.items(), self._slices)
            }
        )


def _make_optimizer(config: TrainingConfig):
    if config.outer_optimizer == "adam":
        return _AdamState(config.eta_out)
    return _SgdState(config.eta_out)


def outer_step(
    window: EpisodeWindow,
    adaptation: Adaptation,
    target_batch: TaskBatch,
    params: ParameterSet,
    spec: ModelSpec,
    config: TrainingConfig,
    tape: Tape,
    optimizer=None,
    epoch: int = 0,
) -> tuple[ParameterSet, EpisodeRecord]:
    """One meta-update from the summed target losses over all adapted states.

    The objective is sum over i of task_loss_i + lambda * time_loss_i, with
    every term computed on the target batch using adapted state i and the
    window's structure snapshot; the time term regresses the target's
    relative index. The adaptation's ``structure_bundle``, the embedding of
    the structure snapshot under state w-1 that :func:`inner_adapt` recorded
    on ``tape``, is scored for that state instead of embedding it again, so
    an episode encodes 2w - 1 times; without it every state is embedded.
    The gradient is taken with respect to the original (pre-adaptation)
    parameters on the same tape that recorded the inner updates and every
    group is moved by one step of ``optimizer`` (a fresh one of the config's
    ``outer_optimizer`` kind when none is given). Nothing differentiates
    this gradient again, so it is not recorded. Returns the new parameters
    and the episode's record, under ``epoch``.
    """
    states = adaptation.states
    if len(states) != window.size:
        raise ContractError(f"got {len(states)} adapted states for a window of {window.size}")
    if target_batch is None:
        raise ContractError("outer_step needs the target snapshot's task batch")
    if optimizer is None:
        optimizer = _make_optimizer(config)
    shared_index = window.size - 2 if adaptation.structure_bundle is not None else None
    task_total = None
    time_total = None
    with tape:
        for i, state in enumerate(states):
            if i == shared_index:
                bundle = adaptation.structure_bundle
            else:
                bundle = embed(window.structure_snapshot, state, spec)
            predictions = task_predict(bundle, state, spec, target_batch)
            l_task = task_loss(predictions, target_batch.labels)
            l_time = time_loss(
                bundle.time_part, state, spec, float(window.target_regression_index)
            )
            task_total = l_task if task_total is None else nx.add(task_total, l_task)
            time_total = l_time if time_total is None else nx.add(time_total, l_time)
        objective = nx.add(task_total, nx.mul_scalar(time_total, config.lambda_time))
        pairs = params.items_in()
        grads = tape.gradient(objective, [tensor for _, tensor in pairs])
    grad_map = {name: g for (name, _), g in zip(pairs, grads)}
    new_params = optimizer.apply(params, grad_map)
    record = EpisodeRecord(
        epoch=epoch,
        target_time=window.target_time,
        inner_losses=tuple(adaptation.losses),
        task_loss_sum=task_total.item(),
        time_loss_sum=time_total.item(),
        objective=objective.item(),
        grad_norm=l2_norm(grads),
    )
    return new_params, record


def _episode_seed(config: TrainingConfig, epoch: int) -> int:
    """Negative-sampling seed of every training batch in an epoch."""
    return int(seed_from(config.seed, "episode", epoch).generate_state(1)[0])


def run_episode(
    sequence: DynamicGraphSequence,
    t: int,
    params: ParameterSet,
    spec: ModelSpec,
    config: TrainingConfig,
    epoch: int = 0,
    optimizer=None,
) -> tuple[ParameterSet, EpisodeRecord | None]:
    """Inner adaptation plus outer update for one target time.

    Returns the parameters unchanged (and no record) when the target
    snapshot offers no supervised items.
    """
    target_batch = supervised_batch(
        sequence.snapshot_at(t),
        sequence.task,
        config.train_negative_ratio,
        "train",
        _episode_seed(config, epoch),
    )
    if target_batch is None:
        return params, None
    window = build_window(sequence, t, config)
    tape = Tape()
    adaptation = inner_adapt(window, params, spec, config, tape)
    return outer_step(
        window, adaptation, target_batch, params, spec, config, tape, optimizer, epoch
    )


@dataclass
class TrainResult:
    params: ParameterSet
    records: list[EpisodeRecord] = field(default_factory=list)
    epoch_objectives: list[float] = field(default_factory=list)
    val_scores: list[float] = field(default_factory=list)
    stopped_early: bool = False


def train(
    sequence: DynamicGraphSequence,
    spec: ModelSpec,
    config: TrainingConfig,
    val_hook=None,
    log_hook=None,
) -> TrainResult:
    """Run episodic training over the training split.

    Each epoch sweeps target times in strict temporal order from the
    earliest complete window to the end of the training split, updating the
    parameters after every episode. ``val_hook(params, epoch) -> float``
    (higher is better) selects the best-scoring epoch's parameters and, when
    ``early_stop_patience`` is set, stops after that many non-improving
    epochs; ``log_hook(record)`` sees every finite episode record as it is
    made. Raises ConfigError when ``early_stop_patience`` is set without a
    ``val_hook`` or no target of an epoch has a supervised batch, and
    NumericalError at the first episode whose inner losses, objective or
    gradient norm are not finite. Deterministic given (sequence, spec,
    config).
    """
    if config.early_stop_patience is not None and val_hook is None:
        raise ConfigError("early_stop_patience needs a val_hook to score each epoch")
    targets = training_targets(config, sequence.split[0])
    params = init_parameters(spec, config.seed)
    result = TrainResult(params=params)
    optimizer = _make_optimizer(config)
    best_score = -np.inf
    best_params = params
    stale = 0
    for epoch in range(1, config.epochs + 1):
        epoch_total = 0.0
        count = 0
        for t in targets:
            params, record = run_episode(
                sequence, t, params, spec, config, epoch=epoch, optimizer=optimizer
            )
            if record is None:
                continue
            _require_finite(record)
            result.records.append(record)
            if log_hook is not None:
                log_hook(record)
            epoch_total += record.objective
            count += 1
        if count == 0:
            raise ConfigError("no training target produced a batch")
        result.epoch_objectives.append(epoch_total / count)
        if val_hook is not None:
            score = float(val_hook(params, epoch))
            result.val_scores.append(score)
            if score > best_score:
                best_score = score
                best_params = params
                stale = 0
            else:
                stale += 1
            if config.early_stop_patience is not None and stale >= config.early_stop_patience:
                result.stopped_early = True
                break
    result.params = params if val_hook is None else best_params
    return result


def _require_finite(record: EpisodeRecord) -> None:
    """Raise NumericalError at the first non-finite value of an episode,
    naming its epoch, target time and inner step."""
    where = f"training went non-finite at epoch {record.epoch}, target time {record.target_time}"
    for step, loss in enumerate(record.inner_losses, start=1):
        if not np.isfinite(loss):
            raise NumericalError(f"{where}, inner step {step}: inner loss {loss}")
    last = len(record.inner_losses)
    for name in ("objective", "grad_norm"):
        value = getattr(record, name)
        if not np.isfinite(value):
            raise NumericalError(f"{where}, outer step after inner step {last}: {name} {value}")


def adapt_and_predict(
    sequence: DynamicGraphSequence,
    params: ParameterSet,
    t: int,
    spec: ModelSpec,
    config: TrainingConfig,
) -> tuple[EmbeddingBundle, ParameterSet]:
    """Adapt to the window ending at evaluation time t and embed the snapshot
    that encodes t's batch.

    Only the self-supervised time-regression loss drives the adaptation, so
    the target's task labels are never consulted before prediction (and in
    previous_snapshot mode the target snapshot is not looked at at all).
    Updates are functional, so the caller's parameters stay untouched.
    Returns (bundle, adapted_params); ``task_predict(bundle, adapted_params,
    spec, batch)`` predicts any batch at t.

    Adapted values do not depend on the gradient mode and nothing
    differentiates through them, so the adaptation always runs first order
    (an exact one would only record a backward pass that nobody reads), and
    the final embedding runs on no tape at all.
    """
    window = build_window(sequence, t, config)
    first_order = replace(config, gradient_mode="first_order")
    final_state = inner_adapt(window, params, spec, first_order, Tape()).states[-1]
    return embed(window.structure_snapshot, final_state, spec), final_state
