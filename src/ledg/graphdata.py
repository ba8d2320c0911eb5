"""Snapshot sequences, adjacency normalization, ingestion, and a drifting
stochastic block model generator.

A dynamic graph is a time-ordered list of snapshots over one fixed node
universe (the union of every node ever seen). Nodes absent from a snapshot
simply have no incident edges there. All randomness flows through numpy
``SeedSequence`` so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError, ParseError, ValidationError
from .numerics import PairPlan, Tensor, frozen


TASKS = ("link_prediction", "edge_classification", "node_classification")

DATASET_FORMAT = "TGDS3"

#: the default train and validation shares of a sequence's snapshots, for the
#: library and the CLI alike; the test part is the rest
TRAIN_FRAC, VAL_FRAC = 0.75, 0.10

#: fixed-interval bucketing refuses more snapshots than this many per data
#: line, or than MIN_BUCKET_LIMIT when that is larger: a wide timestamp span
#: at a fine interval would otherwise write one snapshot per empty bucket
MAX_BUCKETS_PER_LINE = 10
MIN_BUCKET_LIMIT = 1000

#: edge-class labels must lie below the data line count or MIN_CLASS_LIMIT,
#: whichever is larger: a classifier head has one output column per class
MIN_CLASS_LIMIT = 1000

#: the SBM generator draws a snapshot's N x N uniforms this many rows at a
#: time from one stream, so its pairs, in their order, are those of one draw
SBM_BLOCK_ROWS = 256


def seed_from(base: int, *labels) -> np.random.SeedSequence:
    """Derive a child seed from a base seed plus arbitrary tag labels.

    Integer labels are used directly; anything else is hashed to 32 bits,
    once per distinct label text. Same (base, labels) always gives the same
    stream.
    """
    parts = [int(base)]
    for lab in labels:
        if isinstance(lab, (int, np.integer)):
            parts.append(int(lab) & 0xFFFFFFFF)
        else:
            parts.append(_label_word(str(lab)))
    return np.random.SeedSequence(parts)


@functools.lru_cache(maxsize=256)
def _label_word(label: str) -> int:
    # the few tags the library uses ("episode", "negatives", "train", ...)
    # recur in every sampled batch
    return int.from_bytes(hashlib.blake2s(label.encode(), digest_size=4).digest(), "big")


class IdentityFeatures:
    """One-hot node-id features of ``num_nodes`` nodes, the N x N identity,
    held as this mark instead of an array.

    The encoder reads a first-layer product ``I @ W`` as ``W`` itself, so
    nothing forms the identity: a dataset directory stores the mark as
    ``features=identity`` in its ``meta``. One mark can serve every snapshot
    of a sequence.
    """

    __slots__ = ("num_nodes",)

    def __init__(self, num_nodes: int):
        self.num_nodes = int(num_nodes)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_nodes, self.num_nodes)


class SnapshotGraph:
    """One undirected graph snapshot over the global node universe.

    The edges are stored once, as read-only arrays: ``pairs`` (E, 2) int64
    with ``u < v`` sorted by ``u * n + v`` and ``edge_labels`` (E,) int64 or
    None. There are no self-loops and no duplicates, and an edge carries no
    weight: both encoders read only which pairs a snapshot holds.
    ``features`` is an (N, F) Tensor of finite numbers, or for one-hot node
    ids an :class:`IdentityFeatures` mark of width N, which holds no array
    (the generator's ``identity`` mode and a dataset's ``features=identity``
    make one). The neighbour pairs' checked :class:`PairPlan` and the
    normalized adjacency's values at those pairs are computed on first use
    and cached.
    """

    __slots__ = (
        "time_index",
        "num_nodes",
        "pairs",
        "edge_labels",
        "features",
        "node_labels",
        "_adjacency",
        "_neighbourhood",
    )

    def __init__(self, time_index, num_nodes, pairs, features, node_labels=None,
                 edge_labels=None):
        self.time_index = int(time_index)
        self.num_nodes = n = int(num_nodes)
        if n < 1:
            raise ValidationError("a snapshot needs at least one node")
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError(f"edge pairs must form an (E, 2) array, got shape {pairs.shape}")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        outside = (lo < 0) | (hi >= n)
        bad = outside | (lo == hi)
        if bad.any():
            first = np.argmax(bad)
            u, v = pairs[first].tolist()
            if outside[first]:
                raise ValidationError(f"edge ({u}, {v}) out of range for {n} nodes")
            raise ValidationError(f"self-loop ({u}, {u}) is not storable")
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")  # sorts the given rows into canonical order
        if np.any(np.diff(keys[order]) == 0):
            raise ValidationError("duplicate undirected edges in snapshot")
        self.pairs = frozen(np.stack((lo[order], hi[order]), axis=1))
        if edge_labels is not None:
            edge_labels = np.asarray(edge_labels, dtype=np.int64)
            if edge_labels.shape != order.shape:
                raise ValidationError(
                    f"edge_labels must have one entry per edge, got shape {edge_labels.shape}"
                )
            edge_labels = frozen(edge_labels[order])  # in canonical edge order
        self.edge_labels = edge_labels
        if not isinstance(features, (Tensor, IdentityFeatures)):
            features = Tensor(features)
        if features.shape[0] != n:
            raise ValidationError(f"feature rows {features.shape[0]} != num_nodes {n}")
        if isinstance(features, Tensor) and not np.isfinite(features.data).all():
            raise ValidationError("every feature must be a finite number")
        self.features = features
        if node_labels is not None:
            node_labels = np.asarray(node_labels, dtype=np.int64)
            if node_labels.shape != (n,):
                raise ValidationError("node_labels must have one entry per node")
            node_labels = frozen(node_labels.copy())
        self.node_labels = node_labels
        self._adjacency = None
        self._neighbourhood = None

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    @property
    def feature_width(self) -> int:
        return self.features.shape[1]

    @property
    def edges(self) -> tuple:
        """The edges as (u, v, label) tuples of Python ints, label None when
        the snapshot has no edge labels; built on every call."""
        labels = [None] * self.num_edges if self.edge_labels is None else self.edge_labels.tolist()
        return tuple(zip(*self.pairs.T.tolist(), labels))

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.num_nodes)

    @property
    def normalized_adjacency(self) -> Tensor:
        if self._adjacency is None:
            self._adjacency = normalize_adjacency(self)
        return self._adjacency

    def neighbourhood(self) -> PairPlan:
        """The self-looped neighbour pairs as one checked :class:`PairPlan`
        over the N nodes, built on first use and returned on every call.

        (rows[k], cols[k]) runs over both orientations of every edge plus
        (i, i) for every node, sorted by (row, col): the nonzero pattern of
        the normalized adjacency, 2E + N pairs. Node i's pairs begin at
        ``starts[i]``, and none is empty. Row i lists exactly the columns
        that are not negatives for source i, so both encoders and the
        link-prediction sampler read this one plan, and the arrays it derives
        (flat keys, segment starts) are built once per snapshot.
        """
        if self._neighbourhood is None:
            n = self.num_nodes
            u, v = self.pairs.T
            # pair keys row * n + col sort in (row, col) order
            keys = np.sort(np.concatenate([u * n + v, v * n + u, np.arange(n) * (n + 1)]))
            rows, cols = np.divmod(keys, n)
            self._neighbourhood = PairPlan(rows, cols, n)
        return self._neighbourhood


def normalize_adjacency(snapshot: SnapshotGraph) -> Tensor:
    """The (2E + N, 1) column of D^(-1/2) (A + I) D^(-1/2) at the snapshot's
    neighbour pairs, in :meth:`SnapshotGraph.neighbourhood` order; its other
    entries are 0. A is the binary adjacency and D holds the row sums of
    A + I, the degrees plus one, which are a row's pair count."""
    plan = snapshot.neighbourhood()
    inv_sqrt = 1.0 / np.sqrt(np.bincount(plan.rows))
    return Tensor((inv_sqrt[plan.rows] * inv_sqrt[plan.cols])[:, None])


class DynamicGraphSequence:
    """Time-ordered snapshots with a train/val/test split and a task tag.

    ``split`` is (train_end, val_end, test_end) in 1-based snapshot times:
    training covers 1..train_end, validation train_end+1..val_end, test
    val_end+1..test_end. All snapshots or none carry :class:`IdentityFeatures`.
    It owns the task rules: a known task, at least two classes and two for
    link prediction, which is binary; under a classification task every
    snapshot holds the labels the task reads, each in [0, ``num_classes``),
    and ``num_classes`` is at most MIN_CLASS_LIMIT or the largest label + 1.
    """

    def __init__(self, snapshots, split, task, num_classes, node_names=None):
        snapshots = list(snapshots)
        if not snapshots:
            raise ValidationError("a sequence needs at least one snapshot")
        times = [s.time_index for s in snapshots]
        if times != list(range(1, len(snapshots) + 1)):
            raise ValidationError(f"snapshot times must be 1..T, got {times}")
        n = snapshots[0].num_nodes
        f = snapshots[0].feature_width
        self.identity_features = isinstance(snapshots[0].features, IdentityFeatures)
        for s in snapshots:
            if s.num_nodes != n:
                raise ValidationError("snapshots disagree on node-universe size")
            if s.feature_width != f:
                raise ValidationError("snapshots disagree on feature width")
            if isinstance(s.features, IdentityFeatures) != self.identity_features:
                raise ValidationError("snapshots mix identity features with feature arrays")
        train_end, val_end, test_end = (int(x) for x in split)
        if not (1 <= train_end <= val_end <= test_end <= len(snapshots)):
            raise ValidationError(
                f"split {split} must be ordered within [1, {len(snapshots)}]"
            )
        if task not in TASKS:
            raise ValidationError(f"unknown task {task!r}, expected one of {TASKS}")
        self.snapshots = snapshots
        self.split = (train_end, val_end, test_end)
        self.task = task
        self.num_classes = c = int(num_classes)
        if task == "link_prediction" and c != 2:
            raise ValidationError(f"link_prediction is binary: num_classes must be 2, got {c}")
        top = -1  # the largest label the task reads
        for s in snapshots if task != "link_prediction" else ():
            labels = s.edge_labels if task == "edge_classification" else s.node_labels
            if labels is None:
                raise ValidationError(f"snapshot {s.time_index} has no labels for {task}")
            top = max(top, int(labels.max(initial=-1)))
            if top >= c or labels.min(initial=0) < 0:
                raise ValidationError(f"snapshot {s.time_index}: {task} labels must lie in [0, {c})")
        limit = max(MIN_CLASS_LIMIT, top + 1)
        if not 2 <= c <= limit:
            raise ValidationError(f"num_classes must lie in [2, {limit}], got {c}")
        if node_names is None:
            node_names = tuple(str(i) for i in range(n))
        node_names = tuple(str(x) for x in node_names)
        if len(node_names) != n:
            raise ValidationError("node_names must have one entry per node")
        for i, name in enumerate(node_names):
            # nodes.map holds one UTF-8 name per line, so a name must encode and not split
            if name != "".join(name.splitlines()):
                raise ValidationError(f"node name {i} ({name!r}) holds a line break")
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(f"node name {i} ({name!r}) does not encode as UTF-8") from None
        self.node_names = node_names

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def num_nodes(self) -> int:
        return self.snapshots[0].num_nodes

    @property
    def feature_width(self) -> int:
        return self.snapshots[0].feature_width

    def snapshot_at(self, t: int) -> SnapshotGraph:
        """Snapshot with 1-based time index t."""
        if not (1 <= t <= len(self.snapshots)):
            raise ValidationError(f"time {t} outside [1, {len(self.snapshots)}]")
        return self.snapshots[t - 1]

    def times_in(self, part: str) -> range:
        """1-based time range of a split part ('train', 'val' or 'test')."""
        train_end, val_end, test_end = self.split
        if part == "train":
            return range(1, train_end + 1)
        if part == "val":
            return range(train_end + 1, val_end + 1)
        if part == "test":
            return range(val_end + 1, test_end + 1)
        raise ValidationError(f"unknown split part {part!r}")


def split_by_fraction(num_snapshots: int, train_frac=TRAIN_FRAC, val_frac=VAL_FRAC):
    """Split time indices by fractions, flooring, at least one train snapshot."""
    if not (0 < train_frac < 1 and 0 <= val_frac < 1 and train_frac + val_frac <= 1):
        raise ValidationError("split fractions must lie in (0, 1) and sum to at most 1")
    # floor with a small epsilon so 20 * 0.8 (= 15.999...8 in binary) still floors to 16
    train_end = max(1, int(num_snapshots * train_frac + 1e-9))
    val_end = min(num_snapshots, max(train_end, int(num_snapshots * (train_frac + val_frac) + 1e-9)))
    return (train_end, val_end, num_snapshots)


@dataclass(frozen=True)
class TaskBatch:
    """Supervised items for one target snapshot.

    Edge tasks use ``items`` of shape (M, 2) holding (src, dst) pairs; node
    tasks use shape (M,) node indices. ``labels`` holds one integer per
    item (for link prediction 1 marks a real edge, 0 a sampled non-edge).
    An edge batch's pairs get one checked :class:`PairPlan`, ``pair_plan``,
    built on first use and kept with the batch.
    """

    time_index: int
    kind: str
    items: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.kind not in ("edge", "node"):
            raise ValidationError(f"batch kind must be 'edge' or 'node', not {self.kind!r}")
        items = np.asarray(self.items, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if self.kind == "edge" and (items.ndim != 2 or items.shape[1] != 2):
            raise ValidationError("edge batches need (M, 2) items")
        if self.kind == "node" and items.ndim != 1:
            raise ValidationError("node batches need 1-D items")
        if labels.shape != (items.shape[0],):
            raise ValidationError("labels must align with items")
        if items.shape[0] == 0:
            raise ValidationError("empty task batch")
        object.__setattr__(self, "items", frozen(items.copy()))
        object.__setattr__(self, "labels", frozen(labels.copy()))

    @property
    def size(self) -> int:
        return self.items.shape[0]

    @functools.cached_property
    def pair_plan(self) -> PairPlan:
        """The (src, dst) items as a :class:`PairPlan`, for the pair heads."""
        if self.kind != "edge":
            raise ValidationError("only edge batches hold pairs")
        return PairPlan.of_pairs(self.items)


@dataclass(frozen=True)
class FixedIntervalBucketing:
    """Snapshots cover consecutive half-open timestamp windows of fixed width."""

    interval: float

    def __post_init__(self):
        if not 0 < self.interval < np.inf:
            raise ValidationError("bucketing interval must be positive and finite")

    def assign(self, timestamps: np.ndarray) -> np.ndarray:
        """Bucket of each timestamp; a ConfigError when the span needs more
        buckets than the line count allows (see MAX_BUCKETS_PER_LINE)."""
        start = timestamps.min()
        span = float(timestamps.max() - start)
        # compared as a float, so a span that overflows the count still fails
        widths = span / self.interval
        limit = max(MAX_BUCKETS_PER_LINE * timestamps.size, MIN_BUCKET_LIMIT)
        if widths >= limit:
            fit = float(f"{span / (limit - 1) * 1.01:.3g}")
            raise ConfigError(
                f"a timestamp span of {span:g} at interval {self.interval:g} makes"
                f" {np.floor(widths) + 1:.0f} snapshots, more than the {limit} allowed"
                f" for {timestamps.size} edge lines; an interval of {fit:g} or more fits"
            )
        return np.floor((timestamps - start) / self.interval).astype(np.int64)


@dataclass(frozen=True)
class EqualEdgeCountBucketing:
    """Consecutive snapshots of a fixed edge count; the remainder forms the last."""

    edges_per_snapshot: int

    def __post_init__(self):
        if self.edges_per_snapshot < 1:
            raise ValidationError("edges_per_snapshot must be at least 1")

    def assign(self, timestamps: np.ndarray) -> np.ndarray:
        order = np.argsort(timestamps, kind="stable")
        buckets = np.empty(len(timestamps), dtype=np.int64)
        buckets[order] = np.arange(len(timestamps)) // self.edges_per_snapshot
        return buckets


def degree_bucket_features(pair_lists, num_nodes: int):
    """Per-snapshot one-hot features of log2-bucketed degree.

    ``pair_lists`` holds one (E, 2) array of node pairs per snapshot.
    Bucket 0 is degree 0, bucket b >= 1 covers degrees [2^(b-1), 2^b).
    Nodes with no incident edge in a snapshot are treated as absent and get
    an all-zero row. The width is shared across the sequence (largest
    occupied bucket anywhere, plus one).
    """
    degrees = np.array([
        np.bincount(np.asarray(pairs, dtype=np.int64).ravel(), minlength=num_nodes)
        for pairs in pair_lists
    ])
    max_degree = int(degrees.max())
    width = 1 if max_degree == 0 else int(np.floor(np.log2(max_degree))) + 2
    feats = np.zeros(degrees.shape + (width,))
    snap, node = np.nonzero(degrees)
    feats[snap, node, np.floor(np.log2(degrees[snap, node])).astype(np.int64) + 1] = 1.0
    return [Tensor(x) for x in feats]


def ingest_edge_stream(
    source,
    bucketing,
    task: str = "link_prediction",
    train_frac: float = TRAIN_FRAC,
    val_frac: float = VAL_FRAC,
) -> DynamicGraphSequence:
    """Parse a timestamped edge stream into a snapshot sequence.

    ``source`` is an iterable of lines (or an open file). Each data line is
    whitespace-separated ``src dst timestamp [value]``; ``#`` starts a
    comment line. Node ids may be arbitrary tokens and are compacted to a
    dense 0-based universe in order of first appearance (the original ids
    survive as ``node_names``). The optional value column is an integer
    class label for edge classification; for link prediction it is parsed,
    checked and dropped, as edges carry no weight. Duplicate undirected
    edges inside one bucket merge into one (the last label in timestamp
    order wins); self-loops are dropped. A non-finite timestamp or value,
    or a class label that is not a non-negative integer below the larger of
    the data line count and MIN_CLASS_LIMIT, is a ``ParseError`` naming its
    line.
    """
    if task not in ("link_prediction", "edge_classification"):
        raise ValidationError(f"edge streams support edge tasks, not {task!r}")
    tokens, times, values, linenos = [], [], [], []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(f"line {lineno}: expected 'src dst timestamp [value]', got {line!r}")
        try:
            ts = float(parts[2])
            val = float(parts[3]) if len(parts) == 4 else 0.0  # a missing label is class 0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        tokens += parts[:2]
        times.append(ts)
        values.append(val)
        linenos.append(lineno)
    if not times:
        raise ParseError("no data lines in edge stream")
    timestamps, values = np.array(times), np.array(values)
    finite_times = np.isfinite(timestamps)
    finite = finite_times & np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        name, got = ("timestamp", times[bad]) if not finite_times[bad] else ("value", values[bad])
        raise ParseError(f"line {linenos[bad]}: {name} must be finite, got {got}")
    if task == "edge_classification":
        integral = (values >= 0) & (values == np.floor(values))
        if not integral.all():
            bad = int(np.argmin(integral))
            raise ParseError(
                f"line {linenos[bad]}: class label must be a non-negative integer,"
                f" got {values[bad]:g}"
            )
        bound = max(values.size, MIN_CLASS_LIMIT)
        if values.max() >= bound:
            bad = int(np.argmax(values >= bound))
            raise ParseError(
                f"line {linenos[bad]}: class label {values[bad]:.0f} is not below {bound},"
                f" the larger of the {values.size} data lines and {MIN_CLASS_LIMIT}"
            )

    buckets = bucketing.assign(timestamps)
    num_snapshots = int(buckets.max()) + 1
    # node ids in order of first appearance (dict keys keep insertion order)
    ids = {tok: i for i, tok in enumerate(dict.fromkeys(tokens))}
    ends = np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens)).reshape(-1, 2)
    u, v = ends.min(axis=1), ends.max(axis=1)

    # lines that are not self-loops in one stable sort by (bucket, u, v,
    # timestamp): each group lists its lines in stable timestamp order
    lines = np.lexsort((timestamps, v, u, buckets))
    lines = lines[u[lines] != v[lines]]
    b, u, v = buckets[lines], u[lines], v[lines]
    head = np.ones(lines.size, dtype=bool)
    head[1:] = (np.diff(b) != 0) | (np.diff(u) != 0) | (np.diff(v) != 0)
    labels = None
    if task == "edge_classification":
        labels = values[lines[np.roll(head, -1)]].astype(np.int64)  # each group's last line
    pairs = np.stack((u[head], v[head]), axis=1)
    cuts = np.searchsorted(b[head], np.arange(num_snapshots + 1))
    parts = [slice(cuts[t], cuts[t + 1]) for t in range(num_snapshots)]
    feats = degree_bucket_features([pairs[p] for p in parts], len(ids))
    snapshots = [
        SnapshotGraph(
            t + 1, len(ids), pairs[p], feats[t],
            edge_labels=None if labels is None else labels[p],
        )
        for t, p in enumerate(parts)
    ]
    split = split_by_fraction(num_snapshots, train_frac, val_frac)
    num_classes = 2 if labels is None or labels.size == 0 else max(2, int(labels.max()) + 1)
    return DynamicGraphSequence(snapshots, split, task, num_classes, node_names=list(ids))


def generate_drifting_sbm(
    num_nodes: int,
    num_communities: int,
    intra_p: float,
    inter_p: float,
    drift_rate: float,
    num_snapshots: int,
    seed: int,
    feature_mode: str = "identity",
    task: str = "link_prediction",
    train_frac: float = TRAIN_FRAC,
    val_frac: float = VAL_FRAC,
) -> DynamicGraphSequence:
    """Stochastic block model whose community assignment drifts over time.

    Nodes start in contiguous equal-size communities. Every step, a
    floor(drift_rate * N) subset of nodes is chosen uniformly and each
    moves to a uniformly random other community; then edges are redrawn
    from scratch (intra_p within a community, inter_p across). Node labels
    record the current community. ``feature_mode`` is ``identity`` (one-hot
    node id, the default, so embeddings can track individual nodes) or
    ``degree_buckets``.
    """
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    if not (0 <= inter_p < intra_p <= 1):
        raise ValidationError("need 0 <= inter_p < intra_p <= 1")
    if not (0 <= drift_rate <= 1):
        raise ValidationError("drift_rate must lie in [0, 1]")
    if num_communities < 2 or num_nodes < num_communities:
        raise ValidationError("need at least 2 communities and num_nodes >= num_communities")
    if num_snapshots < 1:
        raise ValidationError("need at least one snapshot")
    if feature_mode not in ("identity", "degree_buckets"):
        raise ValidationError(f"unknown feature_mode {feature_mode!r}")
    if task not in ("link_prediction", "node_classification"):
        raise ValidationError(f"sbm generator does not support task {task!r}")

    rng = np.random.default_rng(seed_from(seed, "sbm"))
    members = (np.arange(num_nodes) * num_communities) // num_nodes
    num_drift = int(np.floor(drift_rate * num_nodes))

    pair_lists = []
    label_rows = []
    for t in range(num_snapshots):
        if t > 0 and num_drift > 0:
            moved = rng.choice(num_nodes, size=num_drift, replace=False)
            # uniform over the OTHER communities: draw in [0, k-1) and skip own
            hops = rng.integers(0, num_communities - 1, size=num_drift)
            members = members.copy()
            members[moved] = (members[moved] + 1 + hops) % num_communities
        blocks = []  # the rows of one N x N draw, SBM_BLOCK_ROWS at a time
        for lo in range(0, num_nodes, SBM_BLOCK_ROWS):
            rows = members[lo:lo + SBM_BLOCK_ROWS]
            prob = np.where(rows[:, None] == members[None, :], intra_p, inter_p)
            hit = rng.random((rows.size, num_nodes)) < prob
            blocks.append(np.argwhere(np.triu(hit, k=1 + lo)) + (lo, 0))
        pair_lists.append(np.concatenate(blocks))
        label_rows.append(members.copy())

    if feature_mode == "identity":
        feats = [IdentityFeatures(num_nodes)] * num_snapshots
    else:
        feats = degree_bucket_features(pair_lists, num_nodes)
    snapshots = [
        SnapshotGraph(t + 1, num_nodes, pair_lists[t], feats[t], node_labels=label_rows[t])
        for t in range(num_snapshots)
    ]
    split = split_by_fraction(num_snapshots, train_frac, val_frac)
    num_classes = num_communities if task == "node_classification" else 2
    return DynamicGraphSequence(snapshots, split, task, num_classes)


def sample_link_prediction_batch(
    snapshot: SnapshotGraph,
    negative_ratio: int,
    mode: str = "train",
    seed: int = 0,
) -> TaskBatch:
    """Positives are the snapshot's edges; negatives are source-matched non-edges.

    For each positive (u, v), ``negative_ratio`` negatives (u, v') are drawn
    uniformly with replacement over v' such that (u, v') is not an edge and
    v' != u; a source connected to every other node raises.

    Each negative of source u is one draw r below u's count of non-neighbours,
    mapped to u's r-th smallest non-neighbour by a search of keys derived,
    per call, from the cached :meth:`SnapshotGraph.neighbourhood`, whose row
    u holds exactly the columns u excludes. No draw is rejected, and one
    ``rng.integers`` call makes every draw, positive-major like the items.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', not {mode!r}")
    if negative_ratio < 1:
        raise ValidationError("negative_ratio must be at least 1")
    if snapshot.num_edges == 0:
        raise ValidationError(f"snapshot {snapshot.time_index} has no edges to sample from")

    n, ratio = snapshot.num_nodes, negative_ratio
    sources = snapshot.pairs[:, 0]
    # non-neighbor count of each positive's source; zero means a full row
    room = (n - 1 - snapshot.degrees())[sources]
    if room.min() == 0:
        raise ValidationError(
            f"node {sources[np.argmin(room)]} is connected to every other node; "
            "cannot sample negatives, lower the negative ratio or resplit"
        )
    rng = np.random.default_rng(seed_from(seed, "negatives", snapshot.time_index, mode))
    draws = rng.integers(0, room[:, None], size=(len(sources), ratio))
    plan = snapshot.neighbourhood()
    # entry k of row u, column c, has c - k free columns below it, and keys
    # u * n + c - k sort; row u's r-th free column is r + its keys <= u * n + r
    below = plan.keys - (np.arange(plan.size) - plan.starts[plan.rows])
    found = np.searchsorted(below, sources[:, None] * n + draws, "right")
    items = np.repeat(snapshot.pairs, ratio + 1, axis=0).reshape(len(sources), ratio + 1, 2)
    items[:, 1:, 1] = draws + found - plan.starts[sources][:, None]  # the negatives' targets
    labels = np.zeros((len(sources), ratio + 1), dtype=np.int64)
    labels[:, 0] = 1
    return TaskBatch(snapshot.time_index, "edge", items.reshape(-1, 2), labels.ravel())


def classification_batch(snapshot: SnapshotGraph, task: str) -> TaskBatch | None:
    """All labeled edges (or all nodes) of a snapshot as a supervised batch,
    or None when the snapshot has no labeled edges (or no node labels)."""
    if task == "edge_classification":
        if snapshot.edge_labels is None or snapshot.num_edges == 0:
            return None
        return TaskBatch(snapshot.time_index, "edge", snapshot.pairs, snapshot.edge_labels)
    if task == "node_classification":
        if snapshot.node_labels is None:
            return None
        items = np.arange(snapshot.num_nodes)
        return TaskBatch(snapshot.time_index, "node", items, snapshot.node_labels)
    raise ValidationError(f"no classification batch for task {task!r}")


def supervised_batch(
    snapshot: SnapshotGraph, task: str, negative_ratio: int, mode: str, seed: int
) -> TaskBatch | None:
    """A snapshot's supervised batch for the task, or None when it offers no
    supervised items (no edges to rank, no labeled edges, no node labels).

    Link prediction samples ``negative_ratio`` negatives per edge with the
    given mode and seed; the classification tasks take every labeled item.
    Any other task raises ValidationError.
    """
    if task == "link_prediction":
        if snapshot.num_edges == 0:
            return None
        return sample_link_prediction_batch(snapshot, negative_ratio, mode, seed)
    return classification_batch(snapshot, task)


# ---------------------------------------------------------------------------
# dataset directory serialization

def save_dataset(sequence: DynamicGraphSequence, directory) -> None:
    """Write a sequence as a dataset directory (format tag TGDS3) that
    :func:`load_dataset` reads back to an equal sequence.

    Layout: a ``meta`` key=value file, ``nodes.map`` with one original node
    id per line, and per snapshot ``snapshot_NNN.edges``, one ``u v`` line
    per edge (``u v label`` under edge classification), ``labels_NNN.npy``
    node labels only under node classification and, under
    ``features=files``, ``snapshot_NNN.npy`` features; ``features=identity``
    stands for identity marks and writes none.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    t0, t1, t2 = sequence.split
    meta = [
        f"format={DATASET_FORMAT}",
        f"num_nodes={sequence.num_nodes}",
        f"feature_width={sequence.feature_width}",
        f"features={'identity' if sequence.identity_features else 'files'}",
        f"num_snapshots={len(sequence)}",
        f"task={sequence.task}",
        f"num_classes={sequence.num_classes}",
        f"train_end={t0}",
        f"val_end={t1}",
        f"test_end={t2}",
    ]
    (directory / "meta").write_text("\n".join(meta) + "\n")
    (directory / "nodes.map").write_text("\n".join(sequence.node_names) + "\n", encoding="utf-8")
    for snap in sequence:
        stem = f"snapshot_{snap.time_index:03d}"
        edges = snap.pairs
        if sequence.task == "edge_classification":
            edges = np.column_stack((edges, snap.edge_labels))
        # one % per table writes np.savetxt(fmt="%d")'s bytes about 10x faster
        line = " ".join(["%d"] * edges.shape[1]) + "\n"
        (directory / f"{stem}.edges").write_text((line * len(edges)) % tuple(edges.ravel().tolist()))
        if not sequence.identity_features:
            np.save(directory / f"{stem}.npy", snap.features.data)
        if sequence.task == "node_classification":
            np.save(directory / f"labels_{snap.time_index:03d}.npy", snap.node_labels)


def _read(path: Path, reader):
    # a missing, unreadable or undecodable file is a fault of the dataset
    try:
        return reader(path)
    except (OSError, ValueError, EOFError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise DatasetError(f"{path}: cannot read: {reason}") from None


def _npy(path: Path, what: str, shape: tuple, width_source: Path | None = None) -> np.ndarray:
    # the finite numbers of ``shape`` in a .npy file; ``width_source`` names where its width is set
    values = _read(path, np.load)
    if values.dtype.kind not in "biuf" or not np.isfinite(values).all():
        raise DatasetError(f"{path}: every {what} must be a finite number")
    if values.shape != shape:
        source = f" (feature_width in {width_source})" if width_source else ""
        raise DatasetError(f"{path}: need {what}s of shape {shape}{source}, got shape {values.shape}")
    return values


def load_dataset(directory) -> DynamicGraphSequence:
    """Load a dataset directory written by :func:`save_dataset`.

    Each refusal is a DatasetError naming its file: a missing or unreadable
    file; in ``meta``, a line without ``=``, a missing key, a value that is
    not an integer, a format other than TGDS3 (TGDS1 and TGDS2 must be
    regenerated), ``num_nodes`` below 1, ``features`` other than
    ``identity`` or ``files``, identity features of a width other than
    ``num_nodes``, and what :class:`DynamicGraphSequence` refuses:
    ``num_snapshots`` below 1, an unknown task, ``num_classes`` below 2,
    other than 2 for link prediction or above both MIN_CLASS_LIMIT and the
    largest label + 1, and an unordered split; a ``nodes.map`` without one
    line per node; a blank ``.edges`` line or one without the task's integer
    fields (``u v``, or ``u v label`` for edge classification), an edge
    label outside [0, ``num_classes``) (naming its line), an edge out of
    range, a self-loop or a repeated edge; a feature file that is not a
    finite (N, F) matrix of the meta's ``feature_width``; a node-label file
    without one finite entry per node or with a label that is not an integer
    in [0, ``num_classes``). ``features=identity`` loads as one shared
    :class:`IdentityFeatures` mark, and only node classification reads
    ``labels_NNN.npy``, one per snapshot.
    """
    directory = Path(directory)
    meta_path = directory / "meta"
    meta = {}
    for line in _read(meta_path, Path.read_text).splitlines():
        if "=" not in line:
            raise DatasetError(f"{meta_path}: malformed line {line!r}")
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    tag = meta.get("format")
    if tag != DATASET_FORMAT:
        raise DatasetError(f"{meta_path}: " + (
            f"format {tag} is no longer read; regenerate the directory with `ledg generate` or `ledg ingest`"
            if tag in ("TGDS1", "TGDS2") else f"unknown dataset format {tag!r}, expected {DATASET_FORMAT}"
        ))
    try:
        num_nodes = int(meta["num_nodes"])
        width = int(meta["feature_width"])
        features = meta["features"]
        num_snapshots = int(meta["num_snapshots"])
        task = meta["task"]
        num_classes = int(meta["num_classes"])
        split = (int(meta["train_end"]), int(meta["val_end"]), int(meta["test_end"]))
    except KeyError as exc:
        raise DatasetError(f"{meta_path}: missing key {exc}") from None
    except ValueError as exc:
        raise DatasetError(f"{meta_path}: {exc}") from None
    problems = [problem for bad, problem in (
        (num_nodes < 1, f"num_nodes must be at least 1, got {num_nodes}"),
        (features not in ("identity", "files"),
         f"unknown features {features!r}, expected 'identity' or 'files'"),
        (features == "identity" and width != num_nodes,
         f"identity features need feature_width {num_nodes}, got {width}"),
    ) if bad]
    if problems:
        raise DatasetError(f"{meta_path}: {'; '.join(problems)}")

    names_path = directory / "nodes.map"
    names = _read(names_path, lambda path: path.read_text(encoding="utf-8")).splitlines()
    if len(names) != num_nodes:
        raise DatasetError(f"{names_path}: {len(names)} lines for {num_nodes} nodes, need one per node")
    identity = IdentityFeatures(num_nodes) if features == "identity" else None
    columns = 3 if task == "edge_classification" else 2  # u v [label]
    snapshots = []
    for t in range(1, num_snapshots + 1):
        stem = f"snapshot_{t:03d}"
        edges_path = directory / f"{stem}.edges"
        text = _read(edges_path, Path.read_text)
        lines, table = text.splitlines(), np.empty((0, columns), np.int64)
        try:  # numpy warns on no data; it skips blank lines, which the shape check refuses
            if text.strip():
                table = np.loadtxt(lines, np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            raise DatasetError(f"{edges_path}: {exc}") from None
        if table.shape != (len(lines), columns):  # so row i is line i + 1
            raise DatasetError(f"{edges_path}: need {len(lines)} lines of {columns} fields, got {table.shape}")
        edge_labels = None
        if task == "edge_classification":
            edge_labels = table[:, 2]
            outside = np.flatnonzero((edge_labels < 0) | (edge_labels >= num_classes))
            if outside.size:
                raise DatasetError(
                    f"{edges_path} line {outside[0] + 1}: edge label {edge_labels[outside[0]]}"
                    f" outside class range [0, {num_classes})"
                )
        values = identity or _npy(directory / f"{stem}.npy", "feature", (num_nodes, width), meta_path)
        labels = None
        if task == "node_classification":
            labels_path = directory / f"labels_{t:03d}.npy"
            # checked before SnapshotGraph's int64 cast, which would make 0.5 class 0
            labels = _npy(labels_path, "node label", (num_nodes,))
            if np.any((labels != np.floor(labels)) | (labels < 0) | (labels >= num_classes)):
                raise DatasetError(f"{labels_path}: every node label must be an integer in [0, {num_classes})")
        try:
            snapshots.append(SnapshotGraph(
                t, num_nodes, table[:, :2], values, node_labels=labels, edge_labels=edge_labels,
            ))
        except ValidationError as exc:
            # the node count, features and labels are checked above, so what
            # the snapshot refuses is an edge: out of range, a loop or a repeat
            raise DatasetError(f"{edges_path}: {exc}") from None
    try:
        return DynamicGraphSequence(snapshots, split, task, num_classes, node_names=names)
    except ValidationError as exc:
        # every file is checked above, so what the sequence refuses is in meta
        raise DatasetError(f"{meta_path}: {exc}") from None


def sequence_summary(sequence: DynamicGraphSequence) -> str:
    """One-line JSON summary used by the CLI for logging."""
    payload = {
        "num_nodes": sequence.num_nodes,
        "feature_width": sequence.feature_width,
        "num_snapshots": len(sequence),
        "task": sequence.task,
        "num_classes": sequence.num_classes,
        "split": list(sequence.split),
        "edges_per_snapshot": [s.num_edges for s in sequence],
    }
    return json.dumps(payload, sort_keys=True)
