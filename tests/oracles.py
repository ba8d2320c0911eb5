"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch against the textbook
definitions (plain Python loops, no calls into ledg's metric or gradient
code paths) so that agreement is evidence rather than tautology.
"""

import functools
from collections import namedtuple

import numpy as np

from ledg import evaluation as ev
from ledg import meta as mt
from ledg import numerics as nx


def central_difference(f, x, step=1e-5):
    """Central finite-difference gradient of a scalar function of an array.

    Perturbs each entry of ``x`` in place (restoring it afterwards), so ``f``
    must read the array it is given rather than a cached copy.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_rel_err(analytic, reference, floor=1e-2):
    """Worst entrywise relative error with an absolute floor on the scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(reference)))
    return float((np.abs(analytic - reference) / scale).max())


def norm_rel_err(analytic, reference):
    """Vector-level relative error ||a - r|| / max(||r||, 1e-12)."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(reference)), 1e-12)
    return float(np.linalg.norm(analytic - reference)) / denom


def power_iteration_radius(matrix, iterations=500, seed=0):
    """Spectral radius of a symmetric matrix by plain power iteration."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=matrix.shape[0])
    v /= np.linalg.norm(v)
    radius = 0.0
    for _ in range(iterations):
        w = matrix @ v
        radius = float(np.linalg.norm(w))
        if radius == 0.0:
            return 0.0
        v = w / radius
    return radius


# ---------------------------------------------------------------------------
# reverse-mode walks over a recorded tape

def full_walk_gradient(tape, output, wrt, create_graph=False):
    """Gradients of a scalar ``output`` by the unpruned reverse walk.

    Visits every recorded node from the output's producer back to the
    first, and gives every input that requires grad its contribution, with
    the library's own backward rules. ``Tape.gradient`` may stop earlier or
    skip contributions only where no requested gradient reads them, so the
    two must agree bit for bit. Records on the tape exactly when
    ``Tape.gradient`` would.
    """
    producer = {id(node.output): k for k, node in enumerate(tape.nodes)}
    start = producer.get(id(output))
    walked = tape.nodes[start::-1] if start is not None else []
    requested = {id(t) for t in wrt}
    adjoints = {id(output): nx.Tensor(np.ones((1, 1)))}
    results = {}
    nx._TAPE_STACK.append(tape if create_graph else None)
    try:
        for node in walked:
            upstream = adjoints.pop(id(node.output), None)
            if upstream is None:
                continue
            if id(node.output) in requested:
                results[id(node.output)] = upstream
            need = tuple(t.requires_grad for t in node.inputs)
            if not any(need):
                continue
            for inp, contrib in nx._BACKWARD[node.op](node, upstream, need):
                held = adjoints.get(id(inp))
                adjoints[id(inp)] = contrib if held is None else nx.add(held, contrib)
    finally:
        nx._TAPE_STACK.pop()
    grads = []
    for t in wrt:
        g = results.get(id(t), adjoints.get(id(t)))
        grads.append(g if g is not None else nx.Tensor(np.zeros(t.shape)))
    return grads


def reembedding_outer_gradients(window, params, spec, config, batch):
    """The outer gradient of an episode that embeds the structure snapshot
    afresh for every adapted state, 2w encodes, where the library reuses the
    last inner step's embedding for state w-1.

    The inner steps repeat ``meta.inner_adapt``'s arithmetic: each step's
    forward pass and gradient on a throwaway tape under first order,
    recorded on the episode tape under exact mode, and the update
    ``p + (-eta_in) g``. Returns the gradients of task + lambda * time,
    summed over the states, for every parameter in ``params.items_in()``
    order.
    """
    from ledg import model as md

    exact = config.gradient_mode == "exact"
    tape = nx.Tape()
    current, states = params, []
    with tape:
        for i, snap in enumerate(window.snapshots, start=1):
            step_tape = tape if exact else nx.Tape()
            with step_tape:
                bundle = md.embed(snap, current, spec)
                loss = md.time_loss(bundle.time_part, current, spec, float(i))
                names, tensors = zip(*current.items_in(*mt.INNER_LOOP_GROUPS))
                grads = step_tape.gradient(loss, list(tensors), create_graph=exact)
            current = current.with_updates({
                name: nx.add(t, nx.mul_scalar(g, -config.eta_in))
                for name, t, g in zip(names, tensors, grads)
            })
            states.append(current)
        task_total = time_total = None
        for state in states:
            bundle = md.embed(window.structure_snapshot, state, spec)
            l_task = md.task_loss(md.task_predict(bundle, state, spec, batch), batch.labels)
            l_time = md.time_loss(bundle.time_part, state, spec, float(window.target_regression_index))
            task_total = l_task if task_total is None else nx.add(task_total, l_task)
            time_total = l_time if time_total is None else nx.add(time_total, l_time)
        objective = nx.add(task_total, nx.mul_scalar(time_total, config.lambda_time))
    return tape.gradient(objective, [t for _, t in params.items_in()])


def replay(tape):
    """Recompute every recorded node from its inputs with the forward kernels.

    Fails on any bitwise mismatch with the recorded output; returns the
    number of nodes checked.
    """
    for k, node in enumerate(tape.nodes):
        out = nx._FORWARD[node.op]([t.data for t in node.inputs], node.params)
        assert np.array_equal(out, node.output.data), f"replay mismatch at node {k} ({node.op})"
    return len(tape.nodes)


def total_parameters(params):
    """Entry count over every tensor of a parameter set."""
    return sum(t.size for _, t in params.items_in())


def recorded_ancestors(tape, *targets):
    """Indices of the tape nodes whose outputs the targets depend on."""
    producer = {id(node.output): k for k, node in enumerate(tape.nodes)}
    found, stack = set(), list(targets)
    while stack:
        k = producer.get(id(stack.pop()))
        if k is not None and k not in found:
            found.add(k)
            stack.extend(tape.nodes[k].inputs)
    return found


# ---------------------------------------------------------------------------
# ranking metrics, straight from the definitions

#: one source node's scored candidate list, as arrays of equal length
Query = namedtuple("Query", "query_id candidate_ids scores relevance")


def ranked_queries(queries):
    """A list of queries as the library's ``RankedQueries``, one query per
    list position, for its MAP and MRR to read. An input adapter, not a
    reference: it ranks through the library's own ``_rank``."""
    keys = np.array([k for k, q in enumerate(queries) for _ in q.candidate_ids], dtype=np.int64)
    flat = (np.array([x for q in queries for x in getattr(q, field)], dtype=dtype)
            for field, dtype in zip(Query._fields[1:], (np.int64, np.float64, np.int64)))
    return ev._rank(keys, *flat)


def _ranked(query):
    # descending score, ties by ascending candidate id, via explicit sort keys
    rows = list(zip(query.candidate_ids.tolist(), query.scores.tolist(), query.relevance.tolist()))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def brute_force_map(queries):
    aps = []
    for q in queries:
        rows = _ranked(q)
        total_relevant = sum(r[2] for r in rows)
        if total_relevant == 0:
            continue
        hits = 0
        precisions = []
        for rank, (_, _, rel) in enumerate(rows, start=1):
            if rel:
                hits += 1
                precisions.append(hits / rank)
        aps.append(sum(precisions) / total_relevant)
    return sum(aps) / len(aps)


def brute_force_mrr(queries):
    rrs = []
    for q in queries:
        rows = _ranked(q)
        if sum(r[2] for r in rows) == 0:
            continue
        for rank, (_, _, rel) in enumerate(rows, start=1):
            if rel:
                rrs.append(1.0 / rank)
                break
    return sum(rrs) / len(rrs)


def per_query_map_mrr(queries):
    """MAP and MRR one query at a time: each query ranked by its own
    ``lexsort`` and its AP taken as numpy's ``mean`` of its precisions.
    numpy's pairwise sum adds fewer than 8 terms in order, so below 8
    relevant candidates per query this repeats an in-order sum bit for bit."""
    aps, rrs = [], []
    for q in queries:
        rel = q.relevance[np.lexsort((q.candidate_ids, -q.scores))]
        if rel.sum() == 0:
            continue
        hits = np.cumsum(rel)
        ranks = np.arange(1, rel.size + 1)
        aps.append(float((hits[rel == 1] / ranks[rel == 1]).mean()))
        rrs.append(1.0 / (int(np.argmax(rel)) + 1))
    return float(np.mean(aps)), float(np.mean(rrs))


def confusion_micro_f1(predictions, labels, num_classes):
    """Micro F1 from an explicit confusion matrix."""
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, y in zip(predictions, labels):
        counts[int(p), int(y)] += 1
    tp = int(np.trace(counts))
    fp = int(counts.sum(axis=1).sum() - np.trace(counts))
    fn = int(counts.sum(axis=0).sum() - np.trace(counts))
    return tp / (tp + 0.5 * (fp + fn))


def uniform_rank_mrr_moments(num_candidates):
    """Mean and variance of 1/rank when the single relevant item's rank is
    uniform on 1..num_candidates (the uniform-random-scorer null)."""
    inv = 1.0 / np.arange(1, num_candidates + 1)
    mean = float(inv.mean())
    var = float((inv * inv).mean() - mean * mean)
    return mean, var


# ---------------------------------------------------------------------------
# edge membership

def edge_set(snapshot):
    """The snapshot's undirected edges as a set of (min, max) node pairs."""
    return {(u, v) for u, v, _ in snapshot.edges}


def has_edge(snapshot, u, v):
    """Whether the snapshot holds the undirected edge {u, v}."""
    return (min(u, v), max(u, v)) in edge_set(snapshot)


# ---------------------------------------------------------------------------
# features and the drifting SBM

def feature_values(features):
    """A snapshot's features as an array: the N x N identity for an
    ``IdentityFeatures`` mark, which holds no array, else the Tensor's data."""
    from ledg.graphdata import IdentityFeatures

    if isinstance(features, IdentityFeatures):
        return np.eye(features.num_nodes)
    return features.data


def one_shot_sbm(num_nodes, num_communities, intra_p, inter_p, drift_rate, num_snapshots, seed):
    """The drifting SBM's (pairs, community labels) per snapshot, each
    snapshot's pairs taken from one N x N uniform draw: the row-major
    ``argwhere`` of the strict upper triangle of ``draw < prob``. The drift
    and the draws share one stream, in the generator's order."""
    from ledg.graphdata import seed_from

    rng = np.random.default_rng(seed_from(seed, "sbm"))
    members = (np.arange(num_nodes) * num_communities) // num_nodes
    num_drift = int(np.floor(drift_rate * num_nodes))
    snapshots = []
    for t in range(num_snapshots):
        if t > 0 and num_drift > 0:
            moved = rng.choice(num_nodes, size=num_drift, replace=False)
            hops = rng.integers(0, num_communities - 1, size=num_drift)
            members = members.copy()
            members[moved] = (members[moved] + 1 + hops) % num_communities
        prob = np.where(members[:, None] == members[None, :], intra_p, inter_p)
        draw = rng.random((num_nodes, num_nodes))
        snapshots.append((np.argwhere(np.triu(draw < prob, k=1)), members.copy()))
    return snapshots


# ---------------------------------------------------------------------------
# edge-stream ingestion, one dict merge per bucket

def reference_ingest(lines, bucketing, task="link_prediction"):
    """Edge-stream ingestion of valid lines as a dict merge: node ids in order
    of first appearance, lines visited in stable timestamp order, and each
    bucket's undirected pairs merged in a dict (the last label kept,
    self-loops dropped; a link-prediction value is dropped). Returns the
    node names, the class count and one tuple of sorted (u, v, label) edges
    per snapshot, the form ``SnapshotGraph.edges`` takes."""
    rows = []
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            value = float(parts[3]) if len(parts) == 4 else 0.0
            rows.append((parts[0], parts[1], float(parts[2]), value))
    timestamps = np.array([r[2] for r in rows])
    buckets = bucketing.assign(timestamps)
    ids = {}
    for src, dst, _, _ in rows:
        for tok in (src, dst):
            if tok not in ids:
                ids[tok] = len(ids)
    merged = [dict() for _ in range(int(buckets.max()) + 1)]
    for idx in np.argsort(timestamps, kind="stable"):
        src, dst, _, value = rows[idx]
        u, v = sorted((ids[src], ids[dst]))
        if u == v:
            continue
        merged[int(buckets[idx])][(u, v)] = int(value) if task == "edge_classification" else None
    edges = [tuple((u, v, lab) for (u, v), lab in sorted(b.items())) for b in merged]
    labels = [lab for snap in edges for _, _, lab in snap if lab is not None]
    num_classes = max(2, max(labels) + 1) if labels else 2
    return tuple(ids), num_classes, edges


# ---------------------------------------------------------------------------
# negative sampling, one scalar draw at a time

def scalar_link_prediction_batch(snapshot, negative_ratio, mode="train", seed=0):
    """The link-prediction sampler as a plain loop: per negative, one scalar
    ``rng.integers(0, room)`` call indexes the source's sorted list of
    non-neighbours, built from ``snapshot.edges``. ``graphdata`` must
    reproduce its items, labels and errors exactly."""
    from ledg.errors import ValidationError
    from ledg.graphdata import TaskBatch, seed_from

    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', not {mode!r}")
    if negative_ratio < 1:
        raise ValidationError("negative_ratio must be at least 1")
    if snapshot.num_edges == 0:
        raise ValidationError(f"snapshot {snapshot.time_index} has no edges to sample from")

    n = snapshot.num_nodes
    neighbours = [{u} for u in range(n)]
    for u, v, _ in snapshot.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    rng = np.random.default_rng(seed_from(seed, "negatives", snapshot.time_index, mode))
    items = []
    labels = []
    for u, v, _ in snapshot.edges:
        items.append((u, v))
        labels.append(1)
        free = [c for c in range(n) if c not in neighbours[u]]
        if not free:
            raise ValidationError(
                f"node {u} is connected to every other node; "
                "cannot sample negatives, lower the negative ratio or resplit"
            )
        for _ in range(negative_ratio):
            items.append((u, free[int(rng.integers(0, len(free)))]))
            labels.append(0)
    return TaskBatch(snapshot.time_index, "edge", np.array(items), np.array(labels))


# ---------------------------------------------------------------------------
# superseded kernels and encoders, kept as references

def unshared_sigmoid(x):
    """The one-pass sigmoid kernel as first written, forming 1 + exp(-|x|)
    once per branch."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def numpy_clip_unit(x):
    """The clip_unit kernel as numpy's clip into [-1, 1]."""
    return np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0)


def scalar_add(x, value):
    """The add_scalar kernel: a Python float added to every entry."""
    return np.asarray(x, dtype=np.float64) + value


def gated_leaky_relu(x, slope):
    """The leaky_relu kernel: x times a gate that is 1 where x > 0 and slope
    elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    return x * ((x > 0.0).astype(np.float64) * (1.0 - slope) + slope)


def copied_broadcast(x, shape):
    """The broadcast kernel as a copy of numpy's read-only broadcast view."""
    return np.broadcast_to(np.asarray(x, dtype=np.float64), shape).copy()


class PerTensorAdam:
    """Adam with bias correction, one tensor at a time, moments kept per name."""

    def __init__(self, eta, beta1=0.9, beta2=0.999, eps=1e-8):
        self.eta = eta
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {}
        self.v = {}

    def apply(self, params, grads):
        self.step += 1
        updates = {}
        for name, g in grads.items():
            gd = g.data
            m = self.beta1 * self.m.get(name, 0.0) + (1 - self.beta1) * gd
            v = self.beta2 * self.v.get(name, 0.0) + (1 - self.beta2) * gd * gd
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1 - self.beta1**self.step)
            v_hat = v / (1 - self.beta2**self.step)
            new = params[name].data - self.eta * m_hat / (np.sqrt(v_hat) + self.eps)
            updates[name] = nx.Tensor(new, requires_grad=True)
        return params.with_updates(updates)


def masked_sigmoid(x):
    """The two-branch sigmoid kernel: 1/(1+exp(-x)) on x >= 0 and
    exp(x)/(1+exp(x)) elsewhere, each on its own masked subset."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def random_snapshot(rng, time_index, num_nodes, edge_p, features, isolated=2, node_labels=None):
    """A snapshot with each pair of the first num_nodes - isolated nodes
    joined with probability edge_p; the last ``isolated`` nodes have no
    edges (edge_p = 0 gives an edgeless snapshot)."""
    from ledg.graphdata import SnapshotGraph

    linked = num_nodes - isolated
    edges = [
        (u, v) for u in range(linked) for v in range(u + 1, linked) if rng.random() < edge_p
    ]
    return SnapshotGraph(time_index, num_nodes, edges, features, node_labels)


def dense_normalized_adjacency(snapshot):
    """D^(-1/2) (A + I) D^(-1/2) as a dense N x N array, built from the
    binary adjacency plus the identity and its row sums."""
    u, v = snapshot.pairs.T
    a = np.eye(snapshot.num_nodes)
    a[u, v] = 1.0
    a[v, u] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def dense_gcn_encode(snapshot, params, config):
    """The GCN encoder as dense products ``relu(A_hat @ h @ W)`` with the
    N x N :func:`dense_normalized_adjacency`, recorded with the library's
    primitives."""
    a_hat = nx.Tensor(dense_normalized_adjacency(snapshot))
    h = snapshot.features
    for layer in range(1, config.num_layers + 1):
        h = nx.relu(nx.matmul(nx.matmul(a_hat, h), params[f"gnn_w{layer}"]))
    return h


#: additive offset that zeroes non-neighbours after a dense row softmax
MASK_VALUE = -1e9


def dense_attention_encode(snapshot, params, config):
    """The attention encoder on dense N x N scores: every (target, source)
    score is formed, non-neighbours are pushed to MASK_VALUE and each row is
    softmax-normalized over all N columns. Recorded with the library's
    primitives, so a recorded gradient differentiates through it."""
    n = snapshot.num_nodes
    mask = (dense_normalized_adjacency(snapshot) > 0.0).astype(np.float64)
    mask, offset = nx.Tensor(mask), nx.Tensor((1.0 - mask) * MASK_VALUE)
    h = snapshot.features
    for layer in range(1, config.num_layers + 1):
        wh = nx.matmul(h, params[f"gnn_w{layer}"])
        left = nx.matmul(wh, params[f"gnn_al{layer}"])
        right_row = nx.matmul(params[f"gnn_ar{layer}"], wh, ta=True, tb=True)
        scores = nx.add(nx.broadcast(left, (n, n)), nx.broadcast(right_row, (n, n)))
        scores = nx.leaky_relu(scores, 0.2)
        scores = nx.add(nx.hadamard(scores, mask), offset)
        h = nx.relu(nx.matmul(nx.softmax_rows(scores), wh))
    return h


def gathered_pair_head(head, params, h, plan):
    """``MlpHead.apply_pairs`` as the unfused chain of recorded primitives:
    two ``gather_rows`` of the node projections at the plan's rows and
    columns, two ``add`` and a ``relu`` before the second layer, each an
    (M, hidden) node."""
    w1, b1, w2, b2 = (params[name] for name in head.parameter_names)
    d = h.shape[1]
    first = nx.matmul(h, nx.gather_rows(w1, np.arange(d)))
    second = nx.matmul(h, nx.gather_rows(w1, np.arange(d, 2 * d)))
    projected = nx.add(nx.gather_rows(first, plan.rows), nx.gather_rows(second, plan.cols))
    hidden = nx.relu(nx.add(projected, b1))
    return nx.add(nx.matmul(hidden, w2), b2)


def concatenated_pair_head(h, items, w1, b1, w2, b2, upstream):
    """A classifier head on the concatenated pair rows [h_u, h_v], in numpy.

    Returns the logits relu([h_u, h_v] w1 + b1) w2 + b2 and, by hand-written
    backpropagation, the gradients of sum(upstream * logits) with respect to
    h, w1, b1, w2 and b2 (keyed by those names)."""
    u, v = items[:, 0], items[:, 1]
    x = np.concatenate([h[u], h[v]], axis=1)
    pre = x @ w1 + b1
    act = np.maximum(pre, 0.0)
    logits = act @ w2 + b2
    g_pre = (upstream @ w2.T) * (pre > 0.0)
    g_x = g_pre @ w1.T
    d = h.shape[1]
    g_h = np.zeros_like(h)
    for k in range(len(items)):
        g_h[u[k]] += g_x[k, :d]
        g_h[v[k]] += g_x[k, d:]
    grads = {
        "h": g_h,
        "w1": x.T @ g_pre,
        "b1": g_pre.sum(axis=0, keepdims=True),
        "w2": act.T @ upstream,
        "b2": upstream.sum(axis=0, keepdims=True),
    }
    return logits, grads


# ---------------------------------------------------------------------------
# per-primitive gradient checking

def _u(rng, rows, cols, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=(rows, cols))


def _away_from(rng, rows, cols, center, margin, span=1.5):
    """Values whose distance to +-center exceeds margin (kink avoidance)."""
    low = center - margin
    mag = rng.uniform(0.0, low + span, size=(rows, cols))
    # jump magnitudes over the forbidden band around the kink
    mag = np.where(mag > low, mag + 2.0 * margin, mag)
    return mag * rng.choice([-1.0, 1.0], size=(rows, cols))


def _case_matmul(rng):
    # one product per (ta, tb) flag pair; every operand feeds two of them
    def call(a, a_t, b, b_t):
        return nx.add(
            nx.add(nx.matmul(a, b), nx.matmul(a_t, b, ta=True)),
            nx.add(nx.matmul(a, b_t, tb=True), nx.matmul(a_t, b_t, ta=True, tb=True)),
        )

    return [_u(rng, 3, 4), _u(rng, 4, 3), _u(rng, 4, 2), _u(rng, 2, 4)], call


def _broadcasting_case(op, rows, cols):
    """op(a, b) for b of a's shape and for a row, a column and a 1x1 b."""
    def case(rng):
        shapes = [(rows, cols), (rows, cols), (1, cols), (rows, 1), (1, 1)]
        return [_u(rng, *shape) for shape in shapes], lambda a, *bs: tuple(op(a, b) for b in bs)

    return case


def _case_add_scalar(rng):
    v = float(rng.uniform(-1.5, 1.5))
    return [_u(rng, 2, 3)], lambda a: nx.add_scalar(a, v)


def _case_mul_scalar(rng):
    v = float(rng.uniform(-2.0, 2.0))
    return [_u(rng, 2, 3)], lambda a: nx.mul_scalar(a, v)


def _case_sigmoid(rng):
    return [_u(rng, 3, 3, -4.0, 4.0)], nx.sigmoid


def _case_relu(rng):
    return [_away_from(rng, 3, 3, 0.0, 0.1)], nx.relu


def _case_leaky_relu(rng):
    slope = float(rng.uniform(0.05, 0.5))
    return [_away_from(rng, 3, 3, 0.0, 0.1)], lambda a: nx.leaky_relu(a, slope)


def _case_one_minus(rng):
    return [_u(rng, 2, 4)], nx.one_minus


def _case_reciprocal(rng):
    mag = rng.uniform(0.5, 2.0, size=(2, 3)) * rng.choice([-1.0, 1.0], size=(2, 3))
    return [mag], nx.reciprocal


def _case_log(rng):
    return [rng.uniform(0.2, 3.0, size=(2, 3))], nx.log


def _case_clamp_min(rng):
    return [_away_from(rng, 3, 3, 0.0, 0.1)], lambda a: nx.clamp_min(a, 0.0)


def _case_smooth_l1(rng):
    return [_away_from(rng, 3, 3, 1.0, 0.05)], nx.smooth_l1


def _case_clip_unit(rng):
    return [_away_from(rng, 3, 3, 1.0, 0.1)], nx.clip_unit


def _case_softmax_rows(rng):
    return [_u(rng, 3, 4)], nx.softmax_rows


def _case_segment_softmax(rng):
    # segments of 3, 1, 2 and 4 entries: a lone entry has weight 1 and
    # gradient 0, so the FD check sees it too
    plan = segment_plan([0, 3, 4, 6], 10)
    return [_u(rng, 10, 1)], lambda a: nx.segment_softmax(a, plan)


def _case_sums(rng):
    return [_u(rng, 3, 4)], lambda a: (nx.sums(a, 0), nx.sums(a, 1), nx.sums(a, None))


def _case_broadcast(rng):
    def call(row, col, one):
        return nx.broadcast(row, (3, 4)), nx.broadcast(col, (4, 3)), nx.broadcast(one, (3, 2))

    return [_u(rng, 1, 4), _u(rng, 4, 1), _u(rng, 1, 1)], call


def _case_gather_rows(rng):
    idx = [0, 2, 2, 4]  # repeated row exercises the scatter adjoint
    return [_u(rng, 5, 3)], lambda a: nx.gather_rows(a, idx)


def _case_scatter_rows(rng):
    idx = [1, 4, 1, 0]  # colliding rows exercise accumulation
    return [_u(rng, 4, 2)], lambda a: nx.scatter_rows(a, idx, 6)


def segment_plan(starts, size):
    """A plan of ``size`` pairs whose rows are the segments that begin at
    ``starts`` (segment i from starts[i] to the next start, the last to
    ``size``), each pair on the diagonal, for ``segment_softmax``."""
    lengths = np.diff(starts, append=size)
    rows = np.repeat(np.arange(len(starts)), lengths)
    return nx.PairPlan(rows, rows, len(starts))


# pairs of a 5 x 5 matrix; (1, 2) twice exercises accumulation in spmm
_PAIR_PLAN = nx.PairPlan([0, 1, 1, 3, 1, 2], [0, 2, 4, 1, 2, 0], 5)


def _case_spmm(rng):
    def call(values, h):
        return (nx.spmm(values, h, _PAIR_PLAN),
                nx.spmm(values, h, _PAIR_PLAN, transpose=True))

    return [_u(rng, 6, 1), _u(rng, 5, 3)], call


def _case_sddmm(rng):
    return [_u(rng, 5, 3), _u(rng, 5, 3)], lambda a, b: nx.sddmm(a, b, _PAIR_PLAN)


def _case_pair_hidden(rng):
    # repeated endpoints exercise the scatter adjoints; a pre-activation
    # within the FD step of relu's kink has probability ~1e-5 per entry
    plan = nx.PairPlan.of_pairs([[0, 1], [2, 2], [0, 3], [1, 1], [3, 0]])
    return [_u(rng, 4, 3), _u(rng, 4, 3), _u(rng, 1, 3)], (
        lambda first, second, b1: nx.pair_hidden(first, second, b1, plan)
    )


#: public ops built from primitives: ``add_scalar`` and ``leaky_relu`` are one
#: primitive with a constant operand, ``relu`` is ``clamp_min`` at 0, ``sub``
#: is ``add`` of a negation
COMPOSITE_CASES = {
    "add_scalar": _case_add_scalar,
    "leaky_relu": _case_leaky_relu,
    "relu": _case_relu,
    "sub": _broadcasting_case(nx.sub, 3, 3),
}


PRIMITIVE_CASES = {
    "matmul": _case_matmul,
    "add": _broadcasting_case(nx.add, 3, 3),
    "hadamard": _broadcasting_case(nx.hadamard, 2, 4),
    "mul_scalar": _case_mul_scalar,
    "sigmoid": _case_sigmoid,
    "one_minus": _case_one_minus,
    "reciprocal": _case_reciprocal,
    "log": _case_log,
    "clamp_min": _case_clamp_min,
    "smooth_l1": _case_smooth_l1,
    "clip_unit": _case_clip_unit,
    "softmax_rows": _case_softmax_rows,
    "segment_softmax": _case_segment_softmax,
    "sums": _case_sums,
    "broadcast": _case_broadcast,
    "gather_rows": _case_gather_rows,
    "scatter_rows": _case_scatter_rows,
    "pair_hidden": _case_pair_hidden,
    "spmm": _case_spmm,
    "sddmm": _case_sddmm,
}


def primitive_gradient_errors(op_name, rng, step=1e-5):
    """Max relative error of the tape gradient vs central differences,
    per operand, for one random instantiation of the named primitive (or
    composite of ``COMPOSITE_CASES``).

    A case's call returns one output or a tuple of them (one per form of
    the primitive); the checked scalar is a random weighting of them all.
    """
    arrays, call = {**PRIMITIVE_CASES, **COMPOSITE_CASES}[op_name](rng)

    def outputs(tensors):
        out = call(*tensors)
        return out if isinstance(out, tuple) else (out,)

    weights = [
        nx.Tensor(rng.uniform(-1.0, 1.0, size=out.shape))
        for out in outputs([nx.Tensor(a) for a in arrays])
    ]

    def weighted(tensors):
        terms = [nx.sums(nx.hadamard(out, w), None) for out, w in zip(outputs(tensors), weights)]
        return functools.reduce(nx.add, terms)

    def scalar(values):
        return weighted([nx.Tensor(v) for v in values]).item()

    tracked = [nx.Tensor(a, requires_grad=True) for a in arrays]
    tape = nx.Tape()
    with tape:
        loss = weighted(tracked)
    grads = tape.gradient(loss, tracked)

    errors = []
    for i in range(len(arrays)):
        def f(x, i=i):
            values = [a.copy() for a in arrays]
            values[i] = x
            return scalar(values)

        fd = central_difference(f, arrays[i].copy(), step=step)
        errors.append(max_rel_err(grads[i].data, fd))
    return errors
