"""Dense float64 matrices with a nestable reverse-mode autodiff tape.

Everything is a 2-D matrix (scalars are 1x1, vectors are 1xN). A tensor is
tracked when it may carry a gradient. Tracked operations executed while a
:class:`Tape` is active are appended to it in execution order, which is
automatically a topological order; an operation on constants only makes a
constant and is not recorded. ``Tape.gradient`` walks the recording
backwards and builds adjoints out of the same primitives (an unrecorded walk
sums a tensor's several contributions on the bare arrays instead). With
``create_graph=True`` the backward pass is itself recorded, so the gradient
can be differentiated again (this is what makes meta-gradients through inner
SGD steps exact). By default it runs unrecorded and returns constants, which
yields the standard first-order approximation when a later gradient is taken
through parameter updates built from them.

The pair ops (``spmm``, ``sddmm``, ``segment_softmax``, ``pair_hidden``)
take their index pairs as a :class:`PairPlan`, checked once when it is built
and kept with the snapshot or batch the pairs belong to, so a call checks
only O(1) facts and reuses the index arrays the plan derived before.
Reductions along rows of fewer than 8 columns (``sums(a, 1)``,
``softmax_rows``) reduce the contiguous transpose, which adds each row's
entries in the same order as a row-wise reduction, so the bits agree.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ContractError, ShapeError, ValidationError


#: the tape that records new operations is on top; None on top pauses it, so
#: that every new result is a constant
_TAPE_STACK: list["Tape | None"] = []
_EMPTY: dict = {}


class Tensor:
    """A frozen 2-D float64 matrix, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, arr.shape[0])
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices, got shape {arr.shape}")
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _raw(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        # Internal: wrap a freshly computed array without copying.
        t = object.__new__(cls)
        arr.setflags(write=False)
        t.data = arr
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.flat[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded primitive: op name, input tensors, static params, output."""

    __slots__ = ("op", "inputs", "params", "output")

    def __init__(self, op, inputs, params, output):
        self.op = op
        self.inputs = inputs
        self.params = params
        self.output = output


class Tape:
    """Ordered recording of primitive operations.

    Used as a context manager; ops run inside the block on at least one
    tracked input are recorded. Whether a gradient is itself recorded is
    chosen per call of :meth:`gradient`.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._producer: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must be exited in LIFO order"
        return False

    def gradient(
        self,
        output: Tensor,
        wrt: list[Tensor],
        create_graph: bool = False,
    ) -> list[Tensor]:
        """Adjoints of a scalar ``output`` with respect to each tensor in ``wrt``.

        Tensors in ``wrt`` that the output does not depend on get a zero
        gradient of matching shape. With ``create_graph`` the backward pass
        is recorded on this tape, whatever tape is active, so the gradients
        can be differentiated again; otherwise it is recorded on no tape and
        the gradients are constants.
        """
        if output.size != 1:
            raise ContractError(f"gradient target must be scalar, got shape {output.shape}")
        wrt_ids = {id(t) for t in wrt}
        results: dict[int, Tensor] = {}
        adjoints: dict[int, Tensor] = {id(output): Tensor._raw(np.ones((1, 1)))}

        out_idx = self._producer.get(id(output))
        if out_idx is not None:
            _TAPE_STACK.append(self if create_graph else None)
            try:
                self._walk_backward(
                    out_idx, self._stop_index(wrt), adjoints, wrt_ids, results, create_graph
                )
            finally:
                _TAPE_STACK.pop()

        grads = []
        for t in wrt:
            g = results.get(id(t))
            if g is None:
                g = adjoints.get(id(t))
            if g is None:
                g = Tensor._raw(np.zeros(t.shape))
            grads.append(g)
        return grads

    def _stop_index(self, wrt: list[Tensor]) -> int:
        """The earliest node a gradient with respect to ``wrt`` must visit.

        Every use of a tensor made on this tape is recorded after the node
        that made it, so when every ``wrt`` tensor was made here, nothing
        before the first of their producers can add to a requested gradient.
        A leaf (a tensor not made here) may be used anywhere: walk it all.
        """
        producers = [self._producer.get(id(t)) for t in wrt]
        if None in producers:
            return 0
        return min(producers, default=0)

    def _walk_backward(self, out_idx, stop, adjoints, wrt_ids, results, recorded) -> None:
        # An input is owed a contribution only when a requested gradient can
        # read it: it is requested, or it was made at or after the stop node.
        # Anything else passes its adjoint on only to nodes the walk skips.
        # A second contribution is summed by ``add`` when the walk is recorded;
        # otherwise by add's own kernel expression on the bare arrays, in the
        # same operand order, so the bits agree and no op passes ``_emit``.
        produced_at = self._producer.get
        pop_adjoint = adjoints.pop
        held_adjoint = adjoints.get
        rules = _BACKWARD
        for node in reversed(self.nodes[stop : out_idx + 1]):
            out_id = id(node.output)
            upstream = pop_adjoint(out_id, None)
            if upstream is None:
                continue
            if out_id in wrt_ids:
                results[out_id] = upstream
            need = [
                inp.requires_grad and (produced_at(id(inp), -1) >= stop or id(inp) in wrt_ids)
                for inp in node.inputs
            ]
            if True not in need:
                continue
            for inp, contrib in rules[node.op](node, upstream, need):
                held = held_adjoint(id(inp))
                if held is not None:
                    contrib = add(held, contrib) if recorded else Tensor._raw(held.data + contrib.data)
                adjoints[id(inp)] = contrib


def _emit(op: str, inputs: tuple, params: dict = _EMPTY) -> Tensor:
    # the one chokepoint every op passes, so its bookkeeping is written inline
    data = []
    requires_grad = False
    for t in inputs:
        data.append(t.data)
        if t.requires_grad:
            requires_grad = True
    # outside every tape a result stays tracked, so updates made there (the
    # outer optimizers) remain parameters; a paused tape makes a constant
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    if tape is None and _TAPE_STACK:
        requires_grad = False
    result = Tensor._raw(_FORWARD[op](data, params), requires_grad)
    if requires_grad and tape is not None:
        tape._producer[id(result)] = len(tape.nodes)
        tape.nodes.append(TapeNode(op, inputs, params, result))
    return result


def frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class PairPlan:
    """Checked index pairs (rows[k], cols[k]) of an n x n matrix: the index
    argument of ``spmm``, ``sddmm``, ``segment_softmax`` and ``pair_hidden``.

    Built once from index arrays, which it checks (1-D, of one length, every
    index in [0, n)) and keeps as read-only copies. The arrays the kernels
    derive from the pairs are built on first use and kept: the flat keys
    ``rows * n + cols``, the starts of sorted rows' segments and the bincount
    slots of row scatters, per width. An op that takes a plan checks only
    O(1) facts, such as ``n`` against its operand's row count. A plan is
    kept only by what its pairs belong to (a snapshot's neighbourhood, an
    edge batch), so it goes when they go.
    """

    __slots__ = ("rows", "cols", "n", "_keys", "_starts", "_slots")

    def __init__(self, rows, cols, n: int):
        self.n = n = int(n)
        self.rows = _frozen_indices(rows, n, "PairPlan")
        self.cols = _frozen_indices(cols, n, "PairPlan")
        if self.rows.shape != self.cols.shape:
            raise ShapeError(
                f"PairPlan: {self.rows.size} row indices but {self.cols.size} column indices"
            )
        self._keys = self._starts = None
        self._slots = {}

    @classmethod
    def of_pairs(cls, pairs) -> "PairPlan":
        """The plan of an (M, 2) array of (u, v) pairs, whose n is one more
        than its largest index (0 for no pairs)."""
        pairs = np.asarray(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ShapeError(f"PairPlan: pairs must form an (M, 2) array, got shape {pairs.shape}")
        return cls(pairs[:, 0], pairs[:, 1], int(pairs.max()) + 1 if pairs.size else 0)

    @property
    def size(self) -> int:
        """The number of pairs, P."""
        return self.rows.size

    @property
    def keys(self) -> np.ndarray:
        """The flat index rows[k] * n + cols[k] of every pair."""
        if self._keys is None:
            self._keys = frozen(self.rows * self.n + self.cols)
        return self._keys

    @property
    def starts(self) -> np.ndarray:
        """Where row i's pairs begin, for pairs sorted by row that leave none
        of the n rows empty; a ShapeError for any other pairs."""
        if self._starts is None:
            rows, n = self.rows, self.n
            steps = np.diff(rows)
            covered = rows.size > 0 and rows[0] == 0 and rows[-1] == n - 1
            if not covered or (steps < 0).any() or (steps > 1).any():
                raise ShapeError(
                    "PairPlan: segments need pairs sorted by row that leave no row empty"
                )
            self._starts = frozen(np.searchsorted(rows, np.arange(n)))
        return self._starts

    def slots(self, side: int, width: int) -> np.ndarray:
        """The bincount slots index * width + column that scatter (P, width)
        rows to the pairs' rows (side 0) or columns (side 1)."""
        key = (side, width)
        slots = self._slots.get(key)
        if slots is None:
            index = self.cols if side else self.rows
            slots = self._slots[key] = frozen((index[:, None] * width + np.arange(width)).ravel())
        return slots


def _need_broadcastable(operand: tuple, shape: tuple, op: str) -> None:
    # the operand is shape itself, or a row, a column or a 1x1 that repeats to it
    if operand == shape:
        return
    n, m = shape
    if operand not in ((1, m), (n, 1), (1, 1)):
        raise ShapeError(f"{op}: operand shape {operand} does not broadcast to {shape}")


# ---------------------------------------------------------------------------
# forward kernels, one per primitive, keyed by op name so that a recorded
# node can be recomputed from its inputs and params

def _k_matmul(d, p):
    a = d[0].T if p["ta"] else d[0]
    b = d[1].T if p["tb"] else d[1]
    return a @ b


def _k_add(d, p):
    return d[0] + d[1]


def _k_hadamard(d, p):
    return d[0] * d[1]


def _k_mul_scalar(d, p):
    return d[0] * p["value"]


def _k_sigmoid(d, p):
    # exp(-|x|) never overflows; both branches are the textbook stable forms.
    # min(x, -x) is -|x| that passes a NaN on with its own sign bit
    x = d[0]
    e = np.exp(np.minimum(x, -x))
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


def _k_one_minus(d, p):
    return 1.0 - d[0]


def _k_reciprocal(d, p):
    return 1.0 / d[0]


def _k_log(d, p):
    return np.log(d[0])


def _k_clamp_min(d, p):
    return np.maximum(d[0], p["value"])


def _k_smooth_l1(d, p):
    x = d[0]
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def _k_clip_unit(d, p):
    return np.minimum(np.maximum(d[0], -1.0), 1.0)


#: rows narrower than this reduce faster down the columns of their transpose
#: and, unlike wider ones, add their entries in the same order there
NARROW_ROWS = 8


def _k_softmax_rows(d, p):
    x = d[0]
    if x.shape[1] < NARROW_ROWS:
        t = np.ascontiguousarray(x.T)
        e = np.exp(t - t.max(axis=0))
        out = np.empty(x.shape)
        np.divide(e, e.sum(axis=0), out=out.T)
        return out
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _k_segment_softmax(d, p):
    # every segment is nonempty, so reduceat reduces exactly its own entries
    x = d[0][:, 0]
    plan = p["plan"]
    rows, starts = plan.rows, plan.starts
    e = np.exp(x - np.maximum.reduceat(x, starts)[rows])
    return (e / np.add.reduceat(e, starts)[rows])[:, None]


def _k_sums(d, p):
    x, axis = d[0], p["axis"]
    if axis == 1 and x.shape[1] < NARROW_ROWS:
        return np.ascontiguousarray(x.T).sum(axis=0)[:, None]
    return x.sum(axis=axis, keepdims=True)


def _k_broadcast(d, p):
    out = np.empty(p["shape"])
    out[...] = d[0]
    return out


def _k_gather_rows(d, p):
    return d[0][p["indices"]]


def _k_scatter_rows(d, p):
    # one bincount over flattened (row, column) slots; accumulates colliding
    # rows in input order, as np.add.at does, at a fraction of its cost. A
    # row of width 1 has its index as its slot; a pair op's adjoint passes
    # the slots its plan keeps
    x = d[0]
    m = x.shape[1]
    if m == 1:
        return np.bincount(p["indices"], weights=x.ravel(), minlength=p["num_rows"])[:, None]
    slots = p.get("slots")
    if slots is None:
        slots = (p["indices"][:, None] * m + np.arange(m)).ravel()
    out = np.bincount(slots, weights=x.ravel(), minlength=p["num_rows"] * m)
    return out.reshape(p["num_rows"], m)


def pair_hidden_rows(first, second, b1, u, v) -> np.ndarray:
    """relu(first[u] + second[v] + b1) on bare arrays: the kernel of
    :func:`pair_hidden`, shared with untaped pair scoring. Every step works in
    place on the one fresh (M, hidden) array the first gather makes."""
    x = first[u]
    x += second[v]
    x += b1
    return np.maximum(x, 0.0, out=x)


def _k_pair_hidden(d, p):
    plan = p["plan"]
    return pair_hidden_rows(d[0], d[1], d[2], plan.rows, plan.cols)


def _k_spmm(d, p):
    # dense at the sizes trained here: the pairs are scattered into a
    # transient N x N matrix (repeated pairs accumulate) and one BLAS product
    # multiplies it; only the (N, d) result is kept
    plan = p["plan"]
    n = plan.n
    s = np.bincount(plan.keys, weights=d[0][:, 0], minlength=n * n).reshape(n, n)
    return (s.T if p["transpose"] else s) @ d[1]


def _k_sddmm(d, p):
    return np.take(d[0] @ d[1].T, p["plan"].keys)[:, None]


_FORWARD = {
    "matmul": _k_matmul,
    "add": _k_add,
    "hadamard": _k_hadamard,
    "mul_scalar": _k_mul_scalar,
    "sigmoid": _k_sigmoid,
    "one_minus": _k_one_minus,
    "reciprocal": _k_reciprocal,
    "log": _k_log,
    "clamp_min": _k_clamp_min,
    "smooth_l1": _k_smooth_l1,
    "clip_unit": _k_clip_unit,
    "softmax_rows": _k_softmax_rows,
    "segment_softmax": _k_segment_softmax,
    "sums": _k_sums,
    "broadcast": _k_broadcast,
    "gather_rows": _k_gather_rows,
    "scatter_rows": _k_scatter_rows,
    "pair_hidden": _k_pair_hidden,
    "spmm": _k_spmm,
    "sddmm": _k_sddmm,
}


# ---------------------------------------------------------------------------
# public operations

def matmul(a: Tensor, b: Tensor, ta: bool = False, tb: bool = False) -> Tensor:
    """Matrix product op(a) @ op(b), where op transposes when its flag is set.

    The flags read the operands transposed in place, so no transposed copy
    is made or recorded.
    """
    shape_a, shape_b = a.data.shape, b.data.shape
    if shape_a[0 if ta else 1] != shape_b[1 if tb else 0]:
        raise ShapeError(
            f"matmul: inner dimensions of {shape_a} and {shape_b} disagree"
            f" (ta={bool(ta)}, tb={bool(tb)})"
        )
    return _emit("matmul", (a, b), {"ta": bool(ta), "tb": bool(tb)})


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; ``b`` may be a row, column or 1x1 repeated to a's shape."""
    _need_broadcastable(b.shape, a.shape, "add")
    return _emit("add", (a, b))


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a - b, as ``add`` of a and ``mul_scalar(b, -1.0)``; negation is exact,
    so the bits are the difference's. ``b`` may be a row, column or 1x1
    repeated to a's shape."""
    return add(a, mul_scalar(b, -1.0))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may be a row, column or 1x1 repeated to
    a's shape."""
    _need_broadcastable(b.shape, a.shape, "hadamard")
    return _emit("hadamard", (a, b))


def add_scalar(a: Tensor, value: float) -> Tensor:
    """a + value, as ``add`` with a constant 1x1 operand."""
    return add(a, Tensor(float(value)))


def mul_scalar(a: Tensor, value: float) -> Tensor:
    return _emit("mul_scalar", (a,), {"value": float(value)})


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, numerically stable for large |x|."""
    return _emit("sigmoid", (a,))


#: the params of every relu node, shared as ``_EMPTY`` is
_RELU = {"value": 0.0}


def relu(a: Tensor) -> Tensor:
    """max(a, 0), as one ``clamp_min`` node at value 0."""
    return _emit("clamp_min", (a,), _RELU)


def one_minus(a: Tensor) -> Tensor:
    """1 - a, elementwise."""
    return _emit("one_minus", (a,))


def reciprocal(a: Tensor) -> Tensor:
    return _emit("reciprocal", (a,))


def log(a: Tensor) -> Tensor:
    return _emit("log", (a,))


def clamp_min(a: Tensor, value: float) -> Tensor:
    return _emit("clamp_min", (a,), {"value": float(value)})


def smooth_l1(a: Tensor) -> Tensor:
    """Elementwise robust loss: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    return _emit("smooth_l1", (a,))


def clip_unit(a: Tensor) -> Tensor:
    """Clamp into [-1, 1]; derivative of smooth_l1."""
    return _emit("clip_unit", (a,))


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """x for x > 0 else slope*x, as ``hadamard`` with a constant gate that is
    1 where x > 0 and slope elsewhere."""
    gate = (a.data > 0.0).astype(np.float64) * (1.0 - slope) + slope
    return hadamard(a, Tensor._raw(gate))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    if a.shape[1] < 1:
        raise ShapeError(f"softmax_rows: need at least one column, got {a.shape}")
    return _emit("softmax_rows", (a,))


def segment_softmax(a: Tensor, plan: PairPlan) -> Tensor:
    """Softmax of a (P, 1) column over the entries of each row of the
    plan's pairs, which must be sorted by row and leave no row empty (see
    :attr:`PairPlan.starts`)."""
    if a.shape != (plan.size, 1):
        raise ShapeError(f"segment_softmax: need a ({plan.size}, 1) column, got {a.shape}")
    plan.starts  # checks the segments once per plan
    return _emit("segment_softmax", (a,), {"plan": plan})


def sums(a: Tensor, axis: int | None) -> Tensor:
    """Sums over axis 0 (a row), axis 1 (a column) or both (None, a 1x1)."""
    if axis not in (0, 1, None):
        raise ShapeError(f"sums: axis must be 0, 1 or None, got {axis!r}")
    return _emit("sums", (a,), {"axis": axis})


def broadcast(a: Tensor, shape: tuple[int, int]) -> Tensor:
    """Repeat a row, column or 1x1 tensor to the given shape; the adjoint of
    ``sums``."""
    shape = (int(shape[0]), int(shape[1]))
    _need_broadcastable(a.shape, shape, "broadcast")
    return _emit("broadcast", (a,), {"shape": shape})


def _frozen_indices(indices, bound: int, op: str) -> np.ndarray:
    """A read-only 1-D index copy for the tape, checked against [0, bound)."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"{op}: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ShapeError(f"{op}: index out of range [0, {bound})")
    idx = idx.copy()
    idx.setflags(write=False)
    return idx


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = _frozen_indices(indices, a.shape[0], "gather_rows")
    return _emit("gather_rows", (a,), {"indices": idx})


def scatter_rows(a: Tensor, indices, num_rows: int) -> Tensor:
    """Add rows of ``a`` into a zero matrix at the given row indices."""
    idx = _frozen_indices(indices, num_rows, "scatter_rows")
    if idx.shape != (a.shape[0],):
        raise ShapeError("scatter_rows: need one index per input row")
    return _emit("scatter_rows", (a,), {"indices": idx, "num_rows": int(num_rows)})


def pair_hidden(first: Tensor, second: Tensor, b1: Tensor, plan: PairPlan) -> Tensor:
    """relu(first[u] + second[v] + b1) for every pair (u, v) of the plan
    (rows u, columns v), as one node: a pair head's hidden layer on projected
    node rows. ``first`` and ``second`` need at least the plan's n rows."""
    width = first.shape[1]
    if second.shape[1] != width or b1.shape != (1, width):
        raise ShapeError(
            f"pair_hidden: widths of {first.shape}, {second.shape} and bias {b1.shape} disagree"
        )
    if min(first.shape[0], second.shape[0]) < plan.n:
        raise ShapeError(
            f"pair_hidden: pairs index {plan.n} rows, operands have {first.shape[0]}"
            f" and {second.shape[0]}"
        )
    return _emit("pair_hidden", (first, second, b1), {"plan": plan})


def spmm(values: Tensor, h: Tensor, plan: PairPlan, transpose: bool = False) -> Tensor:
    """S @ h, or S^T @ h with ``transpose``, for the n x n matrix S that holds
    the (P, 1) column ``values`` at the plan's pairs (rows[k], cols[k])
    (repeated pairs add); h has the plan's n rows. Both encoders propagate
    with it: GCN's values are the constant normalized adjacency, attention's
    its weights."""
    if h.shape[0] != plan.n:
        raise ShapeError(f"spmm: pairs index {plan.n} rows, h has {h.shape[0]}")
    if values.shape != (plan.size, 1):
        raise ShapeError(f"spmm: need a ({plan.size}, 1) column of values, got {values.shape}")
    return _emit("spmm", (values, h), {"plan": plan, "transpose": bool(transpose)})


def sddmm(a: Tensor, b: Tensor, plan: PairPlan) -> Tensor:
    """The entries (a @ b^T)[rows[k], cols[k]] at the plan's pairs as a
    (P, 1) column, for a and b of one (n, d) shape; the gradient of
    :func:`spmm` for its values."""
    if a.shape != b.shape:
        raise ShapeError(f"sddmm: operand shapes {a.shape} and {b.shape} differ")
    if a.shape[0] != plan.n:
        raise ShapeError(f"sddmm: pairs index {plan.n} rows, operands have {a.shape[0]}")
    return _emit("sddmm", (a, b), {"plan": plan})


def mean_pool(h: Tensor) -> Tensor:
    """Column means of an NxD matrix as a 1xD row."""
    n = h.shape[0]
    if n == 0:
        raise ValidationError("mean_pool: cannot pool an empty graph (0 rows)")
    return mul_scalar(sums(h, 0), 1.0 / n)


# ---------------------------------------------------------------------------
# backward rules, one per primitive, each built from the public primitives
# above so that the backward pass is itself differentiable when recorded. A
# piecewise-constant derivative (the 0/1 masks of clamp_min, which relu is,
# and clip_unit) has zero derivative almost everywhere, so it enters as an
# untracked constant rather than as an op. A rule gets the node, its
# output's adjoint and one flag per input saying whether that input is owed
# a contribution (see Tape._walk_backward); it returns (input, contribution)
# pairs for the flagged inputs only, since an exact tape would record any
# other contribution as dead work. A rule of one input is only called when
# its input is flagged. Gathers and scatters emit their adjoints with the
# index arrays their forward node already checked. A broadcast operand's
# contribution is summed over the axes it repeats along after the rule's own
# elementwise step, the order an explicit broadcast followed by the
# same-shape op would give, so the bits are the same.

def _unbroadcast(g: Tensor, shape: tuple[int, int]) -> Tensor:
    """``g`` summed back to ``shape`` over the axes where the two differ."""
    if g.shape == shape:
        return g
    rows, cols = g.shape[0] != shape[0], g.shape[1] != shape[1]
    return sums(g, None if rows and cols else (0 if rows else 1))


def _b_matmul(node, g, need):
    a, b = node.inputs
    ta, tb = node.params["ta"], node.params["tb"]
    out = []
    if need[0]:
        # d op(a) = g @ op(b)^T, transposed back when a entered transposed
        ga = matmul(b, g, ta=tb, tb=True) if ta else matmul(g, b, tb=not tb)
        out.append((a, ga))
    if need[1]:
        # d op(b) = op(a)^T @ g, transposed back when b entered transposed
        gb = matmul(g, a, ta=True, tb=ta) if tb else matmul(a, g, ta=not ta)
        out.append((b, gb))
    return out


def _b_add(node, g, need):
    return [(x, _unbroadcast(g, x.shape)) for x, wanted in zip(node.inputs, need) if wanted]


def _b_hadamard(node, g, need):
    a, b = node.inputs
    out = []
    if need[0]:
        out.append((a, hadamard(g, b)))
    if need[1]:
        out.append((b, _unbroadcast(hadamard(g, a), b.shape)))
    return out


def _b_mul_scalar(node, g, need):
    return ((node.inputs[0], mul_scalar(g, node.params["value"])),)


def _b_sigmoid(node, g, need):
    y = node.output
    return ((node.inputs[0], hadamard(g, hadamard(y, one_minus(y)))),)


def _b_one_minus(node, g, need):
    return ((node.inputs[0], mul_scalar(g, -1.0)),)


def _b_reciprocal(node, g, need):
    y = node.output
    return ((node.inputs[0], mul_scalar(hadamard(g, hadamard(y, y)), -1.0)),)


def _b_log(node, g, need):
    x = node.inputs[0]
    return ((x, hadamard(g, reciprocal(x))),)


def _b_clamp_min(node, g, need):
    x = node.inputs[0]
    return ((x, hadamard(g, Tensor._raw((x.data > node.params["value"]).astype(np.float64)))),)


def _b_smooth_l1(node, g, need):
    x = node.inputs[0]
    return ((x, hadamard(g, clip_unit(x))),)


def _b_clip_unit(node, g, need):
    x = node.inputs[0]
    return ((x, hadamard(g, Tensor._raw((np.abs(x.data) < 1.0).astype(np.float64)))),)


def _b_softmax_rows(node, g, need):
    y = node.output
    weighted = sums(hadamard(g, y), 1)
    return ((node.inputs[0], hadamard(y, sub(g, weighted))),)


def _b_segment_softmax(node, g, need):
    # y * (g - (segment sum of g * y), broadcast back to the segment's pairs)
    y = node.output
    plan = node.params["plan"]
    weighted = _emit("scatter_rows", (hadamard(g, y),), {"indices": plan.rows, "num_rows": plan.n})
    spread = _emit("gather_rows", (weighted,), {"indices": plan.rows})
    return ((node.inputs[0], hadamard(y, sub(g, spread))),)


def _b_sums(node, g, need):
    x = node.inputs[0]
    return ((x, broadcast(g, x.shape)),)


def _b_broadcast(node, g, need):
    x = node.inputs[0]
    return ((x, _unbroadcast(g, x.shape)),)


def _b_gather_rows(node, g, need):
    x = node.inputs[0]
    params = {"indices": node.params["indices"], "num_rows": x.shape[0]}
    return ((x, _emit("scatter_rows", (g,), params)),)


def _b_scatter_rows(node, g, need):
    return ((node.inputs[0], _emit("gather_rows", (g,), {"indices": node.params["indices"]})),)


def _b_pair_hidden(node, g, need):
    # relu's mask as a constant, then the adjoints of the bias add and of the
    # two row gathers, emitted and returned in the order the unfused chain
    # gather, gather, add, add, relu gave them
    first, second, b1 = node.inputs
    plan = node.params["plan"]
    gz = hadamard(g, Tensor._raw((node.output.data > 0.0).astype(np.float64)))
    width = gz.shape[1]
    out = []
    if need[2]:
        out.append((b1, sums(gz, 0)))
    if need[1]:
        params = {"indices": plan.cols, "num_rows": second.shape[0], "slots": plan.slots(1, width)}
        out.append((second, _emit("scatter_rows", (gz,), params)))
    if need[0]:
        params = {"indices": plan.rows, "num_rows": first.shape[0], "slots": plan.slots(0, width)}
        out.append((first, _emit("scatter_rows", (gz,), params)))
    return out


def _b_spmm(node, g, need):
    values, h = node.inputs
    plan, transpose = node.params["plan"], node.params["transpose"]
    out = []
    if need[0]:
        # dS[r, c] = g[r] . h[c], or h[r] . g[c] for the transposed product
        pair = (h, g) if transpose else (g, h)
        out.append((values, _emit("sddmm", pair, {"plan": plan})))
    if need[1]:
        out.append((h, _emit("spmm", (values, g), {"plan": plan, "transpose": not transpose})))
    return out


def _b_sddmm(node, g, need):
    a, b = node.inputs
    plan = node.params["plan"]
    out = []
    if need[0]:
        out.append((a, _emit("spmm", (g, b), {"plan": plan, "transpose": False})))
    if need[1]:
        out.append((b, _emit("spmm", (g, a), {"plan": plan, "transpose": True})))
    return out


_BACKWARD = {
    "matmul": _b_matmul,
    "add": _b_add,
    "hadamard": _b_hadamard,
    "mul_scalar": _b_mul_scalar,
    "sigmoid": _b_sigmoid,
    "one_minus": _b_one_minus,
    "reciprocal": _b_reciprocal,
    "log": _b_log,
    "clamp_min": _b_clamp_min,
    "smooth_l1": _b_smooth_l1,
    "clip_unit": _b_clip_unit,
    "softmax_rows": _b_softmax_rows,
    "segment_softmax": _b_segment_softmax,
    "sums": _b_sums,
    "broadcast": _b_broadcast,
    "gather_rows": _b_gather_rows,
    "scatter_rows": _b_scatter_rows,
    "pair_hidden": _b_pair_hidden,
    "spmm": _b_spmm,
    "sddmm": _b_sddmm,
}

assert set(_FORWARD) == set(_BACKWARD)


# ---------------------------------------------------------------------------
# parameter collections

class ParameterSet:
    """Named trainable tensors partitioned into named groups.

    Each tensor belongs to exactly one group, and group membership is frozen
    at construction; the model that builds a set names its groups.
    ``with_updates`` returns a new set sharing untouched tensors, so parameter
    updates are functional and earlier states stay valid (needed when several
    adapted states of the same parameters are alive at once).
    """

    def __init__(self, tensors: dict[str, Tensor], groups: dict[str, tuple[str, ...]]):
        seen: dict[str, str] = {}
        for group, names in groups.items():
            for name in names:
                if name in seen:
                    raise ValidationError(f"parameter {name!r} assigned to two groups")
                if name not in tensors:
                    raise ValidationError(f"group {group!r} references missing tensor {name!r}")
                seen[name] = group
        for name in tensors:
            if name not in seen:
                raise ValidationError(f"tensor {name!r} belongs to no group")
        self._tensors = dict(tensors)
        self._groups = {g: tuple(names) for g, names in groups.items()}

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._tensors)

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self._groups)

    def group_names(self, group: str) -> tuple[str, ...]:
        return self._groups[group]

    def items_in(self, *groups: str) -> list[tuple[str, Tensor]]:
        if not groups:
            groups = self.groups
        out = []
        for g in groups:
            if g not in self._groups:
                raise ValidationError(f"unknown parameter group {g!r}")
            out.extend((name, self._tensors[name]) for name in self._groups[g])
        return out

    def with_updates(self, updates: dict[str, Tensor]) -> "ParameterSet":
        tensors = self._tensors
        for name, t in updates.items():
            held = tensors.get(name)
            if held is None:
                raise ValidationError(f"cannot update unknown parameter {name!r}")
            if t.data.shape != held.data.shape:
                raise ShapeError(
                    f"update for {name!r} has shape {t.shape}, expected {held.shape}"
                )
        merged = dict(tensors)
        merged.update(updates)
        # same names, same groups: the constructor's group checks would pass
        # again, so the new set shares the frozen groups unchecked
        out = object.__new__(ParameterSet)
        out._tensors = merged
        out._groups = self._groups
        return out

    def fingerprint(self, *groups: str) -> str:
        """SHA-256 over the named groups' values, order independent of dict layout."""
        h = hashlib.sha256()
        for name, t in sorted(self.items_in(*groups)):
            h.update(name.encode())
            h.update(str(t.shape).encode())
            h.update(t.data.tobytes())
        return h.hexdigest()


def l2_norm(tensors) -> float:
    """Euclidean norm over the concatenation of all entries (plain float)."""
    total = 0.0
    for t in tensors:
        total += float((t.data * t.data).sum())
    return float(np.sqrt(total))
