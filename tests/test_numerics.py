"""Tape autodiff: primitive values, gradients, nesting, parameter sets."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ledg import graphdata as gd
from ledg import meta as mt
from ledg import model as md
from ledg import numerics as nx
from ledg.errors import ContractError, ShapeError, ValidationError
from ledg.numerics import ParameterSet, Tape, Tensor


def _scalar(value, requires_grad=True):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------- tensors


def test_tensor_normalizes_shapes():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Tensor(np.zeros((2, 4))).shape == (2, 4)
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))


def test_tensor_data_is_frozen():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_op_outputs_are_frozen():
    t = nx.add(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_item_requires_scalar():
    assert Tensor(5.0).item() == 5.0
    with pytest.raises(ShapeError):
        Tensor([[1.0, 2.0]]).item()


# ----------------------------------------------------------- primitive values


def test_matmul_identity_and_projector():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    eye = Tensor(np.eye(3))
    assert np.array_equal(nx.matmul(a, eye).data, a.data)
    # projector onto the first coordinate kills the rest
    proj = np.zeros((3, 3))
    proj[0, 0] = 1.0
    out = nx.matmul(a, Tensor(proj)).data
    assert np.array_equal(out[:, 0], a.data[:, 0])
    assert np.all(out[:, 1:] == 0.0)


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError) as err:
        nx.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_sigmoid_and_hadamard_examples():
    assert nx.sigmoid(_scalar(0.0)).item() == 0.5
    out = nx.hadamard(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]))
    assert np.array_equal(out.data, [[8.0, 15.0]])
    with pytest.raises(ShapeError):
        nx.add(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_sigmoid_range_on_moderate_inputs():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-30.0, 30.0, size=(20, 20)))
    s = nx.sigmoid(x).data
    assert np.all(s > 0.0) and np.all(s < 1.0)


def test_sigmoid_matches_the_masked_two_branch_kernel_bitwise():
    rng = np.random.default_rng(13)
    special = [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, -745.0, 745.0,
               5e-324, -5e-324, 1e-310, -1e-310, np.nan, -np.nan]
    for x in [rng.normal(size=(100, 32)) * scale for scale in (1.0, 5.0, 800.0)] + [
        np.array([special])
    ]:
        x.ravel()[3::37] = np.nan
        x.ravel()[5::41] = -np.nan
        out = nx.sigmoid(Tensor(x)).data
        # compared as integers: every bit, NaN signs included
        assert np.array_equal(out.view(np.int64), oracles.masked_sigmoid(x).view(np.int64))


_SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan,
                   5e-324, -5e-324, 1e-310, -1e-310, 745.0, -745.0]


def _kernel_inputs(seed):
    """The special values as one row, then seeded (N, 32) draws on several scales."""
    rng = np.random.default_rng(seed)
    draws = [rng.normal(size=(40, 32)) * scale for scale in (0.5, 1.0, 3.0, 800.0)]
    draws[1].ravel()[::7] = rng.choice(_SPECIAL_VALUES, draws[1].ravel()[::7].size)
    return [np.array([_SPECIAL_VALUES])] + draws


def _same_bits(a, b):
    # compared as integers: every bit, NaN signs and payloads included
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "op, reference",
    [(nx.sigmoid, oracles.unshared_sigmoid), (nx.clip_unit, oracles.numpy_clip_unit)],
    ids=["sigmoid", "clip_unit"],
)
def test_elementwise_kernels_match_their_earlier_formulas_bitwise(op, reference):
    for x in _kernel_inputs(17):
        assert _same_bits(op(Tensor(x)).data, reference(x))


def test_broadcast_kernel_matches_a_copied_broadcast_view_bitwise():
    for x in _kernel_inputs(19):
        rows, cols = x.shape
        for operand, shape in (
            (x[:1], (5, cols)),
            (x[:, :1], (rows, 3)),
            (x[:1, :1], (rows, cols)),
            (x[-1:, 6:7], (2, 9)),
        ):
            out = nx.broadcast(Tensor(operand), shape).data
            assert _same_bits(out, oracles.copied_broadcast(operand, shape))


def test_segment_softmax_normalizes_each_segment():
    x = np.array([[1.0], [2.0], [3.0], [50.0], [1000.0], [0.0]])
    out = nx.segment_softmax(Tensor(x), oracles.segment_plan([0, 3, 4], 6)).data[:, 0]
    assert np.allclose(out[:3], np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum(),
                       rtol=1e-15, atol=0.0)
    assert out[3] == 1.0  # a lone entry, whatever its score
    assert np.array_equal(out[4:], [1.0, 0.0])  # shifted by the segment max: no overflow


def test_pair_primitives_are_mutually_adjoint():
    """spmm is the product with the dense matrix of its pairs, sddmm gathers
    a dense product, and each is the other's adjoint in both orientations."""
    rng = np.random.default_rng(14)
    rows, cols = rng.integers(0, 6, size=9), rng.integers(0, 6, size=9)
    plan = nx.PairPlan(rows, cols, 6)
    x, h, y = rng.normal(size=(9, 1)), rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    dense = np.zeros((6, 6))
    np.add.at(dense, (rows, cols), x[:, 0])
    product = nx.spmm(Tensor(x), Tensor(h), plan).data
    transposed = nx.spmm(Tensor(x), Tensor(h), plan, transpose=True).data
    assert np.allclose(product, dense @ h, rtol=1e-14, atol=1e-14)
    assert np.allclose(transposed, dense.T @ h, rtol=1e-14, atol=1e-14)
    gathered = nx.sddmm(Tensor(y), Tensor(h), plan).data
    assert gathered.shape == (9, 1)
    assert np.array_equal(gathered[:, 0], (y @ h.T)[rows, cols])
    assert math.isclose(float((product * y).sum()), float((x * gathered).sum()), rel_tol=1e-13)
    flipped = nx.sddmm(Tensor(h), Tensor(y), plan).data
    assert math.isclose(float((transposed * y).sum()), float((x * flipped).sum()), rel_tol=1e-13)


@pytest.mark.parametrize("transpose", [False, True])
def test_spmm_and_sddmm_differentiate_twice(transpose):
    """A recorded gradient through spmm and sddmm, differentiated again,
    matches central differences of the first gradient."""
    rng = np.random.default_rng([16, transpose])
    plan = nx.PairPlan([0, 1, 1, 3, 2, 3, 1], [2, 0, 1, 3, 2, 0, 1], 4)
    arrays = [rng.normal(size=(7, 1)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))]
    weights = [Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(7, 1)))]
    probes = [Tensor(rng.normal(size=a.shape)) for a in arrays]

    def probed_gradient(values, h, other):
        tape = Tape()
        with tape:
            product = nx.spmm(values, h, plan, transpose=transpose)
            gathered = nx.sddmm(product, other, plan)
            loss = nx.add(
                nx.sums(nx.hadamard(nx.hadamard(product, product), weights[0]), None),
                nx.sums(nx.hadamard(nx.hadamard(gathered, values), weights[1]), None),
            )
        grads = tape.gradient(loss, [values, h, other], create_graph=True)
        with tape:
            terms = [nx.sums(nx.hadamard(g, p), None) for g, p in zip(grads, probes)]
            probed = nx.add(nx.add(terms[0], terms[1]), terms[2])
        return tape, probed

    tracked = [Tensor(a, requires_grad=True) for a in arrays]
    tape, probed = probed_gradient(*tracked)
    second = tape.gradient(probed, tracked)
    for i, a in enumerate(arrays):
        def f(x, i=i):
            values = [Tensor(v, requires_grad=True) for v in arrays]
            values[i] = Tensor(x, requires_grad=True)
            return probed_gradient(*values)[1].item()

        fd = oracles.central_difference(f, a.copy())
        assert oracles.max_rel_err(second[i].data, fd) <= 1e-6, i


def _zeros(rows, cols):
    return Tensor(np.zeros((rows, cols)))


def _segments(rows, n):
    return nx.PairPlan(rows, rows, n)


def _pairs(pairs):
    return nx.PairPlan.of_pairs(pairs)


# each case fails where its fault is first seen: building the plan (lengths,
# ranges, 2-D indices, pair arrays that are not (M, 2)) or calling the op
# with the plan (segments, operand shapes and the plan's bound)
_MISSHAPED_CALLS = {
    "segment_softmax column": lambda: nx.segment_softmax(_zeros(1, 3), _segments([0], 1)),
    "segment_softmax row count": lambda: nx.segment_softmax(_zeros(2, 1), _segments([0, 0], 2)),
    "segment_softmax empty segment": lambda: nx.segment_softmax(
        _zeros(3, 1), _segments([0, 0, 2], 3)
    ),
    "segment_softmax late start": lambda: nx.segment_softmax(_zeros(3, 1), _segments([1, 1, 1], 2)),
    "segment_softmax early end": lambda: nx.segment_softmax(_zeros(3, 1), _segments([0, 1, 1], 3)),
    "segment_softmax unsorted": lambda: nx.segment_softmax(_zeros(3, 1), _segments([0, 1, 0], 2)),
    "segment_softmax no segments": lambda: nx.segment_softmax(_zeros(0, 1), _segments([], 0)),
    "segment_softmax 2-D starts": lambda: nx.segment_softmax(
        _zeros(3, 1), _segments([[0, 0, 1]], 2)
    ),
    "sddmm lengths": lambda: nx.sddmm(_zeros(3, 2), _zeros(3, 2), nx.PairPlan([0, 1], [0], 3)),
    "sddmm range": lambda: nx.sddmm(_zeros(3, 2), _zeros(3, 2), nx.PairPlan([0, 3], [0, 1], 3)),
    "sddmm 2-D": lambda: nx.sddmm(_zeros(3, 2), _zeros(3, 2), nx.PairPlan([[0, 1]], [[0, 1]], 3)),
    "sddmm operands": lambda: nx.sddmm(_zeros(3, 2), _zeros(4, 2), nx.PairPlan([0, 1], [0, 1], 3)),
    "sddmm bound": lambda: nx.sddmm(_zeros(3, 2), _zeros(3, 2), nx.PairPlan([0, 1], [0, 1], 2)),
    "spmm column": lambda: nx.spmm(_zeros(1, 2), _zeros(3, 2), nx.PairPlan([0, 1], [0, 1], 3)),
    "spmm range": lambda: nx.spmm(_zeros(2, 1), _zeros(3, 2), nx.PairPlan([0, 1], [0, 3], 3)),
    "spmm lengths": lambda: nx.spmm(_zeros(2, 1), _zeros(3, 2), nx.PairPlan([0, 1], [0], 3)),
    "spmm bound": lambda: nx.spmm(_zeros(2, 1), _zeros(3, 2), nx.PairPlan([0, 1], [0, 1], 4)),
    "pair_hidden items": lambda: nx.pair_hidden(
        _zeros(3, 2), _zeros(3, 2), _zeros(1, 2), _pairs([0, 1])
    ),
    "pair_hidden negative": lambda: nx.pair_hidden(
        _zeros(3, 2), _zeros(3, 2), _zeros(1, 2), _pairs([[0, -1]])
    ),
    "pair_hidden range": lambda: nx.pair_hidden(
        _zeros(3, 2), _zeros(2, 2), _zeros(1, 2), _pairs([[0, 2]])
    ),
    "pair_hidden widths": lambda: nx.pair_hidden(
        _zeros(3, 2), _zeros(3, 3), _zeros(1, 2), _pairs([[0, 1]])
    ),
    "pair_hidden bias": lambda: nx.pair_hidden(
        _zeros(3, 2), _zeros(3, 2), _zeros(2, 2), _pairs([[0, 1]])
    ),
}


@pytest.mark.parametrize("case", sorted(_MISSHAPED_CALLS))
def test_pair_list_primitives_reject_misshaped_inputs(case):
    with pytest.raises(ShapeError):
        _MISSHAPED_CALLS[case]()


def test_pair_plan_keeps_checked_read_only_copies_and_derives_fresh_arrays():
    rng = np.random.default_rng(21)
    n = 7
    rows = np.sort(np.concatenate([np.arange(n), rng.integers(0, n, size=20)]))
    cols = rng.integers(0, n, size=rows.size)
    plan = nx.PairPlan(rows, cols, n)
    rows[0], cols[0] = 3, 3  # the plan holds copies of its inputs
    assert plan.rows[0] == 0 and plan.size == rows.size and plan.n == n
    rows, cols = plan.rows, plan.cols
    starts = np.searchsorted(rows, np.arange(n))
    fresh = {
        "keys": rows * n + cols,
        "starts": starts,
        "below": rows * n + cols - (np.arange(rows.size) - starts[rows]),
        "slots 0": (rows[:, None] * 3 + np.arange(3)).ravel(),
        "slots 1": (cols[:, None] * 3 + np.arange(3)).ravel(),
    }
    derived = {
        "keys": plan.keys, "starts": plan.starts, "below": plan.below,
        "slots 0": plan.slots(0, 3), "slots 1": plan.slots(1, 3),
    }
    for name, array in derived.items():
        assert np.array_equal(array, fresh[name]), name
        assert not array.flags.writeable, name
    for array in (rows, cols):
        assert not array.flags.writeable
    # each derived array is built once and kept
    assert plan.keys is plan.keys and plan.starts is plan.starts and plan.below is plan.below
    assert plan.slots(1, 3) is plan.slots(1, 3)


def test_pair_plan_of_pairs_is_sized_by_the_largest_index():
    plan = nx.PairPlan.of_pairs(np.array([[0, 4], [2, 1], [4, 4]]))
    assert plan.n == 5
    assert np.array_equal(plan.rows, [0, 2, 4]) and np.array_equal(plan.cols, [4, 1, 4])
    assert nx.PairPlan.of_pairs(np.zeros((0, 2), dtype=int)).n == 0


def test_pair_ops_that_read_no_segments_take_unsorted_pairs():
    plan = nx.PairPlan([2, 0, 1, 0], [1, 2, 0, 0], 3)
    assert nx.sddmm(_zeros(3, 2), _zeros(3, 2), plan).shape == (4, 1)
    with pytest.raises(ShapeError):
        plan.starts


@pytest.mark.parametrize("columns", range(2, 8))
def test_narrow_row_reductions_equal_row_wise_ones_bit_for_bit(columns):
    """Fewer than 8 columns reduce down the contiguous transpose, which adds
    each row's entries in the order a row-wise reduction does."""
    rng = np.random.default_rng(columns)
    wide = rng.choice([-1.0, 1.0], size=(301, columns)) * 10.0 ** rng.uniform(-8, 8, (301, columns))
    wide[rng.random(wide.shape) < 0.05] = 0.0
    logits = 4.0 * rng.normal(size=(301, columns))
    for x in (wide, logits, np.asfortranarray(wide)):
        row_sums = np.ascontiguousarray(x).sum(axis=1, keepdims=True)
        assert nx.sums(Tensor(x), 1).data.tobytes() == row_sums.tobytes()
        e = np.exp(x - x.max(axis=1, keepdims=True))
        expected = np.ascontiguousarray(e / e.sum(axis=1, keepdims=True))
        out = nx.softmax_rows(Tensor(x)).data
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()


def test_width_one_and_planned_scatters_equal_the_slot_scatter_bit_for_bit():
    rng = np.random.default_rng(23)
    indices = rng.integers(0, 9, size=40)
    for width in (1, 5):
        x = rng.normal(size=(40, width))
        slots = (indices[:, None] * width + np.arange(width)).ravel()
        expected = np.bincount(slots, weights=x.ravel(), minlength=9 * width).reshape(9, width)
        assert nx.scatter_rows(Tensor(x), indices, 9).data.tobytes() == expected.tobytes()
        plan = nx.PairPlan(indices, indices, 9)
        params = {"indices": plan.rows, "num_rows": 9, "slots": plan.slots(0, width)}
        assert nx._FORWARD["scatter_rows"]([x], params).tobytes() == expected.tobytes()


def test_softmax_rows_examples():
    assert np.array_equal(nx.softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])
    # large logits must not overflow
    big = nx.softmax_rows(Tensor([[1000.0, 0.0]])).data
    assert np.all(np.isfinite(big))
    assert big[0, 0] == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    p = nx.softmax_rows(Tensor(rng.normal(size=(5, 7)))).data
    assert np.all(p > 0.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12


def test_mean_pool_examples():
    out = nx.mean_pool(Tensor([[1.0, 3.0], [3.0, 5.0]]))
    assert np.array_equal(out.data, [[2.0, 4.0]])
    single = Tensor([[7.0, -1.0]])
    assert np.array_equal(nx.mean_pool(single).data, single.data)
    with pytest.raises(ValidationError):
        nx.mean_pool(Tensor(np.zeros((0, 3))))


def test_smooth_l1_branch_values():
    x = Tensor([0.5, -2.0, 1.0, 0.0])
    out = nx.smooth_l1(x).data
    assert np.array_equal(out, [[0.125, 1.5, 0.5, 0.0]])


def test_leaky_relu_values():
    out = nx.leaky_relu(Tensor([2.0, -2.0]), slope=0.25).data
    assert np.array_equal(out, [[2.0, -0.5]])


def test_leaky_relu_matches_its_gate_composition_bitwise():
    x = Tensor(np.random.default_rng(4).normal(size=(6, 7)))
    mask = Tensor((x.data > 0.0).astype(np.float64))
    gate = nx.add_scalar(nx.mul_scalar(mask, 1.0 - 0.2), 0.2)
    assert np.array_equal(nx.leaky_relu(x, 0.2).data, nx.hadamard(x, gate).data)


@pytest.mark.parametrize("ta, tb", [(False, False), (True, False), (False, True), (True, True)])
def test_matmul_transpose_flags_read_operands_transposed(ta, tb):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 3) if ta else (3, 4))
    b = rng.normal(size=(2, 4) if tb else (4, 2))
    out = nx.matmul(Tensor(a), Tensor(b), ta=ta, tb=tb).data
    assert out.shape == (3, 2)
    reference = (a.T.copy() if ta else a) @ (b.T.copy() if tb else b)
    assert np.allclose(out, reference, rtol=1e-13, atol=1e-13)
    with pytest.raises(ShapeError):
        nx.matmul(Tensor(a), Tensor(b), ta=not ta, tb=tb)


def test_scatter_rows_matches_add_at_bitwise():
    rng = np.random.default_rng(12)
    for _ in range(20):
        rows, cols, num_rows = rng.integers(0, 30), rng.integers(0, 5), rng.integers(1, 8)
        idx = rng.integers(0, num_rows, size=rows)
        x = rng.normal(size=(rows, cols))
        reference = np.zeros((num_rows, cols))
        np.add.at(reference, idx, x)
        out = nx.scatter_rows(Tensor(x), idx, num_rows).data
        assert out.shape == reference.shape
        assert np.array_equal(out, reference)


def test_l2_norm_known_value():
    n = nx.l2_norm([Tensor([3.0]), Tensor([4.0])])
    assert n == 5.0


_POINTS = np.array([[-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 0.75, 1.0, 3.0]])

_PIECEWISE_CONSTANT_DERIVATIVES = {
    "relu": (nx.relu, (_POINTS > 0.0).astype(np.float64)),
    "clamp_min": (lambda x: nx.clamp_min(x, 0.5), (_POINTS > 0.5).astype(np.float64)),
    "clip_unit": (nx.clip_unit, (np.abs(_POINTS) < 1.0).astype(np.float64)),
    "leaky_relu": (lambda x: nx.leaky_relu(x, 0.2), np.where(_POINTS > 0.0, 1.0, 0.2)),
}


@pytest.mark.parametrize("op", sorted(_PIECEWISE_CONSTANT_DERIVATIVES))
def test_piecewise_constant_derivatives_enter_as_untracked_constants(op):
    f, derivative = _PIECEWISE_CONSTANT_DERIVATIVES[op]
    x = Tensor(_POINTS, requires_grad=True)
    w = Tensor(np.linspace(-1.0, 1.0, _POINTS.size)[:, None], requires_grad=True)
    tape = Tape()
    with tape:
        y = nx.matmul(f(x), w)
    forward = len(tape)
    (gx,) = tape.gradient(y, [x], create_graph=True)
    recorded = tape.nodes[forward:]
    # the mask is no op of its own: every recorded backward node is tracked
    assert [n.op for n in recorded] == ["matmul", "hadamard"]
    assert all(n.output.requires_grad for n in recorded)
    g, mask = recorded[1].inputs
    assert g.requires_grad and not mask.requires_grad
    assert np.array_equal(mask.data, derivative)
    assert np.array_equal(gx.data, w.data.T * derivative)


# ------------------------------------------------------- gradient correctness


def test_every_primitive_matches_central_differences():
    """Ten seeded points per primitive, step 1e-5."""
    ops = sorted(nx._FORWARD)
    assert set(ops) == set(oracles.PRIMITIVE_CASES)
    assert all(callable(nx._BACKWARD[op]) for op in ops)
    for op in ops:
        for point in range(10):
            rng = np.random.default_rng(gd.seed_from(7, op, point))
            errs = oracles.primitive_gradient_errors(op, rng)
            assert max(errs) <= 1e-4, (op, point, errs)


#: composite -> (call, the one primitive it records, its former kernel)
_CONSTANT_OPERAND_COMPOSITES = {
    "add_scalar": (lambda x: nx.add_scalar(x, -0.3), "add",
                   lambda x: oracles.scalar_add(x, -0.3)),
    "leaky_relu": (lambda x: nx.leaky_relu(x, 0.2), "hadamard",
                   lambda x: oracles.gated_leaky_relu(x, 0.2)),
}


def _composite_second_order_error(name, rng):
    """d/dw of the recorded gradients of sum(f(xs) * w) over f's outputs,
    each dotted with a probe, against central differences of those recorded
    first gradients."""
    arrays, call = oracles.COMPOSITE_CASES[name](rng)
    w_np = rng.uniform(-1.0, 1.0, arrays[0].shape)
    probes = [Tensor(rng.uniform(-1.0, 1.0, x_np.shape)) for x_np in arrays]

    def probed_gradient(w_values):
        xs = [Tensor(x_np, requires_grad=True) for x_np in arrays]
        w = Tensor(w_values, requires_grad=True)
        tape = Tape()
        with tape:
            outputs = call(*xs)
            outputs = outputs if isinstance(outputs, tuple) else (outputs,)
            loss = functools.reduce(nx.add, [nx.sums(nx.hadamard(y, w), None) for y in outputs])
            grads = tape.gradient(loss, xs, create_graph=True)
            out = functools.reduce(
                nx.add, [nx.sums(nx.hadamard(g, probe), None) for g, probe in zip(grads, probes)]
            )
        return tape, out, w

    tape, out, w = probed_gradient(w_np)
    (gw,) = tape.gradient(out, [w])
    fd = oracles.central_difference(lambda v: probed_gradient(v)[1].item(), w_np.copy())
    return oracles.max_rel_err(gw.data, fd)


@pytest.mark.parametrize("name", sorted(_CONSTANT_OPERAND_COMPOSITES))
def test_constant_operand_composites_record_one_primitive(name):
    call, op, kernel = _CONSTANT_OPERAND_COMPOSITES[name]
    assert name not in nx._FORWARD
    special = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 745.0]
    rng = np.random.default_rng(31)
    for x_np in (np.array([special]), rng.normal(size=(40, 32))):
        x = Tensor(x_np, requires_grad=True)
        tape = Tape()
        with tape:
            y = call(x)
        assert [node.op for node in tape.nodes] == [op]
        assert not tape.nodes[0].inputs[1].requires_grad
        assert np.array_equal(y.data.view(np.int64), kernel(x_np).view(np.int64))


@pytest.mark.parametrize("name", sorted(oracles.COMPOSITE_CASES))
def test_composites_match_central_differences_to_second_order(name):
    """Ten seeded points per composite, as criterion 1 checks a primitive."""
    assert name not in nx._FORWARD
    for point in range(10):
        rng = np.random.default_rng(gd.seed_from(7, name, point))
        assert max(oracles.primitive_gradient_errors(name, rng)) <= 1e-4, (name, point)
        assert _composite_second_order_error(name, rng) <= 1e-4, (name, point)


def test_sub_is_the_add_of_a_negation_bit_for_bit():
    values = np.array([0.0, -0.0, 1.5, -2.25, 1e300, -5e-324, np.inf, -np.inf])
    n = values.size
    # every (a entry, b entry) pair of values meets once in each form of b
    a_by_row, a_by_col = np.repeat(values[:, None], n, 1), np.repeat(values[None, :], n, 0)
    forms = [(a_by_row, a_by_col), (a_by_row, values[None, :]), (a_by_col, values[:, None])]
    forms += [(a_by_col, np.array([[v]])) for v in values]
    for a_np, b_np in forms:
        with np.errstate(invalid="ignore"):  # inf - inf
            expected = a_np - b_np
        for b_tracked in (False, True):
            a, b = Tensor(a_np, requires_grad=True), Tensor(b_np, requires_grad=b_tracked)
            tape = Tape()
            with tape, np.errstate(invalid="ignore"):
                y = nx.sub(a, b)
            assert [node.op for node in tape.nodes] == ["mul_scalar", "add"][not b_tracked:]
            assert np.array_equal(y.data.view(np.int64), expected.view(np.int64))
    assert len(nx._FORWARD) == 20 and "sub" not in nx._FORWARD


def test_gradients_are_constants_unless_recorded():
    x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
    for create_graph in (False, True):
        tape = Tape()
        with tape:
            y = nx.sums(nx.hadamard(nx.sigmoid(x), x), None)
        (g,) = tape.gradient(y, [x], create_graph=create_graph)
        assert g.requires_grad is create_graph


def test_ops_on_constants_record_nothing():
    c = Tensor(np.ones((2, 2)))
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = Tape()
    with tape:
        y = nx.sigmoid(nx.add(c, c))
        z = nx.hadamard(x, y)
    assert not y.requires_grad and z.requires_grad
    assert [node.op for node in tape.nodes] == ["hadamard"]
    assert tape.gradient(nx.sums(y, None), [x])[0].data.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_ops_outside_every_tape_keep_tracking():
    # the outer optimizers update parameters on no tape
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    assert not nx._TAPE_STACK
    assert nx.sub(x, nx.mul_scalar(Tensor(np.ones((2, 2))), 0.1)).requires_grad
    assert not nx.mul_scalar(Tensor(np.ones((2, 2))), 0.1).requires_grad


def test_gradient_of_square_at_three():
    x = _scalar(3.0)
    tape = Tape()
    with tape:
        y = nx.hadamard(x, x)
    g = tape.gradient(y, [x])[0]
    assert g.item() == pytest.approx(6.0, abs=1e-12)


def test_nested_gradient_of_cube():
    # d/dx x^3 = 3x^2, d2/dx2 = 6x, d3/dx3 = 6; evaluated at x = 2
    x = _scalar(2.0)
    tape = Tape()
    with tape:
        y = nx.hadamard(nx.hadamard(x, x), x)
    g1 = tape.gradient(y, [x], create_graph=True)[0]
    g2 = tape.gradient(g1, [x], create_graph=True)[0]
    g3 = tape.gradient(g2, [x], create_graph=True)[0]
    assert g1.item() == pytest.approx(12.0, abs=1e-10)
    assert g2.item() == pytest.approx(12.0, abs=1e-10)
    assert g3.item() == pytest.approx(6.0, abs=1e-10)


def test_first_order_tape_does_not_record_backward():
    """By default the gradient is a constant: no second derivative."""
    x = _scalar(2.0)
    tape = Tape()
    with tape:
        y = nx.hadamard(nx.hadamard(x, x), x)
    g1 = tape.gradient(y, [x])[0]
    assert g1.item() == pytest.approx(12.0, abs=1e-10)
    g2 = tape.gradient(g1, [x])[0]
    assert np.array_equal(g2.data, np.zeros((1, 1)))


def test_an_unrecorded_gradient_records_on_no_tape():
    """create_graph=False pauses every tape, also inside another tape's block,
    and recording resumes on that tape once the gradient returns."""
    x = _scalar(2.0)
    tape, other = Tape(), Tape()
    with tape:
        y = nx.hadamard(nx.hadamard(x, x), x)
    forward = len(tape)
    with other:
        g = tape.gradient(y, [x])[0]
        with tape:
            g_inside = tape.gradient(y, [x])[0]
        nx.sigmoid(x)
    assert len(tape) == forward
    assert [node.op for node in other.nodes] == ["sigmoid"]
    assert g.item() == g_inside.item() == 12.0


def test_a_recorded_gradient_goes_on_its_own_tape_under_another():
    """create_graph=True records on the differentiated tape, not on the tape
    on top of the stack, which records again once the gradient returns."""
    x = _scalar(2.0)
    tape, other = Tape(), Tape()
    with tape:
        y = nx.hadamard(nx.hadamard(x, x), x)
    forward = len(tape)
    with other:
        g = tape.gradient(y, [x], create_graph=True)[0]
        nx.sigmoid(g)
    assert len(tape) > forward
    assert [node.op for node in other.nodes] == ["sigmoid"]
    assert tape.gradient(g, [x])[0].item() == pytest.approx(12.0, abs=1e-10)


def test_recorded_and_unrecorded_walks_sum_a_shared_adjoint_alike(monkeypatch):
    """A tensor that feeds several ops collects one adjoint contribution per
    use. A recorded walk sums them with ``add`` nodes; an unrecorded walk
    sums the bare arrays with add's own kernel expression, in the same
    order, and calls no op; the gradients agree bit for bit."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-2.0, 2.0, (4, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1.0, 1.0, (3, 3)), requires_grad=True)
    tape = Tape()
    with tape:
        uses = [nx.sigmoid(x), nx.matmul(x, w), nx.hadamard(x, x), nx.mul_scalar(x, 0.3), nx.relu(x)]
        y = nx.sums(nx.hadamard(functools.reduce(nx.add, uses), Tensor(rng.normal(size=(4, 3)))), None)
    calls = []
    add = nx.add

    def counted(a, b):
        calls.append(a.requires_grad or b.requires_grad)
        return add(a, b)

    monkeypatch.setattr(nx, "add", counted)
    plain = tape.gradient(y, [x, w])
    assert calls == []
    before = len(tape)
    recorded = tape.gradient(y, [x, w], create_graph=True)
    # six contributions reach x (hadamard(x, x) gives two): five sums, each
    # recorded unless both of its terms are still constants
    assert len(calls) == 5
    assert sum(node.op == "add" for node in tape.nodes[before:]) == sum(calls) > 0
    assert _bits(plain) == _bits(recorded)


def test_second_derivatives_match_finite_differences():
    """Exact-mode double backward against FD of the analytic first gradient."""
    rng = np.random.default_rng(23)
    base = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))
    d = rng.normal(size=(3, 4))

    def first_grad(x_np):
        tape = Tape()
        x = Tensor(x_np, requires_grad=True)
        with tape:
            y = nx.sums(nx.hadamard(nx.sigmoid(x), nx.hadamard(x, Tensor(c))), None)
        return tape.gradient(y, [x], create_graph=True)[0]

    def projected_first(x_np):
        return float(np.sum(first_grad(x_np).data * d))

    tape = Tape()
    x = Tensor(base, requires_grad=True)
    with tape:
        y = nx.sums(nx.hadamard(nx.sigmoid(x), nx.hadamard(x, Tensor(c))), None)
    g = tape.gradient(y, [x], create_graph=True)[0]
    with tape:
        s = nx.sums(nx.hadamard(g, Tensor(d)), None)
    second = tape.gradient(s, [x], create_graph=True)[0]
    fd = oracles.central_difference(projected_first, base.copy())
    assert oracles.max_rel_err(second.data, fd) <= 1e-3


def test_gradient_target_must_be_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = Tape()
    with tape:
        y = nx.hadamard(x, x)
    with pytest.raises(ContractError):
        tape.gradient(y, [x])


def test_parameter_off_tape_gets_zero_gradient():
    x = _scalar(1.5)
    z = Tensor(np.ones((2, 3)), requires_grad=True)
    tape = Tape()
    with tape:
        y = nx.hadamard(x, x)
    gx, gz = tape.gradient(y, [x, z])
    assert gx.item() == pytest.approx(3.0)
    assert gz.shape == z.shape
    assert np.array_equal(gz.data, np.zeros((2, 3)))


def test_tape_replay_is_bit_identical():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    tape = Tape()
    with tape:
        h = nx.sigmoid(nx.matmul(a, w))
        y = nx.sums(nx.softmax_rows(h), None)
    tape.gradient(y, [a, w], create_graph=True)
    checked = oracles.replay(tape)
    assert checked == len(tape) and checked > 0


def test_tape_replay_is_bit_identical_with_flagged_matmuls():
    rng = np.random.default_rng(6)
    a, a_t = Tensor(rng.normal(size=(3, 4)), True), Tensor(rng.normal(size=(4, 3)), True)
    b, b_t = Tensor(rng.normal(size=(4, 2)), True), Tensor(rng.normal(size=(2, 4)), True)
    tape = Tape()
    with tape:
        y = nx.sums(nx.sigmoid(nx.add(
            nx.add(nx.matmul(a, b), nx.matmul(a_t, b, ta=True)),
            nx.add(nx.matmul(a, b_t, tb=True), nx.matmul(a_t, b_t, ta=True, tb=True)),
        )), None)
    forward = len(tape)
    tape.gradient(y, [a, a_t, b, b_t], create_graph=True)
    flags = {(n.params["ta"], n.params["tb"]) for n in tape.nodes[forward:] if n.op == "matmul"}
    assert flags == {(False, False), (True, False), (False, True), (True, True)}
    assert oracles.replay(tape) == len(tape)


_CONSTANT_OPERAND_CASES = {
    "matmul": ((3, 4), (4, 2), nx.matmul),
    "matmul_ta": ((4, 3), (4, 2), lambda a, b: nx.matmul(a, b, ta=True)),
    "matmul_tb": ((3, 4), (2, 4), lambda a, b: nx.matmul(a, b, tb=True)),
    "hadamard": ((3, 4), (3, 4), nx.hadamard),
    "hadamard_row": ((3, 4), (1, 4), nx.hadamard),
    "sub": ((3, 4), (3, 4), nx.sub),
    "sub_column": ((3, 4), (3, 1), nx.sub),
}


@pytest.mark.parametrize("case", sorted(_CONSTANT_OPERAND_CASES))
@pytest.mark.parametrize("tracked", [0, 1])
def test_backward_records_nothing_for_constant_operands(case, tracked):
    """Every node an exact backward records feeds the gradient it returns."""
    shape_a, shape_b, op = _CONSTANT_OPERAND_CASES[case]
    rng = np.random.default_rng(9)
    operands = [
        Tensor(rng.normal(size=shape), requires_grad=(k == tracked))
        for k, shape in enumerate((shape_a, shape_b))
    ]
    tape = Tape()
    with tape:
        y = nx.sums(nx.sigmoid(op(*operands)), None)
    forward = len(tape)
    grad = tape.gradient(y, [operands[tracked]], create_graph=True)[0]
    backward = set(range(forward, len(tape)))
    assert backward, "the backward pass recorded nothing"
    assert backward <= oracles.recorded_ancestors(tape, grad)


# ------------------------------------------------------- the pruned walk

_N = 3
_PAIR_SRC = nx.PairPlan([0, 1, 1, 2], [2, 0, 0, 1], _N)
_PAIR_DST = nx.PairPlan([0, 1, 1, 2], [1, 2, 2, 0], _N)

#: square-preserving primitive chains: name -> (arity, call on (_N, _N) operands)
_CHAIN_OPS = {
    "matmul": (2, nx.matmul),
    "matmul_ta_tb": (2, lambda a, b: nx.matmul(a, b, ta=True, tb=True)),
    "add": (2, nx.add),
    "sub": (2, nx.sub),
    "hadamard": (2, nx.hadamard),
    "add_scalar": (1, lambda a: nx.add_scalar(a, -0.3)),
    "mul_scalar": (1, lambda a: nx.mul_scalar(a, 0.7)),
    "sigmoid": (1, nx.sigmoid),
    "relu": (1, nx.relu),
    "leaky_relu": (1, lambda a: nx.leaky_relu(a, 0.2)),
    "one_minus": (1, nx.one_minus),
    "reciprocal": (1, lambda a: nx.reciprocal(nx.add_scalar(nx.sigmoid(a), 0.5))),
    "log": (1, lambda a: nx.log(nx.add_scalar(nx.sigmoid(a), 0.5))),
    "clamp_min": (1, lambda a: nx.clamp_min(a, 0.1)),
    "smooth_l1": (1, nx.smooth_l1),
    "clip_unit": (1, nx.clip_unit),
    "softmax_rows": (1, nx.softmax_rows),
    "add_row": (2, lambda a, b: nx.add(a, nx.sums(b, 0))),
    "sub_col": (2, lambda a, b: nx.sub(a, nx.sums(b, 1))),
    "hadamard_scalar": (2, lambda a, b: nx.hadamard(a, nx.sums(b, None))),
    "sums_rows": (1, lambda a: nx.broadcast(nx.sums(a, 0), (_N, _N))),
    "sums_cols": (1, lambda a: nx.broadcast(nx.sums(a, 1), (_N, _N))),
    "sums_all": (1, lambda a: nx.broadcast(nx.sums(a, None), (_N, _N))),
    "gather_rows": (1, lambda a: nx.gather_rows(a, [2, 0, 2])),
    "scatter_rows": (1, lambda a: nx.scatter_rows(a, [1, 1, 0], _N)),
    "spmm": (2, lambda a, b: nx.spmm(nx.sddmm(a, b, _PAIR_SRC), b, _PAIR_DST)),
    "spmm_t": (2, lambda a, b: nx.spmm(nx.sddmm(a, b, _PAIR_SRC), a, _PAIR_DST, transpose=True)),
    "segment_softmax": (1, lambda a: nx.spmm(
        nx.segment_softmax(nx.sddmm(a, a, _PAIR_SRC), oracles.segment_plan([0, 2], 4)), a, _PAIR_DST
    )),
    "pair_hidden": (2, lambda a, b: nx.pair_hidden(
        a, b, nx.sums(b, 0), nx.PairPlan.of_pairs([[0, 2], [1, 1], [2, 0]])
    )),
}


def _bits(tensors):
    return [t.data.tobytes() for t in tensors]


def test_gradient_stops_at_the_first_requested_intermediate():
    """A gradient with respect to tensors made on the tape does not revisit
    the nodes before them, and returns the full walk's bits."""
    x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
    tape = Tape()
    with tape:
        h1 = nx.sigmoid(x)
        h2 = nx.hadamard(h1, h1)
        h3 = nx.mul_scalar(h2, 3.0)
        y = nx.sums(nx.hadamard(h3, h2), None)
    forward = len(tape)
    grads = tape.gradient(y, [h3, h2], create_graph=True)
    # the backward of hadamard(h1, h1) and sigmoid(x) is never recorded
    recorded = tape.nodes[forward:]
    assert recorded and all(inp is not h1 and inp is not x for node in recorded for inp in node.inputs)
    assert _bits(grads) == _bits(oracles.full_walk_gradient(tape, y, [h3, h2], create_graph=True))
    # a leaf among the requested tensors still walks the whole tape
    assert _bits(tape.gradient(y, [h2, x], create_graph=True)) == _bits(
        oracles.full_walk_gradient(tape, y, [h2, x], create_graph=True)
    )


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data(), create_graph=st.booleans())
def test_gradient_matches_the_full_walk_bitwise_on_random_chains(data, create_graph):
    # long chains may overflow; the bits must agree all the same
    with np.errstate(all="ignore"):
        _check_random_chain(data, create_graph)


def _check_random_chain(data, create_graph):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=3), label="leaves")
    leaves = [Tensor(rng.uniform(-2.0, 2.0, (_N, _N)), requires_grad=f) for f in flags]
    pool = list(leaves)
    tape = Tape()
    with tape:
        for name in data.draw(st.lists(st.sampled_from(sorted(_CHAIN_OPS)), min_size=1,
                                       max_size=10), label="ops"):
            arity, call = _CHAIN_OPS[name]
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=arity,
                                       max_size=arity), label="operands")
            pool.append(call(*[pool[k] for k in picks]))
        output = nx.sums(nx.hadamard(pool[-1], Tensor(rng.uniform(-1.0, 1.0, (_N, _N)))), None)
    # intermediates only exercise the early stop; a leaf forces the full walk
    first = data.draw(st.sampled_from([0, len(leaves)]), label="wrt from")
    picked = data.draw(st.lists(st.integers(first, len(pool) - 1), min_size=1, max_size=4,
                                unique=True), label="wrt")
    wrt = [pool[k] for k in picked]
    got = tape.gradient(output, wrt, create_graph=create_graph)
    want = oracles.full_walk_gradient(tape, output, wrt, create_graph=create_graph)
    assert _bits(got) == _bits(want)
    if create_graph:
        # the recorded gradients differentiate again to the same bits
        probes = [Tensor(rng.uniform(-1.0, 1.0, t.shape)) for t in wrt]
        with tape:
            second = [
                nx.sums(nx.hadamard(g, p), None)
                for grads in (got, want) for g, p in zip(grads, probes)
            ]
            s_got = functools.reduce(nx.add, second[: len(wrt)])
            s_want = functools.reduce(nx.add, second[len(wrt):])
        assert _bits(tape.gradient(s_got, leaves, create_graph=True)) == _bits(
            oracles.full_walk_gradient(tape, s_want, leaves, create_graph=True)
        )


def test_operations_require_open_tape_context():
    tape = Tape()
    x = _scalar(1.0)
    with tape:
        y = nx.sigmoid(x)
    # recording after the context closed goes to no tape: gradient is zero
    z = nx.sigmoid(y)
    g = tape.gradient(nx.sums(y, None) if y.shape != (1, 1) else y, [x])[0]
    assert np.isfinite(g.item())
    assert z.shape == (1, 1)


def test_exact_outer_step_records_nothing_after_its_objective(monkeypatch):
    seq = gd.generate_drifting_sbm(12, 2, 0.4, 0.1, 0.1, 5, seed=3, train_frac=0.8, val_frac=0.0)
    spec = md.ModelSpec(
        md.EncoderConfig(base_model="attention", num_layers=1, input_dim=12, hidden_dim=3)
    )
    config = mt.TrainingConfig(window_size=2, eta_in=0.1, eta_out=0.01, gradient_mode="exact")
    params = md.init_parameters(spec, seed=0)
    window = mt.build_window(seq, 3, config)
    batch = gd.sample_link_prediction_batch(seq.snapshot_at(3), 1, seed=1)
    targets = []
    gradient = Tape.gradient

    def spy(tape, output, *args, **kwargs):
        targets.append(output)
        return gradient(tape, output, *args, **kwargs)

    monkeypatch.setattr(Tape, "gradient", spy)
    tape = Tape()
    adapted = mt.inner_adapt(window, params, spec, config, tape)
    inner_nodes = len(tape)
    every_state = mt.Adaptation(adapted.states, adapted.losses, None)
    _, record = mt.outer_step(window, every_state, batch, params, spec, config, tape)
    objective = targets[-1]
    assert len(tape) > inner_nodes
    assert tape.nodes[-1].output is objective
    assert objective.item() == record.objective


# ------------------------------------------------------------- parameter sets


def _toy_parameter_set():
    rng = np.random.default_rng(0)
    tensors = {
        "gnn_w1": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "adapter_b1": Tensor(np.zeros((1, 4)), requires_grad=True),
        "time_predictor_w1": Tensor(rng.normal(size=(4, 1)), requires_grad=True),
        "classifier_time_w1": Tensor(rng.normal(size=(4, 2)), requires_grad=True),
        "classifier_graph_w1": Tensor(rng.normal(size=(4, 2)), requires_grad=True),
    }
    groups = {
        "gnn": ("gnn_w1",),
        "adapter": ("adapter_b1",),
        "time_predictor": ("time_predictor_w1",),
        "classifier_time": ("classifier_time_w1",),
        "classifier_graph": ("classifier_graph_w1",),
    }
    return ParameterSet(tensors, groups)


def test_parameter_groups_cover_inner_loop():
    spec = md.ModelSpec(md.EncoderConfig(input_dim=3, hidden_dim=4))
    assert set(mt.INNER_LOOP_GROUPS) < set(md.init_parameters(spec, seed=0).groups)


def test_parameter_set_group_membership_checks():
    params = _toy_parameter_set()
    assert oracles.total_parameters(params) == 12 + 4 + 4 + 8 + 8
    with pytest.raises(ValidationError):
        params.items_in("decoder")
    names = [name for name, _ in params.items_in("gnn", "adapter")]
    assert names == ["gnn_w1", "adapter_b1"]


def test_parameter_set_rejects_bad_group_maps():
    params = _toy_parameter_set()
    tensors = dict(params.items_in())
    groups = {g: params.group_names(g) for g in params.groups}
    doubled = dict(groups)
    doubled["adapter"] = doubled["adapter"] + ("gnn_w1",)
    with pytest.raises(ValidationError):
        ParameterSet(tensors, doubled)
    dangling = dict(groups)
    dangling["gnn"] = ("gnn_w1", "gnn_w9")
    with pytest.raises(ValidationError):
        ParameterSet(tensors, dangling)
    orphan = dict(tensors)
    orphan["extra"] = Tensor(np.zeros((1, 1)), requires_grad=True)
    with pytest.raises(ValidationError):
        ParameterSet(orphan, groups)


def test_with_updates_contracts():
    params = _toy_parameter_set()
    before = params.fingerprint()
    tensors = dict(params.items_in())
    groups = {g: params.group_names(g) for g in params.groups}
    new = Tensor(np.ones((3, 4)), requires_grad=True)
    updated = params.with_updates({"gnn_w1": new, "adapter_b1": tensors["adapter_b1"]})
    assert np.array_equal(updated["gnn_w1"].data, np.ones((3, 4)))
    assert updated["gnn_w1"] is new
    # the result is the set the constructor would build from the merged tensors
    fresh = ParameterSet({**tensors, "gnn_w1": new}, groups)
    assert updated.names == fresh.names == params.names
    assert updated.groups == fresh.groups
    for group in params.groups:
        assert updated.group_names(group) == fresh.group_names(group)
    assert updated.fingerprint() == fresh.fingerprint() != before
    # the source set still holds its own tensors
    assert params.fingerprint() == before
    assert all(params[name] is t for name, t in tensors.items())
    with pytest.raises(ValidationError, match="cannot update unknown parameter 'gnn_w9'"):
        params.with_updates({"adapter_b1": tensors["adapter_b1"], "gnn_w9": new})
    with pytest.raises(
        ShapeError, match=r"update for 'gnn_w1' has shape \(4, 3\), expected \(3, 4\)"
    ):
        params.with_updates({"gnn_w1": Tensor(np.ones((4, 3)), requires_grad=True)})


def test_fingerprint_tracks_values():
    params = _toy_parameter_set()
    bumped = params.with_updates(
        {"adapter_b1": Tensor(np.full((1, 4), 1e-9), requires_grad=True)}
    )
    assert bumped.fingerprint() != params.fingerprint()


# ------------------------------------------------------ broadcasting operands

_BROADCASTING_OPS = {"add": nx.add, "sub": nx.sub, "hadamard": nx.hadamard}


@settings(max_examples=90, derandomize=True, deadline=None, database=None)
@given(
    op=st.sampled_from(sorted(_BROADCASTING_OPS)),
    form=st.sampled_from(["column", "row", "scalar"]),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_broadcasting_operands_match_an_explicit_broadcast_bitwise(op, form, rows, cols, seed):
    """op(a, b) with a row, column or scalar b gives the bits of
    op(a, broadcast(b, a.shape)), forward and in recorded gradients.

    Differentiated again, the two agree to rounding: hadamard's backward
    reads b, so b's second-order contributions are each summed over the
    repeated axes before they are added, where the explicit broadcast adds
    them first and sums once.
    """
    rng = np.random.default_rng(seed)
    shapes = [(rows, cols), {"row": (1, cols), "column": (rows, 1), "scalar": (1, 1)}[form]]
    a_np, b_np = (rng.uniform(-2.0, 2.0, s) for s in shapes)
    weights = rng.uniform(-1.0, 1.0, shapes[0])
    probes = [Tensor(rng.uniform(-1.0, 1.0, s)) for s in shapes]
    runs = []
    for explicit in (False, True):
        a, b = Tensor(a_np, requires_grad=True), Tensor(b_np, requires_grad=True)
        tape = Tape()
        with tape:
            out = _BROADCASTING_OPS[op](a, nx.broadcast(b, a.shape) if explicit else b)
            loss = nx.sums(nx.hadamard(nx.sigmoid(out), Tensor(weights)), None)
        grads = tape.gradient(loss, [a, b], create_graph=True)
        with tape:
            again = nx.add(*[nx.sums(nx.hadamard(g, p), None) for g, p in zip(grads, probes)])
        runs.append(([out, *grads], tape.gradient(again, [a, b])))
    (first, second), (first_explicit, second_explicit) = runs
    assert _bits(first) == _bits(first_explicit)
    for g, g_explicit in zip(second, second_explicit):
        assert np.allclose(g.data, g_explicit.data, rtol=1e-13, atol=1e-15)
    if op != "hadamard":
        assert _bits(second) == _bits(second_explicit)


_BAD_BROADCASTS = {
    "add column to row": lambda: nx.add(_zeros(1, 2), _zeros(2, 1)),
    "sub wider row": lambda: nx.sub(_zeros(3, 2), _zeros(1, 3)),
    "hadamard taller column": lambda: nx.hadamard(_zeros(2, 2), _zeros(3, 1)),
    "hadamard larger first operand": lambda: nx.hadamard(_zeros(1, 2), _zeros(3, 2)),
    "broadcast to a smaller shape": lambda: nx.broadcast(_zeros(1, 3), (4, 2)),
    "broadcast a full matrix": lambda: nx.broadcast(_zeros(2, 2), (4, 4)),
}


@pytest.mark.parametrize("case", sorted(_BAD_BROADCASTS))
def test_operands_that_do_not_broadcast_name_both_shapes(case):
    with pytest.raises(ShapeError, match=r"\(.*\).*\(.*\)"):
        _BAD_BROADCASTS[case]()


def test_sums_takes_axis_0_1_or_none():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(nx.sums(x, 0).data, [[3.0, 5.0, 7.0]])
    assert np.array_equal(nx.sums(x, 1).data, [[3.0], [12.0]])
    assert np.array_equal(nx.sums(x, None).data, [[15.0]])
    with pytest.raises(ShapeError):
        nx.sums(x, 2)
