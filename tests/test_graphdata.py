"""Snapshots, normalization, ingestion, synthetic graphs, sampling, storage."""

import io
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ledg import graphdata as gd
from ledg.errors import ConfigError, DatasetError, ParseError, ValidationError
from ledg.numerics import Tensor


def _stream(text):
    return io.StringIO(text)


# ---------------------------------------------------------------- snapshots


def test_snapshot_canonicalizes_edges():
    snap = gd.SnapshotGraph(1, 4, [(3, 1), (2, 0)], np.eye(4), edge_labels=[5, 7])
    assert snap.edges == ((0, 2, 7), (1, 3, 5))
    assert gd.SnapshotGraph(1, 4, [(3, 1)], np.eye(4)).edges == ((1, 3, None),)
    assert oracles.has_edge(snap, 0, 2) and oracles.has_edge(snap, 2, 0)
    assert not oracles.has_edge(snap, 0, 1)
    assert np.array_equal(snap.pairs, [[0, 2], [1, 3]])
    assert np.array_equal(snap.degrees(), [1, 1, 1, 1])


def test_neighbourhood_is_the_cached_sorted_adjacency_pattern():
    rng = np.random.default_rng(17)
    for edge_p in (0.0, 0.05, 0.3, 1.0):
        snap = oracles.random_snapshot(rng, 1, 12, edge_p, np.eye(12), isolated=3)
        plan = snap.neighbourhood()
        assert snap.neighbourhood() is plan
        rows, cols, starts = plan.rows, plan.cols, plan.starts
        for arr in (rows, cols, starts):
            assert not arr.flags.writeable
        assert plan.n == snap.num_nodes
        assert rows.size == 2 * snap.num_edges + snap.num_nodes
        keys = rows * 12 + cols
        assert np.all(np.diff(keys) > 0)
        reference = oracles.dense_normalized_adjacency(snap)
        pattern = np.nonzero(reference)
        assert np.array_equal(rows, pattern[0]) and np.array_equal(cols, pattern[1])
        column = snap.normalized_adjacency.data
        assert column.tobytes() == reference[rows, cols][:, None].tobytes()
        assert np.array_equal(starts, np.searchsorted(rows, np.arange(12)))
        assert np.array_equal(np.diff(starts, append=rows.size), snap.degrees() + 1)


def test_snapshot_rejects_bad_edges():
    with pytest.raises(ValidationError):
        gd.SnapshotGraph(1, 3, [(0, 5)], np.eye(3))
    with pytest.raises(ValidationError):
        gd.SnapshotGraph(1, 3, [(1, 1)], np.eye(3))
    with pytest.raises(ValidationError):
        gd.SnapshotGraph(1, 3, [(0, 1), (1, 0)], np.eye(3))
    with pytest.raises(ValidationError):
        gd.SnapshotGraph(1, 3, [(0, 1)], np.eye(4))


def test_sequence_split_and_time_ranges():
    snaps = [gd.SnapshotGraph(t, 2, [(0, 1)], np.eye(2)) for t in range(1, 6)]
    seq = gd.DynamicGraphSequence(snaps, (3, 4, 5), "link_prediction", 2)
    assert list(seq.times_in("train")) == [1, 2, 3]
    assert list(seq.times_in("val")) == [4]
    assert list(seq.times_in("test")) == [5]
    assert seq.snapshot_at(2).time_index == 2
    with pytest.raises(ValidationError):
        seq.snapshot_at(6)
    with pytest.raises(ValidationError):
        seq.times_in("holdout")
    with pytest.raises(ValidationError):
        gd.DynamicGraphSequence(snaps, (4, 3, 5), "link_prediction", 2)


# ------------------------------------------------------------- normalization


def _normalized(pairs, n):
    """A snapshot's cached normalized adjacency placed in a dense matrix,
    checked against the dense oracle bit for bit: a (2E + N, 1) column at
    the neighbour pairs, exact zeros elsewhere."""
    snap = gd.SnapshotGraph(1, n, pairs, np.eye(n))
    column = snap.normalized_adjacency
    assert column.shape == (2 * snap.num_edges + n, 1)
    assert snap.normalized_adjacency is column
    plan = snap.neighbourhood()
    dense = np.zeros((n, n))
    dense[plan.rows, plan.cols] = column.data[:, 0]
    assert dense.tobytes() == oracles.dense_normalized_adjacency(snap).tobytes()
    return dense


def test_normalize_adjacency_isolated_node():
    assert np.array_equal(_normalized([], 1), [[1.0]])


def test_normalize_adjacency_single_edge_pair():
    # entries are 1/sqrt(2) * 1/sqrt(2), i.e. 0.5 up to the sqrt rounding
    out = _normalized([(0, 1)], 2)
    assert np.max(np.abs(out - 0.5)) <= 1e-12


def test_normalize_adjacency_mixes_isolated_and_connected():
    out = _normalized([(0, 1)], 3)
    assert out[2, 2] == 1.0
    assert np.all(out[2, :2] == 0.0) and np.all(out[:2, 2] == 0.0)


def test_normalized_adjacency_spectral_radius_and_symmetry():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 10
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        out = _normalized(pairs, n)
        assert np.max(np.abs(out - out.T)) <= 1e-12
        assert np.all(out >= 0.0)
        assert oracles.power_iteration_radius(out) <= 1.0 + 1e-9


def test_normalize_adjacency_permutation_equivariance():
    rng = np.random.default_rng(2)
    n = 8
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    perm = rng.permutation(n)
    base = _normalized(pairs, n)
    permuted = _normalized([(perm[u], perm[v]) for u, v in pairs], n)
    assert np.array_equal(permuted[np.ix_(perm, perm)], base)


# ----------------------------------------------------------------- features


def _stored_arrays(snapshot):
    """Every array a snapshot holds in its slots, tensors and tuples opened."""
    found = []
    for name in gd.SnapshotGraph.__slots__:
        value = getattr(snapshot, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Tensor):
                item = item.data
            if isinstance(item, np.ndarray):
                found.append(item)
    return found


def test_identity_feature_snapshots_hold_no_square_array(tmp_path):
    """Identity features are a mark of width N; neither a generated nor a
    loaded snapshot stores an N x N array, and saving writes no feature file,
    only ``features=identity`` in ``meta``."""
    n = 15
    seq = gd.generate_drifting_sbm(n, 3, 0.5, 0.05, 0.1, 5, seed=9)
    gd.save_dataset(seq, tmp_path / "ds")
    assert not [path.name for path in (tmp_path / "ds").glob("snapshot_*.npy")]
    assert "features=identity" in (tmp_path / "ds" / "meta").read_text().splitlines()
    loaded = gd.load_dataset(tmp_path / "ds")
    assert all(snap.features is loaded.snapshot_at(1).features for snap in loaded)
    for snap in (*seq, *loaded):
        assert snap.normalized_adjacency.shape == (2 * snap.num_edges + n, 1)
        assert isinstance(snap.features, gd.IdentityFeatures)
        assert snap.feature_width == n
        shapes = [a.shape for a in _stored_arrays(snap)]
        assert shapes and (n, n) not in shapes


def test_sequence_refuses_identity_marks_mixed_with_feature_arrays(tmp_path):
    """A sequence's features are all identity marks or all arrays, so saving
    decides once whether it writes feature files; an eye array stays an
    array and is written as one."""
    marked = gd.SnapshotGraph(1, 3, [(0, 1)], gd.IdentityFeatures(3))
    eye = gd.SnapshotGraph(2, 3, [(1, 2)], np.eye(3))
    with pytest.raises(ValidationError, match="mix identity features"):
        gd.DynamicGraphSequence([marked, eye], (1, 1, 2), "link_prediction", 2)
    first = gd.SnapshotGraph(1, 3, [(0, 1)], np.eye(3))
    seq = gd.DynamicGraphSequence([first, eye], (1, 1, 2), "link_prediction", 2)
    gd.save_dataset(seq, tmp_path / "ds")
    assert "features=files" in (tmp_path / "ds" / "meta").read_text().splitlines()
    loaded = gd.load_dataset(tmp_path / "ds")
    assert all(isinstance(snap.features, Tensor) for snap in loaded)
    assert np.array_equal(loaded.snapshot_at(2).features.data, np.eye(3))


def test_identity_dataset_size_grows_with_edges_not_nodes_squared(tmp_path):
    """An N=1000 identity dataset of two snapshots stays under 1 MB; with an
    N x N float64 feature file per snapshot it took 16 MB."""
    seq = gd.generate_drifting_sbm(1000, 4, 0.03, 0.003, 0.05, 2, seed=3)
    gd.save_dataset(seq, tmp_path / "ds")
    assert sum(path.stat().st_size for path in (tmp_path / "ds").iterdir()) < 1_000_000
    assert sum(snap.num_edges for snap in seq) > 5000


def test_degree_bucket_features_star_graph():
    # degrees: hub 4, leaves 1, one isolated node
    edges = [[(0, 1), (0, 2), (0, 3), (0, 4)]]
    feats = gd.degree_bucket_features(edges, 6)
    x = feats[0].data
    assert x.shape == (6, 4)
    assert np.array_equal(x[0], [0.0, 0.0, 0.0, 1.0])
    for leaf in (1, 2, 3, 4):
        assert np.array_equal(x[leaf], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(x[5], np.zeros(4))


# ---------------------------------------------------------------- ingestion


def test_ingest_fixed_interval_buckets():
    text = "a b 0\nb c 1\nc d 10\na d 11\n"
    seq = gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(10.0))
    assert len(seq) == 2
    assert [s.num_edges for s in seq] == [2, 2]
    assert seq.node_names == ("a", "b", "c", "d")
    assert oracles.edge_set(seq.snapshot_at(1)) == {(0, 1), (1, 2)}
    assert oracles.edge_set(seq.snapshot_at(2)) == {(2, 3), (0, 3)}


def test_ingest_equal_edge_count_remainder():
    text = "\n".join(f"n{i} n{i + 1} {i}" for i in range(5)) + "\n"
    seq = gd.ingest_edge_stream(_stream(text), gd.EqualEdgeCountBucketing(2))
    assert [s.num_edges for s in seq] == [2, 2, 1]


def test_ingest_merges_duplicate_edges_keeping_the_last_label():
    # the link-prediction values are checked and dropped
    text = "a b 0 2.0\nb a 1 3.0\nb c 2\n"
    seq = gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(100.0))
    assert seq.snapshot_at(1).edges == ((0, 1, None), (1, 2, None))
    # the last label in timestamp order wins, whatever the line order
    text = "b a 3 2\na b 0 1\nb c 2\nc b 1 1\n"
    seq = gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(100.0),
                                task="edge_classification")
    assert seq.snapshot_at(1).edges == ((0, 1, 2), (0, 2, 0))


def test_ingest_skips_comments_and_drops_self_loops():
    text = "# header\na b 0\n\nc c 1\nb c 2\n"
    seq = gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(100.0))
    assert seq.snapshot_at(1).num_edges == 2


def test_ingest_reports_malformed_line_number():
    text = "a b 0\na b\nc d 2\n"
    with pytest.raises(ParseError) as err:
        gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(1.0))
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        gd.ingest_edge_stream(_stream("a b zero\n"), gd.FixedIntervalBucketing(1.0))
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("task", ["link_prediction", "edge_classification"])
@pytest.mark.parametrize("line, field", [
    ("c d nan", "timestamp"), ("c d inf", "timestamp"), ("c d -inf 1", "timestamp"),
    ("c d 1 nan", "value"), ("c d 1 inf", "value"), ("c d nan 1", "timestamp"),
])
def test_ingest_rejects_non_finite_fields_naming_the_line(line, field, task):
    text = f"# header\na b 0 1\n{line}\n{line}\n"
    with pytest.raises(ParseError, match=f"line 3: {field} must be finite"):
        gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(1.0), task=task)


def test_ingest_rejects_empty_stream_and_node_tasks():
    with pytest.raises(ParseError):
        gd.ingest_edge_stream(_stream("# only comments\n"), gd.FixedIntervalBucketing(1.0))
    with pytest.raises(ValidationError):
        gd.ingest_edge_stream(_stream("a b 0\n"), gd.FixedIntervalBucketing(1.0),
                              task="node_classification")


def test_ingest_edge_classification_labels():
    text = "a b 0 1\nb c 1 0\nc d 2 2\n"
    seq = gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(100.0),
                                task="edge_classification")
    assert seq.task == "edge_classification"
    assert seq.num_classes == 3
    labels = sorted(lab for _, _, lab in seq.snapshot_at(1).edges)
    assert labels == [0, 1, 2]


@pytest.mark.parametrize("label", ["2.7", "-1", "0.5", "-0.5"])
def test_ingest_rejects_class_labels_that_are_not_non_negative_integers(label):
    text = f"# header\na b 0 1\nb c 1 {label}\nc d 2 0\n"
    with pytest.raises(ParseError, match="line 3: class label must be a non-negative integer"):
        gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(100.0),
                              task="edge_classification")
    # the same value is a weight for link prediction
    gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(100.0))


def test_ingest_reads_integral_class_labels_written_as_floats():
    seq = gd.ingest_edge_stream(_stream("a b 0 2.0\nb c 1 1e0\n"), gd.FixedIntervalBucketing(100.0),
                                task="edge_classification")
    assert sorted(lab for _, _, lab in seq.snapshot_at(1).edges) == [1, 2]
    assert seq.num_classes == 3


def test_ingest_refuses_class_labels_past_the_bound():
    # the bound is the larger of the data line count and MIN_CLASS_LIMIT
    text = "a b 0 1\nb c 1 1e12\n"
    with pytest.raises(ParseError, match="line 2: class label 1000000000000 is not below 1000"):
        gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(100.0),
                              task="edge_classification")
    top = gd.MIN_CLASS_LIMIT - 1
    seq = gd.ingest_edge_stream(_stream(f"a b 0 {top}\nb c 1 0\n"),
                                gd.FixedIntervalBucketing(100.0), task="edge_classification")
    assert seq.num_classes == gd.MIN_CLASS_LIMIT
    with pytest.raises(ParseError, match=f"line 1: class label {top + 1} is not below"):
        gd.ingest_edge_stream(_stream(f"a b 0 {top + 1}\nb c 1 0\n"),
                              gd.FixedIntervalBucketing(100.0), task="edge_classification")
    # more lines raise the bound
    lines = gd.MIN_CLASS_LIMIT + 1
    text = "".join(f"n{i} n{i + 1} {i} {i}\n" for i in range(lines))
    seq = gd.ingest_edge_stream(_stream(text), gd.EqualEdgeCountBucketing(lines),
                                task="edge_classification")
    assert seq.num_classes == lines


#: any text that splits to itself is a node token
_TOKENS = st.one_of(
    st.sampled_from(["a", "a\x00", "\x00a", "A", "1", "01", "#"]),
    st.text(min_size=1, max_size=3).filter(lambda t: t.split() == [t]),
)


@st.composite
def edge_streams(draw):
    """Random edge-stream lines with repeated and reversed pairs,
    self-loops, comment and blank lines, arbitrary tokens, optional value
    columns, and a bucketing that may leave buckets empty."""
    task = draw(st.sampled_from(["link_prediction", "edge_classification"]))
    names = draw(st.lists(_TOKENS, min_size=1, max_size=5, unique=True))
    if task == "edge_classification":
        value = st.integers(0, 12).flatmap(
            lambda k: st.sampled_from([str(k), f"{k}.0", f"{k}e0"]))
    else:
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.floats(-10.0, 10.0),
            st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3]),
        ).map(repr)
    # few timestamps, so that lines tie and a group can hold many of them
    line = st.tuples(
        st.integers(0, len(names) - 1), st.integers(0, len(names) - 1),
        st.integers(0, 12).map(lambda t: t / 2), st.one_of(st.none(), value),
    )
    lines = []
    for src, dst, ts, val in draw(st.lists(line, min_size=1, max_size=60)):
        if names[src].startswith("#"):  # a line opening with '#' is a comment
            src, dst = dst, src
        fields = [names[src], names[dst], repr(ts)] + ([] if val is None else [val])
        lines.append(" ".join(fields) + "\n")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["\n", "# note\n", "  \n"])))
    lines.append("x y 0\n")  # at least one data line
    if draw(st.booleans()):
        bucketing = gd.FixedIntervalBucketing(draw(st.sampled_from([0.5, 1.0, 2.5, 100.0])))
    else:
        bucketing = gd.EqualEdgeCountBucketing(draw(st.integers(1, 6)))
    return lines, bucketing, task


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(stream=edge_streams())
def test_ingest_matches_the_dict_merge_reference(stream):
    lines, bucketing, task = stream
    seq = gd.ingest_edge_stream(lines, bucketing, task=task)
    names, num_classes, edges = oracles.reference_ingest(lines, bucketing, task)
    assert seq.node_names == names
    assert seq.num_classes == num_classes
    assert len(seq) == len(edges)
    for snap, expected in zip(seq, edges):
        assert snap.edges == expected


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(stream=edge_streams())
def test_dataset_roundtrip_keeps_ingested_streams(stream):
    lines, bucketing, task = stream
    seq = gd.ingest_edge_stream(lines, bucketing, task=task)
    with tempfile.TemporaryDirectory() as tmp:
        gd.save_dataset(seq, tmp)
        loaded = gd.load_dataset(tmp)
    assert loaded.node_names == seq.node_names
    assert (loaded.split, loaded.task, loaded.num_classes) == (seq.split, seq.task, seq.num_classes)
    for a, b in zip(seq, loaded):
        assert b.edges == a.edges
        assert a.features.data.tobytes() == b.features.data.tobytes()


def test_fixed_interval_bucket_count_is_bounded_by_the_line_count():
    bucketing = gd.FixedIntervalBucketing(1.0)
    # two lines may span the floor of MIN_BUCKET_LIMIT buckets, and no more
    floor = gd.MIN_BUCKET_LIMIT
    assert bucketing.assign(np.array([0.0, floor - 1.0])).max() == floor - 1
    with pytest.raises(ConfigError, match=f"makes {floor + 1} snapshots"):
        bucketing.assign(np.array([0.0, float(floor)]))
    # past the floor the limit is MAX_BUCKETS_PER_LINE per line
    lines = 2 * floor
    stamps = np.linspace(0.0, gd.MAX_BUCKETS_PER_LINE * lines - 1.0, lines)
    assert bucketing.assign(stamps).max() == gd.MAX_BUCKETS_PER_LINE * lines - 1
    with pytest.raises(ConfigError):
        bucketing.assign(stamps * 1.01)


def test_fixed_interval_refusal_names_span_count_and_an_interval_that_fits():
    text = "a b 0\nb c 30000\n"
    with pytest.raises(ConfigError) as err:
        gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(1.0))
    message = str(err.value)
    assert "span of 30000" in message and "makes 30001 snapshots" in message
    fit = float(re.search(r"an interval of (\S+) or more fits", message).group(1))
    seq = gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(fit))
    assert len(seq) <= gd.MIN_BUCKET_LIMIT


def test_fixed_interval_refuses_a_count_too_large_for_an_integer():
    with pytest.raises(ConfigError, match="makes inf snapshots"):
        gd.FixedIntervalBucketing(1e-300).assign(np.array([0.0, 3e9]))


def test_bucketing_parameter_validation():
    with pytest.raises(ValidationError):
        gd.FixedIntervalBucketing(0.0)
    with pytest.raises(ValidationError):
        gd.EqualEdgeCountBucketing(0)


@pytest.mark.parametrize("interval", [np.nan, np.inf, -np.inf])
def test_bucketing_interval_must_be_finite(interval):
    with pytest.raises(ValidationError, match="interval"):
        gd.FixedIntervalBucketing(interval)


# ----------------------------------------------------------------- generator


def test_sbm_zero_inter_probability_keeps_communities_disjoint():
    seq = gd.generate_drifting_sbm(20, 2, 0.8, 0.0, 0.0, 4, seed=1)
    for snap in seq:
        labels = snap.node_labels
        for u, v, _ in snap.edges:
            assert labels[u] == labels[v]


def test_sbm_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed"):
        gd.generate_drifting_sbm(15, 3, 0.5, 0.05, 0.1, 5, seed=-1)


def test_sbm_is_deterministic_in_the_seed():
    a = gd.generate_drifting_sbm(15, 3, 0.5, 0.05, 0.1, 5, seed=9)
    b = gd.generate_drifting_sbm(15, 3, 0.5, 0.05, 0.1, 5, seed=9)
    for sa, sb in zip(a, b):
        assert sa.edges == sb.edges
        assert np.array_equal(sa.node_labels, sb.node_labels)
    c = gd.generate_drifting_sbm(15, 3, 0.5, 0.05, 0.1, 5, seed=10)
    assert any(sa.edges != sc.edges for sa, sc in zip(a, c))


def test_sbm_snapshots_share_one_identity_feature_tensor():
    seq = gd.generate_drifting_sbm(15, 3, 0.5, 0.05, 0.1, 5, seed=9)
    first = seq.snapshot_at(1).features
    assert isinstance(first, gd.IdentityFeatures) and first.shape == (15, 15)
    assert all(snap.features is first for snap in seq)


@pytest.mark.parametrize("num_nodes", [7, 150, 1001])
@pytest.mark.parametrize("block", [1, 64, 100, 257, None])
def test_sbm_row_blocks_draw_the_one_shot_pairs_bit_for_bit(monkeypatch, num_nodes, block):
    """Drawing each snapshot SBM_BLOCK_ROWS rows at a time hands the
    snapshots the pairs, in their order, and the community labels of one
    N x N draw per snapshot, also when the block does not divide N (None is
    a block of N rows). The drift of each snapshot after the first reads the
    stream past the draws, so equal labels show the stream ends in place."""
    monkeypatch.setattr(gd, "SBM_BLOCK_ROWS", block or num_nodes)
    given, real = [], gd.SnapshotGraph

    def snapshot(time_index, n, pairs, *args, **kwargs):
        given.append(pairs)
        return real(time_index, n, pairs, *args, **kwargs)

    monkeypatch.setattr(gd, "SnapshotGraph", snapshot)
    args = (num_nodes, 3, 0.3, 0.05, 0.1, 4, 11)
    seq = gd.generate_drifting_sbm(*args)
    expected = oracles.one_shot_sbm(*args)
    assert len(seq) == len(given) == len(expected)
    for snap, pairs, (want_pairs, labels) in zip(seq, given, expected):
        assert pairs.dtype == want_pairs.dtype and pairs.tobytes() == want_pairs.tobytes()
        assert snap.node_labels.tobytes() == labels.tobytes()


def test_sbm_zero_drift_keeps_membership_fixed():
    seq = gd.generate_drifting_sbm(12, 2, 0.9, 0.1, 0.0, 5, seed=3)
    first = seq.snapshot_at(1).node_labels
    for snap in seq:
        assert np.array_equal(snap.node_labels, first)


def test_sbm_drift_moves_members():
    seq = gd.generate_drifting_sbm(20, 2, 0.5, 0.1, 0.25, 3, seed=4)
    a = seq.snapshot_at(1).node_labels
    b = seq.snapshot_at(2).node_labels
    moved = int(np.sum(a != b))
    assert moved == 5  # floor(0.25 * 20)


def test_sbm_intra_edge_count_within_three_sigma():
    # two size-50 communities at intra_p = 0.5: mean 1225, sigma ~ 24.75
    seq = gd.generate_drifting_sbm(100, 2, 0.5, 0.0, 0.0, 1, seed=7)
    count = seq.snapshot_at(1).num_edges
    mean = 0.5 * 2 * (50 * 49 / 2)
    sigma = np.sqrt(2 * (50 * 49 / 2) * 0.5 * 0.5)
    assert abs(count - mean) <= 3 * sigma


def test_sbm_parameter_validation():
    with pytest.raises(ValidationError):
        gd.generate_drifting_sbm(10, 2, 0.1, 0.5, 0.0, 3, seed=0)
    with pytest.raises(ValidationError):
        gd.generate_drifting_sbm(10, 2, 0.5, 0.1, 1.5, 3, seed=0)
    with pytest.raises(ValidationError):
        gd.generate_drifting_sbm(1, 2, 0.5, 0.1, 0.0, 3, seed=0)
    with pytest.raises(ValidationError):
        gd.generate_drifting_sbm(10, 2, 0.5, 0.1, 0.0, 0, seed=0)
    with pytest.raises(ValidationError):
        gd.generate_drifting_sbm(10, 2, 0.5, 0.1, 0.0, 3, seed=0, feature_mode="random")


# ----------------------------------------------------------------- sampling


def test_link_batch_counts_and_interleaving():
    snap = gd.SnapshotGraph(1, 6, [(0, 1), (1, 2), (3, 4)], np.eye(6))
    batch = gd.sample_link_prediction_batch(snap, negative_ratio=1, seed=0)
    assert batch.size == 6
    assert batch.kind == "edge"
    assert list(batch.labels) == [1, 0, 1, 0, 1, 0]
    eval_batch = gd.sample_link_prediction_batch(snap, negative_ratio=100, mode="eval", seed=0)
    assert eval_batch.size == 3 * 101


def test_link_batch_negatives_are_source_matched_non_edges():
    seq = gd.generate_drifting_sbm(30, 2, 0.4, 0.05, 0.0, 1, seed=12)
    snap = seq.snapshot_at(1)
    checked = 0
    for trial in range(10):
        batch = gd.sample_link_prediction_batch(snap, negative_ratio=2, seed=trial)
        positive_src = None
        for (u, v), label in zip(batch.items, batch.labels):
            if label == 1:
                positive_src = u
                assert oracles.has_edge(snap, u, v)
            else:
                assert u == positive_src
                assert v != u
                assert not oracles.has_edge(snap, u, v)
                checked += 1
    assert checked >= 1000


def test_link_batch_rejects_complete_graph_and_empty_snapshot():
    complete = gd.SnapshotGraph(1, 3, [(0, 1), (0, 2), (1, 2)], np.eye(3))
    with pytest.raises(ValidationError):
        gd.sample_link_prediction_batch(complete, negative_ratio=1)
    empty = gd.SnapshotGraph(1, 3, [], np.eye(3))
    with pytest.raises(ValidationError):
        gd.sample_link_prediction_batch(empty, negative_ratio=1)
    snap = gd.SnapshotGraph(1, 4, [(0, 1)], np.eye(4))
    with pytest.raises(ValidationError):
        gd.sample_link_prediction_batch(snap, negative_ratio=0)
    with pytest.raises(ValidationError):
        gd.sample_link_prediction_batch(snap, negative_ratio=1, mode="validate")


def _outcome(sampler, snapshot, ratio, mode, seed):
    """A sampler's items and labels, or the type and message of its error."""
    try:
        batch = sampler(snapshot, ratio, mode, seed)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return batch.items.tobytes(), batch.labels.tobytes(), batch.items.shape


def _assert_matches_scalar_reference(snapshot, ratio, mode, seed):
    batched = _outcome(gd.sample_link_prediction_batch, snapshot, ratio, mode, seed)
    scalar = _outcome(oracles.scalar_link_prediction_batch, snapshot, ratio, mode, seed)
    assert batched == scalar, (snapshot.num_nodes, snapshot.num_edges, ratio, mode, seed)
    return batched


def test_block_draws_equal_scalar_draws():
    # the sampler rests on this: one call with per-row bounds gives the
    # values of E * k scalar calls with those bounds, in row-major order
    for seed in (7, 100, 150, 2000):
        # every bound from 1 to 2000, in a seeded order
        bounds = np.random.default_rng(seed).permutation(np.arange(1, 2001))
        block = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        values = block.integers(0, bounds[:, None], size=(bounds.size, 3))
        expected = [[int(scalar.integers(0, b)) for _ in range(3)] for b in bounds.tolist()]
        assert values.tolist() == expected
        assert block.integers(0, seed) == scalar.integers(0, seed)


def test_sampler_is_bit_identical_to_the_scalar_reference():
    graphs = [
        gd.generate_drifting_sbm(100, 2, 0.025, 0.003, 0.05, 3, seed=1),
        gd.generate_drifting_sbm(40, 2, 0.5, 0.2, 0.1, 2, seed=2),
        gd.generate_drifting_sbm(12, 3, 0.9, 0.4, 0.0, 1, seed=3),
    ]
    for seq in graphs:
        for snap in seq:
            for ratio in (1, 5, 50, 100):
                for mode in ("train", "eval"):
                    for seed in range(3):
                        result = _assert_matches_scalar_reference(snap, ratio, mode, seed)
                        assert isinstance(result[0], bytes)


def test_sampler_matches_the_reference_on_random_dense_graphs():
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(3, 30))
        p = rng.uniform(0.1, 0.95)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if pairs:
            snap = gd.SnapshotGraph(1, n, pairs, np.eye(n))
            _assert_matches_scalar_reference(snap, int(rng.choice([1, 2, 5, 50])), "eval", trial)


def test_near_complete_sources_draw_only_their_free_columns():
    # node 0 misses only column n - 1, so every one of its negatives is that
    # column; no draw is rejected however dense the row
    n = 2000
    near_complete = [(0, v) for v in range(1, n - 1)] + [(5, 7)]
    snap = gd.SnapshotGraph(1, n, near_complete, np.zeros((n, 1)))
    for ratio in (1, 5):
        result = _assert_matches_scalar_reference(snap, ratio, "train", 0)
        items = np.frombuffer(result[0], dtype=np.int64).reshape(-1, ratio + 1, 2)
        assert (items[:-1, 1:, 1] == n - 1).all()
    # the near-complete row comes after another source's positive; node 1
    # misses columns 0 and n - 1 only
    later = [(0, 3)] + [(1, v) for v in range(2, n - 1)]
    snap = gd.SnapshotGraph(1, n, later, np.zeros((n, 1)))
    result = _assert_matches_scalar_reference(snap, 2, "eval", 4)
    items = np.frombuffer(result[0], dtype=np.int64).reshape(-1, 3, 2)
    assert set(items[1:, 1:, 1].ravel().tolist()) == {0, n - 1}


def test_pooled_sampler_errors_match_the_reference():
    complete = gd.SnapshotGraph(1, 3, [(0, 1), (0, 2), (1, 2)], np.eye(3))
    # node 1's row is complete, but only after node 0's positive is served
    late_complete = gd.SnapshotGraph(1, 5, [(0, 2), (1, 2), (1, 3), (1, 4), (0, 1)], np.eye(5))
    empty = gd.SnapshotGraph(1, 3, [], np.eye(3))
    snap = gd.SnapshotGraph(1, 4, [(0, 1)], np.eye(4))
    cases = [
        (complete, 1, "train", "node 0 is connected to every other node"),
        (late_complete, 3, "eval", "node 1 is connected to every other node"),
        (empty, 100, "eval", "snapshot 1 has no edges to sample from"),
        (snap, 0, "train", "negative_ratio must be at least 1"),
        (snap, 1, "validate", "mode must be 'train' or 'eval'"),
    ]
    for snapshot, ratio, mode, message in cases:
        result = _assert_matches_scalar_reference(snapshot, ratio, mode, 0)
        assert result[0] is ValidationError and result[1].startswith(message)


def test_degrees_are_counted_and_pairs_are_read_only():
    seq = gd.generate_drifting_sbm(30, 2, 0.4, 0.05, 0.0, 1, seed=12)
    snap = seq.snapshot_at(1)
    expected = np.zeros(30, dtype=np.int64)
    for u, v, _ in snap.edges:
        expected[u] += 1
        expected[v] += 1
    assert np.array_equal(snap.degrees(), expected)
    assert not snap.pairs.flags.writeable
    empty = gd.SnapshotGraph(1, 3, [], np.eye(3))
    assert empty.pairs.shape == (0, 2)
    assert np.array_equal(empty.degrees(), [0, 0, 0])


def test_link_batch_same_seed_is_reproducible():
    seq = gd.generate_drifting_sbm(20, 2, 0.4, 0.05, 0.0, 1, seed=5)
    snap = seq.snapshot_at(1)
    a = gd.sample_link_prediction_batch(snap, negative_ratio=3, seed=8)
    b = gd.sample_link_prediction_batch(snap, negative_ratio=3, seed=8)
    assert np.array_equal(a.items, b.items)


def test_classification_batches():
    seq = gd.generate_drifting_sbm(10, 2, 0.9, 0.1, 0.0, 1, seed=2,
                                   task="node_classification")
    batch = gd.classification_batch(seq.snapshot_at(1), "node_classification")
    assert batch.kind == "node"
    assert batch.size == 10
    assert np.array_equal(batch.labels, seq.snapshot_at(1).node_labels)
    unlabeled = gd.SnapshotGraph(1, 4, [(0, 1)], np.eye(4))
    assert gd.classification_batch(unlabeled, "node_classification") is None
    assert gd.classification_batch(unlabeled, "edge_classification") is None


def test_supervised_batch_is_none_without_supervision_and_rejects_unknown_tasks():
    unlabeled = gd.SnapshotGraph(1, 4, [(0, 1)], np.eye(4))
    edgeless = gd.SnapshotGraph(2, 4, [], np.eye(4), node_labels=[0, 1, 0, 1])
    for snap, task in [
        (edgeless, "link_prediction"),
        (unlabeled, "node_classification"),
        (unlabeled, "edge_classification"),
        (gd.SnapshotGraph(3, 4, [], np.eye(4), edge_labels=[]), "edge_classification"),
    ]:
        assert gd.supervised_batch(snap, task, 1, "train", 0) is None, (snap.time_index, task)
    assert gd.supervised_batch(edgeless, "node_classification", 1, "train", 0).kind == "node"
    labelled = gd.SnapshotGraph(4, 4, [(0, 1), (2, 3)], np.eye(4), edge_labels=[1, 0])
    assert gd.supervised_batch(labelled, "edge_classification", 1, "train", 0).size == 2
    for snap in (unlabeled, edgeless, labelled):
        with pytest.raises(ValidationError, match="bogus"):
            gd.supervised_batch(snap, "bogus", 1, "train", 0)


def test_task_batch_validation():
    with pytest.raises(ValidationError):
        gd.TaskBatch(1, "edge", np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int))
    with pytest.raises(ValidationError):
        gd.TaskBatch(1, "edge", np.array([[0, 1]]), np.array([1, 0]))
    with pytest.raises(ValidationError):
        gd.TaskBatch(1, "edge", np.array([0, 1]), np.array([1, 0]))
    with pytest.raises(ValidationError):
        gd.TaskBatch(1, "pair", np.array([[0, 1]]), np.array([1]))
    batch = gd.TaskBatch(1, "edge", np.array([[0, 5]]), np.array([1]))
    with pytest.raises(ValueError):
        batch.items[0, 0] = 3
    snap = gd.SnapshotGraph(1, 3, [(0, 1)], np.eye(3))
    assert batch.items.max() >= snap.num_nodes  # node 5 lies outside the snapshot


def test_edge_batches_keep_one_pair_plan():
    batch = gd.TaskBatch(1, "edge", np.array([[0, 5], [2, 1]]), np.array([1, 0]))
    plan = batch.pair_plan
    assert batch.pair_plan is plan
    assert plan.n == 6
    assert np.array_equal(plan.rows, [0, 2]) and np.array_equal(plan.cols, [5, 1])
    node_batch = gd.TaskBatch(1, "node", np.array([0, 1]), np.array([1, 0]))
    with pytest.raises(ValidationError):
        node_batch.pair_plan


# -------------------------------------------------------------------- splits


def test_split_by_fraction_examples():
    assert gd.split_by_fraction(20, 0.70, 0.10) == (14, 16, 20)
    assert gd.split_by_fraction(20, 0.40, 0.10) == (8, 10, 20)
    assert gd.split_by_fraction(10, 0.75, 0.10) == (7, 8, 10)
    # tiny sequences keep at least one training snapshot
    assert gd.split_by_fraction(2, 0.30, 0.10) == (1, 1, 2)


def test_split_by_fraction_validation():
    for bad in ((0.0, 0.1), (1.0, 0.0), (0.7, -0.1), (0.8, 0.3)):
        with pytest.raises(ValidationError):
            gd.split_by_fraction(10, *bad)


# ------------------------------------------------------------------- storage


def test_dataset_roundtrip(tmp_path):
    seq = gd.generate_drifting_sbm(12, 3, 0.6, 0.05, 0.1, 5, seed=21,
                                   feature_mode="degree_buckets", task="node_classification")
    gd.save_dataset(seq, tmp_path / "ds")
    loaded = gd.load_dataset(tmp_path / "ds")
    assert len(loaded) == len(seq)
    assert loaded.split == seq.split
    assert loaded.task == seq.task
    assert loaded.num_classes == seq.num_classes
    assert loaded.node_names == seq.node_names
    for a, b in zip(seq, loaded):
        assert a.edges == b.edges
        assert np.array_equal(a.features.data, b.features.data)
        assert np.array_equal(a.node_labels, b.node_labels)


def test_dataset_files_hold_only_what_the_task_reads(tmp_path):
    """Link-prediction directories hold ``u v`` lines and no node labels,
    though the generated snapshots carry them; edge classification adds
    the label column. A classification sequence whose snapshot lacks the
    labels its task reads is refused when it is built, so it never reaches
    ``save_dataset``."""
    seq = gd.generate_drifting_sbm(12, 3, 0.6, 0.05, 0.1, 3, seed=21)
    assert seq.snapshot_at(1).node_labels is not None
    gd.save_dataset(seq, tmp_path / "link")
    assert not list((tmp_path / "link").glob("labels_*"))
    lines = (tmp_path / "link" / "snapshot_001.edges").read_text().splitlines()
    assert lines == [f"{u} {v}" for u, v, _ in seq.snapshot_at(1).edges]
    loaded = gd.load_dataset(tmp_path / "link")
    assert all(snap.node_labels is None for snap in loaded)
    seq = gd.ingest_edge_stream(_stream("a b 0 2\nc b 0 1\n"), gd.FixedIntervalBucketing(1.0),
                                task="edge_classification")
    gd.save_dataset(seq, tmp_path / "class")
    assert (tmp_path / "class" / "snapshot_001.edges").read_text() == "0 1 2\n1 2 1\n"
    unlabelled = gd.SnapshotGraph(1, 3, [(0, 1)], np.eye(3))
    for task in ("edge_classification", "node_classification"):
        with pytest.raises(ValidationError, match=f"snapshot 1 has no labels for {task}"):
            gd.DynamicGraphSequence([unlabelled], (1, 1, 1), task, 2)


@pytest.mark.parametrize("task, num_classes, labels, message", [
    ("link_prediction", 3, None, "link_prediction is binary: num_classes must be 2, got 3"),
    ("edge_classification", 2, [5], "snapshot 1: edge_classification labels must lie in [0, 2)"),
    ("node_classification", 3, [7, 0, 1], "snapshot 1: node_classification labels must lie in [0, 3)"),
    ("node_classification", 3, [-1, 0, 1], "snapshot 1: node_classification labels must lie in [0, 3)"),
])
def test_sequence_refuses_labels_outside_its_classes(task, num_classes, labels, message):
    """Each of these sequences used to be built and saved into a directory
    that ``load_dataset`` then refused."""
    snap = gd.SnapshotGraph(
        1, 3, [(0, 1)], gd.IdentityFeatures(3),
        node_labels=labels if task == "node_classification" else None,
        edge_labels=labels if task == "edge_classification" else None,
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        gd.DynamicGraphSequence([snap], (1, 1, 1), task, num_classes)


def test_sequence_bounds_num_classes_by_its_largest_label():
    """num_classes reaches MIN_CLASS_LIMIT or the largest label + 1, not
    past both: a head of 10^12 class columns does not fit in memory."""
    limit = gd.MIN_CLASS_LIMIT

    def sequence(label, num_classes):
        snap = gd.SnapshotGraph(1, 3, [(0, 1)], gd.IdentityFeatures(3), edge_labels=[label])
        return gd.DynamicGraphSequence([snap], (1, 1, 1), "edge_classification", num_classes)

    assert sequence(1, limit).num_classes == limit
    assert sequence(2 * limit, 2 * limit + 1).num_classes == 2 * limit + 1
    for label, num_classes in ((1, limit + 1), (2 * limit, 2 * limit + 2), (0, 10**12), (0, 1)):
        with pytest.raises(ValidationError, match=r"^num_classes must lie in \[2, "):
            sequence(label, num_classes)


@pytest.mark.parametrize("task", ["link_prediction", "edge_classification"])
def test_an_empty_edges_file_loads_as_an_edgeless_snapshot_without_warning(task, tmp_path):
    labels = ([1], []) if task == "edge_classification" else (None, None)
    snaps = [gd.SnapshotGraph(t, 3, pairs, gd.IdentityFeatures(3), edge_labels=labels[t - 1])
             for t, pairs in ((1, [(0, 1)]), (2, []))]
    gd.save_dataset(gd.DynamicGraphSequence(snaps, (1, 1, 2), task, 2), tmp_path / "ds")
    assert (tmp_path / "ds" / "snapshot_002.edges").read_bytes() == b""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = gd.load_dataset(tmp_path / "ds")
    assert loaded.snapshot_at(2).num_edges == 0
    assert loaded.snapshot_at(1).edges == snaps[0].edges


@st.composite
def built_sequences(draw):
    """Arguments of a sequence of any task, with identity or file features,
    which now and then break a rule of the sequence: every label one past
    an end of the classes, or a node name with a line break. Features are
    finite, as ``load_dataset`` requires."""
    task = draw(st.sampled_from(gd.TASKS))
    n, num_snapshots, width = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    num_classes = 2 if task == "link_prediction" else draw(st.sampled_from([2, 3, 7]))
    label = st.integers(0, num_classes - 1)
    if draw(st.integers(0, 9)) == 0:
        label = st.sampled_from([-1, num_classes])
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    feature = st.floats(allow_nan=False, allow_infinity=False)
    identity = draw(st.booleans())
    snapshots = []
    for t in range(1, num_snapshots + 1):
        pairs = draw(st.lists(st.sampled_from(candidates), unique=True) if candidates else st.just([]))
        pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
        features = gd.IdentityFeatures(n) if identity else np.array(
            draw(st.lists(feature, min_size=n * width, max_size=n * width))).reshape(n, width)
        edge_labels = node_labels = None
        if task == "edge_classification":
            edge_labels = draw(st.lists(label, min_size=len(pairs), max_size=len(pairs)))
        if task == "node_classification":
            node_labels = draw(st.lists(label, min_size=n, max_size=n))
        snapshots.append(gd.SnapshotGraph(t, n, pairs, features, node_labels=node_labels,
                                          edge_labels=edge_labels))
    train_end = draw(st.integers(1, num_snapshots))
    split = (train_end, draw(st.integers(train_end, num_snapshots)), num_snapshots)
    names = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))
    return snapshots, split, task, num_classes, names


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(args=built_sequences())
def test_every_sequence_the_constructor_accepts_roundtrips(args):
    """``save_dataset`` then ``load_dataset`` give back equal pairs, task
    labels, features, node names, split, task and class count."""
    snapshots, split, task, num_classes, names = args
    try:
        seq = gd.DynamicGraphSequence(snapshots, split, task, num_classes, node_names=names)
    except ValidationError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        gd.save_dataset(seq, tmp)
        loaded = gd.load_dataset(tmp)
    assert (loaded.node_names, loaded.split) == (seq.node_names, seq.split)
    assert (loaded.task, loaded.num_classes) == (seq.task, seq.num_classes)
    for a, b in zip(seq, loaded, strict=True):
        assert b.pairs.tobytes() == a.pairs.tobytes()
        if task == "edge_classification":
            assert b.edge_labels.tobytes() == a.edge_labels.tobytes()
        if task == "node_classification":
            assert b.node_labels.tobytes() == a.node_labels.tobytes()
        if seq.identity_features:
            assert isinstance(b.features, gd.IdentityFeatures) and b.feature_width == a.feature_width
        else:
            assert b.features.data.tobytes() == a.features.data.tobytes()


def test_dataset_roundtrip_through_ingest(tmp_path):
    text = "a b 0 2.0\nb c 1 3.0\nc d 10\na d 11\n"
    seq = gd.ingest_edge_stream(_stream(text), gd.FixedIntervalBucketing(10.0))
    gd.save_dataset(seq, tmp_path / "ds")
    loaded = gd.load_dataset(tmp_path / "ds")
    assert loaded.node_names == ("a", "b", "c", "d")
    for a, b in zip(seq, loaded):
        assert a.edges == b.edges


@pytest.mark.parametrize("name", ["b\u2028c", "b\nc", "b\r\nc", "b\x1cc", "b\n"])
def test_sequence_refuses_a_node_name_that_nodes_map_would_split(name):
    snaps = [gd.SnapshotGraph(t, 3, [(0, 1)], np.eye(3)) for t in (1, 2, 3)]
    with pytest.raises(ValidationError, match="node name 1 "):
        gd.DynamicGraphSequence(snaps, (1, 2, 3), "link_prediction", 2,
                                node_names=("a", name, "d"))


def test_dataset_roundtrip_keeps_one_line_node_names(tmp_path):
    snaps = [gd.SnapshotGraph(t, 3, [(0, 1)], np.eye(3)) for t in (1, 2, 3)]
    names = (" a", "b c\t", "")
    seq = gd.DynamicGraphSequence(snaps, (1, 2, 3), "link_prediction", 2, node_names=names)
    gd.save_dataset(seq, tmp_path / "ds")
    assert gd.load_dataset(tmp_path / "ds").node_names == names


def test_load_rejects_unknown_format(tmp_path):
    seq = gd.generate_drifting_sbm(6, 2, 0.8, 0.1, 0.0, 2, seed=0)
    gd.save_dataset(seq, tmp_path / "ds")
    meta_path = tmp_path / "ds" / "meta"
    meta = meta_path.read_text()
    meta_path.write_text(meta.replace("format=", "format=BOGUS_"))
    with pytest.raises(DatasetError, match=f"^{re.escape(str(meta_path))}: unknown dataset format"):
        gd.load_dataset(tmp_path / "ds")
    # TGDS1 stored identity features as N x N arrays, TGDS2 a weight per edge
    for tag in ("TGDS1", "TGDS2"):
        meta_path.write_text(meta.replace(f"format={gd.DATASET_FORMAT}", f"format={tag}"))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(meta_path))}: .*{tag}.*regenerate"):
            gd.load_dataset(tmp_path / "ds")
    with pytest.raises(DatasetError):
        gd.load_dataset(tmp_path / "nowhere")


def test_sequence_summary_is_json(tmp_path):
    import json

    seq = gd.generate_drifting_sbm(8, 2, 0.8, 0.1, 0.0, 3, seed=0)
    payload = json.loads(gd.sequence_summary(seq))
    assert payload["num_snapshots"] == 3
    assert payload["edges_per_snapshot"] == [s.num_edges for s in seq]


# ---------------------------------------------------------------------- seeds


def test_seed_from_streams_keep_their_recorded_values(monkeypatch):
    """String labels are hashed once per text; the streams they seed are
    the ones recorded before the hash was cached."""
    recorded = {
        (0, "init"): [2069252909, 984208239, 2907435108],
        (3, "episode", 5): [3124477125, 409542984, 3372859658],
        (7, "negatives", 4, "train"): [2435105076, 3127539033, 1687372129],
        (1, "sbm"): [1969232314, 1861272197, 1469986074],
    }
    for args, state in recorded.items():
        assert gd.seed_from(*args).generate_state(3).tolist() == state
    hashed = []
    blake2s = gd.hashlib.blake2s

    def spy(data, **kwargs):
        hashed.append(data)
        return blake2s(data, **kwargs)

    monkeypatch.setattr(gd.hashlib, "blake2s", spy)
    for epoch in range(4):
        gd.seed_from(0, "a label no other test uses", epoch)
    assert hashed == [b"a label no other test uses"]


def test_seed_from_is_stable_and_label_sensitive():
    a = gd.seed_from(3, "episode", 5).generate_state(4)
    b = gd.seed_from(3, "episode", 5).generate_state(4)
    c = gd.seed_from(3, "episode", 6).generate_state(4)
    d = gd.seed_from(3, "negatives", 5).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
