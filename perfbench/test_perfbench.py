"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ledg import graphdata, meta, model, numerics  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _traced_job(seed: int) -> tracing.Tracer:
    workload = workloads.WORKLOADS["desk-fo"]
    sequence = workload.build(seed, None)
    config = replace(workload.config(seed), epochs=2)
    tracer = tracing.Tracer()
    with tracer.phase("bench.train"):
        meta.train(sequence, workload.spec(sequence), config)
    return tracer


def test_tape_counts_repeat_exactly():
    first, second = _traced_job(3).tapes, _traced_job(3).tapes
    assert len(first) == 10  # 5 episodes per epoch on the desk cell
    assert first == second
    for counts in first:
        assert 0 < counts["live"] < counts["nodes"]
        assert sum(counts["ops"].values()) < counts["nodes"]


def test_wrappers_cover_caller_names_and_are_removed():
    originals = (model.embed, meta.embed, meta.adapt_and_predict, numerics.Tape.gradient)
    tracer = tracing.Tracer()
    with tracer.phase("bench.train"):
        assert meta.embed is model.embed
        assert meta.embed.__wrapped__ is originals[0]
        assert meta.adapt_and_predict.__wrapped__ is originals[2]
        assert graphdata.normalize_adjacency.__wrapped__ is not None
    assert (model.embed, meta.embed, meta.adapt_and_predict, numerics.Tape.gradient) == originals


def test_layer_metrics_split_self_time_from_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["bench.train", 0.0, 10.0, None],
        ["meta.outer_step", 1.0, 5.0, 0],
        ["numerics.backward", 2.0, 4.5, 1],
        ["model.encode", 6.0, 7.0, 0],
    ]
    tracer.tapes = [{"nodes": 4, "mb": 1.0, "live": 3, "ops": dict.fromkeys(tracing.TAPE_OPS, 1)}]
    metrics = tracing.layer_metrics(tracer, setups=1, episodes=2, snapshots=1)
    assert metrics["meta.outer_step_s"] == 1.5 / 2
    assert metrics["numerics.backward_s"] == 2.5 / 2
    assert metrics["model.encode_calls"] == 0.5
    assert metrics["numerics.tape_live_share"] == 0.75


def test_edge_stream_is_seeded_and_ingests_to_its_shape(tmp_path):
    shape = workloads.StreamShape(60, 150)
    paths = [tmp_path / name for name in ("a", "b", "c")]
    for path, seed in zip(paths, (5, 5, 6)):
        workloads.write_edge_stream(path, shape, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    with open(paths[0]) as source:
        sequence = graphdata.ingest_edge_stream(
            source, graphdata.FixedIntervalBucketing(workloads.STREAM_INTERVAL)
        )
    assert sequence.num_nodes == 60
    assert len(sequence) == workloads.STREAM_SNAPSHOTS
    assert all(80 < s.num_edges <= 150 for s in sequence)  # duplicates merge on ingest


def _result(capsys, trace: bool) -> dict:
    assert bench.run("desk-fo", 2, 1.0, trace, {}) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(capsys):
    result = _result(capsys, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_run_prints_every_per_layer_metric_with_its_unit(capsys):
    result = _result(capsys, trace=True)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
