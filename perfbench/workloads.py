"""Workload definitions: inputs made from a seed, model and training settings.

Every workload runs the library's own training loop (``meta.train``) and its
evaluation path (``evaluation.evaluate_sequence``) on a dataset built from
the workload seed. ``desk-fo`` uses the library's drifting-SBM generator;
``attn-exact`` writes a seeded edge-stream file and feeds it through
``graphdata.ingest_edge_stream``, the way real data enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ledg import graphdata as gd
from ledg import meta as mt
from ledg.model import EncoderConfig, ModelSpec

#: every edge-stream bucket spans one hour of integer timestamps
STREAM_INTERVAL = 3600
#: hourly buckets in every edge stream
STREAM_SNAPSHOTS = 12
#: communities of the edge stream's nodes
STREAM_COMMUNITIES = 4
#: share of nodes moved to another community before each later snapshot
STREAM_DRIFT = 0.05
#: share of drawn edges that stay inside the source's community
STREAM_INTRA = 0.8


@dataclass(frozen=True)
class StreamShape:
    """Size of the seeded, drifting, community-structured edge stream."""

    num_nodes: int
    edges_per_snapshot: int


@dataclass(frozen=True)
class Workload:
    name: str
    base_model: str
    gradient_mode: str
    #: epochs per training job; one job is the unit the timed phase repeats
    epochs: int
    negative_ratio: int
    #: how many times set-up is repeated to report its median
    setup_repeats: int
    stream: StreamShape | None = None

    def build(self, seed: int, stream_path: Path | None) -> gd.DynamicGraphSequence:
        """Build the dataset: generate it, or ingest the written stream."""
        if self.stream is None:
            return gd.generate_drifting_sbm(
                100, 2, 0.025, 0.003, 0.05, 20, seed=seed, train_frac=0.40, val_frac=0.10
            )
        with open(stream_path) as source:
            return gd.ingest_edge_stream(source, gd.FixedIntervalBucketing(STREAM_INTERVAL))

    def spec(self, sequence: gd.DynamicGraphSequence) -> ModelSpec:
        encoder = EncoderConfig(
            base_model=self.base_model,
            num_layers=2,
            input_dim=sequence.feature_width,
            hidden_dim=32,
        )
        return ModelSpec(encoder, task="link_prediction")

    def config(self, seed: int) -> mt.TrainingConfig:
        return mt.TrainingConfig(
            window_size=3,
            eta_out=0.01,
            eta_in=0.25,
            gradient_mode=self.gradient_mode,
            target_structure_mode="previous_snapshot",
            epochs=self.epochs,
            seed=seed,
            outer_optimizer="adam",
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-fo", "gcn", "first_order", epochs=30, negative_ratio=50, setup_repeats=31),
        Workload(
            "attn-exact",
            "attention",
            "exact",
            epochs=1,
            negative_ratio=5,
            setup_repeats=31,
            # 150 nodes keep an episode near 0.1 s, so each one repeats about
            # 40 times in a 55 s run; at 500 nodes (0.8 s) it ran 6 times and
            # its fastest repeat swung with the host's load
            stream=StreamShape(150, 750),
        ),
    )
}


def write_edge_stream(path: Path, shape: StreamShape, seed: int) -> None:
    """Write a drifting community edge stream as ``src dst timestamp`` lines.

    Nodes carry a lognormal activity that weights both endpoints, so
    degrees (and hence the ingested degree-bucket features) spread over
    several buckets. Each snapshot first moves a ``STREAM_DRIFT`` share of
    nodes to another of ``STREAM_COMMUNITIES`` communities, then draws
    ``edges_per_snapshot`` pairs; a ``STREAM_INTRA`` share of them stay
    inside the source's community. Timestamps are integers inside the
    snapshot's hour, sorted, and the first written line sits at 0 so
    fixed-interval bucketing recovers exactly ``STREAM_SNAPSHOTS`` snapshots.
    Node tokens are a seeded permutation of 0..N-1. Self-loops are skipped
    here and duplicates merge on ingest.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    n, k, m = shape.num_nodes, STREAM_COMMUNITIES, shape.edges_per_snapshot
    tokens = rng.permutation(n)
    activity = rng.lognormal(0.0, 0.75, size=n)
    members = (np.arange(n) * k) // n
    num_drift = int(STREAM_DRIFT * n)
    with open(path, "w") as out:
        for s in range(STREAM_SNAPSHOTS):
            if s > 0:
                moved = rng.choice(n, size=num_drift, replace=False)
                members = members.copy()
                members[moved] = (members[moved] + rng.integers(1, k, size=num_drift)) % k
            src = _weighted_draw(rng, np.arange(n), activity, m)
            dst = _weighted_draw(rng, np.arange(n), activity, m)
            intra = rng.random(m) < STREAM_INTRA
            for c in range(k):
                pick = intra & (members[src] == c)
                nodes = np.flatnonzero(members == c)
                dst[pick] = _weighted_draw(rng, nodes, activity[nodes], int(pick.sum()))
            stamps = np.sort(s * STREAM_INTERVAL + rng.integers(0, STREAM_INTERVAL, size=m))
            keep = src != dst
            if s == 0:
                stamps[np.argmax(keep)] = 0
            out.writelines(
                f"{tokens[u]} {tokens[v]} {t}\n"
                for u, v, t in zip(src[keep], dst[keep], stamps[keep])
            )


def _weighted_draw(rng, nodes: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    cdf = np.cumsum(weights)
    picks = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return nodes[np.minimum(picks, nodes.size - 1)]
