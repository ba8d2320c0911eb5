"""Meta-learned message-passing GNNs for discrete dynamic graphs.

The library trains a graph encoder whose node embeddings are split, by a
learned sigmoid gate, into a time-varying part and a graph-intrinsic part.
For each target snapshot, a short inner loop adapts the encoder and gate on
a self-supervised time-regression signal over the preceding window; an
outer loop meta-trains every parameter through those adaptation steps
(exactly, or with the cheaper first-order approximation). Evaluation
re-runs the same adaptation on unseen snapshots before predicting.
"""

from .errors import (
    ConfigError,
    ContractError,
    DatasetError,
    LedgError,
    NumericalError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .evaluation import (
    MetricReport,
    RankedQueries,
    RankedQuery,
    evaluate_sequence,
    mean_average_precision,
    mean_reciprocal_rank,
    micro_f1,
    queries_from_batch,
    reports_to_csv,
    symmetrized_edge_scores,
)
from .graphdata import (
    DynamicGraphSequence,
    EqualEdgeCountBucketing,
    FixedIntervalBucketing,
    IdentityFeatures,
    SnapshotGraph,
    TaskBatch,
    classification_batch,
    degree_bucket_features,
    generate_drifting_sbm,
    ingest_edge_stream,
    load_dataset,
    normalize_adjacency,
    sample_link_prediction_batch,
    save_dataset,
    seed_from,
    split_by_fraction,
)
from .meta import (
    EpisodeRecord,
    EpisodeWindow,
    TrainingConfig,
    TrainResult,
    adapt_and_predict,
    build_window,
    inner_adapt,
    outer_step,
    run_episode,
    train,
)
from .model import (
    EmbeddingBundle,
    EncoderConfig,
    MlpHead,
    ModelSpec,
    disentangle,
    embed,
    encode,
    head_logits,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
    task_loss,
    task_predict,
    time_loss,
)
from .numerics import ParameterSet, Tape, Tensor

__version__ = "0.1.0"
