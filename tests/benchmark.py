"""The desk-scale drifting-SBM benchmark protocol.

One fixed cell, three arms, three seeds. The adaptive arm and the
eta_in = 0 ablation share every other hyperparameter and the same
validation-based epoch selection; the static arm is the standard
accumulated-gradient GCN whose embeddings freeze at the last training
snapshot (``baselines.py``). All arms score identical evaluation batches
(``evaluation.evaluation_batch`` draws them from the shared seed alone), so
differences isolate the method: the adapted arms through
``evaluate_sequence``, the static arm by scoring the same batches on its
frozen embedding and averaging them through the same ``MetricReport``.
"""

import time

import numpy as np

import baselines as bl
from ledg import evaluation as ev
from ledg import graphdata as gd
from ledg import meta as mt
from ledg.model import EncoderConfig, ModelSpec

SEEDS = (0, 1, 2)

NUM_NODES = 100
NUM_COMMUNITIES = 2
INTRA_P = 0.025
INTER_P = 0.003
DRIFT_RATE = 0.05
NUM_SNAPSHOTS = 20
TRAIN_FRAC = 0.40
VAL_FRAC = 0.10

WINDOW = 3
ETA_OUT = 0.01
ETA_IN = 0.25
EPOCHS = 150
VAL_EVERY = 5
VAL_RATIO = 20
TEST_RATIO = 50

STATIC_ETA = 0.2
STATIC_EPOCHS = 500


def make_sequence(seed):
    return gd.generate_drifting_sbm(
        NUM_NODES,
        NUM_COMMUNITIES,
        INTRA_P,
        INTER_P,
        DRIFT_RATE,
        NUM_SNAPSHOTS,
        seed=seed,
        train_frac=TRAIN_FRAC,
        val_frac=VAL_FRAC,
    )


def make_spec():
    return ModelSpec(
        EncoderConfig(base_model="gcn", num_layers=2, input_dim=NUM_NODES, hidden_dim=32),
        task="link_prediction",
    )


def ledg_config(seed, eta_in=ETA_IN, window_size=WINDOW, epochs=EPOCHS):
    return mt.TrainingConfig(
        window_size=window_size,
        eta_out=ETA_OUT,
        eta_in=eta_in,
        epochs=epochs,
        seed=seed,
        target_structure_mode="previous_snapshot",
        outer_optimizer="adam",
    )


def static_config(seed):
    return mt.TrainingConfig(
        window_size=WINDOW,
        eta_out=STATIC_ETA,
        eta_in=0.0,
        epochs=STATIC_EPOCHS,
        seed=seed,
        target_structure_mode="previous_snapshot",
    )


def val_selection_hook(sequence, spec, config):
    """Validation MAP every VAL_EVERY-th epoch (and the last); huge negative
    on skipped epochs so they can never be selected as the best."""
    val_times = list(sequence.times_in("val"))

    def hook(params, epoch):
        if epoch % VAL_EVERY and epoch != config.epochs:
            return -1e30
        reports = ev.evaluate_sequence(
            sequence, params, spec, config, val_times, negative_ratio=VAL_RATIO
        )
        return reports["map"].value

    return hook


def test_map(sequence, params, spec, config):
    reports = ev.evaluate_sequence(
        sequence,
        params,
        spec,
        config,
        list(sequence.times_in("test")),
        negative_ratio=TEST_RATIO,
    )
    return reports["map"].value


def static_test_map(sequence, params, spec, config):
    """Test MAP of the static arm: the adapted arms' test batches, each
    ranked on the embedding frozen at the last training snapshot."""
    scorer = bl.static_scorer(sequence, params, spec)
    breakdown = []
    for t in sequence.times_in("test"):
        batch = ev.evaluation_batch(sequence, t, config, TEST_RATIO)
        if batch is not None:
            queries = ev.queries_from_batch(batch, scorer(batch))
            breakdown.append((t, ev.mean_average_precision(queries)))
    return ev.MetricReport("map", breakdown).value


def train_meta_arm(sequence, spec, config, select=True):
    hook = val_selection_hook(sequence, spec, config) if select else None
    return mt.train(sequence, spec, config, val_hook=hook)


def run_benchmark():
    """Train and evaluate all three arms over all seeds; returns everything
    the acceptance and module tests need (per-seed MAPs, medians, logs)."""
    out = {
        "ledg_maps": [],
        "ablation_maps": [],
        "static_maps": [],
        "ledg_epoch_objectives": [],
        "ablation_epoch_objectives": [],
        "ledg_best_val": [],
        "ablation_best_val": [],
    }
    start = time.monotonic()
    for seed in SEEDS:
        sequence = make_sequence(seed)
        spec = make_spec()

        config = ledg_config(seed)
        result = train_meta_arm(sequence, spec, config)
        out["ledg_maps"].append(test_map(sequence, result.params, spec, config))
        out["ledg_epoch_objectives"].append(list(result.epoch_objectives))
        out["ledg_best_val"].append(max(result.val_scores))

        ablation = ledg_config(seed, eta_in=0.0)
        result = train_meta_arm(sequence, spec, ablation)
        out["ablation_maps"].append(test_map(sequence, result.params, spec, ablation))
        out["ablation_epoch_objectives"].append(list(result.epoch_objectives))
        out["ablation_best_val"].append(max(result.val_scores))

        st_config = static_config(seed)
        st_params, _ = bl.train_static_gcn(sequence, spec, st_config)
        out["static_maps"].append(static_test_map(sequence, st_params, spec, st_config))

    out["elapsed_seconds"] = time.monotonic() - start
    for arm in ("ledg", "ablation", "static"):
        out[f"{arm}_median"] = float(np.median(out[f"{arm}_maps"]))
    return out
