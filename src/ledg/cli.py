"""Command-line interface: dataset generation/ingestion, training, evaluation.

Configuration is a flat ``key=value`` text file with flag overrides
(precedence: flags > file > defaults). Every config key has a flag, and its
default and checks come from the library class that owns it (TrainingConfig
or EncoderConfig). Every command echoes the resolved configuration in a
canonical byte-stable form whose SHA-256 fingerprints all outputs, so
identical (config, seed) runs are byte-identical.

Exit codes: 0 success, 1 invalid configuration, input or usage, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import fields
from pathlib import Path

from . import evaluation as ev
from . import graphdata as gd
from . import meta as mt
from .errors import ConfigError, LedgError, NumericalError, ValidationError
from .model import EncoderConfig, ModelSpec, load_checkpoint, save_checkpoint

#: every config key and its parser; each key but ``dataset``, ``task`` and
#: ``eval_negative_ratio`` is a field of TrainingConfig or EncoderConfig,
#: which own its default and its checks
CONFIG_FIELDS: dict[str, type] = {
    "dataset": str,
    "task": str,
    "base_model": str,
    "num_layers": int,
    "hidden_dim": int,
    "window_size": int,
    "eta_out": float,
    "eta_in": float,
    "lambda_time": float,
    "gradient_mode": str,
    "target_structure_mode": str,
    "epochs": int,
    "seed": int,
    "outer_optimizer": str,
    "train_negative_ratio": int,
    "eval_negative_ratio": int,
    "early_stop_patience": int,
}

#: defaults of the keys no library config class owns
_RUN_DEFAULTS = {"dataset": "", "task": "link_prediction", "eval_negative_ratio": ev.EVAL_NEGATIVE_RATIO}

#: the text that stands for None: eta_in "auto" is ten times eta_out
_NONE_TEXT = {"eta_in": "auto", "early_stop_patience": "none"}


def _format_value(key: str, value) -> str:
    if value is None:
        return _NONE_TEXT[key]
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _default_text() -> dict[str, str]:
    """Every config key's default as config text."""
    owned = {
        f.name: f.default
        for cls in (mt.TrainingConfig, EncoderConfig)
        for f in fields(cls)
        if f.name in CONFIG_FIELDS
    }
    defaults = {**_RUN_DEFAULTS, **owned}
    return {key: _format_value(key, defaults[key]) for key in CONFIG_FIELDS}


class RunConfig:
    """Resolved flat configuration with a canonical text form."""

    def __init__(self, values: dict):
        self.values = dict(values)

    @classmethod
    def resolve(cls, file_text: str | None, overrides: dict, base: dict | None = None) -> "RunConfig":
        """Layer defaults, an optional base, file contents, then overrides.

        Each value is parsed once and checked by the config class that owns
        it; every problem is reported in one ConfigError. The resolved
        ``eta_in`` is the number TrainingConfig settled on.
        """
        raw = _default_text()
        if base:
            raw.update(base)
        if file_text is not None:
            raw.update(parse_config_text(file_text))
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
        errors = []
        values: dict = {}
        for key, text in raw.items():
            if key not in CONFIG_FIELDS:
                errors.append(f"unknown config key {key!r}")
                continue
            try:
                values[key] = None if text == _NONE_TEXT.get(key) else CONFIG_FIELDS[key](text)
            except ValueError:
                errors.append(f"{key}: cannot parse {text!r} as {CONFIG_FIELDS[key].__name__}")
        if errors:
            raise ConfigError("; ".join(errors))
        config = cls(values)
        checks = (
            config.training_config,
            lambda: EncoderConfig(**config._owned(EncoderConfig)),
            lambda: ModelSpec(EncoderConfig(), task=values["task"]),
        )
        for check in checks:
            try:
                check()
            except ValidationError as exc:
                errors.append(str(exc))
        if values["eval_negative_ratio"] < 1:
            errors.append("eval_negative_ratio must be at least 1")
        if errors:
            raise ConfigError("; ".join(errors))
        config.values["eta_in"] = config.training_config().eta_in
        return config

    def __getitem__(self, key: str):
        return self.values[key]

    def to_text(self) -> str:
        return "".join(f"{k}={_format_value(k, self.values[k])}\n" for k in sorted(self.values))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def _owned(self, cls) -> dict:
        """The values of the config keys that are fields of ``cls``."""
        return {f.name: self.values[f.name] for f in fields(cls) if f.name in CONFIG_FIELDS}

    def training_config(self) -> mt.TrainingConfig:
        return mt.TrainingConfig(**self._owned(mt.TrainingConfig))

    def model_spec(self, sequence: gd.DynamicGraphSequence) -> ModelSpec:
        """The model this config runs on ``sequence``, whose task it must share."""
        if self["task"] != sequence.task:
            raise ConfigError(
                f"config task {self['task']!r} != dataset task {sequence.task!r}; "
                f"set task={sequence.task}"
            )
        encoder = EncoderConfig(input_dim=sequence.feature_width, **self._owned(EncoderConfig))
        return ModelSpec(encoder, task=sequence.task, num_classes=sequence.num_classes)


def parse_config_text(text: str) -> dict[str, str]:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _load_config_file(path: str | None) -> str | None:
    if path is None:
        return None
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    return p.read_text()


def _collect_overrides(args) -> dict:
    """Every config flag's value; RunConfig.resolve skips the flags not given."""
    return {key: getattr(args, key) for key in CONFIG_FIELDS}


def _require_empty_or_force(directory: Path, force: bool) -> None:
    if directory.exists() and any(directory.iterdir()) and not force:
        raise ConfigError(f"{directory} is not empty; pass --force to overwrite")


def _load_sequence(path: str) -> gd.DynamicGraphSequence:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"dataset directory {path} does not exist")
    return gd.load_dataset(p)


def cmd_generate(args) -> int:
    out = Path(args.out)
    _require_empty_or_force(out, args.force)
    sequence = gd.generate_drifting_sbm(
        num_nodes=args.num_nodes,
        num_communities=args.num_communities,
        intra_p=args.intra_p,
        inter_p=args.inter_p,
        drift_rate=args.drift_rate,
        num_snapshots=args.num_snapshots,
        seed=args.seed,
        feature_mode=args.feature_mode,
        task=args.task,
        train_frac=args.train_frac,
        val_frac=args.val_frac,
    )
    gd.save_dataset(sequence, out)
    print(gd.sequence_summary(sequence))
    print(f"wrote dataset to {out}")
    return 0


def cmd_ingest(args) -> int:
    src = Path(args.input)
    if not src.exists():
        raise ConfigError(f"input file {args.input} does not exist")
    out = Path(args.out)
    _require_empty_or_force(out, args.force)
    if (args.interval is None) == (args.edges_per_snapshot is None):
        raise ConfigError("pass exactly one of --interval or --edges-per-snapshot")
    if args.interval is not None:
        bucketing = gd.FixedIntervalBucketing(args.interval)
    else:
        bucketing = gd.EqualEdgeCountBucketing(args.edges_per_snapshot)
    with src.open() as handle:
        sequence = gd.ingest_edge_stream(
            handle,
            bucketing,
            task=args.task,
            train_frac=args.train_frac,
            val_frac=args.val_frac,
        )
    gd.save_dataset(sequence, out)
    print(gd.sequence_summary(sequence))
    print(f"wrote dataset to {out}")
    return 0


def _val_hook(sequence, spec, config, eval_ratio):
    times = list(sequence.times_in("val"))
    if not times:
        raise ConfigError("early_stop_patience needs validation snapshots; the val split is empty")

    def hook(params, epoch):
        reports = ev.evaluate_sequence(
            sequence, params, spec, config, times, negative_ratio=eval_ratio
        )
        key = "map" if sequence.task == "link_prediction" else "micro_f1"
        return reports[key].value

    return hook


def cmd_train(args) -> int:
    config = RunConfig.resolve(_load_config_file(args.config), _collect_overrides(args))
    if not config["dataset"]:
        raise ConfigError("a dataset is required (--dataset or dataset= in the config file)")
    sequence = _load_sequence(config["dataset"])
    spec = config.model_spec(sequence)
    training = config.training_config()
    hook = None
    if training.early_stop_patience is not None:
        hook = _val_hook(sequence, spec, training, config["eval_negative_ratio"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = config.to_text()
    fingerprint = config.fingerprint()
    (out / "config.resolved").write_text(text)
    episode_lines: list[str] = []
    result = mt.train(
        sequence,
        spec,
        training,
        val_hook=hook,
        log_hook=lambda record: episode_lines.append(record.to_json()),
    )
    (out / "episodes.jsonl").write_text("".join(line + "\n" for line in episode_lines))
    log_lines = [f"# config_sha256={fingerprint}", "epoch,mean_objective,val_score"]
    for i, objective in enumerate(result.epoch_objectives):
        val = f"{result.val_scores[i]:.12g}" if i < len(result.val_scores) else ""
        log_lines.append(f"{i + 1},{objective:.12g},{val}")
    (out / "train_log.csv").write_text("\n".join(log_lines) + "\n")
    save_checkpoint(
        result.params,
        spec,
        out / "checkpoint.npz",
        extra_meta={"config": text, "config_sha256": fingerprint},
    )
    print(f"config_sha256={fingerprint}")
    print(f"epochs_run={len(result.epoch_objectives)} stopped_early={result.stopped_early}")
    if result.epoch_objectives:
        print(f"final_mean_objective={result.epoch_objectives[-1]:.12g}")
    print(f"wrote checkpoint and logs to {out}")
    return 0


def _spec_fields(spec: ModelSpec) -> dict[str, str]:
    """What a checkpoint fixes of a run, as text: the task, the class count,
    the input width its tensor 'gnn_w1' reads and the encoder's config keys."""
    enc = spec.encoder
    values = {"task": spec.task, "num_classes": spec.num_classes,
              "input_dim of 'gnn_w1'": enc.input_dim,
              **{f.name: getattr(enc, f.name) for f in fields(enc) if f.name in CONFIG_FIELDS}}
    return {key: str(value) for key, value in values.items()}


def cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint {args.checkpoint} does not exist")
    params, spec, extra = load_checkpoint(ckpt_path)
    saved = _spec_fields(spec)
    # the checkpoint's model keys, also when it was saved without config text
    base = {**parse_config_text(extra.get("config", "")),
            **{key: saved[key] for key in saved if key in CONFIG_FIELDS}}
    config = RunConfig.resolve(_load_config_file(args.config), _collect_overrides(args), base=base)
    dataset = config["dataset"]
    if not dataset:
        raise ConfigError("a dataset is required (--dataset or dataset= in the config file)")
    sequence = _load_sequence(dataset)
    run = _spec_fields(config.model_spec(sequence))
    differ = [f"{key} {saved[key]} != {run[key]}" for key in saved if saved[key] != run[key]]
    if differ:
        raise ConfigError(f"checkpoint model != run model: {'; '.join(differ)}")
    times = list(sequence.times_in(args.split))
    if not times:
        raise ConfigError(f"dataset has no {args.split} snapshots")
    training = config.training_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fingerprint = config.fingerprint()
    (out / "config.resolved").write_text(config.to_text())
    reports = ev.evaluate_sequence(
        sequence,
        params,
        spec,
        training,
        times,
        negative_ratio=config["eval_negative_ratio"],
    )
    csv_text = ev.reports_to_csv(reports, fingerprint=fingerprint)
    csv_path = out / f"metrics_{args.split}.csv"
    csv_path.write_text(csv_text)
    print(f"config_sha256={fingerprint}")
    for name in sorted(reports):
        print(f"{name}={reports[name].value:.12g}")
    print(f"wrote {csv_path}")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One string flag per config key; RunConfig.resolve parses and checks it."""
    parser.add_argument("--config", help="key=value config file")
    for key, text in _default_text().items():
        parser.add_argument(
            f"--{key.replace('_', '-')}", dest=key, help=f"default {text}" if text else None
        )


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError, so they exit 1 like any invalid input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ledg",
        description="Meta-learned message-passing GNNs for discrete dynamic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a drifting SBM dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--num-nodes", dest="num_nodes", type=int, default=100)
    p_gen.add_argument("--num-communities", dest="num_communities", type=int, default=2)
    p_gen.add_argument("--intra-p", dest="intra_p", type=float, default=0.15)
    p_gen.add_argument("--inter-p", dest="inter_p", type=float, default=0.02)
    p_gen.add_argument("--drift-rate", dest="drift_rate", type=float, default=0.05)
    p_gen.add_argument("--num-snapshots", dest="num_snapshots", type=int, default=20)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--feature-mode", dest="feature_mode", choices=("identity", "degree_buckets"),
        default="identity",
    )
    p_gen.add_argument(
        "--task", choices=("link_prediction", "node_classification"), default="link_prediction"
    )
    p_gen.set_defaults(func=cmd_generate)

    p_ing = sub.add_parser("ingest", help="bucket a timestamped edge list into snapshots")
    p_ing.add_argument("--input", required=True)
    p_ing.add_argument("--out", required=True)
    p_ing.add_argument("--interval", type=float)
    p_ing.add_argument("--edges-per-snapshot", dest="edges_per_snapshot", type=int)
    p_ing.add_argument(
        "--task", choices=("link_prediction", "edge_classification"), default="link_prediction"
    )
    p_ing.set_defaults(func=cmd_ingest)
    # the options both dataset writers take, their default split among them
    for p_data in (p_gen, p_ing):
        p_data.add_argument("--train-frac", dest="train_frac", type=float, default=gd.TRAIN_FRAC)
        p_data.add_argument("--val-frac", dest="val_frac", type=float, default=gd.VAL_FRAC)
        p_data.add_argument("--force", action="store_true")

    p_train = sub.add_parser("train", help="episodic meta-training")
    p_train.add_argument("--out", required=True)
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--split", choices=("val", "test"), default="test")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except LedgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # MemoryError() usually carries no message of its own
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime error: out of memory{detail}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
