"""Command-line workflows: config resolution, exit codes, artifacts."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ledg
from ledg import cli
from ledg import graphdata as gd
from ledg import meta as mt
from ledg import model as md
from ledg.cli import RunConfig
from ledg.errors import ConfigError
from ledg.numerics import Tensor

EDGE_FILE = "a b 0\nb c 1\nc d 10\na d 11\n"


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sbm"
    rc = cli.main([
        "generate", "--out", str(out), "--num-nodes", "30", "--intra-p", "0.3",
        "--inter-p", "0.05", "--num-snapshots", "10", "--seed", "5",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def file_dataset_dir(tmp_path_factory):
    """A link-prediction dataset whose degree-bucket features are stored in
    snapshot_NNN.npy files (identity features write none)."""
    out = tmp_path_factory.mktemp("data") / "sbm_degrees"
    rc = cli.main([
        "generate", "--out", str(out), "--num-nodes", "30", "--intra-p", "0.3",
        "--inter-p", "0.05", "--num-snapshots", "10", "--seed", "5",
        "--feature-mode", "degree_buckets",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def node_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sbm_nodes"
    rc = cli.main([
        "generate", "--out", str(out), "--num-nodes", "30", "--intra-p", "0.3",
        "--inter-p", "0.05", "--num-snapshots", "10", "--seed", "5",
        "--task", "node_classification",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run") / "train"
    rc = cli.main([
        "train", "--dataset", str(dataset_dir), "--out", str(out),
        "--hidden-dim", "8", "--window-size", "2", "--epochs", "2",
        "--eta-out", "0.01", "--seed", "3",
    ])
    assert rc == 0
    return out


# ----------------------------------------------------------------- imports


def test_importing_the_library_loads_no_scipy_or_test_tools():
    """Importing every module of the library (``ledg.cli`` imports the rest)
    in a fresh process pulls in none of scipy, pytest or hypothesis:
    importing scipy.sparse alone adds about 22 MB of resident memory to
    every run."""
    source = str(Path(ledg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, ledg.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    for name in ("scipy", "pytest", "hypothesis"):
        assert f"'{name}'" not in loaded, name


def test_readme_code_references_resolve():
    """Every `module.name` and `Class.attribute` README cites exists in ledg;
    other dotted names (``np.lexsort``, file names) are not ledg's."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {
        info.name: importlib.import_module(f"ledg.{info.name}")
        for info in pkgutil.iter_modules(ledg.__path__)
    }
    classes = {
        name: value for module in modules.values()
        for name, value in vars(module).items() if isinstance(value, type)
    }
    cited = set()
    for owner, name in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)", readme):
        scope = modules.get(owner, classes.get(owner))
        if scope is None:
            assert not owner[0].isupper(), f"README cites {owner}, no class of ledg"
            continue
        assert hasattr(scope, name), f"README cites {owner}.{name}, which ledg lacks"
        cited.add(f"{owner}.{name}")
    assert {"graphdata.TRAIN_FRAC", "evaluation.EVAL_NEGATIVE_RATIO",
            "SnapshotGraph.neighbourhood", "TaskBatch.pair_plan"} <= cited
    primitives = re.findall(r"The tape has (\d+) primitives", readme)
    assert primitives == [str(len(modules["numerics"]._FORWARD))]


def test_modules_import_no_private_name_of_each_other():
    """README's rule that a name starting with ``_`` is private holds between
    ledg's modules: no relative import brings one in."""
    imported = []
    for path in sorted(Path(ledg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imported += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert imported == []


# ------------------------------------------------------------- configuration


def test_config_precedence_flags_over_file_over_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs = 3\neta_out = 0.004\n")
    config = RunConfig.resolve(cfg.read_text(), {"epochs": 2})
    assert config["epochs"] == 2          # flag wins
    assert config["eta_out"] == 0.004     # file wins over default
    assert config["window_size"] == 5     # default
    assert config["hidden_dim"] == 128    # default


def test_config_text_is_idempotent_under_reresolution():
    config = RunConfig.resolve(None, {"eta_out": "0.004", "epochs": "7"})
    again = RunConfig.resolve(config.to_text(), {})
    assert again.to_text() == config.to_text()
    assert again.fingerprint() == config.fingerprint()


def test_eta_in_auto_tracks_eta_out():
    config = RunConfig.resolve(None, {"eta_out": "0.004"})
    assert config["eta_in"] == pytest.approx(0.04)
    assert config.training_config().eta_in == pytest.approx(0.04)
    pinned = RunConfig.resolve(None, {"eta_out": "0.004", "eta_in": "0"})
    assert pinned.training_config().eta_in == 0.0


def test_config_reports_every_problem_at_once():
    with pytest.raises(ConfigError) as err:
        RunConfig.resolve(None, {"eta_out": "-1", "hidden_dim": "0"})
    message = str(err.value)
    assert "eta_out" in message and "hidden_dim" in message
    with pytest.raises(ConfigError) as err:
        RunConfig.resolve("decay=0.5\n", {})
    assert "decay" in str(err.value)
    with pytest.raises(ConfigError):
        RunConfig.resolve("epochs\n", {})


def test_config_defaults_are_the_config_classes_defaults():
    config = RunConfig.resolve(None, {})
    owned = [f for cls in (mt.TrainingConfig, md.EncoderConfig)
             for f in dataclasses.fields(cls) if f.name in cli.CONFIG_FIELDS]
    assert len(owned) == len(cli.CONFIG_FIELDS) - 3  # dataset, task, eval_negative_ratio
    for f in owned:
        if f.name != "eta_in":
            assert config[f.name] == f.default, f.name
    assert config["eta_in"] == 10.0 * config["eta_out"]
    assert config.training_config() == mt.TrainingConfig()


@pytest.mark.parametrize("key, value", [
    ("epochs", "abc"), ("base_model", "foo"), ("eta_out", "nan"), ("task", "bar"),
])
def test_bad_value_is_one_config_error_as_flag_or_set(dataset_dir, tmp_path, capsys, key, value):
    config_file = tmp_path / "bad.cfg"
    config_file.write_text(f"{key}={value}\n")
    messages = []
    for name, form in (("flag", [f"--{key.replace('_', '-')}", value]),
                       ("file", ["--config", str(config_file)])):
        out = tmp_path / name
        rc = cli.main(["train", "--dataset", str(dataset_dir), "--out", str(out)] + form)
        assert rc == 1
        assert not (out / "config.resolved").exists()
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0].startswith("error: ") and key in messages[0]


def test_eta_in_auto_is_accepted_as_a_flag(dataset_dir, tmp_path):
    out = tmp_path / "run"
    rc = cli.main([
        "train", "--dataset", str(dataset_dir), "--out", str(out), "--hidden-dim", "4",
        "--window-size", "2", "--epochs", "0", "--eta-out", "0.004", "--eta-in", "auto",
    ])
    assert rc == 0
    assert "eta_in=0.04\n" in (out / "config.resolved").read_text()


@pytest.mark.parametrize("argv", [
    [],
    ["train", "--epochs", "1"],
    ["eval", "--out", "unused"],
    ["eval", "--checkpoint", "c.npz", "--out", "unused", "--split", "train"],
    ["generate", "--out", "unused", "--num-nodes", "many"],
    ["ingest", "--input", "e.txt", "--out", "unused", "--task", "node_classification"],
    ["train", "--out", "unused", "--no-such-flag", "1"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ledg")


def test_help_lists_every_config_key_and_exits_0(capsys):
    for command in ("train", "eval"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for key in cli.CONFIG_FIELDS:
            assert f"--{key.replace('_', '-')}" in text


# ----------------------------------------------------------------- generate


def test_generate_writes_loadable_dataset(dataset_dir, capsys):
    seq = gd.load_dataset(dataset_dir)
    assert len(seq) == 10
    assert seq.num_nodes == 30
    assert seq.split == (7, 8, 10)


def test_generate_default_snapshot_count_splits_15_2_3(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = cli.main(["generate", "--out", str(out), "--num-nodes", "12",
                   "--num-snapshots", "20", "--seed", "0"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["split"] == [15, 17, 20]
    assert summary["num_snapshots"] == 20


def test_generate_frozen_parameters_repeat_the_same_snapshot(tmp_path):
    out = tmp_path / "frozen"
    rc = cli.main([
        "generate", "--out", str(out), "--num-nodes", "12", "--intra-p", "1.0",
        "--inter-p", "0.0", "--drift-rate", "0.0", "--num-snapshots", "4",
        "--seed", "1", "--task", "node_classification",
    ])
    assert rc == 0
    seq = gd.load_dataset(out)
    first = seq.snapshot_at(1)
    for snap in seq:
        assert snap.edges == first.edges
        for u, v, _ in snap.edges:
            assert snap.node_labels[u] == snap.node_labels[v]


def test_generate_same_seed_is_byte_reproducible(tmp_path):
    args = ["--num-nodes", "15", "--num-snapshots", "4", "--seed", "9"]
    for name in ("one", "two"):
        assert cli.main(["generate", "--out", str(tmp_path / name)] + args) == 0
    for f in sorted(p.name for p in (tmp_path / "one").iterdir()):
        assert (tmp_path / "one" / f).read_bytes() == (tmp_path / "two" / f).read_bytes()


def test_generate_refuses_nonempty_out_without_force(tmp_path, capsys):
    out = tmp_path / "ds"
    args = ["generate", "--out", str(out), "--num-nodes", "10",
            "--num-snapshots", "3", "--seed", "0"]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert cli.main(args) == 1
    assert "--force" in capsys.readouterr().err
    assert cli.main(args + ["--force"]) == 0


def test_generate_rejects_bad_probabilities(tmp_path, capsys):
    rc = cli.main(["generate", "--out", str(tmp_path / "x"), "--intra-p", "0.1",
                   "--inter-p", "0.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_generate_negative_seed_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "ds"
    assert cli.main(["generate", "--out", str(out), "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- ingest


def test_ingest_buckets_and_reports(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text(EDGE_FILE)
    out = tmp_path / "ds"
    rc = cli.main(["ingest", "--input", str(src), "--out", str(out),
                   "--interval", "10"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["num_snapshots"] == 2
    assert summary["edges_per_snapshot"] == [2, 2]
    loaded = gd.load_dataset(out)
    import io

    direct = gd.ingest_edge_stream(io.StringIO(EDGE_FILE), gd.FixedIntervalBucketing(10.0),
                                   train_frac=0.70, val_frac=0.10)
    assert loaded.node_names == direct.node_names
    for a, b in zip(loaded, direct):
        assert a.edges == b.edges


def test_ingest_missing_input_is_a_config_error(tmp_path, capsys):
    rc = cli.main(["ingest", "--input", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "ds"), "--interval", "10"])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err


def test_ingest_requires_exactly_one_bucketing(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text(EDGE_FILE)
    base = ["ingest", "--input", str(src), "--out", str(tmp_path / "ds")]
    assert cli.main(base) == 1
    assert cli.main(base + ["--interval", "10", "--edges-per-snapshot", "2"]) == 1


@pytest.mark.parametrize("interval", ["nan", "inf"])
def test_ingest_non_finite_interval_exits_1_and_writes_nothing(tmp_path, capsys, interval):
    src = tmp_path / "edges.txt"
    src.write_text(EDGE_FILE)
    out = tmp_path / "ds"
    rc = cli.main(["ingest", "--input", str(src), "--out", str(out), "--interval", interval])
    assert rc == 1
    assert "interval" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_malformed_line_is_reported(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text("a b 0\na b\n")
    rc = cli.main(["ingest", "--input", str(src), "--out", str(tmp_path / "ds"),
                   "--interval", "10"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["b c nan", "b c inf", "b c 1 nan"])
def test_ingest_non_finite_field_exits_1_and_writes_nothing(tmp_path, capsys, line):
    src = tmp_path / "edges.txt"
    src.write_text(f"a b 0\n{line}\n")
    out = tmp_path / "ds"
    rc = cli.main(["ingest", "--input", str(src), "--out", str(out), "--interval", "10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "must be finite" in err
    assert not out.exists()


def test_ingest_wide_timestamp_span_exits_1_quickly_and_writes_nothing(tmp_path, capsys):
    # two edges 30,000 s apart at a 1 s interval would be 30,001 snapshots
    src = tmp_path / "edges.txt"
    src.write_text("a b 0\nb c 30000\n")
    out = tmp_path / "ds"
    started = time.perf_counter()
    rc = cli.main(["ingest", "--input", str(src), "--out", str(out), "--interval", "1"])
    assert time.perf_counter() - started < 1.0
    assert rc == 1
    err = capsys.readouterr().err
    assert "30001 snapshots" in err and "an interval of" in err
    assert not out.exists()


def test_ingest_bad_class_label_exits_1_and_writes_nothing(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text("a b 0 1\nb c 1 -1\nc d 2 2.7\nd a 3 0\n")
    out = tmp_path / "ds"
    rc = cli.main(["ingest", "--input", str(src), "--out", str(out), "--interval", "10",
                   "--task", "edge_classification"])
    assert rc == 1
    assert "line 2: class label must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_class_label_past_the_bound_exits_1_and_writes_nothing(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text("a b 0 1\nb c 1 1e12\n")
    out = tmp_path / "ds"
    rc = cli.main(["ingest", "--input", str(src), "--out", str(out), "--interval", "10",
                   "--task", "edge_classification"])
    assert rc == 1
    assert "line 2: class label 1000000000000 is not below 1000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("label", [7, -1])
def test_train_on_an_edge_label_outside_the_classes_exits_1_naming_the_file(
    label, tmp_path, capsys
):
    src, data = tmp_path / "edges.txt", tmp_path / "ds"
    src.write_text("a b 0 0\nb c 1 1\nc d 2 2\nd a 3 0\n")
    assert cli.main(["ingest", "--input", str(src), "--out", str(data), "--interval", "1",
                     "--task", "edge_classification"]) == 0
    edges = data / "snapshot_001.edges"
    first, *rest = edges.read_text().splitlines()
    edges.write_text("\n".join([" ".join([*first.split()[:2], str(label)]), *rest]) + "\n")
    rc = cli.main(["train", "--dataset", str(data), "--out", str(tmp_path / "run"),
                   "--task", "edge_classification", "--hidden-dim", "4",
                   "--window-size", "1", "--epochs", "1"])
    assert rc == 1
    assert f"{edges} line 1: edge label {label} outside class range [0, 3)" in capsys.readouterr().err


def test_train_on_a_meta_of_a_trillion_classes_exits_1_naming_meta(tmp_path, capsys):
    """A classifier head has one column per class: num_classes past both
    MIN_CLASS_LIMIT and the largest label + 1 is refused as the dataset
    loads, not met as a 29 TiB allocation."""
    src, data = tmp_path / "edges.txt", tmp_path / "ds"
    src.write_text("a b 0 0\nb c 1 1\nc d 2 2\nd a 3 0\n")
    assert cli.main(["ingest", "--input", str(src), "--out", str(data), "--interval", "1",
                     "--task", "edge_classification"]) == 0
    _replace_meta_value("num_classes", "1000000000000")(data / "meta")
    rc = cli.main(["train", "--dataset", str(data), "--out", str(tmp_path / "run"),
                   "--task", "edge_classification", "--hidden-dim", "4",
                   "--window-size", "1", "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{data / 'meta'}: num_classes must lie in [2, 1000], got 1000000000000" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["generate", "ingest", "train", "eval"])
def test_out_naming_a_file_exits_1_and_leaves_the_file(command, dataset_dir, trained_dir, tmp_path,
                                                       capsys):
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a directory\n")
    stream = tmp_path / "edges.txt"
    stream.write_text(EDGE_FILE)
    args = {
        "generate": ["generate", "--num-nodes", "12"],
        "ingest": ["ingest", "--input", str(stream), "--interval", "10"],
        "train": ["train", "--dataset", str(dataset_dir), "--hidden-dim", "4", "--epochs", "0"],
        "eval": ["eval", "--checkpoint", str(trained_dir / "checkpoint.npz")],
    }[command]
    assert cli.main(args + ["--out", str(afile)]) == 1
    assert f"--out {afile} exists and is not a directory" in capsys.readouterr().err
    assert afile.read_bytes() == b"not a directory\n"


def test_out_of_memory_exits_2_and_says_so(monkeypatch, tmp_path, capsys):
    def exhausted(args):
        raise MemoryError()

    # main builds its parser on every call, so the parser binds the patched command
    monkeypatch.setattr(cli, "cmd_generate", exhausted)
    rc = cli.main(["generate", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == "runtime error: out of memory"


# -------------------------------------------------------------------- train


def test_train_writes_logs_and_checkpoint(trained_dir):
    for name in ("config.resolved", "train_log.csv", "episodes.jsonl", "checkpoint.npz"):
        assert (trained_dir / name).exists()
    log = (trained_dir / "train_log.csv").read_text().splitlines()
    config = RunConfig.resolve((trained_dir / "config.resolved").read_text(), {})
    assert log[0] == f"# config_sha256={config.fingerprint()}"
    assert log[1] == "epoch,mean_objective,val_score"
    assert len(log) == 4  # two epochs
    for line in (trained_dir / "episodes.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert np.isfinite(record["objective"])
        assert record["epoch"] in (1, 2)


def test_train_checkpoint_restores_matching_spec(trained_dir, dataset_dir):
    params, spec, extra = md.load_checkpoint(trained_dir / "checkpoint.npz")
    seq = gd.load_dataset(dataset_dir)
    assert spec.encoder.input_dim == seq.feature_width
    assert spec.encoder.hidden_dim == 8
    config = RunConfig.resolve(extra["config"], {})
    assert config["seed"] == 3
    assert extra["config_sha256"] == config.fingerprint()


def test_train_zero_epochs_checkpoints_the_seeded_init(dataset_dir, tmp_path):
    out = tmp_path / "run"
    rc = cli.main([
        "train", "--dataset", str(dataset_dir), "--out", str(out),
        "--hidden-dim", "8", "--window-size", "2", "--epochs", "0", "--seed", "4",
    ])
    assert rc == 0
    params, spec, _ = md.load_checkpoint(out / "checkpoint.npz")
    expected = md.init_parameters(spec, seed=4)
    assert params.fingerprint() == expected.fingerprint()


def test_train_with_no_supervised_target_exits_1_without_checkpoint(tmp_path, capsys):
    """Training snapshots without an edge give no target a batch: the run
    exits 1 and checkpoints nothing, while zero epochs still checkpoint the
    seeded init."""
    edges = [[], [], [(0, 1), (2, 3)], [(0, 2)]]
    snaps = [gd.SnapshotGraph(t, 4, e, np.eye(4)) for t, e in enumerate(edges, start=1)]
    dataset = tmp_path / "ds"
    gd.save_dataset(gd.DynamicGraphSequence(snaps, (2, 3, 4), "link_prediction", 2), dataset)
    args = ["train", "--dataset", str(dataset), "--window-size", "1", "--hidden-dim", "3"]
    rc = cli.main(args + ["--out", str(tmp_path / "run")])
    assert rc == 1
    assert "error: no training target produced a batch" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.npz").exists()
    assert cli.main(args + ["--out", str(tmp_path / "init"), "--epochs", "0"]) == 0
    assert (tmp_path / "init" / "checkpoint.npz").exists()


def test_train_requires_dataset(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert rc == 1
    assert "dataset" in capsys.readouterr().err


def test_train_negative_seed_exits_1_and_writes_nothing(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                   "--seed", "-1", "--epochs", "1"])
    assert rc == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_train_task_mismatch_is_a_config_error(dataset_dir, tmp_path, capsys):
    rc = cli.main([
        "train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "run"),
        "--task", "node_classification", "--epochs", "1",
    ])
    assert rc == 1
    assert "task" in capsys.readouterr().err


def test_train_corrupted_dataset_is_a_runtime_error(dataset_dir, tmp_path, capsys):
    # a missing snapshot file is a fault of the input: exit 1, naming the file
    broken = tmp_path / "broken"
    shutil.copytree(dataset_dir, broken)
    (broken / "snapshot_001.edges").unlink()
    rc = cli.main([
        "train", "--dataset", str(broken), "--out", str(tmp_path / "run"),
        "--hidden-dim", "4", "--window-size", "2", "--epochs", "1",
    ])
    assert rc == 1
    assert str(broken / "snapshot_001.edges") in capsys.readouterr().err


def _drop(path):
    path.unlink()


def _replace_meta_value(key, value):
    def corrupt(meta):
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(f"{key}={value}" if line.startswith(f"{key}=") else line
                                  for line in lines) + "\n")
    return corrupt


def _nan_first_feature(features):
    values = np.load(features)
    values[0, 0] = np.nan
    np.save(features, values)


def _first_label(value):
    def corrupt(labels):
        values = np.load(labels).astype(np.asarray(value).dtype)
        values[0] = value
        np.save(labels, values)
    return corrupt


def _resaved(change):
    def corrupt(features):
        np.save(features, change(np.load(features)))
    return corrupt


def _first_edge_as(line):
    def corrupt(edges):
        first, *rest = edges.read_text().splitlines()
        u, v = first.split()
        edges.write_text("\n".join([line.format(u=u, v=v)] + rest) + "\n")
    return corrupt


#: case -> (file corrupted, how); a labels file is corrupted in a
#: node-classification dataset, a feature file in a link-prediction one with
#: degree-bucket features, and every other file in one with identity features
_BAD_DATASET_FILES = {
    "missing nodes.map": ("nodes.map", _drop),
    "nodes.map without one line per node": (
        "nodes.map", lambda path: path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    ),
    "missing meta": ("meta", _drop),
    "missing meta key": ("meta", lambda path: path.write_text(path.read_text().replace("task=", "tusk="))),
    "unknown task": ("meta", _replace_meta_value("task", "ranking")),
    "num_classes below 2": ("meta", _replace_meta_value("num_classes", "1")),
    "link prediction with 5 classes": ("meta", _replace_meta_value("num_classes", "5")),
    "num_snapshots below 1": ("meta", _replace_meta_value("num_snapshots", "0")),
    "unordered split": ("meta", _replace_meta_value("val_end", "1")),
    "feature_width unlike the features": ("meta", _replace_meta_value("feature_width", "7")),
    "previous format TGDS1": ("meta", _replace_meta_value("format", "TGDS1")),
    "previous format TGDS2": ("meta", _replace_meta_value("format", "TGDS2")),
    "unknown features value": ("meta", _replace_meta_value("features", "onehot")),
    "missing features": ("snapshot_002.npy", _drop),
    "unreadable features": ("snapshot_002.npy", lambda path: path.write_bytes(b"not an array")),
    "non-integer meta value": ("meta", _replace_meta_value("num_nodes", "30.5")),
    "non-finite feature": ("snapshot_001.npy", _nan_first_feature),
    "missing node labels": ("labels_002.npy", _drop),
    "non-numeric node label": ("labels_002.npy", _first_label("a")),
    "non-finite node label": ("labels_002.npy", _first_label(np.nan)),
    "non-integral node label": ("labels_002.npy", _first_label(0.5)),
    "negative node label": ("labels_002.npy", _first_label(-1)),
    "node label beyond the classes": ("labels_002.npy", _first_label(7)),
    "node labels of the wrong length": ("labels_002.npy", _resaved(lambda x: x[:-1])),
    "features that are not 2-D": ("snapshot_002.npy", _resaved(lambda x: x[0])),
    "feature rows other than num_nodes": ("snapshot_002.npy", _resaved(lambda x: x[:-1])),
    "feature width unlike snapshot 1": ("snapshot_002.npy", _resaved(lambda x: x[:, :-1])),
    "edge out of range": ("snapshot_003.edges", _first_edge_as("{u} 999")),
    "self-loop edge": ("snapshot_003.edges", _first_edge_as("{u} {u}")),
    "repeated edge": ("snapshot_003.edges", _first_edge_as("{u} {v}\n{v} {u}")),
    "link-prediction edge line with a third field": ("snapshot_003.edges", _first_edge_as("{u} {v} 1")),
    "blank edge line": ("snapshot_003.edges", _first_edge_as("{u} {v}\n")),
    "commented-out edge line": ("snapshot_003.edges", _first_edge_as("# {u} {v}")),
    "non-integer edge field": ("snapshot_003.edges", _first_edge_as("{u} 1.5")),
}


@pytest.mark.parametrize("case", sorted(_BAD_DATASET_FILES))
def test_train_on_a_bad_dataset_file_exits_1_naming_it(
    case, dataset_dir, file_dataset_dir, node_dataset_dir, tmp_path, capsys
):
    name, corrupt = _BAD_DATASET_FILES[case]
    task = "node_classification" if name.startswith("labels_") else "link_prediction"
    source = dataset_dir
    if task == "node_classification":
        source = node_dataset_dir
    elif name.endswith(".npy"):
        source = file_dataset_dir
    broken = tmp_path / "broken"
    shutil.copytree(source, broken)
    corrupt(broken / name)
    rc = cli.main([
        "train", "--dataset", str(broken), "--out", str(tmp_path / "run"), "--task", task,
        "--hidden-dim", "4", "--window-size", "2", "--epochs", "1",
    ])
    assert rc == 1
    assert str(broken / name) in capsys.readouterr().err


def test_train_non_finite_run_is_a_runtime_error_without_checkpoint(tmp_path, capsys):
    data, out = tmp_path / "desk", tmp_path / "run"
    assert cli.main([
        "generate", "--out", str(data), "--num-nodes", "100", "--num-communities", "2",
        "--intra-p", "0.025", "--inter-p", "0.003", "--drift-rate", "0.05",
        "--num-snapshots", "20", "--seed", "0", "--train-frac", "0.4", "--val-frac", "0.1",
    ]) == 0
    with np.errstate(all="ignore"):
        rc = cli.main([
            "train", "--dataset", str(data), "--out", str(out), "--hidden-dim", "32",
            "--window-size", "3", "--epochs", "3", "--eta-out", "5", "--eta-in", "500",
        ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "runtime error: training went non-finite at epoch 1, target time 8, inner step 1" in err
    assert not (out / "checkpoint.npz").exists()
    assert not (out / "episodes.jsonl").exists()


def test_train_early_stopping_engages_validation(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "train", "--dataset", str(dataset_dir), "--out", str(out),
        "--hidden-dim", "8", "--window-size", "2", "--epochs", "3",
        "--eta-out", "0.01", "--seed", "3", "--early-stop-patience", "1",
        "--eval-negative-ratio", "10",
    ])
    assert rc == 0
    log = (out / "train_log.csv").read_text().splitlines()
    # every executed epoch logs a validation score
    for line in log[2:]:
        assert line.split(",")[2] != ""


def test_train_early_stopping_without_validation_snapshots_exits_1(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert cli.main(["generate", "--out", str(data), "--num-nodes", "12",
                     "--num-snapshots", "8", "--val-frac", "0", "--seed", "1"]) == 0
    capsys.readouterr()
    rc = cli.main(["train", "--dataset", str(data), "--out", str(out), "--hidden-dim", "4",
                   "--window-size", "2", "--epochs", "3", "--early-stop-patience", "1"])
    assert rc == 1
    assert "early_stop_patience needs validation snapshots" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------- eval


def test_eval_writes_metrics_csv(trained_dir, dataset_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = cli.main([
        "eval", "--checkpoint", str(trained_dir / "checkpoint.npz"),
        "--out", str(out), "--split", "test", "--eval-negative-ratio", "20",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    csv_lines = (out / "metrics_test.csv").read_text().splitlines()
    assert csv_lines[1] == "metric,snapshot_time,value"
    aggregates = {}
    per_metric = {}
    for line in csv_lines[2:]:
        name, t, value = line.split(",")
        if t == "all":
            aggregates[name] = value
        else:
            per_metric.setdefault(name, []).append(float(value))
    assert set(aggregates) == {"map", "mrr"}
    # printed values match the csv aggregate rows, which match the mean
    for name, value in aggregates.items():
        assert f"{name}={value}" in stdout
        assert abs(float(value) - np.mean(per_metric[name])) <= 5e-12
        assert 0.0 <= float(value) <= 1.0


def test_edge_classification_ingests_trains_and_evaluates(tmp_path, capsys):
    """A labelled edge stream through ingest, train and eval: one micro_f1
    row per test snapshot plus the aggregate, each in [0, 1], and a rerun
    of the evaluation writes the same bytes."""
    rng = np.random.default_rng(4)
    lines = []
    for bucket in range(8):
        for k in range(15):
            u, v = rng.choice(20, size=2, replace=False)
            lines.append(f"n{u} n{v} {10 * bucket + 0.5 * k} {rng.integers(3)}\n")
    stream = tmp_path / "edges.txt"
    stream.write_text("".join(lines))
    dataset = tmp_path / "ds"
    assert cli.main(["ingest", "--input", str(stream), "--out", str(dataset),
                     "--interval", "10", "--task", "edge_classification"]) == 0
    assert cli.main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "run"),
                     "--task", "edge_classification", "--window-size", "2",
                     "--hidden-dim", "8", "--epochs", "2"]) == 0
    written = []
    for name in ("e1", "e2"):
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                         "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / "metrics_test.csv").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]
    rows = [line.split(",") for line in written[0].decode().splitlines()[2:]]
    test_times = [str(t) for t in gd.load_dataset(dataset).times_in("test")]
    assert [(name, t) for name, t, _ in rows] == [("micro_f1", t) for t in test_times + ["all"]]
    assert all(0.0 <= float(value) <= 1.0 for _, _, value in rows)


def test_eval_uses_dataset_remembered_by_the_checkpoint(trained_dir, tmp_path):
    out = tmp_path / "eval"
    rc = cli.main([
        "eval", "--checkpoint", str(trained_dir / "checkpoint.npz"),
        "--out", str(out), "--split", "val", "--eval-negative-ratio", "10",
    ])
    assert rc == 0
    assert (out / "metrics_val.csv").exists()


def test_eval_twice_produces_identical_bytes(trained_dir, tmp_path):
    outputs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        rc = cli.main([
            "eval", "--checkpoint", str(trained_dir / "checkpoint.npz"),
            "--out", str(out), "--split", "test", "--eval-negative-ratio", "20",
        ])
        assert rc == 0
        outputs.append((out / "metrics_test.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_eval_rejects_feature_width_mismatch(trained_dir, tmp_path, capsys):
    other = tmp_path / "other"
    rc = cli.main(["generate", "--out", str(other), "--num-nodes", "31",
                   "--num-snapshots", "10", "--seed", "5"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main([
        "eval", "--checkpoint", str(trained_dir / "checkpoint.npz"),
        "--out", str(tmp_path / "eval"), "--dataset", str(other),
    ])
    assert rc == 1
    assert "gnn_w1" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["nan_checkpoint", "diverging_eta_in"])
def test_eval_non_finite_model_is_a_runtime_error(trained_dir, tmp_path, capsys, case):
    checkpoint = trained_dir / "checkpoint.npz"
    extra_args = []
    if case == "nan_checkpoint":
        params, spec, extra = md.load_checkpoint(checkpoint)
        nan = np.full(params["gnn_w1"].shape, np.nan)
        broken = params.with_updates({"gnn_w1": Tensor(nan, requires_grad=True)})
        checkpoint = tmp_path / "nan.npz"
        md.save_checkpoint(broken, spec, checkpoint, extra_meta=extra)
    else:
        extra_args = ["--eta-in", "1e300"]
    with np.errstate(all="ignore"):
        rc = cli.main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval"),
                       "--eval-negative-ratio", "5"] + extra_args)
    assert rc == 2
    assert "runtime error: evaluation at time" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics_test.csv").exists()


def test_eval_unreadable_checkpoint_is_a_dataset_error(tmp_path, capsys):
    checkpoint = tmp_path / "text.npz"
    checkpoint.write_text("not a checkpoint\n")
    rc = cli.main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert f"error: {checkpoint} is not a readable checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_eval_malformed_checkpoint_meta_exits_1_naming_the_file(trained_dir, tmp_path, capsys):
    """A checkpoint whose ``extra`` is not an object is refused when it is
    loaded, before ``ledg eval`` reads the config it should hold."""
    with np.load(trained_dir / "checkpoint.npz") as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    meta = dict(json.loads(arrays["__meta__"].tobytes().decode()), extra=[1])
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    checkpoint = tmp_path / "extra_list.npz"
    np.savez(checkpoint, **arrays)
    rc = cli.main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert f"error: {checkpoint} checkpoint meta: 'extra'" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_eval_corrupt_checkpoint_member_exits_1_naming_the_file(trained_dir, tmp_path, capsys):
    """A checkpoint whose tensor bytes fail their CRC exits 1 like any bad input."""
    params, _, _ = md.load_checkpoint(trained_dir / "checkpoint.npz")
    data = params["classifier_time_w1"].data.tobytes()
    raw = bytearray((trained_dir / "checkpoint.npz").read_bytes())
    raw[bytes(raw).index(data) + len(data) // 2] ^= 0xFF
    checkpoint = tmp_path / "flipped.npz"
    checkpoint.write_bytes(bytes(raw))
    rc = cli.main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert f"error: {checkpoint} is not a readable checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("key, value", [("hidden_dim", "64"), ("base_model", "attention")])
def test_eval_refuses_model_keys_the_checkpoint_contradicts(
    trained_dir, tmp_path, capsys, key, value
):
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.npz"),
                   "--out", str(out), f"--{key.replace('_', '-')}", value])
    assert rc == 1
    err = capsys.readouterr().err
    assert "checkpoint model != run model" in err and f"{key} " in err and value in err
    assert not out.exists()


def test_eval_reads_model_keys_from_a_checkpoint_saved_without_config(
    trained_dir, dataset_dir, tmp_path
):
    """A library checkpoint carries no config text: its encoder keys come
    from the checkpoint itself, so given the training run's other keys it
    evaluates to the bytes the CLI checkpoint does."""
    params, spec, _ = md.load_checkpoint(trained_dir / "checkpoint.npz")
    library = tmp_path / "library.npz"
    md.save_checkpoint(params, spec, library)
    written = []
    for name, checkpoint in (("cli", trained_dir / "checkpoint.npz"), ("library", library)):
        out = tmp_path / name
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--out", str(out),
                         "--dataset", str(dataset_dir), "--window-size", "2",
                         "--eta-out", "0.01", "--seed", "3", "--epochs", "2",
                         "--eval-negative-ratio", "5"]) == 0
        written.append([(out / f).read_bytes() for f in ("config.resolved", "metrics_test.csv")])
    assert written[0] == written[1]
    assert b"hidden_dim=8\n" in written[1][0]


def test_eval_missing_checkpoint(tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.npz"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err
