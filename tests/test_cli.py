import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from flipnet import Layer, Network, SolveOptions, flips, load_checkpoint, save_checkpoint
from flipnet.cli import _flip_one, build_parser, derived_seed, main, read_config, write_csv
from conftest import write_synth_cifar


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cifar")
    write_synth_cifar(d, n_train=80, n_test=24, seed=7)
    return d


def run(argv):
    return main([str(a) for a in argv])


def prepare(data_dir, out_dir, k=20, seed=0):
    code = run(["prepare", "--data-dir", data_dir, "--out-dir", out_dir,
                "--k", k, "--seed", seed])
    assert code == 0


def train(out_dir, seed=0, epochs=3):
    code = run(["train", "--features", out_dir / "train_features.csv",
                "--test-features", out_dir / "test_features.csv",
                "--hidden", "8", "--epochs", epochs, "--dropout", "0.2",
                "--out-dir", out_dir, "--seed", seed])
    assert code == 0


class TestPipeline:
    def test_prepare_outputs(self, data_dir, tmp_path):
        prepare(data_dir, tmp_path)
        sel = (tmp_path / "selector.txt").read_text().split()
        assert len(sel) == 20
        assert len(set(sel)) == 20
        train_rows = (tmp_path / "train_features.csv").read_text().strip().split("\n")
        assert len(train_rows) == 81  # header + 80
        assert train_rows[0].split(",")[0] == "label"
        assert os.path.exists(tmp_path / "manifest_prepare.txt")

    def test_train_and_flip(self, data_dir, tmp_path):
        prepare(data_dir, tmp_path)
        train(tmp_path)
        assert os.path.exists(tmp_path / "checkpoint.bin")
        code = run(["flip", "--checkpoint", tmp_path / "checkpoint.bin",
                    "--features", tmp_path / "test_features.csv",
                    "--count", 4, "--restarts", 1, "--threads", 1,
                    "--selector", tmp_path / "selector.txt",
                    "--data-dir", data_dir,
                    "--out-dir", tmp_path, "--seed", 0])
        assert code == 0
        rows = (tmp_path / "flips.csv").read_text().strip().split("\n")
        assert len(rows) == 5  # header + 4 queries
        header = rows[0].split(",")
        assert header == ["id", "class_pair", "distance", "taylor_distance", "beta",
                          "directional_ratio", "angle_deg", "status", "legitimate"]

    def test_flip_rejects_features_of_another_split(self, data_dir, tmp_path, capsys):
        prepare(data_dir, tmp_path)
        train(tmp_path)
        code = run(["flip", "--checkpoint", tmp_path / "checkpoint.bin",
                    "--features", tmp_path / "train_features.csv",
                    "--count", 2, "--restarts", 0, "--threads", 1,
                    "--selector", tmp_path / "selector.txt",
                    "--data-dir", data_dir, "--out-dir", tmp_path])
        assert code == 1
        assert "kind=InvalidInputError" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "flips.csv")

    def test_attack_rejects_non_binary_checkpoint(self, data_dir, tmp_path, capsys):
        prepare(data_dir, tmp_path)
        rng = np.random.default_rng(0)
        net = Network([Layer(rng.standard_normal((3, 20)), np.zeros(3), 1.0)])
        save_checkpoint(net, tmp_path / "checkpoint.bin")
        code = run(["attack", "--checkpoint", tmp_path / "checkpoint.bin",
                    "--features", tmp_path / "test_features.csv",
                    "--count", 1, "--out-dir", tmp_path])
        assert code == 1
        assert "kind=InvalidInputError" in capsys.readouterr().err

    def test_plateau_query_solved_once(self, monkeypatch):
        # the hidden unit is saturated, so the logit gap is nonzero but
        # its gradient underflows to zero: no Taylor estimate exists
        net = Network([Layer(np.array([[1.0, 0.0, 0.0]]), np.array([50.0]), 1.0),
                       Layer(np.array([[1.0], [-1.0]]), np.zeros(2), 1.0)])
        calls = []
        closest_flip = flips.closest_flip

        def counted(*args, **kwargs):
            calls.append(1)
            return closest_flip(*args, **kwargs)

        monkeypatch.setattr(flips, "closest_flip", counted)
        metrics = _flip_one((net, np.zeros(3), (0, 1), SolveOptions(restarts=0)))
        assert len(calls) == 1
        assert np.isnan(metrics.beta)
        assert metrics.flip is not None

    def test_path_regions_attack_recon(self, data_dir, tmp_path):
        prepare(data_dir, tmp_path)
        train(tmp_path)
        ckpt = tmp_path / "checkpoint.bin"
        feats = tmp_path / "test_features.csv"

        assert run(["path", "--checkpoint", ckpt, "--features", feats,
                    "--id1", 0, "--id2", 1, "--out-dir", tmp_path]) == 0
        profile = (tmp_path / "path_profile.csv").read_text().strip().split("\n")
        assert profile[0] == "alpha,score_class0,score_class1"
        first = [float(v) for v in profile[1].split(",")]
        assert first[0] == 0.0
        assert first[1] + first[2] == pytest.approx(1.0, abs=1e-12)

        assert run(["regions", "--checkpoint", ckpt, "--features", feats,
                    "--class-id", 1, "--max-points", 6,
                    "--out-dir", tmp_path]) == 0
        assert os.path.exists(tmp_path / "adjacency_edges.txt")
        assert os.path.exists(tmp_path / "region_summary.csv")

        assert run(["attack", "--checkpoint", ckpt, "--features", feats,
                    "--count", 2, "--epsilons", "0.1,2.0", "--restarts", 1,
                    "--out-dir", tmp_path]) == 0
        attack_rows = (tmp_path / "attacks.csv").read_text().strip().split("\n")
        assert len(attack_rows) == 5  # header + 2 queries x 2 epsilons

        assert run(["recon", "--data-dir", data_dir, "--index", 0,
                    "--k-list", "5,20", "--selector", tmp_path / "selector.txt",
                    "--out-dir", tmp_path]) == 0
        errs = (tmp_path / "recon_errors.csv").read_text().strip().split("\n")
        assert len(errs) == 3
        e5 = float(errs[1].split(",")[1])
        e20 = float(errs[2].split(",")[1])
        assert e20 <= e5 + 1e-12

    def test_rerun_byte_identical(self, data_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            prepare(data_dir, out, seed=42)
            train(out, seed=42)
            run(["flip", "--checkpoint", out / "checkpoint.bin",
                 "--features", out / "test_features.csv",
                 "--count", 3, "--restarts", 1, "--threads", 1,
                 "--out-dir", out, "--seed", 42])
        for name in ["train_features.csv", "test_features.csv", "selector.txt",
                     "checkpoint.bin", "train_report.csv", "accuracy.csv", "flips.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_artifact_fails_fast(self, tmp_path, capsys):
        code = run(["train", "--features", tmp_path / "missing.csv",
                    "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "kind=DependencyError" in err
        assert "missing.csv" in err

    def test_missing_data_dir(self, tmp_path, capsys):
        code = run(["prepare", "--data-dir", tmp_path / "nope", "--out-dir", tmp_path])
        assert code == 1
        assert "kind=DependencyError" in capsys.readouterr().err


class TestHelpers:
    def test_derived_seed_stable_and_distinct(self):
        assert derived_seed(1, "train") == derived_seed(1, "train")
        assert derived_seed(1, "train") != derived_seed(1, "flip")
        assert derived_seed(1, "train") != derived_seed(2, "train")

    def test_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("# comment\nk = 17\nclasses = 0,8\n")
        cfg = read_config(cfg_path)
        assert cfg == {"k": "17", "classes": "0,8"}

    def test_config_overrides_defaults(self, data_dir, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("k = 5\n")
        code = run(["--config", cfg_path, "prepare", "--data-dir", data_dir,
                    "--out-dir", tmp_path])
        assert code == 0
        sel = (tmp_path / "selector.txt").read_text().split()
        assert len(sel) == 5

    def test_flags_win_over_config(self, data_dir, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("k = 5\n")
        code = run(["--config", cfg_path, "prepare", "--data-dir", data_dir,
                    "--out-dir", tmp_path, "--k", 7])
        assert code == 0
        assert len((tmp_path / "selector.txt").read_text().split()) == 7

    def test_unknown_config_key_fails(self, data_dir, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("k = 5\nbogus_key = 3\n")
        code = run(["--config", cfg_path, "prepare", "--data-dir", data_dir,
                    "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "kind=InvalidParameterError" in err
        assert "bogus_key" in err
        assert not (tmp_path / "selector.txt").exists()

    def test_missing_config_file_fails(self, data_dir, tmp_path, capsys):
        code = run(["--config", tmp_path / "nope.cfg", "prepare", "--data-dir", data_dir,
                    "--out-dir", tmp_path])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err

    def test_csv_full_precision(self, tmp_path):
        path = tmp_path / "x.csv"
        value = 0.1234567890123456789
        write_csv(path, ["v"], [(value,)])
        read_back = float(path.read_text().strip().split("\n")[1])
        assert read_back == value

    def test_manifest_lists_outputs_with_digests(self, data_dir, tmp_path):
        prepare(data_dir, tmp_path)
        manifest = (tmp_path / "manifest_prepare.txt").read_text()
        for name in ["selector.txt", "train_features.csv", "test_features.csv"]:
            assert f"output {name} sha256=" in manifest


@pytest.fixture(scope="module")
def trained_dir(data_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("trained")
    prepare(data_dir, d)
    train(d)
    return d


class TestPath:
    @pytest.mark.parametrize("flags", [
        ["--id1", 0, "--id2", 5000],
        ["--id1", -1, "--id2", 1],
        ["--id1", 0, "--id2", 1, "--score-tol", 0],
        ["--id1", 0, "--id2", 1, "--score-tol", -1],
    ])
    def test_rejects_bad_rows_and_tolerances(self, trained_dir, tmp_path, capsys, flags):
        code = run(["path", "--checkpoint", trained_dir / "checkpoint.bin",
                    "--features", trained_dir / "test_features.csv",
                    "--out-dir", tmp_path, *flags])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err
        assert not (tmp_path / "path_profile.csv").exists()


class TestRecon:
    @pytest.mark.parametrize("index", [80, 5000, -1])
    def test_index_outside_training_images(self, data_dir, tmp_path, capsys, index):
        code = run(["recon", "--data-dir", data_dir, "--index", index,
                    "--k-list", "5", "--out-dir", tmp_path])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err
        assert not (tmp_path / "recon_errors.csv").exists()

    def test_reads_only_training_batches(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_synth_cifar(data, n_train=10, n_test=4, seed=3)
        os.remove(data / "test_batch.bin")
        assert run(["recon", "--data-dir", data, "--index", 9,
                    "--k-list", "5,20", "--out-dir", tmp_path]) == 0
        assert len((tmp_path / "recon_errors.csv").read_text().strip().split("\n")) == 3

    def test_prepare_requires_test_batch(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_synth_cifar(data, n_train=10, n_test=4, seed=3)
        os.remove(data / "test_batch.bin")
        code = run(["prepare", "--data-dir", data, "--out-dir", tmp_path, "--k", 5])
        assert code == 1
        err = capsys.readouterr().err
        assert "kind=DependencyError" in err
        assert "test_batch.bin" in err


COMMANDS = ["prepare", "train", "recon", "flip", "path", "regions", "attack"]


def command_argv(command, data_dir, trained):
    """Small, quick arguments for each subcommand, out dir left out."""
    inputs = ["--checkpoint", trained / "checkpoint.bin",
              "--features", trained / "test_features.csv"]
    return [command, *{
        "prepare": ["--data-dir", data_dir, "--k", 20],
        "train": ["--features", trained / "train_features.csv", "--hidden", 4, "--epochs", 1],
        "recon": ["--data-dir", data_dir, "--k-list", "5,20"],
        "flip": [*inputs, "--count", 2, "--restarts", 0],
        "path": [*inputs, "--id1", 0, "--id2", 1],
        "regions": [*inputs, "--max-points", 4],
        "attack": [*inputs, "--count", 1, "--epsilons", "0.5", "--restarts", 0],
    }[command]]


def read_manifest(path):
    """The `key = value` lines of a manifest as a dict."""
    entries = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


class TestManifest:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_is_every_option(self, data_dir, trained_dir, tmp_path, command):
        assert run([*command_argv(command, data_dir, trained_dir), "--out-dir", tmp_path]) == 0
        manifest = read_manifest(tmp_path / f"manifest_{command}.txt")
        _, subcommands = build_parser()
        options = {a.dest for a in subcommands[command]._actions if a.dest != "help"}
        config = {k.removeprefix("config.") for k in manifest if k.startswith("config.")}
        assert config == options - {"command", "config", "out_dir", "threads"}

    @pytest.mark.parametrize("command, flag, values", [
        ("path", "--alpha-min", (0, -1)),
        ("attack", "--restarts", (0, 2)),
    ])
    def test_hash_follows_option(self, data_dir, trained_dir, tmp_path, command, flag, values):
        hashes = set()
        for value in values:
            out = tmp_path / str(value)
            assert run([*command_argv(command, data_dir, trained_dir), flag, value,
                        "--out-dir", out]) == 0
            hashes.add(read_manifest(out / f"manifest_{command}.txt")["config_hash"])
        assert len(hashes) == len(values)

    def test_flip_result_outside_config(self, data_dir, trained_dir, tmp_path):
        assert run([*command_argv("flip", data_dir, trained_dir), "--out-dir", tmp_path]) == 0
        manifest = read_manifest(tmp_path / "manifest_flip.txt")
        assert 0.0 <= float(manifest["result.converged_fraction"]) <= 1.0
        assert not any("converged" in k for k in manifest if k.startswith("config."))

    def test_lists_recorded_as_given(self, data_dir, trained_dir, tmp_path):
        assert run([*command_argv("attack", data_dir, trained_dir), "--epsilons", "0.1,2",
                    "--out-dir", tmp_path]) == 0
        assert read_manifest(tmp_path / "manifest_attack.txt")["config.epsilons"] == "0.1,2.0"


class TestOptionValues:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--batch-size", 0]),
        ("train", ["--epochs", -3]),
        ("regions", ["--max-points", -1]),
        ("flip", ["--count", -3]),
        ("attack", ["--count", -2]),
        ("flip", ["--restarts", -2]),
    ])
    def test_out_of_contract_number(self, data_dir, trained_dir, tmp_path, capsys,
                                    command, flags):
        code = run([*command_argv(command, data_dir, trained_dir), *flags,
                    "--out-dir", tmp_path])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, flag, value", [
        ("prepare", "--classes", "0,x"),
        ("train", "--hidden", "8,"),
        ("recon", "--k-list", "5;20"),
        ("attack", "--epsilons", ""),
    ])
    def test_bad_list_is_a_usage_error(self, data_dir, trained_dir, tmp_path, capsys,
                                       command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run([*command_argv(command, data_dir, trained_dir), flag, value,
                 "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_empty_hidden_is_no_hidden_layer(self, data_dir, trained_dir, tmp_path):
        assert run([*command_argv("train", data_dir, trained_dir), "--hidden", "",
                    "--out-dir", tmp_path]) == 0
        assert len(load_checkpoint(tmp_path / "checkpoint.bin").layers) == 1

    def test_process_pool_matches_serial(self, data_dir, trained_dir, tmp_path):
        outputs = []
        for threads in (1, 2):
            out = tmp_path / str(threads)
            assert run([*command_argv("flip", data_dir, trained_dir), "--count", 6,
                        "--restarts", 1, "--threads", threads, "--out-dir", out]) == 0
            outputs.append(((out / "flips.csv").read_bytes(),
                            read_manifest(out / "manifest_flip.txt")["config_hash"]))
        assert outputs[0] == outputs[1]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """argv of every `flipnet ...` line in the README's sh blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["flipnet"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse(capsys):
    parser, _ = build_parser()
    commands = readme_commands()
    assert set(COMMANDS) <= {word for argv in commands for word in argv}
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: flipnet {shlex.join(argv)}\n"
                        + capsys.readouterr().err)
