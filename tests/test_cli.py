import hashlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flipnet import (Layer, Network, SolveOptions, cli, flips, haar3d_forward, load_checkpoint,
                     load_cifar_batch, paths, save_checkpoint)
from flipnet.cli import build_parser, derived_seed, main, read_config, write_csv
from flipnet.network import logits_batch
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

    @pytest.mark.parametrize("width", [15, 25])
    def test_flip_rejects_a_selector_of_another_width(self, data_dir, tmp_path, capsys,
                                                       monkeypatch, width):
        prepare(data_dir, tmp_path)
        train(tmp_path)
        kept = [int(i) for i in (tmp_path / "selector.txt").read_text().split()]
        others = [i for i in range(4096) if i not in kept]
        selector = tmp_path / "other_selector.txt"
        selector.write_text("".join(f"{i}\n" for i in (kept + others)[:width]))
        loaded = []
        monkeypatch.setattr(cli, "_load_batch", lambda *args: loaded.append(args))
        code = run(["flip", "--checkpoint", tmp_path / "checkpoint.bin",
                    "--features", tmp_path / "test_features.csv",
                    "--count", 2, "--restarts", 0, "--threads", 1,
                    "--selector", selector, "--data-dir", data_dir, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "kind=InvalidInputError" in err
        assert f"features have 20 columns but the selector keeps {width}" in err
        assert not loaded  # fails before any image is read
        assert not os.path.exists(tmp_path / "flips.csv")

    def test_attack_rejects_non_binary_checkpoint(self, data_dir, tmp_path, capsys):
        prepare(data_dir, tmp_path)
        rng = np.random.default_rng(0)
        net = Network([Layer(rng.standard_normal((3, 20)), np.zeros(3), 1.0)])
        save_checkpoint(net, tmp_path / "checkpoint.bin")
        for command in ("attack", "flip"):
            code = run([command, "--checkpoint", tmp_path / "checkpoint.bin",
                        "--features", tmp_path / "test_features.csv",
                        "--count", 1, "--out-dir", tmp_path])
            assert code == 1
            assert "kind=InvalidInputError" in capsys.readouterr().err
            assert not os.path.exists(tmp_path / f"{command}s.csv")

    def test_plateau_query_solved_once(self, monkeypatch):
        # the hidden unit is saturated, so the logit gap is nonzero but
        # its gradient underflows to zero: no Taylor estimate exists
        net = Network([Layer(np.array([[1.0, 0.0, 0.0]]), np.array([50.0]), 1.0),
                       Layer(np.array([[1.0], [-1.0]]), np.zeros(2), 1.0)])
        calls = []
        solve = flips._augmented_lagrangian_solve

        def counted(net, X, starts, pairs, stats=None):
            if len(starts):
                calls.append(len(starts))
            return solve(net, X, starts, pairs, stats)

        monkeypatch.setattr(flips, "_augmented_lagrangian_solve", counted)
        metrics = flips.compare(net, np.zeros(3), (0, 1), SolveOptions(restarts=0))
        assert calls == [1]  # one solve of its one start, no re-seeded solve
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
            assert run(["attack", "--checkpoint", out / "checkpoint.bin",
                        "--features", out / "test_features.csv",
                        "--count", 3, "--epsilons", "0.1,2.0",
                        "--out-dir", out, "--seed", 42]) == 0
        for name in ["train_features.csv", "test_features.csv", "selector.txt",
                     "checkpoint.bin", "train_report.csv", "accuracy.csv", "flips.csv",
                     "attacks.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_attack_rows_agree_across_counts(self, data_dir, trained_dir, tmp_path):
        # query 0 shares its flip solve, PGD batch and crossing stack with
        # other rows only at --count 3; its rows are the same bytes
        rows = {}
        for count in (1, 3):
            out = tmp_path / str(count)
            assert run(["attack", "--checkpoint", trained_dir / "checkpoint.bin",
                        "--features", trained_dir / "test_features.csv",
                        "--count", count, "--epsilons", "0.1,2.0",
                        "--out-dir", out, "--seed", 42]) == 0
            lines = (out / "attacks.csv").read_text().strip().split("\n")
            assert lines[0].split(",") == ["id", "epsilon", "succeeded", "attack_distance",
                                           "flip_distance", "first_crossing_distance",
                                           "angle_deg", "flip_status"]
            assert len(lines) == 1 + 2 * count
            rows[count] = lines[1:3]
        assert all(line.startswith("0,") for line in rows[1])
        assert rows[1] == rows[3]

    def test_flip_rows_agree_across_counts(self, data_dir, trained_dir, tmp_path):
        # query 0 shares its solver rows with other queries only at --count 3
        rows = {}
        for count in (1, 3):
            out = tmp_path / str(count)
            assert run(["flip", "--checkpoint", trained_dir / "checkpoint.bin",
                        "--features", trained_dir / "test_features.csv",
                        "--count", count, "--restarts", 2,
                        "--selector", trained_dir / "selector.txt", "--data-dir", data_dir,
                        "--out-dir", out, "--seed", 42]) == 0
            lines = (out / "flips.csv").read_text().strip().split("\n")
            assert len(lines) == 1 + count
            rows[count] = lines[1]
        assert rows[1].startswith("0,")
        assert rows[1] == rows[3]

    def test_rerun_byte_identical_at_desk_width(self, tmp_path):
        # the desk recipe's k and hidden width, on a small synthetic set
        data = tmp_path / "data"
        data.mkdir()
        write_synth_cifar(data, n_train=400, n_test=20, seed=7)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["prepare", "--data-dir", data, "--out-dir", out,
                        "--k", 200, "--seed", 42]) == 0
            assert run(["train", "--features", out / "train_features.csv",
                        "--hidden", 512, "--epochs", 2, "--out-dir", out,
                        "--seed", 42]) == 0
            assert run(["flip", "--checkpoint", out / "checkpoint.bin",
                        "--features", out / "test_features.csv",
                        "--count", 3, "--restarts", 1, "--out-dir", out,
                        "--seed", 42]) == 0
        for name in ["selector.txt", "train_features.csv", "test_features.csv",
                     "checkpoint.bin", "flips.csv"]:
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


class TestMalformedInputs:
    def test_truncated_checkpoint_is_a_format_error(self, trained_dir, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((trained_dir / "checkpoint.bin").read_bytes()[:10])
        inputs = ["--checkpoint", ckpt, "--features", trained_dir / "test_features.csv",
                  "--out-dir", tmp_path / "out"]
        for argv in (["regions"], ["flip"], ["path", "--id1", 0, "--id2", 1], ["attack"]):
            assert run(argv + inputs) == 1
            err = capsys.readouterr().err
            assert err.count("kind=FormatError") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_regions_accepts_duplicate_rows(self, trained_dir, tmp_path):
        X = np.loadtxt(trained_dir / "test_features.csv", delimiter=",", skiprows=1)[:6]
        net = load_checkpoint(trained_dir / "checkpoint.bin")
        # the rows region_report keeps: class 1 and classified as class 1
        kept = np.flatnonzero((np.argmax(logits_batch(net, X[:, 1:]), axis=1) == 1)
                              & (X[:, 0] == 1))
        assert kept.size >= 1
        feats = tmp_path / "features.csv"
        header = (trained_dir / "test_features.csv").read_text().splitlines()[0]
        rows = np.vstack([X, X[kept[0]]])
        np.savetxt(feats, rows, delimiter=",", header=header, comments="", fmt="%.17g")
        assert run(["regions", "--checkpoint", trained_dir / "checkpoint.bin",
                    "--features", feats, "--class-id", 1, "--out-dir", tmp_path]) == 0
        edges = (tmp_path / "adjacency_edges.txt").read_text().splitlines()
        assert f"0 {kept.size}" in edges  # the copy is node kept.size, its original node 0


    @pytest.mark.parametrize("fault, where", [
        ("non-number", ":3: could not convert string to float: 'abc'"),
        ("row-short", ":3: 20 values, the header has 21"),
        ("fractional-label", ": label 0.5 of data row 2 is not an integer >= 0"),
        ("negative-label", ": label -1 of data row 2 is not an integer >= 0"),
        ("no-rows", ": no data rows"),
    ])
    def test_features_csv_fault_is_a_format_error(self, trained_dir, tmp_path, capsys,
                                                  fault, where):
        lines = (trained_dir / "test_features.csv").read_text().splitlines()
        header, first, row = lines[:3]
        label, values = row.split(",", 1)
        bad = {
            "non-number": f"{label},abc,{values.split(',', 1)[1]}",
            "row-short": row.rsplit(",", 1)[0],
            "fractional-label": f"0.5,{values}",
            "negative-label": f"-1,{values}",
        }.get(fault)
        feats = tmp_path / "features.csv"
        feats.write_text("\n".join([header] + ([first, bad] if bad else [])) + "\n")
        inputs = ["--checkpoint", trained_dir / "checkpoint.bin", "--features", feats]
        for argv in (["train", "--features", feats, "--epochs", 1],
                     ["train", "--features", trained_dir / "train_features.csv",
                      "--test-features", feats, "--epochs", 1],
                     ["flip", *inputs, "--count", 1, "--restarts", 0],
                     ["regions", *inputs],
                     ["attack", *inputs, "--count", 1, "--restarts", 0]):
            assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
            err = capsys.readouterr().err
            assert f"kind=FormatError message={feats}{where}" in err, argv[0]
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("header", ["none", "empty", "swapped", "renamed"])
    def test_features_csv_header_is_checked(self, trained_dir, tmp_path, capsys, header):
        # a headerless file would lose its first point to the header
        lines = (trained_dir / "test_features.csv").read_text().splitlines()
        names = lines[0].split(",")
        header = {"none": None, "empty": "",
                  "swapped": ",".join([names[0], names[2], names[1]] + names[3:]),
                  "renamed": ",".join(["id"] + names[1:])}[header]
        rows = lines[1:]
        feats = tmp_path / "features.csv"
        feats.write_text("\n".join(([] if header is None else [header]) + rows) + "\n")
        inputs = ["--checkpoint", trained_dir / "checkpoint.bin", "--features", feats]
        for argv in (["train", "--features", feats, "--epochs", 1],
                     ["flip", *inputs, "--count", 1, "--restarts", 0],
                     ["path", *inputs, "--id1", 0, "--id2", 1],
                     ["regions", *inputs],
                     ["attack", *inputs, "--count", 1, "--restarts", 0]):
            assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
            err = capsys.readouterr().err
            assert f"kind=FormatError message={feats}:1: the header must be label,c0," in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_train_rejects_one_class(self, trained_dir, tmp_path, capsys):
        lines = (trained_dir / "train_features.csv").read_text().splitlines()
        rows = [line for line in lines[1:] if line.split(",", 1)[0] == "1"]
        assert rows
        feats = tmp_path / "features.csv"
        feats.write_text("\n".join([lines[0]] + rows) + "\n")
        code = run(["train", "--features", feats, "--hidden", 4, "--epochs", 2,
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert "kind=InvalidInputError" in err and "two classes" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--features", "--test-features"])
    def test_train_rejects_non_finite_features(self, trained_dir, tmp_path, capsys, flag):
        lines = (trained_dir / "train_features.csv").read_text().splitlines()
        label, values = lines[2].split(",", 1)
        lines[2] = f"{label},nan,{values.split(',', 1)[1]}"
        feats = tmp_path / "features.csv"
        feats.write_text("\n".join(lines) + "\n")
        inputs = {"--features": trained_dir / "train_features.csv", flag: feats}
        code = run(["train", *[v for kv in inputs.items() for v in kv], "--epochs", 1,
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "kind=InvalidInputError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_rejects_test_features_of_another_k(self, trained_dir, tmp_path, capsys):
        # one column fewer, as from prepare with a smaller --k; caught before any epoch
        lines = (trained_dir / "test_features.csv").read_text().splitlines()
        feats = tmp_path / "features.csv"
        feats.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        code = run(["train", "--features", trained_dir / "train_features.csv",
                    "--test-features", feats, "--epochs", 1, "--out-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert "kind=ShapeError" in err and "test features" in err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("flag", ["--alpha-max=inf", "--alpha-min=-inf", "--alpha-max=nan"])
    def test_rejects_non_finite_alpha(self, trained_dir, tmp_path, capsys, flag):
        code = run(["path", "--checkpoint", trained_dir / "checkpoint.bin",
                    "--features", trained_dir / "test_features.csv",
                    "--out-dir", tmp_path, "--id1", 0, "--id2", 1, flag])
        assert code == 1
        assert "kind=InvalidInputError" in capsys.readouterr().err
        assert not (tmp_path / "path_profile.csv").exists()

    def test_manifest_records_cap_and_crossings(self, trained_dir, tmp_path, monkeypatch):
        def path_run(out_dir):
            assert run(["path", "--checkpoint", trained_dir / "checkpoint.bin",
                        "--features", trained_dir / "test_features.csv",
                        "--id1", 0, "--id2", 1, "--out-dir", out_dir]) == 0
            lines = (out_dir / "manifest_path.txt").read_text().splitlines()
            crossings = len((out_dir / "path_crossings.csv").read_text().splitlines()) - 1
            assert f"result.crossings = {crossings}" in lines
            return lines

        free = path_run(tmp_path / "free")
        monkeypatch.setattr(paths, "SAMPLE_CAP", 3)
        capped = path_run(tmp_path / "capped")
        assert "result.capped = 0" in free and "result.capped = 1" in capped
        assert len((tmp_path / "capped" / "path_profile.csv").read_text().splitlines()) == 4
        assert free[:2] == capped[:2]  # command and config_hash
        # crossings do not depend on the profile's samples
        assert [l for l in free if "crossings" in l] == [l for l in capped if "crossings" in l]


class TestRecon:
    def test_defaults_after_default_prepare(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_synth_cifar(data, n_train=200, n_test=4, seed=3)
        assert run(["prepare", "--data-dir", data, "--out-dir", tmp_path]) == 0
        assert run(["recon", "--data-dir", data, "--selector", tmp_path / "selector.txt",
                    "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "recon_errors.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["k", "50", "100", "200"]

    @pytest.mark.parametrize("index", [80, 5000, -1])
    def test_index_outside_training_images(self, data_dir, tmp_path, capsys, index):
        code = run(["recon", "--data-dir", data_dir, "--index", index,
                    "--k-list", "5", "--out-dir", tmp_path])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err
        assert not (tmp_path / "recon_errors.csv").exists()

    @pytest.mark.parametrize("k_list, selector", [("5,21", True), ("-2", True), ("9000", False)])
    def test_k_outside_ranked_coefficients(self, data_dir, trained_dir, tmp_path, capsys,
                                           k_list, selector):
        # trained_dir's selector ranks 20 coefficients; an image alone ranks 3072
        flags = ["--selector", trained_dir / "selector.txt"] if selector else []
        code = run(["recon", "--data-dir", data_dir, "--k-list", k_list, *flags,
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [-1, 5000])
    def test_selector_index_outside_coefficients(self, data_dir, tmp_path, capsys, bad):
        # -1 would wrap to coefficient 4095; 5000 would fail inside numpy
        (tmp_path / "selector.txt").write_text(f"3\n{bad}\n")
        code = run(["recon", "--data-dir", data_dir, "--k-list", "2",
                    "--selector", tmp_path / "selector.txt", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert f"kind=FormatError message={tmp_path / 'selector.txt'}:2:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_selector_line_not_an_integer(self, data_dir, tmp_path, capsys):
        (tmp_path / "selector.txt").write_text("3\nabc\n7\n")
        code = run(["recon", "--data-dir", data_dir, "--k-list", "2",
                    "--selector", tmp_path / "selector.txt", "--out-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"kind=FormatError message={tmp_path / 'selector.txt'}:2: 'abc'" in err
        assert not (tmp_path / "out").exists()

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
        evaluations = int(manifest["result.solver_evaluations"])
        assert 0 < evaluations <= int(manifest["result.solver_rows"])
        projected = int(manifest["result.solver_projected_rows"])
        assert 0 <= projected <= int(manifest["result.solver_rows"])
        assert not any(word in k for k in manifest if k.startswith("config.")
                       for word in ("converged", "solver"))

    def test_prepare_records_coefficient_digests(self, data_dir, tmp_path):
        digests = []
        for out in (tmp_path / "a", tmp_path / "b"):
            prepare(data_dir, out, seed=42)
            manifest = read_manifest(out / "manifest_prepare.txt")
            digests.append((manifest["result.train_coeffs_sha256"],
                            manifest["result.test_coeffs_sha256"]))
        assert digests[0] == digests[1]
        # the per-image transforms, stacked, as little-endian float64
        for name, digest in zip(("data_batch_1.bin", "test_batch.bin"), digests[0]):
            images, _ = load_cifar_batch((data_dir / name).read_bytes(), (0, 8))
            coeffs = np.stack([haar3d_forward(im) for im in images]).astype("<f8")
            assert digest == hashlib.sha256(coeffs.tobytes()).hexdigest(), name

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
        ("attack", ["--epsilons=inf"]),
        ("attack", ["--epsilons=nan"]),
        ("attack", ["--epsilons", "0"]),
        ("regions", ["--max-points", 1]),
        ("train", ["--learning-rate=nan"]),
        ("train", ["--learning-rate=inf"]),
        ("regions", ["--class-id", 7]),
        ("regions", ["--class-id", -1]),
    ])
    def test_out_of_contract_number(self, data_dir, trained_dir, tmp_path, capsys,
                                    command, flags):
        code = run([*command_argv(command, data_dir, trained_dir), *flags,
                    "--out-dir", tmp_path])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_regions_max_points_zero_is_every_point(self, data_dir, trained_dir, tmp_path):
        for max_points in (0, 1000):
            assert run([*command_argv("regions", data_dir, trained_dir),
                        "--max-points", max_points, "--out-dir", tmp_path / str(max_points)]) == 0
        for name in ("adjacency_edges.txt", "region_summary.csv"):
            assert ((tmp_path / "0" / name).read_bytes()
                    == (tmp_path / "1000" / name).read_bytes()), name

    def test_flip_check_needs_selector_and_data_dir(self, data_dir, trained_dir,
                                                     tmp_path, capsys):
        for only in (["--selector", trained_dir / "selector.txt"],
                     ["--data-dir", data_dir]):
            code = run([*command_argv("flip", data_dir, trained_dir), *only,
                        "--out-dir", tmp_path])
            assert code == 1
            assert "kind=InvalidParameterError" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("hidden", ["-5", "0", "8,0"])
    def test_hidden_size_below_one(self, data_dir, trained_dir, tmp_path, capsys, hidden):
        code = run([*command_argv("train", data_dir, trained_dir), "--hidden", hidden,
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "kind=InvalidParameterError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_tracer_installs(tmp_path):
    # perfbench/spans.py wraps flipnet functions by name: a renamed or
    # deleted one fails its install before the CLI parses anything
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "perfbench/spans.py", str(tmp_path / "s.json"), "--help"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_every_traced_name_exists():
    # read in-process, without Recorder.install(), which would rewrap
    # flipnet's module globals for the rest of the session
    spec = importlib.util.spec_from_file_location(
        "spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}" for layer, names in spans.WRAPPED.items() for name in names
               if not callable(getattr(importlib.import_module(f"flipnet.{layer}"), name, None))]
    assert spans.WRAPPED and not missing
