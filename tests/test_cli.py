"""Command-line interface: every subcommand, precedence, and exit codes."""

import ast
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import signpipe
from signpipe import nn
from signpipe.cli import main
from signpipe.gesture import load_descriptors, parse_markup
from signpipe.landmarks import read_corpus, write_corpus, write_label_map, LabelMap
from signpipe.netpipe import DEFAULT_PORT, MessageSocket, hello_message, robot_sim, serve
from signpipe.preprocess import SelectionSpec
from signpipe.synth import make_synthetic_samples

from conftest import chat_http_stub, chat_reply

SMALL_MODEL = {
    "input_dim": 176,
    "extractor_dims": [16],
    "model_dim": 16,
    "num_layers": 1,
    "num_heads": 2,
    "ff_dim": 32,
    "num_classes": 3,
    "max_seq_len": 8,
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("SIGNPIPE_"):
            monkeypatch.delenv(key)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared corpus files, model config, and a quickly trained model."""
    d = tmp_path_factory.mktemp("cli")
    write_corpus(make_synthetic_samples(3, 6, seed=0, id_prefix="tr"),
                 d / "train.csv")
    write_corpus(make_synthetic_samples(3, 2, seed=1, id_prefix="va"),
                 d / "val.csv")
    (d / "model.json").write_text(json.dumps(SMALL_MODEL))
    write_label_map(LabelMap(("circle", "wave", "push")), d / "labels.json")
    code = main([
        "train", str(d / "train.csv"), "--out", str(d / "model.sgnw"),
        "--model-config", str(d / "model.json"),
        "--epochs", "5", "--lr", "0.3", "--batch-size", "8",
        "--val-corpus", str(d / "val.csv"),
    ])
    assert code == 0
    return d


def descriptor_file(path, playtimes):
    entries = [
        {"tag": f"G{i}", "description": f"gesture {i}", "playtime_s": p,
         "body_parts": ["Neck"]}
        for i, p in enumerate(playtimes)
    ]
    path.write_text(json.dumps(entries))
    return path


def stats_value(out, name):
    for line in out.splitlines():
        key, value = line.split("\t")
        if key == name:
            return float(value)
    raise AssertionError(f"{name} not in output: {out!r}")


class TestPreprocess:
    def test_writes_tensor_container(self, workdir, tmp_path, capsys):
        out = tmp_path / "feat.sgnw"
        code = main(["preprocess", str(workdir / "train.csv"), str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "tensors\t18" in stdout
        assert "shape\t32x176" in stdout
        tensors = nn.load_tensors(out)
        assert len(tensors) == 18
        assert all(t.shape == (32, 176) for t in tensors.values())
        assert "tr-00-000" in tensors

    def test_target_len_flag(self, workdir, tmp_path, capsys):
        out = tmp_path / "feat.sgnw"
        code = main(["preprocess", str(workdir / "train.csv"), str(out),
                     "--target-len", "8"])
        assert code == 0
        assert "shape\t8x176" in capsys.readouterr().out
        assert next(iter(nn.load_tensors(out).values())).shape == (8, 176)

    def test_augmented_output_is_seed_reproducible(self, workdir, tmp_path):
        outs = []
        for name in ("a.sgnw", "b.sgnw", "c.sgnw"):
            out = tmp_path / name
            seed = "7" if name != "c.sgnw" else "8"
            code = main(["preprocess", str(workdir / "train.csv"), str(out),
                         "--augment", "--seed", seed])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_unreadable_csv_record_is_one_error_line(self, tmp_path, capsys):
        corpus = tmp_path / "long.csv"
        corpus.write_text("sample_id,frame,kind,landmark_index,x,y,z,label\n"
                          f"{'s' * 200_000},0,pose,0,0.1,0.1,,1\n")
        assert main(["preprocess", str(corpus), str(tmp_path / "o.sgnw")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: unreadable CSV record: field larger than field "
                       "limit (131072) (line 2)\n")

    def test_missing_corpus_is_usage_error(self, tmp_path):
        code = main(["preprocess", str(tmp_path / "none.csv"),
                     str(tmp_path / "o.sgnw")])
        assert code == 2

    def test_missing_selection_spec_is_usage_error(self, workdir, tmp_path):
        code = main(["preprocess", str(workdir / "train.csv"),
                     str(tmp_path / "o.sgnw"), "--spec",
                     str(tmp_path / "none.json")])
        assert code == 2


class TestTrain:
    def test_csv_report_and_artifacts(self, workdir, tmp_path, capsys):
        out = tmp_path / "w.sgnw"
        code = main([
            "train", str(workdir / "train.csv"), "--out", str(out),
            "--model-config", str(workdir / "model.json"),
            "--epochs", "2", "--lr", "0.1", "--batch-size", "8",
            "--val-corpus", str(workdir / "val.csv"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3
        for i, line in enumerate(lines[1:], start=1):
            epoch, tl, ta, vl, va = line.split(",")
            assert int(epoch) == i
            assert 0.0 <= float(ta) <= 1.0 and 0.0 <= float(va) <= 1.0
            assert len(tl.split(".")[1]) == 6 and len(ta.split(".")[1]) == 4
        assert out.is_file()
        sidecar = nn.ModelConfig.load(str(out) + ".json")
        assert sidecar == nn.ModelConfig.from_dict(SMALL_MODEL)

    def test_bit_reproducible_across_runs(self, workdir, tmp_path, capsys):
        results = []
        for name in ("r1.sgnw", "r2.sgnw"):
            out = tmp_path / name
            code = main([
                "train", str(workdir / "train.csv"), "--out", str(out),
                "--model-config", str(workdir / "model.json"),
                "--epochs", "2", "--batch-size", "8",
                "--val-corpus", str(workdir / "val.csv"),
            ])
            assert code == 0
            results.append((capsys.readouterr().out, out.read_bytes()))
        assert results[0] == results[1]

    def test_zero_epochs_saves_initial_weights(self, workdir, tmp_path, capsys):
        out = tmp_path / "w.sgnw"
        code = main([
            "train", str(workdir / "train.csv"), "--out", str(out),
            "--model-config", str(workdir / "model.json"), "--epochs", "0",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "epoch,train_loss,train_acc,val_loss,val_acc"]
        cfg = nn.ModelConfig.from_dict(SMALL_MODEL)
        init = nn.init_weights(cfg, seed=0)
        saved = nn.load_weights(out)
        assert set(saved) == set(init)
        for name in init:
            np.testing.assert_array_equal(saved[name], init[name])

    def test_val_split_holds_out_samples(self, workdir, tmp_path, capsys):
        out = tmp_path / "w.sgnw"
        code = main([
            "train", str(workdir / "train.csv"), "--out", str(out),
            "--model-config", str(workdir / "model.json"),
            "--epochs", "1", "--val-split", "0.25",
        ])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert not row.endswith(",,")  # validation columns populated

    def test_target_accuracy_stops_early(self, workdir, tmp_path, capsys):
        out = tmp_path / "w.sgnw"
        code = main([
            "train", str(workdir / "train.csv"), "--out", str(out),
            "--model-config", str(workdir / "model.json"),
            "--epochs", "50", "--val-corpus", str(workdir / "val.csv"),
            "--target-val-acc", "0.0",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2  # header + 1

    def test_label_outside_model_classes(self, workdir, tmp_path):
        cfg_path = tmp_path / "two.json"
        cfg_path.write_text(json.dumps(dict(SMALL_MODEL, num_classes=2)))
        code = main([
            "train", str(workdir / "train.csv"),
            "--out", str(tmp_path / "w.sgnw"),
            "--model-config", str(cfg_path), "--epochs", "1",
        ])
        assert code == 2

    def test_zero_lr_keeps_the_initial_weights(self, workdir, tmp_path, capsys):
        out = tmp_path / "w.sgnw"
        code = main([
            "train", str(workdir / "train.csv"), "--out", str(out),
            "--model-config", str(workdir / "model.json"),
            "--epochs", "1", "--lr", "0",
        ])
        assert code == 0
        init = nn.init_weights(nn.ModelConfig.from_dict(SMALL_MODEL), seed=0)
        saved = nn.load_weights(out)
        for name in init:
            np.testing.assert_array_equal(saved[name], init[name])

    def test_bad_val_split(self, workdir, tmp_path, capsys):
        for split in ("1.5", "-0.5"):
            code = main([
                "train", str(workdir / "train.csv"),
                "--out", str(tmp_path / "w.sgnw"),
                "--model-config", str(workdir / "model.json"),
                "--epochs", "1", "--val-split", split,
            ])
            assert code == 2
            assert capsys.readouterr().out == ""
            assert not (tmp_path / "w.sgnw").exists()

    def test_val_split_that_leaves_no_training_samples(self, tmp_path, capsys):
        corpus = tmp_path / "two.csv"
        write_corpus(make_synthetic_samples(1, 2, seed=5), corpus)
        code = main(["train", str(corpus), "--out", str(tmp_path / "w.sgnw"),
                     "--val-split", "0.9"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --val-split leaves no training samples\n"
        assert not (tmp_path / "w.sgnw").exists()

    def test_corpus_with_no_samples(self, tmp_path, capsys):
        corpus = tmp_path / "empty.csv"
        write_corpus([], corpus)
        code = main(["train", str(corpus), "--out", str(tmp_path / "w.sgnw")])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: corpus {corpus} has no samples\n"
        assert not (tmp_path / "w.sgnw").exists()

    def test_spec_with_an_unknown_key(self, workdir, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"lip": [0, 13]}')
        code = main(["train", str(workdir / "train.csv"), "--out", str(tmp_path / "w.sgnw"),
                     "--model-config", str(workdir / "model.json"), "--spec", str(spec)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: selection spec {spec}: unknown fields ['lip']\n"
        assert not (tmp_path / "w.sgnw").exists()


class TestInfer:
    def test_one_line_per_sample(self, workdir, capsys):
        code = main([
            "infer", str(workdir / "val.csv"),
            "--weights", str(workdir / "model.sgnw"),
            "--labels", str(workdir / "labels.json"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        for line in lines:
            gloss, conf = line.split("\t")
            assert gloss in ("circle", "wave", "push")
            assert 0.0 < float(conf) <= 1.0
            assert len(conf.split(".")[1]) == 4

    def test_without_labels_uses_class_ids(self, workdir, capsys):
        code = main([
            "infer", str(workdir / "val.csv"),
            "--weights", str(workdir / "model.sgnw"),
        ])
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.split("\t")[0].startswith("class_")

    def test_sidecar_config_is_picked_up(self, workdir, capsys):
        # no --model-config: model.sgnw.json written by train must apply
        code = main([
            "infer", str(workdir / "val.csv"),
            "--weights", str(workdir / "model.sgnw"),
        ])
        assert code == 0

    def test_missing_weights_flag(self, workdir):
        assert main(["infer", str(workdir / "val.csv")]) == 2

    def test_nonexistent_weights_file(self, workdir, tmp_path):
        code = main(["infer", str(workdir / "val.csv"),
                     "--weights", str(tmp_path / "none.sgnw")])
        assert code == 2


class TestEval:
    def test_summary_and_per_class_rows(self, workdir, capsys):
        code = main([
            "eval", str(workdir / "train.csv"),
            "--weights", str(workdir / "model.sgnw"),
            "--labels", str(workdir / "labels.json"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("top1\t")
        assert lines[1].startswith("top3\t")  # min(5, 3 classes)
        top1 = float(lines[0].split("\t")[1])
        top3 = float(lines[1].split("\t")[1])
        assert 0.0 <= top1 <= top3 <= 1.0
        class_rows = [l for l in lines[2:] if l.startswith("class\t")]
        assert len(class_rows) == 3
        total = sum(int(r.split("\t")[4]) for r in class_rows)
        assert total == 18
        assert class_rows[0].split("\t")[2] == "circle"

    def test_trained_model_memorizes_training_set(self, workdir, capsys):
        code = main([
            "eval", str(workdir / "train.csv"),
            "--weights", str(workdir / "model.sgnw"),
        ])
        assert code == 0
        top1 = float(capsys.readouterr().out.splitlines()[0].split("\t")[1])
        assert top1 >= 0.9

    def test_unlabeled_corpus_fails(self, workdir, tmp_path, capsys):
        samples = [s for s in make_synthetic_samples(2, 1, seed=3)]
        for s in samples:
            s.label = None
        write_corpus(samples, tmp_path / "u.csv")
        code = main([
            "eval", str(tmp_path / "u.csv"),
            "--weights", str(workdir / "model.sgnw"),
        ])
        assert code == 1


class TestLabelRange:
    """The model and the label map bound a label, not a fixed lexicon size."""

    def test_label_299_round_trips_trains_and_evals(self, tmp_path, capsys):
        samples = make_synthetic_samples(2, 2, seed=5)
        for s in samples[2:]:
            s.label = 299
        corpus = tmp_path / "wide.csv"
        write_corpus(samples, corpus)
        assert read_corpus(corpus) == samples
        model = tmp_path / "model.json"
        model.write_text(json.dumps(dict(SMALL_MODEL, num_classes=300)))
        out = tmp_path / "w.sgnw"
        assert main(["train", str(corpus), "--out", str(out), "--model-config", str(model),
                     "--epochs", "1", "--batch-size", "4"]) == 0
        capsys.readouterr()
        assert main(["eval", str(corpus), "--weights", str(out)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()
                if line.startswith("class\t")]
        assert [(r[1], r[4]) for r in rows] == [("0", "2"), ("299", "2")]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_label_beyond_the_model_exits_2_before_output(self, workdir, tmp_path,
                                                          capsys, command):
        samples = make_synthetic_samples(1, 2, seed=5)
        samples[1].label = 3  # the workdir model has 3 classes
        corpus = tmp_path / "c.csv"
        write_corpus(samples, corpus)
        argv = {"train": ["--out", str(tmp_path / "w.sgnw"),
                          "--model-config", str(workdir / "model.json")],
                "eval": ["--weights", str(workdir / "model.sgnw")]}[command]
        assert main([command, str(corpus), *argv]) == 2
        assert capsys.readouterr().out == ""


class TestModelFit:
    """A model that does not fit its selection or label map is a usage
    error (exit 2) from every command, before any output."""

    @pytest.fixture
    def short_labels(self, tmp_path):
        path = tmp_path / "short.json"
        write_label_map(LabelMap(("circle",)), path)
        return path

    @pytest.fixture
    def narrow_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        SelectionSpec(lips=(0,), pose=()).save(path)
        return path

    @pytest.mark.parametrize("command,corpus", [("infer", "val.csv"),
                                                ("eval", "train.csv")])
    def test_short_label_map(self, workdir, short_labels, capsys,
                             command, corpus):
        code = main([command, str(workdir / corpus),
                     "--weights", str(workdir / "model.sgnw"),
                     "--labels", str(short_labels)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "label map" in captured.err

    @pytest.mark.parametrize("command", ["train", "infer", "eval", "serve"])
    def test_selection_mismatch(self, workdir, narrow_spec, tmp_path,
                                monkeypatch, capsys, command):
        def never_serve(cfg):
            raise AssertionError("serve started with a misfit model")

        monkeypatch.setattr("signpipe.cli.serve", never_serve)
        model = ["--model-config", str(workdir / "model.json")]
        argv = {
            "train": ["train", str(workdir / "train.csv"),
                      "--out", str(tmp_path / "w.sgnw"), *model],
            "infer": ["infer", str(workdir / "val.csv"),
                      "--weights", str(workdir / "model.sgnw")],
            "eval": ["eval", str(workdir / "train.csv"),
                     "--weights", str(workdir / "model.sgnw")],
            "serve": ["serve", "--weights", str(workdir / "model.sgnw"),
                      "--port", "0"],
        }[command]
        code = main([*argv, "--spec", str(narrow_spec)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "features" in captured.err


class TestStats:
    def test_bundled_db_summary(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert [l.split("\t")[0] for l in lines] == [
            "mean", "std", "min", "p25", "p50", "p75", "max"]
        assert stats_value(out, "mean") == pytest.approx(1.87833, abs=1e-5)
        assert stats_value(out, "p75") == pytest.approx(2.1525)

    def test_custom_db(self, tmp_path, capsys):
        db = descriptor_file(tmp_path / "db.json", [1.0, 2.0, 3.0, 4.0])
        assert main(["stats", "--descriptors", str(db)]) == 0
        out = capsys.readouterr().out
        assert stats_value(out, "mean") == pytest.approx(2.5)
        assert stats_value(out, "std") == pytest.approx(1.29099, abs=1e-5)
        assert stats_value(out, "p25") == pytest.approx(1.75)

    def test_missing_db_file(self, tmp_path):
        assert main(["stats", "--descriptors", str(tmp_path / "no.json")]) == 2


class TestSettingPrecedence:
    def test_flag_beats_env_beats_file(self, tmp_path, monkeypatch, capsys):
        db2 = descriptor_file(tmp_path / "two.json", [2.0, 2.0])
        db3 = descriptor_file(tmp_path / "three.json", [3.0, 3.0])
        db4 = descriptor_file(tmp_path / "four.json", [4.0, 4.0])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"descriptors": str(db4)}))

        assert main(["stats", "--config", str(cfg)]) == 0
        assert stats_value(capsys.readouterr().out, "mean") == 4.0

        monkeypatch.setenv("SIGNPIPE_DESCRIPTORS", str(db3))
        assert main(["stats", "--config", str(cfg)]) == 0
        assert stats_value(capsys.readouterr().out, "mean") == 3.0

        assert main(["stats", "--config", str(cfg),
                     "--descriptors", str(db2)]) == 0
        assert stats_value(capsys.readouterr().out, "mean") == 2.0

    def test_config_file_via_environment(self, tmp_path, monkeypatch, capsys):
        db = descriptor_file(tmp_path / "db.json", [5.0, 5.0])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"descriptors": str(db)}))
        monkeypatch.setenv("SIGNPIPE_CONFIG", str(cfg))
        assert main(["stats"]) == 0
        assert stats_value(capsys.readouterr().out, "mean") == 5.0

    def test_invalid_config_file(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{nope")
        assert main(["stats", "--config", str(bad)]) == 2
        bad.write_text("[1]")
        assert main(["stats", "--config", str(bad)]) == 2
        assert main(["stats", "--config", str(tmp_path / "none.json")]) == 2
        bad.write_text('{"seed": ' + "9" * 5000 + "}")
        assert main(["stats", "--config", str(bad)]) == 2
        bad.write_text('{"seed": [1]}')
        assert main(["stats", "--config", str(bad)]) == 2
        for number in ("1e400", "-Infinity", "NaN", "9" * 400):
            bad.write_text('{"wpm": ' + number + "}")
            assert main(["stats", "--config", str(bad)]) == 2
        bad.write_text('{"backend": "nope"}')
        assert main(["compose", "--gloss", "x", "--confidence", "50",
                     "--config", str(bad)]) == 2

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": 3, "seed": 1}))
        assert main(["stats", "--config", str(cfg)]) == 2
        assert "unknown fields ['seeds']" in capsys.readouterr().err

    def test_bad_env_value_type(self, monkeypatch, capsys):
        monkeypatch.setenv("SIGNPIPE_SEED", "not-a-number")
        assert main(["compose", "--gloss", "cloud", "--confidence", "90"]) == 2

    def test_an_env_value_is_checked_by_a_command_that_does_not_read_it(
            self, monkeypatch, capsys):
        # stats takes --seed but draws no random number
        monkeypatch.setenv("SIGNPIPE_SEED", "abc")
        assert main(["stats"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: bad value 'abc' for setting 'seed'\n"

    def test_port_flag_beats_env_beats_file_beats_default(self, tmp_path, monkeypatch,
                                                          caplog):
        def refuse(address, timeout):
            raise ConnectionRefusedError(111, "Connection refused")

        monkeypatch.setattr(socket, "create_connection", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"port": 4003}')

        def dialed(*argv):
            caplog.clear()
            assert main(["robot-sim", "--log", str(tmp_path / "r.log"), *argv]) == 1
            return int(re.search(r"cannot connect to 127\.0\.0\.1:(\d+):",
                                 caplog.text).group(1))

        assert dialed() == DEFAULT_PORT
        assert dialed("--config", str(cfg)) == 4003
        monkeypatch.setenv("SIGNPIPE_PORT", "4002")
        assert dialed("--config", str(cfg)) == 4002
        assert dialed("--config", str(cfg), "--port", "4001") == 4001


class TestCompose:
    def test_deterministic_valid_markup(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["compose", "--gloss", "cloud",
                         "--confidence", "90"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        db = load_descriptors(resources.files("signpipe") / "data"
                              / "descriptors.sample.json")
        script = parse_markup(outs[0].rstrip("\n"), db)
        assert script.segments

    def test_seed_changes_output(self, capsys):
        assert main(["compose", "--gloss", "cloud", "--confidence", "90",
                     "--seed", "1"]) == 0
        a = capsys.readouterr().out
        assert main(["compose", "--gloss", "cloud", "--confidence", "90",
                     "--seed", "2"]) == 0
        b = capsys.readouterr().out
        assert a != b

    def test_custom_descriptors(self, tmp_path, capsys):
        db = descriptor_file(tmp_path / "db.json", [1.0])
        assert main(["compose", "--gloss", "rain", "--confidence", "55",
                     "--descriptors", str(db)]) == 0
        out = capsys.readouterr().out
        assert "rain" in out

    def test_http_backend_requires_url(self):
        code = main(["compose", "--gloss", "x", "--confidence", "50",
                     "--backend", "http"])
        assert code == 2

    def test_http_backend_prints_the_reply(self, monkeypatch, capsys):
        monkeypatch.setenv("SIGNPIPE_API_KEY", "k")
        monkeypatch.setenv("no_proxy", "*")  # the stub is local; no proxy is asked
        with chat_http_stub(chat_reply("Nice one!")) as url:
            code = main(["compose", "--gloss", "cloud", "--confidence", "90",
                         "--backend", "http", "--http-url", url])
        out, err = capsys.readouterr()
        assert code == 0
        assert (out, err) == ("Nice one!\n", "")

    @pytest.mark.parametrize("url", ["foo", "ftp://x"])
    def test_http_backend_url_needs_an_http_scheme(self, monkeypatch, capsys, url):
        monkeypatch.setenv("SIGNPIPE_API_KEY", "k")
        code = main(["compose", "--gloss", "cloud", "--confidence", "90",
                     "--backend", "http", "--http-url", url])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err == f"error: base_url {url!r} is not an http or https URL\n"

    def test_bad_confidence_value(self):
        code = main(["compose", "--gloss", "x", "--confidence", "150"])
        assert code == 1  # validation failure at runtime, not usage

    def test_negative_max_retries_is_a_usage_error(self, capsys):
        code = main(["compose", "--gloss", "cloud", "--confidence", "90",
                     "--max-retries", "-1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err == "error: max_retries must be >= 0, got -1\n"


class TestBench:
    def test_report_shape(self, workdir, capsys):
        code = main(["bench", "--model-config", str(workdir / "model.json"),
                     "--runs", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split("\t")[0] for l in lines] == [
            "p50_ms", "p99_ms", "mean_ms", "runs"]
        assert lines[3] == "runs\t3"
        assert float(lines[0].split("\t")[1]) > 0.0


class TestArgumentErrors:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert main(["stats", "--bogus"]) == 2

    @pytest.mark.parametrize("argv", [
        ["train", "c.csv", "--out", "w.sgnw", "--batch-size", "0"],
        ["preprocess", "c.csv", "out.sgnw", "--target-len", "0"],
        ["bench", "--runs", "0"],
        ["bench", "--runs", "-2"],
        ["bench", "--runs", "two"],
    ])
    def test_count_flags_must_be_positive(self, argv, capsys):
        assert main(argv) == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["train", "c.csv", "--out", "w.sgnw", "--batch-size", "0"],
         "argument --batch-size: expected a positive integer, got '0'"),
        (["train", "c.csv", "--out", "w.sgnw", "--epochs", "-2"],
         "argument --epochs: expected a non-negative integer, got '-2'"),
        (["train", "c.csv", "--out", "w.sgnw", "--val-split", "1"],
         "argument --val-split: expected a number in [0, 1), got '1'"),
        (["train", "c.csv", "--out", "w.sgnw", "--lr", "nan"],
         "argument --lr: expected a finite number >= 0, got 'nan'"),
        (["bench", "--runs", "two"],
         "argument --runs: expected a positive integer, got 'two'"),
        (["bench", "--runs", "100000000000000000000000"],
         "argument --runs: expected at most 1000000, got '100000000000000000000000'"),
        (["preprocess", "c.csv", "o.sgnw", "--target-len", "100000000000"],
         "argument --target-len: expected at most 10000, got '100000000000'"),
    ], ids=["batch-size", "epochs", "val-split", "lr", "runs", "runs-over-limit",
            "target-len-over-limit"])
    def test_number_flag_error_text(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f": error: {message}\n")

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--epochs", "-2"]),
        ("preprocess", ["--augment", "--mask-prob", "2"]),
        ("preprocess", ["--augment", "--resample-range", "2", "1"]),
        ("preprocess", ["--augment", "--rotate-range", "inf", "inf"]),
        ("preprocess", ["--augment", "--scale-range", "nan", "nan"]),
        ("preprocess", ["--augment", "--resample-range", "1e308", "1e308"]),
        ("preprocess", ["--augment", "--resample-range", "1e9", "1e9"]),
        ("train", ["--lr", "nan"]),
        ("train", ["--lr", "-0.1"]),
        ("train", ["--lr", "inf"]),
        ("train", ["--lr", "fast"]),
    ], ids=["epochs", "mask-prob", "resample-range", "rotate-inf", "scale-nan",
            "resample-huge", "resample-1e9", "lr-nan", "lr-negative", "lr-inf", "lr-text"])
    def test_out_of_range_flags_are_usage_errors(self, workdir, tmp_path, capsys,
                                                  command, flags):
        out_file = tmp_path / "w.sgnw"
        target = ["--out", str(out_file)] if command == "train" else [str(out_file)]
        assert main([command, str(workdir / "train.csv"), *target, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: " in err
        assert not out_file.exists()

    def test_serve_rejects_a_non_http_backend_url(self, workdir, monkeypatch, capsys):
        def never_serve(cfg):
            raise AssertionError("serve started with a bad backend URL")

        monkeypatch.setattr("signpipe.cli.serve", never_serve)
        monkeypatch.setenv("SIGNPIPE_API_KEY", "k")
        code = main(["serve", "--weights", str(workdir / "model.sgnw"), "--port", "0",
                     "--backend", "http", "--http-url", "foo"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err == "error: base_url 'foo' is not an http or https URL\n"

    @pytest.mark.parametrize("wpm", ["1e-307", "inf", "nan", "0", "config:1e-307"])
    def test_serve_rejects_a_rate_without_finite_timings(self, workdir, tmp_path,
                                                        monkeypatch, capsys, wpm):
        def never_bind(server):
            raise AssertionError("serve bound with a bad speech rate")

        monkeypatch.setattr("socketserver.TCPServer.server_bind", never_bind)
        rate = ["--wpm", wpm]
        if wpm.startswith("config:"):
            config = tmp_path / "cfg.json"
            config.write_text('{"wpm": %s}' % wpm.removeprefix("config:"))
            rate = ["--config", str(config)]
        code = main(["serve", "--weights", str(workdir / "model.sgnw"),
                     "--port", "0", *rate])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err.startswith("error: ") and "wpm" in err

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("command", ["bench", "train", "preprocess", "infer"])
    def test_negative_seed_is_a_usage_error(self, workdir, tmp_path, monkeypatch,
                                            capsys, command, source):
        out_file = tmp_path / "o.sgnw"
        argv = {
            "bench": ["bench", "--model-config", str(workdir / "model.json"),
                      "--runs", "1"],
            "train": ["train", str(workdir / "train.csv"), "--out", str(out_file),
                      "--model-config", str(workdir / "model.json"), "--epochs", "1"],
            "preprocess": ["preprocess", str(workdir / "train.csv"), str(out_file),
                           "--augment"],
            # infer draws no random number, but every command checks the seed
            "infer": ["infer", str(workdir / "val.csv"),
                      "--weights", str(workdir / "model.sgnw")],
        }[command]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("SIGNPIPE_SEED", "-1")
        else:
            config = tmp_path / "cfg.json"
            config.write_text('{"seed": -1}')
            argv += ["--config", str(config)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must not be negative, got -1\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("flags", [["--deadline", "-1"], ["--max-retries", "-1"],
                                       ["--port", "70000"]],
                             ids=["deadline", "max-retries", "port"])
    def test_serve_checks_its_settings_before_bind(self, workdir, monkeypatch,
                                                   capsys, flags):
        def never_bind(server):
            raise AssertionError("serve bound with a bad setting")

        monkeypatch.setattr("socketserver.TCPServer.server_bind", never_bind)
        code = main(["serve", "--weights", str(workdir / "model.sgnw"), *flags])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_keyboard_interrupt_exit_code(self, monkeypatch):
        def boom(db):
            raise KeyboardInterrupt

        monkeypatch.setattr("signpipe.cli.playtime_stats", boom)
        assert main(["stats"]) == 130


class TestNonUtf8Files:
    """A file that is not UTF-8 is a one-line error (exit 1), not a
    traceback, from every loader that reads text."""

    BAD = b"\xff\xfe{}"

    @pytest.mark.parametrize("command", ["infer", "stats", "compose",
                                         "preprocess"])
    def test_one_line_error(self, workdir, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.write_bytes(self.BAD)
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "step1.txt").write_bytes(self.BAD)
        (templates / "step2.txt").write_text("{descriptors} {dialogue}")
        argv = {
            "infer": ["infer", str(workdir / "val.csv"),
                      "--weights", str(workdir / "model.sgnw"),
                      "--spec", str(bad)],
            "stats": ["stats", "--descriptors", str(bad)],
            "compose": ["compose", "--gloss", "wave", "--confidence", "90",
                        "--templates", str(templates)],
            "preprocess": ["preprocess", str(bad), str(tmp_path / "out.sgnt")],
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "error: " in err and "UTF-8" in err
        assert "Traceback" not in err


class TestOsErrors:
    """A path the OS will not open, read or write, or a port it will not
    bind, is one `error:` line (the OS's message) and exit 2."""

    @pytest.mark.parametrize("case", ["preprocess-out", "train-out", "train-sidecar",
                                      "robot-log", "templates-missing",
                                      "templates-no-step2", "weights-dir"])
    def test_one_error_line(self, workdir, tmp_path, capsys, case):
        missing = tmp_path / "missing"
        templates = tmp_path / "templates"
        templates.mkdir()
        sidecar = tmp_path / "d" / "w.sgnw.json"
        sidecar.mkdir(parents=True)
        (templates / "step1.txt").write_text("{gloss} {confidence}")
        compose = ["compose", "--gloss", "wave", "--confidence", "90", "--templates"]
        argv, path = {
            "preprocess-out": (["preprocess", str(workdir / "train.csv"),
                                str(missing / "o.sgnw")], missing / "o.sgnw"),
            "train-out": (["train", str(workdir / "train.csv"),
                           "--out", str(missing / "w.sgnw"), "--epochs", "0",
                           "--model-config", str(workdir / "model.json")],
                          missing / "w.sgnw"),
            "train-sidecar": (["train", str(workdir / "train.csv"),
                               "--out", str(tmp_path / "d" / "w.sgnw"), "--epochs", "0",
                               "--model-config", str(workdir / "model.json")],
                              sidecar),
            "robot-log": (["robot-sim", "--log", str(missing / "r.log")],
                          missing / "r.log"),
            "templates-missing": ([*compose, str(missing)], missing / "step1.txt"),
            "templates-no-step2": ([*compose, str(templates)], templates / "step2.txt"),
            "weights-dir": (["infer", str(workdir / "val.csv"),
                             "--weights", str(tmp_path)], tmp_path),
        }[case]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        # train opens its weights file and sidecar before the first epoch, so
        # it fails before it prints the CSV header.
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: [Errno ")
        assert str(path) in err
        assert not list(tmp_path.rglob("*.tmp")) and not (sidecar.parent / "w.sgnw").exists()

    def test_preprocess_opens_its_output_before_any_sample(self, workdir, tmp_path,
                                                           monkeypatch):
        def never(*args):
            raise AssertionError("preprocessed with no output to write to")

        monkeypatch.setattr("signpipe.cli.preprocess_pipeline", never)
        assert main(["preprocess", str(workdir / "train.csv"),
                     str(tmp_path / "missing" / "o.sgnw")]) == 2

    def test_busy_port(self, workdir, monkeypatch, capsys):
        def busy(cfg):
            raise OSError(98, "Address already in use")

        monkeypatch.setattr("signpipe.cli.serve", busy)
        code = main(["serve", "--weights", str(workdir / "model.sgnw"), "--port", "0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err == "error: [Errno 98] Address already in use\n"


class TestMalformedInputs:
    """A wrongly typed field or an out-of-range client setting is one
    `error:` line and exit 1, before any output."""

    @pytest.mark.parametrize("case", ["descriptors", "model-config",
                                      "robot-timeout", "robot-timeout-inf",
                                      "robot-timeout-1e10", "robot-port",
                                      "descriptors-inf"])
    def test_one_error_line(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        log = tmp_path / "robot.log"
        content, argv = {
            "descriptors": (
                '[{"tag": "A", "description": "d", "playtime_s": "abc",'
                ' "body_parts": ["Neck"]}]',
                ["stats", "--descriptors", str(bad)]),
            "model-config": (json.dumps(dict(SMALL_MODEL, input_dim="176")),
                             ["bench", "--model-config", str(bad), "--runs", "1"]),
            "robot-timeout": ("", ["robot-sim", "--log", str(log), "--timeout", "-1"]),
            "robot-timeout-inf": ("", ["robot-sim", "--log", str(log), "--timeout", "inf"]),
            "robot-timeout-1e10": ("", ["robot-sim", "--log", str(log), "--timeout", "1e10"]),
            "robot-port": ("", ["robot-sim", "--log", str(log), "--port", "70000"]),
            "descriptors-inf": (
                '[{"tag": "A", "description": "d", "playtime_s": 1e400,'
                ' "body_parts": ["Neck"]}]',
                ["stats", "--descriptors", str(bad)]),
        }[case]
        bad.write_text(content)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not log.exists()


class TestRobotSimCommand:
    def test_against_running_server(self, workdir, tmp_path, capsys):
        from signpipe.dialogue import MockLlmBackend, PromptTemplate
        from signpipe.gesture import load_descriptors
        from signpipe.netpipe import ServerConfig
        from signpipe.preprocess import SelectionSpec
        from importlib import resources

        db = load_descriptors(
            str(resources.files("signpipe.data") / "descriptors.sample.json"))
        cfg = ServerConfig(
            weights=nn.load_weights(workdir / "model.sgnw"),
            model_config=nn.ModelConfig.load(str(workdir / "model.sgnw") + ".json"),
            selection=SelectionSpec(),
            db=db,
            template=PromptTemplate.default(),
            backend_factory=lambda: MockLlmBackend(0),
            labels=LabelMap(("circle", "wave", "push")),
            port=0,
        )
        log = tmp_path / "robot.log"
        with serve(cfg) as handle:
            code = main([
                "robot-sim", str(workdir / "val.csv"),
                "--log", str(log),
                "--host", handle.address[0],
                "--port", str(handle.address[1]),
            ])
        assert code == 0
        text = log.read_text(encoding="utf-8")
        assert text.count("SAMPLE ") == 6
        assert text.count("RESULT ") == 6

    def test_unreachable_server(self, workdir, tmp_path):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        code = main([
            "robot-sim", str(workdir / "val.csv"),
            "--log", str(tmp_path / "r.log"),
            "--port", str(port), "--timeout", "2",
        ])
        assert code == 1


def start_serve_command(workdir):
    """A `signpipe serve` process on an ephemeral port, and its address."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "signpipe", "serve",
         "--weights", str(workdir / "model.sgnw"),
         "--labels", str(workdir / "labels.json"),
         "--port", "0"],
        stderr=subprocess.PIPE,
        text=True,
    )
    address = {}

    def find_address():
        for _ in range(20):
            line = proc.stderr.readline()
            if not line:
                return
            if "listening on " in line:
                host, port = line.rsplit(" ", 1)[1].strip().split(":")
                address["value"] = (host, int(port))
                return

    reader = threading.Thread(target=find_address, daemon=True)
    reader.start()
    reader.join(timeout=30)
    return proc, address.get("value")


class TestServeCommand:
    def test_serves_until_terminated(self, workdir, tmp_path):
        proc, address = start_serve_command(workdir)
        try:
            assert address, "server never reported its address"
            log = tmp_path / "robot.log"
            samples = make_synthetic_samples(3, 1, seed=2)[:1]
            assert robot_sim(address, samples, log) == 0
            assert "RESULT " in log.read_text(encoding="utf-8")
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stderr.close()

    def test_sigterm_closes_the_server_and_ends_an_idle_connection(self, workdir):
        proc, address = start_serve_command(workdir)
        try:
            assert address, "server never reported its address"
            with socket.create_connection(address, timeout=10.0) as sock:
                link = MessageSocket(sock)
                link.send(hello_message())
                assert link.recv() == hello_message()
                proc.terminate()
                assert proc.wait(timeout=3) == 0
                assert link.recv() is None  # EOF: the idle connection's child is gone
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stderr.close()


# -- the one settings pass --------------------------------------------------

# Where a module may read the environment: the settings pass and the config
# file it loads, the --http-url fallback, and the HTTP backend's key, which
# is read at call time.
ENV_READERS = {("cli.py", "_load_config_file"), ("cli.py", "_resolve_settings"),
               ("cli.py", "_resolve_backend_factory"),
               ("dialogue.py", "HttpLlmBackend.complete")}


def env_reads(source: str, module: str) -> list[str]:
    """`module:line` of each use of os.environ or os.getenv in source, or an
    import of either from os, outside the functions ENV_READERS names. A
    function is named by its outermost def, with any enclosing classes."""
    sites = []

    def visit(node, scope, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if function is None and not isinstance(node, ast.ClassDef):
                function = scope
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
        else:
            names = set()
        if names & {"environ", "getenv"} and (module, function) not in ENV_READERS:
            sites.append(f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(ast.parse(source), "", None)
    return sites


def test_the_guard_finds_each_kind_of_env_read():
    source = """
import os
from os import environ
def f():
    os.environ.get("A"); os.environ["B"]; os.getenv("C"); "D" in os.environ
class HttpLlmBackend:
    def complete(self):
        os.getenv("E")
def _resolve_settings(args):
    def inner():
        return os.environ.get("F")
    os.getenv("G")
"""
    assert env_reads(source, "m.py") == (
        ["m.py:3"] + ["m.py:5"] * 4 + ["m.py:8", "m.py:11", "m.py:12"])
    assert env_reads(source, "dialogue.py") == ["dialogue.py:3"] + ["dialogue.py:5"] * 4 + [
        "dialogue.py:11", "dialogue.py:12"]
    assert env_reads(source, "cli.py") == ["cli.py:3"] + ["cli.py:5"] * 4 + ["cli.py:8"]


def test_only_the_settings_pass_reads_the_environment():
    root = Path(signpipe.__file__).parent
    sites = [site for path in sorted(root.rglob("*.py"))
             for site in env_reads(path.read_text(encoding="utf-8"),
                                   path.relative_to(root).as_posix())]
    assert sites == []
