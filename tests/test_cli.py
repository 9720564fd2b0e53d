"""Command-line interface tests: exit codes, artifacts, determinism, seeding."""

import ctypes
import ctypes.util
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hqloc
import hqloc.cli as cli

from hqloc.cli import main
from hqloc.data import (
    RssiSample,
    fit_scaler,
    gen_scenario_standin,
    gen_synthetic,
    load_table,
    save_csv,
    scenario_meta,
    transform_samples,
)
from hqloc.classical import glorot_net
from hqloc.model_io import load_model, save_model
from hqloc.qlayer import QuantumLayer
from hqloc.train_eval import (
    HybridModel,
    evaluate_rmse,
    hqnn_forward_batch,
    init_hybrid_model,
)


def make_csv(path, n=20, seed=0, sigma=1.0):
    meta = scenario_meta("Sc-1", "WiFi")
    samples = gen_synthetic(meta, sigma=sigma, rng_seed=seed, n_points=n)
    save_csv(samples, path, header=False)
    return path


def printed_test_rmse(stdout):
    (line,) = [line for line in stdout.splitlines() if line.startswith("test RMSE:")]
    return line


@pytest.fixture()
def train_csv(tmp_path):
    return make_csv(tmp_path / "train.csv", n=20, seed=1)


@pytest.fixture()
def test_csv(tmp_path):
    return make_csv(tmp_path / "test.csv", n=8, seed=2)


class TestExitCodes:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_unknown_flag(self):
        # argparse exits with 2; main converts that into a return code.
        assert main(["train", "--data", "x.csv", "--bogus"]) == 2

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n", encoding="utf-8")
        code = main(["train", "--data", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "expected 5 fields" in capsys.readouterr().err

    def test_empty_csv_is_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code = main(["train", "--data", str(empty), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "no samples" in capsys.readouterr().err

    def test_readings_that_average_beyond_float64_are_one_line_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text("1e308,0,0,1,2\n1e308,0,0,1,2\n-50,-60,-70,3,4\n", encoding="utf-8")
        code = main(["train", "--data", str(huge), "--aggregate-positions",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {huge}: the RSSI readings at position (1.0, 2.0) average beyond the "
            "float64 range"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--epochs", "3"], ["compare", "--epochs", "2", "--seeds", "1"],
    ], ids=["train", "compare"])
    def test_a_feature_span_beyond_float64_is_one_line_error(self, tmp_path, capsys, command):
        # Finite readings 6e307 dB apart: hi - lo overflows. A numpy warning fails the test.
        wide = tmp_path / "wide.csv"
        assert main(["gen-synthetic", "--room", "6x5", "--n", "20", "--sigma", "6e307",
                     "--pl0", "0", "--seed", "1", "--out", str(wide)]) == 0
        capsys.readouterr()
        inputs = ["--data", str(wide)] if command[0] == "train" else [
            "--train", str(wide), "--test", str(wide)]
        code = main([*command, *inputs, "--has-header", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: feature column(s) [2] span beyond the float64 range: cannot scale"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, reason", [
        (b"-50,-60,-70,1,2\n-50,-6\xff0,-70,1,2\n", "byte 0xff"),
        (b"-50,-60,-70,1,2\n" + b"1" * 200_000 + b",1,1,1,1\n", "field larger"),
    ], ids=["invalid_utf8", "oversized_field"])
    def test_undecodable_csv_is_one_line_error(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code = main(["train", "--data", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: line 2: {reason}")

    def test_a_mapping_byte_that_is_not_utf8_is_one_line_error(self, train_csv, tmp_path, capsys):
        mapping = tmp_path / "map.cfg"
        mapping.write_bytes(b"rssi_a = 0\nrssi_b = 1\nrssi_c = 2 # \xff\nx = 3\ny = 4\n")
        code = main(["train", "--data", str(train_csv), "--mapping", str(mapping),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {mapping}: line 3: byte 0xff is not valid UTF-8"]

    @pytest.mark.parametrize("model", ["classical", "hqnn"])
    def test_divergence_is_one_line_error(self, train_csv, tmp_path, model):
        # A subprocess, so numpy's overflow warnings would reach stderr as they do for users.
        paths = [str(Path(hqloc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "hqloc.cli", "train", "--data", str(train_csv), "--model", model,
             "--optimizer", "sgd", "--lr", "1e6", "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1, proc.stderr
        assert err[0].startswith("error: non-finite training loss at epoch ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_one_line_error(self, train_csv, tmp_path, capsys, lr):
        code = main(["train", "--data", str(train_csv), "--lr", lr, "--epochs", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: learning rate must be finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 14.9 GiB for an array with shape (1000000000, 2)"),
         "error: Unable to allocate 14.9 GiB for an array with shape (1000000000, 2)"),
        (MemoryError(), "error: MemoryError"),
    ])
    def test_running_out_of_memory_is_one_line_error(
        self, train_csv, tmp_path, capsys, monkeypatch, error, line
    ):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.data, "gen_synthetic", refuse)
        monkeypatch.setattr(cli.train_eval, "train", refuse)
        runs = [
            ["gen-synthetic", "--room", "6x5", "--n", "1000000000",
             "--out", str(tmp_path / "big.csv")],
            ["train", "--data", str(train_csv), "--epochs", "1000000000",
             "--out-dir", str(tmp_path / "out")],
        ]
        for argv in runs:
            assert main(argv) == 1
            assert capsys.readouterr().err == line + "\n"
        assert not (tmp_path / "big.csv").exists()


class TestGenSynthetic:
    def test_row_count_and_schema(self, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        code = main(["gen-synthetic", "--room", "6x5.5", "--n", "49",
                     "--sigma", "0", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert "49" in capsys.readouterr().out
        table = load_table(out, has_header=True)
        assert len(table) == 49
        assert ((0.0 <= table[:, 3]) & (table[:, 3] <= 6.0)).all()
        assert ((0.0 <= table[:, 4]) & (table[:, 4] <= 5.5)).all()

    def test_same_seed_gives_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen-synthetic", "--room", "6x5.5", "--n", "10", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-synthetic", "--room", "6x5.5", "--n", "10",
                     "--seed", "1", "--out", str(a)]) == 0
        assert main(["gen-synthetic", "--room", "6x5.5", "--n", "10",
                     "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_transmitter_outside_room_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-synthetic", "--room", "6x5.5", "--n", "5",
                     "--tx", "0.5,0.5", "1,1", "9,9",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    def test_custom_transmitters_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["gen-synthetic", "--room", "4x4", "--n", "5",
                     "--tx", "0,0", "4,0", "2,4", "--out", str(out)])
        assert code == 0
        assert len(load_table(out, has_header=True)) == 5

    @pytest.mark.parametrize("room", ["6", "ax5", "6x-2", "0x5"])
    def test_bad_room_rejected(self, room, tmp_path):
        assert main(["gen-synthetic", "--room", room, "--n", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_zero_samples_rejected(self, tmp_path):
        assert main(["gen-synthetic", "--room", "6x5.5", "--n", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--sigma", "nan", "sigma"), ("--pl0", "inf", "pl0"), ("--path-loss-exp", "nan", "n_exp"),
    ])
    def test_non_finite_model_parameter_rejected(self, flag, value, name, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["gen-synthetic", "--room", "6x5.5", "--n", "5", flag, value,
                     "--out", str(out)])
        assert code == 1
        assert f"error: {name} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--room", "1e160x1e160"], "in a 1e+160x1e+160 room"),
        (["--room", "6x5.5", "--path-loss-exp", "1e308"], "n_exp=1e+308"),
    ])
    def test_readings_beyond_float64_are_refused_before_writing(self, flags, named, tmp_path,
                                                                 capsys):
        # The settings are finite, but the readings would be -inf or nan, which
        # hqloc train refuses; gen-synthetic refuses them first and writes nothing.
        out = tmp_path / "x.csv"
        assert main(["gen-synthetic", *flags, "--n", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert named in err and "beyond the float64 range" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--room", "infx5"], ["--room", "nanx5"], ["--room", "6xinf"],
        ["--room", "6x5.5", "--tx", "nan,0.5", "1,1", "2,2"],
        ["--room", "6x5.5", "--tx", "0.5,0.5", "1,inf", "2,2"],
    ])
    def test_non_finite_geometry_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen-synthetic", *flags, "--n", "5", "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, train_csv, capsys):
        out_dir = tmp_path / "run"
        code = main(["train", "--data", str(train_csv), "--epochs", "3",
                     "--seed", "1", "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final train MSE" in out
        assert (out_dir / "loss_trace.csv").exists()
        assert (out_dir / "model.params").exists()
        assert (out_dir / "manifest.json").exists()
        lines = (out_dir / "loss_trace.csv").read_text().splitlines()
        # Header + one pre-update loss per epoch + the final post-update loss.
        assert len(lines) == 1 + 3 + 1
        model, scaler = load_model(out_dir / "model.params")
        assert isinstance(model, HybridModel)
        assert scaler is not None

    def test_classical_model_flag(self, tmp_path, train_csv):
        out_dir = tmp_path / "run"
        code = main(["train", "--data", str(train_csv), "--epochs", "2",
                     "--model", "classical", "--out-dir", str(out_dir)])
        assert code == 0
        model, _ = load_model(out_dir / "model.params")
        assert not isinstance(model, HybridModel)
        assert (out_dir / "model.params").read_text().splitlines()[1] == "kind dense"

    def test_test_split_reports_rmse(self, tmp_path, train_csv, test_csv, capsys):
        code = main(["train", "--data", str(train_csv), "--test", str(test_csv),
                     "--epochs", "2", "--out-dir", str(tmp_path / "run")])
        assert code == 0
        assert "test RMSE:" in capsys.readouterr().out

    @pytest.mark.parametrize("sampling", [[], ["--seed", "5", "--shots-eval", "64"]],
                             ids=["exact", "shots"])
    def test_test_rmse_equals_eval_of_saved_model(
        self, tmp_path, train_csv, test_csv, capsys, sampling
    ):
        # train --test and eval share one evaluation path, shots and seed included.
        run = tmp_path / "run"
        assert main(["train", "--data", str(train_csv), "--test", str(test_csv),
                     "--epochs", "2", "--out-dir", str(run), *sampling]) == 0
        printed = printed_test_rmse(capsys.readouterr().out)
        eval_flags = [flag.replace("--shots-eval", "--shots") for flag in sampling]
        assert main(["eval", "--model-file", str(run / "model.params"), "--data", str(test_csv),
                     "--out-dir", str(tmp_path / "e"), *eval_flags]) == 0
        value = float((tmp_path / "e" / "eval_rmse.csv").read_text().splitlines()[1])
        assert printed == f"test RMSE: {value:.6f} m"
        if sampling:
            assert main(["eval", "--model-file", str(run / "model.params"),
                         "--data", str(test_csv), "--out-dir", str(tmp_path / "x")]) == 0
            exact = float((tmp_path / "x" / "eval_rmse.csv").read_text().splitlines()[1])
            assert exact != value

    def test_shots_eval_on_classical_model_warns(self, tmp_path, train_csv, test_csv, capsys):
        run = tmp_path / "run"
        assert main(["train", "--model", "classical", "--data", str(train_csv),
                     "--test", str(test_csv), "--shots-eval", "8", "--epochs", "2",
                     "--out-dir", str(run)]) == 0
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines() if "no effect" in line] == [
            "warning: --shots-eval has no effect on a classical model"
        ]
        assert main(["eval", "--model-file", str(run / "model.params"), "--data", str(test_csv),
                     "--out-dir", str(tmp_path / "e")]) == 0
        value = float((tmp_path / "e" / "eval_rmse.csv").read_text().splitlines()[1])
        assert printed_test_rmse(captured.out) == f"test RMSE: {value:.6f} m"

    def test_shots_eval_without_test_warns(self, tmp_path, train_csv, capsys):
        runs = {}
        for name, extra in (("plain", []), ("shots", ["--shots-eval", "64"])):
            runs[name] = tmp_path / name
            assert main(["train", "--data", str(train_csv), "--epochs", "2", "--seed", "3",
                         "--out-dir", str(runs[name]), *extra]) == 0
            runs[name + "_err"] = capsys.readouterr().err
        assert runs["plain_err"] == ""
        assert runs["shots_err"].splitlines() == [
            "warning: --shots-eval has no effect without --test"
        ]
        for artifact in ("model.params", "loss_trace.csv"):
            assert (runs["plain"] / artifact).read_bytes() == (runs["shots"] / artifact).read_bytes()
        doc = json.loads((runs["shots"] / "manifest.json").read_text())
        assert doc["config"]["shots_eval"] == 64  # the manifest still records the flag

    def test_zero_lr_warns(self, tmp_path, train_csv, capsys):
        code = main(["train", "--data", str(train_csv), "--epochs", "2",
                     "--lr", "0", "--out-dir", str(tmp_path / "run")])
        assert code == 0
        assert "learning rate is 0" in capsys.readouterr().err

    def test_negative_lr_rejected(self, tmp_path, train_csv, capsys):
        code = main(["train", "--data", str(train_csv), "--epochs", "2",
                     "--lr", "-1", "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "learning rate" in capsys.readouterr().err

    def test_manifest_names_inputs_and_outputs(self, tmp_path, train_csv):
        out_dir = tmp_path / "run"
        main(["train", "--data", str(train_csv), "--epochs", "2",
              "--out-dir", str(out_dir)])
        doc = json.loads((out_dir / "manifest.json").read_text())
        assert doc["command"] == "train"
        assert doc["config"]["epochs"] == 2
        assert set(doc["config"]) == {"optimizer", "eta", "epochs", "seed", "model", "shots_eval"}
        assert doc["clamped_features"] == 0  # no --test file, nothing to clamp
        assert "sha256" in doc["inputs"]["data"]
        assert any(p.endswith("model.params") for p in doc["outputs"])
        assert doc["hqloc_version"] == hqloc.__version__
        assert doc["python"] == platform.python_version()
        assert doc["numpy"] == np.__version__

    def test_versions_stay_out_of_the_artifacts(self, tmp_path, train_csv, test_csv):
        out_dir = tmp_path / "run"
        assert main(["train", "--data", str(train_csv), "--epochs", "2",
                     "--out-dir", str(out_dir)]) == 0
        assert main(["eval", "--model-file", str(out_dir / "model.params"),
                     "--data", str(test_csv), "--out-dir", str(tmp_path / "e")]) == 0
        for path in (out_dir / "model.params", out_dir / "loss_trace.csv",
                     tmp_path / "e" / "eval_rmse.csv"):
            text = path.read_text()
            assert "hqloc_version" not in text and np.__version__ not in text

    def test_same_flags_same_model_file(self, tmp_path, train_csv):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["train", "--data", str(train_csv), "--epochs", "2",
                         "--seed", "5", "--out-dir", str(d)]) == 0
        assert (dirs[0] / "model.params").read_bytes() == (dirs[1] / "model.params").read_bytes()
        assert (dirs[0] / "loss_trace.csv").read_bytes() == (dirs[1] / "loss_trace.csv").read_bytes()


class TestEval:
    def run_train(self, tmp_path, train_csv, extra=()):
        out_dir = tmp_path / "trained"
        assert main(["train", "--data", str(train_csv), "--epochs", "2",
                     "--out-dir", str(out_dir), *extra]) == 0
        return out_dir / "model.params"

    def test_round_trip(self, tmp_path, train_csv, test_csv, capsys):
        model_file = self.run_train(tmp_path, train_csv)
        out_dir = tmp_path / "eval"
        code = main(["eval", "--model-file", str(model_file),
                     "--data", str(test_csv), "--out-dir", str(out_dir)])
        assert code == 0
        assert "RMSE:" in capsys.readouterr().out
        value = float((out_dir / "eval_rmse.csv").read_text().splitlines()[1])
        assert value > 0.0

    def test_missing_model_file(self, tmp_path, test_csv, capsys):
        code = main(["eval", "--model-file", str(tmp_path / "absent.params"),
                     "--data", str(test_csv), "--out-dir", str(tmp_path / "e")])
        assert code == 1

    @pytest.mark.parametrize("make, widths", [
        (lambda: glorot_net((3, 8, 3), 0), "3 inputs to 3 outputs"),
        (lambda: glorot_net((4, 8, 2), 0), "4 inputs to 2 outputs"),
        (lambda: HybridModel(QuantumLayer(np.zeros(6)), glorot_net((3, 8, 1), 0)),
         "3 inputs to 1 outputs"),
    ], ids=["dense_3_to_3", "dense_4_to_2", "hybrid_head_3_to_1"])
    def test_a_net_that_cannot_serve_a_fix_fails_before_the_data(
        self, tmp_path, capsys, make, widths
    ):
        # The data file does not exist: the model is refused before it is read.
        model_file = tmp_path / "model.params"
        save_model(model_file, make())
        code = main(["eval", "--model-file", str(model_file),
                     "--data", str(tmp_path / "absent.csv"), "--out-dir", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {model_file}: the network maps {widths}; "
                       "a fix needs 3 in and (x, y) out"]
        assert not (tmp_path / "e").exists()

    def test_an_unknown_activation_is_a_format_error_naming_the_file(
        self, tmp_path, test_csv, capsys
    ):
        model_file = tmp_path / "model.params"
        save_model(model_file, init_hybrid_model(1))
        text = model_file.read_text()
        model_file.write_text(text.replace("activations relu,linear", "activations tanh,linear"))
        code = main(["eval", "--model-file", str(model_file), "--data", str(test_csv),
                     "--out-dir", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {model_file}: unknown activation 'tanh'"]

    def test_a_byte_that_is_not_utf8_is_a_format_error_naming_the_file(
        self, tmp_path, test_csv, capsys
    ):
        model_file = tmp_path / "model.params"
        save_model(model_file, init_hybrid_model(1))
        lines = model_file.read_bytes().splitlines(keepends=True)
        lines[4] = b"0.\xff\n"  # the first row of phi
        model_file.write_bytes(b"".join(lines))
        code = main(["eval", "--model-file", str(model_file), "--data", str(test_csv),
                     "--out-dir", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {model_file}: line 5: byte 0xff is not valid UTF-8"]

    def test_shots_are_seeded(self, tmp_path, train_csv, test_csv):
        model_file = self.run_train(tmp_path, train_csv)
        outs = []
        for name in ("e1", "e2"):
            out_dir = tmp_path / name
            assert main(["eval", "--model-file", str(model_file),
                         "--data", str(test_csv), "--shots", "128",
                         "--seed", "3", "--out-dir", str(out_dir)]) == 0
            outs.append((out_dir / "eval_rmse.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_a_csv_without_rows_is_one_line_error(self, tmp_path, train_csv, capsys):
        model_file = self.run_train(tmp_path, train_csv)
        header_only = tmp_path / "header.csv"
        header_only.write_text("rssi_a,rssi_b,rssi_c,x,y\n\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["eval", "--model-file", str(model_file), "--data", str(header_only),
                     "--has-header", "--out-dir", str(tmp_path / "e")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {header_only}: no samples found"]
        assert not (tmp_path / "e").exists()

    def test_model_without_scaler_refuses_raw_readings(self, tmp_path, capsys):
        model_file = tmp_path / "model.params"
        save_model(model_file, init_hybrid_model(1))
        _, samples, _ = gen_scenario_standin("Sc-1", "WiFi")
        data_csv = tmp_path / "raw.csv"
        save_csv(samples, data_csv, header=False)
        code = main(["eval", "--model-file", str(model_file), "--data", str(data_csv),
                     "--out-dir", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {model_file}: no stored scaler")
        assert not (tmp_path / "e").exists()

    def test_model_without_scaler_evaluates_scaled_readings(self, tmp_path):
        model = init_hybrid_model(1)
        model_file = tmp_path / "model.params"
        save_model(model_file, model)
        _, samples, _ = gen_scenario_standin("Sc-1", "WiFi")
        X, Z = transform_samples(fit_scaler(samples), samples)
        data_csv = tmp_path / "scaled.csv"
        save_csv([RssiSample(tuple(x), tuple(z)) for x, z in zip(X, Z)], data_csv, header=False)
        out_dir = tmp_path / "e"
        assert main(["eval", "--model-file", str(model_file), "--data", str(data_csv),
                     "--out-dir", str(out_dir)]) == 0
        value = float((out_dir / "eval_rmse.csv").read_text().splitlines()[1])
        assert value == evaluate_rmse(lambda batch: hqnn_forward_batch(model, batch), X, Z)

    def test_clamped_features_are_counted_and_reported(self, tmp_path, train_csv, capsys):
        model_file = self.run_train(tmp_path, train_csv)
        table = load_table(train_csv)
        in_range = tmp_path / "in_range.csv"
        save_csv(table, in_range, header=False)
        table[0, 1] -= 100.0
        out_of_range = tmp_path / "out_of_range.csv"
        save_csv(table, out_of_range, header=False)
        capsys.readouterr()
        # eval's --data and train's --test are counted against the same training range.
        commands = {
            "eval": ["eval", "--model-file", str(model_file), "--data"],
            "train": ["train", "--data", str(train_csv), "--epochs", "2", "--test"],
        }
        for data_csv, count in ((in_range, 0), (out_of_range, 1)):
            for name, command in commands.items():
                out_dir = tmp_path / f"{name}{count}"
                assert main([*command, str(data_csv), "--out-dir", str(out_dir)]) == 0
                doc = json.loads((out_dir / "manifest.json").read_text())
                assert doc["clamped_features"] == count
                warnings = [line for line in capsys.readouterr().err.splitlines()
                            if line.startswith("warning:")]
                assert len(warnings) == count
        assert warnings[0].startswith(f"warning: 1 feature value(s) in {out_of_range} lie outside")

    def test_a_reading_past_float64_of_the_training_range_clamps_without_a_numpy_warning(
        self, tmp_path, capsys
    ):
        # rssi_a trained near -1e308: an rssi_a of 1e308 lies farther from the
        # scaler's lo than float64 holds, so it must be clamped before scaling.
        train_csv = tmp_path / "far.csv"
        train_csv.write_text("".join(f"{-1e308 + i * 1e306!r},{-50 - i},{-60 - i},{i},{i}\n"
                                     for i in range(3)), encoding="utf-8")
        model_file = self.run_train(tmp_path, train_csv)
        data_csv = tmp_path / "far_fix.csv"
        data_csv.write_text("1e308,-51,-61,0.5,0.5\n", encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--model-file", str(model_file), "--data", str(data_csv),
                         "--out-dir", str(tmp_path / "e")])
        assert code == 0 and not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err.startswith(f"warning: 1 feature value(s) in {data_csv}")

    def test_shots_on_classical_model_warn(self, tmp_path, train_csv, test_csv, capsys):
        model_file = self.run_train(tmp_path, train_csv, extra=("--model", "classical"))
        code = main(["eval", "--model-file", str(model_file), "--data", str(test_csv),
                     "--shots", "64", "--out-dir", str(tmp_path / "e")])
        assert code == 0
        assert "no effect" in capsys.readouterr().err


class TestCompare:
    def compare_args(self, train_csv, test_csv, out_dir):
        return ["compare", "--train", str(train_csv), "--test", str(test_csv),
                "--scenario", "sc1", "--technology", "wifi",
                "--seeds", "1", "--epochs", "2", "--shots", "32",
                "--knn-k", "1", "--out-dir", str(out_dir)]

    def test_table_lists_every_method(self, tmp_path, train_csv, test_csv, capsys):
        out_dir = tmp_path / "cmp"
        code = main(self.compare_args(train_csv, test_csv, out_dir))
        assert code == 0
        out = capsys.readouterr().out
        for method in ("classical_nn", "knn", "quantum_fingerprint",
                       "hqnn_exact", "hqnn_shots"):
            assert method in out
        table = (out_dir / "comparison.csv").read_text().splitlines()
        assert table[0] == "scenario,technology,method,seed,rmse_m,note,config_digest"
        assert all(line.startswith("Sc-1,WiFi") for line in table[1:])

    def test_reruns_are_byte_identical(self, tmp_path, train_csv, test_csv):
        tables = []
        for name in ("c1", "c2"):
            out_dir = tmp_path / name
            assert main(self.compare_args(train_csv, test_csv, out_dir)) == 0
            tables.append((out_dir / "comparison.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("lr", ["nan", "-1"])
    def test_invalid_learning_rate_is_one_line_error(
        self, tmp_path, train_csv, test_csv, capsys, lr
    ):
        out_dir = tmp_path / "cmp"
        code = main(self.compare_args(train_csv, test_csv, out_dir) + ["--lr", lr])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: learning rate must be finite")
        assert not (out_dir / "comparison.csv").exists()

    def test_repeated_seed_is_one_line_error(self, tmp_path, train_csv, test_csv, capsys):
        # Two rows for one model would make a "mean" over a single training.
        out_dir = tmp_path / "cmp"
        code = main(self.compare_args(train_csv, test_csv, out_dir) + ["--seeds", "1", "1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seeds must be distinct, got [1, 1]"]
        assert not (out_dir / "comparison.csv").exists()

    def test_clamped_features_are_counted_and_reported(self, tmp_path, train_csv, capsys):
        table = load_table(train_csv)
        table[0, 0] += 100.0
        table[0, 2] -= 100.0
        out_of_range = tmp_path / "out_of_range.csv"
        save_csv(table, out_of_range, header=False)
        capsys.readouterr()
        for test_csv, name, count in ((train_csv, "c0", 0), (out_of_range, "c1", 2)):
            out_dir = tmp_path / name
            assert main(self.compare_args(train_csv, test_csv, out_dir)) == 0
            doc = json.loads((out_dir / "manifest.json").read_text())
            assert doc["clamped_features"] == count
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning:")]
            assert len(warnings) == min(count, 1)
            header = (out_dir / "comparison.csv").read_text().splitlines()[0]
            assert header == "scenario,technology,method,seed,rmse_m,note,config_digest"
        assert warnings[0].startswith(f"warning: 2 feature value(s) in {out_of_range} lie outside")

    def test_unknown_scenario_rejected(self, tmp_path, train_csv, test_csv):
        code = main(["compare", "--train", str(train_csv), "--test", str(test_csv),
                     "--scenario", "Sc-9", "--out-dir", str(tmp_path / "c")])
        assert code == 2


def test_train_compare_and_eval_parse_into_the_table_alone(
    tmp_path, train_csv, test_csv, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("a command built samples")

    monkeypatch.setattr(cli.data, "RssiSample", refuse)
    model = tmp_path / "train" / "model.params"
    assert main(["train", "--data", str(train_csv), "--test", str(test_csv), "--epochs", "2",
                 "--out-dir", str(tmp_path / "train")]) == 0
    assert main(["eval", "--model-file", str(model), "--data", str(test_csv),
                 "--out-dir", str(tmp_path / "eval")]) == 0
    assert main(["compare", "--train", str(train_csv), "--test", str(test_csv), "--seeds", "1",
                 "--epochs", "2", "--shots", "64", "--out-dir", str(tmp_path / "cmp")]) == 0
    assert "error" not in capsys.readouterr().err


def numpy_simd():
    """numpy's SIMD baseline and the dispatch targets this CPU runs, as np.show_runtime() has them."""
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    return {"baseline": list(__cpu_baseline__),
            "found": [t for t in __cpu_dispatch__ if __cpu_features__[t]]}


class TestManifestRuntime:
    """train, eval and compare manifests record numpy's SIMD targets and OpenBLAS's core."""

    def run_all(self, tmp_path, train_csv, test_csv):
        """Manifests and output bytes of one train, eval and compare run, under ``tmp_path``."""
        tr, ev, cmp = tmp_path / "tr", tmp_path / "ev", tmp_path / "cmp"
        assert main(["train", "--data", str(train_csv), "--epochs", "3", "--out-dir", str(tr)]) == 0
        assert main(["eval", "--model-file", str(tr / "model.params"), "--data", str(test_csv),
                     "--out-dir", str(ev)]) == 0
        assert main(TestCompare().compare_args(train_csv, test_csv, cmp)) == 0
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (tr, ev, cmp)]
        outputs = [p.read_bytes() for p in (tr / "model.params", tr / "loss_trace.csv",
                                            ev / "eval_rmse.csv", cmp / "comparison.csv")]
        return manifests, outputs

    def test_every_manifest_records_the_simd_targets_and_the_blas_core(
        self, tmp_path, train_csv, test_csv
    ):
        manifests, _ = self.run_all(tmp_path, train_csv, test_csv)
        core = manifests[0]["openblas_core"]
        assert core is None or (isinstance(core, str) and core)
        for doc in manifests:
            assert doc["numpy_simd"] == numpy_simd()
            assert doc["openblas_core"] == core

    def test_the_fields_are_records_only(self, tmp_path, train_csv, test_csv, monkeypatch):
        # Outputs are the same bytes whatever the manifest says the machine ran.
        _, outputs = self.run_all(tmp_path / "a", train_csv, test_csv)
        other = {"numpy_simd": {"baseline": [], "found": []}, "openblas_core": "Sandybridge"}
        monkeypatch.setattr(cli, "_runtime", lambda: other)
        manifests, again = self.run_all(tmp_path / "b", train_csv, test_csv)
        assert again == outputs
        assert all(doc["openblas_core"] == "Sandybridge" for doc in manifests)

    def test_the_runtime_is_read_once_per_process(self, tmp_path, train_csv, monkeypatch):
        loads = []
        real = ctypes.CDLL

        def counting(*args, **kwargs):
            loads.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", counting)
        cli._runtime.cache_clear()
        for name in ("a", "b"):
            assert main(["train", "--data", str(train_csv), "--epochs", "1",
                         "--out-dir", str(tmp_path / name)]) == 0
        assert len(loads) <= 1
        assert cli._runtime() is cli._runtime()

    def test_the_blas_core_is_null_without_the_library_or_its_symbol(self, tmp_path):
        assert cli._openblas_core([]) is None
        assert cli._openblas_core([tmp_path / "libscipy_openblas64_.so"]) is None
        assert cli._openblas_core([ctypes.util.find_library("c")]) is None

    def test_a_child_process_records_what_its_environment_selects(self):
        if cli._runtime()["openblas_core"] is None:
            pytest.skip("numpy carries no bundled OpenBLAS here")
        src = str(Path(hqloc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        env["OPENBLAS_CORETYPE"] = "Sandybridge"
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(numpy_simd()["found"])
        proc = subprocess.run(
            [sys.executable, "-c", "import json, hqloc.cli as c; print(json.dumps(c._runtime()))"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        assert child["openblas_core"] == "Sandybridge"
        assert child["numpy_simd"] == {"baseline": numpy_simd()["baseline"], "found": []}


class TestOutOfRangeFlags:
    """Shot budgets and seeds numpy cannot hold in int64 fail as one error line."""

    @pytest.fixture()
    def survey(self, tmp_path):
        paths = {}
        for name, seed in (("train", "1"), ("test", "2")):
            paths[name] = tmp_path / f"{name}.csv"
            assert main(["gen-synthetic", "--room", "6x5.5", "--n", "60", "--seed", seed,
                         "--out", str(paths[name])]) == 0
        assert main(["train", "--data", str(paths["train"]), "--has-header", "--epochs", "2",
                     "--out-dir", str(tmp_path / "run")]) == 0
        paths["model"] = tmp_path / "run" / "model.params"
        return paths

    @pytest.mark.parametrize("probe", [
        ["eval", "--shots", "100000000000000000000"],
        ["eval", "--shots", "10", "--seed", "9223372036854775808"],
        ["train", "--shots-eval", "100000000000000000000"],
        ["compare", "--shots", "100000000000000000000"],
    ], ids=["eval_shots", "eval_seed", "train_shots_eval", "compare_shots"])
    def test_one_error_line(self, survey, tmp_path, capsys, probe):
        command, *flags = probe
        out_dir = tmp_path / "out"
        inputs = {
            "eval": ["--model-file", str(survey["model"]), "--data", str(survey["test"])],
            "train": ["--data", str(survey["train"]), "--test", str(survey["test"]),
                      "--epochs", "2"],
            "compare": ["--train", str(survey["train"]), "--test", str(survey["test"]),
                        "--seeds", "1", "--epochs", "2", "--knn-k", "1"],
        }[command]
        capsys.readouterr()
        code = main([command, *inputs, "--has-header", *flags, "--out-dir", str(out_dir)])
        assert code in (1, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert not (out_dir / "comparison.csv").exists()
        assert not out_dir.exists()

    @pytest.mark.parametrize("probe", [
        ["gen-synthetic", "--room", "6x5.5", "--n", "5", "--seed", "-1"],
        ["train", "--seed", "-1"],
        ["eval", "--seed", "-1"],
        ["eval", "--shots", "10", "--seed", "-1"],
        ["compare", "--seeds", "2", "-1"],
    ], ids=["gen_synthetic", "train", "eval", "eval_shots", "compare"])
    def test_negative_seed_is_usage_error(self, survey, tmp_path, capsys, probe):
        command, *flags = probe
        out_dir = tmp_path / "out"
        inputs = {
            "gen-synthetic": ["--out", str(out_dir)],
            "eval": ["--model-file", str(survey["model"]), "--data", str(survey["test"]),
                     "--has-header", "--out-dir", str(out_dir)],
            "train": ["--data", str(survey["train"]), "--has-header", "--epochs", "2",
                      "--out-dir", str(out_dir)],
            "compare": ["--train", str(survey["train"]), "--test", str(survey["test"]),
                        "--has-header", "--epochs", "2", "--knn-k", "1", "--out-dir", str(out_dir)],
        }[command]
        capsys.readouterr()
        assert main([command, *inputs, *flags]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "seed must be an integer in [0, 2**63 - 1]" in errors[0]
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", ["9223372036854775807", "0"])
    def test_int64_seed_limits_accepted(self, survey, tmp_path, seed):
        assert main(["eval", "--model-file", str(survey["model"]), "--data",
                     str(survey["test"]), "--has-header", "--shots", "10", "--seed", seed,
                     "--out-dir", str(tmp_path / "e")]) == 0


class TestEnvSeed:
    def test_env_seed_matches_explicit_flag(self, tmp_path, train_csv, monkeypatch):
        flag_dir = tmp_path / "flag"
        assert main(["train", "--data", str(train_csv), "--epochs", "2",
                     "--seed", "9", "--out-dir", str(flag_dir)]) == 0
        monkeypatch.setenv("HQLOC_SEED", "9")
        env_dir = tmp_path / "env"
        assert main(["train", "--data", str(train_csv), "--epochs", "2",
                     "--out-dir", str(env_dir)]) == 0
        assert (flag_dir / "model.params").read_bytes() == (env_dir / "model.params").read_bytes()

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HQLOC_SEED", "3")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-synthetic", "--room", "6x5.5", "--n", "5",
                     "--seed", "4", "--out", str(a)]) == 0
        monkeypatch.delenv("HQLOC_SEED")
        assert main(["gen-synthetic", "--room", "6x5.5", "--n", "5",
                     "--seed", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HQLOC_SEED", "not-a-number")
        code = main(["gen-synthetic", "--room", "6x5.5", "--n", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "HQLOC_SEED" in capsys.readouterr().err

    def test_env_seed_outside_int64_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HQLOC_SEED", "9223372036854775808")
        code = main(["gen-synthetic", "--room", "6x5.5", "--n", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "HQLOC_SEED" in capsys.readouterr().err

    def test_negative_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HQLOC_SEED", "-1")
        code = main(["gen-synthetic", "--room", "6x5.5", "--n", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: HQLOC_SEED must be an integer in [0, 2**63 - 1], got '-1'\n"
        )
        assert not (tmp_path / "x.csv").exists()
