import argparse
import json
import os
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from icmixer.cli import build_parser, main, parse_synthetic_spec
from icmixer.data import load_csv
from icmixer.encoder import EncoderConfig, ForecastEncoder, load_checkpoint, save_checkpoint
from icmixer.training import TrainConfig


COMMON = ["--lookback", "32", "--horizons", "8", "--epochs", "1",
          "--n-blocks", "1", "--d-model", "16", "--n-heads", "2", "--d-ff", "32",
          "--batch-size", "16", "--learning-rate", "1e-3",
          "--train-stride", "4", "--precision", "f64"]
SYNTH = ["--synthetic", "lagged:m=2,lag=4,noise=0.1,T=700,seed=0"]


def edit_header(raw: bytes, edit) -> bytes:
    """The checkpoint ``raw`` with ``edit`` applied in place to its parsed header."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    edit(header)
    new_header = json.dumps(header).encode()
    return raw[:4] + struct.pack("<I", len(new_header)) + new_header + raw[8 + hlen:]


def drop_first_parameter(raw: bytes) -> bytes:
    """A checkpoint whose header no longer lists its first parameter."""
    return edit_header(raw, lambda header: header["params"].pop(0))


def nan_first_weight(raw: bytes) -> bytes:
    """A checkpoint whose first weight (embed.w, f64, at the body's start) is NaN."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    return raw[:8 + hlen] + struct.pack("<d", float("nan")) + raw[16 + hlen:]


def tiny_checkpoint(path):
    cfg = EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ff=32, lookback=32, horizons=(8,))
    save_checkpoint(ForecastEncoder(cfg), path)
    return path


class TestParseSyntheticSpec:
    def test_defaults_and_overrides(self):
        series = parse_synthetic_spec("lagged:m=3,lag=8,noise=0.2,T=500")
        assert series.n_channels == 3
        assert len(series) == 500

    def test_unknown_kind_rejected(self, capsys):
        assert main(["synth", "--spec", "walk:m=2", "--path", "/tmp/x.csv"]) == 2
        assert "unknown synthetic kind" in capsys.readouterr().err

    def test_unknown_parameter_rejected(self):
        with pytest.raises(Exception):
            parse_synthetic_spec("lagged:bogus=3")

    @pytest.mark.parametrize("spec, message", [
        ("lagged:m=x", "'m': 'x' is not a valid int"),
        ("lagged:m", "'m': '' is not a valid int"),
        ("lagged:T=1.5", "'T': '1.5' is not a valid int"),
        ("lagged:noise=abc", "'noise': 'abc' is not a valid float"),
        ("lagged:lag=-3", "lag must be an integer >= 0, got -3"),
        ("lagged:noise=-1", "noise_std must be finite and >= 0, got -1.0"),
        ("lagged:noise=nan", "noise_std must be finite and >= 0, got nan"),
        ("lagged:seed=-1", "seed must be an integer >= 0, got -1"),
    ])
    def test_malformed_spec_is_config_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "x.csv"
        assert main(["synth", "--spec", spec, "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not path.exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_memory_error_is_one_error_line_with_exit_1(self, tmp_path, capsys, monkeypatch,
                                                        command):
        """A series numpy can index but the host cannot hold fails to allocate. The
        generator is stubbed, so the host is asked for no memory."""
        def out_of_memory(**kwargs):
            raise MemoryError(f"Unable to allocate an array of {kwargs['T']} rows")

        monkeypatch.setattr("icmixer.cli.generate_lagged_copy", out_of_memory)
        spec = "lagged:T=1000000000000"
        argv = (["synth", "--spec", spec, "--path", str(tmp_path / "x.csv")]
                if command == "synth" else ["train", "--synthetic", spec, *COMMON,
                                            "--out", str(tmp_path)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate an array of 1000000000000 rows\n", err


class TestTrainCommand:
    def test_train_on_synthetic_writes_outputs(self, tmp_path):
        rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON,
                   "--out", str(tmp_path), "--name", "run1"])
        assert rc == 0
        run = tmp_path / "run1"
        assert (run / "config.json").exists()
        assert (run / "checkpoint_h8.icm").exists()
        assert (run / "summary.txt").exists()
        records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
        assert any("val_mse" in r for r in records)

    def test_bogus_mixer_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mixer", "bogus", *SYNTH])
        assert exc.value.code != 0

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["train", "--mixer", "icm", "--data", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_non_finite_csv_cell_is_parse_error(self, tmp_path, capsys):
        csv_path = tmp_path / "synth.csv"
        assert main(["synth", "--spec", "lagged:m=2,lag=4,noise=0.1,T=700",
                     "--path", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        lines[10] = lines[10].split(",")[0] + ",1.0,nan"
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["train", "--mixer", "icm", "--data", str(csv_path), *COMMON,
                   "--out", str(tmp_path), "--name", "nan"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_channel_too_large_to_standardize_is_one_error_line(self, tmp_path, capsys):
        rc = main(["train", "--mixer", "icm", "--synthetic",
                   "lagged:m=2,lag=4,noise=1e155,T=700", *COMMON, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and err.count("\n") == 1, err
        assert err.startswith("error: lagged(m=2,lag=4,noise=1e+155): channel 1 ('copy_lag4') ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_error_line_with_exit_3(self, tmp_path, capsys):
        rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON, "--learning-rate", "1e100",
                   "--out", str(tmp_path), "--name", "diverge"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite training loss")
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra,diagnosis", [
        (["--precision", "f32"], "training loss at epoch 0, batch offset 16, block offset 16 "
                                 "(lr=1e+100, horizon=8); first non-finite parameter: embed.w"),
        # Huge but finite f64 weights overflow the loss.
        (["--precision", "f64"], "training loss at epoch 0, batch offset 16, block offset 16 "
                                 "(lr=1e+100, horizon=8); all parameters are finite"),
        # The epoch's only step diverges, so the validation pass meets the weights first.
        (["--precision", "f32", "--batch-size", "512"],
         "validation MSE at epoch 0 (lr=1e+100, horizon=8); first non-finite parameter: embed.w"),
    ], ids=["f32-weights-overflow", "f64-loss-overflows", "validation"])
    def test_divergence_prints_no_numpy_warnings(self, tmp_path, capsys, extra, diagnosis):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON, "--learning-rate", "1e100",
                       *extra, "--out", str(tmp_path), "--name", "diverge"])
        assert rc == 3
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == f"error: non-finite {diagnosis}\n"

    def test_train_idempotent_outputs(self, tmp_path):
        args = ["train", "--mixer", "icm", *SYNTH, *COMMON, "--out", str(tmp_path)]
        main([*args, "--name", "a"])
        main([*args, "--name", "b"])
        assert (tmp_path / "a" / "summary.txt").read_text() == \
            (tmp_path / "b" / "summary.txt").read_text()

    def test_config_file_flag_precedence(self, tmp_path):
        cfg = {"model": {"lookback": 64, "horizons": [8], "n_blocks": 1,
                         "d_model": 16, "n_heads": 2, "d_ff": 32},
               "train": {"epochs": 1, "batch_size": 16, "learning_rate": 1e-3,
                         "train_stride": 4, "precision": "f64"}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["train", "--mixer", "icm", *SYNTH, "--config", str(cfg_path),
                   "--lookback", "32",  # flag wins over file's 64
                   "--out", str(tmp_path), "--name", "c"])
        assert rc == 0
        written = json.loads((tmp_path / "c" / "config.json").read_text())
        assert written["model"]["lookback"] == 32
        assert written["model"]["d_model"] == 16

    @pytest.mark.parametrize("file_cfg,message", [
        ({"model": {"d_modle": 16}}, "unknown model config key(s): d_modle"),
        ({"train": {"epochz": 1}}, "unknown train config key(s): epochz"),
        ({"trian": {"epochs": 1}}, "expected a JSON object with at most a 'model' and a 'train' "
                                   "section"),
        ({"model": {"mixer": "bogus"}},
         "mixer must be one of independent, concat, icm, icm-static, got 'bogus'"),
        ({"model": {"patch_len": 0}}, "patch_len must be an integer >= 1, got 0"),
        ({"train": {"max_train_windows": "many"}},
         "max_train_windows must be an integer >= 1, got 'many'"),
    ], ids=["model-key", "train-key", "section", "bad-mixer", "zero-size", "window-cap"])
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, file_cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_cfg))
        rc = main(["train", *SYNTH, *COMMON, "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and message in err
        assert not list(tmp_path.glob("*/metrics.jsonl"))

    @pytest.mark.parametrize("key, value", [("epochs", 1.7), ("batch_size", "16"),
                                            ("train_stride", 2.0)])
    def test_config_file_counts_are_not_converted(self, tmp_path, capsys, key, value):
        flag = "--" + key.replace("_", "-")
        at = COMMON.index(flag)
        common = COMMON[:at] + COMMON[at + 2:]  # the file's value must not be overridden
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {key: value}}))
        rc = main(["train", *SYNTH, *common, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {key} must be an integer >= 1, got {value!r}\n"

    @pytest.mark.parametrize("key, value, name", [("d_model", 16.9, "d_model"),
                                                  ("horizons", [96.5], "horizons[0]")])
    def test_config_file_sizes_are_not_converted(self, tmp_path, capsys, key, value, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {key: value}}))
        rc = main(["train", *SYNTH, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        got = value[0] if isinstance(value, list) else value
        assert capsys.readouterr().err == \
            f"error: {name} must be an integer >= 1, got {got!r}\n"
        assert not list(tmp_path.glob("*/metrics.jsonl"))

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--train-stride", "0"), ("--max-train-windows", "-3"),
        ("--epochs", "0"), ("--max-train-windows", "0"),
    ])
    def test_bad_training_count_is_one_error_line(self, tmp_path, capsys, flag, value):
        rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON, flag, value,
                   "--out", str(tmp_path), "--name", "bad"])
        err = capsys.readouterr().err
        assert rc == 2
        name = flag[2:].replace("-", "_")
        assert err == f"error: {name} must be an integer >= 1, got {value}\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--horizons", "8,8", "horizons[1] repeats horizon 8"),
        ("--learning-rate", "inf", "learning_rate must be a finite number > 0, got inf"),
    ])
    def test_repeated_horizon_or_infinite_rate_is_one_error_line(self, tmp_path, capsys,
                                                                 flag, value, message):
        rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON, flag, value,
                   "--out", str(tmp_path), "--name", "bad"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("value", ["8,a", ""], ids=["letter", "empty"])
    def test_malformed_horizons_say_what_a_horizon_list_is(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mixer", "icm", *SYNTH, "--horizons", value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --horizons: expected comma-separated integers, got {value!r}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [1, "true", None], ids=["one", "string", "null"])
    def test_non_bool_finetune_beta_is_one_error_line(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"finetune_beta": value}}))
        rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON, "--config", str(cfg_path),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == \
            ("", f"error: finetune_beta must be true or false, got {value!r}\n")
        assert not list(tmp_path.glob("*/metrics.jsonl"))

    def test_invalid_json_config_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"model": {"d_model": 16,}}')
        rc = main(["train", *SYNTH, "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "invalid JSON" in err
        assert "Traceback" not in err

    def test_too_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        """Nesting deeper than the JSON decoder recurses is invalid JSON too."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[" * 100000)
        rc = main(["train", *SYNTH, "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "invalid JSON" in err and err.count("\n") == 1


def read_records(run):
    return [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]


class TestRunLoop:
    """train and compare train one single-horizon model per (mixer, horizon)."""

    def test_each_checkpoint_holds_only_its_own_head(self, tmp_path, capsys):
        args = ["train", "--mixer", "icm", *SYNTH, *COMMON, "--out", str(tmp_path)]
        assert main([*args, "--horizons", "8,16", "--name", "both"]) == 0
        assert main([*args, "--horizons", "16", "--name", "h16"]) == 0
        for horizon in (8, 16):
            model = load_checkpoint(tmp_path / "both" / f"checkpoint_h{horizon}.icm")
            assert model.config.horizons == (horizon,)
            assert sorted(n for n in model.parameters() if n.startswith("head.")) == \
                [f"head.{horizon}.b", f"head.{horizon}.w"]
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "both" / "checkpoint_h8.icm"),
                     *SYNTH]) == 0
        h8, avg = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert h8["horizon"] == 8 and avg["horizon"] == "avg"
        assert (avg["mse"], avg["mae"]) == (h8["mse"], h8["mae"])

        def row(run, horizon):
            lines = (tmp_path / run / "summary.txt").read_text().splitlines()
            return next(line for line in lines if line.split()[1] == str(horizon))

        assert row("both", 16) == row("h16", 16)

    def test_compare_records_name_their_mixer(self, tmp_path):
        assert main(["compare", "--mixers", "independent,icm", *SYNTH, *COMMON,
                     "--out", str(tmp_path), "--name", "cmp"]) == 0
        records = read_records(tmp_path / "cmp")
        assert [(r["mixer"], r["epoch"]) for r in records] == [("independent", 0), ("icm", 0)]
        config = json.loads((tmp_path / "cmp" / "config.json").read_text())
        assert (config["command"], config["mixers"], config["train"]["finetune_beta"]) == \
            ("compare", ["independent", "icm"], False)
        assert not list((tmp_path / "cmp").glob("*.icm"))

    def test_finetune_beta_stage_is_labelled_and_recorded(self, tmp_path):
        assert main(["train", "--mixer", "icm", *SYNTH, *COMMON, "--epochs", "2",
                     "--finetune-beta", "true", "--out", str(tmp_path), "--name", "ft"]) == 0
        records = read_records(tmp_path / "ft")
        assert [(r.get("stage"), r["epoch"]) for r in records] == \
            [(None, 0), (None, 1), ("head+gate", 0), ("head+gate", 1)]
        assert all(r["mixer"] == "icm" for r in records)
        config = json.loads((tmp_path / "ft" / "config.json").read_text())
        assert (config["command"], config["mixers"], config["train"]["finetune_beta"]) == \
            ("train", ["icm"], True)

    def test_compare_runs_the_finetune_stage_for_each_mixer(self, tmp_path):
        assert main(["compare", "--mixers", "independent,icm", *SYNTH, *COMMON,
                     "--finetune-beta", "true", "--out", str(tmp_path), "--name", "cmp"]) == 0
        assert [(r["mixer"], r.get("stage"), r["epoch"]) for r in read_records(tmp_path / "cmp")] \
            == [("independent", None, 0), ("independent", "head+gate", 0),
                ("icm", None, 0), ("icm", "head+gate", 0)]

    @staticmethod
    def assert_replays(tmp_path, extra=()):
        """A run's config.json model and train sections, given as --config, replay the run."""
        args = ["train", "--mixer", "icm", *SYNTH, "--out", str(tmp_path)]
        assert main([*args, *COMMON, *extra, "--horizons", "8,16", "--name", "first"]) == 0
        record = json.loads((tmp_path / "first" / "config.json").read_text())
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps({"model": record["model"], "train": record["train"]}))
        assert main([*args, "--config", str(cfg_path), "--name", "replay"]) == 0
        outputs = sorted(p.name for p in (tmp_path / "first").glob("*.icm")) + ["summary.txt"]
        assert outputs == ["checkpoint_h16.icm", "checkpoint_h8.icm", "summary.txt"]
        for name in outputs:
            assert (tmp_path / "replay" / name).read_bytes() == \
                (tmp_path / "first" / name).read_bytes()

    def test_replay_from_config_json_is_bitwise_equal(self, tmp_path):
        self.assert_replays(tmp_path)

    def test_finetune_replay_from_config_json_is_bitwise_equal(self, tmp_path):
        self.assert_replays(tmp_path, ["--finetune-beta", "true"])

    def test_patience_from_config_file_reaches_the_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"patience": 1}}))
        assert main(["train", "--mixer", "icm", *SYNTH, *COMMON, "--epochs", "8",
                     "--learning-rate", "3e-2", "--config", str(cfg_path),
                     "--out", str(tmp_path), "--name", "p1"]) == 0
        assert json.loads((tmp_path / "p1" / "config.json").read_text())["train"]["patience"] == 1
        # With patience 1 a run ends at its first epoch that does not improve on validation.
        val = [r["val_mse"] for r in read_records(tmp_path / "p1")]
        first_miss = next(i for i in range(1, len(val)) if val[i] >= min(val[:i]))
        assert len(val) == first_miss + 1 < 8

    @pytest.mark.parametrize("command", ["train", "compare", "eval"])
    def test_short_test_split_is_one_error_line_before_any_output(self, tmp_path, capsys,
                                                                  command):
        """190 rows leave a 38-row test split, short of one lookback 32 + horizon 8 window."""
        runs = tmp_path / "runs"
        argv = {"train": ["train", "--mixer", "icm", *COMMON, "--out", str(runs)],
                "compare": ["compare", "--mixers", "independent,icm", *COMMON, "--out", str(runs)],
                "eval": ["eval", "--checkpoint", str(tiny_checkpoint(tmp_path / "model.icm"))]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv[command], "--synthetic", "lagged:m=2,lag=4,noise=0.1,T=190"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: lagged(m=2,lag=4,noise=0.1): the test split has 38 rows, fewer than "
            "lookback 32 + horizon 8 = 40\n")
        assert not caught
        assert not runs.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_short_validation_split_is_one_error_line_before_any_output(self, tmp_path, capsys,
                                                                        command):
        """250 rows leave a 25-row validation split beside a 50-row test split."""
        runs = tmp_path / "runs"
        argv = {"train": ["train", "--mixer", "icm"],
                "compare": ["compare", "--mixers", "independent,icm"]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv[command], *COMMON, "--out", str(runs),
                       "--synthetic", "lagged:m=2,lag=4,noise=0.1,T=250"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: lagged(m=2,lag=4,noise=0.1): the val split has 25 rows, fewer than "
            "lookback 32 + horizon 8 = 40\n")
        assert not caught
        assert not runs.exists()

    @pytest.mark.parametrize("argv", [["train", "--mixer", "icm-static"],
                                      ["compare", "--mixers", "independent,icm-static"]],
                             ids=["train", "compare"])
    def test_static_capacity_is_one_error_line_before_any_output(self, tmp_path, capsys, argv):
        """10 channels overflow icm-static's default 8-row table before any mixer trains."""
        runs = tmp_path / "runs"
        rc = main([*argv, *COMMON, "--out", str(runs),
                   "--synthetic", "lagged:m=10,lag=2,noise=0.1,T=700"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: 10 channels exceed embedding capacity 8\n")
        assert not runs.exists()


class TestCompareCommand:
    def test_two_variants_table(self, tmp_path, capsys):
        rc = main(["compare", "--mixers", "independent,icm", *SYNTH, *COMMON,
                   "--out", str(tmp_path), "--name", "cmp"])
        assert rc == 0
        table = (tmp_path / "cmp" / "summary.txt").read_text()
        assert "independent" in table and "icm" in table
        assert len(table.strip().splitlines()) == 3  # header + two variant rows

    @pytest.mark.parametrize("mixers, message", [
        ("bogus", "mixer must be one of independent, concat, icm, icm-static, got 'bogus'"),
        ("icm,icm", "--mixers repeats mixer 'icm'"),
    ], ids=["unknown", "repeated"])
    def test_bad_mixer_list_is_one_error_line(self, tmp_path, capsys, mixers, message):
        rc = main(["compare", "--mixers", mixers, *SYNTH, *COMMON,
                   "--out", str(tmp_path), "--name", "bad"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bad").exists()

    def test_many_unknown_mixers_are_refused_at_once(self, tmp_path, capsys):
        """Every name is checked against the mixers before the series loads, in linear time."""
        names = ",".join(f"x{i}" for i in range(20000))
        start = time.perf_counter()
        rc = main(["compare", "--mixers", names, *SYNTH, *COMMON, "--out", str(tmp_path)])
        assert time.perf_counter() - start < 0.5
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: mixer must be one of independent, concat, icm, icm-static, got 'x0'\n")

    def test_empty_variant_list_is_error(self, capsys):
        assert main(["compare", "--mixers", "", *SYNTH]) == 2


class TestEvalCommand:
    def test_eval_roundtrip(self, tmp_path, capsys):
        main(["train", "--mixer", "icm", *SYNTH, *COMMON,
              "--out", str(tmp_path), "--name", "tr"])
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(tmp_path / "tr" / "checkpoint_h8.icm"), *SYNTH])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        recs = [json.loads(line) for line in out]
        assert any(r["horizon"] == 8 for r in recs)

    def test_unknown_config_key_in_checkpoint_is_config_error(self, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "extra.icm")
        path.write_bytes(edit_header(path.read_bytes(),
                                     lambda header: header["config"].update(dropout=0.0)))
        rc = main(["eval", "--checkpoint", str(path), *SYNTH])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "dropout" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("corrupt,message", [
        (drop_first_parameter, "the model declares 'embed.w' where the header lists 'embed.b'"),
        (lambda raw: raw[:-100], "lies outside the"),
        (lambda raw: raw[:-1], "lies outside the"),
        (nan_first_weight, "'embed.w' holds a non-finite value"),
        (lambda raw: raw[:8] + b"#" + raw[9:], "corrupt checkpoint header"),
        (lambda raw: raw[:6], "truncated inside the header length"),
        (lambda raw: raw[:4] + struct.pack("<I", 10**6) + raw[8:], "truncated inside the header"),
    ], ids=["missing-parameter", "truncated-body", "body-short-by-one-byte", "non-finite-weight",
            "bad-json-header", "short-prefix", "header-past-end"])
    def test_corrupt_checkpoint_is_config_error(self, tmp_path, capsys, corrupt, message):
        path = tiny_checkpoint(tmp_path / "model.icm")
        path.write_bytes(corrupt(path.read_bytes()))
        rc = main(["eval", "--checkpoint", str(path), *SYNTH])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--config", "missing.json"), ("--seed", "-5"), ("--out", "missing/dir"), ("--name", "x"),
        ("--batch-size", "4"),
    ])
    def test_training_and_run_flags_are_usage_errors(self, tmp_path, capsys, flag, value):
        """eval takes a checkpoint and data only: a flag it would ignore exits 2."""
        path = tiny_checkpoint(tmp_path / "model.icm")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(path), *SYNTH, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_mismatched_checkpoint_is_versioned_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.icm"
        bad.write_bytes(b"NOPE....")
        rc = main(["eval", "--checkpoint", str(bad), *SYNTH])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err


class TestInspectCommand:
    @pytest.mark.parametrize("mixer", ["icm", "independent"])
    def test_prints_config_parameter_counts_and_gates(self, tmp_path, capsys, mixer):
        cfg = EncoderConfig(n_blocks=2, d_model=16, n_heads=2, d_ff=32, lookback=32,
                            horizons=(8,), mixer=mixer)
        model = ForecastEncoder(cfg, seed=0, dtype=np.float32)
        if mixer == "icm":
            model.blocks[1].attn.beta.data[:] = [0.0, np.log(3.0)]
        save_checkpoint(model, tmp_path / "model.icm")
        assert main(["inspect", str(tmp_path / "model.icm")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0].removeprefix("config: ")) == cfg.to_dict()
        assert lines[1] == "dtype: float32"
        assert lines[2] == f"parameters: {model.parameter_count()}"
        counts = dict(line.split() for line in lines[3:] if line.startswith("  "))
        assert sum(int(c) for c in counts.values()) == model.parameter_count()
        assert int(counts["block.1.ffn"]) == 16 * 32 + 32 + 32 * 16 + 16
        gates = [line for line in lines if line.startswith("gate")]
        if mixer == "icm":
            assert gates == ["gate sigmoid(beta) block 0: 0.5000 0.5000",
                             "gate sigmoid(beta) block 1: 0.5000 0.7500"]
        else:
            assert gates == []

    @pytest.mark.parametrize("epsilon", ["x", None, float("nan"), float("inf"), True, 0, -1],
                             ids=["string", "null", "nan", "inf", "true", "zero", "negative"])
    def test_bad_epsilon_is_one_error_line(self, tmp_path, capsys, epsilon):
        path = tiny_checkpoint(tmp_path / "model.icm")
        path.write_bytes(edit_header(path.read_bytes(),
                                     lambda header: header["config"].update(epsilon=epsilon)))
        assert main(["inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "epsilon must be a finite number > 0" in captured.err

    def test_non_finite_weight_is_one_error_line(self, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "model.icm")
        path.write_bytes(nan_first_weight(path.read_bytes()))
        assert main(["inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "'embed.w' holds a non-finite value" in captured.err

    def test_malformed_checkpoint_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.icm"
        path.write_bytes(b"ICM1\x05")
        assert main(["inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestGradcheckCommand:
    def test_single_mixer(self, capsys):
        assert main(["gradcheck", "--mixer", "independent"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
        ("--tolerance", "nan", "tolerance must be a finite number > 0, got nan"),
        ("--tolerance", "inf", "tolerance must be a finite number > 0, got inf"),
        ("--tolerance", "0", "tolerance must be a finite number > 0, got 0.0"),
    ], ids=["negative-seed", "nan-tolerance", "inf-tolerance", "zero-tolerance"])
    def test_bad_argument_is_one_error_line(self, capsys, flag, value, message):
        assert main(["gradcheck", "--mixer", "independent", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSynthCommand:
    def test_synth_then_train_matches_in_memory(self, tmp_path, capsys):
        csv_path = tmp_path / "synth.csv"
        assert main(["synth", "--spec", "lagged:m=2,lag=4,noise=0.1,T=700,seed=0",
                     "--path", str(csv_path)]) == 0
        # file round trip preserves values at text precision
        series = parse_synthetic_spec("lagged:m=2,lag=4,noise=0.1,T=700,seed=0")
        loaded = load_csv(csv_path)
        np.testing.assert_allclose(loaded.values, series.values, atol=1e-6)

        rc = main(["train", "--mixer", "icm", "--data", str(csv_path), *COMMON,
                   "--out", str(tmp_path), "--name", "fromfile"])
        assert rc == 0
        rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON,
                   "--out", str(tmp_path), "--name", "frommem"])
        assert rc == 0
        f = (tmp_path / "fromfile" / "summary.txt").read_text().split()
        m = (tmp_path / "frommem" / "summary.txt").read_text().split()
        file_mse = float(f[-2])
        mem_mse = float(m[-2])
        assert abs(file_mse - mem_mse) < 1e-4

    def test_input_file_not_mutated(self, tmp_path):
        csv_path = tmp_path / "synth.csv"
        main(["synth", "--spec", "lagged:m=2,lag=4,noise=0.1,T=700", "--path", str(csv_path)])
        before = csv_path.read_bytes()
        main(["train", "--mixer", "icm", "--data", str(csv_path), *COMMON,
              "--out", str(tmp_path), "--name", "nm"])
        assert csv_path.read_bytes() == before


@pytest.mark.parametrize("command", ["inspect", "train"])
def test_directory_as_input_file_is_one_error_line(tmp_path, capsys, command):
    argv = {"inspect": ["inspect", str(tmp_path)],
            "train": ["train", "--data", str(tmp_path), *COMMON, "--out", str(tmp_path)]}
    assert main(argv[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


@pytest.mark.parametrize("command, mixer_flag", [("train", "mixer"), ("compare", "mixers")])
def test_one_flag_per_config_field(command, mixer_flag):
    """train and compare have one --<field> flag per config field but mixer, and the config
    flags are all their flags but the run's data, config file, output and mixer flags."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    config_fields = [f.name for cls in (EncoderConfig, TrainConfig) for f in fields(cls)
                     if f.name != "mixer"]
    for name in config_fields:
        assert [a.option_strings for a in actions if a.dest == name] == \
            [["--" + name.replace("_", "-")]], name
    assert {a.dest for a in actions} - set(config_fields) == \
        {"help", "data", "synthetic", "config", "out", "name", mixer_flag}


@pytest.mark.parametrize("argv, abbreviation", [
    (["train", "--mixer", "icm", *SYNTH, "--epo", "3"], "--epo 3"),
    (["compare", "--mixers", "icm", *SYNTH, "--lookb", "32"], "--lookb 32"),
    (["gradcheck", "--mix", "icm"], "--mix icm"),
], ids=["train", "compare", "gradcheck"])
def test_flags_are_exact(capsys, argv, abbreviation):
    """A prefix of a flag is not that flag, so a new flag cannot make it ambiguous."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"icmixer: error: unrecognized arguments: {abbreviation}\n")


def run_module(*argv):
    """``python -m icmixer.cli *argv`` in a fresh process, with this checkout's ``src`` first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "icmixer.cli", *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


class TestProcess:
    """The module's exit status is main's return code."""

    def test_bad_config_exits_2_with_one_error_line(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"d_modle": 16}}))
        proc = run_module("train", *SYNTH, "--config", str(cfg_path), "--out", str(tmp_path))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "error: unknown model config key(s): d_modle\n")

    def test_synth_exits_0(self, tmp_path):
        csv_path = tmp_path / "synth.csv"
        proc = run_module("synth", "--spec", "lagged:m=2,lag=4,noise=0.1,T=50",
                          "--path", str(csv_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert load_csv(csv_path).values.shape == (50, 2)
