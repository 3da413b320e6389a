import json
import struct
import warnings

import numpy as np
import pytest

from icmixer.cli import main, parse_synthetic_spec
from icmixer.data import load_csv
from icmixer.encoder import EncoderConfig, ForecastEncoder, save_checkpoint


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
        ("lagged:lag=-3", "lag must be >= 0, got -3"),
        ("lagged:noise=-1", "noise_std must be finite and >= 0, got -1.0"),
        ("lagged:noise=nan", "noise_std must be finite and >= 0, got nan"),
        ("lagged:seed=-1", "seed must be >= 0, got -1"),
    ])
    def test_malformed_spec_is_config_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "x.csv"
        assert main(["synth", "--spec", spec, "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not path.exists()


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_error_line_with_exit_3(self, tmp_path, capsys):
        rc = main(["train", "--mixer", "icm", *SYNTH, *COMMON, "--learning-rate", "1e100",
                   "--out", str(tmp_path), "--name", "diverge"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite training loss")
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra,diagnosis", [
        (["--precision", "f32"], "training loss at epoch 0, batch offset 16 (lr=1e+100, "
                                 "horizon=8); first non-finite parameter: embed.w"),
        # Huge but finite f64 weights overflow the loss.
        (["--precision", "f64"], "training loss at epoch 0, batch offset 16 (lr=1e+100, "
                                 "horizon=8); all parameters are finite"),
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
        ({"trian": {"epochs": 1}}, "unknown config section(s): trian"),
        ({"model": {"mixer": "bogus"}}, "invalid config value"),
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
            f"error: invalid config value: {key} must be an integer >= 1, got {value!r}\n"

    @pytest.mark.parametrize("key, value, name", [("d_model", 16.9, "d_model"),
                                                  ("horizons", [96.5], "horizons[0]")])
    def test_config_file_sizes_are_not_converted(self, tmp_path, capsys, key, value, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {key: value}}))
        rc = main(["train", *SYNTH, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        got = value[0] if isinstance(value, list) else value
        assert capsys.readouterr().err == \
            f"error: invalid config value: {name} must be an integer >= 1, got {got!r}\n"
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
        assert err == f"error: invalid config value: {name} must be an integer >= 1, got {value}\n"
        assert not (tmp_path / "bad").exists()

    def test_invalid_json_config_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"model": {"d_model": 16,}}')
        rc = main(["train", *SYNTH, "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "invalid JSON" in err
        assert "Traceback" not in err


class TestCompareCommand:
    def test_two_variants_table(self, tmp_path, capsys):
        rc = main(["compare", "--mixers", "independent,icm", *SYNTH, *COMMON,
                   "--out", str(tmp_path), "--name", "cmp"])
        assert rc == 0
        table = (tmp_path / "cmp" / "summary.txt").read_text()
        assert "independent" in table and "icm" in table
        assert len(table.strip().splitlines()) == 3  # header + two variant rows

    def test_duplicate_variant_rows_identical(self, tmp_path):
        rc = main(["compare", "--mixers", "icm,icm", *SYNTH, *COMMON,
                   "--out", str(tmp_path), "--name", "dup"])
        assert rc == 0
        lines = (tmp_path / "dup" / "summary.txt").read_text().strip().splitlines()
        # same variant listed twice collapses to one deterministic row
        values = {line.split()[-1] for line in lines[1:]}
        assert len(values) == 1

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
        (drop_first_parameter, "missing: ['embed.w']"),
        (lambda raw: raw[:-100], "lies outside the"),
        (lambda raw: raw[:8] + b"#" + raw[9:], "corrupt checkpoint header"),
        (lambda raw: raw[:6], "truncated inside the header length"),
        (lambda raw: raw[:4] + struct.pack("<I", 10**6) + raw[8:], "truncated inside the header"),
    ], ids=["missing-parameter", "truncated-body", "bad-json-header", "short-prefix",
            "header-past-end"])
    def test_corrupt_checkpoint_is_config_error(self, tmp_path, capsys, corrupt, message):
        path = tiny_checkpoint(tmp_path / "model.icm")
        path.write_bytes(corrupt(path.read_bytes()))
        rc = main(["eval", "--checkpoint", str(path), *SYNTH])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

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
