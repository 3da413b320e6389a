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


def drop_first_parameter(raw: bytes) -> bytes:
    """A checkpoint whose header no longer lists its first parameter."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    del header["params"][0]
    new_header = json.dumps(header).encode()
    return raw[:4] + struct.pack("<I", len(new_header)) + new_header + raw[8 + hlen:]


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
        ({"model": {"patch_len": 0}}, "patch_len must be positive"),
    ], ids=["model-key", "train-key", "section", "bad-mixer", "zero-size"])
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, file_cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_cfg))
        rc = main(["train", *SYNTH, *COMMON, "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and message in err
        assert not list(tmp_path.glob("*/metrics.jsonl"))

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
        cfg = EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ff=32, lookback=32, horizons=(8,))
        path = tmp_path / "extra.icm"
        save_checkpoint(ForecastEncoder(cfg), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen])
        header["config"]["dropout"] = 0.0
        new_header = json.dumps(header).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(new_header)) + new_header + raw[8 + hlen:])
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
        cfg = EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ff=32, lookback=32, horizons=(8,))
        path = tmp_path / "model.icm"
        save_checkpoint(ForecastEncoder(cfg), path)
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
