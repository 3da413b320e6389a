"""Malformed checkpoints: ``load_checkpoint`` raises ConfigError, fast and small.

A checkpoint's header claims a config, and the model of that config reads
each parameter as it declares it: the next header entry is checked against
the declaration and the file size before its array is made. So a header may
claim any sizes: truncated files, flipped bits, and headers with
type-confused or oversized values must all be refused as ConfigError, each
within a small time and memory bound, and the CLI reports them as one
``error:`` line.
"""

import json
import math
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from icmixer.attention import ConfigError
from icmixer.cli import main
from icmixer.encoder import EncoderConfig, ForecastEncoder, load_checkpoint, save_checkpoint

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TINY = EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ff=32, patch_len=8, lookback=32,
                     horizons=(8,))
SYNTH = ["--synthetic", "lagged:m=2,lag=4,noise=0.1,T=700,seed=0"]
SECONDS, PEAK_BYTES = 0.2, 5 * 2**20  # per load


class _Enough(Exception):
    pass


def declarations(config: EncoderConfig, limit: int) -> list:
    """The first ``limit`` (name, shape) parameter declarations of a model of ``config``,
    found without building it."""
    found = []

    def record(name, shape, init):
        if len(found) == limit:
            raise _Enough
        found.append((name, list(shape)))
        return np.broadcast_to(np.zeros((), np.float32), shape)

    try:
        ForecastEncoder.__new__(ForecastEncoder)._build(config, None, np.float32, record)
    except _Enough:
        pass
    return found


def pack(header, body=b"") -> bytes:
    raw = json.dumps(header).encode()
    return b"ICM1" + struct.pack("<I", len(raw)) + raw + body


def forged(config: EncoderConfig, n_entries: int, body=None) -> bytes:
    """A checkpoint whose header claims ``config`` and lists the first ``n_entries``
    parameters of its model, as f32 buffers laid end to end, over ``body``: by
    default the zero bytes of those buffers."""
    entries, offset = [], 0
    for name, shape in declarations(config, n_entries):
        entries.append({"name": name, "shape": shape, "dtype": "<f4", "offset": offset})
        offset += 4 * math.prod(shape)
    return pack({"config": config.to_dict(), "params": entries},
                bytes(offset) if body is None else body)


@pytest.fixture(scope="module")
def tiny_raw(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.icm"
    save_checkpoint(ForecastEncoder(TINY, seed=0, dtype=np.float32), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.icm"


def check_load(path, raw: bytes):
    """Load ``raw`` from ``path``: a model or ConfigError, within the time and memory bounds."""
    path.write_bytes(raw)

    def load():
        try:
            load_checkpoint(path)
        except ConfigError:
            pass

    start = time.perf_counter()
    peak, _ = traced_peak(load)
    seconds = time.perf_counter() - start
    assert seconds < SECONDS and peak < PEAK_BYTES, (seconds, peak)


@hypothesis.settings(max_examples=60)
@hypothesis.given(data=st.data())
def test_truncated_or_bit_flipped_file(tiny_raw, scratch, data):
    raw = bytearray(tiny_raw)
    for position in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=3)):
        raw[position // 8] ^= 1 << position % 8
    cut = data.draw(st.integers(0, len(raw)))
    check_load(scratch, bytes(raw[:cut]))


json_scalars = (st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats()
                | st.text(max_size=4))
json_values = json_scalars | st.lists(json_scalars, max_size=3) | st.dictionaries(
    st.text(max_size=3), json_scalars, max_size=2)
ENTRY_KEYS = ("name", "shape", "dtype", "offset")


@hypothesis.settings(max_examples=80)
@hypothesis.given(data=st.data())
def test_type_confused_header(tiny_raw, scratch, data):
    """Up to three header values, in the config or in a parameter entry, set to any JSON value."""
    (hlen,) = struct.unpack("<I", tiny_raw[4:8])
    header, body = json.loads(tiny_raw[8:8 + hlen]), tiny_raw[8 + hlen:]
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            key = data.draw(st.sampled_from([*header["config"], "unknown_key"]))
            header["config"][key] = data.draw(json_values)
        else:
            entry = data.draw(st.sampled_from(header["params"]))
            entry[data.draw(st.sampled_from(ENTRY_KEYS))] = data.draw(json_values)
    check_load(scratch, pack(header, body))


@hypothesis.settings(max_examples=60)
@hypothesis.given(d_model=st.integers(1, 2**19).map(lambda k: 2 * k),
                  d_ff=st.integers(1, 2**20), patches=st.integers(1, 2**17),
                  n_blocks=st.integers(1, 20000), n_entries=st.integers(1, 30),
                  body=st.none() | st.binary(max_size=64))
def test_oversized_header(scratch, d_model, d_ff, patches, n_blocks, n_entries, body):
    """A header that claims sizes up to 2^20 (20000 blocks) and lists the first
    parameters of that model consistently, over a short body or over the zero
    bytes of those buffers where they take at most 1 MiB."""
    config = replace(TINY, d_model=d_model, d_ff=d_ff, lookback=8 * patches, n_blocks=n_blocks)
    listed = sum(4 * math.prod(shape) for _, shape in declarations(config, n_entries))
    check_load(scratch, forged(config, n_entries, b"" if listed > 2**20 else body))


MOTIVATING_FILES = {
    # Its weights would take 4 TiB: d_model x d_ff f32 for one feed-forward matrix.
    "huge-weights": lambda: forged(replace(TINY, d_model=2**20, d_ff=2**20), 1, body=b""),
    # Lists the embedding's and the first block's parameters, but claims 100000 blocks.
    "many-blocks": lambda: forged(replace(TINY, n_blocks=100000), 15),
    # Nesting deeper than the JSON decoder recurses.
    "deep-json": lambda: b"ICM1" + struct.pack("<I", 100000) + b"[" * 100000,
}


@pytest.mark.parametrize("command", ["inspect", "eval"])
@pytest.mark.parametrize("name", MOTIVATING_FILES)
def test_cli_refuses_a_forged_header_in_one_line(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.icm"
    path.write_bytes(MOTIVATING_FILES[name]())
    argv = ["inspect", str(path)] if command == "inspect" else [
        "eval", "--checkpoint", str(path), *SYNTH]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
