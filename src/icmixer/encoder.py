"""Patched time-series encoder backbone with a linear forecasting head.

Pipeline per forward pass: reversible per-instance normalization, slicing the
lookback window into non-overlapping patches, linear patch embedding plus
sinusoidal positions, a stack of pre-norm encoder blocks whose attention
sublayer is chosen by the configured channel mixer, and a per-horizon linear
head whose outputs are mapped back to the original scale.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .attention import ConfigError, ICMAttention, MultiHeadSelfAttention, check_integer
from .mixers import (
    ChannelBias,
    ConcatAttention,
    MixerKind,
    StaticChannelEmbedding,
    add_static_channel_embedding,
)
from .tensor import DimensionError, Parameter, Tensor, expit, layer_norm, linear, row_sum

INSTANCE_NORM_EPS = 1e-5


@dataclass
class EncoderConfig:
    n_blocks: int = 4
    d_model: int = 256
    n_heads: int = 4
    d_ff: int = 1024
    patch_len: int = 8
    lookback: int = 256
    mixer: MixerKind = MixerKind.ICM
    horizons: tuple = (96, 192, 384)
    max_channels: int = 8
    epsilon: float = 1e-6

    def __post_init__(self):
        self.mixer = MixerKind(self.mixer)
        for name in ("n_blocks", "d_model", "n_heads", "d_ff", "patch_len", "lookback",
                     "max_channels"):
            check_integer(name, getattr(self, name))
        horizons = tuple(self.horizons)
        if not horizons:
            raise ConfigError("horizons must be a non-empty list")
        for i, h in enumerate(horizons):
            check_integer(f"horizons[{i}]", h)
        self.horizons = tuple(map(int, horizons))
        if self.lookback % self.patch_len != 0:
            raise ConfigError(
                f"lookback {self.lookback} not divisible by patch_len {self.patch_len}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0 < eps < math.inf:
            raise ConfigError(f"epsilon must be a finite number > 0, got {eps!r}")

    @property
    def n_patches(self) -> int:
        return self.lookback // self.patch_len

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["mixer"] = self.mixer.value
        d["horizons"] = list(self.horizons)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown model config key(s): {', '.join(unknown)}")
        return cls(**d)


def instance_stats(x: np.ndarray):
    """Per-series (mean, std) over the last axis, each of shape [..., 1]."""
    n = x.shape[-1]
    mean = row_sum(x) / n
    centered = x - mean
    centered *= centered
    return mean, np.sqrt(row_sum(centered) / n)


def instance_normalize(x: Tensor | np.ndarray, stats=None):
    """Standardize each series over its last axis; returns (x_norm, (mean, std)).

    ``stats`` defaults to the series' own ``instance_stats``; passing the
    statistics of the input window maps a target into the model's normalized
    space. Statistics are plain arrays; forecasts are mapped back with the
    exact inverse affine map. A near-constant series is kept finite by the
    epsilon added to the divisor.
    """
    if stats is None:
        stats = instance_stats(x.data if isinstance(x, Tensor) else np.asarray(x))
    mean, std = stats
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    x_norm = (x_t - Tensor(mean)) / (std + INSTANCE_NORM_EPS)
    return x_norm, stats


def denormalize(pred: Tensor, stats) -> Tensor:
    mean, std = stats
    return pred * (std + INSTANCE_NORM_EPS) + Tensor(mean)


def patchify(x: Tensor, patch_len: int) -> Tensor:
    """[..., lookback] -> [..., n_patches, patch_len], contiguous non-overlapping."""
    lookback = x.shape[-1]
    if lookback % patch_len != 0:
        raise ConfigError(f"series length {lookback} not divisible by patch_len {patch_len}")
    return x.reshape(*x.shape[:-1], lookback // patch_len, patch_len)


def sinusoidal_positions(n_positions: int, d_model: int) -> np.ndarray:
    """Standard fixed sin/cos position table [n_positions, d_model]."""
    pos = np.arange(n_positions)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d_model)
    table = np.zeros((n_positions, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


class LayerNorm:
    def __init__(self, d_model: int, prefix: str, dtype=np.float64, eps: float = 1e-5):
        self.eps = eps
        self.gain = Parameter(np.ones(d_model), f"{prefix}.gain", dtype=dtype)
        self.bias = Parameter(np.zeros(d_model), f"{prefix}.bias", dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias, eps=self.eps)

    def parameters(self):
        return [self.gain, self.bias]


class FeedForward:
    def __init__(self, d_model: int, d_ff: int, rng, prefix: str, dtype=np.float64):
        self.w1 = Parameter(rng.standard_normal((d_model, d_ff)) / np.sqrt(d_model),
                            f"{prefix}.w1", dtype=dtype)
        self.b1 = Parameter(np.zeros(d_ff), f"{prefix}.b1", dtype=dtype)
        self.w2 = Parameter(rng.standard_normal((d_ff, d_model)) / np.sqrt(d_ff),
                            f"{prefix}.w2", dtype=dtype)
        self.b2 = Parameter(np.zeros(d_model), f"{prefix}.b2", dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(linear(x, self.w1, self.b1).relu(), self.w2, self.b2)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


class EncoderBlock:
    """Pre-norm residual block: attention sublayer then ReLU feed-forward."""

    def __init__(self, config: EncoderConfig, rng, prefix: str,
                 channel_bias: ChannelBias | None, dtype=np.float64):
        if config.mixer in (MixerKind.ICM, MixerKind.ICM_STATIC):
            self.attn = ICMAttention(config, rng, f"{prefix}.attn", dtype=dtype)
        elif config.mixer is MixerKind.CONCAT:
            self.attn = ConcatAttention(config, rng, f"{prefix}.attn", channel_bias, dtype=dtype)
        else:
            self.attn = MultiHeadSelfAttention(config, rng, f"{prefix}.attn", dtype=dtype)
        self.ln1 = LayerNorm(config.d_model, f"{prefix}.ln1", dtype=dtype)
        self.ln2 = LayerNorm(config.d_model, f"{prefix}.ln2", dtype=dtype)
        self.ffn = FeedForward(config.d_model, config.d_ff, rng, f"{prefix}.ffn", dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.ffn(self.ln2(x))

    def parameters(self):
        return self.ln1.parameters() + self.attn.parameters() + \
            self.ln2.parameters() + self.ffn.parameters()


class _ZeroDraws:
    """Stands in for ``np.random.Generator`` where the draws will be overwritten."""

    @staticmethod
    def standard_normal(shape):
        return np.zeros(shape)


class ForecastEncoder:
    """The full trainable model: embedding, encoder stack, per-horizon heads."""

    def __init__(self, config: EncoderConfig, seed: int = 0, dtype=np.float64):
        self._build(config, np.random.default_rng(seed), dtype)

    @classmethod
    def _unfilled(cls, config: EncoderConfig, dtype) -> "ForecastEncoder":
        """A model of the right shapes whose weights are zeros, to be overwritten.

        It draws nothing from a generator: for the default backbone the
        seeded normal draws are most of the time a checkpoint load takes.
        """
        model = cls.__new__(cls)
        model._build(config, _ZeroDraws, dtype)
        return model

    def _build(self, config: EncoderConfig, rng, dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        d = config.d_model

        self.embed_w = Parameter(rng.standard_normal((config.patch_len, d)) / np.sqrt(config.patch_len),
                                 "embed.w", dtype=dtype)
        self.embed_b = Parameter(np.zeros(d), "embed.b", dtype=dtype)
        self._positions = sinusoidal_positions(config.n_patches, d).astype(dtype)

        self.channel_bias = ChannelBias(dtype=dtype) if config.mixer is MixerKind.CONCAT else None
        self.channel_embed = (StaticChannelEmbedding(config.max_channels, d, rng, dtype=dtype)
                              if config.mixer is MixerKind.ICM_STATIC else None)

        self.blocks = [EncoderBlock(config, rng, f"block.{i}", self.channel_bias, dtype=dtype)
                       for i in range(config.n_blocks)]
        self.final_ln = LayerNorm(d, "final_ln", dtype=dtype)

        flat = config.n_patches * d
        self.heads = {}
        for horizon in config.horizons:
            self.heads[horizon] = (
                Parameter(rng.standard_normal((flat, horizon)) / np.sqrt(flat),
                          f"head.{horizon}.w", dtype=dtype),
                Parameter(np.zeros(horizon), f"head.{horizon}.b", dtype=dtype),
            )

    # -- parameter registry ---------------------------------------------------

    def parameters(self) -> dict:
        params = [self.embed_w, self.embed_b]
        if self.channel_bias is not None:
            params += self.channel_bias.parameters()
        if self.channel_embed is not None:
            params += self.channel_embed.parameters()
        for block in self.blocks:
            params += block.parameters()
        params += self.final_ln.parameters()
        for w, b in self.heads.values():
            params += [w, b]
        registry = {}
        for p in params:
            if p.name in registry:
                raise ConfigError(f"duplicate parameter name {p.name!r}")
            registry[p.name] = p
        return registry

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    def gates(self) -> list:
        """Per ICM block, each head's memory gate openness sigmoid(beta); [] otherwise."""
        return [expit(block.attn.beta.data).tolist() for block in self.blocks
                if isinstance(block.attn, ICMAttention)]

    # -- forward --------------------------------------------------------------

    def _check_input(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))
        if x.ndim != 3:
            raise DimensionError(f"expected [batch, channels, lookback], got shape {x.shape}")
        if x.shape[1] < 1:
            raise DimensionError("at least one channel is required")
        if x.shape[-1] != self.config.lookback:
            raise DimensionError(
                f"series length {x.shape[-1]} != configured lookback {self.config.lookback}")
        return x

    def embed(self, x_norm: Tensor) -> Tensor:
        patches = patchify(x_norm, self.config.patch_len)
        emb = linear(patches, self.embed_w, self.embed_b)
        emb = emb + Tensor(self._positions)  # positions restart per channel
        if self.channel_embed is not None:
            emb = add_static_channel_embedding(emb, self.channel_embed)
        return emb

    def _encode_normalized(self, x_norm: Tensor) -> Tensor:
        out = self.embed(x_norm)
        for block in self.blocks:
            out = block(out)
        return self.final_ln(out)

    def encode(self, x) -> Tensor:
        """[b, m, lookback] -> [b, m, n_patches, d_model]."""
        x_norm, _ = instance_normalize(self._check_input(x))
        return self._encode_normalized(x_norm)

    def forecast_normalized(self, x, horizon: int):
        """Forecast in instance-normalized space; returns (pred_norm, stats)."""
        if horizon not in self.heads:
            raise ConfigError(
                f"horizon {horizon} not configured (available: {sorted(self.heads)})")
        x = self._check_input(x)
        x_norm, stats = instance_normalize(x)
        enc = self._encode_normalized(x_norm)
        b, m, n_patches, d = enc.shape
        w, bias = self.heads[horizon]
        pred = linear(enc.reshape(b, m, n_patches * d), w, bias)
        return pred, stats

    def forecast(self, x, horizon: int) -> Tensor:
        """[b, m, lookback] -> [b, m, horizon] on the input's original scale."""
        pred_norm, stats = self.forecast_normalized(x, horizon)
        return denormalize(pred_norm, stats)


# -- checkpoint format --------------------------------------------------------
#
# Binary layout: magic b"ICM1", uint32 little-endian header length, UTF-8 JSON
# header {"config": {...}, "params": [{name, shape, dtype, offset}]},
# then the raw little-endian parameter buffers concatenated in header order.

_MAGIC = b"ICM1"
_ENTRY_TYPES = {"name": str, "shape": list, "dtype": str, "offset": int}


def save_checkpoint(model: ForecastEncoder, path):
    params = model.parameters()
    entries, blobs, offset = [], [], 0
    for name, p in params.items():
        raw = np.ascontiguousarray(p.data, dtype=p.data.dtype.newbyteorder("<")).tobytes()
        entries.append({"name": name, "shape": list(p.shape),
                        "dtype": p.data.dtype.str, "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"config": model.config.to_dict(), "params": entries}).encode()
    # A new file, not the old one truncated: ext4 (auto_da_alloc) flushes a
    # file that is truncated and rewritten in place when it is closed, which
    # takes 0.3-0.9 s against ~5 ms for a fresh file.
    Path(path).unlink(missing_ok=True)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def _read_checkpoint(path):
    """(header, body) of a checkpoint file; ConfigError if it is not well formed."""
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
        prefix = f.read(4)
        if len(prefix) != 4:
            raise ConfigError(f"{path}: checkpoint truncated inside the header length")
        (hlen,) = struct.unpack("<I", prefix)
        raw_header = f.read(hlen)
        body = f.read()
    if len(raw_header) != hlen:
        raise ConfigError(f"{path}: checkpoint truncated inside the header")
    try:
        header = json.loads(raw_header.decode())
    except ValueError as err:
        raise ConfigError(f"{path}: corrupt checkpoint header ({err})") from err
    entries = header.get("params") if isinstance(header, dict) else None
    if not (isinstance(entries, list) and entries and isinstance(header.get("config"), dict)
            and all(isinstance(e, dict) and all(isinstance(e.get(key), kind)
                                                for key, kind in _ENTRY_TYPES.items())
                    for e in entries)):
        raise ConfigError(f"{path}: corrupt checkpoint header (expected a config object and "
                          f"a non-empty list of {{name, shape, dtype, offset}} entries)")
    return header, body


def load_checkpoint(path) -> ForecastEncoder:
    """Rebuild a model from ``save_checkpoint`` output.

    The file must hold exactly the model's parameters, each with its shape,
    in one float dtype, inside the body. Any other file raises ConfigError.
    """
    header, body = _read_checkpoint(path)
    try:
        config = EncoderConfig.from_dict(header["config"])
        dtypes = {np.dtype(e["dtype"]).newbyteorder("=") for e in header["params"]}
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: invalid checkpoint header ({err})") from err
    if len(dtypes) != 1 or next(iter(dtypes)).kind != "f":
        raise ConfigError(f"{path}: checkpoint parameters must share one float dtype, "
                          f"got {sorted(d.str for d in dtypes)}")
    model = ForecastEncoder._unfilled(config, dtypes.pop())
    params = model.parameters()
    names = [entry["name"] for entry in header["params"]]
    missing, unknown = sorted(set(params) - set(names)), sorted(set(names) - set(params))
    if missing or unknown or len(names) != len(params):
        raise ConfigError(
            f"{path}: checkpoint parameters do not match the model (missing: {missing}, "
            f"unknown: {unknown}, {len(names)} entries for {len(params)} parameters)")
    for entry in header["params"]:
        p = params[entry["name"]]
        if entry["shape"] != list(p.shape):
            raise ConfigError(f"checkpoint parameter {entry['name']!r} shape "
                              f"{entry['shape']} != model shape {list(p.shape)}")
        dt = np.dtype(entry["dtype"])
        start, nbytes = entry["offset"], p.size * dt.itemsize
        if not 0 <= start <= len(body) - nbytes:
            raise ConfigError(
                f"{path}: checkpoint parameter {entry['name']!r} ({nbytes} bytes at offset "
                f"{start}) lies outside the {len(body)}-byte body")
        p.data = np.frombuffer(
            body, dtype=dt, count=p.size, offset=start).reshape(p.shape).astype(dt.newbyteorder("="))
    return model
