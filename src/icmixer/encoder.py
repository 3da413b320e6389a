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
import os
import struct
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .attention import (ConfigError, ICMAttention, MultiHeadSelfAttention, check_integer,
                        check_positive)
from .mixers import ConcatAttention, MixerKind, add_static_channel_embedding
from .tensor import (FORWARD_BLOCK_BYTES, DimensionError, Parameter, Tensor, blocks,
                     draw_normal, expit, feed_forward, grad_enabled, layer_norm, linear,
                     row_sum)

INSTANCE_NORM_EPS = 1e-5
PRECISIONS = {"f32": np.float32, "f64": np.float64}  # the model dtypes, by CLI name


class ConfigFields:
    """The dict form of a config dataclass: its fields are the only list of its keys, and
    ``from_dict`` of any JSON object builds a config or raises ConfigError."""

    section = ""  # the config's name in error messages

    def to_dict(self) -> dict:
        """Each field as a JSON value: an enum as its value, a tuple as a list."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in d.items():
            if isinstance(value, Enum):
                d[name] = value.value
            elif isinstance(value, tuple):
                d[name] = list(value)
        return d

    @classmethod
    def from_dict(cls, d: dict):
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            # As reprs: a key may hold a line break or a lone surrogate.
            raise ConfigError(f"unknown {cls.section} config key(s): "
                              f"{', '.join(map(repr, unknown))}")
        return cls(**d)


@dataclass
class EncoderConfig(ConfigFields):
    section = "model"

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
        if self.mixer not in list(MixerKind):
            raise ConfigError(f"mixer must be one of {', '.join(MixerKind)}, got {self.mixer!r}")
        self.mixer = MixerKind(self.mixer)
        for name in ("n_blocks", "d_model", "n_heads", "d_ff", "patch_len", "lookback",
                     "max_channels"):
            check_integer(name, getattr(self, name))
        if not isinstance(self.horizons, (list, tuple)) or not self.horizons:
            raise ConfigError(f"horizons must be a non-empty list, got {self.horizons!r}")
        first = {}  # horizon -> index of its first appearance
        for i, h in enumerate(self.horizons):
            check_integer(f"horizons[{i}]", h)
            if first.setdefault(h, i) != i:
                raise ConfigError(f"horizons[{i}] repeats horizon {h}")
        self.horizons = tuple(map(int, self.horizons))
        if self.lookback % self.patch_len != 0:
            raise ConfigError(
                f"lookback {self.lookback} not divisible by patch_len {self.patch_len}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        check_positive("epsilon", self.epsilon)

    @property
    def n_patches(self) -> int:
        return self.lookback // self.patch_len

    def graph_window_bytes(self, m: int, dtype) -> int:
        """Estimated bytes of one window's training graph over ``m`` channels.

        Per encoder block the backward closures keep eight arrays the size of
        the residual stream (``m * n_patches * d_model``): each layer norm's
        normalized input and its output, which the linear layers that read it
        share, Q, K, V and the attention output. ICM keeps a ninth, the
        difference of the memory and dot paths that the gate's gradient
        reads. A block also keeps one ``d_ff``-wide array (the feed-forward
        hidden) and the attention probabilities: ``n_heads * (m * n_patches)^2``
        for concat, which attends over all channel-tokens at once,
        ``m * n_heads * n_patches^2`` for the others. Residual sums and
        sublayer outputs are not kept. One more ``d_ff``-wide array (the
        hidden's gradient) and six residual-sized ones cover the embedding,
        the head and the gradients alive at the backward's peak; ICM's
        memory-path gradients add two, and concat, whose peak its
        probabilities set, takes two fewer. This estimate is 0.97-1.21x the
        traced f32 graph of every mixer on the desk config and the default
        backbone, and of concat over 16 channels.
        """
        n, tokens = self.n_patches, m * self.n_patches
        icm = self.mixer in (MixerKind.ICM, MixerKind.ICM_STATIC)
        probs = self.n_heads * (tokens * tokens if self.mixer is MixerKind.CONCAT
                                else m * n * n)
        per_block = tokens * ((9 if icm else 8) * self.d_model + self.d_ff) + probs
        rest = 8 if icm else 4 if self.mixer is MixerKind.CONCAT else 6
        return np.dtype(dtype).itemsize * (self.n_blocks * per_block
                                           + tokens * (rest * self.d_model + self.d_ff))


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
    space. The input is data: this is array arithmetic, so no gradient reaches
    ``x``. Forecasts are mapped back with the exact inverse affine map; the
    epsilon added to the divisor keeps a near-constant series finite.
    """
    x = x.data if isinstance(x, Tensor) else np.asarray(x)
    if stats is None:
        stats = instance_stats(x)
    mean, std = stats
    return Tensor((x - mean) / (std + INSTANCE_NORM_EPS)), stats


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


def fan_in_normal(rng):
    """The init of a [fan_in, ...] weight: standard normal draws over sqrt(fan_in)."""
    return lambda shape, dtype: draw_normal(rng, shape, dtype, lambda z: z / np.sqrt(shape[0]))


class LayerNorm:
    """A layer norm's gain and bias, applied with its normalization (``layer_norm``)."""

    def __init__(self, d_model: int, prefix: str, param):
        self.gain = param(f"{prefix}.gain", (d_model,), np.ones)
        self.bias = param(f"{prefix}.bias", (d_model,), np.zeros)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class FeedForward:
    def __init__(self, d_model: int, d_ff: int, rng, prefix: str, param):
        self.w1 = param(f"{prefix}.w1", (d_model, d_ff), fan_in_normal(rng))
        self.b1 = param(f"{prefix}.b1", (d_ff,), np.zeros)
        self.w2 = param(f"{prefix}.w2", (d_ff, d_model), fan_in_normal(rng))
        self.b2 = param(f"{prefix}.b2", (d_model,), np.zeros)

    def __call__(self, x: Tensor) -> Tensor:
        return feed_forward(x, self.w1, self.b1, self.w2, self.b2)


class EncoderBlock:
    """Pre-norm residual block: attention sublayer then ReLU feed-forward."""

    def __init__(self, config: EncoderConfig, rng, prefix: str, param, channel_bias=None):
        self.ln1 = LayerNorm(config.d_model, f"{prefix}.ln1", param)
        if config.mixer in (MixerKind.ICM, MixerKind.ICM_STATIC):
            self.attn = ICMAttention(config, rng, f"{prefix}.attn", param)
        elif config.mixer is MixerKind.CONCAT:
            self.attn = ConcatAttention(config, rng, f"{prefix}.attn", param, channel_bias)
        else:
            self.attn = MultiHeadSelfAttention(config, rng, f"{prefix}.attn", param)
        self.ln2 = LayerNorm(config.d_model, f"{prefix}.ln2", param)
        self.ffn = FeedForward(config.d_model, config.d_ff, rng, f"{prefix}.ffn", param)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.ffn(self.ln2(x))


class ForecastEncoder:
    """The full trainable model: embedding, encoder stack, per-horizon heads."""

    def __init__(self, config: EncoderConfig, seed: int = 0, dtype=np.float64):
        self._build(config, np.random.default_rng(seed), dtype,
                    lambda name, shape, init: init(shape, dtype))

    def _build(self, config: EncoderConfig, rng, dtype, make):
        """Build the layers, which declare each parameter in turn as (name, shape, init).

        ``make(name, shape, init)`` returns its array. For a fresh model that is
        ``init(shape, dtype)``, an array made in the model dtype (``np.zeros``,
        ``np.ones`` or a ``draw_normal`` init, which draws chunk by chunk), so
        construction holds the parameters and one chunk. A load checks the
        declaration against the file's next entry and reads it.
        """
        self.config = config
        self.dtype = np.dtype(dtype)
        if self.dtype not in PRECISIONS.values():
            raise ConfigError(f"model dtype {self.dtype} fits no precision in {list(PRECISIONS)}")
        self._params = {}
        d = config.d_model

        def param(name, shape, init):
            """The one place a parameter is made: named, in the model dtype, registered."""
            p = self._params[name] = Parameter(make(name, shape, init), name, dtype=dtype)
            return p

        self.embed_w = param("embed.w", (config.patch_len, d), fan_in_normal(rng))
        self.embed_b = param("embed.b", (d,), np.zeros)
        self.channel_bias = ((param("channel_bias.u1", (), np.zeros),
                              param("channel_bias.u2", (), np.zeros))
                             if config.mixer is MixerKind.CONCAT else None)
        self.channel_embed = (
            param("channel_embed.table", (config.max_channels, d),
                  lambda shape, dtype: draw_normal(rng, shape, dtype, lambda z: z * 0.02))
            if config.mixer is MixerKind.ICM_STATIC else None)

        self.blocks = [EncoderBlock(config, rng, f"block.{i}", param, self.channel_bias)
                       for i in range(config.n_blocks)]
        self.final_ln = LayerNorm(d, "final_ln", param)

        flat = config.n_patches * d
        self.heads = {horizon: (param(f"head.{horizon}.w", (flat, horizon), fan_in_normal(rng)),
                                param(f"head.{horizon}.b", (horizon,), np.zeros))
                      for horizon in config.horizons}

    @cached_property
    def _positions(self) -> np.ndarray:
        """The position table, built at the first forward: a load makes it after its checks."""
        return sinusoidal_positions(self.config.n_patches, self.config.d_model).astype(self.dtype)

    # -- parameter registry ---------------------------------------------------

    def parameters(self) -> dict:
        """Every parameter by name, in the order the model made them."""
        return self._params

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
        # In C order: a cast of a window view would otherwise keep the view's channel-major order.
        x = Tensor(np.asarray(x.data if isinstance(x, Tensor) else x, self.dtype, order="C"))
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
        """The encoder's output: the final layer norm of the last block's output."""
        out = self.embed(x_norm)
        for block in self.blocks:
            out = block(out)
        return self.final_ln(out)

    def _encode_and_project(self, x_norm: Tensor, horizon: int) -> Tensor:
        """The head's forecast: each channel's encoder output, its patches as one row."""
        enc = self._encode_normalized(x_norm)
        b, m, n_patches, d = enc.shape
        w, bias = self.heads[horizon]
        return linear(enc.reshape(b, m, n_patches * d), w, bias)

    def forecast_normalized(self, x, horizon: int):
        """Forecast in instance-normalized space; returns (pred_norm, stats).

        Under ``no_grad`` the batch runs through the encoder and head in
        near-equal blocks of whole windows, as few as keep each block's
        residual stream within ``FORWARD_BLOCK_BYTES`` (a block holds at least
        one window), so the activations alive at once do not grow with the
        batch. Every step after instance normalization is per window, so the
        blocks give the forecasts of one pass. With a graph the batch runs in
        one pass: a train step cuts its batch into blocks of its own
        (``training.batch_gradients``), each running its backward before the
        next is built.
        """
        if horizon not in self.heads:
            raise ConfigError(
                f"horizon {horizon} not configured (available: {sorted(self.heads)})")
        x = self._check_input(x)
        x_norm, stats = instance_normalize(x)
        b, m, _ = x.shape
        window_bytes = m * self.config.n_patches * self.config.d_model * self.dtype.itemsize
        parts = blocks(b, window_bytes, FORWARD_BLOCK_BYTES) if not grad_enabled() else []
        if len(parts) <= 1:
            return self._encode_and_project(x_norm, horizon), stats
        pred = np.empty((b, m, horizon), self.dtype)
        for part in parts:
            pred[part] = self._encode_and_project(Tensor(x_norm.data[part]), horizon).data
        return Tensor(pred), stats

    def forecast(self, x, horizon: int) -> Tensor:
        """[b, m, lookback] -> [b, m, horizon] on the input's original scale.

        Under ``no_grad`` the batch runs in blocks of windows whose residual
        stream fits ``FORWARD_BLOCK_BYTES`` (see ``forecast_normalized``), so
        inference memory does not grow with the batch.
        """
        pred_norm, stats = self.forecast_normalized(x, horizon)
        return denormalize(pred_norm, stats)


# -- checkpoint format --------------------------------------------------------
#
# Binary layout: magic b"ICM1", uint32 little-endian header length, UTF-8 JSON
# header {"config": {...}, "params": [{name, shape, dtype, offset}]},
# then the raw little-endian parameter buffers concatenated in header order.

_MAGIC = b"ICM1"
_ENTRY_TYPES = {"name": str, "shape": list, "dtype": str, "offset": int}
_LABELS = {np.dtype(t).newbyteorder("<").str: np.dtype(t) for t in PRECISIONS.values()}


def _check_finite(name, data: np.ndarray, path):
    # min and max propagate a NaN and reach an inf, and allocate nothing
    # the size of the parameter.
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ConfigError(f"{path}: checkpoint parameter {name!r} holds a non-finite value")


def save_checkpoint(model: ForecastEncoder, path):
    """Write ``model`` to ``path``, each parameter's own buffer in turn.

    A model that ``load_checkpoint`` would reject (parameters not all f32 or
    all f64, or a non-finite weight) raises ConfigError before an existing
    file at ``path`` is touched.
    """
    params = model.parameters()
    labels = sorted({p.dtype.newbyteorder("<").str for p in params.values()})
    if len(labels) != 1 or labels[0] not in _LABELS:
        raise ConfigError(f"{path}: checkpoint parameters must share one float dtype, "
                          f"{' or '.join(_LABELS)}, got {labels}")
    entries, offset = [], 0
    for name, p in params.items():
        _check_finite(name, p.data, path)
        entries.append({"name": name, "shape": list(p.shape), "dtype": labels[0], "offset": offset})
        offset += p.data.nbytes
    header = json.dumps({"config": model.config.to_dict(), "params": entries}).encode()
    # A new file, not the old one truncated: ext4 (auto_da_alloc) flushes a
    # file that is truncated and rewritten in place when it is closed.
    Path(path).unlink(missing_ok=True)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for p in params.values():
            # A contiguous little-endian array is written as it is, not copied.
            raw = np.ascontiguousarray(p.data, dtype=p.dtype.newbyteorder("<"))
            f.write(memoryview(raw).cast("B"))


def _read_header(f, path) -> dict:
    """The header of the open checkpoint ``f``, left at the start of the body.

    ConfigError if the magic, the header length or the header is not well formed.
    """
    if f.read(4) != _MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
    prefix = f.read(4)
    if len(prefix) != 4:
        raise ConfigError(f"{path}: checkpoint truncated inside the header length")
    (hlen,) = struct.unpack("<I", prefix)
    raw_header = f.read(hlen)
    if len(raw_header) != hlen:
        raise ConfigError(f"{path}: checkpoint truncated inside the header")
    try:
        header = json.loads(raw_header.decode())
    except (ValueError, RecursionError) as err:  # RecursionError: nesting too deep
        raise ConfigError(f"{path}: corrupt checkpoint header ({err})") from err
    entries = header.get("params") if isinstance(header, dict) else None
    if not (isinstance(entries, list) and entries and isinstance(header.get("config"), dict)
            and all(isinstance(e, dict) and all(type(e.get(key)) is kind  # a bool is no int
                                                for key, kind in _ENTRY_TYPES.items())
                    for e in entries)):
        raise ConfigError(f"{path}: corrupt checkpoint header (expected a config object and "
                          f"a non-empty list of {{name, shape, dtype, offset}} entries)")
    return header


def load_checkpoint(path) -> ForecastEncoder:
    """Rebuild a model from ``save_checkpoint`` output.

    The header must list exactly the model's parameters in declaration order,
    each with its shape and the one dtype label "<f4" or "<f8"; their buffers
    follow each other in that order and fill the body, with finite values.
    Any other file raises ConfigError. The load is one pass: as the model
    declares each parameter, its entry is checked, and only then is its array
    made and its buffer read straight into it. So the first mismatch stops
    the build, no array is larger than the file, and the load holds one copy
    of the weights.
    """
    with open(path, "rb") as f:
        header = _read_header(f, path)
        body_len = os.fstat(f.fileno()).st_size - f.tell()
        label = header["params"][0]["dtype"]
        # Any model dtype will do for another label: the first entry refuses it.
        dtype = _LABELS.get(label, np.dtype(np.float32))
        entries, end = iter(header["params"]), 0

        def read(name, shape, init):
            """The next entry's buffer, read once the entry matches this declaration."""
            nonlocal end
            entry = next(entries, None)
            if entry is None:
                raise ConfigError(
                    f"{path}: checkpoint parameters do not match the model (missing: {[name]})")
            if entry["name"] != name:
                raise ConfigError(f"{path}: checkpoint parameters do not match the model: the "
                                  f"model declares {name!r} where the header lists "
                                  f"{entry['name']!r}")
            if entry["dtype"] != label or label not in _LABELS:
                raise ConfigError(f"{path}: checkpoint parameter {name!r} has dtype "
                                  f"{entry['dtype']!r}: parameters must share one float dtype, "
                                  f"{' or '.join(_LABELS)}")
            if entry["shape"] != list(shape) or not all(type(n) is int for n in entry["shape"]):
                raise ConfigError(f"{path}: checkpoint parameter {name!r} shape "
                                  f"{entry['shape']} != model shape {list(shape)}")
            start, nbytes = entry["offset"], math.prod(shape) * dtype.itemsize
            if start != end:
                raise ConfigError(f"{path}: checkpoint parameter {name!r} at offset {start}, "
                                  f"expected {end}: buffers must follow each other in header order")
            end += nbytes
            if end > body_len:
                raise ConfigError(f"{path}: checkpoint parameter {name!r} ({nbytes} bytes at "
                                  f"offset {start}) lies outside the {body_len}-byte body")
            data = np.empty(shape, dtype)
            if f.readinto(memoryview(data).cast("B")) != nbytes:
                raise ConfigError(f"{path}: checkpoint ended inside parameter {name!r} "
                                  f"while it was read")
            _check_finite(name, data, path)
            return data

        model = ForecastEncoder.__new__(ForecastEncoder)
        model._build(EncoderConfig.from_dict(header["config"]), None, dtype, read)
        unknown = next(entries, None)
        if unknown is not None:
            raise ConfigError(f"{path}: checkpoint parameters do not match the model "
                              f"(unknown: {[unknown['name']]})")
        if end != body_len:
            raise ConfigError(f"{path}: {body_len - end} bytes after the last checkpoint parameter")
    return model
