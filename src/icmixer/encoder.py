"""Patched time-series encoder backbone with a linear forecasting head.

Pipeline per forward pass: reversible per-instance normalization, slicing the
lookback window into non-overlapping patches, linear patch embedding plus
sinusoidal positions, a stack of pre-norm encoder blocks whose attention
sublayer is chosen by the configured channel mixer, and a per-horizon linear
head whose outputs are mapped back to the original scale.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .attention import (ConfigError, ICMAttention, MultiHeadSelfAttention, check_integer,
                        check_positive)
from .mixers import (
    ChannelBias,
    ConcatAttention,
    MixerKind,
    StaticChannelEmbedding,
    add_static_channel_embedding,
)
from .tensor import (FORWARD_BLOCK_BYTES, DimensionError, Parameter, Tensor, blocks, expit,
                     feed_forward, grad_enabled, layer_norm, linear, row_sum)

INSTANCE_NORM_EPS = 1e-5


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
            raise ConfigError(f"unknown {cls.section} config key(s): {', '.join(unknown)}")
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
        for i, h in enumerate(self.horizons):
            check_integer(f"horizons[{i}]", h)
            if h in self.horizons[:i]:
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

        Per encoder block the backward closures keep eight arrays the size
        of the residual stream (``m * n_patches * d_model``): each layer
        norm's normalized input and output, Q, K, V and the attention
        output. The ICM mixers keep two more, the memory retrieval and the
        gate's output. Add two ``d_ff``-wide ones (the feed-forward hidden
        and, in the backward, its gradient) and the attention probabilities:
        ``n_heads * (m * n_patches)^2`` for concat, which attends over all
        channel-tokens at once, ``m * n_heads * n_patches^2`` for the others.
        Residual sums and sublayer outputs are not kept. Embedding, final
        norm and head add about four residual-sized arrays. This estimate is
        0.86-1.20x the traced f32 graph of every mixer on the desk config
        and the default backbone, and of concat over 16 channels.
        """
        n, tokens = self.n_patches, m * self.n_patches
        residuals = 10 if self.mixer in (MixerKind.ICM, MixerKind.ICM_STATIC) else 8
        probs = self.n_heads * (tokens * tokens if self.mixer is MixerKind.CONCAT
                                else m * n * n)
        per_block = tokens * (residuals * self.d_model + 2 * self.d_ff) + probs
        return np.dtype(dtype).itemsize * (self.n_blocks * per_block + 4 * tokens * self.d_model)


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


class LayerNorm:
    def __init__(self, d_model: int, prefix: str, param=Parameter):
        self.gain = param(np.ones(d_model), f"{prefix}.gain")
        self.bias = param(np.zeros(d_model), f"{prefix}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class FeedForward:
    def __init__(self, d_model: int, d_ff: int, rng, prefix: str, param=Parameter):
        self.w1 = param(rng.standard_normal((d_model, d_ff)) / np.sqrt(d_model), f"{prefix}.w1")
        self.b1 = param(np.zeros(d_ff), f"{prefix}.b1")
        self.w2 = param(rng.standard_normal((d_ff, d_model)) / np.sqrt(d_ff), f"{prefix}.w2")
        self.b2 = param(np.zeros(d_model), f"{prefix}.b2")

    def __call__(self, x: Tensor) -> Tensor:
        return feed_forward(x, self.w1, self.b1, self.w2, self.b2)


class EncoderBlock:
    """Pre-norm residual block: attention sublayer then ReLU feed-forward."""

    def __init__(self, config: EncoderConfig, rng, prefix: str,
                 channel_bias: ChannelBias | None, param=Parameter):
        self.ln1 = LayerNorm(config.d_model, f"{prefix}.ln1", param)
        if config.mixer in (MixerKind.ICM, MixerKind.ICM_STATIC):
            self.attn = ICMAttention(config, rng, f"{prefix}.attn", param)
        elif config.mixer is MixerKind.CONCAT:
            self.attn = ConcatAttention(config, rng, f"{prefix}.attn", channel_bias, param)
        else:
            self.attn = MultiHeadSelfAttention(config, rng, f"{prefix}.attn", param)
        self.ln2 = LayerNorm(config.d_model, f"{prefix}.ln2", param)
        self.ffn = FeedForward(config.d_model, config.d_ff, rng, f"{prefix}.ffn", param)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.ffn(self.ln2(x))


class _Unfilled(tuple):
    """The shape of a weight whose values will be read from a checkpoint.

    Scaling it is a no-op, so a layer's ``draw * scale`` initializer computes
    nothing; the model's ``param`` factory makes it one zeroed array.
    """

    def __mul__(self, scale):
        return self

    __truediv__ = __mul__


class _ZeroDraws:
    """Stands in for ``np.random.Generator`` where the draws will be overwritten."""

    @staticmethod
    def standard_normal(shape):
        return _Unfilled(shape)


class ForecastEncoder:
    """The full trainable model: embedding, encoder stack, per-horizon heads."""

    def __init__(self, config: EncoderConfig, seed: int = 0, dtype=np.float64):
        self._build(config, np.random.default_rng(seed), dtype)

    @classmethod
    def _unfilled(cls, config: EncoderConfig, dtype) -> "ForecastEncoder":
        """A model of the right shapes whose weights are zeros, to be overwritten.

        It draws nothing and computes nothing weight-sized: each parameter is
        one ``np.zeros`` array in the model dtype, whose pages the allocator
        hands out untouched until a checkpoint's bytes are read into them.
        """
        model = cls.__new__(cls)
        model._build(config, _ZeroDraws, dtype)
        return model

    def _build(self, config: EncoderConfig, rng, dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        self._params = {}
        d = config.d_model

        def param(value, name):
            """The one place a parameter is made: named, cast to the model dtype, registered."""
            if isinstance(value, _Unfilled):
                value = np.zeros(value, dtype)
            p = self._params[name] = Parameter(value, name, dtype=dtype)
            return p

        self.embed_w = param(rng.standard_normal((config.patch_len, d)) / np.sqrt(config.patch_len),
                             "embed.w")
        self.embed_b = param(np.zeros(d), "embed.b")
        self._positions = sinusoidal_positions(config.n_patches, d).astype(dtype)

        self.channel_bias = ChannelBias(param) if config.mixer is MixerKind.CONCAT else None
        self.channel_embed = (StaticChannelEmbedding(config.max_channels, d, rng, param)
                              if config.mixer is MixerKind.ICM_STATIC else None)

        self.blocks = [EncoderBlock(config, rng, f"block.{i}", self.channel_bias, param)
                       for i in range(config.n_blocks)]
        self.final_ln = LayerNorm(d, "final_ln", param)

        flat = config.n_patches * d
        self.heads = {horizon: (param(rng.standard_normal((flat, horizon)) / np.sqrt(flat),
                                      f"head.{horizon}.w"),
                                param(np.zeros(horizon), f"head.{horizon}.b"))
                      for horizon in config.horizons}

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
        x = Tensor(x, dtype=self.dtype)
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

    def _encode_and_project(self, x_norm: Tensor, horizon: int) -> Tensor:
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
        inference memory does not grow with the batch: on the default
        7-channel f32 backbone a 64-window batch runs as 8 blocks of 8, the
        traced activations fall from ~133 MB to ~17 MB, and the benchmark's
        backbone-eval peak RSS from 263 MB to 145 MB.
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


def _checkpoint_dtype(dtypes, path) -> np.dtype:
    """The one float dtype, in native byte order, that ``dtypes`` all share."""
    dtypes = {np.dtype(d).newbyteorder("=") for d in dtypes}
    if len(dtypes) != 1 or next(iter(dtypes)).kind != "f":
        raise ConfigError(f"{path}: checkpoint parameters must share one float dtype, "
                          f"got {sorted(d.str for d in dtypes)}")
    return dtypes.pop()


def _check_finite(p: Parameter, path):
    # min and max propagate a NaN and reach an inf, and allocate nothing
    # the size of the parameter.
    if not (np.isfinite(p.data.min()) and np.isfinite(p.data.max())):
        raise ConfigError(f"{path}: checkpoint parameter {p.name!r} holds a non-finite value")


def save_checkpoint(model: ForecastEncoder, path):
    """Write ``model`` to ``path``, each parameter's own buffer in turn.

    A model that ``load_checkpoint`` would reject (parameters in more than
    one dtype, or a non-finite weight) raises ConfigError before an existing
    file at ``path`` is touched.
    """
    params = model.parameters()
    _checkpoint_dtype([p.dtype for p in params.values()], path)
    entries, offset = [], 0
    for name, p in params.items():
        _check_finite(p, path)
        entries.append({"name": name, "shape": list(p.shape),
                        "dtype": p.dtype.newbyteorder("<").str, "offset": offset})
        offset += p.data.nbytes
    header = json.dumps({"config": model.config.to_dict(), "params": entries}).encode()
    # A new file, not the old one truncated: ext4 (auto_da_alloc) flushes a
    # file that is truncated and rewritten in place when it is closed, which
    # takes 0.3-0.9 s against ~5 ms for a fresh file.
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
    except ValueError as err:
        raise ConfigError(f"{path}: corrupt checkpoint header ({err})") from err
    entries = header.get("params") if isinstance(header, dict) else None
    if not (isinstance(entries, list) and entries and isinstance(header.get("config"), dict)
            and all(isinstance(e, dict) and all(isinstance(e.get(key), kind)
                                                for key, kind in _ENTRY_TYPES.items())
                    for e in entries)):
        raise ConfigError(f"{path}: corrupt checkpoint header (expected a config object and "
                          f"a non-empty list of {{name, shape, dtype, offset}} entries)")
    return header


def load_checkpoint(path) -> ForecastEncoder:
    """Rebuild a model from ``save_checkpoint`` output.

    The file must hold exactly the model's parameters, each with its shape,
    in one float dtype, with finite values; their buffers follow each other
    in header order and fill the body. Any other file raises ConfigError.
    Every check on the header runs before a parameter byte is read; then each
    buffer is read straight into its parameter's own array, so the load holds
    one copy of the weights.
    """
    with open(path, "rb") as f:
        header = _read_header(f, path)
        body_len = os.fstat(f.fileno()).st_size - f.tell()
        try:
            config = EncoderConfig.from_dict(header["config"])
            dtypes = [np.dtype(e["dtype"]) for e in header["params"]]
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{path}: invalid checkpoint header ({err})") from err
        model = ForecastEncoder._unfilled(config, _checkpoint_dtype(dtypes, path))
        params = model.parameters()
        names = [entry["name"] for entry in header["params"]]
        missing, unknown = sorted(set(params) - set(names)), sorted(set(names) - set(params))
        if missing or unknown or len(names) != len(params):
            raise ConfigError(
                f"{path}: checkpoint parameters do not match the model (missing: {missing}, "
                f"unknown: {unknown}, {len(names)} entries for {len(params)} parameters)")
        reads, end = [], 0
        for entry, dt in zip(header["params"], dtypes):
            p = params[entry["name"]]
            if entry["shape"] != list(p.shape):
                raise ConfigError(f"checkpoint parameter {entry['name']!r} shape "
                                  f"{entry['shape']} != model shape {list(p.shape)}")
            start, nbytes = entry["offset"], p.data.nbytes
            if start != end:
                raise ConfigError(
                    f"{path}: checkpoint parameter {entry['name']!r} at offset {start}, expected "
                    f"{end}: buffers must follow each other in header order")
            end += nbytes
            if end > body_len:
                raise ConfigError(
                    f"{path}: checkpoint parameter {entry['name']!r} ({nbytes} bytes at offset "
                    f"{start}) lies outside the {body_len}-byte body")
            reads.append((p, dt))
        if end != body_len:
            raise ConfigError(f"{path}: {body_len - end} bytes after the last checkpoint parameter")
        for p, dt in reads:
            if f.readinto(memoryview(p.data).cast("B")) != p.data.nbytes:
                raise ConfigError(f"{path}: checkpoint ended inside parameter {p.name!r} "
                                  f"while it was read")
            if not dt.isnative:
                p.data.byteswap(inplace=True)
            _check_finite(p, path)
    return model
