"""Channel-mixing strategies compared against the compressive-memory mixer.

Four interchangeable designs, all driven by the same encoder backbone:

* ``INDEPENDENT`` — every channel is processed in isolation (no mixing).
* ``CONCAT`` — channels are flattened into one long token sequence; attention
  scores get a same-channel / cross-channel scalar bias pair.
* ``ICM`` — compressive-memory channel mixing (see :mod:`icmixer.attention`).
* ``ICM_STATIC`` — ICM plus a learned static embedding per channel index,
  added to the patch embeddings. Note this deliberately breaks channel
  permutation equivariance: rows are assigned by position in the batch.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .attention import ConfigError, MultiHeadSelfAttention, dot_attention
from .tensor import DimensionError, Parameter, Tensor, linear

if TYPE_CHECKING:
    from .encoder import EncoderConfig


class MixerKind(str, Enum):
    INDEPENDENT = "independent"
    CONCAT = "concat"
    ICM = "icm"
    ICM_STATIC = "icm-static"


class CapacityError(ConfigError):
    """More channels than the static embedding table can hold."""


class ChannelBias:
    """Two trainable scalars biasing concat-attention scores.

    ``u1`` is added where query and key tokens come from the same channel,
    ``u2`` where they come from different channels. Shared across layers
    and heads.
    """

    def __init__(self, param=Parameter):
        self.u1 = param(np.zeros(()), "channel_bias.u1")
        self.u2 = param(np.zeros(()), "channel_bias.u2")


class StaticChannelEmbedding:
    """One learned d_model-vector per channel slot, added to patch embeddings."""

    def __init__(self, max_channels: int, d_model: int, rng, param=Parameter):
        self.max_channels = max_channels
        self.table = param(rng.standard_normal((max_channels, d_model)) * 0.02,
                           "channel_embed.table")


def check_capacity(m: int, max_channels: int):
    """CapacityError unless a table of ``max_channels`` rows holds ``m`` channels."""
    if m > max_channels:
        raise CapacityError(f"{m} channels exceed embedding capacity {max_channels}")


def add_static_channel_embedding(x: Tensor, embedding: StaticChannelEmbedding) -> Tensor:
    """Add embedding row c to every patch of channel c; x is [b, m, n_patches, d]."""
    m = x.shape[1]
    check_capacity(m, embedding.max_channels)
    # Rows 0..m-1 as a one-hot product, exact for a finite table.
    rows = linear(Tensor(np.eye(m, embedding.max_channels, dtype=x.dtype)), embedding.table)
    return x + rows.reshape(1, m, 1, x.shape[-1])


def same_channel_mask(m: int, n: int, dtype=np.float64) -> np.ndarray:
    """[m*n, m*n] indicator: 1 where both tokens belong to the same channel."""
    channel_of = np.repeat(np.arange(m), n)
    return (channel_of[:, None] == channel_of[None, :]).astype(dtype)


class ConcatAttention(MultiHeadSelfAttention):
    """Attention over the flattened channel-token sequence with channel-relative bias.

    The bias object is owned by the model and shared across layers.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator,
                 prefix: str, bias: ChannelBias, param=Parameter):
        super().__init__(config, rng, prefix, param)
        self.bias = bias

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"expected [batch, m, n, d_model], got {x.shape}")
        b, m, n, d = x.shape
        q, k, v = self.project_qkv(x.reshape(b, m * n, d))
        mask = same_channel_mask(m, n, x.dtype)
        bias = self.bias.u1 * Tensor(mask) + self.bias.u2 * Tensor(1.0 - mask)
        att = dot_attention(q, k, v, self.config.n_heads, bias)
        return (att @ self.wo).reshape(b, m, n, d)
