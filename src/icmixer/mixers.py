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

from .attention import ConfigError, MultiHeadSelfAttention, dot_attention, merge_heads
from .tensor import DimensionError, Parameter, Tensor

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

    def __init__(self, prefix: str = "channel_bias", dtype=np.float64):
        self.u1 = Parameter(np.zeros(()), f"{prefix}.u1", dtype=dtype)
        self.u2 = Parameter(np.zeros(()), f"{prefix}.u2", dtype=dtype)

    def parameters(self):
        return [self.u1, self.u2]


class StaticChannelEmbedding:
    """One learned d_model-vector per channel slot, added to patch embeddings."""

    def __init__(self, max_channels: int, d_model: int,
                 rng: np.random.Generator, prefix: str = "channel_embed", dtype=np.float64):
        self.max_channels = max_channels
        self.table = Parameter(
            rng.standard_normal((max_channels, d_model)) * 0.02, f"{prefix}.table", dtype=dtype)

    def parameters(self):
        return [self.table]


def add_static_channel_embedding(x: Tensor, embedding: StaticChannelEmbedding) -> Tensor:
    """Add embedding row c to every patch of channel c; x is [b, m, n_patches, d]."""
    m = x.shape[1]
    if m > embedding.max_channels:
        raise CapacityError(
            f"{m} channels exceed embedding capacity {embedding.max_channels}")
    d = x.shape[-1]
    return x + embedding.table[:m].reshape(1, m, 1, d)


def same_channel_mask(m: int, n: int, dtype=np.float64) -> np.ndarray:
    """[m*n, m*n] indicator: 1 where both tokens belong to the same channel."""
    channel_of = np.repeat(np.arange(m), n)
    return (channel_of[:, None] == channel_of[None, :]).astype(dtype)


class ConcatAttention(MultiHeadSelfAttention):
    """Attention over the flattened channel-token sequence with channel-relative bias.

    The bias object is owned by the model (shared across layers) and is not
    reported among this layer's own parameters.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator,
                 prefix: str, bias: ChannelBias, dtype=np.float64):
        super().__init__(config, rng, prefix, dtype=dtype)
        self.bias = bias

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"expected [batch, m, n, d_model], got {x.shape}")
        b, m, n, d = x.shape
        q, k, v = self.project_qkv(x.reshape(b, m * n, d))  # [b, h, m*n, d_k]
        mask = Tensor(same_channel_mask(m, n, x.dtype))
        att = dot_attention(q, k, v, self.bias.u1 * mask + self.bias.u2 * (1.0 - mask))
        return (merge_heads(att) @ self.wo).reshape(b, m, n, d)
