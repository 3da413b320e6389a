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
from .tensor import DimensionError, Tensor, linear

if TYPE_CHECKING:
    from .encoder import EncoderConfig


class MixerKind(str, Enum):
    INDEPENDENT = "independent"
    CONCAT = "concat"
    ICM = "icm"
    ICM_STATIC = "icm-static"


class CapacityError(ConfigError):
    """More channels than the static embedding table can hold."""


def check_capacity(m: int, max_channels: int):
    """CapacityError unless a table of ``max_channels`` rows holds ``m`` channels."""
    if m > max_channels:
        raise CapacityError(f"{m} channels exceed embedding capacity {max_channels}")


def add_static_channel_embedding(x: Tensor, table: Tensor) -> Tensor:
    """Add row c of ``table`` [max_channels, d] to every patch of channel c of x [b, m, n, d]."""
    m, max_channels = x.shape[1], table.shape[0]
    check_capacity(m, max_channels)
    # Rows 0..m-1 as a one-hot product, exact for a finite table.
    rows = linear(Tensor(np.eye(m, max_channels, dtype=x.dtype)), table)
    return x + rows.reshape(1, m, 1, x.shape[-1])


def same_channel_mask(m: int, n: int, dtype=np.float64) -> np.ndarray:
    """[m*n, m*n] indicator: 1 where both tokens belong to the same channel."""
    channel_of = np.repeat(np.arange(m), n)
    return (channel_of[:, None] == channel_of[None, :]).astype(dtype)


class ConcatAttention(MultiHeadSelfAttention):
    """Attention over the flattened channel-token sequence with channel-relative bias.

    ``bias`` is the model's pair (u1, u2) of 0-d parameters, shared across layers and
    heads: u1 is added to same-channel scores, u2 to cross-channel ones.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator, prefix: str, param,
                 bias: tuple):
        super().__init__(config, rng, prefix, param)
        self.u1, self.u2 = bias

    def __call__(self, x: Tensor, norm=None) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"expected [batch, m, n, d_model], got {x.shape}")
        b, m, n, d = x.shape
        q, k, v = self.project_qkv(x.reshape(b, m * n, d), norm)
        mask = same_channel_mask(m, n, x.dtype)
        bias = self.u1 * Tensor(mask) + self.u2 * Tensor(1.0 - mask)
        att = dot_attention(q, k, v, self.config.n_heads, bias)
        return (att @ self.wo).reshape(b, m, n, d)
