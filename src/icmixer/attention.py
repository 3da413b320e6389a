"""Bidirectional multi-head self-attention and its compressive-memory extension.

The memory path reuses the per-head Q/K/V projections of dot-product
attention. Keys and values from every channel are folded into a fixed-size
matrix ``M`` (one d_k x d_k block per head) plus a normalizer ``z``; each
channel then queries that shared memory and blends the result with its own
local attention output through a learned per-head gate.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .tensor import (
    DimensionError,
    Parameter,
    Tensor,
    _unbroadcast,
    row_max,
    row_sum,
)

if TYPE_CHECKING:
    from .encoder import EncoderConfig


class ConfigError(ValueError):
    """Raised for invalid architecture or run configuration."""


def check_integer(name: str, value, minimum: int = 1):
    """ConfigError unless ``value`` is an integer >= ``minimum`` (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _sigma(x: np.ndarray) -> np.ndarray:
    """ELU(x) + 1 on an array: x + 1 for x >= 0, else exp(x); branch-free."""
    # asarray: a ufunc on a 0-d input returns a numpy scalar, which `out=` rejects.
    out = np.asarray(np.minimum(x, 0))
    np.exp(out, out=out)
    out += np.maximum(x, 0)
    return out


def sigma(x: Tensor) -> Tensor:
    """Strictly positive feature map ELU(x) + 1, as one graph node.

    The derivative min(sigma(x), 1) is read from the output, so nothing else
    is saved for backward.
    """
    out_data = _sigma(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * np.minimum(out_data, 1))

    return Tensor._make(out_data, (x,), bwd)


def accumulate_memory(k: Tensor, v: Tensor):
    """Fold keys/values [..., m, h, n, d_k] of all m channels into one memory.

    Returns ``(M, z)``: M [..., 1, h, d_k, d_k] is sigma(K)^T V summed over
    channels, z [..., 1, h, d_k, 1] the key sums over channels and tokens.
    The channel axis is kept so both broadcast against per-channel queries.
    M and z are one node each on a shared sigma(K) node; M's backward keeps
    sigma(K) and V, z's keeps nothing.
    """
    if k.shape != v.shape or k.ndim < 4:
        raise DimensionError(
            f"memory accumulation needs equal [..., m, h, n, d_k] K and V, got {k.shape}, {v.shape}")
    sk = sigma(k)
    mem_data = (sk.data.swapaxes(-1, -2) @ v.data).sum(axis=-4, keepdims=True)

    def mem_bwd(g):  # g: [..., 1, h, d_k, d_k], broadcast over the channels
        if sk.requires_grad:
            sk._accumulate(v.data @ g.swapaxes(-1, -2))
        if v.requires_grad:
            v._accumulate(sk.data @ g)

    z_shape = (*mem_data.shape[:-1], 1)
    z_data = sk.data.sum(axis=(-4, -2)).reshape(z_shape)

    def z_bwd(g):  # each key row of each channel receives g^T
        if sk.requires_grad:
            sk._accumulate(np.broadcast_to(g.swapaxes(-1, -2), sk.shape))

    return Tensor._make(mem_data, (sk, v), mem_bwd), Tensor._make(z_data, (sk,), z_bwd)


def retrieve_memory(q: Tensor, mem: Tensor, z: Tensor, epsilon: float) -> Tensor:
    """Query the accumulated memory: sigma(Q) M / (sigma(Q) z + epsilon), as one node.

    The backward keeps sigma(Q), the denominator and the output.
    """
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    sq = _sigma(q.data)
    den = sq @ z.data
    den += epsilon
    out_data = sq @ mem.data
    out_data /= den

    def bwd(g):
        g_num = g / den                            # dL/d(sigma(Q) M)
        g_den = -row_sum(g_num * out_data)         # dL/d(sigma(Q) z)
        if mem.requires_grad:
            mem._accumulate(_unbroadcast(sq.swapaxes(-1, -2) @ g_num, mem.shape))
        if z.requires_grad:
            z._accumulate(_unbroadcast(sq.swapaxes(-1, -2) @ g_den, z.shape))
        if q.requires_grad:
            g_sq = g_num @ mem.data.swapaxes(-1, -2)
            g_sq += g_den @ z.data.swapaxes(-1, -2)
            g_sq *= np.minimum(sq, 1)
            q._accumulate(_unbroadcast(g_sq, q.shape))

    return Tensor._make(out_data, (q, mem, z), bwd)


def dot_attention(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None = None) -> Tensor:
    """Bidirectional scaled dot-product attention, softmax over keys, as one node.

    ``softmax(Q K^T / sqrt(d_k) + bias) V`` with an optional additive
    ``bias`` that broadcasts to the [..., n_q, n_k] scores. Besides the
    inputs, the backward keeps only the probabilities, never the scores.
    """
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q.data @ k.data.swapaxes(-1, -2)
    scores *= scale
    if bias is not None:
        scores += bias.data
    p = scores  # softmax over keys, in place
    p -= row_max(p)
    np.exp(p, out=p)
    p /= row_sum(p)
    out_data = p @ v.data

    def bwd(g):
        if v.requires_grad:
            v._accumulate(_unbroadcast(p.swapaxes(-1, -2) @ g, v.shape))
        g_scores = g @ v.data.swapaxes(-1, -2)  # dL/dp, then in place dL/dscores
        g_scores -= row_sum(g_scores * p)
        g_scores *= p
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g_scores, bias.shape))
        g_scores *= scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(g_scores @ k.data, q.shape))
        if k.requires_grad:
            k._accumulate(_unbroadcast(g_scores.swapaxes(-1, -2) @ q.data, k.shape))

    parents = (q, k, v) if bias is None else (q, k, v, bias)
    return Tensor._make(out_data, parents, bwd)


def gate_combine(a_mem: Tensor, a_dot: Tensor, beta: Tensor) -> Tensor:
    """Per-head convex combination: sigmoid(beta) memory + (1 - sigmoid(beta)) local."""
    g = beta.sigmoid().reshape(beta.shape[0], 1, 1)
    return g * a_mem + (1.0 - g) * a_dot


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., n, d_model] -> [..., h, n, d_k]."""
    *lead, n, d_model = x.shape
    d_k = d_model // n_heads
    return x.reshape(*lead, n, n_heads, d_k).swapaxes(-3, -2)


def merge_heads(x: Tensor) -> Tensor:
    """[..., h, n, d_k] -> [..., n, h*d_k]."""
    *lead, h, n, d_k = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * d_k)


class MultiHeadSelfAttention:
    """Vanilla per-sequence attention; leading dims (batch, channel) are batched."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator,
                 prefix: str, dtype=np.float64):
        self.config = config
        d = config.d_model
        scale = 1.0 / math.sqrt(d)

        def lin(name):
            return Parameter(rng.standard_normal((d, d)) * scale, f"{prefix}.{name}", dtype=dtype)

        self.wq, self.wk, self.wv, self.wo = lin("wq"), lin("wk"), lin("wv"), lin("wo")

    def parameters(self):
        return [self.wq, self.wk, self.wv, self.wo]

    def project_qkv(self, x: Tensor):
        """[..., n, d_model] -> per-head Q, K, V each [..., h, n, d_k]."""
        if x.shape[-1] != self.config.d_model:
            raise DimensionError(
                f"input width {x.shape[-1]} != d_model {self.config.d_model}")
        h = self.config.n_heads
        return (split_heads(x @ self.wq, h),
                split_heads(x @ self.wk, h),
                split_heads(x @ self.wv, h))

    def __call__(self, x: Tensor) -> Tensor:
        q, k, v = self.project_qkv(x)
        return merge_heads(dot_attention(q, k, v)) @ self.wo


class ICMAttention(MultiHeadSelfAttention):
    """Attention with a per-layer compressive memory shared across channels.

    Input is [batch, m, n, d_model]. A fresh memory is built per forward call:
    every channel's sigma(K)^T V is summed into M (and key sums into z), then
    each channel retrieves from the completed memory. Accumulation finishes
    before any retrieval, so channel order cannot matter.
    """

    def __init__(self, config, rng, prefix, dtype=np.float64):
        super().__init__(config, rng, prefix, dtype=dtype)
        self.beta = Parameter(np.zeros(config.n_heads), f"{prefix}.beta", dtype=dtype)

    def parameters(self):
        return super().parameters() + [self.beta]

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"expected [batch, m, n, d_model], got {x.shape}")
        if x.shape[1] == 0:
            raise DimensionError("at least one channel is required")
        q, k, v = self.project_qkv(x)  # [b, m, h, n, d_k]
        mem, z = accumulate_memory(k, v)
        a_mem = retrieve_memory(q, mem, z, self.config.epsilon)
        return merge_heads(gate_combine(a_mem, dot_attention(q, k, v), self.beta)) @ self.wo


def icm_attention_reference(x: Tensor, layer: ICMAttention) -> Tensor:
    """Channel-at-a-time transcription of the memory equations, for one batch item.

    Slow path used as an independent check of the vectorized layer:
    x is [m, n, d_model]; returns [m, n, d_model].
    """
    q, k, v = layer.project_qkv(x)  # [m, h, n, d_k]
    mem, z = accumulate_memory(k[0:1], v[0:1])
    for i in range(1, x.shape[0]):
        mem_i, z_i = accumulate_memory(k[i:i + 1], v[i:i + 1])
        mem, z = mem + mem_i, z + z_i
    outs = []
    for i in range(x.shape[0]):
        a_mem = retrieve_memory(q[i:i + 1], mem, z, layer.config.epsilon)
        a_dot = dot_attention(q[i:i + 1], k[i:i + 1], v[i:i + 1])
        outs.append(merge_heads(gate_combine(a_mem, a_dot, layer.beta)))
    return Tensor(np.concatenate([o.data for o in outs])) @ layer.wo
