"""Bidirectional multi-head self-attention and its compressive-memory extension.

The memory path reuses the per-head Q/K/V projections of dot-product
attention. Keys and values from every channel are folded into a fixed-size
matrix ``M`` (one d_k x d_k block per head) whose extra last column is the
normalizer ``z``; each channel then queries that shared memory and blends
the result with its own local attention output through a learned per-head
gate.
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
    expit,
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


def check_positive(name: str, value):
    """ConfigError unless ``value`` is a finite real number > 0 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")


def _sigma(x: np.ndarray) -> np.ndarray:
    """ELU(x) + 1 on an array: x + 1 for x >= 0, else exp(x); branch-free."""
    # asarray: a ufunc on a 0-d input returns a numpy scalar, which `out=` rejects.
    out = np.asarray(np.minimum(x, 0))
    np.exp(out, out=out)
    out += np.maximum(x, 0)
    return out


def accumulate_memory(k: Tensor, v: Tensor) -> Tensor:
    """Fold keys/values [..., m, h, n, d_k] of all m channels into one memory.

    Returns ``[M | z]`` [..., 1, h, d_k, d_k + 1] as one node and one array:
    M = sigma(K)^T V is one GEMM per (batch, head) over all m*n channel-tokens
    (views of ``split_heads`` output), z its last column, the key sums. The
    channel axis broadcasts against per-channel queries. The backward keeps
    sigma(K) and V.
    """
    if k.shape != v.shape or k.ndim < 4:
        raise DimensionError(
            f"memory accumulation needs equal [..., m, h, n, d_k] K and V, got {k.shape}, {v.shape}")
    *lead, m, h, n, d_k = k.shape
    sk = _sigma(k.data)
    sk_tok, v_tok = (a.swapaxes(-4, -3).reshape(*lead, h, m * n, d_k) for a in (sk, v.data))
    mem = np.empty((*lead, 1, h, d_k, d_k + 1), dtype=np.result_type(sk, v.data))
    np.matmul(sk_tok.swapaxes(-1, -2), v_tok, out=mem[..., 0, :, :, :-1])
    np.sum(sk_tok, axis=-2, out=mem[..., 0, :, :, -1])

    def bwd(g):  # g: [..., 1, h, d_k, d_k + 1], broadcast over the channels
        g_m = g[..., :-1]
        if k.requires_grad:
            g_sk = v.data @ g_m.swapaxes(-1, -2)
            g_sk += g[..., -1:].swapaxes(-1, -2)  # each key row receives dL/dz^T
            g_sk *= np.minimum(sk, 1)
            k._accumulate(g_sk)
        if v.requires_grad:
            v._accumulate(sk @ g_m)

    return Tensor._make(mem, (k, v), bwd)


def retrieve_memory(q: Tensor, mem: Tensor, epsilon: float) -> Tensor:
    """Query a memory ``[M | z]``: sigma(Q) M / (sigma(Q) z + epsilon), as one node.

    Numerator and denominator come from one product sigma(Q) [M | z], which
    is divided in place; the output is a view of its first d_k columns, so
    no second output-sized array is made. The backward keeps sigma(Q), the
    denominator and the output.
    """
    check_positive("epsilon", epsilon)
    sq = _sigma(q.data)
    num_den = sq @ mem.data
    den = num_den[..., -1:] + epsilon
    num_den /= den  # whole rows, unused last column too: a strided divide is slower
    out_data = num_den[..., :-1]

    def bwd(g):  # dL/d(sigma(Q) [M | z]) = [dL/dnum | dL/dden]
        g_nd = np.empty((*g.shape[:-1], g.shape[-1] + 1), dtype=den.dtype)
        g_num = np.divide(g, den, out=g_nd[..., :-1])
        g_nd[..., -1:] = -row_sum(g_num * out_data)
        if mem.requires_grad:
            mem._accumulate(_unbroadcast(sq.swapaxes(-1, -2) @ g_nd, mem.shape))
        if q.requires_grad:
            g_sq = g_nd @ mem.data.swapaxes(-1, -2)
            g_sq *= np.minimum(sq, 1)
            q._accumulate(_unbroadcast(g_sq, q.shape))

    return Tensor._make(out_data, (q, mem), bwd)


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
    """Per-head convex combination g a_mem + (1 - g) a_dot, g = sigmoid(beta), as one node.

    ``a_mem`` and ``a_dot`` are [..., h, n, d_k]; the result, written through
    a head-major view with one temporary, is merged: [..., n, h*d_k].
    """
    *lead, h, n, d_k = a_mem.shape
    s = expit(beta.data)
    g = s.reshape(h, 1, 1)
    out = np.empty((*lead, n, h, d_k), dtype=np.result_type(g, a_mem.data, a_dot.data))
    heads = out.swapaxes(-3, -2)
    np.multiply(g, a_mem.data, out=heads)
    heads += (1.0 - g) * a_dot.data

    def bwd(grad):
        grad = grad.reshape(out.shape).swapaxes(-3, -2)
        if a_mem.requires_grad:
            a_mem._accumulate(grad * g)
        if a_dot.requires_grad:
            a_dot._accumulate(grad * (1.0 - g))
        if beta.requires_grad:
            diff = a_mem.data - a_dot.data
            diff *= grad
            beta._accumulate(_unbroadcast(diff, g.shape).reshape(h) * s * (1.0 - s))

    return Tensor._make(out.reshape(*lead, n, h * d_k), (a_mem, a_dot, beta), bwd)


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
                 prefix: str, param=Parameter):
        self.config = config
        d = config.d_model
        scale = 1.0 / math.sqrt(d)

        def lin(name):
            return param(rng.standard_normal((d, d)) * scale, f"{prefix}.{name}")

        self.wq, self.wk, self.wv, self.wo = lin("wq"), lin("wk"), lin("wv"), lin("wo")

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

    def __init__(self, config, rng, prefix, param=Parameter):
        super().__init__(config, rng, prefix, param)
        self.beta = param(np.zeros(config.n_heads), f"{prefix}.beta")

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"expected [batch, m, n, d_model], got {x.shape}")
        if x.shape[1] == 0:
            raise DimensionError("at least one channel is required")
        q, k, v = self.project_qkv(x)  # [b, m, h, n, d_k]
        a_mem = retrieve_memory(q, accumulate_memory(k, v), self.config.epsilon)
        return gate_combine(a_mem, dot_attention(q, k, v), self.beta) @ self.wo


def icm_attention_reference(x: Tensor, layer: ICMAttention) -> Tensor:
    """Channel-at-a-time transcription of the memory equations, for one batch item.

    Slow path used as an independent check of the vectorized layer:
    x is [m, n, d_model]; returns [m, n, d_model].
    """
    q, k, v = layer.project_qkv(x)  # [m, h, n, d_k]
    mem = accumulate_memory(k[0:1], v[0:1])
    for i in range(1, x.shape[0]):
        mem = mem + accumulate_memory(k[i:i + 1], v[i:i + 1])
    outs = []
    for i in range(x.shape[0]):
        a_mem = retrieve_memory(q[i:i + 1], mem, layer.config.epsilon)
        a_dot = dot_attention(q[i:i + 1], k[i:i + 1], v[i:i + 1])
        outs.append(gate_combine(a_mem, a_dot, layer.beta))
    return Tensor(np.concatenate([o.data for o in outs])) @ layer.wo
