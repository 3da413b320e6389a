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
    FORWARD_BLOCK_BYTES,
    DimensionError,
    Tensor,
    _nodes,
    _unbroadcast,
    blocks,
    draw_normal,
    expit,
    grad_enabled,
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


def _heads(n_heads: int, *arrays: np.ndarray) -> list:
    """The [..., h, n, d_k] views of [..., n, h*d_k] arrays of one width.

    Q, K, V and attention outputs keep the model's own token layout, so this
    is the one place that knows where a head's d_k columns sit. A view of a
    fresh array takes writes, so a per-head product lands in merged layout
    through ``np.matmul(..., out=_heads(h, out)[0])`` (see ``_matmul_merged``).
    """
    widths = {a.shape[-1] for a in arrays}
    if len(widths) != 1 or widths.pop() % n_heads or min(a.ndim for a in arrays) < 2:
        raise DimensionError(f"{n_heads} heads need arrays of one width divisible by "
                             f"{n_heads}, got shapes {[a.shape for a in arrays]}")
    return [a.reshape(*a.shape[:-1], n_heads, a.shape[-1] // n_heads).swapaxes(-3, -2)
            for a in arrays]


def _matmul_merged(a: np.ndarray, b: np.ndarray, shape: tuple, n_heads: int) -> np.ndarray:
    """``a @ b`` per head, written into a fresh merged [..., n, h*d_k] array of ``shape``."""
    out = np.empty(shape, dtype=np.result_type(a, b))
    np.matmul(a, b, out=_heads(n_heads, out)[0])
    return out


def accumulate_memory(k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Fold keys/values [..., m, n, d_model] of all m channels into one memory.

    Returns ``[M | z]`` [..., 1, h, d_k, d_k + 1] as one node and one array:
    M = sigma(K)^T V is one GEMM per (batch, head) over all m*n channel-tokens
    (views of the token rows, no copy), z its last column, the key sums. The
    channel axis broadcasts against per-channel queries. The backward keeps
    K and V and recomputes sigma(K) from K, bitwise the forward's.
    """
    if k.shape != v.shape or k.ndim < 3:
        raise DimensionError(
            f"memory accumulation needs equal [..., m, n, d] K and V, got {k.shape}, {v.shape}")
    *lead, m, n, _ = k.shape
    k_data = k.data
    sk = _sigma(k_data)
    sk_h, v_h = _heads(n_heads, sk, v.data)  # [..., m, h, n, d_k]
    d_k = sk_h.shape[-1]
    sk_tok, v_tok = (a.swapaxes(-4, -3).reshape(*lead, n_heads, m * n, d_k) for a in (sk_h, v_h))
    mem = np.empty((*lead, 1, n_heads, d_k, d_k + 1), dtype=np.result_type(sk, v.data))
    np.matmul(sk_tok.swapaxes(-1, -2), v_tok, out=mem[..., 0, :, :, :-1])
    np.sum(sk_tok, axis=-2, out=mem[..., 0, :, :, -1])
    k, v = _nodes(k, v)

    def bwd(g):  # g: [..., 1, h, d_k, d_k + 1], broadcast over the channels
        g_m = g[..., :-1]
        sk = _sigma(k_data)
        if v.requires_grad:
            v._accumulate(_matmul_merged(_heads(n_heads, sk)[0], g_m, v.shape, n_heads),
                          fresh=True)
        if k.requires_grad:
            g_sk = _matmul_merged(v_h, g_m.swapaxes(-1, -2), k.shape, n_heads)
            g_sk_h = _heads(n_heads, g_sk)[0]
            g_sk_h += g[..., -1:].swapaxes(-1, -2)  # each key row receives dL/dz^T
            g_sk *= np.minimum(sk, 1, out=sk)  # sigma'(K), over sigma(K)
            k._accumulate(g_sk, fresh=True)

    return Tensor._make(mem, (k, v), bwd)


def retrieve_memory(q: Tensor, mem: Tensor, epsilon: float) -> Tensor:
    """Query a memory ``[M | z]``: sigma(Q) M / (sigma(Q) z + epsilon), as one node.

    ``q`` is [..., n, d_model] and the head count is read from ``mem``
    [..., h, d_k, d_k + 1]. Numerator and denominator come from one product
    sigma(Q) [M | z]; their quotient is written in merged layout. The
    backward keeps only Q and the memory: it recomputes sigma(Q) from Q and
    repeats the product and the quotient, each bitwise the forward's.
    """
    check_positive("epsilon", epsilon)
    h, d_k = mem.shape[-3:-1]
    if q.shape[-1] != h * d_k:
        raise DimensionError(f"query {q.shape} does not match the memory {mem.shape}")
    q_data, mem_data = q.data, mem.data

    def quotient(sq_h):
        """The denominator sigma(Q) z + epsilon and the quotient, in merged layout."""
        num_den = sq_h @ mem_data
        den = num_den[..., -1:] + epsilon
        out = np.empty((*num_den.shape[:-3], *q_data.shape[-2:]), dtype=num_den.dtype)
        np.divide(num_den[..., :-1], den, out=_heads(h, out)[0])
        return den, out

    _, out_data = quotient(_heads(h, _sigma(q_data))[0])
    out_shape = out_data.shape
    q, mem = _nodes(q, mem)

    def bwd(g):  # dL/d(sigma(Q) [M | z]) = [dL/dnum | dL/dden]
        sq = _heads(h, _sigma(q_data))[0]
        den, out = quotient(sq)
        g_nd = np.empty((*den.shape[:-1], d_k + 1), dtype=den.dtype)
        g_num = np.divide(_heads(h, g)[0], den, out=g_nd[..., :-1])
        g_nd[..., -1:] = -row_sum(g_num * _heads(h, out)[0])
        del out  # the rebuilt quotient is not needed by the two products below
        if mem.requires_grad:
            mem._accumulate(_unbroadcast(sq.swapaxes(-1, -2) @ g_nd, mem.shape), fresh=True)
        if q.requires_grad:
            g_sq = _matmul_merged(g_nd, mem_data.swapaxes(-1, -2), out_shape, h)
            g_sq_h = _heads(h, g_sq)[0]
            g_sq_h *= np.minimum(sq, 1, out=sq)  # sigma'(Q), over sigma(Q)
            q._accumulate(_unbroadcast(g_sq, q.shape), fresh=True)

    return Tensor._make(out_data, (q, mem), bwd)


def _subtract_row_dots(g: np.ndarray, p: np.ndarray, scratch: np.ndarray):
    """``g -= row_sum(g * p)`` in place, with the products written into ``scratch``.

    The rows go a chunk at a time, as many as the contiguous ``scratch``
    holds, so no array of ``g``'s size is made. ``row_sum`` sums each row
    alike whatever rows share its call, so the result is bitwise that of
    one pass.
    """
    n = g.shape[-1]
    g_rows, p_rows, flat = g.reshape(-1, n), p.reshape(-1, n), scratch.reshape(-1)
    chunk = max(1, flat.size // n)
    for lo in range(0, len(g_rows), chunk):
        rows = slice(lo, lo + chunk)
        product = flat[:g_rows[rows].size].reshape(-1, n)
        g_rows[rows] -= row_sum(np.multiply(g_rows[rows], p_rows[rows], out=product))


def dot_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                  bias: Tensor | None = None) -> Tensor:
    """Bidirectional multi-head scaled dot-product attention, as one node.

    Per head, ``softmax(Q K^T / sqrt(d_k) + bias) V`` on [..., n, d_model]
    Q, K and V, with an optional additive ``bias`` [n_q, n_k] that every item
    and head shares; the heads come back merged, [..., n_q, d_model].
    Besides the inputs, the backward keeps two statistics of each score row,
    its max and its sum of exponentials: no score-sized array outlives the
    forward.

    Forward and backward run in the fewest near-equal tiles of whole items
    along the first axis of the scores that keep a tile's scores within
    ``FORWARD_BLOCK_BYTES // 2`` (``blocks``): a tile's backward holds two
    arrays of its scores' size, its probabilities and dL/dp, so half the
    budget keeps a tile's working set near one core's L2 cache. The forward
    runs every tile through one tile-sized buffer. The backward recomputes
    a tile's probabilities with the forward's GEMM, scale and bias, then
    subtracts the saved max, exponentiates and divides by the saved sum,
    which gives the forward's tile bitwise (a saved log-sum-exp would not).
    Each element is computed as in one untiled pass, so outputs and the
    q/k/v gradients do not depend on the tiling; only the bias gradient,
    summed tile by tile, rounds differently.
    """
    if not q.shape[:-2] == k.shape[:-2] == v.shape[:-2] or k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"attention needs Q, K and V of equal leading dims and as many "
                             f"keys as values, got {q.shape}, {k.shape}, {v.shape}")
    q_h, k_h, v_h = _heads(n_heads, q.data, k.data, v.data)
    scale = 1.0 / math.sqrt(q_h.shape[-1])
    shape = (*q_h.shape[:-1], k_h.shape[-2])  # of the scores, [..., h, n_q, n_k]
    dtype = np.result_type(q_h, k_h)
    if bias is not None and bias.shape != shape[-2:]:
        raise DimensionError(f"attention bias must be [n_q, n_k] = {shape[-2:]}, got {bias.shape}")
    tiles = blocks(shape[0], math.prod(shape[1:]) * dtype.itemsize, FORWARD_BLOCK_BYTES // 2)
    tile_shape = (-(-shape[0] // len(tiles)), *shape[1:])  # of the largest tile's scores
    b_data = None if bias is None else bias.data

    def scores(t, out):
        """Tile ``t``'s scores ``Q K^T / sqrt(d_k) + bias``, written into ``out``."""
        np.matmul(q_h[t], k_h[t].swapaxes(-1, -2), out=out)
        out *= scale
        if b_data is not None:
            out += b_data
        return out

    q, k, v, bias = _nodes(q, k, v, bias)
    parents = (q, k, v) if bias is None else (q, k, v, bias)
    p = np.empty(tile_shape, dtype)
    out_data = np.empty((*shape[:-3], *q.shape[-2:]), np.result_type(p, v_h))
    out_h = _heads(n_heads, out_data)[0]
    stats = []  # per tile, each score row's max and sum of exponentials; only bwd keeps them
    for t in tiles:
        p_t = scores(t, p[:t.stop - t.start])
        p_max = row_max(p_t)
        p_t -= p_max  # softmax over keys, in place
        np.exp(p_t, out=p_t)
        p_sum = row_sum(p_t)
        p_t /= p_sum
        np.matmul(p_t, v_h[t], out=out_h[t])
        stats.append((p_max, p_sum))

    def bwd(g):
        g_h = _heads(n_heads, g)[0]
        g_dtype = np.result_type(dtype, g_h, v_h)
        g_v, g_q, g_k = (np.empty(t.shape, g_dtype) for t in (v, q, k))
        g_v_h, g_q_h, g_k_h = _heads(n_heads, g_v, g_q, g_k)
        g_b = np.zeros(b_data.shape, g_dtype) if bias is not None and bias.requires_grad else None
        g_p = np.empty(tile_shape, np.result_type(g_h, v_h))  # dL/dp of each tile in turn
        for t, (p_max, p_sum) in zip(tiles, stats):
            g_t = g_h[t]
            p_t = scores(t, np.empty((t.stop - t.start, *shape[1:]), dtype))
            p_t -= p_max
            np.exp(p_t, out=p_t)
            p_t /= p_sum
            if v.requires_grad:
                np.matmul(p_t.swapaxes(-1, -2), g_t, out=g_v_h[t])
            # dL/dp, then in place dL/dscores
            g_scores = np.matmul(g_t, v_h[t].swapaxes(-1, -2), out=g_p[:t.stop - t.start])
            # The tile's dL/dk slot is written last, so it holds the products.
            _subtract_row_dots(g_scores, p_t, g_k[t])
            g_scores *= p_t
            del p_t  # freed before the bias gradient's partial sums are made
            if g_b is not None:  # summed over the tile's items, then its heads
                g_b += _unbroadcast(g_scores, g_b.shape)
            g_scores *= scale
            if q.requires_grad:
                np.matmul(g_scores, k_h[t], out=g_q_h[t])
            if k.requires_grad:
                np.matmul(g_scores.swapaxes(-1, -2), q_h[t], out=g_k_h[t])
        for t, grad in ((v, g_v), (bias, g_b), (q, g_q), (k, g_k)):
            if t is not None and t.requires_grad:
                t._accumulate(grad, fresh=True)

    return Tensor._make(out_data, parents, bwd)


def gate_combine(a_mem: Tensor, a_dot: Tensor, beta: Tensor) -> Tensor:
    """Per-head convex combination g a_mem + (1 - g) a_dot, g = sigmoid(beta), as one node.

    ``a_mem`` and ``a_dot`` are [..., n, h*d_k] with h = len(beta): each
    head's gate scales its d_k columns. The backward keeps one array, the
    difference ``a_mem - a_dot`` that the gate's gradient reads, and only
    when a graph is recorded and the gate trains.
    """
    h = beta.shape[0] if beta.ndim == 1 else 0
    if a_mem.shape != a_dot.shape or not h or a_mem.shape[-1] % h:
        raise DimensionError(f"gate_combine needs equal [..., n, h*d_k] inputs and [h] gates, "
                             f"got {a_mem.shape}, {a_dot.shape}, {beta.shape}")
    d_k = a_mem.shape[-1] // h
    s = expit(beta.data)
    g = np.repeat(s, d_k)
    mem_data, dot_data = a_mem.data, a_dot.data
    out_data = g * mem_data
    out_data += (1.0 - g) * dot_data
    diff = mem_data - dot_data if grad_enabled() and beta.requires_grad else None
    a_mem, a_dot, beta = _nodes(a_mem, a_dot, beta)

    def bwd(grad):
        if a_mem.requires_grad:
            a_mem._accumulate(grad * g, fresh=True)
        if a_dot.requires_grad:
            a_dot._accumulate(grad * (1.0 - g), fresh=True)
        if beta.requires_grad:
            diff_grad = np.multiply(diff, grad, out=diff)  # the closure runs once
            per_head = _unbroadcast(diff_grad, g.shape).reshape(h, d_k).sum(axis=-1)
            beta._accumulate(per_head * s * (1.0 - s), fresh=True)

    return Tensor._make(out_data, (a_mem, a_dot, beta), bwd)


class MultiHeadSelfAttention:
    """Vanilla per-sequence attention; leading dims (batch, channel) are batched."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator, prefix: str, param):
        self.config = config
        d = config.d_model
        scale = 1.0 / math.sqrt(d)
        self.wq, self.wk, self.wv, self.wo = (
            param(f"{prefix}.{name}", (d, d),
                  lambda shape, dtype: draw_normal(rng, shape, dtype, lambda z: z * scale))
            for name in ("wq", "wk", "wv", "wo"))

    def project_qkv(self, x: Tensor):
        """[..., n, d_model] -> Q, K, V, each [..., n, d_model]; the three share ``x``."""
        return tuple(x @ w for w in (self.wq, self.wk, self.wv))

    def __call__(self, x: Tensor) -> Tensor:
        q, k, v = self.project_qkv(x)
        return dot_attention(q, k, v, self.config.n_heads) @ self.wo


class ICMAttention(MultiHeadSelfAttention):
    """Attention with a per-layer compressive memory shared across channels.

    Input is [batch, m, n, d_model]. A fresh memory is built per forward call:
    every channel's sigma(K)^T V is summed into M (and key sums into z), then
    each channel retrieves from the completed memory. Accumulation finishes
    before any retrieval, so channel order cannot matter.
    """

    def __init__(self, config, rng, prefix, param):
        super().__init__(config, rng, prefix, param)
        self.beta = param(f"{prefix}.beta", (config.n_heads,), np.zeros)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"expected [batch, m, n, d_model], got {x.shape}")
        if x.shape[1] == 0:
            raise DimensionError("at least one channel is required")
        h = self.config.n_heads
        q, k, v = self.project_qkv(x)
        a_mem = retrieve_memory(q, accumulate_memory(k, v, h), self.config.epsilon)
        return gate_combine(a_mem, dot_attention(q, k, v, h), self.beta) @ self.wo


def icm_attention_reference(x: Tensor, layer: ICMAttention) -> Tensor:
    """Channel-at-a-time transcription of the memory equations, for one batch item.

    Slow path used as an independent check of the vectorized layer:
    x is [m, n, d_model]; returns [m, n, d_model].
    """
    h = layer.config.n_heads
    q, k, v = (t.data for t in layer.project_qkv(x))  # each [m, n, d_model]
    mem = accumulate_memory(Tensor(k[0:1]), Tensor(v[0:1]), h)
    for i in range(1, x.shape[0]):
        mem = mem + accumulate_memory(Tensor(k[i:i + 1]), Tensor(v[i:i + 1]), h)
    outs = []
    for i in range(x.shape[0]):
        q_i, k_i, v_i = (Tensor(a[i:i + 1]) for a in (q, k, v))
        a_mem = retrieve_memory(q_i, mem, layer.config.epsilon)
        outs.append(gate_combine(a_mem, dot_attention(q_i, k_i, v_i, h), layer.beta))
    return Tensor(np.concatenate([o.data for o in outs])) @ layer.wo
