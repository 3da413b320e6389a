"""The attention, memory, gate and feed-forward math as chains of primitive Tensor ops.

These are the forms ``dot_attention``, ``accumulate_memory``,
``retrieve_memory``, ``gate_combine`` and ``feed_forward`` had before each
became one graph node with a hand-written backward. Built from ``matmul``, ``linear``, ``+``, ``*``, ``neg``,
``truediv``, ``reduce_sum``, ``reshape``, ``swapaxes``, basic indexing
(``index``), ``join``, ``softmax`` (numpy's reductions), ``sigma``,
``sigmoid`` and ``relu``, and differentiated by the autodiff engine node by
node, they are the oracles for the fused nodes' values and gradients. Like
the fused nodes, the chains take Q, K, V and attention outputs in the
model's merged layout [..., n, h*d_k]; ``split`` and ``merge`` move them to
and from the per-head layout [..., h, n, d_k].

The package's engine has only ``+``, ``*``, ``@`` by a 2-D weight and
``reshape``, so the batched product, the sums, the quotient, the negation,
the axis swap and the indexing the chains need are nodes of their own here.
So are the feature map ``sigma``, which the fused memory nodes apply to
arrays, ``join``, which lays out the memory ``[M | z]``, ``relu``, which the
fused ``feed_forward`` node applies in place, and ``sigmoid``, which the
fused ``gate_combine`` node applies to its gate. As in the package, each
closure captures its operands' graph nodes and the arrays it reads.
"""

import math

import numpy as np

from icmixer.attention import _sigma
from icmixer.tensor import DimensionError, Tensor, _nodes, _unbroadcast, expit, linear


def sigma(x):
    """Strictly positive feature map ELU(x) + 1, as one graph node.

    The derivative min(sigma(x), 1) is read from the output, so nothing else
    is saved for backward.
    """
    out_data = _sigma(x.data)
    x, = _nodes(x)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * np.minimum(out_data, 1))

    return Tensor._make(out_data, (x,), bwd)


def relu(x):
    """max(x, 0) as one graph node; NaN propagates.

    The derivative is read from the output, so nothing else is saved.
    """
    out_data = np.maximum(x.data, 0)
    x, = _nodes(x)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (out_data > 0))

    return Tensor._make(out_data, (x,), bwd)


def sigmoid(x):
    """The logistic function ``expit`` as one graph node; backward reads the output."""
    out_data = expit(x.data)
    x, = _nodes(x)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), bwd)


def matmul(a, b):
    """``a @ b`` broadcast over the leading dims of both operands, as one node."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    out_data = a_data @ b_data
    a, b = _nodes(a, b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ b_data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(a_data.swapaxes(-1, -2) @ g, b.shape))

    return Tensor._make(out_data, (a, b), bwd)


def truediv(a, b):
    """``a / b`` under broadcasting, as one node; a constant ``b`` takes a's dtype."""
    b = a._coerce(b)
    b_data = b.data
    out_data = a.data / b_data
    a, b = _nodes(a, b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b_data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * out_data / b_data, b.shape))

    return Tensor._make(out_data, (a, b), bwd)


def reduce_sum(t, axis=None, keepdims=False):
    """numpy's ``sum`` over ``axis`` (an int, a tuple or None: every element), as one node."""
    in_shape, out_data = t.shape, t.data.sum(axis=axis, keepdims=keepdims)
    t, = _nodes(t)

    def bwd(g):
        if t.requires_grad:
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(sorted(ax % len(in_shape) for ax in axes)))
            t._accumulate(np.broadcast_to(g, in_shape))

    return Tensor._make(out_data, (t,), bwd)


def neg(t):
    """``-t`` as one node."""
    out_data = -t.data
    t, = _nodes(t)

    def bwd(g):
        if t.requires_grad:
            t._accumulate(-g)

    return Tensor._make(out_data, (t,), bwd)


def swapaxes(t, ax1, ax2):
    """``t.swapaxes(ax1, ax2)`` as one node; the backward swaps the gradient back."""
    out_data = t.data.swapaxes(ax1, ax2)
    t, = _nodes(t)

    def bwd(g):
        if t.requires_grad:
            t._accumulate(g.swapaxes(ax1, ax2))

    return Tensor._make(out_data, (t,), bwd)


def index(t, key):
    """``t[key]`` for basic indexing only: ints, slices, None and Ellipsis, as one node.

    Such a key selects each element at most once, so the backward can
    assign the gradient into place.
    """
    for k in key if isinstance(key, tuple) else (key,):
        if isinstance(k, bool) or not isinstance(
                k, (int, np.integer, slice, type(None), type(Ellipsis))):
            raise DimensionError(f"Tensor index must be ints, slices, None or ...; got {key!r}")

    out_data = t.data[key]
    t, = _nodes(t)

    def bwd(g):
        if t.requires_grad:
            full = np.zeros(t.shape, t.dtype)
            full[key] = g
            t._accumulate(full)

    return Tensor._make(out_data, (t,), bwd)


def join(a, b):
    """``[a | b]``, the two operands side by side along the last axis, as one node."""
    split = a.shape[-1]
    out_data = np.concatenate([a.data, b.data], axis=-1)
    a, b = _nodes(a, b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g[..., :split])
        if b.requires_grad:
            b._accumulate(g[..., split:])

    return Tensor._make(out_data, (a, b), bwd)


def softmax(t, axis=-1):
    """Softmax over any axis as one node, bitwise numpy's in-place formula."""
    out_data = t.data - t.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)
    t, = _nodes(t)

    def bwd(g):
        if t.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            t._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (t,), bwd)


def split(x, n_heads):
    """[..., n, h*d_k] -> [..., h, n, d_k]."""
    *lead, n, width = x.shape
    return swapaxes(x.reshape(*lead, n, n_heads, width // n_heads), -3, -2)


def merge(x):
    """[..., h, n, d_k] -> [..., n, h*d_k]."""
    *lead, h, n, d_k = x.shape
    return swapaxes(x, -3, -2).reshape(*lead, n, h * d_k)


def attention_scores(q, k):
    """Scaled dot-product scores Q K^T / sqrt(d_k) of per-head Q and K, [..., n_q, n_k]."""
    return matmul(q, swapaxes(k, -1, -2)) * (1.0 / math.sqrt(q.shape[-1]))


def dot_attention_chain(q, k, v, n_heads, bias=None):
    scores = attention_scores(split(q, n_heads), split(k, n_heads))
    if bias is not None:
        scores = scores + bias
    return merge(matmul(softmax(scores, axis=-1), split(v, n_heads)))


def accumulate_memory_chain(k, v, n_heads):
    sk, v = sigma(split(k, n_heads)), split(v, n_heads)
    mem = reduce_sum(matmul(swapaxes(sk, -1, -2), v), axis=-4, keepdims=True)
    z = reduce_sum(sk, axis=(-4, -2), keepdims=True).reshape(*mem.shape[:-1], 1)
    return join(mem, z)


def retrieve_memory_chain(q, mem, epsilon):
    sq = sigma(split(q, mem.shape[-3]))
    num = matmul(sq, index(mem, np.s_[..., :-1]))
    return merge(truediv(num, matmul(sq, index(mem, np.s_[..., -1:])) + epsilon))


def gate_combine_chain(a_mem, a_dot, beta):
    h = beta.shape[0]
    g = sigmoid(beta).reshape(h, 1, 1)
    return merge(g * split(a_mem, h) + (1.0 + neg(g)) * split(a_dot, h))


def feed_forward_chain(x, w1, b1, w2, b2):
    return linear(relu(linear(x, w1, b1)), w2, b2)
