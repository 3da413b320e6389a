"""The attention, memory, gate and feed-forward math as chains of primitive Tensor ops.

These are the forms ``dot_attention``, ``accumulate_memory``,
``retrieve_memory``, ``gate_combine`` and ``feed_forward`` had before each
became one graph node with a hand-written backward. Built from ``matmul``,
``linear``, ``+``, ``*``, ``truediv``, ``reduce_sum``, ``reshape``,
``swapaxes``, basic indexing, ``join``, ``softmax`` (numpy's reductions),
``sigma``, ``sigmoid`` and ``relu``, and differentiated by the autodiff
engine node by node, they are the oracles for the fused nodes' values and
gradients.

The package's own ``@`` multiplies by a 2-D weight only, its ``sum``
reduces fully and it has no division, so the batched product, the axis sum
and the quotient the chains need are nodes of their own here. So are the
feature map ``sigma``, which the fused memory nodes apply to arrays,
``join``, which lays out the memory ``[M | z]``, ``relu``, which the fused
``feed_forward`` node applies in place, and ``sigmoid``, which the fused
``gate_combine`` node applies to its gate.
"""

import math

import numpy as np

from icmixer.attention import _sigma, merge_heads
from icmixer.tensor import DimensionError, Tensor, _unbroadcast, expit, linear


def sigma(x):
    """Strictly positive feature map ELU(x) + 1, as one graph node.

    The derivative min(sigma(x), 1) is read from the output, so nothing else
    is saved for backward.
    """
    out_data = _sigma(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * np.minimum(out_data, 1))

    return Tensor._make(out_data, (x,), bwd)


def relu(x):
    """max(x, 0) as one graph node; NaN propagates.

    The derivative is read from the output, so nothing else is saved.
    """
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (out_data > 0))

    return Tensor._make(out_data, (x,), bwd)


def sigmoid(x):
    """The logistic function ``expit`` as one graph node; backward reads the output."""
    out_data = expit(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), bwd)


def matmul(a, b):
    """``a @ b`` broadcast over the leading dims of both operands, as one node."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return Tensor._make(out_data, (a, b), bwd)


def truediv(a, b):
    """``a / b`` under broadcasting, as one node; a constant ``b`` takes a's dtype."""
    b = a._coerce(b)
    out_data = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * out_data / b.data, b.shape))

    return Tensor._make(out_data, (a, b), bwd)


def reduce_sum(t, axis=None, keepdims=False):
    """numpy's ``sum`` over ``axis`` (an int, a tuple or None), as one node."""
    in_shape = t.shape

    def bwd(g):
        if t.requires_grad:
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(sorted(ax % len(in_shape) for ax in axes)))
            t._accumulate(np.broadcast_to(g, in_shape))

    return Tensor._make(t.data.sum(axis=axis, keepdims=keepdims), (t,), bwd)


def join(a, b):
    """``[a | b]``, the two operands side by side along the last axis, as one node."""
    split = a.shape[-1]

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g[..., :split])
        if b.requires_grad:
            b._accumulate(g[..., split:])

    return Tensor._make(np.concatenate([a.data, b.data], axis=-1), (a, b), bwd)


def softmax(t, axis=-1):
    """Softmax over any axis as one node, bitwise numpy's in-place formula."""
    out_data = t.data - t.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def bwd(g):
        if t.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            t._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (t,), bwd)


def attention_scores(q, k):
    """Scaled dot-product scores Q K^T / sqrt(d_k), [..., n_q, n_k]."""
    return matmul(q, k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))


def dot_attention_chain(q, k, v, bias=None):
    scores = attention_scores(q, k)
    if bias is not None:
        scores = scores + bias
    return matmul(softmax(scores, axis=-1), v)


def accumulate_memory_chain(k, v):
    sk = sigma(k)
    mem = reduce_sum(matmul(sk.swapaxes(-1, -2), v), axis=-4, keepdims=True)
    z = reduce_sum(sk, axis=(-4, -2), keepdims=True).reshape(*mem.shape[:-1], 1)
    return join(mem, z)


def retrieve_memory_chain(q, mem, epsilon):
    sq = sigma(q)
    return truediv(matmul(sq, mem[..., :-1]), matmul(sq, mem[..., -1:]) + epsilon)


def gate_combine_chain(a_mem, a_dot, beta):
    g = sigmoid(beta).reshape(beta.shape[0], 1, 1)
    return merge_heads(g * a_mem + (1.0 - g) * a_dot)


def feed_forward_chain(x, w1, b1, w2, b2):
    return linear(relu(linear(x, w1, b1)), w2, b2)
