"""The attention and memory math as chains of primitive Tensor ops.

These are the forms ``dot_attention``, ``accumulate_memory`` and
``retrieve_memory`` had before each became one graph node with a
hand-written backward. Built from ``matmul``, ``+``, ``*``, ``/``,
``reduce_sum``, ``reshape``, ``swapaxes``, ``softmax`` (numpy's reductions)
and ``sigma``, and differentiated by the autodiff engine node by node, they
are the oracles for the fused nodes' values and gradients.

The package's own ``@`` multiplies by a 2-D weight only and its ``sum``
reduces fully, so the batched product and the axis sum the chains need are
nodes of their own here.
"""

import math

import numpy as np

from icmixer.attention import sigma
from icmixer.tensor import DimensionError, Tensor, _unbroadcast


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
    return mem, z


def retrieve_memory_chain(q, mem, z, epsilon):
    sq = sigma(q)
    return matmul(sq, mem) / (matmul(sq, z) + epsilon)
