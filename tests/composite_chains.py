"""The attention and memory math as chains of primitive Tensor ops.

These are the forms ``dot_attention``, ``accumulate_memory`` and
``retrieve_memory`` had before each became one graph node with a
hand-written backward. Built from ``matmul``, ``+``, ``*``, ``/``, ``sum``,
``reshape``, ``swapaxes``, ``softmax`` (numpy's reductions) and ``sigma``,
and differentiated by the autodiff engine node by node, they are the
oracles for the fused nodes' values and gradients.
"""

import math

import numpy as np

from icmixer.attention import sigma
from icmixer.tensor import Tensor


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
    return (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))


def dot_attention_chain(q, k, v, bias=None):
    scores = attention_scores(q, k)
    if bias is not None:
        scores = scores + bias
    return softmax(scores, axis=-1) @ v


def accumulate_memory_chain(k, v):
    sk = sigma(k)
    mem = (sk.swapaxes(-1, -2) @ v).sum(axis=-4, keepdims=True)
    z = sk.sum(axis=(-4, -2), keepdims=True).reshape(*mem.shape[:-1], 1)
    return mem, z


def retrieve_memory_chain(q, mem, z, epsilon):
    sq = sigma(q)
    return (sq @ mem) / (sq @ z + epsilon)
