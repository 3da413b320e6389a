"""Property test of the matmul backward against the broadcast-and-reduce formula.

The engine folds the weight gradient of ``[..., n, d] @ [d, e]`` into one
GEMM over all leading dims. The oracle below is the direct formula: form the
per-item products ``a^T g`` and sum them down to the right operand's shape.
"""

import numpy as np
import pytest

from icmixer.tensor import Tensor

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Fixed before looking at any result: a few units in the last place of a
# ~300-term dot product, relative to the sum of the magnitudes of its terms.
TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}


def oracle_unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def oracle_grads(a, b, g):
    """(dL/da, dL/db) of L = sum(g * (a @ b)), plus the magnitude scale of each."""
    grad_a = oracle_unbroadcast(g @ b.swapaxes(-1, -2), a.shape)
    grad_b = oracle_unbroadcast(a.swapaxes(-1, -2) @ g, b.shape)
    scale_a = oracle_unbroadcast(np.abs(g) @ np.abs(b).swapaxes(-1, -2), a.shape)
    scale_b = oracle_unbroadcast(np.abs(a).swapaxes(-1, -2) @ np.abs(g), b.shape)
    return (grad_a, scale_a), (grad_b, scale_b)


@st.composite
def matmul_case(draw):
    lead = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n, d, e = (draw(st.integers(1, 4)) for _ in range(3))
    kind = draw(st.sampled_from(["weight", "batched", "broadcast"]))
    if kind == "weight":
        b_lead = []
    elif kind == "batched":
        b_lead = list(lead)
    else:
        keep = draw(st.integers(0, len(lead)))
        b_lead = [draw(st.sampled_from([1, size])) for size in lead[len(lead) - keep:]]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    return (*lead, n, d), (*b_lead, d, e), dtype, seed


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(matmul_case())
def test_matmul_grads_match_broadcast_oracle(case):
    a_shape, b_shape, dtype, seed = case
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True, dtype=dtype)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True, dtype=dtype)
    out = a @ b
    g = rng.standard_normal(out.shape).astype(dtype)
    (out * Tensor(g)).sum().backward()

    (want_a, scale_a), (want_b, scale_b) = oracle_grads(a.data, b.data, g)
    for got, want, scale in ((a.grad, want_a, scale_a), (b.grad, want_b, scale_b)):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= TOLERANCE[dtype] * scale)
