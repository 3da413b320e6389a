"""Property tests of matmul and linear against the broadcast-and-reduce formula.

The engine runs ``[..., d] @ [d, e] (+ b)`` as one GEMM over all leading
dims, forward and backward (``linear``). Products whose right operand has
batch dims of its own are the ``matmul`` node of ``composite_chains``,
which the chain oracles are built on. The formula below is the direct one:
form the per-item products ``a^T g`` and sum them down to the right
operand's shape.
"""

import numpy as np
import pytest

from composite_chains import matmul, reduce_sum
from icmixer.tensor import DimensionError, Tensor, linear

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
    return kind, (*lead, n, d), (*b_lead, d, e), dtype, seed


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(matmul_case())
def test_matmul_grads_match_broadcast_oracle(case):
    kind, a_shape, b_shape, dtype, seed = case
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True, dtype=dtype)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True, dtype=dtype)
    out = a @ b if kind == "weight" else matmul(a, b)
    g = rng.standard_normal(out.shape).astype(dtype)
    reduce_sum(out * Tensor(g)).backward()

    (want_a, scale_a), (want_b, scale_b) = oracle_grads(a.data, b.data, g)
    for got, want, scale in ((a.grad, want_a, scale_a), (b.grad, want_b, scale_b)):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= TOLERANCE[dtype] * scale)


@st.composite
def linear_case(draw):
    x_shape = [*draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)), draw(st.integers(1, 4))]
    d_out = draw(st.integers(1, 4))
    # Swapping two axes of a buffer laid out in the swapped order gives a
    # non-contiguous view of the drawn shape.
    swap = draw(st.none() | st.tuples(st.integers(0, len(x_shape) - 1),
                                      st.integers(0, len(x_shape) - 1)))
    with_bias = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    return tuple(x_shape), d_out, swap, with_bias, dtype, seed


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(linear_case())
def test_linear_matches_matmul_plus_bias_and_broadcast_oracle(case):
    x_shape, d_out, swap, with_bias, dtype, seed = case
    rng = np.random.default_rng(seed)
    if swap is None:
        x_data = rng.standard_normal(x_shape).astype(dtype)
    else:
        i, j = swap
        laid_out = list(x_shape)
        laid_out[i], laid_out[j] = laid_out[j], laid_out[i]
        x_data = rng.standard_normal(laid_out).astype(dtype).swapaxes(i, j)
    d = x_shape[-1]
    w_data = rng.standard_normal((d, d_out)).astype(dtype)
    b_data = rng.standard_normal(d_out).astype(dtype) if with_bias else np.zeros(d_out, dtype)
    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True) if with_bias else None

    out = linear(x, w, b)
    assert out._parents == ((x, w, b) if with_bias else (x, w))
    want = np.matmul(x_data, w_data) + b_data
    scale = np.abs(x_data) @ np.abs(w_data) + np.abs(b_data)
    assert out.dtype == dtype and out.shape == want.shape
    assert np.all(np.abs(out.data - want) <= TOLERANCE[dtype] * scale)

    # Inputs rebound after the forward pass, as an optimizer step does, must
    # not change the gradients: the backward uses the values it multiplied.
    x.data, w.data = x_data + 1, w_data + 1
    g = rng.standard_normal(out.shape).astype(dtype)
    reduce_sum(out * Tensor(g)).backward()

    (want_x, scale_x), (want_w, scale_w) = oracle_grads(x_data, w_data, g)
    checks = [(x.grad, want_x, scale_x), (w.grad, want_w, scale_w)]
    if with_bias:
        checks.append((b.grad, oracle_unbroadcast(g, b.shape), oracle_unbroadcast(np.abs(g), b.shape)))
    for got, want, scale in checks:
        assert got is not None and got.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= TOLERANCE[dtype] * scale)


def test_matmul_by_a_2d_weight_is_one_linear_node():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    w = Tensor(np.ones((4, 5)), requires_grad=True)
    out = x @ w
    assert out._parents == (x, w)
    np.testing.assert_array_equal(out.data, np.full((2, 3, 5), 4.0))


def test_linear_bias_promotes_like_an_add():
    x = Tensor(np.ones((2, 3), np.float32))
    w = Tensor(np.ones((3, 2), np.float32))
    b = Tensor(np.array([0.1, 0.2]))
    out = linear(x, w, b)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out.data, (x.data @ w.data) + b.data)


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((2, 3), (4, 5), None),       # inner dims differ
    ((2, 3), (3,), None),         # weight not 2-D
    ((2, 3), (3, 5), (2, 5)),     # bias not [d_out]
    ((2, 3), (3, 5), (4,)),
])
def test_linear_rejects_bad_shapes(x_shape, w_shape, b_shape):
    b = None if b_shape is None else Tensor(np.ones(b_shape))
    with pytest.raises(DimensionError):
        linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), b)
