"""Property tests of the primitive autodiff ops across broadcast shapes.

``+``, ``*``, ``/``, ``-`` (add of a negation), ``sum``, ``mean``,
``reshape`` and ``swapaxes`` are checked in float32 and float64 against
numpy: values against the numpy expression, gradients of
``L = sum(g * op(...))`` against the closed-form derivative, reduced to each
operand's shape by summing every broadcast axis in one call. A tensor's
first gradient contribution is copied as it arrives, not added onto zeros of
the tensor's shape, so these tests also pin that every gradient comes back
in its tensor's shape and dtype. Binary ops also run with the same tensor as
both operands, which takes the second-contribution path.

Tolerances were fixed before any result was seen: float64 1e-12 and
float32 1e-5, relative to the summed magnitudes of the terms that form each
element. Inputs stay out of the subnormal range (see ``floats``). Values
of the single-numpy-call ops, and the gradients that are pure data
movement, must be bitwise equal.

``Tensor.sum`` and ``Tensor.mean`` reduce over all elements; a reduction
over some axes, or one that keeps them, is the ``reduce_sum`` node of
``composite_chains``, which the chain oracles are built on.
"""

import numpy as np
import pytest

from composite_chains import reduce_sum
from icmixer.tensor import Tensor

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}


def reduce_to(grad, shape):
    """Sum the broadcast axes of ``grad`` away, in one call, leaving ``shape``."""
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and grad.shape[lead + i] != 1)
    return grad.sum(axis=axes).reshape(shape)


def assert_close(got, want, tol, scale):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.all(np.abs(got.astype(np.float64) - want.astype(np.float64)) <= tol * scale)


def run(op, *arrays):
    """(value, [dL/d operand]) of L = sum(g * op(*operands)), and the drawn g."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    rng = np.random.default_rng(out.size)
    g = rng.uniform(-10.0, 10.0, out.shape).astype(out.dtype)
    (out * Tensor(g)).sum().backward()
    for t in tensors:
        assert t.grad.dtype == t.dtype and t.grad.shape == t.shape
    return out.data, [t.grad for t in tensors], g


def magnitudes(dtype, lo, hi):
    width = np.dtype(dtype).itemsize * 8
    return st.floats(lo, hi, width=width) | st.floats(-hi, -lo, width=width)


def floats(dtype):
    # Zero or at least 2**-10 in magnitude, so that no product, quotient or
    # mean lands in the subnormal range, where one rounding is a large
    # relative error and no relative tolerance holds.
    return st.just(0.0) | magnitudes(dtype, 2.0 ** -10, 10.0)


def nonzero(dtype):
    return magnitudes(dtype, 0.5, 10.0)


# name -> (op, value oracle, oracle of (dL/da, dL/db) before reduction, their term scales)
BINARY = {
    "add": (lambda a, b: a + b, np.add,
            lambda a, b, g: (g, g), lambda a, b, g: (np.abs(g), np.abs(g))),
    "sub": (lambda a, b: a - b, np.subtract,
            lambda a, b, g: (g, -g), lambda a, b, g: (np.abs(g), np.abs(g))),
    "mul": (lambda a, b: a * b, np.multiply,
            lambda a, b, g: (g * b, g * a), lambda a, b, g: (np.abs(g * b), np.abs(g * a))),
    "truediv": (lambda a, b: a / b, np.divide,
                lambda a, b, g: (g / b, -g * a / (b * b)),
                lambda a, b, g: (np.abs(g / b), np.abs(g * a / (b * b)))),
}


@st.composite
def binary_case(draw):
    name = draw(st.sampled_from(sorted(BINARY)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    alias = draw(st.booleans())
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4,
                                                    max_side=4))
    a_shape, b_shape = shapes.input_shapes
    b_elements = nonzero(dtype) if name == "truediv" else floats(dtype)
    a = draw(hnp.arrays(dtype, a_shape, elements=b_elements if alias else floats(dtype)))
    b = a if alias else draw(hnp.arrays(dtype, b_shape, elements=b_elements))
    return name, a, b, alias


@hypothesis.settings(max_examples=400)
@hypothesis.given(binary_case())
def test_binary_ops_match_numpy(case):
    name, a, b, alias = case
    op, value_oracle, grad_oracle, scale_oracle = BINARY[name]
    tol = TOLERANCE[a.dtype.type]
    if alias:
        value, (grad,), g = run(lambda t: op(t, t), a)
        np.testing.assert_array_equal(value, value_oracle(a, a))
        want_a, want_b = grad_oracle(a, a, g)
        scale_a, scale_b = scale_oracle(a, a, g)
        assert_close(grad, want_a + want_b, tol, scale_a + scale_b)
        return
    value, grads, g = run(op, a, b)
    np.testing.assert_array_equal(value, value_oracle(a, b))
    for got, want, scale, x in zip(grads, grad_oracle(a, b, g), scale_oracle(a, b, g), (a, b)):
        want = np.broadcast_to(want, value.shape)
        scale = np.broadcast_to(scale, value.shape)
        assert_close(got, reduce_to(want, x.shape), tol, reduce_to(scale, x.shape))


@st.composite
def reduce_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=4, max_side=4),
                        elements=floats(dtype)))
    if x.ndim == 0:
        axis = None
    else:
        axes = draw(st.lists(st.integers(-x.ndim, x.ndim - 1), min_size=1, max_size=x.ndim,
                             unique_by=lambda ax: ax % x.ndim))
        axis = draw(st.sampled_from([None, axes[0], tuple(axes)]))
    return x, axis, draw(st.booleans())


def expand_like(g, x, axis, keepdims):
    """The upstream gradient of a reduction, broadcast back to the input's shape."""
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        g = np.expand_dims(g, tuple(sorted(ax % x.ndim for ax in axes)))
    return np.broadcast_to(g, x.shape)


def summed(t, axis, keepdims):
    """The engine's full sum where it applies, else the oracle's axis sum."""
    return t.sum() if axis is None and not keepdims else reduce_sum(t, axis, keepdims)


@hypothesis.settings(max_examples=300)
@hypothesis.given(reduce_case())
def test_sum_matches_numpy(case):
    x, axis, keepdims = case
    value, (grad,), g = run(lambda t: summed(t, axis, keepdims), x)
    np.testing.assert_array_equal(value, x.sum(axis=axis, keepdims=keepdims))
    np.testing.assert_array_equal(grad, expand_like(g, x, axis, keepdims))


@hypothesis.settings(max_examples=300)
@hypothesis.given(reduce_case())
def test_mean_matches_numpy(case):
    x, axis, keepdims = case
    count = x.size // max(x.sum(axis=axis, keepdims=keepdims).size, 1)
    if axis is None and not keepdims:
        value, (grad,), g = run(lambda t: t.mean(), x)
    else:
        value, (grad,), g = run(lambda t: reduce_sum(t, axis, keepdims) * (1.0 / count), x)
    tol = TOLERANCE[x.dtype.type]
    want = x.mean(axis=axis, keepdims=keepdims)
    assert_close(value, want, tol, np.abs(x).sum(axis=axis, keepdims=keepdims) / count)
    upstream = expand_like(g, x, axis, keepdims)
    assert_close(grad, upstream / x.dtype.type(count), tol, np.abs(upstream) / count)


@st.composite
def layout_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=4, max_side=4),
                        elements=floats(dtype)))
    return x, draw(st.integers(-x.ndim, x.ndim - 1)), draw(st.integers(-x.ndim, x.ndim - 1))


@hypothesis.settings(max_examples=200)
@hypothesis.given(layout_case())
def test_reshape_matches_numpy(case):
    x, ax1, _ = case
    shape = (*x.shape[:ax1 % x.ndim], -1)  # fold the trailing dims from ax1 on
    value, (grad,), g = run(lambda t: t.reshape(shape), x)
    np.testing.assert_array_equal(value, x.reshape(shape))
    np.testing.assert_array_equal(grad, g.reshape(x.shape))


@hypothesis.settings(max_examples=200)
@hypothesis.given(layout_case())
def test_swapaxes_matches_numpy(case):
    x, ax1, ax2 = case
    value, (grad,), g = run(lambda t: t.swapaxes(ax1, ax2), x)
    np.testing.assert_array_equal(value, x.swapaxes(ax1, ax2))
    np.testing.assert_array_equal(grad, g.swapaxes(ax1, ax2))
