"""Property tests of the single-node nonlinearities against slow transcriptions.

``relu``, ``sigma``, ``layer_norm`` and ``softmax`` each run as one graph
node with a hand-written backward. The oracles below compute the same
values and gradients another way: ``relu`` and ``sigma`` element by element
in Python, ``layer_norm`` as the chain of primitive Tensor ops it used to be
(differentiated by the engine's own primitive backwards), and ``softmax``
as the out-of-place formula.

Tolerances were fixed before any result was seen. Each error is measured
relative to the largest magnitude of the checked array, taken over the
terms that form it (see ``assert_close``): float64 1e-12 for values and for
the gain and bias gradients, 1e-9 for the layer_norm input gradient, whose
terms cancel, and float32 1e-5 for everything.
"""

import math

import numpy as np
import pytest

from icmixer.attention import sigma
from icmixer.tensor import Parameter, Tensor, layer_norm

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}
LN_INPUT_GRAD_TOLERANCE = {np.float32: 1e-5, np.float64: 1e-9}


def assert_close(actual, expected, tol, scale):
    """max |actual - expected| <= tol * max(scale), with matching dtype and shape."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    err = np.max(np.abs(actual.astype(np.float64) - expected.astype(np.float64)), initial=0.0)
    bound = tol * np.max(scale, initial=0.0)
    assert err <= bound, f"error {err:.3g} > {bound:.3g}"


@st.composite
def case(draw, lo=-100.0, hi=100.0):
    """(x, g): an input of 1-4 dims in f32 or f64 and an upstream gradient."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5))
    width = 32 if dtype == np.float32 else 64

    def floats(a, b):
        return hnp.arrays(dtype, shape, elements=st.floats(a, b, width=width))

    return draw(floats(lo, hi)), draw(floats(-10.0, 10.0))


def run(op, x, g, *params):
    """(value, dL/dx, dL/dparams) of L = sum(g * op(x, *params))."""
    xt = Tensor(x.copy(), requires_grad=True)
    out = op(xt, *params)
    (out * Tensor(g)).sum().backward()
    return out.data, xt.grad, [p.grad for p in params if p is not None]


def elementwise(fn, x):
    return np.array([fn(float(v)) for v in x.reshape(-1)], dtype=x.dtype).reshape(x.shape)


@hypothesis.settings(max_examples=200)
@hypothesis.given(case())
def test_relu_matches_elementwise_oracle(xg):
    x, g = xg
    value, grad, _ = run(Tensor.relu, x, g)
    tol = TOLERANCE[x.dtype.type]
    expected = elementwise(lambda v: v if v > 0 else 0.0, x)
    assert_close(value, expected, tol, np.abs(expected))
    expected_grad = g * elementwise(lambda v: 1.0 if v > 0 else 0.0, x)
    assert_close(grad, expected_grad, tol, np.abs(expected_grad))


@hypothesis.settings(max_examples=200)
@hypothesis.given(case())
def test_sigma_matches_elementwise_oracle(xg):
    x, g = xg
    value, grad, _ = run(sigma, x, g)
    tol = TOLERANCE[x.dtype.type]
    expected = elementwise(lambda v: v + 1.0 if v >= 0 else math.exp(v), x)
    assert_close(value, expected, tol, np.abs(expected))
    expected_grad = g * elementwise(lambda v: 1.0 if v >= 0 else math.exp(v), x)
    assert_close(grad, expected_grad, tol, np.abs(expected_grad))


@hypothesis.settings(max_examples=200)
@hypothesis.given(case(), st.data())
def test_softmax_matches_out_of_place_formula(xg, data):
    x, g = xg
    axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
    value, grad, _ = run(lambda t: t.softmax(axis=axis), x, g)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    expected = e / e.sum(axis=axis, keepdims=True)
    # Same operations in the same order, on a reused buffer: bitwise equal.
    np.testing.assert_array_equal(value, expected)
    dot = (g * expected).sum(axis=axis, keepdims=True)
    scale = expected * (np.abs(g) + (np.abs(g) * expected).sum(axis=axis, keepdims=True))
    assert_close(grad, expected * (g - dot), TOLERANCE[x.dtype.type], scale)


def layer_norm_chain(x, gain=None, bias=None, eps=1e-5):
    """The former layer_norm: a chain of primitive Tensor ops."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    out = centered / (var + eps).sqrt()
    if gain is not None:
        out = out * gain
    if bias is not None:
        out = out + bias
    return out


def sum_to_last_axis(a):
    return a.reshape(-1, a.shape[-1]).sum(axis=0)


@hypothesis.settings(max_examples=300)
@hypothesis.given(case(), st.booleans(), st.booleans(), st.data())
def test_layer_norm_matches_node_chain(xg, with_gain, with_bias, data):
    x, g = xg
    dtype, d = x.dtype.type, x.shape[-1]
    affine = hnp.arrays(dtype, (d,), elements=st.floats(-10.0, 10.0, width=x.dtype.itemsize * 8))
    gain = Parameter(data.draw(affine), "gain") if with_gain else None
    bias = Parameter(data.draw(affine), "bias") if with_bias else None

    value, grad, param_grads = run(layer_norm, x, g, gain, bias)
    for p in (gain, bias):
        if p is not None:
            p.zero_grad()
    expected, expected_grad, expected_param_grads = run(layer_norm_chain, x, g, gain, bias)

    # Term magnitudes: xhat = (x - mean) * rstd is formed from terms up to
    # (|x| + |mean|) * rstd, and the gradients are sums of products of those.
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(((x64 - mean) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xmag = (np.abs(x64) + np.abs(mean)) * rstd
    gain_mag = np.abs(gain.data) if gain is not None else 1.0
    bias_mag = np.abs(bias.data) if bias is not None else 0.0
    gx = np.abs(g64) * gain_mag
    tol = TOLERANCE[dtype]

    assert_close(value, expected, tol, xmag * gain_mag + bias_mag)
    x_grad_scale = rstd * (gx + gx.mean(axis=-1, keepdims=True)
                           + xmag * (gx * xmag).mean(axis=-1, keepdims=True))
    assert_close(grad, expected_grad, LN_INPUT_GRAD_TOLERANCE[dtype], x_grad_scale)
    scales = []
    if gain is not None:
        scales.append(sum_to_last_axis(np.abs(g64) * xmag))
    if bias is not None:
        scales.append(sum_to_last_axis(np.abs(g64)))
    for got, want, scale in zip(param_grads, expected_param_grads, scales):
        assert_close(got, want, tol, scale)


def test_relu_propagates_nan():
    out = Tensor([np.nan, -1.0, 2.0]).relu().data
    assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0


@pytest.mark.parametrize("with_bias", [False, True])
def test_layer_norm_output_does_not_alias_saved_state(with_bias):
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
    bias = Parameter(rng.standard_normal(6), "bias") if with_bias else None
    _, expected_grad, _ = run(layer_norm, x, g, None, bias)

    xt = Tensor(x, requires_grad=True)
    out = layer_norm(xt, None, bias)
    out.data[...] = 0.0  # would corrupt the backward if the output aliased xhat
    (out * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(xt.grad, expected_grad)
