"""Property tests of the single-node nonlinearities against slow transcriptions.

``layer_norm`` runs as one graph node with a hand-written backward, and so
do the ``relu`` oracle of the feed-forward chain and the ``sigma`` and
``softmax`` oracles of the attention chains. The oracles below compute the same values and gradients another
way: ``relu`` and ``sigma`` element by element in Python, ``layer_norm`` as
the chain of primitive ops it used to be (differentiated step by step in
numpy), and ``softmax`` as the out-of-place formula.

Tolerances were fixed before any result was seen. Each error is measured
relative to the largest magnitude of the checked array, taken over the
terms that form it (see ``assert_close``): float64 1e-12 for values and for
the gain and bias gradients, 1e-9 for the layer_norm input gradient, whose
terms cancel, and float32 1e-5 for everything.
"""

import math

import numpy as np
import pytest

from composite_chains import reduce_sum, relu, sigma, softmax
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
    reduce_sum(out * Tensor(g)).backward()
    return out.data, xt.grad, [p.grad for p in params]


def elementwise(fn, x):
    return np.array([fn(float(v)) for v in x.reshape(-1)], dtype=x.dtype).reshape(x.shape)


@hypothesis.settings(max_examples=200)
@hypothesis.given(case())
def test_relu_matches_elementwise_oracle(xg):
    x, g = xg
    value, grad, _ = run(relu, x, g)
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
    value, grad, _ = run(lambda t: softmax(t, axis=axis), x, g)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    expected = e / e.sum(axis=axis, keepdims=True)
    # Same operations in the same order, on a reused buffer: bitwise equal.
    np.testing.assert_array_equal(value, expected)
    dot = (g * expected).sum(axis=axis, keepdims=True)
    scale = expected * (np.abs(g) + (np.abs(g) * expected).sum(axis=axis, keepdims=True))
    assert_close(grad, expected * (g - dot), TOLERANCE[x.dtype.type], scale)


def layer_norm_chain(x, g, gain, bias, eps=1e-5):
    """(value, dL/dx, [dL/dgain, dL/dbias]) of the former layer_norm node chain, in numpy.

    The forward is ``(x - mean) / sqrt(var + eps) * gain + bias`` with
    ``mean`` and ``var`` as a sum times ``1/d``; the backward runs the
    primitive derivatives of that chain in reverse, one step per former node.
    """
    inv_d = x.dtype.type(1.0 / x.shape[-1])
    centered = x - x.sum(axis=-1, keepdims=True) * inv_d
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_d + eps)
    normed = centered / std
    out = normed * gain + bias

    d_normed = g * gain
    d_centered = d_normed / std                                       # centered / std
    d_std = (-d_normed * normed / std).sum(axis=-1, keepdims=True)
    d_square = (d_std * 0.5 / std) * inv_d                            # sqrt, then mean
    d_centered = d_centered + d_square * centered + d_square * centered  # centered * centered
    d_x = d_centered - d_centered.sum(axis=-1, keepdims=True) * inv_d    # x - mean(x)
    return out, d_x, [sum_to_last_axis(g * normed), sum_to_last_axis(g)]


def sum_to_last_axis(a):
    return a.reshape(-1, a.shape[-1]).sum(axis=0)


@hypothesis.settings(max_examples=300)
@hypothesis.given(case(), st.data())
def test_layer_norm_matches_node_chain(xg, data):
    x, g = xg
    dtype, d = x.dtype.type, x.shape[-1]
    affine = hnp.arrays(dtype, (d,), elements=st.floats(-10.0, 10.0, width=x.dtype.itemsize * 8))
    gain = Parameter(data.draw(affine), "gain")
    bias = Parameter(data.draw(affine), "bias")

    value, grad, param_grads = run(layer_norm, x, g, gain, bias)
    expected, expected_grad, expected_param_grads = layer_norm_chain(x, g, gain.data, bias.data)

    # Term magnitudes: xhat = (x - mean) * rstd is formed from terms up to
    # (|x| + |mean|) * rstd, and the gradients are sums of products of those.
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(((x64 - mean) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xmag = (np.abs(x64) + np.abs(mean)) * rstd
    gain_mag, bias_mag = np.abs(gain.data), np.abs(bias.data)
    gx = np.abs(g64) * gain_mag
    tol = TOLERANCE[dtype]

    assert_close(value, expected, tol, xmag * gain_mag + bias_mag)
    x_grad_scale = rstd * (gx + gx.mean(axis=-1, keepdims=True)
                           + xmag * (gx * xmag).mean(axis=-1, keepdims=True))
    assert_close(grad, expected_grad, LN_INPUT_GRAD_TOLERANCE[dtype], x_grad_scale)
    scales = [sum_to_last_axis(np.abs(g64) * xmag), sum_to_last_axis(np.abs(g64))]
    for got, want, scale in zip(param_grads, expected_param_grads, scales):
        assert_close(got, want, tol, scale)


def test_relu_propagates_nan():
    out = relu(Tensor([np.nan, -1.0, 2.0])).data
    assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0


@pytest.mark.parametrize("drawn_affine", [False, True])
def test_layer_norm_output_does_not_alias_saved_state(drawn_affine):
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
    gain, bias = Tensor(np.ones(6)), Tensor(np.zeros(6))
    if drawn_affine:
        gain, bias = (Parameter(rng.standard_normal(6), name) for name in ("gain", "bias"))
    _, expected_grad, _ = run(layer_norm, x, g, gain, bias)

    xt = Tensor(x, requires_grad=True)
    out = layer_norm(xt, gain, bias)
    out.data[...] = 0.0  # would corrupt the backward if the output aliased xhat
    reduce_sum(out * Tensor(g)).backward()
    np.testing.assert_array_equal(xt.grad, expected_grad)
