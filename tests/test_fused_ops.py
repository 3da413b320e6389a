"""Property tests of the single-node nonlinearities against slow transcriptions.

``layer_norm`` runs as one graph node with a hand-written backward, and so
do the ``relu`` oracle of the feed-forward chain and the ``sigma`` and
``softmax`` oracles of the attention chains. The oracles below compute the
same values and gradients another way: ``relu`` and ``sigma`` element by
element in Python, ``layer_norm`` as the chain of primitive ops it used to
be (differentiated step by step in numpy), and ``softmax`` as the
out-of-place formula.

``layer_norm`` only normalizes: ``linear`` and ``feed_forward`` fold the
norm's gain and bias into their first weight. They are checked against the
unfolded chains of ``composite_chains.py`` (the affine, then the layer), on
a plain and on a tiled, head-shaped input.

Tolerances were fixed before any result was seen. Each error is measured
relative to the largest magnitude of the checked array, taken over the
terms that form it (see ``assert_close``): float64 1e-12 for values and for
the weight, gain and bias gradients, 1e-9 for the layer_norm input
gradient, whose terms cancel, and float32 1e-5 for everything.
"""

import math

import numpy as np
import pytest

from composite_chains import (folded_feed_forward_chain, folded_linear_chain, reduce_sum, relu,
                              sigma, softmax)
from icmixer.tensor import DimensionError, Tensor, feed_forward, layer_norm, linear

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


def layer_norm_chain(x, g, eps=1e-5):
    """(value, dL/dx) of the former layer_norm node chain, normalization only, in numpy.

    The forward is ``(x - mean) / sqrt(var + eps)`` with ``mean`` and
    ``var`` as a sum times ``1/d``; the backward runs the primitive
    derivatives of that chain in reverse, one step per former node.
    """
    inv_d = x.dtype.type(1.0 / x.shape[-1])
    centered = x - x.sum(axis=-1, keepdims=True) * inv_d
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_d + eps)
    normed = centered / std

    d_centered = g / std                                              # centered / std
    d_std = (-g * normed / std).sum(axis=-1, keepdims=True)
    d_square = (d_std * 0.5 / std) * inv_d                            # sqrt, then mean
    d_centered = d_centered + d_square * centered + d_square * centered  # centered * centered
    d_x = d_centered - d_centered.sum(axis=-1, keepdims=True) * inv_d    # x - mean(x)
    return normed, d_x


@hypothesis.settings(max_examples=300)
@hypothesis.given(case())
def test_layer_norm_matches_node_chain(xg):
    x, g = xg
    dtype = x.dtype.type
    value, grad, _ = run(layer_norm, x, g)
    expected, expected_grad = layer_norm_chain(x, g)

    # Term magnitudes: xhat = (x - mean) * rstd is formed from terms up to
    # (|x| + |mean|) * rstd, and the gradient is a sum of products of those.
    x64, g64 = x.astype(np.float64), np.abs(g.astype(np.float64))
    mean = x64.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(((x64 - mean) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xmag = (np.abs(x64) + np.abs(mean)) * rstd

    assert_close(value, expected, TOLERANCE[dtype], xmag)
    x_grad_scale = rstd * (g64 + g64.mean(axis=-1, keepdims=True)
                           + xmag * (g64 * xmag).mean(axis=-1, keepdims=True))
    assert_close(grad, expected_grad, LN_INPUT_GRAD_TOLERANCE[dtype], x_grad_scale)


@st.composite
def fold_case(draw):
    """``(dtype, xhat, gain, bias)`` of a layer that reads a layer norm's output.

    ``gain`` and ``bias`` are [d_norm] and neither 0 nor 1 anywhere. The
    layer's input is 1 or 3 tiles of ``d_norm`` wide: the head reads every
    patch of a window, each normalized on its own.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = np.dtype(dtype).itemsize * 8
    d_norm, tiles = draw(st.integers(1, 6)), draw(st.sampled_from([1, 1, 3]))
    lead = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    xhat = draw(hnp.arrays(dtype, (*lead, tiles * d_norm),
                           elements=st.floats(-4.0, 4.0, width=width)))
    affine = (st.floats(0.125, 4.0, width=width) | st.floats(-4.0, -0.125, width=width)).filter(
        lambda v: v != 1.0)
    gain, bias = (draw(hnp.arrays(dtype, (d_norm,), elements=affine)) for _ in range(2))
    return dtype, xhat, gain, bias


def fold_run(fn, xhat, weights, gain, bias, g_seed):
    """(value, [dL/dxhat, dL/dweights..., dL/dgain, dL/dbias]) of L = sum(g * fn(...))."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (xhat, *weights, gain, bias)]
    out = fn(*leaves)
    g = np.random.default_rng(g_seed).uniform(-10.0, 10.0, out.shape).astype(out.dtype)
    reduce_sum(out * Tensor(g)).backward()
    return out.data, [t.grad for t in leaves], np.abs(g.astype(np.float64))


def affine_magnitudes(xhat, gain, bias):
    """|xhat| |gain| + |bias| with the [d_norm] pair tiled along xhat's last axis, in float64."""
    d = xhat.shape[-1]
    gain, bias = (np.tile(np.abs(a.astype(np.float64)), d // a.shape[0]) for a in (gain, bias))
    return np.abs(xhat.astype(np.float64)) * gain + bias, gain


def norm_affine(xhat, gain, bias):
    """xhat * gain + bias with the pair tiled along the last axis, in float64."""
    d = xhat.shape[-1]
    return (xhat.astype(np.float64) * np.tile(gain.astype(np.float64), d // gain.shape[0])
            + np.tile(bias.astype(np.float64), d // bias.shape[0]))


def untile(a, d_norm):
    """Sum a [..., k * d_norm] array over its leading axes and its k tiles: [d_norm]."""
    return a.reshape(-1, d_norm).sum(axis=0)


@hypothesis.settings(max_examples=150)
@hypothesis.given(fold_case(), st.data())
def test_folded_linear_matches_affine_then_linear(case, data):
    """``linear(xhat, w, b, (gain, bias))`` against the unfolded chain: the
    norm's affine, then the linear layer. Values and the gradients of xhat,
    w, b, gain and bias, relative to the magnitudes of the terms that form them."""
    dtype, xhat, gain, bias = case
    d, d_norm = xhat.shape[-1], gain.shape[0]
    d_out = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    w = rng.uniform(-2.0, 2.0, (d, d_out)).astype(dtype)
    b = rng.uniform(-2.0, 2.0, d_out).astype(dtype)
    got, got_grads, g = fold_run(lambda x, w, b, gain, bias: linear(x, w, b, (gain, bias)),
                                 xhat, (w, b), gain, bias, d_out)
    want, want_grads, _ = fold_run(folded_linear_chain, xhat, (w, b), gain, bias, d_out)

    y, gain_t = affine_magnitudes(xhat, gain, bias)
    w64 = np.abs(w.astype(np.float64))
    y2, g2, x2 = y.reshape(-1, d), g.reshape(-1, d_out), np.abs(xhat.astype(np.float64))
    gy = g @ w64.T                                       # |dL/d(affine output)|
    scales = [gy * gain_t,                               # xhat
              y2.T @ g2,                                 # w
              g2.sum(axis=0),                            # b
              untile(gy * x2, d_norm),                   # gain
              untile(gy, d_norm)]                        # bias
    tol = TOLERANCE[dtype]
    assert_close(got, want, tol, y @ w64 + np.abs(b.astype(np.float64)))
    for got_grad, want_grad, scale in zip(got_grads, want_grads, scales):
        assert_close(got_grad, want_grad, tol, scale)


@hypothesis.settings(max_examples=150)
@hypothesis.given(fold_case(), st.data())
def test_folded_feed_forward_matches_affine_then_chain(case, data):
    """``feed_forward(xhat, ..., (gain, bias))`` against the norm's affine, then
    ``linear -> relu -> linear``. A hidden unit whose input lies within
    rounding of 0 may switch sides of the ReLU between the two, so draws with
    one closer to 0 than 100x the tolerance of its term magnitude are skipped."""
    dtype, xhat, gain, bias = case
    d, d_norm = xhat.shape[-1], gain.shape[0]
    d_ff, d_out = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    weights = [rng.uniform(-2.0, 2.0, shape).astype(dtype)
               for shape in ((d, d_ff), (d_ff,), (d_ff, d_out), (d_out,))]
    w1, b1, w2, b2 = (np.abs(a.astype(np.float64)) for a in weights)
    y, gain_t = affine_magnitudes(xhat, gain, bias)
    y2 = y.reshape(-1, d)
    hidden_mag = y2 @ w1 + b1
    hidden = (norm_affine(xhat, gain, bias).reshape(-1, d) @ weights[0].astype(np.float64)
              + weights[1])
    tol = TOLERANCE[dtype]
    hypothesis.assume(np.all(np.abs(hidden) > 100 * tol * hidden_mag))

    def fused(x, w1, b1, w2, b2, gain, bias):
        return feed_forward(x, w1, b1, w2, b2, (gain, bias))

    got, got_grads, g = fold_run(fused, xhat, weights, gain, bias, d_out)
    want, want_grads, _ = fold_run(folded_feed_forward_chain, xhat, weights, gain, bias, d_out)

    h = np.maximum(hidden, 0) > 0
    hmag = hidden_mag * h
    g2 = g.reshape(-1, d_out)
    gh = (g2 @ w2.T) * h                                 # |dL/d(hidden input)|
    gy = gh @ w1.T                                       # |dL/d(affine output)|
    x2 = np.abs(xhat.astype(np.float64)).reshape(-1, d)
    scales = [(gy * gain_t).reshape(xhat.shape),         # xhat
              y2.T @ gh, gh.sum(axis=0),                 # w1, b1
              hmag.T @ g2, g2.sum(axis=0),               # w2, b2
              untile(gy * x2, d_norm), untile(gy, d_norm)]  # gain, bias
    assert_close(got, want, tol, (hmag @ w2 + b2).reshape(got.shape))
    for got_grad, want_grad, scale in zip(got_grads, want_grads, scales):
        assert_close(got_grad, want_grad, tol, scale)


@pytest.mark.parametrize("gain, bias", [((3,), (3,)), ((4,), (2,)), ((2, 2), (2, 2))],
                         ids=["not-dividing", "unequal", "not-1-d"])
def test_a_norm_that_does_not_fit_the_weight_is_refused(gain, bias):
    x, w = Tensor(np.ones((2, 4))), Tensor(np.ones((4, 3)))
    with pytest.raises(DimensionError, match="a norm folded into 4 weight rows"):
        linear(x, w, None, (Tensor(np.ones(gain)), Tensor(np.ones(bias))))


def test_relu_propagates_nan():
    out = relu(Tensor([np.nan, -1.0, 2.0])).data
    assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0


@pytest.mark.parametrize("drawn_affine", [False, True])
def test_layer_norm_output_does_not_alias_saved_state(drawn_affine):
    """The output is the xhat its backward saved, read-only, so no reader can
    corrupt it: neither a plain reader nor a linear layer that folds a drawn
    gain and bias into its weight."""
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
    norm = tuple(Tensor(rng.standard_normal(6)) for _ in range(2))

    def reader(xhat):
        return linear(xhat, Tensor(np.eye(6)), None, norm) if drawn_affine else xhat

    _, expected_grad, _ = run(lambda t: reader(layer_norm(t)), x, g)

    xt = Tensor(x, requires_grad=True)
    out = layer_norm(xt)
    with pytest.raises(ValueError, match="read-only"):
        out.data[...] = 0.0
    reduce_sum(reader(out) * Tensor(g)).backward()
    np.testing.assert_array_equal(xt.grad, expected_grad)
