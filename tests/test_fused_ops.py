"""Property tests of the single-node nonlinearities against slow transcriptions.

``layer_norm`` runs as one graph node with a hand-written backward, and so
do the ``relu`` oracle of the feed-forward chain and the ``sigma`` and
``softmax`` oracles of the attention chains. The oracles below compute the
same values and gradients another way: ``relu`` and ``sigma`` element by
element in Python, ``layer_norm`` as the chain of primitive ops it used to
be (differentiated step by step in numpy), and ``softmax`` as the
out-of-place formula.

``layer_norm`` applies its own gain and bias: it is checked against the
normalization chain followed by ``* gain + bias``, with the gain and bias
trained or frozen. The block's norm-then-layer paths, ``linear`` and
``feed_forward`` reading a norm's output (whose gain and bias the layer's
weight once absorbed), are checked against the same affine as ``*`` and
``+`` nodes, then the chains of ``composite_chains.py``.

Tolerances were fixed before any result was seen. Each error is measured
relative to the largest magnitude of the checked array, taken over the
terms that form it (see ``assert_close``): float64 1e-12 for values and for
the weight, gain and bias gradients, 1e-9 for the layer_norm input
gradient, whose terms cancel, and float32 1e-5 for everything. Inputs are
zero or at least 2**-10 in magnitude, so that no term lands in the
subnormal range.
"""

import math

import numpy as np
import pytest

from composite_chains import feed_forward_chain, reduce_sum, relu, sigma, softmax
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


def magnitudes(dtype, lo, hi):
    width = np.dtype(dtype).itemsize * 8
    return st.floats(lo, hi, width=width) | st.floats(-hi, -lo, width=width)


def floats(dtype, hi):
    # Zero or at least 2**-10 in magnitude, so that no product, quotient or
    # mean lands in the subnormal range, where one rounding is a large
    # relative error and no relative tolerance holds.
    return st.just(0.0) | magnitudes(dtype, 2.0 ** -10, hi)


@st.composite
def case(draw):
    """(x, g): an input of 1-4 dims in f32 or f64 and an upstream gradient."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5))
    return tuple(draw(hnp.arrays(dtype, shape, elements=floats(dtype, hi)))
                 for hi in (100.0, 10.0))


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


@st.composite
def affine(draw, dtype, d):
    """A layer norm's [d] gain and bias: a fresh model's 1 and 0, or drawn."""
    if draw(st.booleans()):
        return np.ones(d, dtype), np.zeros(d, dtype)
    return tuple(draw(hnp.arrays(dtype, (d,), elements=floats(dtype, 4.0))) for _ in range(2))


def column_sums(a):
    """Sum a [..., d] array over its leading axes: [d]."""
    return a.reshape(-1, a.shape[-1]).sum(axis=0)


def norm_magnitudes(x):
    """(xhat, rstd, xmag) of a layer norm's input, in float64.

    xhat = (x - mean) * rstd is formed from terms up to xmag = (|x| + |mean|)
    * rstd, and its input gradient is a sum of products of those.
    """
    x64 = x.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(((x64 - mean) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    return (x64 - mean) * rstd, rstd, (np.abs(x64) + np.abs(mean)) * rstd


def norm_input_grad_scale(gx, rstd, xmag):
    """Term magnitude of a layer norm's input gradient, given |dL/dxhat| ``gx``."""
    return rstd * (gx + gx.mean(axis=-1, keepdims=True)
                   + xmag * (gx * xmag).mean(axis=-1, keepdims=True))


@hypothesis.settings(max_examples=300)
@hypothesis.given(case(), st.data())
def test_layer_norm_matches_node_chain(xg, data):
    """``layer_norm(x, gain, bias)`` against the normalization chain, then ``* gain + bias``:
    the value and the gradients of x, gain and bias. A frozen gain and bias, as in the
    head+gate stage, get no gradient and leave x's unchanged."""
    x, g = xg
    dtype = x.dtype.type
    gain, bias = data.draw(affine(dtype, x.shape[-1]))
    frozen = data.draw(st.booleans())
    value, grad, param_grads = run(layer_norm, x, g, *(Tensor(a, requires_grad=not frozen)
                                                       for a in (gain, bias)))
    normed, expected_grad = layer_norm_chain(x, g * gain)

    gain64, g64 = (np.abs(a.astype(np.float64)) for a in (gain, g))
    _, rstd, xmag = norm_magnitudes(x)

    tol = TOLERANCE[dtype]
    assert_close(value, normed * gain + bias, tol, xmag * gain64 + np.abs(bias))
    assert_close(grad, expected_grad, LN_INPUT_GRAD_TOLERANCE[dtype],
                 norm_input_grad_scale(g64 * gain64, rstd, xmag))
    if frozen:
        assert param_grads == [None, None]
        return
    expected_gain_grad = column_sums(g.astype(np.float64) * normed).astype(dtype)
    assert_close(param_grads[0], expected_gain_grad, tol, column_sums(g64 * xmag))
    assert_close(param_grads[1], column_sums(g.astype(np.float64)).astype(dtype), tol,
                 column_sums(g64))


@st.composite
def fold_case(draw):
    """``(dtype, x, gain, bias)`` of a layer that reads a layer norm's output.

    ``gain`` and ``bias`` are [d], ``x``'s width, and neither 0 nor 1 anywhere.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d = draw(st.integers(1, 18))
    lead = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    x = draw(hnp.arrays(dtype, (*lead, d), elements=floats(dtype, 4.0)))
    affine = magnitudes(dtype, 0.125, 4.0).filter(lambda v: v != 1.0)
    gain, bias = (draw(hnp.arrays(dtype, (d,), elements=affine)) for _ in range(2))
    return dtype, x, gain, bias


def fold_run(fn, x, weights, gain, bias, g_seed):
    """(value, [dL/dx, dL/dweights..., dL/dgain, dL/dbias]) of L = sum(g * fn(...))."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, *weights, gain, bias)]
    out = fn(*leaves)
    g = np.random.default_rng(g_seed).uniform(-10.0, 10.0, out.shape).astype(out.dtype)
    reduce_sum(out * Tensor(g)).backward()
    return out.data, [t.grad for t in leaves], np.abs(g.astype(np.float64))


def affine_chain(x, gain, bias):
    """A layer norm as its normalization (a constant gain 1 and bias 0), then ``* gain + bias``."""
    d, dtype = x.shape[-1], x.data.dtype
    return layer_norm(x, Tensor(np.ones(d, dtype)), Tensor(np.zeros(d, dtype))) * gain + bias


@hypothesis.settings(max_examples=150)
@hypothesis.given(fold_case(), st.data())
def test_folded_linear_matches_affine_then_linear(case, data):
    """``linear(layer_norm(x, gain, bias), w, b)`` against the normalization, the
    affine as ``*`` and ``+`` nodes, then the linear layer. Values and the
    gradients of x, w, b, gain and bias, relative to the magnitudes of the
    terms that form them."""
    dtype, x, gain, bias = case
    d = x.shape[-1]
    d_out = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    w = rng.uniform(-2.0, 2.0, (d, d_out)).astype(dtype)
    b = rng.uniform(-2.0, 2.0, d_out).astype(dtype)
    got, got_grads, g = fold_run(lambda x, w, b, gain, bias: linear(layer_norm(x, gain, bias), w, b),
                                 x, (w, b), gain, bias, d_out)
    want, want_grads, _ = fold_run(lambda x, w, b, gain, bias: linear(affine_chain(x, gain, bias),
                                                                      w, b),
                                   x, (w, b), gain, bias, d_out)

    _, rstd, xmag = norm_magnitudes(x)
    gain_t, bias_t, w64 = (np.abs(a.astype(np.float64)) for a in (gain, bias, w))
    y = xmag * gain_t + bias_t                           # |norm output| terms
    y2, g2 = y.reshape(-1, d), g.reshape(-1, d_out)
    gy = g @ w64.T                                       # |dL/d(norm output)|
    tol = TOLERANCE[dtype]
    scales = [norm_input_grad_scale(gy * gain_t, rstd, xmag),  # x
              y2.T @ g2,                                 # w
              g2.sum(axis=0),                            # b
              column_sums(gy * xmag),                    # gain
              column_sums(gy)]                           # bias
    tols = [LN_INPUT_GRAD_TOLERANCE[dtype]] + [tol] * 4
    assert_close(got, want, tol, y @ w64 + np.abs(b.astype(np.float64)))
    for got_grad, want_grad, scale, grad_tol in zip(got_grads, want_grads, scales, tols):
        assert_close(got_grad, want_grad, grad_tol, scale)


@hypothesis.settings(max_examples=150)
@hypothesis.given(fold_case(), st.data())
def test_folded_feed_forward_matches_affine_then_chain(case, data):
    """``feed_forward(layer_norm(x, gain, bias), ...)`` against the normalization,
    the affine as ``*`` and ``+`` nodes, then ``linear -> relu -> linear``. A
    hidden unit whose input lies within rounding of 0 may switch sides of the
    ReLU between the two, so draws with one closer to 0 than 100x the
    tolerance of its term magnitude are skipped."""
    dtype, x, gain, bias = case
    d = x.shape[-1]
    d_ff, d_out = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    weights = [rng.uniform(-2.0, 2.0, shape).astype(dtype)
               for shape in ((d, d_ff), (d_ff,), (d_ff, d_out), (d_out,))]
    w1, b1, w2, b2 = (np.abs(a.astype(np.float64)) for a in weights)
    xhat, rstd, xmag = norm_magnitudes(x)
    gain_t, bias_t = (np.abs(a.astype(np.float64)) for a in (gain, bias))
    y2 = (xmag * gain_t + bias_t).reshape(-1, d)         # |norm output| terms
    hidden_mag = y2 @ w1 + b1
    hidden = ((xhat * gain.astype(np.float64) + bias).reshape(-1, d)
              @ weights[0].astype(np.float64) + weights[1])
    tol = TOLERANCE[dtype]
    hypothesis.assume(np.all(np.abs(hidden) > 100 * tol * hidden_mag))

    def fused(x, w1, b1, w2, b2, gain, bias):
        return feed_forward(layer_norm(x, gain, bias), w1, b1, w2, b2)

    def chain(x, w1, b1, w2, b2, gain, bias):
        return feed_forward_chain(affine_chain(x, gain, bias), w1, b1, w2, b2)

    got, got_grads, g = fold_run(fused, x, weights, gain, bias, d_out)
    want, want_grads, _ = fold_run(chain, x, weights, gain, bias, d_out)

    h = np.maximum(hidden, 0) > 0
    hmag = hidden_mag * h
    g2 = g.reshape(-1, d_out)
    gh = (g2 @ w2.T) * h                                 # |dL/d(hidden input)|
    gy = (gh @ w1.T).reshape(x.shape)                    # |dL/d(norm output)|
    scales = [norm_input_grad_scale(gy * gain_t, rstd, xmag),  # x
              y2.T @ gh, gh.sum(axis=0),                 # w1, b1
              hmag.T @ g2, g2.sum(axis=0),               # w2, b2
              column_sums(gy * xmag), column_sums(gy)]   # gain, bias
    tols = [LN_INPUT_GRAD_TOLERANCE[dtype]] + [tol] * 6
    assert_close(got, want, tol, (hmag @ w2 + b2).reshape(got.shape))
    for got_grad, want_grad, scale, grad_tol in zip(got_grads, want_grads, scales, tols):
        assert_close(got_grad, want_grad, grad_tol, scale)


@pytest.mark.parametrize("gain, bias", [((1,), (1,)), ((2,), (2,)), ((3,), (3,)), ((4,), (2,)),
                                        ((2, 2), (2, 2))],
                         ids=["broadcast", "a-tile-of-the-features", "not-dividing", "unequal",
                              "not-1-d"])
def test_a_gain_or_bias_that_does_not_fit_the_features_is_refused(gain, bias):
    """A layer norm has one gain and one bias value per feature, no fewer, even
    where numpy would broadcast them."""
    with pytest.raises(DimensionError, match=r"a layer norm over 4 features needs a \[4\]"):
        layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(gain)), Tensor(np.ones(bias)))


def test_relu_propagates_nan():
    out = relu(Tensor([np.nan, -1.0, 2.0])).data
    assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0


@pytest.mark.parametrize("drawn_affine", [False, True])
def test_layer_norm_output_does_not_alias_saved_state(drawn_affine):
    """Writing into the output leaves the backward unchanged: the output is not
    the xhat or rstd that the backward saved, whether the gain and bias are a
    fresh model's 1 and 0 or drawn."""
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
    affine = (rng.standard_normal(6), rng.standard_normal(6)) if drawn_affine else (
        np.ones(6), np.zeros(6))

    def grads(overwrite):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, *affine)]
        out = layer_norm(*leaves)
        if overwrite:
            out.data[...] = 0.0
        reduce_sum(out * Tensor(g)).backward()
        return [t.grad for t in leaves]

    for got, expected in zip(grads(True), grads(False)):
        np.testing.assert_array_equal(got, expected)
