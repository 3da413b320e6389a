"""Property tests of the row kernels and the fused attention and memory nodes.

``row_sum`` and ``row_max`` are checked against numpy's last-axis ``sum``
and ``max``, on rows of length 1 to 40 (odd and even, on both sides of the
length where ``row_max`` stops halving), with NaN and +-inf mixed in on some
draws. ``row_max`` must be bitwise equal; ``row_sum`` adds in another order,
so it must be equal where numpy's sum is not finite and close elsewhere.

``dot_attention`` (with and without a broadcast bias), ``accumulate_memory``,
``retrieve_memory`` and ``gate_combine`` are checked against the primitive-op
chains in ``composite_chains.py``: values, and the gradients of
``L = sum(g * output)`` with respect to every input. Q, K, V and attention
outputs are drawn in the model's merged layout [..., n, h*d_k]; the term
magnitudes are computed per head and merged back. ``gate_combine`` must
equal its chain bitwise except in the ``beta`` gradient, whose sum runs in
another order, and ``feed_forward`` must equal ``linear -> relu -> linear``
bitwise everywhere, NaN included.

``dot_attention`` runs in tiles of batch items whose scores fit
``FORWARD_BLOCK_BYTES // 2``. Over several tiles its output and q/k/v
gradients must equal one-item calls bitwise, and ``tracemalloc`` pins that
no score-sized temporary is allocated beside the saved probabilities: a
backward holds at most two half-budget tiles above its gradients.

Tolerances were fixed before any result was seen: float64 1e-12 and
float32 1e-5, relative to the summed magnitudes of the terms that form each
element (computed in float64 from the inputs). Inputs are zero or at least
2**-10 in magnitude, so that no term lands in the subnormal range.
"""

import math

import numpy as np
import pytest

from composite_chains import (
    accumulate_memory_chain,
    dot_attention_chain,
    feed_forward_chain,
    gate_combine_chain,
    reduce_sum,
    retrieve_memory_chain,
)
from conftest import traced_peak
from icmixer import attention
from icmixer.attention import accumulate_memory, dot_attention, gate_combine, retrieve_memory
from icmixer.encoder import EncoderConfig, ForecastEncoder
from icmixer.mixers import MixerKind, same_channel_mask
from icmixer.tensor import (FORWARD_BLOCK_BYTES, Tensor, blocks, expit, feed_forward, no_grad,
                            row_max, row_sum)
from icmixer.training import mse

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}
EPSILON = 1e-6


def magnitudes(dtype, lo, hi):
    width = np.dtype(dtype).itemsize * 8
    return st.floats(lo, hi, width=width) | st.floats(-hi, -lo, width=width)


def floats(dtype, hi):
    return st.just(0.0) | magnitudes(dtype, 2.0 ** -10, hi)


def assert_close(got, want, tol, scale):
    assert got.dtype == want.dtype and got.shape == want.shape
    err = np.abs(got.astype(np.float64) - want.astype(np.float64))
    bound = tol * np.broadcast_to(scale, err.shape)
    assert np.all(err <= bound), f"worst error/bound {np.max(err / np.maximum(bound, 1e-300)):.3g}"


def reduce_to(a, shape):
    """Sum the broadcast axes of ``a`` away, leaving ``shape``."""
    lead = a.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and a.shape[lead + i] != 1)
    return a.sum(axis=axes).reshape(shape)


def swap(a):
    return a.swapaxes(-1, -2)


def heads(a, h):
    """[..., n, h*d] -> [..., h, n, d]."""
    return a.reshape(*a.shape[:-1], h, a.shape[-1] // h).swapaxes(-3, -2)


def merged(a):
    """[..., h, n, d] -> [..., n, h*d]."""
    return a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], -1)


def run(fn, *arrays):
    """(outputs, [dL/d input], upstream gs) of L = sum over outputs of sum(g * output)."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    outs = fn(*tensors)
    outs = outs if isinstance(outs, tuple) else (outs,)
    rng = np.random.default_rng(sum(o.size for o in outs))
    gs = [rng.uniform(-10.0, 10.0, o.shape).astype(o.dtype) for o in outs]
    sum(reduce_sum(o * Tensor(g)) for o, g in zip(outs, gs)).backward()
    for t in tensors:
        assert t.grad.dtype == t.dtype and t.grad.shape == t.shape
    return [o.data for o in outs], [t.grad for t in tensors], gs


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"max difference {np.nanmax(np.abs(got - want))}"


def check_against_chain(fused, chain, arrays, scales):
    """Values and input gradients of ``fused`` against ``chain`` on the same inputs.

    ``scales(gs)`` maps the absolute upstream gradients (float64) to the
    term magnitudes of the values and of the input gradients.
    """
    tol = TOLERANCE[arrays[0].dtype.type]
    values, grads, gs = run(fused, *arrays)
    want_values, want_grads, _ = run(chain, *arrays)
    value_scales, grad_scales = scales([np.abs(g.astype(np.float64)) for g in gs])
    for got, want, scale in zip(values + grads, want_values + want_grads,
                                value_scales + grad_scales):
        assert_close(got, want, tol, scale)


# -- row kernels ----------------------------------------------------------------

@st.composite
def rows_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
    shape = (*lead, draw(st.integers(1, 40)))
    elements = floats(dtype, 10.0)
    if draw(st.booleans()):
        elements = elements | st.sampled_from([math.nan, math.inf, -math.inf])
    return draw(hnp.arrays(dtype, shape, elements=elements))


@hypothesis.settings(max_examples=300)
@hypothesis.given(rows_case())
def test_row_max_matches_numpy(x):
    got = row_max(x)
    assert got.dtype == x.dtype
    np.testing.assert_array_equal(got, x.max(axis=-1, keepdims=True))


@hypothesis.settings(max_examples=300)
@hypothesis.given(rows_case())
def test_row_sum_matches_numpy(x):
    with np.errstate(invalid="ignore"):  # inf - inf in a row
        got, want = row_sum(x), x.sum(axis=-1, keepdims=True)
    assert got.dtype == want.dtype and got.shape == want.shape
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite])
    scale = np.abs(x.astype(np.float64)).sum(axis=-1, keepdims=True)
    assert_close(got[finite], want[finite], TOLERANCE[x.dtype.type], scale[finite])


def test_row_kernels_on_empty_rows():
    assert row_sum(np.ones((2, 0))).tolist() == [[0.0], [0.0]]
    with pytest.raises(ValueError):
        row_max(np.ones((2, 0)))


# -- dot attention --------------------------------------------------------------

@st.composite
def attention_case(draw):
    """(h, q, k, v, bias or None): [*batch, n, h*d] operands and an [n_q, n_k] bias."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    batch = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=3))
    h = draw(st.integers(1, 3))
    n_q, n_k, d = (draw(st.integers(1, 5)) for _ in range(3))
    q, k, v = (draw(hnp.arrays(dtype, (*batch, n, h * d), elements=floats(dtype, 2.0)))
               for n in (n_q, n_k, n_k))
    if not draw(st.booleans()):
        return h, q, k, v, None
    return h, q, k, v, draw(hnp.arrays(dtype, (n_q, n_k), elements=floats(dtype, 2.0)))


@hypothesis.settings(max_examples=300)
@hypothesis.given(attention_case())
def test_dot_attention_matches_chain(case):
    check_dot_attention(*case)


def check_dot_attention(h, q, k, v, bias):
    """``dot_attention`` against ``dot_attention_chain``, term magnitudes from float64."""
    arrays = [q, k, v] if bias is None else [q, k, v, bias]
    q64, k64, v64 = (heads(a.astype(np.float64), h) for a in (q, k, v))
    c = 1.0 / math.sqrt(q64.shape[-1])
    scores = q64 @ swap(k64) * c
    if bias is not None:
        scores = scores + bias
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)

    def scales(gs):
        g = heads(gs[0], h)
        dp = g @ swap(np.abs(v64))
        ds = p * (dp + (p * dp).sum(axis=-1, keepdims=True))
        grad_scales = [merged(a) for a in (c * ds @ np.abs(k64), c * swap(ds) @ np.abs(q64),
                                           swap(p) @ g)]
        if bias is not None:
            grad_scales.append(reduce_to(ds, bias.shape))
        return [merged(p @ np.abs(v64))], grad_scales

    def fused(q, k, v, *bias):
        return dot_attention(q, k, v, h, *bias)

    def chain(q, k, v, *bias):
        return dot_attention_chain(q, k, v, h, *bias)

    check_against_chain(fused, chain, arrays, scales)


# Tiles along the scores' first axis: H heads of N = 4 channels x 10 tokens,
# concat's layout, so that a tile holds FORWARD_BLOCK_BYTES // 2 // (H N^2
# itemsize) batch items (81 in float32, 40 in float64).
H, N, D_K = 2, 40, 4
TILE_BYTES = FORWARD_BLOCK_BYTES // 2


def items_per_tile(dtype):
    return TILE_BYTES // (H * N * N * np.dtype(dtype).itemsize)


def attention_and_grads(q, k, v, g, bias):
    """The output of ``dot_attention`` and the gradients of sum(g * output) for each input."""
    tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    if bias is not None:
        tensors.append(Tensor(bias, requires_grad=True))
    out = dot_attention(*tensors[:3], H, *tensors[3:])
    reduce_sum(out * Tensor(g)).backward()
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "concat-bias"])
def test_tiled_dot_attention_equals_item_by_item_bitwise(dtype, with_bias):
    """Three full tiles and an uneven last one give each item's values of a one-item call.

    Only the bias gradient, summed per tile, may round differently from the
    sum of the per-item gradients.
    """
    b = 3 * items_per_tile(dtype) + items_per_tile(dtype) // 2
    rng = np.random.default_rng(0)
    q, k, v, g = (rng.standard_normal((b, N, H * D_K)).astype(dtype) for _ in range(4))
    mask = same_channel_mask(4, N // 4, dtype)
    bias = 0.7 * mask - 0.3 * (1 - mask) if with_bias else None
    whole = attention_and_grads(q, k, v, g, bias)
    items = [attention_and_grads(q[i:i + 1], k[i:i + 1], v[i:i + 1], g[i:i + 1], bias)
             for i in range(b)]
    for got, parts in zip(whole[:4], zip(*items)):
        assert_bitwise(got, np.concatenate(parts))
    if with_bias:
        parts = np.stack([item[4] for item in items])
        assert_close(whole[4], parts.sum(axis=0), TOLERANCE[dtype], np.abs(parts).sum(axis=0))


def test_concat_train_step_peak_falls_with_tiles():
    """One f32 desk concat step at m = 8, batch 16 holds one score-sized array, not three.

    Untiled, the saved probabilities, dL/dp and their product (16.8 MB each)
    were alive at once: a traced peak of 58-59 MB. In half-budget tiles the
    step peaks at 25.5 MB.
    """
    config = EncoderConfig(n_blocks=1, d_model=32, n_heads=4, d_ff=64, patch_len=8,
                           lookback=256, mixer=MixerKind.CONCAT, horizons=(96,))
    model = ForecastEncoder(config, seed=0, dtype=np.float32)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 8, 256)).astype(np.float32)
    y = Tensor(rng.standard_normal((16, 8, 96)).astype(np.float32))
    peak, _ = traced_peak(lambda: mse(model.forecast_normalized(x, 96)[0], y).backward())
    assert peak <= 0.6 * 58.6e6, peak


def test_concat_attention_backward_holds_two_half_budget_tiles():
    """One f32 backward at the desk concat shape stays within its gradients and two tiles.

    Batch 32 of 4 heads over 4 channels x 32 patches is 8 MiB of scores, 8
    tiles of 4 items. Above the saved probabilities, the backward holds dq,
    dk, dv, the bias gradient and per tile dL/dp and its product with p, so
    it peaks at most two half-budget tiles above its gradients.
    """
    b, n, d = 32, 128, 32
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((b, n, d)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    mask = same_channel_mask(4, n // 4, np.float32)
    bias = Tensor(0.7 * mask - 0.3 * (1 - mask), requires_grad=True)
    out = dot_attention(q, k, v, 4, bias)
    g = rng.standard_normal(out.shape).astype(np.float32)
    peak, _ = traced_peak(lambda: out._backward(g))
    grads = 3 * q.data.nbytes + bias.data.nbytes
    assert peak <= grads + 2 * TILE_BYTES + 64 * 1024, (peak, grads)


def test_default_backbone_forecast_block_attends_in_one_tile(monkeypatch):
    """An 8-window f32 block of the default 7-channel backbone, the largest forecast
    block ``evaluate`` runs, takes each attention's scores (0.92 MB) in one tile."""
    tile_counts = []

    def counted(n, item_bytes, budget):
        tiles = blocks(n, item_bytes, budget)
        tile_counts.append(len(tiles))
        return tiles

    monkeypatch.setattr(attention, "blocks", counted)
    model = ForecastEncoder(EncoderConfig(horizons=(96,)), seed=0, dtype=np.float32)
    x = np.random.default_rng(0).standard_normal((8, 7, 256)).astype(np.float32)
    with no_grad():
        model.forecast_normalized(x, 96)
    assert tile_counts == [1] * model.config.n_blocks


def test_no_grad_concat_attention_holds_no_score_sized_array():
    """Without a graph, all tiles share one buffer: the peak stays below one scores array."""
    b, n, d = 64, 128, 32  # the desk concat layout: 4 channels x 32 patches, 4 heads
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.standard_normal((b, n, d)).astype(np.float32)) for _ in range(3))
    mask = same_channel_mask(4, n // 4, np.float32)
    bias = Tensor(0.7 * mask - 0.3 * (1 - mask))
    scores_bytes = b * 4 * n * n * 4
    with no_grad():
        peak, out = traced_peak(lambda: dot_attention(q, k, v, 4, bias))
    assert out.shape == (b, n, d)
    assert peak < scores_bytes / 2, (peak, scores_bytes)


# -- compressive memory ---------------------------------------------------------

def sigma64(x):
    x = x.astype(np.float64)
    return np.where(x >= 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


@st.composite
def memory_case(draw):
    """(dtype, lead, m, h, n, d) with K, V and Q shaped [*lead, m, n, h*d]."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=1, max_side=2))
    return (dtype, lead, *(draw(st.integers(1, hi)) for hi in (3, 2, 4, 4)))


@hypothesis.settings(max_examples=200)
@hypothesis.given(memory_case(), st.data())
def test_accumulate_memory_matches_chain(case, data):
    dtype, lead, m, h, n, d = case
    k, v = (data.draw(hnp.arrays(dtype, (*lead, m, n, h * d), elements=floats(dtype, 10.0)))
            for _ in range(2))
    sk, v64 = sigma64(heads(k, h)), np.abs(heads(v, h).astype(np.float64))

    def scales(gs):
        g_mem = gs[0][..., :-1]
        g_sk = v64 @ swap(g_mem) + swap(gs[0][..., -1:])
        return ([np.concatenate([(swap(sk) @ v64).sum(axis=-4, keepdims=True),
                                 swap(sk.sum(axis=(-4, -2), keepdims=True))], axis=-1)],
                [merged(g_sk * np.minimum(sk, 1.0)), merged(sk @ g_mem)])

    def fused(k, v):
        return accumulate_memory(k, v, h)

    def chain(k, v):
        return accumulate_memory_chain(k, v, h)

    check_against_chain(fused, chain, [k, v], scales)


@hypothesis.settings(max_examples=200)
@hypothesis.given(memory_case(), st.data())
def test_retrieve_memory_matches_chain(case, data):
    dtype, lead, m, h, n, d = case
    q = data.draw(hnp.arrays(dtype, (*lead, m, n, h * d), elements=floats(dtype, 10.0)))
    mem = data.draw(hnp.arrays(dtype, (*lead, 1, h, d, d), elements=floats(dtype, 10.0)))
    # z sums sigma(K) > 0 over every key, so it is positive.
    z = data.draw(hnp.arrays(dtype, (*lead, 1, h, d, 1),
                             elements=st.floats(2.0 ** -10, 10.0, width=np.dtype(dtype).itemsize * 8)))
    sq, mem64, z64 = sigma64(heads(q, h)), np.abs(mem.astype(np.float64)), z.astype(np.float64)
    den = sq @ z64 + EPSILON
    out = (sq @ mem.astype(np.float64)) / den

    def fused(*ts):
        return retrieve_memory(*ts, EPSILON)

    def chain(*ts):
        return retrieve_memory_chain(*ts, EPSILON)

    def scales(gs):
        g_num = heads(gs[0], h) / den
        g_den = (g_num * np.abs(out)).sum(axis=-1, keepdims=True)
        g_mem = np.concatenate([reduce_to(swap(sq) @ g_num, mem.shape),
                                reduce_to(swap(sq) @ g_den, z.shape)], axis=-1)
        return ([merged((sq @ mem64) / den)],
                [merged((g_num @ swap(mem64) + g_den @ swap(z64)) * np.minimum(sq, 1.0)), g_mem])

    check_against_chain(fused, chain, [q, np.concatenate([mem, z], axis=-1)], scales)


# -- gate -----------------------------------------------------------------------

@hypothesis.settings(max_examples=200)
@hypothesis.given(memory_case(), st.data())
def test_gate_combine_matches_merged_chain(case, data):
    dtype, lead, m, h, n, d = case
    a_mem, a_dot = (data.draw(hnp.arrays(dtype, (*lead, m, n, h * d), elements=floats(dtype, 10.0)))
                    for _ in range(2))
    beta = data.draw(hnp.arrays(dtype, (h,), elements=floats(dtype, 4.0)))
    values, grads, gs = run(gate_combine, a_mem, a_dot, beta)
    want_values, want_grads, _ = run(gate_combine_chain, a_mem, a_dot, beta)
    for got, want in zip(values + grads[:2], want_values + want_grads[:2]):
        assert_bitwise(got, want)
    s = expit(beta.astype(np.float64))
    terms = heads(np.abs(gs[0].astype(np.float64)) * (np.abs(a_mem.astype(np.float64))
                                                     + np.abs(a_dot)), h)
    assert_close(grads[2], want_grads[2], TOLERANCE[dtype],
                 s * (1 - s) * reduce_to(terms, (h, 1, 1)).reshape(h))


# -- feed-forward ---------------------------------------------------------------

@st.composite
def feed_forward_case(draw):
    """(x, w1, b1, w2, b2): x [*lead, d] (NaN on some draws), w1 [d, d_ff], w2 [d_ff, d_out]."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    d, d_ff, d_out = (draw(st.integers(1, 6)) for _ in range(3))
    x_elements = floats(dtype, 10.0)
    if draw(st.booleans()):
        x_elements = x_elements | st.just(math.nan)
    x = draw(hnp.arrays(dtype, (*lead, d), elements=x_elements))
    return [x, *(draw(hnp.arrays(dtype, shape, elements=floats(dtype, 2.0)))
                 for shape in ((d, d_ff), (d_ff,), (d_ff, d_out), (d_out,)))]


@hypothesis.settings(max_examples=200)
@hypothesis.given(feed_forward_case())
def test_feed_forward_equals_linear_relu_linear_bitwise(arrays):
    values, grads, _ = run(feed_forward, *arrays)
    want_values, want_grads, _ = run(feed_forward_chain, *arrays)
    for got, want in zip(values + grads, want_values + want_grads):
        assert_bitwise(got, want)
    if np.isnan(arrays[0]).any():
        assert np.isnan(values[0]).any()
