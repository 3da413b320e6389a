"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured synthetic-benefit gap. Criterion 7 (reference
reproduction on public ETTh1) is a long, opt-in run; see its skip conditions.
"""

import os
import time

import numpy as np
import pytest

from icmixer.attention import (
    ICMAttention,
    MultiHeadSelfAttention,
    accumulate_memory,
    retrieve_memory,
)
from icmixer.data import generate_lagged_copy, load_csv, standardized
from icmixer.encoder import EncoderConfig, ForecastEncoder
from icmixer.mixers import ChannelBias, ConcatAttention, MixerKind
from icmixer.tensor import Tensor
from icmixer.training import TrainConfig, gradcheck, shrunken_config, train_supervised


def report(name: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def elu1(x):
    return np.where(x >= 0, x + 1.0, np.exp(x))


def test_criterion_1_memory_oracle_equivalence():
    """Retrieval after full accumulation == brute-force concatenated linear attention."""
    start = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        d_k = int(rng.integers(1, 5))
        h = int(rng.integers(1, 3))
        q = rng.uniform(-2, 2, (m, h, n, d_k))
        k = rng.uniform(-2, 2, (m, h, n, d_k))
        v = rng.uniform(-2, 2, (m, h, n, d_k))
        eps = 1e-6

        mem, z = accumulate_memory(Tensor(k), Tensor(v))
        got = retrieve_memory(Tensor(q), mem, z, eps).data

        expected = np.zeros_like(q)
        for head in range(h):
            keys = elu1(k[:, head]).reshape(m * n, d_k)
            vals = v[:, head].reshape(m * n, d_k)
            mem = keys.T @ vals
            zsum = keys.sum(axis=0)
            for i in range(m):
                sq = elu1(q[i, head])
                expected[i, head] = (sq @ mem) / (sq @ zsum[:, None] + eps)
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.time() - start
    report("criterion 1: memory oracle equivalence",
           worst < 1e-10 and elapsed < 5.0,
           f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gate_closure():
    """All gates at -40 reduce the ICM layer and encoder to the channel-independent ones."""
    start = time.time()
    worst = 0.0

    acfg = EncoderConfig(d_model=256, n_heads=4)
    icm_layer = ICMAttention(acfg, np.random.default_rng(0), "attn")
    ref_layer = MultiHeadSelfAttention(acfg, np.random.default_rng(0), "attn")
    icm_layer.beta.data[:] = -40.0

    enc_kwargs = dict(n_blocks=2, d_model=64, n_heads=4, d_ff=128, patch_len=8,
                      lookback=64, horizons=(16,), max_channels=8)
    icm_enc = ForecastEncoder(EncoderConfig(mixer=MixerKind.ICM, **enc_kwargs), seed=1)
    ind_enc = ForecastEncoder(EncoderConfig(mixer=MixerKind.INDEPENDENT, **enc_kwargs), seed=1)
    for block in icm_enc.blocks:
        block.attn.beta.data[:] = -40.0

    rng = np.random.default_rng(42)
    for trial in range(20):
        m = (1, 2, 4, 8)[trial % 4]
        x_layer = rng.standard_normal((1, m, 16, 256))
        diff_layer = np.abs(icm_layer(Tensor(x_layer)).data - ref_layer(Tensor(x_layer)).data).max()
        x_enc = rng.standard_normal((1, m, 64))
        diff_enc = np.abs(icm_enc.encode(x_enc).data - ind_enc.encode(x_enc).data).max()
        worst = max(worst, float(diff_layer), float(diff_enc))
    elapsed = time.time() - start
    report("criterion 2: gate closure", worst < 1e-8 and elapsed < 10.0,
           f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_permutation_equivariance():
    """Permuting input channels permutes ICM encoder outputs identically."""
    start = time.time()
    model = ForecastEncoder(
        EncoderConfig(n_blocks=2, d_model=32, n_heads=2, d_ff=64, patch_len=8,
                      lookback=64, mixer=MixerKind.ICM, horizons=(16,)), seed=2)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        x = rng.standard_normal((1, m, 64))
        perm = rng.permutation(m)
        out = model.encode(x).data
        out_perm = model.encode(x[:, perm]).data
        worst = max(worst, float(np.abs(out_perm - out[:, perm]).max()))
    elapsed = time.time() - start
    report("criterion 3: permutation equivariance", worst < 1e-10 and elapsed < 10.0,
           f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_gradient_verification():
    """Finite-difference gradcheck passes for every mixer kind on the shrunken config."""
    start = time.time()
    all_ok = True
    details = []
    for kind in MixerKind:
        rep = gradcheck(shrunken_config(kind), tolerance=1e-4)
        all_ok = all_ok and rep.passed
        details.append(f"{kind.value}: {max(rep.max_rel_err.values()):.1e}")
    elapsed = time.time() - start
    report("criterion 4: gradient verification", all_ok and elapsed < 120.0,
           f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_5_parameter_accounting():
    """ICM adds exactly n_blocks * n_heads scalars (16 for the default backbone)."""
    icm = ForecastEncoder(EncoderConfig(mixer=MixerKind.ICM), seed=0)
    vanilla = ForecastEncoder(EncoderConfig(mixer=MixerKind.INDEPENDENT), seed=0)
    delta = icm.parameter_count() - vanilla.parameter_count()
    report("criterion 5: parameter accounting", delta == 16, f"delta = {delta}")


def test_criterion_6_synthetic_cross_channel_benefit():
    """ICM beats the channel-independent model on the lagged-copy benchmark."""
    start = time.time()
    series = standardized(generate_lagged_copy(m=4, T=20000, lag=16, noise_std=0.05, seed=0))
    train_cfg = TrainConfig(epochs=15, batch_size=32, learning_rate=3e-3, seed=0,
                            precision="f32", max_train_windows=2000, patience=6)
    results = {}
    for kind in (MixerKind.INDEPENDENT, MixerKind.ICM):
        cfg = EncoderConfig(n_blocks=1, d_model=32, n_heads=4, d_ff=64, patch_len=8,
                            lookback=256, mixer=kind, horizons=(96,))
        model = ForecastEncoder(cfg, seed=0, dtype=np.float32)
        _, rep, _ = train_supervised(model, series, train_cfg, horizon=96)
        results[kind] = rep.entries[(series.name, 96)]["mse"]
    elapsed = time.time() - start
    gap = results[MixerKind.INDEPENDENT] - results[MixerKind.ICM]
    report("criterion 6: synthetic cross-channel benefit",
           results[MixerKind.ICM] < results[MixerKind.INDEPENDENT] and elapsed < 1800.0,
           f"independent MSE {results[MixerKind.INDEPENDENT]:.4f}, "
           f"icm MSE {results[MixerKind.ICM]:.4f}, gap {gap:.4f}, {elapsed:.0f}s")


ETTH1_PATH = os.environ.get("ICMIXER_ETTH1", "data/ETTh1.csv")


@pytest.mark.skipif(not os.path.exists(ETTH1_PATH),
                    reason="public ETTh1.csv not available (set ICMIXER_ETTH1)")
@pytest.mark.skipif(os.environ.get("ICMIXER_RUN_REFERENCE") != "1",
                    reason="multi-hour stretch run; set ICMIXER_RUN_REFERENCE=1 to enable")
def test_criterion_7_bounded_reference_reproduction():
    """Stretch, non-blocking: ICM on ETTh1 horizon 96 near the published 0.383."""
    series = standardized(load_csv(ETTH1_PATH))
    cfg = EncoderConfig(mixer=MixerKind.ICM, horizons=(96,))
    model = ForecastEncoder(cfg, seed=0, dtype=np.float32)
    train_cfg = TrainConfig(epochs=10, batch_size=64, learning_rate=1e-4,
                            seed=0, precision="f32")
    _, rep, _ = train_supervised(model, series, train_cfg, horizon=96)
    test_mse = rep.entries[(series.name, 96)]["mse"]
    report("criterion 7: bounded reference reproduction",
           abs(test_mse - 0.383) <= 0.05, f"test MSE {test_mse:.4f} vs reference 0.383")


def test_criterion_8_concat_softmax_shift_invariance():
    """Equal same/cross-channel biases cancel in the softmax."""
    start = time.time()
    acfg = EncoderConfig(d_model=32, n_heads=2)
    rng = np.random.default_rng(11)
    bias0, biasc = ChannelBias(), ChannelBias()
    biasc.u1.data = biasc.u2.data = np.asarray(1.3)
    layer0 = ConcatAttention(acfg, np.random.default_rng(3), "attn", bias0)
    layerc = ConcatAttention(acfg, np.random.default_rng(3), "attn", biasc)
    x = rng.standard_normal((2, 3, 8, 32))
    diff = float(np.abs(layerc(Tensor(x)).data - layer0(Tensor(x)).data).max())
    elapsed = time.time() - start
    report("criterion 8: concat softmax shift invariance",
           diff < 1e-12 and elapsed < 1.0, f"max abs err {diff:.2e}, {elapsed:.2f}s")
