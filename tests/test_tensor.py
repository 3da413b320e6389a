import numpy as np
import pytest

from icmixer.attention import sigma
from icmixer.tensor import (
    DimensionError,
    GraphError,
    Parameter,
    Tensor,
    concat,
    layer_norm,
    no_grad,
)


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def rel_err(a, b, floor=1e-8):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[2.0], [3.0]])
        np.testing.assert_array_equal((a @ b).data, [[2.0], [3.0]])

    def test_row_times_column(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert out.item() == 11.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, expected, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 2, 3, 4))
        b = rng.standard_normal((1, 1, 4, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestElementwise:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(Tensor([0.0, 0.0]).softmax().data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 7)) * 10)
        np.testing.assert_allclose(x.softmax().data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_sigmoid_at_zero(self):
        assert Tensor(0.0).sigmoid().item() == 0.5

    def test_layer_norm_constant_vector_is_zero(self):
        out = layer_norm(Tensor([3.0, 3.0, 3.0, 3.0]))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_sigma_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(sigma(x).data, [np.expm1(-1.0) + 1.0, 1.0, 3.0])

    def test_broadcast_add(self):
        out = Tensor(np.ones((2, 3))) + Tensor(np.arange(3.0))
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])


class TestBackward:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_sigmoid_grad_at_zero(self):
        w = Tensor(0.0, requires_grad=True)
        w.sigmoid().backward()
        assert w.grad == pytest.approx(0.25)

    def test_backward_on_non_scalar_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            (x * x).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x + x).backward()
        assert x.grad == pytest.approx(7.0)

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        w1 = rng.uniform(-2, 2, (4, 5))
        w2 = rng.uniform(-2, 2, (5, 2))
        x = rng.uniform(-2, 2, (3, 4))

        def loss_np(w1v):
            h = np.maximum(x @ w1v, 0.0)
            y = 1.0 / (1.0 + np.exp(-(h @ w2)))
            return (y * y).mean()

        w1t = Tensor(w1, requires_grad=True)
        h = (Tensor(x) @ w1t).relu()
        y = (h @ Tensor(w2)).sigmoid()
        (y * y).mean().backward()
        fd = finite_difference(loss_np, w1.copy())
        assert rel_err(w1t.grad, fd) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_op_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, (3, 4))
        cases = [
            lambda t: t.softmax(),
            lambda t: t.sigmoid(),
            sigma,
            lambda t: layer_norm(t),
            lambda t: t.exp(),
            lambda t: (t * t + 2.0 * t).swapaxes(0, 1),
            lambda t: t.reshape(2, 6),
            lambda t: t[1:, ::2],
            lambda t: t.mean(axis=0),
            lambda t: concat([t, t * 3.0], axis=1),
        ]
        weights = rng.standard_normal(100)  # random linear functional -> scalar
        for op in cases:
            t = Tensor(x.copy(), requires_grad=True)
            out = op(t)
            w = weights[: out.size].reshape(out.shape)
            (out * Tensor(w)).sum().backward()

            def loss_np(xv, op=op, w=w):
                with no_grad():
                    return float((op(Tensor(xv)).data * w).sum())

            fd = finite_difference(loss_np, x.copy())
            assert rel_err(t.grad, fd) < 1e-6

    def test_backward_visits_each_node_once(self):
        # Diamond graph: y = a*a used twice; grads must not double count.
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        (y + y).backward()
        assert x.grad == pytest.approx(8.0)


class TestInvariants:
    def test_forward_determinism(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        a = Tensor(rng1.standard_normal((4, 4)))
        b = Tensor(rng2.standard_normal((4, 4)))
        out1 = (a @ a).softmax().data
        out2 = (b @ b).softmax().data
        assert np.array_equal(out1, out2)

    def test_grad_shape_matches_data(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.shape == x.shape

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad

    def test_parameter_always_requires_grad(self):
        with no_grad():
            p = Parameter(np.zeros(3), name="p")
        assert p.requires_grad and p.name == "p"


class TestPrecision:
    """Python scalars and array constants take the Tensor operand's dtype."""

    @pytest.mark.parametrize("op", [
        lambda t: t + 1.0,
        lambda t: 1.0 - t,
        lambda t: t / 3,
        lambda t: 2.0 * t,
        lambda t: t.mean(),
        lambda t: t - np.float64(0.5),
        lambda t: t * np.ones(3),
    ], ids=["add", "rsub", "truediv", "rmul", "mean", "np-scalar", "f64-array"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constants_keep_the_tensor_dtype(self, op, dtype):
        t = Tensor(np.arange(1.0, 4.0), requires_grad=True, dtype=dtype)
        out = op(t)
        assert out.dtype == dtype
        out.sum().backward()
        assert t.grad.dtype == dtype

    def test_tensor_operands_still_promote(self):
        a = Tensor(np.ones(3), dtype=np.float32)
        b = Tensor(np.ones(3), dtype=np.float64)
        assert (a + b).dtype == np.float64
