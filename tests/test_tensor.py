import warnings
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest

from composite_chains import (
    index,
    neg,
    reduce_sum,
    relu,
    sigma,
    sigmoid,
    softmax,
    swapaxes,
    truediv,
)
from icmixer.attention import _sigma
from icmixer.tensor import (
    DimensionError,
    GraphError,
    Parameter,
    Tensor,
    expit,
    layer_norm,
    no_grad,
)
from icmixer.training import mse


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

    def test_right_operand_above_2d_raises(self):
        with pytest.raises(DimensionError, match=r"\(5, 2, 3, 4\).*\(1, 1, 4, 2\)"):
            Tensor(np.ones((5, 2, 3, 4))) @ Tensor(np.ones((1, 1, 4, 2)))


class TestElementwise:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 7)) * 10)
        np.testing.assert_allclose(softmax(x).data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5
        assert expit(0.0) == 0.5
        assert expit(np.float32(0.0)) == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_keeps_dtype(self, dtype):
        assert expit(np.zeros((2, 3), dtype)).dtype == dtype
        assert expit(np.array(1.0, dtype)).dtype == dtype  # 0-d array
        assert expit(dtype(1.0)).dtype == dtype            # numpy scalar
        assert sigmoid(Tensor(np.ones(3, dtype))).dtype == dtype
        assert sigmoid(Tensor(np.array(1.0, dtype))).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_without_warnings(self, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expit(np.array([-1000.0, 1000.0], dtype))
            node = sigmoid(Tensor(np.array([-1000.0, 1000.0], dtype)))
        assert out.tolist() == [0.0, 1.0]
        assert node.data.tolist() == [0.0, 1.0]

    @staticmethod
    def expit_reference(v: float) -> float:
        """1 / (1 + exp(-v)) in 40-digit decimal arithmetic, rounded to float64.

        The reference is more precise than float64 because a float64
        evaluation of the same formula is itself up to 2 ulp from the true
        value, so two such evaluations can sit 4 ulp apart.
        """
        with localcontext() as ctx:
            ctx.prec = 40
            return float(1 / (1 + (-Decimal(v)).exp()))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_within_two_ulp_over_its_range(self, dtype):
        x = np.linspace(-80.0, 80.0, 16001).astype(dtype)
        ref = np.array([self.expit_reference(float(v)) for v in x])
        ulp = np.spacing(ref.astype(dtype)).astype(np.float64)
        err = np.abs(expit(x).astype(np.float64) - ref) / ulp
        assert err.max() <= 2.0, (x[err.argmax()], err.max())

    def test_layer_norm_constant_vector_is_zero(self):
        out = layer_norm(Tensor([3.0, 3.0, 3.0, 3.0]))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_sigma_values(self):
        np.testing.assert_allclose(_sigma(np.array([-1.0, 0.0, 2.0])),
                                   [np.expm1(-1.0) + 1.0, 1.0, 3.0])

    def test_broadcast_add(self):
        out = Tensor(np.ones((2, 3))) + Tensor(np.arange(3.0))
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])


class TestBackward:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        reduce_sum(x * x).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_sigmoid_grad_at_zero(self):
        w = Tensor(0.0, requires_grad=True)
        sigmoid(w).backward()
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
        h = relu(Tensor(x) @ w1t)
        y = sigmoid(h @ Tensor(w2))
        (reduce_sum(y * y) * (1.0 / y.size)).backward()
        fd = finite_difference(loss_np, w1.copy())
        assert rel_err(w1t.grad, fd) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_op_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, (3, 4))
        cases = [
            softmax,
            sigmoid,
            sigma,
            layer_norm,
            lambda t: swapaxes(t * t + 2.0 * t, 0, 1),
            lambda t: t.reshape(2, 6),
            lambda t: index(t, np.s_[1:, ::2]),
        ]
        weights = rng.standard_normal(100)  # random linear functional -> scalar
        for op in cases:
            t = Tensor(x.copy(), requires_grad=True)
            out = op(t)
            w = weights[: out.size].reshape(out.shape)
            reduce_sum(out * Tensor(w)).backward()

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


class TestGraphFreeing:
    """backward() frees each op node as it runs; only leaves keep a gradient."""

    def build(self):
        w = Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), "w")
        x = Tensor(np.array([[1.0, 2.0], [-1.0, 0.5]]), requires_grad=True)
        hidden = sigmoid(x @ w)
        loss = reduce_sum(hidden * hidden)
        return w, x, hidden, loss

    def test_leaves_keep_their_gradients(self):
        w, x, hidden, loss = self.build()
        loss.backward()
        s = 1.0 / (1.0 + np.exp(-(x.data @ w.data)))
        dz = 2.0 * s * s * (1.0 - s)
        np.testing.assert_allclose(w.grad, x.data.T @ dz, rtol=1e-12)
        np.testing.assert_allclose(x.grad, dz @ w.data.T, rtol=1e-12)

    def test_intermediate_nodes_drop_grad_and_parents(self):
        _, _, hidden, loss = self.build()
        loss.backward()
        for node in (hidden, loss):
            assert node.grad is None and node._parents == ()

    def test_saved_activation_dies_while_loss_is_alive(self):
        x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        hidden = sigmoid(x)
        probe = weakref.ref(hidden.data)  # the output array that sigmoid's backward saves
        loss = reduce_sum(hidden * 2.0)
        del hidden
        assert probe() is not None
        loss.backward()
        assert probe() is None
        assert np.isfinite(loss.item()) and x.grad is not None

    def test_a_value_no_backward_reads_dies_before_backward(self):
        """A graph node holds no value: an add's output that neither its own
        backward nor its consumers' read is freed while the loss is alive."""
        x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        total = x + x
        probe = weakref.ref(total.data)
        loss = mse(total + 1.0, np.zeros(6))  # mse saves pred - target, not pred
        del total
        assert probe() is None
        loss.backward()
        np.testing.assert_allclose(x.grad, 4 * (2 * x.data + 1) / 6, rtol=1e-15)

    def test_second_backward_raises(self):
        w, _, _, loss = self.build()
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(GraphError, match="already freed"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, first)

    def test_new_loss_on_a_freed_subgraph_raises(self):
        _, _, hidden, loss = self.build()
        loss.backward()
        with pytest.raises(GraphError, match="already freed"):
            reduce_sum(hidden * 3.0).backward()

    def test_f32_leaf_keeps_f32_grad_in_f64_graph(self):
        a = Tensor(np.arange(1.0, 4.0), requires_grad=True, dtype=np.float32)
        b = Tensor(np.full(3, 0.1), requires_grad=True, dtype=np.float64)
        loss = reduce_sum(a * b + a)
        assert loss.dtype == np.float64
        loss.backward()
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
        np.testing.assert_array_equal(a.grad, np.float32(1.1))


class TestInvariants:
    def test_forward_determinism(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        a = Tensor(rng1.standard_normal((4, 4)))
        b = Tensor(rng2.standard_normal((4, 4)))
        out1 = softmax(a @ a).data
        out2 = softmax(b @ b).data
        assert np.array_equal(out1, out2)

    @pytest.mark.parametrize("key", [
        [0, 1], np.array([1, 1]), np.array([True, False, True]), (slice(None), [0, 0]), True,
    ], ids=["list", "index-array", "bool-mask", "list-in-tuple", "bool"])
    def test_advanced_index_raises(self, key):
        with pytest.raises(DimensionError, match="index"):
            index(Tensor(np.ones((3, 3)), requires_grad=True), key)

    def test_grad_shape_matches_data(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        reduce_sum(x * x).backward()
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
        lambda t: 1.0 + neg(t),
        lambda t: truediv(t, 3),
        lambda t: 2.0 * t,
        lambda t: mse(t, np.zeros(3, t.dtype)),
        lambda t: t + np.float64(-0.5),
        lambda t: t * np.ones(3),
    ], ids=["add", "rsub", "truediv", "rmul", "mean", "np-scalar", "f64-array"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constants_keep_the_tensor_dtype(self, op, dtype):
        t = Tensor(np.arange(1.0, 4.0), requires_grad=True, dtype=dtype)
        out = op(t)
        assert out.dtype == dtype
        reduce_sum(out).backward()
        assert t.grad.dtype == dtype

    def test_tensor_operands_still_promote(self):
        a = Tensor(np.ones(3), dtype=np.float32)
        b = Tensor(np.ones(3), dtype=np.float64)
        assert (a + b).dtype == np.float64
