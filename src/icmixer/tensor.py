"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the models in this package is a ``Tensor``
wrapping a numpy array. Each differentiable operation records a backward
closure; ``Tensor.backward()`` replays them in reverse topological order.
Broadcasting follows numpy rules on leading batch dimensions, and gradients
are summed back down to the original operand shapes. Python scalars and
array constants take the dtype of the Tensor they meet, so a float32 graph
computes and differentiates in float32.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import expit


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (e.g. backward on a non-scalar)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (cheap pure-forward mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- backward pass --------------------------------------------------------

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self):
        """Populate ``grad`` on every reachable tensor with ∂self/∂tensor."""
        if self.size != 1:
            raise GraphError(f"backward() requires a scalar loss, got shape {self.shape}")
        # Iterative topological sort; each node's closure runs exactly once.
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, x) -> "Tensor":
        """Wrap a scalar or array constant in this tensor's dtype.

        Constants never promote: ``f32_tensor + 1.0`` stays float32. Two
        Tensors combine under numpy's promotion rules.
        """
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._make(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor._make(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    def __neg__(self):
        a = self

        def bwd(g):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._make(-a.data, (a,), bwd)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data / b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * out_data / b.data, b.shape))

        return Tensor._make(out_data, (a, b), bwd)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g * 0.5 / out_data)

        return Tensor._make(out_data, (a,), bwd)

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g * out_data)

        return Tensor._make(out_data, (a,), bwd)

    def abs(self):
        a = self

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g * np.sign(a.data))

        return Tensor._make(np.abs(a.data), (a,), bwd)

    # -- nonlinearities -------------------------------------------------------

    def sigmoid(self):
        a = self
        out_data = expit(a.data)

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (a,), bwd)

    def relu(self):
        a = self
        # np.where on a data-dependent mask is branchy here (~3 ns per
        # element); maximum, and a compare against the output in backward,
        # are not. NaN propagates.
        out_data = np.maximum(a.data, 0)

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g * (out_data > 0))

        return Tensor._make(out_data, (a,), bwd)

    def softmax(self, axis=-1):
        a = self
        out_data = a.data - a.data.max(axis=axis, keepdims=True)
        np.exp(out_data, out=out_data)
        out_data /= out_data.sum(axis=axis, keepdims=True)

        def bwd(g):
            if a.requires_grad:
                dot = (g * out_data).sum(axis=axis, keepdims=True)
                a._accumulate(out_data * (g - dot))

        return Tensor._make(out_data, (a,), bwd)

    # -- linear algebra -------------------------------------------------------

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
        if b.ndim == 2:
            return linear(a, b)
        try:
            out_data = a.data @ b.data
        except ValueError as err:
            raise DimensionError(f"matmul batch dims incompatible: {a.shape} vs {b.shape}") from err

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

        return Tensor._make(out_data, (a, b), bwd)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        in_shape = a.shape

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g.reshape(in_shape))

        return Tensor._make(a.data.reshape(shape), (a,), bwd)

    def swapaxes(self, ax1, ax2):
        a = self

        def bwd(g):
            if a.requires_grad:
                a._accumulate(g.swapaxes(ax1, ax2))

        return Tensor._make(a.data.swapaxes(ax1, ax2), (a,), bwd)

    def __getitem__(self, key):
        a = self

        def bwd(g):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                np.add.at(full, key, g)
                a._accumulate(full)

        return Tensor._make(a.data[key], (a,), bwd)

    def sum(self, axis=None, keepdims=False):
        a = self
        in_shape = a.shape

        def bwd(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate(np.broadcast_to(g, in_shape).copy())
                return
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(ax % len(in_shape) for ax in axes):
                    g = np.expand_dims(g, ax)
            a._accumulate(np.broadcast_to(g, in_shape).copy())

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of an empty sequence")
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for a 2-D weight ``w`` [d, d_out], as one node and one GEMM.

    ``x`` is [..., d]; ``b``, if given, is [d_out]. The leading dims of ``x``
    are folded into the GEMM's rows, and the backward keeps the 2-D ``x`` and
    the ``w`` that were multiplied.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear needs [..., d] @ [d, d_out], got {x.shape} and {w.shape}")
    d, d_out = w.shape
    if b is not None and b.shape != (d_out,):
        raise DimensionError(f"linear bias must have shape ({d_out},), got {b.shape}")
    # numpy's matmul of an N-D left operand with a 2-D right one runs one
    # small GEMM per leading index (M = n_patches rows each). With BLAS on one
    # thread, one [-1, d] GEMM is 1.5-1.7x faster forward and 2.1-2.4x faster
    # for the input gradient at every default-backbone projection shape, with
    # bitwise-equal products.
    x2, w2 = x.data.reshape(-1, d), w.data
    out_data = x2 @ w2
    if b is not None:  # in place on the fresh GEMM output, in the promoted dtype
        out_data = out_data.astype(np.result_type(out_data, b.data), copy=False)
        out_data += b.data
    out_data = out_data.reshape(*x.shape[:-1], d_out)

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            x._accumulate((g2 @ w2.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._make(out_data, parents, bwd)


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis, optionally affine, as one node.

    The backward is analytic and saves only the normalized input ``xhat`` and
    the reciprocal standard deviation ``rstd``.
    """
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= rstd
    out_data = xhat if gain is None else xhat * gain.data
    if bias is not None:
        out_data = out_data + bias.data
    if out_data is xhat:  # the output must never alias the saved xhat
        out_data = xhat.copy()

    def bwd(g):
        if gain is not None and gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            gx = g * gain.data if gain is not None else g
            # With gx = dL/dxhat: dL/dx = rstd * (gx - mean(gx) - xhat * mean(gx * xhat)).
            dx = xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            dx += gx.mean(axis=-1, keepdims=True)
            np.subtract(gx, dx, out=dx)
            dx *= rstd
            x._accumulate(_unbroadcast(dx, x.shape))

    parents = tuple(t for t in (x, gain, bias) if t is not None)
    return Tensor._make(out_data, parents, bwd)


class Parameter(Tensor):
    """A named trainable tensor registered in a model's parameter map."""

    __slots__ = ("name",)

    def __init__(self, data, name: str, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.requires_grad = True  # immune to no_grad() at construction time
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"
