"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the models in this package is a ``Tensor``
wrapping a numpy array. Each differentiable operation records a backward
closure; ``Tensor.backward()`` replays them in reverse topological order and
frees each node as its closure finishes, so only leaves keep ``.grad``.
Broadcasting follows numpy rules on leading batch dimensions, and gradients
are summed back down to the original operand shapes. Python scalars and
array constants take the dtype of the Tensor they meet, so a float32 graph
computes and differentiates in float32.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (e.g. backward on a non-scalar)."""


_grad_enabled = True

# Byte budgets of the package's three blocked loops. Each loop cuts its
# batch with ``blocks``: the fewest near-equal blocks of whole items whose
# bytes fit the budget, each at least one item.
# - ``FORWARD_BLOCK_BYTES``, about one core's L2 cache, has two users.
#   - A forecast that builds no graph (``forecast_normalized``) runs its
#     batch in blocks of whole windows whose residual stream
#     ([m, n_patches, d_model] per window) fits it. ICM attention holds about
#     nine arrays of that size at once, so a forward-only pass keeps ~17 MB
#     of activations alive whatever the batch; on the default 7-channel f32
#     backbone a block is at most 9 windows. Budgets of 1 and 4 MiB ran
#     within noise of this one.
#   - ``dot_attention`` runs forward and backward in tiles of whole batch
#     items whose scores fit it, so that only the saved probabilities are
#     score-sized; concat's scores are the ones that exceed it.
# - ``TRAIN_BLOCK_BYTES`` bounds the graph of one block of a train step
#   (``training.batch_gradients``), each window's graph sized by
#   ``EncoderConfig.graph_window_bytes``. Every extra block reads every
#   weight and adds every weight gradient once more, and glibc may give the
#   freed heap back between blocks and fault it in again. Measured on the
#   backbone-train benchmark (default 7-channel f32 backbone, ~23 MB a
#   window, batch 8; peak, minor faults a step, windows/s in alternating
#   20 s runs against one pass): one pass 308-311 MB, 2.8-3.5 k faults;
#   this budget, 2 blocks of 4, 226-230 MB, 3.8-4.7 k, +2.4% (5 of 10
#   pairs faster); 80 MiB, 2/3/3, 206 MB, 12.5 k; 64 MiB, 4 blocks of 2,
#   186-188 MB, but faster in 10 of 28 pairs (medians -7.1% to +1.1% over
#   three sets). Any budget of at least ~32 MiB keeps the criterion-6 desk
#   config at batch 32 in one pass.
FORWARD_BLOCK_BYTES = 2 * 1024 * 1024
TRAIN_BLOCK_BYTES = 96 * 1024 * 1024


def blocks(n: int, item_bytes: int, budget: int) -> list:
    """The fewest near-equal slices of ``range(n)`` whose items fit ``budget``.

    Each slice holds ``item_bytes`` per item and at least one item, and the
    sizes differ by at most one; ``n = 0`` gives one empty slice.
    """
    count = max(1, -(-n // max(1, budget // max(1, item_bytes))))
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


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


def grad_enabled() -> bool:
    """False inside ``no_grad()``: no operation records a graph node."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def expit(x) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))``, returned in x's float dtype.

    It is evaluated in at least float64 and rounded once: numpy's float32
    ``exp`` is off by up to ~2.3 ulp, which would leave float32 results up to
    ~3 ulp from the true value, against 0.5 ulp this way. Large negative
    inputs overflow ``exp(-x)`` to inf and large positive ones underflow it to
    0, which saturate the result to exactly 0 and 1; neither is reported.
    """
    x = np.asarray(x)
    wide = x.astype(np.promote_types(x.dtype, np.float64), copy=False)
    with np.errstate(over="ignore", under="ignore"):
        y = 1 / (1 + np.exp(-wide))
    return y.astype(x.dtype, copy=False) if x.dtype.kind == "f" else y


# -- row kernels ---------------------------------------------------------------
#
# numpy reduces along the last axis one row at a time, at 35-80 ns a row
# whatever its length (numpy 2.4, x86-64), so on the short rows of attention,
# layer norm and instance norm (32-256 elements) a last-axis .sum or .max
# costs 5-40x a pass over the whole array. These kernels reduce all rows at
# once.

def row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, [..., n] -> [..., 1], as one GEMV against ones."""
    n = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), n) @ np.ones(n, x.dtype)
    return rows.reshape(*x.shape[:-1], 1)


def row_max(x: np.ndarray) -> np.ndarray:
    """Exact max over the last axis, [..., n] -> [..., 1]; NaN propagates.

    Pairwise halving with ``np.maximum`` while rows are longer than 16 (one
    pass over each half), then a sweep over the remaining columns, each one
    strided pass over all rows.
    """
    n = x.shape[-1]
    if n == 0:
        raise DimensionError("row_max of rows of length 0")
    y = x.reshape(math.prod(x.shape[:-1]), n)
    while n > 16:
        half = n // 2
        z = np.maximum(y[:, :half], y[:, half:2 * half])
        if n % 2:  # fold the odd last column into the first
            np.maximum(z[:, 0], y[:, -1], out=z[:, 0])
        y, n = z, half
    out = y[:, 0].copy()
    for j in range(1, n):
        np.maximum(out, y[:, j], out=out)
    return out.reshape(*x.shape[:-1], 1)


def _freed(grad):
    """Backward of a node whose closure already ran and was released."""
    raise GraphError("graph already freed by an earlier backward()")


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
        if self.grad is None:  # a copy: ``grad`` may be a view of another gradient
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self):
        """Populate ``grad`` on every reachable leaf with ∂self/∂leaf, freeing the graph.

        Each op node is released as soon as its closure has run: its ``grad``
        becomes None, it drops its parents, and the closure (with every
        array it saved) is replaced by one that raises ``GraphError``. Only
        leaves (parameters and tensors built with ``requires_grad=True``)
        keep ``grad``, and a second backward through any freed node raises.
        """
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
        # Popping drops this loop's reference to each node once it has run.
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _freed

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

    # -- linear algebra -------------------------------------------------------

    def __matmul__(self, other):
        """``self @ w`` for a 2-D ``w``: ``linear`` without a bias."""
        return linear(self, self._coerce(other))

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


def _affine(x2: np.ndarray, w2: np.ndarray, b: Tensor | None) -> np.ndarray:
    """``x2 @ w2 + b`` on a 2-D ``x2``, the bias added in place in the promoted dtype."""
    out = x2 @ w2
    if b is not None:
        out = out.astype(np.result_type(out, b.data), copy=False)
        out += b.data
    return out


def _affine_backward(x2, w2, w: Tensor, b: Tensor | None, g2, need_x: bool):
    """Accumulate the gradients of ``w`` and ``b``; return dL/dx2 if ``need_x``."""
    if w.requires_grad:
        w._accumulate(x2.T @ g2)
    if b is not None and b.requires_grad:
        b._accumulate(g2.sum(axis=0))
    return g2 @ w2.T if need_x else None


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
    out_data = _affine(x2, w2, b).reshape(*x.shape[:-1], d_out)

    def bwd(g):
        gx = _affine_backward(x2, w2, w, b, g.reshape(-1, d_out), x.requires_grad)
        if gx is not None:
            x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out_data, (x, w) if b is None else (x, w, b), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` as one node, bitwise equal to that chain.

    ReLU and the backward's mask run in place, so the graph keeps one ``d_ff``-wide
    array, the post-ReLU hidden ``h``, besides the 2-D ``x``. NaN propagates.
    """
    x2, w1d, w2d = x.data.reshape(-1, x.shape[-1]), w1.data, w2.data
    h = _affine(x2, w1d, b1)
    np.maximum(h, 0, out=h)  # branch-free, unlike np.where on a data-dependent mask
    out_data = _affine(h, w2d, b2)

    def bwd(g):
        gh = _affine_backward(h, w2d, w2, b2, g.reshape(out_data.shape), need_x=True)
        gh *= h > 0  # dL/d(pre-ReLU), made even when only w2 and b2 train (no model does)
        gx = _affine_backward(x2, w1d, w1, b1, gh, x.requires_grad)
        if gx is not None:
            x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out_data.reshape(*x.shape[:-1], w2d.shape[1]), (x, w1, b1, w2, b2), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Affine layer normalization over the last axis (variance epsilon 1e-5), as one node.

    The backward is analytic and saves only the normalized input ``xhat`` and
    the reciprocal standard deviation ``rstd``.
    """
    d = x.shape[-1]
    xhat = x.data - row_sum(x.data) / d
    rstd = 1.0 / np.sqrt(row_sum(xhat * xhat) / d + 1e-5)
    xhat *= rstd
    out_data = xhat * gain.data + bias.data

    def bwd(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            gx = g * gain.data
            # With gx = dL/dxhat: dL/dx = rstd * (gx - mean(gx) - xhat * mean(gx * xhat)).
            dx = xhat * (row_sum(gx * xhat) / d)
            dx += row_sum(gx) / d
            np.subtract(gx, dx, out=dx)
            dx *= rstd
            x._accumulate(_unbroadcast(dx, x.shape))

    return Tensor._make(out_data, (x, gain, bias), bwd)


class Parameter(Tensor):
    """A named trainable tensor registered in a model's parameter map."""

    __slots__ = ("name",)

    def __init__(self, data, name: str, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.requires_grad = True  # immune to no_grad() at construction time
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"
