"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the models in this package is a ``Tensor``
wrapping a numpy array and a graph ``Node``, its gradient slot. Each
differentiable operation records a backward closure on its output's node;
``Tensor.backward()`` replays them in reverse topological order and frees
each node as its closure finishes, so only leaves keep ``.grad``. A node
holds no value: an op computes its output from its operands' arrays, then
rebinds the operand names to their nodes (``_nodes``), so that its closure
captures nodes and exactly the arrays it reads. A value no backward reads,
such as a residual sum, dies with its last ``Tensor``. The layers' kernels
here, ``linear``, ``feed_forward`` and ``layer_norm``, are one node each.
Broadcasting follows numpy rules on leading batch dimensions, and gradients
are summed back down to the original operand shapes. Python scalars and
array constants take the dtype of the Tensor they meet, so a float32 graph
computes and differentiates in float32.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (e.g. backward on a non-scalar)."""


_grad_enabled = True

# Byte budgets of the package's blocked loops, each cut by ``blocks``; the
# measurements behind them are in CHANGES.md.
# - ``FORWARD_BLOCK_BYTES``, about one core's L2 cache, bounds a no-graph
#   forecast block's residual stream. Half of it bounds a ``dot_attention``
#   tile's scores, as that tile's backward holds two more arrays its size.
# - ``TRAIN_BLOCK_BYTES`` bounds the graph of one train-step block: it keeps
#   the default backbone's batch of 8 at 4 blocks of 2, as larger blocks peak
#   higher and one-window blocks reread every weight for little memory.
FORWARD_BLOCK_BYTES = 2 * 1024 * 1024
TRAIN_BLOCK_BYTES = 32 * 1024 * 1024
# Elements of a parameter that a pass over it takes at once (256 KiB of
# float64): an Adam update and a fresh init's draws run chunk by chunk, so
# neither holds a temporary the size of the default backbone's head weight.
PARAM_CHUNK = 2 ** 15


def pin_allocator() -> bool:
    """Pin glibc malloc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc serves a request above its mmap threshold (128 KiB at start-up)
    with a fresh mapping and unmaps it on free, so each such array is
    faulted in page by page again. Its dynamic rule raises the threshold to
    the size of each mapped chunk freed, up to 32 MiB, and the trim
    threshold to twice that: how fast a run's arrays come back depended on
    the largest array an earlier step happened to free. These are the
    values the rule reaches after a 32 MiB free, held from the first call.
    ``train_supervised`` and ``evaluate`` call this first; calling it again
    changes nothing. Returns whether both were set. Off glibc it does
    nothing and returns False.
    """
    try:
        libc = ctypes.CDLL(None)  # the C library this process runs on
        libc.gnu_get_libc_version  # only glibc has it
    except (AttributeError, OSError, TypeError):  # TypeError: Windows takes no None
        return False
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    return all([mallopt(m_mmap_threshold, 32 << 20), mallopt(m_trim_threshold, 64 << 20)])


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

# The vectors of ones of ``row_sum`` and of the layer norm's column sums, one
# per (length, dtype), shared and never written.
_ones = functools.lru_cache(maxsize=32)(np.ones)


def row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, [..., n] -> [..., 1], as a GEMV against ones.

    The GEMV runs over whole groups of 4 rows, the last 0-3 rows copied into
    a zeroed group: BLAS sums the rows past the last multiple of 4 in
    another order, so a row's sum would depend on how many rows share the call.
    """
    n = x.shape[-1]
    rows = math.prod(x.shape[:-1])
    x2, ones = x.reshape(rows, n), _ones(n, x.dtype)
    full = rows - rows % 4
    out = np.empty(rows, x.dtype)
    np.matmul(x2[:full], ones, out=out[:full])
    if full < rows:
        tail = np.zeros((4, n), x.dtype)
        tail[:rows - full] = x2[full:]
        out[full:] = (tail @ ones)[:rows - full]
    return out.reshape(*x.shape[:-1], 1)


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


class Node:
    """One vertex of the autodiff graph: a gradient slot, never a value.

    It keeps the shape and dtype of its tensor's value, its parents' nodes
    and the backward closure.
    """

    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "shape", "dtype")

    def __init__(self, shape: tuple, dtype: np.dtype, requires_grad: bool):
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self.shape = shape
        self.dtype = dtype

    @property
    def data(self) -> np.ndarray:
        """A zero-stride stand-in of the value's shape and dtype; it allocates nothing.

        It serves only graph walkers that read ``data.dtype`` and
        ``data.nbytes`` of every node, such as the benchmark's graph census,
        and can go once that census reads a table the package keeps. The
        value itself is not kept.
        """
        return np.broadcast_to(np.empty((), self.dtype), self.shape)

    def _accumulate(self, grad: np.ndarray, fresh: bool = False):
        """Add ``grad`` into this node's gradient.

        A first contribution is copied, since ``grad`` may be a view of another
        gradient or passed to more than one parent. A closure passes
        ``fresh=True`` for an array it has just allocated and never touches
        again; that array is adopted as the gradient when it is an ndarray
        (not a numpy scalar) whose shape and dtype already match.
        """
        if self.grad is not None:
            self.grad += grad
        elif (fresh and type(grad) is np.ndarray and grad.dtype == self.dtype
              and grad.shape == self.shape):
            self.grad = grad
        else:
            self.grad = np.array(grad, dtype=self.dtype)


def _on_node(name: str) -> property:
    """A ``Tensor`` property that reads and writes the attribute ``name`` of its node."""
    return property(operator.attrgetter(f"_node.{name}"),
                    lambda tensor, value: setattr(tensor._node, name, value))


class Tensor:
    """A numpy array and the graph node that receives its gradient."""

    __slots__ = ("_data", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data, dtype=dtype)
        if data.dtype.kind != "f":
            data = data.astype(np.float64)
        self._data = data
        self._node = Node(data.shape, data.dtype, bool(requires_grad) and _grad_enabled)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        """A Tensor of ``data`` whose node has the nodes ``parents`` and ``backward``."""
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            node = out._node
            node.requires_grad = True
            node._parents = tuple(parents)
            node._backward = backward
        return out

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value):
        self._data = value
        self._node.shape, self._node.dtype = value.shape, value.dtype

    # The graph state lives on the node.
    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _parents = _on_node("_parents")
    _backward = _on_node("_backward")

    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self._data.reshape(()))

    # -- backward pass --------------------------------------------------------

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
        root = self._node
        topo, visited, stack = [], set(), [(root, False)]
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
        root._accumulate(np.ones(root.shape, root.dtype), fresh=True)
        # Popping drops this loop's reference to each node once it has run.
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _freed

    def zero_grad(self):
        self._node.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, x) -> "Tensor":
        """Wrap a scalar or array constant in this tensor's dtype.

        Constants never promote: ``f32_tensor + 1.0`` stays float32. Two
        Tensors combine under numpy's promotion rules.
        """
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self._node, other._node

        def bwd(g):  # the one ``g`` goes to both parents, so each copies it
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._make(self._data + other._data, (a, b), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self._node, other._node
        a_data, b_data = self._data, other._data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b_data, a.shape), fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a_data, b.shape), fresh=True)

        return Tensor._make(a_data * b_data, (a, b), bwd)

    __rmul__ = __mul__

    # -- linear algebra -------------------------------------------------------

    def __matmul__(self, other):
        """``self @ w`` for a 2-D ``w``: ``linear`` without a bias."""
        return linear(self, self._coerce(other))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self._node
        in_shape = a.shape

        def bwd(g):  # a view of ``g``, so it is copied
            if a.requires_grad:
                a._accumulate(g.reshape(in_shape))

        return Tensor._make(self._data.reshape(shape), (a,), bwd)


def _nodes(*tensors) -> tuple:
    """The graph nodes of ``tensors``; None stays None."""
    return tuple(None if t is None else t._node for t in tensors)


def _affine(x2: np.ndarray, w2: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """``x2 @ w2 + b`` on a 2-D ``x2``, the bias added in place in the promoted dtype."""
    out = x2 @ w2
    if b is not None:
        out = out.astype(np.result_type(out, b), copy=False)
        out += b
    return out


def _affine_backward(x2, w2, w: Node, b: Node | None, g2, need_x: bool):
    """Accumulate the gradients of ``w`` and ``b``; return dL/dx2 if ``need_x``."""
    if w.requires_grad:
        w._accumulate(x2.T @ g2, fresh=True)
    if b is not None and b.requires_grad:
        b._accumulate(g2.sum(axis=0), fresh=True)
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
    # One [-1, d] GEMM, not numpy's N-D matmul, which runs one small GEMM per
    # leading index (M = n_patches rows each): the same products, faster.
    x2, w2 = x.data.reshape(-1, d), w.data
    out_data = _affine(x2, w2, None if b is None else b.data)
    x, w, b = _nodes(x, w, b)

    def bwd(g):
        gx = _affine_backward(x2, w2, w, b, g.reshape(-1, d_out), x.requires_grad)
        if gx is not None:
            x._accumulate(gx.reshape(x.shape), fresh=True)

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._make(out_data.reshape(*x.shape[:-1], d_out), parents, bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` as one node, bitwise equal to that chain.

    ReLU and the backward's mask run in place, so the graph keeps one ``d_ff``-wide
    array, the post-ReLU hidden ``h``, besides the 2-D ``x``. NaN propagates.
    """
    x2, w1d, w2d = x.data.reshape(-1, x.shape[-1]), w1.data, w2.data
    h = _affine(x2, w1d, b1.data)
    np.maximum(h, 0, out=h)  # branch-free, unlike np.where on a data-dependent mask
    out_data = _affine(h, w2d, b2.data)
    x, w1, b1, w2, b2 = _nodes(x, w1, b1, w2, b2)

    def bwd(g):
        gh = _affine_backward(h, w2d, w2, b2, g.reshape(len(h), -1), need_x=True)
        gh *= h > 0  # dL/d(pre-ReLU), made even when only w2 and b2 train (no model does)
        gx = _affine_backward(x2, w1d, w1, b1, gh, x.requires_grad)
        if gx is not None:
            x._accumulate(gx.reshape(x.shape), fresh=True)

    return Tensor._make(out_data.reshape(*x.shape[:-1], w2d.shape[1]), (x, w1, b1, w2, b2), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis (variance epsilon 1e-5), as one node.

    Returns ``xhat * gain + bias`` with ``xhat = (x - mean) * rstd`` and a
    [d] ``gain`` and ``bias``. The backward keeps ``xhat`` and the reciprocal
    standard deviation ``rstd``, not the output, and makes the gradient of
    each of x, gain and bias only when that input requires it.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"a layer norm over {d} features needs a [{d}] gain and bias, "
                             f"got {gain.shape}, {bias.shape}")
    gain_data = gain.data
    xhat = x.data - row_sum(x.data) / d
    rstd = 1.0 / np.sqrt(row_sum(xhat * xhat) / d + 1e-5)
    xhat *= rstd
    out = xhat * gain_data
    out += bias.data
    x, gain, bias = _nodes(x, gain, bias)

    def bwd(g):
        # Column sums as a GEMV against ones: numpy's ``sum(axis=0)`` of a
        # narrow [rows, d] array is several times slower.
        ones = _ones(g.size // d, g.dtype)
        if gain.requires_grad:
            gain._accumulate(ones @ (g * xhat).reshape(-1, d), fresh=True)
        if bias.requires_grad:
            bias._accumulate(ones @ g.reshape(-1, d), fresh=True)
        if x.requires_grad:  # dL/dx = rstd * (gx - mean(gx) - xhat * mean(gx * xhat))
            gx = g * gain_data  # dL/dxhat
            dx = xhat * (row_sum(gx * xhat) / d)
            dx += row_sum(gx) / d
            np.subtract(gx, dx, out=dx)
            dx *= rstd
            x._accumulate(dx, fresh=True)

    return Tensor._make(out, (x, gain, bias), bwd)


def draw_normal(rng, shape, dtype, transform) -> np.ndarray:
    """A fresh ``dtype`` array of ``shape``: ``transform`` of ``rng``'s standard normal draws.

    The draws come ``PARAM_CHUNK`` at a time; each chunk is transformed in
    float64 and cast into place, so no float64 array of the whole shape is
    made. The chunks continue one stream, so the values are bitwise those of
    ``transform(rng.standard_normal(shape)).astype(dtype)``.
    """
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, PARAM_CHUNK):
        hi = min(lo + PARAM_CHUNK, flat.size)
        flat[lo:hi] = transform(rng.standard_normal(hi - lo))
    return out


class Parameter(Tensor):
    """A named trainable tensor registered in a model's parameter map."""

    __slots__ = ("name",)

    def __init__(self, data, name: str, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.requires_grad = True  # immune to no_grad() at construction time
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"
