"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape engine: every operation links its output tensor to its
inputs through a backward closure.  ``backward()`` on a scalar loss
walks the recorded graph once in reverse topological order and
accumulates gradients into ``grad`` of the leaf tensors (those without
parents) that require them.  The walk frees the tape as it goes: once a
node has passed its gradient on, it drops its gradient, its closure and
its parents, so intermediates hold no ``grad`` afterwards and their
memory is released during the walk.  Graphs are single use and only
first-order gradients are supported; everything runs in double
precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DegenerateTokenError, NumericError, ShapeError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """N-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_done", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._done = False
        self._owns_grad = False  # grad was allocated by this backward walk, so it may be added into

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod([self.shape[a] for a in _norm_axes(axis, self.ndim)])
        return tensor_sum(self, axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        raise TypeError("tensor division is only supported by python scalars")

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _norm_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def pack(tensors) -> np.ndarray:
    """Copy the tensors' data, in order, into one flat float64 buffer and make
    each tensor's ``data`` a view of it; returns the buffer.  A later pack of
    the same tensors moves them into its own buffer, so the newest owns them."""
    tensors = list(tensors)
    flat = np.concatenate([t.data for t in tensors], axis=None)
    offset = 0
    for t in tensors:
        t.data = flat[offset:offset + t.size].reshape(t.shape)
        offset += t.size
    return flat


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``.

    The first gradient is kept as a borrowed reference: backward functions
    hand out aliases (``add`` passes one array to both parents, ``reshape`` a
    view, ``tensor_sum`` a read-only broadcast), and a gradient from an
    earlier walk may be held by the caller.  The second write allocates the
    sum, which the tensor then owns and later writes add into in place.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._owns_grad = True


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward_fn)


def matmul(a, b) -> Tensor:
    """Matrix product with optional leading batch dimensions."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul batch dimensions incompatible: {a.shape} @ {b.shape}") from exc

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(data, (a, b), backward_fn)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _as_tensor(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def backward_fn(g):
        _accum(a, np.transpose(g, inv))

    return _make(data, (a,), backward_fn)


def swap_last(a: Tensor) -> Tensor:
    """Transpose the last two dimensions (batched matrix transpose)."""
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    return transpose(a, axes)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    data = a.data.reshape(shape)

    def backward_fn(g):
        _accum(a, g.reshape(old))

    return _make(data, (a,), backward_fn)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accum(t, piece)

    return _make(data, tuple(tensors), backward_fn)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
            return
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return _make(data, (a,), backward_fn)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup (embedding): out[k] = table[ids[k]]."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    data = table.data[ids]

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        _accum(table, gt)

    return _make(data, (table,), backward_fn)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu_into(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """GELU (tanh approximation) 0.5 x (1 + tanh(c (x + 0.044715 x^3))) of
    ``x`` into ``out``, which may be ``x``, and its tanh into ``t``, in the
    operation order of the plain expression, so bit-for-bit its result."""
    np.multiply(x, x, out=t)
    t *= 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.multiply(x, 0.5, out=out)
    out *= t + 1.0


def gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> None:
    """Multiply ``g`` in place by GELU's slope at ``x``; this spends the
    forward's tanh ``t``."""
    # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2)
    d_inner = x * x
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _GELU_C
    local = t + 1.0
    local *= 0.5
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    slope = x * 0.5
    slope *= t
    slope *= d_inner
    local += slope
    g *= local


def gelu(a: Tensor) -> Tensor:
    """Tape op: GELU activation (see :func:`gelu_into`)."""
    a = _as_tensor(a)
    x = a.data
    t, data = np.empty_like(x), np.empty_like(x)
    gelu_into(x, t, data)

    def backward_fn(g):
        g = g.copy()  # g may be an alias handed to another node too
        gelu_grad(x, t, g)  # t is spent after this walk: the graph is single use
        _accum(a, g)

    return _make(data, (a,), backward_fn)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p <= 0."""
    if p <= 0.0:
        return a
    a = _as_tensor(a)
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    data = a.data * mask

    def backward_fn(g):
        _accum(a, g * mask)

    return _make(data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# model-level ops
# ---------------------------------------------------------------------------


def softmax_inplace(x: np.ndarray, nan_message: str) -> np.ndarray:
    """Row-wise softmax over the last axis, written over ``x`` and returned;
    a NaN entry raises NumericError(nan_message).  Entries may be -inf
    (masked positions); a row that is entirely -inf maps to all zeros."""
    if np.isnan(x).any():
        raise NumericError(nan_message)
    hi = np.max(x, axis=-1, keepdims=True)
    x -= np.where(np.isfinite(hi), hi, 0.0)
    np.exp(x, out=x)
    z = x.sum(axis=-1, keepdims=True)
    np.divide(x, z, out=x, where=z > 0)  # a row with z = 0 is all zeros already
    return x


def softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The gradient (g - sum(g p)) p through softmax rows ``p``, in a new array."""
    gp = g * p
    dot = gp.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gp)
    gp *= p
    return gp


def softmax_rows(a: Tensor) -> Tensor:
    """Tape op: row-wise softmax over the last axis (see :func:`softmax_inplace`)."""
    a = _as_tensor(a)
    out = softmax_inplace(a.data.copy(), "softmax input contains NaN")

    def backward_fn(g):
        _accum(a, softmax_grad(g, out))

    return _make(out, (a,), backward_fn)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layer norm's forward arrays: the output and the normalized ``xhat``
    and ``1 / std`` that :func:`_layer_norm_backward` takes."""
    m = x.shape[-1]
    # each mean is a sum and a division by m, as ndarray.mean computes it, at
    # less per-call overhead
    mu = x.sum(axis=-1, keepdims=True)
    mu /= m
    xhat = x - mu
    var = (xhat**2).sum(axis=-1, keepdims=True)
    var /= m
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _layer_norm_backward(g, a: Tensor, gain: Tensor, bias: Tensor, xhat: np.ndarray, inv: np.ndarray) -> None:
    """Accumulate the gradients of layer norm's input and affine parameters."""
    m = xhat.shape[-1]
    if gain.requires_grad:
        _accum(gain, (g * xhat).reshape(-1, m).sum(axis=0))
    if bias.requires_grad:
        _accum(bias, g.reshape(-1, m).sum(axis=0))
    if a.requires_grad:
        # (dxhat - mean(dxhat) - xhat mean(dxhat xhat)) inv, dxhat = g gain
        dxhat = g * gain.data
        dxx = dxhat * xhat
        mean_dx = dxhat.sum(axis=-1, keepdims=True)
        mean_dx /= m
        mean_dxx = dxx.sum(axis=-1, keepdims=True)
        mean_dxx /= m
        dxhat -= mean_dx
        np.multiply(xhat, mean_dxx, out=dxx)
        dxhat -= dxx
        dxhat *= inv
        _accum(a, dxhat)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    m = a.shape[-1]
    if gain.shape != (m,) or bias.shape != (m,):
        raise ShapeError(f"layer_norm affine parameters must have shape ({m},)")
    data, xhat, inv = _layer_norm(a.data, gain.data, bias.data, eps)

    def backward_fn(g):
        _layer_norm_backward(g, a, gain, bias, xhat, inv)

    return _make(data, (a, gain, bias), backward_fn)


# Elements of the hidden array that one pass of mlp's GELU takes: 256 KiB per
# array, so the five or six arrays that a forward or backward block touches
# stay in a 2 MiB L2 (512 rows at m = 16).
_GELU_BLOCK = 1 << 15


def _row_blocks(*arrays: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Matching views of same-shaped arrays, a block of whole rows of about
    ``_GELU_BLOCK`` elements at a time; arrays that fit one block come back whole."""
    if arrays[0].size <= _GELU_BLOCK:
        return [arrays]
    width = arrays[0].shape[-1]
    rows = [a.reshape(-1, width) for a in arrays]
    step = max(1, _GELU_BLOCK // width)
    return [tuple(r[lo:lo + step] for r in rows) for lo in range(0, len(rows[0]), step)]


def mlp(x: Tensor, ln_gain: Tensor, ln_bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        eps: float = 1e-5) -> Tensor:
    """Tape op on Tensors: the pre-LN MLP gelu(layer_norm(x) @ w1 + b1) @ w2 + b2.

    One node holds the chain of layer_norm, matmul, add, gelu, matmul and add
    ops, and repeats its kernels, GEMM shapes, reductions and operation order,
    so outputs and gradients are bit for bit the chain's.  The biases are
    added in place, and the GELU runs over blocks of rows (elementwise, so the
    blocking keeps the bits) into two buffers, its tanh and its output, so it
    makes no hidden-sized temporary: the node keeps three hidden-sized arrays.
    """
    m, hidden = w1.shape
    shapes = (x.shape[-1], ln_gain.shape, ln_bias.shape, b1.shape, w2.shape)
    if shapes != (m, (m,), (m,), (hidden,), (hidden,) + b2.shape):
        raise ShapeError(f"mlp parameters {[p.shape for p in (ln_gain, ln_bias, w1, b1, w2, b2)]} "
                         f"do not fit input {x.shape}")
    parents = (x, ln_gain, ln_bias, w1, b1, w2, b2)
    n, xhat, inv = _layer_norm(x.data, ln_gain.data, ln_bias.data, eps)
    z = n @ w1.data
    z += b1.data
    t = np.empty_like(z)
    # the backward needs z; without a tape the output overwrites it
    h = np.empty_like(z) if _grad_enabled and any(p.requires_grad for p in parents) else z
    for zb, tb, hb in _row_blocks(z, t, h):
        gelu_into(zb, tb, hb)
    out = h @ w2.data
    out += b2.data

    def backward_fn(g):
        if b2.requires_grad:
            _accum(b2, _unbroadcast(g, b2.shape))
        if w2.requires_grad:
            _accum(w2, _unbroadcast(np.swapaxes(h, -1, -2) @ g, w2.shape))
        dz = g @ np.swapaxes(w2.data, -1, -2)
        for zb, tb, gb in _row_blocks(z, t, dz):
            gelu_grad(zb, tb, gb)
        if b1.requires_grad:
            _accum(b1, _unbroadcast(dz, b1.shape))
        if w1.requires_grad:
            _accum(w1, _unbroadcast(np.swapaxes(n, -1, -2) @ dz, w1.shape))
        _layer_norm_backward(dz @ np.swapaxes(w1.data, -1, -2), x, ln_gain, ln_bias, xhat, inv)

    return _make(out, parents, backward_fn)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-probabilities of an array's last axis, shifted by its maximum (no tape)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood (natural log) of integer targets."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError("cross_entropy expects 2-d logits [batch, vocab]")
    t = np.asarray(targets)
    n, v = logits.shape
    if t.shape != (n,):
        raise ShapeError(f"targets must have shape ({n},)")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise ContractError(f"target id outside [0, {v})")
    logp = log_softmax(logits.data)
    data = np.asarray(-logp[np.arange(n), t].mean())

    def backward_fn(g):
        p = np.exp(logp)
        p[np.arange(n), t] -= 1.0
        p *= g / n
        _accum(logits, p)

    return _make(data, (logits,), backward_fn)


def normalize_rows(a: Tensor, zero_fallback: bool = False, eps: float = 1e-12) -> Tensor:
    """L2-normalize the last axis.

    Rows with norm below ``eps`` either raise (default) or are replaced
    by the first basis vector with zero gradient (``zero_fallback``),
    matching the model-level handling of degenerate tokens.
    """
    a = _as_tensor(a)
    norm = np.sqrt((a.data**2).sum(axis=-1, keepdims=True))
    degenerate = norm < eps
    if degenerate.any():
        if not zero_fallback:
            raise DegenerateTokenError("cannot normalize a zero vector")
        norm = np.where(degenerate, 1.0, norm)
    out = a.data / norm
    if degenerate.any():
        e1 = np.zeros(a.shape[-1])
        e1[0] = 1.0
        out = np.where(degenerate, e1, out)

    def backward_fn(g):
        ga = g * out
        dot = ga.sum(axis=-1, keepdims=True)
        np.multiply(out, dot, out=ga)
        np.subtract(g, ga, out=ga)
        ga /= norm
        if degenerate.any():
            ga = np.where(degenerate, 0.0, ga)
        _accum(a, ga)

    return _make(out, (a,), backward_fn)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def graph_nodes(root: Tensor) -> int:
    """The number of tensors in ``root``'s recorded graph, ``root`` and constants included."""
    return len(_toposort(root))


def backward(loss: Tensor) -> None:
    """Accumulate the scalar ``loss``'s gradient into the leaves it depends on,
    freeing every other node of the graph during the walk."""
    if loss.data.size != 1:
        raise ContractError("backward() requires a scalar loss")
    if loss._done:
        raise ContractError("backward() was already called on this graph")
    if not loss.requires_grad:
        raise ContractError("loss has no recorded computation graph")
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    while order:  # popping, so each spent node and what its closure holds is freed now
        node = order.pop()
        # every write into its gradient came before this point, and a gradient
        # handed out by this walk is never added into by a later one
        node._owns_grad = False
        fn = node._backward_fn
        if fn is not None and node.grad is not None:
            fn(node.grad)
        if node._parents:  # leaves keep their gradient
            node.grad = None
        node._backward_fn = None
        node._parents = ()
    loss._done = True
