"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape engine: every operation links its output tensor to its
inputs through a backward closure.  ``backward()`` on a scalar loss
walks the recorded graph once in reverse topological order and
accumulates gradients into ``grad`` of every tensor that requires
them.  Graphs are single use and only first-order gradients are
supported; everything runs in double precision.
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._done = False

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
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


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


def gelu(a: Tensor) -> Tensor:
    """GELU activation (tanh approximation)."""
    a = _as_tensor(a)
    x = a.data
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * x2 * x)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward_fn(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        _accum(a, local * g)

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


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis.

    Entries may be -inf (masked positions).  A row that is entirely
    -inf maps to all zeros rather than NaN, which keeps the function
    total even though the causal mask never produces such rows.
    """
    a = _as_tensor(a)
    x = a.data
    if np.isnan(x).any():
        raise NumericError("softmax input contains NaN")
    hi = np.max(x, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    e = np.exp(x - shift)
    z = e.sum(axis=-1, keepdims=True)
    out = np.divide(e, z, out=np.zeros_like(e), where=z > 0)

    def backward_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(a, out * (g - dot))

    return _make(out, (a,), backward_fn)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    m = a.shape[-1]
    if gain.shape != (m,) or bias.shape != (m,):
        raise ShapeError(f"layer_norm affine parameters must have shape ({m},)")
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def backward_fn(g):
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, m).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, m).sum(axis=0))
        if a.requires_grad:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(a, term * inv)

    return _make(data, (a, gain, bias), backward_fn)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-probabilities of an array's last axis, shifted by its maximum (no tape)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
        _accum(logits, p * (g / n))

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
        dot = (g * out).sum(axis=-1, keepdims=True)
        ga = (g - out * dot) / norm
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


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the scalar ``loss`` depends on."""
    if loss.data.size != 1:
        raise ContractError("backward() requires a scalar loss")
    if loss._done:
        raise ContractError("backward() was already called on this graph")
    if not loss.requires_grad:
        raise ContractError("loss has no recorded computation graph")
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        fn = node._backward_fn
        if fn is not None and node.grad is not None:
            fn(node.grad)
        node._backward_fn = None
        node._parents = ()
    loss._done = True
