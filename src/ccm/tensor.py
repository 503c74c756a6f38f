"""Dense-tensor math with reverse-mode differentiation on numpy arrays.

Small by design: exactly the primitives a decoder-only transformer needs
(matmul, masked softmax, rotary rotation, SiLU, row scatter/gather for
embeddings and conditional adapters) plus a cross-entropy head and a
finite-difference oracle. Tensors wrap a numpy array; when any input of an
op requires gradients, the op records a backward closure on the tape.
Gradients accumulate (add into ``grad``), never overwrite.

Precision follows the wrapped array: float32 for training speed, float64
when a test or oracle needs tight tolerances.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractViolation, DimensionError

Array = np.ndarray

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A numpy array plus an optional gradient accumulator and tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Callable[[Array], None] | None = None):
        arr = np.asarray(data)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- gradient plumbing ---------------------------------------------------

    def accumulate_grad(self, g: Array) -> None:
        """Add ``g`` into the gradient buffer (allocating it on first use)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar. Accumulates into ``grad``."""
        if self.data.size != 1:
            raise ContractViolation("backward() requires a scalar tensor")
        order = _topo_order(self)
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS: training graphs routinely exceed the recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, i = stack.pop()
        if i == 0:
            if id(node) in seen:
                continue
            seen.add(id(node))
        if i < len(node._parents):
            stack.append((node, i + 1))
            child = node._parents[i]
            if id(child) not in seen:
                stack.append((child, 0))
        else:
            order.append(node)
    return order


class Parameter:
    """A named tensor; it trains while its tensor requires gradients."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, tensor: Tensor, trainable: bool = True):
        self.name = name
        self.tensor = tensor
        self.tensor.requires_grad = bool(trainable)

    def freeze(self) -> None:
        self.tensor.requires_grad = False

    def thaw(self) -> None:
        self.tensor.requires_grad = True

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad

    @property
    def data(self) -> Array:
        return self.tensor.data

    @property
    def grad(self) -> Array | None:
        return self.tensor.grad

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape}, trainable={self.trainable})"


# ---------------------------------------------------------------------------
# helpers


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.data.dtype != like.data.dtype:
            raise DimensionError(f"dtype mismatch: {x.data.dtype} vs {like.data.dtype}")
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# elementwise / reduction primitives


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data + b.data

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data * b.data

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bw)


def pow_scalar(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data ** exponent

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), bw)


def mean_last(a: Tensor) -> Tensor:
    """Mean over the last axis, keepdims (used by RMS normalization)."""
    n = a.shape[-1]
    out_data = a.data.mean(axis=-1, keepdims=True)

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g / n, a.shape).copy())

    return _make(out_data, (a,), bw)


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out_data = a.data * sig

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * sig * (1.0 + a.data * (1.0 - sig)))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out_data = a.data.reshape(shape)

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _make(out_data, (a,), bw)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.transpose(inv))

    return _make(out_data, (a,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p.accumulate_grad(g[tuple(idx)])

    return _make(out_data, tuple(parts), bw)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = a.data[idx]

    def bw(g: Array) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] = g
            a.accumulate_grad(full)

    return _make(out_data, (a,), bw)


def take_rows(a: Tensor, index: Array) -> Tensor:
    """Gather rows along axis 0 by integer index."""
    index = np.asarray(index, dtype=np.intp)
    out_data = a.data[index]

    def bw(g: Array) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            a.accumulate_grad(full)

    return _make(out_data, (a,), bw)


def add_rows(base: Tensor, index: Array, delta: Tensor) -> Tensor:
    """Copy ``base`` and add ``delta`` into the rows selected by ``index``.

    Unselected rows are bit-identical to ``base`` — this carries the
    conditional-adapter guarantee that non-gated tokens are untouched.
    """
    index = np.asarray(index, dtype=np.intp)
    out_data = base.data.copy()
    out_data[index] += delta.data

    def bw(g: Array) -> None:
        if base.requires_grad:
            base.accumulate_grad(g)
        if delta.requires_grad:
            delta.accumulate_grad(g[index])

    return _make(out_data, (base, delta), bw)


def set_rows(base: Tensor, index: Array, rows: Tensor) -> Tensor:
    """Copy ``base`` and replace the rows selected by ``index`` with ``rows``."""
    index = np.asarray(index, dtype=np.intp)
    out_data = base.data.copy()
    out_data[index] = rows.data

    def bw(g: Array) -> None:
        if base.requires_grad:
            masked = g.copy()
            masked[index] = 0.0
            base.accumulate_grad(masked)
        if rows.requires_grad:
            rows.accumulate_grad(g[index])

    return _make(out_data, (base, rows), bw)


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(b, Tensor):
        raise DimensionError("matmul expects two tensors")
    if a.data.dtype != b.data.dtype:
        raise DimensionError(f"dtype mismatch: {a.data.dtype} vs {b.data.dtype}")
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise DimensionError(f"matmul rank mismatch: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b.accumulate_grad(a.data.swapaxes(-1, -2) @ g)

    return _make(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# rotary rotation


def rope(x: Tensor, cos: Array, sin: Array) -> Tensor:
    """Rotate the last axis of ``x`` by per-position angles.

    ``x`` has shape [..., n, d] with even d; ``cos``/``sin`` have shape
    [n, d//2] and broadcast over leading axes. The rotation pairs dimension
    i with i + d//2.
    """
    d = x.shape[-1]
    if d % 2 != 0:
        raise DimensionError("rotary rotation needs an even last dimension")
    half = d // 2
    extra = x.data.ndim - 2
    c = cos.reshape((1,) * extra + cos.shape)
    s = sin.reshape((1,) * extra + sin.shape)
    x1 = x.data[..., :half]
    x2 = x.data[..., half:]
    out_data = np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)

    def bw(g: Array) -> None:
        if x.requires_grad:
            g1 = g[..., :half]
            g2 = g[..., half:]
            dx = np.concatenate([g1 * c + g2 * s, -g1 * s + g2 * c], axis=-1)
            x.accumulate_grad(dx)

    return _make(out_data, (x,), bw)


def rope_angles(positions: Array, head_dim: int, base: float, dtype) -> tuple[Array, Array]:
    """cos/sin tables for ``positions`` (shape [n]) -> two [n, head_dim//2] arrays."""
    half = head_dim // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) / half)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


# ---------------------------------------------------------------------------
# masked softmax and the loss head


def softmax_rows(x: Tensor, mask: Array) -> Tensor:
    """Row-wise softmax over allowed entries; masked entries are exactly 0.

    ``mask`` is boolean with the same shape as ``x``; True marks an allowed
    entry. Every row must allow at least one entry.
    """
    mask = np.asarray(mask)
    if mask.shape != x.shape:
        raise DimensionError(f"mask shape {mask.shape} != input shape {x.shape}")
    if not mask.any(axis=-1).all():
        raise ContractViolation("softmax row with all entries masked")
    neg_inf = np.array(-np.inf, dtype=x.data.dtype)
    shifted = np.where(mask, x.data, neg_inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted, where=mask, out=np.zeros_like(x.data))
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bw(g: Array) -> None:
        if x.requires_grad:
            gy = g * out_data
            x.accumulate_grad(gy - out_data * gy.sum(axis=-1, keepdims=True))

    return _make(out_data, (x,), bw)


def log_softmax_rows(data: Array) -> Array:
    """Plain numpy stable log-softmax over the last axis (no tape)."""
    shifted = data - data.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_next_token(logits: Tensor, targets: Array, weights: Array) -> Tensor:
    """Mean negative log-likelihood over weight-1 positions.

    ``logits`` is [n, V]; ``targets`` holds the token id each row should
    predict; ``weights`` is a 0/1 array selecting which rows count.
    """
    targets = np.asarray(targets, dtype=np.intp)
    weights = np.asarray(weights, dtype=logits.data.dtype)
    if logits.data.ndim != 2:
        raise DimensionError("cross_entropy_next_token expects [n, V] logits")
    if targets.shape[0] != logits.shape[0] or weights.shape[0] != logits.shape[0]:
        raise DimensionError("targets/weights must align with logits rows")
    wsum = weights.sum()
    if wsum <= 0:
        raise ContractViolation("cross entropy with all-zero weights")

    logp = log_softmax_rows(logits.data)
    rows = np.arange(logits.shape[0])
    nll = -logp[rows, targets]
    out_data = np.asarray((weights * nll).sum() / wsum, dtype=logits.data.dtype)

    def bw(g: Array) -> None:
        if logits.requires_grad:
            p = np.exp(logp)
            p[rows, targets] -= 1.0
            logits.accumulate_grad(g * p * (weights / wsum)[:, None])

    return _make(out_data, (logits,), bw)


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_check(f: Callable[[], Tensor], params: Iterable[Parameter],
                            n_samples: int = 50, eps: float = 1e-5,
                            seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued function of the current
    parameter values. Coordinates are sampled across all trainable
    parameters. Run this in float64; float32 cannot support eps=1e-5.
    """
    params = [p for p in params if p.trainable]
    if not params:
        raise ContractViolation("finite_difference_check needs trainable parameters")

    for p in params:
        p.tensor.zero_grad()
    loss = f()
    loss.backward()
    analytic = {p.name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for p in params}

    sizes = np.array([p.data.size for p in params])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        pi = int(rng.integers(len(params)))
        p = params[pi]
        flat_i = int(rng.integers(sizes[pi]))
        flat = p.data.reshape(-1)
        orig = flat[flat_i]
        flat[flat_i] = orig + eps
        up = f().item()
        flat[flat_i] = orig - eps
        down = f().item()
        flat[flat_i] = orig
        numeric = (up - down) / (2.0 * eps)
        a = analytic[p.name].reshape(-1)[flat_i]
        worst = max(worst, abs(a - numeric) / (abs(numeric) + 1e-12))
    return worst
