"""Dense-tensor math with reverse-mode differentiation on numpy arrays.

Small by design: exactly the primitives a decoder-only transformer needs
(matmul, SiLU, row scatter/gather for embeddings and conditional adapters;
fused ``attention`` and ``rmsnorm``, one tape node each, over the plain-array
kernels ``rope``, ``rope_angles``, ``causal_mask`` and ``softmax_rows``;
``attention`` runs one loop over its groups of equal-shape blocks, one
block by default, and the model's layer calls both ops directly) plus
a cross-entropy head and a finite-difference oracle. Tensors wrap a numpy
array; when any input of an op requires gradients, the op records a
backward closure on the tape. Gradients accumulate, never overwrite; one
``backward`` consumes a graph, releasing each node as it sweeps. A
``Parameter`` is a tensor with a name, a weight that trains while it
requires gradients.

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
        """Add ``g`` into the gradient buffer; the first ``g`` is copied in as
        the buffer, broadcast to the tensor's shape and in its dtype."""
        if self.grad is None:
            self.grad = (g if g.shape == self.data.shape
                         else np.broadcast_to(g, self.data.shape)).astype(self.data.dtype)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar into the leaves' ``grad``. Each
        interior node drops its grad, closure and parents once it has run, so
        memory falls as the sweep goes; a second sweep through it is refused."""
        if self.data.size != 1:
            raise ContractViolation("backward() requires a scalar tensor")
        order = _topo_order(self)
        self.accumulate_grad(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _released, ()


def _released(g: Array) -> None:
    raise ContractViolation("backward through a graph an earlier backward released")


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS: training graphs routinely exceed the recursion limit.
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in reversed(node._parents) if id(p) not in seen)
    return order


class Parameter(Tensor):
    """A named tensor: one model or adapter weight."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, requires_grad: bool = True):
        super().__init__(data, requires_grad)
        self.name = name


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
    for p in parents:
        if p.requires_grad:
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


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out_data = a.data * sig

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * sig * (1.0 + a.data * (1.0 - sig)))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out_data = a.data.transpose(axes)

    def bw(g: Array) -> None:
        if a.requires_grad:  # the inverse permutation, built only when a gradient needs it
            a.accumulate_grad(g.transpose([axes.index(i) for i in range(len(axes))]))

    return _make(out_data, (a,), bw)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """``parts`` joined along their rows (axis 0)."""
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def bw(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate_grad(g[lo:hi])

    return _make(out_data, tuple(parts), bw)


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
    sa, sb = a.data.shape, b.data.shape if isinstance(b, Tensor) else ()
    # one test on the hot path; the checks under it only name what failed
    if len(sa) != len(sb) or len(sa) < 2 or sa[-1] != sb[-2] or sa[:-2] != sb[:-2] \
            or a.data.dtype != b.data.dtype:
        if not isinstance(b, Tensor):
            raise DimensionError("matmul expects two tensors")
        if a.data.dtype != b.data.dtype:
            raise DimensionError(f"dtype mismatch: {a.data.dtype} vs {b.data.dtype}")
        if len(sa) < 2 or len(sa) != len(sb):
            raise DimensionError(f"matmul rank mismatch: {a.shape} x {b.shape}")
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def bw(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b.accumulate_grad(a.data.swapaxes(-1, -2) @ g)

    return _make(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# plain-array kernels (no tape) and the fused ops, one tape node each


def rope(x: Array, cos: Array, sin: Array) -> Array:
    """Rotate the last axis of [..., n, d] ``x`` by [n, d//2] angles, pairing
    dimension i with i + d//2; ``rope(g, cos, -sin)`` is the transpose. Two passes
    into a fresh C-ordered array, x [cos|cos] + [x2|x1] [-sin|sin], bit for bit."""
    half = x.shape[-1] // 2
    out = np.multiply(x, np.concatenate((cos, cos), axis=-1), order="C")
    buf = np.empty_like(out)
    buf[..., :half], buf[..., half:] = x[..., half:], x[..., :half]
    buf *= np.concatenate((-sin, sin), axis=-1)
    return np.add(out, buf, out=out)


ROPE_BASE = 10000.0  # the rotary frequency base
_ROPE_TABLES: dict[tuple, tuple[Array, Array]] = {}  # (head_dim, dtype) -> cos, sin


def rope_angles(m: int, head_dim: int, dtype) -> tuple[Array, Array]:
    """Read-only cos/sin [m, head_dim//2] of positions 0..m-1: slices of one
    cached table, each entry equal to a fresh build's bit for bit."""
    key = (head_dim, np.dtype(dtype))
    table = _ROPE_TABLES.get(key)
    if table is None or table[0].shape[0] < m:
        half = head_dim // 2
        inv_freq = ROPE_BASE ** (-np.arange(half, dtype=np.float64) / half)
        size = max(m, 2 * table[0].shape[0]) if table else m  # grow by doubling
        ang = np.arange(size, dtype=np.float64)[:, None] * inv_freq[None, :]
        table = _ROPE_TABLES[key] = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
        for arr in table:
            arr.flags.writeable = False
    return table[0][:m], table[1][:m]


_CAUSAL = [np.ones((0, 0), dtype=bool)]  # one read-only lower triangle, grown by doubling


def causal_mask(n: int, m: int) -> Array:
    """Read-only [n, m] mask of the last n of m positions: row i allows keys
    0..m-n+i. A view of one cached triangle, equal to a fresh ``np.tril``."""
    if _CAUSAL[0].shape[0] < m:
        _CAUSAL[0] = np.tri(max(m, 2 * _CAUSAL[0].shape[0]), dtype=bool)
        _CAUSAL[0].flags.writeable = False
    return _CAUSAL[0][m - n:m, :m]


def softmax_rows(x: Array, mask: Array | None) -> Array:
    """Softmax over the last axis where the broadcast ``mask`` is True, exactly
    0 elsewhere, written over the scores ``x`` and returned: no score-sized
    temporary is made. Every row must allow at least one entry. A None mask
    allows every entry, as an all-True one would, bit for bit."""
    if mask is not None:  # exp(-inf) is exactly 0
        np.copyto(x, -np.inf, where=~mask)
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


class Blocks:
    """Sequences packed into one attention: block (lo, hi, keys, mask) lets
    query rows lo:hi read its key indices where the [hi-lo, keys] mask holds.
    The blocks partition the queries, in order, and the keys, and each mask
    row allows a key (else its softmax is NaN). That is checked once here, not
    per layer, and lets the backward assign gradient rows. ``groups`` batches
    the blocks of each mask shape: rows, keys and masks stacked [G, n], [G, m],
    [G, n, m]; a lone block stays (slice, [m], [n, m])."""

    def __init__(self, parts: Sequence[tuple[int, int, Array, Array]]):
        parts = [(slice(lo, hi), np.asarray(keys, dtype=np.intp), mask)
                 for lo, hi, keys, mask in parts]
        starts = [0] + [r.stop for r, _, _ in parts]
        keys = np.concatenate([c for _, c, _ in parts] + [[]])
        self.n, self.m = starts[-1], keys.size
        if not parts or not np.array_equal(np.sort(keys), np.arange(self.m)) \
                or any(r.start != lo or r.stop <= lo or np.shape(mask) != (r.stop - lo, c.size)
                       for (r, c, mask), lo in zip(parts, starts)):
            raise DimensionError("attention blocks must partition the queries, in order, "
                                 "and the keys, each with a [queries, keys] mask")
        if not all(np.all(np.any(mask, axis=-1)) for _, _, mask in parts):
            raise DimensionError("an attention mask row allows no key")
        shapes: dict[tuple, list] = {}
        for part in parts:
            shapes.setdefault(np.shape(part[2]), []).append(part)
        self.groups = [g[0] if len(g) == 1 else tuple(np.stack(a) for a in zip(
            *((np.r_[rows], keys, mask) for rows, keys, mask in g))) for g in shapes.values()]


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, cos: Array, sin: Array,
              rotated: Array | None = None, blocks: Blocks | None = None) -> Tensor:
    """Multi-head attention of [n, d] queries over [m, d] unrotated keys/values.

    ``cos``/``sin`` hold one angle row per key, [m, d//(2 n_heads)], and the
    queries are the last n keys, so they take the last n rows. Both rotate
    once; scores, softmax and weighted sum then run in one loop over the
    block groups of ``blocks``, a group one batch after the head axis, in
    this one tape node, and the backward runs the same loop. The queries take
    the scale, not the scores (bit for bit alike when dh is a power of 4). The
    softmax writes a group's weights over its scores; the backward reads and
    then overwrites them. None is one
    block: the first m-n keys (memory) to every query and the last n
    causally, scores above their diagonal set to -inf through the cached
    n-by-n ``causal_mask`` (no m-wide mask). ``rotated`` may give the keys
    already rotated, as [n_heads, m, d//n_heads], but for the last n, the
    queries' own: attention rotates those with the queries and writes them
    into it. The backward is written by hand; a masked weight is 0.
    """
    (n, d), m = q.shape, k.shape[0]
    dh = d // n_heads
    if k.shape != (m, d) or v.shape != (m, d) or n > m or d % (2 * n_heads) \
            or rotated is not None and rotated.shape != (n_heads, m, dh) \
            or blocks is not None and (blocks.n, blocks.m) != (n, m):
        raise DimensionError(f"attention of q {q.shape} over k {k.shape}, v {v.shape} "
                             f"in {n_heads} heads of even width")
    cq, sq = cos[m - n:], sin[m - n:]
    qh = q.data.reshape(n, n_heads, dh).transpose(1, 0, 2)
    kh = k.data.reshape(m, n_heads, dh).transpose(1, 0, 2)
    if rotated is None:
        qh, kh = rope(qh, cq, sq), rope(kh, cos, sin)
    else:  # the queries' own keys rotate with them, in one call
        both = rope(np.concatenate((qh[None], kh[None, :, m - n:])), cq, sq)
        qh, kh = both[0], rotated
        kh[:, m - n:] = both[1]
    vh = v.data.reshape(m, n_heads, dh).transpose(1, 0, 2)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.data.dtype)
    groups = blocks.groups if blocks is not None else [(slice(None), slice(None), None)]
    ctx, ws = np.empty_like(qh), []
    for rows, keys, mask in groups:  # a group's arrays are [heads, (G,) rows, keys]
        ws.append((qh[:, rows] * scale) @ kh[:, keys].swapaxes(-1, -2))
        if blocks is None and n > 1:  # no query reads a later one of its own keys
            np.copyto(ws[-1][:, :, m - n:], -np.inf, where=~causal_mask(n, n))
        ws[-1] = softmax_rows(ws[-1], mask)
        ctx[:, rows] = ws[-1] @ vh[:, keys]
    out_data = ctx.transpose(1, 0, 2).reshape(n, d)

    def bw(g: Array) -> None:
        gh = g.reshape(n, n_heads, dh).transpose(1, 0, 2)
        dq, dk, dv = np.empty_like(qh), np.empty_like(kh), np.empty_like(vh)
        for (rows, keys, _), w in zip(groups, ws):  # blocks partition rows and keys
            gb = gh[:, rows]
            dv[:, keys] = w.swapaxes(-1, -2) @ gb
            gs = gb @ vh[:, keys].swapaxes(-1, -2)  # the kept weights become scratch
            gs *= w
            w *= gs.sum(axis=-1, keepdims=True)
            gs -= w
            gs *= scale
            dq[:, rows] = gs @ kh[:, keys]
            dk[:, keys] = (qh[:, rows].swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        if v.requires_grad:
            v.accumulate_grad(dv.transpose(1, 0, 2).reshape(m, d))
        if q.requires_grad:
            q.accumulate_grad(rope(dq, cq, -sq).transpose(1, 0, 2).reshape(n, d))
        if k.requires_grad:
            k.accumulate_grad(rope(dk, cos, -sin).transpose(1, 0, 2).reshape(m, d))

    return _make(out_data, (q, k, v), bw)


RMS_EPS = 1e-6


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """x / sqrt(mean(x**2) + RMS_EPS) * gain over the last axis."""
    r = (np.add.reduce(x.data * x.data, axis=-1, keepdims=True) / x.data.shape[-1]
         + np.asarray(RMS_EPS, dtype=x.data.dtype)) ** -0.5
    y = x.data * r
    out_data = y * gain.data

    def bw(g: Array) -> None:
        if gain.requires_grad:
            gain.accumulate_grad(_unbroadcast(g * y, gain.shape))
        if x.requires_grad:
            gy = g * gain.data
            dr = r * r * (gy * x.data).mean(axis=-1, keepdims=True)
            x.accumulate_grad(r * (gy - x.data * dr))

    return _make(out_data, (x, gain), bw)


# ---------------------------------------------------------------------------
# the loss head


def log_softmax_rows(data: Array) -> Array:
    """Plain numpy stable log-softmax over the last axis (no tape)."""
    shifted = data - data.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_next_token(logits: Tensor, targets: Array, weights: Array) -> Tensor:
    """Weighted mean negative log-likelihood, sum(w * nll) / sum(w).

    ``logits`` is [n, V]; ``targets`` holds the token id each row should
    predict; ``weights`` holds a non-negative real per row. 0/1 selects rows;
    1/|O_i| on the loss rows O_i of packed sequence i averages their means.
    """
    targets = np.asarray(targets, dtype=np.intp)
    weights = np.asarray(weights, dtype=logits.data.dtype)
    if logits.data.ndim != 2:
        raise DimensionError("cross_entropy_next_token expects [n, V] logits")
    if targets.shape[0] != logits.shape[0] or weights.shape[0] != logits.shape[0]:
        raise DimensionError("targets/weights must align with logits rows")
    wsum = weights.sum()
    if wsum <= 0 or weights.min() < 0:
        raise ContractViolation("cross entropy with negative or all-zero weights")

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
    params = [p for p in params if p.requires_grad]
    if not params:
        raise ContractViolation("finite_difference_check needs trainable parameters")

    for p in params:
        p.zero_grad()
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
