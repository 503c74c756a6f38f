"""Decoder-only transformer with an externally managed KV layout.

The attention cache is explicit: callers hand ``forward`` a KVLayout, the
library's one KV type, whose entries may come from anywhere (raw tokens,
compressed memory slots, a streaming window). Keys are stored UNROTATED;
rotary position encoding (base ``T.ROPE_BASE``) is applied at attention
time with sequential position ids 0..m-1 assigned over [memory entries |
current tokens]. This makes memory entries position-free: averaging them
stays well defined, and a shift of positions changes no stored key. A
caller whose layout only grows (the stream, a span of tokens per forward)
owns a KVCache, storage holding the layout in its first rows with each key
also kept rotated at its position, and hands ``forward`` that, not a layout:
``KVCache.write``, the one writer of its rows, puts the span's keys, values
and rotated keys once into the rows after the layout, and attention only
reads the cache, so no span copies the cache or rotates a key twice.

The one layer loop, ``forward_groups``, runs a pack of ``Frame``s, each n
tokens after w memory columns, as one masked attention per layer
(``pack_blocks``), calling ``T.rmsnorm`` and ``T.attention`` (as
``attend``) directly and reading each projection's LoRA pair from
``AdapterSet.pairs``. At every layer a callback gives the frames' memory
columns: a layout's entries, or what an earlier frame's comp rows make
there. So one loop runs the forward over a layout, the paper's parallel
training pass, a test identity's compressions in one pass, and a stream
event's compression with the span after it.

Blocks are pre-norm with RMS normalization, a SiLU-gated feed-forward and
an untied output head.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import check_records, read_checkpoint, save_arrays
from .errors import CapacityError, DataError, DimensionError, UsageError
from .lora import AdapterSet
from .tensor import Parameter, Tensor, rmsnorm


@dataclass(frozen=True)
class ModelConfig:
    """Model sizes, each set by a CLI flag or a dataset's vocabulary. The
    compression token is the last vocabulary id, not a setting."""

    n_layers: int = 3
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    vocab_size: int = 512
    max_layout: int = 1024

    def __post_init__(self):
        for f in fields(self):
            size = getattr(self, f.name)
            if not isinstance(size, int) or size < 1:
                raise DimensionError(f"model size {f.name}={size!r} must be an integer >= 1")
        if self.d_model % (2 * self.n_heads) != 0:
            raise DimensionError("d_model must split into n_heads heads of even width")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def comp_token_id(self) -> int:
        """The reserved compression token: the last vocabulary id."""
        return self.vocab_size - 1


@dataclass(frozen=True)
class KVLayout:
    """Per-layer unrotated key/value entries visible to attention.

    ``keys`` and ``values`` have shape [n_layers, n, d_model]; every layer
    holds the same entry count. Layouts are joined by ``extended``, the one
    place that concatenates KV entries; a stream's layout is instead a view
    of the first rows of the KVCache it owns. A layout is a value: it keeps
    read-only views of its arrays, whose rows no one writes again, so
    holders share it without copying.
    """

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("keys", "values"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_entries(self) -> int:
        return self.keys.shape[1]

    def entries(self, start: int, stop: int | None = None) -> "KVLayout":
        """Entries [start, stop) as a view (no copy)."""
        return KVLayout(self.keys[:, start:stop], self.values[:, start:stop])

    def extended(self, part: "KVLayout") -> "KVLayout":
        """Self followed by ``part``, made in one copy in self's dtype."""
        if part.keys.shape != part.values.shape \
                or part.keys.shape[::2] != self.keys.shape[::2]:
            raise DimensionError("layout extension shape mismatch")
        return KVLayout(*(np.concatenate([a, b], axis=1, dtype=self.keys.dtype)
                          for a, b in ((self.keys, part.keys), (self.values, part.values))))


@dataclass(frozen=True)
class KVCache:
    """Storage a caller owns for a layout that only grows.

    ``keys`` and ``values`` are [n_layers, rows, d_model] and ``rotated``
    [n_layers, n_heads, rows, head_dim]: row i holds layout entry i, its key
    also rotated at position i. ``write`` alone writes rows: the kept parts
    (``holding``), then a cached forward's last frame after the layout (an
    event's slots first); no row below is rewritten, so views stay values.
    """

    keys: np.ndarray
    values: np.ndarray
    rotated: np.ndarray

    @classmethod
    def holding(cls, parts: Sequence, rows: int, config: ModelConfig) -> "KVCache":
        """Fresh arrays of ``rows`` rows whose first rows hold ``parts`` in
        order, the first a layout: each layout's entries written once
        (``write``); an int leaves that many rows unwritten."""
        dtype = parts[0].keys.dtype
        cache = cls(np.empty((config.n_layers, rows, config.d_model), dtype=dtype),
                    np.empty((config.n_layers, rows, config.d_model), dtype=dtype),
                    np.empty((config.n_layers, config.n_heads, rows, config.head_dim),
                             dtype=dtype))
        lo = 0
        for part in parts:
            if isinstance(part, KVLayout):
                cache.write(lo, part.keys, part.values)
            lo += getattr(part, "n_entries", part)
        return cache

    def write(self, lo: int, keys: np.ndarray, values: np.ndarray, layer=slice(None)) -> None:
        """Rows lo.. of ``layer`` (default: every layer) hold ``keys`` and
        ``values`` [..., n, d_model], each key also rotated at its row."""
        _, n_heads, _, head_dim = self.rotated.shape
        rows = slice(lo, lo + keys.shape[-2])
        self.keys[layer, rows], self.values[layer, rows] = keys, values
        cos, sin = T.rope_angles(rows.stop, head_dim, keys.dtype)
        heads = keys.reshape(keys.shape[:-1] + (n_heads, head_dim))
        self.rotated[layer, :, rows] = T.rope(heads.swapaxes(-3, -2), cos[lo:], sin[lo:])

    def layout(self, n: int) -> KVLayout:
        """The first ``n`` rows as a layout (a view, no copy)."""
        return KVLayout(self.keys[:, :n], self.values[:, :n])


# ---------------------------------------------------------------------------
# building blocks of one layer; ``rmsnorm`` and ``attend`` are the tensor ops
# themselves, under the names benchmarks/tracer.py wraps

attend = T.attention


def project_rows(x: Tensor, w: Parameter, lora, comp_idx: np.ndarray) -> Tensor:
    """y = x @ w, plus the conditional low-rank delta on compression rows."""
    out = T.matmul(x, w)
    if lora is not None and comp_idx.size:
        delta = lora.delta(T.take_rows(x, comp_idx))
        out = T.add_rows(out, comp_idx, delta)
    return out


def mlp(x: Tensor, w_gate: Parameter, w_up: Parameter, w_down: Parameter) -> Tensor:
    gated = T.mul(T.silu(T.matmul(x, w_gate)), T.matmul(x, w_up))
    return T.matmul(gated, w_down)


def embed_tokens(model: "ToyLM", tokens: np.ndarray,
                 adapters: AdapterSet | None, comp_idx: np.ndarray) -> Tensor:
    """Token embeddings, with compression rows taken from the adapter's row."""
    x = T.take_rows(model.params["embed"], tokens)
    if adapters is not None and comp_idx.size:
        rows = T.take_rows(adapters.comp_embedding,
                           np.zeros(comp_idx.size, dtype=np.intp))
        x = T.set_rows(x, comp_idx, rows)
    return x


def check_token_ids(tokens: np.ndarray, limit: int) -> None:
    """A token id outside [0, limit) is a data error. A forward's limit is the
    vocabulary size; data's is the reserved comp id, which data never holds."""
    if tokens.size and (tokens.min() < 0 or tokens.max() >= limit):
        bad = tokens[(tokens < 0) | (tokens >= limit)][0]
        raise DataError(f"token id {bad} outside vocabulary [0, {limit}); data ids lie "
                        "below the reserved comp id, the vocabulary's last")


@dataclass(frozen=True)
class Frame:
    """One packed sequence: ``n`` tokens after ``w`` memory columns, which
    of those each token reads (``allowed`` [n, w + n]) and their rope
    ``positions`` [w + n]. None for either is what a forward of its own
    does: all the memory and its own tokens causally, at 0..w+n-1."""

    n: int
    w: int
    allowed: np.ndarray | None = None
    positions: np.ndarray | None = None


def pack_blocks(frames: Sequence[Frame]) -> tuple[np.ndarray, T.Blocks]:
    """Frames packed as keys [every frame's memory columns | every token]:
    the keys' positions and blocks. When no frame has ``allowed`` or
    ``positions``, one plan per (n, w) tuple is built and shared, read-only."""
    if all(f.allowed is None and f.positions is None for f in frames):
        return _plain_plan(tuple((f.n, f.w) for f in frames))
    n_mem = sum(f.w for f in frames)
    positions = np.empty(n_mem + sum(f.n for f in frames), dtype=np.intp)
    parts, lo, mem_lo = [], 0, 0
    for f in frames:
        keys = np.concatenate((np.arange(mem_lo, mem_lo + f.w),
                               np.arange(n_mem + lo, n_mem + lo + f.n)))
        parts.append((lo, lo + f.n, keys, T.causal_mask(f.n, f.w + f.n)
                      if f.allowed is None else f.allowed))
        positions[keys] = np.arange(f.w + f.n) if f.positions is None else f.positions
        lo, mem_lo = lo + f.n, mem_lo + f.w
    return positions, T.Blocks(parts)


@functools.lru_cache(maxsize=256)
def _plain_plan(shapes: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, T.Blocks]:
    plan = pack_blocks([Frame(n, w, T.causal_mask(n, w + n)) for n, w in shapes])
    for a in (plan[0], *(a for g in plan[1].groups for a in g if isinstance(a, np.ndarray))):
        a.flags.writeable = False
    return plan


def forward_groups(model: "ToyLM", tokens: np.ndarray, frames: Sequence[Frame],
                   memory: Callable, adapters: AdapterSet | None = None,
                   cache: KVCache | None = None) -> tuple[Tensor, KVLayout]:
    """The layer loop: ``tokens``, split into ``frames`` in order, each
    reading [its memory columns | its own tokens] as its frame says.

    At every layer ``memory(layer, k, v)`` gets that layer's key and value
    Tensors of all tokens and returns the (keys, values) of the frames' memory
    columns in frame order, or None when there are none; one attention serves
    the pack, as ``pack_blocks`` lays it out (a lone frame of its own takes the
    default block). Returns per-token logits and the layout of the unrotated KV
    the tokens produced. The conditional adapter fires only on compression
    tokens. With ``cache``, a KVCache whose first w rows hold the last frame's
    memory, that frame, one of its own, reads the cache in place: ``write``
    puts its keys, values and rotated keys into the n rows after the w,
    attention only reads those w + n rows, and the returned layout views its
    rows. ``memory`` then gives the earlier frames' columns as arrays, after
    writing any cache rows the last frame reads (an event's slots). No gradient
    reaches the keys and values through the cache: inference only.
    """
    cfg = model.config
    n = tokens.shape[0]
    check_token_ids(tokens, cfg.vocab_size)
    comp_idx = np.flatnonzero(tokens == cfg.comp_token_id)

    x = embed_tokens(model, tokens, adapters, comp_idx)
    pairs = adapters.pairs if adapters and comp_idx.size else {}  # compression rows only
    packed, lo = (frames, 0) if cache is None else (frames[:-1], n - frames[-1].n)
    cos, sin = T.rope_angles(max(f.w + f.n if f.positions is None else
                                 int(f.positions.max()) + 1 for f in frames),
                             cfg.head_dim, model.dtype)
    blocks, m = None, sum(f.w + f.n for f in packed)  # keys of the frames memory serves
    if len(packed) == 1 and packed[0].allowed is None and packed[0].positions is None:
        cos_p, sin_p = cos[:m], sin[:m]  # a forward of its own: attention's default block
    elif packed:
        positions, blocks = pack_blocks(packed)
        cos_p, sin_p = cos[positions], sin[positions]
    if cache is None:
        new_k, new_v = np.empty((2, cfg.n_layers, n, cfg.d_model), dtype=model.dtype)
    else:
        w, m = frames[-1].w, frames[-1].w + frames[-1].n
    for layer in range(cfg.n_layers):
        p = f"layers.{layer}."
        xa = rmsnorm(x, model.params[p + "attn_norm"])
        q = project_rows(xa, model.params[p + "wq"], pairs.get((layer, "q")), comp_idx)
        k = project_rows(xa, model.params[p + "wk"], pairs.get((layer, "k")), comp_idx)
        v = project_rows(xa, model.params[p + "wv"], pairs.get((layer, "v")), comp_idx)
        if cache is None:
            new_k[layer], new_v[layer] = k.data, v.data
            mem = memory(layer, k, v)
            if mem is not None:
                k, v = T.concat([mem[0], k]), T.concat([mem[1], v])
            ctx = attend(q, k, v, cfg.n_heads, cos_p, sin_p, blocks=blocks)
        else:  # the last frame's rows, then attention over them in place
            cache.write(w, k.data[lo:], v.data[lo:], layer)
            if lo:  # the earlier frames, once memory has written its rows
                kv = [Tensor(np.concatenate([c, a.data[:lo]]))
                      for c, a in zip(memory(layer, k, v), (k, v))]
                head = attend(Tensor(q.data[:lo]), *kv, cfg.n_heads, cos_p, sin_p,
                              blocks=blocks)
                q = Tensor(q.data[lo:])
            ctx = attend(q, Tensor(cache.keys[layer, :m]), Tensor(cache.values[layer, :m]),
                         cfg.n_heads, cos[:m], sin[:m], cache.rotated[layer, :, :m])
            ctx = Tensor(np.concatenate([head.data, ctx.data])) if lo else ctx
        ctx = project_rows(ctx, model.params[p + "wo"], pairs.get((layer, "o")), comp_idx)
        x = T.add(x, ctx)
        xf = rmsnorm(x, model.params[p + "ffn_norm"])
        x = T.add(x, mlp(xf, model.params[p + "w_gate"], model.params[p + "w_up"],
                         model.params[p + "w_down"]))
    xo = rmsnorm(x, model.params["final_norm"])
    logits = T.matmul(xo, model.params["head"])
    return logits, KVLayout(new_k, new_v) if cache is None else cache.layout(m).entries(w)


# ---------------------------------------------------------------------------


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter the config defines, in init order."""
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    layer = {"attn_norm": (d,), "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
             "ffn_norm": (d,), "w_gate": (d, dff), "w_up": (d, dff), "w_down": (dff, d)}
    blocks = {f"layers.{i}.{name}": shape for i in range(config.n_layers)
              for name, shape in layer.items()}
    return {"embed": (v, d), **blocks, "final_norm": (d,), "head": (d, v)}


class ToyLM:
    """Config + parameters, with a layout-based forward."""

    def __init__(self, config: ModelConfig, params: dict[str, Parameter]):
        self.config = config
        self.params = params

    # -- construction ----------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0, dtype=np.float32) -> "ToyLM":
        rng = np.random.default_rng(seed)
        # residual-output projections start small so token identity is not
        # drowned by layer noise at init
        resid_scale = 0.02 / np.sqrt(2 * config.n_layers)
        params: dict[str, Parameter] = {}
        for name, shape in param_shapes(config).items():
            if name.endswith("norm"):
                arr = np.ones(shape, dtype=dtype)
            else:
                scale = resid_scale if name.endswith(("wo", "w_down")) else 0.02
                arr = (rng.standard_normal(shape) * scale).astype(dtype)
            if name == "embed":  # keep the reserved compression row in-distribution
                others = np.delete(arr, config.comp_token_id, axis=0)
                arr[config.comp_token_id] = others.mean(axis=0)
            params[name] = Parameter(name, arr)
        return cls(config, params)

    @property
    def dtype(self):
        return self.params["embed"].data.dtype

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def freeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = False

    def thaw(self) -> None:
        for p in self.parameters():
            p.requires_grad = True

    def empty_layout(self) -> KVLayout:
        z = np.zeros((self.config.n_layers, 0, self.config.d_model), dtype=self.dtype)
        return KVLayout(z, z)

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> None:
        save_arrays(path, {name: p.data for name, p in self.params.items()},
                    meta={"kind": "model", "config": asdict(self.config)})

    @classmethod
    def load(cls, path) -> "ToyLM":
        """A model from a checkpoint, frozen: inference records no tape."""
        with read_checkpoint(path, "model") as (arrays, meta):
            config = ModelConfig(**meta["config"])
        if config.n_layers > len(arrays):  # each layer owns records: no table to build
            raise DataError(f"{path}: {config.n_layers} layers in {len(arrays)} records")
        shapes = param_shapes(config)
        check_records(path, arrays, shapes)
        params = {name: Parameter(name, arrays[name], requires_grad=False)
                  for name in shapes}
        return cls(config, params)

    # -- forward -------------------------------------------------------------------

    def check_fits(self, entries: int, what: str) -> None:
        """Input that would overflow the layout is a usage error before any
        forward runs; ``forward``'s CapacityError, a UsageError too, stays
        the backstop."""
        if entries > self.config.max_layout:
            raise UsageError(f"{what} holds up to {entries} entries, above the "
                             f"model's max_layout {self.config.max_layout}")

    def forward(self, tokens, memory: KVLayout | Callable | None,
                adapters: AdapterSet | None = None, cache: KVCache | None = None,
                frames: Sequence[Frame] | None = None) -> tuple[Tensor, KVLayout]:
        """New tokens run after their memory (``forward_groups``).

        ``frames`` split the tokens in order. ``memory`` is a layout, which
        each frame reads its own copy of (by default one frame of its own),
        or a per-layer function giving the frames' memory columns. Returns
        per-token logits and the layout of the KV entries the tokens
        produced. Nothing passed in is mutated but ``cache``: None, or the
        caller's KVCache of the model's dtype, whose first w rows are the last
        frame's only memory, its tokens' entries written after them; ``memory``
        is then no layout, but a function for earlier frames or None.
        ``max_layout`` bounds each w + n.
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        cfg = self.config
        if cache is not None and isinstance(memory, KVLayout):
            raise DimensionError("a cached forward reads its memory from its cache alone")
        if isinstance(memory, KVLayout):  # each frame reads its own copy of the layout
            layout = memory
            frames = [Frame(tokens.size, memory.n_entries)] if frames is None else frames

            def memory(layer, k, v):
                return tuple(Tensor(np.concatenate([a[layer]] * len(frames)))
                             for a in (layout.keys, layout.values)) if layout.n_entries else None
        last = frames[-1] if frames else None
        if last is None or min(f.n for f in frames) < 1 or sum(f.n for f in frames) != tokens.size \
                or cache is not None and (last.allowed is not None or last.positions is not None):
            raise DimensionError(f"frames of {[f.n for f in frames or ()]} tokens must split "
                                 f"{tokens.size}, the last of its own with a cache")
        if memory is None and (cache is None or len(frames) > 1):
            raise DimensionError("only a cached forward of one frame runs without memory")
        m = max(f.w + f.n for f in frames)
        if m > cfg.max_layout:
            raise CapacityError(f"layout would hold {m} entries "
                                f"> max_layout {cfg.max_layout}")
        if cache is not None:  # rows are the next-to-last axis of all three arrays
            for name, want in (("keys", (cfg.n_layers, cfg.d_model)),
                               ("values", (cfg.n_layers, cfg.d_model)),
                               ("rotated", (cfg.n_layers, cfg.n_heads, cfg.head_dim))):
                arr = getattr(cache, name)
                if arr.dtype != self.dtype or arr.shape[:-2] + arr.shape[-1:] != want \
                        or arr.shape[-2] < last.w + last.n:
                    raise DimensionError(
                        f"KV cache {name} {arr.shape} {arr.dtype} holds no "
                        f"{last.w + last.n} entries of this {self.dtype} model")
        return forward_groups(self, tokens, frames, memory, adapters, cache)
