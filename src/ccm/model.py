"""Decoder-only transformer with an externally managed KV layout.

The attention cache is explicit: callers hand ``forward`` a KVLayout, the
library's one KV type, whose entries may come from anywhere (raw tokens,
compressed memory slots, a streaming window). Keys are stored UNROTATED;
rotary position encoding is applied at attention time with sequential
position ids 0..m-1 assigned over [memory entries | current tokens]. This
makes memory entries position-free: averaging them stays well defined, and
a shift of positions changes no stored key. A caller whose layout only
grows (the stream, a span of tokens per forward) owns a KVCache, storage
holding the layout in its first rows with each key also kept rotated at
its position, and hands it to ``forward``: the span's keys, values and
rotated keys are written once into the rows after the layout, and
attention reads the cache in place, so no span copies the cache or
rotates a key twice.

The one layer loop, ``forward_groups``, runs one attention per layer over
[memory columns | tokens], calling ``T.rmsnorm`` and ``T.attention`` (as
``attend``) directly and reading each projection's LoRA pair from
``AdapterSet.pairs``. By default the keys take positions 0..m-1 and every
token sees all memory and its own tokens causally: the inference forward
over a layout. A pack (``pack_blocks``) passes key positions and
``T.Blocks``, which batches blocks of one shape: compression training under
the paper's mask, and ``forward`` given ``lengths``, each sequence over its
own copy of the layout or, given ``fold``, of what the first one's slots make.

Blocks are pre-norm with RMS normalization, a SiLU-gated feed-forward and
an untied output head.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import check_records, read_checkpoint, save_arrays
from .errors import CapacityError, DataError, DimensionError, UsageError
from .lora import AdapterSet, comp_flags
from .tensor import Parameter, Tensor, rmsnorm


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 3
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    vocab_size: int = 512
    rope_base: float = 10000.0
    max_layout: int = 1024
    comp_token_id: int = -1  # -1: the last vocab id

    def __post_init__(self):
        if not all(isinstance(getattr(self, f.name), int) for f in fields(self)
                   if f.type == "int"):
            raise DimensionError(f"model sizes and token ids must be integers: {self}")
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size",
                     "max_layout"):
            if getattr(self, name) < 1:
                raise DimensionError(f"model size {name}={getattr(self, name)} "
                                     "must be at least 1")
        if not isinstance(self.rope_base, (int, float)) \
                or not 0 < self.rope_base < math.inf:
            raise DimensionError(f"rope_base {self.rope_base!r} must be finite and > 0")
        if self.d_model % (2 * self.n_heads) != 0:
            raise DimensionError("d_model must split into n_heads heads of even width")
        if self.comp_token_id == -1:
            object.__setattr__(self, "comp_token_id", self.vocab_size - 1)
        if not 0 <= self.comp_token_id < self.vocab_size:
            raise DimensionError(f"comp token id {self.comp_token_id} outside vocabulary")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


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

    def extended(self, *parts: "KVLayout") -> "KVLayout":
        """Self followed by ``parts``, made in one copy in self's dtype."""
        for part in parts:
            if part.keys.shape != part.values.shape \
                    or part.keys.shape[::2] != self.keys.shape[::2]:
                raise DimensionError("layout extension shape mismatch")
        dtype = self.keys.dtype
        return KVLayout(
            np.concatenate([self.keys] + [p.keys for p in parts], axis=1, dtype=dtype),
            np.concatenate([self.values] + [p.values for p in parts], axis=1,
                           dtype=dtype))


@dataclass(frozen=True)
class KVCache:
    """Storage a caller owns for a layout that only grows.

    ``keys`` and ``values`` are [n_layers, rows, d_model] and ``rotated``
    [n_layers, n_heads, rows, head_dim], all writable: row i holds layout
    entry i, its key also rotated at position i. ``forward`` writes the new
    tokens' rows after the layout's and never rewrites a row below, so the
    layouts viewing the cache stay values.
    """

    keys: np.ndarray
    values: np.ndarray
    rotated: np.ndarray

    @classmethod
    def holding(cls, layout: KVLayout, rows: int, config: ModelConfig) -> "KVCache":
        """Fresh arrays of ``rows`` rows whose first rows hold ``layout``."""
        n_layers, n, d_model = layout.keys.shape
        dtype = layout.keys.dtype
        cache = cls(np.empty((n_layers, rows, d_model), dtype=dtype),
                    np.empty((n_layers, rows, d_model), dtype=dtype),
                    np.empty((n_layers, config.n_heads, rows, config.head_dim),
                             dtype=dtype))
        cache.keys[:, :n] = layout.keys
        cache.values[:, :n] = layout.values
        cos, sin = T.rope_angles(n, config.head_dim, config.rope_base, dtype)
        heads = layout.keys.reshape(n_layers, n, config.n_heads, config.head_dim)
        cache.rotated[:, :, :n] = T.rope(heads.swapaxes(1, 2), cos, sin)
        return cache

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


def check_token_ids(tokens: np.ndarray, vocab_size: int) -> None:
    """A token id outside [0, vocab_size) is a data error."""
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        bad = tokens[(tokens < 0) | (tokens >= vocab_size)][0]
        raise DataError(f"token id {bad} outside vocabulary [0, {vocab_size})")


def pack_blocks(frames: Sequence[tuple]) -> tuple[np.ndarray, T.Blocks]:
    """Sequences packed as keys [every sequence's memory columns | every
    token], each from its frame (allowed [n, w + n], positions [w + n]) over
    [its w memory columns | its n tokens]: the keys' positions and blocks."""
    n_mem = sum(a.shape[1] - a.shape[0] for a, _ in frames)
    positions = np.empty(n_mem + sum(a.shape[0] for a, _ in frames), dtype=np.intp)
    parts, lo, mem_lo = [], 0, 0
    for allowed, frame_positions in frames:
        n, w = allowed.shape[0], allowed.shape[1] - allowed.shape[0]
        keys = np.r_[mem_lo:mem_lo + w, n_mem + lo:n_mem + lo + n]
        parts.append((lo, lo + n, keys, allowed))
        positions[keys] = frame_positions
        lo, mem_lo = lo + n, mem_lo + w
    return positions, T.Blocks(parts)


def forward_groups(model: "ToyLM", tokens: np.ndarray, memory: Callable | None,
                   adapters: AdapterSet | None = None, cache: KVCache | None = None,
                   n_mem: int = 0, positions: np.ndarray | None = None,
                   blocks: T.Blocks | None = None) -> tuple[Tensor, KVLayout]:
    """The layer loop: ``tokens`` attend over [n_mem memory columns | tokens].

    At every layer, ``memory(layer, k, v)`` gets that layer's keys and values
    of all tokens and returns the (keys, values) of the n_mem memory columns,
    or None when there are none. The m = n_mem + n keys sit at ``positions``
    (default 0..m-1), the tokens at the last n, and each query reads what its
    block in ``blocks`` allows (default: all memory, own tokens causally),
    so one attention per layer serves inference and a pack alike: the
    paper's parallel training passes, or the sequences ``ToyLM.forward`` is
    given ``lengths`` of, each over its own copy of the layout. Returns
    per-token logits and the layout of the unrotated KV the tokens produced.
    The conditional adapter fires only on compression tokens. ``cache``, in
    place of ``memory``, is a KVCache whose first ``n_mem`` rows hold the
    memory: the tokens' keys, values and rotated keys go into the n rows
    after them, attention reads those m rows in place and no row past them,
    and the returned layout views the tokens' rows. No gradient reaches the
    keys and values through it, so it serves inference only.
    """
    cfg = model.config
    n = tokens.shape[0]
    check_token_ids(tokens, cfg.vocab_size)
    comp_idx = np.flatnonzero(comp_flags(tokens, cfg.comp_token_id))

    x = embed_tokens(model, tokens, adapters, comp_idx)
    pairs = adapters.pairs if adapters and comp_idx.size else {}  # compression rows only
    m = n_mem + n
    if positions is None:
        cos, sin = T.rope_angles(m, cfg.head_dim, cfg.rope_base, model.dtype)
    else:
        cos, sin = (a[positions] for a in T.rope_angles(
            int(positions.max()) + 1, cfg.head_dim, cfg.rope_base, model.dtype))
    if cache is None:
        new_k = np.empty((cfg.n_layers, n, cfg.d_model), dtype=model.dtype)
        new_v = np.empty_like(new_k)
    else:
        new_k, new_v = cache.keys[:, n_mem:m], cache.values[:, n_mem:m]
    for layer in range(cfg.n_layers):
        p = f"layers.{layer}."
        xa = rmsnorm(x, model.params[p + "attn_norm"])
        q = project_rows(xa, model.params[p + "wq"], pairs.get((layer, "q")), comp_idx)
        k = project_rows(xa, model.params[p + "wk"], pairs.get((layer, "k")), comp_idx)
        v = project_rows(xa, model.params[p + "wv"], pairs.get((layer, "v")), comp_idx)
        new_k[layer] = k.data
        new_v[layer] = v.data
        if cache is not None:  # attention rotates only the tokens' own keys
            ctx = attend(q, Tensor(cache.keys[layer, :m]), Tensor(cache.values[layer, :m]),
                         cfg.n_heads, cos, sin, cache.rotated[layer, :, :m])
        else:
            mem = memory(layer, k, v)
            if mem is not None:
                k, v = T.concat([mem[0], k], axis=0), T.concat([mem[1], v], axis=0)
            ctx = attend(q, k, v, cfg.n_heads, cos, sin, blocks=blocks)
        ctx = project_rows(ctx, model.params[p + "wo"], pairs.get((layer, "o")), comp_idx)
        x = T.add(x, ctx)
        xf = rmsnorm(x, model.params[p + "ffn_norm"])
        x = T.add(x, mlp(xf, model.params[p + "w_gate"], model.params[p + "w_up"],
                         model.params[p + "w_down"]))
    xo = rmsnorm(x, model.params["final_norm"])
    logits = T.matmul(xo, model.params["head"])
    return logits, KVLayout(new_k, new_v)


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
        forward runs; ``forward``'s CapacityError stays the backstop."""
        if entries > self.config.max_layout:
            raise UsageError(f"{what} holds up to {entries} entries, above the "
                             f"model's max_layout {self.config.max_layout}")

    def forward(self, tokens, layout: KVLayout, adapters: AdapterSet | None = None,
                cache: KVCache | None = None, lengths: Sequence[int] | None = None,
                fold: tuple[int, Callable] | None = None) -> tuple[Tensor, KVLayout]:
        """New tokens appended (for attention) after ``layout``.

        Returns per-token logits and the layout of the KV entries the tokens
        produced, to extend ``layout`` with. ``layout`` is not mutated.
        ``cache`` is None or the caller's KVCache of the model's dtype whose
        first rows hold ``layout``: the tokens' entries go into the rows after
        them, the returned layout views those, and no row past them is read.
        ``lengths``, without a cache, splits ``tokens`` into sequences run as
        one pack: each reads ``layout`` and its own tokens alone, as it would
        in a forward of its own, so ``max_layout`` bounds the layout plus the
        longest. The logits and returned entries are theirs, in order.
        ``fold`` = (w, f) gives the later sequences, at every layer, the w
        memory entries f(layer, k, v) makes of the first one's keys and values
        there: a compression and the queries reading its result in one pack,
        or, with no later sequence, a compression alone (f is not called).
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        cfg, n_mem = self.config, layout.n_entries
        if (lengths is not None or fold is not None) and (
                cache is not None or lengths is None or min(lengths, default=0) < 1
                or sum(lengths) != tokens.size):
            raise DimensionError(f"lengths {lengths} must split {tokens.size} "
                                 "tokens into sequences, without a cache")
        sizes = [tokens.size] if lengths is None else list(lengths)
        widths = [n_mem] + [n_mem if fold is None else fold[0]] * (len(sizes) - 1)
        m = max(w + n for w, n in zip(widths, sizes))
        if m > cfg.max_layout:
            raise CapacityError(f"layout would hold {m} entries "
                                f"> max_layout {cfg.max_layout}")
        if cache is None:
            positions, blocks = None, None
            if lengths is not None:  # each sequence reads its own copy of its memory
                positions, blocks = pack_blocks([(T.causal_mask(n, w + n), np.arange(w + n))
                                                 for w, n in zip(widths, sizes)])

            def memory(layer, k, v):
                first = layout.keys[layer], layout.values[layer]
                if not sum(widths) or len(sizes) == 1:
                    return tuple(map(Tensor, first)) if n_mem else None
                later = first if fold is None else fold[1](layer, k.data[:sizes[0]],
                                                           v.data[:sizes[0]])
                return tuple(Tensor(np.concatenate([a] + [b] * (len(sizes) - 1)))
                             for a, b in zip(first, later))

            return forward_groups(self, tokens, memory, adapters, n_mem=sum(widths),
                                  positions=positions, blocks=blocks)
        # rows are the next-to-last axis of all three arrays
        for name, want in (("keys", (cfg.n_layers, cfg.d_model)),
                           ("values", (cfg.n_layers, cfg.d_model)),
                           ("rotated", (cfg.n_layers, cfg.n_heads, cfg.head_dim))):
            arr = getattr(cache, name)
            if arr.dtype != self.dtype or arr.shape[:-2] + arr.shape[-1:] != want \
                    or arr.shape[-2] < m:
                raise DimensionError(f"KV cache {name} {arr.shape} {arr.dtype} holds "
                                     f"no {m} entries of this {self.dtype} model")
        return forward_groups(self, tokens, None, adapters, cache, n_mem)
