"""Compressed context memory: slot production and update policies.

One segment is condensed into the unrotated key/value pairs of its
compression tokens (s slots per segment, 2 x n_layers x d_model numbers
per slot). The memory then evolves under one of four policies:

* ``concat``       append every slot group; entries grow linearly in t.
* ``merge``        running arithmetic mean; entries fixed at s.
* ``ema``          exponential moving average with coefficient a (a_1 = 1).
* ``independent``  like concat, but each segment is compressed without
                   seeing the previous memory (the online variant of
                   fixed-context compression).

Policy ``none`` keeps no memory at all (the no-context baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_arrays, save_arrays
from .errors import ContractViolation, DataError, UsageError
from .lora import AdapterSet
from .model import TAG_CONTEXT, TAG_MEMORY, KVLayout, ToyLM

POLICIES = ("concat", "merge", "ema", "independent", "none")
GROWING_POLICIES = ("concat", "independent")


@dataclass
class CompressedSlots:
    """Per-layer unrotated KV produced by one segment's compression tokens."""

    keys: np.ndarray    # [n_layers, s, d_model]
    values: np.ndarray  # [n_layers, s, d_model]
    produced_at: int = 0

    @property
    def n_slots(self) -> int:
        return self.keys.shape[1]

    def scaled(self, c: float) -> "CompressedSlots":
        return CompressedSlots(self.keys * c, self.values * c, self.produced_at)

    def combined(self, other: "CompressedSlots", w_self: float, w_other: float,
                 produced_at: int) -> "CompressedSlots":
        return CompressedSlots(w_self * self.keys + w_other * other.keys,
                               w_self * self.values + w_other * other.values,
                               produced_at)


@dataclass
class ContextMemory:
    """Policy-dependent store of compressed KV."""

    policy: str
    ema_a: float = 0.5
    slots: list[CompressedSlots] = field(default_factory=list)  # concat/independent
    running: CompressedSlots | None = None                      # merge/ema
    count: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise UsageError(f"unknown memory policy {self.policy!r}")
        if self.policy == "ema" and not 0.0 < self.ema_a <= 1.0:
            raise ContractViolation(f"ema coefficient {self.ema_a} outside (0, 1]")

    # -- update ----------------------------------------------------------------

    def updated(self, h: CompressedSlots) -> "ContextMemory":
        if self.policy in GROWING_POLICIES:
            return update_concat(self, h)
        if self.policy == "merge":
            return update_merge(self, h)
        if self.policy == "ema":
            return update_ema(self, h, self.ema_a)
        raise UsageError(f"policy {self.policy!r} does not accept updates")

    # -- views -----------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        if self.policy in GROWING_POLICIES:
            return sum(s.n_slots for s in self.slots)
        if self.running is not None:
            return self.running.n_slots
        return 0

    def layout(self, model: ToyLM) -> KVLayout:
        """Memory entries as a KV layout fragment, chronological order."""
        out = model.empty_layout()
        if self.policy in GROWING_POLICIES:
            for s in self.slots:
                out = out.extended(s.keys.astype(model.dtype),
                                   s.values.astype(model.dtype),
                                   [TAG_MEMORY] * s.n_slots)
        elif self.running is not None:
            out = out.extended(self.running.keys.astype(model.dtype),
                               self.running.values.astype(model.dtype),
                               [TAG_MEMORY] * self.running.n_slots)
        return out

    def snapshot(self) -> "ContextMemory":
        slots = [CompressedSlots(s.keys.copy(), s.values.copy(), s.produced_at)
                 for s in self.slots]
        running = None
        if self.running is not None:
            running = CompressedSlots(self.running.keys.copy(),
                                      self.running.values.copy(),
                                      self.running.produced_at)
        return ContextMemory(self.policy, self.ema_a, slots, running, self.count)

    # -- persistence --------------------------------------------------------------

    def save(self, path) -> None:
        arrays: dict[str, np.ndarray] = {}
        if self.policy in GROWING_POLICIES:
            for i, s in enumerate(self.slots):
                arrays[f"mem/{i}.k"] = s.keys
                arrays[f"mem/{i}.v"] = s.values
        elif self.running is not None:
            arrays["mem/run.k"] = self.running.keys
            arrays["mem/run.v"] = self.running.values
        save_arrays(path, arrays, meta={
            "kind": "memory", "policy": self.policy, "ema_a": self.ema_a,
            "count": self.count,
            "produced_at": [s.produced_at for s in self.slots],
        })

    @classmethod
    def load(cls, path) -> "ContextMemory":
        arrays, meta = load_arrays(path)
        if meta.get("kind") != "memory":
            raise DataError(f"{path}: not a memory snapshot")
        mem = cls(meta["policy"], float(meta["ema_a"]))
        mem.count = int(meta["count"])
        if mem.policy in GROWING_POLICIES:
            stamps = meta["produced_at"]
            for i, stamp in enumerate(stamps):
                mem.slots.append(CompressedSlots(arrays[f"mem/{i}.k"],
                                                 arrays[f"mem/{i}.v"], stamp))
        elif "mem/run.k" in arrays:
            mem.running = CompressedSlots(arrays["mem/run.k"], arrays["mem/run.v"],
                                          mem.count)
        return mem


# ---------------------------------------------------------------------------
# update functions (pure: return a new memory)


def update_concat(mem: ContextMemory, h: CompressedSlots) -> ContextMemory:
    """Append the new slot group; order preserved."""
    out = mem.snapshot()
    out.slots.append(CompressedSlots(h.keys.copy(), h.values.copy(), mem.count + 1))
    out.count = mem.count + 1
    return out


def update_merge(mem: ContextMemory, h: CompressedSlots) -> ContextMemory:
    """Running arithmetic mean: state = ((t-1) * prev + h) / t."""
    t = mem.count + 1
    out = mem.snapshot()
    if mem.running is None:
        out.running = CompressedSlots(h.keys.copy(), h.values.copy(), t)
    else:
        out.running = mem.running.combined(h, (t - 1) / t, 1.0 / t, t)
    out.count = t
    return out


def update_ema(mem: ContextMemory, h: CompressedSlots, a: float) -> ContextMemory:
    """Exponential moving average with a_1 = 1: state = (1-a) * prev + a * h."""
    if not 0.0 < a <= 1.0:
        raise ContractViolation(f"ema coefficient {a} outside (0, 1]")
    t = mem.count + 1
    out = mem.snapshot()
    if mem.running is None:
        out.running = CompressedSlots(h.keys.copy(), h.values.copy(), t)
    else:
        out.running = mem.running.combined(h, 1.0 - a, a, t)
    out.count = t
    return out


# ---------------------------------------------------------------------------
# compression


def compress_segment(model: ToyLM, adapters: AdapterSet, mem: ContextMemory,
                     segment) -> CompressedSlots:
    """Condense one segment into the compression tokens' unrotated KV.

    The forward runs over [memory entries | segment | s comp tokens]; with
    policy ``independent`` the memory is hidden from the compressor.
    """
    segment = np.asarray(segment, dtype=np.intp)
    if segment.size == 0:
        raise ContractViolation("cannot compress an empty segment")
    s = adapters.comp_len
    cfg = model.config
    layout = (model.empty_layout() if mem.policy in ("independent", "none")
              else mem.layout(model))
    tokens = np.concatenate([segment, np.full(s, cfg.comp_token_id, dtype=np.intp)])
    _, (new_k, new_v) = model.forward(tokens, layout, adapters=adapters)
    return CompressedSlots(new_k[:, segment.size:, :].copy(),
                           new_v[:, segment.size:, :].copy(),
                           produced_at=mem.count + 1)


def compress_from_kv(model: ToyLM, adapters: AdapterSet, mem_layout: KVLayout,
                     chunk_keys: np.ndarray, chunk_values: np.ndarray,
                     produced_at: int = 0) -> CompressedSlots:
    """Compress a KV-resident chunk (streaming path; no raw tokens survive).

    The compression tokens attend [current compressed region | chunk KV]
    plus causally among themselves.
    """
    s = adapters.comp_len
    cfg = model.config
    layout = mem_layout.extended(chunk_keys, chunk_values,
                                 [TAG_CONTEXT] * chunk_keys.shape[1])
    tokens = np.full(s, cfg.comp_token_id, dtype=np.intp)
    _, (new_k, new_v) = model.forward(tokens, layout, adapters=adapters)
    return CompressedSlots(new_k.copy(), new_v.copy(), produced_at)
