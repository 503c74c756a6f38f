"""Compressed context memory: slot production and update policies.

One segment is condensed into the unrotated key/value pairs of its
compression tokens: a KVLayout of s slots, 2 x n_layers x d_model numbers
per slot. The memory Mem(t) is one read-only KVLayout, and an update
returns a new memory Mem(t+1) under one of four policies:

* ``concat``       append every slot group; entries grow linearly in t.
* ``merge``        running arithmetic mean; entries fixed at s.
* ``ema``          exponential moving average with coefficient a (a_1 = 1).
* ``independent``  like concat, but each segment is compressed without
                   seeing the previous memory (the online variant of
                   fixed-context compression).

Policy ``none`` keeps no memory at all (the no-context baseline). Since
layouts are immutable, a memory is a value: an update shares nothing it
could change, and reading the layout copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import load_arrays, save_arrays
from .errors import ContractViolation, DataError, UsageError
from .lora import AdapterSet
from .model import KVLayout, ToyLM

MEMORY_POLICIES = ("concat", "merge", "ema", "independent")
POLICIES = MEMORY_POLICIES + ("none",)
GROWING_POLICIES = ("concat", "independent")


@dataclass(frozen=True)
class ContextMemory:
    """Policy-dependent compressed KV Mem(t): one layout, chronological."""

    policy: str
    ema_a: float = 0.5
    entries: KVLayout | None = None  # None until the first update
    count: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise UsageError(f"unknown memory policy {self.policy!r}")
        if self.policy == "ema" and not 0.0 < self.ema_a <= 1.0:
            raise ContractViolation(f"ema coefficient {self.ema_a} outside (0, 1]")

    # -- update ----------------------------------------------------------------

    def updated(self, h: KVLayout) -> "ContextMemory":
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
        return 0 if self.entries is None else self.entries.n_entries

    def layout(self, model: ToyLM) -> KVLayout:
        """Memory entries as a KV layout fragment, chronological order."""
        return model.empty_layout() if self.entries is None else self.entries

    def snapshot(self) -> "ContextMemory":
        """The memory itself: a value needs no copy to be kept."""
        return self

    # -- persistence --------------------------------------------------------------

    def save(self, path) -> None:
        arrays: dict[str, np.ndarray] = {}
        if self.entries is not None:
            arrays["mem/run.k"] = self.entries.keys
            arrays["mem/run.v"] = self.entries.values
        save_arrays(path, arrays, meta={
            "kind": "memory", "policy": self.policy, "ema_a": self.ema_a,
            "count": self.count,
        })

    @classmethod
    def load(cls, path) -> "ContextMemory":
        arrays, meta = load_arrays(path)
        if meta.get("kind") != "memory":
            raise DataError(f"{path}: not a memory snapshot")
        policy, count = meta["policy"], int(meta["count"])

        def record(name: str) -> KVLayout:
            if name + ".k" not in arrays or name + ".v" not in arrays:
                raise DataError(f"{path}: missing memory record {name!r}")
            return KVLayout(arrays[name + ".k"], arrays[name + ".v"])

        entries = None
        if count and policy in GROWING_POLICIES and "mem/run.k" not in arrays:
            # older concat files store one record per slot group
            groups = [record(f"mem/{i}") for i in range(count)]
            entries = groups[0].extended(*groups[1:])
        elif count:
            entries = record("mem/run")
        return cls(policy, float(meta["ema_a"]), entries, count)


# ---------------------------------------------------------------------------
# update functions (pure: return a new memory)


def update_concat(mem: ContextMemory, h: KVLayout) -> ContextMemory:
    """Append the new slot group; order preserved."""
    entries = h if mem.entries is None else mem.entries.extended(h)
    return replace(mem, entries=entries, count=mem.count + 1)


def _combined(mem: ContextMemory, h: KVLayout, w_old: float,
              w_new: float) -> ContextMemory:
    """Running state w_old * prev + w_new * h; the first h is taken as is."""
    prev = mem.entries
    entries = h if prev is None else KVLayout(w_old * prev.keys + w_new * h.keys,
                                              w_old * prev.values + w_new * h.values)
    return replace(mem, entries=entries, count=mem.count + 1)


def update_merge(mem: ContextMemory, h: KVLayout) -> ContextMemory:
    """Running arithmetic mean: state = ((t-1) * prev + h) / t."""
    t = mem.count + 1
    return _combined(mem, h, (t - 1) / t, 1.0 / t)


def update_ema(mem: ContextMemory, h: KVLayout, a: float) -> ContextMemory:
    """Exponential moving average with a_1 = 1: state = (1-a) * prev + a * h."""
    if not 0.0 < a <= 1.0:
        raise ContractViolation(f"ema coefficient {a} outside (0, 1]")
    return _combined(mem, h, 1.0 - a, a)


# ---------------------------------------------------------------------------
# compression


def compress_segment(model: ToyLM, adapters: AdapterSet, mem: ContextMemory,
                     segment) -> KVLayout:
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
    return KVLayout(new_k, new_v).entries(segment.size)


def compress_from_kv(model: ToyLM, adapters: AdapterSet, context: KVLayout) -> KVLayout:
    """Compress a KV-resident chunk (streaming path; no raw tokens survive).

    ``context`` is [current compressed region | chunk KV]; the compression
    tokens attend all of it plus causally among themselves.
    """
    tokens = np.full(adapters.comp_len, model.config.comp_token_id, dtype=np.intp)
    _, (new_k, new_v) = model.forward(tokens, context, adapters=adapters)
    return KVLayout(new_k, new_v)
