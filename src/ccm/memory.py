"""Compressed context memory: slot production and the two policy rules.

One segment is condensed into the unrotated key/value pairs of its
compression tokens: a KVLayout h(t) of s slots, 2 x n_layers x d_model
numbers per slot. The memory Mem(t) is one read-only KVLayout. This module
alone holds the two decisions a policy makes, and every other module asks
it: the online update (``ContextMemory.updated``), the parallel training
pass (``training.parallel_memory_update``) and the sessions.

* ``fold_weights`` is the update rule Mem(t) = fold(Mem(t-1), h(t)):

  - ``concat``       append every slot group; entries grow linearly in t.
  - ``merge``        running arithmetic mean; entries fixed at s.
  - ``ema``          moving average (1-a) Mem(t-1) + a h(t), a = ``EMA_A``.
  - ``independent``  like concat.

  Under every policy Mem(1) = h(1).
* ``reads_memory`` says whether a compression reads the memory built so
  far: all but ``independent`` (the online variant of fixed-context
  compression) do. ``fold_weights`` rejects any unlisted policy for every
  caller; the baselines that fold nothing are sessions (``engine``).

Since layouts are immutable, a memory is a value: an update shares nothing
it could change, and reading the layout copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, DimensionError, UsageError
from .lora import AdapterSet
from .model import Frame, KVCache, KVLayout, ToyLM

MEMORY_POLICIES = ("concat", "merge", "ema", "independent")
GROWING_POLICIES = ("concat", "independent")
EMA_A = 0.5  # the ema policy's a_t for t > 1


@dataclass(frozen=True)
class ContextMemory:
    """Policy-dependent compressed KV Mem(t): one layout, chronological."""

    policy: str
    entries: KVLayout | None = None  # None until the first update
    count: int = 0

    def __post_init__(self):
        fold_weights(self.policy, 1)  # an unknown policy raises

    # -- update ----------------------------------------------------------------

    def updated(self, h: KVLayout) -> "ContextMemory":
        """Mem(t+1) from this Mem(t) and the new slot group h(t+1)."""
        prev, w = self.entries, fold_weights(self.policy, self.count + 1)
        if w is None:
            entries = h if prev is None else prev.extended(h)
        elif (h.keys.shape, h.values.shape) != (prev.keys.shape, prev.values.shape):
            raise DimensionError(f"{self.policy} memory of shape {prev.keys.shape} folds "
                                 f"no h of shape {h.keys.shape}")
        else:
            entries = KVLayout(w[0] * prev.keys + w[1] * h.keys,
                               w[0] * prev.values + w[1] * h.values)
        return replace(self, entries=entries, count=self.count + 1)

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


# ---------------------------------------------------------------------------
# the policy rules


def fold_weights(policy: str, t: int) -> tuple[float, float] | None:
    """How step t >= 1 folds h(t) into Mem(t-1).

    None means append: Mem(t) = [Mem(t-1) | h(t)], which is h(1) at t = 1
    under every policy. Otherwise the weights (w_old, w_new) of
    Mem(t) = w_old * Mem(t-1) + w_new * h(t): ((t-1)/t, 1/t) for merge and
    (1 - EMA_A, EMA_A) for ema.
    """
    if policy not in MEMORY_POLICIES:
        raise UsageError(f"policy {policy!r} has no memory update rule")
    if t == 1 or policy in GROWING_POLICIES:
        return None
    if policy == "merge":
        return (t - 1) / t, 1.0 / t
    return 1.0 - EMA_A, EMA_A


def reads_memory(policy: str) -> bool:
    """Whether a compression under ``policy`` reads the memory built so far."""
    return policy != "independent"


# ---------------------------------------------------------------------------
# compression


def compress_segment(model: ToyLM, adapters: AdapterSet, mem: ContextMemory,
                     segment) -> KVLayout:
    """Condense one segment into the compression tokens' unrotated KV h, by
    one forward over [memory entries | segment | s comp tokens], the memory
    left out where the policy does not read it (``reads_memory``)."""
    segment = np.asarray(segment, dtype=np.intp)
    if segment.size == 0:
        raise ContractViolation("cannot compress an empty segment")
    layout = mem.layout(model) if reads_memory(mem.policy) else model.empty_layout()
    tokens = np.concatenate([segment, np.full(adapters.comp_len, model.config.comp_token_id,
                                              dtype=np.intp)])
    return model.forward(tokens, layout, adapters)[1].entries(segment.size, tokens.size)


def compress_from_kv(model: ToyLM, adapters: AdapterSet, context: KVLayout, at: int,
                     tokens, layout: KVLayout, cache: KVCache) -> np.ndarray:
    """Compress a KV-resident chunk (streaming path; no raw tokens survive)
    in the forward of the span ``tokens`` after it; returns their logits.

    ``context`` is [current compressed region | chunk KV]. The s comp tokens
    read it and themselves in a frame of their own, and at every layer
    ``KVCache.write`` puts their KV in ``layout``'s rows at..at+s-1 before
    the span's frame reads ``layout`` in place in ``cache``, its only memory.
    """
    s = adapters.comp_len
    if not 0 <= at <= layout.n_entries - s:
        raise DimensionError(f"slot rows {at}..{at + s - 1} lie outside the "
                             f"{layout.n_entries}-entry layout")

    def memory(layer, k, v):  # the slots fill their rows; the comp rows read the context
        cache.write(at, k.data[:s], v.data[:s], layer)
        return context.keys[layer], context.values[layer]

    frames = [Frame(s, context.n_entries), Frame(len(tokens), layout.n_entries)]
    logits, _ = model.forward(np.concatenate([np.full(s, model.config.comp_token_id), tokens]),
                              memory, adapters, cache, frames=frames)
    return logits.data[s:]
