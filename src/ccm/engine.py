"""Online sessions and token streaming under a fixed KV budget.

A session folds each context segment it ``ingest``s into its memory
according to its policy, and answers a query by likelihood:
``multichoice_scores`` scores all answer choices in one packed forward,
each choice as its own sequence [prompt | input | choice] over its own
copy of the memory. Only ``full`` has a prompt: it re-feeds the
raw context and keeps an empty memory, as ``none`` does, which ignores
context entirely. ``fixed`` recompresses the whole accumulated context
into a fresh ``independent`` memory every step.

Streaming processes tokens one at a time inside a hard entry budget
[sink | compressed region | sliding window], held as one KVLayout; when
the window fills, the oldest chunk of raw KV is compressed into slots
appended to the compressed region (whose own oldest slot group is evicted
at capacity). Position ids are reassigned sequentially over the layout at
every step. The stream owns the layout's storage, a KVCache: each step's
forward writes its token's key, value and rotated key into the next row
and the layout becomes a view of one more row, so no step copies the
cache. A compression event, the only shift, writes the kept layout into
fresh cache arrays, leaving every earlier layout's rows as they were.
Setting the compressed region's capacity to zero turns the stream
into the plain attention-sink + sliding-window baseline with the same
budget; a window as long as the stream is the unbounded ``full`` cache, and
a one-token window the no-context ``none`` baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, UsageError
from .lora import AdapterSet
from .memory import (MEMORY_POLICIES, ContextMemory, compress_from_kv,
                     compress_segment, reads_memory)
from .model import KVCache, KVLayout, ToyLM, check_token_ids
from .tensor import log_softmax_rows

SESSION_POLICIES = MEMORY_POLICIES + ("none", "full", "fixed")
STREAM_POLICIES = ("concat", "sliding", "full", "none")
_MEMORY_POLICY = {"full": "none", "fixed": "independent"}  # session -> memory


class Session:
    """One online interaction: context arrives step by step, queries follow."""

    def __init__(self, model: ToyLM, adapters: AdapterSet | None, policy: str):
        if policy not in SESSION_POLICIES:
            raise UsageError(f"unknown session policy {policy!r}")
        if policy in MEMORY_POLICIES or policy == "fixed":
            if adapters is None:
                raise UsageError(f"policy {policy!r} needs trained adapters")
        self.model = model
        self.adapters = adapters
        self.policy = policy
        self.memory = ContextMemory(_MEMORY_POLICY.get(policy, policy))
        self.raw_segments: list[np.ndarray] = []   # full / fixed

    # -- context ingestion -------------------------------------------------------

    def ingest(self, segment) -> int:
        """Fold one arriving segment into state; returns compression KV peak."""
        segment = np.asarray(segment, dtype=np.intp)
        if segment.size == 0:
            raise ContractViolation("session step needs a non-empty segment")
        if self.policy == "none":
            return 0
        if self.policy == "full":
            self.raw_segments.append(segment)
            return 0
        if self.policy == "fixed":
            # recompress the entire accumulated context into a fresh memory
            self.raw_segments.append(segment)
            segment = np.concatenate(self.raw_segments)
            self.memory = ContextMemory("independent")
        read = self.memory.entry_count if reads_memory(self.memory.policy) else 0
        peak = read + segment.size + self.adapters.comp_len
        h = compress_segment(self.model, self.adapters, self.memory, segment)
        self.memory = self.memory.updated(h)
        return peak

    # -- views --------------------------------------------------------------------

    @property
    def _prompt(self) -> list[np.ndarray]:
        """Raw context fed ahead of the inputs: only ``full`` re-feeds it."""
        return self.raw_segments if self.policy == "full" else []

    @property
    def context_entries(self) -> int:
        return self.memory.entry_count + sum(seg.size for seg in self._prompt)


def multichoice_scores(session: Session, inputs, choices) -> np.ndarray:
    """Mean log-likelihood of each choice's tokens after ``inputs``, all in one forward."""
    choices = [np.asarray(c, dtype=np.intp) for c in choices]
    if len(choices) < 2:
        raise ContractViolation("multichoice needs at least two choices")
    if any(c.size == 0 for c in choices):
        raise ContractViolation("empty answer choice")
    head = np.concatenate(session._prompt + [np.asarray(inputs, dtype=np.intp)])
    if head.size == 0:
        raise ContractViolation("multichoice needs a prompt or input to score after")
    seqs = [np.concatenate([head, choice]) for choice in choices]
    logits, _ = session.model.forward(np.concatenate(seqs),
                                      session.memory.layout(session.model),
                                      adapters=session.adapters,
                                      lengths=[seq.size for seq in seqs])
    scores, lo = np.empty(len(seqs)), 0
    for i, seq in enumerate(seqs):
        logp = log_softmax_rows(logits.data[lo:lo + seq.size])
        rows = np.arange(head.size - 1, seq.size - 1)
        scores[i] = logp[rows, seq[rows + 1]].mean()
        lo += seq.size
    if not np.isfinite(scores).all():
        raise ContractViolation(f"non-finite choice scores {scores}")
    return scores


def evaluate_multichoice(session: Session, inputs, choices) -> int:
    """The choice with the highest score; ties break toward the lowest index."""
    return int(np.argmax(multichoice_scores(session, inputs, choices)))


# ---------------------------------------------------------------------------
# streaming


@dataclass(frozen=True)
class StreamCaps:
    """Entry budget for streaming: total = n_sink + ccm_entries + window."""

    n_sink: int = 1
    ccm_entries: int = 8
    window: int = 151
    chunk: int = 64

    def __post_init__(self):
        if self.chunk > self.window:
            raise UsageError(f"chunk {self.chunk} exceeds window {self.window}")
        if self.chunk < 1:
            raise UsageError(f"chunk {self.chunk} must be at least 1")
        if min(self.n_sink, self.ccm_entries, self.window) < 0:
            raise UsageError("stream caps must be non-negative")

    @property
    def total(self) -> int:
        return self.n_sink + self.ccm_entries + self.window

    def sliding_only(self) -> "StreamCaps":
        """Same total budget, no compressed region (the baseline control)."""
        return StreamCaps(self.n_sink, 0, self.window + self.ccm_entries, self.chunk)


class StreamState:
    """KV bookkeeping for one token stream under a fixed budget.

    ``layout`` is [sink | compressed region | window]: the first ``n_sink``
    entries are the sink, the next ``ccm_entry_count`` the compressed
    region, and the rest the window. The adapters set the slot group size.
    ``cache`` owns the storage: ``layout`` is a view of its first rows.
    """

    def __init__(self, model: ToyLM, adapters: AdapterSet | None, caps: StreamCaps):
        if caps.ccm_entries > 0 and adapters is None:
            raise UsageError("compressed streaming needs trained adapters")
        if 0 < caps.ccm_entries < adapters.comp_len:
            # the region could never hold a slot group: every compression wasted
            raise UsageError(f"ccm_entries {caps.ccm_entries} holds no group of "
                             f"{adapters.comp_len} slots")
        self.model = model
        self.adapters = adapters
        self.caps = caps
        self._hold(model.empty_layout())
        self.n_sink = 0
        self.ccm_entry_count = 0

    @property
    def window_entries(self) -> int:
        return self.layout.n_entries - self.n_sink - self.ccm_entry_count

    def _hold(self, layout: KVLayout) -> None:
        """``layout``, written into fresh cache arrays, as the stream's layout."""
        rows = min(self.caps.total, self.model.config.max_layout)  # no forward holds more
        self.cache = KVCache.holding(layout, rows, self.model.config)
        self.layout = self.cache.layout(layout.n_entries)

    def _compress_oldest_chunk(self) -> None:
        lo = self.n_sink
        hi = lo + self.ccm_entry_count
        rest = hi + self.caps.chunk
        region = []
        if self.caps.ccm_entries > 0:
            # the new slot group sees the whole region, then the oldest go
            slots = compress_from_kv(self.model, self.adapters,
                                     self.layout.entries(lo, rest))
            n = self.ccm_entry_count + slots.n_entries
            while n > self.caps.ccm_entries:
                n -= slots.n_entries  # emit the oldest compressed slot group
            if n:
                region = [self.layout.entries(hi - n + slots.n_entries, hi), slots]
            self.ccm_entry_count = n
        self._hold(self.layout.entries(0, lo).extended(*region,
                                                       self.layout.entries(rest)))


def streaming_step(state: StreamState, token: int) -> tuple[np.ndarray, int, bool]:
    """Process one token: returns (next-token logits, kv_total used, event?).

    The token attends [sink | compressed region | window] with fresh
    sequential positions; its KV lands in the sink until the sink is full,
    then in the window. The window triggers chunk compression when full.
    """
    event = False
    if state.window_entries >= state.caps.window:
        state._compress_oldest_chunk()
        event = True
    logits, _ = state.model.forward(np.array([token], dtype=np.intp), state.layout,
                                    adapters=state.adapters, cache=state.cache)
    state.layout = state.cache.layout(state.layout.n_entries + 1)
    if state.n_sink < state.caps.n_sink:
        state.n_sink += 1
    return logits.data[0], state.layout.n_entries, event


@dataclass
class StreamResult:
    nll: np.ndarray          # negative log-likelihood per predicted token
    kv_totals: np.ndarray    # layout entries used at each step
    events: np.ndarray       # 1 where a compression was triggered
    perplexity: float

    def cumulative_perplexity(self) -> np.ndarray:
        c = np.cumsum(self.nll) / np.arange(1, self.nll.size + 1)
        return np.exp(c)


def evaluate_perplexity(model: ToyLM, adapters: AdapterSet | None, policy: str,
                        stream, caps: StreamCaps | None = None) -> StreamResult:
    """Per-token perplexity of a stream under a KV constraint.

    Policies: ``concat`` (compressed streaming), ``sliding`` (equal-budget
    attention-sink window), ``full`` (unbounded cache: a window as long as
    the stream), ``none`` (a one-token window: each token predicted from
    the previous token alone).
    """
    stream = np.asarray(stream, dtype=np.intp)
    if stream.size < 2:
        raise ContractViolation("stream too short to evaluate")
    if policy not in STREAM_POLICIES:
        raise UsageError(f"unknown streaming policy {policy!r}")
    check_token_ids(stream, model.config.vocab_size)
    if policy in ("full", "none"):
        caps = StreamCaps(n_sink=0, ccm_entries=0, chunk=1,
                          window=stream.size if policy == "full" else 1)
    elif caps is None:
        raise UsageError(f"policy {policy!r} needs stream caps")
    elif policy == "sliding":
        caps, adapters = caps.sliding_only(), None
    model.check_fits(min(stream.size, caps.total),
                     f"policy {policy!r} on a {stream.size}-token stream")
    state = StreamState(model, adapters, caps)
    nll, totals, events = [], [], []
    last = None
    for tok in stream:
        if last is not None:
            nll.append(-log_softmax_rows(last[None, :])[0, tok])
        last, kv_total, event = streaming_step(state, int(tok))
        totals.append(kv_total)
        events.append(int(event))

    nll = np.asarray(nll)
    if not np.isfinite(nll).all():
        raise ContractViolation(f"non-finite NLL at stream position "
                                f"{np.flatnonzero(~np.isfinite(nll))[0] + 1}")
    return StreamResult(nll, np.asarray(totals, dtype=np.intp),
                        np.asarray(events, dtype=np.intp),
                        float(np.exp(nll.mean())))
