"""Online sessions and token streaming under a fixed KV budget.

A session receives one context segment per step, folds it into memory
according to its policy, and answers queries against [memory | input].
Baselines share the same interface: ``full`` re-feeds the raw context as a
prompt, ``fixed`` recompresses the whole accumulated context every step,
``none`` ignores context entirely.

Streaming processes tokens one at a time inside a hard entry budget
[sink | compressed region | sliding window]; when the window fills, the
oldest chunk of raw KV is compressed into slots appended to the
compressed region (whose own oldest slot group is evicted at capacity).
Position ids are reassigned sequentially over the layout at every step,
which is free because stored keys are unrotated. Setting the compressed
region's capacity to zero turns the stream into the plain
attention-sink + sliding-window baseline with the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, UsageError
from .lora import AdapterSet
from .memory import (ContextMemory, CompressedSlots, compress_from_kv,
                     compress_segment)
from .model import TAG_CONTEXT, TAG_SINK, KVLayout, ToyLM
from .tensor import log_softmax_rows

SESSION_POLICIES = ("concat", "merge", "ema", "independent", "none", "full", "fixed")
MEMORY_POLICIES = ("concat", "merge", "ema", "independent")


@dataclass
class StepReport:
    """KV accounting for one session step (entry counts, not bytes)."""

    step: int
    policy: str
    compression_entries: int
    inference_entries: int
    context_entries: int
    pred_tokens: list[int] = field(default_factory=list)
    correct: bool | None = None


class Session:
    """One online interaction: context arrives step by step, queries follow."""

    def __init__(self, model: ToyLM, adapters: AdapterSet | None, policy: str,
                 ema_a: float = 0.5):
        if policy not in SESSION_POLICIES:
            raise UsageError(f"unknown session policy {policy!r}")
        if policy in MEMORY_POLICIES or policy == "fixed":
            if adapters is None:
                raise UsageError(f"policy {policy!r} needs trained adapters")
        self.model = model
        self.adapters = adapters
        self.policy = policy
        self.t = 0
        self.log: list[StepReport] = []
        self.memory = (ContextMemory(policy, ema_a=ema_a)
                       if policy in MEMORY_POLICIES else None)
        self.raw_segments: list[np.ndarray] = []   # full / fixed
        self.fixed_slots: CompressedSlots | None = None

    # -- context ingestion -------------------------------------------------------

    def ingest(self, segment) -> int:
        """Fold one arriving segment into state; returns compression KV peak."""
        segment = np.asarray(segment, dtype=np.intp)
        if segment.size == 0:
            raise ContractViolation("session step needs a non-empty segment")
        self.t += 1
        if self.policy == "none":
            return 0
        if self.policy == "full":
            self.raw_segments.append(segment)
            return 0
        if self.policy == "fixed":
            # recompress the entire accumulated context
            self.raw_segments.append(segment)
            whole = np.concatenate(self.raw_segments)
            peak = whole.size + self.adapters.comp_len
            mem = ContextMemory("independent")
            self.fixed_slots = compress_segment(self.model, self.adapters, mem, whole)
            return peak
        peak = (self.memory.entry_count + segment.size + self.adapters.comp_len)
        h = compress_segment(self.model, self.adapters, self.memory, segment)
        self.memory = self.memory.updated(h)
        return peak

    # -- views --------------------------------------------------------------------

    @property
    def context_entries(self) -> int:
        if self.policy in MEMORY_POLICIES:
            return self.memory.entry_count
        if self.policy == "full":
            return int(sum(seg.size for seg in self.raw_segments))
        if self.policy == "fixed":
            return 0 if self.fixed_slots is None else self.fixed_slots.n_slots
        return 0

    def _inference_inputs(self, inputs: np.ndarray) -> tuple[KVLayout, np.ndarray]:
        """(layout, tokens) the model sees when answering ``inputs``."""
        if self.policy in MEMORY_POLICIES:
            return self.memory.layout(self.model), inputs
        if self.policy == "full":
            parts = self.raw_segments + [inputs]
            return self.model.empty_layout(), np.concatenate(parts)
        if self.policy == "fixed" and self.fixed_slots is not None:
            layout = self.model.empty_layout().extended(
                self.fixed_slots.keys, self.fixed_slots.values,
                ["memory-slot"] * self.fixed_slots.n_slots)
            return layout, inputs
        return self.model.empty_layout(), inputs

    # -- prediction -----------------------------------------------------------------

    def predict(self, inputs, max_new: int) -> tuple[np.ndarray, int]:
        """Greedy continuation; returns (tokens, peak inference KV entries)."""
        inputs = np.asarray(inputs, dtype=np.intp)
        layout, tokens = self._inference_inputs(inputs)
        out, peak = self.model.greedy_decode(layout, tokens, max_new,
                                             adapters=self.adapters)
        return out, peak

    def step(self, segment, inputs, max_new: int) -> tuple[np.ndarray, StepReport]:
        """Ingest one segment then answer: the online loop body."""
        comp_peak = self.ingest(segment)
        pred, infer_peak = self.predict(inputs, max_new)
        report = StepReport(self.t, self.policy, comp_peak, infer_peak,
                            self.context_entries, [int(x) for x in pred])
        self.log.append(report)
        return pred, report


def evaluate_multichoice(session: Session, inputs, choices) -> int:
    """Pick the choice with the highest mean token log-likelihood.

    Ties break toward the lowest index.
    """
    choices = [np.asarray(c, dtype=np.intp) for c in choices]
    if len(choices) < 2:
        raise ContractViolation("multichoice needs at least two choices")
    if any(c.size == 0 for c in choices):
        raise ContractViolation("empty answer choice")
    inputs = np.asarray(inputs, dtype=np.intp)
    scores = np.empty(len(choices))
    for i, choice in enumerate(choices):
        layout, tokens = session._inference_inputs(
            np.concatenate([inputs, choice]))
        logits, _ = session.model.forward(tokens, layout, adapters=session.adapters)
        logp = log_softmax_rows(logits.data)
        rows = np.arange(tokens.size - choice.size - 1, tokens.size - 1)
        scores[i] = logp[rows, tokens[rows + 1]].mean()
    return int(np.argmax(scores))


# ---------------------------------------------------------------------------
# streaming


@dataclass(frozen=True)
class StreamCaps:
    """Entry budget for streaming: total = n_sink + ccm_entries + window."""

    n_sink: int = 1
    ccm_entries: int = 8
    window: int = 151
    chunk: int = 64
    comp_len: int = 2

    def __post_init__(self):
        if self.chunk > self.window:
            raise UsageError(f"chunk {self.chunk} exceeds window {self.window}")
        if min(self.n_sink, self.window, self.chunk, self.comp_len) < 0:
            raise UsageError("stream caps must be non-negative")

    @property
    def total(self) -> int:
        return self.n_sink + self.ccm_entries + self.window

    def sliding_only(self) -> "StreamCaps":
        """Same total budget, no compressed region (the baseline control)."""
        return StreamCaps(self.n_sink, 0, self.window + self.ccm_entries,
                          self.chunk, self.comp_len)


class StreamState:
    """KV bookkeeping for one token stream under a fixed budget."""

    def __init__(self, model: ToyLM, adapters: AdapterSet | None, caps: StreamCaps):
        if caps.ccm_entries > 0 and adapters is None:
            raise UsageError("compressed streaming needs trained adapters")
        if adapters is not None and caps.ccm_entries > 0 \
                and adapters.comp_len != caps.comp_len:
            raise UsageError(
                f"caps.comp_len {caps.comp_len} != adapters.comp_len {adapters.comp_len}")
        self.model = model
        self.adapters = adapters
        self.caps = caps
        self.sink = model.empty_layout()
        self.window = model.empty_layout()
        self.ccm: list[CompressedSlots] = []
        self.events = 0

    @property
    def ccm_entry_count(self) -> int:
        return sum(s.n_slots for s in self.ccm)

    @property
    def kv_total(self) -> int:
        return self.sink.n_entries + self.ccm_entry_count + self.window.n_entries

    def _ccm_layout(self) -> KVLayout:
        out = self.model.empty_layout()
        for s in self.ccm:
            out = out.extended(s.keys, s.values, ["memory-slot"] * s.n_slots)
        return out

    def _full_layout(self) -> KVLayout:
        return self.sink.concat(self._ccm_layout()).concat(self.window)

    def _compress_oldest_chunk(self) -> None:
        b = self.caps.chunk
        chunk_k = self.window.keys[:, :b, :]
        chunk_v = self.window.values[:, :b, :]
        if self.caps.ccm_entries > 0:
            slots = compress_from_kv(self.model, self.adapters, self._ccm_layout(),
                                     chunk_k, chunk_v, produced_at=self.events + 1)
            self.ccm.append(slots)
            while self.ccm_entry_count > self.caps.ccm_entries:
                self.ccm.pop(0)  # emit the oldest compressed slot group
        self.window = KVLayout(self.window.keys[:, b:, :],
                               self.window.values[:, b:, :],
                               self.window.tags[b:])
        self.events += 1


def streaming_step(state: StreamState, token: int) -> tuple[np.ndarray, int, bool]:
    """Process one token: returns (next-token logits, kv_total used, event?).

    The token attends [sink | compressed region | window] with fresh
    sequential positions; its KV lands in the sink until the sink is full,
    then in the window. The window triggers chunk compression when full.
    """
    event = False
    if state.window.n_entries >= state.caps.window:
        state._compress_oldest_chunk()
        event = True
    layout = state._full_layout()
    logits, (k, v) = state.model.forward(np.array([token], dtype=np.intp), layout,
                                         adapters=state.adapters)
    kv_total = layout.n_entries + 1
    if state.sink.n_entries < state.caps.n_sink:
        state.sink = state.sink.extended(k, v, [TAG_SINK])
    else:
        state.window = state.window.extended(k, v, [TAG_CONTEXT])
    return logits.data[0], kv_total, event


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
    attention-sink window), ``full`` (unbounded cache), ``none`` (each
    token predicted from the previous token alone).
    """
    stream = np.asarray(stream, dtype=np.intp)
    if stream.size < 2:
        raise ContractViolation("stream too short to evaluate")
    nll, totals, events = [], [], []

    if policy in ("concat", "sliding"):
        if caps is None:
            raise UsageError(f"policy {policy!r} needs stream caps")
        use = caps if policy == "concat" else caps.sliding_only()
        state = StreamState(model, adapters if policy == "concat" else None, use)
        last = None
        for tok in stream:
            if last is not None:
                nll.append(-log_softmax_rows(last[None, :])[0, tok])
            last, kv_total, event = streaming_step(state, int(tok))
            totals.append(kv_total)
            events.append(int(event))
    elif policy == "full":
        layout = model.empty_layout()
        last = None
        for tok in stream:
            if last is not None:
                nll.append(-log_softmax_rows(last[None, :])[0, tok])
            logits, (k, v) = model.forward(np.array([tok], dtype=np.intp), layout,
                                           adapters=adapters)
            totals.append(layout.n_entries + 1)
            events.append(0)
            layout = layout.extended(k, v, [TAG_CONTEXT])
            last = logits.data[0]
    elif policy == "none":
        layout = model.empty_layout()
        for prev, tok in zip(stream[:-1], stream[1:]):
            logits, _ = model.forward(np.array([prev], dtype=np.intp), layout,
                                      adapters=adapters)
            nll.append(-log_softmax_rows(logits.data)[0, tok])
            totals.append(1)
            events.append(0)
    else:
        raise UsageError(f"unknown streaming policy {policy!r}")

    nll = np.asarray(nll)
    return StreamResult(nll, np.asarray(totals, dtype=np.intp),
                        np.asarray(events, dtype=np.intp),
                        float(np.exp(nll.mean())))
