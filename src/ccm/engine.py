"""Online sessions and token streaming under a fixed KV budget.

A session is the paper's online loop: each context segment it ``ingest``s
is compressed at once and folded into its memory according to its policy,
and a query is answered by likelihood: ``multichoice_scores`` scores all
answer choices in one packed forward, each choice a frame [prompt | input |
choice] over its own copy of the memory. ``COMPRESSING`` sessions run
adapters. ``fixed`` recompresses the raw context into a fresh, empty
``independent`` memory each step; ``full`` and ``none`` fold nothing into
theirs. ``REREADING`` sessions keep the raw context; ``full`` re-feeds it.
A test identity, all of whose steps are known, needs no session:
``identity_layout`` lays out the frames its steps build, and
``identity_scores`` runs every compression frame as one forward (the
paper's parallel pass, §3.3), then the choice frames in a few forwards.

Streaming runs a known stream inside a hard entry budget
[sink | compressed region | sliding window], held as one KVLayout; when
the window fills, the oldest chunk of raw KV is compressed into slots
appended to the compressed region (whose own oldest slot group is evicted
at capacity), and position ids are reassigned sequentially over the
layout. Between two such events the layout only grows, so each step runs
a span of tokens as one causal forward, whose one memory is the stream's
KVCache: its ``write`` puts the span's keys, values and rotated keys into
the next rows, so no step copies the cache. An event writes the kept
layout once into fresh arrays, leaving earlier layouts' rows, and slot
rows its comp tokens fill as the next forward's first frame.
Setting the compressed region's capacity to zero turns the stream
into the plain attention-sink + sliding-window baseline with the same
budget; a window as long as the stream is the unbounded ``full`` cache, and
a one-token window the no-context ``none`` baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, UsageError
from .lora import AdapterSet
from .memory import (MEMORY_POLICIES, ContextMemory, compress_from_kv,
                     compress_segment, fold_weights, reads_memory)
from .model import Frame, KVCache, KVLayout, ToyLM, check_token_ids
from .tensor import Tensor, log_softmax_rows

SESSION_POLICIES = MEMORY_POLICIES + ("none", "full", "fixed")
COMPRESSING = MEMORY_POLICIES + ("fixed",)  # sessions that run adapters
REREADING = ("full", "fixed")  # sessions that keep the raw context
STREAM_POLICIES = ("concat", "sliding", "full", "none")
# Most score entries per head one streaming forward makes, k(layout + k). It
# must be at least chunk x budget at the default caps (64 x 160), so that a
# refill after an event is one span; fewer, larger spans run faster. Swept
# untraced (2-CPU Xeon; seed 2, median stream_full tok/s, peak RSS against
# 16,384): 16,384 17.8k, 32,768 21.8k, 65,536 23.1k (+1.1%), 131,072 22.0k
# (+4.4%), 262,144 19.7k (+11.7%). The cliff 65,536 once showed (11.8k) was
# no cache effect: a softmax that made three score-sized temporaries cost a
# pass 19.8k minor page faults and 30 ms of system time; it now makes none.
SPAN_SCORES = 65536


class Session:
    """One online interaction: context arrives step by step, queries follow."""

    def __init__(self, model: ToyLM, adapters: AdapterSet | None, policy: str):
        if policy not in SESSION_POLICIES:
            raise UsageError(f"unknown session policy {policy!r}")
        if policy in COMPRESSING and adapters is None:
            raise UsageError(f"policy {policy!r} needs trained adapters")
        self.model = model
        self.adapters = adapters
        self.policy = policy
        self.memory = ContextMemory(policy if policy in MEMORY_POLICIES else "independent")
        self.raw_segments: list[np.ndarray] = []   # REREADING only

    # -- context ingestion -------------------------------------------------------

    def ingest(self, segment) -> int:
        """Fold one arriving segment into state; returns compression KV peak."""
        segment = np.asarray(segment, dtype=np.intp)
        if segment.size == 0:
            raise ContractViolation("session step needs a non-empty segment")
        check_token_ids(segment, self.model.config.comp_token_id)
        if self.policy in REREADING:
            self.raw_segments.append(segment)
        if self.policy not in COMPRESSING:
            return 0
        if self.policy in REREADING:  # recompress it all into a fresh memory
            segment, self.memory = np.concatenate(self.raw_segments), ContextMemory("independent")
        mem = self.memory
        self.memory = mem.updated(compress_segment(self.model, self.adapters, mem, segment))
        return mem.entry_count * reads_memory(mem.policy) + segment.size + self.adapters.comp_len

    # -- views --------------------------------------------------------------------

    @property
    def _prompt(self) -> list[np.ndarray]:
        """Raw context fed ahead of the inputs, by a session that compresses none."""
        return [] if self.policy in COMPRESSING else self.raw_segments

    @property
    def context_entries(self) -> int:
        """Entries a query reads."""
        return self.memory.entry_count + sum(seg.size for seg in self._prompt)


def multichoice_scores(session: Session, inputs, choices) -> np.ndarray:
    """Mean log-likelihood of each choice's tokens after ``inputs``, all in one
    forward: one frame per choice, each over its own copy of Mem(t)."""
    choices = [np.asarray(c, dtype=np.intp) for c in choices]
    if len(choices) < 2:
        raise ContractViolation("multichoice needs at least two choices")
    if any(c.size == 0 for c in choices):
        raise ContractViolation("empty answer choice")
    head = np.concatenate(session._prompt + [np.asarray(inputs, dtype=np.intp)])
    if head.size == 0:
        raise ContractViolation("multichoice needs a prompt or input to score after")
    check_token_ids(np.concatenate([head, *choices]), session.model.config.comp_token_id)
    seqs = [np.concatenate([head, choice]) for choice in choices]
    layout = session.memory.layout(session.model)
    frames = [Frame(seq.size, layout.n_entries) for seq in seqs]
    logits = session.model.forward(np.concatenate(seqs), layout, session.adapters,
                                   frames=frames)[0].data
    scores, lo = np.empty(len(seqs)), 0
    for i, seq in enumerate(seqs):
        logp = log_softmax_rows(logits[lo:lo + seq.size])
        rows = np.arange(head.size - 1, seq.size - 1)
        scores[i] = logp[rows, seq[rows + 1]].mean()
        lo += seq.size
    if not np.isfinite(scores).all():
        raise ContractViolation(f"non-finite choice scores {scores}")
    return scores


def evaluate_multichoice(session: Session, inputs, choices) -> int:
    """The choice with the highest score; ties break toward the lowest index."""
    return int(np.argmax(multichoice_scores(session, inputs, choices)))


# Rows per scoring forward of ``identity_scores``: its choice frames, whole,
# split into ceil(rows / SCORING_ROWS) forwards of near-equal rows. Swept on
# icl_eval (2-CPU Xeon; seed 2, identities/s; 24.0 by Session steps): 128 36.3,
# 192 37.9, 256 39.1, 384 35.3, all in one forward 32.4 (peak RSS +9%).
SCORING_ROWS = 256


@dataclass(frozen=True)
class IdentityLayout:
    """A test identity's frames, each the frame a ``Session`` step builds,
    reading its own copy of Mem(i) where its w > 0. Step t's compression
    frame (i, tokens, frame) is [Mem(i) | c(t) (fixed: c(1..t)) | s comps],
    and Mem(i) folded with its comp rows is Mem(t); a choice frame (t, tokens,
    frame, head size) is [Mem(t) or the re-read context | I(t) | choice]."""

    memory: ContextMemory  # Mem(0)
    comp: list
    choices: list
    context: list  # per step, the entries its queries read
    peaks: list  # per step, the entries its largest frame holds


def identity_layout(model: ToyLM, adapters: AdapterSet | None, policy: str,
                    segments, inputs, choices) -> IdentityLayout:
    """The frames of a session that ingests c(t), then scores ``choices`` after
    I(t), for t = 1..T, laid out before any forward runs."""
    mem = Session(model, adapters, policy).memory
    segments, inputs, choices = ([np.asarray(x, dtype=np.intp) for x in xs]
                                 for xs in (segments, inputs, choices))
    # a step's head is I(t), with the raw context ahead of it under full alone
    if len(choices) < 2 or len(segments) != len(inputs) \
            or 0 in map(len, segments + choices + inputs * (policy != "full")):
        raise ContractViolation("an identity needs a segment per input, two choices or "
                                "more, and no empty segment, choice or head to score after")
    check_token_ids(np.concatenate(segments + inputs + choices), model.config.comp_token_id)
    lay, held = IdentityLayout(mem, [], [], [], []), 0  # held: Mem(t-1)'s entries
    for t, inp in enumerate(inputs, start=1):
        raw, peak = segments[:t] if policy in REREADING else [], 0
        if policy in COMPRESSING:
            s, held = adapters.comp_len, held * (policy not in REREADING)
            comp = np.concatenate([*(raw or segments[t - 1:t]),
                                   np.full(s, model.config.comp_token_id, dtype=np.intp)])
            lay.comp.append(((t - 1) * (policy not in REREADING), comp,
                             Frame(comp.size, held * reads_memory(mem.policy))))
            raw, peak = [], lay.comp[-1][2].w + comp.size
            held = s + held * (fold_weights(mem.policy, t) is None)
        head = np.concatenate(raw + [inp])
        lay.choices.extend((t, q, Frame(q.size, held), head.size)
                           for q in (np.concatenate([head, c]) for c in choices))
        lay.context.append(held + head.size - inp.size)
        lay.peaks.append(max(peak, held + head.size + max(map(len, choices))))
    return lay


def identity_scores(model: ToyLM, adapters: AdapterSet | None,
                    lay: IdentityLayout) -> np.ndarray:
    """[T, choices] scores, each as ``multichoice_scores`` scores it: every
    compression frame in one forward, whose memory function folds each
    layer's comp rows into Mem(1..T) there by ``ContextMemory.updated``,
    then the choice frames in forwards of about SCORING_ROWS rows."""
    mems = []  # per layer, Mem(0..T) there

    def forward(entries, s=0):  # frames over the Mem(i) their entries name
        reads, seqs, frames = list(zip(*entries))[:3]

        def memory(layer, k, v):
            if s:  # a compression forward: Mem(1..T) at this layer, from its comp rows
                mems.append([lay.memory])
                for i, hi in zip(reads, np.cumsum([f.n for f in frames])):
                    mems[-1].append(mems[-1][i].updated(
                        KVLayout(k.data[None, hi - s:hi], v.data[None, hi - s:hi])))
            cols = [mems[layer][i].entries for i, f in zip(reads, frames) if f.w]
            return tuple(Tensor(np.concatenate([getattr(e, a)[0] for e in cols]))
                         for a in ("keys", "values")) if cols else None

        return model.forward(np.concatenate(seqs), memory, adapters, frames=frames)[0].data

    if lay.comp:
        forward(lay.comp, adapters.comp_len)
    starts = np.cumsum([0] + [c[2].n for c in lay.choices])  # k packs of near-equal rows,
    packs = starts[:-1] * -(-starts[-1] // SCORING_ROWS) // starts[-1]  # a frame's by its start
    cuts, scores = [0, *np.flatnonzero(np.diff(packs)) + 1, len(lay.choices)], []
    for pack in (lay.choices[i:j] for i, j in zip(cuts, cuts[1:])):
        logits, lo, picks = forward(pack), 0, []
        for _, seq, _, head in pack:
            picks.append((np.arange(lo + head - 1, lo + seq.size - 1), seq[head:]))
            lo += seq.size
        rows, tokens = map(np.concatenate, zip(*picks))
        logp = log_softmax_rows(logits[rows])[np.arange(rows.size), tokens]
        sizes = np.array([t.size for _, t in picks])
        means, starts = np.empty_like(logp, shape=sizes.shape), np.cumsum(sizes) - sizes
        for n in np.unique(sizes):  # one length's picks as rows, each mean as ndarray.mean's
            means[sizes == n] = logp[starts[sizes == n, None] + np.arange(n)].mean(axis=1)
        scores.append(means)
    scores = np.concatenate(scores, dtype=np.float64).reshape(len(lay.peaks), -1)
    if not np.isfinite(scores).all():
        t = np.flatnonzero(~np.isfinite(scores).all(axis=1))[0]
        raise ContractViolation(f"non-finite choice scores {scores[t].tolist()} at step {t + 1}")
    return scores


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

    ``layout`` is [sink | compressed region | window]. The sink fills first,
    so its ``n_sink`` entries are the first min(caps.n_sink, entries held);
    the next ``ccm_entry_count`` are the compressed region, and the rest the
    window. The adapters set the slot group size.
    ``cache`` owns the storage: ``layout`` is a view of its first rows, and
    an event's [sink | kept region | s slot rows | rest of window] a new one.
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
        self._hold([model.empty_layout()])
        self.ccm_entry_count = 0

    @property
    def n_sink(self) -> int:
        return min(self.caps.n_sink, self.layout.n_entries)

    @property
    def window_entries(self) -> int:
        return self.layout.n_entries - self.n_sink - self.ccm_entry_count

    def _hold(self, parts: list) -> None:
        """``parts``, written once into fresh cache arrays, as the stream's layout."""
        rows = min(self.caps.total, self.model.config.max_layout)  # no forward holds more
        self.cache = KVCache.holding(parts, rows, self.model.config)
        self.layout = self.cache.layout(sum(getattr(p, "n_entries", p) for p in parts))

    def _drop_oldest_chunk(self) -> tuple[KVLayout, int] | None:
        """Give up the window's oldest chunk; returns the compression event,
        (what the new slot group reads, its first row), or None if no region."""
        lo = self.n_sink
        hi = lo + self.ccm_entry_count
        rest = hi + self.caps.chunk
        parts, event = [self.layout.entries(0, lo)], None
        if self.caps.ccm_entries > 0:
            # the new slot group sees the whole region, then the oldest go
            s = self.adapters.comp_len
            n = self.ccm_entry_count + s
            while n > self.caps.ccm_entries:
                n -= s  # emit the oldest compressed slot group
            event = self.layout.entries(lo, rest), lo + n - s
            parts += [self.layout.entries(hi - n + s, hi), s]
            self.ccm_entry_count = n
        self._hold(parts + [self.layout.entries(rest)])
        return event


def streaming_step(state: StreamState, tokens) -> tuple[np.ndarray, int, bool]:
    """Process the longest run of ``tokens`` that needs no compression event
    inside it, as one cached forward: returns (its k tokens' [k, vocab]
    next-token logits, kv_total used after it, event?).

    A full window first gives up its oldest chunk (the event), compressed in
    the run's forward (``compress_from_kv``). The run then attends [sink |
    compressed region | window] and its own earlier tokens, with fresh
    sequential positions; its KV lands in the sink until the sink is full,
    then in the window. The run stops where the window fills, or before its
    scores pass SPAN_SCORES entries per head.
    """
    tokens = np.asarray(tokens, dtype=np.intp).reshape(-1)
    event = state.window_entries >= state.caps.window
    compression = state._drop_oldest_chunk() if event else None
    caps, n_mem = state.caps, state.layout.n_entries
    fits = (math.isqrt(n_mem * n_mem + 4 * SPAN_SCORES) - n_mem) // 2  # max k(n_mem + k)
    k = min(tokens.size, caps.n_sink - state.n_sink + caps.window - state.window_entries,
            max(fits, 1))
    if compression is None:
        logits = state.model.forward(tokens[:k], None, state.adapters, state.cache,
                                     frames=[Frame(k, n_mem)])[0].data
    else:
        logits = compress_from_kv(state.model, state.adapters, *compression, tokens[:k],
                                  state.layout, state.cache)
    state.layout = state.cache.layout(n_mem + k)
    return logits, state.layout.n_entries, event


@dataclass
class StreamResult:
    """A stream pass's per-token arrays; its perplexities follow from ``nll``."""

    nll: np.ndarray          # negative log-likelihood per predicted token
    kv_totals: np.ndarray    # layout entries used at each step
    events: np.ndarray       # 1 where a compression was triggered

    @property
    def perplexity(self) -> float:
        return float(np.exp(self.nll.mean(dtype=np.float64)))

    def cumulative_perplexity(self) -> np.ndarray:
        """exp of the running mean NLL, summed in float64 whatever the model's dtype."""
        return np.exp(np.cumsum(self.nll, dtype=np.float64) / np.arange(1, self.nll.size + 1))


def evaluate_perplexity(model: ToyLM, adapters: AdapterSet | None, policy: str,
                        stream, caps: StreamCaps | None = None) -> StreamResult:
    """Per-token perplexity of a stream under a KV constraint, one
    ``streaming_step`` per span between compression events: each token's NLL
    reads the row of the token before it, as a one-token step would give it.

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
    check_token_ids(stream, model.config.comp_token_id)
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
    nll, lo = np.empty(stream.size - 1, dtype=model.dtype), 0
    totals, events = np.empty_like(stream), np.zeros_like(stream)
    while lo < stream.size:
        logits, kv_total, events[lo] = streaming_step(state, stream[lo:])
        hi = lo + logits.shape[0]
        targets = stream[lo + 1:hi + 1]  # the last span's last row predicts none
        nll[lo:hi] = -log_softmax_rows(logits)[np.arange(targets.size), targets]
        totals[lo:hi] = np.arange(kv_total + lo - hi + 1, kv_total + 1)
        lo = hi
    if not np.isfinite(nll).all():
        raise ContractViolation(f"non-finite NLL at stream position "
                                f"{np.flatnonzero(~np.isfinite(nll))[0] + 1}")
    return StreamResult(nll, totals, events)
