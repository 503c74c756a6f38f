"""Parallelized compression training and its recursive reference oracle.

The online compress-update-infer loop is unrolled into one forward pass
over the interleaved sequence [c(1), comps, ..., c(t), comps, I(t), O(t)],
run as t+1 query groups of the model's layer loop. Each group reads the
memory it would read in the recursive execution:

* group j = [c(j) | compression block j] reads Mem(j-1) (none for j = 1);
* the last group [I(t) | O(t)] reads Mem(t).

Within every layer ``parallel_memory_update`` builds Mem(1..t) from the
compression blocks' keys/values by the same fold rule the online update
applies (``memory.fold_weights``), and a compression group reads its
memory only where ``memory.reads_memory`` says the policy does (not for
``independent``, whose final inference group alone reads the results).
Each group sees its memory in full and its own tokens causally, in its own
position frame [Mem | own tokens] numbered from zero, which is what makes
the single-pass logits match the step-by-step oracle to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractViolation, DataError, UsageError
from .lora import AdapterSet, trainable_parameters
from .memory import (GROWING_POLICIES, MEMORY_POLICIES, ContextMemory,
                     compress_segment, fold_weights, reads_memory)
from .model import ToyLM, forward_groups
from .optim import Adam, cosine_lr
from .seeding import derive_seed
from .tensor import Tensor


@dataclass
class TrainingSequence:
    """Interleaved tokens with their step ranges and loss positions."""

    tokens: np.ndarray          # [N] token ids
    t: int
    s: int
    ctx_ranges: list[tuple[int, int]]
    comp_ranges: list[tuple[int, int]]
    io_range: tuple[int, int]
    target_weights: np.ndarray  # [N] 1 on positions predicting O(t) tokens
    targets: np.ndarray         # [N] next-token ids (last entry unused)

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[0]

    @property
    def groups(self) -> list[tuple[int, int]]:
        """Token ranges of the t+1 query groups: [c(j) | comps j], then [I | O]."""
        return ([(c[0], comp[1]) for c, comp in zip(self.ctx_ranges, self.comp_ranges)]
                + [self.io_range])


def build_training_sequence(sample: tuple[Sequence, Sequence, Sequence],
                            s: int, t: int, comp_token_id: int) -> TrainingSequence:
    """Interleave [c(1), s comps, ..., c(t), s comps, I(t), O(t)]."""
    segments, inputs, outputs = sample
    if t < 1 or len(segments) < t:
        raise DataError(f"need t >= 1 segments, got t={t} with {len(segments)}")
    if s < 1:
        raise DataError("compression token length s must be >= 1")
    segments = [np.asarray(seg, dtype=np.intp) for seg in segments[:t]]
    inputs = np.asarray(inputs, dtype=np.intp)
    outputs = np.asarray(outputs, dtype=np.intp)
    if any(seg.size == 0 for seg in segments):
        raise DataError("empty context segment")
    if inputs.size == 0 or outputs.size == 0:
        raise DataError("empty input or output")

    parts = []
    ctx_ranges, comp_ranges = [], []
    pos = 0
    for seg in segments:
        ctx_ranges.append((pos, pos + seg.size))
        parts.append(seg)
        pos += seg.size
        comp_ranges.append((pos, pos + s))
        parts.append(np.full(s, comp_token_id, dtype=np.intp))
        pos += s
    io_range = (pos, pos + inputs.size + outputs.size)
    parts.extend([inputs, outputs])

    tokens = np.concatenate(parts)
    n = tokens.shape[0]
    weights = np.zeros(n, dtype=np.int8)
    weights[n - outputs.size - 1:n - 1] = 1  # the positions predicting O(t)
    targets = np.zeros(n, dtype=np.intp)
    targets[:-1] = tokens[1:]
    return TrainingSequence(tokens, t, s, ctx_ranges, comp_ranges,
                            io_range, weights, targets)


# ---------------------------------------------------------------------------
# the parallel mask


@dataclass
class ParallelMask:
    """Boolean matrix over (queries = tokens, keys = memory columns + tokens).

    For growing policies (concat / independent) the memory columns alias
    the compression-token columns, so ``n_mem_cols`` is zero and cross-step
    attention is carried by the token part. For merge / ema there are
    t * s dedicated columns: block j (columns [(j-1)s, js)) is Mem(j).
    """

    allowed: np.ndarray
    n_mem_cols: int
    policy: str


def build_parallel_mask(seq: TrainingSequence, policy: str) -> ParallelMask:
    """The paper's attention mask over the whole sequence (the tests check
    that it equals the group plan of ``training_forward``)."""
    if policy not in MEMORY_POLICIES:
        raise UsageError(f"unknown training policy {policy!r}")
    n, t, s = seq.n_tokens, seq.t, seq.s
    merged = policy not in GROWING_POLICIES
    m = t * s if merged else 0
    allowed = np.zeros((n, m + n), dtype=bool)

    def mem_cols(j: int) -> list[int]:  # the columns of Mem(j), j >= 1
        if merged:
            return list(range((j - 1) * s, j * s))
        return [m + c for lo, hi in seq.comp_ranges[:j] for c in range(lo, hi)]

    # group j reads Mem(j) (compression group j+1 only if the policy reads
    # memory, Mem(0) is empty) and its own tokens causally
    for j, (lo, hi) in enumerate(seq.groups):
        allowed[lo:hi, m + lo:m + hi] = np.tril(np.ones((hi - lo, hi - lo), dtype=bool))
        if j == t or (j and reads_memory(policy)):
            allowed[lo:hi, mem_cols(j)] = True
    return ParallelMask(allowed, m, policy)


# ---------------------------------------------------------------------------
# per-layer memory materialization


def parallel_memory_update(comp_kvs: Sequence[tuple[Tensor, Tensor]],
                           policy: str) -> list[tuple[Tensor, Tensor]]:
    """Memory states Mem(1..t) from the compression blocks of one layer.

    ``comp_kvs[j]`` holds block j+1's (keys, values), each [s, d]. Each
    state folds in its block by ``memory.fold_weights``: an appended state
    is one concatenation of blocks 1..j (block 1 itself for j = 1), a
    weighted one w_old * Mem(j-1) + w_new * h(j).
    """
    out: list[tuple[Tensor, Tensor]] = []
    for j in range(1, len(comp_kvs) + 1):
        w = fold_weights(policy, j)
        if w is None:
            ks, vs = zip(*comp_kvs[:j])
            out.append((T.concat(ks, axis=0), T.concat(vs, axis=0)) if j > 1
                       else comp_kvs[0])
        else:
            (prev_k, prev_v), (k, v) = out[-1], comp_kvs[j - 1]
            out.append((T.add(T.mul(prev_k, w[0]), T.mul(k, w[1])),
                        T.add(T.mul(prev_v, w[0]), T.mul(v, w[1]))))
    return out


# ---------------------------------------------------------------------------
# single-pass forward


def training_forward(model: ToyLM, adapters: AdapterSet, seq: TrainingSequence,
                     policy: str) -> tuple[Tensor, Tensor]:
    """One forward over the interleaved sequence; loss on O(t) positions.

    Gradients reach every token of every time step through the memory
    states each group reads.
    """
    t, s = seq.t, seq.s

    def memory(layer, k, v):
        comp_kvs = [(T.narrow(k, 0, lo, s), T.narrow(v, 0, lo, s))
                    for lo, _ in seq.comp_ranges]
        mems = parallel_memory_update(comp_kvs, policy)
        reads = [None] + mems[:t - 1] if reads_memory(policy) else [None] * t
        return reads + [mems[t - 1]]

    logits, _ = forward_groups(model, seq.tokens, seq.groups, memory, adapters)
    loss = T.cross_entropy_next_token(logits, seq.targets, seq.target_weights)
    return loss, logits


# ---------------------------------------------------------------------------
# recursive reference


@dataclass
class RecursiveResult:
    io_logits: np.ndarray               # [|I| + |O|, vocab]
    memory: ContextMemory               # Mem(t)


def recursive_reference_forward(model: ToyLM, adapters: AdapterSet,
                                sample: tuple[Sequence, Sequence, Sequence],
                                policy: str, t: int) -> RecursiveResult:
    """Literal sequential execution: compress, update, then infer on Mem(t)."""
    if policy not in MEMORY_POLICIES:
        raise UsageError(f"unknown policy {policy!r}")
    segments, inputs, outputs = sample
    mem = ContextMemory(policy)
    for seg in segments[:t]:
        mem = mem.updated(compress_segment(model, adapters, mem, seg))
    tokens = np.concatenate([np.asarray(inputs, dtype=np.intp),
                             np.asarray(outputs, dtype=np.intp)])
    logits, _ = model.forward(tokens, mem.layout(model), adapters=adapters)
    return RecursiveResult(logits.data.copy(), mem)


# ---------------------------------------------------------------------------
# recipes and the two training stages


@dataclass
class Recipe:
    """Training settings (steps, batch, lr, T, s, policy, seed), each checked.

    ``s`` sizes fresh adapters; training reads the slot count from the
    adapters it trains. ``T`` is an ICL dataset's; stream data keeps 8.
    """

    steps: int = 300
    batch: int = 8
    lr: float = 3e-3
    T: int = 8
    s: int = 2
    policy: str = "concat"
    seed: int = 0

    def __post_init__(self):
        for key in ("steps", "batch", "T", "s"):
            if getattr(self, key) < 1:
                raise UsageError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not 0 < self.lr < float("inf"):
            raise UsageError(f"lr must be positive and finite, got {self.lr}")
        fold_weights(self.policy, 1)  # a training policy


MetricsRow = dict  # step, loss, lr, wall_ms


def _train_steps(params, order: str, recipe: Recipe,
                 sample_loss: Callable[[np.random.Generator], Tensor]) -> list[MetricsRow]:
    """Adam over ``params``: per step, the batch-mean loss of ``recipe.batch``
    draws of ``sample_loss`` from the rng seeded by ``order``."""
    opt = Adam(params)
    rng = np.random.default_rng(derive_seed(recipe.seed, order))
    rows: list[MetricsRow] = []
    for step in range(recipe.steps):
        lr = cosine_lr(step, recipe.steps, recipe.lr)
        opt.zero_grad()
        total = 0.0
        for _ in range(recipe.batch):
            loss = sample_loss(rng)
            T.mul(loss, 1.0 / recipe.batch).backward()
            total += loss.item()
        mean_loss = total / recipe.batch
        if not np.isfinite(mean_loss):
            raise ContractViolation(
                f"training diverged at step {step}: loss={mean_loss!r}; "
                "lower the learning rate or check the data")
        opt.step(lr)
        rows.append({"step": step, "loss": mean_loss, "lr": lr, "wall_ms": 0})
    return rows


def pretrain(model: ToyLM, sampler: Callable[[np.random.Generator], tuple],
             recipe: Recipe) -> list[MetricsRow]:
    """Stage 1: full-context language modelling from scratch (no comp tokens).

    ``sampler`` draws one (tokens, weights) pair per call; the loss counts
    the next-token positions whose weight is 1. Trains all model parameters.
    """
    model.thaw()

    def sample_loss(rng):
        tokens, weights = sampler(rng)
        tokens = np.asarray(tokens, dtype=np.intp)
        weights = np.asarray(weights, dtype=np.int8).copy()
        weights[-1] = 0  # final position has no next token
        logits, _ = model.forward(tokens, model.empty_layout())
        targets = np.zeros(tokens.size, dtype=np.intp)
        targets[:-1] = tokens[1:]
        return T.cross_entropy_next_token(logits, targets, weights)

    return _train_steps(model.parameters(), "pretrain-order", recipe, sample_loss)


def train_compression(model: ToyLM, adapters: AdapterSet,
                      sampler: Callable[[np.random.Generator, int],
                                        tuple[list, Sequence, Sequence]],
                      recipe: Recipe) -> list[MetricsRow]:
    """Stage 2: optimize only the adapters and the shared comp embedding.

    ``sampler(rng, t)`` returns one (segments, inputs, outputs) triple with
    at least t segments; t is drawn uniformly from 1..T per sample.
    """
    def sample_loss(rng):
        t = int(rng.integers(1, recipe.T + 1))
        seq = build_training_sequence(sampler(rng, t), adapters.comp_len, t,
                                      model.config.comp_token_id)
        loss, _ = training_forward(model, adapters, seq, recipe.policy)
        return loss

    return _train_steps(trainable_parameters(model, adapters), "compress-order",
                        recipe, sample_loss)
