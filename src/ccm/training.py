"""Parallelized compression training and its recursive reference oracle.

The online compress-update-infer loop is unrolled into one forward pass
over the interleaved sequence [c(1), comps, ..., c(t), comps, I(t), O(t)]
(paper section 3.3), a ``TrainingSequence``: its tokens and the t+2 bounds
of its steps. It runs as one ``model.Frame``: n tokens after t*s memory
columns, under the paper's mask (``build_parallel_mask``), built from the
bounds alone, in which each step reads the memory it would read in the
recursive execution:

* step j = [c(j) | compression block j] reads Mem(j-1) (none for j = 1);
* the last step [I(t) | O(t)] reads Mem(t).

Within every layer ``parallel_memory_update`` turns the compression rows
h(1..t) into the memory columns by the fold rule the online update applies
(``memory.fold_weights``), and a compression step reads its memory only
where ``memory.reads_memory`` says the policy does (not for
``independent``, whose inference step alone reads the results). Each step
sees its memory in full and its own tokens causally, at the positions of
its own frame [Mem | own tokens] numbered from zero, which is what makes
the single-pass logits match the step-by-step oracle to float precision.

A training step packs its batch (``pack_sequences``), at most twice the
rows of its longest sequence per pack to bound peak memory. A ``Pack`` runs
as one forward of its sequences' frames with one ``parallel_memory_update``
per layer, and one backward at its share of the batch-mean loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractViolation, DataError, UsageError
from .lora import AdapterSet, trainable_parameters
from .memory import ContextMemory, fold_weights, reads_memory
from .model import Frame, ToyLM, check_token_ids, forward_groups
from .optim import Adam, cosine_lr
from .seeding import derive_seed
from .tensor import Tensor


@dataclass
class TrainingSequence:
    """[c(1), s comps, ..., c(t), s comps, I(t), O(t)] and its step bounds.

    ``bounds`` holds the start of each of the t+1 steps, then N: step j is
    tokens[bounds[j-1]:bounds[j]], a compression step ends in its s comp
    tokens, and the last step is I(t) followed by the ``n_out`` tokens of
    O(t), the only ones the loss scores.
    """

    tokens: np.ndarray          # [N] token ids
    s: int
    bounds: tuple[int, ...]     # t + 2 entries
    n_out: int
    t = property(lambda self: len(self.bounds) - 2)
    n_tokens = property(lambda self: self.bounds[-1])
    io_range = property(lambda self: self.bounds[-2:])


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
    check_token_ids(np.concatenate(segments + [inputs, outputs]), comp_token_id)
    comps = np.full(s, comp_token_id, dtype=np.intp)
    tokens = np.concatenate([x for seg in segments for x in (seg, comps)]
                            + [inputs, outputs])
    steps = [seg.size + s for seg in segments] + [inputs.size + outputs.size]
    return TrainingSequence(tokens, s, tuple(accumulate(steps, initial=0)), outputs.size)


@dataclass
class Pack:
    """Sequences run as one forward and one backward, rows concatenated in
    order, each attending only within itself; ``t`` is their largest t."""

    seqs: list[TrainingSequence]
    t = property(lambda self: max(q.t for q in self.seqs))
    n_tokens = property(lambda self: sum(q.n_tokens for q in self.seqs))


def pack_sequences(seqs: Sequence[TrainingSequence]) -> list[Pack]:
    """Longest first, each into the first pack with room: a pack holds at
    most twice the rows of the longest sequence."""
    cap, packs = 2 * max(q.n_tokens for q in seqs), []
    for seq in sorted(seqs, key=lambda q: -q.n_tokens):
        room = next((p for p in packs if p.n_tokens + seq.n_tokens <= cap), None)
        if room is None:
            packs.append(room := Pack([]))
        room.seqs.append(seq)
    return packs


# ---------------------------------------------------------------------------
# the parallel mask and memory columns


def build_parallel_mask(seq: TrainingSequence,
                        policy: str) -> tuple[np.ndarray, np.ndarray]:
    """The paper's attention mask: ``allowed`` [n, t*s + n] over [t*s memory
    columns | n tokens], and the rope position of each of those keys.

    Growing policies (concat / independent) hold h(1..t) in the memory
    columns, column e at position e, so Mem(j) is the first j*s. Under
    merge / ema column block j is Mem(j), at positions 0..s-1. A step's own
    tokens sit after the memory it reads, at |Mem| + offset.
    """
    n, t, s = seq.n_tokens, seq.t, seq.s
    m = t * s
    grows = fold_weights(policy, 2) is None  # an unknown policy raises
    allowed = np.zeros((n, m + n), dtype=bool)
    positions = np.empty(m + n, dtype=np.intp)
    positions[:m] = np.arange(m) if grows else np.tile(np.arange(s), t)
    for j, (lo, hi) in enumerate(zip(seq.bounds, seq.bounds[1:])):
        # step j + 1 reads Mem(j), whose columns end at j*s: Mem(0) is empty,
        # and a compression step reads memory only if the policy does
        width = 0
        if j == t or j and reads_memory(policy):
            width = j * s if grows else s
            allowed[lo:hi, j * s - width:j * s] = True
        allowed[lo:hi, m + lo:m + hi] = T.causal_mask(hi - lo, hi - lo)
        positions[m + lo:m + hi] = np.arange(width, width + hi - lo)
    return allowed, positions


def parallel_memory_update(comp_k: Tensor, comp_v: Tensor, s: int, policy: str,
                           ts: Sequence[int]) -> tuple[Tensor, Tensor]:
    """The [M, d] memory keys and values of one layer from the [M, d]
    compression rows h(1..t) of each packed sequence, t in ``ts``.

    Appended states are the rows themselves: Mem(j) is a sequence's first
    j*s. A weighted state w_old * Mem(j-1) + w_new * h(j)
    (``memory.fold_weights``) is a fixed mix of h(1..j), so each Mem(j)
    comes from one matmul of all rows by a block-diagonal mix.
    """
    steps = np.concatenate([np.arange(t) for t in ts])
    if not steps.any() or fold_weights(policy, 2) is None:
        return comp_k, comp_v
    fold = np.eye(steps.size)
    for r in np.flatnonzero(steps):  # step j > 1 of a sequence folds into Mem(j-1)
        w_old, w_new = fold_weights(policy, steps[r] + 1)
        fold[r] = w_old * fold[r - 1] + w_new * fold[r]
    mix = Tensor(np.kron(fold, np.eye(s)).astype(comp_k.dtype))
    return T.matmul(mix, comp_k), T.matmul(mix, comp_v)


# ---------------------------------------------------------------------------
# single-pass forward


def training_forward(model: ToyLM, adapters: AdapterSet, seq: TrainingSequence | Pack,
                     policy: str) -> tuple[Tensor, Tensor]:
    """One forward over a pack (a lone sequence is a pack of one); the loss is
    the mean over its sequences of their mean loss on O(t) positions.

    Gradients reach every token of every step through the memory columns
    the later steps read.
    """
    seqs = seq.seqs if isinstance(seq, Pack) else [seq]
    frames = [Frame(q.n_tokens, q.t * q.s, *build_parallel_mask(q, policy)) for q in seqs]
    tokens = np.concatenate([q.tokens for q in seqs])
    comp = np.flatnonzero(tokens == model.config.comp_token_id)  # as the adapters gate
    weights, lo = np.zeros(tokens.size), 0
    for q in seqs:  # the rows predicting O(t)
        lo += q.n_tokens
        weights[lo - q.n_out - 1:lo - 1] = 1 / q.n_out

    def memory(layer, k, v):
        return parallel_memory_update(T.take_rows(k, comp), T.take_rows(v, comp),
                                      seqs[0].s, policy, [q.t for q in seqs])

    logits, _ = forward_groups(model, tokens, frames, memory, adapters)
    # a sequence's last row has weight 0, so its target may be the next one's
    loss = T.cross_entropy_next_token(logits, np.append(tokens[1:], 0), weights)
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
    segments, inputs, outputs = sample
    mem = ContextMemory(policy)  # an unknown policy raises
    for seg in segments[:t]:  # a forward over [c(j) | s comps] on what the policy reads
        tokens = np.append(seg, np.full(adapters.comp_len, model.config.comp_token_id))
        layout = mem.layout(model) if reads_memory(policy) else model.empty_layout()
        mem = mem.updated(model.forward(tokens, layout, adapters=adapters)[1].entries(len(seg)))
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
                 step_losses: Callable[[np.random.Generator], Iterator]) -> list[MetricsRow]:
    """Adam over ``params`` on the batch mean: ``step_losses(rng)``, rng seeded
    by ``order``, yields (loss, count), the mean loss of ``count`` of a step's
    draws, each backpropagated at its share of the batch before the next."""
    opt = Adam(params)
    rng = np.random.default_rng(derive_seed(recipe.seed, order))
    rows: list[MetricsRow] = []
    for step in range(recipe.steps):
        lr = cosine_lr(step, recipe.steps, recipe.lr)
        opt.zero_grad()
        mean_loss = 0.0
        for loss, count in step_losses(rng):
            share = count / recipe.batch
            T.mul(loss, share).backward()
            mean_loss += share * loss.item()
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

    def step_losses(rng):
        for _ in range(recipe.batch):
            tokens, weights = sampler(rng)
            tokens = np.asarray(tokens, dtype=np.intp)
            check_token_ids(tokens, model.config.comp_token_id)  # data holds no comp id
            weights = np.asarray(weights, dtype=np.int8).copy()
            weights[-1] = 0  # final position has no next token
            logits, _ = model.forward(tokens, model.empty_layout())
            targets = np.zeros(tokens.size, dtype=np.intp)
            targets[:-1] = tokens[1:]
            yield T.cross_entropy_next_token(logits, targets, weights), 1

    return _train_steps(model.parameters(), "pretrain-order", recipe, step_losses)


def train_compression(model: ToyLM, adapters: AdapterSet,
                      sampler: Callable[[np.random.Generator, int],
                                        tuple[list, Sequence, Sequence]],
                      recipe: Recipe) -> list[MetricsRow]:
    """Stage 2: optimize only the adapters and the shared comp embedding.

    ``sampler(rng, t)`` returns one (segments, inputs, outputs) triple with
    at least t segments; t is drawn uniformly from 1..T per sample. A step
    draws its batch, then runs it as packs.
    """
    def step_losses(rng):
        seqs = []
        for _ in range(recipe.batch):
            t = int(rng.integers(1, recipe.T + 1))
            seqs.append(build_training_sequence(sampler(rng, t), adapters.comp_len, t,
                                                model.config.comp_token_id))
        for pack in pack_sequences(seqs):
            yield training_forward(model, adapters, pack, recipe.policy)[0], len(pack.seqs)

    return _train_steps(trainable_parameters(model, adapters), "compress-order",
                        recipe, step_losses)
