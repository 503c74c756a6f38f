"""Parallelized compression training and its recursive reference oracle.

The online compress-update-infer loop is unrolled into one forward pass
over the interleaved sequence [c(1), comps, ..., c(t), comps, I(t), O(t)],
run as t+1 query groups of the model's layer loop. Each group reads the
memory it would read in the recursive execution:

* group j = [c(j) | compression block j] reads Mem(j-1) (none for j = 1);
* the last group [I(t) | O(t)] reads Mem(t).

Within every layer ``parallel_memory_update`` builds Mem(1..t) from the
compression blocks' keys/values. Each group sees its memory in full and
its own tokens causally, in its own position frame [Mem | own tokens]
numbered from zero, which is what makes the single-pass logits match the
step-by-step oracle to float precision.

With the ``independent`` policy each segment is compressed without seeing
the memory (the online variant of fixed-context compression); only the
final inference group reads the concatenated results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractViolation, DataError, UsageError
from .lora import AdapterSet, trainable_parameters
from .memory import MEMORY_POLICIES, ContextMemory, compress_segment
from .model import KVLayout, ToyLM, forward_groups
from .optim import Adam, cosine_lr
from .seeding import derive_seed
from .tensor import Tensor

ROLE_CONTEXT, ROLE_COMP, ROLE_INPUT, ROLE_OUTPUT = 0, 1, 2, 3


@dataclass
class TrainingSequence:
    """Interleaved tokens with per-token roles and loss positions."""

    tokens: np.ndarray          # [N] token ids
    kind: np.ndarray            # [N] role codes (ROLE_*)
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

    parts, kinds = [], []
    ctx_ranges, comp_ranges = [], []
    pos = 0
    for seg in segments:
        ctx_ranges.append((pos, pos + seg.size))
        parts.append(seg)
        kinds.append(np.full(seg.size, ROLE_CONTEXT, dtype=np.int8))
        pos += seg.size
        comp_ranges.append((pos, pos + s))
        parts.append(np.full(s, comp_token_id, dtype=np.intp))
        kinds.append(np.full(s, ROLE_COMP, dtype=np.int8))
        pos += s
    io_range = (pos, pos + inputs.size + outputs.size)
    parts.extend([inputs, outputs])
    kinds.append(np.full(inputs.size, ROLE_INPUT, dtype=np.int8))
    kinds.append(np.full(outputs.size, ROLE_OUTPUT, dtype=np.int8))

    tokens = np.concatenate(parts)
    kind = np.concatenate(kinds)
    n = tokens.shape[0]
    weights = np.zeros(n, dtype=np.int8)
    weights[:-1] = kind[1:] == ROLE_OUTPUT
    targets = np.zeros(n, dtype=np.intp)
    targets[:-1] = tokens[1:]
    return TrainingSequence(tokens, kind, t, s, ctx_ranges, comp_ranges,
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
    merged = policy in ("merge", "ema")
    m = t * s if merged else 0
    allowed = np.zeros((n, m + n), dtype=bool)

    def causal_block(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            allowed[r, m + lo:m + r + 1] = True

    # within-step attention: [c(j) | comp block j] is causal, [I | O] is causal
    for (clo, _), (_, phi) in zip(seq.ctx_ranges, seq.comp_ranges):
        causal_block(clo, phi)
    causal_block(*seq.io_range)

    # cross-step attention through the memory
    io_lo, io_hi = seq.io_range
    if merged:
        for j in range(2, t + 1):
            glo = seq.ctx_ranges[j - 1][0]
            ghi = seq.comp_ranges[j - 1][1]
            allowed[glo:ghi, (j - 2) * s:(j - 1) * s] = True
        allowed[io_lo:io_hi, (t - 1) * s:t * s] = True
    else:
        for j in range(2, t + 1):
            glo = seq.ctx_ranges[j - 1][0]
            ghi = seq.comp_ranges[j - 1][1]
            if policy == "concat":
                for b in range(j - 1):
                    blo, bhi = seq.comp_ranges[b]
                    allowed[glo:ghi, m + blo:m + bhi] = True
        for b in range(t):
            blo, bhi = seq.comp_ranges[b]
            allowed[io_lo:io_hi, m + blo:m + bhi] = True
    return ParallelMask(allowed, m, policy)


# ---------------------------------------------------------------------------
# per-layer memory materialization


def parallel_memory_update(comp_kvs: Sequence[tuple[Tensor, Tensor]], policy: str,
                           ema_a: float = 0.5) -> list[tuple[Tensor, Tensor]]:
    """Memory states Mem(1..t) from the compression blocks of one layer.

    ``comp_kvs[j]`` holds block j+1's (keys, values), each [s, d]. For
    ``concat`` the states alias the inputs (Mem(j) = blocks 1..j
    concatenated); for ``merge`` they are cumulative means; for ``ema`` the
    recurrence (1-a) * prev + a * h with a_1 = 1.
    """
    if policy in ("concat", "independent"):
        out: list[tuple[Tensor, Tensor]] = []
        for j in range(1, len(comp_kvs) + 1):
            ks = [kv[0] for kv in comp_kvs[:j]]
            vs = [kv[1] for kv in comp_kvs[:j]]
            out.append((T.concat(ks, axis=0) if j > 1 else ks[0],
                        T.concat(vs, axis=0) if j > 1 else vs[0]))
        return out
    if policy == "merge":
        out = []
        run_k, run_v = None, None
        for j, (k, v) in enumerate(comp_kvs, start=1):
            run_k = k if run_k is None else T.add(run_k, k)
            run_v = v if run_v is None else T.add(run_v, v)
            out.append((T.mul(run_k, 1.0 / j), T.mul(run_v, 1.0 / j)))
        return out
    if policy == "ema":
        if not 0.0 < ema_a <= 1.0:
            raise ContractViolation(f"ema coefficient {ema_a} outside (0, 1]")
        out = []
        prev_k, prev_v = None, None
        for k, v in comp_kvs:
            if prev_k is None:
                prev_k, prev_v = k, v
            else:
                prev_k = T.add(T.mul(prev_k, 1.0 - ema_a), T.mul(k, ema_a))
                prev_v = T.add(T.mul(prev_v, 1.0 - ema_a), T.mul(v, ema_a))
            out.append((prev_k, prev_v))
        return out
    raise UsageError(f"unknown policy {policy!r}")


# ---------------------------------------------------------------------------
# single-pass forward


def training_forward(model: ToyLM, adapters: AdapterSet, seq: TrainingSequence,
                     policy: str, ema_a: float = 0.5,
                     ) -> tuple[Tensor, Tensor]:
    """One forward over the interleaved sequence; loss on O(t) positions.

    Gradients reach every token of every time step through the memory
    states each group reads.
    """
    t, s = seq.t, seq.s
    ranges = [(c[0], comp[1]) for c, comp in zip(seq.ctx_ranges, seq.comp_ranges)]
    ranges.append(seq.io_range)

    def memory(layer, k, v):
        comp_kvs = [(T.narrow(k, 0, lo, s), T.narrow(v, 0, lo, s))
                    for lo, _ in seq.comp_ranges]
        mems = parallel_memory_update(comp_kvs, policy, ema_a)
        if policy == "independent":
            return [None] * t + [mems[t - 1]]
        return [None] + mems[:t - 1] + [mems[t - 1]]

    logits, _ = forward_groups(model, seq.tokens, ranges, memory, adapters)
    loss = T.cross_entropy_next_token(logits, seq.targets, seq.target_weights)
    return loss, logits


# ---------------------------------------------------------------------------
# recursive reference


@dataclass
class RecursiveResult:
    io_logits: np.ndarray               # [|I| + |O|, vocab]
    slots: list[KVLayout]               # h(1..t)
    memory: ContextMemory               # Mem(t)


def recursive_reference_forward(model: ToyLM, adapters: AdapterSet,
                                sample: tuple[Sequence, Sequence, Sequence],
                                policy: str, t: int,
                                ema_a: float = 0.5) -> RecursiveResult:
    """Literal sequential execution: compress, update, then infer on Mem(t)."""
    if policy not in MEMORY_POLICIES:
        raise UsageError(f"unknown policy {policy!r}")
    segments, inputs, outputs = sample
    mem = ContextMemory(policy, ema_a=ema_a)
    slots = []
    for seg in segments[:t]:
        h = compress_segment(model, adapters, mem, seg)
        slots.append(h)
        mem = mem.updated(h)
    tokens = np.concatenate([np.asarray(inputs, dtype=np.intp),
                             np.asarray(outputs, dtype=np.intp)])
    logits, _ = model.forward(tokens, mem.layout(model), adapters=adapters)
    return RecursiveResult(logits.data.copy(), slots, mem)


# ---------------------------------------------------------------------------
# recipes and the two training stages


@dataclass
class Recipe:
    """Key-value training recipe (steps, batch, lr, T, s, policy, seed)."""

    steps: int = 300
    batch: int = 8
    lr: float = 3e-3
    T: int = 8
    s: int = 2
    policy: str = "concat"
    seed: int = 0
    min_lr: float = 0.0
    ema_a: float = 0.5

    def save(self, path) -> None:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Recipe":
        known = {f.name: f.type for f in fields(cls)}
        kwargs: dict = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise DataError(f"{path}:{lineno}: unknown recipe key {key!r}")
            try:
                if key in ("steps", "batch", "T", "s", "seed"):
                    kwargs[key] = int(value)
                elif key in ("lr", "min_lr", "ema_a"):
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = value
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: bad value for {key}: {value!r}") from None
        return cls(**kwargs)


MetricsRow = dict  # step, loss, lr, wall_ms


def _finite_or_raise(loss: float, step: int) -> None:
    if not np.isfinite(loss):
        raise ContractViolation(
            f"training diverged at step {step}: loss={loss!r}; "
            "lower the learning rate or check the data")


def pretrain(model: ToyLM, sampler: Callable[[np.random.Generator], np.ndarray],
             recipe: Recipe) -> list[MetricsRow]:
    """Stage 1: full-context language modelling from scratch (no comp tokens).

    ``sampler`` draws one token sequence per call, either a plain id array
    (loss on every next-token position) or a (tokens, weights) pair to
    focus the loss. Trains all model parameters.
    """
    model.thaw()
    opt = Adam(model.parameters())
    rng = np.random.default_rng(derive_seed(recipe.seed, "pretrain-order"))
    rows: list[MetricsRow] = []
    for step in range(recipe.steps):
        lr = cosine_lr(step, recipe.steps, recipe.lr, recipe.min_lr)
        opt.zero_grad()
        total = 0.0
        for _ in range(recipe.batch):
            drawn = sampler(rng)
            if isinstance(drawn, tuple):
                tokens, weights = drawn
                tokens = np.asarray(tokens, dtype=np.intp)
                weights = np.asarray(weights, dtype=np.int8).copy()
            else:
                tokens = np.asarray(drawn, dtype=np.intp)
                weights = np.ones(tokens.size, dtype=np.int8)
            weights[-1] = 0  # final position has no next token
            logits, _ = model.forward(tokens, model.empty_layout())
            targets = np.zeros(tokens.size, dtype=np.intp)
            targets[:-1] = tokens[1:]
            loss = T.cross_entropy_next_token(logits, targets, weights)
            T.mul(loss, 1.0 / recipe.batch).backward()
            total += loss.item()
        mean_loss = total / recipe.batch
        _finite_or_raise(mean_loss, step)
        opt.step(lr)
        rows.append({"step": step, "loss": mean_loss, "lr": lr, "wall_ms": 0})
    return rows


def train_compression(model: ToyLM, adapters: AdapterSet,
                      sampler: Callable[[np.random.Generator, int],
                                        tuple[list, Sequence, Sequence]],
                      recipe: Recipe) -> list[MetricsRow]:
    """Stage 2: optimize only the adapters and the shared comp embedding.

    ``sampler(rng, t)`` returns one (segments, inputs, outputs) triple with
    at least t segments; t is drawn uniformly from 1..T per sample.
    """
    params = trainable_parameters(model, adapters)
    opt = Adam(params)
    rng = np.random.default_rng(derive_seed(recipe.seed, "compress-order"))
    rows: list[MetricsRow] = []
    for step in range(recipe.steps):
        lr = cosine_lr(step, recipe.steps, recipe.lr, recipe.min_lr)
        opt.zero_grad()
        total = 0.0
        for _ in range(recipe.batch):
            t = int(rng.integers(1, recipe.T + 1))
            sample = sampler(rng, t)
            seq = build_training_sequence(sample, recipe.s, t,
                                          model.config.comp_token_id)
            loss, _ = training_forward(model, adapters, seq, recipe.policy,
                                       recipe.ema_a)
            T.mul(loss, 1.0 / recipe.batch).backward()
            total += loss.item()
        mean_loss = total / recipe.batch
        _finite_or_raise(mean_loss, step)
        opt.step(lr)
        rows.append({"step": step, "loss": mean_loss, "lr": lr, "wall_ms": 0})
    return rows


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    """Loss log; wall_ms is pinned to 0 so reruns are byte-identical."""
    lines = ["step,loss,lr,wall_ms"]
    for r in rows:
        lines.append(f"{r['step']},{r['loss']:.8f},{r['lr']:.8g},{r['wall_ms']}")
    Path(path).write_text("\n".join(lines) + "\n")
