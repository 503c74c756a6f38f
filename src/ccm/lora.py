"""Conditional low-rank adapters gated on compression tokens.

A LoRA pair of [r, d] parameters (A, B) adds a rank-r update
(alpha/r) * A^T B to one of the attention projections, but only for
tokens whose id equals the reserved compression token. Ordinary tokens
pass through the frozen base weights bit-exactly, so attaching fresh
adapters never changes model behaviour on compression-free input. The
compression-token embedding row is trained jointly with the adapters and
shared across all time steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import tensor as T
from .checkpoint import check_records, read_checkpoint, save_arrays
from .errors import ContractViolation, UsageError
from .tensor import Parameter, Tensor

TARGETS = ("q", "k", "v", "o")


@dataclass
class LoRAPair:
    """One low-rank update: effective delta-W = (alpha/r) * A^T B."""

    a: Parameter  # [r, d]
    b: Parameter  # [r, d]
    alpha: float

    def delta(self, x: Tensor) -> Tensor:
        """Apply the low-rank update to row vectors: (x B^T) A * alpha/r."""
        down = T.matmul(x, T.transpose(self.b, (1, 0)))
        return T.mul(T.matmul(down, self.a), self.alpha / self.a.shape[0])


def adapter_shapes(config, rank: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every adapter tensor, in ``AdapterSet.parameters`` order."""
    pairs = [f"adapter/layers.{layer}.{tgt}.{ab}" for layer in range(config.n_layers)
             for tgt in TARGETS for ab in "ab"]
    return {**dict.fromkeys(pairs, (rank, config.d_model)),
            "adapter/comp_embedding": (1, config.d_model)}


class AdapterSet:
    """All LoRA pairs for a model plus the trainable compression embedding.

    Every pair holds the set's alpha, and its rank as A's row count; the
    layer loop reads ``pairs`` itself. ``comp_len`` records how many
    compression tokens one segment is condensed into (the slot count s of
    every compressed memory entry).
    """

    def __init__(self, pairs: dict[tuple[int, str], LoRAPair],
                 comp_embedding: Parameter, comp_len: int):
        self.pairs = pairs
        self.comp_embedding = comp_embedding  # [1, d]
        self.comp_len = comp_len

    @classmethod
    def init(cls, model, rank: int = 8, alpha: float = 16.0, comp_len: int = 1,
             seed: int = 0) -> "AdapterSet":
        """Fresh adapters: A random normal, B zero (so the initial delta is zero)."""
        if min(rank, comp_len) < 1:
            raise UsageError(f"adapter rank {rank} and comp_len {comp_len} "
                             "must be at least 1")
        if not np.isfinite(alpha):
            raise UsageError(f"adapter alpha {alpha} must be finite")
        cfg = model.config
        rng = np.random.default_rng(seed)
        params = []
        for name, shape in adapter_shapes(cfg, rank).items():
            if name.endswith(".a"):
                data = rng.standard_normal(shape) / np.sqrt(cfg.d_model)
            elif name.endswith(".b"):
                data = np.zeros(shape)
            else:  # the compression row starts as the model's
                data = model.params["embed"].data[cfg.comp_token_id].reshape(shape)
            params.append(Parameter(name, data.astype(model.dtype)))
        *ab, comp_embedding = params
        pairs = {key: LoRAPair(a, b, alpha) for key, a, b in zip(
            product(range(cfg.n_layers), TARGETS), ab[::2], ab[1::2])}
        return cls(pairs, comp_embedding, comp_len)

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for pair in self.pairs.values():
            out.append(pair.a)
            out.append(pair.b)
        out.append(self.comp_embedding)
        return out

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        arrays = {p.name: p.data for p in self.parameters()}
        pair = next(iter(self.pairs.values()))
        save_arrays(path, arrays, meta={
            "kind": "adapters", "rank": pair.a.shape[0], "alpha": pair.alpha,
            "comp_len": self.comp_len,
        })

    @classmethod
    def load(cls, path, model) -> "AdapterSet":
        """Adapters from a checkpoint, frozen: inference records no tape."""
        with read_checkpoint(path, "adapters") as (arrays, meta):
            check_records(path, arrays, adapter_shapes(model.config, int(meta["rank"])))
            adapters = cls.init(model, rank=int(meta["rank"]), alpha=float(meta["alpha"]),
                                comp_len=int(meta["comp_len"]))
        for p in adapters.parameters():
            p.data[...] = arrays[p.name].astype(p.data.dtype)
            p.requires_grad = False
        return adapters


def trainable_parameters(model, adapters: AdapterSet) -> list[Parameter]:
    """Exactly the compression-stage trainables: LoRA tensors + shared embedding row.

    The base model must already be frozen; the adapter parameters are thawed.
    """
    thawed = [p.name for p in model.parameters() if p.requires_grad]
    if thawed:
        raise ContractViolation(f"base model not frozen: {thawed[:3]}...")
    params = adapters.parameters()
    for p in params:
        p.requires_grad = True
    return params
