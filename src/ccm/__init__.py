"""Compressed context memory for a desk-scale transformer.

A numpy-backed library implementing recursive key/value compression for
online language-model inference: segments of an accumulating context are
condensed into the attention keys/values of reserved compression tokens
(shaped by conditional low-rank adapters), stored under concat / merge /
EMA policies, and consumed by later inference with a fraction of the full
context's KV entries. The model has one layer loop, one masked attention
per layer over [memory columns | tokens]. Inference reads a fixed layout
causally; training unrolls the recursive procedure into a single forward
pass under the paper's mask, verified against a step-by-step oracle.
"""

from .errors import (CapacityError, CcmError, ContractViolation, DataError,
                     DimensionError, UsageError)
from .lora import AdapterSet, LoRAPair, trainable_parameters
from .memory import ContextMemory, compress_segment
from .model import KVCache, KVLayout, ModelConfig, ToyLM
from .optim import Adam, cosine_lr
from .tensor import Parameter, Tensor, finite_difference_check
from .training import (Recipe, TrainingSequence, build_parallel_mask,
                       build_training_sequence, parallel_memory_update, pretrain,
                       recursive_reference_forward, train_compression,
                       training_forward)

__all__ = [
    "Adam", "AdapterSet", "CapacityError", "CcmError", "ContextMemory",
    "ContractViolation", "DataError", "DimensionError", "KVCache", "KVLayout",
    "LoRAPair", "ModelConfig", "Parameter", "Recipe", "Tensor", "ToyLM",
    "TrainingSequence", "UsageError", "build_parallel_mask",
    "build_training_sequence", "compress_segment", "cosine_lr",
    "finite_difference_check", "parallel_memory_update", "pretrain",
    "recursive_reference_forward", "train_compression", "trainable_parameters",
    "training_forward",
]

__version__ = "0.1.0"
