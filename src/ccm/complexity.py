"""Analytic KV-memory and attention-FLOPS accounting for online inference.

Entry counts are exact (they must equal what a live session measures);
attention FLOPS use the standard dense estimate of 4 * d_model * n_layers
reads per (query, KV entry) pair (QK plus AV).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import UsageError

METHODS = ("full", "fixed_comp", "ccm_concat", "ccm_merge")
PHASES = ("compression", "inference")


@dataclass(frozen=True)
class ComplexityParams:
    t: int            # time step
    l_c: int          # expected context segment KV length
    l_i: int          # input + output length
    s: int            # compression token (slot) length
    n_layers: int
    d_model: int

    def __post_init__(self):
        if min(self.t, self.l_c, self.l_i, self.s, self.n_layers, self.d_model) <= 0:
            raise UsageError("complexity parameters must be positive")
        if self.l_c < self.s:
            raise UsageError("segment length l_c must be >= slot length s")


def llama_7b_params(l_c: int = 50, l_i: int = 10) -> ComplexityParams:
    """Dimensions of a 7B-parameter decoder (32 layers, width 4096) at t = 16, s = 1."""
    return ComplexityParams(t=16, l_c=l_c, l_i=l_i, s=1, n_layers=32, d_model=4096)


def kv_entries(params: ComplexityParams, method: str, phase: str) -> int:
    """Exact KV entry count for one method/phase at time step t.

    The counts instantiate the complexity table rows: full inference holds
    t*l_c + l_i entries, fixed-context compression reprocesses t*l_c + s,
    concat compression holds (t-1)*s + l_c + s and serves t*s + l_i at
    inference, merge stays at s + l_c + s / s + l_i. At t = 1 the memory
    term of a merge compression is zero (the memory starts empty).
    """
    t, l_c, l_i, s = params.t, params.l_c, params.l_i, params.s
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}")
    if phase not in PHASES:
        raise UsageError(f"unknown phase {phase!r}")
    if method == "full":
        return 0 if phase == "compression" else t * l_c + l_i
    if method == "fixed_comp":
        return t * l_c + s if phase == "compression" else s + l_i
    if method == "ccm_concat":
        return (t - 1) * s + l_c + s if phase == "compression" else t * s + l_i
    # ccm_merge: running state is s entries once it exists
    mem_before = s if t >= 2 else 0
    return mem_before + l_c + s if phase == "compression" else s + l_i


def _phase_queries(params: ComplexityParams, method: str, phase: str) -> int:
    t, l_c, l_i, s = params.t, params.l_c, params.l_i, params.s
    if phase == "inference":
        return l_i
    if method == "full":
        return 0
    if method == "fixed_comp":
        return t * l_c + s
    return l_c + s


def attn_flops(params: ComplexityParams, method: str, phase: str) -> float:
    """Attention read cost: 4 * d * L per (query token, visible KV entry)."""
    unit = 4.0 * params.d_model * params.n_layers
    return unit * _phase_queries(params, method, phase) * kv_entries(params, method, phase)


def kv_bytes(entries: int, n_layers: int, d_model: int) -> int:
    """fp16 bytes of per-layer sequence positions: each holds 2*L*d numbers."""
    return entries * 2 * n_layers * d_model * 2


def report_rows(params: ComplexityParams) -> list[dict]:
    """Per-method entry counts, byte sizes and FLOPS at one (t, s)."""
    rows = []
    for method in METHODS:
        for phase in PHASES:
            entries = kv_entries(params, method, phase)
            rows.append({
                "method": method,
                "phase": phase,
                "t": params.t,
                "s": params.s,
                "kv_entries": entries,
                "kv_bytes_fp16": kv_bytes(entries, params.n_layers, params.d_model),
                "attn_flops": attn_flops(params, method, phase),
            })
    return rows


def sweep_rows(base: ComplexityParams, t_values, s_values) -> list[dict]:
    """One CSV row per (method, phase, t, s)."""
    return [row for t in t_values for s in s_values
            for row in report_rows(replace(base, t=t, s=s))]
