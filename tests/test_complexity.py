"""Analytic accounting: exact counts, and the paper's compression factors
and break-even thresholds."""

import math
from dataclasses import replace

import pytest

from ccm.complexity import (ComplexityParams, kv_bytes, kv_entries,
                            llama_7b_params, report_rows, sweep_rows)
from ccm.errors import UsageError


def params(t=16, l_c=50, l_i=10, s=1):
    return ComplexityParams(t=t, l_c=l_c, l_i=l_i, s=s, n_layers=4, d_model=128)


def test_full_inference_instantiation():
    assert kv_entries(params(), "full", "inference") == 16 * 50 + 10 == 810


def test_merge_inference_independent_of_t():
    a = kv_entries(params(t=1), "ccm_merge", "inference")
    b = kv_entries(params(t=100), "ccm_merge", "inference")
    assert a == b == 1 + 10


def test_concat_context_growth_rows():
    # the 128-entry concat context and 8-entry merge context at t=16, s=8
    p = params(s=8)
    assert kv_entries(p, "ccm_concat", "inference") - p.l_i == 128
    assert kv_entries(p, "ccm_merge", "inference") - p.l_i == 8


def test_monotonicity_in_t():
    for method in ("full", "ccm_concat"):
        previous = -1
        for t in range(1, 20):
            e = kv_entries(params(t=t), method, "inference")
            assert e > previous
            previous = e
    merge = {kv_entries(params(t=t), "ccm_merge", "inference") for t in range(1, 20)}
    assert len(merge) == 1


def break_even_tokens(p: ComplexityParams, n_params: float = 6.7e9) -> int:
    """Smallest inference length at which attention savings beat the overhead:
    s compression tokens cost 2 * n_params * s FLOPS in the forward pass, and
    each inference token then reads l_c - s fewer entries, 4 * d * L each."""
    overhead = 2.0 * n_params * p.s
    savings = 4.0 * p.d_model * p.n_layers * (p.l_c - p.s)
    return math.floor(overhead / savings) + 1


def test_compression_factors_match_reported_values():
    # context length over slot length, rounded half up
    factors = [math.floor(50 / s + 0.5) for s in (1, 2, 4, 8, 50)]
    assert factors == [50, 25, 13, 6, 1]


def test_break_even_thresholds_within_band():
    # 7B-scale dims must land within +-15% of the reported 504 / 4706
    assert abs(break_even_tokens(replace(llama_7b_params(), s=1)) - 504) <= 0.15 * 504
    assert abs(break_even_tokens(replace(llama_7b_params(), s=8)) - 4706) <= 0.15 * 4706


def test_flops_self_consistency():
    # doubling s doubles overhead and strictly raises the threshold
    t1, t2, t4 = (break_even_tokens(replace(llama_7b_params(), s=s)) for s in (1, 2, 4))
    assert t1 < t2 < t4
    overhead = lambda s: 2.0 * 6.7e9 * s
    assert overhead(2) == 2 * overhead(1)


def test_bytes_model():
    # entries x 2 (K and V) x L x d x width
    assert kv_bytes(8, 32, 4096) == 8 * 2 * 32 * 4096 * 2


def test_report_and_sweep_shape():
    assert len(report_rows(params())) == 8  # 4 methods x 2 phases
    rows = sweep_rows(params(), t_values=[1, 2], s_values=[1, 2])
    assert len(rows) == 32
    cols = {"method", "phase", "t", "s", "kv_entries", "kv_bytes_fp16", "attn_flops"}
    assert cols == rows[0].keys()


def test_rejects_bad_params():
    with pytest.raises(UsageError):
        ComplexityParams(t=0, l_c=50, l_i=10, s=1, n_layers=4, d_model=128)
    with pytest.raises(UsageError):
        ComplexityParams(t=1, l_c=2, l_i=10, s=4, n_layers=4, d_model=128)
