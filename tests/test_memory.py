"""Memory policy contracts: update algebra, growth laws, layout views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccm.errors import ContractViolation, DimensionError
from ccm.lora import AdapterSet
from ccm.memory import (EMA_A, GROWING_POLICIES, MEMORY_POLICIES, ContextMemory,
                        compress_segment)
from ccm.model import KVLayout, ToyLM
from conftest import TINY


def slots(rng, L=2, s=1, d=4):
    return KVLayout(rng.standard_normal((L, s, d)), rng.standard_normal((L, s, d)))


def scalar_slots(value):
    arr = np.full((1, 1, 1), float(value))
    return KVLayout(arr.copy(), arr.copy())


# ---------------------------------------------------------------------------
# concat


def test_concat_base_case():
    rng = np.random.default_rng(0)
    mem = ContextMemory("concat")
    h = slots(rng)
    mem = mem.updated(h)
    assert mem.entry_count == h.n_entries and mem.count == 1
    np.testing.assert_array_equal(mem.entries.keys, h.keys)


def test_concat_preserves_order_and_counts():
    rng = np.random.default_rng(1)
    mem = ContextMemory("concat")
    h1, h2 = slots(rng, s=2), slots(rng, s=2)
    mem = mem.updated(h1).updated(h2)
    assert mem.entry_count == 4  # 2 slots per update
    np.testing.assert_array_equal(mem.entries.keys[:, 0:2], h1.keys)
    np.testing.assert_array_equal(mem.entries.keys[:, 2:4], h2.keys)


def test_concat_sixteen_updates_with_eight_slots():
    # growth law behind the 128-entry context at t=16, s=8
    rng = np.random.default_rng(2)
    mem = ContextMemory("concat")
    for t in range(16):
        mem = mem.updated(slots(rng, s=8))
    assert mem.entry_count == 128


# ---------------------------------------------------------------------------
# merge


def test_merge_first_update_is_identity():
    rng = np.random.default_rng(3)
    h = slots(rng)
    mem = ContextMemory("merge").updated(h)
    np.testing.assert_array_equal(mem.entries.keys, h.keys)


def test_merge_mean_of_two():
    z = scalar_slots(0.0)
    two = scalar_slots(2.0)
    mem = ContextMemory("merge").updated(z).updated(two)
    assert mem.entries.keys.item() == pytest.approx(1.0)


def test_merge_entry_count_fixed():
    rng = np.random.default_rng(4)
    mem = ContextMemory("merge")
    for t in range(16):
        mem = mem.updated(slots(rng, s=8))
    assert mem.entry_count == 8


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2 ** 31))
def test_merge_equals_elementwise_mean(n, seed):
    rng = np.random.default_rng(seed)
    hs = [slots(rng) for j in range(n)]
    mem = ContextMemory("merge")
    for h in hs:
        mem = mem.updated(h)
    np.testing.assert_allclose(mem.entries.keys,
                               np.mean([h.keys for h in hs], axis=0), atol=1e-6)
    np.testing.assert_allclose(mem.entries.values,
                               np.mean([h.values for h in hs], axis=0), atol=1e-6)


# ---------------------------------------------------------------------------
# ema


def test_ema_first_update_is_identity():
    rng = np.random.default_rng(5)
    h = slots(rng)
    mem = ContextMemory("ema").updated(h)
    np.testing.assert_array_equal(mem.entries.keys, h.keys)


def test_ema_hand_arithmetic():
    mem = ContextMemory("ema")
    mem = mem.updated(scalar_slots(4.0))
    mem = mem.updated(scalar_slots(0.0))
    assert mem.entries.keys.item() == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31))
def test_ema_matches_closed_form(n, seed):
    rng = np.random.default_rng(seed)
    hs = [slots(rng) for j in range(n)]
    mem = ContextMemory("ema")
    for h in hs:
        mem = mem.updated(h)
    a = EMA_A
    # closed form sum_j a_j prod_{k>j} (1 - a_k) h(j) with a_1 = 1
    coeff = [(1.0 if j == 0 else a) * (1.0 - a) ** (n - 1 - j) for j in range(n)]
    expected = sum(c * h.keys for c, h in zip(coeff, hs))
    np.testing.assert_allclose(mem.entries.keys, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# layout views


def test_merge_layout_fixed_size(tiny_model64):
    rng = np.random.default_rng(7)
    mem = ContextMemory("merge")
    for t in range(7):
        mem = mem.updated(slots(rng, L=TINY.n_layers, s=2, d=TINY.d_model))
    layout = mem.layout(tiny_model64)
    assert layout.n_entries == 2


def test_concat_layout_chronological(tiny_model64):
    rng = np.random.default_rng(8)
    mem = ContextMemory("concat")
    hs = [slots(rng, L=TINY.n_layers, s=2, d=TINY.d_model) for j in range(3)]
    for h in hs:
        mem = mem.updated(h)
    layout = mem.layout(tiny_model64)
    assert layout.n_entries == 6
    np.testing.assert_allclose(layout.keys[:, 0:2], hs[0].keys)
    np.testing.assert_allclose(layout.keys[:, 4:6], hs[2].keys)


_PROPERTY_MODEL = ToyLM.init(TINY, seed=7, dtype=np.float64)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MEMORY_POLICIES), st.integers(1, 8),
       st.integers(min_value=0, max_value=2 ** 31))
def test_memory_is_a_value(policy, n, seed):
    rng = np.random.default_rng(seed)
    hs = [slots(rng, L=TINY.n_layers, s=2, d=TINY.d_model) for _ in range(n)]
    mems, seen = [ContextMemory(policy)], []
    for h in hs:
        mems.append(mems[-1].updated(h))
        e = mems[-1].entries
        seen.append((mems[-1].count, e.keys.copy(), e.values.copy()))
    assert mems[0].entries is None and mems[0].count == 0
    for mem, (count, keys, values) in zip(mems[1:], seen):
        # later updates left this memory as it was made
        assert mem.count == count
        np.testing.assert_array_equal(mem.entries.keys, keys)
        np.testing.assert_array_equal(mem.entries.values, values)
        layout = mem.layout(_PROPERTY_MODEL)
        assert np.shares_memory(layout.keys, mem.entries.keys)
        assert np.shares_memory(layout.values, mem.entries.values)
    if policy in GROWING_POLICIES:
        last = mems[-1].layout(_PROPERTY_MODEL)
        np.testing.assert_array_equal(last.keys, np.concatenate([h.keys for h in hs], 1))
        np.testing.assert_array_equal(last.values,
                                      np.concatenate([h.values for h in hs], 1))


@pytest.mark.parametrize("policy", ["merge", "ema"])
def test_weighted_fold_rejects_h_of_another_shape(policy):
    # a 1-entry h broadcast into a 2-entry memory, and a 3-entry h grew a
    # 1-entry memory to 3
    rng = np.random.default_rng(11)
    mem = ContextMemory(policy).updated(slots(rng, s=2))
    for bad in (slots(rng, s=1), slots(rng, s=3), slots(rng, L=3, s=2), slots(rng, s=2, d=2)):
        with pytest.raises(DimensionError, match=f"{policy} memory"):
            mem.updated(bad)
    with pytest.raises(DimensionError, match=f"{policy} memory"):
        ContextMemory(policy).updated(slots(rng, s=1)).updated(slots(rng, s=3))
    assert mem.updated(slots(rng, s=2)).entry_count == 2


# ---------------------------------------------------------------------------
# compression


def test_compress_segment_shape(tiny_model64):
    adapters = AdapterSet.init(tiny_model64, comp_len=1, seed=0)
    mem = ContextMemory("concat")
    h = compress_segment(tiny_model64, adapters, mem, [1, 2, 3])
    # one slot of 2 x L x d numbers
    assert h.keys.shape == (TINY.n_layers, 1, TINY.d_model)
    assert h.values.shape == (TINY.n_layers, 1, TINY.d_model)
    assert h.keys.size + h.values.size == 2 * TINY.n_layers * TINY.d_model


def test_compress_segment_deterministic(tiny_model64):
    adapters = AdapterSet.init(tiny_model64, comp_len=2, seed=1)
    mem = ContextMemory("merge")
    a, b = (compress_segment(tiny_model64, adapters, mem, [4, 5]) for _ in range(2))
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.values, b.values)


def test_compress_segment_rejects_empty(tiny_model64):
    adapters = AdapterSet.init(tiny_model64, comp_len=1)
    with pytest.raises(ContractViolation):
        compress_segment(tiny_model64, adapters, ContextMemory("concat"), [])


def test_compression_is_memory_conditioned(tiny_model64):
    """Changing Mem(t-1) changes h(t): attention reaches the memory."""
    adapters = AdapterSet.init(tiny_model64, comp_len=1, seed=2)
    rng = np.random.default_rng(9)
    mem1 = ContextMemory("concat").updated(
        slots(rng, L=TINY.n_layers, s=1, d=TINY.d_model))
    mem2 = ContextMemory("concat").updated(
        slots(rng, L=TINY.n_layers, s=1, d=TINY.d_model))
    h1 = compress_segment(tiny_model64, adapters, mem1, [1, 2, 3])
    h2 = compress_segment(tiny_model64, adapters, mem2, [1, 2, 3])
    assert not np.allclose(h1.keys, h2.keys)


def test_independent_policy_ignores_memory(tiny_model64):
    adapters = AdapterSet.init(tiny_model64, comp_len=1, seed=3)
    rng = np.random.default_rng(10)
    empty = ContextMemory("independent")
    filled = ContextMemory("independent").updated(
        slots(rng, L=TINY.n_layers, s=1, d=TINY.d_model))
    h1 = compress_segment(tiny_model64, adapters, empty, [1, 2, 3])
    h2 = compress_segment(tiny_model64, adapters, filled, [1, 2, 3])
    np.testing.assert_array_equal(h1.keys, h2.keys)
