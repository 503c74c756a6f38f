"""The rotated keys a stream keeps: always equal to a fresh rotation of its
layout's keys, never changing an output, and rotating each cached key once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccm import tensor as T
from ccm.engine import StreamCaps, StreamState, evaluate_perplexity, streaming_step
from ccm.errors import DimensionError
from ccm.lora import AdapterSet
from ccm.model import KVLayout, ModelConfig, ToyLM
from conftest import TINY

_MODEL = ToyLM.init(TINY, seed=7, dtype=np.float64)
_ADAPTERS = AdapterSet.init(_MODEL, rank=2, alpha=4.0, comp_len=2, seed=3)
_RNG = np.random.default_rng(4)
for _pair in _ADAPTERS.pairs.values():  # B starts at 0: give the adapters an effect
    _pair.b.data[...] = 0.05 * _RNG.standard_normal(_pair.b.data.shape)


def fresh_rotation(keys: np.ndarray, config: ModelConfig) -> np.ndarray:
    """[n_layers, n, d] keys as [n_layers, n_heads, n, head_dim], each head
    rotated as attention rotates them, at 0..n-1."""
    n_layers, n, _ = keys.shape
    cos, sin = T.rope_angles(n, config.head_dim, config.rope_base, keys.dtype)
    return np.stack([
        T.rope(keys[layer].reshape(n, config.n_heads, config.head_dim).transpose(1, 0, 2),
               cos, sin) for layer in range(n_layers)])


@settings(max_examples=40, deadline=None)
@given(n_sink=st.integers(0, 2), ccm_entries=st.sampled_from([0, 2, 4]),
       window=st.integers(1, 8), chunk=st.integers(1, 8), seed=st.integers(0, 99),
       n_tokens=st.integers(1, 30))
def test_rotated_copy_stays_a_fresh_rotation(n_sink, ccm_entries, window, chunk, seed,
                                             n_tokens):
    # after every step, events included, the stream's buffer holds its
    # layout's keys freshly rotated, and the step's logits and KV are those
    # of a forward over the bare layout, bit for bit
    model = _MODEL
    caps = StreamCaps(n_sink, ccm_entries, window, min(chunk, window))
    state = StreamState(model, _ADAPTERS if ccm_entries else None, caps)
    for tok in np.random.default_rng(seed).integers(0, 40, size=n_tokens):
        logits, _, _ = streaming_step(state, int(tok))
        after, n = state.layout, state.layout.n_entries
        np.testing.assert_array_equal(state.rotated[:, :, :n],
                                      fresh_rotation(after.keys, TINY))
        prior = KVLayout(after.keys[:, :-1], after.values[:, :-1])
        want, want_kv = model.forward([tok], prior, adapters=state.adapters)
        np.testing.assert_array_equal(logits, want.data[0])
        np.testing.assert_array_equal(after.keys[:, -1:], want_kv.keys)
        np.testing.assert_array_equal(after.values[:, -1:], want_kv.values)


_H, _DH = TINY.n_heads, TINY.head_dim


@pytest.mark.parametrize("shape,dtype", [
    ((TINY.n_layers + 1, _H, 5, _DH), np.float64),   # not the model's depth
    ((TINY.n_layers, _H // 2, 5, 2 * _DH), np.float64),  # not its heads
    ((TINY.n_layers, _H, 5, _DH // 2), np.float64),  # not its head width
    ((TINY.n_layers, _H * 5, _DH), np.float64),      # not head-major
    ((TINY.n_layers, _H, 4, _DH), np.float64),       # no row for the last token
    ((TINY.n_layers, _H, 5, _DH), np.float32)])      # not the model's dtype
def test_forward_rejects_a_rotated_buffer_that_does_not_fit(shape, dtype):
    _, layout = _MODEL.forward([1, 2, 3], _MODEL.empty_layout())
    with pytest.raises(DimensionError, match="rotated key buffer"):
        _MODEL.forward([4, 5], layout, rotated=np.zeros(shape, dtype=dtype))


def test_forward_writes_only_the_rows_after_the_layout():
    _, layout = _MODEL.forward([1, 2, 3], _MODEL.empty_layout())
    buffer = np.full((TINY.n_layers, _H, 8, _DH), 7.0)
    buffer[:, :, :3] = fresh_rotation(layout.keys, TINY)
    logits, kv = _MODEL.forward([4, 5], layout, rotated=buffer)
    want, _ = _MODEL.forward([4, 5], layout)
    np.testing.assert_array_equal(logits.data, want.data)
    np.testing.assert_array_equal(buffer[:, :, :5],
                                  fresh_rotation(layout.extended(kv).keys, TINY))
    assert (buffer[:, :, 5:] == 7.0).all()


def _rotated_rows(monkeypatch) -> list[int]:
    """Count of key and query rows (per head) every ``tensor.rope`` call rotates."""
    rows, orig = [0], T.rope

    def counting(x, cos, sin):
        rows[0] += x.size // x.shape[-1]
        return orig(x, cos, sin)

    monkeypatch.setattr(T, "rope", counting)
    return rows


@pytest.mark.parametrize("n", [24, 48])
def test_full_stream_rotates_each_key_once(monkeypatch, n):
    # per token and layer: its query and its key, one row per head. Rotating
    # every cached key at every token would count n(n+1)/2 key rows.
    rows = _rotated_rows(monkeypatch)
    stream = np.random.default_rng(n).integers(0, 40, size=n)
    evaluate_perplexity(_MODEL, None, "full", stream)
    assert rows[0] == 2 * n * TINY.n_layers * TINY.n_heads


@pytest.mark.parametrize("n", [60, 120])
def test_concat_stream_rotates_a_budget_per_event(monkeypatch, n):
    # per token: its query and key; per event: the compression forward over
    # at most the budget plus its slots, and one rebuild of the kept layout
    caps = StreamCaps(n_sink=1, ccm_entries=4, window=24, chunk=24)
    rows = _rotated_rows(monkeypatch)
    stream = np.random.default_rng(n).integers(0, 40, size=n)
    res = evaluate_perplexity(_MODEL, _ADAPTERS, "concat", stream, caps)
    per_row = TINY.n_layers * TINY.n_heads
    assert res.events.sum() >= n // caps.window - 1
    assert rows[0] <= per_row * (2 * n + 3 * caps.total * res.events.sum())
