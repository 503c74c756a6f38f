"""The rotated key copy a layout carries: always equal to a fresh rotation of
its keys, never changing an output, and rotating each cached key once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccm import tensor as T
from ccm.engine import StreamCaps, StreamState, evaluate_perplexity, streaming_step
from ccm.lora import AdapterSet
from ccm.model import KVLayout, ModelConfig, ToyLM
from conftest import TINY

_MODEL = ToyLM.init(TINY, seed=7, dtype=np.float64)
_ADAPTERS = AdapterSet.init(_MODEL, rank=2, alpha=4.0, comp_len=2, seed=3)
_RNG = np.random.default_rng(4)
for _pair in _ADAPTERS.pairs.values():  # B starts at 0: give the adapters an effect
    _pair.b.data[...] = 0.05 * _RNG.standard_normal(_pair.b.data.shape)


def fresh_rotation(keys: np.ndarray, start: int, config: ModelConfig) -> np.ndarray:
    """Each layer's keys rotated as attention rotates them, at start, start+1, ..."""
    n_layers, n, d = keys.shape
    cos, sin = T.rope_angles(start + n, config.head_dim, config.rope_base, keys.dtype)
    out = np.empty_like(keys)
    for layer in range(n_layers):
        kh = keys[layer].reshape(n, config.n_heads, config.head_dim).transpose(1, 0, 2)
        out[layer] = T.rope(kh, cos[start:], sin[start:]).transpose(1, 0, 2).reshape(n, d)
    return out


def check_copy(layout: KVLayout, config: ModelConfig) -> None:
    if layout.rotated is not None:
        np.testing.assert_array_equal(
            layout.rotated, fresh_rotation(layout.keys, layout.rotated_at, config))


def check_forward(model, tokens, layout, adapters):
    """Forward over ``layout``; logits and KV equal those over its bare keys."""
    logits, kv = model.forward(tokens, layout, adapters=adapters)
    want_logits, want_kv = model.forward(tokens, KVLayout(layout.keys, layout.values),
                                         adapters=adapters)
    np.testing.assert_array_equal(logits.data, want_logits.data)
    np.testing.assert_array_equal(kv.keys, want_kv.keys)
    np.testing.assert_array_equal(kv.values, want_kv.values)
    assert want_kv.rotated is None
    usable = layout.rotated is not None and layout.rotated_at == 0 \
        and layout.keys.dtype == model.dtype
    assert (kv.rotated is not None) == usable
    return logits, kv


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rotated_copy_stays_a_fresh_rotation(data):
    model, cfg = _MODEL, TINY
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
    bare = KVLayout(*rng.standard_normal((2, cfg.n_layers, 3, cfg.d_model)))
    pool = [model.empty_layout(), bare]
    state = StreamState(model, _ADAPTERS,
                        StreamCaps(n_sink=1, ccm_entries=4, window=6, chunk=3))
    for _ in range(data.draw(st.integers(1, 14), label="ops")):
        op = data.draw(st.sampled_from(["forward", "extended", "entries", "stream"]))
        if op == "forward":
            layout = pool[data.draw(st.integers(0, len(pool) - 1))]
            tokens = rng.integers(0, 40, size=data.draw(st.integers(1, 4)))
            adapters = _ADAPTERS if data.draw(st.booleans()) else None
            _, kv = check_forward(model, tokens, layout, adapters)
            made = [kv, layout.extended(kv)]
        elif op == "extended":
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                       max_size=3))
            made = [pool[picks[0]].extended(*(pool[i] for i in picks[1:]))]
        elif op == "entries":
            layout = pool[data.draw(st.integers(0, len(pool) - 1))]
            a = data.draw(st.integers(0, layout.n_entries))
            made = [layout.entries(a, data.draw(st.integers(a, layout.n_entries)))]
        else:
            made = []
            for tok in rng.integers(0, 40, size=data.draw(st.integers(1, 8))):
                before = state.layout
                logits, _, event = streaming_step(state, int(tok))
                after = state.layout
                # the stream keeps a copy at 0 from step to step, events included
                assert after.rotated is not None and after.rotated_at == 0
                if not event:
                    np.testing.assert_array_equal(after.rotated[:, :-1], before.rotated)
                prior = KVLayout(after.keys[:, :-1], after.values[:, :-1])
                want, want_kv = model.forward([tok], prior, adapters=_ADAPTERS)
                np.testing.assert_array_equal(logits, want.data[0])
                np.testing.assert_array_equal(after.keys[:, -1:], want_kv.keys)
                made.append(after)
        for layout in made:
            check_copy(layout, cfg)
        pool.extend(m for m in made if m.n_entries <= 48)


def test_extended_keeps_the_copy_only_where_positions_continue():
    model = _MODEL
    _, a = model.forward([1, 2, 3], model.empty_layout())
    _, b = model.forward([4, 5], a)
    assert (a.rotated_at, b.rotated_at) == (0, 3)
    assert a.extended(b).rotated is not None
    assert b.extended(a).rotated is None          # a starts at 0, lands at 5
    assert a.entries(1).extended(b).rotated is not None
    assert a.entries(0, 2).extended(b).rotated is None
    assert a.extended(KVLayout(b.keys, b.values)).rotated is None
    assert KVLayout(a.keys, a.values).extended(b).rotated is None
    # a copy cast to another dtype is no fresh rotation in that dtype, and a
    # float64 model reads a float32 layout's keys, not its float32 copy
    model32 = model.astype(np.float32)
    assert model32.empty_layout().extended(a).rotated is None
    _, a32 = model32.forward([1, 2, 3], model32.empty_layout())
    assert a32.rotated is not None
    check_forward(model, [6], a32, None)


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
