"""The KV cache a stream owns: its rotated keys always equal a fresh rotation
of its layout's keys, it never changes an output, each step writes only its
token's row, and every layout it hands out stays a value."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccm import engine
from ccm import tensor as T
from ccm.engine import (STREAM_POLICIES, StreamCaps, StreamState, evaluate_perplexity,
                        streaming_step)
from ccm.errors import DimensionError
from ccm.lora import AdapterSet
from ccm.memory import compress_from_kv
from ccm.model import KVCache, KVLayout, ModelConfig, ToyLM
from conftest import TINY


def _model_and_adapters(dtype, s: int = 2) -> tuple[ToyLM, AdapterSet]:
    model = ToyLM.init(TINY, seed=7, dtype=dtype)
    adapters = AdapterSet.init(model, rank=2, alpha=4.0, comp_len=s, seed=3)
    rng = np.random.default_rng(4)
    for pair in adapters.pairs.values():  # B starts at 0: give the adapters an effect
        pair.b.data[...] = 0.05 * rng.standard_normal(pair.b.data.shape)
    return model, adapters


_PAIRS = {dtype: _model_and_adapters(dtype) for dtype in (np.float64, np.float32)}
_MODEL, _ADAPTERS = _PAIRS[np.float64]


def fresh_rotation(keys: np.ndarray, config: ModelConfig) -> np.ndarray:
    """[n_layers, n, d] keys as [n_layers, n_heads, n, head_dim], each head
    rotated as attention rotates them, at 0..n-1."""
    n_layers, n, _ = keys.shape
    cos, sin = T.rope_angles(n, config.head_dim, keys.dtype)
    return np.stack([
        T.rope(keys[layer].reshape(n, config.n_heads, config.head_dim).transpose(1, 0, 2),
               cos, sin) for layer in range(n_layers)])


@settings(max_examples=40, deadline=None)
@given(n_sink=st.integers(0, 2), ccm_entries=st.sampled_from([0, 2, 4]),
       window=st.integers(1, 8), chunk=st.integers(1, 8), seed=st.integers(0, 99),
       n_tokens=st.integers(1, 30))
def test_rotated_copy_stays_a_fresh_rotation(n_sink, ccm_entries, window, chunk, seed,
                                             n_tokens):
    # after every step, events included, the layout views the cache, whose
    # rotated keys are the layout's keys freshly rotated, bit for bit, and the
    # step's logits and KV are those of a forward over the bare layout: bit
    # for bit, but for rounding on an event step, whose token shares its
    # forward's matmuls with the comp rows
    model = _MODEL
    caps = StreamCaps(n_sink, ccm_entries, window, min(chunk, window))
    state = StreamState(model, _ADAPTERS if ccm_entries else None, caps)
    for tok in np.random.default_rng(seed).integers(0, 40, size=n_tokens):
        logits, _, event = streaming_step(state, int(tok))
        after, n = state.layout, state.layout.n_entries
        assert np.shares_memory(after.keys, state.cache.keys)
        assert np.shares_memory(after.values, state.cache.values)
        np.testing.assert_array_equal(state.cache.rotated[:, :, :n],
                                      fresh_rotation(after.keys, TINY))
        prior = KVLayout(after.keys[:, :-1], after.values[:, :-1])
        want, want_kv = model.forward([tok], prior, adapters=state.adapters)
        atol = 1e-15 if event and ccm_entries else 0
        for got, ref in ((logits, want.data), (after.keys[:, -1:], want_kv.keys),
                         (after.values[:, -1:], want_kv.values)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


@settings(max_examples=40, deadline=None)
@given(n_sink=st.integers(0, 2), s=st.integers(1, 3), groups=st.integers(1, 3),
       window=st.integers(1, 12), chunk=st.integers(1, 12), seed=st.integers(0, 99),
       n_tokens=st.integers(2, 60), span_scores=st.integers(1, 400),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_an_event_in_its_span_forward_equals_the_event_then_the_span(
        n_sink, s, groups, window, chunk, seed, n_tokens, span_scores, dtype):
    # the slots an event's forward writes are a forward of the s comp tokens
    # over [region | oldest chunk] alone, and the span's logits are those of
    # a forward over the layout those slots make, up to rounding
    model, adapters = _model_and_adapters(dtype, s)
    caps = StreamCaps(n_sink, groups * s, window, min(chunk, window))
    tol = 1e-10 if dtype == np.float64 else 1e-6
    checked, fused = [], engine.compress_from_kv

    def against_the_pair(model, adapters, context, at, tokens, layout, cache):
        comp = np.full(s, model.config.comp_token_id)
        want = model.forward(comp, context, adapters=adapters)[1]
        logits = fused(model, adapters, context, at, tokens, layout, cache)
        got = layout.entries(at, at + s)
        pair = layout.entries(0, at).extended(want, layout.entries(at + s))
        for a, b in ((got.keys, want.keys), (got.values, want.values),
                     (logits, model.forward(tokens, pair, adapters=adapters)[0].data)):
            np.testing.assert_allclose(a, b, rtol=0, atol=tol)
        checked.append(at)
        return logits

    stream = np.random.default_rng(seed).integers(0, 40, size=n_tokens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SPAN_SCORES", span_scores)
        mp.setattr(engine, "compress_from_kv", against_the_pair)
        res = evaluate_perplexity(model, adapters, "concat", stream, caps)
    assert len(checked) == res.events.sum()


@settings(max_examples=40, deadline=None)
@given(policy=st.sampled_from(STREAM_POLICIES), n_sink=st.integers(0, 2),
       ccm_entries=st.sampled_from([2, 4]), window=st.integers(1, 8),
       chunk=st.integers(1, 8), seed=st.integers(0, 99), n_tokens=st.integers(2, 30))
def test_every_layout_a_stream_hands_out_stays_a_value(policy, n_sink, ccm_entries,
                                                       window, chunk, seed, n_tokens):
    # later spans and compression events write no row an earlier layout views
    caps = StreamCaps(n_sink, ccm_entries, window, min(chunk, window))
    held, step = [], streaming_step

    def holding(state, tokens):
        out = step(state, tokens)
        layout = state.layout
        held.append((out[0].shape[0], layout, layout.keys.copy(), layout.values.copy()))
        return out

    stream = np.random.default_rng(seed).integers(0, 40, size=n_tokens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "streaming_step", holding)
        evaluate_perplexity(_MODEL, _ADAPTERS, policy, stream, caps)
    assert sum(k for k, *_ in held) == n_tokens
    for _, layout, keys, values in held:
        np.testing.assert_array_equal(layout.keys, keys)
        np.testing.assert_array_equal(layout.values, values)


@settings(max_examples=60, deadline=None)
@given(policy=st.sampled_from(STREAM_POLICIES), n_sink=st.integers(0, 2),
       ccm_entries=st.sampled_from([0, 2, 4]), window=st.integers(1, 8),
       chunk=st.integers(1, 8), seed=st.integers(0, 99), n_tokens=st.integers(2, 60),
       span_scores=st.integers(1, 120), dtype=st.sampled_from([np.float64, np.float32]))
def test_a_stream_of_spans_equals_one_token_steps(policy, n_sink, ccm_entries, window,
                                                  chunk, seed, n_tokens, span_scores,
                                                  dtype):
    # each span is one forward over the tokens up to the next event, its
    # scores capped; a loop of one-token steps under the same caps is the oracle
    model, adapters = _PAIRS[dtype]
    caps = StreamCaps(n_sink, ccm_entries, window, min(chunk, window))
    stream = np.random.default_rng(seed).integers(0, 40, size=n_tokens)
    states, step = [], streaming_step

    def checked(state, tokens):
        out = step(state, tokens)
        n, k = state.layout.n_entries, out[0].shape[0]
        assert k == 1 or k * n <= span_scores
        np.testing.assert_array_equal(state.cache.rotated[:, :, :n],
                                      fresh_rotation(state.layout.keys, TINY))
        states.append(state)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SPAN_SCORES", span_scores)
        mp.setattr(engine, "streaming_step", checked)
        res = evaluate_perplexity(model, adapters, policy, stream, caps)
    oracle = StreamState(model, states[0].adapters, states[0].caps)
    steps = [step(oracle, [tok]) for tok in stream]
    np.testing.assert_array_equal(res.kv_totals, [total for _, total, _ in steps])
    np.testing.assert_array_equal(res.events, [event for _, _, event in steps])
    nll = [-T.log_softmax_rows(logits)[0, tok] for (logits, _, _), tok in
           zip(steps, stream[1:])]
    np.testing.assert_allclose(res.nll, nll, rtol=0,
                               atol=1e-10 if dtype == np.float64 else 1e-5)


def test_a_full_stream_at_the_real_span_cap_equals_one_token_steps():
    # SPAN_SCORES unpatched: a 300-token full stream runs a 256-token span,
    # then 44, and each NLL is a one-token step's, in float64
    model, stream = _PAIRS[np.float64][0], np.random.default_rng(300).integers(0, 40, 300)
    spans, step = [], streaming_step

    def sized(state, tokens):
        out = step(state, tokens)
        spans.append(out[0].shape[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "streaming_step", sized)
        res = evaluate_perplexity(model, None, "full", stream)
    assert spans == [256, 44]
    oracle = StreamState(model, None, StreamCaps(n_sink=0, ccm_entries=0, window=300,
                                                 chunk=1))
    nll = [-T.log_softmax_rows(step(oracle, [tok])[0])[0, nxt]
           for tok, nxt in zip(stream, stream[1:])]
    np.testing.assert_allclose(res.nll, nll, rtol=0, atol=1e-10)


@pytest.mark.parametrize("policy,n,caps,forwards,widest", [
    # spans of 256 and 44 tokens: 256 x 256 scores fill SPAN_SCORES, and the
    # 44 left fit beside the 256-entry layout
    ("full", 300, None, 2, 256),
    # a span of 25 (sink and window), then 12 after each of 7 events, then
    # 3; each event runs in the forward of the span after it
    ("concat", 100, StreamCaps(n_sink=1, ccm_entries=4, window=24, chunk=12), 8, 25),
    # the benchmark's pass: one span of 152 fills sink and window, then each
    # of 30 events and its refill of up to 64 tokens is one forward
    ("concat", 2048, StreamCaps(), 1 + 30, 152)])
def test_stream_pass_makes_a_pinned_count_of_forwards(monkeypatch, policy, n, caps,
                                                      forwards, widest):
    # a guard that needs no timing: one forward per token would make n, and a
    # forward per event n + events; the causal triangle is a span wide, never
    # the layout
    calls = _calls(monkeypatch, ToyLM, "forward")
    widths, causal = [], T.causal_mask
    monkeypatch.setattr(T, "causal_mask",
                        lambda rows, m: widths.append(m) or causal(rows, m))
    stream = np.random.default_rng(n).integers(0, 40, n)
    evaluate_perplexity(_MODEL, _ADAPTERS, policy, stream, caps)
    assert calls[0] == forwards and max(widths) == widest


_H, _DH, _D, _L = TINY.n_heads, TINY.head_dim, TINY.d_model, TINY.n_layers


@pytest.mark.parametrize("shape,dtype", [
    ((_L + 1, _H, 5, _DH), np.float64),   # not the model's depth
    ((_L, _H // 2, 5, 2 * _DH), np.float64),  # not its heads
    ((_L, _H, 5, _DH // 2), np.float64),  # not its head width
    ((_L, _H * 5, _DH), np.float64),      # not head-major
    ((_L, _H, 4, _DH), np.float64),       # no row for the last token
    ((_L, _H, 5, _DH), np.float32)])      # not the model's dtype
def test_forward_rejects_a_rotated_buffer_that_does_not_fit(shape, dtype):
    _, layout = _MODEL.forward([1, 2, 3], _MODEL.empty_layout())
    cache = replace(KVCache.holding([layout], 5, TINY), rotated=np.zeros(shape, dtype))
    with pytest.raises(DimensionError, match="KV cache rotated "):
        _MODEL.forward([4, 5], layout, cache=cache)


@pytest.mark.parametrize("name", ["keys", "values"])
@pytest.mark.parametrize("shape,dtype", [
    ((_L + 1, 5, _D), np.float64),   # not the model's depth
    ((_L, 5, _D // 2), np.float64),  # not its width
    ((_L, 4, _D), np.float64),       # no row for the last token
    ((_L, 5, _D), np.float32)])      # not the model's dtype
def test_forward_rejects_keys_or_values_that_do_not_fit(name, shape, dtype):
    _, layout = _MODEL.forward([1, 2, 3], _MODEL.empty_layout())
    cache = replace(KVCache.holding([layout], 5, TINY), **{name: np.zeros(shape, dtype)})
    with pytest.raises(DimensionError, match=f"KV cache {name} "):
        _MODEL.forward([4, 5], layout, cache=cache)


def test_an_event_without_a_span_or_slot_rows_is_rejected_before_a_row_is_written():
    _, layout = _MODEL.forward([1, 2, 3], _MODEL.empty_layout())
    cache = KVCache.holding([layout, 2], 8, TINY)  # two slot rows after the layout
    arrays = (cache.keys, cache.values, cache.rotated)
    for arr in arrays:  # rows are the next-to-last axis
        arr[..., 3:, :] = 7.0
    before, held = [arr.copy() for arr in arrays], cache.layout(5)
    for tokens, at in (([], 3), ([4], 4), ([4], -1)):
        with pytest.raises(DimensionError, match="lie outside|must split"):
            compress_from_kv(_MODEL, _ADAPTERS, layout, at, tokens, held, cache)
        for arr, old in zip(arrays, before):
            np.testing.assert_array_equal(arr, old)
    compress_from_kv(_MODEL, _ADAPTERS, layout, 3, [4], held, cache)


def test_forward_writes_only_the_rows_after_the_layout():
    _, layout = _MODEL.forward([1, 2, 3], _MODEL.empty_layout())
    cache = KVCache.holding([layout], 8, TINY)
    arrays = (cache.keys, cache.values, cache.rotated)
    for arr in arrays:  # rows are the next-to-last axis
        arr[..., 3:, :] = 7.0
    before = [arr.copy() for arr in arrays]
    logits, kv = _MODEL.forward([4, 5], layout, cache=cache)
    want, want_kv = _MODEL.forward([4, 5], layout)
    np.testing.assert_array_equal(logits.data, want.data)
    assert np.shares_memory(kv.keys, cache.keys) and np.shares_memory(kv.values,
                                                                      cache.values)
    np.testing.assert_array_equal(kv.keys, want_kv.keys)
    np.testing.assert_array_equal(kv.values, want_kv.values)
    np.testing.assert_array_equal(cache.rotated[:, :, :5],
                                  fresh_rotation(layout.extended(kv).keys, TINY))
    for arr, old in zip(arrays, before):
        np.testing.assert_array_equal(np.delete(arr, [3, 4], axis=-2),
                                      np.delete(old, [3, 4], axis=-2))


def _calls(monkeypatch, owner, name: str) -> list[int]:
    """Count of calls to ``owner.name``."""
    calls, orig = [0], getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("n", [24, 48])
def test_full_stream_step_copies_no_kv(monkeypatch, n):
    # each step writes its token's row in place: nothing joins KV entries
    extends = _calls(monkeypatch, KVLayout, "extended")
    concats = _calls(monkeypatch, T, "concat")
    evaluate_perplexity(_MODEL, None, "full", np.random.default_rng(n).integers(0, 40, n))
    assert extends[0] == concats[0] == 0


def test_concat_stream_copies_kv_once_per_event(monkeypatch):
    # an event writes its kept parts straight into one fresh cache, the
    # stream's first cache aside: no ``extended`` join is made first
    caps = StreamCaps(n_sink=1, ccm_entries=4, window=24, chunk=12)
    extends = _calls(monkeypatch, KVLayout, "extended")
    holds = _calls(monkeypatch, KVCache, "holding")
    stream = np.random.default_rng(5).integers(0, 40, 100)
    res = evaluate_perplexity(_MODEL, _ADAPTERS, "concat", stream, caps)
    assert res.events.sum() > 0 and holds[0] == res.events.sum() + 1 and extends[0] == 0


def test_one_token_cached_forward_makes_a_pinned_count_of_tensors_and_rotations(
        monkeypatch):
    # a guard on the decode step that needs no timing: per layer one Tensor
    # each for the two norms, four projections, two cache views, attention,
    # two residual adds and five MLP ops, plus the embedding, final norm and
    # head; per layer one rope call rotates the query and the new key together
    _, layout = _MODEL.forward([1, 2, 3], _MODEL.empty_layout())
    cache = KVCache.holding([layout], 8, TINY)
    tensors = _calls(monkeypatch, T.Tensor, "__init__")
    ropes = _calls(monkeypatch, T, "rope")
    _MODEL.forward([4], layout, adapters=_ADAPTERS, cache=cache)
    assert (tensors[0], ropes[0]) == (16 * TINY.n_layers + 3, TINY.n_layers)


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
