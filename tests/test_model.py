"""Model contracts: layout-based forward, token-id checks, positions, and
equivalence with an independent plain-numpy transformer reference."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccm import tensor as T
from ccm.errors import CapacityError, DataError, DimensionError
from ccm.lora import AdapterSet
from ccm.memory import compress_from_kv, compress_segment
from ccm.model import (Frame, KVCache, KVLayout, ModelConfig, ToyLM, _plain_plan,
                       forward_groups, pack_blocks)
from ccm.tensor import Tensor
from conftest import TINY


# ---------------------------------------------------------------------------
# an independent reference forward: no layout indirection, no autodiff


def reference_forward(model: ToyLM, tokens: np.ndarray) -> np.ndarray:
    """Standard causal transformer over raw arrays, positions 0..n-1."""
    cfg = model.config
    P = {name: p.data for name, p in model.params.items()}
    n = len(tokens)
    h, dh = cfg.n_heads, cfg.head_dim
    half = dh // 2
    inv_freq = T.ROPE_BASE ** (-np.arange(half) / half)
    ang = np.arange(n)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang), np.sin(ang)

    def rms(x, g):
        return x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-6) * g

    def rot(x):  # [n, h, dh]
        x1, x2 = x[..., :half], x[..., half:]
        c, s = cos[:, None, :], sin[:, None, :]
        return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)

    x = P["embed"][tokens]
    for layer in range(cfg.n_layers):
        p = f"layers.{layer}."
        xa = rms(x, P[p + "attn_norm"])
        q = (xa @ P[p + "wq"]).reshape(n, h, dh)
        k = (xa @ P[p + "wk"]).reshape(n, h, dh)
        v = (xa @ P[p + "wv"]).reshape(n, h, dh)
        q, k = rot(q), rot(k)
        out = np.zeros((n, h, dh))
        for head in range(h):
            scores = q[:, head] @ k[:, head].T / np.sqrt(dh)
            scores = np.where(np.tril(np.ones((n, n), bool)), scores, -np.inf)
            w = np.exp(scores - scores.max(-1, keepdims=True))
            w /= w.sum(-1, keepdims=True)
            out[:, head] = w @ v[:, head]
        x = x + out.reshape(n, h * dh) @ P[p + "wo"]
        xf = rms(x, P[p + "ffn_norm"])
        gate = xf @ P[p + "w_gate"]
        x = x + ((gate / (1 + np.exp(-gate))) * (xf @ P[p + "w_up"])) @ P[p + "w_down"]
    return rms(x, P["final_norm"]) @ P["head"]


def test_forward_matches_reference_transformer(tiny_model64):
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, TINY.vocab_size, size=12)
    layout = tiny_model64.empty_layout()
    logits, _ = tiny_model64.forward(tokens, layout)
    ref = reference_forward(tiny_model64, tokens)
    assert np.abs(logits.data - ref).max() < 1e-6


# ---------------------------------------------------------------------------
# shape and determinism contracts


def test_forward_shape_contract(tiny_model64):
    layout = tiny_model64.empty_layout()
    logits, kv = tiny_model64.forward([3], layout)
    assert logits.shape == (1, TINY.vocab_size)
    assert kv.keys.shape == (TINY.n_layers, 1, TINY.d_model)
    assert kv.values.shape == (TINY.n_layers, 1, TINY.d_model)


def test_forward_deterministic(tiny_model64):
    tokens = [1, 2, 3, 4]
    layout = tiny_model64.empty_layout()
    a, _ = tiny_model64.forward(tokens, layout)
    b, _ = tiny_model64.forward(tokens, layout)
    assert np.array_equal(a.data, b.data)


def test_forward_does_not_mutate_layout(tiny_model64):
    rng = np.random.default_rng(1)
    keys = rng.standard_normal((TINY.n_layers, 3, TINY.d_model))
    vals = rng.standard_normal((TINY.n_layers, 3, TINY.d_model))
    layout = tiny_model64.empty_layout().extended(KVLayout(keys, vals))
    before = layout.keys.copy()
    tiny_model64.forward([5, 6], layout)
    assert np.array_equal(layout.keys, before)


def test_layouts_are_read_only(tiny_model64):
    # a layout is a value: every way of making one hands out read-only arrays
    drawn = _random_layout(tiny_model64, 3, seed=5)
    _, kv = tiny_model64.forward([1, 2], drawn)
    empty = tiny_model64.empty_layout()
    made = [drawn, kv, empty, drawn.entries(1, 3), drawn.extended(kv), empty.extended(kv)]
    for layout in made:
        for arr in (layout.keys, layout.values):
            with pytest.raises(ValueError):
                arr[:, :1] = 0.0


def test_extended_joins_parts_in_order(tiny_model64, tiny_model32):
    parts = [_random_layout(tiny_model64, n, seed=n) for n in (2, 0, 3)]
    joined = tiny_model64.empty_layout()
    for part in parts:
        joined = joined.extended(part)
    assert joined.n_entries == 5
    np.testing.assert_array_equal(joined.keys[:, 2:], parts[2].keys)
    np.testing.assert_array_equal(joined.entries(0, 2).values, parts[0].values)
    assert tiny_model32.empty_layout().extended(parts[0]).keys.dtype == np.float32
    bad = KVLayout(parts[0].keys[:, :, :4], parts[0].values[:, :, :4])
    with pytest.raises(DimensionError):
        joined.extended(bad)


@pytest.mark.parametrize("size", ["n_layers", "d_model", "n_heads", "d_ff",
                                  "vocab_size", "max_layout"])
@pytest.mark.parametrize("value", [0, -2])
def test_model_size_below_one_rejected(size, value):
    # a zero or negative size divided by zero or built negative arrays
    with pytest.raises(DimensionError, match=f"{size}={value}"):
        ModelConfig(**{size: value})


@pytest.mark.parametrize("d_model,n_heads", [(6, 2), (32, 32), (8, 3)])
def test_model_head_width_must_be_even(d_model, n_heads):
    # rotary attention pairs the channels of each head
    with pytest.raises(DimensionError, match="heads of even width"):
        ModelConfig(d_model=d_model, n_heads=n_heads)


def test_layout_capacity_error():
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=16,
                      max_layout=4)
    model = ToyLM.init(cfg, seed=0, dtype=np.float64)
    with pytest.raises(CapacityError):
        model.forward([1, 2, 3, 4, 5], model.empty_layout())


def _frame_models() -> dict:
    """Per dtype, the tiny model and adapters whose B matrices have an effect."""
    pairs = {}
    for dtype in (np.float64, np.float32):
        model = ToyLM.init(TINY, seed=7, dtype=dtype)
        adapters = AdapterSet.init(model, rank=2, alpha=4.0, comp_len=2, seed=3)
        rng = np.random.default_rng(4)
        for pair in adapters.pairs.values():
            pair.b.data[...] = 0.05 * rng.standard_normal(pair.b.data.shape)
        pairs[dtype] = model, adapters
    return pairs


_FRAME_MODELS = _frame_models()


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 6), st.booleans()),
                       min_size=1, max_size=4),
       dtype=st.sampled_from([np.float64, np.float32]), comp=st.booleans(),
       with_adapters=st.booleans(), cached=st.booleans(), seed=st.integers(0, 99))
def test_a_pack_of_frames_equals_each_frames_own_forward(shapes, dtype, comp,
                                                         with_adapters, cached, seed):
    # each frame (n tokens, w memory columns, its mask and positions given or
    # left to the default) reads only its own memory and tokens, so the pack's
    # logits and KV are each frame's own forward over its own layout; with a
    # cache the last frame reads it in place and the memory gives the others'
    # columns as arrays. Frames that do not split the tokens, an empty frame
    # and a last frame past its cache's rows are dimension errors
    model, adapters = _FRAME_MODELS[dtype]
    adapters = adapters if with_adapters else None
    cfg, rng = model.config, np.random.default_rng(seed)
    shapes[-1] = shapes[-1][:2] + (shapes[-1][2] and not cached,)
    seqs = [np.where(rng.random(n) < 0.4 * comp, cfg.comp_token_id,
                     rng.integers(0, cfg.vocab_size - 1, n)) for n, _, _ in shapes]
    layouts = [KVLayout(*rng.standard_normal((2, cfg.n_layers, w, cfg.d_model)).astype(dtype))
               for _, w, _ in shapes]
    frames = [Frame(n, w, T.causal_mask(n, w + n), np.arange(w + n)) if given else Frame(n, w)
              for n, w, given in shapes]
    want = [model.forward(seq, layout, adapters) for seq, layout in zip(seqs, layouts)]
    read = layouts[:-1] if cached else layouts

    def memory(layer, k, v):
        keys, values = (np.concatenate([getattr(a, name)[layer] for a in read])
                        for name in ("keys", "values"))
        if cached:
            return keys, values
        return (Tensor(keys), Tensor(values)) if keys.size else None

    last = shapes[-1][0] + shapes[-1][1]
    cache = KVCache.holding([layouts[-1]], last, cfg) if cached else None
    logits, kv = model.forward(np.concatenate(seqs), memory, adapters, cache, frames)
    tol = 1e-10 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(logits.data, np.concatenate([g.data for g, _ in want]),
                               rtol=tol, atol=tol)
    for name in ("keys", "values"):
        np.testing.assert_allclose(getattr(kv, name), np.concatenate(
            [getattr(e, name) for _, e in want[-1 if cached else 0:]], axis=1),
            rtol=tol, atol=tol)
    tokens = np.concatenate(seqs)
    for bad in (tokens[:-1], np.append(tokens, 1)):
        with pytest.raises(DimensionError, match="must split"):
            model.forward(bad, memory, adapters, cache, frames)
    with pytest.raises(DimensionError, match="must split"):  # an empty frame
        model.forward(tokens, memory, adapters, cache, [Frame(0, 0)] + frames)
    if cached:
        short = KVCache.holding([layouts[-1]], last - 1, cfg)
        with pytest.raises(DimensionError, match="KV cache keys"):
            model.forward(tokens, memory, adapters, short, frames)


def test_plain_frames_share_one_read_only_plan():
    # frames with neither a mask nor positions are planned from their (n, w)
    # alone: equal shapes get the one plan, whose arrays no caller may write;
    # a frame with its own mask or positions is planned afresh every time
    shapes = [(2, 3), (1, 3), (1, 3), (4, 0)]
    plan = pack_blocks([Frame(n, w) for n, w in shapes])
    assert pack_blocks([Frame(n, w) for n, w in shapes]) is plan
    positions, blocks = plan
    arrays = [positions] + [a for g in blocks.groups for a in g if isinstance(a, np.ndarray)]
    assert len(arrays) == 1 + 2 * 2 + 3  # positions, two lone blocks, one group of two
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0
    own = [[Frame(n, w, T.causal_mask(n, w + n)) if i == 1 else Frame(n, w)
            for i, (n, w) in enumerate(shapes)],
           [Frame(n, w, None, np.arange(w + n)) if i == 3 else Frame(n, w)
            for i, (n, w) in enumerate(shapes)]]
    for frames in own:
        fresh = pack_blocks(frames)
        assert fresh is not pack_blocks(frames) and fresh[0].flags.writeable
        np.testing.assert_array_equal(fresh[0], positions)
    # the cache holds a bounded number of plans
    for w in range(_plain_plan.cache_info().maxsize + 5):
        pack_blocks([Frame(1, w), Frame(1, w)])
    assert _plain_plan.cache_info().currsize == _plain_plan.cache_info().maxsize


# the forward path's parameters: adding or removing one is an edit to this table
FORWARD_PARAMETERS = {
    ToyLM.forward: ("tokens", "memory", "adapters", "cache", "frames"),
    forward_groups: ("model", "tokens", "frames", "memory", "adapters", "cache"),
    Frame: ("n", "w", "allowed", "positions"),
    compress_segment: ("model", "adapters", "mem", "segment"),
    compress_from_kv: ("model", "adapters", "context", "at", "tokens", "layout", "cache"),
}


def test_forward_parameter_table():
    params = {fn: tuple(name for name in inspect.signature(fn).parameters if name != "self")
              for fn in FORWARD_PARAMETERS}
    assert params == FORWARD_PARAMETERS
    assert sum(map(len, params.values())) == 26


@pytest.mark.parametrize("lengths, cached", [([], False), ([2, 1], False),
                                             ([3, 0, 1], False), ([4], True),
                                             (None, True)])
def test_lengths_must_split_the_tokens_without_a_cache(tiny_model64, lengths, cached):
    # no frames, frames short of the tokens, an empty frame, a last frame
    # with its own mask and positions under a cache, and a cached forward
    # given no frames, where no layout gives the default one
    layout = tiny_model64.empty_layout()
    cache = KVCache.holding([layout], 4, tiny_model64.config) if cached else None
    frames = lengths and [Frame(n, 0, T.causal_mask(n, n), np.arange(n)) for n in lengths]
    with pytest.raises(DimensionError, match="must split"):
        tiny_model64.forward([1, 2, 3, 4], None if cached else layout, cache=cache,
                             frames=frames)


@pytest.mark.parametrize("bad", [-1, TINY.vocab_size])
def test_token_ids_outside_vocabulary_rejected(tiny_model64, bad):
    # -1 would otherwise read the comp row, the last; vocab_size would index past it
    with pytest.raises(DataError):
        tiny_model64.forward([1, bad, 2], tiny_model64.empty_layout())


# ---------------------------------------------------------------------------
# position binding


def _random_layout(model, n, seed):
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((model.config.n_layers, n, model.config.d_model))
    vals = rng.standard_normal((model.config.n_layers, n, model.config.d_model))
    return KVLayout(keys, vals)


def test_swapping_identical_entries_is_noop(tiny_model64):
    drawn = _random_layout(tiny_model64, 3, seed=3)
    # entry 2 repeats entry 0
    layout = KVLayout(drawn.keys[:, [0, 1, 0]], drawn.values[:, [0, 1, 0]])
    base, _ = tiny_model64.forward([4, 5], layout)

    swapped = KVLayout(layout.keys[:, [2, 1, 0], :], layout.values[:, [2, 1, 0], :])
    out, _ = tiny_model64.forward([4, 5], swapped)
    assert np.array_equal(base.data, out.data)


def test_swapping_distinct_entries_changes_output(tiny_model64):
    # positions are bound to layout order, so moving content moves meaning
    layout = _random_layout(tiny_model64, 3, seed=4)
    base, _ = tiny_model64.forward([4, 5], layout)
    swapped = KVLayout(layout.keys[:, [1, 0, 2], :], layout.values[:, [1, 0, 2], :])
    out, _ = tiny_model64.forward([4, 5], swapped)
    assert not np.allclose(base.data, out.data)


def test_kv_causality_within_call(tiny_model64):
    layout = tiny_model64.empty_layout()
    _, kv3 = tiny_model64.forward([1, 2, 3], layout)
    _, kv2 = tiny_model64.forward([1, 2], layout)
    assert np.allclose(kv3.keys[:, :2], kv2.keys, atol=1e-12)
    assert np.allclose(kv3.values[:, :2], kv2.values, atol=1e-12)


def test_checkpoint_roundtrip(tmp_path, tiny_model64):
    path = tmp_path / "model.ckpt"
    tiny_model64.save(path)
    loaded = ToyLM.load(path)
    assert loaded.config == tiny_model64.config
    tokens = [1, 2, 3]
    a, _ = tiny_model64.forward(tokens, tiny_model64.empty_layout())
    b, _ = loaded.forward(tokens, loaded.empty_layout())
    assert np.array_equal(a.data, b.data)
