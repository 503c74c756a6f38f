"""Model contracts: layout-based forward, token-id checks, positions, and
equivalence with an independent plain-numpy transformer reference."""

import numpy as np
import pytest

from ccm.errors import CapacityError, DataError, DimensionError
from ccm.model import KVCache, KVLayout, ModelConfig, ToyLM
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
    inv_freq = cfg.rope_base ** (-np.arange(half) / half)
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
    joined = tiny_model64.empty_layout().extended(*parts)
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


@pytest.mark.parametrize("lengths, cached", [([], False), ([2, 1], False),
                                             ([3, 0, 1], False), ([4], True)])
def test_lengths_must_split_the_tokens_without_a_cache(tiny_model64, lengths, cached):
    layout = tiny_model64.empty_layout()
    cache = KVCache.holding([layout], 4, tiny_model64.config) if cached else None
    with pytest.raises(DimensionError):
        tiny_model64.forward([1, 2, 3, 4], layout, cache=cache, lengths=lengths)


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
