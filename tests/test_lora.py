"""Conditional adapter contracts: gating, zero-init identity, trainable set."""

import numpy as np
import pytest

import ccm.tensor as T
from ccm.errors import ContractViolation, UsageError
from ccm.lora import AdapterSet, LoRAPair, trainable_parameters
from ccm.model import ModelConfig, ToyLM, project_rows
from ccm.optim import Adam
from ccm.tensor import Parameter, Tensor
from ccm.training import Recipe, build_training_sequence, train_compression, training_forward
from conftest import TINY, random_sample


def make_pair(a, b, alpha):
    return LoRAPair(Parameter("a", np.asarray(a, dtype=np.float64)),
                    Parameter("b", np.asarray(b, dtype=np.float64)), alpha)


def conditional_project(w: Tensor, lora: LoRAPair | None, row: Tensor, m: bool) -> Tensor:
    """Single-row oracle for ``project_rows``: project one [1, d] hidden
    row, adding the low-rank delta only when the gate m is set."""
    out = T.matmul(row, w)
    if m and lora is not None:
        out = T.add(out, lora.delta(row))
    return out


def test_gate_closed_is_base_projection():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((4, 4)))
    pair = make_pair(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), 16)
    x = Tensor(rng.standard_normal((1, 4)))
    out = conditional_project(w, pair, x, m=False)
    np.testing.assert_array_equal(out.data, x.data @ w.data)


def test_zero_init_b_is_identity():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((4, 4)))
    pair = make_pair(rng.standard_normal((2, 4)), np.zeros((2, 4)), 16)
    x = Tensor(rng.standard_normal((1, 4)))
    out = conditional_project(w, pair, x, m=True)
    np.testing.assert_array_equal(out.data, x.data @ w.data)


def test_rank_one_hand_arithmetic():
    # k=1, A=[[1,0]], B=[[0,1]], alpha=k, W=I, x=[2,3] -> [5,3]
    pair = make_pair([[1.0, 0.0]], [[0.0, 1.0]], alpha=1)
    w = Tensor(np.eye(2))
    out = conditional_project(w, pair, Tensor(np.array([[2.0, 3.0]])), m=True)
    np.testing.assert_allclose(out.data, [[5.0, 3.0]])


def test_project_rows_matches_single_vector_oracle():
    rng = np.random.default_rng(2)
    w = Parameter("w", rng.standard_normal((4, 4)))
    pair = make_pair(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), 16)
    x = Tensor(rng.standard_normal((6, 4)))
    gates = np.array([True, False, False, True, True, False])
    out = project_rows(x, w, pair, np.flatnonzero(gates))
    for i, m in enumerate(gates):
        row = conditional_project(w, pair, Tensor(x.data[i:i + 1]), m=bool(m))
        np.testing.assert_allclose(out.data[i], row.data[0], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# trainable parameter set


def test_trainable_parameter_count():
    cfg = ModelConfig(n_layers=4, d_model=128, n_heads=4, d_ff=256, vocab_size=64)
    model = ToyLM.init(cfg, seed=0)
    model.freeze()
    adapters = AdapterSet.init(model, rank=8, alpha=16.0)
    params = trainable_parameters(model, adapters)
    total = sum(p.data.size for p in params)
    # L * targets * (A + B) * k * d + shared comp embedding row
    assert total == 4 * 4 * 2 * 8 * 128 + 128


def test_trainable_requires_frozen_base(tiny_model64):
    adapters = AdapterSet.init(tiny_model64)
    with pytest.raises(ContractViolation):
        trainable_parameters(tiny_model64, adapters)


@pytest.mark.parametrize("sizes", [{"rank": 0}, {"rank": -1}, {"comp_len": 0}])
def test_adapter_sizes_below_one_are_usage_errors(tiny_model64, sizes):
    with pytest.raises(UsageError):
        AdapterSet.init(tiny_model64, **sizes)


def test_fresh_adapters_identity_on_all_inputs(tiny_model64):
    """B=0 and a copied comp embedding: outputs equal the base model even
    on sequences containing compression tokens."""
    adapters = AdapterSet.init(tiny_model64, comp_len=1, seed=3)
    tokens = np.array([1, 2, TINY.comp_token_id, 5])
    layout = tiny_model64.empty_layout()
    with_a, _ = tiny_model64.forward(tokens, layout, adapters=adapters)
    without, _ = tiny_model64.forward(tokens, layout)
    assert np.array_equal(with_a.data, without.data)


def test_conditional_noop_on_comp_free_sequences(tiny_model64):
    """Trained (nonzero) adapters still cannot touch comp-free input."""
    rng = np.random.default_rng(4)
    adapters = AdapterSet.init(tiny_model64, comp_len=1, seed=4)
    for pair in adapters.pairs.values():
        pair.b.data[...] = rng.standard_normal(pair.b.data.shape)
    adapters.comp_embedding.data[...] += 1.0
    tokens = rng.integers(0, TINY.comp_token_id, size=9)  # excludes comp id
    layout = tiny_model64.empty_layout()
    with_a, _ = tiny_model64.forward(tokens, layout, adapters=adapters)
    without, _ = tiny_model64.forward(tokens, layout)
    assert np.array_equal(with_a.data, without.data)


def test_gradients_reach_adapters_not_base(tiny_model64):
    tiny_model64.freeze()
    adapters = AdapterSet.init(tiny_model64, comp_len=1, seed=5)
    rng = np.random.default_rng(5)
    sample = random_sample(rng, 2, TINY.comp_token_id)
    seq = build_training_sequence(sample, s=1, t=2,
                                  comp_token_id=TINY.comp_token_id)
    base_before = {n: p.data.copy() for n, p in tiny_model64.params.items()}

    params = trainable_parameters(tiny_model64, adapters)
    opt = Adam(params)
    opt.zero_grad()
    loss, _ = training_forward(tiny_model64, adapters, seq, "concat")
    loss.backward()
    opt.step(1e-2)

    changed = [p.name for p in params
               if not np.array_equal(p.data, np.zeros_like(p.data)) and p.grad is not None
               and np.abs(p.grad).max() > 0]
    assert any("adapter" in name for name in changed)
    for name, before in base_before.items():
        assert np.array_equal(tiny_model64.params[name].data, before), name


def test_adapter_checkpoint_roundtrip(tmp_path, tiny_model64):
    adapters = AdapterSet.init(tiny_model64, rank=4, alpha=8.0, comp_len=2, seed=6)
    rng = np.random.default_rng(6)
    for pair in adapters.pairs.values():
        pair.b.data[...] = rng.standard_normal(pair.b.data.shape)
    path = tmp_path / "adapters.ckpt"
    adapters.save(path)
    loaded = AdapterSet.load(path, tiny_model64)
    pair = loaded.pairs[0, "q"]
    assert pair.a.shape[0] == 4 and pair.alpha == 8.0 and loaded.comp_len == 2
    for key, pair in adapters.pairs.items():
        np.testing.assert_array_equal(loaded.pairs[key].b.data, pair.b.data)
    np.testing.assert_array_equal(loaded.comp_embedding.data,
                                  adapters.comp_embedding.data)
