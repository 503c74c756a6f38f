"""The parallelized training pass and its recursive reference oracle.

The core claim: one forward over the interleaved sequence, one masked
attention per layer, produces the same I/O logits as literally compressing
segment by segment and then inferring on the final memory. Everything else
about training hangs off that equivalence. A pack of sequences in one
forward must then equal the sequences run one by one.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccm.tensor as T
from ccm.errors import DataError, UsageError
from ccm.lora import AdapterSet, trainable_parameters
from ccm.memory import MEMORY_POLICIES, ContextMemory
from ccm.model import KVLayout, ModelConfig, ToyLM
from ccm.optim import Adam
from ccm.seeding import derive_seed
from ccm.tensor import finite_difference_check
from ccm.training import (Pack, Recipe, build_parallel_mask, build_training_sequence,
                          pack_sequences, parallel_memory_update, pretrain,
                          recursive_reference_forward, train_compression,
                          training_forward)
from conftest import TINY, random_sample


def make_adapters(model, s, seed=0, noise=0.1):
    """Adapters with nonzero B so compression actually does something."""
    adapters = AdapterSet.init(model, rank=4, alpha=8.0, comp_len=s, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for pair in adapters.pairs.values():
        pair.b.data[...] = noise * rng.standard_normal(pair.b.data.shape)
    return adapters


# ---------------------------------------------------------------------------
# sequence building


def test_sequence_layout_t1():
    seq = build_training_sequence(([[10, 11]], [12], [13]), s=1, t=1,
                                  comp_token_id=99)
    np.testing.assert_array_equal(seq.tokens, [10, 11, 99, 12, 13])
    assert seq.bounds == (0, 3, 5) and seq.n_out == 1
    assert seq.t == 1 and seq.io_range == (3, 5)


def test_sequence_total_length():
    sample = ([[1, 2], [3, 4, 5]], [6], [7])
    seq = build_training_sequence(sample, s=2, t=2, comp_token_id=99)
    assert seq.n_tokens == 2 + 2 + 3 + 2 + 1 + 1


def test_sequence_rejects_empty_segment():
    with pytest.raises(DataError):
        build_training_sequence(([[]], [1], [2]), s=1, t=1, comp_token_id=99)


@pytest.mark.parametrize("sample", [([[1, 99]], [2], [3]), ([[1, 2]], [99], [3]),
                                    ([[1, 2]], [2], [100]), ([[1, -1]], [2], [3])])
def test_sequence_rejects_the_comp_id_and_ids_past_it(sample):
    # [[1, comp]] once built [1, comp, comp, 2, 3]: a data id run as a comp token
    with pytest.raises(DataError, match="reserved comp id"):
        build_training_sequence(sample, s=1, t=1, comp_token_id=99)


@st.composite
def training_cases(draw):
    """(policy, t, s, sample): t in 1..5, s in 1..3, segments of 1..6 ids."""
    policy = draw(st.sampled_from(MEMORY_POLICIES))
    t = draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    ids = st.integers(0, TINY.comp_token_id - 1)
    segments = [np.array(draw(st.lists(ids, min_size=1, max_size=6)))
                for _ in range(t)]
    inputs = np.array(draw(st.lists(ids, min_size=1, max_size=3)))
    outputs = np.array(draw(st.lists(ids, min_size=1, max_size=3)))
    return policy, t, s, (segments, inputs, outputs)


# ---------------------------------------------------------------------------
# mask rules


def group_plan(seq, policy):
    """(lo, hi, memory columns) of each step in the parallel mask: its token
    range and the columns of the Mem it reads in the recursive execution.

    Growing policies hold h(1..t) in the t*s memory columns, so Mem(j) is the
    first j*s of them; merged policies hold Mem(j) as column block j.
    """
    merged = policy in ("merge", "ema")
    s = seq.s

    def mem_cols(j):  # columns of Mem(j), j >= 1
        return list(range((j - 1) * s, j * s)) if merged else list(range(j * s))

    plan = []
    for j in range(1, seq.t + 1):
        lo, hi = seq.bounds[j - 1], seq.bounds[j]
        hidden = j == 1 or policy == "independent"
        plan.append((lo, hi, [] if hidden else mem_cols(j - 1)))
    plan.append((*seq.io_range, mem_cols(seq.t)))
    return plan


def assert_mask_is_group_plan(seq, policy):
    """Each step's rows allow [all of its memory | its own tokens causally]
    and nothing else, and each row's allowed keys sit at positions 0, 1, ...
    in column order: the oracle's frame [Mem | own tokens]."""
    allowed, positions = build_parallel_mask(seq, policy)
    plan = group_plan(seq, policy)
    n, m = seq.n_tokens, seq.t * seq.s
    assert allowed.shape == (n, m + n) and positions.shape == (m + n,)
    assert [lo for lo, _, _ in plan] == [0] + [hi for _, hi, _ in plan[:-1]]
    assert plan[-1][1] == n
    for lo, hi, cols in plan:
        expected = np.zeros((hi - lo, m + n), dtype=bool)
        expected[:, cols] = True
        expected[:, m + lo:m + hi] = np.tril(np.ones((hi - lo, hi - lo), dtype=bool))
        np.testing.assert_array_equal(allowed[lo:hi], expected)
        for i in range(lo, hi):
            np.testing.assert_array_equal(positions[allowed[i]],
                                          np.arange(len(cols) + i - lo + 1))


def test_mask_t1_exact_pairs():
    seq = build_training_sequence(([[10, 11]], [12], [13]), s=1, t=1,
                                  comp_token_id=99)
    allowed, positions = build_parallel_mask(seq, "concat")
    # keys: h(1) | a b COMP q y; q and y read h(1), the memory column, and
    # themselves, never the COMP token's own column
    expected = np.array([
        [0, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 1, 1, 1, 0, 0],
        [1, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 1, 1],
    ], dtype=bool)
    np.testing.assert_array_equal(allowed, expected)
    np.testing.assert_array_equal(positions, [0, 0, 1, 2, 1, 2])


def test_mask_rows_nonempty_and_self_allowed():
    rng = np.random.default_rng(2)
    for policy in ("concat", "merge", "ema", "independent"):
        sample = random_sample(rng, 3, 40)
        seq = build_training_sequence(sample, s=2, t=3, comp_token_id=99)
        allowed, _ = build_parallel_mask(seq, policy)
        n = seq.n_tokens
        assert allowed.any(axis=1).all()
        rows = np.arange(n)
        assert allowed[rows, seq.t * seq.s + rows].all()
        assert_mask_is_group_plan(seq, policy)


@settings(max_examples=60, deadline=None)
@given(training_cases())
def test_parallel_mask_rows_are_group_plan(drawn):
    policy, t, s, sample = drawn
    seq = build_training_sequence(sample, s=s, t=t, comp_token_id=TINY.comp_token_id)
    assert_mask_is_group_plan(seq, policy)


def test_mask_independent_equals_concat_at_t1():
    seq = build_training_sequence(([[10, 11]], [12], [13]), s=1, t=1,
                                  comp_token_id=99)
    for a, b in zip(build_parallel_mask(seq, "concat"),
                    build_parallel_mask(seq, "independent")):
        np.testing.assert_array_equal(a, b)


def test_mask_no_raw_cross_segment_attention():
    # keys: h(1) h(2) | c1 c1 COMP1 c2 c2 COMP2 I O
    seq = build_training_sequence(([[1, 2], [3, 4]], [5], [6]), s=1, t=2,
                                  comp_token_id=99)
    allowed, _ = build_parallel_mask(seq, "concat")
    # c(2) tokens (rows 3,4) read Mem(1) = h(1) and no column of step 1
    assert allowed[3:5, 0].all() and not allowed[3:5, 1].any()
    assert not allowed[3:5, 2:5].any()
    # I/O rows (6,7) read both memory columns and no token before them
    assert allowed[6:8, 0:2].all() and not allowed[6:8, 2:8].any()


# ---------------------------------------------------------------------------
# parallel memory update


@pytest.mark.parametrize("policy", ["none", "lru"])
@pytest.mark.parametrize("entry", ["ContextMemory", "Recipe", "build_parallel_mask",
                                   "recursive_reference_forward", "training_forward"])
def test_a_policy_without_a_fold_rule_gets_one_message_everywhere(tiny_model64, entry,
                                                                  policy):
    # a baseline that folds nothing is a session, not a memory policy
    sample = random_sample(np.random.default_rng(5), 2, TINY.comp_token_id)
    seq = build_training_sequence(sample, s=1, t=2, comp_token_id=TINY.comp_token_id)
    adapters = make_adapters(tiny_model64, 1)
    run = {"ContextMemory": lambda: ContextMemory(policy),
           "Recipe": lambda: Recipe(policy=policy),
           "build_parallel_mask": lambda: build_parallel_mask(seq, policy),
           "recursive_reference_forward":
               lambda: recursive_reference_forward(tiny_model64, adapters, sample, policy, 2),
           "training_forward": lambda: training_forward(tiny_model64, adapters, seq, policy)}
    with pytest.raises(UsageError, match=f"^policy '{policy}' has no memory update rule$"):
        run[entry]()


def test_parallel_update_merge_cumulative_means():
    h = T.Tensor(np.array([[3.0], [6.0], [9.0]]))
    keys, values = parallel_memory_update(h, h, 1, "merge", [3])
    assert keys.data[:, 0] == pytest.approx([3.0, 4.5, 6.0])
    assert values.data[:, 0] == pytest.approx([3.0, 4.5, 6.0])


def test_parallel_update_concat_widths():
    # growing policies read Mem(j) as the first j*s rows: the columns are the
    # compression rows themselves, with no op on the tape
    rng = np.random.default_rng(3)
    k, v = (T.Tensor(rng.standard_normal((6, 4))) for _ in range(2))
    for policy in ("concat", "independent"):
        keys, values = parallel_memory_update(k, v, 2, policy, [3])
        assert keys is k and values is v
    for policy in ("merge", "ema"):
        keys, values = parallel_memory_update(k, v, 2, policy, [3])
        assert keys.shape == values.shape == (6, 4)


@pytest.mark.parametrize("policy", MEMORY_POLICIES)
def test_parallel_update_matches_online(policy):
    # the parallel pass and the online update apply one fold rule: every
    # Mem(j), keys and values, agrees in float64 (the first j*s columns of a
    # growing policy, column block j of a merged one)
    rng = np.random.default_rng(4)
    t, s, d = 5, 2, 3
    raw = [(rng.standard_normal((1, s, d)), rng.standard_normal((1, s, d)))
           for _ in range(t)]
    keys, values = parallel_memory_update(
        T.Tensor(np.concatenate([k[0] for k, _ in raw])),
        T.Tensor(np.concatenate([v[0] for _, v in raw])), s, policy, [t])

    assert keys.shape == values.shape == (t * s, d)
    grows = policy in ("concat", "independent")
    online = ContextMemory(policy)
    for j, (k, v) in enumerate(raw, start=1):
        online = online.updated(KVLayout(k, v))
        cols = slice(0, j * s) if grows else slice((j - 1) * s, j * s)
        np.testing.assert_allclose(keys.data[cols], online.entries.keys[0], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(values.data[cols], online.entries.values[0], rtol=0,
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# the equivalence oracle


@pytest.mark.parametrize("policy", ["concat", "merge", "ema", "independent"])
@pytest.mark.parametrize("t,s", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_parallel_equals_recursive(policy, t, s, tiny_model64):
    rng = np.random.default_rng(1000 * t + s)
    adapters = make_adapters(tiny_model64, s, seed=t * 7 + s)
    sample = random_sample(rng, t, TINY.comp_token_id)
    seq = build_training_sequence(sample, s=s, t=t,
                                  comp_token_id=TINY.comp_token_id)
    _, logits = training_forward(tiny_model64, adapters, seq, policy)
    lo, hi = seq.io_range
    rec = recursive_reference_forward(tiny_model64, adapters, sample, policy, t)
    assert np.abs(logits.data[lo:hi] - rec.io_logits).max() < 1e-8


_PROPERTY_MODEL = ToyLM.init(TINY, seed=7, dtype=np.float64)


@settings(max_examples=30, deadline=None)
@given(training_cases())
def test_parallel_equals_recursive_property(drawn):
    policy, t, s, sample = drawn
    adapters = make_adapters(_PROPERTY_MODEL, s, seed=t * 7 + s)
    seq = build_training_sequence(sample, s=s, t=t, comp_token_id=TINY.comp_token_id)
    _, logits = training_forward(_PROPERTY_MODEL, adapters, seq, policy)
    rec = recursive_reference_forward(_PROPERTY_MODEL, adapters, sample, policy, t)
    lo, hi = seq.io_range
    assert np.abs(logits.data[lo:hi] - rec.io_logits).max() < 1e-8


def test_compressed_slots_match_oracle(tiny_model64):
    """h(j) extracted from the parallel pass equals the recursive slots."""
    t, s = 3, 2
    rng = np.random.default_rng(42)
    adapters = make_adapters(tiny_model64, s, seed=9)
    sample = random_sample(rng, t, TINY.comp_token_id)
    seq = build_training_sequence(sample, s=s, t=t,
                                  comp_token_id=TINY.comp_token_id)

    # reach into the parallel pass by re-running the recursive compressor
    rec = recursive_reference_forward(tiny_model64, adapters, sample, "concat", t)

    # the parallel pass exposes comp KVs only as layer activations; compare
    # by feeding the recursive memory layout into a forward over I/O tokens
    segments, inputs, outputs = sample
    layout = rec.memory.layout(tiny_model64)
    tokens = np.concatenate([inputs, outputs])
    logits, _ = tiny_model64.forward(tokens, layout, adapters=adapters)
    _, par_logits = training_forward(tiny_model64, adapters, seq, "concat")
    lo, hi = seq.io_range
    np.testing.assert_allclose(par_logits.data[lo:hi], logits.data, atol=1e-8)


def test_time_locality(tiny_model64):
    """Logits at step j ignore segments j+1..t."""
    t, s = 3, 1
    rng = np.random.default_rng(11)
    adapters = make_adapters(tiny_model64, s, seed=11)
    segments, inputs, outputs = random_sample(rng, t, TINY.comp_token_id)
    seq = build_training_sequence((segments, inputs, outputs), s=s, t=t,
                                  comp_token_id=TINY.comp_token_id)
    _, logits = training_forward(tiny_model64, adapters, seq, "concat")

    altered = [seg.copy() for seg in segments]
    altered[2] = (altered[2] + 1) % TINY.comp_token_id
    seq2 = build_training_sequence((altered, inputs, outputs), s=s, t=t,
                                   comp_token_id=TINY.comp_token_id)
    _, logits2 = training_forward(tiny_model64, adapters, seq2, "concat")
    upto = seq.bounds[2]  # end of step-2 block
    assert np.array_equal(logits.data[:upto], logits2.data[:upto])
    assert not np.allclose(logits.data[seq.io_range[0]:], logits2.data[seq2.io_range[0]:])


def test_context_reaches_logits_only_via_memory(tiny_model64):
    """Perturbing c(1) moves I/O logits; hiding the memory removes the effect."""
    t, s = 2, 1
    rng = np.random.default_rng(12)
    adapters = make_adapters(tiny_model64, s, seed=12)
    segments, inputs, outputs = random_sample(rng, t, TINY.comp_token_id)
    seq = build_training_sequence((segments, inputs, outputs), s=s, t=t,
                                  comp_token_id=TINY.comp_token_id)
    _, logits_a = training_forward(tiny_model64, adapters, seq, "concat")

    altered = [seg.copy() for seg in segments]
    altered[0] = (altered[0] + 3) % TINY.comp_token_id
    seq_b = build_training_sequence((altered, inputs, outputs), s=s, t=t,
                                    comp_token_id=TINY.comp_token_id)
    _, logits_b = training_forward(tiny_model64, adapters, seq_b, "concat")
    io = slice(seq.io_range[0], seq.io_range[1])
    assert not np.allclose(logits_a.data[io], logits_b.data[io])

    # independent policy without memory at I/O: route the check through the
    # recursive path with a no-context inference
    tokens = np.concatenate([inputs, outputs])
    empty = tiny_model64.empty_layout()
    base, _ = tiny_model64.forward(tokens, empty, adapters=adapters)
    base2, _ = tiny_model64.forward(tokens, empty, adapters=adapters)
    assert np.array_equal(base.data, base2.data)


def test_loss_positive_and_zero_init_identity(tiny_model64):
    t, s = 2, 1
    rng = np.random.default_rng(13)
    sample = random_sample(rng, t, TINY.comp_token_id)
    seq = build_training_sequence(sample, s=s, t=t,
                                  comp_token_id=TINY.comp_token_id)
    fresh = AdapterSet.init(tiny_model64, comp_len=s, seed=13)
    loss, _ = training_forward(tiny_model64, fresh, seq, "concat")
    assert np.isfinite(loss.item()) and loss.item() > 0

    # fresh adapters (B = 0) must match an adapter-free masked forward
    class NoAdapters:
        comp_len = s
        comp_embedding = fresh.comp_embedding
        pairs = {}

    loss2, _ = training_forward(tiny_model64, NoAdapters(), seq, "concat")
    assert loss.item() == pytest.approx(loss2.item(), abs=1e-12)


def test_adapter_gradient_vs_finite_differences(tiny_model64):
    # t=3, s=2: later steps read weighted memory columns that share positions
    t, s = 3, 2
    rng = np.random.default_rng(14)
    tiny_model64.freeze()
    adapters = make_adapters(tiny_model64, s, seed=14)
    sample = random_sample(rng, t, TINY.comp_token_id)
    seq = build_training_sequence(sample, s=s, t=t,
                                  comp_token_id=TINY.comp_token_id)
    params = trainable_parameters(tiny_model64, adapters)
    for policy in MEMORY_POLICIES:
        def f():
            loss, _ = training_forward(tiny_model64, adapters, seq, policy)
            return loss

        err = finite_difference_check(f, params, n_samples=24, eps=1e-5, seed=0)
        assert err < 1e-3, policy


def test_grouped_pack_gradient_vs_finite_differences(tiny_model64, monkeypatch):
    # sequences of one t and segment lengths share a mask shape, so their
    # attention blocks run as one batch; the third sequence stays a group of one
    s = 2
    tiny_model64.freeze()
    adapters = make_adapters(tiny_model64, s, seed=16)
    rng = np.random.default_rng(16)
    seqs = [build_training_sequence(random_sample(rng, t, TINY.comp_token_id, seg_lens=(3, 4)),
                                    s=s, t=t, comp_token_id=TINY.comp_token_id)
            for t in (2, 2, 3)]
    made = []
    blocks = T.Blocks

    def recording(parts):
        made.append(blocks(parts))
        return made[-1]

    monkeypatch.setattr(T, "Blocks", recording)
    params = trainable_parameters(tiny_model64, adapters)
    for policy in MEMORY_POLICIES:
        err = finite_difference_check(
            lambda: training_forward(tiny_model64, adapters, Pack(seqs), policy)[0],
            params, n_samples=24, eps=1e-5, seed=1)
        assert err < 1e-3, policy
    assert made and all(len(b.groups) == 2 for b in made)


def test_training_forward_tape_does_not_grow_with_t(tiny_model64, monkeypatch):
    # one masked attention per layer: the tape of a concat forward has the
    # same node count at t=2 and t=12 when every segment is equally long
    tiny_model64.freeze()
    adapters = make_adapters(tiny_model64, 2, seed=15)
    init = T.Tensor.__init__
    nodes = []

    def counting_init(obj, data, requires_grad=False, _parents=(), _backward=None):
        init(obj, data, requires_grad, _parents, _backward)
        nodes[-1] += _backward is not None

    monkeypatch.setattr(T.Tensor, "__init__", counting_init)
    for t in (2, 12):
        sample = random_sample(np.random.default_rng(t), t, TINY.comp_token_id,
                               seg_lens=(4, 5))
        seq = build_training_sequence(sample, s=2, t=t,
                                      comp_token_id=TINY.comp_token_id)
        nodes.append(0)
        training_forward(tiny_model64, adapters, seq, "concat")
    assert nodes[0] == nodes[1] > 0


# ---------------------------------------------------------------------------
# packs: several sequences in one forward


@st.composite
def pack_cases(draw):
    """(policy, s, samples): 2..4 samples, each with its own t in 1..4 and
    segments of 1..6 ids."""
    policy = draw(st.sampled_from(MEMORY_POLICIES))
    s = draw(st.integers(1, 3))
    ids = st.integers(0, TINY.comp_token_id - 1)
    samples = []
    for _ in range(draw(st.integers(2, 4))):
        t = draw(st.integers(1, 4))
        segments = [np.array(draw(st.lists(ids, min_size=1, max_size=6)))
                     for _ in range(t)]
        inputs = np.array(draw(st.lists(ids, min_size=1, max_size=3)))
        outputs = np.array(draw(st.lists(ids, min_size=1, max_size=3)))
        samples.append((t, (segments, inputs, outputs)))
    return policy, s, samples


_PACK_MODEL = ToyLM.init(TINY, seed=8, dtype=np.float64)
_PACK_MODEL.freeze()


def loss_logits_grads(adapters, seq, policy):
    params = adapters.parameters()
    for p in params:
        p.zero_grad()
    loss, logits = training_forward(_PACK_MODEL, adapters, seq, policy)
    loss.backward()
    return loss.item(), logits.data, [p.grad.copy() for p in params]


@settings(max_examples=30, deadline=None)
@given(pack_cases())
def test_pack_equals_its_sequences_one_by_one(drawn):
    # each sequence's rows of the packed logits are its own forward's, and
    # the pack's adapter gradients are the mean of the sequences' gradients
    policy, s, samples = drawn
    adapters = make_adapters(_PACK_MODEL, s, seed=len(samples) * 7 + s)
    seqs = [build_training_sequence(sample, s=s, t=t, comp_token_id=TINY.comp_token_id)
            for t, sample in samples]
    alone = [loss_logits_grads(adapters, seq, policy) for seq in seqs]
    loss, logits, grads = loss_logits_grads(adapters, Pack(seqs), policy)
    lo = 0
    for seq, (_, want, _) in zip(seqs, alone):
        np.testing.assert_allclose(logits[lo:lo + seq.n_tokens], want, rtol=0, atol=1e-12)
        lo += seq.n_tokens
    assert loss == pytest.approx(np.mean([a[0] for a in alone]), rel=1e-12)
    for i, got in enumerate(grads):
        want = np.mean([a[2][i] for a in alone], axis=0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def mean_output_nll(logits, tokens, n_out):
    """Mean NLL of the last ``n_out`` tokens, each read from the row before it."""
    rows = np.arange(tokens.size - n_out - 1, tokens.size - 1)
    z = logits[rows] - logits[rows].max(axis=1, keepdims=True)
    return np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(n_out), tokens[rows + 1]])


@settings(max_examples=30, deadline=None)
@given(pack_cases())
def test_sequence_bounds_and_its_loss_over_o(drawn):
    # a sequence is its tokens and step bounds: each compression step ends in
    # s comp ids and the last step is I then O; the loss is the mean NLL of
    # O's tokens, alone and averaged over the sequences of a pack
    policy, s, samples = drawn
    comp = TINY.comp_token_id
    adapters = make_adapters(_PACK_MODEL, s, seed=s)
    seqs = [build_training_sequence(sample, s=s, t=t, comp_token_id=comp)
            for t, sample in samples]
    for seq, (t, (segments, inputs, outputs)) in zip(seqs, samples):
        b = seq.bounds
        assert seq.t == t and len(b) == t + 2 and b[0] == 0
        assert b[-1] == seq.n_tokens == seq.tokens.size and seq.n_out == outputs.size
        for j, seg in enumerate(segments):
            np.testing.assert_array_equal(seq.tokens[b[j]:b[j + 1]], np.r_[seg, [comp] * s])
        np.testing.assert_array_equal(seq.tokens[b[t]:], np.r_[inputs, outputs])
        assert seq.io_range == tuple(b[-2:])
        loss, logits = training_forward(_PACK_MODEL, adapters, seq, policy)
        assert loss.item() == pytest.approx(
            mean_output_nll(logits.data, seq.tokens, outputs.size), rel=1e-12)
    loss, logits = training_forward(_PACK_MODEL, adapters, Pack(seqs), policy)
    want, lo = [], 0
    for seq, (_, (_, _, outputs)) in zip(seqs, samples):
        want.append(mean_output_nll(logits.data[lo:lo + seq.n_tokens], seq.tokens,
                                    outputs.size))
        lo += seq.n_tokens
    assert loss.item() == pytest.approx(np.mean(want), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 80), min_size=1, max_size=12))
def test_packs_hold_at_most_twice_the_longest_sequence(lengths):
    seqs = [SimpleNamespace(n_tokens=n) for n in lengths]
    packs = pack_sequences(seqs)
    assert sorted(id(q) for p in packs for q in p.seqs) == sorted(map(id, seqs))
    assert all(p.n_tokens <= 2 * max(lengths) for p in packs)


def test_train_step_is_the_batch_mean_over_packs(tiny_model64, monkeypatch):
    # a step's reported loss and the gradient Adam gets are the means over
    # the batch of each sequence's own, however the batch was packed
    tiny_model64.freeze()
    adapters = make_adapters(tiny_model64, 2, seed=16)
    sampler = _const_sampler(TINY.comp_token_id, 4)
    recipe = Recipe(steps=1, batch=5, T=4, s=2, policy="merge", seed=3)
    rng = np.random.default_rng(derive_seed(recipe.seed, "compress-order"))
    params = trainable_parameters(tiny_model64, adapters)
    seqs, losses, grads = [], [], []
    for _ in range(recipe.batch):  # the step's draws, replayed
        t = int(rng.integers(1, recipe.T + 1))
        seqs.append(build_training_sequence(sampler(rng, t), 2, t, TINY.comp_token_id))
        for p in params:
            p.zero_grad()
        loss, _ = training_forward(tiny_model64, adapters, seqs[-1], recipe.policy)
        loss.backward()
        losses.append(loss.item())
        grads.append([p.grad.copy() for p in params])
    assert 1 < len(pack_sequences(seqs)) < recipe.batch
    stepped = []
    monkeypatch.setattr(Adam, "step",
                        lambda opt, lr: stepped.append([p.grad.copy() for p in opt.params]))
    rows = train_compression(tiny_model64, adapters, sampler, recipe)
    assert rows[0]["loss"] == pytest.approx(np.mean(losses), rel=1e-12)
    for i, got in enumerate(stepped[0]):
        np.testing.assert_allclose(got, np.mean([g[i] for g in grads], axis=0),
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# training loops


def _const_sampler(vocab_hi, t_max):
    rng_data = np.random.default_rng(77)
    pool = [random_sample(rng_data, t_max, vocab_hi) for _ in range(8)]

    def sampler(rng, t):
        return pool[int(rng.integers(len(pool)))]

    return sampler


def test_train_compression_decreases_loss_and_freezes_base():
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64, vocab_size=32,
                      max_layout=256)
    model = ToyLM.init(cfg, seed=1, dtype=np.float32)
    model.freeze()
    adapters = AdapterSet.init(model, rank=4, alpha=8.0, comp_len=1, seed=1)
    base_before = {n: p.data.copy() for n, p in model.params.items()}
    recipe = Recipe(steps=30, batch=2, lr=3e-3, T=2, s=1, policy="concat", seed=5)
    rows = train_compression(model, adapters, _const_sampler(cfg.comp_token_id, 2),
                             recipe)
    assert len(rows) == 30
    first = np.mean([r["loss"] for r in rows[:5]])
    last = np.mean([r["loss"] for r in rows[-5:]])
    assert last < first
    for name, before in base_before.items():
        np.testing.assert_array_equal(model.params[name].data, before)


def test_train_compression_updates_loaded_adapters(tmp_path, tiny_model64):
    # loaded adapters come back frozen; training must thaw what it optimizes,
    # so they train exactly like the trainable adapters they were saved from
    tiny_model64.freeze()
    fresh = make_adapters(tiny_model64, s=1, seed=3)
    fresh.save(tmp_path / "adapters.ckpt")
    loaded = AdapterSet.load(tmp_path / "adapters.ckpt", tiny_model64)
    assert not any(p.requires_grad for p in loaded.parameters())
    before = {p.name: p.data.copy() for p in loaded.parameters()}
    recipe = Recipe(steps=1, batch=2, lr=1e-2, T=2, s=1, policy="concat", seed=4)
    for adapters in (fresh, loaded):
        train_compression(tiny_model64, adapters, _const_sampler(20, 2), recipe)
    for a, b in zip(fresh.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(loaded.comp_embedding.data,
                              before[loaded.comp_embedding.name])
    assert not np.array_equal(loaded.pairs[(0, "k")].a.data,
                              before[loaded.pairs[(0, "k")].a.name])


def test_pretrain_runs_and_improves():
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64, vocab_size=32,
                      max_layout=256)
    model = ToyLM.init(cfg, seed=2, dtype=np.float32)
    rng_data = np.random.default_rng(3)
    fixed = rng_data.integers(0, 8, size=12)

    def sampler(rng):
        return fixed, np.ones(fixed.size)  # a memorizable sequence

    recipe = Recipe(steps=40, batch=2, lr=3e-3, seed=6)
    rows = pretrain(model, sampler, recipe)
    assert rows[-1]["loss"] < rows[0]["loss"] * 0.7


def test_pretrain_rejects_the_comp_id_before_any_step():
    # a sampler's sequence holding the reserved comp id used to train it as
    # data, moving the comp id's embedding row
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=24,
                      max_layout=64)
    model = ToyLM.init(cfg, seed=2, dtype=np.float32)
    before = {p.name: p.data.copy() for p in model.parameters()}

    def sampler(rng):
        return [1, 23, 2, 23, 3], np.ones(5)

    with pytest.raises(DataError, match="reserved comp id"):
        pretrain(model, sampler, Recipe(steps=3, batch=1, seed=6))
    for p in model.parameters():
        np.testing.assert_array_equal(p.data, before[p.name])
