"""Session and streaming contracts: KV accounting, policy growth laws,
budget caps, and the equal-budget sliding baseline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccm import engine
from ccm.engine import (STREAM_POLICIES, Session, StreamCaps, StreamState,
                        evaluate_multichoice, evaluate_perplexity, multichoice_scores,
                        streaming_step)
from ccm.errors import CapacityError, ContractViolation, DataError, UsageError
from ccm.lora import AdapterSet
from ccm.model import ModelConfig, ToyLM
from ccm.tensor import log_softmax_rows
from ccm.training import recursive_reference_forward
from conftest import TINY, random_sample


@pytest.fixture
def model(tiny_model64):
    return tiny_model64


@pytest.fixture
def adapters(model):
    a = AdapterSet.init(model, rank=4, alpha=8.0, comp_len=2, seed=0)
    rng = np.random.default_rng(0)
    for pair in a.pairs.values():
        pair.b.data[...] = 0.05 * rng.standard_normal(pair.b.data.shape)
    return a


_PROPERTY_MODEL = ToyLM.init(TINY, seed=7, dtype=np.float64)


CHOICES = [[6], [8], [11]]


def run_session(model, adapters, policy, segments, inputs):
    """Ingest each segment, then score ``CHOICES`` after ``inputs``: the online
    loop. Returns the session and, per step, (scores, compression peak)."""
    session = Session(model, adapters, policy)
    steps = []
    for seg in segments:
        comp_peak = session.ingest(seg)
        steps.append((multichoice_scores(session, inputs, CHOICES), comp_peak))
    return session, steps


def prefix_oracle(session, inputs, choices) -> list[float]:
    """Each choice token's log-prob from its own prefix forward, then the mean."""
    prompt = np.concatenate(session._prompt + [inputs])
    layout = session.memory.layout(session.model)
    want = []
    for choice in choices:
        logps = []
        for j, tok in enumerate(choice):
            logits, _ = session.model.forward(np.concatenate([prompt, choice[:j]]),
                                              layout, adapters=session.adapters)
            logps.append(log_softmax_rows(logits.data)[-1, tok])
        want.append(np.mean(logps))
    return want


def record_forwards(monkeypatch, calls: list | None = None) -> list[int]:
    """Entries every frame of every later ``ToyLM.forward`` call holds: its
    w memory columns plus its n tokens, a layout's one frame its entries
    plus the tokens. ``calls``, if given, gets one entry per call."""
    held = []
    forward = ToyLM.forward

    def recording(self, tokens, memory, *args, frames=None, **kwargs):
        held.extend([memory.n_entries + len(tokens)] if frames is None
                    else [f.w + f.n for f in frames])
        if calls is not None:
            calls.append(frames)
        return forward(self, tokens, memory, *args, frames=frames, **kwargs)

    monkeypatch.setattr(ToyLM, "forward", recording)
    return held


# ---------------------------------------------------------------------------
# growth laws and measured counts


def test_session_growth_laws(model, adapters):
    rng = np.random.default_rng(1)
    segments = [rng.integers(0, 20, size=5) for _ in range(4)]
    inputs = rng.integers(0, 20, size=3)
    s = adapters.comp_len

    concat, _ = run_session(model, adapters, "concat", segments, inputs)
    assert concat.context_entries == 4 * s

    merge, _ = run_session(model, adapters, "merge", segments, inputs)
    assert merge.context_entries == s

    full, _ = run_session(model, adapters, "full", segments, inputs)
    assert full.context_entries == sum(len(x) for x in segments)


def test_measured_counts_match_analytic(monkeypatch, model, adapters):
    # a step's compression and scoring are one forward: its first sequence
    # [memory read | segment | slots] holds the ingest peak, and its every
    # choice sequence [inputs | one-token choice] holds Mem(t) plus l_i =
    # inputs + 1; full compresses nothing and re-reads its raw context
    from ccm.complexity import ComplexityParams, kv_entries
    rng = np.random.default_rng(2)
    l_c, n_in = 5, 2
    segments = [rng.integers(0, 20, size=l_c) for _ in range(3)]
    inputs = rng.integers(0, 20, size=n_in)
    s = adapters.comp_len
    calls = []
    held = record_forwards(monkeypatch, calls)

    method_for = {"concat": "ccm_concat", "merge": "ccm_merge",
                  "full": "full", "fixed": "fixed_comp"}
    for policy, method in method_for.items():
        session = Session(model, adapters, policy)
        for t, seg in enumerate(segments, start=1):
            comp_peak = session.ingest(seg)
            held.clear()
            calls.clear()
            multichoice_scores(session, inputs, CHOICES)
            assert len(calls) == 1, (policy, t)
            params = ComplexityParams(t=t, l_c=l_c, l_i=n_in + 1, s=s,
                                      n_layers=TINY.n_layers, d_model=TINY.d_model)
            assert comp_peak == kv_entries(params, method, "compression"), (policy, t)
            assert held == [comp_peak] * (policy != "full") \
                + [kv_entries(params, method, "inference")] * len(CHOICES), (policy, t)


@pytest.mark.parametrize("policy", engine.SESSION_POLICIES)
def test_ingest_peak_is_what_its_forwards_hold(monkeypatch, model, adapters, policy):
    # the reported compression peak counts only the entries a forward reads:
    # an independent compressor does not read the memory. The segment is
    # compressed by the next forward: as the first sequence of the scoring
    # pack, on a read of the memory, or first thing in the next ingest
    # (fixed drops it there instead, as it recompresses the whole context)
    held = record_forwards(monkeypatch)
    rng = np.random.default_rng(6)
    session = Session(model, adapters, policy)
    compresses = policy not in ("none", "full")

    def ingest():
        peak = session.ingest(rng.integers(0, 20, size=5))
        held.clear()
        return peak

    for _ in range(2):
        peak = ingest()
        multichoice_scores(session, [1, 2], CHOICES)
        assert held[:compresses] == [peak] * compresses
        peak = ingest()
        session.memory  # a read compresses the pending segment
        assert max(held, default=0) == peak
        peak = ingest()
        second = session.ingest(rng.integers(0, 20, size=5))
        assert max(held, default=0) == peak * (policy != "fixed")
        held.clear()
        session.memory
        assert max(held, default=0) == second


def test_none_policy_ignores_context(model, adapters):
    rng = np.random.default_rng(3)
    inputs = rng.integers(0, 20, size=3)
    segs_a = [rng.integers(0, 20, size=4) for _ in range(3)]
    segs_b = [rng.integers(0, 20, size=4) for _ in range(3)]
    a, steps_a = run_session(model, adapters, "none", segs_a, inputs)
    _, steps_b = run_session(model, adapters, "none", segs_b, inputs)
    for (scores_a, _), (scores_b, _) in zip(steps_a, steps_b):
        np.testing.assert_array_equal(scores_a, scores_b)
    assert a.context_entries == 0


def test_session_matches_recursive_oracle(model, adapters):
    rng = np.random.default_rng(4)
    segments, inputs, outputs = random_sample(rng, 3, 20, n_inputs=2, n_outputs=1)
    session = Session(model, adapters, "concat")
    for seg in segments:
        session.ingest(seg)
    # every data id is a choice; the comp id is none
    pred = evaluate_multichoice(session, inputs, [[c] for c in range(TINY.comp_token_id)])

    rec = recursive_reference_forward(model, adapters, (segments, inputs, outputs),
                                      "concat", 3)
    # the oracle's row for the last input token predicts the first output token
    assert int(rec.io_logits[len(inputs) - 1, :TINY.comp_token_id].argmax()) == pred
    # and the session memory equals the oracle memory exactly
    np.testing.assert_array_equal(session.memory.layout(model).keys,
                                  rec.memory.layout(model).keys)


def test_inference_from_checkpoints_records_no_tape(tmp_path, monkeypatch,
                                                    model, adapters):
    model.save(tmp_path / "model.ckpt")
    adapters.save(tmp_path / "adapters.ckpt")
    model = ToyLM.load(tmp_path / "model.ckpt")
    loaded = AdapterSet.load(tmp_path / "adapters.ckpt", model)
    logits = []
    forward = ToyLM.forward

    def recording(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        logits.append(out[0])
        return out

    monkeypatch.setattr(ToyLM, "forward", recording)
    session = Session(model, loaded, "concat")
    for seg in ([1, 2, 3], [4, 5]):
        session.ingest(seg)
        evaluate_multichoice(session, [6, 7], [[8], [9]])
    evaluate_perplexity(model, loaded, "concat", np.arange(40) % 20, SMALL_CAPS)
    # the session's 2 steps, each one forward that compresses and scores; the
    # stream's spans of 22 (sink and window), 8, 8 and 2 tokens, each of the
    # last 3 one forward with the compression before it
    assert len(logits) == 2 + 4
    assert [x.shape[0] for x in logits[2:]] == [22, 2 + 8, 2 + 8, 2 + 2]
    assert not any(x.requires_grad or x._backward for x in logits)


# ---------------------------------------------------------------------------
# multichoice


def test_multichoice_tie_breaks_low_index(model, adapters):
    session = Session(model, adapters, "none")
    session.ingest([1, 2, 3])
    assert evaluate_multichoice(session, [4, 5], [[7], [7], [7]]) == 0


def test_multichoice_single_tokens_reduce_to_argmax(model, adapters):
    session = Session(model, adapters, "none")
    session.ingest([1, 2, 3])
    inputs = np.array([4, 5])
    logits, _ = model.forward(inputs, model.empty_layout(), adapters=adapters)
    choices = [[6], [8], [11]]
    by_logit = int(np.argmax([logits.data[-1, c[0]] for c in choices]))
    assert evaluate_multichoice(session, inputs, choices) == by_logit


def test_multichoice_scores_are_the_oracle_log_probs(model, adapters):
    # single-token choices: the oracle's last input row scores every choice
    rng = np.random.default_rng(12)
    segments, inputs, _ = random_sample(rng, 4, 20, n_inputs=3)
    choices = [6, 8, 11, 13]
    session = Session(model, adapters, "concat")
    for t, seg in enumerate(segments, start=1):
        session.ingest(seg)
        scores = multichoice_scores(session, inputs, [[c] for c in choices])
        ref = recursive_reference_forward(model, adapters,
                                          (segments[:t], inputs, [choices[0]]),
                                          "concat", t)
        want = log_softmax_rows(ref.io_logits)[len(inputs) - 1, choices]
        np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)
        assert evaluate_multichoice(session, inputs, [[c] for c in choices]) \
            == int(np.argmax(want))


@settings(max_examples=15, deadline=None)
@given(policy=st.sampled_from(engine.SESSION_POLICIES), t=st.integers(0, 3),
       lengths=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       seed=st.integers(0, 99))
def test_multichoice_scores_property(policy, t, lengths, seed):
    # the packed scores against the per-token prefix oracle, under every policy
    adapters = AdapterSet.init(_PROPERTY_MODEL, rank=2, alpha=4.0, comp_len=2,
                               seed=seed)
    rng = np.random.default_rng(seed)
    session = Session(_PROPERTY_MODEL, adapters, policy)
    for _ in range(t):
        session.ingest(rng.integers(0, 20, size=3))
    inputs = rng.integers(0, 20, size=2)
    choices = [rng.integers(0, 20, size=n) for n in lengths]
    np.testing.assert_allclose(multichoice_scores(session, inputs, choices),
                               prefix_oracle(session, inputs, choices), rtol=0, atol=1e-10)


_PROPERTY_MODEL32 = ToyLM.init(TINY, seed=7, dtype=np.float32)
COMPRESSING = ("concat", "merge", "ema", "independent", "fixed")


def oracle_scores(model, adapters, policy, segments, inputs, choices):
    """Mean choice log-probs and Mem(t) from ``recursive_reference_forward``,
    one oracle run per choice; fixed compresses the whole context at once."""
    if policy == "fixed":
        policy, segments = "independent", [np.concatenate(segments)]
    scores = []
    for choice in choices:
        ref = recursive_reference_forward(model, adapters, (segments, inputs, choice),
                                          policy, len(segments))
        seq = np.concatenate([inputs, choice])
        rows = np.arange(inputs.size - 1, seq.size - 1)
        scores.append(log_softmax_rows(ref.io_logits)[rows, seq[rows + 1]].mean())
    return scores, ref.memory


@settings(max_examples=25, deadline=None)
@given(policy=st.sampled_from(COMPRESSING), dtype=st.sampled_from([np.float64, np.float32]),
       seg_lens=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       n_in=st.integers(1, 3), choice_lens=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       s=st.integers(1, 3), seed=st.integers(0, 99))
def test_one_forward_step_is_the_flush_path_and_the_oracle(policy, dtype, seg_lens, n_in,
                                                           choice_lens, s, seed):
    # a step's one forward compresses the pending segment and scores every
    # choice over the Mem(t) it folds at each layer: scores and memory are
    # bit for bit those of a flush (a read of the memory) then a scoring
    # forward, Mem(t) bit for bit the recursive oracle's, whose compressions
    # are plain forwards, and the scores the oracle's to float precision
    model = _PROPERTY_MODEL if dtype == np.float64 else _PROPERTY_MODEL32
    tol = 1e-10 if dtype == np.float64 else 1e-5
    adapters = AdapterSet.init(model, rank=2, alpha=4.0, comp_len=s, seed=seed)
    rng = np.random.default_rng(seed)
    for pair in adapters.pairs.values():
        pair.b.data[...] = 0.05 * rng.standard_normal(pair.b.data.shape)
    segments = [rng.integers(0, 20, size=n) for n in seg_lens]
    inputs = rng.integers(0, 20, size=n_in)
    choices = [rng.integers(0, 20, size=n) for n in choice_lens]
    fused, flushed = Session(model, adapters, policy), Session(model, adapters, policy)
    for t, seg in enumerate(segments, start=1):
        fused.ingest(seg)
        flushed.ingest(seg)
        flushed.memory  # compressed on its own, before the scoring forward
        got = multichoice_scores(fused, inputs, choices)
        assert fused.pending is None
        np.testing.assert_array_equal(got, multichoice_scores(flushed, inputs, choices))
        np.testing.assert_array_equal(fused.memory.entries.keys, flushed.memory.entries.keys)
        np.testing.assert_array_equal(fused.memory.entries.values,
                                      flushed.memory.entries.values)
        want, ref_memory = oracle_scores(model, adapters, policy, segments[:t], inputs,
                                         choices)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        np.testing.assert_array_equal(fused.memory.entries.keys, ref_memory.entries.keys)
        np.testing.assert_array_equal(fused.memory.entries.values, ref_memory.entries.values)


def test_empty_segment_is_rejected_where_it_enters(model, adapters):
    # the pending segment stays as it was, and no forward runs
    session = Session(model, adapters, "concat")
    session.ingest([1, 2, 3])
    pending = session.pending
    with pytest.raises(ContractViolation, match="non-empty segment"):
        session.ingest([])
    assert session.pending is pending and session.memory.count == 1


def test_bad_choices_leave_the_pending_segment(model, adapters):
    # every bad query raises before the step's forward takes the segment,
    # so the session scores as if it had never been asked
    rng = np.random.default_rng(15)
    segments = [rng.integers(0, 20, size=4) for _ in range(2)]
    inputs = rng.integers(0, 20, size=2)
    session, fresh = Session(model, adapters, "merge"), Session(model, adapters, "merge")
    for seg in segments:
        session.ingest(seg)
        fresh.ingest(seg)
        pending = session.pending
        for bad_inputs, bad_choices, error in (
                (inputs, [[6]], ContractViolation),
                (inputs, [[6], []], ContractViolation),
                ([], [[6], [7]], ContractViolation),
                (inputs, [[6], [TINY.vocab_size]], DataError),
                (inputs, [[6], [7] * TINY.max_layout], CapacityError)):
            with pytest.raises(error):
                multichoice_scores(session, bad_inputs, bad_choices)
            assert session.pending is pending
        np.testing.assert_array_equal(multichoice_scores(session, inputs, CHOICES),
                                      multichoice_scores(fresh, inputs, CHOICES))


@pytest.mark.parametrize("policy", COMPRESSING)
def test_context_entries_count_a_pending_segment_without_a_forward(monkeypatch, model,
                                                                   adapters, policy):
    rng = np.random.default_rng(16)
    session = Session(model, adapters, policy)
    session.ingest(rng.integers(0, 20, size=3))
    multichoice_scores(session, [1, 2], CHOICES)
    forward = ToyLM.forward
    monkeypatch.setattr(ToyLM, "forward", lambda *a, **k: pytest.fail("forward ran"))
    session.ingest(rng.integers(0, 20, size=3))  # the step before was scored
    pending = session.context_entries
    monkeypatch.setattr(ToyLM, "forward", forward)
    assert session.pending is not None
    assert pending == session.memory.entry_count == session.context_entries


def test_a_pack_may_pass_max_layout_but_no_sequence():
    # under full every choice re-reads the raw context: the pack's rows pass
    # max_layout while each sequence fits, and each still scores as its own
    model = ToyLM.init(replace(TINY, max_layout=16), seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    session = Session(model, None, "full")
    session.ingest(rng.integers(0, 20, size=8))
    inputs = rng.integers(0, 20, size=3)
    choices = [rng.integers(0, 20, size=n) for n in (2, 1, 5)]
    assert sum(11 + len(c) for c in choices) > 16
    np.testing.assert_allclose(multichoice_scores(session, inputs, choices),
                               prefix_oracle(session, inputs, choices), rtol=0, atol=1e-10)
    with pytest.raises(CapacityError):  # 11 + 6 entries in one sequence
        multichoice_scores(session, inputs, [[6], [7] * 6])


def test_multichoice_contracts(model, adapters):
    session = Session(model, adapters, "none")
    with pytest.raises(ContractViolation):
        evaluate_multichoice(session, [1], [[2]])
    with pytest.raises(ContractViolation):
        evaluate_multichoice(session, [1], [[2], []])
    # with no prompt or input, a choice's first token has no row to be
    # scored from; under full the raw context is that prompt
    with pytest.raises(ContractViolation):
        multichoice_scores(session, [], [[3], [4]])
    full = Session(model, None, "full")
    full.ingest([1, 2, 3])
    np.testing.assert_allclose(multichoice_scores(full, [], [[3], [4]]),
                               prefix_oracle(full, np.zeros(0, dtype=np.intp), [[3], [4]]),
                               rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# streaming


SMALL_CAPS = StreamCaps(n_sink=1, ccm_entries=4, window=21, chunk=8)


def test_stream_caps_paper_setting():
    caps = StreamCaps(n_sink=1, ccm_entries=8, window=151, chunk=64)
    assert caps.total == 160


def test_stream_caps_reject_chunk_over_window():
    with pytest.raises(UsageError):
        StreamCaps(n_sink=1, ccm_entries=4, window=4, chunk=8)


class RecordCompressions:
    """Collects the context and the slot group of every ``compress_from_kv``
    call the engine makes: the slot rows its forward fills in the layout."""

    def __enter__(self):
        self.contexts, self.groups = [], []
        self.orig = engine.compress_from_kv

        def recording(model, adapters, context, at, tokens, layout, cache):
            out = self.orig(model, adapters, context, at, tokens, layout, cache)
            self.contexts.append(context)
            self.groups.append(layout.entries(at, at + adapters.comp_len))
            return out

        engine.compress_from_kv = recording
        return self

    def __exit__(self, *exc):
        engine.compress_from_kv = self.orig


def stream_checked(model, adapters, caps, tokens) -> tuple[StreamState, int]:
    """Stream ``tokens``, checking the layout's three regions after every step;
    returns the state and the number of compression events.

    The sink holds the first ``n_sink`` tokens' KV, the compressed region the
    newest whole slot groups ``compress_from_kv`` wrote (as many as fit),
    and the window the newest tokens' KV; the total stays within the budget.
    Each compression reads [compressed region | oldest window chunk].
    """
    state = StreamState(model, adapters, caps)
    n_events = 0
    token_kv = []  # each token's KV is the last layout entry after its step
    with RecordCompressions() as rec:
        for tok in tokens:
            before, lo = state.layout, state.n_sink
            n_read = state.ccm_entry_count + caps.chunk
            _, kv_total, event = streaming_step(state, int(tok))
            n_events += event
            if event and caps.ccm_entries:
                read = rec.contexts[-1]
                np.testing.assert_array_equal(read.keys, before.keys[:, lo:lo + n_read])
                np.testing.assert_array_equal(read.values,
                                              before.values[:, lo:lo + n_read])
            layout = state.layout
            token_kv.append((layout.keys[:, -1], layout.values[:, -1]))
            assert kv_total == layout.n_entries <= caps.total
            n_sink, n_ccm, n_win = (state.n_sink, state.ccm_entry_count,
                                    state.window_entries)
            assert n_sink == min(len(token_kv), caps.n_sink)
            assert n_win <= caps.window
            n_groups = min(len(rec.groups), caps.ccm_entries // adapters.comp_len)
            groups = rec.groups[len(rec.groups) - n_groups:] if n_groups else []
            assert n_ccm == n_groups * adapters.comp_len
            sink = token_kv[:n_sink]
            window = token_kv[len(token_kv) - n_win:]
            want_k = [k[:, None] for k, _ in sink] + [g.keys for g in groups] \
                + [k[:, None] for k, _ in window]
            want_v = [v[:, None] for _, v in sink] + [g.values for g in groups] \
                + [v[:, None] for _, v in window]
            np.testing.assert_array_equal(layout.keys, np.concatenate(want_k, axis=1))
            np.testing.assert_array_equal(layout.values, np.concatenate(want_v, axis=1))
        assert len(rec.groups) == (n_events if caps.ccm_entries else 0)
    return state, n_events


def test_stream_budget_and_layout_order(model, adapters):
    rng = np.random.default_rng(6)
    state, n_events = stream_checked(model, adapters, SMALL_CAPS,
                                     rng.integers(0, 20, size=200))
    assert n_events > 0
    assert state.n_sink == SMALL_CAPS.n_sink


def test_stream_eviction_emits_oldest(model, adapters):
    rng = np.random.default_rng(7)
    state, n_events = stream_checked(model, adapters, SMALL_CAPS,
                                     rng.integers(0, 20, size=120))
    # older groups were evicted: the region keeps fewer groups than events
    assert n_events > state.ccm_entry_count // adapters.comp_len > 0


@settings(max_examples=20, deadline=None)
@given(n_sink=st.integers(0, 3), window=st.integers(1, 12),
       chunk_frac=st.floats(0.0, 1.0), s=st.integers(1, 3),
       n_tokens=st.integers(1, 40), seed=st.integers(0, 99), data=st.data())
def test_stream_regions_property(n_sink, window, chunk_frac, s, n_tokens, seed,
                                 data):
    # a region cap below one slot group is rejected by StreamState
    ccm_entries = data.draw(st.one_of(st.just(0), st.integers(s, 6)))
    chunk = 1 + int(chunk_frac * (window - 1))
    caps = StreamCaps(n_sink=n_sink, ccm_entries=ccm_entries, window=window,
                      chunk=chunk)
    adapters = AdapterSet.init(_PROPERTY_MODEL, rank=2, alpha=4.0, comp_len=s, seed=seed)
    rng = np.random.default_rng(seed)
    stream_checked(_PROPERTY_MODEL, adapters, caps, rng.integers(0, 20, size=n_tokens))


@pytest.mark.parametrize("bad", [{"chunk": 0}, {"chunk": -1}, {"ccm_entries": -1}])
def test_stream_caps_reject_values_that_break_the_budget(bad):
    # chunk 0 never drains the window; a negative region shrinks only the total
    with pytest.raises(UsageError):
        StreamCaps(**{"n_sink": 1, "ccm_entries": 4, "window": 8, "chunk": 4, **bad})


def test_stream_region_below_one_slot_group_is_rejected(model, adapters):
    # such a region evicts every group it compresses; the adapters' slot
    # count decides, and a region of zero is the sliding baseline
    caps = StreamCaps(n_sink=1, ccm_entries=adapters.comp_len - 1, window=8, chunk=4)
    with pytest.raises(UsageError, match="holds no group of 2 slots"):
        StreamState(model, adapters, caps)
    with pytest.raises(UsageError, match="needs trained adapters"):
        StreamState(model, None, SMALL_CAPS)
    StreamState(model, adapters, replace(caps, ccm_entries=adapters.comp_len))
    StreamState(model, None, replace(caps, ccm_entries=0))


def test_sliding_only_has_no_compression(model):
    caps = SMALL_CAPS.sliding_only()
    assert caps.ccm_entries == 0 and caps.total == SMALL_CAPS.total
    state = StreamState(model, None, caps)
    rng = np.random.default_rng(8)
    for tok in rng.integers(0, 20, size=120):
        _, kv_total, _ = streaming_step(state, int(tok))
        assert kv_total <= caps.total
    assert state.ccm_entry_count == 0


def test_stream_longer_than_the_model_layout_is_rejected_up_front(monkeypatch):
    # the layout a policy would hold is checked before the first forward
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=24,
                      max_layout=32)
    model = ToyLM.init(cfg, seed=0, dtype=np.float64)
    stream = np.random.default_rng(12).integers(0, 20, size=40)
    forwards = []
    monkeypatch.setattr(ToyLM, "forward", lambda *a, **k: forwards.append(a))
    with pytest.raises(UsageError, match="holds up to 40 entries.*max_layout 32"):
        evaluate_perplexity(model, None, "full", stream)
    caps = StreamCaps(n_sink=1, ccm_entries=0, window=100, chunk=8)
    with pytest.raises(UsageError, match="holds up to 40 entries.*max_layout 32"):
        evaluate_perplexity(model, None, "sliding", stream, caps)
    assert forwards == []
    monkeypatch.undo()
    # a budget within the layout streams any length; so does a full stream that fits
    caps = StreamCaps(n_sink=1, ccm_entries=0, window=31, chunk=8)
    assert evaluate_perplexity(model, None, "sliding", stream, caps).kv_totals.max() == 32
    assert evaluate_perplexity(model, None, "full", stream[:32]).kv_totals.max() == 32


@pytest.mark.parametrize("bad", [-1, 24, 99999])
def test_stream_token_outside_the_vocabulary_is_rejected_up_front(monkeypatch, bad):
    # the last token used to index the logits before any forward checked it
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=24)
    model = ToyLM.init(cfg, seed=0, dtype=np.float64)
    stream = np.append(np.random.default_rng(14).integers(0, 20, size=10), bad)
    forwards = []
    monkeypatch.setattr(ToyLM, "forward", lambda *a, **k: forwards.append(a))
    for policy in STREAM_POLICIES:
        with pytest.raises(DataError, match=f"token id {bad} outside vocabulary"):
            evaluate_perplexity(model, None, policy, stream, SMALL_CAPS)
    assert forwards == []


def test_stream_holding_the_comp_id_is_rejected_up_front(monkeypatch, model):
    # it was scored, the adapters firing on it and its embedding replaced
    stream = np.array([1, 2, TINY.comp_token_id, 3, 4])
    monkeypatch.setattr(ToyLM, "forward", lambda *a, **k: pytest.fail("a forward ran"))
    for policy in STREAM_POLICIES:
        with pytest.raises(DataError, match=f"token id {TINY.comp_token_id} outside "
                                            f"vocabulary.*reserved comp id"):
            evaluate_perplexity(model, None, policy, stream, SMALL_CAPS)


def test_session_rejects_the_comp_id_in_a_segment(model, adapters):
    for policy in ("concat", "full"):
        session = Session(model, adapters, policy)
        with pytest.raises(DataError, match="reserved comp id"):
            session.ingest([1, TINY.comp_token_id, 3])
        assert session.pending is None and session.raw_segments == []


@pytest.mark.parametrize("inputs, choices", [([4, TINY.comp_token_id], [[5], [6]]),
                                             ([4, 7], [[5], [TINY.comp_token_id]]),
                                             ([4, -1], [[5], [6]])])
def test_multichoice_rejects_the_comp_id_in_inputs_or_choices(monkeypatch, model, adapters,
                                                              inputs, choices):
    session = Session(model, adapters, "concat")
    session.ingest([1, 2, 3])
    monkeypatch.setattr(ToyLM, "forward", lambda *a, **k: pytest.fail("a forward ran"))
    with pytest.raises(DataError, match="outside vocabulary.*reserved comp id"):
        multichoice_scores(session, inputs, choices)
    assert session.pending is not None  # nothing compressed


def test_full_stream_matches_one_shot_forward(tiny_model64, tiny_model32):
    # token-by-token over a growing cache, with its rotated-key buffer, equals
    # teacher forcing in one forward
    stream = np.random.default_rng(13).integers(0, 20, size=60)
    for model, tol in ((tiny_model64, 1e-10), (tiny_model32, 1e-5)):
        logits, _ = model.forward(stream, model.empty_layout())
        want = -log_softmax_rows(logits.data)[np.arange(59), stream[1:]]
        nll = evaluate_perplexity(model, None, "full", stream).nll
        np.testing.assert_allclose(nll, want, rtol=0, atol=tol)


def test_stream_perplexity_accumulates_a_float32_nll_in_float64(tiny_model32):
    # a float32 running sum over 2,048 tokens drifts by about 3e-6 relative,
    # far past the 6 decimals ``ccm stream`` prints
    nll = np.random.default_rng(3).uniform(0, 8, 2048).astype(np.float32)
    want = np.exp(np.cumsum(nll, dtype=np.float64) / np.arange(1, nll.size + 1))
    result = engine.StreamResult(nll, np.ones(nll.size), np.zeros(nll.size))
    np.testing.assert_allclose(result.cumulative_perplexity(), want, rtol=1e-12, atol=0)
    stream = np.random.default_rng(13).integers(0, 20, size=300)
    result = evaluate_perplexity(tiny_model32, None, "full", stream)
    assert result.nll.dtype == np.float32
    assert result.perplexity == pytest.approx(np.exp(result.nll.mean(dtype=np.float64)),
                                              rel=1e-12, abs=0)


def test_uniform_model_perplexity_is_vocab_size():
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=24,
                      max_layout=64)
    model = ToyLM.init(cfg, seed=0, dtype=np.float64)
    model.params["head"].data[...] = 0.0  # exactly uniform next-token law
    rng = np.random.default_rng(9)
    stream = rng.integers(0, 20, size=40)
    result = evaluate_perplexity(model, None, "none", stream)
    assert result.perplexity == pytest.approx(24.0, rel=0.05)


def test_none_policy_predicts_from_the_previous_token_alone(model, adapters):
    rng = np.random.default_rng(11)
    stream = rng.integers(0, 20, size=30)
    result = evaluate_perplexity(model, adapters, "none", stream)
    want = [-log_softmax_rows(model.forward([prev], model.empty_layout(),
                                            adapters=adapters)[0].data)[0, tok]
            for prev, tok in zip(stream[:-1], stream[1:])]
    np.testing.assert_array_equal(result.nll, want)
    assert result.kv_totals.tolist() == [1] * stream.size


def test_perplexity_deterministic(model, adapters):
    rng = np.random.default_rng(10)
    stream = rng.integers(0, 20, size=80)
    a = evaluate_perplexity(model, adapters, "concat", stream, SMALL_CAPS)
    b = evaluate_perplexity(model, adapters, "concat", stream, SMALL_CAPS)
    np.testing.assert_array_equal(a.nll, b.nll)
    np.testing.assert_array_equal(a.kv_totals, b.kv_totals)


def test_full_vs_none_ordering_after_memorization():
    """A model trained on one looping sequence: context must help."""
    from ccm.training import Recipe, pretrain
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64, vocab_size=16,
                      max_layout=256)
    model = ToyLM.init(cfg, seed=1, dtype=np.float32)
    motif = np.array([1, 2, 3, 4, 5, 6, 7, 8])
    long = np.tile(motif, 12)

    def sampler(rng):
        lo = int(rng.integers(0, long.size - 24))
        return long[lo:lo + 24], np.ones(24)

    pretrain(model, sampler, Recipe(steps=60, batch=2, lr=3e-3, seed=2))
    stream = np.tile(motif, 6)
    full = evaluate_perplexity(model, None, "full", stream)
    none = evaluate_perplexity(model, None, "none", stream)
    assert full.perplexity <= none.perplexity
