"""Generator contracts: determinism, identity splits, label permutation,
motif recurrence statistics, and lossless serialization."""

import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccm.errors import DataError, UsageError
from ccm.model import ModelConfig
from ccm.taskgen import (ICLDataset, StreamVocab, VocabSpec,
                         gen_icl_dataset, gen_iid_stream, gen_stream,
                         read_dataset, stream_compression_sampler, write_icl_dataset,
                         write_stream_dataset)


def test_icl_deterministic_under_seed():
    a = gen_icl_dataset(20, T=4, n_classes=4, seed=11)
    b = gen_icl_dataset(20, T=4, n_classes=4, seed=11)
    assert a.train[3].segments == b.train[3].segments
    assert a.test[0].inputs == b.test[0].inputs
    c = gen_icl_dataset(20, T=4, n_classes=4, seed=12)
    assert a.train[3].segments != c.train[3].segments


def test_icl_identity_split_disjoint():
    ds = gen_icl_dataset(30, T=4, n_classes=4, seed=0)
    train_ids = {s.identity for s in ds.train}
    test_ids = {s.identity for s in ds.test}
    assert not train_ids & test_ids
    assert len(train_ids) + len(test_ids) == 30


def test_icl_segment_format():
    ds = gen_icl_dataset(5, T=6, n_classes=4, seed=1, pattern_len=4)
    v = ds.vocab
    for sample in ds.train:
        assert len(sample.segments) == 6
        for seg, inp, out in zip(sample.segments, sample.inputs, sample.outputs):
            assert len(seg) == 6  # pattern + sep + label
            assert seg[4] == v.sep_id
            assert v.n_pattern <= seg[5] < v.n_pattern + v.n_labels
            assert inp[-1] == v.sep_id
            assert len(out) == 1


def test_icl_labels_permuted_per_identity():
    """Marginal label frequency is uniform: no-context accuracy pins at 1/n."""
    ds = gen_icl_dataset(400, T=4, n_classes=4, seed=2)
    v = ds.vocab
    counts = np.zeros(v.n_labels)
    for sample in ds.train + ds.test:
        counts[sample.outputs[0][0] - v.n_pattern] += 1
    freq = counts[:4] / counts.sum()
    assert np.abs(freq - 0.25).max() < 0.06


def test_icl_mapping_consistent_within_identity():
    """Repeated demonstrations of a class always carry the same label."""
    ds = gen_icl_dataset(50, T=8, n_classes=8, seed=3)
    for sample in ds.train:
        seen: dict[tuple, int] = {}
        for seg in sample.segments:
            pattern = tuple(seg[:4])
            if pattern in seen:
                assert seen[pattern] == seg[-1]
            seen[pattern] = seg[-1]


def test_icl_query_answerable_from_demos():
    """Every step's query class was demonstrated in c(1..t)."""
    ds = gen_icl_dataset(50, T=8, n_classes=8, seed=4)
    for sample in ds.train:
        for t in range(1, 9):
            segments, inputs, outputs = sample.step_sample(t)
            pattern = tuple(inputs[:-1])
            matching = [seg for seg in segments if tuple(seg[:4]) == pattern]
            assert matching, "query must come from a demonstrated class"
            assert matching[0][-1] == outputs[0]


def test_class_count_guard():
    with pytest.raises(UsageError):
        gen_icl_dataset(5, T=2, n_classes=9, seed=0,
                        vocab=VocabSpec(n_pattern=16, n_labels=8))


# ---------------------------------------------------------------------------
# streams


def test_stream_deterministic_and_sized():
    a = gen_stream(2000, seed=5)
    b = gen_stream(2000, seed=5)
    assert a.tokens == b.tokens
    assert len(a.tokens) == 2000


def recurrence_distances(sample) -> np.ndarray:
    """Token gaps between consecutive occurrences of the same motif."""
    last: dict[int, int] = {}
    gaps = []
    for motif, pos in sample.motif_positions:
        if motif in last:
            gaps.append(pos - last[motif])
        last[motif] = pos
    return np.asarray(gaps, dtype=np.intp)


def test_stream_recurrence_beyond_window():
    sample = gen_stream(8000, seed=6)
    gaps = recurrence_distances(sample)
    assert gaps.size > 20
    frac_long = (gaps > 151).mean()
    assert frac_long >= 0.30


def test_iid_control_stream():
    sample = gen_iid_stream(3000, seed=7)
    assert len(sample.tokens) == 3000
    assert sample.motif_positions == []
    vocab = StreamVocab()
    assert max(sample.tokens) < vocab.n_content + vocab.n_noise


@pytest.mark.parametrize("gen", [gen_stream, gen_iid_stream])
def test_one_token_stream_is_not_generated(gen):
    # it used to be written to a file that read_dataset rejects
    with pytest.raises(UsageError, match="stream length 1 must be at least 2"):
        gen(1, seed=0)


# ---------------------------------------------------------------------------
# serialization


def test_icl_roundtrip(tmp_path):
    ds = gen_icl_dataset(12, T=3, n_classes=4, seed=8)
    path = tmp_path / "icl.jsonl"
    write_icl_dataset(path, ds)
    loaded = read_dataset(path)
    assert isinstance(loaded, ICLDataset)
    assert loaded.vocab == ds.vocab and loaded.T == ds.T
    assert [s.segments for s in loaded.train] == [s.segments for s in ds.train]
    assert [s.outputs for s in loaded.test] == [s.outputs for s in ds.test]


def test_stream_roundtrip(tmp_path):
    streams = [gen_stream(500, seed=9, identity=i) for i in range(2)]
    path = tmp_path / "stream.jsonl"
    write_stream_dataset(path, streams, StreamVocab(), seed=9)
    loaded, vocab, header = read_dataset(path)
    assert header["kind"] == "stream"
    assert loaded[1].tokens == streams[1].tokens
    assert loaded[0].motif_positions == streams[0].motif_positions


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    ds = gen_icl_dataset(3, T=2, n_classes=2, seed=10)
    write_icl_dataset(path, ds)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:10]  # truncate a record
    path.write_text("\n".join(lines))
    with pytest.raises(DataError, match=":3"):
        read_dataset(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "old.jsonl"
    header = {"format_version": 0, "kind": "icl", "seed": 0,
              "vocab": {"n_pattern": 4, "n_labels": 4}, "n_classes": 2, "T": 1,
              "pattern_len": 2}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(DataError, match="format version"):
        read_dataset(path)


@pytest.mark.parametrize("header", ["[1]", "5", '"icl"'])
def test_header_that_is_not_an_object_rejected(tmp_path, header):
    # such a header used to end in an AttributeError traceback
    path = tmp_path / "bad.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(DataError, match="format version None"):
        read_dataset(path)


# the small datasets whose written files the fuzz below edits
FUZZ_ICL = gen_icl_dataset(4, T=3, n_classes=3, seed=12, pattern_len=2,
                           vocab=VocabSpec(n_pattern=6, n_labels=4))
FUZZ_STREAMS = [gen_stream(60, seed=13, identity=i) for i in range(2)]


def icl_record_ok(rec, ds: ICLDataset) -> bool:
    """The ICL record rules, token by token."""
    v = ds.vocab

    def lists(value, lo, hi, length=None):
        return type(value) is list and len(value) == ds.T and all(
            type(ids) is list and len(ids) >= 1 and length in (None, len(ids))
            and all(type(i) is int and lo <= i < hi for i in ids) for ids in value)

    return (type(rec) is dict
            and set(rec) == {"identity", "split", "segments", "inputs", "outputs"}
            and type(rec["identity"]) is int and rec["split"] in ("train", "test")
            and lists(rec["segments"], 0, v.n_plain) and lists(rec["inputs"], 0, v.n_plain)
            and lists(rec["outputs"], v.n_pattern, v.n_pattern + ds.n_classes, 1))


def stream_record_ok(rec, vocab: StreamVocab) -> bool:
    """The stream record rules, token by token."""
    if type(rec) is not dict or set(rec) != {"identity", "tokens", "motif_positions"}:
        return False
    tokens, motifs = rec["tokens"], rec["motif_positions"]
    return (type(rec["identity"]) is int and type(tokens) is list and len(tokens) >= 2
            and all(type(t) is int and 0 <= t < vocab.n_plain for t in tokens)
            and type(motifs) is list
            and all(type(p) is list and len(p) == 2 and all(type(x) is int for x in p)
                    and p[0] >= 0 and 0 <= p[1] < len(tokens) for p in motifs))


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 80),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.text("ab", max_size=3), st.lists(st.integers(-1, 80), max_size=3),
                        st.dictionaries(st.text("ab", max_size=2), st.integers(), max_size=2))


@st.composite
def edited_record(draw, rec: dict, id_fields: list[str], ids: list):
    """``rec`` with one field dropped, added, retyped or truncated, one id
    rewritten, or the whole record replaced by a non-object."""
    rec = json.loads(json.dumps(rec))
    how = draw(st.sampled_from(["drop", "add", "retype", "truncate", "id", "not-object"]))
    name = draw(st.sampled_from(sorted(rec)))
    if how == "drop":
        del rec[name]
    elif how == "add":
        rec[draw(st.sampled_from(["extra", name]))] = draw(JSON_VALUES)
    elif how == "retype":
        rec[name] = draw(JSON_VALUES)
    elif how == "truncate" and isinstance(rec[name], list):
        rec[name] = rec[name][:draw(st.integers(0, max(len(rec[name]) - 1, 0)))]
    elif how == "id":
        field = draw(st.sampled_from(id_fields))
        target = rec[field]
        if target and isinstance(target[0], list):  # one step's (or pair's) list
            target = target[draw(st.integers(0, len(target) - 1))]
        if target:
            target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from(ids))
    elif how == "not-object":
        return draw(st.one_of(st.lists(st.integers(), max_size=2), st.integers(),
                              st.text("ab", max_size=3), st.none()))
    return rec


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.jsonl"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edited_dataset_file_reads_only_when_valid(fuzz_path, data):
    kind = data.draw(st.sampled_from(["icl", "stream"]))
    if kind == "icl":
        write_icl_dataset(fuzz_path, FUZZ_ICL)
        v = FUZZ_ICL.vocab
        fields, ok = ["segments", "inputs", "outputs"], lambda r: icl_record_ok(r, FUZZ_ICL)
    else:
        v = StreamVocab()
        write_stream_dataset(fuzz_path, FUZZ_STREAMS, v, seed=13)
        fields, ok = ["tokens", "motif_positions"], lambda r: stream_record_ok(r, v)
    # the reserved comp id, out-of-range (1000 also past every stream's end),
    # float and bool ids, and valid ones
    ids = [v.size - 1, v.size, 1000, -1, 2.5, 3.0, True, 0, v.n_plain - 1,
           getattr(v, "n_pattern", 1)]
    lines = fuzz_path.read_text().splitlines()
    at = data.draw(st.integers(1, len(lines) - 1))
    rec = data.draw(edited_record(json.loads(lines[at]), fields, ids))
    lines[at] = json.dumps(rec)
    fuzz_path.write_text("\n".join(lines) + "\n")
    try:
        loaded = read_dataset(fuzz_path)
    except DataError as exc:
        assert str(exc).startswith(f"{fuzz_path}:{at + 1}: ")
        assert not ok(rec)
        return
    assert ok(rec)
    if kind == "icl":
        sample = next(s for s in loaded.train + loaded.test
                      if s.segments == rec["segments"] and s.inputs == rec["inputs"])
        assert (sample.identity, sample.outputs) == (rec["identity"], rec["outputs"])
    else:
        sample = loaded[0][at - 1]
        assert (sample.identity, sample.tokens) == (rec["identity"], rec["tokens"])
        assert sample.motif_positions == [tuple(p) for p in rec["motif_positions"]]


def test_vocab_reserved_ids():
    # the comp id is the one reserved id, the last of the vocabulary, and
    # every data id lies below it
    for v in (VocabSpec(n_pattern=32, n_labels=8), StreamVocab()):
        cfg = v.model_config()
        assert cfg.vocab_size == v.size
        assert cfg.comp_token_id == v.n_plain == v.size - 1
        assert ModelConfig(vocab_size=v.size).comp_token_id == v.size - 1
    assert VocabSpec().sep_id == VocabSpec().model_config().comp_token_id - 1
    ds = gen_icl_dataset(20, T=4, n_classes=4, seed=11)
    icl_ids = [i for s in ds.train + ds.test for i in chain(*s.segments, *s.inputs, *s.outputs)]
    assert max(icl_ids) < ds.vocab.model_config().comp_token_id
    for stream in (gen_stream(500, seed=1), gen_iid_stream(500, seed=1)):
        assert max(stream.tokens) < StreamVocab().model_config().comp_token_id


def test_one_default_model_size():
    # the sizes ModelConfig defaults to are the ones every dataset's model gets
    sizes = ("n_layers", "d_model", "n_heads", "d_ff")
    assert [getattr(ModelConfig(), f) for f in sizes] \
        == [getattr(VocabSpec().model_config(), f) for f in sizes] == [3, 64, 4, 256]


def test_stream_compression_sampler_fills_every_step_or_refuses_the_stream():
    # every stream holds T chunks and the I/O after them, so no sample is cut short
    streams = [gen_stream(3 * 5 + 2 * 4, seed=2), gen_stream(40, seed=3, identity=1)]
    sampler = stream_compression_sampler(streams, T=3, chunk=5, io_len=4)
    rng = np.random.default_rng(0)
    for t in (1, 2, 3, 3, 2, 1):
        segments, inputs, outputs = sampler(rng, t)
        assert [len(c) for c in segments] == [5] * t and len(inputs) == len(outputs) == 4
        drawn = sum(segments, []) + inputs + outputs
        assert any(s.tokens[lo:lo + len(drawn)] == drawn for s in streams
                   for lo in range(len(s.tokens)))
    with pytest.raises(DataError, match="a 23-token stream holds no 4 chunks of 5 tokens"):
        stream_compression_sampler(streams, T=4, chunk=5, io_len=4)
    for chunk, io_len in ((0, 4), (5, -1)):
        with pytest.raises(UsageError, match=f"'chunk': {chunk}, 'io_len': {io_len}"):
            stream_compression_sampler(streams, T=3, chunk=chunk, io_len=io_len)
