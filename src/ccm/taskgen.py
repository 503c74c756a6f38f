"""Synthetic online-scenario data: in-context-learning tasks and token
streams with long-range structure.

The ICL generator mirrors the online format: per identity, a hidden
mapping from pattern classes to label tokens (a fresh random permutation
per identity, so labels carry no information without demonstrations).
Each time step contributes one demonstration segment
[pattern tokens, sep, label] and one query (I = pattern + sep, O = label).
Identities split disjointly into train and test.

The stream generator emits recurring token motifs whose reuse distances
straddle a sliding window's reach, so retained memory measurably lowers
perplexity; an i.i.d. control stream is available where memory cannot help.

A dataset file is JSONL: a header, then one object per record. Header sizes
are ints >= 1, and a data id lies in [0, n_plain); the one id after them,
the vocabulary's last, is the model's comp token.
- icl header: format_version, kind, seed, vocab {n_pattern, n_labels},
  2 <= n_classes <= n_labels, T, pattern_len; n_plain = n_pattern + n_labels + 1
  (the separator). Record: identity (int), split ("train" or "test"),
  segments and inputs (T non-empty lists of data ids), outputs (T lists of
  one label id in [n_pattern, n_pattern + n_classes)).
- stream header: format_version, kind, seed, note, vocab {n_content,
  n_noise}; n_plain = n_content + n_noise. Record: identity (int), tokens
  (at least 2 data ids), motif_positions ([motif, pos] int pairs with
  motif >= 0 and 0 <= pos < len(tokens)).
``VocabSpec``, ``StreamVocab`` and ``ICLDataset`` hold the header rules, and
one field table per kind holds the record rules.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .model import ModelConfig
from .seeding import derive_seed

FORMAT_VERSION = 1

N_MOTIFS, MOTIF_LEN = 20, 10
# reuse gaps straddle the 151-token window: only memory recalls a long-gap motif
SHORT_GAP, LONG_GAP = (20, 100), (170, 400)


def _check_sizes(**sizes) -> None:
    if not all(type(v) is int and v >= 1 for v in sizes.values()):
        raise UsageError(f"sizes {sizes} must be integers >= 1")


class VocabLayout:
    """Ids [0, n_plain) for data (subclasses define n_plain), then the comp token."""

    max_layout = 1024  # the layout cap of the models built for this data

    def __post_init__(self):
        _check_sizes(**asdict(self))

    @property
    def size(self) -> int:
        return self.n_plain + 1

    def model_config(self, **overrides) -> ModelConfig:
        """This vocabulary's fields, ``ModelConfig``'s sizes unless overridden."""
        return ModelConfig(**{"vocab_size": self.size, "max_layout": self.max_layout,
                              **overrides})


@dataclass(frozen=True)
class VocabSpec(VocabLayout):
    """ICL vocabulary regions: patterns, labels, then sep/comp."""

    n_pattern: int = 32
    n_labels: int = 8

    @property
    def sep_id(self) -> int:
        return self.n_pattern + self.n_labels

    @property
    def n_plain(self) -> int:
        return self.sep_id + 1

    def label_id(self, label: int) -> int:
        return self.n_pattern + label


@dataclass
class OnlineSample:
    """One identity's full online trajectory: segments plus per-step queries."""

    identity: int
    segments: list[list[int]]     # c(1..T)
    inputs: list[list[int]]       # I(1..T)
    outputs: list[list[int]]      # O(1..T)

    def step_sample(self, t: int) -> tuple[list[list[int]], list[int], list[int]]:
        """(C(t), I(t), O(t)) for 1-based time step t."""
        return self.segments[:t], self.inputs[t - 1], self.outputs[t - 1]


@dataclass
class ICLDataset:
    vocab: VocabSpec
    n_classes: int
    T: int
    pattern_len: int
    seed: int
    train: list[OnlineSample] = field(default_factory=list)
    test: list[OnlineSample] = field(default_factory=list)

    def __post_init__(self):
        _check_sizes(n_classes=self.n_classes, T=self.T, pattern_len=self.pattern_len)
        if self.n_classes > self.vocab.n_labels:
            raise UsageError(f"n_classes {self.n_classes} exceeds n_labels "
                             f"{self.vocab.n_labels}")
        if self.n_classes < 2:
            raise UsageError(f"n_classes {self.n_classes}: a query needs two choices or more")


def _identity_patterns(rng: np.random.Generator, vocab: VocabSpec, n_classes: int,
                       pattern_len: int) -> np.ndarray:
    """Distinct class patterns for one identity."""
    seen: set[tuple[int, ...]] = set()
    patterns = np.empty((n_classes, pattern_len), dtype=np.intp)
    for c in range(n_classes):
        while True:
            pat = tuple(rng.integers(0, vocab.n_pattern, size=pattern_len).tolist())
            if pat not in seen:
                seen.add(pat)
                patterns[c] = pat
                break
    return patterns


def _gen_identity(identity: int, root_seed: int, vocab: VocabSpec, n_classes: int,
                  T: int, pattern_len: int) -> OnlineSample:
    rng = np.random.default_rng(derive_seed(root_seed, f"icl-identity-{identity}"))
    patterns = _identity_patterns(rng, vocab, n_classes, pattern_len)
    label_perm = rng.permutation(n_classes)

    # first demonstrations are distinct classes, later ones repeat often
    # (repeats are the in-sequence supervision); queries always come from
    # the classes demonstrated so far
    first_cycle = rng.permutation(n_classes).tolist()
    segments, inputs, outputs = [], [], []
    seen: list[int] = []
    for t in range(T):
        if t < 2:
            c = first_cycle[t]
        elif rng.random() < 0.6 and seen:
            c = int(seen[rng.integers(len(seen))])
        else:
            c = int(rng.integers(n_classes))
        seen.append(c)
        label = vocab.label_id(int(label_perm[c]))
        segments.append(patterns[c].tolist() + [vocab.sep_id, label])
        # uniform over distinct demonstrated classes: long-range retrieval
        # gets as much supervision as recent repeats
        opts = sorted(set(seen))
        q = int(opts[rng.integers(len(opts))])
        inputs.append(patterns[q].tolist() + [vocab.sep_id])
        outputs.append([vocab.label_id(int(label_perm[q]))])
    return OnlineSample(identity, segments, inputs, outputs)


def gen_icl_dataset(n_identities: int, T: int, n_classes: int, seed: int,
                    pattern_len: int = 4, vocab: VocabSpec | None = None,
                    test_fraction: float = 0.1) -> ICLDataset:
    """Deterministic corpus with a disjoint train/test identity split."""
    vocab = vocab or VocabSpec(n_labels=max(8, n_classes))
    ds = ICLDataset(vocab, n_classes, T, pattern_len, seed)  # checks the sizes
    if not 0 < test_fraction < 1:
        raise UsageError(f"test fraction {test_fraction} must lie in (0, 1)")
    if vocab.n_pattern ** pattern_len < n_classes:  # patterns must be distinct
        raise UsageError(f"{vocab.n_pattern} pattern tokens make fewer than "
                         f"{n_classes} distinct patterns of length {pattern_len}")
    n_test = max(1, int(round(n_identities * test_fraction)))
    if n_test >= n_identities:
        raise UsageError(f"{n_identities} identities leave the train or test split "
                         f"empty at test fraction {test_fraction}")
    for identity in range(n_identities):
        sample = _gen_identity(identity, seed, vocab, n_classes, T, pattern_len)
        (ds.test if identity >= n_identities - n_test else ds.train).append(sample)
    return ds


# ---------------------------------------------------------------------------
# streams


@dataclass(frozen=True)
class StreamVocab(VocabLayout):
    n_content: int = 48
    n_noise: int = 8
    max_layout = 2048

    @property
    def n_plain(self) -> int:
        return self.n_content + self.n_noise


@dataclass
class StreamSample:
    identity: int
    tokens: list[int]
    motif_positions: list[tuple[int, int]] = field(default_factory=list)  # (motif, pos)


def gen_stream(length: int, seed: int, vocab: StreamVocab | None = None,
               identity: int = 0) -> StreamSample:
    """Motif stream: recurring n-grams at short and beyond-window distances."""
    if length < 2:  # a file of it would hold no token to predict
        raise UsageError(f"stream length {length} must be at least 2")
    vocab = vocab or StreamVocab()
    rng = np.random.default_rng(derive_seed(seed, f"stream-{identity}"))
    motifs = [rng.integers(0, vocab.n_content, size=MOTIF_LEN).tolist()
              for _ in range(N_MOTIFS)]
    last_seen: dict[int, int] = {}
    tokens: list[int] = []
    positions: list[tuple[int, int]] = []
    fresh = list(rng.permutation(N_MOTIFS))
    while len(tokens) < length:
        pos = len(tokens)
        recent = [m for m, p in last_seen.items() if SHORT_GAP[0] <= pos - p <= SHORT_GAP[1]]
        old = [m for m, p in last_seen.items() if LONG_GAP[0] <= pos - p <= LONG_GAP[1]]
        r = rng.random()
        if r < 0.35 and recent:
            motif = int(recent[rng.integers(len(recent))])
        elif r < 0.85 and old:
            motif = int(old[rng.integers(len(old))])
        elif fresh:
            motif = int(fresh.pop())
        else:
            keys = list(last_seen)
            motif = int(keys[rng.integers(len(keys))])
        positions.append((motif, pos))
        last_seen[motif] = pos
        tokens.extend(motifs[motif])
        tokens.extend(rng.integers(vocab.n_content,
                                   vocab.n_content + vocab.n_noise,
                                   size=int(rng.integers(1, 4))).tolist())
    return StreamSample(identity, tokens[:length], positions)


def gen_iid_stream(length: int, seed: int, vocab: StreamVocab | None = None,
                   identity: int = 0) -> StreamSample:
    """Control stream: i.i.d. uniform tokens; memory cannot help."""
    if length < 2:  # a file of it would hold no token to predict
        raise UsageError(f"stream length {length} must be at least 2")
    vocab = vocab or StreamVocab()
    rng = np.random.default_rng(derive_seed(seed, f"iid-stream-{identity}"))
    tokens = rng.integers(0, vocab.n_content + vocab.n_noise, size=length)
    return StreamSample(identity, tokens.tolist(), [])


# ---------------------------------------------------------------------------
# training samplers


def _require_samples(samples: list) -> None:
    if not samples:
        raise DataError("the dataset holds no training samples")


def icl_pretrain_sampler(samples: list[OnlineSample], T: int):
    """Full-context sequences [c(1..t), I(t), O(t)], t biased toward T.

    The loss weights mark the positions that are actually predictable from
    earlier context: labels of repeated demonstrations and the output.
    First occurrences are uniform noise and pattern tokens are
    identity-specific noise; both would swamp the in-context signal at this
    scale.
    """
    _require_samples(samples)

    def sampler(rng: np.random.Generator):
        sample = samples[int(rng.integers(len(samples)))]
        t = T if rng.random() < 0.5 else int(rng.integers(1, T + 1))
        segments, inputs, outputs = sample.step_sample(t)
        parts = [tok for seg in segments for tok in seg] + list(inputs) + list(outputs)
        tokens = np.asarray(parts, dtype=np.intp)
        weights = np.zeros(tokens.size, dtype=np.int8)
        seen_labels: set[int] = set()
        pos = 0
        for seg in segments:
            label = seg[-1]
            if label in seen_labels:
                weights[pos + len(seg) - 2] = 1  # separator predicts the label
            seen_labels.add(label)
            pos += len(seg)
        weights[pos + len(inputs) - 1] = 1       # last input predicts the output
        return tokens, weights

    return sampler


def icl_compression_sampler(samples: list[OnlineSample]):
    _require_samples(samples)

    def sampler(rng: np.random.Generator, t: int):
        sample = samples[int(rng.integers(len(samples)))]
        return sample.step_sample(t)

    return sampler


def stream_pretrain_sampler(streams: list[StreamSample], window: int):
    """Windows of ``window`` tokens (fewer at a stream's end), loss on each."""
    if window < 2:
        raise UsageError(f"window {window} must be at least 2 tokens")
    _require_samples(streams)

    def sampler(rng: np.random.Generator):
        stream = streams[int(rng.integers(len(streams)))]
        tokens = np.asarray(stream.tokens, dtype=np.intp)
        lo = int(rng.integers(0, max(1, tokens.size - window)))
        drawn = tokens[lo:lo + window]
        return drawn, np.ones(drawn.size, dtype=np.int8)

    return sampler


def stream_compression_sampler(streams: list[StreamSample], T: int, chunk: int = 64,
                               io_len: int = 16):
    """(C(t), I, O) built from consecutive chunks of a stream, t <= T: every
    stream must hold T chunks and the I and O after them."""
    _check_sizes(chunk=chunk, io_len=io_len)
    _require_samples(streams)
    short, need = min(len(s.tokens) for s in streams), T * chunk + 2 * io_len
    if short < need:
        raise DataError(f"a {short}-token stream holds no {T} chunks of {chunk} tokens "
                        f"and {io_len} input and {io_len} output tokens ({need})")

    def sampler(rng: np.random.Generator, t: int):
        stream = streams[int(rng.integers(len(streams)))]
        tokens = np.asarray(stream.tokens, dtype=np.intp)
        lo = int(rng.integers(0, max(1, tokens.size - t * chunk - 2 * io_len)))
        segments = [tokens[lo + j * chunk: lo + (j + 1) * chunk].tolist()
                    for j in range(t)]
        base = lo + t * chunk
        return (segments, tokens[base: base + io_len].tolist(),
                tokens[base + io_len: base + 2 * io_len].tolist())

    return sampler


# ---------------------------------------------------------------------------
# serialization: line-delimited records with a version header


def _write_jsonl(path, header: dict, records) -> None:
    with open(path, "w") as fh:
        for obj in ({"format_version": FORMAT_VERSION, **header}, *records):
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_icl_dataset(path, ds: ICLDataset) -> None:
    _write_jsonl(path, {"kind": "icl", "seed": ds.seed, "vocab": asdict(ds.vocab),
                        "n_classes": ds.n_classes, "T": ds.T,
                        "pattern_len": ds.pattern_len},
                 ({"identity": s.identity, "split": split, "segments": s.segments,
                   "inputs": s.inputs, "outputs": s.outputs}
                  for split, samples in (("train", ds.train), ("test", ds.test))
                  for s in samples))


def write_stream_dataset(path, streams: list[StreamSample], vocab: StreamVocab,
                         seed: int, kind_note: str = "motif") -> None:
    _write_jsonl(path, {"kind": "stream", "seed": seed, "vocab": asdict(vocab),
                        "note": kind_note},
                 ({"identity": s.identity, "tokens": s.tokens,
                   "motif_positions": [[m, p] for m, p in s.motif_positions]}
                  for s in streams))


def _parse_line(path, lineno: int, raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{lineno}: malformed record: {exc}") from exc


def _ids(values: list, lo, hi) -> bool:
    """Ints in [lo, hi): one pass for the types, then min and max."""
    return (set(map(type, values)) <= {int}
            and (not values or lo <= min(values) and max(values) < hi))


def _id_lists(v, lo, hi, n=None, length=None) -> bool:
    """``n`` lists (any number if None) of ids in [lo, hi), each non-empty or
    exactly ``length`` long."""
    return (type(v) is list and n in (None, len(v)) and set(map(type, v)) <= {list}
            and (set(map(len, v)) <= {length} if length else all(v))
            and _ids(list(chain.from_iterable(v)), lo, hi))


def _icl_fields(ds: ICLDataset) -> list:
    """The ICL field table: (field, rule(value, record), what a failure says)."""
    T, n, lo = ds.T, ds.vocab.n_plain, ds.vocab.label_id(0)
    hi, ids = lo + ds.n_classes, f"{T} non-empty lists of data ids in [0, {n})"
    return [("identity", lambda v, r: type(v) is int, "identity must be an integer"),
            ("split", lambda v, r: v in ("train", "test"),
             'split must be "train" or "test"'),
            ("segments", lambda v, r: _id_lists(v, 0, n, T), f"segments must be {ids}"),
            ("inputs", lambda v, r: _id_lists(v, 0, n, T), f"inputs must be {ids}"),
            ("outputs", lambda v, r: _id_lists(v, lo, hi, T, length=1),
             f"outputs must be {T} lists of one label id in [{lo}, {hi})")]


def _stream_fields(vocab: StreamVocab) -> list:
    """The stream field table; a field's rules run in order."""
    n = vocab.n_plain
    return [("identity", lambda v, r: type(v) is int, "identity must be an integer"),
            ("tokens", lambda v, r: type(v) is list and _ids(v, 0, n),
             f"stream tokens must be a list of token ids in [0, {n})"),
            ("tokens", lambda v, r: len(v) >= 2, "a stream needs at least 2 tokens"),
            ("motif_positions", lambda v, r: _id_lists(v, 0, float("inf"), length=2)
             and _ids([pos for _, pos in v], 0, len(r["tokens"])),
             "motif_positions must be [motif, pos] int pairs with motif >= 0 and "
             "0 <= pos < len(tokens)")]


def read_dataset(path):
    """Returns an ICLDataset or (streams, StreamVocab, meta) per header kind."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = _parse_line(path, 1, lines[0])
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: format version {version} != supported {FORMAT_VERSION}")
    kind = header.get("kind")
    if kind not in ("icl", "stream"):
        raise DataError(f"{path}: unknown dataset kind {kind!r}")
    try:  # a missing, unknown, mistyped or out-of-range header field
        if kind == "icl":
            data = ICLDataset(VocabSpec(**header["vocab"]), header["n_classes"],
                              header["T"], header["pattern_len"], header["seed"])
        else:
            data = StreamVocab(**header["vocab"])
    except (LookupError, TypeError, UsageError) as exc:
        raise DataError(f"{path}: malformed {kind} header ({exc!r})") from None
    table = _icl_fields(data) if kind == "icl" else _stream_fields(data)
    names, records = {name for name, _, _ in table}, []
    for lineno, raw in enumerate(lines[1:], start=2):
        rec = _parse_line(path, lineno, raw)
        if not isinstance(rec, dict) or rec.keys() != names:
            raise DataError(f"{path}:{lineno}: a record must be an object of the "
                            f"fields {sorted(names)}")
        for name, rule, says in table:
            if not rule(rec[name], rec):
                raise DataError(f"{path}:{lineno}: {says}")
        records.append(rec)
    if kind == "stream":
        return [StreamSample(rec["identity"], rec["tokens"],
                             [tuple(x) for x in rec["motif_positions"]])
                for rec in records], data, header
    for rec in records:
        (data.train if rec["split"] == "train" else data.test).append(OnlineSample(
            rec["identity"], rec["segments"], rec["inputs"], rec["outputs"]))
    return data
