"""The benchmark's workloads: inputs made from a seed, set-up through the
checkpoint round trip that ``ccm eval`` uses, one timed op, and the checks
that decide whether an op's output is correct.

Every workload drives `ccm` from one thread through the functions the CLI
calls (``cli.eval_rows``, ``engine.evaluate_perplexity``,
``training.train_compression``). Calls go through module attributes
(``ccm.cli.eval_rows``, not a name imported here) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

TOL = 1e-5           # float32 agreement with the recursive oracle
SLOTS = 2            # s: compression slots per segment
RANK, ALPHA = 8, 16.0


@dataclasses.dataclass(frozen=True)
class Sizes:
    T: int                   # ICL demonstration steps per identity
    identities: int          # ICL identities generated (half test, half train)
    stream_len: int          # concat pass length in tokens
    full_len: int            # full-cache pass length in tokens
    batch: int               # training sequences per step
    check_identities: int    # identities compared with the oracle
    trace_ops: dict          # ops per traced pass, by workload


FULL = Sizes(T=16, identities=256, stream_len=2048, full_len=1024, batch=8,
             check_identities=2,
             trace_ops={"icl_eval": 4, "stream": 1, "stream_full": 1,
                        "train_compress": 6})
TOY = Sizes(T=4, identities=8, stream_len=400, full_len=160, batch=2,
            check_identities=1,
            trace_ops={"icl_eval": 2, "stream": 1, "stream_full": 1,
                       "train_compress": 2})


class Workload:
    """One workload: ``setup`` and ``run`` are timed, the rest is not."""

    name = ""
    throughput_name = ""  # the name README.md gives throughput_per_s here
    unit = "ops"          # what the throughput counts
    probe_every = 36      # calls of the hooked function between host probes
    # slope of log(op time) on log(probe time): how strongly the op follows
    # the host's drift (README.md, "Noise")
    probe_sensitivity = 1.0

    def probe_hook(self):
        """(owner, attribute) of the function whose calls pace the probes."""
        return self.ccm.model.ToyLM, "forward"

    def __init__(self, ccm, sizes: Sizes, seed: int):
        self.ccm = ccm
        self.sizes = sizes
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def reference_check(self) -> list[str]:
        """Untimed comparison with the recursive oracle before timing."""
        return []

    def run(self, i: int):
        """Op ``i``: the timed call into ``ccm``."""
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[int, list[str]]:
        """(peak KV entries of the op, problems found in its output)."""
        raise NotImplementedError

    def units(self, i: int) -> int:
        """Throughput units op ``i`` completes."""
        return 1

    # -- shared set-up ----------------------------------------------------------

    def _model_and_adapters(self, vocab, workdir: Path):
        """Fresh model and adapters, written and re-loaded via ``checkpoint``.

        The adapters' B matrices get small random values (B is zero at
        init), so the conditional low-rank path does real work and the
        oracle checks compare a non-trivial adapter.
        """
        ccm = self.ccm
        seed = ccm.seeding.derive_seed(self.seed, "model-init")
        model = ccm.model.ToyLM.init(vocab.model_config(), seed=seed,
                                     dtype=np.float32)
        model.save(workdir / "model.ckpt")
        adapters = ccm.lora.AdapterSet.init(
            model, rank=RANK, alpha=ALPHA, comp_len=SLOTS,
            seed=ccm.seeding.derive_seed(self.seed, "adapter-init"))
        rng = np.random.default_rng(ccm.seeding.derive_seed(self.seed, "bench-lora-b"))
        for pair in adapters.pairs.values():
            pair.b.data[...] = 0.02 * rng.standard_normal(pair.b.data.shape)
        adapters.save(workdir / "adapters.ckpt")

        self.model = ccm.model.ToyLM.load(workdir / "model.ckpt")
        self.model.freeze()
        self.adapters = ccm.lora.AdapterSet.load(workdir / "adapters.ckpt", self.model)


# ---------------------------------------------------------------------------
# ICL


class _ICL(Workload):
    def setup(self, workdir: Path) -> None:
        ccm = self.ccm
        vocab = ccm.taskgen.VocabSpec(n_pattern=64, n_labels=8)
        ds = ccm.taskgen.gen_icl_dataset(self.sizes.identities, T=self.sizes.T,
                                         n_classes=8, seed=self.seed, pattern_len=4,
                                         vocab=vocab, test_fraction=0.5)
        ccm.taskgen.write_icl_dataset(workdir / "icl.jsonl", ds)
        self.ds = ccm.taskgen.read_dataset(workdir / "icl.jsonl")
        self._model_and_adapters(self.ds.vocab, workdir)
        self.label_ids = [self.ds.vocab.label_id(c) for c in range(self.ds.n_classes)]

    def _params(self, t: int, l_c: int, l_i: int):
        cfg = self.model.config
        return self.ccm.complexity.ComplexityParams(
            t=t, l_c=l_c, l_i=l_i, s=SLOTS, n_layers=cfg.n_layers, d_model=cfg.d_model)

    def lengths(self) -> tuple[int, int]:
        """(l_c, l_i): segment length, and input length plus one choice token."""
        sample = self.ds.test[0]
        return len(sample.segments[0]), len(sample.inputs[0]) + 1


class ICLEval(_ICL):
    """Online ICL sessions scored through ``cli.eval_rows`` with policy concat."""

    name, throughput_name, unit = "icl_eval", "identities_per_s", "identities"

    def setup(self, workdir: Path) -> None:
        super().setup(workdir)
        self.one_identity = [dataclasses.replace(self.ds, test=[s]) for s in self.ds.test]

    def run(self, i: int):
        ds = self.one_identity[i % len(self.one_identity)]
        return self.ccm.cli.eval_rows(self.model, self.adapters, ds, "concat")

    def check(self, i: int, rows) -> tuple[int, list[str]]:
        kv = self.ccm.complexity.kv_entries
        l_c, l_i = self.lengths()
        problems = []
        if len(rows) != self.ds.T:
            return 0, [f"identity {i}: {len(rows)} eval rows, expected {self.ds.T}"]
        for row in rows:
            t = int(row[1])
            p = self._params(t, l_c, l_i)
            want_ctx = kv(p, "ccm_concat", "inference") - l_i
            want_peak = max(kv(p, "ccm_concat", "compression"),
                            kv(p, "ccm_concat", "inference"))
            if float(row[3]) != want_ctx or float(row[4]) != want_peak:
                problems.append(f"identity {i} t={t}: context/peak {row[3]}/{row[4]} "
                                f"!= complexity {want_ctx}/{want_peak}")
        return int(float(rows[-1][4])), problems

    def expected_kv_entries_read(self) -> int:
        """KV entries one identity's forwards read, from ``complexity``:
        one compression per step plus one inference per answer choice."""
        kv = self.ccm.complexity.kv_entries
        l_c, l_i = self.lengths()
        total = 0
        for t in range(1, self.ds.T + 1):
            p = self._params(t, l_c, l_i)
            total += (kv(p, "ccm_concat", "compression")
                      + len(self.label_ids) * kv(p, "ccm_concat", "inference"))
        return total

    def reference_check(self) -> list[str]:
        """Scores inside ``evaluate_multichoice`` against the recursive oracle.

        ``evaluate_multichoice`` returns only the chosen index, so its
        ``log_softmax_rows`` calls are recorded to recover the scores. The
        oracle scores every choice from one call: the row before the answer
        token does not depend on the answer.
        """
        ccm, E = self.ccm, self.ccm.engine
        T = self.ds.T
        steps = sorted({1, 2, max(1, T // 2), T})
        choices = [[c] for c in self.label_ids]
        problems = []
        recorded: list[np.ndarray] = []
        orig = E.log_softmax_rows

        def recording(data):
            out = orig(data)
            recorded.append(out)
            return out

        for sample in self.ds.test[:self.sizes.check_identities]:
            session = E.Session(self.model, self.adapters, "concat")
            for t in range(1, T + 1):
                session.ingest(sample.segments[t - 1])
                if t not in steps:
                    continue
                recorded.clear()
                E.log_softmax_rows = recording
                try:
                    idx = E.evaluate_multichoice(session, sample.inputs[t - 1], choices)
                finally:
                    E.log_softmax_rows = orig
                row = len(sample.inputs[t - 1]) - 1
                scores = np.array([lp[row, c] for lp, c in zip(recorded, self.label_ids)])
                ref = ccm.training.recursive_reference_forward(
                    self.model, self.adapters,
                    (sample.segments[:t], sample.inputs[t - 1], [self.label_ids[0]]),
                    "concat", t)
                ref_scores = orig(ref.io_logits)[row, self.label_ids]
                diff = float(np.max(np.abs(scores - ref_scores)))
                if len(recorded) != len(choices) or diff > TOL:
                    problems.append(f"identity {sample.identity} t={t}: multichoice "
                                    f"scores differ from the oracle by {diff:.3g}")
                if idx != int(np.argmax(scores)):
                    problems.append(f"identity {sample.identity} t={t}: chose {idx}, "
                                    f"best score is {int(np.argmax(scores))}")
        return problems


class TrainCompress(_ICL):
    """``train_compression`` steps, policy concat, on the ICL train split."""

    name, throughput_name, unit = "train_compress", "steps_per_s", "steps"
    probe_every = 2
    probe_sensitivity = 0.75

    def probe_hook(self):
        return self.ccm.training, "training_forward"

    def setup(self, workdir: Path) -> None:
        super().setup(workdir)
        self.sampler = self.ccm.taskgen.icl_compression_sampler(self.ds.train)
        self.peak_kv = 0

    def recipe(self, i: int):
        seed = self.ccm.seeding.derive_seed(self.seed, f"bench-step-{i}")
        return self.ccm.training.Recipe(steps=1, batch=self.sizes.batch, lr=3e-3,
                                        T=self.ds.T, s=SLOTS, policy="concat",
                                        seed=seed)

    def run(self, i: int):
        return self.ccm.training.train_compression(self.model, self.adapters,
                                                   self.sampler, self.recipe(i))

    def check(self, i: int, rows) -> tuple[int, list[str]]:
        loss = rows[0]["loss"]
        problems = [] if np.isfinite(loss) else [f"step {i}: loss {loss}"]
        return self.peak_kv, problems

    def reference_check(self) -> list[str]:
        """IO logits of ``training_forward`` against the recursive oracle, one
        sequence per bucket of t. The largest oracle layout, [Mem(T) | I | O],
        is the workload's peak KV entry count."""
        Tr = self.ccm.training
        comp_id = self.model.config.comp_token_id
        problems = []
        buckets = [t for t in (2, 4, 8, 16) if t <= self.ds.T]
        for k, t in enumerate(buckets):
            sample = self.ds.train[k].step_sample(t)
            seq = Tr.build_training_sequence(sample, SLOTS, t, comp_id)
            loss, logits = Tr.training_forward(self.model, self.adapters, seq, "concat")
            ref = Tr.recursive_reference_forward(self.model, self.adapters, sample,
                                                 "concat", t)
            lo, hi = seq.io_range
            diff = float(np.max(np.abs(logits.data[lo:hi] - ref.io_logits)))
            if diff > TOL or not np.isfinite(loss.item()):
                problems.append(f"t={t}: training_forward IO logits differ from the "
                                f"oracle by {diff:.3g} (loss {loss.item()})")
            self.peak_kv = max(self.peak_kv, ref.memory.entry_count + hi - lo)
        return problems


# ---------------------------------------------------------------------------
# streaming


class _Stream(Workload):
    unit = "tokens"
    probe_every = 64

    def setup(self, workdir: Path) -> None:
        ccm = self.ccm
        vocab = ccm.taskgen.StreamVocab()
        stream = ccm.taskgen.gen_stream(self.sizes.stream_len, seed=self.seed,
                                        vocab=vocab)
        ccm.taskgen.write_stream_dataset(workdir / "stream.jsonl", [stream], vocab,
                                         seed=self.seed)
        streams, vocab, _ = ccm.taskgen.read_dataset(workdir / "stream.jsonl")
        self.tokens = np.asarray(streams[0].tokens, dtype=np.intp)
        self.caps = ccm.engine.StreamCaps()
        self._model_and_adapters(vocab, workdir)


def expected_events(n_tokens: int, caps) -> int:
    """Compression events a stream of ``n_tokens`` triggers under ``caps``:
    the first ``n_sink`` tokens fill the sink, later ones the window, and a
    full window gives up its oldest chunk before the next token."""
    sink = window = events = 0
    for _ in range(n_tokens):
        if window >= caps.window:
            window -= caps.chunk
            events += 1
        if sink < caps.n_sink:
            sink += 1
        else:
            window += 1
    return events


class Stream(_Stream):
    """Compressed streaming (policy concat) under the default StreamCaps."""

    name, throughput_name = "stream", "tokens_per_s"
    probe_sensitivity = 0.8

    def units(self, i: int) -> int:
        return self.tokens.size

    def run(self, i: int):
        return self.ccm.engine.evaluate_perplexity(self.model, self.adapters, "concat",
                                                   self.tokens, self.caps)

    def check(self, i: int, res) -> tuple[int, list[str]]:
        problems = []
        peak = int(res.kv_totals.max())
        if peak > self.caps.total:
            problems.append(f"kv_total {peak} exceeds the budget {self.caps.total}")
        want = expected_events(self.tokens.size, self.caps)
        if int(res.events.sum()) != want:
            problems.append(f"{int(res.events.sum())} compression events, expected {want}")
        if res.kv_totals.size != self.tokens.size or not np.isfinite(res.nll).all():
            problems.append("missing or non-finite NLL")
        return peak, problems


class StreamFull(_Stream):
    """The same stream's prefix with an unbounded cache (policy full)."""

    name, throughput_name = "stream_full", "full_tokens_per_s"
    probe_sensitivity = 0.9

    def units(self, i: int) -> int:
        return self.sizes.full_len

    def run(self, i: int):
        return self.ccm.engine.evaluate_perplexity(
            self.model, self.adapters, "full", self.tokens[:self.sizes.full_len])

    def check(self, i: int, res) -> tuple[int, list[str]]:
        n = self.sizes.full_len
        problems = []
        if not np.array_equal(res.kv_totals, np.arange(1, n + 1)) or res.events.any():
            problems.append("full-cache KV totals are not 1..n")
        if res.nll.size != n - 1 or not np.isfinite(res.nll).all():
            problems.append("missing or non-finite NLL")
        return int(res.kv_totals.max()), problems


WORKLOADS = {w.name: w for w in (ICLEval, Stream, StreamFull, TrainCompress)}
