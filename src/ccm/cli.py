"""Operator entry point: data generation, the two training stages,
session evaluation, streaming, and complexity sweeps.

Every command is deterministic under its flags: reruns produce
byte-identical CSV artifacts. Exit codes: 0 ok, 1 usage error, 2 data
error, 3 numeric contract violation.

Each command takes only the flags it reads, and a flag a run would not
read is a usage error. ``gen-data`` takes ``--seed``, and its kind
decides the sample flags: ``icl`` takes ``--identities``, ``--t-max``,
``--classes``, ``--pattern-len``, ``--pattern-tokens`` and
``--test-fraction``; ``stream`` and ``stream-iid`` take ``--length`` and
``--streams``. ``pretrain`` and
``train-compress`` build their training recipe from their flags
(``--seed`` among them); a flag left out keeps ``Recipe``'s default. The
data kind decides the sample flags: on stream data
``pretrain`` takes ``--window`` and ``train-compress`` takes ``--chunk``
and ``--io-len``; on ICL data, whose samples are its time steps, they take
none of them. Trained adapters carry their slot count: ``--slots`` sizes
fresh adapters in ``train-compress`` and the sweep in ``complexity``;
``--rank`` and ``--alpha`` left out keep ``AdapterSet.init``'s defaults.
``complexity --llama7b`` fixes the model, so it takes no ``--layers`` or
``--d-model``. ``eval`` accepts every session policy and ``stream`` every
streaming policy, with only the flags that policy reads: ``concat`` takes
``--adapters`` and the caps ``--sink``, ``--ccm-entries``, ``--window``
and ``--chunk``; ``sliding`` takes the caps; ``full`` and ``none``, which
compress nothing, take neither, and ``eval`` takes ``--adapters`` under
every other policy.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import accumulate, count
from pathlib import Path

import numpy as np

from .complexity import ComplexityParams, llama_7b_params, sweep_rows
from .engine import (COMPRESSING, REREADING, SESSION_POLICIES, STREAM_POLICIES, Session,
                     StreamCaps, evaluate_multichoice, evaluate_perplexity)
from .errors import CcmError, ContractViolation, DataError, UsageError
from .lora import AdapterSet
from .memory import fold_weights, reads_memory
from .model import ModelConfig, ToyLM
from .seeding import derive_seed
from .taskgen import (ICLDataset, VocabSpec, gen_icl_dataset, gen_iid_stream,
                      gen_stream, icl_compression_sampler, icl_pretrain_sampler,
                      read_dataset, stream_compression_sampler,
                      stream_pretrain_sampler, write_icl_dataset,
                      write_stream_dataset, StreamVocab)
from .training import Recipe, pretrain, train_compression


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own exit codes
        raise UsageError(message)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_metrics(path, rows: list[dict]) -> None:
    """Loss log; wall_ms is pinned to 0 so reruns are byte-identical."""
    _write_csv(path, ["step", "loss", "lr", "wall_ms"],
               [[r["step"], f"{r['loss']:.8f}", f"{r['lr']:.8g}", r["wall_ms"]]
                for r in rows])


def _given(args, flags) -> dict:
    """The named flags the command line set (each defaults to None)."""
    return {f: getattr(args, f) for f in flags if getattr(args, f) is not None}


def _settings(args, table: dict) -> dict:
    """Field -> value for each flag of ``table`` (flag -> field) the command line set."""
    return {table[f]: v for f, v in _given(args, table).items()}


def _refuse(args, flags, reader: str) -> None:
    """A flag the run will not read is a usage error naming it."""
    given = sorted(_given(args, flags))
    if given:
        raise UsageError(f"{reader} takes no --{given[0].replace('_', '-')}")


def _check_policy(policy: str, policies: tuple[str, ...]) -> None:
    if policy not in policies:
        raise UsageError(f"--policy must be one of {policies}")


def _require_icl(data) -> ICLDataset:
    if not isinstance(data, ICLDataset):
        raise DataError("this command needs an ICL dataset file")
    return data


def _require_stream(data):
    if isinstance(data, ICLDataset):
        raise DataError("this command needs a stream dataset file")
    return data


def _require_vocab(model: ToyLM, vocab) -> None:
    """The model must have been built for the dataset's vocabulary."""
    if model.config.vocab_size != vocab.size:
        raise DataError(f"model vocab_size {model.config.vocab_size} != dataset "
                        f"vocabulary's {vocab.size}")


# ---------------------------------------------------------------------------
# commands


# gen-data's sample flags -> their defaults; each kind reads only its own
_ICL_GEN = {"identities": 2200, "t_max": 8, "classes": 8, "pattern_len": 4,
            "pattern_tokens": 64, "test_fraction": 0.1}
_STREAM_GEN = {"length": 10000, "streams": 3}


def cmd_gen_data(args) -> int:
    icl = args.kind == "icl"
    _refuse(args, _STREAM_GEN if icl else _ICL_GEN, f"--kind {args.kind}")
    own = _ICL_GEN if icl else _STREAM_GEN
    f = {**own, **_given(args, own)}
    if icl:
        vocab = VocabSpec(n_pattern=f["pattern_tokens"], n_labels=max(8, f["classes"]))
        ds = gen_icl_dataset(f["identities"], T=f["t_max"], n_classes=f["classes"],
                             seed=args.seed, pattern_len=f["pattern_len"],
                             vocab=vocab, test_fraction=f["test_fraction"])
        write_icl_dataset(args.out, ds)
    else:
        for flag, least in (("streams", 1), ("length", 2)):
            if f[flag] < least:
                raise UsageError(f"--{flag} {f[flag]} must be at least {least}")
        vocab = StreamVocab()
        gen = gen_iid_stream if args.kind == "stream-iid" else gen_stream
        streams = [gen(f["length"], seed=args.seed, vocab=vocab, identity=i)
                   for i in range(f["streams"])]
        write_stream_dataset(args.out, streams, vocab, seed=args.seed,
                             kind_note=args.kind)
    print(f"wrote {args.out}")
    return 0


# model-size flag -> the ModelConfig field it sets
_SIZES = {"layers": "n_layers", "d_model": "d_model", "heads": "n_heads",
          "d_ff": "d_ff"}


def _model_from_flags(args, vocab, seed: int) -> ToyLM:
    config = vocab.model_config(**_settings(args, _SIZES))
    return ToyLM.init(config, seed=derive_seed(seed, "model-init"),
                      dtype=np.float32)


_PRETRAIN_WINDOW = 192  # tokens per stream pretraining sample
# recipe flag -> the Recipe field it sets; Recipe owns the defaults
_RECIPE = {"seed": "seed", "steps": "steps", "batch": "batch", "lr": "lr"}


def cmd_pretrain(args) -> int:
    recipe = Recipe(**_settings(args, _RECIPE))
    data = read_dataset(args.data)
    if isinstance(data, ICLDataset):
        _refuse(args, ["window"], "an ICL dataset")
        model = _model_from_flags(args, data.vocab, recipe.seed)
        sampler = icl_pretrain_sampler(data.train, T=data.T)
        longest = max(sum(map(len, [*c, i, o]))  # [c(1..T), I(T), O(T)]
                      for c, i, o in (s.step_sample(data.T) for s in data.train))
    else:
        streams, vocab, _ = data
        model = _model_from_flags(args, vocab, recipe.seed)
        window = _PRETRAIN_WINDOW if args.window is None else args.window
        sampler = stream_pretrain_sampler(streams, window)
        longest = min(window, max(len(s.tokens) for s in streams))
    model.check_fits(longest, "the longest pretraining sample")
    rows = pretrain(model, sampler, recipe)
    model.save(args.out)
    if args.metrics:
        _write_metrics(args.metrics, rows)
    print(f"pretrained {recipe.steps} steps, final loss {rows[-1]['loss']:.4f}; "
          f"wrote {args.out}")
    return 0


def cmd_train_compress(args) -> int:
    recipe = Recipe(**_settings(args, {**_RECIPE, "policy": "policy", "slots": "s"}))
    data = read_dataset(args.data)
    model = ToyLM.load(args.model)
    if isinstance(data, ICLDataset):
        _refuse(args, ["chunk", "io_len"], "an ICL dataset")
        _require_vocab(model, data.vocab)
        recipe = replace(recipe, T=data.T)
        sampler = icl_compression_sampler(data.train)
        steps = [(t, n, len(i) + len(o)) for q in data.train for t, n, i, o in
                 zip(count(1), accumulate(map(len, q.segments)), q.inputs, q.outputs)]
    else:
        streams, vocab, _ = data
        _require_vocab(model, vocab)
        sampler = stream_compression_sampler(streams, recipe.T,
                                             **_given(args, ["chunk", "io_len"]))
        c, i, o = sampler(np.random.default_rng(0), recipe.T)  # every draw at T is as long
        steps = [(recipe.T, sum(map(len, c)), len(i) + len(o))]
    # step t's frame: t*s memory columns, then [c(1), s comps, ..., c(t), s comps, I, O]
    model.check_fits(max(2 * t * recipe.s + n + io for t, n, io in steps),
                     "the longest training frame")
    adapters = AdapterSet.init(model, comp_len=recipe.s,
                               seed=derive_seed(recipe.seed, "adapter-init"),
                               **_given(args, ["rank", "alpha"]))
    rows = train_compression(model, adapters, sampler, recipe)
    adapters.save(args.out)
    if args.metrics:
        _write_metrics(args.metrics, rows)
    print(f"trained adapters ({recipe.policy}, s={recipe.s}) "
          f"final loss {rows[-1]['loss']:.4f}; wrote {args.out}")
    return 0


def eval_rows(model: ToyLM, adapters: AdapterSet | None, ds: ICLDataset,
              policy: str, max_eval: int | None = None) -> list[list]:
    """One row per t = 1..T: accuracy and measured KV counts."""
    samples = ds.test if max_eval is None else ds.test[:max(max_eval, 0)]
    if not samples:
        raise UsageError("nothing to evaluate: empty test split or --max-eval < 1")
    label_ids = [ds.vocab.label_id(i) for i in range(ds.n_classes)]
    choices = [[lid] for lid in label_ids]
    # every step's frames, before any forward: a compression [Mem(t-1) where read |
    # context | s slots], a choice [Mem(t) or the re-read context | input | choice]
    fold = Session(model, adapters, policy).memory.policy  # the rule Mem(t) grows by
    s, frames = adapters.comp_len if adapters else 0, []
    for sample in samples:
        held = 0  # Mem(t-1)'s entries
        for t in range(1, ds.T + 1):
            context = sum(map(len, sample.segments[:t] if policy in REREADING
                              else sample.segments[t - 1:t]))
            if policy in COMPRESSING:  # fixed compresses c(1..t) into a fresh memory
                held *= policy not in REREADING
                frames.append(held * reads_memory(fold) + context + s)
                held, context = s + held * (fold_weights(fold, t) is None), 0
            frames.append(held + context * (policy in REREADING) + len(sample.inputs[t - 1]) + 1)
    model.check_fits(max(frames, default=0), f"policy {policy!r} over {ds.T} steps")

    def run_identity(sample):
        session = Session(model, adapters, policy)
        per_t = []
        for t in range(1, ds.T + 1):
            comp_peak = session.ingest(sample.segments[t - 1])
            idx = evaluate_multichoice(session, sample.inputs[t - 1], choices)
            correct = label_ids[idx] == sample.outputs[t - 1][0]
            infer_peak = (session.context_entries
                          + len(sample.inputs[t - 1]) + 1)
            per_t.append((correct, session.context_entries,
                          max(comp_peak, infer_peak)))
        return per_t

    results = [run_identity(s) for s in samples]

    rows = []
    for t in range(1, ds.T + 1):
        at_t = [r[t - 1] for r in results]
        acc = float(np.mean([x[0] for x in at_t]))
        ctx = float(np.mean([x[1] for x in at_t]))
        peak = float(np.mean([x[2] for x in at_t]))
        rows.append([policy, t, f"{acc:.6f}", f"{ctx:.2f}", f"{peak:.2f}"])
    return rows


def cmd_eval(args) -> int:
    _check_policy(args.policy, SESSION_POLICIES)
    if args.policy not in COMPRESSING:  # no compression for adapters to run
        _refuse(args, ["adapters"], f"--policy {args.policy}")
    ds = _require_icl(read_dataset(args.data))
    model = ToyLM.load(args.model)
    _require_vocab(model, ds.vocab)
    adapters = AdapterSet.load(args.adapters, model) if args.adapters else None
    rows = eval_rows(model, adapters, ds, args.policy, args.max_eval)
    _write_csv(args.out, ["policy", "t", "accuracy", "context_kv_entries",
                          "peak_kv_entries"], rows)
    print(f"wrote {args.out}")
    return 0


# cap flag -> the StreamCaps field it sets; StreamCaps owns the defaults
_CAPS = {"sink": "n_sink", "ccm_entries": "ccm_entries", "window": "window",
         "chunk": "chunk"}
# the optional flags each streaming policy reads: full and none build their
# own caps and compress nothing, and sliding has no compressed region
_STREAM_FLAGS = {"concat": {"adapters", *_CAPS}, "sliding": set(_CAPS),
                 "full": set(), "none": set()}


def cmd_stream(args) -> int:
    _check_policy(args.policy, STREAM_POLICIES)
    _refuse(args, {"adapters", *_CAPS} - _STREAM_FLAGS[args.policy],
            f"--policy {args.policy}")
    caps = StreamCaps(**_settings(args, _CAPS))
    if args.length is not None and args.length < 2:
        raise UsageError(f"--length {args.length} must be at least 2")
    if args.stream_index < 0:
        raise UsageError(f"--stream-index {args.stream_index} must be >= 0")
    streams, vocab, _ = _require_stream(read_dataset(args.data))
    if args.stream_index >= len(streams):
        raise DataError(f"stream index {args.stream_index} out of range")
    model = ToyLM.load(args.model)
    _require_vocab(model, vocab)
    adapters = AdapterSet.load(args.adapters, model) if args.adapters else None
    tokens = np.asarray(streams[args.stream_index].tokens, dtype=np.intp)[:args.length]
    result = evaluate_perplexity(model, adapters, args.policy, tokens, caps)
    ppl_cum = result.cumulative_perplexity()
    rows = []
    for i in range(result.nll.size):
        rows.append([i + 1, result.kv_totals[i], f"{ppl_cum[i]:.6f}",
                     result.events[i]])
    _write_csv(args.out, ["pos", "kv_total", "ppl_cum", "compression_event"], rows)
    print(f"wrote {args.out} (ppl {result.perplexity:.4f}, "
          f"max kv {int(result.kv_totals.max())})")
    return 0


def cmd_complexity(args) -> int:
    if args.llama7b:
        _refuse(args, ["layers", "d_model"], "--llama7b")
        base = llama_7b_params(l_c=args.lc, l_i=args.li)
    else:
        base = ComplexityParams(
            t=1, l_c=args.lc, l_i=args.li, s=1,
            n_layers=ModelConfig.n_layers if args.layers is None else args.layers,
            d_model=ModelConfig.d_model if args.d_model is None else args.d_model)
    if args.t_max < 1:
        raise UsageError(f"--t-max {args.t_max} must be at least 1")
    t_values = list(range(1, args.t_max + 1))
    rows = sweep_rows(base, t_values, args.slots)
    out_rows = [[r["method"], r["phase"], r["t"], r["s"], r["kv_entries"],
                 r["kv_bytes_fp16"], f"{r['attn_flops']:.6g}"] for r in rows]
    _write_csv(args.out, ["method", "phase", "t", "s", "kv_entries",
                          "kv_bytes_fp16", "attn_flops"], out_rows)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers; argparse makes a bad one a usage error."""
    return [int(x) for x in text.split(",")]


def build_parser() -> _Parser:
    parser = _Parser(prog="ccm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, table, owner=None):  # --name each, None while unset, of the type
        for name, v in table.items():  # of its default: v, or owner's field named v
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None,
                           type=type(v if owner is None else getattr(owner, v)))

    def command(name, help, recipe=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True)
        if recipe:  # the training recipe's flags
            p.add_argument("--data", required=True)
            flags(p, _RECIPE, Recipe)
            p.add_argument("--metrics", default=None)
        return p

    g = command("gen-data", "generate a synthetic dataset")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--kind", choices=("icl", "stream", "stream-iid"), default="icl")
    flags(g, {**_ICL_GEN, **_STREAM_GEN})

    p = command("pretrain", "stage 1: train the base model", recipe=True)
    p.add_argument("--window", type=int, default=None, help="stream sample length")
    flags(p, _SIZES, ModelConfig)

    c = command("train-compress", "stage 2: train the adapters", recipe=True)
    c.add_argument("--model", required=True)
    c.add_argument("--policy", default=None)
    c.add_argument("--slots", type=int, default=None)
    c.add_argument("--rank", type=int, default=None)
    c.add_argument("--alpha", type=float, default=None)
    c.add_argument("--chunk", type=int, default=None)
    c.add_argument("--io-len", type=int, default=None, dest="io_len")

    e = command("eval", "per-time-step accuracy and KV counts")
    e.add_argument("--data", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--adapters", default=None)
    e.add_argument("--policy", required=True)
    e.add_argument("--max-eval", type=int, default=None, dest="max_eval")

    s = command("stream", "streaming perplexity under a KV budget")
    s.add_argument("--data", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--adapters", default=None)
    s.add_argument("--policy", required=True)
    flags(s, _CAPS, StreamCaps)
    s.add_argument("--stream-index", type=int, default=0, dest="stream_index")
    s.add_argument("--length", type=int, default=None)

    x = command("complexity", "analytic KV / FLOPS sweep")
    x.add_argument("--t-max", type=int, default=16, dest="t_max")
    x.add_argument("--lc", type=int, default=50)
    x.add_argument("--li", type=int, default=10)
    x.add_argument("--slots", type=_int_list, default="1,2,4,8")
    x.add_argument("--llama7b", action="store_true")
    flags(x, {f: _SIZES[f] for f in ("layers", "d_model")}, ModelConfig)
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "train-compress": cmd_train_compress,
    "eval": cmd_eval,
    "stream": cmd_stream,
    "complexity": cmd_complexity,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # results are checked where they leave: exit 3
            return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return 3
    except CcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
