"""CLI contracts: artifacts exist, reruns are byte-identical, exit codes map."""

import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccm
from ccm import cli, engine
from ccm.checkpoint import load_arrays, save_arrays
from ccm.cli import main
from ccm.lora import AdapterSet
from ccm.model import ModelConfig, ToyLM
from ccm.taskgen import StreamVocab, VocabSpec, read_dataset
from ccm.training import Recipe


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def icl_data(tmp_path):
    path = tmp_path / "icl.jsonl"
    assert run("gen-data", "--kind", "icl", "--identities", "30", "--t-max", "4",
               "--classes", "4", "--out", path, "--seed", "3") == 0
    return path


@pytest.fixture
def stream_data(tmp_path):
    path = tmp_path / "stream.jsonl"
    assert run("gen-data", "--kind", "stream", "--length", "400", "--streams", "2",
               "--out", path, "--seed", "4") == 0
    return path


@pytest.fixture
def tiny_pipeline(tmp_path, icl_data):
    model = tmp_path / "model.ckpt"
    adapters = tmp_path / "adapters.ckpt"
    assert run("pretrain", "--data", icl_data, "--out", model, "--steps", "4",
               "--batch", "2", "--lr", "1e-3", "--seed", "5",
               "--layers", "2", "--d-model", "32", "--heads", "4",
               "--d-ff", "64") == 0
    assert run("train-compress", "--data", icl_data, "--model", model,
               "--out", adapters, "--policy", "concat", "--slots", "1",
               "--steps", "4", "--batch", "2", "--lr", "1e-3", "--seed", "6") == 0
    return icl_data, model, adapters


@pytest.fixture
def stream_model(tmp_path, stream_data):
    model = tmp_path / "stream_model.ckpt"
    assert run("pretrain", "--data", stream_data, "--out", model, "--steps", "2",
               "--batch", "2", "--lr", "1e-3", "--seed", "5", "--window", "32",
               "--layers", "2", "--d-model", "32", "--heads", "4",
               "--d-ff", "64") == 0
    return model


def train_stream_adapters(tmp_path, stream_data, stream_model, slots):
    adapters = tmp_path / f"stream_adapters{slots}.ckpt"
    assert run("train-compress", "--data", stream_data, "--model", stream_model,
               "--out", adapters, "--policy", "concat", "--slots", slots,
               "--steps", "1", "--batch", "1", "--seed", "6", "--chunk", "16",
               "--io-len", "8") == 0
    return adapters


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run("gen-data", "--identities", "20", "--out", a, "--seed", "7")
    run("gen-data", "--identities", "20", "--out", b, "--seed", "7")
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    run("gen-data", "--identities", "20", "--out", c, "--seed", "8")
    assert a.read_bytes() != c.read_bytes()


def test_gen_data_parses(icl_data):
    ds = read_dataset(icl_data)
    assert len(ds.train) + len(ds.test) == 30


@pytest.mark.parametrize("flags", [
    ["--classes", "0"], ["--identities", "1"], ["--pattern-len", "0"],
    ["--pattern-tokens", "2", "--pattern-len", "1", "--classes", "8"],
    *(["--test-fraction", f] for f in ("nan", "inf", "-0.5", "0", "1")), ["--classes", "1"]])
def test_gen_data_without_distinct_patterns_or_a_split_is_usage_error(tmp_path, flags):
    # the last two looped forever drawing distinct patterns: run in a child
    # process, so a regression fails here instead of hanging the suite
    out = tmp_path / "icl.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(ccm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ccm.cli", "gen-data", "--kind", "icl",
         "--identities", "30", *flags, "--out", str(out)],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error:") and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "train-compress"])
def test_empty_train_split_is_data_error(tiny_pipeline, tmp_path, capsys, command):
    icl_data, model, _ = tiny_pipeline
    test_only = tmp_path / "test_only.jsonl"
    test_only.write_text("".join(line for line in icl_data.read_text().splitlines(True)
                                 if '"split": "train"' not in line))
    out = tmp_path / "out.ckpt"
    extra = ["--model", model] if command == "train-compress" else []
    assert run(command, "--data", test_only, *extra, "--out", out,
               "--steps", "1", "--batch", "1") == 2
    assert "data error: the dataset holds no training samples" in \
        capsys.readouterr().err
    assert not out.exists()


def test_pipeline_artifacts(tiny_pipeline, tmp_path):
    icl_data, model, adapters = tiny_pipeline
    m = ToyLM.load(model)
    AdapterSet.load(adapters, m)


def test_metrics_csv_deterministic(tmp_path, icl_data):
    outs = []
    for name in ("m1", "m2"):
        model = tmp_path / f"{name}.ckpt"
        metrics = tmp_path / f"{name}.csv"
        run("pretrain", "--data", icl_data, "--out", model, "--steps", "3",
            "--batch", "2", "--lr", "1e-3", "--seed", "9", "--metrics", metrics,
            "--layers", "2", "--d-model", "32", "--heads", "4", "--d-ff", "64")
        outs.append(metrics.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "step,loss,lr,wall_ms"


def test_eval_csv_rows_and_determinism(tiny_pipeline, tmp_path):
    icl_data, model, adapters = tiny_pipeline
    for policy, extra in (("none", []), ("concat", ["--adapters", adapters])):
        a, b = tmp_path / f"{policy}_a.csv", tmp_path / f"{policy}_b.csv"
        for out in (a, b):
            assert run("eval", "--data", icl_data, "--model", model, "--policy",
                       policy, "--out", out, "--max-eval", "2",
                       *extra) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "policy,t,accuracy,context_kv_entries,peak_kv_entries"
        assert len(lines) == 1 + 4  # one row per t = 1..T
        assert all(line.startswith(f"{policy},") for line in lines[1:])


def test_stream_command_budget(stream_model, stream_data, tmp_path):
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", stream_model, "--policy",
               "sliding", "--out", out, "--sink", "1", "--ccm-entries", "0",
               "--window", "24", "--chunk", "8", "--length", "120") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pos,kv_total,ppl_cum,compression_event"
    kv = [int(line.split(",")[1]) for line in lines[1:]]
    assert max(kv) <= 25  # sink + window


def test_stream_full_holds_every_token(stream_model, stream_data, tmp_path):
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", stream_model, "--policy",
               "full", "--out", out, "--length", "60") == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # one row per predicted token: the cache never drops an entry
    assert [int(r[1]) for r in rows] == list(range(1, 60))
    assert all(r[3] == "0" for r in rows)


def test_stream_concat_takes_the_adapters_slot_count(stream_model, stream_data,
                                                     tmp_path):
    # s=1 adapters stream under the default caps with no slot flag
    adapters = train_stream_adapters(tmp_path, stream_data, stream_model, 1)
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", stream_model, "--adapters",
               adapters, "--policy", "concat", "--out", out, "--window", "24",
               "--chunk", "8", "--ccm-entries", "3", "--length", "100") == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert max(int(r[1]) for r in rows) == 1 + 3 + 24
    assert sum(int(r[3]) for r in rows) > 3  # the region filled and evicted


@pytest.mark.parametrize("chunk", ["0", "-3"])
def test_stream_chunk_below_one_is_usage_error(tiny_pipeline, stream_data, tmp_path,
                                               capsys, chunk):
    # a zero chunk used to drain nothing and let the cache outgrow its budget
    _, model, adapters = tiny_pipeline
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", model, "--adapters",
               adapters, "--policy", "concat", "--out", out, "--chunk", chunk,
               "--length", "200") == 1
    assert f"usage error: chunk {chunk} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_stream_region_below_one_slot_group_is_usage_error(stream_model, stream_data,
                                                          tmp_path, capsys):
    # such a region evicts every group it compresses: s=2 adapters need two entries
    adapters = train_stream_adapters(tmp_path, stream_data, stream_model, 2)
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", stream_model, "--adapters",
               adapters, "--policy", "concat", "--out", out, "--ccm-entries", "1",
               "--length", "100") == 1
    assert "usage error: ccm_entries 1 holds no group of 2 slots" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("policy,flags", [("full", []),
                                          ("sliding", ["--window", "300"])])
def test_stream_longer_than_the_model_layout_is_usage_error(stream_data, tmp_path,
                                                            capsys, policy, flags):
    # such a run used to forward every token it could hold, then exit 3
    _, vocab, _ = read_dataset(stream_data)
    model = tmp_path / "short.ckpt"
    ToyLM.init(vocab.model_config(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                                  max_layout=64)).save(model)
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", model, "--policy", policy,
               *flags, "--out", out, "--length", "100") == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and "100 entries" in err and "max_layout 64" in err
    assert not out.exists()


def test_eval_step_longer_than_the_model_layout_is_usage_error(icl_data, tmp_path, capsys,
                                                               monkeypatch):
    # under concat and independent the memory grows by s a step: with s=2 and
    # the 6-token segments and inputs of icl_data, step t's choice frames hold
    # 2t + 6 entries, so a 12-entry layout fits steps 1 to 3 and overflows at
    # step 4. The run stops before its first forward, not at step 4 once
    # steps 1 to 3 have run for every identity
    ds = read_dataset(icl_data)
    model, adapters, out = tmp_path / "m.ckpt", tmp_path / "a.ckpt", tmp_path / "eval.csv"
    lm = ToyLM.init(ds.vocab.model_config(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                                          max_layout=12))
    lm.save(model)
    AdapterSet.init(lm, comp_len=2).save(adapters)
    monkeypatch.setattr(ToyLM, "forward", lambda *a, **k: pytest.fail("forward ran"))
    for policy in ("concat", "independent"):
        assert run("eval", "--data", icl_data, "--model", model, "--adapters", adapters,
                   "--policy", policy, "--out", out) == 1
        assert f"usage error: policy {policy!r} over 4 steps holds up to 14 entries, " \
            "above the model's max_layout 12" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kind,flags,extra,entries", [
    # T=4 steps of 6 tokens, I of 5 and O of 1 token, s=2: 4*2 + 4*8 + 6
    ("icl", ["--identities", "12", "--classes", "4", "--t-max", "4"], [], 46),
    # T=8 chunks of 250 tokens, I and O of 16, s=2: 8*2 + 8*252 + 32
    ("stream", ["--length", "2100", "--streams", "1"],
     ["--chunk", "250", "--io-len", "16"], 2064)])
def test_training_frame_longer_than_the_model_layout_is_usage_error(
        tmp_path, capsys, kind, flags, extra, entries):
    # train-compress runs its frames through forward_groups, which has no
    # capacity check: such a run used to train and exit 0
    data, model, out = tmp_path / "data.jsonl", tmp_path / "m.ckpt", tmp_path / "a.ckpt"
    assert run("gen-data", "--kind", kind, *flags, "--out", data) == 0
    vocab = read_dataset(data).vocab if kind == "icl" else read_dataset(data)[1]
    limit = {"icl": 45, "stream": 2048}[kind]
    ToyLM.init(vocab.model_config(n_layers=1, d_model=8, n_heads=2, d_ff=8,
                                  max_layout=limit)).save(model)
    assert run("train-compress", "--data", data, "--model", model, *extra, "--slots", "2",
               "--steps", "1", "--batch", "1", "--out", out) == 1
    assert f"usage error: the longest training frame holds up to {entries} entries, " \
        f"above the model's max_layout {limit}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,flags,entries", [
    ("icl", ["--identities", "12", "--classes", "4", "--t-max", "200"], 1206),
    ("stream", ["--length", "3100", "--streams", "1"], 3000)])
def test_pretrain_sample_longer_than_the_model_layout_is_usage_error(
        tmp_path, capsys, kind, flags, entries):
    # such a run used to stop at its first over-long sample with exit 3
    data, out = tmp_path / "data.jsonl", tmp_path / "model.ckpt"
    assert run("gen-data", "--kind", kind, *flags, "--out", data) == 0
    window = ["--window", "3000"] if kind == "stream" else []
    assert run("pretrain", "--data", data, *window, "--out", out, "--steps", "1",
               "--batch", "1", "--layers", "1", "--d-model", "16", "--heads", "2",
               "--d-ff", "32") == 1
    err = capsys.readouterr().err
    assert f"usage error: the longest pretraining sample holds up to {entries} " \
        "entries" in err and f"max_layout {1024 if kind == 'icl' else 2048}" in err
    assert not out.exists()


@pytest.mark.parametrize("policy,code", [("full", 1), ("fixed", 1), ("concat", 0)])
def test_eval_context_longer_than_the_model_layout_is_usage_error(
        icl_data, tmp_path, capsys, policy, code):
    # full and fixed re-read the raw context (here up to 30 and 25 entries);
    # concat holds its compressed memory and runs on the same model
    vocab = read_dataset(icl_data).vocab
    model, adapters = tmp_path / "short.ckpt", tmp_path / "adapters.ckpt"
    lm = ToyLM.init(vocab.model_config(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                                       max_layout=24))
    lm.save(model)
    AdapterSet.init(lm, rank=2, alpha=4.0, comp_len=1, seed=0).save(adapters)
    out = tmp_path / "eval.csv"
    given = [] if policy == "full" else ["--adapters", adapters]
    assert run("eval", "--data", icl_data, "--model", model, *given,
               "--policy", policy, "--out", out) == code
    if code:
        err = capsys.readouterr().err
        assert f"usage error: policy '{policy}' over 4 steps holds up to " \
            f"{30 if policy == 'full' else 25} entries" in err and "max_layout 24" in err
        assert not out.exists()


@pytest.mark.parametrize("policy,flag", [
    *((policy, flag) for policy in ("full", "none")
      for flag in ("--sink", "--ccm-entries", "--window", "--chunk")),
    ("sliding", "--adapters")])
def test_stream_flag_the_policy_ignores_is_usage_error(stream_model, stream_data,
                                                       tmp_path, capsys, policy, flag):
    # full and none build their own caps; sliding compresses nothing
    value = tmp_path / "adapters.ckpt" if flag == "--adapters" else "4"
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", stream_model, "--policy",
               policy, flag, value, "--out", out, "--length", "20") == 1
    assert f"usage error: --policy {policy} takes no {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,policy", [
    ("eval", "full"), ("eval", "none"), ("stream", "full"), ("stream", "none")])
def test_adapters_under_a_policy_that_compresses_nothing_is_usage_error(
        tiny_pipeline, stream_data, stream_model, tmp_path, capsys, command, policy):
    # the adapters fire only on compression tokens, which these never forward;
    # the run used to load them and write the CSV it writes without them
    if command == "eval":
        data, model, adapters = tiny_pipeline
    else:
        data, model = stream_data, stream_model
        adapters = train_stream_adapters(tmp_path, stream_data, stream_model, 1)
    out = tmp_path / "out.csv"
    assert run(command, "--data", data, "--model", model, "--adapters", adapters,
               "--policy", policy, "--out", out) == 1
    assert f"usage error: --policy {policy} takes no --adapters" in \
        capsys.readouterr().err
    assert not out.exists()


STREAM_RUN = ["stream", "--data", "{stream}", "--model", "{stream_model}",
              "--policy", "full"]


@pytest.mark.parametrize("argv,says", [
    # a length or index that silently scored other tokens, or none
    ([*STREAM_RUN, "--length", "0"], "--length 0 must be at least 2"),
    ([*STREAM_RUN, "--length", "-395"], "--length -395 must be at least 2"),
    ([*STREAM_RUN, "--length", "1"], "--length 1 must be at least 2"),
    ([*STREAM_RUN, "--stream-index", "-1"], "--stream-index -1 must be >= 0"),
    # values that ended in a traceback
    (["complexity", "--slots", "a"], "argument --slots"),
    (["complexity", "--slots", ""], "argument --slots"),
    (["pretrain", "--data", "{stream}", "--window", "0"], "window 0 must be at least 2"),
    (["pretrain", "--data", "{stream}", "--window", "1"], "window 1 must be at least 2"),
    # flags the run ignored
    (["complexity", "--llama7b", "--layers", "2"], "--llama7b takes no --layers"),
    (["complexity", "--llama7b", "--d-model", "64"], "--llama7b takes no --d-model"),
    (["pretrain", "--data", "{icl}", "--window", "16"],
     "an ICL dataset takes no --window"),
    (["train-compress", "--data", "{icl}", "--model", "{icl_model}", "--chunk", "16"],
     "an ICL dataset takes no --chunk"),
    (["train-compress", "--data", "{icl}", "--model", "{icl_model}", "--io-len", "8"],
     "an ICL dataset takes no --io-len"),
    # sizes that ended in a traceback
    (["train-compress", "--data", "{icl}", "--model", "{icl_model}", "--rank", "0"],
     "adapter rank 0 and comp_len"),
    (["train-compress", "--data", "{icl}", "--model", "{icl_model}", "--rank", "-1"],
     "adapter rank -1 and comp_len"),
    (["complexity", "--layers", "0"], "complexity parameters must be positive"),
    (["complexity", "--d-model", "0"], "complexity parameters must be positive"),
    # sample flags the data kind ignored
    (["gen-data", "--kind", "icl", "--length", "50"], "--kind icl takes no --length"),
    (["gen-data", "--kind", "icl", "--streams", "2"], "--kind icl takes no --streams"),
    (["gen-data", "--kind", "stream", "--identities", "5"],
     "--kind stream takes no --identities"),
    (["gen-data", "--kind", "stream-iid", "--t-max", "3", "--test-fraction", "0.5"],
     "--kind stream-iid takes no --t-max"),
    (["gen-data", "--kind", "stream", "--classes", "4"], "--kind stream takes no --classes"),
    (["gen-data", "--kind", "stream", "--pattern-len", "2", "--pattern-tokens", "8"],
     "--kind stream takes no --pattern-len"),
    # empty outputs that exited 0
    (["complexity", "--t-max", "0"], "--t-max 0 must be at least 1"),
    (["complexity", "--t-max", "-2"], "--t-max -2 must be at least 1"),
    (["gen-data", "--kind", "stream", "--streams", "0"], "--streams 0 must be at least 1"),
    (["gen-data", "--kind", "stream-iid", "--streams", "-1"],
     "--streams -1 must be at least 1"),
    # a one-token stream, which every later command rejected
    (["gen-data", "--kind", "stream", "--length", "1"], "--length 1 must be at least 2"),
    (["gen-data", "--kind", "stream-iid", "--length", "1"],
     "--length 1 must be at least 2"),
    # stream sample sizes that failed mid-run as "empty context segment"
    (["train-compress", "--data", "{stream}", "--model", "{stream_model}", "--chunk", "0"],
     "sizes {'chunk': 0, 'io_len': 16} must be integers >= 1"),
    (["train-compress", "--data", "{stream}", "--model", "{stream_model}", "--io-len", "0"],
     "sizes {'chunk': 64, 'io_len': 0} must be integers >= 1"),
    (["train-compress", "--data", "{stream}", "--model", "{stream_model}", "--chunk", "-2"],
     "sizes {'chunk': -2, 'io_len': 16} must be integers >= 1"),
])
def test_bad_or_ignored_flag_is_usage_error(tiny_pipeline, stream_data, stream_model,
                                            tmp_path, capsys, argv, says):
    files = {"{icl}": tiny_pipeline[0], "{icl_model}": tiny_pipeline[1],
             "{stream}": stream_data, "{stream_model}": stream_model}
    out = tmp_path / "out"
    assert run(*(files.get(a, a) for a in argv), "--out", out) == 1
    assert f"usage error: {says}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--layers", "0"], ["--d-model", "0"], ["--heads", "0"], ["--d-ff", "0"],
    ["--heads", "-2"], ["--layers", "-1"]])
def test_model_size_below_one_is_rejected(icl_data, tmp_path, capsys, flags):
    # zero sizes used to build the default model; negative ones ended in a traceback
    out = tmp_path / "model.ckpt"
    assert run("pretrain", "--data", icl_data, *flags, "--steps", "1", "--batch", "1",
               "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model size") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("chunk,io_len,code", [("46", "16", 0), ("46", "17", 2),
                                               ("48", None, 2), ("72", "8", 2)])
def test_stream_shorter_than_a_compression_sample_is_data_error(
        stream_data, stream_model, tmp_path, capsys, chunk, io_len, code):
    # T=8 chunks and 2 x io_len tokens must fit in every 400-token stream; a
    # shorter one cut samples short or failed mid-run
    out = tmp_path / "adapters.ckpt"
    io = [] if io_len is None else ["--io-len", io_len]
    assert run("train-compress", "--data", stream_data, "--model", stream_model, "--out", out,
               "--steps", "1", "--batch", "1", "--slots", "1", "--chunk", chunk, *io) == code
    if code:
        assert "data error: a 400-token stream holds no 8 chunks of " \
            f"{chunk} tokens" in capsys.readouterr().err
    assert out.exists() == (code == 0)


def rewrite_checkpoint(src, dst, edit):
    arrays, meta = load_arrays(src)
    edit(arrays, meta)
    save_arrays(dst, arrays, meta)


BAD_CHECKPOINTS = {
    "config-unknown-key": ("model", lambda a, m: m["config"].update(n_experts=2)),
    "config-bad-heads": ("model", lambda a, m: m["config"].update(n_heads=3)),
    "config-float-size": ("model", lambda a, m: m["config"].update(d_model=64.0)),
    "config-odd-head-width": ("model", lambda a, m: m["config"].update(n_heads=32)),
    "config-missing": ("model", lambda a, m: m.pop("config")),
    "record-missing": ("model", lambda a, m: a.pop("head")),
    "record-unexpected": ("model", lambda a, m: a.update(extra=a["head"])),
    "record-misshapen": ("model", lambda a, m: a.update(head=a["head"][:, 1:])),
    "adapter-rank-missing": ("adapters", lambda a, m: m.pop("rank")),
    "adapter-no-slots": ("adapters", lambda a, m: m.update(comp_len=0)),
    "adapter-alpha-text": ("adapters", lambda a, m: m.update(alpha="big")),
    "adapter-record-unexpected": ("adapters", lambda a, m: a.update(
        extra=a["adapter/comp_embedding"])),
}


@pytest.mark.parametrize("case", BAD_CHECKPOINTS)
def test_bad_checkpoint_metadata_is_data_error(stream_model, stream_data, tmp_path,
                                               capsys, case):
    kind, edit = BAD_CHECKPOINTS[case]
    model = ToyLM.load(stream_model)
    adapters = tmp_path / "adapters.ckpt"
    AdapterSet.init(model, comp_len=1).save(adapters)
    files = {"model": stream_model, "adapters": adapters}
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint(files[kind], bad, edit)
    files[kind] = bad
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", files["model"],
               "--adapters", files["adapters"], "--policy", "concat",
               "--length", "20", "--out", out) == 2
    assert f"data error: {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("pad_token_id", -1), ("comp_token_id", StreamVocab().size - 1), ("rope_base", 10000.0),
    ("rope_base", 0.0), ("rope_base", -1.0), ("rope_base", float("nan")),
    ("rope_base", float("inf")), ("rope_base", "x")])
def test_checkpoint_that_names_a_pad_id_is_data_error(stream_model, stream_data, tmp_path,
                                                      capsys, key, value):
    # the config holds no pad id, comp id or rope base any more, so a model
    # saved with one is refused, even at the value now derived; a rope base
    # of 0 or -1 once ran with numpy RuntimeWarnings and exited 0 with a
    # wrong CSV, and "x" ended in a TypeError traceback
    old = tmp_path / "old.ckpt"
    rewrite_checkpoint(stream_model, old, lambda a, m: m["config"].update({key: value}))
    out = tmp_path / "stream.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("stream", "--data", stream_data, "--model", old, "--policy", "full",
                   "--length", "20", "--out", out)
    err = capsys.readouterr().err
    assert code == 2 and f"data error: {old}" in err and key in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "stream", "train-compress"])
def test_non_finite_weight_is_data_error_before_any_forward(request, tmp_path, capsys,
                                                            monkeypatch, command):
    # a NaN weight loaded fine: eval exited 0 on argmax over NaN scores
    if command == "stream":
        data, model = (request.getfixturevalue(f) for f in ("stream_data", "stream_model"))
        extra = ["--policy", "full", "--length", "20"]
    else:
        data, model, _ = request.getfixturevalue("tiny_pipeline")
        extra = (["--policy", "full", "--max-eval", "2"] if command == "eval"
                 else ["--steps", "1", "--batch", "1", "--slots", "1"])
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint(model, bad, lambda a, m: a["layers.0.wq"].__setitem__(0, np.nan))
    monkeypatch.setattr(ccm.model, "attend", lambda *a, **k: pytest.fail("forward ran"))
    out = tmp_path / "out"
    assert run(command, "--data", data, "--model", bad, "--out", out, *extra) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {bad}: record 'layers.0.wq' holds NaN or inf")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "stream"])
def test_non_finite_result_is_contract_violation(request, tmp_path, capsys, command):
    # a finite head this large overflows the logits: eval picked choice 0 by
    # argmax over NaN scores, and stream wrote ppl nan
    if command == "stream":
        data, model = (request.getfixturevalue(f) for f in ("stream_data", "stream_model"))
        extra = ["--policy", "full", "--length", "20"]
    else:
        data, model, _ = request.getfixturevalue("tiny_pipeline")
        extra = ["--policy", "full", "--max-eval", "2"]
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint(model, bad, lambda a, m: a["head"].fill(3e38))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:  # numpy's warnings, too
        warnings.simplefilter("always")
        assert run(command, "--data", data, "--model", bad, "--out", out, *extra) == 3
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("numeric contract violation: non-finite") and err.count("\n") == 1
    assert not out.exists()


def test_adapters_without_rank_or_alpha_flags_take_the_init_defaults(tiny_pipeline):
    # train-compress passes only the flags given, so AdapterSet.init alone
    # owns these defaults
    _, _, adapters = tiny_pipeline
    _, meta = load_arrays(adapters)
    defaults = inspect.signature(AdapterSet.init).parameters
    assert (meta["rank"], meta["alpha"]) == (defaults["rank"].default,
                                             defaults["alpha"].default)


@pytest.mark.parametrize("command,model_data", [
    ("train-compress", "icl-stream"), ("train-compress", "stream-icl"),
    ("eval", "stream-icl"), ("stream", "icl-stream")])
def test_model_of_another_vocabulary_is_data_error(tiny_pipeline, stream_model,
                                                   stream_data, tmp_path, capsys,
                                                   command, model_data):
    icl_data, icl_model, _ = tiny_pipeline
    model, data = ((icl_model, stream_data) if model_data == "icl-stream"
                   else (stream_model, icl_data))
    extra = {"train-compress": ["--steps", "1", "--batch", "1", "--slots", "1"],
             "eval": ["--policy", "none"],
             "stream": ["--policy", "sliding", "--ccm-entries", "0",
                        "--length", "20"]}[command]
    out = tmp_path / "out"
    assert run(command, "--data", data, "--model", model, "--out", out, *extra) == 2
    assert "vocab_size" in capsys.readouterr().err
    assert not out.exists()


def test_complexity_sweep_values(tmp_path):
    out = tmp_path / "cx.csv"
    assert run("complexity", "--out", out, "--t-max", "16", "--lc", "50",
               "--li", "10", "--slots", "1", "--llama7b") == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    full_t16 = [r for r in rows if r[0] == "full" and r[1] == "inference"
                and r[2] == "16" and r[3] == "1"]
    assert len(full_t16) == 1
    assert int(full_t16[0][4]) == 810

    out2 = tmp_path / "cx2.csv"
    run("complexity", "--out", out2, "--t-max", "16", "--lc", "50", "--li", "10",
        "--slots", "1", "--llama7b")
    assert out.read_bytes() == out2.read_bytes()


def test_eval_fixed_peaks_match_complexity(tiny_pipeline, tmp_path):
    # fixed recompresses the whole context each step: complexity's fixed_comp
    icl_data, model, adapters = tiny_pipeline
    sample = read_dataset(icl_data).test[0]
    l_c, l_i = len(sample.segments[0]), len(sample.inputs[0]) + 1
    out, cx = tmp_path / "fixed.csv", tmp_path / "cx.csv"
    assert run("eval", "--data", icl_data, "--model", model, "--adapters", adapters,
               "--policy", "fixed", "--out", out) == 0
    assert run("complexity", "--out", cx, "--t-max", "4", "--lc", l_c, "--li", l_i,
               "--slots", "1") == 0
    fixed = [r.split(",") for r in cx.read_text().splitlines()[1:]
             if r.startswith("fixed_comp,")]
    for row in out.read_text().splitlines()[1:]:
        _, t, _, context, peak = row.split(",")
        want = max(int(r[4]) for r in fixed if r[2] == t)
        assert (float(context), float(peak)) == (1.0, float(want))


@pytest.mark.parametrize("kind,edit", [
    ("stream", lambda h: h.pop("vocab")),
    ("stream", lambda h: h["vocab"].update(n_bogus=3)),
    ("stream", lambda h: h.update(vocab=[48, 8])),
    ("icl", lambda h: h.pop("T"))], ids=["no-vocab", "vocab-unknown-key",
                                         "vocab-not-a-dict", "icl-no-T"])
def test_malformed_dataset_header_is_data_error(tiny_pipeline, stream_data,
                                                stream_model, tmp_path, capsys,
                                                kind, edit):
    # each header used to end the run in a KeyError or TypeError traceback
    icl_data, icl_model, adapters = tiny_pipeline
    data = icl_data if kind == "icl" else stream_data
    lines = data.read_text().splitlines(True)
    header = json.loads(lines[0])
    edit(header)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    out = tmp_path / "out.csv"
    if kind == "icl":
        argv = ["eval", "--model", icl_model, "--adapters", adapters, "--policy", "concat"]
    else:
        argv = ["stream", "--model", stream_model, "--policy", "full"]
    assert run(*argv, "--data", bad, "--out", out) == 2
    assert f"data error: {bad}: malformed {kind} header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train-compress"])
@pytest.mark.parametrize("field,value", [
    ("T", 0), ("T", "4"), ("T", 4.0), ("n_classes", 0), ("pattern_len", -1),
    ("n_pattern", 0), ("n_labels", True)])
def test_icl_header_size_that_is_no_integer_of_at_least_one_is_data_error(
        tiny_pipeline, tmp_path, capsys, command, field, value):
    # such headers used to end in a ValueError or TypeError traceback, run on,
    # or exit 1 as if a flag were wrong
    icl_data, model, _ = tiny_pipeline
    lines = icl_data.read_text().splitlines(True)
    header = json.loads(lines[0])
    (header["vocab"] if field in header["vocab"] else header)[field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    out = tmp_path / "out"
    argv = {"eval": ["--policy", "full"],
            "train-compress": ["--steps", "1", "--batch", "1"]}[command]
    assert run(command, "--data", bad, "--model", model, *argv, "--out", out) == 2
    assert f"data error: {bad}: malformed icl header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "stream"])
def test_one_token_stream_in_a_dataset_is_data_error(stream_data, stream_model, tmp_path,
                                                     capsys, command):
    # pretrain and stream used to exit 3, a numeric contract code, for it
    lines = stream_data.read_text().splitlines(True)
    rec = json.loads(lines[2])
    rec["tokens"] = rec["tokens"][:1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(lines[0] + lines[1] + json.dumps(rec) + "\n")
    out = tmp_path / "out"
    argv = {"pretrain": ["--steps", "1", "--batch", "1", "--window", "8"],
            "stream": ["--model", stream_model, "--policy", "full",
                       "--stream-index", "1"]}[command]
    assert run(command, "--data", bad, *argv, "--out", out) == 2
    assert f"data error: {bad}:3: a stream needs at least 2 tokens" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "stream"])
@pytest.mark.parametrize("edit", [
    lambda t: t + [99999], lambda t: t + [-1], lambda t: t + [2.5], lambda t: t + [True],
    lambda t: 5, lambda t: ["a"] + t], ids=["past-vocab", "negative", "float", "bool",
                                           "not-a-list", "text"])
def test_stream_token_that_is_no_vocabulary_id_is_data_error(
        stream_data, stream_model, tmp_path, capsys, command, edit):
    # such tokens used to end in an IndexError, TypeError or ValueError traceback
    lines = stream_data.read_text().splitlines(True)
    rec = json.loads(lines[1])
    rec["tokens"] = edit(rec["tokens"])
    bad = tmp_path / "bad.jsonl"
    bad.write_text(lines[0] + json.dumps(rec) + "\n")
    out = tmp_path / "out"
    argv = {"pretrain": ["--steps", "1", "--batch", "1", "--window", "8"],
            "stream": ["--model", stream_model, "--policy", "full"]}[command]
    assert run(command, "--data", bad, *argv, "--out", out) == 2
    assert f"data error: {bad}:2: stream tokens must be a list of token ids in [0, 56)" \
        in capsys.readouterr().err
    assert not out.exists()


def _set(field, value):
    return lambda header, rec: (header, {**rec, field: value})


def _first_step(field, edit):  # edit maps the first step's id list to a new one
    return lambda header, rec: (header, {**rec, field: [edit(rec[field][0]),
                                                        *rec[field][1:]]})


# (kind, edit of (header, last record), the message after "path:line: " or, for
# the header, "path: "); each used to end in a traceback, exit 0 on a wrong or
# silently changed result, or exit 3
BAD_RECORDS = {
    "icl-inputs-int": ("icl", _set("inputs", 5), "inputs"),
    "icl-segments-text": ("icl", _set("segments", "abc"), "segments"),
    "icl-2-of-4-segments": ("icl", lambda h, r: (h, {**r, "segments": r["segments"][:2]}),
                            "segments"),
    "icl-empty-output": ("icl", _first_step("outputs", lambda ids: []),
                         "outputs"),
    "icl-record-list": ("icl", lambda h, r: (h, list(r.values())), "a record"),
    "icl-float-input": ("icl", _first_step("inputs", lambda ids: [2.5, *ids[1:]]),
                        "inputs"),
    "icl-output-no-label": ("icl", _first_step("outputs", lambda ids: [0]),
                            "outputs"),
    "icl-split-tset": ("icl", _set("split", "tset"), "split"),
    "icl-classes-past-labels": ("icl", lambda h, r: ({**h, "n_classes": 10}, r),
                                "malformed icl header (UsageError('n_classes 10 exceeds n_labels 8')"),
    "icl-one-class": ("icl", lambda h, r: ({**h, "n_classes": 1}, r),
                      "malformed icl header (UsageError('n_classes 1: a query needs two "
                      "choices or more')"),
    "icl-empty-segment": ("icl", _first_step("segments", lambda ids: []),
                          "segments"),
    "stream-motifs-int": ("stream", _set("motif_positions", 5), "motif_positions"),
    "stream-record-list": ("stream", lambda h, r: (h, [r]), "a record"),
    "stream-comp-token": ("stream", lambda h, r: (h, {**r, "tokens": [StreamVocab().size - 1,
                                                                      *r["tokens"]]}),
                          "stream tokens"),
    "stream-identity-text": ("stream", _set("identity", "x"), "identity"),
    "stream-motif-pair-of-one": ("stream", _set("motif_positions", [[1]]),
                                 "motif_positions"),
}


@pytest.mark.parametrize("case", BAD_RECORDS)
def test_invalid_dataset_file_is_data_error_for_every_reader(request, tmp_path, capsys,
                                                              case):
    kind, edit, says = BAD_RECORDS[case]
    if kind == "icl":
        data, model, adapters = request.getfixturevalue("tiny_pipeline")
        runs = [["eval", "--model", model, "--policy", "full"],
                ["eval", "--model", model, "--adapters", adapters, "--policy", "concat"],
                ["train-compress", "--model", model, "--steps", "1", "--batch", "1"]]
    else:
        data = request.getfixturevalue("stream_data")
        runs = [["pretrain", "--steps", "1", "--batch", "1", "--window", "8"],
                ["stream", "--model", request.getfixturevalue("stream_model"),
                 "--policy", "full"]]
    lines = data.read_text().splitlines()
    header, rec = edit(json.loads(lines[0]), json.loads(lines[-1]))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header), *lines[1:-1], json.dumps(rec)]) + "\n")
    where = f"{bad}: " if says.startswith("malformed") else f"{bad}:{len(lines)}: "
    out = tmp_path / "out"
    for argv in runs:
        assert run(*argv, "--data", bad, "--out", out) == 2, argv
        assert capsys.readouterr().err.startswith(f"data error: {where}{says}"), argv
        assert not out.exists()


def test_exit_code_usage_error(tmp_path, icl_data, capsys):
    assert run("eval", "--data", icl_data, "--model", "nope.ckpt",
               "--policy", "bogus", "--out", tmp_path / "x.csv") == 1
    assert "usage error: --policy must be one of" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path):
    assert run("pretrain", "--data", tmp_path / "missing.jsonl",
               "--out", tmp_path / "m.ckpt") == 2


def test_exit_code_contract_violation(icl_data, tmp_path, capsys):
    # a learning rate this large drives the loss to nan by the second step
    out = tmp_path / "m.ckpt"
    with np.errstate(all="ignore"):
        assert run("pretrain", "--data", icl_data, "--out", out, "--steps", "3",
                   "--batch", "1", "--lr", "1e30", "--layers", "1", "--d-model", "8",
                   "--heads", "2", "--d-ff", "8") == 3
    assert "numeric contract violation: training diverged" in capsys.readouterr().err
    assert not out.exists()


def test_no_subcommand_is_usage_error():
    assert main([]) == 1

RECIPE_RUN = {"pretrain": ["pretrain", "--data", "{icl}"],
              "train-compress": ["train-compress", "--data", "{icl}",
                                 "--model", "{icl_model}"]}
BAD_RECIPE_FLAGS = [
    *((command, flag, value, says) for command in RECIPE_RUN
      for flag, value, says in [
          ("--steps", "abc", "argument --steps"), ("--lr", "x", "argument --lr"),
          ("--steps", "0", "steps must be at least 1"),
          ("--batch", "0", "batch must be at least 1"),
          ("--lr", "0", "lr must be positive"),
          ("--lr", "inf", "lr must be positive and finite")]),
    ("train-compress", "--policy", "none", "policy 'none' has no memory update rule"),
    # a non-finite alpha used to train (inf) or fail only after a step (nan)
    ("train-compress", "--alpha", "nan", "adapter alpha nan must be finite"),
    ("train-compress", "--alpha", "inf", "adapter alpha inf must be finite")]


@pytest.mark.parametrize("command,flag,value,says", BAD_RECIPE_FLAGS,
                         ids=[f"{c}-{f[2:]}={v}" for c, f, v, _ in BAD_RECIPE_FLAGS])
def test_bad_recipe_flag_is_usage_error(tiny_pipeline, tmp_path, capsys, command,
                                        flag, value, says):
    # Recipe checks every value before the run reads its data or writes a file
    files = {"{icl}": tiny_pipeline[0], "{icl_model}": tiny_pipeline[1]}
    out, metrics = tmp_path / "out.ckpt", tmp_path / "m.csv"
    assert run(*(files.get(a, a) for a in RECIPE_RUN[command]), flag, value,
               "--out", out, "--metrics", metrics) == 1
    assert f"usage error: {says}" in capsys.readouterr().err
    assert not out.exists() and not metrics.exists()


def test_recipe_seed_counts_without_seed_flag(tmp_path, icl_data):
    # a recipe flag left out takes Recipe's default, not a second one of its own
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    train = ["--steps", "1", "--batch", "1"]
    assert run("pretrain", "--data", icl_data, *train, "--out", a) == 0
    assert run("pretrain", "--data", icl_data, *train, "--seed", Recipe.seed,
               "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_without_samples_is_usage_error(tiny_pipeline, tmp_path):
    icl_data, model, adapters = tiny_pipeline
    out = tmp_path / "e.csv"
    assert run("eval", "--data", icl_data, "--model", model, "--adapters", adapters,
               "--policy", "concat", "--max-eval", "0", "--out", out) == 1
    assert not out.exists()


def test_train_compress_zero_steps_is_usage_error(tiny_pipeline, tmp_path, capsys):
    icl_data, model, _ = tiny_pipeline
    out, metrics = tmp_path / "a.ckpt", tmp_path / "m.csv"
    assert run("train-compress", "--data", icl_data, "--model", model, "--out", out,
               "--steps", "0", "--metrics", metrics) == 1
    assert "usage error: steps must be at least 1" in capsys.readouterr().err
    assert not out.exists() and not metrics.exists()


class ReadRecorder(argparse.Namespace):
    """A namespace that records every attribute read once ``_reads`` exists."""

    def __getattribute__(self, name):
        attrs = object.__getattribute__(self, "__dict__")
        if "_reads" in attrs:
            attrs["_reads"].add(name)
        return object.__getattribute__(self, name)


def test_every_flag_is_read(tiny_pipeline, stream_model, stream_data, tmp_path):
    # each command must read every flag it takes, on some run of it
    icl_data, model, adapters = tiny_pipeline
    out = tmp_path / "out"
    train = ["--steps", "1", "--batch", "1"]
    runs = [
        ["gen-data", "--kind", "icl", "--identities", "4", "--t-max", "2"],
        ["gen-data", "--kind", "stream", "--length", "30", "--streams", "1"],
        ["pretrain", "--data", icl_data, *train],
        ["pretrain", "--data", stream_data, "--window", "16", *train],
        ["train-compress", "--data", icl_data, "--model", model, *train],
        ["train-compress", "--data", stream_data, "--model", stream_model,
         "--chunk", "16", "--io-len", "8", *train],
        ["eval", "--data", icl_data, "--model", model, "--adapters", adapters,
         "--policy", "concat", "--max-eval", "1"],
        ["stream", "--data", stream_data, "--model", stream_model, "--policy",
         "sliding", "--length", "20"],
        ["complexity"],
        ["complexity", "--llama7b"],
    ]
    unread: dict[str, set] = {}
    for argv in runs:
        ns = cli.build_parser().parse_args([str(a) for a in argv] + ["--out", str(out)],
                                           namespace=ReadRecorder())
        dests = set(vars(ns))
        ns._reads = set()
        assert cli.COMMANDS[ns.command](ns) == 0
        reads = ns._reads
        unread[argv[0]] = unread.get(argv[0], dests) & (dests - reads)
    assert {cmd: flags for cmd, flags in unread.items() if flags} == {}


# every command's flags: adding or removing one is an edit to this table
FLAGS = {
    "gen-data": {"--out", "--seed", "--kind", "--identities", "--t-max", "--classes",
                 "--pattern-len", "--pattern-tokens", "--test-fraction", "--length",
                 "--streams"},
    "pretrain": {"--out", "--data", "--seed", "--steps", "--batch", "--lr",
                 "--metrics", "--window", "--layers", "--d-model", "--heads", "--d-ff"},
    "train-compress": {"--out", "--data", "--seed", "--steps", "--batch", "--lr",
                       "--metrics", "--model", "--policy", "--slots", "--rank",
                       "--alpha", "--chunk", "--io-len"},
    "eval": {"--out", "--data", "--model", "--adapters", "--policy", "--max-eval"},
    "stream": {"--out", "--data", "--model", "--adapters", "--policy", "--sink",
               "--ccm-entries", "--window", "--chunk", "--stream-index", "--length"},
    "complexity": {"--out", "--t-max", "--lc", "--li", "--slots", "--llama7b",
                   "--layers", "--d-model"},
}


def test_every_model_config_field_has_a_setter():
    # a field no flag sets and no dataset kind moves off its default is a
    # constant, not a setting
    by_data = {f.name for vocab in (VocabSpec(), StreamVocab()) for f in fields(ModelConfig)
               if replace(vocab.model_config(), **{f.name: f.default}) != vocab.model_config()}
    assert set(cli._SIZES.values()) | by_data == {f.name for f in fields(ModelConfig)}


def test_flag_table():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
             for name, p in commands.items()}
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 62


# ---------------------------------------------------------------------------
# every command under drawn flags and input files


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Per data kind, a valid dataset, tiny model and adapters; and under
    "broken", every variant of them the dataset editors and checkpoint
    fuzzers above make, plus a missing file of each."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {"broken": {"--data": [d / "missing.jsonl"], "--model": [d / "missing.ckpt"],
                        "--adapters": [d / "missing.ckpt"]}}
    for kind, sizes, extra in (("icl", ["--identities", "12", "--t-max", "3", "--classes", "4"],
                                []),
                               ("stream", ["--length", "400", "--streams", "1"],
                                ["--chunk", "16", "--io-len", "8"])):
        data, model, adapters = (d / f"{kind}.{ext}" for ext in ("jsonl", "model", "adapters"))
        assert run("gen-data", "--kind", kind, *sizes, "--out", data, "--seed", "3") == 0
        assert run("pretrain", "--data", data, "--out", model, "--steps", "1", "--batch", "1",
                   "--layers", "1", "--d-model", "16", "--heads", "2", "--d-ff", "16",
                   *(["--window", "16"] if extra else [])) == 0
        assert run("train-compress", "--data", data, "--model", model, "--out", adapters,
                   "--steps", "1", "--batch", "1", "--slots", "1", *extra) == 0
        files[kind] = {"--data": data, "--model": model, "--adapters": adapters}
    for case, (kind, edit, _) in BAD_RECORDS.items():
        lines = files[kind]["--data"].read_text().splitlines()
        header, rec = edit(json.loads(lines[0]), json.loads(lines[-1]))
        bad = d / f"{case}.jsonl"
        bad.write_text("\n".join([json.dumps(header), *lines[1:-1], json.dumps(rec)]) + "\n")
        files["broken"]["--data"].append(bad)
    edits = {**BAD_CHECKPOINTS,
             "nan-weight": ("model", lambda a, m: a["layers.0.wq"].__setitem__(0, np.nan)),
             "huge-head": ("model", lambda a, m: a["head"].fill(3e38))}
    for case, (kind, edit) in edits.items():
        for data_kind in ("icl", "stream"):
            bad = d / f"{case}-{data_kind}.ckpt"
            rewrite_checkpoint(files[data_kind][f"--{kind}"], bad, edit)
            files["broken"][f"--{kind}"].append(bad)
    return files


# small values, mostly valid, then the kinds of wrong one each flag must reject
FUZZ_VALUES = ["1", "2", "3"] * 3 + ["0", "-1", "0.5", "x", "nan", "inf", ""]
FUZZ_POLICIES = {"eval": list(engine.SESSION_POLICIES), "stream": list(engine.STREAM_POLICIES),
                 "train-compress": ["concat", "merge", "ema", "independent", "none"]}
COMPRESSING = {"concat", "merge", "ema", "independent", "fixed"}


def fuzz_base(command: str, kind: str) -> list:
    """Flags that keep a run of ``command`` on ``kind`` data short; the drawn
    flags come after them, so theirs win."""
    stream = kind != "icl"
    return {"gen-data": ["--length", "40", "--streams", "1"] if stream
            else ["--identities", "6", "--t-max", "2"],
            "pretrain": ["--steps", "1", "--batch", "1", "--layers", "1", "--d-model", "8",
                         "--heads", "2", "--d-ff", "8", *(["--window", "16"] * stream)],
            "train-compress": ["--steps", "1", "--batch", "1",
                               *(["--chunk", "16", "--io-len", "8"] * stream)],
            "eval": ["--max-eval", "2"], "stream": ["--length", "40"],
            "complexity": []}[command]


def finite_csv(path: Path) -> bool:
    """Whether every cell of a CSV that reads as a number is a finite one."""
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not np.isfinite(value):
                return False
    return True


@settings(max_examples=400, deadline=None)
@given(draw=st.data())
def test_every_command_exits_with_its_code_and_no_traceback(fuzz_files, draw):
    # flags from the table, input files valid or broken: every run ends in an
    # exit code, never a traceback, and a run that succeeds writes finite CSVs
    pick = lambda options: draw.draw(st.sampled_from(options))  # noqa: E731
    command = pick(sorted(FLAGS))
    kind = pick({"gen-data": ["icl", "stream", "stream-iid", "bogus"],
                 "eval": ["icl"] * 3 + ["stream"],  # mostly the kind the command reads
                 "stream": ["stream"] * 3 + ["icl"]}.get(command, ["icl", "stream"]))
    values = dict(fuzz_files.get(kind, {}))
    broken = pick([None, None, None, "--data", "--model", "--adapters"])
    if broken:
        values[broken] = pick(fuzz_files["broken"][broken])
    values["--kind"] = kind
    values["--policy"] = pick(FUZZ_POLICIES.get(command, ["concat"]) * 2 + ["bogus"])
    given = {"--data", "--model", "--policy", "--kind"} & FLAGS[command]
    if command in ("eval", "stream") and (values["--policy"] in COMPRESSING) == pick(
            [True, True, True, False]):
        given.add("--adapters")  # mostly where the policy needs adapters
    given |= set(draw.draw(st.lists(st.sampled_from(sorted(FLAGS[command] - values.keys()
                                                          - {"--out"})),
                                    unique=True, max_size=2)))
    with contextlib.ExitStack() as stack:
        out_dir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        values["--metrics"] = out_dir / "metrics.csv"
        argv = [command, *fuzz_base(command, kind)]
        for flag in sorted(given):
            argv += [flag] if flag == "--llama7b" else [flag, values.get(flag) or
                                                        pick(FUZZ_VALUES)]
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        code = run(*argv, "--out", out_dir / "out")
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 0:
            csvs = [out_dir / "metrics.csv"] * ("--metrics" in given) \
                + [out_dir / "out"] * (command in ("eval", "stream", "complexity"))
            assert all(finite_csv(p) for p in csvs), argv
