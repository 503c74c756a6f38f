"""CLI contracts: artifacts exist, reruns are byte-identical, exit codes map."""

import numpy as np
import pytest

from ccm.cli import main
from ccm.taskgen import read_dataset


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


def test_pipeline_artifacts(tiny_pipeline, tmp_path):
    icl_data, model, adapters = tiny_pipeline
    from ccm.model import ToyLM
    from ccm.lora import AdapterSet
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
                       policy, "--out", out, "--seed", "1", "--max-eval", "2",
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
               "--window", "24", "--chunk", "8", "--slots", "1",
               "--length", "120", "--seed", "0") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pos,kv_total,ppl_cum,compression_event"
    kv = [int(line.split(",")[1]) for line in lines[1:]]
    assert max(kv) <= 25  # sink + window


@pytest.mark.parametrize("chunk", ["0", "-3"])
def test_stream_chunk_below_one_is_usage_error(tiny_pipeline, stream_data, tmp_path,
                                               chunk):
    # a zero chunk used to drain nothing and let the cache outgrow its budget
    _, model, adapters = tiny_pipeline
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", model, "--adapters",
               adapters, "--policy", "concat", "--out", out, "--chunk", chunk,
               "--slots", "1", "--length", "200") == 1
    assert not out.exists()


def test_stream_region_below_one_slot_group_is_usage_error(stream_model, stream_data,
                                                          tmp_path):
    # such a region evicts every group it compresses; the caps are rejected
    # whichever policy streams under them
    out = tmp_path / "stream.csv"
    assert run("stream", "--data", stream_data, "--model", stream_model, "--policy",
               "sliding", "--out", out, "--ccm-entries", "1", "--slots", "2",
               "--length", "100") == 1
    assert not out.exists()


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
               "--li", "10", "--slots", "1", "--llama7b", "--seed", "0") == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    full_t16 = [r for r in rows if r[0] == "full" and r[1] == "inference"
                and r[2] == "16" and r[3] == "1"]
    assert len(full_t16) == 1
    assert int(full_t16[0][4]) == 810

    out2 = tmp_path / "cx2.csv"
    run("complexity", "--out", out2, "--t-max", "16", "--lc", "50", "--li", "10",
        "--slots", "1", "--llama7b", "--seed", "0")
    assert out.read_bytes() == out2.read_bytes()


def test_exit_code_usage_error(tmp_path, icl_data):
    assert run("eval", "--data", icl_data, "--model", "nope.ckpt",
               "--policy", "bogus", "--out", tmp_path / "x.csv") == 1


def test_exit_code_missing_file(tmp_path):
    assert run("pretrain", "--data", tmp_path / "missing.jsonl",
               "--out", tmp_path / "m.ckpt") == 2


def test_exit_code_contract_violation(stream_model, tmp_path):
    short = tmp_path / "short.jsonl"
    run("gen-data", "--kind", "stream", "--length", "1", "--streams", "1",
        "--out", short, "--seed", "0")
    assert run("stream", "--data", short, "--model", stream_model, "--policy", "sliding",
               "--out", tmp_path / "s.csv", "--window", "8", "--chunk", "2",
               "--ccm-entries", "0", "--slots", "1") == 3


def test_no_subcommand_is_usage_error():
    assert main([]) == 1

@pytest.mark.parametrize("line", ["steps=abc", "lr=x"])
def test_bad_recipe_value_is_data_error(tmp_path, icl_data, capsys, line):
    recipe = tmp_path / "recipe.txt"
    recipe.write_text(f"# recipe\n{line}\n")
    metrics = tmp_path / "m.csv"
    assert run("pretrain", "--data", icl_data, "--config", recipe,
               "--out", tmp_path / "m.ckpt", "--metrics", metrics) == 2
    assert f"{recipe}:2" in capsys.readouterr().err
    assert not metrics.exists()


def test_eval_without_samples_is_usage_error(tiny_pipeline, tmp_path):
    icl_data, model, adapters = tiny_pipeline
    out = tmp_path / "e.csv"
    assert run("eval", "--data", icl_data, "--model", model, "--adapters", adapters,
               "--policy", "concat", "--max-eval", "0", "--out", out) == 1
    assert not out.exists()
