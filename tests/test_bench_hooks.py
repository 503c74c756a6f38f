"""The traced benchmark wraps `ccm` functions by name; a refactor that
renames or deletes one of them, or routes around it, must fail here, not
in the benchmark."""

import importlib.util
from pathlib import Path

import numpy as np

import ccm
import ccm.cli  # noqa: F401  (the tracer wraps functions in every module)
import ccm.engine
import ccm.model
import ccm.training
from conftest import random_sample

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    attend = ccm.model.attend
    tracer = load_tracer().Tracer()
    try:
        tracer.install(ccm)
        assert ccm.model.attend is not attend
    finally:
        tracer.uninstall()
    assert ccm.model.attend is attend


def test_traced_parameter_is_one_tensor_object():
    # the tracer's Tensor.__init__ takes (data, requires_grad, _parents,
    # _backward); a Parameter is built through it as one object, no tape node
    tracer = load_tracer().Tracer()
    try:
        tracer.install(ccm)
        before = tracer.counts.copy()
        p = ccm.Parameter("w", np.ones((2, 3)))
    finally:
        tracer.uninstall()
    assert p.name == "w" and p.requires_grad and p.shape == (2, 3)
    assert tracer.counts["tensor.objects"] == before["tensor.objects"] + 1
    assert tracer.counts["tensor.tape_nodes"] == before["tensor.tape_nodes"]


def test_traced_spans_record_calls(tiny_model64):
    # one session step and one training step reach every traced phase
    tiny_model64.freeze()
    adapters = ccm.AdapterSet.init(tiny_model64, comp_len=1, seed=0)
    sample = random_sample(np.random.default_rng(0), 2, 20)
    tracer = load_tracer().Tracer()
    try:
        tracer.install(ccm)
        # called through the modules, where the tracer patched them
        session = ccm.engine.Session(tiny_model64, adapters, "concat")
        session.ingest([1, 2, 3])
        ccm.engine.evaluate_multichoice(session, [4, 5], [[6], [7]])
        ccm.training.train_compression(
            tiny_model64, adapters, lambda rng, t: sample,
            ccm.Recipe(steps=1, batch=1, T=2, s=1, policy="concat"))
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.span_table().items()}
    for name in ("memory.update", "memory.compress_segment", "engine.session_ingest",
                 "training.parallel_memory_update"):
        assert calls.get(name, 0) > 0, name
    assert any(name.startswith("training.training_forward.t") and n > 0
               for name, n in calls.items())


def test_traced_stream_reaches_the_per_layer_names(tiny_model64, monkeypatch):
    # the per-layer metrics read these spans: a forward that routes around
    # one of them would leave its metric at 0 instead of failing
    tiny_model64.freeze()
    adapters = ccm.AdapterSet.init(tiny_model64, comp_len=1, seed=0)
    entries_read = []
    forward = ccm.model.ToyLM.forward

    def counted_forward(self, tokens, layout, *args, **kwargs):
        # a span reads its layout and its own tokens; an event's s comp tokens
        # in its forward read [context | themselves] in an attention of their own
        event = kwargs.get("event")
        entries_read.append(layout.n_entries + len(tokens)
                            + (0 if event is None else event[0].n_entries))
        return forward(self, tokens, layout, *args, **kwargs)

    monkeypatch.setattr(ccm.model.ToyLM, "forward", counted_forward)
    caps = ccm.engine.StreamCaps(n_sink=1, ccm_entries=2, window=6, chunk=3)
    tracer = load_tracer().Tracer()
    try:
        tracer.install(ccm)
        result = ccm.engine.evaluate_perplexity(tiny_model64, adapters, "concat",
                                                np.arange(20) % 16, caps)
    finally:
        tracer.uninstall()
    assert result.events.sum() > 0  # the pass compressed, so it ran both kinds of forward
    calls = {name: row["calls"] for name, row in tracer.span_table().items()}
    for name in ("tensor.rope", "tensor.rope_angles", "tensor.softmax_rows",
                 "model.attend", "model.rmsnorm", "model.mlp", "model.embed_tokens",
                 "model.project_rows.qkv", "model.project_rows.wo", "lora.delta"):
        assert calls.get(name, 0) > 0, name
    # every attention's key rows, at every layer
    assert tracer.counts["model.attend.key_rows"] == \
        sum(entries_read) * tiny_model64.config.n_layers


def test_public_names_resolve():
    missing = [name for name in ccm.__all__ if not hasattr(ccm, name)]
    assert not missing
