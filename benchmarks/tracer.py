"""Out-of-process-style tracing of `ccm`: spans and counters recorded by
wrapping the library's public functions from the benchmark's own code.

Nothing in `ccm` knows about this module. ``Tracer.install`` replaces each
traced function under every name a caller looks it up by (a module that
did ``from .model import attend`` holds its own reference, so both
``model.attend`` and ``training.attend`` are patched), and ``uninstall``
puts the originals back. Spans record name, start, end and parent and stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter_ns


def _bucket_t(t: int) -> int:
    """Smallest power of two >= t, capped below at 2 (t=1 shares bucket t2)."""
    b = 2
    while b < t:
        b *= 2
    return b


class Tracer:
    """Span recorder plus counters; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = _clock()
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """``fn`` timed as a span; ``name`` is a string or f(args) -> string.

        ``hook(args, kwargs, result)`` runs after the span closes and
        updates counters, so its cost lands in the parent's self time.
        """
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if fixed else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return traced

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, modules, fn, name, hook=None) -> None:
        """Replace ``fn`` under every module attribute that refers to it."""
        traced = self.wrap(fn, name, hook)
        found = False
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)
                    found = True
        if not found:
            raise RuntimeError(f"{name}: function not reachable from any module")

    def patch_method(self, cls, attr, name, hook=None) -> None:
        self._set(cls, attr, self.wrap(getattr(cls, attr), name, hook))

    def install(self, ccm) -> None:
        """Wrap the public functions each per-layer metric is built from."""
        mods = [ccm, ccm.tensor, ccm.model, ccm.lora, ccm.memory, ccm.engine,
                ccm.training, ccm.optim, ccm.checkpoint, ccm.taskgen, ccm.cli]
        counts = self.counts
        T, M = ccm.tensor, ccm.model

        # tensor: object and tape-node counts, and the ops below model level
        orig_init = T.Tensor.__init__

        def tensor_init(obj, data, requires_grad=False, _parents=(),
                        _backward=None):
            orig_init(obj, data, requires_grad, _parents, _backward)
            counts["tensor.objects"] += 1
            if _backward is not None:
                counts["tensor.tape_nodes"] += 1

        self._set(T.Tensor, "__init__", tensor_init)
        for fn in (T.rope, T.rope_angles, T.softmax_rows):
            self.patch_function(mods, fn, f"tensor.{fn.__name__}")
        self.patch_method(T.Tensor, "backward", "tensor.backward")

        # model: one inference forward and the ops inside a layer
        def forward_hook(args, kwargs, out):
            tokens = args[1] if len(args) > 1 else kwargs["tokens"]
            counts["model.forward.calls"] += 1
            counts["model.forward.query_tokens"] += len(tokens)

        self.patch_method(M.ToyLM, "forward", "model.forward", forward_hook)

        def attend_hook(args, kwargs, out):
            k = args[2] if len(args) > 2 else kwargs["k"]
            counts["model.attend.key_rows"] += k.shape[0]

        self.patch_function(mods, M.attend, "model.attend", attend_hook)
        for fn in (M.rmsnorm, M.mlp, M.embed_tokens):
            self.patch_function(mods, fn, f"model.{fn.__name__}")

        def project_name(args, kwargs):
            w = args[1] if len(args) > 1 else kwargs["w"]
            return ("model.project_rows.wo" if w.name.endswith("wo")
                    else "model.project_rows.qkv")

        self.patch_function(mods, M.project_rows, project_name)

        def extend_hook(args, kwargs, out):
            counts["model.kvlayout.extend_calls"] += 1
            counts["model.kvlayout.bytes_copied"] += out.keys.nbytes + out.values.nbytes

        self.patch_method(M.KVLayout, "extended", "model.kvlayout.extend", extend_hook)
        self.patch_method(ccm.lora.LoRAPair, "delta", "lora.delta")

        # memory: compression, update and layout
        Mem = ccm.memory
        self.patch_function(mods, Mem.compress_segment, "memory.compress_segment")
        self.patch_function(mods, Mem.compress_from_kv, "memory.compress_from_kv")
        self.patch_method(Mem.ContextMemory, "updated", "memory.update")
        self.patch_method(Mem.ContextMemory, "layout", "memory.layout")

        def snapshot_hook(args, kwargs, out):
            n = sum(s.keys.nbytes + s.values.nbytes for s in out.slots)
            if out.running is not None:
                n += out.running.keys.nbytes + out.running.values.nbytes
            counts["memory.snapshot.bytes_copied"] += n

        self.patch_method(Mem.ContextMemory, "snapshot", "memory.snapshot",
                          snapshot_hook)

        # engine: the online phases
        E = ccm.engine
        self.patch_method(E.Session, "ingest", "engine.session_ingest")
        self.patch_function(mods, E.evaluate_multichoice, "engine.evaluate_multichoice")
        self.patch_function(mods, E.streaming_step, "engine.streaming_step")
        self.patch_function(mods, E.evaluate_perplexity, "engine.evaluate_perplexity")

        # training: one parallel forward counts as one forward
        Tr = ccm.training

        def training_forward_name(args, kwargs):
            seq = args[2] if len(args) > 2 else kwargs["seq"]
            return f"training.training_forward.t{_bucket_t(seq.t)}"

        def training_forward_hook(args, kwargs, out):
            seq = args[2] if len(args) > 2 else kwargs["seq"]
            counts["model.forward.calls"] += 1
            counts["model.forward.query_tokens"] += seq.n_tokens

        self.patch_function(mods, Tr.training_forward, training_forward_name,
                            training_forward_hook)
        self.patch_function(mods, Tr.build_parallel_mask, "training.build_parallel_mask")
        self.patch_function(mods, Tr.parallel_memory_update,
                            "training.parallel_memory_update")
        self.patch_function(mods, Tr.train_compression, "training.train_compression")
        self.patch_method(ccm.optim.Adam, "step", "optim.adam_step")

        # set-up layers
        self.patch_function(mods, ccm.checkpoint.load_arrays, "checkpoint.load_arrays")
        self.patch_function(mods, ccm.checkpoint.save_arrays, "checkpoint.save_arrays")
        self.patch_function(mods, ccm.taskgen.gen_icl_dataset, "taskgen.gen")
        self.patch_function(mods, ccm.taskgen.gen_stream, "taskgen.gen")
        self.patch_function(mods, ccm.taskgen.read_dataset, "taskgen.read_dataset")
        self.patch_function(mods, ccm.cli.eval_rows, "cli.eval_rows")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, total ns, self ns, and per-call durations."""
        if self._stack:
            raise RuntimeError("span table requested while spans are open")
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.int64)
        dur = end - start
        child_sum = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        self_ns = dur - child_sum
        table: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            table[name] = {"calls": int(sel.sum()), "total_ns": int(dur[sel].sum()),
                           "self_ns": int(self_ns[sel].sum()), "durations_ns": dur[sel]}
        return table

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: a child outside its parent, or a
        negative self time. Empty when the spans nest."""
        problems = []
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        sel = parent >= 0
        p = parent[sel]
        bad = (start[sel] < start[p]) | (end[sel] > end[p]) | (p >= np.flatnonzero(sel))
        if bad.any():
            problems.append(f"{int(bad.sum())} spans lie outside their parent")
        if (end < start).any():
            problems.append("span ends before it starts")
        for name, row in self.span_table().items():
            if row["self_ns"] < 0:
                problems.append(f"{name}: negative self time")
        return problems

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start/end in ns, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "i": i, "name": self.names[self.span_name[i]],
                    "start_ns": self.span_start[i], "end_ns": self.span_end[i],
                    "parent": self.span_parent[i]}) + "\n")


def per_layer_metrics(table: dict[str, dict], counts: Counter, n_ops: int,
                      n_layers: int, setup_table: dict[str, dict]) -> dict[str, tuple]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit).

    Times and counts are per op (one identity, stream pass or training
    step) of the traced pass; set-up times are per set-up.
    """
    def ms(name, key="total_ns", tab=table, per=n_ops):
        row = tab.get(name)
        return 0.0 if row is None else row[key] / 1e6 / per

    def per_op(key):
        return counts.get(key, 0) / n_ops

    step = table.get("engine.streaming_step")
    if step is not None and step["calls"]:
        p50, p99 = (float(x) / 1e6 for x in np.percentile(step["durations_ns"], [50, 99]))
    else:
        p50 = p99 = 0.0

    out = {
        "engine.evaluate_multichoice.ms": (ms("engine.evaluate_multichoice"), "ms/op"),
        "engine.session_ingest.ms": (ms("engine.session_ingest"), "ms/op"),
        "model.forward.calls": (per_op("model.forward.calls"), "1/op"),
        "model.forward.query_tokens": (per_op("model.forward.query_tokens"), "1/op"),
        "model.forward.kv_entries_read":
            (counts.get("model.attend.key_rows", 0) / n_layers / n_ops, "1/op"),
        "tensor.objects": (per_op("tensor.objects"), "1/op"),
        "tensor.tape_nodes": (per_op("tensor.tape_nodes"), "1/op"),
        "model.kvlayout.extend_calls": (per_op("model.kvlayout.extend_calls"), "1/op"),
        "model.kvlayout.bytes_copied": (per_op("model.kvlayout.bytes_copied"), "B/op"),
        "memory.snapshot.bytes_copied": (per_op("memory.snapshot.bytes_copied"), "B/op"),
        "model.kvlayout.extend_ms": (ms("model.kvlayout.extend"), "ms/op"),
        "tensor.rope.ms": (ms("tensor.rope") + ms("tensor.rope_angles"), "ms/op"),
        "tensor.softmax_rows.ms": (ms("tensor.softmax_rows"), "ms/op"),
        "model.attend.self_ms": (ms("model.attend", "self_ns"), "ms/op"),
        "model.rmsnorm.ms": (ms("model.rmsnorm"), "ms/op"),
        "model.project_rows.qkv_ms": (ms("model.project_rows.qkv"), "ms/op"),
        "model.project_rows.wo_ms": (ms("model.project_rows.wo"), "ms/op"),
        "model.mlp.ms": (ms("model.mlp"), "ms/op"),
        "model.embed_tokens.ms": (ms("model.embed_tokens"), "ms/op"),
        "model.forward.self_ms": (ms("model.forward", "self_ns"), "ms/op"),
        "lora.delta.ms": (ms("lora.delta"), "ms/op"),
        "memory.compress_segment.ms": (ms("memory.compress_segment"), "ms/op"),
        "memory.compress_from_kv.ms": (ms("memory.compress_from_kv"), "ms/op"),
        "memory.update.ms": (ms("memory.update"), "ms/op"),
        "memory.layout.ms": (ms("memory.layout"), "ms/op"),
        "engine.streaming_step.ms_p50": (p50, "ms"),
        "engine.streaming_step.ms_p99": (p99, "ms"),
        "training.build_parallel_mask.ms": (ms("training.build_parallel_mask"), "ms/op"),
        "training.parallel_memory_update.ms":
            (ms("training.parallel_memory_update"), "ms/op"),
        "tensor.backward.ms": (ms("tensor.backward"), "ms/op"),
        "optim.adam_step.ms": (ms("optim.adam_step"), "ms/op"),
        "checkpoint.load_arrays.ms":
            (ms("checkpoint.load_arrays", tab=setup_table, per=1), "ms"),
        "taskgen.gen.ms": (ms("taskgen.gen", tab=setup_table, per=1), "ms"),
    }
    for b in (2, 4, 8, 16):
        out[f"training.training_forward.ms.t{b}"] = (
            ms(f"training.training_forward.t{b}"), "ms/op")
    return out


def print_span_table(table: dict[str, dict], n_ops: int, title: str) -> None:
    print(f"# {title}: calls, total ms and self ms per op ({n_ops} ops)")
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_ns"])
    for name, row in rows:
        print(f"#   {name:40s} {row['calls'] / n_ops:10.1f} "
              f"{row['total_ns'] / 1e6 / n_ops:10.3f} {row['self_ns'] / 1e6 / n_ops:10.3f}")


def counters_of(counts: Counter, table: dict[str, dict]) -> dict[str, int]:
    """Machine-independent numbers of a pass: counters and span call counts."""
    out = dict(counts)
    for name, row in table.items():
        out[f"calls:{name}"] = row["calls"]
    return out

