"""The benchmark's correctness gates at toy size: a `ccm` change that breaks
an oracle gate or an op check fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import ccm
import ccm.cli  # noqa: F401  (the workloads reach every module as an attribute)
import ccm.complexity  # noqa: F401

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench(name: str):
    """``benchmarks/<name>.py`` as a module, read from the file as it is."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = load_bench("workloads")


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_gates_pass_at_toy_size(tmp_path, name):
    workload = bench.WORKLOADS[name](ccm, bench.TOY, 5)
    workload.setup(tmp_path)
    assert workload.reference_check() == []
    _, problems = workload.check(0, workload.run(0))
    assert problems == []


def test_traced_icl_identity_reads_the_complexity_kv(tmp_path):
    # the traced gate of the benchmark run: one identity's attentions read, per
    # layer, the KV entries `complexity` counts for its compressions and for
    # every answer choice's inference
    workload = bench.WORKLOADS["icl_eval"](ccm, bench.TOY, 5)
    workload.setup(tmp_path)
    tracer = load_bench("tracer").Tracer()
    try:
        tracer.install(ccm)
        workload.run(0)
    finally:
        tracer.uninstall()
    n_layers = workload.model.config.n_layers
    assert tracer.counts["model.attend.key_rows"] / n_layers \
        == workload.expected_kv_entries_read()
