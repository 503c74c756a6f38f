"""The benchmark's correctness gates at toy size: a `ccm` change that breaks
an oracle gate or an op check fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import ccm
import ccm.cli  # noqa: F401  (the workloads reach every module as an attribute)
import ccm.complexity  # noqa: F401

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = load_workloads()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_gates_pass_at_toy_size(tmp_path, name):
    workload = bench.WORKLOADS[name](ccm, bench.TOY, 5)
    workload.setup(tmp_path)
    assert workload.reference_check() == []
    _, problems = workload.check(0, workload.run(0))
    assert problems == []
