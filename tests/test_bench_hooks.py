"""The traced benchmark wraps `ccm` functions by name; a refactor that
renames or deletes one of them must fail here, not in the benchmark."""

import importlib.util
from pathlib import Path

import ccm
import ccm.cli  # noqa: F401  (the tracer wraps functions in every module)
import ccm.model

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


def test_public_names_resolve():
    missing = [name for name in ccm.__all__ if not hasattr(ccm, name)]
    assert not missing
