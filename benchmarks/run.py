"""Benchmark of `ccm`: online ICL evaluation, bounded and full-cache
streaming, and compression training.

    python3 benchmarks/run.py --workload icl_eval --seed 1 --seconds 20 --trace 0

Run from the repository root; `ccm` is imported from ``src/`` next to this
directory, never from an installed copy. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from a fixed number of traced ops. Lines before it are for people: the
metrics under the names used in README.md, host-drift diagnostics and,
in a traced run, the span table. See README.md for the workloads and for
which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: OpenBLAS reads these once, at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 20231206   # reserved for confirming a claimed gain; never tune on it
SETUP_REPEATS = 5
PROBE_NOMINAL_MS = 1.2      # the probe's time on a nominal host; see host_factor
CCM_MODULES = ("tensor", "model", "lora", "memory", "engine", "training", "optim",
               "checkpoint", "taskgen", "cli", "complexity", "seeding")


def import_ccm():
    """`ccm` from this checkout's ``src/``; exits 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "ccm" / "__init__.py").is_file():
        print(f"benchmark: no ccm package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    ccm = importlib.import_module("ccm")
    if Path(ccm.__file__).resolve().parent != (src / "ccm").resolve():
        print(f"benchmark: imported ccm from {ccm.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    for name in CCM_MODULES:
        importlib.import_module(f"ccm.{name}")
    return ccm


# ---------------------------------------------------------------------------
# host-drift diagnostics


def probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy-plus-Python loop, in ms.

    It mixes what `ccm` spends its time on: small matmuls and elementwise
    ops driven from Python, and concatenating a KV-sized array.
    """
    a = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
    kv = np.linspace(-1.0, 1.0, 3 * 150 * 64, dtype=np.float32).reshape(3, 150, 64)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        x, acc = a, 0.0
        for _ in range(100):
            x = np.tanh(x @ a)
            acc += float(x[0, 0])
        for _ in range(20):
            cat = np.concatenate([kv, x[None, :1, :].repeat(3, axis=0)], axis=1)
            s = cat[0] @ x[0]
            e = np.exp(s - s.max())
            acc += float(e.sum())
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def steal_ticks() -> int | None:
    """Steal time of the whole host from /proc/stat, in clock ticks."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


class Ops:
    """Attempted and failed ops, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.peak_kv = 0

    def run(self, wl, i: int) -> bool:
        """Op ``i`` and its checks; True if it succeeded."""
        self.attempted += 1
        try:
            result = wl.run(i)
        except Exception:  # a failed op is counted, and the run goes on
            self.fail([f"op {i} raised:\n{traceback.format_exc()}"])
            return False
        peak, problems = wl.check(i, result)
        self.peak_kv = max(self.peak_kv, peak)
        if problems:
            self.fail(problems)
        return not problems

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def timed_setup(wl, workdir: Path, repeats: int) -> list[tuple[float, float]]:
    """(seconds, host factor) per set-up; see ``host_factor``."""
    out = []
    before = probe_ms()
    for r in range(repeats):
        sub = workdir / f"setup{r}"
        sub.mkdir()
        t0 = time.perf_counter()
        wl.setup(sub)
        dt = time.perf_counter() - t0
        after = probe_ms()
        out.append((dt, host_factor(before, after)))
        before = after
    return out


def host_factor(probe_before: float, probe_after: float,
                sensitivity: float = 1.0) -> float:
    """How much slower the host ran than nominal around one timed interval.

    Probes bracket every stretch of timed work. Dividing a time by this
    factor removes most of the host's drift, which on a shared 2-CPU host
    moves every time by up to 2x within a minute (README.md, "Noise").
    ``sensitivity`` is how strongly the timed work follows the probe.
    """
    return ((probe_before + probe_after) / 2.0 / PROBE_NOMINAL_MS) ** sensitivity


class HostSampler:
    """Probes the host between ops and every ``wl.probe_every`` calls of the
    workload's hooked function inside them (every 0.05-0.2 s), so each
    stretch of an op's time is divided by the host factor measured around
    it. Probe time is left out of op time."""

    def __init__(self, wl):
        self.marks: list[tuple[float, float, float]] = []   # start, end, probe ms
        self.every = wl.probe_every
        self.sensitivity = wl.probe_sensitivity
        self._calls = 0
        self._owner, self._attr = wl.probe_hook()
        self._hooked = getattr(self._owner, self._attr)

    def sample(self) -> None:
        t0 = time.perf_counter()
        ms = probe_ms()
        self.marks.append((t0, time.perf_counter(), ms))

    def __enter__(self):
        hooked, sampler = self._hooked, self

        def with_probe(*args, **kwargs):
            sampler._calls += 1
            if sampler._calls % sampler.every == 0:
                sampler.sample()
            return hooked(*args, **kwargs)

        setattr(self._owner, self._attr, with_probe)
        return self

    def __exit__(self, *exc):
        setattr(self._owner, self._attr, self._hooked)

    def op_times(self, first: int) -> tuple[float, float]:
        """(raw s, host-normalized s) of the op between mark ``first`` and the last."""
        raw = norm = 0.0
        for (_, end, p0), (start, _, p1) in zip(self.marks[first:], self.marks[first + 1:]):
            raw += start - end
            norm += (start - end) / host_factor(p0, p1, self.sensitivity)
        return raw, norm


def run_untraced(wl, ops: Ops, seconds: float) -> tuple[dict, list[str]]:
    """Ops until ``seconds`` have passed; end-to-end metrics."""
    ops.run(wl, 0)                       # warm-up, not timed
    raw, norm, units = [], [], []
    with HostSampler(wl) as sampler:
        sampler.sample()
        deadline = time.perf_counter() + seconds
        i = 1
        while True:
            first = len(sampler.marks) - 1
            ok = ops.run(wl, i)
            sampler.sample()
            if ok:
                r, n = sampler.op_times(first)
                raw.append(r)
                norm.append(n)
                units.append(wl.units(i))
            i += 1
            if time.perf_counter() >= deadline:
                break
    if not raw:
        return {}, [f"{wl.name}: no op completed"]
    per_unit = statistics.median(n / u for n, u in zip(norm, units))
    raw_per_unit = statistics.median(r / u for r, u in zip(raw, units))
    probes = [m[2] for m in sampler.marks]
    lines = [f"{wl.name} {wl.throughput_name} = {1 / per_unit:.4f} 1/s "
             f"host-normalized, {1 / raw_per_unit:.4f} 1/s raw ({wl.unit} per s at "
             f"the median of {len(raw)} ops; raw op p50 "
             f"{statistics.median(raw) * 1e3:.2f} ms, max {max(raw) * 1e3:.2f} ms; "
             f"{len(probes)} probes, {min(probes):.2f}-{max(probes):.2f} ms)"]
    return {"throughput_per_s": (1 / per_unit, "1/s")}, lines


def run_traced(ccm, wl, ops: Ops, tracer_mod, n_ops: int, out_dir: Path,
               seed: int) -> tuple[dict, list[str], list[str]]:
    """Untraced pass, then two traced passes of the same ``n_ops`` ops.

    The counts of the two traced passes must be equal. Returns (per-layer
    metrics, problems, report lines).
    """
    problems, lines = [], []
    ops.run(wl, 0)                       # warm-up, not timed
    t0 = time.perf_counter()
    for i in range(1, n_ops + 1):
        ops.run(wl, i)
    untraced_s = time.perf_counter() - t0

    passes = []
    for _ in range(2):
        tracer = tracer_mod.Tracer()
        tracer.install(ccm)
        try:
            t0 = time.perf_counter()
            for i in range(1, n_ops + 1):
                ops.run(wl, i)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes.append((tracer, wall))

    tracer, traced_s = passes[0]
    table = tracer.span_table()
    counts1 = tracer_mod.counters_of(tracer.counts, table)
    counts2 = tracer_mod.counters_of(passes[1][0].counts, passes[1][0].span_table())
    if counts1 != counts2:
        diff = sorted(k for k in set(counts1) | set(counts2)
                      if counts1.get(k) != counts2.get(k))
        problems.append(f"counts differ between two traced passes: {diff}")
    problems.extend(tracer.check_nesting())

    n_layers = wl.model.config.n_layers
    metrics = tracer_mod.per_layer_metrics(table, tracer.counts, n_ops, n_layers,
                                           wl.setup_table)
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    if wl.name == "icl_eval":
        got = metrics["model.forward.kv_entries_read"][0]
        want = wl.expected_kv_entries_read()
        if got != want:
            problems.append(f"KV entries read per identity {got} != complexity {want}")
        lines.append(f"KV entries read per identity: {got:g} (complexity: {want})")

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    lines.append(f"{len(tracer.span_start)} spans written to "
                 f"{spans_path.relative_to(ROOT)}; traced {traced_s:.3f} s, "
                 f"untraced {untraced_s:.3f} s for {n_ops} ops")
    tracer_mod.print_span_table(table, n_ops, f"{wl.name} traced pass")
    return metrics, problems, lines


def main(argv=None) -> int:
    from workloads import FULL, TOY, WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"Seed {HELD_OUT_SEED} is held out: confirm a claimed gain on it.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for the self-test only")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    ccm = import_ccm()
    import tracer as tracer_mod
    sizes = TOY if args.toy else FULL
    wl = WORKLOADS[args.workload](ccm, sizes, args.seed)
    ops = Ops()
    lines = []
    host = {"blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "os_threads": os_threads(), "probe_before_ms": probe_ms()}
    steal0 = steal_ticks()

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        if args.trace:
            tracer = tracer_mod.Tracer()
            tracer.install(ccm)
            try:
                setup_times = timed_setup(wl, workdir, 1)
            finally:
                tracer.uninstall()
            wl.setup_table = tracer.span_table()
        else:
            setup_times = timed_setup(wl, workdir, SETUP_REPEATS)

    try:
        problems = wl.reference_check()
    except Exception:  # a defect in ccm fails the check, not the benchmark
        problems = [f"reference check raised:\n{traceback.format_exc()}"]
    if problems:
        ops.fail(problems)

    if args.trace:
        metrics, trace_problems, trace_lines = run_traced(
            ccm, wl, ops, tracer_mod, sizes.trace_ops[args.workload],
            HERE / "out", args.seed)
        lines.extend(trace_lines)
        correct_extra = not trace_problems
        ops.problems.extend(trace_problems)
    else:
        metrics, loop_lines = run_untraced(wl, ops, args.seconds)
        lines.extend(loop_lines)
        correct_extra = bool(metrics)
        metrics["setup_s"] = (statistics.median(d / f for d, f in setup_times), "s")
        metrics["peak_kv_entries"] = (float(ops.peak_kv), "entries")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        lines.append(f"{wl.name} setup_s = {metrics['setup_s'][0]:.4f} s "
                     f"host-normalized (median of {len(setup_times)}: "
                     + ", ".join(f"{d:.4f}" for d, _ in setup_times) + " raw)")
        lines.append(f"{wl.name} peak_kv_entries = {ops.peak_kv} entries")
        lines.append(f"{wl.name} peak_rss_mb = {metrics['peak_rss_mb'][0]:.2f} MB")

    steal1 = steal_ticks()
    host["probe_after_ms"] = probe_ms()
    if steal0 is not None and steal1 is not None:
        host["steal_s"] = (steal1 - steal0) / os.sysconf("SC_CLK_TCK")
    host["os_threads_end"] = os_threads()
    lines.append("host " + json.dumps(host, sort_keys=True))
    for line in lines:
        print(line)
    for problem in ops.problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": ops.failed == 0 and correct_extra,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
