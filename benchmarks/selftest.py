"""Self-test of the benchmark at toy size.

    python3 benchmarks/selftest.py

Runs every workload untraced and traced with ``--toy``. It checks that
each run is correct with no failed op. It checks that every metric named in
BENCHMARK.json is printed with its unit, and no other metric. It checks that
the written spans nest, with no negative self time. Last, it checks that the
benchmark exits non-zero without a result when `ccm` is absent. Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_spans(path: Path) -> list[str]:
    """Every span lies inside its parent; self times are >= 0."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    problems = []
    child_ns = defaultdict(int)
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"span {s['i']} ends before it starts")
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            if not parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]:
                problems.append(f"span {s['i']} ({s['name']}) outside parent {p}")
            child_ns[p] += s["end_ns"] - s["start_ns"]
    for s in spans:
        if s["end_ns"] - s["start_ns"] - child_ns[s["i"]] < 0:
            problems.append(f"span {s['i']} ({s['name']}) has negative self time")
    if not spans:
        problems.append("no spans written")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            seed = 3
            proc = run(["--workload", wl, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--toy"])
            where = f"{wl} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed="
                                f"{result['failed']}\n{proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            if trace:
                spans = HERE / "out" / f"trace-{wl}-seed{seed}.jsonl"
                problems.extend(f"{where}: {p}" for p in check_spans(spans))
            print(f"ok  {where}" if not problems else f"... {where}", flush=True)

    # without src/ccm the benchmark must fail before printing a result
    with tempfile.TemporaryDirectory(prefix=".work-selftest-", dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns(".work-*", "out", "__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without ccm: exit {proc.returncode}, stdout "
                            f"{proc.stdout.strip()[-200:]!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
