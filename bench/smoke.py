"""Smoke run of the whole benchmark at tiny sizes; asserts no timings.

    python3 bench/smoke.py

Runs every workload untraced and traced at ``--scale tiny`` and checks that
each run exits 0, every job passed its oracle check, the result line names
exactly the metrics ``BENCHMARK.json`` lists, and the traced run wrote its
spans.  Then checks that the benchmark refuses to run, without printing a
result, in a directory holding only ``BENCHMARK.json`` and ``bench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stdout}{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], f"{label}: metrics differ from BENCHMARK.json"
            if trace:
                with open(OUT / f"trace-{workload}.jsonl", encoding="utf-8") as handle:
                    names = json.loads(handle.readline())["names"]
                    layers = {names[json.loads(line)[0]].split(".", 1)[0] for line in handle}
                assert "harness" in layers and len(layers) > 2, f"{label}: trace holds {sorted(layers)}"
            print(f"ok  {label}")

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, "tabulate", 0)
    assert done.returncode != 0, "benchmark ran without the program's sources"
    assert '"metrics"' not in done.stdout, "benchmark printed a result without the program's sources"
    shutil.rmtree(bare)
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
