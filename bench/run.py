"""Seeded benchmark of boolseq: four workloads, end to end and layer by layer.

    python3 bench/run.py --workload tabulate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in its own worker process (``worker.py``), a closed loop
with one client: jobs back to back, then the CLI calls one subprocess at a
time, so at most two processes are alive.  Workloads, their size rungs and
what each metric should move are described in ``bench/METRICS.md``.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
time from starting a worker (interpreter start, ``import boolseq``, input
generation) to its first job, over several set-up-only workers.  Every
time metric is normalised to the host's speed (see ``hostspeed.py``); the
wall-clock figures are printed beside them.  ``--trace 1`` prints
the per-layer metrics of a traced half-run and writes its spans to
``.bench_out/``.  The last line of stdout is the JSON result; the exit code
is 1 if any job or CLI call disagreed with its reference or failed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402

WORKLOADS = ("tabulate", "rewrite", "fork", "search")
SCALES = ("full", "tiny")

# Set-up samples per run: one discarded warm-up start (it may compile
# bytecode), then these set-up-only workers.
SETUP_PROBES = 5
# Reference timings taken before and after each set-up.
REFERENCE_SAMPLES = 3
# The worker must finish within this many seconds past --seconds.
WORKER_GRACE = 150

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_p50_ms": "ms",
}


def worker_command(args, setup_only: bool) -> list[str]:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
    ]
    return command + ["--setup-only"] if setup_only else command


# Workers started and not yet known to have ended; stop_workers ends them.
WORKERS: list[subprocess.Popen] = []


def stop_workers() -> None:
    """End every worker still running: ask first, so it can end its CLI child, then kill."""
    for proc in WORKERS:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    WORKERS.clear()


def exit_on_signal(signum, _frame) -> None:
    """Turn SIGTERM into SystemExit, so that ``finally`` blocks stop child processes."""
    raise SystemExit(128 + signum)


def start_worker(command: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it and the set-up time."""
    began = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    WORKERS.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - began
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker and return its stdout; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up times of ``SETUP_PROBES`` workers: normalised, and wall."""
    normalised, walls = [], []
    for probe in range(1 + SETUP_PROBES):
        before = hostspeed.around(REFERENCE_SAMPLES)
        proc, setup = start_worker(worker_command(args, setup_only=True))
        finish(proc, 60)
        if probe:
            reference = (before + hostspeed.around(REFERENCE_SAMPLES)) / 2
            normalised.append(hostspeed.scale(setup, reference))
            walls.append(setup)
    return normalised, walls


def per_layer_units() -> dict[str, str]:
    import spans

    return {name: unit for name, unit, _better in spans.per_layer_names()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args()

    if not (ROOT / "src" / "boolseq" / "__init__.py").is_file():
        print(f"error: no boolseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, exit_on_signal)
    try:
        setups, setup_walls = ([], []) if args.trace else measure_setup(args)
        proc, _setup = start_worker(worker_command(args, setup_only=False))
        out = finish(proc, args.seconds + WORKER_GRACE)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_workers()
    report = json.loads(out.strip().splitlines()[-1])
    metrics = report["metrics"]
    if args.trace:
        units = per_layer_units()
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setups)

    detail = report["detail"]
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {detail['samples']} jobs, "
          f"{detail['passes']} rounds in {detail['elapsed_s']:.2f} s")
    if not args.trace:
        print(f"  times normalised to the host's speed; reference work took {detail['reference_ms'][1]:.4g} ms "
              f"(quartiles {detail['reference_ms'][0]:.4g} / {detail['reference_ms'][2]:.4g}), nominal "
              f"{hostspeed.NOMINAL_SECONDS * 1000:g} ms")
    walls = {
        "jobs_per_s": f"wall {detail['wall_jobs_per_s']:.6g} from best times",
        "job_p50_ms": f"wall {detail['wall_p50_ms']:.6g} from best times",
        "setup_s": f"wall {statistics.median(setup_walls):.6g}" if setup_walls else "",
        "cli_p50_ms": f"wall {detail.get('cli_wall_p50_ms', 0):.6g} from best times",
    }
    for name in units:
        note = walls.get(name, "")
        if name == "job_tail_ms":
            note = f"p{detail['tail_percentile']}, {detail['tail_beyond']} of {detail['samples']} jobs beyond"
        elif name == "jobs_per_s":
            note += f"; median time of each job over {detail['timings_min']} or more timings, median {detail['timings_median']:g}"
        print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}  {note}".rstrip())
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} jobs and CLI calls)")
    for key, ms in detail["rung_ms"].items():
        print(f"  rung {key:35s} {ms:14.6g} ms  (median over the rung's jobs)")
    for cause, count in report["failures"].items():
        print(f"  FAILED x{count}: {cause}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
