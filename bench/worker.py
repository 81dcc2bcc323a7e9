"""One workload in one process: set-up, closed loop of jobs, CLI sub-run.

Started by ``run.py``.  Prints ``READY`` once ``boolseq`` is imported and
the seeded inputs exist (``run.py`` times set-up up to that line), then runs
rounds over the job list for ``--seconds`` of wall time, one client and one
job at a time (see ``run_rounds``).  Between rounds it makes the workload's
CLI calls, one subprocess at a time.  Last it prints one JSON line for
``run.py``.

With ``--trace 1`` untraced and traced whole passes alternate, and the JSON
holds the per-layer figures of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PERCENTILES = (50, 75, 90, 95, 99)
# Rounds of CLI calls per run, spread evenly over it.
CLI_ROUNDS = 8
IMPORT_PROBES = 3
# Reference timings taken before and after each CLI call.
REFERENCE_SAMPLES = 3
# Reference timings on each side of a job that its normalised time uses,
# and the interval of those taken during it.
NEIGHBOURS = 3
SAMPLE_INTERVAL = 0.05
# Round scheduling (run_rounds): the quantum is this share of --seconds, and
# every job is timed at least MIN_SAMPLES times, the later ones spread over
# the run, unless its first timing took more than LONG_SHARE of --seconds.
QUANTUM_SHARE = 1 / 250
MIN_SAMPLES = 2
LONG_SHARE = 1 / 20


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def time_job(job, state: dict, recorder=None) -> tuple[float, str | None]:
    """Run one job; returns its wall time and the cause of failure, or None."""
    began = time.perf_counter()
    cause = None
    try:
        if recorder is None:
            job.run(state)
        else:
            recorder.start_job(job)
            recorder.span(spans.HARNESS, job.run, state)
    except workloads.Mismatch as exc:
        cause = f"mismatch: {exc}"
    except Exception as exc:  # a job that raises is a failed job, listed by cause
        cause = type(exc).__name__
    return time.perf_counter() - began, cause


def run_passes(workload, passes: int, recorder=None) -> dict:
    """Whole passes over the job list, one job at a time, in list order."""
    records = []
    start = time.perf_counter()
    for _ in range(passes):
        state: dict = {}
        for position, job in enumerate(workload.jobs):
            dt, cause = time_job(job, state, recorder)
            records.append((position, job, dt, cause, dt))
    return {"records": records, "passes": passes, "elapsed": time.perf_counter() - start}


def run_rounds(workload, seconds: float, between_rounds=None) -> dict:
    """Closed loop of the end-to-end run: rounds over the job list, one job
    at a time, until ``seconds`` of wall time have gone.

    Round 0 runs every job once, in list order.  In round r > 0 a job runs
    only while the time it has taken so far is at most r quanta, so a job
    shorter than a quantum runs in every round and one ten quanta long in
    about every tenth.  The short jobs, among them those at p50 and at the
    tail, so get many timings spread over the whole run, and the long ones do
    not crowd them out.  A job also runs when it has fewer timings than its
    share of ``MIN_SAMPLES`` for the time gone, so a long job is timed again
    later in the run; one that took more than ``LONG_SHARE`` of the run is
    timed once, as its timing already spans many of the host's swings.
    State carries over between rounds, so a job can use what an earlier job
    in the list made.

    The reference work of ``hostspeed`` is timed before every job, once at
    the end, and every ``SAMPLE_INTERVAL`` seconds during each job, and a
    job's time is normalised with the median of the ``NEIGHBOURS`` timings
    on each side of it and those taken during it.  The time the timings
    during a job took is not counted as the job's.

    ``between_rounds(elapsed)`` runs after each round; its time counts
    towards ``seconds`` but not towards any job.
    """
    quantum = seconds * QUANTUM_SHARE
    spent = [0.0] * len(workload.jobs)
    samples = [0] * len(workload.jobs)
    wanted = [MIN_SAMPLES] * len(workload.jobs)
    timed = []
    references = []
    sampler = hostspeed.Sampler(SAMPLE_INTERVAL)
    state: dict = {}
    start = time.perf_counter()
    rounds = 0
    done = False
    while not done:
        for position, job in enumerate(workload.jobs):
            elapsed = time.perf_counter() - start
            due = min(wanted[position], 1 + int(MIN_SAMPLES * elapsed / seconds))
            if rounds and spent[position] > rounds * quantum and samples[position] >= due:
                continue
            references.append(hostspeed.reference_seconds())
            sampler.start()
            try:
                dt, cause = time_job(job, state)
            finally:
                sampler.stop()
            dt -= sampler.spent
            spent[position] += dt
            samples[position] += 1
            if dt > seconds * LONG_SHARE:
                wanted[position] = 1
            timed.append((position, job, dt, cause, sampler.samples))
            if rounds and finished(start, seconds, samples, wanted):
                done = True
                break
        rounds += 1
        if between_rounds is not None:
            between_rounds(time.perf_counter() - start)
        done = done or finished(start, seconds, samples, wanted)
    references.append(hostspeed.reference_seconds())
    records = []
    for e, (position, job, dt, cause, during) in enumerate(timed):
        nearby = references[max(0, e - NEIGHBOURS + 1):e + 1 + NEIGHBOURS] + during
        records.append((position, job, dt, cause, hostspeed.scale(dt, statistics.median(nearby))))
    return {"records": records, "passes": rounds, "elapsed": time.perf_counter() - start, "references": references}


def finished(start: float, seconds: float, samples: list[int], wanted: list[int]) -> bool:
    return time.perf_counter() - start >= seconds and all(s >= w for s, w in zip(samples, wanted))


def merge_passes(loops: list[dict]) -> dict:
    """One loop record from several single-pass ones."""
    records = [record for loop in loops for record in loop["records"]]
    return {"records": records, "passes": len(loops), "elapsed": sum(loop["elapsed"] for loop in loops)}


def tail_percentile(samples: int) -> int:
    """Highest listed percentile with at least ten samples beyond it."""
    return max(p for p in PERCENTILES if samples * (100 - p) / 100 >= 10 or p == 50)


def job_metrics(loop: dict) -> tuple[dict, dict]:
    """Job metrics from each job's median normalised time over its timings.

    Throughput is jobs over the sum of those medians; the percentiles are
    over the medians of the distinct jobs.  The detail also holds each
    job's best wall time, unnormalised, for comparison.
    """
    normalised: dict[int, list[float]] = {}
    best: dict[int, float] = {}
    for position, _job, dt, cause, norm in loop["records"]:
        if cause is None:
            normalised.setdefault(position, []).append(norm)
            best[position] = min(dt, best.get(position, dt))
    typical = {position: statistics.median(times) for position, times in normalised.items()}
    latencies = sorted(dt * 1000 for dt in typical.values())
    percentile = tail_percentile(len(latencies))
    cuts = statistics.quantiles(latencies, n=100, method="inclusive") if len(latencies) > 1 else latencies * 99
    metrics = {
        "jobs_per_s": len(latencies) / sum(typical.values()) if typical else 0.0,
        "job_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "job_tail_ms": cuts[percentile - 1] if latencies else 0.0,
    }
    by_rung: dict = {}
    for position, job, *_rest in loop["records"]:
        if position in typical:
            by_rung.setdefault(f"{job.kind} {job.rung}", set()).add(position)
    walls = sorted(dt * 1000 for dt in best.values())
    detail = {
        "tail_percentile": percentile,
        "tail_beyond": sum(1 for x in latencies if x > metrics["job_tail_ms"]),
        "samples": len(latencies),
        "passes": loop["passes"],
        "timings_min": min(map(len, normalised.values()), default=0),
        "timings_median": statistics.median(map(len, normalised.values())) if normalised else 0,
        "elapsed_s": loop["elapsed"],
        "wall_jobs_per_s": len(walls) / sum(walls) * 1000 if walls else 0.0,
        "wall_p50_ms": statistics.median(walls) if walls else 0.0,
        "rung_ms": {
            key: statistics.median(typical[p] * 1000 for p in positions) for key, positions in sorted(by_rung.items())
        },
    }
    return metrics, detail


class CliRun:
    """The workload's CLI calls, ``CLI_ROUNDS`` rounds, each call checked.

    ``between_rounds`` makes a round whenever one is due, so the rounds are
    spread evenly over a run of ``seconds``; ``finish`` makes any still due.
    """

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.rounds = 0
        self.times: dict[int, list[float]] = {}
        self.walls: dict[int, list[float]] = {}
        self.failures: Counter = Counter()

    def between_rounds(self, elapsed: float) -> None:
        if self.rounds < CLI_ROUNDS and elapsed >= (self.rounds + 0.5) * self.seconds / CLI_ROUNDS:
            self.round()

    def round(self) -> None:
        self.rounds += 1
        for position, call in enumerate(self.workload.cli_calls):
            self.call(position, call)

    def finish(self) -> None:
        while self.rounds < CLI_ROUNDS:
            self.round()

    def p50_ms(self) -> float:
        """Median over the calls of each call's median normalised time."""
        return statistics.median(statistics.median(times) for times in self.times.values())

    def wall_p50_ms(self) -> float:
        """Median over the calls of each call's best wall time, unnormalised."""
        return statistics.median(min(times) for times in self.walls.values())

    def attempted(self) -> int:
        return sum(len(times) for times in self.times.values())

    def call(self, position: int, call) -> None:
        before = hostspeed.around(REFERENCE_SAMPLES)
        began = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "boolseq.cli", *call.args],
            cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - began
        reference = (before + hostspeed.around(REFERENCE_SAMPLES)) / 2
        self.walls.setdefault(position, []).append(wall * 1000)
        self.times.setdefault(position, []).append(hostspeed.scale(wall, reference) * 1000)
        try:
            workloads.check(done.returncode == 0, f"cli {call.args[0]} exited {done.returncode}: {done.stderr.strip()[-200:]}")
            call.check(done.stdout)
        except workloads.Mismatch as exc:
            self.failures[f"mismatch: {exc}"] += 1
        except Exception as exc:  # an unparsable output is a failed call
            self.failures[type(exc).__name__] += 1


def cli_import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import boolseq.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def failures_of(records) -> Counter:
    return Counter(record[3] for record in records if record[3] is not None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--setup-only", action="store_true", help="exit after printing READY")
    args = parser.parse_args()
    # On SIGTERM from run.py, unwind: subprocess.run then kills a running CLI child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    workload = workloads.BUILDERS[args.workload](args.seed, args.scale)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    cli = CliRun(workload, args.seconds)
    if args.trace:
        # Untraced and traced passes alternate, so both see the same stretch
        # of host speed and their ratio is the tracing overhead.
        recorder = spans.Recorder()
        plain, traced = [], []
        while len(plain) < 1 or sum(loop["elapsed"] for loop in plain + traced) < args.seconds:
            plain.append(run_passes(workload, 1))
            recorder.install()
            try:
                traced.append(run_passes(workload, 1, recorder))
            finally:
                recorder.uninstall()
        plain, traced = merge_passes(plain), merge_passes(traced)
        recorder.write(ROOT / ".bench_out" / f"trace-{args.workload}.jsonl")
        metrics = spans.layer_metrics(recorder, traced["passes"])
        metrics["cli.import_s"] = cli_import_seconds()
        traced_metrics, detail = job_metrics(traced)
        metrics["trace_overhead_ratio"] = traced_metrics["jobs_per_s"] / job_metrics(plain)[0]["jobs_per_s"]
        records = plain["records"] + traced["records"]
        cli.finish()
    else:
        loop = run_rounds(workload, args.seconds, cli.between_rounds)
        cli.finish()
        metrics, detail = job_metrics(loop)
        records = loop["records"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["cli_p50_ms"] = cli.p50_ms()
        detail["cli_wall_p50_ms"] = cli.wall_p50_ms()
        detail["reference_ms"] = statistics.quantiles([r * 1000 for r in loop["references"]], n=4)

    failures = failures_of(records) + cli.failures
    print(json.dumps({
        "attempted": len(records) + cli.attempted(),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "metrics": metrics,
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
