"""Span recorder for the traced run.

``Recorder.install`` wraps every public function of the eight in-process
``boolseq`` modules and rebinds the wrapper wherever ``boolseq`` holds a
reference to the original, so calls between modules are recorded as well as
calls from the benchmark.  Each span is ``(name, start_ns, end_ns, parent,
job)``; spans stay in memory and are written out once, when the run ends.

The wrappers also take the exact work counts the per-layer report needs
(executed instructions, splitting actions, rule applications, instruction
counts) from the same calls, so a count and the time it explains come from
one run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("instr", "threads", "services", "splitting", "compilers", "transforms", "satc", "lab")

# Per-instruction helpers: a span around each call would cost more than the
# call, and the calls that use them are already spans.
UNTRACED = frozenset(
    {"register_step", "render_focus", "render_basic", "render_instruction", "psize", "seq"}
)

HARNESS = "harness.job"

# run and run_splitting are their *_with_steps variants minus the count: the
# wrapper calls the variant, keeps the count and returns the outcome alone.
WITH_STEPS = {
    "services.run": "run_with_steps",
    "splitting.run_splitting": "run_splitting_with_steps",
}

COUNTS = {
    "services.run_with_steps": lambda r: {"services.runs": 1, "services.steps": r[1]},
    "splitting.run_splitting_with_steps": lambda r: {"splitting.actions": r[1]},
    "lab.truth_table": lambda r: {"lab.vectors": len(r.values)},
    "instr.parse": lambda r: {"instr.parsed_instructions": len(r)},
}


def _count_of(name: str):
    """The counts a call's result carries, as a function of the result."""
    if name.startswith("transforms.") and name.endswith("_report"):
        return lambda r: {
            "transforms.rule_applications": r.steps,
            "transforms.out_instructions": len(r.output),
        }
    if name.startswith("compilers.compile_"):
        return lambda r: {"compilers.out_instructions": len(r)}
    return COUNTS.get(name)


class Recorder:
    """Records spans and counts while installed; restores ``boolseq`` on ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self.jobs: list = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def start_job(self, job) -> None:
        """Give the next spans a fresh job id; ``jobs[id]`` is the job."""
        self.job = len(self.jobs)
        self.jobs.append(job)

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used by the harness for its own job spans."""
        return self._wrap(self._name_id(name), fn)(*args, **kwargs)

    def _wrap(self, name_id: int, fn, count=None, outcome_only=False):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            # A function recursing through its own public name is one span.
            if stack and spans[stack[-1]][0] == name_id:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append((name_id, 0, 0, stack[-1] if stack else -1, self.job))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, spans[index][3], self.job)
            if count is not None:
                counts.update(count(result))
            return result[0] if outcome_only else result

        return traced

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        import boolseq

        modules = {layer: importlib.import_module(f"boolseq.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                key = f"{layer}.{name}"
                if key in WITH_STEPS:
                    variant = getattr(module, WITH_STEPS[key])
                    wrapper = self._wrap(
                        self._name_id(key), variant, _count_of(f"{layer}.{variant.__name__}"), True
                    )
                else:
                    wrapper = self._wrap(self._name_id(key), fn, _count_of(key))
                wrappers[id(fn)] = wrapper
        for module in (boolseq, *modules.values()):
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._undo):
            setattr(module, name, value)
        self._undo.clear()

    # --- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: first ``{"names": [...]}``, then one
        ``[name index, start ns, end ns, parent span index or -1, job id]``
        per span, in the order the spans started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                handle.write("[%d,%d,%d,%d,%d]\n" % span)

    def totals(self, metric_of) -> tuple[Counter, Counter, Counter]:
        """Seconds per metric, self seconds per layer, and seconds per (job, layer).

        ``metric_of`` maps a span name to the metric it adds to, or None.  A
        span inside a span of the same metric (``eval_formula`` dispatching
        to ``eval_cnf``) is not added twice; likewise a job's time in a layer
        counts the outermost spans of that layer only.
        """
        names, spans = self.names, self.spans
        child_ns = [0] * len(spans)
        for _name_id, start, end, parent, _job in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        metrics: Counter = Counter()
        self_s: Counter = Counter()
        job_layer: Counter = Counter()
        for index, (name_id, start, end, parent, job) in enumerate(spans):
            name = names[name_id]
            parent_name = names[spans[parent][0]] if parent >= 0 else ""
            layer = name.split(".", 1)[0]
            seconds = (end - start) / 1e9
            self_s[layer] += seconds - child_ns[index] / 1e9
            metric = metric_of(name)
            if metric is not None and metric != metric_of(parent_name):
                metrics[metric] += seconds
            if parent_name.split(".", 1)[0] != layer:
                job_layer[(job, layer)] += seconds
        return metrics, self_s, job_layer


# --- per-layer metrics ----------------------------------------------------------------

# Span name -> the time metric it adds to.  Names missing here still count
# towards their layer's self time.
SPAN_METRICS = {
    "services.run": "services.run_s",
    "services.run_with_steps": "services.run_s",
    "services.check_computes": "services.check_computes_s",
    "lab.truth_table": "lab.truth_table_s",
    "lab.shortest_sequence_search": "lab.search_s",
    "splitting.run_splitting": "splitting.run_splitting_s",
    "splitting.run_splitting_with_steps": "splitting.run_splitting_s",
    "splitting.check_splitting_computes": "splitting.check_splitting_computes_s",
    "satc.build_satc_splitter": "satc.build_satc_splitter_s",
    "satc.satc_eval": "satc.satc_eval_s",
    "satc.cnf_satisfiable": "satc.cnf_satisfiable_s",
    "satc.reachability_satisfiable": "satc.reachability_satisfiable_s",
    "compilers.compile_cnf": "compilers.compile_s",
    "compilers.compile_cnf_jumpfree": "compilers.compile_s",
    "compilers.compile_formula": "compilers.compile_s",
    "compilers.compile_circuit": "compilers.compile_s",
    "compilers.eval_cnf": "compilers.oracle_s",
    "compilers.eval_formula": "compilers.oracle_s",
    "compilers.eval_circuit": "compilers.oracle_s",
    "compilers.topological_gate_order": "compilers.topological_gate_order_s",
    "instr.parse": "instr.parse_s",
    "instr.render": "instr.render_s",
    "instr.classify": "instr.classify_s",
    "threads.extract": "threads.extract_s",
    "threads.extract_compact": "threads.extract_compact_s",
    "threads.eval_xthread": "threads.eval_xthread_s",
    "threads.tsize": "threads.tsize_s",
}
REWRITES = (
    "eliminate_output_false",
    "normalize_set_tests",
    "to_splitting",
    "collapse_jump_chains",
    "behavioural_normalize",
)
for _rewrite in REWRITES:
    SPAN_METRICS[f"transforms.{_rewrite}"] = f"transforms.{_rewrite}_s"
    SPAN_METRICS[f"transforms.{_rewrite}_report"] = f"transforms.{_rewrite}_s"

# Work counts, per pass over the job list, and the rates built from them.
COUNT_METRICS = {
    "services.runs": "services.runs",
    "services.steps": "services.steps",
    "transforms.rule_applications": "transforms.rule_applications",
    "transforms.out_instructions": "transforms.out_instructions",
    "splitting.actions": "splitting.actions",
    "compilers.out_instructions": "compilers.out_instructions",
}
RATES = {
    "services.steps_per_s": ("services.steps", "services.run_s"),
    "lab.vectors_per_s": ("lab.vectors", "lab.truth_table_s"),
    "splitting.actions_per_s": ("splitting.actions", "splitting.run_splitting_s"),
    "instr.parse_instr_per_s": ("instr.parsed_instructions", "instr.parse_s"),
}
SELF_LAYERS = LAYERS + ("harness",)


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(m, "s", "lower") for m in dict.fromkeys(SPAN_METRICS.values())]
    out += [(m, "count", "lower") for m in COUNT_METRICS]
    out += [(m, "1/s", "higher") for m in RATES]
    out += [(f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS]
    out += [
        ("transforms.scaling_ratio", "ratio", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace_overhead_ratio", "ratio", "higher"),
    ]
    return out


def layer_metrics(recorder: Recorder, rounds: int) -> dict[str, float]:
    """Per-layer figures of a traced run, per pass over the job list.

    The ladder rungs the jobs mark give ``transforms.scaling_ratio``: rewrite seconds per input instruction on
    the top rungs over the same on the bottom rungs (about the size ratio
    for a quadratic rewrite, about 1 for a linear one; 0 where a workload
    has no ladder).
    """
    times, self_s, job_layer = recorder.totals(SPAN_METRICS.get)
    out: dict[str, float] = {}
    for metric in dict.fromkeys(SPAN_METRICS.values()):
        out[metric] = times[metric] / rounds
    for metric, counter in COUNT_METRICS.items():
        out[metric] = recorder.counts[counter] / rounds
    for metric, (count, seconds) in RATES.items():
        out[metric] = recorder.counts[count] / times[seconds] if times[seconds] else 0.0
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / rounds
    per_instruction = {}
    for rung in ("bottom", "top"):
        ids = [i for i, job in enumerate(recorder.jobs) if job.ladder == rung]
        size = sum(recorder.jobs[i].size for i in ids)
        spent = sum(job_layer[(i, "transforms")] for i in ids)
        per_instruction[rung] = spent / size if size else 0.0
    bottom = per_instruction["bottom"]
    out["transforms.scaling_ratio"] = per_instruction["top"] / bottom if bottom else 0.0
    return out
