"""Seeded inputs, jobs and oracles of the four benchmark workloads.

Every job checks its output against a reference that is not the function
under test: the truth-functional evaluators of the compilers module for
compiled code, the register executor on the rewrite input for rewrites,
``satc_eval`` and an exhaustive CNF check for the forking family, and
known shortest lengths for the search.  A job raises ``Mismatch`` when the
program disagrees with its reference; any other exception is a failure too.

Inputs come from ``random.Random(seed)`` alone and are never filtered by
whether they fail or run slowly.  Jobs call into ``boolseq`` through module
attributes (``services.run``) on purpose: the traced run rebinds those
attributes to record spans.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from boolseq import compilers, instr, lab, satc, services, splitting, threads, transforms
from boolseq.compilers import And, AndGate, Circuit, Cnf, FVar, GateRef, InputRef, Literal, Not, NotGate, Or, OrGate
from boolseq.instr import (
    GET,
    OUT,
    SET_FALSE,
    SET_TRUE,
    TERM,
    AuxReg,
    InReg,
    InstructionSequence,
    Jump,
    NegTest,
    Plain,
    PosTest,
    RegisterOp,
    ReplyOp,
    SplitOp,
)
from boolseq.lab import SearchSpec, TruthTable
from boolseq.services import Terminated

SCALES = ("full", "tiny")


class Mismatch(Exception):
    """The program's output disagrees with the job's reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Job:
    """One unit of work: ``run(state)`` does it and checks it.

    ``state`` is shared by the jobs of a run, so a job can use what an
    earlier job in the list made (the fork workload's splitters).
    ``ladder`` marks the bottom and top rungs of a rewrite ladder.
    """

    kind: str
    rung: str
    size: int
    run: Callable[[dict], None]
    ladder: str = ""


@dataclass
class CliCall:
    """One ``python -m boolseq.cli`` call; ``check(stdout)`` raises ``Mismatch``."""

    args: list[str]
    check: Callable[[str], None]


@dataclass
class Workload:
    """A job list, run in list order, and the CLI calls made alongside."""

    name: str
    jobs: list[Job]
    cli_calls: list[CliCall]


def vector(n: int, index: int) -> tuple[bool, ...]:
    """Input vector ``index`` of arity ``n``, first input most significant."""
    return tuple((index >> (n - 1 - i)) & 1 == 1 for i in range(n))


def all_vectors(n: int) -> list[tuple[bool, ...]]:
    return [vector(n, i) for i in range(2**n)]


def _outcome_key(outcome):
    """What two executors must agree on: the outcome kind and the output."""
    if isinstance(outcome, Terminated):
        return ("terminated", outcome.registers.out)
    return (type(outcome).__name__,)


def _render_bits(bits) -> str:
    return "".join("T" if b else "F" for b in bits)


# --- source generators ----------------------------------------------------------


def random_cnf(rng: random.Random, n: int, clauses: int, planted=None) -> Cnf:
    """Random 3-CNF over n variables; with ``planted``, every clause holds there."""
    out = []
    while len(out) < clauses:
        variables = rng.sample(range(1, n + 1), 3)
        clause = tuple(Literal(v, negated=rng.random() < 0.5) for v in variables)
        if planted is not None and not any(planted[l.var - 1] != l.negated for l in clause):
            lit = rng.choice(clause)
            clause = tuple(Literal(l.var, not l.negated) if l == lit else l for l in clause)
        out.append(clause)
    return Cnf(n, tuple(out))


def random_formula(rng: random.Random, n: int, leaves: int):
    """Random not/or/and formula with the given number of variable leaves."""
    if leaves == 1:
        node = FVar(rng.randint(1, n))
    else:
        left = rng.randint(1, leaves - 1)
        ctor = Or if rng.random() < 0.5 else And
        node = ctor(random_formula(rng, n, left), random_formula(rng, n, leaves - left))
    return Not(node) if rng.random() < 0.2 else node


def random_circuit(rng: random.Random, n: int, gates: int) -> Circuit:
    """Random gate DAG; each input of gate k is an input or an earlier gate."""
    out = []
    for k in range(1, gates + 1):

        def node():
            if k == 1 or rng.random() < 0.35:
                return InputRef(rng.randint(1, n))
            return GateRef(rng.randint(1, k - 1))

        roll = rng.random()
        if roll < 0.25:
            out.append(NotGate(node()))
        elif roll < 0.6:
            out.append(OrGate(node(), node()))
        else:
            out.append(AndGate(node(), node()))
    return Circuit(n, tuple(out), gates)


def _read_test(rng: random.Random, basic):
    return (PosTest if rng.random() < 0.5 else NegTest)(basic)


def _can_skip(u) -> bool:
    """Can ``u`` pass control two positions ahead (reads and splits can)?"""
    if isinstance(u, PosTest):
        return not (isinstance(u.basic, RegisterOp) and u.basic.method == SET_TRUE)
    return isinstance(u, NegTest)


def write_linear_sequence(rng: random.Random, length: int, n: int, aux: int) -> InstructionSequence:
    """Register-only sequence whose aux writes no jump or test skip can bypass.

    Writes are plain ``aux:j.set:T/F``; every jump stops at or before the
    next write, and the instruction in front of a write cannot skip.  Other
    positions are input and aux read tests, ``+out.set:T`` and a few ``!``.
    """
    writes = sorted(rng.sample(range(2, length - 1), max(1, length // 8)))
    write_set = set(writes)
    items: list = []
    for pos in range(1, length):
        if pos in write_set:
            items.append(Plain(RegisterOp(AuxReg(rng.randint(1, aux)), rng.choice((SET_TRUE, SET_FALSE)))))
            continue
        next_write = next((w for w in writes if w > pos), length + 1)
        roll = rng.random()
        if roll < 0.03:
            u = TERM
        elif roll < 0.15 and next_write > pos + 1:
            u = Jump(rng.randint(1, min(next_write, length) - pos))
        elif roll < 0.25:
            u = PosTest(RegisterOp(OUT, SET_TRUE))
        elif roll < 0.55:
            u = _read_test(rng, RegisterOp(AuxReg(rng.randint(1, aux)), GET))
        else:
            u = _read_test(rng, RegisterOp(InReg(rng.randint(1, n)), GET))
        if pos + 1 in write_set and _can_skip(u):
            u = Plain(u.basic)
        items.append(u)
    items.append(TERM)
    return InstructionSequence(tuple(items))


def reachability_sequence(rng: random.Random, length: int, n: int, splits: int) -> InstructionSequence:
    """Forking sequence in the class where the reachability reduction is exact.

    One ``out.set:T``; plain splits on distinct parameters that no jump or
    skip bypasses; each parameter read at most once, after its split; every
    control transfer stays inside the sequence, which ends in ``!``.  So
    every branch terminates and the run's verdict is defined.
    """
    positions = list(range(1, length))
    split_at = sorted(rng.sample(positions[:-2], splits))
    accept_at = rng.choice([p for p in positions if p not in split_at])
    items: list = []
    unread: list[int] = []
    for pos in range(1, length):
        next_split = next((s for s in split_at if s > pos), length + 1)
        roll = rng.random()
        if pos in split_at:
            unread.append(split_at.index(pos) + 1)
            items.append(Plain(SplitOp(unread[-1])))
            continue
        if pos == accept_at:
            u = rng.choice((Plain, PosTest, NegTest))(RegisterOp(OUT, SET_TRUE))
        elif roll < 0.3 and unread:
            u = _read_test(rng, ReplyOp(unread.pop(rng.randrange(len(unread)))))
        elif roll < 0.4:
            u = TERM
        elif roll < 0.55 and next_split > pos + 1:
            u = Jump(rng.randint(1, min(next_split, length) - pos))
        else:
            u = _read_test(rng, RegisterOp(InReg(rng.randint(1, n)), GET))
        if (pos + 1 in split_at or pos >= length - 2) and _can_skip(u):
            u = Plain(u.basic)
        items.append(u)
    items.append(TERM)
    return InstructionSequence(tuple(items))


def random_sisbr(rng: random.Random, length: int, n: int, max_splits: int) -> InstructionSequence:
    """Unrestricted random fork/reply sequence: deadlocks and divergence included."""
    items: list = []
    splits = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.12:
            items.append(TERM)
        elif roll < 0.22:
            items.append(Jump(rng.randint(0, length + 1)))
        elif roll < 0.34 and splits < max_splits:
            splits += 1
            items.append(rng.choice((Plain, PosTest, NegTest))(SplitOp(rng.randint(1, 3))))
        elif roll < 0.46:
            items.append(_read_test(rng, ReplyOp(rng.randint(1, 3))))
        elif roll < 0.56:
            items.append(rng.choice((Plain, PosTest, NegTest))(RegisterOp(OUT, SET_TRUE)))
        else:
            items.append(_read_test(rng, RegisterOp(InReg(rng.randint(1, n)), GET)))
    return InstructionSequence(tuple(items))


# --- tabulate -----------------------------------------------------------------------

COMPILERS = {
    "cnf": ("compile_cnf", "eval_cnf"),
    "cnf-jumpfree": ("compile_cnf_jumpfree", "eval_cnf"),
    "formula": ("compile_formula", "eval_formula"),
    "circuit": ("compile_circuit", "eval_circuit"),
}


def _tabulate_job(sources: list[tuple[str, object]], n: int, vectors) -> Callable[[dict], None]:
    """Compile and tabulate each ``(kind, source)`` of ``sources`` in turn."""

    def run(state: dict) -> None:
        for kind, source in sources:
            _tabulate_one(kind, source, n, vectors)

    return run


def _tabulate_one(kind: str, source, n: int, vectors) -> None:
    compile_name, oracle_name = COMPILERS[kind]
    x = getattr(compilers, compile_name)(source)
    oracle = getattr(compilers, oracle_name)
    expected = tuple(oracle(source, v) for v in vectors)
    check(lab.truth_table(x, n).values == expected, f"{kind} n={n}: truth_table disagrees with {oracle_name}")
    check(services.check_computes(x, TruthTable(n, expected)), f"{kind} n={n}: check_computes rejects the oracle table")
    wrong = TruthTable(n, (not expected[0],) + expected[1:])
    check(not services.check_computes(x, wrong), f"{kind} n={n}: check_computes accepts a wrong table")
    compact = threads.extract_compact(x)
    check(threads.tsize(compact) <= 4 * len(x) + 1, f"{kind} n={n}: tsize exceeds 4*psize+1")
    same = threads.tsize(threads.eval_xthread(compact)) == threads.tsize(threads.extract(x))
    check(same, f"{kind} n={n}: eval_xthread and extract disagree in tree size")


def _sources(rng: random.Random, kind: str, n: int):
    if kind in ("cnf", "cnf-jumpfree"):
        return random_cnf(rng, n, n)
    if kind == "formula":
        return random_formula(rng, n, 2 * n)
    return random_circuit(rng, n, n + 4)


def _truthtable_call(label: str, x: InstructionSequence, n: int, expected: str) -> CliCall:
    def verify(stdout: str) -> None:
        check(stdout.strip() == expected, f"cli truthtable {label}: output differs from the oracle table")
        check(stdout.strip() == lab.truth_table(x, n).render(), f"cli truthtable {label}: differs in-process")

    return CliCall(["truthtable", instr.render(x), "--n", str(n)], verify)


def build_tabulate(seed: int, scale: str) -> Workload:
    rng = random.Random(seed)
    # (n, kinds of one job, jobs).  A source costs 2^n runs, so the narrow
    # rung gets the most.  Each n=8 job tabulates one source of every kind:
    # the kinds differ in cost, and a job holding one of each costs about
    # the same whatever the seed draws.  Those 36 jobs hold both p50 and p75
    # of the 41 jobs, so neither falls between two groups of unlike cost.
    kinds = tuple(COMPILERS)
    if scale == "full":
        rungs = ((8, kinds, 36), (10, ("cnf-jumpfree",), 1), (10, ("circuit",), 1), (12, ("cnf",), 1), (12, ("formula",), 1))
    else:
        rungs = ((3, kinds, 2), (4, ("cnf",), 1), (4, ("formula",), 1))
    jobs = []
    for n, job_kinds, count in rungs:
        vectors = all_vectors(n)
        label = job_kinds[0] if len(job_kinds) == 1 else "all kinds"
        for _ in range(count):
            sources = [(kind, _sources(rng, kind, n)) for kind in job_kinds]
            jobs.append(Job(label, f"n={n}", n, _tabulate_job(sources, n, vectors)))
    rng.shuffle(jobs)
    jobs.append(probe_job(rng))

    cli_n = rungs[0][0]
    calls = []
    for kind in ("cnf", "formula", "circuit"):
        source = _sources(rng, kind, cli_n)
        compile_name, oracle_name = COMPILERS[kind]
        x = getattr(compilers, compile_name)(source)
        oracle = getattr(compilers, oracle_name)
        expected = "".join("T" if oracle(source, v) else "F" for v in all_vectors(cli_n))
        calls.append(_truthtable_call(kind, x, cli_n, expected))
    return Workload("tabulate", jobs, calls)


# --- rewrite ------------------------------------------------------------------------


def _agree_on_sample(label: str, y: InstructionSequence, reference, sample, runner=None) -> None:
    runner = runner or services.run
    for v in sample:
        got = _outcome_key(runner(y, v))
        want = reference(v)
        check(got == want, f"{label}: output disagrees with the reference on {_render_bits(v)}")


REWRITES = ("eliminate_output_false", "normalize_set_tests", "collapse_jump_chains", "behavioural_normalize")


def _cnf_chain(cnfs: list[tuple[Cnf, str]], sample, rung: str, ladder: str) -> Job:
    """For each ``(phi, text)``: parse the rendered CNF sequence, then the
    four rewrites in order, each output checked against ``eval_cnf``."""
    sizes = [text.count(";") + 1 for _phi, text in cnfs]
    oracles = [{v: ("terminated", compilers.eval_cnf(phi, v)) for v in sample} for phi, _text in cnfs]

    def run(state: dict) -> None:
        for (_phi, text), size, oracle in zip(cnfs, sizes, oracles):
            x = instr.parse(text)
            check(len(x) == size and instr.render(x) == text, f"cnf {rung}: parse/render round trip changed the text")
            for name in REWRITES:
                x = getattr(transforms, f"{name}_report")(x).output
                if name == "eliminate_output_false":
                    check(not instr.classify(x).has_out_set_false, f"cnf {rung}: out.set:F survived elimination")
                _agree_on_sample(f"{name} {rung}", x, oracle.__getitem__, sample)

    return Job("cnf-chain", rung, sum(sizes), run, ladder)


def _to_splitting_job(x: InstructionSequence, sample, rung: str, ladder: str) -> Job:
    reference = {v: _outcome_key(services.run(x, v)) for v in sample}

    def run(state: dict) -> None:
        check(transforms.check_write_linear(x) is None, f"to_splitting {rung}: check_write_linear rejects a write-linear input")
        y = transforms.to_splitting_report(x).output
        check(instr.classify(y).is_sisbr, f"to_splitting {rung}: output is not a fork/reply sequence")
        _agree_on_sample(f"to_splitting {rung}", y, reference.__getitem__, sample, splitting.run_splitting)

    return Job("to_splitting", rung, len(x), run, ladder)


def _circuit_job(circuit: Circuit, sample, rung: str) -> Job:
    oracle = {v: ("terminated", compilers.eval_circuit(circuit, v)) for v in sample}

    def run(state: dict) -> None:
        y = compilers.compile_circuit(circuit)
        check(len(y) == compilers.circuit_compiled_size(circuit), f"circuit {rung}: compiled size off the size law")
        _agree_on_sample(f"compile_circuit {rung}", y, oracle.__getitem__, sample)

    return Job("compile_circuit", rung, len(circuit.gates), run)


def _ladder(position: int, count: int) -> str:
    return "bottom" if position == 0 else "top" if position == count - 1 else ""


def build_rewrite(seed: int, scale: str) -> Workload:
    rng = random.Random(seed)
    full = scale == "full"
    # compile_cnf emits 9 instructions per 3-literal clause, plus 2.  Per
    # chain job: (clauses, CNFs the job rewrites).  What a chain costs
    # depends much on the CNF it gets, so each job at 299 instructions
    # rewrites three of them.  Those 24 jobs hold both p50 and p75 of the 48
    # jobs: 18 cheaper jobs sit below them and 6 long ones above.  They are
    # cheap, so a run times each of them several times.
    cnf_chains = ((11, 1),) * 12 + ((33, 3),) * 24 + ((111, 1), (333, 1), (777, 1)) if full else ((3, 1), (6, 2))
    wl_lengths = (100, 200, 400, 1000, 3000) if full else (24, 48)
    circuit_gates = (100, 200, 2000) if full else (8, 16)
    cnf_vars, wl_inputs = 20, 8

    jobs: list[Job] = []
    planted = tuple(rng.random() < 0.5 for _ in range(cnf_vars))
    # Sample: the planted model, its one-bit neighbours, and random vectors,
    # so accepting and rejecting runs both occur.
    cnf_sample = [planted] + [
        tuple(b != (i == j) for j, b in enumerate(planted)) for i in range(7)
    ] + [tuple(rng.random() < 0.5 for _ in range(cnf_vars)) for _ in range(8)]
    for i, (m, count) in enumerate(cnf_chains):
        cnfs = []
        for _ in range(count):
            phi = random_cnf(rng, cnf_vars, m, planted)
            cnfs.append((phi, instr.render(compilers.compile_cnf(phi))))
        jobs.append(_cnf_chain(cnfs, cnf_sample, f"cnf:{9 * m + 2}", _ladder(i, len(cnf_chains))))

    wl_sample = [vector(wl_inputs, i) for i in rng.sample(range(2**wl_inputs), 16)]
    for i, length in enumerate(wl_lengths):
        x = write_linear_sequence(rng, length, wl_inputs, aux=6)
        jobs.append(_to_splitting_job(x, wl_sample, f"wl:{length}", _ladder(i, len(wl_lengths))))

    circuit_inputs = 16
    circuit_sample = [tuple(rng.random() < 0.5 for _ in range(circuit_inputs)) for _ in range(16)]
    for gates in circuit_gates:
        jobs.append(_circuit_job(random_circuit(rng, circuit_inputs, gates), circuit_sample, f"gates:{gates}"))

    jobs.append(probe_job(rng))
    calls = []
    for label, x in (
        ("elim-setfalse cnf", compilers.compile_cnf(random_cnf(rng, 8, 20))),
        ("elim-setfalse circuit", compilers.compile_circuit(random_circuit(rng, 8, 40))),
    ):
        expected = instr.render(transforms.eliminate_output_false(x))
        calls.append(CliCall(["elim-setfalse", instr.render(x)], _same_text(label, expected)))
    x = write_linear_sequence(rng, 120, wl_inputs, aux=4)
    calls.append(CliCall(["to-split", instr.render(x)], _same_text("to-split", instr.render(transforms.to_splitting(x)))))
    return Workload("rewrite", jobs, calls)


def _same_text(label: str, expected: str) -> Callable[[str], None]:
    def verify(stdout: str) -> None:
        check(stdout.strip() == expected, f"cli {label}: output differs from the in-process result")

    return verify


# --- fork ---------------------------------------------------------------------------

# Lengths of build_satc_splitter(ndisj(k)): the family splitter at k guessed variables.
SPLITTER_SIZES = {1: 23, 2: 128, 3: 407, 4: 952, 5: 1855, 6: 3208}


def _build_job(k: int) -> Job:
    arity = satc.ndisj(k)

    def run(state: dict) -> None:
        x = satc.build_satc_splitter(arity)
        check(len(x) == SPLITTER_SIZES[k], f"splitter k={k}: length {len(x)} != {SPLITTER_SIZES[k]}")
        check(instr.classify(x).is_sisbr, f"splitter k={k}: not a fork/reply sequence")
        state[k] = x

    return Job("build_satc_splitter", f"k={k}", arity, run)


def _verdict_job(k: int, batch: list[tuple[bool, ...]]) -> Job:
    """Run the rung-k splitter on each vector of ``batch`` and check each verdict."""

    def run(state: dict) -> None:
        for bits in batch:
            outcome, steps = splitting.run_splitting_with_steps(state[k], bits)
            check(isinstance(outcome, Terminated) and steps > 0, f"verdict k={k}: run did not terminate")
            want = satc.satc_eval(satc.SatcInstance(bits))
            check(outcome.registers.out == want, f"verdict k={k}: splitter disagrees with satc_eval")
            check(satc.cnf_satisfiable(satc.decode_to_cnf(bits)) == want, f"verdict k={k}: decoded CNF disagrees with satc_eval")

    return Job("run_splitting", f"k={k}", satc.ndisj(k), run)


def _reachability_job(x: InstructionSequence, inputs: tuple[bool, ...]) -> Job:
    def run(state: dict) -> None:
        outcome = splitting.run_splitting(x, inputs)
        check(isinstance(outcome, Terminated), "reachability: generated sequence did not terminate")
        got = satc.reachability_satisfiable(x, inputs)
        check(got == outcome.registers.out, f"reachability: formula says {got}, the run says {outcome.registers.out}")

    return Job("reachability_satisfiable", f"len={len(x)}", len(x), run)


def _splitting_computes_job(x: InstructionSequence, n: int) -> Job:
    def run(state: dict) -> None:
        table = lab.truth_table(x, n, splitting=True)
        if table.is_total:
            check(splitting.check_splitting_computes(x, table), "check_splitting_computes rejects the run's own table")
            wrong = TruthTable(n, (not table.values[0],) + table.values[1:])
            check(not splitting.check_splitting_computes(x, wrong), "check_splitting_computes accepts a wrong table")
        else:
            total = TruthTable(n, tuple(bool(v) for v in table.values))
            check(not splitting.check_splitting_computes(x, total), "check_splitting_computes accepts a partial function")

    return Job("check_splitting_computes", f"n={n}", len(x), run)


def _density_bits(rng: random.Random, k: int, density: float) -> tuple[bool, ...]:
    return tuple(rng.random() < density for _ in range(satc.ndisj(k)))


def build_fork(seed: int, scale: str) -> Workload:
    rng = random.Random(seed)
    full = scale == "full"
    # Verdict jobs per rung.  Each job runs three vectors at each density:
    # sparse vectors select satisfiable CNFs, dense ones unsatisfiable ones,
    # and a run's cost depends much on the density and on the vector.  A job
    # that takes three of each costs about the same whatever the seed draws,
    # so p50 falls inside the k=4 jobs and p75 inside the k=5 jobs.
    rungs = {4: 16, 5: 12, 6: 4} if full else {2: 2, 3: 2}
    densities = (0.01, 0.03, 0.06, 0.12)
    # Reachability is brute force over 2^length: one sequence per length up
    # to 16 is the heavy tail; more at mid lengths keep a pass's cost steady.
    reach_lengths = (8, 9, 10, 11, 12, 12, 13, 13, 14, 14, 15, 16) if full else (5, 6, 7)
    computes = 8 if full else 2

    jobs: list[Job] = []
    for k, count in rungs.items():
        jobs += [_verdict_job(k, [_density_bits(rng, k, d) for d in densities * 3]) for _ in range(count)]
    for length in reach_lengths:
        x = reachability_sequence(rng, length, 3, splits=rng.randint(0, 2))
        jobs.append(_reachability_job(x, tuple(rng.random() < 0.5 for _ in range(3))))
    for _ in range(computes):
        jobs.append(_splitting_computes_job(random_sisbr(rng, rng.randint(3, 10), 4, max_splits=3), 4))
    rng.shuffle(jobs)
    # Builds go first: the verdict jobs of a pass run the splitters it built.
    jobs = [_build_job(k) for k in rungs] + jobs + [probe_job(rng)]

    small_k = min(rungs)
    splitter = satc.build_satc_splitter(satc.ndisj(small_k))
    calls = [CliCall(["satc-build", str(satc.ndisj(small_k))], _same_text("satc-build", instr.render(splitter)))]
    for density in (0.05, 0.3):
        bits = _density_bits(rng, small_k, density)
        calls.append(CliCall(
            ["run-split", instr.render(splitter), "--inputs", _render_bits(bits), "--format", "json"],
            _run_split_check(splitter, bits),
        ))
    return Workload("fork", jobs, calls)


def _run_split_check(x: InstructionSequence, bits) -> Callable[[str], None]:
    def verify(stdout: str) -> None:
        record = json.loads(stdout)
        outcome, steps = splitting.run_splitting_with_steps(x, bits)
        check(record["steps"] == steps, f"cli run-split: steps {record['steps']} != {steps}")
        check(record["out"] == satc.satc_eval(satc.SatcInstance(tuple(bits))), "cli run-split: verdict differs from satc_eval")
        check(record["out"] == outcome.registers.out, "cli run-split: verdict differs in-process")

    return verify


# --- search -------------------------------------------------------------------------

# (target table, restrictions, shortest length or None).  The 3-input
# conjunction needs length 6 and has no jump-free single-termination
# sequence of length <= 10.  The other lengths come from the exhaustive
# search; plain enumeration confirms each one it can reach (every found
# length under the default restrictions, and lengths up to 4 with jumps).
AND3 = "FFFFFFFT"
SEARCH_CASES = (
    (AND3, dict(max_length=10, allow_multiple_term=False), None),
    (AND3, dict(max_length=14, allow_jumps=True, max_jump=5, allow_out_set_false=True), 6),
    (AND3, dict(max_length=8, allow_jumps=True, max_jump=3), 6),
    ("FFFT", dict(max_length=7, allow_multiple_term=False), None),
    ("FFFT", dict(max_length=7, allow_aux=True), 5),
    ("FFFT", dict(max_length=7, allow_jumps=True, allow_aux=True, allow_out_set_false=True), 5),
    ("FTTT", dict(max_length=7, allow_aux=True), 4),
    ("FTTF", dict(max_length=7, allow_out_set_false=True), None),
    ("FFTF", dict(max_length=7, allow_aux=True), 5),
    ("FFTT", dict(max_length=3, splitting_mode=True), 3),
    ("FFFT", dict(max_length=2, splitting_mode=True), None),
    ("TF", dict(max_length=3, splitting_mode=True), 3),
)
# Every arity-2 function at max length 7: shortest length without jumps,
# and with jumps of up to 3 (the same for every function here).
ARITY2_LENGTHS = {
    "FFFF": 1, "FFFT": 5, "FFTF": 5, "FFTT": 3, "FTFF": 5, "FTFT": 3, "FTTF": None, "FTTT": 4,
    "TFFF": 5, "TFFT": None, "TFTF": 3, "TFTT": 4, "TTFF": 3, "TTFT": 4, "TTTF": 4, "TTTT": 2,
}
SEARCH_CASES += tuple(
    (table, dict(max_length=7, allow_jumps=jumps), length)
    for jumps in (False, True)
    for table, length in ARITY2_LENGTHS.items()
)
SEARCH_CASES_TINY = (
    ("FFFT", dict(max_length=5), 5),
    ("FTTF", dict(max_length=4), None),
    ("TF", dict(max_length=3, splitting_mode=True), 3),
)
# Cheap cases for the CLI calls, with their command-line flags.
SEARCH_CLI_CASES = (
    ("FFFT", dict(max_length=7), []),
    ("FTTT", dict(max_length=7, allow_aux=True), ["--allow-aux"]),
    ("TFFF", dict(max_length=7, allow_jumps=True), ["--allow-jumps"]),
)


def _truth(table: str) -> TruthTable:
    return TruthTable(len(table).bit_length() - 1, tuple(c == "T" for c in table))


def _search_job(table: str, restrictions: dict, expected) -> Job:
    spec = SearchSpec(target=_truth(table), **restrictions)
    n = spec.target.arity

    def run(state: dict) -> None:
        found = lab.shortest_sequence_search(spec)
        if expected is None:
            check(found is None, f"search {table}: found {found} where none exists")
            return
        check(found is not None and len(found) == expected, f"search {table}: length {found and len(found)} != {expected}")
        runner = splitting.run_splitting if spec.splitting_mode else services.run
        for index, want in enumerate(spec.target.values):
            outcome = runner(found, vector(n, index))
            check(_outcome_key(outcome) == ("terminated", want), f"search {table}: result misses the target at {index}")

    mode = "split" if spec.splitting_mode else "plain"
    return Job(f"search-{mode}", f"arity={n}", restrictions["max_length"], run)


def build_search(seed: int, scale: str) -> Workload:
    rng = random.Random(seed)
    cases = SEARCH_CASES if scale == "full" else SEARCH_CASES_TINY
    # The targets are a fixed list with known answers; the seed orders them.
    jobs = [_search_job(table, restrictions, expected) for table, restrictions, expected in cases]
    rng.shuffle(jobs)
    jobs.append(probe_job(rng))

    calls = []
    for table, restrictions, flags in SEARCH_CLI_CASES:
        found = lab.shortest_sequence_search(SearchSpec(target=_truth(table), **restrictions))
        expected = "none" if found is None else instr.render(found)
        args = ["search", table, "--max-length", str(restrictions["max_length"]), *flags]
        calls.append(CliCall(args, _same_text(f"search {table}", expected)))
    return Workload("search", jobs, calls)


# --- probe ---------------------------------------------------------------------------


def probe_job(rng: random.Random) -> Job:
    """One tiny call into every layer, checked like the real jobs.

    Every workload runs it once per pass, so every per-layer figure is
    measured on every workload; a layer a workload does not use shows a
    figure near zero instead of a constant 0.
    """
    n = 3
    parts = [_tabulate_job([(kind, _sources(rng, kind, n)) for kind in COMPILERS], n, all_vectors(n))]
    planted = tuple(rng.random() < 0.5 for _ in range(4))
    phi = random_cnf(rng, 4, 3, planted)
    sample = all_vectors(4)[:4] + [planted]
    parts.append(_cnf_chain([(phi, instr.render(compilers.compile_cnf(phi)))], sample, "probe", "").run)
    parts.append(_to_splitting_job(write_linear_sequence(rng, 24, 3, aux=2), all_vectors(3), "probe", "").run)
    parts += [_build_job(1).run, _verdict_job(1, [(True, False, True)]).run]
    parts.append(_reachability_job(reachability_sequence(rng, 6, 2, splits=1), (True, False)).run)
    parts.append(_splitting_computes_job(random_sisbr(rng, 6, 2, max_splits=1), 2).run)
    parts.append(_search_job("FT", dict(max_length=3), 3).run)

    def run(state: dict) -> None:
        own: dict = {}
        for part in parts:
            part(own)

    return Job("probe", "all layers", 0, run)


BUILDERS = {
    "tabulate": build_tabulate,
    "rewrite": build_rewrite,
    "fork": build_fork,
    "search": build_search,
}
