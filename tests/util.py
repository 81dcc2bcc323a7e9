"""Shared test helpers: random generators and the reference oracles.

The algebraic oracle composes the published semantics literally (behaviour
tree, use chain over the registers, apply on the output register) and is
kept independent of the program-counter executors it checks.  The naive
search enumerates and tabulates every sequence, independent of the merged
behaviour summaries of ``lab.shortest_sequence_search``.  The reference
decoder works out every row from its instruction, independent of the row
templates the interned instructions carry.  The reference register run,
extraction, jump-free view and control graph follow its rows, where
``services.run_with_steps``, ``threads.extract``, ``instr.actions`` and
``satc._control_graph`` add up the templates' offsets.  The reference splice visits every item, where
``transforms._splice`` copies the stretches between blocks.  Exhaustive
formula satisfiability is the reference for
``satc.reachability_satisfiable``.  The reference term size walks the
tree, independent of the sizes the thread nodes carry.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from bisect import bisect_left, bisect_right
from itertools import product
from pathlib import Path
from typing import Optional

from boolseq.compilers import BoolFormula, FVar, _occurrences, eval_formula
from boolseq.instr import (
    GET,
    KIND_AUX,
    KIND_IN,
    KIND_JUMP,
    KIND_OUT,
    KIND_REPLY,
    KIND_SPLIT,
    KIND_TERM,
    SET_FALSE,
    SET_TRUE,
    AuxReg,
    ClassProfile,
    InReg,
    InstructionSequence,
    Jump,
    NegTest,
    OUT,
    OutReg,
    Plain,
    PosTest,
    RegisterOp,
    ReplyOp,
    ResourceBoundError,
    Row,
    SplitOp,
    TERM,
    Term,
    _NOT_ISBR,
    _SISBR,
    classify,
    parse,
)
from boolseq.lab import SearchSpec, _search_alphabet, truth_table
from boolseq.services import (
    DIVERGENT,
    BoolRegister,
    Deadlocked,
    Divergent,
    RegisterFile,
    RegState,
    Terminated,
    apply,
    use,
)
from boolseq.splitting import csi
from boolseq.threads import DEAD, STOP, PostCond, Subst, Tau, extract


def algebraic_outcome(x: InstructionSequence, inputs):
    """Literal chain: behaviour tree, use aux registers (False), use inputs, apply out."""
    t = extract(x)
    for j in range(1, classify(x).max_aux_index + 1):
        t = use(t, AuxReg(j), BoolRegister(RegState.FALSE))
    for i, b in enumerate(inputs, start=1):
        t = use(t, InReg(i), BoolRegister(RegState.of(b)))
    return apply(t, OUT, BoolRegister(RegState.FALSE))


def algebraic_splitting_outcome(x: InstructionSequence, inputs):
    """Literal chain with cyclic interleaving of the singleton thread vector."""
    t = csi((extract(x),))
    for i, b in enumerate(inputs, start=1):
        t = use(t, InReg(i), BoolRegister(RegState.of(b)))
    return apply(t, OUT, BoolRegister(RegState.FALSE))


def reference_decode(x: InstructionSequence) -> tuple[tuple[Row, ...], ClassProfile]:
    """The rows and class profile of ``x``, one instruction at a time.

    Each row is read from the instruction's type and its ``offsets``; the
    reference for ``decode`` and ``classify``.
    """
    focus_kinds = {InReg: KIND_IN, AuxReg: KIND_AUX, OutReg: KIND_OUT}
    items = x.items
    k = len(items)
    rows = []
    shapes = set()  # the (kind, method) pairs of the basic instructions
    top = [0] * (KIND_JUMP + 1)  # per kind, the largest slot, and at KIND_JUMP the largest distance
    term_count = 0
    last_param_use = {}
    for pos, u in enumerate(items, start=1):
        t = type(u)
        if t is Term:
            rows.append((KIND_TERM, 0, None, 0, 0))
            term_count += 1
            continue
        on_true, on_false = u.offsets
        on_true = pos + on_true if 0 < on_true <= k - pos else 0
        on_false = pos + on_false if 0 < on_false <= k - pos else 0
        if t is Jump:
            rows.append((KIND_JUMP, 0, None, on_true, on_false))
            top[KIND_JUMP] = max(top[KIND_JUMP], u.distance)
            continue
        b = u.basic
        if type(b) is RegisterOp:
            kind = focus_kinds[type(b.focus)]
            slot = 0 if kind == KIND_OUT else b.focus.index
            method = b.method
        else:
            kind = KIND_SPLIT if type(b) is SplitOp else KIND_REPLY
            slot = b.param
            method = None
            last_param_use[slot] = pos
        rows.append((kind, slot, method, on_true, on_false))
        shapes.add((kind, method))
        top[kind] = max(top[kind], slot)

    is_isbr = shapes.isdisjoint(_NOT_ISBR)
    profile = ClassProfile(
        is_isbr=is_isbr,
        is_isbrna=is_isbr and not top[KIND_AUX],
        is_sisbr=shapes <= _SISBR,
        max_jump=top[KIND_JUMP],
        max_aux_index=top[KIND_AUX],
        max_input_index=top[KIND_IN],
        max_param_index=max(top[KIND_SPLIT], top[KIND_REPLY]),
        term_count=term_count,
        has_out_set_false=(KIND_OUT, SET_FALSE) in shapes,
        last_param_use=last_param_use,
    )
    return tuple(rows), profile


def reference_run(x: InstructionSequence, inputs) -> tuple:
    """``(outcome, steps)`` of a register run of ``x``, following the rows of ``reference_decode``.

    The reference for ``services.run_with_steps`` on the sequences it runs:
    control moves to a row's target, and a target of 0 deadlocks.
    """
    rows, profile = reference_decode(x)
    if profile.max_param_index:
        raise ValueError("sequence contains split/reply instructions; use run_splitting")
    inputs = tuple(inputs)
    n = len(inputs)
    # Banks indexed by register kind, then by slot (inputs from 1, out at 0).
    banks = [[False, *inputs], [False] * (profile.max_aux_index + 1), [False]]
    pc = 1
    steps = 0
    while pc:
        kind, slot, method, on_true, on_false = rows[pc - 1]
        steps += 1
        if kind == KIND_TERM:
            ins, aux, out = banks
            return Terminated(RegisterFile(tuple(ins[1:]), dict(enumerate(aux[1:], 1)), out[0])), steps
        if kind == KIND_JUMP:
            pc = on_true
            continue
        if kind == KIND_IN and slot > n:
            return Divergent(f"unserved focus in:{slot}"), steps
        bank = banks[kind]
        # A register's new contents is also its reply.
        reply = bank[slot] if method == GET else method == SET_TRUE
        bank[slot] = reply
        pc = on_true if reply else on_false
    return Deadlocked(), steps


def reference_extract(x: InstructionSequence):
    """``threads.extract`` by following the rows of ``reference_decode``: the reference for it.

    Back to front, each position's thread is built from those of its
    targets, and a target of 0 is deadlock.
    """
    rows, _ = reference_decode(x)
    threads = [DEAD] * (len(rows) + 1)  # 1-based; 0 stays Dead
    for i in range(len(rows), 0, -1):
        kind, _slot, _method, on_true, on_false = rows[i - 1]
        if kind == KIND_TERM:
            threads[i] = STOP
        elif kind == KIND_JUMP:
            threads[i] = threads[on_true]
        else:
            threads[i] = PostCond(x.items[i - 1].basic, threads[on_true], threads[on_false])
    return threads[1]


def reference_actions(x: InstructionSequence) -> tuple:
    """``instr.actions`` from the rows of ``reference_decode``, following each jump chain one jump at a time."""
    rows, _ = reference_decode(x)

    def followed(pos: int) -> int:
        # The first non-jump position from pos on; 0 where control deadlocks.
        while pos and rows[pos - 1][0] == KIND_JUMP:
            pos = rows[pos - 1][3]
        return pos

    where = [0] + [pos for pos, row in enumerate(rows, start=1) if row[0] != KIND_JUMP]
    index = {pos: j for j, pos in enumerate(where)}  # 0 -> 0: deadlock stays deadlock
    view = tuple(
        (kind, slot, method, index[followed(on_true)], index[followed(on_false)])
        for kind, slot, method, on_true, on_false in (rows[pos - 1] for pos in where[1:])
    )
    return view, tuple(where), index[followed(1)]


def reference_successors(x: InstructionSequence, inputs) -> list[list[int]]:
    """Each position's successors in the control graph of ``satc.reachability_formula``, from ``reference_decode``'s rows.

    An input read takes the reply of its input, ``out.set:T`` replies True,
    and every other instruction has the targets of both replies; a target
    of 0 is no successor.
    """
    rows, _ = reference_decode(x)
    successors = []
    for kind, slot, _method, on_true, on_false in rows:
        if kind == KIND_IN:
            replies = (inputs[slot - 1],)
        elif kind == KIND_OUT:
            replies = (True,)
        else:
            replies = (True, False)
        successors.append(sorted({on_true if reply else on_false for reply in replies} - {0}))
    return successors


# Tests, plain and test-form writes of every register kind (``out.set:F``
# included), split and reply, ``#0``-``#3`` and ``!``.
MIXED_LETTERS = [
    form(basic)
    for basic in (
        RegisterOp(InReg(1), GET),
        RegisterOp(InReg(2), SET_FALSE),
        RegisterOp(AuxReg(1), GET),
        RegisterOp(AuxReg(2), SET_TRUE),
        RegisterOp(OUT, GET),
        RegisterOp(OUT, SET_TRUE),
        RegisterOp(OUT, SET_FALSE),
        SplitOp(2),
        ReplyOp(1),
    )
    for form in (Plain, PosTest, NegTest)
] + [Jump(d) for d in range(4)] + [TERM]

# The ways control leaves a sequence: ``#0``, a jump past the end, a chain
# that ends past the end, and tests, whose skip from the last position lands
# two past the end.
DEADLOCK_SHAPES = ("#0", "#9", "#1 ; #9", "+in:1.get", "-in:1.get")


def deadlock_placements(filler: list[str]):
    """Each of ``DEADLOCK_SHAPES`` at the first, a middle and the last position among the ``filler`` instructions."""
    for shape in DEADLOCK_SHAPES:
        for at in (0, len(filler) // 2, len(filler)):
            yield parse(" ; ".join([*filler[:at], shape, *filler[at:]]))


def reference_splice(items: list, blocks: dict[int, tuple[str, list]], trace: list) -> list:
    """``transforms._splice`` one item at a time: the reference for it.

    Each ``items[q - 1]`` with ``q`` in ``blocks`` is replaced by the block
    of ``blocks[q] = (rule, block)``, and every jump other than ``#0`` that
    strictly crosses a replaced position, a jump inside an earlier block
    included, is lengthened by what the blocks it crosses add.  Per replaced
    q, in order, the trace gets a ``("widen-jump", i)`` for each crossing
    jump in position order, then ``(rule, new position of q)``.
    """
    starts = sorted(blocks)
    grown = [0]  # grown[i]: the positions added by the blocks before starts[i]
    for q in starts:
        grown.append(grown[-1] + len(blocks[q][1]) - 1)
    out: list = []
    crossing: list[tuple[int, int]] = []  # (new position, old target) of each jump crossing a block
    active: list[tuple[int, int]] = []  # those that may cross the next block, in position order

    def track(pos: int, start: int, target: int) -> None:
        after = bisect_right(starts, start)
        if after < len(starts) and starts[after] < target:
            crossing.append((pos, target))
            active.append(crossing[-1])

    for p, u in enumerate(items, start=1):
        if p not in blocks:
            out.append(u)
            if isinstance(u, Jump) and u.distance:
                track(len(out), p, p + u.distance)
            continue
        rule, block = blocks[p]
        active = [jump for jump in active if jump[1] > p]
        trace.extend(("widen-jump", pos) for pos, _target in active)
        trace.append((rule, len(out) + 1))
        for offset, v in enumerate(block):
            out.append(v)
            # A jump out of the block goes to an old position after p.
            if isinstance(v, Jump) and v.distance and offset + v.distance >= len(block):
                track(len(out), p, p + 1 + offset + v.distance - len(block))
    for pos, target in crossing:
        out[pos - 1] = Jump(target + grown[bisect_left(starts, target)] - pos)
    return out

# Most variables ``formula_satisfiable`` searches exhaustively (2^25 assignments).
MAX_FORMULA_VARS = 25


def reference_tsize(t) -> int:
    """``threads.tsize`` by walking the term: leaves 1, ``Tau`` as two equal children.

    One explicit stack, so depth is not limited by recursion: a node stays on
    it until both its children are sized, and sizes are memoised by node
    identity, so shared subterms are walked once and counted per occurrence.
    """
    memo: dict[int, int] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        kind = type(node)
        if kind is PostCond:
            left, right = node.on_true, node.on_false
        elif kind is Subst:
            left, right = node.bound, node.body
        elif kind is Tau:
            left = right = node.next
        else:  # Stop, Dead, Var
            memo[id(node)] = 1
            stack.pop()
            continue
        left_size, right_size = memo.get(id(left)), memo.get(id(right))
        if left_size is None or right_size is None:
            if left_size is None:
                stack.append(left)
            if right_size is None and right is not left:
                stack.append(right)
            continue
        memo[id(node)] = left_size + right_size + 1
        stack.pop()
    return memo[id(t)]


def formula_vars(phi: BoolFormula) -> int:
    """Largest variable index occurring in the formula (0 if impossible)."""
    return max(node.index for node in _occurrences(phi) if isinstance(node, FVar))


def formula_satisfiable(phi: BoolFormula, num_vars: int | None = None) -> bool:
    """Exhaustive satisfiability over the first ``num_vars`` variables."""
    n = formula_vars(phi) if num_vars is None else num_vars
    if n > MAX_FORMULA_VARS:
        raise ResourceBoundError(f"resource bound exceeded: {n} variables for exhaustive search")
    for bits in range(2**n):
        assignment = [(bits >> (n - 1 - i)) & 1 == 1 for i in range(n)]
        if eval_formula(phi, assignment):
            return True
    return False


NAIVE_CAP = 5_000_000


def naive_search(spec: SearchSpec) -> Optional[InstructionSequence]:
    """Plain length-lex enumeration: the first sequence whose truth table is the target."""
    alphabet = _search_alphabet(spec)
    total = 0
    for length in range(1, spec.max_length + 1):
        total += len(alphabet) ** length
        if total > NAIVE_CAP:
            raise ValueError(
                f"resource bound exceeded for plain enumeration at length {length}: "
                f"{total} sequences, cap {NAIVE_CAP}"
            )
    for length in range(1, spec.max_length + 1):
        for combo in product(alphabet, repeat=length):
            if not spec.allow_multiple_term and sum(1 for u in combo if isinstance(u, Term)) > 1:
                continue
            x = InstructionSequence(combo)
            if truth_table(x, spec.target.arity, splitting=spec.splitting_mode) == spec.target:
                return x
    return None


def outcome_matches_service(run_outcome, service_result) -> bool:
    """Terminated(out=o) corresponds to a register holding o; anything else to divergence."""
    if isinstance(run_outcome, Terminated):
        return (
            isinstance(service_result, BoolRegister)
            and (service_result.state is RegState.TRUE) == run_outcome.registers.out
        )
    return service_result is DIVERGENT


def bench_workloads():
    """The benchmark's workload module, for its generators."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]

# --- random sequence generators -------------------------------------------------


def _random_form(rng: random.Random, basic):
    return rng.choice((Plain, PosTest, NegTest))(basic)


# Where a lane sweep first reads an input: where its loop visits the read
# (the entry, after a split) or inside a chase (after a write, after a reply
# that is the same on every lane).
FIRST_READ_PLACES = ("", "split:1 ; ", "out.set:T ; ", "+split:1 ; ! ; -reply:1 ; ")


def first_reads(n: int):
    """Sequences that first read each input slot 1..n + 1 at each of ``FIRST_READ_PLACES``.

    Slot n + 1 is unserved.  The last of each slot's sequences reads slot 1
    at the place and slots 2..slot inside the chase after it.
    """
    for place in FIRST_READ_PLACES:
        for slot in range(1, n + 2):
            yield parse(f"{place}+in:{slot}.get ; ! ; #0")
            yield parse(f"{place}-in:{slot}.get ; out.set:T ; !")
            yield parse(place + " ; ".join(f"+in:{s}.get" for s in range(1, slot + 1)) + " ; out.set:T ; !")


def gen_isbr(
    rng: random.Random,
    max_len: int,
    n_inputs: int,
    max_aux: int = 2,
    allow_out_set_false: bool = True,
) -> InstructionSequence:
    """A random register-only sequence (jumps and terminations included)."""
    length = rng.randint(1, max_len)
    basics = [RegisterOp(InReg(j), GET) for j in range(1, n_inputs + 1)]
    for j in range(1, max_aux + 1):
        basics += [
            RegisterOp(AuxReg(j), GET),
            RegisterOp(AuxReg(j), SET_TRUE),
            RegisterOp(AuxReg(j), SET_FALSE),
        ]
    basics.append(RegisterOp(OUT, SET_TRUE))
    if allow_out_set_false:
        basics.append(RegisterOp(OUT, SET_FALSE))
    items = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.12:
            items.append(TERM)
        elif roll < 0.24:
            items.append(Jump(rng.randint(0, max_len + 1)))
        else:
            items.append(_random_form(rng, rng.choice(basics)))
    return InstructionSequence(tuple(items))


def gen_write_linear(rng: random.Random, max_len: int, n_inputs: int, max_aux: int = 2) -> InstructionSequence:
    """A random register-only sequence in ``to_splitting``'s domain.

    No ``out.set:F``, auxiliary writes in plain form only, and no jump or
    test skip passes over a write: a jump stops at or before the next write,
    and the instruction in front of a write is not a test.
    """
    length = rng.randint(1, max_len)
    writes = [pos for pos in range(1, length + 1) if rng.random() < 0.2]
    basics = [RegisterOp(InReg(j), GET) for j in range(1, n_inputs + 1)]
    basics += [RegisterOp(AuxReg(j), GET) for j in range(1, max_aux + 1)]
    basics.append(RegisterOp(OUT, SET_TRUE))
    items = []
    for pos in range(1, length + 1):
        if pos in writes:
            items.append(Plain(RegisterOp(AuxReg(rng.randint(1, max_aux)), rng.choice((SET_TRUE, SET_FALSE)))))
            continue
        next_write = next((w for w in writes if w > pos), None)
        roll = rng.random()
        if roll < 0.12:
            items.append(TERM)
        elif roll < 0.24:
            items.append(Jump(rng.randint(0, max_len + 1 if next_write is None else next_write - pos)))
        elif next_write == pos + 1:
            items.append(Plain(rng.choice(basics)))
        else:
            items.append(_random_form(rng, rng.choice(basics)))
    return InstructionSequence(tuple(items))


def gen_sisbr(
    rng: random.Random,
    max_len: int,
    n_inputs: int,
    max_splits: int = 3,
    max_params: int = 3,
) -> InstructionSequence:
    """A random fork/reply sequence with a bounded number of splits."""
    length = rng.randint(1, max_len)
    basics = [RegisterOp(InReg(j), GET) for j in range(1, n_inputs + 1)]
    basics.append(RegisterOp(OUT, SET_TRUE))
    items = []
    splits = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.12:
            items.append(TERM)
        elif roll < 0.22:
            items.append(Jump(rng.randint(0, max_len + 1)))
        elif roll < 0.34 and splits < max_splits:
            splits += 1
            items.append(_random_form(rng, SplitOp(rng.randint(1, max_params))))
        elif roll < 0.46:
            items.append(_random_form(rng, ReplyOp(rng.randint(1, max_params))))
        else:
            items.append(_random_form(rng, rng.choice(basics)))
    return InstructionSequence(tuple(items))


def gen_sisbr_single_read(
    rng: random.Random,
    max_len: int,
    n_inputs: int,
    max_splits: int = 2,
) -> InstructionSequence:
    """Fork/reply sequence in the class where the reachability reduction is sound.

    Exactly one out.set:T; splits in plain form with distinct parameters
    (both children continue at the same position, so both parameter values
    reach every later position); each parameter read at most once, after its
    split.  A test-form split filters downstream positions by the parameter
    value and the reduction's both-successor edges then overapproximate.
    """
    while True:
        length = rng.randint(3, max_len)
        slots: list = [None] * length
        positions = list(range(length))
        rng.shuffle(positions)
        accept_pos = positions.pop()
        slots[accept_pos] = _random_form(rng, RegisterOp(OUT, SET_TRUE))
        n_splits = rng.randint(0, max_splits)
        split_positions = sorted(positions[:n_splits])
        param = 0
        for pos in split_positions:
            param += 1
            slots[pos] = Plain(SplitOp(param))
        remaining = positions[n_splits:]
        reads_placed = set()
        for pos in remaining:
            roll = rng.random()
            candidates = [
                p
                for p, split_pos in enumerate(split_positions, start=1)
                if split_pos < pos and p not in reads_placed
            ]
            if roll < 0.3 and candidates:
                p = rng.choice(candidates)
                reads_placed.add(p)
                slots[pos] = _random_form(rng, ReplyOp(p))
            elif roll < 0.5:
                slots[pos] = TERM
            elif roll < 0.65:
                slots[pos] = Jump(rng.randint(0, max_len + 1))
            elif n_inputs > 0 and roll < 0.9:
                slots[pos] = _random_form(rng, RegisterOp(InReg(rng.randint(1, n_inputs)), GET))
            else:
                slots[pos] = TERM
        x = InstructionSequence(tuple(slots))
        if classify(x).is_sisbr:
            return x


def gen_cnf(rng: random.Random, max_vars: int, max_clauses: int, max_clause_len: int = 4):
    from boolseq.compilers import Cnf, Literal

    num_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        clause = tuple(
            Literal(rng.randint(1, num_vars), negated=rng.random() < 0.5)
            for _ in range(rng.randint(1, max_clause_len))
        )
        clauses.append(clause)
    return Cnf(num_vars, tuple(clauses))


def gen_formula(rng: random.Random, max_vars: int, size: int):
    """Random not/or/and formula with roughly ``size`` connectives."""
    from boolseq.compilers import And, FVar, Not, Or

    if size <= 1:
        return FVar(rng.randint(1, max_vars))
    roll = rng.random()
    if roll < 0.25:
        return Not(gen_formula(rng, max_vars, size - 1))
    left_size = rng.randint(1, max(1, size - 2))
    ctor = Or if roll < 0.625 else And
    return ctor(
        gen_formula(rng, max_vars, left_size),
        gen_formula(rng, max_vars, size - 1 - left_size),
    )


def gen_circuit(rng: random.Random, max_inputs: int, max_gates: int):
    from boolseq.compilers import AndGate, Circuit, GateRef, InputRef, NotGate, OrGate

    num_inputs = rng.randint(1, max_inputs)
    num_gates = rng.randint(1, max_gates)
    gates = []
    for k in range(1, num_gates + 1):
        def node():
            if k == 1 or rng.random() < 0.4:
                return InputRef(rng.randint(1, num_inputs))
            return GateRef(rng.randint(1, k - 1))

        roll = rng.random()
        if roll < 0.3:
            gates.append(NotGate(node()))
        elif roll < 0.65:
            gates.append(OrGate(node(), node()))
        else:
            gates.append(AndGate(node(), node()))
    return Circuit(num_inputs, tuple(gates), num_gates)
