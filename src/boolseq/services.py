"""Boolean register services and execution of register-only sequences.

A Boolean register holds T, F, or the absorbing error state B.  Its effect
and yield coincide: after processing a method the new contents is also the
reply.  Threads interact with a named service through two complementary
operators: ``use`` feeds the thread's actions on one focus to the service
and returns the residual thread, ``apply`` returns the residual service.

``run`` is a program-counter executor over a full register file.  It is
deliberately independent of the thread-algebra route (extract, use chain,
apply); the test suite checks the two against each other.  ``lane_values``
tabulates a sequence on every input vector at once, in one forward sweep
with one bit per vector; it is checked against ``run`` and ``run_splitting``.
That sweep, ``lane_sweep``, also runs forking code one vector at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import add
from typing import Callable, Optional, Union

from .instr import (
    GET,
    KIND_IN,
    KIND_JUMP,
    KIND_OUT,
    KIND_REPLY,
    KIND_SPLIT,
    KIND_TERM,
    SET_FALSE,
    SET_TRUE,
    Focus,
    InstructionSequence,
    RegisterOp,
    classify,
    decode,
)
from .threads import DEAD, Dead, PostCond, Stop, Tau, Thread


class RegState(Enum):
    TRUE = "T"
    FALSE = "F"
    BLOCKED = "B"

    @staticmethod
    def of(b: bool) -> "RegState":
        return RegState.TRUE if b else RegState.FALSE


def register_step(state: RegState, method: str) -> tuple[RegState, RegState]:
    """One register transaction: (new state, reply).

    ``set:T``/``set:F`` store and reply the stored value, ``get`` replies the
    contents.  The blocked state absorbs every method, and unknown methods
    block the register.
    """
    if state is RegState.BLOCKED or method not in (GET, SET_TRUE, SET_FALSE):
        return RegState.BLOCKED, RegState.BLOCKED
    if method == SET_TRUE:
        return RegState.TRUE, RegState.TRUE
    if method == SET_FALSE:
        return RegState.FALSE, RegState.FALSE
    return state, state


# --- service values ----------------------------------------------------------


@dataclass(frozen=True)
class BoolRegister:
    """A Boolean register service with the given contents."""

    state: RegState


class DivergentService:
    """The service that rejects every request; all such services are identified."""

    _instance: "DivergentService | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DIVERGENT"


DIVERGENT = DivergentService()

ServiceValue = Union[BoolRegister, DivergentService]


def _matches(action, focus: Focus) -> bool:
    return isinstance(action, RegisterOp) and action.focus == focus


def use(t: Thread, focus: Focus, service: ServiceValue) -> Thread:
    """Residual thread after ``service`` (named ``focus``) processes t's actions.

    Actions on other foci are left in place; processed actions become
    internal steps along the branch the reply selects; a blocked reply or a
    divergent service deadlocks the thread.
    """
    if isinstance(t, (Stop, Dead)):
        return t
    if isinstance(t, Tau):
        return Tau(use(t.next, focus, service))
    if not _matches(t.action, focus):
        return PostCond(t.action, use(t.on_true, focus, service), use(t.on_false, focus, service))
    if service is DIVERGENT:
        return DEAD
    new_state, reply = register_step(service.state, t.action.method)
    if reply is RegState.BLOCKED:
        return DEAD
    branch = t.on_true if reply is RegState.TRUE else t.on_false
    return Tau(use(branch, focus, BoolRegister(new_state)))


def apply(t: Thread, focus: Focus, service: ServiceValue) -> ServiceValue:
    """Residual service after processing t's actions on ``focus``.

    Deadlock, a foreign-focus action, a blocked reply, or an already
    divergent service all yield the divergent service.
    """
    while True:
        if isinstance(t, Stop):
            return service
        if isinstance(t, Dead):
            return DIVERGENT
        if isinstance(t, Tau):
            t = t.next
            continue
        if not _matches(t.action, focus):
            return DIVERGENT
        if service is DIVERGENT:
            return DIVERGENT
        new_state, reply = register_step(service.state, t.action.method)
        if reply is RegState.BLOCKED:
            return DIVERGENT
        t = t.on_true if reply is RegState.TRUE else t.on_false
        service = BoolRegister(new_state)


# --- program-counter execution -----------------------------------------------


@dataclass(frozen=True)
class RegisterFile:
    """Register contents: input values, auxiliary registers, output."""

    inputs: tuple[bool, ...]
    aux: dict[int, bool] = field(default_factory=dict)
    out: bool = False


@dataclass(frozen=True)
class Terminated:
    registers: RegisterFile


@dataclass(frozen=True)
class Deadlocked:
    pass


@dataclass(frozen=True)
class Divergent:
    reason: str


RunOutcome = Union[Terminated, Deadlocked, Divergent]


Runner = Callable[[tuple[bool, ...]], tuple[RunOutcome, int]]


def runner(x: InstructionSequence) -> Runner:
    """Decode ``x`` once for runs on many input vectors.

    The result maps an input vector to ``(outcome, executed instruction
    count)`` with the semantics of ``run``.  Raises ``ValueError`` if ``x``
    holds split/reply instructions.
    """
    profile = classify(x)
    if profile.max_param_index:
        raise ValueError("sequence contains split/reply instructions; use run_splitting")
    max_aux = profile.max_aux_index
    rows = decode(x)

    def execute(inputs: tuple[bool, ...]) -> tuple[RunOutcome, int]:
        n = len(inputs)
        # Banks indexed by register kind, then by slot (inputs from 1, out at 0).
        banks = [[False, *inputs], [False] * (max_aux + 1), [False]]
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

    return execute


def run(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> RunOutcome:
    """Execute a register-only sequence (no split/reply) on the given inputs.

    Input registers hold the inputs, auxiliary registers and the output
    start False.  Falling past the end, a zero jump, or a jump beyond the
    end deadlocks; reading an input register beyond the provided arity
    diverges; the termination instruction terminates with the final
    registers.
    """
    outcome, _ = run_with_steps(x, inputs)
    return outcome


def run_with_steps(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> tuple[RunOutcome, int]:
    """Like ``run`` but also reports the executed instruction count."""
    return runner(x)(tuple(inputs))


# --- lane-parallel execution -------------------------------------------------

# A whole table takes 2^(arity + distinct split parameters) lanes.  At the
# bound a mask is 2 MB and the table's tuple of 2^24 entries 128 MB.
MAX_TABLE_ARITY = 24

# (dead, out) bits of one vector -> its table entry.
_ENTRY = {"00": False, "01": True, "10": None, "11": None}


def lane_mask(bit: int, lanes: int) -> int:
    """The lanes, out of ``lanes``, whose index has ``bit`` set; built by doubling."""
    half = 1 << bit
    mask = ((1 << half) - 1) << half
    width = 2 * half
    while width < lanes:
        mask |= mask << width
        width *= 2
    return mask


def _lane_bits(mask: int, lanes: int, step: int) -> str:
    """Bits 0, step, 2*step, ... of ``mask`` as a '0'/'1' string, lowest first."""
    return format(mask, f"0{lanes}b")[::-step]


def lane_sweep(
    rows, n: int, lanes: int, params: tuple[int, ...], input_lanes: Callable[[int], int], count: bool = False
) -> tuple[int, int, int, int]:
    """One forward sweep of the decoded ``rows`` over ``lanes`` lanes.

    ``input_lanes(slot)`` gives the lanes where ``in:slot`` holds True (for
    slot <= n); split parameter ``params[d]`` is True in the lanes whose
    index has bit d set.  Returns ``(term, out, unserved, steps)``: the
    lanes that terminate, the lanes where ``out`` ends True, the lanes that
    read an input past n, and, when ``count`` is set, the number of
    forking-run action turns.

    Counting: the lanes of one forking branch are those that agree with its
    valuation, and they move together.  Its canonical lane is the one whose
    uninstantiated parameters are all False, so at each action the branches
    that take it are the canonical lanes among the lanes that take it.
    """
    full = (1 << lanes) - 1
    valuation = {p: lane_mask(d, lanes) for d, p in enumerate(params)}
    at = [0] * (len(rows) + 1)  # at[0] collects the lanes that deadlock
    at[1] = full
    # By register kind, then slot: the lanes where the register holds True.
    regs: tuple[dict[int, int], ...] = ({}, {}, {})
    instantiated: dict[int, int] = {}  # lanes where a parameter is instantiated
    canonical = _canonical(full, valuation, instantiated) if count else 0
    term = unserved = steps = 0
    for pos, (kind, slot, method, on_true, on_false) in enumerate(rows, start=1):
        m = at[pos]
        if not m:
            continue
        at[pos] = 0
        if kind == KIND_TERM:
            term |= m
            continue
        if kind == KIND_JUMP:
            at[on_true] |= m
            continue
        if kind == KIND_SPLIT:
            m &= ~instantiated.get(slot, 0)  # a re-split deadlocks
            instantiated[slot] = instantiated.get(slot, 0) | m
            reply = valuation[slot]
        elif kind == KIND_REPLY:
            if slot not in instantiated:
                continue
            m &= instantiated[slot]  # a reply on an uninstantiated parameter deadlocks
            reply = valuation[slot]
        elif kind == KIND_IN and slot > n:
            unserved |= m
            continue
        else:
            bank = regs[kind]
            reg = bank.get(slot)
            if reg is None:
                reg = bank[slot] = input_lanes(slot) if kind == KIND_IN else 0
            if method == GET:
                reply = reg
            elif method == SET_TRUE:
                bank[slot] = reg | m
                reply = m
            else:
                bank[slot] = reg & ~m
                reply = 0
        if count:
            steps += (m & canonical).bit_count()
            if kind == KIND_SPLIT:
                canonical = _canonical(full, valuation, instantiated)
        taken = m & reply
        at[on_true] |= taken
        at[on_false] |= m ^ taken
    # A lane's registers stop changing when it terminates.
    return term, regs[KIND_OUT].get(0, 0), unserved, steps


def _canonical(full: int, valuation: dict[int, int], instantiated: dict[int, int]) -> int:
    """The lanes of ``full`` whose uninstantiated parameters are all False."""
    canonical = full
    for p, true_lanes in valuation.items():
        canonical &= instantiated.get(p, 0) | ~true_lanes
    return canonical


def lane_values(x: InstructionSequence, n: int, splitting: bool = False) -> tuple[Optional[bool], ...]:
    """The outcome of ``x`` on all 2^n input vectors, by one forward sweep.

    Entry idx (first input most significant) is the final ``out`` where the
    run on that vector terminates and None where it deadlocks or diverges,
    under ``run``, or under ``run_splitting`` when ``splitting`` is set.

    Bit-slicing: a lane is an input vector (times a valuation of the split
    parameters for forking code), a register or ``at[p]`` (the lanes that
    reach position p) is an int with one bit per lane.  Control only moves
    forward, so one sweep over positions 1..k finishes every lane, and an
    operation at p changes only the bits of lanes at p.  Forking code is
    exact lane by lane because its vocabulary leaves inputs read-only and
    ``out`` raise-only, so branch order cannot matter: a vector terminates
    when all its lanes do, with ``out`` the OR over them.  Raises
    ``ValueError`` above ``MAX_TABLE_ARITY`` lane bits.
    """
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    profile = classify(x)
    if splitting and not profile.is_sisbr:
        raise ValueError("run_splitting requires input reads, out.set:T, split, and reply only")
    if not splitting and profile.max_param_index:
        raise ValueError("sequence contains split/reply instructions; use run_splitting")
    split_params = profile.split_params
    dims = len(split_params)
    if n + dims > MAX_TABLE_ARITY:
        raise ValueError(
            f"resource bound exceeded: {n} inputs and {dims} split parameters "
            f"need 2^{n + dims} lanes, more than 2^{MAX_TABLE_ARITY}"
        )
    # Lane index: input vector index above, split parameter valuation below.
    lanes = 1 << (n + dims)
    full = (1 << lanes) - 1

    def input_lanes(slot: int) -> int:
        return lane_mask(n - slot + dims, lanes)

    term, out, _, _ = lane_sweep(decode(x), n, lanes, split_params, input_lanes)
    # Folding leaves at the first lane of each vector's block the OR over the block.
    dead = full ^ term
    for d in range(dims):
        dead |= dead >> (1 << d)
        out |= out >> (1 << d)
    step = 1 << dims
    cells = map(add, _lane_bits(dead, lanes, step), _lane_bits(out, lanes, step))
    return tuple(map(_ENTRY.__getitem__, cells))


def check_computes(x: InstructionSequence, table) -> bool:
    """Does ``x`` compute exactly the Boolean function tabulated by ``table``?

    True iff for every input vector the run terminates with the output
    register equal to the table entry.  Auxiliary registers are provisioned
    for every index occurring in ``x``; unused registers cannot affect the
    result.
    """
    if not classify(x).is_isbr:
        raise ValueError("check_computes requires a register-only sequence over in/aux/out")
    if any(v is None for v in table.values):
        raise ValueError("target table has undefined entries; not a total function")
    return lane_values(x, table.arity) == tuple(table.values)


def parse_input_bits(text: str) -> tuple[bool, ...]:
    """Parse an input vector written over {T,F} or {1,0}, most significant first."""
    bits = []
    for ch in text.strip():
        if ch in "T1":
            bits.append(True)
        elif ch in "F0":
            bits.append(False)
        else:
            raise ValueError(f"invalid input bit {ch!r} (expected T/F/1/0)")
    return tuple(bits)


def render_input_bits(bits: tuple[bool, ...] | list[bool]) -> str:
    return "".join("T" if b else "F" for b in bits)
