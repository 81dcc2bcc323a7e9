"""Boolean register services and execution of register-only sequences.

A Boolean register holds T, F, or the absorbing error state B.  Its effect
and yield coincide: after processing a method the new contents is also the
reply.  Threads interact with a named service through two complementary
operators: ``use`` feeds the thread's actions on one focus to the service
and returns the residual thread, ``apply`` returns the residual service.

``run`` is a program-counter executor over a full register file.  It is
deliberately independent of the thread-algebra route (extract, use chain,
apply); the test suite checks the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

from .instr import (
    GET,
    KIND_IN,
    KIND_JUMP,
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
    execute = runner(x)
    for idx, expected in enumerate(table.values):
        outcome, _ = execute(table.vector(idx))
        if not isinstance(outcome, Terminated) or outcome.registers.out != expected:
            return False
    return True


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
