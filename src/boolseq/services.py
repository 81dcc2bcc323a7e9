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
over its actions (``instr.actions``: its control flow with the jumps
passed through) with one bit per vector, or per branch of a vector for
forking code; it is checked against ``run`` and ``queue_runner``, which
both add up the instructions' offsets one step at a time.  That sweep,
``lane_sweep``, also runs forking code one vector at a time.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress, count
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
    ResourceBoundError,
    _set,
    _Value,
    actions,
    classify,
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


class BoolRegister(_Value):
    """A Boolean register service with the given contents."""

    __slots__ = __match_args__ = ("state",)

    def __init__(self, state: RegState):
        _set(self, "state", state)


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


class RegisterFile(_Value):
    """Register contents: input values, auxiliary registers, output."""

    __slots__ = __match_args__ = ("inputs", "aux", "out")

    def __init__(self, inputs: tuple[bool, ...], aux: dict[int, bool] | None = None, out: bool = False):
        _set(self, "inputs", inputs)
        _set(self, "aux", {} if aux is None else aux)
        _set(self, "out", out)


class Terminated(_Value):
    __slots__ = __match_args__ = ("registers",)

    def __init__(self, registers: RegisterFile):
        _set(self, "registers", registers)


class Deadlocked(_Value):
    __slots__ = ()


class Divergent(_Value):
    __slots__ = __match_args__ = ("reason",)

    def __init__(self, reason: str):
        _set(self, "reason", reason)


RunOutcome = Union[Terminated, Deadlocked, Divergent]


# The bound on auxiliary register indices a register run provides: a run
# holds every register up to the largest index, and reports all of them.
MAX_AUX_INDEX = 1 << 16


def run(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> RunOutcome:
    """Execute a register-only sequence (no split/reply) on the given inputs.

    Input registers hold the inputs, auxiliary registers and the output
    start False.  Falling past the end, a zero jump, or a jump beyond the
    end deadlocks; reading or writing an input register beyond the provided
    arity diverges; the termination instruction terminates with the final
    registers.
    """
    outcome, _ = run_with_steps(x, inputs)
    return outcome


def run_with_steps(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> tuple[RunOutcome, int]:
    """Like ``run`` but also reports the executed instruction count.

    Raises ``ValueError`` if ``x`` holds split/reply instructions, and
    ``ResourceBoundError`` if it names an auxiliary register past
    ``MAX_AUX_INDEX``.
    """
    profile = classify(x)
    if profile.max_param_index:
        raise ValueError("sequence contains split/reply instructions; use run_splitting")
    max_aux = profile.max_aux_index
    if max_aux > MAX_AUX_INDEX:
        raise ResourceBoundError(
            f"resource bound exceeded: aux:{max_aux} is past the {MAX_AUX_INDEX} auxiliary registers of a run"
        )
    moves = x._moves  # the walk adds offsets, so pc counts positions from 0
    k = len(moves)
    # Banks indexed by register kind, then by slot (inputs from 1, out at 0).
    # The input bank ends at in:n and the aux bank at the largest index x
    # names, so the loop tests neither bound: reading ``moves`` past the end
    # or reading or writing an input past n raises ``IndexError``, and pc
    # tells the two apart.
    banks = [[False, *inputs], [False] * (max_aux + 1), [False]]
    pc = 0
    try:
        for steps in count(1):
            kind, slot, method, d_true, d_false = moves[pc]
            # Most steps are jumps, then reads; a register's new contents is
            # also its reply, so a read leaves its register as it is.
            if kind == KIND_JUMP:
                pc += d_true or k  # ``#0`` deadlocks: it moves control out of the sequence
            elif method == GET:
                pc += d_true if banks[kind][slot] else d_false
            elif kind == KIND_TERM:
                ins, aux, out = banks
                return Terminated(RegisterFile(tuple(ins[1:]), dict(enumerate(aux[1:], 1)), out[0])), steps
            elif method == SET_TRUE:
                banks[kind][slot] = True
                pc += d_true
            else:
                banks[kind][slot] = False
                pc += d_false
    except IndexError:
        if pc >= k:  # the move of ``#0``, a jump past the end, or falling off the end
            return Deadlocked(), steps - 1
        return Divergent(f"unserved focus in:{slot}"), steps


# --- lane-parallel execution -------------------------------------------------

# The bound on a sweep's lane index space: a table's 2^n input vectors, and
# the twin lanes that splits add.  At the bound a mask is 2 MB and a table's
# tuple of 2^24 entries 128 MB.
MAX_TABLE_ARITY = 24

# A table entry from a vector's dead bit, with its out value as the default.
_DEAD = {"1": None}


def _repeat(pattern: int, period: int, lanes: int) -> int:
    """The first ``period`` lanes of ``pattern`` repeated over at least ``lanes`` lanes, by doubling."""
    while period < lanes:
        pattern |= pattern << period
        period *= 2
    return pattern


def _fold(mask: int, block: int) -> int:
    """Lane i < block of the result is the OR of ``mask`` over the lanes i mod block."""
    width = block
    while width < mask.bit_length():
        width *= 2
    while width > block:  # the upper half onto the lower one
        width //= 2
        mask |= mask >> width
    return mask & ((1 << block) - 1)


def lane_mask(bit: int, lanes: int) -> int:
    """The lanes, out of ``lanes``, whose index has ``bit`` set."""
    half = 1 << bit
    return _repeat(((1 << half) - 1) << half, 2 * half, lanes)


def lane_sweep(
    x: InstructionSequence, block: int, input_lanes: Callable[[int], dict[int, int]]
) -> tuple[int, int, int, int]:
    """One forward sweep of ``x``'s actions, one lane per branch of one vector.

    The sweep starts with ``block`` lanes, and lane i runs input vector
    ``i mod block``: ``input_lanes(lanes)`` maps each input slot up to n
    that ``x`` reads to the lanes, out of at least the first ``lanes``,
    where ``in:slot`` holds True.  It is called at the start and where a
    split widens the lanes.
    Returns ``(dead, out, unserved, steps)``: the lanes that do not
    terminate, the lanes where ``out`` ends True, the lanes that read an
    input past n, and the number of forking-run action turns.

    A split on p forks each lane that reaches it with p uninstantiated: the
    lane goes on with p True, its twin ``shift`` lanes up with p False.
    ``shift``, a multiple of ``block`` so that a twin runs its original's
    vector, puts the twins past every lane of their vectors.  Twins copy
    the bits of the live parameters, those split or replied on further on;
    no register is copied, as inputs are periodic in ``block`` and ``out``
    is never read.  Each lane is one branch, so an action adds the number
    of lanes that take it.  Raises ``ValueError`` where a split would take
    the lane index space past 2^MAX_TABLE_ARITY.

    The sweep reads ``actions(x)``, so a lane spends no visit on a jump;
    a split maps back to its position in ``x`` through ``where``.  Lanes
    that all get the same reply, as every input read gives when
    ``block == 1``, are chased through the register reads after it that
    also reply the same to all of them, and are handed to the first action
    that is not one.  That is exact: lanes are independent and targets only
    go forward, so every action the chase does not pass still sees the same
    lanes, before the sweep gets to it.
    """
    rows, where, entry = actions(x)
    lanes = (1 << block) - 1  # every lane allocated so far
    if not entry:  # control deadlocks before the first action
        return lanes, 0, 0, 0
    last_use = classify(x).last_param_use
    at = [0] * (len(rows) + 1)  # at[j]: the lanes at action j; at[0] collects those that deadlock
    at[entry] = lanes
    width = block  # every lane so far is below width
    # By register kind, then slot: the lanes where the register holds True.
    regs = [input_lanes(width), {}, {}]
    inst: dict[int, int] = {}  # live parameter -> the lanes where it is instantiated
    val: dict[int, int] = {}  # live parameter -> the lanes where it is True
    term = unserved = steps = 0
    # compress reads at[j] when the sweep gets to action j, after every lane
    # that moves there, and skips the empty slots; at[0] is still empty when
    # read.
    for j in compress(count(), at):
        m = at[j]
        at[j] = 0
        kind, slot, method, on_true, on_false = rows[j - 1]
        if kind == KIND_TERM:
            term |= m
            continue
        if kind == KIND_SPLIT:
            m &= ~inst.get(slot, 0)  # a re-split deadlocks
            if not m:
                continue
            pos = where[j]
            steps += m.bit_count()
            # kin: the lanes of m's vectors.  Other vectors' lanes differ mod
            # block, so twins placed past kin land on free lanes.
            kin = lanes if block == 1 else lanes & _repeat(_fold(m, block), block, width)
            shift = (kin.bit_length() - (m & -m).bit_length()) // block * block + block
            top = m.bit_length() + shift
            if top > width:
                width = top + -top % block
                if width > 1 << MAX_TABLE_ARITY:
                    raise ResourceBoundError(
                        f"resource bound exceeded: the split at position {pos} needs "
                        f"{width} lanes, more than 2^{MAX_TABLE_ARITY}"
                    )
                regs[KIND_IN] = input_lanes(width)
            twins = m << shift
            lanes |= twins
            for p, p_inst in list(inst.items()):
                if last_use[p] <= pos:
                    del inst[p], val[p]
                else:
                    inst[p] = p_inst | (p_inst & m) << shift
                    val[p] |= (val[p] & m) << shift
            inst[slot] = inst.get(slot, 0) | m | twins
            val[slot] = val.get(slot, 0) | m
            at[on_true] |= m
            at[on_false] |= twins
            continue
        if kind == KIND_REPLY:
            m &= inst.get(slot, 0)  # a reply on an uninstantiated parameter deadlocks
            if not m:
                continue
            reply = val.get(slot, 0)
        else:
            bank = regs[kind]
            reg = bank.get(slot)
            if reg is None:  # aux and out start False; an input past n is unserved
                if kind == KIND_IN:
                    unserved |= m
                    continue
                reg = 0
            if method == GET:
                reply = reg
            elif method == SET_TRUE:
                bank[slot] = reg | m
                reply = m
            else:
                bank[slot] = reg & ~m
                reply = 0
        size = m.bit_count()
        steps += size
        taken = m & reply
        if taken and taken != m:
            at[on_true] |= taken
            at[on_false] |= m ^ taken
            continue
        # Every lane got the same reply: follow it through the register reads
        # that give every lane the same reply too, and hand the lanes to the
        # first action that is not one.
        j = on_true if taken else on_false
        while j:
            kind, slot, method, on_true, on_false = rows[j - 1]
            if method != GET:
                break
            reg = regs[kind].get(slot)
            if reg is None:
                if kind == KIND_IN:
                    break
                reg = 0
            taken = m & reg
            if taken and taken != m:
                break
            steps += size
            j = on_true if taken else on_false
        at[j] |= m
    # A lane's registers stop changing when it terminates.
    return lanes & ~term, regs[KIND_OUT].get(0, 0), unserved, steps


def lane_values(x: InstructionSequence, n: int, splitting: bool = False) -> tuple[Optional[bool], ...]:
    """The outcome of ``x`` on all 2^n input vectors, by one forward sweep.

    Entry idx (first input most significant) is the final ``out`` where the
    run on that vector terminates and None where it deadlocks or diverges,
    under ``run``, or under ``run_splitting`` when ``splitting`` is set.

    Bit-slicing: a lane is an input vector, or for forking code one branch
    of one; a register or ``at[j]`` (the lanes that reach action j) is an
    int with one bit per lane.  Control only moves forward, so one sweep
    over the actions finishes every lane, and action j changes only the
    bits of lanes at j.  Forking code is exact lane by lane because
    its vocabulary leaves inputs read-only and ``out`` raise-only, so branch
    order cannot matter: a vector terminates when all its branches do, with
    ``out`` the OR over them.  Raises ``ValueError`` where the lanes would
    exceed 2^MAX_TABLE_ARITY.
    """
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    profile = classify(x)
    if splitting and not profile.is_sisbr:
        raise ValueError("run_splitting requires input reads, out.set:T, split, and reply only")
    if not splitting and profile.max_param_index:
        raise ValueError("sequence contains split/reply instructions; use run_splitting")
    if n > MAX_TABLE_ARITY:
        raise ResourceBoundError(f"resource bound exceeded: {n} inputs need 2^{n} lanes, more than 2^{MAX_TABLE_ARITY}")
    # Lane i runs vector i mod 2^n; folding ORs each vector's branches together.
    block = 1 << n
    # Each input that x reads over one block of lanes: slots past the largest
    # one read are never looked up, and a slot past n stays unserved.
    in_block = [lane_mask(n - slot, block) for slot in range(1, min(n, profile.max_input_index) + 1)]
    dead, out, _, _ = lane_sweep(
        x, block, lambda lanes: {slot: _repeat(mask, block, lanes) for slot, mask in enumerate(in_block, 1)}
    )
    # Each vector's out bit, lowest vector first, or None where it is dead.
    values = map("1".__eq__, format(_fold(out, block), f"0{block}b")[::-1])
    if dead:
        values = map(_DEAD.get, format(_fold(dead, block), f"0{block}b")[::-1], values)
    return tuple(values)


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
