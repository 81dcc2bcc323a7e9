"""Forking execution: cyclic interleaving with thread splitting.

A sequence may contain ``split:p`` and ``reply:p`` instructions.  A split
forks the current branch into two, one per instantiation of the Boolean
parameter p; a reply returns p's instantiated value.  The intended
behaviour of such a sequence is the cyclic interleaving of the singleton
thread vector holding its extracted thread: at each stage the front thread
acts and rotates to the back, a split enqueues both instantiated branches,
and a deadlocked branch poisons the final result only after all other
branches have finished.

``run_splitting`` is an equivalent executor over a shared register file.
It sweeps the ``actions`` view once with a lane per branch;
``queue_runner``, a queue of branches that walks the row templates by
offsets, is its reference.  The equivalence of both with
the algebraic route is asserted by the test suite, not assumed.
"""

from __future__ import annotations

from array import array
from collections import deque

from .instr import (
    GET,
    KIND_IN,
    KIND_JUMP,
    KIND_OUT,
    KIND_REPLY,
    KIND_SPLIT,
    KIND_TERM,
    SET_TRUE,
    InstructionSequence,
    ReplyOp,
    ResourceBoundError,
    SplitOp,
    classify,
)
from .services import (
    Deadlocked,
    Divergent,
    RegisterFile,
    RunOutcome,
    Terminated,
    lane_sweep,
    lane_values,
)
from .threads import DEAD, STOP, Dead, PostCond, Stop, Tau, Thread

ThreadVector = tuple[Thread, ...]

# Byte b to a one-lane input mask: 0 to no lane, any other byte to -1 (0xff
# as a signed byte), every lane at any width.
_LANE_BYTES = b"\x00" + b"\xff" * 255


def instantiate(param: int, value: bool, t: Thread) -> Thread:
    """Instantiate Boolean parameter ``param`` to ``value`` in ``t``.

    A split on the same parameter becomes deadlock (re-splitting an
    instantiated parameter is an error state); a reply on it becomes an
    internal step into the selected branch; everything else is traversed
    homomorphically.
    """
    if isinstance(t, (Stop, Dead)):
        return t
    if isinstance(t, Tau):
        return Tau(instantiate(param, value, t.next))
    a = t.action
    if isinstance(a, SplitOp) and a.param == param:
        return DEAD
    if isinstance(a, ReplyOp) and a.param == param:
        chosen = t.on_true if value else t.on_false
        return Tau(instantiate(param, value, chosen))
    return PostCond(a, instantiate(param, value, t.on_true), instantiate(param, value, t.on_false))


def _deadlock_at_termination(t: Thread) -> Thread:
    """Turn every successful termination in ``t`` into deadlock."""
    if isinstance(t, Stop):
        return DEAD
    if isinstance(t, Dead):
        return t
    if isinstance(t, Tau):
        return Tau(_deadlock_at_termination(t.next))
    return PostCond(
        t.action,
        _deadlock_at_termination(t.on_true),
        _deadlock_at_termination(t.on_false),
    )


def csi(vector: ThreadVector) -> Thread:
    """Cyclic interleaving of a thread vector, with thread splitting.

    The front thread acts and its continuation goes to the back.  An empty
    vector terminates; a finished front thread is dropped; a deadlocked
    front thread (including a reply on an uninstantiated parameter) wraps
    the rest in deadlock-at-termination; a split enqueues the two
    instantiated branches, true instance first, behind an internal step.
    """
    if not vector:
        return STOP
    head, rest = vector[0], vector[1:]
    if isinstance(head, Stop):
        return csi(rest)
    if isinstance(head, Dead):
        return _deadlock_at_termination(csi(rest))
    if isinstance(head, Tau):
        return Tau(csi(rest + (head.next,)))
    a = head.action
    if isinstance(a, SplitOp):
        true_branch = instantiate(a.param, True, head.on_true)
        false_branch = instantiate(a.param, False, head.on_false)
        return Tau(csi(rest + (true_branch, false_branch)))
    if isinstance(a, ReplyOp):
        return _deadlock_at_termination(csi(rest))
    return PostCond(a, csi(rest + (head.on_true,)), csi(rest + (head.on_false,)))


def run_splitting(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> RunOutcome:
    """Execute a fork/reply sequence by round-robin over branch states.

    Each turn the front branch silently resolves jumps, terminations, and
    branch deaths (invalid jump, running off the end, a split on an already
    instantiated parameter, a reply on an uninstantiated one), then performs
    at most one action - a register transaction, a split enqueueing the two
    instantiated children (true first), or an internal reply step - and
    rotates to the back.  A dying branch raises a global dead flag but the
    others continue.  The result is divergent if any action touched an input
    register beyond the given arity, else deadlocked if the flag is set,
    else the final registers.
    """
    outcome, _ = run_splitting_with_steps(x, inputs)
    return outcome


def run_splitting_with_steps(
    x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]
) -> tuple[RunOutcome, int]:
    """Like ``run_splitting`` but also reports the number of action turns.

    Raises ``ValueError`` unless ``x`` uses input reads, ``out.set:T``,
    split and reply only.  A run is one ``lane_sweep`` that starts with one
    lane and gives each branch a lane of its own.  Inputs are read-only and
    ``out`` only goes from F to T, so neither the outcome nor the number of
    turns depends on the branch order.  Where that fails, a run that reads
    an unserved input and stops at the first such read in queue order, the
    queue executor ``queue_runner`` runs it.
    """
    if not classify(x).is_sisbr:
        raise ValueError("run_splitting requires input reads, out.set:T, split, and reply only")
    inputs = tuple(inputs)
    # One lane: in:slot holds True on every lane (-1) or on none (0), at any
    # width.  The list is built in C, through signed bytes; the sweep indexes
    # a list faster than it does an array.
    lanes = array("b", b"\x00" + bytes(inputs).translate(_LANE_BYTES)).tolist()
    dead, out, unserved, steps = lane_sweep(x, 1, lanes)
    if unserved:
        return queue_runner(x, inputs)
    if dead:
        return Deadlocked(), steps
    return Terminated(RegisterFile(inputs, {}, out != 0)), steps


def queue_runner(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> tuple[RunOutcome, int]:
    """The reference forking executor: a queue of branches, one action a turn.

    A branch is its program counter and its parameter valuation; the pc
    moves by the row templates' offsets.  Same results as
    ``run_splitting_with_steps``, which the tests check against it.
    """
    if not classify(x).is_sisbr:
        raise ValueError("run_splitting requires input reads, out.set:T, split, and reply only")
    moves = x._moves  # the walk adds offsets, as in ``run_with_steps``
    k = len(moves)
    budget = 2 ** sum(1 for move in moves if move[0] == KIND_SPLIT) * k + k
    inputs = tuple(inputs)
    n = len(inputs)
    # Banks indexed by register kind, then by slot (inputs from 1, out at 0);
    # the vocabulary has no auxiliary registers.
    banks = [[False, *inputs], None, [False]]
    dead_flag = False
    queue: deque[tuple[int, dict[int, bool]]] = deque([(1, {})])
    steps = 0
    while queue:
        pc, valuation = queue.popleft()
        # Silent resolution: no action happens, so no scheduling turn is spent.
        # A branch deadlocks where its pc leaves 1..k, and at ``#0``, whose
        # move of 0 is taken as a move out of the sequence.
        while 0 < pc <= k and moves[pc - 1][0] == KIND_JUMP:
            pc += moves[pc - 1][3] or k
        if not 0 < pc <= k:
            dead_flag = True
            continue
        kind, slot, method, d_true, d_false = moves[pc - 1]
        if kind == KIND_TERM:
            continue
        if kind == KIND_SPLIT and slot in valuation or kind == KIND_REPLY and slot not in valuation:
            dead_flag = True
            continue

        steps += 1
        if steps > budget:
            raise ResourceBoundError("splitting executor exceeded its step budget")

        if kind == KIND_SPLIT:
            queue.append((pc + d_true, {**valuation, slot: True}))
            queue.append((pc + d_false, {**valuation, slot: False}))
            continue
        if kind == KIND_REPLY:  # an internal step on an instantiated parameter
            reply = valuation[slot]
        else:
            if kind == KIND_IN and slot > n:
                return Divergent(f"unserved focus in:{slot}"), steps
            bank = banks[kind]
            reply = bank[slot] if method == GET else method == SET_TRUE
            bank[slot] = reply
        queue.append((pc + (d_true if reply else d_false), valuation))

    if dead_flag:
        return Deadlocked(), steps
    return Terminated(RegisterFile(tuple(banks[KIND_IN][1:]), {}, banks[KIND_OUT][0])), steps


def check_splitting_computes(x: InstructionSequence, table) -> bool:
    """Does ``x``, under forking execution, compute the tabulated function?"""
    if not classify(x).is_sisbr:
        raise ValueError("check_splitting_computes requires a split/reply vocabulary sequence")
    if table.dead:
        raise ValueError("target table has undefined entries; not a total function")
    return lane_values(x, table.arity, splitting=True) == (table.out, 0)
