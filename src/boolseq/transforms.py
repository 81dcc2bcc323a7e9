"""Function-preserving rewrites of register-only instruction sequences.

* ``eliminate_output_false``: reroute the output register through a fresh
  auxiliary register so that ``out.set:F`` never occurs.
* ``normalize_set_tests``: remove the write forms whose test always skips,
  in favour of a non-skipping write plus an explicit jump.
* ``to_splitting``: rewrite auxiliary-register writes into forks and their
  reads into parameter replies, producing a fork/reply sequence that
  computes the same function under the splitting executor.
* ``collapse_jump_chains``: widen jumps that land on other jumps to their
  final targets (behaviour-tree-preserving).
* ``behavioural_normalize``: drop tests whose outcome is forced by write
  replies and skips over writes that are about to be redone.

Each rewrite has a ``*_report`` variant returning the rule trace.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count, islice, repeat
from operator import is_
from typing import Iterator

from .instr import (
    GET,
    KIND_AUX,
    KIND_JUMP,
    KIND_OUT,
    KIND_TERM,
    SET_FALSE,
    SET_TRUE,
    AuxReg,
    InstructionSequence,
    Jump,
    NegTest,
    OUT,
    Plain,
    PosTest,
    PrimitiveInstruction,
    RegisterOp,
    ReplyOp,
    Row,
    SplitOp,
    TERM,
    _set,
    _Value,
    classify,
)


class RewriteReport(_Value):
    __slots__ = __match_args__ = ("input", "output", "steps", "rule_trace")

    def __init__(
        self, input: InstructionSequence, output: InstructionSequence, steps: int, rule_trace: tuple[tuple[str, int], ...]
    ):
        _set(self, "input", input)
        _set(self, "output", output)
        _set(self, "steps", steps)
        _set(self, "rule_trace", rule_trace)


def _report(x: InstructionSequence, items: list, trace: list) -> RewriteReport:
    return RewriteReport(x, InstructionSequence(tuple(items)), len(trace), tuple(trace))


def _reach(move: Row) -> int:
    """The farthest offset control can move by from the row template ``move``; 0 for ``!``.

    A write replies the value it writes, so only that reply's offset counts:
    ``+set:T`` and ``-set:F`` always fall through, ``-set:T`` and ``+set:F``
    always skip.  The rewrites read the templates of ``x._moves``, not the
    rows of ``decode``: none of them follows a target.
    """
    _, _, method, d_true, d_false = move
    return d_true if method == SET_TRUE else d_false if method == SET_FALSE else max(d_true, d_false)


# The rewrites find their candidate positions with these scans, which take
# no Python step per item: instructions are interned, so a set of the
# distinct ones names every position that holds one of them.


def _positions(items, forms: set) -> Iterator[int]:
    """The positions of the items in ``forms``, in order."""
    return compress(count(1), map(forms.__contains__, items))


def _jumps(items) -> list[int]:
    """The positions of the jumps in ``items``, in order."""
    return list(compress(count(1), map(is_, map(type, items), repeat(Jump))))


def _skipping_aux_writes(x: InstructionSequence) -> list[int]:
    """The positions of ``-aux:j.set:T`` and ``+aux:j.set:F``, in order: the reply is forced and always skips."""
    forms = {u for u in set(x.items) if u._row[0] == KIND_AUX and u._row[2] != GET and _reach(u._row) == 2}
    return list(_positions(x.items, forms))


def _splice(items: list, blocks: dict[int, tuple[str, list]], trace: list) -> list:
    """Replace each ``items[q - 1]`` by the block of ``blocks[q] = (rule, block)``.

    One pass, with the result of replacing leftmost first, where each
    replacement lengthens every jump other than ``#0`` that strictly crosses
    it, a jump inside an earlier block included.  So every jump keeps its
    target, and a jump to a replaced position lands on its block's first
    instruction.  The trace is that loop's too: per replaced q, a
    ``("widen-jump", i)`` for each crossing jump in position order, then
    ``(rule, new position of q)``.  Replacements to the left are done by
    then, so every traced position is final.

    The stretches between blocks are copied as slices; only the blocks and
    the jumps before the last block are visited.  The first block after a
    jump in the stretch before block q is q, so the jump crosses a block iff
    it crosses q; a jump after the last block crosses none.
    """
    starts = sorted(blocks)
    grown = [0]  # grown[i]: the positions added by the blocks before starts[i]
    for q in starts:
        grown.append(grown[-1] + len(blocks[q][1]) - 1)
    jumps = _jumps(items)
    out: list = []
    crossing: list[tuple[int, int]] = []  # (new position, old target) of each jump crossing a block
    active: list[tuple[int, int]] = []  # those that may cross the next block, in position order
    copied = seen = 0  # items[:copied] are in out; jumps[:seen] are visited
    for i, q in enumerate(starts):
        stop = bisect_left(jumps, q, seen)
        for p in jumps[seen:stop]:
            target = p + items[p - 1].distance  # ``#0`` has target p and crosses nothing
            if target > q:
                crossing.append((p + grown[i], target))
                active.append(crossing[-1])
        seen = bisect_right(jumps, q, stop)  # a jump at q is replaced
        out += items[copied : q - 1]
        copied = q
        rule, block = blocks[q]
        active = [jump for jump in active if jump[1] > q]
        trace.extend(("widen-jump", pos) for pos, _target in active)
        trace.append((rule, len(out) + 1))
        following = starts[i + 1] if i + 1 < len(starts) else q  # q: no block follows
        for offset, v in enumerate(block):
            # A jump out of the block goes to an old position after q.
            if type(v) is Jump and v.distance and offset + v.distance >= len(block):
                target = q + 1 + offset + v.distance - len(block)
                if q < following < target:
                    crossing.append((len(out) + offset + 1, target))
                    active.append(crossing[-1])
        out += block
    out += items[copied:]
    for pos, target in crossing:
        out[pos - 1] = Jump(target + grown[bisect_left(starts, target)] - pos)
    return out


# --- output-false elimination -------------------------------------------------


def eliminate_output_false_report(x: InstructionSequence) -> RewriteReport:
    """Rewrite ``x`` so no form of ``out.set:F`` occurs, preserving its function.

    The output focus is renamed to a fresh auxiliary register; then each
    termination instruction after the first position is replaced by
    ``+aux:o.get ; out.set:T ; !``, lengthening jumps that cross the
    insertion.  If the sequence starts with ``!`` it terminates immediately
    on every input, so the renamed sequence is already correct.

    A test directly before a termination instruction can skip into the
    middle of the inserted block (a two-position skip cannot be
    lengthened), so such inputs are rejected rather than miscompiled.
    """
    if not classify(x).is_isbr:
        raise ValueError("eliminate_output_false requires a register-only sequence")
    fresh = classify(x).max_aux_index + 1
    readback = [PosTest(RegisterOp(AuxReg(fresh), GET)), Plain(RegisterOp(OUT, SET_TRUE)), TERM]
    moves = x._moves
    renamed = {
        u: type(u)(RegisterOp(AuxReg(fresh), u._row[2])) for u in set(x.items) if u._row[0] == KIND_OUT
    }
    trace = [("rename-out", pos) for pos in _positions(x.items, renamed)]
    items = list(map(renamed.get, x.items, x.items))
    blocks = {}
    if moves[0][0] != KIND_TERM:
        for pos in _positions(x.items, {TERM}):  # so pos > 1
            before = moves[pos - 2]
            if before[0] != KIND_JUMP and _reach(before) == 2:
                raise ValueError(
                    f"eliminate_output_false precondition violated: the test at position "
                    f"{pos - 1} can bypass the termination instruction at position {pos}"
                )
            blocks[pos] = ("insert-readback", readback)
    return _report(x, _splice(items, blocks, trace), trace)


def eliminate_output_false(x: InstructionSequence) -> InstructionSequence:
    return eliminate_output_false_report(x).output


# --- skipping-write normalization ----------------------------------------------


def normalize_set_tests_report(x: InstructionSequence) -> RewriteReport:
    """Remove ``-aux:j.set:T`` and ``+aux:j.set:F``, which always skip.

    Each is replaced by the non-skipping write of the same value followed by
    ``#2``, with jumps crossing the insertion lengthened by one.

    A read test directly before a replaced write would skip into the
    inserted jump instead of over the write, so such inputs are rejected
    (another skipping write there is fine: it is itself replaced first).
    """
    if not classify(x).is_isbr:
        raise ValueError("normalize_set_tests requires a register-only sequence")
    items = list(x.items)
    moves = x._moves
    blocks = {}
    last = 0  # the skipping write before pos, if any
    for pos in _skipping_aux_writes(x):
        if pos > 1 and pos - 1 != last:
            before = moves[pos - 2]
            if before[0] != KIND_JUMP and _reach(before) == 2:
                raise ValueError(
                    f"normalize_set_tests precondition violated: the test at position "
                    f"{pos - 1} can bypass the write at position {pos}"
                )
        last = pos
        basic = items[pos - 1].basic
        if moves[pos - 1][2] == SET_TRUE:
            blocks[pos] = ("unskip-set-true", [PosTest(basic), Jump(2)])
        else:
            blocks[pos] = ("unskip-set-false", [NegTest(basic), Jump(2)])
    trace: list[tuple[str, int]] = []
    return _report(x, _splice(items, blocks, trace), trace)


def normalize_set_tests(x: InstructionSequence) -> InstructionSequence:
    return normalize_set_tests_report(x).output


# --- splitting rewrite -----------------------------------------------------------


def check_write_linear(x: InstructionSequence) -> int | None:
    """Position of the first auxiliary write some control transfer can bypass.

    Returns None when every jump and every possible test skip passes over no
    auxiliary write, which is the domain on which the fork rewrite below is
    function-preserving.
    """
    moves = x._moves
    writes = [pos for pos, (kind, _, method, _, _) in enumerate(moves, start=1) if kind == KIND_AUX and method != GET]
    for pos, move in enumerate(moves, start=1):
        first = bisect_right(writes, pos)
        if first < len(writes) and writes[first] < pos + _reach(move):
            return writes[first]
    return None


def to_splitting_report(x: InstructionSequence) -> RewriteReport:
    """Rewrite auxiliary-register traffic into forks and replies.

    Processing writes right to left: a write of value b to ``aux:j`` becomes
    a fork on a fresh parameter whose b-instance continues in sequence and
    whose other instance terminates at an inserted ``!``; reads of ``aux:j``
    after the write become replies on that parameter.  Reads with no earlier
    write always see False and become the equivalent jump.

    Requires that no jump or possible test skip crosses an auxiliary write
    (see ``check_write_linear``): on a bypassing path the fork would not
    have executed, so a later reply would not mean the register's prior
    value, and the rewrite would change the computed function.
    """
    profile = classify(x)
    if not profile.is_isbr:
        raise ValueError("to_splitting requires a register-only sequence")
    if profile.has_out_set_false:
        raise ValueError("to_splitting requires out.set:F to be eliminated first")
    skipping = _skipping_aux_writes(x)
    if skipping:
        raise ValueError(
            f"to_splitting requires normalize_set_tests output; "
            f"skipping write form at position {skipping[0]}"
        )
    bypassed = check_write_linear(x)
    if bypassed is not None:
        raise ValueError(
            f"to_splitting precondition violated: a control transfer can bypass "
            f"the auxiliary write at position {bypassed}"
        )

    # Right to left, each write takes the next fresh parameter and the reads
    # of its register up to that register's next write.  A fork adds one
    # position, so a read is traced where it stands once its own fork and
    # those to its right are in: a read with ``seen`` writes to its right
    # moves by the ``fresh - seen`` writes from its own write on.  No jump
    # crosses a write, so none changes.
    items = list(x.items)
    moves = x._moves
    trace: list[tuple[str, int]] = []
    forks: dict[int, list[PrimitiveInstruction]] = {}
    replies: dict[int, int] = {}
    unbound: dict[int, list[tuple[int, int]]] = {}  # register -> its reads not yet bound, right to left
    for pos in range(len(items), 0, -1):
        kind, slot, method, _, _ = moves[pos - 1]
        if kind == KIND_AUX and method == GET:
            unbound.setdefault(slot, []).append((pos, len(forks)))
        elif kind == KIND_AUX:
            fresh = len(forks) + 1
            if method == SET_TRUE:
                forks[pos] = [NegTest(SplitOp(fresh)), TERM]
                trace.append(("fork-set-true", pos))
            else:
                forks[pos] = [PosTest(SplitOp(fresh)), TERM]
                trace.append(("fork-set-false", pos))
            for read, seen in reversed(unbound.pop(slot, [])):
                replies[read] = fresh
                trace.append(("rebind-read", read + fresh - seen))

    # The reads still unbound have no write of their register to the left:
    # they always see False and become the jump of a False reply.
    constant_false = sorted(read for reads in unbound.values() for read, _ in reads)
    for read in constant_false:
        items[read - 1] = Jump(moves[read - 1][4])
    trace[:0] = [("constant-false-read", read) for read in constant_false]

    out: list[PrimitiveInstruction] = []
    for pos, u in enumerate(items, start=1):
        if pos in forks:
            out.extend(forks[pos])
        else:
            out.append(type(u)(ReplyOp(replies[pos])) if pos in replies else u)
    return _report(x, out, trace)


def to_splitting(x: InstructionSequence) -> InstructionSequence:
    return to_splitting_report(x).output


# --- jump-chain collapse ----------------------------------------------------------


def collapse_jump_chains_report(x: InstructionSequence) -> RewriteReport:
    """Widen every jump landing on another jump to the chain's final target.

    Processed back to front, so a jump's target jump is already collapsed
    and lands on no jump: one rewrite per jump suffices.  A chain reaching
    ``#0`` collapses to ``#0``.  The extracted behaviour tree is unchanged.
    """
    items = list(x.items)
    k = len(items)
    trace: list[tuple[str, int]] = []
    for i in reversed(_jumps(items)):
        u = items[i - 1]
        if not (u.distance >= 1 and i + u.distance <= k):
            continue
        target = items[i + u.distance - 1]
        if type(target) is not Jump:
            continue
        if target.distance == 0:
            items[i - 1] = Jump(0)
            trace.append(("redirect-to-dead", i))
        else:
            items[i - 1] = Jump(u.distance + target.distance)
            trace.append(("collapse-chain", i))
    return _report(x, items, trace)


def collapse_jump_chains(x: InstructionSequence) -> InstructionSequence:
    return collapse_jump_chains_report(x).output


# --- behavioural normalization ------------------------------------------------------


def behavioural_normalize_report(x: InstructionSequence) -> RewriteReport:
    """Leftmost-first normalization under reply-aware identities.

    A positive test of ``set:T`` (or negative of ``set:F``) never skips and
    becomes the plain write.  A write whose skipped-over successor rewrites
    the register identically may skip nothing: the leading write becomes
    ``#1``, both directly and through the symmetric two-jump window ending
    in the same plain write.  Positions are preserved, so no jump needs
    adjusting.

    One forward scan, in the order of a rescan from position 1 after every
    rewrite.  A rule at j reads positions j and after, and a rewrite at i
    only turns the test at i into a plain write or ``#1``, so it disables
    no rule elsewhere.  ``#1`` enables none; only ``drop-forced-test`` makes
    a plain write, and a new plain write at i can enable a rule only at a
    window ending at i or at i - 1.  So after a drop at i the scan checks
    those, in position order, and goes on at i + 1.
    """
    if not classify(x).is_isbr:
        raise ValueError("behavioural_normalize requires a register-only sequence")
    items = list(x.items)
    moves = x._moves
    k = len(items)
    trace: list[tuple[str, int]] = []

    # A rewrite keeps a position's basic instruction or makes it ``#1``, so
    # its move still names that basic, but only its item says whether it is
    # still a test or a plain write.
    def rule_at(i: int) -> str | None:
        u = items[i - 1]
        if not isinstance(u, (PosTest, NegTest)) or moves[i - 1][2] == GET:
            return None
        basic = moves[i - 1][:3]
        if _reach(u._row) == 1:
            return "drop-forced-test"
        # A skipping write: -set:T or +set:F.
        if i < k and isinstance(items[i], Plain) and moves[i][:3] == basic:
            return "skip-redone-write"
        end = window_end.get(i)
        if end and isinstance(items[end - 1], Plain) and moves[end - 1][:3] == basic:
            return "skip-redone-write-window"
        return None

    # The window of j: equal jumps of distance d >= 2 at j + 1 and j + 2,
    # ending at j + d + 1.  Rewrites never touch a jump of distance >= 2, so
    # the windows stay fixed.
    # Jumps are interned, so equal jumps are one object: the candidates are
    # the positions j + 1 that hold the same object as j + 2.
    window_end: dict[int, int] = {}
    window_starts: dict[int, list[int]] = {}
    for j in compress(count(), map(is_, items, islice(items, 1, None))):
        u = items[j]
        if j and type(u) is Jump and u.distance >= 2:
            end = j + u.distance + 1
            if end <= k:
                window_end[j] = end
                window_starts.setdefault(end, []).append(j)

    def rewrite(i: int, rule: str) -> None:
        items[i - 1] = Plain(items[i - 1].basic) if rule == "drop-forced-test" else Jump(1)
        trace.append((rule, i))

    # Rewrites only touch positions up to the one scanned, so the scan
    # reaches each position as x has it, and only the tests of writes there
    # can have a rule.
    write_tests = {u for u in set(x.items) if type(u) in (PosTest, NegTest) and u._row[2] != GET}
    for i in _positions(x.items, write_tests):
        rule = rule_at(i)
        if rule is None:
            continue
        rewrite(i, rule)
        if rule == "drop-forced-test":
            for j in (*window_starts.get(i, ()), i - 1):
                rule = rule_at(j) if j else None
                if rule is not None:
                    rewrite(j, rule)
    return _report(x, items, trace)


def behavioural_normalize(x: InstructionSequence) -> InstructionSequence:
    return behavioural_normalize_report(x).output
