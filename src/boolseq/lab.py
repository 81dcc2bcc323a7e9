"""Brute-force oracles and micro-scale exploration.

Truth tables of instruction sequences under either executor, and an
exhaustive shortest-sequence search under syntactic restrictions.  The
search enumerates sequences in length-lexicographic order but collapses
behaviourally identical suffixes, which keeps desk-scale bounds feasible
while returning exactly the sequence plain enumeration would return first.
Each length is tested against the target before its dedup keys are built,
so the length that holds the answer, and the last length, build none.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, product, repeat
from operator import add, and_, itemgetter, not_
from typing import Callable, Optional

from .instr import (
    GET,
    SET_FALSE,
    SET_TRUE,
    AuxReg,
    BasicInstruction,
    InReg,
    InstructionSequence,
    Jump,
    NegTest,
    OUT,
    Plain,
    PosTest,
    PrimitiveInstruction,
    RegisterOp,
    ReplyOp,
    ResourceBoundError,
    SplitOp,
    TERM,
    Term,
    _set,
    _Value,
    _field_methods,
)
from .services import lane_values

_SEARCH_STATE_CAP = 3_000_000


# A table's entries as the characters of its rendering, and back; those
# characters as the binary digits of the out and the dead mask; and the hex
# digits out + 2 * dead (see ``render``) as those characters.
_CHAR = {True: "T", False: "F", None: "?"}
_ENTRY = {"T": True, "F": False, "?": None}
_OUT_DIGITS = str.maketrans("TF?", "100")
_DEAD_DIGITS = str.maketrans("TF?", "001")
_RENDER = str.maketrans("012", "FT?")


class TruthTable(_Value):
    """2^arity Boolean values indexed by input vector, first input most significant.

    Held as two masks with entry idx at bit idx: ``dead`` has the inputs
    where execution did not terminate (the entry ``None``: the sequence
    computes no total function), ``out`` those where the value is True.
    ``out`` is clear where ``dead`` is set, so ``==`` and the hash go by the
    masks; ``repr``, ``_replace``, copies and pickles go by ``arity`` and
    ``values``, the tuple of entries, which is built on each read.
    """

    __slots__ = ("arity", "out", "dead")
    __match_args__ = ("arity", "values")
    __eq__, __hash__ = _field_methods(__slots__)[1:]

    def __new__(cls, arity: int, values: tuple[Optional[bool], ...]):
        if arity < 0:
            raise ValueError(f"arity must be >= 0, got {arity}")
        if len(values) != 2**arity:
            raise ValueError(f"expected {2**arity} entries, got {len(values)}")
        if not {*map(type, values)} <= {bool, type(None)}:
            raise ValueError("table entries must be True, False or None")
        chars = "".join(map(_CHAR.__getitem__, reversed(values)))  # the highest vector first
        return cls.from_masks(arity, int(chars.translate(_OUT_DIGITS), 2), int(chars.translate(_DEAD_DIGITS), 2))

    @classmethod
    def from_masks(cls, arity: int, out: int, dead: int = 0) -> "TruthTable":
        """The table of these masks, as ``lane_values`` gives them: no per-entry work."""
        table = object.__new__(cls)
        _set(table, "arity", arity)
        _set(table, "out", out)
        _set(table, "dead", dead)
        return table

    @property
    def values(self) -> tuple[Optional[bool], ...]:
        return tuple(map(_ENTRY.__getitem__, self.render()))

    def vector(self, idx: int) -> tuple[bool, ...]:
        n = self.arity
        if not 0 <= idx < 1 << n:
            raise ValueError(f"vector index {idx} out of range for arity {n}")
        return tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))

    def lookup(self, bits) -> Optional[bool]:
        bits = tuple(bits)
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} input bits, got {len(bits)}")
        idx = 0
        for b in bits:
            idx = (idx << 1) | (1 if b else 0)
        return None if self.dead >> idx & 1 else self.out >> idx & 1 == 1

    @property
    def is_total(self) -> bool:
        return self.dead == 0

    def render(self) -> str:
        size = 1 << self.arity
        digits = format(self.out, f"0{size}b")
        if self.dead:  # each binary digit read as a hex one, so a doubled dead digit adds no carry
            digits = format(int(digits, 16) | int(format(self.dead, "b"), 16) << 1, f"0{size}x")
        return digits[::-1].translate(_RENDER)

    @staticmethod
    def tabulate(arity: int, fn: Callable[[tuple[bool, ...]], bool]) -> "TruthTable":
        return TruthTable(arity, tuple(map(fn, product((False, True), repeat=arity))))


def truth_table(x: InstructionSequence, n: int, splitting: bool = False) -> TruthTable:
    """Tabulate the sequence over all 2^n input vectors, by ``lane_values``.

    Non-terminating entries (deadlock or divergence) are dead.
    """
    return TruthTable.from_masks(n, *lane_values(x, n, splitting))


# --- shortest-sequence search ------------------------------------------------------


class SearchSpec(_Value):
    """Search-space description: the target table plus syntactic restrictions."""

    __slots__ = __match_args__ = (
        "target", "max_length", "allow_jumps", "max_jump", "allow_aux", "allow_out_set_false", "allow_multiple_term",
        "splitting_mode",
    )

    def __init__(
        self, target: TruthTable, max_length: int, allow_jumps: bool = False, max_jump: int = 3, allow_aux: bool = False,
        allow_out_set_false: bool = False, allow_multiple_term: bool = True, splitting_mode: bool = False,
    ):
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        if max_jump < 0:
            raise ValueError("max_jump must be >= 0")
        if splitting_mode and (allow_aux or allow_out_set_false):
            raise ValueError("splitting mode allows neither auxiliary registers nor out.set:F")
        _set(self, "target", target)
        _set(self, "max_length", max_length)
        _set(self, "allow_jumps", allow_jumps)
        _set(self, "max_jump", max_jump)
        _set(self, "allow_aux", allow_aux)
        _set(self, "allow_out_set_false", allow_out_set_false)
        _set(self, "allow_multiple_term", allow_multiple_term)
        _set(self, "splitting_mode", splitting_mode)


def _search_alphabet(spec: SearchSpec) -> list[PrimitiveInstruction]:
    """The pruned instruction alphabet, in enumeration order.

    Order: termination, jumps by distance, then plain / positive-test /
    negative-test forms over the basics (input reads, auxiliary registers
    when allowed, output writes, fork/reply in splitting mode).
    """
    basics: list[BasicInstruction] = [RegisterOp(InReg(j), GET) for j in range(1, spec.target.arity + 1)]
    if spec.splitting_mode:
        basics += [RegisterOp(OUT, SET_TRUE), SplitOp(1), SplitOp(2), ReplyOp(1), ReplyOp(2)]
    else:
        if spec.allow_aux:
            basics += [RegisterOp(AuxReg(j), method) for j in (1, 2) for method in (GET, SET_TRUE, SET_FALSE)]
        basics.append(RegisterOp(OUT, SET_TRUE))
        if spec.allow_out_set_false:
            basics.append(RegisterOp(OUT, SET_FALSE))
    alphabet: list[PrimitiveInstruction] = [TERM]
    if spec.allow_jumps:
        alphabet += [Jump(l) for l in range(0, spec.max_jump + 1)]
    return alphabet + [form(b) for form in (Plain, PosTest, NegTest) for b in basics]


def shortest_sequence_search(spec: SearchSpec) -> Optional[InstructionSequence]:
    """First sequence, in length-lexicographic order, matching the target table.

    Returns None when no sequence within ``max_length`` matches under the
    restrictions.  The result is deterministic: minimal length, and
    lexicographically least over the alphabet order within that length.
    """
    if not spec.target.is_total:
        raise ValueError("search target must be a total function")
    if spec.target.arity > 3:
        raise ValueError("search supports arity <= 3")
    if spec.max_length > 14:
        raise ValueError("search supports max_length <= 14")
    return _behaviour_search(spec)


def _transfer(u: PrimitiveInstruction, n: int, reg_bits: int) -> tuple[tuple, int, Callable[[tuple[int, ...]], int]]:
    """Compile one letter into ``(shape, reach, map)``.

    The map takes a window of suffix summaries to the letter's own.  A summary
    is one int over the states ``i = s * 2^n + a``: register state ``s``
    (``out`` is bit 0, ``aux:j`` bit j; split parameter p has its
    instantiated bit 2p - 1 and its value bit 2p) and input vector ``a``
    (first input most significant).  Bit ``i`` is set when the suffix halts with ``out = T``
    from state ``i``, bit ``size + i`` when it halts with ``out = F``; neither
    when it never halts.  ``window[d - 1]`` summarises the suffix ``d``
    instructions on, so a jump reads it, a read or a reply selects between two
    window entries by the masks of states where it replies True and False, a
    write moves the state where the reply goes by a shift, and a split joins
    the states its two branches go on from.

    ``reach`` is the number of window entries the map reads, and ``shape``
    names the map with everything it depends on: letters of equal shape
    compute the same map.
    """
    shift = 2**n
    size = (2**reg_bits) * shift
    plane = (1 << size) - 1

    def states(holds: Callable[[int, int], int]) -> int:
        # The states where ``holds(s, a)``, on both planes.
        low = sum(1 << i for i in range(size) if holds(i >> n, i % shift))
        return low | (low << size)

    if isinstance(u, Term):
        halts_true = states(lambda s, a: s & 1)
        summary = halts_true & plane | ~halts_true & plane << size
        return ("const", summary), 0, lambda window: summary
    on_true, on_false = u.offsets
    if isinstance(u, Jump):
        if not on_true:
            return ("const", 0), 0, lambda window: 0
        return ("read", on_true - 1), on_true, itemgetter(on_true - 1)
    t, f = on_true - 1, on_false - 1
    if isinstance(u.basic, RegisterOp):
        focus, method = u.basic.focus, u.basic.method
        if isinstance(focus, InReg):  # the alphabet only reads inputs
            holds = states(lambda s, a: a >> (n - focus.index) & 1)
        else:
            bit = 1 << focus.index if isinstance(focus, AuxReg) else 1
            holds = states(lambda s, a: s & bit)
        fails = (plane | plane << size) ^ holds
        if method == GET and t == f:
            return ("read", t), t + 1, itemgetter(t)
    else:
        inst = 1 << 2 * u.basic.param - 1
        both = inst | inst << 1
        if isinstance(u.basic, SplitOp):
            # The branches halt when both do, with out = T when either does
            # (they cannot affect each other).  A re-split never halts.
            fresh = states(lambda s, a: not s & both) & plane
            to_true, to_false = both * shift, inst * shift

            def split(window: tuple[int, ...]) -> int:
                yes, no = window[t] >> to_true, window[f] >> to_false
                halts = (yes | yes >> size) & (no | no >> size) & fresh
                return (yes | no) & halts | yes & no & fresh << size

            return ("split", t, f, to_true, to_false), max(t, f) + 1, split
        # A reply reads the parameter's value; it never halts where the parameter is fresh.
        method = GET
        holds = states(lambda s, a: s & both == both)
        fails = states(lambda s, a: s & both == inst)
    if method == GET:
        return ("get", t, f, holds, fails), max(t, f) + 1, lambda window: (window[t] & holds) | (window[f] & fails)
    # A write replies True (False), continuing from the state with the bit set (clear);
    # the other reply's entry is never read.
    distance = bit * shift
    if method == SET_TRUE:
        return ("set:T", t, holds, distance), t + 1, lambda window: (kept := window[t] & holds) | kept >> distance
    return ("set:F", f, fails, distance), f + 1, lambda window: (kept := window[f] & fails) | kept << distance


def _behaviour_search(spec: SearchSpec) -> Optional[InstructionSequence]:
    """Length-lex enumeration with behaviourally identical suffixes merged.

    A suffix is summarised by its outcome (halt with a final output value,
    or never halt) from every register state and input vector, as one int
    (see ``_transfer``); extending a sequence on the left only needs the
    summaries of the suffix and its tails up to the maximum jump distance.
    Sequences are enumerated first-instruction-major, so the first match is
    the length-lex least.

    Each length first computes every letter's summaries and tests them
    against the target, stopping at the first match.  A seen key was tested
    when it was added, so the first match is never a seen key and it is the
    answer; keys are built only for a later length to extend, or where
    ``len(seen)`` plus the summaries scanned could pass the state cap, so
    the cap error names the same length and count as with every key built.
    """
    # A jump of max_length or more can only land past the end, as #0 does.
    # #0 comes first, so such a letter adds no state, and no window needs
    # to reach that far.
    spec = spec._replace(max_jump=min(spec.max_jump, spec.max_length - 1))
    n = spec.target.arity
    reg_bits = 5 if spec.splitting_mode else 3 if spec.allow_aux else 1
    size = (2**reg_bits) * 2**n
    lookahead = max(2, spec.max_jump if spec.allow_jumps else 2)
    keep = lookahead - 1
    track_terms = not spec.allow_multiple_term
    alphabet = _search_alphabet(spec)
    # A letter whose shape matches an earlier letter's gives the keys that
    # one gave first, so it never adds a key.  A letter that reads no more
    # than the head (the first ``keep`` window entries and the ! count)
    # gives the same key on every state with the same head.
    letters, shapes = [], set()
    for index, u in enumerate(alphabet):
        step = 1 if track_terms and isinstance(u, Term) else 0
        shape, reach, transfer = _transfer(u, n, reg_bits)
        if (shape, step) not in shapes:
            shapes.add((shape, step))
            letters.append((index, step, transfer, reach <= keep))

    # The target is read from the all-False register state, s = 0.
    rows = (1 << 2**n) - 1
    match_mask = rows | rows << size
    out = spec.target.out
    target = out | (rows & ~out) << size

    # A state is the flat tuple (window..., ! count), and it is its own dedup
    # key.  State i puts alphabet[letter[i]] in front of state parent[i];
    # state 0 is the empty sequence.  The states of one length are numbered
    # in a row, in frontier order.
    frontier = [(0,) * (lookahead + 1)]
    parent, letter = array("q", [-1]), array("B", [0])
    seen: set = set()
    head_of = itemgetter(*range(keep), lookahead)
    for length in range(1, spec.max_length + 1):
        base = len(parent) - len(frontier)
        heads = list(map(head_of, frontier))
        # The first state of each head, in frontier order: the reversed
        # pairs leave each head with its first position.
        firsts = sorted(dict(zip(reversed(heads), reversed(range(len(frontier))))).values())
        views = {(False, 0): (range(len(frontier)), frontier)}
        # Each letter's summaries over its view, in letter order, up to the
        # first that matches the target.
        batches, match = [], None
        for index, step, transfer, head_only in letters:
            view = head_only, step
            if view not in views:
                positions = firsts if head_only else range(len(frontier))
                if step:  # a second ! only follows states with none
                    positions = [p for p in positions if not heads[p][keep]]
                views[view] = positions, [frontier[p] for p in positions]
            positions, states = views[view]
            summaries = list(map(transfer, states))
            batches.append((index, view, summaries))
            if target in map(and_, summaries, repeat(match_mask)):
                end = [*map(and_, summaries, repeat(match_mask))].index(target)
                del summaries[end + 1:]
                match = index, base + positions[end]
                break
        # The length that holds the answer, like the last length, needs its
        # keys only where they could pass the cap, to raise its error.
        done = match is not None or length == spec.max_length
        if not done or len(seen) + sum(len(batch[2]) for batch in batches) > _SEARCH_STATE_CAP:
            new_frontier: list[tuple[int, ...]] = []
            new_heads = {(False, 0): heads}
            for index, view, summaries in batches:
                positions = views[view][0]
                if view not in new_heads:
                    new_heads[view] = [heads[p][:keep] + (heads[p][keep] + view[1],) for p in positions]
                keys = list(map(add, zip(summaries), new_heads[view]))
                # Lazily, so a key repeated later in the same letter is seen by then.
                for i in compress(count(), map(not_, map(seen.__contains__, keys))):
                    key = keys[i]
                    seen.add(key)
                    if len(seen) > _SEARCH_STATE_CAP:
                        raise ResourceBoundError(
                            f"resource bound exceeded in behaviour search at length {length}: "
                            f"{len(seen)} states seen, cap {_SEARCH_STATE_CAP}"
                        )
                    parent.append(base + positions[i])
                    letter.append(index)
                    new_frontier.append(key)
            frontier = new_frontier
        if done or not frontier:
            break
    if match is None:
        return None
    index, state = match
    items = [alphabet[index]]
    while state:
        items.append(alphabet[letter[state]])
        state = parent[state]
    return InstructionSequence(tuple(items))
