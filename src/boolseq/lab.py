"""Brute-force oracles and micro-scale exploration.

Truth tables of instruction sequences under either executor, and an
exhaustive shortest-sequence search under syntactic restrictions.  The
search enumerates sequences in length-lexicographic order but collapses
behaviourally identical suffixes, which keeps desk-scale bounds feasible
while returning exactly the sequence plain enumeration would return first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from operator import itemgetter
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
)
from .services import lane_values

_SEARCH_STATE_CAP = 3_000_000


@dataclass(frozen=True)
class TruthTable:
    """2^arity Boolean values indexed by input vector, first input most significant.

    ``None`` marks an input where execution did not terminate, i.e. the
    sequence computes no total function.
    """

    arity: int
    values: tuple[Optional[bool], ...]

    def __post_init__(self):
        if len(self.values) != 2**self.arity:
            raise ValueError(f"expected {2**self.arity} entries, got {len(self.values)}")

    def vector(self, idx: int) -> tuple[bool, ...]:
        n = self.arity
        return tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))

    def lookup(self, bits) -> Optional[bool]:
        idx = 0
        for b in bits:
            idx = (idx << 1) | (1 if b else 0)
        return self.values[idx]

    @property
    def is_total(self) -> bool:
        return all(v is not None for v in self.values)

    def render(self) -> str:
        return "".join("?" if v is None else "T" if v else "F" for v in self.values)

    @staticmethod
    def tabulate(arity: int, fn: Callable[[tuple[bool, ...]], bool]) -> "TruthTable":
        return TruthTable(arity, tuple(map(fn, product((False, True), repeat=arity))))


def truth_table(x: InstructionSequence, n: int, splitting: bool = False) -> TruthTable:
    """Tabulate the sequence over all 2^n input vectors, by ``lane_values``.

    Non-terminating entries (deadlock or divergence) are recorded as None.
    """
    return TruthTable(n, lane_values(x, n, splitting))


# --- shortest-sequence search ------------------------------------------------------


@dataclass(frozen=True)
class SearchSpec:
    """Search-space description: the target table plus syntactic restrictions."""

    target: TruthTable
    max_length: int
    allow_jumps: bool = False
    max_jump: int = 3
    allow_aux: bool = False
    allow_out_set_false: bool = False
    allow_multiple_term: bool = True
    splitting_mode: bool = False

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_jump < 0:
            raise ValueError("max_jump must be >= 0")
        if self.splitting_mode and (self.allow_aux or self.allow_out_set_false):
            raise ValueError("splitting mode allows neither auxiliary registers nor out.set:F")


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


def _transfer(u: PrimitiveInstruction, n: int, reg_bits: int) -> Callable[[tuple[int, ...]], int]:
    """Compile one letter into the map from a window of suffix summaries to its own.

    A summary is one int over the states ``i = s * 2^n + a``: register state
    ``s`` (``out`` is bit 0, ``aux:j`` bit j; split parameter p has its
    instantiated bit 2p - 1 and its value bit 2p) and input vector ``a``
    (first input most significant).  Bit ``i`` is set when the suffix halts with ``out = T``
    from state ``i``, bit ``size + i`` when it halts with ``out = F``; neither
    when it never halts.  ``window[d - 1]`` summarises the suffix ``d``
    instructions on, so a jump reads it, a read or a reply selects between two
    window entries by the masks of states where it replies True and False, a
    write moves the state where the reply goes by a shift, and a split joins
    the states its two branches go on from.
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
        return lambda window: summary
    on_true, on_false = u.offsets
    if isinstance(u, Jump):
        return itemgetter(on_true - 1) if on_true else lambda window: 0
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
            return itemgetter(t)
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

            return split
        # A reply reads the parameter's value; it never halts where the parameter is fresh.
        method = GET
        holds = states(lambda s, a: s & both == both)
        fails = states(lambda s, a: s & both == inst)
    if method == GET:
        return lambda window: (window[t] & holds) | (window[f] & fails)
    # A write replies True (False), continuing from the state with the bit set (clear).
    distance = bit * shift
    if method == SET_TRUE:
        return lambda window: (kept := window[t] & holds) | kept >> distance
    return lambda window: (kept := window[f] & fails) | kept << distance


def _behaviour_search(spec: SearchSpec) -> Optional[InstructionSequence]:
    """Length-lex enumeration with behaviourally identical suffixes merged.

    A suffix is summarised by its outcome (halt with a final output value,
    or never halt) from every register state and input vector, as one int
    (see ``_transfer``); extending a sequence on the left only needs the
    summaries of the suffix and its tails up to the maximum jump distance.
    Sequences are enumerated first-instruction-major, so the first match is
    the length-lex least.
    """
    # A jump of max_length or more can only land past the end, as #0 does.
    # #0 comes first, so such a letter adds no state, and no window needs
    # to reach that far.
    spec = replace(spec, max_jump=min(spec.max_jump, spec.max_length - 1))
    n = spec.target.arity
    reg_bits = 5 if spec.splitting_mode else 3 if spec.allow_aux else 1
    size = (2**reg_bits) * 2**n
    lookahead = max(2, spec.max_jump if spec.allow_jumps else 2)
    track_terms = not spec.allow_multiple_term
    letters = [
        (u, 1 if track_terms and isinstance(u, Term) else 0, _transfer(u, n, reg_bits))
        for u in _search_alphabet(spec)
    ]

    # The target is read from the all-False register state, s = 0.
    rows = (1 << 2**n) - 1
    match_mask = rows | rows << size
    target = sum(1 << (a if v else size + a) for a, v in enumerate(spec.target.values))

    keep = lookahead - 1
    # Each entry: the dedup key (window, terms) and the sequence as a linked
    # list (first instruction, rest), so a state adds one pair, not a copy.
    frontier: list[tuple[tuple, Optional[tuple]]] = [(((0,) * lookahead, 0), None)]
    seen: set = set()
    for length in range(1, spec.max_length + 1):
        new_frontier = []
        for u, term_step, transfer in letters:
            for (window, terms), witness in frontier:
                new_terms = terms + term_step
                if new_terms > 1:
                    continue
                behaviour = transfer(window)
                key = ((behaviour,) + window[:keep], new_terms)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > _SEARCH_STATE_CAP:
                    raise ResourceBoundError(
                        f"resource bound exceeded in behaviour search at length {length}: "
                        f"{len(seen)} states seen, cap {_SEARCH_STATE_CAP}"
                    )
                new_witness = (u, witness)
                if behaviour & match_mask == target:
                    items = []
                    while new_witness is not None:
                        head, new_witness = new_witness
                        items.append(head)
                    return InstructionSequence(tuple(items))
                new_frontier.append((key, new_witness))
        frontier = new_frontier
        if not frontier:
            break
    return None
