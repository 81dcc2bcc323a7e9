"""Bit-vector encoded 3-CNF satisfiability and its sequence constructions.

A bit vector of length n selects disjunctions of at most three literals
through a fixed bijection ``alpha`` between positive integers and literal
sets; the selected disjunctions form a 3-CNF whose satisfiability is the
value of the family member at that vector.  Only the first ``ndisj(k)``
bits matter, for the largest k whose literal sets all fit.

This module holds the bijection and its inverse, the evaluator, the
decode/encode pair between bit vectors and 3-CNFs, a fork/reply sequence
builder that computes the family member at a given arity, the
reachability-formula reduction from fork/reply sequences back to formula
satisfiability, and a bounded-length reducibility checker.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress
from math import comb
from typing import Iterable

from .compilers import (
    And,
    BoolFormula,
    Cnf,
    FVar,
    Literal,
    Not,
    Or,
    compile_formula,
)
from .instr import (
    GET,
    SET_TRUE,
    BasicInstruction,
    InReg,
    KIND_IN,
    KIND_OUT,
    InstructionSequence,
    OUT,
    Plain,
    PosTest,
    RegisterOp,
    ReplyOp,
    ResourceBoundError,
    Row,
    SplitOp,
    TERM,
    classify,
    _set,
    _Value,
    psize,
)
from .services import lane_mask, lane_values

MAX_GUESSED_VARS = 20


def ndisj(k: int) -> int:
    """Number of nonempty sets of at most three literals over k variables."""
    if k < 0:
        raise ValueError("ndisj is defined on natural numbers")
    return comb(2 * k, 1) + comb(2 * k, 2) + comb(2 * k, 3)


class LiteralSet(_Value):
    """A set of one to three distinct literals."""

    __slots__ = __match_args__ = ("literals",)

    def __init__(self, literals: frozenset[Literal]):
        if not 1 <= len(literals) <= 3:
            raise ValueError("literal set must have between 1 and 3 members")
        _set(self, "literals", literals)

    def max_var(self) -> int:
        return max(lit.var for lit in self.literals)

    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=_literal_code))


def _literal_code(lit: Literal) -> int:
    # v_j -> 2j-1, not v_j -> 2j: a total order on literals.
    return 2 * lit.var if lit.negated else 2 * lit.var - 1


def _literal_of_code(code: int) -> Literal:
    var, rem = divmod(code + 1, 2)
    return Literal(var, negated=rem == 1)


@lru_cache(maxsize=64)
def _block(m: int) -> list[LiteralSet]:
    """All literal sets whose maximum variable is m, in canonical order.

    Order within the block: cardinality first, then lexicographic on the
    sorted literal codes.  Blocks are what make the enumeration
    prefix-compatible: sets over the first k variables occupy exactly the
    first ndisj(k) positions regardless of k.
    """
    codes = range(1, 2 * m + 1)
    own = {2 * m - 1, 2 * m}
    sets = []
    for size in (1, 2, 3):
        for combo in combinations(codes, size):
            if own.intersection(combo):
                sets.append(LiteralSet(frozenset(_literal_of_code(c) for c in combo)))
    return sets


@lru_cache(maxsize=64)
def _block_ranks(m: int) -> dict[LiteralSet, int]:
    """Each literal set of ``_block(m)`` with its position there."""
    return {ls: i for i, ls in enumerate(_block(m))}


def alpha(i: int) -> LiteralSet:
    """The i-th literal set in the canonical enumeration (i >= 1)."""
    if i < 1:
        raise ValueError("alpha is defined on positive integers")
    m = 1
    while ndisj(m) < i:
        m += 1
        if m > 2 * MAX_GUESSED_VARS:
            raise ResourceBoundError("resource bound exceeded in alpha")
    return _block(m)[i - ndisj(m - 1) - 1]


@lru_cache(maxsize=8)
def _tables(k: int) -> tuple[tuple[frozenset[Literal], ...], tuple[tuple[Literal, ...], ...]]:
    """alpha(1), ..., alpha(ndisj(k)) as their ``literals`` and as their ``sorted_literals()``.

    Built once per k, block by block: the evaluators select from them with
    a bit vector.  Each holds ndisj(k) entries, no more than the bits of a
    vector that selects k variables, and the cache keeps the last 8 values
    of k.
    """
    sets = [ls for m in range(1, k + 1) for ls in _block(m)]
    return tuple(ls.literals for ls in sets), tuple(ls.sorted_literals() for ls in sets)


def alpha_rank(literal_set: LiteralSet) -> int:
    """Position of a literal set in the canonical enumeration; inverse of alpha."""
    m = literal_set.max_var()
    if m > 2 * MAX_GUESSED_VARS:
        raise ResourceBoundError("resource bound exceeded in alpha")
    return ndisj(m - 1) + _block_ranks(m)[literal_set] + 1


class SatcInstance(_Value):
    """A bit vector; bits beyond ndisj(k) for the derived k are inert."""

    __slots__ = __match_args__ = ("bits",)

    def __init__(self, bits: tuple[bool, ...]):
        _set(self, "bits", bits)

    @property
    def k(self) -> int:
        """Largest k with ndisj(k) <= len(bits)."""
        return _selected_vars(len(self.bits))


@lru_cache(maxsize=256)
def _selected_vars(length: int) -> int:
    """Largest k with ndisj(k) <= length, by bisection: ndisj(k) > k for k >= 1."""
    low, high = 0, length
    while low < high:
        mid = (low + high + 1) // 2
        if ndisj(mid) <= length:
            low = mid
        else:
            high = mid - 1
    return low


def satc_eval(inst: SatcInstance) -> bool:
    """Is the selected conjunction of disjunctions satisfiable?

    Selects the literal sets from the enumeration's table for k and decides
    satisfiability by exhaustive search over the k variables; the empty
    conjunction (no bit set, or too few bits to select anything) is
    satisfiable.  Kept independent of ``decode_to_cnf`` so the two can be
    checked against each other.
    """
    k = inst.k
    literals, _ = _tables(k)
    return _satisfiable(k, compress(literals, inst.bits))


def cnf_satisfiable(phi: Cnf) -> bool:
    """Exhaustive satisfiability of a CNF over its declared variables, bit-sliced."""
    return _satisfiable(phi.num_vars, phi.clauses)


@lru_cache(maxsize=8)
def _assignments(k: int) -> tuple[int, tuple[int, ...]]:
    """The lanes of all 2^k assignments, and for each v_j (index j) the lanes where it is True.

    Built once per k; the cache keeps the last 8 values of k.
    """
    lanes = 1 << k
    return (1 << lanes) - 1, (0, *(lane_mask(j, lanes) for j in range(k)))


def _satisfiable(k: int, clauses: Iterable[Iterable[Literal]]) -> bool:
    """Does some assignment to v_1..v_k satisfy every clause?  All 2^k at once, bit-sliced.

    Lane i is the assignment with v_j as bit j - 1 of i, and each variable
    is the int of the lanes where it is True.  So a clause's lanes are the OR
    of its literals' lanes, and a conjunction's the AND of its clauses'.
    """
    if k > MAX_GUESSED_VARS:
        raise ResourceBoundError(f"resource bound exceeded: {k} variables")
    full, variables = _assignments(k)
    satisfying = full
    for clause in clauses:
        satisfied = 0
        for lit in clause:
            satisfied |= full ^ variables[lit.var] if lit.negated else variables[lit.var]
        satisfying &= satisfied
    return satisfying != 0


def decode_to_cnf(bits: tuple[bool, ...] | list[bool]) -> Cnf:
    """The 3-CNF a bit vector encodes: one clause per selected literal set."""
    bits = tuple(bits)
    k = _selected_vars(len(bits))
    _, sorted_literals = _tables(k)
    return Cnf(k, tuple(compress(sorted_literals, bits)))


def encode_cnf(phi: Cnf) -> tuple[bool, ...]:
    """Shortest bit vector whose decoding is the given 3-CNF (as a clause set).

    Each clause must have one to three distinct literals, and no two clauses
    may coincide as sets.  The vector has length ndisj(m) for the largest
    variable m actually used: any shorter vector would derive a smaller k
    and lose the clauses mentioning m.
    """
    ranks = set()
    seen = set()
    max_var = 0
    for clause in phi.clauses:
        literal_set = frozenset(clause)
        if len(literal_set) != len(clause):
            raise ValueError("duplicate literal within a clause")
        if not 1 <= len(literal_set) <= 3:
            raise ValueError("clause must have 1 to 3 distinct literals")
        if literal_set in seen:
            raise ValueError("duplicate clause set; encoding would collapse them")
        seen.add(literal_set)
        rank = alpha_rank(LiteralSet(literal_set))
        ranks.add(rank)
        max_var = max(max_var, max(lit.var for lit in clause))
    length = ndisj(max_var)
    return tuple(i in ranks for i in range(1, length + 1))


# --- the fork/reply sequence for one family member ---------------------------------


def build_satc_splitter(n: int) -> InstructionSequence:
    """A fork/reply sequence computing the arity-n family member.

    Forks once per guessed variable, then runs the compiled formula
    "every selected disjunction holds", where clause i's selector is read
    from input register i and guessed variable j from parameter j.  Some
    branch accepts exactly when some assignment satisfies the selected
    clauses.
    """
    if n < 0:
        raise ValueError("arity must be a natural number")
    k = _selected_vars(n)
    if k > MAX_GUESSED_VARS:
        raise ResourceBoundError(f"resource bound exceeded: {k} guessed variables")
    accept = InstructionSequence((PosTest(RegisterOp(OUT, SET_TRUE)), TERM))
    if k == 0:
        # Arity below ndisj(1): no disjunction is selectable, constant True.
        return accept

    # Formula variables 1..k are the guesses; k+i is clause i's selector.
    def leaf(index: int) -> BasicInstruction:
        if index <= k:
            return ReplyOp(index)
        return RegisterOp(InReg(index - k), GET)

    conjuncts: list[BoolFormula] = []
    _, sorted_literals = _tables(k)
    for i, literals in enumerate(sorted_literals, start=1):
        disjunction: BoolFormula = Not(FVar(k + i))
        for lit in literals:
            term: BoolFormula = Not(FVar(lit.var)) if lit.negated else FVar(lit.var)
            disjunction = Or(disjunction, term)
        conjuncts.append(disjunction)
    psi = conjuncts[-1]
    for phi in reversed(conjuncts[:-1]):
        psi = And(phi, psi)

    body = compile_formula(psi, leaf)
    prefix = tuple(Plain(SplitOp(j)) for j in range(1, k + 1))
    return InstructionSequence(prefix + body.items)


# --- reachability reduction ----------------------------------------------------------


def _successors(pos: int, move: Row, k: int, inputs: tuple[bool, ...]) -> list[int]:
    """Positions execution may reach right after position ``pos`` of ``k``, whose row template is ``move``.

    Input reads are resolved by the given bits, writes of True reply True,
    fork and reply instructions contribute the moves of both replies.  A
    move of 0 (``#0``, ``!``) or past the end has no successor: that path
    deadlocks or terminates.
    """
    kind, slot, _, d_true, d_false = move
    if kind == KIND_IN:
        if slot > len(inputs):
            raise ValueError(f"input register in:{slot} beyond the given arity")
        moves = (d_true if inputs[slot - 1] else d_false,)
    elif kind == KIND_OUT:  # out.set:T always replies True
        moves = (d_true,)
    else:  # split, reply, and the reply-independent jump and termination
        moves = (d_true, d_false)
    return sorted({pos + d for d in moves if 0 < d <= k - pos})


def _control_graph(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> tuple[int, list[list[int]]]:
    """The accepting position of ``x`` and each position's ``_successors``.

    Raises ``ValueError`` outside the fork/reply vocabulary, unless there is
    exactly one ``out.set:T``, and for a read of an input past the given arity.
    """
    if not classify(x).is_sisbr:
        raise ValueError("reachability_formula requires a split/reply vocabulary sequence")
    moves = x._moves
    accepts = [pos for pos, (kind, _, method, _, _) in enumerate(moves, start=1) if kind == KIND_OUT and method == SET_TRUE]
    if len(accepts) != 1:
        raise ValueError(
            f"reachability_formula requires exactly one out.set:T occurrence, found {len(accepts)}"
        )
    inputs = tuple(inputs)
    k = len(moves)
    return accepts[0], [_successors(pos, move, k, inputs) for pos, move in enumerate(moves, start=1)]


def reachability_formula(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> BoolFormula:
    """Formula satisfiable when some branch of ``x`` reaches its accepting write.

    Variable i stands for "position i is executed on some branch".  The
    formula asserts the entry position, the position of the unique
    ``out.set:T``, and, for every other position, that it is executed
    exactly when one of its control-graph predecessors is.  The
    equivalences are expanded into not/or/and; a position with no
    predecessors contributes its negation.
    """
    accept_pos, successors = _control_graph(x, inputs)
    k = len(successors)
    predecessors: dict[int, list[int]] = {i: [] for i in range(2, k + 1)}
    for pos, succs in enumerate(successors, start=1):
        for succ in succs:
            predecessors[succ].append(pos)

    conjuncts: list[BoolFormula] = [FVar(1), FVar(accept_pos)]
    for i in range(2, k + 1):
        preds = predecessors[i]
        if not preds:
            conjuncts.append(Not(FVar(i)))
            continue
        disj: BoolFormula = FVar(preds[0])
        for p in preds[1:]:
            disj = Or(disj, FVar(p))
        # v_i <-> disj, expanded into basic connectives.
        conjuncts.append(And(Or(FVar(i), Not(disj)), Or(Not(FVar(i)), disj)))
    phi = conjuncts[-1]
    for c in reversed(conjuncts[:-1]):
        phi = And(c, phi)
    return phi


def reachability_satisfiable(x: InstructionSequence, inputs: tuple[bool, ...] | list[bool]) -> bool:
    """Is ``reachability_formula(x, inputs)`` satisfiable?  Decided in linear time.

    Every successor lies after its position, so each position's equivalence
    fixes its variable from earlier ones: the formula minus the accepting
    conjunct has exactly one model, and forward propagation from position 1
    finds it.  The formula is satisfiable iff that model executes the
    accepting position.  Raises the same ``ValueError``s as the formula.
    """
    accept_pos, successors = _control_graph(x, inputs)
    reached = [False] * (len(successors) + 1)
    reached[1] = True
    for pos, succs in enumerate(successors, start=1):
        if reached[pos]:
            for succ in succs:
                reached[succ] = True
    return reached[accept_pos]


# --- bounded-length reducibility -------------------------------------------------------


def check_length_reduction(f_table, g_table, helpers: list[InstructionSequence], l: int) -> bool:
    """Is f length-l reducible to g through the given helper sequences?

    True iff there is one helper per argument of g, every helper is at most
    l instructions long and computes a total function at f's arity, and
    composing g with the helper outputs reproduces f on every input vector.
    """
    if len(helpers) != g_table.arity:
        raise ValueError(
            f"need {g_table.arity} helper sequences (one per argument of g), got {len(helpers)}"
        )
    if any(psize(h) > l for h in helpers):
        return False
    n = f_table.arity
    helper_values: list[tuple[bool, ...]] = []
    for h in helpers:
        values = lane_values(h, n)
        if None in values:
            return False
        helper_values.append(values)
    for idx in range(2**n):
        image = tuple(helper_values[m][idx] for m in range(len(helpers)))
        if f_table.values[idx] != g_table.lookup(image):
            return False
    return True
