"""Lane-parallel tables (`lane_values`) against the per-vector executors and the algebra."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from boolseq.instr import InstructionSequence, ResourceBoundError, classify, parse
from boolseq.lab import TruthTable, truth_table
from boolseq.services import (
    DIVERGENT,
    MAX_TABLE_ARITY,
    RegState,
    Terminated,
    check_computes,
    lane_values,
    run,
)
from boolseq.splitting import check_splitting_computes, queue_runner

from util import algebraic_outcome, algebraic_splitting_outcome, first_reads, gen_isbr, gen_sisbr


def vectors(n):
    return [tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n)) for idx in range(2**n)]


def per_vector_values(x, n, splitting=False):
    """The table as the per-vector executor gives it.

    Forking code runs on ``queue_runner``, which walks the row templates
    one branch at a time; ``run_splitting`` is the lane sweep itself.
    """
    values = []
    for v in vectors(n):
        outcome = queue_runner(x, v)[0] if splitting else run(x, v)
        values.append(outcome.registers.out if isinstance(outcome, Terminated) else None)
    return tuple(values)


def algebraic_values(x, n, splitting=False):
    """The table as the literal use/apply chain gives it."""
    evaluate = algebraic_splitting_outcome if splitting else algebraic_outcome
    values = []
    for v in vectors(n):
        service = evaluate(x, v)
        values.append(None if service is DIVERGENT else service.state is RegState.TRUE)
    return tuple(values)


def assert_agrees(x, n, splitting=False, algebra=True):
    lanes = lane_values(x, n, splitting)
    assert lanes == per_vector_values(x, n, splitting), f"{x} at n={n}"
    if algebra:
        assert lanes == algebraic_values(x, n, splitting), f"{x} at n={n}"


# Small alphabets for the exhaustive check.  Between them they hold jumps
# past the end, #0, unserved inputs, aux registers, out.set:F after
# out.set:T, re-splits, replies before a split and test forms of each.
REGISTER_ALPHABET = (
    "!", "#0", "#2", "#3", "in:1.get", "+in:2.get", "-in:1.get", "+aux:1.get",
    "aux:1.set:T", "-aux:1.set:F", "out.set:T", "+out.set:F",
)
SPLITTING_ALPHABET = (
    "!", "#0", "#2", "in:1.get", "-in:2.get", "out.set:T", "split:1", "+split:1",
    "-split:2", "reply:1", "+reply:2", "-reply:1",
)


def every_sequence(alphabet, max_length):
    for length in range(1, max_length + 1):
        for combo in product(alphabet, repeat=length):
            yield parse(" ; ".join(combo))


@pytest.mark.parametrize("alphabet, splitting", [(REGISTER_ALPHABET, False), (SPLITTING_ALPHABET, True)])
def test_every_short_sequence(alphabet, splitting):
    for x in every_sequence(alphabet, 3):
        for n in range(3):
            assert_agrees(x, n, splitting)


@pytest.mark.parametrize("generate, splitting", [(gen_isbr, False), (gen_sisbr, True)])
def test_seeded_random_sequences(generate, splitting):
    rng = random.Random(3030)
    for _ in range(400):
        n = rng.randint(0, 4)
        x = generate(rng, 14, n + rng.randint(0, 1))
        # The algebraic route interleaves every branch, so it gets short inputs.
        assert_agrees(x, n, splitting, algebra=n <= 2 and len(x) <= 8)


@pytest.mark.parametrize(
    "text, n, splitting, values",
    [
        ("out.set:T ; !", 0, False, (True,)),
        ("#0", 0, False, (None,)),
        ("+in:2.get ; out.set:T ; !", 1, False, (None, None)),  # in:2 is unserved at n=1
        ("+in:2.get ; out.set:T ; !", 2, False, (False, True, False, True)),
        ("+in:1.get ; #0 ; !", 1, False, (False, None)),
        ("-in:1.get ; #5 ; out.set:T ; !", 1, False, (None, True)),  # a jump past the end
        ("-in:1.get ; ! ; out.set:T", 1, False, (False, None)),  # falling off the end
        ("out.set:T ; +in:1.get ; out.set:F ; !", 1, False, (True, False)),
        ("+in:1.get ; aux:2.set:T ; +aux:2.get ; out.set:T ; !", 1, False, (False, True)),
        ("in:1.set:T ; +in:1.get ; out.set:T ; !", 1, False, (True, True)),
        ("+split:1 ; ! ; out.set:T ; !", 0, True, (True,)),  # one branch accepts
        ("split:1 ; split:1 ; out.set:T ; !", 0, True, (None,)),  # a re-split
        ("+reply:1 ; out.set:T ; !", 0, True, (None,)),  # a reply before any split
        ("split:2 ; reply:1 ; !", 0, True, (None,)),  # a reply on another parameter
        ("+split:1 ; #0 ; out.set:T ; !", 0, True, (None,)),  # one dead branch
        ("split:1 ; +reply:1 ; -in:1.get ; out.set:T ; !", 1, True, (True, True)),
        ("split:1 ; +reply:1 ; ! ; +in:1.get ; out.set:T ; !", 1, True, (False, True)),
        ("split:1 ; +reply:1 ; +in:2.get ; !", 1, True, (None, None)),  # an unserved read
    ],
)
def test_edge_cases(text, n, splitting, values):
    x = parse(text)
    assert lane_values(x, n, splitting) == values
    assert per_vector_values(x, n, splitting) == values


def test_split_parameters_are_lanes_whatever_their_index():
    # Parameter 20 forks a twin lane, as parameter 1 would.
    x = parse("split:20 ; +reply:20 ; -in:1.get ; out.set:T ; !")
    assert lane_values(x, 1, splitting=True) == per_vector_values(x, 1, splitting=True) == (True, True)


def test_checks_reject_wrong_and_partial_tables():
    xor = parse("+in:1.get ; #4 ; +in:2.get ; out.set:T ; ! ; -in:2.get ; out.set:T ; !")
    assert check_computes(xor, TruthTable(2, (False, True, True, False)))
    assert not check_computes(xor, TruthTable(2, (False, True, True, True)))
    partial = parse("+in:1.get ; #0 ; !")
    assert not check_computes(partial, TruthTable(1, (False, False)))
    assert not check_computes(partial, TruthTable(1, (False, True)))

    guess = parse("split:1 ; +reply:1 ; -in:1.get ; out.set:T ; !")  # out = in:1 or the guess
    assert check_splitting_computes(guess, TruthTable(1, (True, True)))
    assert not check_splitting_computes(guess, TruthTable(1, (False, True)))
    dead_branch = parse("+split:1 ; #0 ; +in:1.get ; out.set:T ; !")
    assert not check_splitting_computes(dead_branch, TruthTable(1, (False, True)))


def test_arity_bound():
    with pytest.raises(ResourceBoundError, match="resource bound"):
        lane_values(parse("!"), MAX_TABLE_ARITY + 1)
    with pytest.raises(ResourceBoundError, match="resource bound"):
        truth_table(parse("out.set:T ; !"), MAX_TABLE_ARITY + 1)
    # For forking code a split's twin lanes come on top of the 2^n vectors.
    with pytest.raises(ResourceBoundError, match="resource bound"):
        truth_table(parse("split:1 ; !"), MAX_TABLE_ARITY, splitting=True)


def test_splits_reached_by_disjoint_vectors_share_lanes():
    # Block k splits the vectors whose first True input is in:k, lower
    # vectors at each block.  The 17 split rows on one parameter fit in 2^21
    # lanes because the vectors are disjoint; twins placed past every lane
    # so far would need 18 * 2^20.
    n, blocks = 20, 17
    x = parse(" ; ".join(f"-in:{k}.get ; #3 ; split:1 ; !" for k in range(1, blocks + 1)) + " ; out.set:T ; !")
    values = lane_values(x, n, splitting=True)
    assert values == (True,) * 2 ** (n - blocks) + (False,) * (2**n - 2 ** (n - blocks))


@pytest.mark.parametrize("n", range(3))
def test_unreached_actions_after_every_branch_ends(n):
    # Every branch of every vector terminates at once; the sweep skips the
    # 10^5 empty action slots after them.
    x = parse("+split:1 ; ! ; ! ; " + " ; ".join(["in:1.get"] * 10**5) + " ; !")
    assert lane_values(x, n, splitting=True) == per_vector_values(x, n, splitting=True) == (False,) * 2**n


# Tables that are all dead, none dead, and dead only at the lowest or the
# highest vector: each entry against the per-vector executor.
ENTRY_CASES = [
    ("!", 0, (False,)),
    ("out.set:T ; !", 0, (True,)),
    ("#0 ; !", 0, (None,)),
    ("out.set:T ; #0", 3, (None,) * 8),
    ("+in:1.get ; #2 ; out.set:T ; !", 3, (True,) * 4 + (False,) * 4),
    ("+in:1.get ; #5 ; +in:2.get ; #3 ; -in:3.get ; #0 ; out.set:T ; !", 3, (None,) + (True,) * 7),
    ("-in:1.get ; #5 ; -in:2.get ; #3 ; +in:3.get ; #0 ; out.set:T ; !", 3, (True,) * 7 + (None,)),
    ("-in:1.get ; #5 ; -in:2.get ; #3 ; +in:3.get ; #0 ; !", 3, (False,) * 7 + (None,)),
]


@pytest.mark.parametrize("text, n, values", ENTRY_CASES)
def test_table_entries(text, n, values):
    x = parse(text)
    assert lane_values(x, n) == per_vector_values(x, n) == values


def test_forking_table_with_dead_lanes_at_n_12():
    # The split widens the lanes past the 2^12 vectors; half the vectors
    # deadlock in one branch.
    n = 12
    x = parse("+in:1.get ; split:1 ; +in:12.get ; #3 ; +reply:1 ; #0 ; -in:6.get ; out.set:T ; !")
    values = lane_values(x, n, splitting=True)
    assert values == per_vector_values(x, n, splitting=True)
    assert (values.count(None), values.count(True), values.count(False)) == (2048, 1024, 1024)


@pytest.mark.parametrize("n", range(4))
def test_first_read_of_each_input(n):
    # A table whose entries read in:n+1 has None there.
    for x in first_reads(n):
        assert_agrees(x, n, splitting=classify(x).max_param_index > 0)


def test_vocabulary_errors():
    with pytest.raises(ValueError, match="use run_splitting"):
        lane_values(parse("split:1 ; !"), 0)
    with pytest.raises(ValueError, match="run_splitting requires"):
        lane_values(parse("aux:1.set:T ; !"), 0, splitting=True)
    with pytest.raises(ValueError, match="arity must be >= 0"):
        lane_values(parse("!"), -1)


# --- property test -----------------------------------------------------------------------

FORMS = ("", "+", "-")
REGISTER_BASICS = (
    "in:1.get", "in:2.get", "in:3.get", "aux:1.get", "aux:1.set:T", "aux:1.set:F",
    "aux:2.get", "aux:2.set:T", "out.set:T", "out.set:F",
)
SPLITTING_BASICS = (
    "in:1.get", "in:2.get", "in:3.get", "out.set:T", "split:1", "split:2", "split:3",
    "reply:1", "reply:2", "reply:3",
)


def instructions(basics):
    return st.one_of(
        st.just("!"),
        st.integers(0, 6).map(lambda d: f"#{d}"),
        st.tuples(st.sampled_from(FORMS), st.sampled_from(basics)).map("".join),
    )


def sequences(basics, max_size):
    return st.lists(instructions(basics), min_size=1, max_size=max_size).map(lambda items: parse(" ; ".join(items)))


@settings(max_examples=100, deadline=None)
@given(x=sequences(REGISTER_BASICS, 12), n=st.integers(0, 3))
def test_property_register_tables(x: InstructionSequence, n: int):
    assert classify(x).is_isbr
    assert_agrees(x, n)


@settings(max_examples=100, deadline=None)
@given(x=sequences(SPLITTING_BASICS, 8), n=st.integers(0, 3))
def test_property_splitting_tables(x: InstructionSequence, n: int):
    assert classify(x).is_sisbr
    assert_agrees(x, n, splitting=True)
