"""Lane-parallel tables (`lane_values`, read through `truth_table`) against the per-vector executors and the algebra."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from boolseq.instr import InstructionSequence, ResourceBoundError, classify, parse
from boolseq.lab import TruthTable, truth_table
from boolseq.services import (
    DIVERGENT,
    MAX_AUX_INDEX,
    MAX_TABLE_ARITY,
    Divergent,
    RegState,
    Terminated,
    check_computes,
    lane_values,
    run,
)
from boolseq.splitting import check_splitting_computes, queue_runner, run_splitting_with_steps

from util import (
    algebraic_outcome,
    algebraic_splitting_outcome,
    assert_table_readers,
    ended_and_guarded,
    first_reads,
    gen_isbr,
    gen_sisbr,
    reaches_split,
    reference_run,
)


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
    lanes = truth_table(x, n, splitting).values
    assert lanes == per_vector_values(x, n, splitting), f"{x} at n={n}"
    if algebra:
        assert lanes == algebraic_values(x, n, splitting), f"{x} at n={n}"
    return lanes


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
    mixed = 0
    for i in range(400):
        n = rng.randint(0, 4)
        x = generate(rng, 14, n + rng.randint(0, 1))
        # The algebraic route interleaves every branch, so it gets short
        # inputs.  Each draw is also ended and guarded, for tables with dead
        # and live entries.
        for y in (x, ended_and_guarded(x, i % 2)):
            values = assert_agrees(y, n, splitting, algebra=n <= 2 and len(y) <= 8)
        mixed += None in values and len(set(values)) > 1
    assert mixed


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
    assert truth_table(x, n, splitting).values == values
    assert per_vector_values(x, n, splitting) == values


def test_split_parameters_are_lanes_whatever_their_index():
    # Parameter 20 forks a twin lane, as parameter 1 would.
    x = parse("split:20 ; +reply:20 ; -in:1.get ; out.set:T ; !")
    assert truth_table(x, 1, splitting=True).values == per_vector_values(x, 1, splitting=True) == (True, True)


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
    values = truth_table(x, n, splitting=True).values
    assert values == (True,) * 2 ** (n - blocks) + (False,) * (2**n - 2 ** (n - blocks))


@pytest.mark.parametrize("n", range(3))
def test_unreached_actions_after_every_branch_ends(n):
    # Every branch of every vector terminates at once; the sweep skips the
    # 10^5 empty action slots after them.
    x = parse("+split:1 ; ! ; ! ; " + " ; ".join(["in:1.get"] * 10**5) + " ; !")
    assert truth_table(x, n, splitting=True).values == per_vector_values(x, n, splitting=True) == (False,) * 2**n


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
    assert truth_table(x, n).values == per_vector_values(x, n) == values


def test_forking_table_with_dead_lanes_at_n_12():
    # The split widens the lanes past the 2^12 vectors; half the vectors
    # deadlock in one branch.
    n = 12
    x = parse("+in:1.get ; split:1 ; +in:12.get ; #3 ; +reply:1 ; #0 ; -in:6.get ; out.set:T ; !")
    values = truth_table(x, n, splitting=True).values
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


# --- tables and register banks against the reference executors, n = 0..12 -----------------


def reference_values(x, n, splitting=False):
    """The table from ``tests/util.reference_run``, or from ``queue_runner`` for forking code."""
    values = []
    for v in vectors(n):
        outcome = (queue_runner if splitting else reference_run)(x, v)[0]
        values.append(outcome.registers.out if isinstance(outcome, Terminated) else None)
    return tuple(values)


def assert_table_as_reference(x, n, splitting=False):
    table = truth_table(x, n, splitting)
    values = table.values
    assert type(values) is tuple and all(v is None or type(v) is bool for v in values)
    assert values == reference_values(x, n, splitting), f"{x} at n={n}"
    assert_table_readers(table, values)
    return values


# All-dead and mixed-dead tables; aux registers read before any write; input
# reads and writes past n (unserved where n is small).
REGISTER_TABLE_CASES = [
    "#0",
    "out.set:T ; #0",
    "+in:1.get ; #0 ; #9 ; !",
    "+in:1.get ; #2 ; #0 ; out.set:T ; !",
    "-in:3.get ; #0 ; +in:2.get ; out.set:T ; !",
    "+in:1.get ; -in:2.get ; #0 ; +in:3.get ; out.set:T ; !",
    "+aux:1.get ; out.set:T ; -aux:2.get ; #0 ; !",
    "+aux:3.get ; #2 ; aux:3.set:T ; +aux:3.get ; out.set:T ; !",
    "+in:1.get ; aux:2.set:T ; +aux:1.get ; #0 ; +aux:2.get ; out.set:T ; !",
    "in:3.set:T ; +in:3.get ; out.set:T ; !",
    "-in:2.set:F ; #0 ; +in:2.get ; out.set:T ; +in:13.get ; !",
    "+in:12.get ; out.set:T ; -in:13.get ; !",
]
SPLITTING_TABLE_CASES = [
    "#0",
    "split:1 ; #0 ; !",
    "+split:1 ; #0 ; out.set:T ; !",
    "+in:1.get ; split:1 ; +reply:1 ; #0 ; out.set:T ; !",
    "split:1 ; +reply:1 ; +in:3.get ; out.set:T ; !",
    "split:1 ; +reply:1 ; ! ; +in:13.get ; out.set:T ; !",
    "+in:2.get ; split:2 ; -reply:2 ; +in:12.get ; out.set:T ; !",
]


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("text", REGISTER_TABLE_CASES)
def test_register_tables_match_the_reference_run(text, n):
    assert_table_as_reference(parse(text), n)


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("text", SPLITTING_TABLE_CASES)
def test_forking_tables_match_the_queue_runner(text, n):
    assert_table_as_reference(parse(text), n, splitting=True)


def test_tables_that_are_all_dead():
    for n in range(13):
        assert lane_values(parse("#0"), n) == lane_values(parse("split:1 ; #0 ; !"), n, True) == (0, (1 << 2**n) - 1)
        assert truth_table(parse("#0"), n).render() == "?" * 2**n


@pytest.mark.parametrize("n", range(4))
def test_forking_runs_that_read_past_n_fall_back_to_the_queue_runner(n):
    # The first read past n stops the run: its reason and its step count are
    # those of the queue order.
    for text in SPLITTING_TABLE_CASES + ["split:1 ; split:2 ; +reply:2 ; in:5.get ; in:4.get ; !"]:
        x = parse(text)
        for v in vectors(n):
            outcome, steps = run_splitting_with_steps(x, v)
            assert (outcome, steps) == queue_runner(x, v), f"{text} on {v}"
            if classify(x).max_input_index > n and isinstance(outcome, Divergent):
                assert outcome.reason.startswith("unserved focus in:")


# Forking tables whose splits widen the lanes past the 2^n vectors, once or
# several times, with every input read after the widening.
WIDENING_CASES = [
    "split:1 ; split:2 ; split:3 ; " + " ; ".join(f"-in:{j}.get ; +reply:{1 + j % 3} ; #2 ; out.set:T" for j in range(1, 13)) + " ; !",
    "+in:1.get ; split:1 ; +in:12.get ; #3 ; +reply:1 ; #0 ; -in:6.get ; out.set:T ; !",
    "split:1 ; +reply:1 ; #4 ; split:2 ; +reply:2 ; #0 ; " + " ; ".join(f"+in:{j}.get" for j in range(1, 13)) + " ; out.set:T ; !",
]


@pytest.mark.parametrize("n", (1, 5, 10, 12))
@pytest.mark.parametrize("text", WIDENING_CASES, ids=["three-splits-then-reads", "split-between-reads", "two-splits-then-reads"])
def test_tables_that_widen(text, n):
    assert_table_as_reference(parse(text), n, splitting=True)


def test_seeded_tables_that_widen_at_n_10_to_12():
    rng = random.Random(2527)
    extra = random.Random(2528)  # draws ended and guarded, for tables with dead and live entries
    mixed_tables = 0
    for n in (10, 11, 12):
        kept = []
        for _ in range(2):
            x = gen_sisbr(rng, 40, n, max_splits=4)
            assert_table_as_reference(x, n, splitting=True)
            kept.append(x)
        for i in range(4):
            x = ended_and_guarded(gen_sisbr(extra, 40, n, max_splits=4), i % 2)
            values = assert_table_as_reference(x, n, splitting=True)
            mixed_tables += None in values and len(set(values)) > 1
            kept.append(x)
        # The lanes widen past 2^n where some vector's run takes a split.
        assert any(reaches_split(x, v) for x in kept for v in product((False, True), repeat=n)), n
    assert mixed_tables


def test_reaches_split_on_the_vectors_whose_run_splits():
    # in:1 True jumps over the split.  A re-split deadlocks with no turn,
    # as the #0 put in the first split's place does, one turn sooner.
    x = parse("+in:1.get ; #3 ; split:1 ; split:1 ; in:1.get ; !")
    assert not reaches_split(x, (True,)) and reaches_split(x, (False,))
    assert reaches_split(parse("split:1 ; split:1 ; in:1.get ; #0"), ())


def test_the_kept_table_follows_arity_and_mode():
    # Input reads, out.set:T and ! only, so both modes tabulate it; in:3 is
    # unserved at n = 2.  Each call must give a fresh sequence's masks.
    text = "-in:1.get ; out.set:T ; +in:2.get ; ! ; +in:3.get ; out.set:T ; !"
    x = parse(text)
    for n, splitting in ((2, False), (3, True), (2, True), (3, False), (3, True), (2, False)):
        table = truth_table(x, n, splitting)
        fresh = truth_table(parse(text), n, splitting)
        assert (table.out, table.dead) == (fresh.out, fresh.dead), (n, splitting)
        assert lane_values(x, n, splitting) == lane_values(parse(text), n, splitting)
    assert len(set(truth_table(x, 2).values)) == 3 and truth_table(x, 3).is_total


def test_a_kept_table_passes_no_check():
    forking = parse("split:1 ; +reply:1 ; -in:1.get ; out.set:T ; !")
    assert lane_values(forking, 1, splitting=True) == (0b11, 0)
    with pytest.raises(ValueError, match="use run_splitting$"):
        lane_values(forking, 1)
    assert check_splitting_computes(forking, TruthTable(1, (True, True)))
    assert not check_splitting_computes(forking, TruthTable(1, (False, True)))
    register = parse("+in:1.get ; aux:1.set:T ; +aux:1.get ; out.set:T ; !")
    assert check_computes(register, TruthTable(1, (False, True)))
    with pytest.raises(ValueError, match="^run_splitting requires "):
        lane_values(register, 1, splitting=True)
    with pytest.raises(ResourceBoundError, match=f"more than 2\\^{MAX_TABLE_ARITY}$"):
        lane_values(register, MAX_TABLE_ARITY + 1)
    with pytest.raises(ValueError, match="^arity must be >= 0, got -1$"):
        lane_values(register, -1)
    assert not check_computes(register, TruthTable(1, (True, True)))
    with pytest.raises(ValueError, match="undefined entries"):
        check_computes(register, TruthTable(1, (None, True)))
    assert check_computes(register, TruthTable(1, (False, True)))


def test_aux_bound():
    x = parse(f"aux:{MAX_AUX_INDEX}.set:T ; +aux:{MAX_AUX_INDEX}.get ; out.set:T ; !")
    assert assert_table_as_reference(x, 1) == (True, True)
    index = MAX_AUX_INDEX + 1
    message = f"^resource bound exceeded: aux:{index} is past the {MAX_AUX_INDEX} auxiliary registers of a run$"
    for text in (f"+aux:{index}.get ; !", f"in:1.get ; aux:{index}.set:T ; !", f"#0 ; aux:{index}.get"):
        with pytest.raises(ResourceBoundError, match=message):
            lane_values(parse(text), 1)
        with pytest.raises(ResourceBoundError, match=message):
            check_computes(parse(text), TruthTable(1, (False, True)))


def test_arity_bound_at_the_split_that_widens():
    with pytest.raises(ResourceBoundError, match=f"the split at position 2 needs .* lanes, more than 2\\^{MAX_TABLE_ARITY}$"):
        lane_values(parse("+in:1.get ; split:1 ; !"), MAX_TABLE_ARITY, splitting=True)
