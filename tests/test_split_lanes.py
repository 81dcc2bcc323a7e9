"""Forking runs by lane sweep (`run_splitting_with_steps`) against the queue executor and the algebra.

`queue_runner` is the round-robin reference: its step count is the number of
action turns over all branches.  The lane runner must give the same
``(outcome, steps)`` pair, compared with ``==``, on every input.
"""

import random
import sys
import threading
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from boolseq import services
from boolseq.instr import KIND_JUMP, KIND_OUT, KIND_SPLIT, SET_TRUE, ResourceBoundError, actions, classify, parse
from boolseq.lab import truth_table
from boolseq.satc import _assignments, build_satc_splitter, ndisj
from boolseq.services import (
    MAX_TABLE_ARITY,
    Deadlocked,
    Divergent,
    RegisterFile,
    Terminated,
    input_masks,
    lane_sweep,
    run,
)
from boolseq.splitting import queue_runner, run_splitting_with_steps
from boolseq.transforms import to_splitting

from util import (
    algebraic_splitting_outcome,
    assert_table_readers,
    bench_workloads,
    ended_and_guarded,
    first_reads,
    gen_isbr,
    gen_sisbr,
    lane_mask,
    outcome_matches_service,
)


ACCEPTED = Terminated(RegisterFile((), {}, True))
ACCEPTED_IN_TRUE = Terminated(RegisterFile((True,), {}, True))
ACCEPTED_IN_FALSE = Terminated(RegisterFile((False,), {}, True))


def vectors(n):
    return [tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n)) for idx in range(2**n)]


def split_params(x):
    """The distinct parameters that ``x`` splits on."""
    return {slot for kind, slot, *_ in x._moves if kind == KIND_SPLIT}


def assert_runs_agree(x, inputs_list, algebra=False):
    for inputs in inputs_list:
        got = run_splitting_with_steps(x, inputs)
        assert got == queue_runner(x, inputs), f"{x} on {inputs}"
        if algebra:
            assert outcome_matches_service(got[0], algebraic_splitting_outcome(x, inputs)), f"{x} on {inputs}"


# In this alphabet -in:2.get is an unserved read at n <= 1, which the lane
# runner hands to the queue executor.
SPLITTING_ALPHABET = (
    "!", "#0", "#2", "in:1.get", "-in:2.get", "out.set:T", "split:1", "+split:1",
    "-split:2", "reply:1", "+reply:2", "-reply:1",
)


def test_every_short_sequence():
    for length in range(1, 4):
        for combo in product(SPLITTING_ALPHABET, repeat=length):
            x = parse(" ; ".join(combo))
            for n in range(3):
                assert_runs_agree(x, vectors(n), algebra=True)


def test_seeded_random_sequences():
    rng = random.Random(4040)
    checked = 0
    while checked < 400:
        n = rng.randint(0, 4)
        x = gen_sisbr(rng, 14, n + rng.randint(0, 1), max_splits=4, max_params=4)
        if not classify(x).is_sisbr:
            continue
        checked += 1
        # The algebraic route interleaves every branch, so it gets short inputs.
        assert_runs_agree(x, vectors(n), algebra=n <= 2 and len(x) <= 8)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_family_splitters(k):
    # One vector gives every lane the same reply at each input read, so the
    # sweep chases the lanes through the clause selectors' reads.  The lane
    # runner builds its input lanes from the vector's bytes, so a list and
    # 0/1 ints must run as the queue runs the tuple.
    rng = random.Random(50 + k)
    n = ndisj(k)
    x = build_satc_splitter(n)
    assert len(split_params(x)) == k
    batch = [tuple(rng.random() < d for _ in range(n)) for d in (0.02, 0.1, 0.3) * 4]
    batch += [(False,) * n, (True,) * n]
    batch += [tuple(rng.random() < d for _ in range(n)) for d in (0.01, 0.05, 0.2, 0.5) * 3]
    for bits in batch:
        want = queue_runner(x, bits)
        for inputs in (bits, list(bits), tuple(map(int, bits))):
            assert run_splitting_with_steps(x, inputs) == want, (inputs, x)
    # With every clause deselected the run reads every selector, so a vector
    # one short reads past n, and the queue runner takes the run over.
    short = (False,) * (n - 1)
    got = run_splitting_with_steps(x, short)
    assert got == queue_runner(x, short) and got[0] == Divergent(f"unserved focus in:{n}")


def test_the_index_tuple_grows_to_the_longest_sweep(monkeypatch):
    # From an empty tuple: a short sweep builds it, a longer one regrows it,
    # and a shorter one after both reuses it.  Every run is the reference's.
    monkeypatch.setattr(services, "_slots", ())
    rng = random.Random(2801)
    splitters = {k: build_satc_splitter(ndisj(k)) for k in (2, 4, 3)}
    for k, x in splitters.items():
        for density in (0, 0.05, 0.5):
            bits = tuple(rng.random() < density for _ in range(ndisj(k)))
            assert run_splitting_with_steps(x, bits) == queue_runner(x, bits), (k, bits)
    slot_count = len(actions(splitters[4])[0]) + 1
    assert slot_count > 256
    assert services._slots == tuple(range(2 * slot_count))


def test_the_index_tuple_grows_safely_under_threads(monkeypatch):
    # Two threads run sequences of different lengths from an empty tuple at
    # once, with the interpreter switching threads as often as it can: a
    # sweep that sees another's shorter tuple regrows it, but none may walk
    # past a slot or read a slot under the wrong index.
    rng = random.Random(2802)
    work = [
        [(x, bits) for x in (build_satc_splitter(ndisj(k)) for k in (1, 2, 3, 4))
         for bits in (tuple(rng.random() < d for _ in range(ndisj(4))) for d in (0, 0.05))],
        [(x, tuple(rng.random() < 0.5 for _ in range(4))) for x in (gen_sisbr(rng, length, 4) for length in range(4, 400, 12))],
    ]
    want = [[queue_runner(x, bits) for x, bits in pairs] for pairs in work]
    monkeypatch.setattr(services, "_slots", ())
    failures = []

    def run_all(pairs, expected):
        for (x, bits), outcome in zip(pairs, expected):
            if run_splitting_with_steps(x, bits) != outcome:
                failures.append((x, bits))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run_all, args=args) for args in zip(work, want)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not failures
    assert services._slots == tuple(range(len(services._slots)))


# The chase follows one reply through up to 10^4 reads in a row, and each
# chain ends in the one thing after it that is not such a read.
CHAIN_ENDS = {
    "!": (ACCEPTED_IN_TRUE, 0),
    "#5": (Deadlocked(), 0),
    "in:2.get": (Divergent("unserved focus in:2"), 1),
    "-reply:1": (Deadlocked(), 0),
}


@pytest.mark.parametrize("end", sorted(CHAIN_ENDS))
@pytest.mark.parametrize("read", ["in:1.get", "+in:1.get", "-in:1.get"])
def test_uniform_read_chain_of_10_4(read, end):
    # One branch writes out, then reads in:1 (True) 10^4 times.
    x = parse(f"out.set:T ; {' ; '.join([read] * 10**4)} ; {end}")
    outcome, extra = CHAIN_ENDS[end]
    # A -in:1.get skips the read after it: the chain visits every other read.
    reads = 10**4 // 2 if read == "-in:1.get" else 10**4
    assert run_splitting_with_steps(x, (True,)) == queue_runner(x, (True,)) == (outcome, 1 + reads + extra)


def test_uniform_read_chain_on_every_branch():
    # Four branches, two with the guess for parameter 1 True, read in:1
    # 10^4 times each and reach the write together.
    x = parse(f"split:1 ; split:2 ; {' ; '.join(['+in:1.get'] * 10**4)} ; +reply:1 ; out.set:T ; !")
    got = run_splitting_with_steps(x, (True,))
    assert got == queue_runner(x, (True,)) == (ACCEPTED_IN_TRUE, 3 + 4 * 10**4 + 4 + 2)


def test_uniform_reads_after_a_deadlocking_jump():
    # The chase hands the lanes to action 0 where a jump chain deadlocks.
    x = parse("split:1 ; in:1.get ; #1 ; in:1.get ; #0 ; out.set:T ; !")
    assert run_splitting_with_steps(x, (False,)) == queue_runner(x, (False,)) == (Deadlocked(), 1 + 2 * 2)


def test_unreached_actions_after_every_branch_ends():
    # Both branches terminate at once; the sweep skips the 10^5 empty action
    # slots after them, and in:1 is never read.
    x = parse("+split:1 ; ! ; ! ; " + " ; ".join(["in:1.get"] * 10**5) + " ; !")
    for inputs in [(), (True,), (False,)]:
        assert run_splitting_with_steps(x, inputs) == queue_runner(x, inputs) == (Terminated(RegisterFile(inputs, {}, False)), 1)


@pytest.mark.parametrize("n", range(4))
def test_first_read_of_each_input(n):
    for x in first_reads(n):
        assert_runs_agree(x, vectors(n))


def run_values(x, n):
    """The table of register code as ``run`` gives it, one vector at a time."""
    outcomes = (run(x, v) for v in vectors(n))
    return tuple(outcome.registers.out if isinstance(outcome, Terminated) else None for outcome in outcomes)


def _table_steps(x, n):
    """The action turns of a table's sweep: those of every vector's forking run."""
    return lane_sweep(x, 1 << n, [0, *(lane_mask(n - slot, 1 << n) for slot in range(1, n + 1))])[3]


@pytest.mark.parametrize("n", range(13))
def test_input_masks_against_the_lanes_one_at_a_time(n):
    # One builder of input lanes serves tables and satisfiability: satc's
    # v_j is lane bit j - 1, the inputs' masks in reverse order.
    lanes = 1 << n
    masks = [lane_mask(bit, lanes) for bit in range(n)]
    assert input_masks(n, n) == [0, *reversed(masks)]
    assert input_masks(n, n // 2) == input_masks(n, n)[: n // 2 + 1]
    assert _assignments(n) == ((1 << lanes) - 1, (0, *masks))


REREAD_CASES = (
    "+in:1.get ; in:2.get ; +in:1.get ; out.set:T ; -in:1.get ; ! ; in:1.get ; out.set:T ; !",
    "-in:1.get ; #3 ; +in:2.get ; in:1.get ; +in:1.get ; +in:2.get ; out.set:T ; !",
    "+in:1.get ; +in:2.get ; +in:1.get ; +in:2.get ; out.set:T ; !",
    "aux:1.set:T ; +aux:1.get ; -in:1.get ; +aux:1.get ; out.set:T ; +in:1.get ; !",
)


@pytest.mark.parametrize("text", REREAD_CASES)
def test_tables_that_reread_a_splitting_input(text):
    x = parse(text)
    assert truth_table(x, 2).values == run_values(x, 2)


def test_seeded_tables_that_reread_inputs():
    # Two inputs and up to 24 instructions: most reads re-read an input
    # whose earlier read already split the lanes.
    rng = random.Random(6060)
    for _ in range(300):
        n = rng.randint(1, 2)
        x = gen_isbr(rng, 24, n, max_aux=1)
        assert truth_table(x, n).values == run_values(x, n), f"{x} at n={n}"
    mixed = 0
    for i in range(300):
        n = rng.randint(1, 2)
        x = gen_sisbr(rng, 24, n, max_splits=3, max_params=2)
        # Each draw also ended and guarded, for tables with dead and live entries.
        for y in (x, ended_and_guarded(x, i % 2)):
            queued = [queue_runner(y, v) for v in vectors(n)]
            want = tuple(outcome.registers.out if isinstance(outcome, Terminated) else None for outcome, _ in queued)
            assert truth_table(y, n, splitting=True).values == want, f"{y} at n={n}"
            assert _table_steps(y, n) == sum(steps for _, steps in queued), f"{y} at n={n}"
        mixed += None in want and len(set(want)) > 1
    assert mixed


@pytest.mark.parametrize("n", range(13))
def test_seeded_table_readers_against_the_per_vector_runs(n):
    # Every reader of a table (its masks, render, is_total, lookup, == and
    # the hash) against the entries that run gives for register code and
    # queue_runner for forking code.  Dead entries come from #0, moves past
    # the end, unserved reads, re-splits and replies before a split.  The
    # forking sequences end in out.set:T ; ! rather than falling off the end,
    # every other one deadlocks where in:1 is True, and the draws go on past
    # the fourth until a forking table has both dead and live entries.
    rng = random.Random(2600 + n)
    mixed = False
    for i in range(40):
        x = gen_isbr(rng, 16, n + 1, max_aux=1)
        assert_table_readers(truth_table(x, n), run_values(x, n))
        x = ended_and_guarded(gen_sisbr(rng, 16, n + 1, max_splits=3, max_params=2), i % 2)
        queued = [queue_runner(x, v)[0] for v in vectors(n)]
        want = tuple(outcome.registers.out if isinstance(outcome, Terminated) else None for outcome in queued)
        assert_table_readers(truth_table(x, n, splitting=True), want)
        mixed = mixed or None in want and len(set(want)) > 1
        if i >= 3 and (mixed or n == 0):
            break
    assert mixed or n == 0


@pytest.mark.parametrize("params", [11, 12, 13])
def test_split_parameter_bound(params):
    # A branch whose guess for parameter 1 is False, or whose in:1 is False,
    # writes out.
    forks = " ; ".join(f"split:{p}" for p in range(1, params + 1))
    x = parse(f"{forks} ; +reply:1 ; -in:1.get ; out.set:T ; !")
    assert len(split_params(x)) == params
    assert_runs_agree(x, vectors(1))
    # 2^params - 1 forks, then per leaf a reply and a read or a write, and
    # with in:1 False a write after the read where the guess is True.
    forks_taken = 2**params - 1
    assert run_splitting_with_steps(x, (True,)) == (ACCEPTED_IN_TRUE, forks_taken + 2 * 2**params)
    assert run_splitting_with_steps(x, (False,)) == (ACCEPTED_IN_FALSE, forks_taken + 5 * 2 ** (params - 1))


def test_chain_of_distinct_parameters():
    # Each +split:p continues only on its False branch: 24 parameters, one
    # live branch, 24 forks and a write.
    x = parse(" ; ".join(f"+split:{p} ; !" for p in range(1, 25)) + " ; out.set:T ; !")
    assert len(split_params(x)) == 24
    assert run_splitting_with_steps(x, ()) == queue_runner(x, ()) == (ACCEPTED, 25)


def test_every_branch_of_24_parameters():
    # 2^24 - 1 forks and 2^24 writes fill the lane index space exactly.
    x = parse(" ; ".join(f"split:{p}" for p in range(1, 25)) + " ; out.set:T ; !")
    assert run_splitting_with_steps(x, ()) == (ACCEPTED, 2**25 - 1)


def test_25_parameters_exceed_the_lane_bound():
    x = parse(" ; ".join(f"split:{p}" for p in range(1, 26)) + " ; out.set:T ; !")
    with pytest.raises(ResourceBoundError, match=f"resource bound exceeded: the split at position 25 needs .* lanes, more than 2\\^{MAX_TABLE_ARITY}"):
        run_splitting_with_steps(x, ())


def test_the_lane_bound_names_the_position_of_the_split():
    # With a jump before each split, the 25th split is action 25 but
    # position 50 of the sequence.
    x = parse(" ; ".join(f"#1 ; split:{p}" for p in range(1, 26)) + " ; out.set:T ; !")
    with pytest.raises(ResourceBoundError, match="the split at position 50 needs "):
        run_splitting_with_steps(x, ())


def test_queue_runner_step_budget():
    # Control only moves forward, so no sequence reaches the budget; row
    # templates with a jump back to the write do.
    x = parse("out.set:T ; !")
    x.__dict__["_moves"] = ((KIND_OUT, 0, SET_TRUE, 1, 1), (KIND_JUMP, 0, None, -1, -1))
    with pytest.raises(ResourceBoundError, match="splitting executor exceeded its step budget"):
        queue_runner(x, ())


@pytest.mark.parametrize("length", [200, 400, 1000, 3000])
def test_to_splitting_tables_of_long_write_linear_code(length):
    # One fresh parameter per write: 25 to 375 parameters, a lane per branch.
    x = bench_workloads().write_linear_sequence(random.Random(length), length, 3, 2)
    y = to_splitting(x)
    assert len(split_params(y)) == length // 8
    assert truth_table(y, 3, splitting=True) == truth_table(x, 3)


# --- property test -----------------------------------------------------------------------

FORMS = ("", "+", "-")
SPLITTING_BASICS = (
    "in:1.get", "in:2.get", "in:3.get", "out.set:T", "split:1", "split:2", "split:3",
    "reply:1", "reply:2", "reply:3",
)


def instructions():
    return st.one_of(
        st.just("!"),
        st.integers(0, 6).map(lambda d: f"#{d}"),
        st.tuples(st.sampled_from(FORMS), st.sampled_from(SPLITTING_BASICS)).map("".join),
    )


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(instructions(), min_size=1, max_size=16),
    inputs=st.lists(st.booleans(), max_size=3).map(tuple),
)
def test_property_lane_runner_matches_queue(items, inputs):
    x = parse(" ; ".join(items))
    assert classify(x).is_sisbr
    assert_runs_agree(x, [inputs])
