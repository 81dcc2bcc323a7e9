"""The jump-free view (`instr.actions`) and the lane sweep that reads it.

The references visit every position, jumps included: `queue_runner` for
forking runs and `run` for register runs.  The view itself is checked
against `util.reference_actions`, a chain-following walk over the rows of
`util.reference_decode`.
"""

from itertools import product

import pytest

from boolseq.instr import actions, classify, parse
from boolseq.lab import truth_table
from boolseq.services import Deadlocked, RegisterFile, Terminated, lane_values, run, run_with_steps
from boolseq.splitting import queue_runner, run_splitting_with_steps

from util import reference_actions


def vectors(n):
    return [tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n)) for idx in range(2**n)]


def table_entry(outcome):
    return outcome.registers.out if isinstance(outcome, Terminated) else None


# The fork/reply vocabulary in every form it takes here, and jumps #0 to #3:
# at length <= 3 they give chains, #0 and moves past the end at every
# position, re-splits, replies before a split and unserved reads of in:2.
FORK_ALPHABET = (
    "!", "#0", "#1", "#2", "#3", "in:1.get", "-in:2.get", "+out.set:T", "out.set:T",
    "split:1", "+split:1", "-split:2", "reply:1", "+reply:2", "-reply:1",
)


def test_every_short_sequence():
    for length in range(1, 4):
        for combo in product(FORK_ALPHABET, repeat=length):
            x = parse(" ; ".join(combo))
            assert actions(x) == reference_actions(x), x
            for n in range(3):
                runs = [queue_runner(x, v) for v in vectors(n)]
                for v, expected in zip(vectors(n), runs):
                    assert run_splitting_with_steps(x, v) == expected, f"{x} on {v}"
                assert lane_values(x, n, splitting=True) == tuple(table_entry(o) for o, _ in runs), f"{x} at n={n}"
                if not classify(x).max_param_index:
                    assert lane_values(x, n) == tuple(table_entry(run(x, v)) for v in vectors(n)), f"{x} at n={n}"


@pytest.mark.parametrize(
    "text, jumps", [("#0 ; out.set:T ; !", 1), ("#3 ; out.set:T ; !", 1), ("#1 ; #0 ; !", 2), ("#2 ; out.set:T ; #7 ; !", 2)]
)
def test_deadlock_before_the_first_action(text, jumps):
    x = parse(text)
    assert actions(x)[2] == 0
    for n in range(3):
        assert lane_values(x, n, splitting=True) == lane_values(x, n) == (None,) * 2**n
        for v in vectors(n):
            assert run_splitting_with_steps(x, v) == queue_runner(x, v) == (Deadlocked(), 0)
            assert run_with_steps(x, v) == (Deadlocked(), jumps)  # register runs count jumps as steps


@pytest.mark.parametrize(
    "text, where, targets, values",
    [
        ("+in:1.get ; #3 ; #1 ; #9 ; out.set:T ; !", (0, 1, 5, 6), (2, 0), (None, True)),
        ("split:1 ; +reply:1 ; #3 ; #1 ; #9 ; out.set:T ; !", (0, 1, 2, 6, 7), (3, 0), (None, None)),
    ],
)
def test_chains_that_end_past_the_end(text, where, targets, values):
    # A True reply jumps over the chain to out.set:T; a False one runs into
    # #1 ; #9, which moves past the end.
    x = parse(text)
    rows, got_where, entry = actions(x)
    assert (got_where, entry) == (where, 1)
    assert rows[-3][3:] == targets  # the test before out.set:T ; !
    for v in vectors(1):
        assert run_splitting_with_steps(x, v) == queue_runner(x, v)
    assert lane_values(x, 1, splitting=True) == tuple(table_entry(queue_runner(x, v)[0]) for v in vectors(1)) == values
    if "split" not in text:
        assert lane_values(x, 1) == tuple(table_entry(run(x, v)) for v in vectors(1)) == values


def test_chain_of_ten_thousand_jumps():
    x = parse(" ; ".join(["#1"] * 10_000 + ["+in:1.get", "out.set:T", "!"]))
    rows, where, entry = actions(x)
    assert (len(rows), where, entry) == (3, (0, 10_001, 10_002, 10_003), 1)
    for v, steps in (((True,), 2), ((False,), 1)):
        expected = (Terminated(RegisterFile(v, {}, v[0])), steps)
        assert run_splitting_with_steps(x, v) == queue_runner(x, v) == expected
    assert lane_values(x, 1, splitting=True) == lane_values(x, 1) == (False, True)
    assert truth_table(x, 1, splitting=True).values == (False, True)
