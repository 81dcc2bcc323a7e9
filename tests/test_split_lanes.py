"""Forking runs by lane sweep (`run_splitting_with_steps`) against the queue executor and the algebra.

`queue_runner` is the round-robin reference: its step count is the number of
action turns over all branches.  The lane runner must give the same
``(outcome, steps)`` pair, compared with ``==``, on every input.
"""

import importlib.util
import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from boolseq import splitting
from boolseq.instr import KIND_OUT, KIND_SPLIT, SET_TRUE, ResourceBoundError, classify, decode, parse
from boolseq.lab import truth_table
from boolseq.satc import build_satc_splitter, ndisj
from boolseq.services import MAX_TABLE_ARITY, RegisterFile, Terminated
from boolseq.splitting import queue_runner, run_splitting_with_steps
from boolseq.transforms import to_splitting

from util import algebraic_splitting_outcome, gen_sisbr, outcome_matches_service


ACCEPTED = Terminated(RegisterFile((), {}, True))
ACCEPTED_IN_TRUE = Terminated(RegisterFile((True,), {}, True))
ACCEPTED_IN_FALSE = Terminated(RegisterFile((False,), {}, True))


def vectors(n):
    return [tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n)) for idx in range(2**n)]


def split_params(x):
    """The distinct parameters that ``x`` splits on."""
    return {slot for kind, slot, *_ in decode(x) if kind == KIND_SPLIT}


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_splitters(k):
    rng = random.Random(50 + k)
    x = build_satc_splitter(ndisj(k))
    assert len(split_params(x)) == k
    assert_runs_agree(x, [tuple(rng.random() < d for _ in range(ndisj(k))) for d in (0.02, 0.1, 0.3) * 4])


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


def test_queue_runner_step_budget(monkeypatch):
    # Decoded control only moves forward, so no sequence reaches the budget;
    # a row that leads back to itself does.
    monkeypatch.setattr(splitting, "decode", lambda x: ((KIND_OUT, 0, SET_TRUE, 1, 1),))
    x = parse("out.set:T ; !")
    with pytest.raises(ResourceBoundError, match="splitting executor exceeded its step budget"):
        queue_runner(x, ())


def _bench_workloads():
    """The benchmark's workload module, for its generators."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("length", [200, 400, 1000, 3000])
def test_to_splitting_tables_of_long_write_linear_code(length):
    # One fresh parameter per write: 25 to 375 parameters, a lane per branch.
    x = _bench_workloads().write_linear_sequence(random.Random(length), length, 3, 2)
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
