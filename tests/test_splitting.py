"""Cyclic interleaving, parameter instantiation, and the forking executor."""

import random

import pytest

from boolseq.instr import (
    GET,
    InReg,
    OUT,
    RegisterOp,
    ReplyOp,
    SET_TRUE,
    SplitOp,
    classify,
    parse,
)
from boolseq.services import Deadlocked, Divergent, RegisterFile, Terminated, parse_input_bits, run
from boolseq.splitting import (
    check_splitting_computes,
    csi,
    instantiate,
    queue_runner,
    run_splitting,
    run_splitting_with_steps,
)
from boolseq.lab import TruthTable
from boolseq.threads import DEAD, STOP, PostCond, Tau

from util import algebraic_splitting_outcome, deadlock_placements, gen_sisbr, outcome_matches_service

IN1_GET = RegisterOp(InReg(1), GET)
IN2_GET = RegisterOp(InReg(2), GET)


def test_instantiate_reply_selects_branch():
    t = PostCond(ReplyOp(1), STOP, DEAD)
    assert instantiate(1, True, t) == Tau(STOP)
    assert instantiate(1, False, t) == Tau(DEAD)


def test_instantiate_resplit_deadlocks():
    t = PostCond(SplitOp(1), STOP, DEAD)
    assert instantiate(1, True, t) == DEAD


def test_instantiate_terminals_and_other_params():
    assert instantiate(1, True, STOP) == STOP
    assert instantiate(1, True, DEAD) == DEAD
    other = PostCond(SplitOp(2), STOP, DEAD)
    assert instantiate(1, True, other) == other


def test_csi_empty_vector_terminates():
    assert csi(()) == STOP


def test_csi_drops_finished_thread():
    assert csi((STOP, PostCond(IN1_GET, STOP, STOP))) == csi((PostCond(IN1_GET, STOP, STOP),))


def test_csi_round_robin_of_two_actions():
    a = PostCond(IN1_GET, STOP, STOP)
    b = PostCond(IN2_GET, STOP, STOP)
    merged = csi((a, b))
    assert merged == PostCond(IN1_GET, PostCond(IN2_GET, STOP, STOP), PostCond(IN2_GET, STOP, STOP))


def test_csi_split_enqueues_instantiated_children():
    t = PostCond(SplitOp(1), PostCond(ReplyOp(1), STOP, DEAD), STOP)
    assert csi((t,)) == Tau(Tau(STOP))


def test_csi_uninstantiated_reply_poisons_termination():
    t = PostCond(ReplyOp(1), STOP, STOP)
    assert csi((t,)) == DEAD
    assert csi((t, STOP)) == DEAD


def test_csi_dead_thread_poisons_after_others_finish():
    other = PostCond(IN1_GET, STOP, STOP)
    assert csi((DEAD, other)) == PostCond(IN1_GET, DEAD, DEAD)


def test_run_splitting_fork_then_accept():
    outcome = run_splitting(parse("+split:1 ; ! ; out.set:T ; !"), ())
    assert isinstance(outcome, Terminated) and outcome.registers.out is True


def test_run_splitting_reply_before_split_deadlocks():
    assert run_splitting(parse("reply:1 ; !"), ()) == Deadlocked()


def test_run_splitting_without_splits_is_plain_execution():
    outcome = run_splitting(parse("out.set:T ; !"), ())
    assert isinstance(outcome, Terminated) and outcome.registers.out is True


def test_run_splitting_dead_branch_poisons_even_after_accept():
    outcome = run_splitting(parse("split:1 ; +reply:1 ; #0 ; out.set:T ; !"), ())
    assert outcome == Deadlocked()


def test_run_splitting_resplit_is_branch_death():
    outcome = run_splitting(parse("split:1 ; split:1 ; !"), ())
    assert outcome == Deadlocked()


def test_run_splitting_unserved_input_diverges():
    outcome = run_splitting(parse("split:1 ; +in:3.get ; ! ; !"), (True,))
    assert isinstance(outcome, Divergent)


def test_run_splitting_rejects_aux_vocabulary():
    with pytest.raises(ValueError):
        run_splitting(parse("aux:1.set:T ; !"), ())
    with pytest.raises(ValueError):
        run_splitting(parse("out.set:F ; !"), ())


ACCEPTED = Terminated(RegisterFile((), {}, True))


@pytest.mark.parametrize(
    "text, bits, outcome, steps",
    [
        ("+split:1 ; ! ; out.set:T ; !", "", ACCEPTED, 2),
        ("split:1 ; -reply:1 ; #2 ; out.set:T ; !", "", ACCEPTED, 4),
        ("split:1 ; +reply:1 ; #3 ; split:2 ; #1 ; +in:1.get ; out.set:T ; !", "T",
         Terminated(RegisterFile((True,), {}, True)), 10),
        # Jumps, good or bad, and falling off the end take no turn.
        ("#2 ; #0 ; out.set:T ; !", "", ACCEPTED, 1),
        ("#0", "", Deadlocked(), 0),
        ("out.set:T ; #5 ; !", "", Deadlocked(), 1),
        ("out.set:T", "", Deadlocked(), 1),
        ("split:1 ; split:1 ; !", "", Deadlocked(), 1),
        ("reply:1 ; !", "", Deadlocked(), 0),
        ("split:1 ; in:2.get ; !", "T", Divergent("unserved focus in:2"), 2),
    ],
)
def test_run_splitting_with_steps_pinned(text, bits, outcome, steps):
    assert run_splitting_with_steps(parse(text), parse_input_bits(bits)) == (outcome, steps)


def test_run_splitting_agrees_with_algebraic_chain():
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        n = rng.randint(0, 2)
        x = gen_sisbr(rng, 8, n, max_splits=3)
        if not classify(x).is_sisbr:
            continue
        checked += 1
        for idx in range(2**n):
            inputs = tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))
            assert outcome_matches_service(
                run_splitting(x, inputs), algebraic_splitting_outcome(x, inputs)
            ), f"{x} on {inputs}"


def test_queue_runner_agrees_with_algebraic_chain():
    # Every sequence is at most 8 long: the deadlock shapes among four or
    # six other instructions, and random ones.
    fillers = ["split:1 ; +reply:1 ; out.set:T ; !", "+in:1.get ; -split:2 ; in:1.get ; reply:2 ; out.set:T ; !"]
    sequences = [(x, 1) for filler in fillers for x in deadlock_placements(filler.split(" ; "))]
    rng = random.Random(2424)
    while len(sequences) < 330:
        n = rng.randint(0, 2)
        x = gen_sisbr(rng, 8, n, max_splits=3)
        if classify(x).is_sisbr:
            sequences.append((x, n))
    for x, n in sequences:
        for idx in range(2**n):
            inputs = tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))
            outcome, _ = queue_runner(x, inputs)
            assert outcome_matches_service(outcome, algebraic_splitting_outcome(x, inputs)), f"{x} on {inputs}"


def test_run_and_run_splitting_agree_on_common_vocabulary():
    rng = random.Random(43)
    checked = 0
    while checked < 200:
        n = rng.randint(0, 2)
        x = gen_sisbr(rng, 8, n, max_splits=0, max_params=1)
        profile = classify(x)
        if not (profile.is_sisbr and profile.is_isbr):
            continue
        checked += 1
        for idx in range(2**n):
            inputs = tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))
            left = run(x, inputs)
            right = run_splitting(x, inputs)
            if isinstance(left, Terminated):
                assert isinstance(right, Terminated)
                assert left.registers.out == right.registers.out
            else:
                assert type(left) is type(right)


def test_output_monotone_without_accepting_write():
    rng = random.Random(47)
    checked = 0
    while checked < 100:
        x = gen_sisbr(rng, 8, 1, max_splits=2)
        if not classify(x).is_sisbr:
            continue
        # A negative test of out.set:T still performs the write, so exclude all forms.
        if any(
            hasattr(u, "basic") and u.basic == RegisterOp(OUT, SET_TRUE) for u in x.items
        ):
            continue
        checked += 1
        for inputs in ((True,), (False,)):
            outcome = run_splitting(x, inputs)
            if isinstance(outcome, Terminated):
                assert outcome.registers.out is False


def test_check_splitting_computes():
    assert check_splitting_computes(
        parse("+split:1 ; ! ; out.set:T ; !"), TruthTable(0, (True,))
    )
    assert check_splitting_computes(parse("!"), TruthTable(2, (False,) * 4))
    assert not check_splitting_computes(parse("reply:1 ; !"), TruthTable(0, (True,)))
    assert not check_splitting_computes(parse("reply:1 ; !"), TruthTable(0, (False,)))
