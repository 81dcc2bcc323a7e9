"""Register semantics, the use/apply operators, and the register executor."""

import random
from itertools import product

import pytest

from boolseq.compilers import Circuit, GateRef, InputRef, NotGate, compile_circuit, compile_cnf, compile_formula
from boolseq.instr import (
    GET,
    METHODS,
    OUT,
    SET_FALSE,
    SET_TRUE,
    TERM,
    AuxReg,
    InReg,
    InstructionSequence,
    Jump,
    NegTest,
    Plain,
    PosTest,
    RegisterOp,
    ResourceBoundError,
    classify,
    parse,
    render,
)
from boolseq.lab import TruthTable
from boolseq.services import (
    DIVERGENT,
    MAX_AUX_INDEX,
    BoolRegister,
    Deadlocked,
    Divergent,
    RegisterFile,
    RegState,
    Terminated,
    apply,
    check_computes,
    parse_input_bits,
    register_step,
    run,
    run_with_steps,
    use,
)
from boolseq.threads import DEAD, STOP, PostCond, Tau
from boolseq.transforms import (
    behavioural_normalize,
    collapse_jump_chains,
    eliminate_output_false,
    normalize_set_tests,
)

from util import (
    algebraic_outcome,
    gen_circuit,
    gen_cnf,
    gen_formula,
    gen_isbr,
    outcome_matches_service,
    reference_run,
)

IN1 = InReg(1)
IN1_GET = RegisterOp(IN1, GET)
T, F, B = RegState.TRUE, RegState.FALSE, RegState.BLOCKED


def test_register_step_set_true():
    assert register_step(F, SET_TRUE) == (T, T)


def test_register_step_get_replies_contents():
    assert register_step(T, GET) == (T, T)
    assert register_step(F, GET) == (F, F)


def test_register_step_blocked_absorbs():
    assert register_step(B, GET) == (B, B)
    assert register_step(B, SET_TRUE) == (B, B)


def test_register_step_unknown_method_blocks():
    assert register_step(T, "bogus") == (B, B)


def test_use_terminal_cases():
    assert use(STOP, IN1, BoolRegister(T)) == STOP
    assert use(DEAD, IN1, BoolRegister(T)) == DEAD


def test_use_processes_matching_action():
    t = PostCond(IN1_GET, STOP, DEAD)
    assert use(t, IN1, BoolRegister(T)) == Tau(STOP)
    assert use(t, IN1, BoolRegister(F)) == Tau(DEAD)


def test_use_divergent_service_deadlocks():
    assert use(PostCond(IN1_GET, STOP, DEAD), IN1, DIVERGENT) == DEAD


def test_use_blocked_reply_deadlocks():
    assert use(PostCond(IN1_GET, STOP, DEAD), IN1, BoolRegister(B)) == DEAD


def test_use_leaves_other_foci_in_place():
    t = PostCond(IN1_GET, STOP, DEAD)
    result = use(t, InReg(2), BoolRegister(T))
    assert isinstance(result, PostCond) and result.action == IN1_GET


def test_use_tracks_register_state():
    # Read after a set of the same register sees the written value.
    inner = PostCond(RegisterOp(AuxReg(1), GET), STOP, DEAD)
    t = PostCond(RegisterOp(AuxReg(1), SET_TRUE), inner, inner)
    assert use(t, AuxReg(1), BoolRegister(F)) == Tau(Tau(STOP))


def test_apply_terminal_cases():
    assert apply(STOP, OUT, BoolRegister(F)) == BoolRegister(F)
    assert apply(DEAD, OUT, BoolRegister(F)) is DIVERGENT


def test_apply_foreign_focus_diverges():
    assert apply(PostCond(IN1_GET, STOP, STOP), OUT, BoolRegister(F)) is DIVERGENT


def test_apply_processes_write():
    t = PostCond(RegisterOp(OUT, SET_TRUE), STOP, STOP)
    assert apply(t, OUT, BoolRegister(F)) == BoolRegister(T)


def test_apply_skips_internal_steps():
    assert apply(Tau(Tau(STOP)), OUT, BoolRegister(T)) == BoolRegister(T)


def test_run_set_and_terminate():
    outcome = run(parse("out.set:T ; !"), ())
    assert isinstance(outcome, Terminated) and outcome.registers.out is True


def test_run_zero_jump_deadlocks():
    assert run(parse("#0"), ()) == Deadlocked()


def test_run_negative_reply_skips():
    outcome = run(parse("+in:1.get ; out.set:T ; !"), (False,))
    assert isinstance(outcome, Terminated) and outcome.registers.out is False


def test_run_falls_off_the_end():
    assert run(parse("in:1.get"), (True,)) == Deadlocked()


def test_run_jump_past_end_deadlocks():
    assert run(parse("#3 ; ! ; !"), ()) == Deadlocked()


def test_run_unserved_input_diverges():
    outcome = run(parse("+in:5.get ; !"), (True,))
    assert isinstance(outcome, Divergent)


def test_run_rejects_split_reply():
    with pytest.raises(ValueError):
        run(parse("+split:1 ; !"), ())


def test_run_allows_writes_to_input_registers():
    outcome = run(parse("in:1.set:T ; +in:1.get ; out.set:T ; !"), (False,))
    assert isinstance(outcome, Terminated) and outcome.registers.out is True
    assert outcome.registers.inputs == (True,)


def test_run_aux_registers_default_false():
    outcome = run(parse("+aux:2.get ; out.set:T ; !"), ())
    assert isinstance(outcome, Terminated) and outcome.registers.out is False
    assert outcome.registers.aux == {1: False, 2: False}


def test_run_aux_index_at_the_bound():
    outcome, steps = run_with_steps(parse(f"aux:{MAX_AUX_INDEX}.set:T ; !"), ())
    assert steps == 2
    assert len(outcome.registers.aux) == MAX_AUX_INDEX and outcome.registers.aux[MAX_AUX_INDEX] is True


@pytest.mark.parametrize("index", [MAX_AUX_INDEX + 1, 10**20])
def test_run_aux_index_past_the_bound(index):
    # Checked before the register bank is allocated.
    with pytest.raises(ResourceBoundError, match=f"resource bound exceeded: aux:{index} is past the {MAX_AUX_INDEX} "):
        run(parse(f"+in:1.get ; aux:{index}.get ; !"), (False,))


def test_aux_bound_admits_compiled_circuits():
    # compile_circuit gives gate k register aux:k, and eliminate_output_false
    # adds one more; the benchmark compiles circuits of up to 2000 gates.
    gates = (NotGate(InputRef(1)), *(NotGate(GateRef(k)) for k in range(1, 2000)))
    x = eliminate_output_false(compile_circuit(Circuit(1, gates, 2000)))
    assert classify(x).max_aux_index == 2001 < MAX_AUX_INDEX
    # g2000 is in1 under 2000 negations.
    assert [run(x, (b,)).registers.out for b in (False, True)] == [False, True]


@pytest.mark.parametrize(
    "text, bits, outcome, steps",
    [
        ("in:1.get ; out.set:T ; !", "T", Terminated(RegisterFile((True,), {}, True)), 3),
        ("-in:1.get ; !", "F", Terminated(RegisterFile((False,), {}, False)), 2),
        # A bad jump is an executed instruction ...
        ("out.set:T ; #0", "", Deadlocked(), 2),
        ("out.set:T ; #5 ; !", "", Deadlocked(), 2),
        ("aux:2.set:T ; #1 ; +aux:2.get ; #0 ; out.set:T ; !", "", Deadlocked(), 4),
        # ... falling off the end is not.
        ("out.set:T", "", Deadlocked(), 1),
        ("+in:1.get ; !", "F", Deadlocked(), 1),
        ("in:1.get ; in:2.get ; !", "T", Divergent("unserved focus in:2"), 2),
    ],
)
def test_run_with_steps_pinned(text, bits, outcome, steps):
    assert run_with_steps(parse(text), parse_input_bits(bits)) == (outcome, steps)


def test_check_computes_constant_false():
    assert check_computes(parse("!"), TruthTable(1, (False, False)))


def test_check_computes_constant_true_zero_arity():
    assert check_computes(parse("out.set:T ; !"), TruthTable(0, (True,)))


def test_check_computes_deadlock_never_computes():
    assert not check_computes(parse("#0"), TruthTable(0, (False,)))
    assert not check_computes(parse("#0"), TruthTable(0, (True,)))


def test_check_computes_rejects_non_register_vocabulary():
    with pytest.raises(ValueError):
        check_computes(parse("in:1.set:T ; !"), TruthTable(1, (False, False)))


def test_run_agrees_with_algebraic_chain():
    rng = random.Random(37)
    for _ in range(400):
        n = rng.randint(0, 3)
        x = gen_isbr(rng, 8, n)
        for idx in range(2**n):
            inputs = tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))
            assert outcome_matches_service(run(x, inputs), algebraic_outcome(x, inputs)), (
                f"{x} on {inputs}"
            )


def test_run_agrees_with_algebraic_chain_on_input_writes():
    for text, inputs in (
        ("in:1.set:T ; +in:1.get ; out.set:T ; !", (False,)),
        ("in:1.set:F ; +in:1.get ; out.set:T ; !", (True,)),
        ("-in:2.set:F ; +in:2.get ; out.set:T ; ! ; !", (True, True)),
    ):
        x = parse(text)
        assert outcome_matches_service(run(x, inputs), algebraic_outcome(x, inputs))


# --- the offset walk against the rows loop --------------------------------------

# ``!``, ``#0``-``#3``, and every method of in:1, in:2, aux:1 and out in all
# three forms: run at n = 0..2, so reads of in:1 and in:2 go unserved too.
WALK_LETTERS = [TERM, *map(Jump, range(4))] + [
    form(RegisterOp(focus, method))
    for focus in (InReg(1), InReg(2), AuxReg(1), OUT)
    for method in METHODS
    for form in (Plain, PosTest, NegTest)
]


def assert_walks_as_reference(x, arities=range(3)):
    for n in arities:
        for inputs in product((False, True), repeat=n):
            assert run_with_steps(x, inputs) == reference_run(x, inputs), (render(x), inputs)


def test_run_matches_reference_on_every_short_sequence():
    for length in (1, 2, 3):
        for items in product(WALK_LETTERS, repeat=length):
            assert_walks_as_reference(InstructionSequence(items))


def test_run_matches_reference_on_generated_and_rewritten_code():
    rng = random.Random(1707)
    for _ in range(300):
        assert_walks_as_reference(gen_isbr(rng, 30, 3, max_aux=3), range(4))
    for _ in range(20):
        compiled = [
            compile_cnf(gen_cnf(rng, 4, 6)),
            compile_formula(gen_formula(rng, 4, 10)),
            compile_circuit(gen_circuit(rng, 4, 8)),
        ]
        for x in compiled:
            rewritten = [eliminate_output_false(x), collapse_jump_chains(x), behavioural_normalize(x)]
            for y in [x, normalize_set_tests(rewritten[0]), *rewritten]:
                assert_walks_as_reference(y, (4,))


def test_run_walks_a_long_jump_chain():
    # 10^5 positions: a #1 chain into ``!``, and one into a jump past the end.
    k = 10**5
    chain = (Jump(1),) * (k - 1)
    for last, outcome in ((TERM, Terminated(RegisterFile((), {}, False))), (Jump(2), Deadlocked())):
        x = InstructionSequence(chain + (last,))
        assert run_with_steps(x, ()) == reference_run(x, ()) == (outcome, k)



# --- the loop's exits: divergence, deadlock and the bound checks ---------------------


def test_run_input_past_n_diverges_at_every_place():
    # A read and a write of in:n+1 first, in the middle, last, after a jump
    # and after a skip: each diverges there, with that step counted.
    for n in range(4):
        slot = n + 1
        for op in (f"in:{slot}.get", f"+in:{slot}.get", f"-in:{slot}.get", f"in:{slot}.set:T", f"+in:{slot}.set:F"):
            for text, steps in (
                (f"{op} ; out.set:T ; !", 1),
                (f"aux:1.set:T ; {op} ; out.set:T ; !", 2),
                (f"aux:1.set:T ; out.set:T ; {op}", 3),
                (f"#2 ; ! ; {op} ; !", 2),
                (f"-aux:1.set:T ; ! ; {op}", 2),
            ):
                x = parse(text)
                for inputs in product((False, True), repeat=n):
                    want = (Divergent(f"unserved focus in:{slot}"), steps)
                    assert run_with_steps(x, inputs) == reference_run(x, inputs) == want, (text, inputs)


@pytest.mark.parametrize(
    "text, steps",
    [
        ("#0 ; !", 1),
        ("out.set:T ; #0 ; !", 2),
        ("out.set:T ; #0", 2),
        ("out.set:T ; #3 ; !", 2),
        ("out.set:T ; #2", 2),
        ("out.set:T ; #1", 2),
        ("out.set:T", 1),
        ("#1 ; out.set:T", 2),
        # A test at k whose skip lands two past the end.
        ("aux:1.set:T ; -aux:1.get", 2),
        ("+out.set:F", 1),
        ("aux:1.set:T ; -aux:1.set:T", 2),
    ],
)
def test_run_deadlock_exits(text, steps):
    x = parse(text)
    assert run_with_steps(x, ()) == reference_run(x, ()) == (Deadlocked(), steps)


def test_run_bound_errors_unchanged():
    with pytest.raises(ValueError, match=r"^sequence contains split/reply instructions; use run_splitting$"):
        run_with_steps(parse("in:1.get ; +reply:1 ; !"), (True,))
    index = MAX_AUX_INDEX + 1
    message = f"^resource bound exceeded: aux:{index} is past the {MAX_AUX_INDEX} auxiliary registers of a run$"
    with pytest.raises(ResourceBoundError, match=message):
        run_with_steps(parse(f"in:9.get ; aux:{index}.set:T ; !"), ())


def test_run_matches_reference_on_random_code_with_input_writes():
    # Register code that reads and writes inputs up to n + 2, writes aux and
    # out in every form, jumps anywhere and terminates at several places.
    rng = random.Random(2311)
    for n in range(5):
        basics = [
            RegisterOp(InReg(j), method) for j in range(1, n + 3) for method in METHODS
        ] + [RegisterOp(AuxReg(j), method) for j in (1, 2) for method in METHODS]
        basics += [RegisterOp(OUT, SET_TRUE), RegisterOp(OUT, SET_FALSE)]
        for _ in range(300):
            k = rng.randint(1, 20)
            items = []
            for _ in range(k):
                roll = rng.random()
                if roll < 0.1:
                    items.append(TERM)
                elif roll < 0.35:
                    items.append(Jump(rng.randint(0, k + 2)))
                else:
                    items.append(rng.choice((Plain, PosTest, NegTest))(rng.choice(basics)))
            x = InstructionSequence(tuple(items))
            for _ in range(3):
                inputs = tuple(rng.random() < 0.5 for _ in range(n))
                assert run_with_steps(x, inputs) == reference_run(x, inputs), (render(x), inputs)

def test_parse_input_bits():
    assert parse_input_bits("TFT") == (True, False, True)
    assert parse_input_bits("101") == (True, False, True)
    assert parse_input_bits("") == ()
    with pytest.raises(ValueError):
        parse_input_bits("TX")
