"""Behaviour-tree extraction and the linear-size substitution representation."""

import copy
import pickle
import random
import sys
import threading
import time
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from boolseq import threads
from boolseq.services import BoolRegister, RegState, use
from boolseq.splitting import csi, instantiate
from boolseq.instr import (
    GET,
    InReg,
    InstructionSequence,
    Jump,
    OUT,
    Plain,
    PosTest,
    RegisterOp,
    SET_TRUE,
    SplitOp,
    TERM,
    ResourceBoundError,
    parse,
    psize,
    render,
    render_basic,
)
from boolseq.threads import (
    DEAD,
    STOP,
    PostCond,
    Subst,
    Tau,
    Var,
    eval_xthread,
    extract,
    extract_compact,
    render_thread,
    tsize,
)

from util import (
    MIXED_LETTERS,
    deadlock_placements,
    gen_isbr,
    gen_sisbr,
    gen_write_linear,
    reference_eval_xthread,
    reference_extract,
    reference_extract_compact,
    reference_tsize,
)

IN1_GET = RegisterOp(InReg(1), GET)


def test_extract_terminates():
    assert extract(parse("!")) == STOP


def test_extract_zero_jump_deadlocks():
    assert extract(parse("#0 ; !")) == DEAD


def test_extract_positive_test():
    assert extract(parse("+in:1.get ; !")) == PostCond(IN1_GET, STOP, DEAD)


def test_extract_negative_test():
    assert extract(parse("-in:1.get ; !")) == PostCond(IN1_GET, DEAD, STOP)


def test_extract_plain_prefixes_both_branches():
    assert extract(parse("in:1.get ; !")) == PostCond(IN1_GET, STOP, STOP)


def test_extract_lone_basic_deadlocks():
    assert extract(parse("in:1.get")) == PostCond(IN1_GET, DEAD, DEAD)


def test_extract_jump_unwinding():
    assert extract(parse("#1 ; !")) == STOP
    assert extract(parse("#2 ; in:1.get ; !")) == STOP
    assert extract(parse("#2 ; !")) == DEAD  # jump one past the end
    assert extract(parse("#5 ; ! ; !")) == DEAD
    assert extract(parse("#9")) == DEAD


def test_extract_termination_ignores_rest():
    assert extract(parse("! ; #0 ; in:1.get")) == STOP


def test_extract_jump_one_prefix_is_identity():
    rng = random.Random(23)
    for _ in range(100):
        x = gen_isbr(rng, 8, 2) if rng.random() < 0.5 else gen_sisbr(rng, 8, 2)
        prefixed = InstructionSequence((Jump(1),) + x.items)
        assert extract(prefixed) == extract(x)


def _contains_binder(t) -> bool:
    if isinstance(t, (Var, Subst)):
        return True
    if isinstance(t, Tau):
        return _contains_binder(t.next)
    if isinstance(t, PostCond):
        return _contains_binder(t.on_true) or _contains_binder(t.on_false)
    return False


def test_extract_never_produces_binders():
    rng = random.Random(29)
    for _ in range(100):
        assert not _contains_binder(extract(gen_isbr(rng, 10, 3)))


def test_extract_compact_golden():
    compact = extract_compact(parse("+in:1.get ; !"))
    assert compact == Subst(2, STOP, Subst(1, PostCond(IN1_GET, Var(2), Var(3)), Var(1)))
    assert tsize(compact) == 7


@pytest.mark.parametrize("text", ["#5 ; +in:1.get ; !", "+in:1.get ; #9 ; !"])
def test_extract_compact_jump_past_the_end(text):
    # The jump's target lies past k + 1, outside the shared variables.
    x = parse(text)
    compact = extract_compact(x)
    assert eval_xthread(compact) == extract(x)
    assert tsize(compact) == reference_tsize(compact) <= 4 * psize(x) + 1


def test_extract_compact_golden_past_the_end():
    compact = extract_compact(parse("#5 ; +in:1.get ; !"))
    assert compact == Subst(3, STOP, Subst(2, PostCond(IN1_GET, Var(3), Var(4)), Subst(1, Var(6), Var(1))))
    assert render_thread(compact) == "[S/x3] [(in:1.get ? x3 : x4)/x2] [x6/x1] x1"


def test_compact_terms_share_one_growing_var_table(monkeypatch):
    # A long sequence, then short ones, then a longer one: every term equals
    # the one built with fresh variables, and the table holds Var(i) at i.
    monkeypatch.setattr(threads, "_vars", ())
    rng = random.Random(2700)
    for length in (40, 2, 3, 5, 70):
        x = InstructionSequence(tuple(rng.choice(MIXED_LETTERS) for _ in range(length)))
        compact, fresh = extract_compact(x), reference_extract_compact(x)
        assert compact == fresh
        assert tsize(compact) == tsize(fresh) and render_thread(compact) == render_thread(fresh)
    assert len(threads._vars) == 72
    assert all(v.index == i and v == Var(i) for i, v in enumerate(threads._vars))


def test_the_var_table_grows_safely_under_threads(monkeypatch):
    # Four threads compact sequences of growing lengths at once, with the
    # interpreter switching threads as often as it can: a table that lost a
    # race is regrown, but no term may read a variable at the wrong index.
    monkeypatch.setattr(threads, "_vars", ())
    rng = random.Random(2701)
    work = [[InstructionSequence(tuple(rng.choice(MIXED_LETTERS) for _ in range(length))) for length in range(2, 60, 3)]
            for _ in range(4)]
    failures = []

    def compact_all(xs):
        for x in xs:
            if extract_compact(x) != reference_extract_compact(x):
                failures.append(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=compact_all, args=(xs,)) for xs in work]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not failures
    assert all(v.index == i for i, v in enumerate(threads._vars))


def test_extract_compact_singleton_base_case():
    assert extract_compact(parse("!")) == STOP


def test_eval_xthread_basic_binders():
    assert eval_xthread(Subst(1, STOP, Var(1))) == STOP
    assert eval_xthread(Var(5)) == DEAD
    assert eval_xthread(extract_compact(parse("+in:1.get ; !"))) == PostCond(IN1_GET, STOP, DEAD)


def test_tsize_leaves_and_nodes():
    shared = PostCond(IN1_GET, STOP, Var(1))
    cases = [
        (STOP, 1),
        (DEAD, 1),
        (Var(3), 1),
        (PostCond(IN1_GET, STOP, DEAD), 3),
        (Tau(STOP), 3),
        (PostCond(IN1_GET, shared, shared), 7),
        (Subst(1, Tau(shared), shared), 11),
        (Tau(Subst(2, shared, Tau(shared))), 23),
    ]
    for t, size in cases:
        assert tsize(t) == reference_tsize(t) == size


def test_tsize_of_oracle_outputs():
    # Threads built by the algebra's own constructors carry their sizes too.
    rng = random.Random(37)
    focus = IN1_GET.focus
    for _ in range(100):
        x = gen_isbr(rng, 8, 2)
        for state in (RegState.TRUE, RegState.FALSE):
            t = use(extract(x), focus, BoolRegister(state))
            assert tsize(t) == reference_tsize(t)
        y = gen_sisbr(rng, 6, 2)
        for t in (instantiate(1, True, extract(y)), instantiate(2, False, extract(y)), csi((extract(y),))):
            assert tsize(t) == reference_tsize(t)


ALPHABET = (
    PosTest(RegisterOp(InReg(1), GET)),
    PosTest(RegisterOp(InReg(2), GET)),
    Plain(RegisterOp(OUT, SET_TRUE)),
    Jump(0),
    Jump(2),
    TERM,
)


def check_compact(x):
    """``extract_compact`` against ``extract``, each thread's size against the reference."""
    compact, plain = extract_compact(x), extract(x)
    evaluated = eval_xthread(compact)
    assert evaluated == plain
    assert hash(evaluated) == hash(plain)
    assert tsize(compact) <= 4 * psize(x) + 1
    for t in (compact, plain, evaluated):
        assert tsize(t) == reference_tsize(t)


def test_compact_equivalence_exhaustive_small():
    for length in range(1, 5):
        for combo in product(ALPHABET, repeat=length):
            x = InstructionSequence(combo)
            check_compact(x)


def test_compact_equivalence_random():
    rng = random.Random(31)
    for _ in range(200):
        x = gen_isbr(rng, 12, 3) if rng.random() < 0.5 else gen_sisbr(rng, 12, 2)
        check_compact(x)


# --- the walk over the row templates against the rows ----------------------------


def assert_extracts_as_reference(x):
    t = extract(x)
    assert t == reference_extract(x), render(x)
    assert t == eval_xthread(extract_compact(x)), render(x)


def test_extract_matches_the_rows_on_every_short_sequence():
    for length in (1, 2, 3):
        for items in product(MIXED_LETTERS, repeat=length):
            assert_extracts_as_reference(InstructionSequence(items))


def test_extract_matches_the_rows_on_random_sequences():
    rng = random.Random(2424)
    for _ in range(2000):
        roll = rng.random()
        if roll < 0.4:
            x = gen_isbr(rng, 30, 3, max_aux=3)
        elif roll < 0.8:
            x = gen_sisbr(rng, 30, 3)
        else:
            x = gen_write_linear(rng, 30, 3)
        assert_extracts_as_reference(x)


@pytest.mark.parametrize("filler", ["in:1.get ; aux:1.set:T ; +out.set:T ; !", "split:1 ; +reply:1 ; out.set:T ; !"])
def test_extract_at_every_deadlock_shape(filler):
    for x in deadlock_placements(filler.split(" ; ")):
        assert_extracts_as_reference(x)


# --- compact terms and their evaluation against the references -------------------------


def assert_compacts_as_reference(x):
    compact = extract_compact(x)
    assert compact == reference_extract_compact(x), render(x)
    assert eval_xthread(compact) == reference_eval_xthread(compact), render(x)


def test_compact_matches_the_reference_on_every_short_sequence():
    for length in (1, 2, 3):
        for items in product(MIXED_LETTERS, repeat=length):
            assert_compacts_as_reference(InstructionSequence(items))


def test_compact_matches_the_reference_on_random_sequences():
    rng = random.Random(2525)
    for _ in range(2000):
        roll = rng.random()
        if roll < 0.4:
            x = gen_isbr(rng, 30, 3, max_aux=3)
        elif roll < 0.8:
            x = gen_sisbr(rng, 30, 3)
        else:
            x = gen_write_linear(rng, 30, 3)
        assert_compacts_as_reference(x)


@pytest.mark.parametrize("text", ["#0", "#9", "!", "+in:1.get", "#0 ; !", "#1 ; #0", "#3 ; !", "+in:1.get ; #9 ; #0 ; !"])
def test_compact_matches_the_reference_at_jumps_and_k_1(text):
    assert_compacts_as_reference(parse(text))


@pytest.mark.parametrize("filler", ["in:1.get ; aux:1.set:T ; +out.set:T ; !", "split:1 ; +reply:1 ; out.set:T ; !"])
def test_compact_matches_the_reference_at_every_deadlock_shape(filler):
    for x in deadlock_placements(filler.split(" ; ")):
        assert_compacts_as_reference(x)


A = IN1_GET
B = RegisterOp(OUT, SET_TRUE)

# Terms whose bindings are not all leaves or a PostCond over two variables:
# nested binders, internal steps and PostConds over other children as bound
# terms, shadowed and rebound variables, and free ones.
HAND_BUILT_TERMS = [
    Subst(1, Subst(2, STOP, PostCond(A, Var(2), Var(3))), PostCond(B, Var(1), Var(1))),
    Subst(2, STOP, Subst(1, Tau(Var(2)), Tau(Var(1)))),
    Subst(1, PostCond(A, Tau(STOP), Var(2)), Var(1)),
    Subst(1, PostCond(A, Var(2), PostCond(B, STOP, DEAD)), PostCond(B, Var(1), Var(3))),
    Subst(1, PostCond(A, Subst(2, DEAD, Var(2)), Var(1)), Var(1)),
    Subst(1, STOP, Subst(1, Var(1), PostCond(A, Var(1), Var(2)))),
    Subst(1, STOP, Subst(1, PostCond(A, Var(1), Var(1)), Var(1))),
    Subst(1, STOP, PostCond(A, Subst(1, DEAD, Var(1)), Var(1))),
    Subst(2, Var(5), Subst(1, Var(2), Tau(Var(1)))),
    Tau(Subst(1, DEAD, Subst(2, Var(1), PostCond(B, Var(2), Var(1))))),
    PostCond(A, Subst(1, STOP, Var(1)), Var(1)),
]


def random_term(rng: random.Random, depth: int):
    """A random term over variables 1..3 with every node kind at every place."""
    roll = rng.random() if depth else rng.random() * 0.5
    if roll < 0.15:
        return STOP
    if roll < 0.25:
        return DEAD
    if roll < 0.5:
        return Var(rng.randint(1, 3))
    if roll < 0.6:
        return Tau(random_term(rng, depth - 1))
    if roll < 0.8:
        return PostCond(rng.choice((A, B)), random_term(rng, depth - 1), random_term(rng, depth - 1))
    return Subst(rng.randint(1, 3), random_term(rng, depth - 1), random_term(rng, depth - 1))


@pytest.mark.parametrize("t", HAND_BUILT_TERMS, ids=render_thread)
def test_eval_xthread_matches_the_reference_on_hand_built_terms(t):
    assert eval_xthread(t) == reference_eval_xthread(t)


def test_eval_xthread_matches_the_reference_on_random_terms():
    rng = random.Random(2526)
    for _ in range(3000):
        t = random_term(rng, 6)
        assert eval_xthread(t) == reference_eval_xthread(t), render_thread(t)


def test_compact_matches_the_reference_past_the_recursion_limit():
    assert_compacts_as_reference(chain(10_000))


def test_alternating_test_chain_explodes_only_naively():
    items = []
    for i in range(20):
        items.append(PosTest(RegisterOp(InReg(1 + i % 2), GET)))
    items.append(TERM)
    x = InstructionSequence(tuple(items))
    assert psize(x) == 21
    assert tsize(extract(x)) > 2**10
    assert tsize(extract_compact(x)) <= 4 * 21 + 1
    assert eval_xthread(extract_compact(x)) == extract(x)


def test_render_thread_goldens():
    assert render_thread(extract(parse("+in:1.get ; !"))) == "(in:1.get ? S : D)"
    assert render_thread(Tau(STOP)) == "tau . S"
    assert (
        render_thread(extract_compact(parse("+in:1.get ; !")))
        == "[S/x2] [(in:1.get ? x2 : x3)/x1] x1"
    )


def recursive_render_thread(t) -> str:
    """render_thread by recursion: the reference for the explicit-stack one."""
    if t is STOP:
        return "S"
    if t is DEAD:
        return "D"
    if isinstance(t, Tau):
        return f"tau . {recursive_render_thread(t.next)}"
    if isinstance(t, PostCond):
        on_true, on_false = recursive_render_thread(t.on_true), recursive_render_thread(t.on_false)
        return f"({render_basic(t.action)} ? {on_true} : {on_false})"
    if isinstance(t, Var):
        return f"x{t.index}"
    return f"[{recursive_render_thread(t.bound)}/x{t.var_index}] {recursive_render_thread(t.body)}"


def test_render_thread_matches_recursive_reference():
    rng = random.Random(41)
    for _ in range(200):
        x = gen_isbr(rng, 12, 3) if rng.random() < 0.5 else gen_sisbr(rng, 12, 2)
        for t in (extract(x), extract_compact(x), Tau(extract(x)), Subst(1, Tau(DEAD), Var(1))):
            assert render_thread(t) == recursive_render_thread(t)


def chain(k: int) -> InstructionSequence:
    """``+in:1.get`` k-1 times, then ``!``: its tree has about fib(k) nodes."""
    return parse(" ; ".join(["+in:1.get"] * (k - 1) + ["!"]))


def test_render_thread_bound_counts_tree_nodes(monkeypatch):
    t = extract(chain(12))
    nodes = tsize(t)
    monkeypatch.setattr(threads, "MAX_RENDER_NODES", nodes)
    assert render_thread(t) == recursive_render_thread(t)
    monkeypatch.setattr(threads, "MAX_RENDER_NODES", nodes - 1)
    with pytest.raises(ResourceBoundError, match=f"more than {nodes - 1} nodes to render"):
        render_thread(t)


def test_render_thread_past_the_recursion_limit():
    x = chain(1200)
    text = render_thread(extract_compact(x))
    assert text.startswith("[S/x1200] [(in:1.get ? x1200 : x1201)/x1199] ")
    assert text.count("in:1.get") == 1199
    began = time.perf_counter()
    with pytest.raises(ResourceBoundError, match="resource bound exceeded"):
        render_thread(extract(x))
    assert time.perf_counter() - began < 30


def test_tsize_and_eval_xthread_past_the_recursion_limit():
    x = chain(10_000)
    compact = extract_compact(x)
    assert tsize(compact) <= 4 * psize(x) + 1
    evaluated, plain = eval_xthread(compact), extract(x)
    assert tsize(evaluated) == tsize(plain)
    assert evaluated == plain
    assert hash(plain) == hash(evaluated)


def test_eq_and_hash_past_the_recursion_limit_tell_trees_apart():
    x = chain(10_000)
    plain = extract(x)
    # The same deep tree with its innermost leaf changed, and with the
    # outermost action changed: equal in size, different in content.
    inner = parse(" ; ".join(["+in:1.get"] * 9_999 + ["#0"]))
    outer = InstructionSequence((PosTest(RegisterOp(InReg(2), GET)),) + x.items[1:])
    for other in (extract(inner), extract(outer)):
        assert tsize(other) == tsize(plain)
        assert other != plain and plain != other
        assert hash(other) != hash(plain)


# --- the nodes as values ------------------------------------------------------------------

NODES = (
    STOP,
    DEAD,
    Var(4),
    Tau(DEAD),
    PostCond(IN1_GET, STOP, Var(2)),
    Subst(1, PostCond(IN1_GET, Var(2), Var(3)), Var(1)),
    extract_compact(parse("+in:1.get ; #9 ; -in:2.get ; !")),
)


@pytest.mark.parametrize("t", NODES, ids=render_thread)
def test_nodes_copy_and_pickle_to_equal_nodes(t):
    copies = [copy.copy(t), copy.deepcopy(t)]
    copies += [pickle.loads(pickle.dumps(t, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(t)
        assert other == t and hash(other) == hash(t)
        assert tsize(other) == tsize(t)
        assert render_thread(other) == render_thread(t)


@pytest.mark.parametrize("t", NODES, ids=render_thread)
def test_nodes_are_frozen(t):
    for name in t.__match_args__ + ("_size", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, DEAD)
        with pytest.raises(FrozenInstanceError):
            delattr(t, name)
    assert tsize(t) == reference_tsize(t)


def test_nodes_compare_by_class_and_fields():
    assert Var(2) == Var(2) and hash(Var(2)) == hash(Var(2))
    assert Var(2) != Var(3)
    assert threads.Stop() == STOP != DEAD
    assert Tau(STOP) != PostCond(IN1_GET, STOP, STOP)
    assert PostCond(IN1_GET, STOP, DEAD) != PostCond(RegisterOp(InReg(2), GET), STOP, DEAD)
    assert Subst(1, STOP, Var(1)) != Subst(2, STOP, Var(1))
    assert (STOP == "S") is False
    assert len({Var(1), Var(1), Tau(STOP), Tau(STOP), STOP}) == 3
    match PostCond(IN1_GET, STOP, DEAD):
        case PostCond(action, on_true, threads.Dead()):
            assert (action, on_true) == (IN1_GET, STOP)
        case _:
            pytest.fail("PostCond did not match by position")
