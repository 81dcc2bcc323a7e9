"""Interned instructions, parsing, rendering, sizes, syntactic classification, row templates and the jump-free view."""

import copy
import pickle
import random
import re
import sys
import threading
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from boolseq.instr import (
    GET,
    KIND_AUX,
    KIND_IN,
    KIND_JUMP,
    KIND_OUT,
    KIND_REPLY,
    KIND_SPLIT,
    KIND_TERM,
    SET_FALSE,
    SET_TRUE,
    AuxReg,
    InReg,
    InstructionSyntaxError,
    Jump,
    NegTest,
    OUT,
    OutReg,
    Plain,
    PosTest,
    RegisterOp,
    ReplyOp,
    SplitOp,
    TERM,
    ClassProfile,
    InstructionSequence,
    Term,
    _INTERNED,
    _parse_one,
    actions,
    classify,
    parse,
    psize,
    render,
    seq,
)

from boolseq.compilers import compile_circuit, compile_cnf, compile_cnf_jumpfree, compile_formula
from boolseq.lab import truth_table
from boolseq.satc import reachability_formula
from boolseq.services import run
from boolseq.splitting import queue_runner
from boolseq.threads import extract, extract_compact
from boolseq.transforms import (
    behavioural_normalize,
    collapse_jump_chains,
    eliminate_output_false,
    normalize_set_tests,
    to_splitting,
)
from util import (
    MIXED_LETTERS,
    gen_circuit,
    gen_cnf,
    gen_formula,
    gen_isbr,
    gen_sisbr,
    gen_write_linear,
    reference_actions,
    reference_decode,
)


# --- interned values -------------------------------------------------------------

# One value of each instruction class: its class, fields and repr.
VALUES = [
    (InReg, (2,), "InReg(index=2)"),
    (AuxReg, (3,), "AuxReg(index=3)"),
    (OutReg, (), "OutReg()"),
    (RegisterOp, (InReg(1), GET), "RegisterOp(focus=InReg(index=1), method='get')"),
    (SplitOp, (2,), "SplitOp(param=2)"),
    (ReplyOp, (5,), "ReplyOp(param=5)"),
    (Plain, (RegisterOp(InReg(1), GET),), "Plain(basic=RegisterOp(focus=InReg(index=1), method='get'))"),
    (PosTest, (RegisterOp(OUT, SET_FALSE),), "PosTest(basic=RegisterOp(focus=OutReg(), method='set:F'))"),
    (NegTest, (SplitOp(1),), "NegTest(basic=SplitOp(param=1))"),
    (Jump, (4,), "Jump(distance=4)"),
    (Term, (), "Term()"),
]
VALUE_IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_equal_instructions_are_one_object(cls, fields, text):
    u = cls(*fields)
    assert cls(*fields) is u
    assert cls(**dict(zip(cls.__match_args__, fields))) is u
    assert tuple(getattr(u, name) for name in cls.__match_args__) == fields
    assert u == cls(*fields) and hash(u) == hash(cls(*fields))
    assert repr(u) == text


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_copies_and_pickles_are_the_interned_object(cls, fields, text):
    u = cls(*fields)
    assert copy.copy(u) is u
    assert copy.deepcopy(u) is u
    assert copy.deepcopy([u, (u,)])[1][0] is u
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(u, protocol)) is u


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_instructions_are_frozen(cls, fields, text):
    u = cls(*fields)
    for name in (*cls.__match_args__, "index", "_row"):
        with pytest.raises(FrozenInstanceError):
            setattr(u, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(u, name)


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (InReg, (0,), "input register index must be >= 1, got 0"),
        (AuxReg, (-7,), "auxiliary register index must be >= 1, got -7"),
        (SplitOp, (0,), "split parameter must be >= 1, got 0"),
        (ReplyOp, (-1,), "reply parameter must be >= 1, got -1"),
        (Jump, (-1,), "jump distance must be a natural number"),
        (RegisterOp, (OUT, "set:X"), "unknown register method 'set:X'"),
        (RegisterOp, (AuxReg(9), "put"), "unknown register method 'put'"),
    ],
)
def test_rejected_values_leave_no_table_entry(cls, fields, message):
    before = dict(_INTERNED)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*fields)
    assert _INTERNED == before


def test_fields_of_the_wrong_kind_are_rejected():
    before = dict(_INTERNED)
    with pytest.raises(TypeError, match="register focus must be"):
        RegisterOp(SplitOp(1), GET)
    with pytest.raises(TypeError, match="basic instruction must be"):
        PosTest(Jump(1))
    with pytest.raises(TypeError):
        InReg(1.5)
    with pytest.raises(TypeError):
        Jump()
    assert _INTERNED == before


def test_integer_fields_are_normalised():
    assert Jump(True) is Jump(1)
    assert render(seq(Jump(True))) == "#1"
    assert InReg(True) is InReg(1)
    assert type(Jump(True).distance) is int


@pytest.mark.parametrize("cls", [InReg, AuxReg, SplitOp, ReplyOp, Jump])
def test_integer_fields_do_not_depend_on_the_table(cls):
    # 1.0 equals 1 as a key, so it must not reach the lookup: it is rejected
    # both before and after the int value is in the table.
    value = 987_654_321
    assert (cls, value) not in _INTERNED
    with pytest.raises(TypeError):
        cls(float(value))
    u = cls(value)
    with pytest.raises(TypeError):
        cls(float(value))
    assert cls(True) is cls(1) and cls(value) is u


def race(base: int) -> list:
    """What each of 8 threads (more than the cores) got by building the same
    1,000 values, each new to the table, with a thread switch after about
    every microsecond: per thread, a list of (test, jump) pairs."""
    assert (InReg, base) not in _INTERNED
    results = [None] * 8

    def build(t):
        results[t] = [(PosTest(RegisterOp(InReg(base + i), GET)), Jump(base + i)) for i in range(1000)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(t,)) for t in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result is not None for result in results)
    return results


def test_interning_from_many_threads_gives_one_object_per_value():
    base = 10**40
    results = race(base)
    for i, (test, jump) in enumerate(results[0]):
        assert test is PosTest(RegisterOp(InReg(base + i), GET)) and jump is Jump(base + i)
        assert all(result[i][0] is test and result[i][1] is jump for result in results)


def test_parse_after_a_race_gives_the_interned_instructions():
    # The text index holds the object that won each race, not one that lost.
    results = race(10**41)
    for pair in results[0]:
        for u in pair:
            assert parse(render(seq(u))).items[0] is u
            assert parse(render(seq(u, u, TERM))).items == (u, u, TERM)
    assert all(result == results[0] for result in results)


def test_parse_plain_and_term():
    x = parse("out.set:T ; !")
    assert x.items == (Plain(RegisterOp(OUT, SET_TRUE)), TERM)


def test_parse_test_jump_term():
    x = parse("+in:1.get ; #2 ; !")
    assert x.items == (PosTest(RegisterOp(InReg(1), GET)), Jump(2), TERM)


def test_parse_empty_is_error():
    with pytest.raises(InstructionSyntaxError):
        parse("")
    with pytest.raises(InstructionSyntaxError):
        parse("   ")


def test_parse_reports_position():
    with pytest.raises(InstructionSyntaxError) as err:
        parse("! ; bogus ; !")
    assert err.value.position == 4


@pytest.mark.parametrize(
    "text, position",
    [
        ("in:1.get ; bogus ; in:1.get ; bogus", 11),
        ("! ; in:0.get ; ! ;  in:0.get", 4),
        ("! ; split:0 ; split:0", 4),
        ("! ; ; ! ; ; !", 4),
    ],
)
def test_parse_repeated_malformed_token_reports_first_offset(text, position):
    with pytest.raises(InstructionSyntaxError) as err:
        parse(text)
    assert err.value.position == position


def test_parse_repeats_of_a_token_are_one_object():
    x = parse("+in:1.get ; + in:1 .get ; out.set:T ; +in:1.get ; #2 ; #2 ; !")
    assert x[0] is x[1] is x[3]
    assert x[4] is x[5]
    assert x[2] is not x[0]


def test_parse_whitespace_insensitive():
    assert parse(" + in:1 . get ;#2;  !  ") == parse("+in:1.get ; #2 ; !")


# Spellings that are not canonical text: each is parsed token by token.
NON_CANONICAL_TEXTS = [
    "in:01.get",
    "in:01.get ; !",
    "+ in : 1 . get ; !",
    " + in:01.get ;#2;out.set:T ; ! ",
    "\t+in:1.get\n;\t#2 ;\nout.set:T\n;\t!",
    "+in:1.get\u2003;\u2003#02\u2003;\u2003!",
    "-aux:002.set:F ; #0 ; + split : 3 ; reply:1",
]

# Malformed texts: each raises its error at the offset of its first bad token.
MALFORMED_TEXTS = [
    ";;", "! ;; !", "!;", "! ; ", "in:1.get ;", ";", "\u2003;\u2003", "in:1.get ; bogus ; !", "#-1",
    "+!", "++in:1.get", "in:1.get ; in:0.get", "out.get:T", "! ; split:0", "in:1 .get ; \u2003 ; !",
]


@pytest.mark.parametrize("text", NON_CANONICAL_TEXTS)
def test_parse_non_canonical_spellings_as_the_reference(text):
    x = parse(text)
    assert all(u is v for u, v in zip(x.items, reference_parse(text).items, strict=True))
    assert parse(render(x)) == x


@pytest.mark.parametrize("text", MALFORMED_TEXTS)
def test_parse_malformed_texts_raise_as_the_reference(text):
    with pytest.raises(InstructionSyntaxError) as expected:
        reference_parse(text)
    with pytest.raises(InstructionSyntaxError) as err:
        parse(text)
    assert str(err.value) == str(expected.value) and err.value.position == expected.value.position


def test_parse_of_canonical_text_parses_no_token(monkeypatch):
    x = parse("+in:1.get ; #2 ; out.set:T ; ! ; -aux:3.set:F ; split:2 ; +reply:2")

    def fail(token, position):
        raise AssertionError(f"token {token!r} parsed")

    monkeypatch.setattr("boolseq.instr._parse_one", fail)
    assert parse(render(x)) == x
    assert parse("+in:1.get;#2;  out.set:T  ;!;-aux:3.set:F;split:2;+reply:2") == x
    with pytest.raises(AssertionError, match="parsed"):
        parse("+in:01.get ; !")


def test_parse_split_reply_forms():
    x = parse("+split:1 ; -reply:2 ; split:3")
    rendered = render(x)
    assert rendered == "+split:1 ; -reply:2 ; split:3"


def test_zero_indexed_registers_rejected():
    with pytest.raises(InstructionSyntaxError):
        parse("in:0.get ; !")
    with pytest.raises(InstructionSyntaxError):
        parse("split:0 ; !")


@pytest.mark.parametrize("token", ["in:0.get", "aux:0.set:T", "-split:0", "+reply:0"])
def test_zero_index_reported_at_its_token(token):
    with pytest.raises(InstructionSyntaxError, match=r"must be >= 1, got 0 \(at offset 4\)") as err:
        parse(f"! ; {token} ; !")
    assert err.value.position == 4


def test_render_goldens():
    assert render(seq(TERM)) == "!"
    assert render(seq(NegTest(RegisterOp(AuxReg(2), SET_FALSE)), TERM)) == "-aux:2.set:F ; !"
    assert render(seq(Jump(0))) == "#0"


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        x = gen_isbr(rng, 12, 3) if rng.random() < 0.5 else gen_sisbr(rng, 12, 2)
        assert parse(render(x)) == x


def test_psize():
    assert psize(parse("!")) == 1
    assert psize(parse("out.set:T ; !")) == 2


def test_psize_concat_additive():
    rng = random.Random(11)
    for _ in range(50):
        x = gen_isbr(rng, 6, 2)
        y = gen_isbr(rng, 6, 2)
        assert psize(x + y) == psize(x) + psize(y)
        assert (x + y).items == x.items + y.items


def test_concat_associative():
    rng = random.Random(13)
    for _ in range(20):
        x, y, z = (gen_isbr(rng, 4, 2) for _ in range(3))
        assert (x + y) + z == x + (y + z)


def test_classify_isbrna_example():
    profile = classify(parse("+in:1.get ; out.set:T ; !"))
    assert profile.is_isbr and profile.is_isbrna and profile.is_sisbr
    assert profile.max_jump == 0
    assert profile.max_input_index == 1
    assert profile.term_count == 1


def test_classify_aux_excluded_from_isbrna():
    profile = classify(parse("aux:1.set:T ; !"))
    assert profile.is_isbr
    assert not profile.is_isbrna
    assert not profile.is_sisbr
    assert profile.max_aux_index == 1


def test_classify_out_set_false_excluded_from_sisbr():
    profile = classify(parse("+split:1 ; ! ; out.set:F ; !"))
    assert not profile.is_sisbr
    assert profile.has_out_set_false
    assert profile.max_param_index == 1


def test_classify_input_writes_flagged():
    profile = classify(parse("in:1.set:T ; !"))
    assert not profile.is_isbr
    assert not profile.is_isbrna


def test_classify_subset_chain():
    rng = random.Random(17)
    for _ in range(200):
        x = gen_isbr(rng, 10, 3) if rng.random() < 0.5 else gen_sisbr(rng, 10, 2)
        profile = classify(x)
        if profile.is_isbrna:
            assert profile.is_isbr
        if profile.is_sisbr:
            assert profile.max_aux_index == 0
            assert not profile.has_out_set_false


# --- rows and classify of every instruction shape --------------------------------

# Each basic instruction: its row's (kind, slot, method) and the class profile
# of the one-instruction sequence (is_isbr, is_isbrna, is_sisbr, has_out_set_false).
BASICS = {
    "in:2.get": ((KIND_IN, 2, GET), (True, True, True, False)),
    "in:2.set:T": ((KIND_IN, 2, SET_TRUE), (False, False, False, False)),
    "in:2.set:F": ((KIND_IN, 2, SET_FALSE), (False, False, False, False)),
    "aux:3.get": ((KIND_AUX, 3, GET), (True, False, False, False)),
    "aux:3.set:T": ((KIND_AUX, 3, SET_TRUE), (True, False, False, False)),
    "aux:3.set:F": ((KIND_AUX, 3, SET_FALSE), (True, False, False, False)),
    "out.get": ((KIND_OUT, 0, GET), (False, False, False, False)),
    "out.set:T": ((KIND_OUT, 0, SET_TRUE), (True, True, True, False)),
    "out.set:F": ((KIND_OUT, 0, SET_FALSE), (True, True, False, True)),
    "split:4": ((KIND_SPLIT, 4, None), (False, False, True, False)),
    "reply:4": ((KIND_REPLY, 4, None), (False, False, True, False)),
}
# Each form: the successors at position 1 of ``u ; ! ; !``.
FORMS = {"": (2, 2), "+": (2, 3), "-": (3, 2)}
TERM_ROW = (KIND_TERM, 0, None, 0, 0)


@pytest.mark.parametrize("form", FORMS, ids=["plain", "pos", "neg"])
@pytest.mark.parametrize("basic", BASICS)
def test_decode_basic_goldens(basic, form):
    shape, _ = BASICS[basic]
    on_true, on_false = FORMS[form]
    # Alone, every successor is past the end; the template keeps the offsets.
    alone = parse(form + basic)
    assert reference_decode(alone)[0] == ((*shape, 0, 0),)
    assert alone._moves == ((*shape, on_true - 1, on_false - 1),)
    x = parse(f"{form}{basic} ; ! ; !")
    assert reference_decode(x)[0] == ((*shape, on_true, on_false), TERM_ROW, TERM_ROW)
    for y in (alone, x):
        assert_decodes_as_reference(y)


@pytest.mark.parametrize(
    "text, rows",
    [
        ("!", (TERM_ROW,)),
        ("! ; ! ; !", (TERM_ROW,) * 3),
        ("#0", ((KIND_JUMP, 0, None, 0, 0),)),
        ("#0 ; ! ; !", ((KIND_JUMP, 0, None, 0, 0), TERM_ROW, TERM_ROW)),
        ("#1", ((KIND_JUMP, 0, None, 0, 0),)),
        ("#1 ; ! ; !", ((KIND_JUMP, 0, None, 2, 2), TERM_ROW, TERM_ROW)),
        ("#2 ; ! ; !", ((KIND_JUMP, 0, None, 3, 3), TERM_ROW, TERM_ROW)),
        ("#3 ; ! ; !", ((KIND_JUMP, 0, None, 0, 0), TERM_ROW, TERM_ROW)),
        # Past the end from a later position: only the reply that stays in range has a successor.
        (
            "in:1.get ; +in:1.get ; !",
            ((KIND_IN, 1, GET, 2, 2), (KIND_IN, 1, GET, 3, 0), TERM_ROW),
        ),
    ],
)
def test_decode_jump_and_termination_goldens(text, rows):
    x = parse(text)
    assert reference_decode(x)[0] == rows
    assert_decodes_as_reference(x)


@pytest.mark.parametrize("form", FORMS, ids=["plain", "pos", "neg"])
@pytest.mark.parametrize("basic", BASICS)
def test_classify_basic_goldens(basic, form):
    (kind, slot, _), (is_isbr, is_isbrna, is_sisbr, has_out_set_false) = BASICS[basic]
    is_param = kind in (KIND_SPLIT, KIND_REPLY)
    assert classify(parse(form + basic)) == ClassProfile(
        is_isbr=is_isbr,
        is_isbrna=is_isbrna,
        is_sisbr=is_sisbr,
        max_jump=0,
        max_aux_index=slot if kind == KIND_AUX else 0,
        max_input_index=slot if kind == KIND_IN else 0,
        max_param_index=slot if is_param else 0,
        term_count=0,
        has_out_set_false=has_out_set_false,
        last_param_use={slot: 1} if is_param else {},
    )


def test_classify_jump_and_termination_goldens():
    fields = dict(
        is_isbr=True,
        is_isbrna=True,
        is_sisbr=True,
        max_aux_index=0,
        max_input_index=0,
        max_param_index=0,
        has_out_set_false=False,
        last_param_use={},
    )
    assert classify(parse("#0")) == ClassProfile(max_jump=0, term_count=0, **fields)
    assert classify(parse("#7")) == ClassProfile(max_jump=7, term_count=0, **fields)
    assert classify(parse("! ; #3 ; !")) == ClassProfile(max_jump=3, term_count=2, **fields)


def _random_sequence(rng):
    return gen_isbr(rng, 12, 3) if rng.random() < 0.5 else gen_sisbr(rng, 12, 3, max_params=4)


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_classify_of_a_concatenation_combines_the_parts(rng):
    # With the one-instruction goldens above, this law fixes classify on every sequence.
    x, y = _random_sequence(rng), _random_sequence(rng)
    px, py = classify(x), classify(y)
    assert classify(x + y) == ClassProfile(
        is_isbr=px.is_isbr and py.is_isbr,
        is_isbrna=px.is_isbrna and py.is_isbrna,
        is_sisbr=px.is_sisbr and py.is_sisbr,
        max_jump=max(px.max_jump, py.max_jump),
        max_aux_index=max(px.max_aux_index, py.max_aux_index),
        max_input_index=max(px.max_input_index, py.max_input_index),
        max_param_index=max(px.max_param_index, py.max_param_index),
        term_count=px.term_count + py.term_count,
        has_out_set_false=px.has_out_set_false or py.has_out_set_false,
        last_param_use={**px.last_param_use, **{p: pos + len(x) for p, pos in py.last_param_use.items()}},
    )


# --- round trip ------------------------------------------------------------------

INDICES = st.one_of(st.integers(1, 4), st.integers(1, 10**22))


def basics():
    focus = st.one_of(INDICES.map(InReg), INDICES.map(AuxReg), st.just(OUT))
    return st.one_of(
        st.builds(RegisterOp, focus, st.sampled_from((GET, SET_TRUE, SET_FALSE))),
        INDICES.map(SplitOp),
        INDICES.map(ReplyOp),
    )


def primitive_instructions():
    return st.one_of(
        st.just(TERM),
        st.one_of(st.integers(0, 5), st.integers(0, 10**22)).map(Jump),
        st.builds(lambda form, b: form(b), st.sampled_from((Plain, PosTest, NegTest)), basics()),
    )


@settings(max_examples=300, deadline=None)
@given(items=st.lists(primitive_instructions(), min_size=1, max_size=12))
def test_property_parse_render_round_trip(items):
    x = seq(*items)
    assert parse(render(x)) == x


def reference_parse(text):
    """The reference for ``parse``: one regex substitution and one parse per chunk, nothing shared."""
    if not text.strip():
        raise InstructionSyntaxError("empty instruction sequence", 0)
    items = []
    offset = 0
    for chunk in text.split(";"):
        token = re.sub(r"\s+", "", chunk)
        start = offset + len(chunk) - len(chunk.lstrip())
        if not token:
            raise InstructionSyntaxError("empty instruction between separators", start)
        items.append(_parse_one(token, start))
        offset += len(chunk) + 1
    return InstructionSequence(tuple(items))


# Token fragments, separators and whitespace (ASCII and Unicode), joined in any
# order: whitespace lands inside and between tokens, tokens repeat, and some
# texts are malformed.
TEXT_PIECES = (
    "in:1.get", "+", "-", "in:", "aux:", "2", "0", ".get", ".set:T", ".set:F", "out", "split:1", "reply:",
    "!", "#", "#2", "bogus", ";", ";", " ", "\t", "\n", "\x1c", "\u3000", "\x85",
)


@settings(max_examples=500, deadline=None)
@given(pieces=st.lists(st.sampled_from(TEXT_PIECES), max_size=30))
def test_property_parse_matches_reference(pieces):
    text = "".join(pieces)
    try:
        expected = reference_parse(text)
    except InstructionSyntaxError as exc:
        with pytest.raises(InstructionSyntaxError) as err:
            parse(text)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        assert err.value.position == exc.position
    else:
        assert parse(text).items == expected.items


# --- the view and classify against the reference decoder ---------------------------


def assert_decodes_as_reference(x):
    _, profile = reference_decode(x)
    assert actions(x) == reference_actions(x), render(x)
    assert all(type(row) is tuple for row in actions(x)[0])
    assert classify(x) == profile, render(x)


def test_decode_matches_reference_on_every_short_sequence():
    for length in (1, 2, 3):
        for items in product(MIXED_LETTERS, repeat=length):
            assert_decodes_as_reference(InstructionSequence(items))


def test_decode_matches_reference_on_random_sequences():
    rng = random.Random(1606)
    for _ in range(2000):
        roll = rng.random()
        if roll < 0.4:
            x = gen_isbr(rng, 30, 4, max_aux=3)
        elif roll < 0.8:
            x = gen_sisbr(rng, 30, 3, max_params=4)
        else:
            x = gen_write_linear(rng, 30, 3)
        assert_decodes_as_reference(x)


def test_decoded_rows_are_exact_tuples():
    # Outputs of the four compilers and the five rewrites, and a reparse.
    rng = random.Random(12)
    sequences = [parse("+in:1.get ; #2 ; split:1 ; reply:1 ; aux:1.set:F ; -out.get ; #0 ; !")]
    for _ in range(30):
        compiled = [
            compile_cnf(cnf := gen_cnf(rng, 5, 8)),
            compile_cnf_jumpfree(cnf),
            compile_formula(gen_formula(rng, 4, 12)),
            compile_circuit(gen_circuit(rng, 4, 8)),
        ]
        sequences += compiled + [parse(render(compiled[0])), to_splitting(gen_write_linear(rng, 20, 3))]
        isbr = gen_isbr(rng, 20, 3)
        for x in compiled + [isbr]:
            sequences += [collapse_jump_chains(x), behavioural_normalize(x)]
        # Both rewrites must accept these compiler outputs; a jump-free CNF
        # or a random ISBR may fall outside a rewrite's domain.
        for x in (compiled[0], compiled[2], compiled[3]):
            sequences += [eliminate_output_false(x), normalize_set_tests(x)]
        for x in (compiled[1], isbr):
            for rewrite in (eliminate_output_false, normalize_set_tests):
                try:
                    sequences.append(rewrite(x))
                except ValueError:
                    pass
    for x in sequences:
        assert_decodes_as_reference(x)


def test_readers_keep_only_the_templates_profile_and_view():
    # Every reader of control flow walks the row templates; a sequence keeps
    # no other form of it.  Its last truth table's masks are kept too: a
    # table is not a form of control flow.
    kept = {"_moves", "_profile", "_actions", "_last_table"}
    register = "+in:1.get ; #3 ; aux:1.set:T ; +aux:1.get ; out.set:T ; #0 ; !"
    forking = "split:1 ; +reply:1 ; #2 ; +in:1.get ; out.set:T ; !"
    readers = [
        (register, extract),
        (register, extract_compact),
        (register, lambda x: truth_table(x, 1)),
        (forking, lambda x: truth_table(x, 1, splitting=True)),
        (forking, lambda x: reachability_formula(x, (True,))),
        (forking, lambda x: queue_runner(x, (True,))),
        (register, lambda x: run(x, (True,))),
        (register, eliminate_output_false),
        (register, normalize_set_tests),
        ("aux:1.set:T ; +aux:1.get ; out.set:T ; !", to_splitting),
        (register, collapse_jump_chains),
        (register, behavioural_normalize),
    ]
    for text, reader in readers:
        x = parse(text)  # a fresh sequence: nothing cached yet
        result = reader(x)
        assert set(vars(x)) <= kept, (text, reader)
        if isinstance(result, InstructionSequence):
            assert set(vars(result)) <= kept, (text, reader)
