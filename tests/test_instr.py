"""Parsing, rendering, sizes, syntactic classification, and decoding."""

import random
import re

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
    Plain,
    PosTest,
    RegisterOp,
    ReplyOp,
    SplitOp,
    TERM,
    ClassProfile,
    InstructionSequence,
    _parse_one,
    classify,
    decode,
    parse,
    psize,
    render,
    seq,
)

from boolseq.compilers import compile_cnf
from boolseq.transforms import eliminate_output_false, normalize_set_tests, to_splitting
from util import gen_cnf, gen_isbr, gen_sisbr, gen_write_linear


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


# --- decode and classify of every instruction shape ------------------------------

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
    # Alone, every successor is past the end.
    assert decode(parse(form + basic)) == ((*shape, 0, 0),)
    assert decode(parse(f"{form}{basic} ; ! ; !")) == ((*shape, *FORMS[form]), TERM_ROW, TERM_ROW)


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
    assert decode(parse(text)) == rows


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


def test_decoded_rows_are_exact_tuples():
    rng = random.Random(12)
    sequences = [parse("+in:1.get ; #2 ; split:1 ; reply:1 ; aux:1.set:F ; -out.get ; #0 ; !")]
    for _ in range(20):
        compiled = compile_cnf(gen_cnf(rng, 4, 5))
        sequences += [compiled, parse(render(compiled)), eliminate_output_false(compiled), normalize_set_tests(compiled)]
        sequences.append(to_splitting(gen_write_linear(rng, 12, 3)))
    for x in sequences:
        assert all(type(row) is tuple and len(row) == 5 for row in decode(x)), render(x)
