"""Truth tables and the shortest-sequence search."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from boolseq import lab
from boolseq.compilers import Cnf, Literal, cnf_compiled_size, compile_cnf
from boolseq.instr import Jump, ResourceBoundError, parse, psize, render
from boolseq.lab import (
    SearchSpec,
    TruthTable,
    _search_alphabet,
    _transfer,
    shortest_sequence_search,
    truth_table,
)
from boolseq.services import Terminated, lane_values, run
from boolseq.splitting import run_splitting

from util import gen_isbr, gen_sisbr, naive_search


def test_truth_table_indexing():
    table = TruthTable(2, (False, True, True, False))
    assert table.vector(0) == (False, False)
    assert table.vector(1) == (False, True)
    assert table.vector(2) == (True, False)
    assert table.lookup((True, False)) is True
    assert table.render() == "FTTF"


def test_truth_table_tabulate_orders_first_input_most_significant():
    table = TruthTable.tabulate(2, lambda v: v[0])
    assert table.values == (False, False, True, True)


@pytest.mark.parametrize("generate, executor, splitting", [(gen_isbr, run, False), (gen_sisbr, run_splitting, True)])
def test_truth_table_matches_per_vector_runs(generate, executor, splitting):
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(0, 3)
        x = generate(rng, 12, n)
        table = truth_table(x, n, splitting=splitting)
        for idx, value in enumerate(table.values):
            outcome = executor(x, table.vector(idx))
            assert value == (outcome.registers.out if isinstance(outcome, Terminated) else None)


def test_truth_table_goldens():
    assert truth_table(parse("out.set:T ; !"), 1).values == (True, True)
    assert truth_table(parse("!"), 2).values == (False,) * 4
    assert truth_table(parse("#0"), 0).values == (None,)
    assert truth_table(parse("#0"), 0).render() == "?"


def test_truth_table_of_compiled_cnf_matches_oracle():
    phi = Cnf(2, ((Literal(1), Literal(2, negated=True)), (Literal(2),)))
    table = truth_table(compile_cnf(phi), 2)
    assert table.values == (False, False, False, True)


def test_truth_table_splitting_mode():
    table = truth_table(parse("+split:1 ; ! ; out.set:T ; !"), 0, splitting=True)
    assert table.values == (True,)


def test_search_constant_false_is_bare_termination():
    spec = SearchSpec(target=TruthTable(1, (False, False)), max_length=3)
    assert render(shortest_sequence_search(spec)) == "!"


def test_search_constant_true_needs_two_instructions():
    spec = SearchSpec(target=TruthTable(0, (True,)), max_length=3)
    assert render(shortest_sequence_search(spec)) == "out.set:T ; !"


def test_search_identity():
    spec = SearchSpec(target=TruthTable(1, (False, True)), max_length=4)
    result = shortest_sequence_search(spec)
    assert truth_table(result, 1) == spec.target
    assert psize(result) == 3


def test_search_returns_none_when_no_match():
    # Negation needs at least three instructions.
    spec = SearchSpec(target=TruthTable(1, (True, False)), max_length=2)
    assert shortest_sequence_search(spec) is None


@pytest.mark.parametrize("allow_jumps", [False, True])
def test_search_rejects_negative_max_jump(allow_jumps):
    with pytest.raises(ValueError, match=r"^max_jump must be >= 0$"):
        SearchSpec(target=TruthTable(1, (True, False)), max_length=3, allow_jumps=allow_jumps, max_jump=-3)


def test_search_agrees_with_naive_enumeration():
    cases = [
        SearchSpec(target=TruthTable(1, (True, False)), max_length=3),
        SearchSpec(target=TruthTable(1, (False, True)), max_length=3),
        SearchSpec(target=TruthTable(0, (True,)), max_length=2),
        SearchSpec(target=TruthTable(1, (True, True)), max_length=3, allow_jumps=True, max_jump=2),
        SearchSpec(
            target=TruthTable(1, (True, False)),
            max_length=3,
            allow_out_set_false=True,
        ),
        SearchSpec(
            target=TruthTable(1, (False, True)),
            max_length=3,
            allow_multiple_term=False,
        ),
    ]
    for spec in cases:
        assert shortest_sequence_search(spec) == naive_search(spec), spec


def _every_restriction(n: int, splitting_mode: bool = False):
    """Each target of arity n under every combination of the search restrictions."""
    for bits in range(2 ** 2**n):
        target = TruthTable(n, tuple((bits >> i) & 1 == 1 for i in range(2**n)))
        for jumps, max_jump in ((False, 3), (True, 1), (True, 3)):
            for aux, out_set_false, multiple_term in itertools.product((False, True), repeat=3):
                if splitting_mode and (aux or out_set_false):
                    continue
                yield SearchSpec(
                    target=target,
                    max_length=1,
                    allow_jumps=jumps,
                    max_jump=max_jump,
                    allow_aux=aux,
                    allow_out_set_false=out_set_false,
                    allow_multiple_term=multiple_term,
                    splitting_mode=splitting_mode,
                )


@pytest.mark.parametrize("restriction", ["allow_aux", "allow_out_set_false"])
def test_splitting_mode_rejects_register_restrictions(restriction):
    with pytest.raises(ValueError, match="splitting mode allows neither"):
        SearchSpec(target=TruthTable(1, (True, False)), max_length=3, splitting_mode=True, **{restriction: True})


def _naive_length(spec: SearchSpec, budget: int = 10000) -> int:
    """The longest max_length whose plain enumeration stays within ``budget`` sequences."""
    letters = len(_search_alphabet(spec))
    length, total = 0, 0
    while total + letters ** (length + 1) <= budget:
        length += 1
        total += letters**length
    return length


@pytest.mark.parametrize("splitting_mode", [False, True])
@pytest.mark.parametrize("max_length", [1, 2, 3, 4])
def test_jumps_of_max_length_or_more_change_no_answer(max_length, splitting_mode):
    # A jump of max_length or more can only land past the end, as #0 does.
    for n in (0, 1, 2):
        for spec in _every_restriction(n, splitting_mode):
            # Each jump setting comes twice, with max_jump 1 and 3; it is reset here.
            if not spec.allow_jumps or spec.max_jump != 1:
                continue
            spec = replace(spec, max_length=max_length, max_jump=max_length - 1)
            answer = shortest_sequence_search(spec)
            for max_jump in (max_length, max_length + 2, 40):
                assert shortest_sequence_search(replace(spec, max_jump=max_jump)) == answer, spec
            past = replace(spec, max_jump=max_length + 2)
            if _naive_length(past, budget=2000) >= max_length:
                assert naive_search(past) == answer, past


@pytest.mark.parametrize("n", [0, 1])
def test_search_agrees_with_naive_under_every_restriction(n):
    for spec in _every_restriction(n):
        bounded = replace(spec, max_length=_naive_length(spec))
        assert shortest_sequence_search(bounded) == naive_search(bounded), bounded


@pytest.mark.parametrize("n", [0, 1, 2])
def test_splitting_search_agrees_with_naive_under_every_restriction(n):
    for spec in _every_restriction(n, splitting_mode=True):
        bounded = replace(spec, max_length=_naive_length(spec))
        assert shortest_sequence_search(bounded) == naive_search(bounded), bounded


def _fold(x, n: int, reg_bits: int) -> tuple:
    """The table of ``x`` from its behaviour summary, folded right to left by ``_transfer``."""
    window = (0,) * max([2] + [u.distance for u in x.items if isinstance(u, Jump)])
    for u in reversed(x.items):
        window = (_transfer(u, n, reg_bits)(window),) + window[:-1]
    size = 2**reg_bits * 2**n
    return tuple(
        True if window[0] >> a & 1 else False if window[0] >> size + a & 1 else None for a in range(2**n)
    )


@pytest.mark.parametrize(
    "generate, reg_bits, splitting",
    [(lambda rng, n: gen_isbr(rng, 12, n), 3, False), (lambda rng, n: gen_sisbr(rng, 12, n, max_params=2), 5, True)],
    ids=["plain", "splitting"],
)
def test_transfer_fold_matches_lane_values(generate, reg_bits, splitting):
    # Undefined entries (deadlock, a re-split, a reply on a fresh parameter) included.
    rng = random.Random(606)
    for _ in range(2000):
        n = rng.randint(0, 3)
        x = generate(rng, n)
        assert _fold(x, n, reg_bits) == lane_values(x, n, splitting=splitting), render(x)


# Shortest sequences of every arity-2 function at max length 7, recorded from
# the byte-per-state summaries that preceded the bit-plane ones; jumps of up to 3 and
# auxiliary registers find nothing shorter or earlier.
ARITY2_ANSWERS = {
    "FFFF": "!",
    "FFFT": "+in:1.get ; -in:2.get ; ! ; out.set:T ; !",
    "FFTF": "+in:1.get ; +in:2.get ; ! ; out.set:T ; !",
    "FFTT": "+in:1.get ; out.set:T ; !",
    "FTFF": "+in:1.get ; ! ; +in:2.get ; out.set:T ; !",
    "FTFT": "+in:2.get ; out.set:T ; !",
    "FTTF": None,
    "FTTT": "-in:1.get ; +in:2.get ; out.set:T ; !",
    "TFFF": "+in:1.get ; ! ; -in:2.get ; out.set:T ; !",
    "TFFT": None,
    "TFTF": "-in:2.get ; out.set:T ; !",
    "TFTT": "+in:2.get ; +in:1.get ; out.set:T ; !",
    "TTFF": "-in:1.get ; out.set:T ; !",
    "TTFT": "+in:1.get ; +in:2.get ; out.set:T ; !",
    "TTTF": "+in:1.get ; -in:2.get ; out.set:T ; !",
    "TTTT": "out.set:T ; !",
}


@pytest.mark.parametrize("restrictions", [{}, {"allow_jumps": True}, {"allow_aux": True}])
def test_search_pinned_arity2_answers(restrictions):
    for table, answer in ARITY2_ANSWERS.items():
        target = TruthTable(2, tuple(c == "T" for c in table))
        result = shortest_sequence_search(SearchSpec(target=target, max_length=7, **restrictions))
        assert (None if result is None else render(result)) == answer, table


def test_search_pinned_and3_with_jumps():
    and3 = TruthTable(3, tuple(i == 7 for i in range(8)))
    cases = [
        (
            dict(max_length=14, allow_jumps=True, max_jump=5, allow_out_set_false=True),
            "+in:1.get ; out.set:T ; +in:2.get ; -in:3.get ; out.set:F ; !",
        ),
        (dict(max_length=8, allow_jumps=True, max_jump=3), "+in:1.get ; -in:2.get ; ! ; +in:3.get ; out.set:T ; !"),
    ]
    for restrictions, answer in cases:
        assert render(shortest_sequence_search(SearchSpec(target=and3, **restrictions))) == answer


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 2),
    bits=st.integers(0, 15),
    jumps=st.booleans(),
    max_jump=st.integers(0, 4),
    aux=st.booleans(),
    out_set_false=st.booleans(),
    multiple_term=st.booleans(),
    max_length=st.integers(1, 3),
)
def test_search_equals_naive_property(n, bits, jumps, max_jump, aux, out_set_false, multiple_term, max_length):
    target = TruthTable(n, tuple((bits >> i) & 1 == 1 for i in range(2**n)))
    spec = SearchSpec(
        target=target,
        max_length=max_length if aux or n == 2 else max_length + 1,
        allow_jumps=jumps,
        max_jump=max_jump,
        allow_aux=aux,
        allow_out_set_false=out_set_false,
        allow_multiple_term=multiple_term,
    )
    assert shortest_sequence_search(spec) == naive_search(spec)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 2),
    bits=st.integers(0, 15),
    jumps=st.booleans(),
    max_jump=st.integers(0, 4),
    multiple_term=st.booleans(),
    max_length=st.integers(1, 3),
)
def test_splitting_search_equals_naive_property(n, bits, jumps, max_jump, multiple_term, max_length):
    target = TruthTable(n, tuple((bits >> i) & 1 == 1 for i in range(2**n)))
    spec = SearchSpec(
        target=target,
        max_length=min(max_length, 2) if n == 2 else max_length,
        allow_jumps=jumps,
        max_jump=max_jump,
        allow_multiple_term=multiple_term,
        splitting_mode=True,
    )
    assert shortest_sequence_search(spec) == naive_search(spec)


# The splitting-mode cases of the benchmark's search workload, recorded from
# the plain enumeration that ran splitting mode before the bit-plane summaries.
SPLIT_BENCH_ANSWERS = [
    ("FFTT", 3, "+in:1.get ; out.set:T ; !"),
    ("FFFT", 2, None),
    ("TF", 3, "-in:1.get ; out.set:T ; !"),
]


def test_search_pinned_splitting_bench_answers():
    for table, max_length, answer in SPLIT_BENCH_ANSWERS:
        target = TruthTable(len(table).bit_length() - 1, tuple(c == "T" for c in table))
        result = shortest_sequence_search(SearchSpec(target=target, max_length=max_length, splitting_mode=True))
        assert (None if result is None else render(result)) == answer, table


@pytest.mark.parametrize("splitting_mode, length", [(False, 3), (True, 2)], ids=["plain", "splitting"])
def test_search_state_cap_names_where_it_stopped(monkeypatch, splitting_mode, length):
    monkeypatch.setattr(lab, "_SEARCH_STATE_CAP", 10)
    spec = SearchSpec(target=TruthTable(2, (False, True, True, False)), max_length=7, splitting_mode=splitting_mode)
    with pytest.raises(ResourceBoundError, match=rf"at length {length}: 11 states seen, cap 10"):
        shortest_sequence_search(spec)


def test_search_with_aux_registers():
    spec = SearchSpec(target=TruthTable(1, (False, True)), max_length=3, allow_aux=True)
    result = shortest_sequence_search(spec)
    assert truth_table(result, 1) == spec.target


def test_search_splitting_mode():
    spec = SearchSpec(target=TruthTable(0, (True,)), max_length=2, splitting_mode=True)
    assert render(shortest_sequence_search(spec)) == "out.set:T ; !"


def test_search_result_is_minimal_and_matches():
    rng = random.Random(137)
    for _ in range(10):
        n = rng.randint(1, 2)
        values = tuple(rng.random() < 0.5 for _ in range(2**n))
        target = TruthTable(n, values)
        spec = SearchSpec(target=target, max_length=6, allow_jumps=True, max_jump=3)
        result = shortest_sequence_search(spec)
        if result is None:
            continue
        assert truth_table(result, n) == target
        if psize(result) > 1:
            shorter = SearchSpec(
                target=target, max_length=psize(result) - 1, allow_jumps=True, max_jump=3
            )
            assert shortest_sequence_search(shorter) is None


def test_search_length_bounded_by_cnf_compilation():
    # Any total target is computable, so minimal search length is bounded by
    # the clause-chain compilation of its falsifying-row CNF.
    for bits in range(16):
        values = tuple((bits >> (3 - i)) & 1 == 1 for i in range(4))
        target = TruthTable(2, values)
        clauses = []
        for idx in range(4):
            if not values[idx]:
                v = target.vector(idx)
                clauses.append(tuple(Literal(j + 1, negated=v[j]) for j in range(2)))
        phi = Cnf(2, tuple(clauses))
        spec = SearchSpec(
            target=target,
            max_length=10,
            allow_jumps=True,
            max_jump=3,
            allow_out_set_false=True,
        )
        result = shortest_sequence_search(spec)
        assert result is not None
        assert psize(result) <= cnf_compiled_size(phi)
        assert truth_table(result, 2) == target


def test_search_validation():
    with pytest.raises(ValueError):
        SearchSpec(target=TruthTable(1, (True, False)), max_length=0)
    with pytest.raises(ValueError):
        shortest_sequence_search(
            SearchSpec(target=TruthTable(1, (None, True)), max_length=3)
        )
