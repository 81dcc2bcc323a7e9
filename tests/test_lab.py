"""Truth tables and the shortest-sequence search."""

import random

import pytest

from boolseq.compilers import Cnf, Literal, cnf_compiled_size, compile_cnf
from boolseq.instr import parse, psize, render
from boolseq.lab import (
    SearchSpec,
    TruthTable,
    _naive_search,
    shortest_sequence_search,
    truth_table,
)
from boolseq.services import Terminated, run
from boolseq.splitting import run_splitting

from util import gen_isbr, gen_sisbr


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
        assert shortest_sequence_search(spec) == _naive_search(spec), spec


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
