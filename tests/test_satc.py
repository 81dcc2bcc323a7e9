"""Literal-set enumeration, bit-vector encoded satisfiability, and reductions."""

import random
import re
from itertools import product

import pytest

from boolseq.compilers import Cnf, Literal, eval_cnf, render_formula
from boolseq.instr import InstructionSequence, Plain, ResourceBoundError, SplitOp, parse, psize, render
from boolseq.lab import TruthTable, truth_table
from boolseq.satc import (
    MAX_GUESSED_VARS,
    LiteralSet,
    SatcInstance,
    alpha,
    alpha_rank,
    build_satc_splitter,
    check_length_reduction,
    cnf_satisfiable,
    decode_to_cnf,
    encode_cnf,
    _control_graph,
    ndisj,
    reachability_formula,
    reachability_satisfiable,
    satc_eval,
)
from boolseq.services import parse_input_bits
from boolseq.splitting import Terminated, check_splitting_computes, run_splitting

from util import (
    deadlock_placements,
    formula_satisfiable,
    gen_cnf,
    gen_sisbr,
    gen_sisbr_single_read,
    reference_successors,
)


def lits(*pairs) -> LiteralSet:
    return LiteralSet(frozenset(Literal(v, negated=neg) for v, neg in pairs))


def test_ndisj_small_values():
    assert ndisj(0) == 0
    assert ndisj(1) == 3
    assert ndisj(2) == 14
    assert ndisj(4) == 92


def test_ndisj_closed_form():
    for k in range(0, 1001):
        assert 3 * ndisj(k) == 4 * k**3 + 5 * k


def test_alpha_first_block():
    assert alpha(1) == lits((1, False))
    assert alpha(2) == lits((1, True))
    assert alpha(3) == lits((1, False), (1, True))


def test_alpha_rank_is_inverse_exhaustively():
    for i in range(1, ndisj(4) + 1):
        assert alpha_rank(alpha(i)) == i


def test_alpha_rank_at_the_ends_of_the_blocks():
    for m in (6, 10, 14):
        first, last = ndisj(m - 1) + 1, ndisj(m)
        for i in (first, first + 1, last - 1, last):
            assert alpha_rank(alpha(i)) == i
            assert alpha_rank(LiteralSet(frozenset(alpha(i).literals))) == i
    with pytest.raises(ResourceBoundError, match="resource bound exceeded in alpha"):
        alpha_rank(LiteralSet(frozenset({Literal(2 * MAX_GUESSED_VARS + 1)})))


def test_encode_cnf_rejects_a_repeated_clause_set():
    repeated = Cnf(2, ((Literal(1), Literal(2, True)), (Literal(2, True), Literal(1))))
    with pytest.raises(ValueError, match="duplicate clause set; encoding would collapse them"):
        encode_cnf(repeated)


def test_alpha_prefix_compatibility():
    # The first ndisj(i) positions enumerate exactly the literal sets over v1..vi.
    for i in range(1, 5):
        block = {alpha(j) for j in range(1, ndisj(i) + 1)}
        assert len(block) == ndisj(i)
        assert all(ls.max_var() <= i for ls in block)


def test_literal_set_validation():
    with pytest.raises(ValueError):
        LiteralSet(frozenset())
    with pytest.raises(ValueError):
        LiteralSet(frozenset(Literal(v) for v in (1, 2, 3, 4)))


def test_satc_eval_goldens():
    assert satc_eval(SatcInstance(())) is True
    assert satc_eval(SatcInstance(parse_input_bits("FFF"))) is True
    assert satc_eval(SatcInstance(parse_input_bits("TTF"))) is False
    assert satc_eval(SatcInstance(parse_input_bits("TFT"))) is True


def test_satc_instance_k():
    assert SatcInstance(()).k == 0
    assert SatcInstance((False,) * 2).k == 0
    assert SatcInstance((False,) * 3).k == 1
    assert SatcInstance((False,) * 13).k == 1
    assert SatcInstance((False,) * 14).k == 2


def _inert_region_false(w: tuple[bool, ...]) -> bool:
    boundary = ndisj(SatcInstance(w).k)
    return not any(w[boundary:])


def test_satc_eval_convergence_on_canonical_vectors():
    # Appending False preserves the value whenever the currently inert bits
    # are all False; bits in the inert gap otherwise become active the
    # moment the vector length crosses the next block boundary.
    checked = 0
    for n in range(0, 11):
        for bits in range(2**n):
            w = tuple((bits >> (n - 1 - i)) & 1 == 1 for i in range(n))
            if not _inert_region_false(w):
                continue
            checked += 1
            assert satc_eval(SatcInstance(w)) == satc_eval(SatcInstance(w + (False,)))
    # 1 canonical vector per length below ndisj(1), 2^3 per length 3..10.
    assert checked == 3 + 8 * 8


def test_satc_eval_convergence_gap_counterexample():
    # Universal convergence fails: TT selects nothing (k=0) but TTF selects
    # the contradictory pair {v1}, {not v1}.
    assert satc_eval(SatcInstance((True, True))) is True
    assert satc_eval(SatcInstance((True, True, False))) is False


def test_decode_goldens():
    assert decode_to_cnf(parse_input_bits("TTF")) == Cnf(
        1, ((Literal(1),), (Literal(1, negated=True),))
    )
    assert decode_to_cnf(parse_input_bits("FF")) == Cnf(0, ())
    assert decode_to_cnf(parse_input_bits("TFT")) == Cnf(
        1, ((Literal(1),), (Literal(1), Literal(1, negated=True)))
    )


def test_encode_goldens():
    phi = Cnf(1, ((Literal(1),), (Literal(1, negated=True),)))
    assert encode_cnf(phi) == (True, True, False)
    assert encode_cnf(Cnf(0, ())) == ()


def test_encode_errors():
    with pytest.raises(ValueError):
        encode_cnf(Cnf(4, ((Literal(1), Literal(2), Literal(3), Literal(4)),)))
    with pytest.raises(ValueError):
        encode_cnf(Cnf(1, ((Literal(1), Literal(1)),)))
    with pytest.raises(ValueError):
        encode_cnf(Cnf(2, ((Literal(1), Literal(2)), (Literal(2), Literal(1))),))


def test_encode_minimality_brute_force():
    # No shorter vector decodes to the same clause set.
    phi = Cnf(1, ((Literal(1),), (Literal(1, negated=True),)))
    w = encode_cnf(phi)
    target = {frozenset(c) for c in phi.clauses}
    for shorter_len in range(len(w)):
        for bits in range(2**shorter_len):
            candidate = tuple((bits >> (shorter_len - 1 - i)) & 1 == 1 for i in range(shorter_len))
            decoded = {frozenset(c) for c in decode_to_cnf(candidate).clauses}
            assert decoded != target


def _random_three_cnf(rng: random.Random, max_vars: int) -> Cnf:
    num_vars = rng.randint(1, max_vars)
    universe = [
        frozenset(ls.literals)
        for ls in (alpha(i) for i in range(1, ndisj(num_vars) + 1))
        if ls.max_var() <= num_vars
    ]
    count = rng.randint(0, min(6, len(universe)))
    chosen = rng.sample(universe, count)
    return Cnf(num_vars, tuple(tuple(sorted(c, key=lambda l: (l.var, l.negated))) for c in chosen))


def test_decode_encode_round_trip_random():
    rng = random.Random(127)
    for _ in range(200):
        phi = _random_three_cnf(rng, 3)
        decoded = decode_to_cnf(encode_cnf(phi))
        assert {frozenset(c) for c in decoded.clauses} == {frozenset(c) for c in phi.clauses}


def loop_satc_eval(inst: SatcInstance) -> bool:
    """satc_eval one assignment at a time: the reference for the bit-sliced one."""
    k = inst.k
    selected = [alpha(i) for i in range(1, ndisj(k) + 1) if inst.bits[i - 1]]
    for assignment_bits in range(2**k):
        assignment = [(assignment_bits >> (k - 1 - i)) & 1 == 1 for i in range(k)]
        if all(
            any(assignment[lit.var - 1] != lit.negated for lit in literal_set.literals)
            for literal_set in selected
        ):
            return True
    return False


def alpha_decode(bits) -> Cnf:
    """decode_to_cnf by alpha, one position at a time: its reference."""
    k = SatcInstance(tuple(bits)).k
    return Cnf(k, tuple(alpha(i).sorted_literals() for i in range(1, ndisj(k) + 1) if bits[i - 1]))


def loop_cnf_satisfiable(phi: Cnf) -> bool:
    """cnf_satisfiable one assignment at a time: the reference for the bit-sliced one."""
    n = phi.num_vars
    for bits in range(2**n):
        assignment = [(bits >> (n - 1 - i)) & 1 == 1 for i in range(n)]
        if eval_cnf(phi, assignment):
            return True
    return False


def test_satc_eval_matches_assignment_loop():
    rng = random.Random(151)
    answers = set()
    for k in range(0, 7):
        for _ in range(40):
            density = rng.choice((0.005, 0.02, 0.05, 0.1, 0.3))
            # Up to a block of inert bits past ndisj(k).
            w = tuple(rng.random() < density for _ in range(ndisj(k) + rng.randint(0, 3 * k + 2)))
            inst = SatcInstance(w)
            assert inst.k == k
            want = loop_satc_eval(inst)
            assert satc_eval(inst) == want, w
            answers.add(want)
    assert answers == {True, False}
    # The empty conjunction, at k = 0 and above.
    assert satc_eval(SatcInstance(())) is True
    assert satc_eval(SatcInstance((False,) * ndisj(6))) is True


def test_decode_to_cnf_matches_alpha_reference():
    rng = random.Random(163)
    for k in range(0, 7):
        for _ in range(20):
            density = rng.choice((0.02, 0.1, 0.5))
            w = tuple(rng.random() < density for _ in range(ndisj(k) + rng.randint(0, 3 * k + 2)))
            assert decode_to_cnf(w) == alpha_decode(w), w


def test_evaluators_match_alpha_at_every_length():
    # Every length up to a few bits past ndisj(3), in an order that switches
    # k back and forth; the bits past ndisj(k) are inert, set or not.
    rng = random.Random(173)
    lengths = list(range(ndisj(3) + 4))
    rng.shuffle(lengths)
    for length in lengths:
        batch = [(False,) * length, (True,) * length, tuple(i % 2 == 0 for i in range(length))]
        batch += [tuple(rng.random() < d for _ in range(length)) for d in (0.05, 0.2, 0.5)]
        for w in batch:
            inst = SatcInstance(w)
            assert satc_eval(inst) == loop_satc_eval(inst), w
            assert decode_to_cnf(w) == decode_to_cnf(list(w)) == alpha_decode(w), w


def test_cnf_satisfiable_matches_assignment_loop():
    rng = random.Random(157)
    answers = set()
    for _ in range(600):
        phi = gen_cnf(rng, 6, rng.randint(1, 24))
        want = loop_cnf_satisfiable(phi)
        assert cnf_satisfiable(phi) == want, phi
        answers.add(want)
    assert answers == {True, False}
    for n in range(0, 7):
        assert cnf_satisfiable(Cnf(n, ())) is True  # the empty conjunction
    assert cnf_satisfiable(Cnf(1, ((Literal(1),), (Literal(1, negated=True),)))) is False


def test_decode_satisfiability_matches_eval_exhaustive_small():
    for n in range(0, 9):
        for bits in range(2**n):
            w = tuple((bits >> (n - 1 - i)) & 1 == 1 for i in range(n))
            assert cnf_satisfiable(decode_to_cnf(w)) == satc_eval(SatcInstance(w))


def test_build_satc_splitter_degenerate():
    assert render(build_satc_splitter(0)) == "+out.set:T ; !"
    assert render(build_satc_splitter(2)) == "+out.set:T ; !"


def test_build_satc_splitter_structure():
    z = build_satc_splitter(3)
    assert z.items[0] == Plain(SplitOp(1))
    assert not any(isinstance(u, Plain) and isinstance(u.basic, SplitOp) for u in z.items[1:])


def test_build_satc_splitter_golden_run():
    z = build_satc_splitter(3)
    outcome = run_splitting(z, parse_input_bits("TTF"))
    assert isinstance(outcome, Terminated) and outcome.registers.out is False


def test_build_satc_splitter_computes_family_member():
    for n in range(0, 5):
        table = TruthTable.tabulate(n, lambda v: satc_eval(SatcInstance(v)))
        assert check_splitting_computes(build_satc_splitter(n), table), n


def test_build_satc_splitter_past_the_recursion_limit():
    # 1350 bits select among all ndisj(10) = 1350 literal sets: a conjunction
    # of 1350 disjunctions, compiled by the formula size law.
    n = 1350
    k = SatcInstance((False,) * n).k
    assert ndisj(k) == n
    # not s_i is 2 long, each "or literal" 1 + the literal's 1 (or 2 negated), each and 2.
    block = sum(2 + sum(2 + lit.negated for lit in alpha(i).literals) for i in range(1, n + 1)) + 2 * (n - 1)
    z = build_satc_splitter(n)
    assert psize(z) == k + block + 2
    assert z.items[:k] == tuple(Plain(SplitOp(j)) for j in range(1, k + 1))
    assert render(InstructionSequence(z.items[-2:])) == "+out.set:T ; !"


@pytest.mark.parametrize(
    "call",
    [
        lambda: alpha(ndisj(2 * MAX_GUESSED_VARS) + 1),
        lambda: satc_eval(SatcInstance((False,) * ndisj(MAX_GUESSED_VARS + 1))),
        lambda: cnf_satisfiable(Cnf(MAX_GUESSED_VARS + 1, ())),
        lambda: build_satc_splitter(ndisj(MAX_GUESSED_VARS + 1)),
    ],
    ids=["alpha", "satc_eval", "cnf_satisfiable", "build_satc_splitter"],
)
def test_guessed_variable_bounds(call):
    with pytest.raises(ResourceBoundError, match="resource bound exceeded"):
        call()


def test_reachability_formula_golden_fork():
    phi = reachability_formula(parse("+split:1 ; ! ; out.set:T ; !"), ())
    assert render_formula(phi) == (
        "(and v1 (and v3 (and (and (or v2 (not v1)) (or (not v2) v1)) "
        "(and (and (or v3 (not v1)) (or (not v3) v1)) "
        "(and (or v4 (not v3)) (or (not v4) v3))))))"
    )
    assert reachability_satisfiable(parse("+split:1 ; ! ; out.set:T ; !"), ())


def test_reachability_formula_straight_line():
    assert reachability_satisfiable(parse("out.set:T ; !"), ())


def test_reachability_formula_unreachable_accept():
    assert not reachability_satisfiable(parse("! ; out.set:T ; !"), ())


def test_reachability_past_10_4_jumps():
    # The forward propagation follows 10^4 jumps to the one input read.
    x = parse(" ; ".join(["#1"] * 10**4) + " ; +in:1.get ; out.set:T ; !")
    assert reachability_satisfiable(x, (True,))
    assert not reachability_satisfiable(x, (False,))


def test_reachability_formula_requires_unique_accept():
    with pytest.raises(ValueError, match="exactly one"):
        reachability_formula(parse("out.set:T ; out.set:T ; !"), ())
    with pytest.raises(ValueError, match="exactly one"):
        reachability_formula(parse("!"), ())


def test_reachability_satisfiable_matches_brute_force():
    # The formula's only candidate model is the set of forward-reachable
    # positions; brute force over all 2^length assignments is the reference.
    rng = random.Random(163)
    outcomes = {True: 0, False: 0, ValueError: 0}
    for i in range(300):
        n = rng.randint(0, 3)
        if i % 2:
            x = gen_sisbr_single_read(rng, 14, n, max_splits=3)
        else:
            x = gen_sisbr(rng, 14, n, max_splits=3)
        # Sometimes one input short, so a read can be past the arity.
        inputs = tuple(rng.random() < 0.5 for _ in range(max(0, n - rng.randint(0, 1))))
        try:
            want = formula_satisfiable(reachability_formula(x, inputs), psize(x))
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                reachability_satisfiable(x, inputs)
            outcomes[ValueError] += 1
            continue
        assert reachability_satisfiable(x, inputs) == want, f"{x} on {inputs}"
        outcomes[want] += 1
    assert min(outcomes.values()) >= 20, outcomes


# The fork/reply vocabulary but for out.set:T, and jumps #0 to #3.
NO_ACCEPT = (
    "!", "#0", "#1", "#2", "#3", "in:1.get", "-in:2.get", "split:1", "+split:1", "-split:2",
    "reply:1", "+reply:2", "-reply:1",
)


def assert_successors_as_reference(x, inputs):
    _, successors = _control_graph(x, inputs)
    assert successors == reference_successors(x, inputs), f"{x} on {inputs}"


def test_control_graph_matches_the_rows_on_every_short_sequence():
    # Up to three instructions with one out.set:T, which falls through or skips, at each place.
    vectors = list(product((False, True), repeat=2))
    for length in (1, 2, 3):
        for combo in product(NO_ACCEPT, repeat=length):
            for at in range(length + 1):
                for accept in ("out.set:T", "-out.set:T"):
                    x = parse(" ; ".join((*combo[:at], accept, *combo[at:])))
                    for inputs in vectors:
                        assert_successors_as_reference(x, inputs)


def test_control_graph_matches_the_rows_at_every_deadlock_shape():
    rng = random.Random(2424)
    sequences = [gen_sisbr_single_read(rng, 16, 1) for _ in range(300)]
    for filler in ("split:1 ; +reply:1 ; out.set:T ; !", "in:1.get ; -split:2 ; -out.set:T ; !"):
        sequences += deadlock_placements(filler.split(" ; "))
    for x in sequences:
        for inputs in ((False,), (True,)):
            assert_successors_as_reference(x, inputs)


def test_reachability_satisfiable_errors():
    with pytest.raises(ValueError, match="split/reply vocabulary"):
        reachability_satisfiable(parse("aux:1.set:T ; out.set:T ; !"), ())
    with pytest.raises(ValueError, match="exactly one out.set:T"):
        reachability_satisfiable(parse("out.set:T ; out.set:T ; !"), ())
    with pytest.raises(ValueError, match="beyond the given arity"):
        reachability_satisfiable(parse("+in:2.get ; out.set:T ; !"), (True,))


def test_reachability_satisfiable_past_brute_force_size():
    # 42 and 43 positions: more than brute force over the formula's variables allows.
    hops = " ; ".join(["#1"] * 40)
    reachable = parse(f"split:1 ; {hops} ; out.set:T")
    assert reachability_satisfiable(reachable, ())
    assert not reachability_satisfiable(parse(f"split:1 ; ! ; {hops} ; out.set:T"), ())
    with pytest.raises(ResourceBoundError, match="resource bound"):
        formula_satisfiable(reachability_formula(reachable, ()), psize(reachable))


def test_reachability_matches_executor_on_restricted_class():
    # The reduction presumes sequences that compute total functions: a
    # deadlocking branch has no output bit for the formula to match.
    rng = random.Random(131)
    checked = 0
    while checked < 60:
        n = rng.randint(0, 2)
        x = gen_sisbr_single_read(rng, 10, n, max_splits=2)
        if not truth_table(x, n, splitting=True).is_total:
            continue
        checked += 1
        for idx in range(2**n):
            inputs = tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))
            outcome = run_splitting(x, inputs)
            accepted = isinstance(outcome, Terminated) and outcome.registers.out
            assert reachability_satisfiable(x, inputs) == accepted, f"{x} on {inputs}"


def test_reachability_overapproximates_branch_filtered_reads():
    # A test-form split filters which parameter value reaches the read at
    # position 3 (only the False branch gets there), but the reduction's
    # both-successor edges admit the phantom True outcome.  The formula is
    # sound only for plain-form splits; this pins the known limitation.
    x = parse("+split:1 ; ! ; -reply:1 ; ! ; +split:2 ; out.set:T ; -in:1.get")
    assert truth_table(x, 2, splitting=True).values == (False,) * 4
    assert reachability_satisfiable(x, (False, False)) is True


def test_check_length_reduction_identity():
    table = truth_table(parse("+in:1.get ; out.set:T ; !"), 1)
    helper = parse("+in:1.get ; out.set:T ; !")
    assert check_length_reduction(table, table, [helper], 3)
    assert not check_length_reduction(table, table, [helper], 2)


def test_check_length_reduction_negation():
    from boolseq.compilers import FVar, Not, compile_formula

    g = truth_table(parse("+in:1.get ; out.set:T ; !"), 1)  # identity
    f = TruthTable(1, (True, False))  # negation
    helper = compile_formula(Not(FVar(1)))
    assert psize(helper) == 4
    assert check_length_reduction(f, g, [helper], 4)


def test_check_length_reduction_arity_mismatch():
    table = TruthTable(1, (False, True))
    with pytest.raises(ValueError):
        check_length_reduction(table, table, [], 3)
