"""Acceptance suite: one test per shipping criterion, exact tolerances.

Each test prints a PASS line with its measured numbers (``pytest -s`` shows
them); a failed assertion is the corresponding FAIL.  Criteria sampling a
rewrite's domain resample rejected inputs and report the acceptance ratio.
"""

import random
import time
from itertools import product

from boolseq.compilers import (
    Cnf,
    Literal,
    circuit_compiled_size,
    cnf_compiled_size,
    compile_circuit,
    compile_cnf,
    compile_cnf_jumpfree,
    compile_formula,
    eval_formula,
    formula_block_size,
)
from boolseq.instr import (
    GET,
    InReg,
    InstructionSequence,
    Jump,
    PosTest,
    RegisterOp,
    TERM,
    classify,
    psize,
)
from boolseq.lab import SearchSpec, TruthTable, shortest_sequence_search, truth_table
from boolseq.satc import (
    SatcInstance,
    alpha,
    alpha_rank,
    build_satc_splitter,
    cnf_satisfiable,
    decode_to_cnf,
    encode_cnf,
    ndisj,
    reachability_satisfiable,
    satc_eval,
)
from boolseq.services import Terminated, run
from boolseq.splitting import check_splitting_computes, run_splitting
from boolseq.threads import eval_xthread, extract, extract_compact, tsize
from boolseq.transforms import (
    behavioural_normalize,
    collapse_jump_chains,
    eliminate_output_false,
    normalize_set_tests,
    to_splitting,
)

from util import (
    algebraic_outcome,
    algebraic_splitting_outcome,
    gen_circuit,
    gen_cnf,
    gen_formula,
    gen_isbr,
    gen_sisbr,
    gen_sisbr_single_read,
    outcome_matches_service,
)


def _vectors(n):
    for idx in range(2**n):
        yield tuple((idx >> (n - 1 - i)) & 1 == 1 for i in range(n))


def _sample_domain(rng, generate, transform, count):
    produced, attempts = 0, 0
    pairs = []
    while produced < count:
        attempts += 1
        assert attempts < 400 * count, "generator failed to hit the rewrite domain"
        try:
            x = generate(rng)
            y = transform(x)
        except ValueError:
            continue
        produced += 1
        pairs.append((x, y))
    return pairs, attempts


def test_criterion_01_compiler_soundness():
    started = time.time()
    rng = random.Random(1001)
    checked = 0
    for _ in range(167):
        phi = gen_cnf(rng, rng.randint(1, 6), rng.randint(1, 12))
        oracle = TruthTable.tabulate(phi.num_vars, lambda v: eval_formula(phi, v))
        assert truth_table(compile_cnf(phi), phi.num_vars) == oracle
        assert truth_table(compile_cnf_jumpfree(phi), phi.num_vars) == oracle
        checked += 1
    for _ in range(167):
        n = rng.randint(1, 6)
        psi = gen_formula(rng, n, rng.randint(1, 12))
        oracle = TruthTable.tabulate(n, lambda v: eval_formula(psi, v))
        assert truth_table(compile_formula(psi), n) == oracle
        checked += 1
    for _ in range(166):
        circuit = gen_circuit(rng, rng.randint(1, 6), rng.randint(1, 12))
        oracle = TruthTable.tabulate(circuit.num_inputs, lambda v: eval_formula(circuit, v))
        assert truth_table(compile_circuit(circuit), circuit.num_inputs) == oracle
        checked += 1
    elapsed = time.time() - started
    assert checked == 500
    assert elapsed < 30.0
    print(f"PASS criterion 1: 500 compiled sources match their oracles ({elapsed:.1f}s)")


def test_criterion_02_exact_size_laws():
    rng = random.Random(1002)
    for _ in range(200):
        phi = gen_cnf(rng, 6, 12)
        assert psize(compile_cnf(phi)) == sum(2 * len(c) + 3 for c in phi.clauses) + 2
        assert psize(compile_cnf(phi)) == cnf_compiled_size(phi)
    for _ in range(200):
        psi = gen_formula(rng, 6, rng.randint(1, 12))
        assert psize(compile_formula(psi)) == formula_block_size(psi) + 2
    for _ in range(200):
        circuit = gen_circuit(rng, 6, 12)
        assert psize(compile_circuit(circuit)) == circuit_compiled_size(circuit)
    print("PASS criterion 2: exact size laws hold on 600 generated sources")


def test_criterion_03_jump_discipline():
    rng = random.Random(1003)
    for _ in range(200):
        phi = gen_cnf(rng, 6, 12)
        for u in compile_cnf(phi).items:
            if isinstance(u, Jump):
                assert u.distance == 2
        assert not any(isinstance(u, Jump) for u in compile_cnf_jumpfree(phi).items)
    print("PASS criterion 3: clause compilation uses only #2; jump-free variant uses none")


def test_criterion_04_output_false_elimination():
    rng = random.Random(1004)

    def generate(r):
        return gen_isbr(r, 10, r.randint(0, 3))

    pairs, attempts = _sample_domain(rng, generate, eliminate_output_false, 200)
    for x, y in pairs:
        n = classify(x).max_input_index
        assert not classify(y).has_out_set_false
        assert psize(y) < 3 * psize(x)
        assert truth_table(x, n) == truth_table(y, n), f"{x} vs {y}"
    print(
        f"PASS criterion 4: output-false elimination exact on 200 sequences "
        f"({200}/{attempts} sampled inputs inside the rewrite domain)"
    )


def test_criterion_05_splitting_rewrite():
    rng = random.Random(1005)

    def prepared(r):
        x = gen_isbr(r, 10, r.randint(0, 3), max_aux=2)
        return normalize_set_tests(eliminate_output_false(x))

    pairs, attempts = _sample_domain(rng, prepared, to_splitting, 200)
    for x, y in pairs:
        n = classify(x).max_input_index
        assert classify(y).is_sisbr
        assert psize(y) <= 3 * psize(x)
        assert truth_table(x, n) == truth_table(y, n, splitting=True), f"{x} vs {y}"
    print(
        f"PASS criterion 5: fork rewrite preserves 200 truth tables within 3x "
        f"({200}/{attempts} prepared inputs inside the rewrite domain)"
    )


def test_criterion_06_executors_match_algebra():
    rng = random.Random(1006)
    disagreements = 0
    for index in range(300):
        n = rng.randint(0, 3 if index % 2 == 0 else 2)
        if index % 2 == 0:
            x = gen_isbr(rng, 8, n)
            for inputs in _vectors(n):
                if not outcome_matches_service(run(x, inputs), algebraic_outcome(x, inputs)):
                    disagreements += 1
        else:
            x = gen_sisbr(rng, 8, n, max_splits=3)
            while not classify(x).is_sisbr:
                x = gen_sisbr(rng, 8, n, max_splits=3)
            for inputs in _vectors(n):
                if not outcome_matches_service(
                    run_splitting(x, inputs), algebraic_splitting_outcome(x, inputs)
                ):
                    disagreements += 1
    assert disagreements == 0
    print("PASS criterion 6: 300 sequences, program-counter executors match the algebra")


def test_criterion_07_linear_size_extraction():
    alphabet = (
        PosTest(RegisterOp(InReg(1), GET)),
        PosTest(RegisterOp(InReg(2), GET)),
        Jump(0),
        Jump(2),
        TERM,
    )
    checked = 0
    for length in range(1, 7):
        for combo in product(alphabet, repeat=length):
            x = InstructionSequence(combo)
            assert eval_xthread(extract_compact(x)) == extract(x)
            assert tsize(extract_compact(x)) <= 4 * psize(x) + 1
            checked += 1
    rng = random.Random(1007)
    for _ in range(200):
        x = gen_isbr(rng, 12, 3) if rng.random() < 0.5 else gen_sisbr(rng, 12, 2)
        assert eval_xthread(extract_compact(x)) == extract(x)
        assert tsize(extract_compact(x)) <= 4 * psize(x) + 1
    chain = InstructionSequence(
        tuple(PosTest(RegisterOp(InReg(1 + i % 2), GET)) for i in range(20)) + (TERM,)
    )
    naive_nodes = tsize(extract(chain))
    compact_size = tsize(extract_compact(chain))
    assert naive_nodes > 2**10
    assert compact_size <= 4 * 21 + 1
    assert eval_xthread(extract_compact(chain)) == extract(chain)
    print(
        f"PASS criterion 7: compact extraction exact on {checked} exhaustive + 200 random "
        f"sequences; length-21 chain: {naive_nodes} naive nodes vs term size {compact_size}"
    )


def test_criterion_08_literal_set_layer():
    started = time.time()
    for k in range(0, 1001):
        assert 3 * ndisj(k) == 4 * k**3 + 5 * k
    for i in range(1, ndisj(4) + 1):
        assert alpha_rank(alpha(i)) == i
    for i in range(1, 5):
        prefix = {alpha(j) for j in range(1, ndisj(i) + 1)}
        assert len(prefix) == ndisj(i) and all(s.max_var() <= i for s in prefix)

    # Appending False preserves the value on vectors whose inert region is
    # all False; for other vectors the gap bits activate at the next block
    # boundary, so violations are reported, not asserted.
    canonical = 0
    gap_violations = 0
    for n in range(0, 11):
        for w in _vectors(n):
            extended = satc_eval(SatcInstance(w + (False,)))
            if any(w[ndisj(SatcInstance(w).k):]):
                gap_violations += satc_eval(SatcInstance(w)) != extended
            else:
                canonical += 1
                assert satc_eval(SatcInstance(w)) == extended

    rng = random.Random(1008)
    round_trips = 0
    while round_trips < 200:
        num_vars = rng.randint(1, 3)
        universe = [alpha(i) for i in range(1, ndisj(num_vars) + 1)]
        chosen = rng.sample(universe, rng.randint(0, min(6, len(universe))))
        phi = Cnf(num_vars, tuple(s.sorted_literals() for s in chosen))
        decoded = decode_to_cnf(encode_cnf(phi))
        assert {frozenset(c) for c in decoded.clauses} == {frozenset(c) for c in phi.clauses}
        round_trips += 1

    for n in range(0, 15):
        for w in _vectors(n):
            assert cnf_satisfiable(decode_to_cnf(w)) == satc_eval(SatcInstance(w))
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 8: enumeration/encoding layer exact ({canonical} canonical "
        f"convergence checks; {gap_violations} gap-bit violations reported, matching the "
        f"block-boundary analysis; {elapsed:.1f}s)"
    )


def test_criterion_09_family_splitter():
    for n in range(0, 6):
        table = TruthTable.tabulate(n, lambda v: satc_eval(SatcInstance(v)))
        assert check_splitting_computes(build_satc_splitter(n), table), n
    rng = random.Random(1009)
    for n in range(6, 15):
        z = build_satc_splitter(n)
        for _ in range(100):
            w = tuple(rng.random() < 0.5 for _ in range(n))
            outcome = run_splitting(z, w)
            assert isinstance(outcome, Terminated)
            assert outcome.registers.out == satc_eval(SatcInstance(w)), (n, w)
    print("PASS criterion 9: family splitter exact for arity <= 5, sampled to arity 14")


def test_criterion_10_reachability_reduction():
    rng = random.Random(1010)
    checked = 0
    while checked < 100:
        n = rng.randint(0, 2)
        x = gen_sisbr_single_read(rng, 10, n, max_splits=2)
        if not truth_table(x, n, splitting=True).is_total:
            continue
        checked += 1
        for inputs in _vectors(n):
            outcome = run_splitting(x, inputs)
            accepted = isinstance(outcome, Terminated) and outcome.registers.out
            assert reachability_satisfiable(x, inputs) == accepted, f"{x} on {inputs}"

    # Outside the sound class (test-form splits or repeated reads) the
    # both-successor edges overapproximate; discrepancies are reported.
    unrestricted_mismatches = 0
    sampled = 0
    while sampled < 60:
        n = rng.randint(0, 2)
        x = gen_sisbr(rng, 10, n, max_splits=2)
        profile = classify(x)
        if not profile.is_sisbr:
            continue
        accepts = sum(
            1
            for u in x.items
            if hasattr(u, "basic")
            and isinstance(u.basic, RegisterOp)
            and u.basic.method == "set:T"
        )
        if accepts != 1 or not truth_table(x, n, splitting=True).is_total:
            continue
        sampled += 1
        for inputs in _vectors(n):
            outcome = run_splitting(x, inputs)
            accepted = isinstance(outcome, Terminated) and outcome.registers.out
            if reachability_satisfiable(x, inputs) != accepted:
                unrestricted_mismatches += 1
    print(
        f"PASS criterion 10: reachability reduction exact on 100 restricted sequences "
        f"({unrestricted_mismatches} unrestricted discrepancies reported, not asserted)"
    )


def test_criterion_11_bounded_negative_result():
    started = time.time()
    and3 = TruthTable.tabulate(3, lambda v: v[0] and v[1] and v[2])
    restricted = SearchSpec(
        target=and3,
        max_length=10,
        allow_jumps=False,
        allow_aux=False,
        allow_out_set_false=False,
        allow_multiple_term=False,
    )
    assert shortest_sequence_search(restricted) is None
    unrestricted = SearchSpec(
        target=and3,
        max_length=14,
        allow_jumps=True,
        max_jump=5,
        allow_aux=False,
        allow_out_set_false=True,
        allow_multiple_term=True,
    )
    found = shortest_sequence_search(unrestricted)
    assert found is not None and psize(found) <= 14
    assert truth_table(found, 3) == and3
    phi = Cnf(3, ((Literal(1),), (Literal(2),), (Literal(3),)))
    assert psize(found) <= cnf_compiled_size(phi)
    elapsed = time.time() - started
    assert elapsed < 300.0
    print(
        f"PASS criterion 11: no restricted sequence of length <= 10 computes the triple "
        f"conjunction; unrestricted search finds length {psize(found)} ({elapsed:.1f}s)"
    )


def test_criterion_12_congruence_rewrites():
    rng = random.Random(1012)
    for _ in range(200):
        n = rng.randint(0, 3)
        x = gen_isbr(rng, 10, n)
        assert extract(collapse_jump_chains(x)) == extract(x)
        assert truth_table(behavioural_normalize(x), n) == truth_table(x, n)
    print("PASS criterion 12: jump-chain collapse and reply-aware normalization preserve behaviour")
