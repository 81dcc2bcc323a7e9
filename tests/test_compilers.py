"""Source ASTs, evaluation oracles, and the three sequence compilers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from boolseq.compilers import (
    And,
    AndGate,
    Circuit,
    Cnf,
    FVar,
    GateRef,
    InputRef,
    Literal,
    Not,
    NotGate,
    Or,
    OrGate,
    circuit_compiled_size,
    cnf_compiled_size,
    compile_circuit,
    compile_cnf,
    compile_cnf_jumpfree,
    compile_formula,
    eval_circuit,
    eval_cnf,
    eval_formula,
    formula_block_size,
    formula_size,
    parse_dimacs,
    parse_formula,
    parse_netlist,
    render_dimacs,
    render_formula,
    render_netlist,
    topological_gate_order,
)
from boolseq.instr import (
    GET,
    InReg,
    Jump,
    OUT,
    RegisterOp,
    ResourceBoundError,
    SET_FALSE,
    SET_TRUE,
    classify,
    psize,
    render,
)
from boolseq.lab import TruthTable, truth_table

from util import (
    MAX_FORMULA_VARS,
    bench_workloads,
    formula_satisfiable,
    formula_vars,
    gen_circuit,
    gen_cnf,
    gen_formula,
    reference_compile_circuit,
    reference_compile_cnf,
    reference_compile_cnf_jumpfree,
    reference_compile_formula,
    reference_topological_gate_order,
)

EXAMPLE_CNF = Cnf(2, ((Literal(1), Literal(2, negated=True)), (Literal(2),)))


def test_eval_formula_goldens():
    assert eval_formula(FVar(1), [True]) is True
    assert eval_formula(And(FVar(1), Not(FVar(1))), [True]) is False
    assert eval_formula(And(FVar(1), Not(FVar(1))), [False]) is False
    assert eval_formula(Cnf(1, ()), [True]) is True  # empty conjunction


def test_eval_formula_unbound_variable():
    with pytest.raises(ValueError):
        eval_formula(FVar(2), [True])


def recursive_eval(phi, assignment):
    """The recursive evaluators that preceded the explicit stacks, as the reference."""
    if isinstance(phi, Circuit):
        if phi.num_inputs > len(assignment):
            raise ValueError("assignment shorter than the circuit's input count")
        cache = {}

        def node_value(node, path):
            if isinstance(node, InputRef):
                if node.index > len(assignment):
                    raise ValueError(f"unbound input in{node.index}")
                return assignment[node.index - 1]
            k = node.index
            if k in cache:
                return cache[k]
            if not 1 <= k <= len(phi.gates):
                raise ValueError(f"dangling gate reference g{k}")
            if k in path:
                raise ValueError("cyclic circuit")
            gate = phi.gates[k - 1]
            if isinstance(gate, NotGate):
                value = not node_value(gate.pred, path | {k})
            elif isinstance(gate, OrGate):
                value = node_value(gate.left, path | {k}) or node_value(gate.right, path | {k})
            else:
                value = node_value(gate.left, path | {k}) and node_value(gate.right, path | {k})
            cache[k] = value
            return value

        return node_value(GateRef(phi.output_gate), frozenset())
    if isinstance(phi, FVar):
        if phi.index > len(assignment):
            raise ValueError(f"unbound variable v{phi.index}")
        return assignment[phi.index - 1]
    if isinstance(phi, Not):
        return not recursive_eval(phi.operand, assignment)
    if isinstance(phi, Or):
        return recursive_eval(phi.left, assignment) or recursive_eval(phi.right, assignment)
    return recursive_eval(phi.left, assignment) and recursive_eval(phi.right, assignment)


def _outcome(evaluate, phi, assignment):
    try:
        return evaluate(phi, assignment)
    except ValueError as error:
        return str(error)


def test_eval_formula_matches_recursive_reference():
    # Short assignments, and circuits with out-of-range, dangling and cyclic
    # references: the values and the error messages agree, short-circuiting included.
    rng = random.Random(2718)
    for _ in range(400):
        phi = gen_formula(rng, 4, rng.randint(1, 12))
        assignment = [rng.random() < 0.5 for _ in range(rng.randint(0, 4))]
        assert _outcome(eval_formula, phi, assignment) == _outcome(recursive_eval, phi, assignment)
    gate_kinds = (lambda a, b: NotGate(a), OrGate, AndGate)
    for _ in range(800):
        inputs, size = rng.randint(0, 3), rng.randint(1, 6)

        def node():
            if rng.random() < 0.35:
                return InputRef(rng.randint(1, inputs + 1))
            return GateRef(rng.randint(0, size + 1))

        gates = tuple(rng.choice(gate_kinds)(node(), node()) for _ in range(size))
        circuit = Circuit(inputs, gates, rng.randint(1, size))
        assignment = [rng.random() < 0.5 for _ in range(rng.randint(max(0, inputs - 1), inputs + 1))]
        assert _outcome(eval_formula, circuit, assignment) == _outcome(recursive_eval, circuit, assignment)



def test_eval_circuit_takes_none_entries_for_values():
    # g1 is done, with the value None, when g2 reaches it a second time.
    circuit = parse_netlist("g1 = OR in1 in2\ng2 = OR g1 g1\noutput g2")
    assert eval_circuit(circuit, [None, None]) is None
    assert recursive_eval(circuit, [None, None]) is None
    assert eval_circuit(circuit, [None, 0]) == recursive_eval(circuit, [None, 0]) == 0


def test_eval_circuit_matches_recursive_reference_on_non_bool_entries():
    # Acyclic circuits with shared gates, and circuits with dangling and
    # cyclic references, at entries of every truth value, None included:
    # the same value of the same type, or the same error message.
    rng = random.Random(3141)
    entries = (True, False, None, 0, 1, "", "x", (), (0,))
    gate_kinds = (lambda a, b: NotGate(a), OrGate, AndGate)
    for trial in range(1200):
        if trial % 2:
            circuit = gen_circuit(rng, 3, 10)
        else:
            inputs, size = rng.randint(0, 3), rng.randint(1, 6)

            def node():
                if rng.random() < 0.35:
                    return InputRef(rng.randint(1, inputs + 1))
                return GateRef(rng.randint(0, size + 1))

            gates = tuple(rng.choice(gate_kinds)(node(), node()) for _ in range(size))
            circuit = Circuit(inputs, gates, rng.randint(1, size))
        for length in range(max(0, circuit.num_inputs - 1), circuit.num_inputs + 2):
            assignment = [rng.choice(entries) for _ in range(length)]
            got = _outcome(eval_circuit, circuit, assignment)
            want = _outcome(recursive_eval, circuit, assignment)
            assert (type(got), got) == (type(want), want), (render_netlist(circuit), assignment)

def reference_eval_cnf(phi, assignment):
    """Clause by clause, a generator of literal values per clause: the reference for ``eval_cnf``."""

    def literal_value(lit):
        if lit.var > len(assignment):
            raise ValueError(f"unbound variable v{lit.var}")
        value = assignment[lit.var - 1]
        return not value if lit.negated else value

    return all(any(literal_value(lit) for lit in clause) for clause in phi.clauses)


def test_eval_cnf_matches_clause_by_clause_reference():
    # Assignments of every length from 0 to num_vars + 1, some of truthy and
    # falsy values that are not bools: values, result types and errors agree.
    rng = random.Random(1618)
    entries = (True, False, 0, 1, None, "", "x", (), (0,))
    for trial in range(600):
        phi = gen_cnf(rng, 5, 6) if trial else Cnf(0, ())
        for length in range(phi.num_vars + 2):
            for values in ((True, False), entries):
                assignment = [rng.choice(values) for _ in range(length)]
                got = _outcome(eval_cnf, phi, assignment)
                assert got == _outcome(reference_eval_cnf, phi, assignment)
                assert type(got) in (bool, str)
                assert _outcome(eval_formula, phi, assignment) == got


def test_eval_cnf_raises_only_for_a_reached_literal():
    # v3 is unbound in each; only the last call reaches it.
    after_a_true_literal = Cnf(3, ((Literal(1), Literal(3)),))
    assert eval_cnf(after_a_true_literal, [True]) is True
    after_a_false_clause = Cnf(3, ((Literal(1),), (Literal(3),)))
    assert eval_cnf(after_a_false_clause, [False]) is False
    with pytest.raises(ValueError, match="unbound variable v3"):
        eval_cnf(after_a_false_clause, [True])


def test_eval_cnf_returns_a_bool_for_any_entries():
    phi = Cnf(2, ((Literal(1), Literal(2, negated=True)),))
    assert eval_cnf(phi, ["x", 1]) is True
    assert eval_cnf(phi, [0, 7]) is False
    assert eval_cnf(phi, [None, ()]) is True
    assert eval_cnf(Cnf(0, ()), []) is True


def test_eval_formula_deep_nesting():
    depth = 10_000
    negations = FVar(1)
    for _ in range(depth):
        negations = Not(negations)
    assert eval_formula(negations, [True]) is True
    left_deep = right_deep = FVar(1)
    for index in range(2, depth + 2):
        left_deep = And(left_deep, FVar(index))
        right_deep = Or(FVar(index), right_deep)
    assert eval_formula(left_deep, [True] * (depth + 1)) is True
    assert eval_formula(right_deep, [False] * (depth + 1)) is False
    with pytest.raises(ValueError, match=f"unbound variable v{depth + 1}"):
        eval_formula(left_deep, [True] * depth)


def test_formula_measures_deep_nesting():
    depth = 10_000
    negations = FVar(3)
    for _ in range(depth):
        negations = Not(negations)
    assert formula_vars(negations) == 3
    assert formula_size(negations) == formula_block_size(negations) == depth + 1
    assert formula_satisfiable(negations) is True
    left_deep = right_deep = FVar(1)
    for index in range(2, depth + 2):
        left_deep = And(left_deep, Not(FVar(index)))
        right_deep = Or(FVar(index), right_deep)
    assert formula_vars(left_deep) == formula_vars(right_deep) == depth + 1
    assert formula_size(left_deep) == 3 * depth + 1
    assert formula_block_size(left_deep) == 4 * depth + 1
    assert formula_size(right_deep) == formula_block_size(right_deep) == 2 * depth + 1
    # Exhaustive search stops at its resource bound, after the variables are counted.
    with pytest.raises(ResourceBoundError, match=f"resource bound exceeded: {depth + 1} variables"):
        formula_satisfiable(left_deep)
    same_variable = FVar(1)
    for _ in range(depth):
        same_variable = And(Not(FVar(1)), same_variable)
    assert formula_satisfiable(same_variable) is False


def test_formula_satisfiable_bound():
    phi = FVar(1)
    for index in range(2, MAX_FORMULA_VARS + 2):
        phi = Or(phi, FVar(index))
    assert formula_vars(phi) == MAX_FORMULA_VARS + 1 == 26
    with pytest.raises(ResourceBoundError, match="resource bound exceeded: 26 variables for exhaustive search"):
        formula_satisfiable(phi)
    # An explicit count is bounded too, whatever the formula's variables.
    with pytest.raises(ResourceBoundError, match="resource bound exceeded: 26 variables"):
        formula_satisfiable(FVar(1), num_vars=26)


def test_eval_circuit_deep_chains():
    depth = 10_000
    # Gate k negates gate k - 1, gate 1 the input; the output is the last gate.
    nots = (NotGate(InputRef(1)),) + tuple(NotGate(GateRef(k - 1)) for k in range(2, depth + 1))
    assert eval_formula(Circuit(1, nots, depth), [False]) is False
    # Gate k ors input 1 with gate k + 1, reached through the right operand.
    ors = tuple(OrGate(InputRef(1), GateRef(k + 1)) for k in range(1, depth)) + (NotGate(InputRef(2)),)
    assert eval_formula(Circuit(2, ors, 1), [False, False]) is True
    assert eval_formula(Circuit(2, ors, 1), [False, True]) is False
    cyclic = ors[:-1] + (NotGate(GateRef(1)),)
    with pytest.raises(ValueError, match="cyclic circuit"):
        eval_formula(Circuit(2, cyclic, 1), [False, False])
    dangling = ors[:-1] + (NotGate(GateRef(depth + 1)),)
    with pytest.raises(ValueError, match=f"dangling gate reference g{depth + 1}"):
        eval_formula(Circuit(2, dangling, 1), [False, False])


def test_eval_circuit_visits_only_gates_the_output_needs():
    # Gate 2 dangles and gate 3 is cyclic, but neither is reached from gate 1.
    gates = (NotGate(InputRef(1)), NotGate(GateRef(9)), NotGate(GateRef(3)))
    assert eval_formula(Circuit(1, gates, 1), [True]) is False
    with pytest.raises(ValueError, match="assignment shorter than the circuit's input count"):
        eval_formula(Circuit(2, gates, 1), [True])
    with pytest.raises(ValueError, match="unbound input in2"):
        eval_formula(Circuit(1, (NotGate(InputRef(2)),), 1), [True])


def test_compile_cnf_golden():
    expected = (
        "+in:1.get ; #2 ; -in:2.get ; #2 ; +out.set:F ; #2 ; ! ; "
        "+in:2.get ; #2 ; +out.set:F ; #2 ; ! ; +out.set:T ; !"
    )
    assert render(compile_cnf(EXAMPLE_CNF)) == expected
    assert psize(compile_cnf(EXAMPLE_CNF)) == 14
    assert cnf_compiled_size(EXAMPLE_CNF) == 14


def test_compile_cnf_empty_is_constant_true():
    assert render(compile_cnf(Cnf(0, ()))) == "+out.set:T ; !"


def test_compile_cnf_empty_clause_rejected():
    with pytest.raises(ValueError):
        Cnf(1, ((),))


def test_cnf_rejects_negative_num_vars():
    with pytest.raises(ValueError, match="num_vars must be >= 0"):
        Cnf(-1, ())
    with pytest.raises(ValueError, match="num_vars must be >= 0"):
        parse_dimacs("p cnf -2 0")


def test_compile_cnf_matches_oracle():
    rng = random.Random(53)
    for _ in range(150):
        phi = gen_cnf(rng, 4, 5)
        compiled = compile_cnf(phi)
        oracle = TruthTable.tabulate(phi.num_vars, lambda v: eval_formula(phi, v))
        assert truth_table(compiled, phi.num_vars) == oracle, render_dimacs(phi)
        assert psize(compiled) == cnf_compiled_size(phi)


def test_compile_cnf_jump_discipline():
    rng = random.Random(59)
    allowed_basics = {"get"}
    for _ in range(100):
        phi = gen_cnf(rng, 4, 5)
        for u in compile_cnf(phi).items:
            if isinstance(u, Jump):
                assert u.distance == 2
            elif hasattr(u, "basic"):
                b = u.basic
                assert isinstance(b, RegisterOp)
                if isinstance(b.focus, InReg):
                    assert b.method == GET
                else:
                    assert b.focus == OUT and b.method in (SET_TRUE, SET_FALSE)
        profile = classify(compile_cnf(phi))
        assert profile.is_isbrna


def test_compile_cnf_jumpfree_golden():
    phi = Cnf(1, ((Literal(1),),))
    assert render(compile_cnf_jumpfree(phi)) == "+in:1.get ; +out.set:F ; ! ; +out.set:T ; !"


def test_compile_cnf_jumpfree_has_no_jumps_and_matches():
    rng = random.Random(61)
    for _ in range(150):
        phi = gen_cnf(rng, 4, 5)
        compiled = compile_cnf_jumpfree(phi)
        assert not any(isinstance(u, Jump) for u in compiled.items)
        oracle = TruthTable.tabulate(phi.num_vars, lambda v: eval_formula(phi, v))
        assert truth_table(compiled, phi.num_vars) == oracle, render_dimacs(phi)


def test_compile_formula_goldens():
    assert render(compile_formula(Not(FVar(1)))) == "+in:1.get ; #2 ; +out.set:T ; !"
    assert render(compile_formula(Or(FVar(1), FVar(2)))) == (
        "+in:1.get ; #2 ; +in:2.get ; +out.set:T ; !"
    )
    assert render(compile_formula(And(FVar(1), FVar(2)))) == (
        "+in:1.get ; #2 ; #3 ; +in:2.get ; +out.set:T ; !"
    )


def test_compile_formula_makes_each_variable_test_once():
    # Three variables at six occurrences: leaf is called once per variable,
    # and each occurrence holds the test made for its variable.
    phi = parse_formula("(and (or v1 (not v2)) (and (or v2 v3) (not (and v1 v3))))")
    calls = []

    def leaf(k):
        calls.append(k)
        return RegisterOp(InReg(k), GET)

    x = compile_formula(phi, leaf)
    assert sorted(calls) == [1, 2, 3]
    assert render(x) == (
        "+in:1.get ; #3 ; +in:2.get ; #2 ; #2 ; #12 ; +in:2.get ; #2 ; +in:3.get ; #2 ; #7 ; "
        "+in:1.get ; #2 ; #3 ; +in:3.get ; #2 ; +out.set:T ; !"
    )
    assert x == compile_formula(phi)


def test_compile_formula_size_law():
    rng = random.Random(67)
    for _ in range(200):
        phi = gen_formula(rng, 3, rng.randint(1, 10))
        assert psize(compile_formula(phi)) == formula_block_size(phi) + 2


def test_compile_formula_never_writes_false():
    rng = random.Random(71)
    for _ in range(200):
        phi = gen_formula(rng, 3, rng.randint(1, 10))
        profile = classify(compile_formula(phi))
        assert profile.is_isbrna and not profile.has_out_set_false


def test_compile_formula_matches_oracle():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randint(1, 4)
        phi = gen_formula(rng, n, rng.randint(1, 10))
        compiled = compile_formula(phi)
        oracle = TruthTable.tabulate(n, lambda v: eval_formula(phi, v))
        assert truth_table(compiled, n) == oracle, render_formula(phi)


def test_compile_circuit_not_gate_golden():
    circuit = Circuit(1, (NotGate(InputRef(1)),), 1)
    assert render(compile_circuit(circuit)) == (
        "+in:1.get ; #2 ; +aux:1.set:T ; +aux:1.get ; +out.set:T ; !"
    )


def test_compile_circuit_and_gate_golden():
    circuit = Circuit(2, (AndGate(InputRef(1), InputRef(2)),), 1)
    assert render(compile_circuit(circuit)) == (
        "+in:1.get ; #2 ; #3 ; +in:2.get ; +aux:1.set:T ; +aux:1.get ; +out.set:T ; !"
    )


def test_compile_circuit_shared_fanout():
    circuit = Circuit(1, (NotGate(InputRef(1)), OrGate(GateRef(1), GateRef(1))), 2)
    compiled = compile_circuit(circuit)
    oracle = TruthTable.tabulate(1, lambda v: not v[0])
    assert truth_table(compiled, 1) == oracle
    # The shared gate is compiled once: exactly one write to its register.
    writes = [
        u
        for u in compiled.items
        if hasattr(u, "basic")
        and isinstance(u.basic, RegisterOp)
        and u.basic.method == SET_TRUE
        and not isinstance(u.basic.focus, type(OUT))
    ]
    assert len(writes) == 2  # one per gate


def test_compile_circuit_sorts_gates():
    # Gate 1 depends on gate 2; emission must place g2 first.
    circuit = Circuit(1, (NotGate(GateRef(2)), NotGate(InputRef(1))), 1)
    assert topological_gate_order(circuit) == [2, 1]
    oracle = TruthTable.tabulate(1, lambda v: v[0])
    assert truth_table(compile_circuit(circuit), 1) == oracle


def _restart_scan_order(circuit):
    """Reference: place the lowest-index gate whose gate predecessors are all placed, then rescan."""
    m = len(circuit.gates)
    placed, order = set(), []
    while len(order) < m:
        for k in range(1, m + 1):
            gate = circuit.gates[k - 1]
            preds = (gate.pred,) if isinstance(gate, NotGate) else (gate.left, gate.right)
            if k not in placed and all(not isinstance(p, GateRef) or p.index in placed for p in preds):
                placed.add(k)
                order.append(k)
                break
        else:
            return None  # cyclic
    return order


def _renumbered(rng, circuit):
    """The same circuit with its gates renumbered at random, so references go both ways."""
    m = len(circuit.gates)
    new = list(range(1, m + 1))
    rng.shuffle(new)

    def node(v):
        return GateRef(new[v.index - 1]) if isinstance(v, GateRef) else v

    gates = [None] * m
    for k, gate in enumerate(circuit.gates, start=1):
        if isinstance(gate, NotGate):
            gates[new[k - 1] - 1] = NotGate(node(gate.pred))
        else:
            gates[new[k - 1] - 1] = type(gate)(node(gate.left), node(gate.right))
    return Circuit(circuit.num_inputs, tuple(gates), new[circuit.output_gate - 1])


def test_topological_gate_order_matches_restart_scan():
    rng = random.Random(131)
    for trial in range(300):
        circuit = _renumbered(rng, gen_circuit(rng, 4, 30))
        if trial % 4 == 0:  # close a cycle through a random gate
            m = len(circuit.gates)
            k = rng.randint(1, m)
            gates = list(circuit.gates)
            gates[k - 1] = AndGate(GateRef(rng.randint(1, m)), GateRef(k))
            circuit = Circuit(circuit.num_inputs, tuple(gates), circuit.output_gate)
        expected = _restart_scan_order(circuit)
        if expected is None:
            with pytest.raises(ValueError, match="cyclic circuit"):
                topological_gate_order(circuit)
        else:
            assert topological_gate_order(circuit) == expected


def test_topological_gate_order_reversed_chain():
    # Gate k reads gate k + 1 and the last gate reads the input: 600, 599, ..., 1.
    gates = tuple(NotGate(GateRef(k + 1)) for k in range(1, 600)) + (NotGate(InputRef(1)),)
    assert topological_gate_order(Circuit(1, gates, 1)) == list(range(600, 0, -1))


def test_compile_circuit_cycle_rejected():
    circuit = Circuit(1, (NotGate(GateRef(2)), NotGate(GateRef(1))), 1)
    with pytest.raises(ValueError):
        compile_circuit(circuit)


def test_compile_circuit_dangling_rejected():
    circuit = Circuit(1, (NotGate(GateRef(5)),), 1)
    with pytest.raises(ValueError):
        compile_circuit(circuit)


def _seeded_sources(seed: int):
    """Sources at the benchmark's sizes, from its generators, and small ones from the test generators.

    Tabulate compiles CNFs of n clauses, formulas of 2n leaves and circuits
    of n + 4 gates over n = 8, 10, 12 inputs; rewrite compiles CNFs of 11 to
    777 clauses over 20 variables and circuits of 100 to 2000 gates.
    """
    bench = bench_workloads()
    rng = random.Random(seed)
    cnfs = [bench.random_cnf(rng, n, n) for n in (8, 10, 12)]
    cnfs += [bench.random_cnf(rng, 20, m) for m in (11, 33, 111, 333, 777)]
    cnfs += [gen_cnf(rng, 6, 12) for _ in range(30)]
    formulas = [bench.random_formula(rng, n, 2 * n) for n in (8, 10, 12) for _ in range(3)]
    formulas += [gen_formula(rng, 5, rng.randint(1, 40)) for _ in range(30)]
    circuits = [bench.random_circuit(rng, n, n + 4) for n in (8, 10, 12)]
    circuits += [bench.random_circuit(rng, 16, gates) for gates in (100, 200, 2000)]
    circuits += [gen_circuit(rng, 4, 30) for _ in range(30)]
    return cnfs, formulas, circuits


@pytest.mark.parametrize("seed", [401, 402, 403])
def test_compilers_match_per_node_reference(seed):
    # The compilers make each test once per call; the reference makes one per occurrence.
    cnfs, formulas, circuits = _seeded_sources(seed)
    for phi in cnfs:
        assert compile_cnf(phi).items == reference_compile_cnf(phi).items
        assert compile_cnf_jumpfree(phi).items == reference_compile_cnf_jumpfree(phi).items
    for phi in formulas:
        assert compile_formula(phi).items == reference_compile_formula(phi).items
    for circuit in _renumbered_all(random.Random(seed), circuits):
        assert topological_gate_order(circuit) == reference_topological_gate_order(circuit)
        assert compile_circuit(circuit).items == reference_compile_circuit(circuit).items


def _renumbered_all(rng, circuits):
    for circuit in circuits:
        yield circuit
        yield _renumbered(rng, circuit)


def _first_error(f, circuit) -> str:
    with pytest.raises(ValueError) as info:
        f(circuit)
    return str(info.value)


def test_circuit_errors_name_the_first_bad_gate():
    # Gate 2 has a dangling input, gate 3 a dangling gate, and gates 4 and 5 form a cycle.
    gates = [NotGate(InputRef(1)), OrGate(GateRef(1), InputRef(3)), AndGate(InputRef(9), GateRef(7))]
    gates += [NotGate(GateRef(5)), NotGate(GateRef(4))]
    cases = [
        (Circuit(2, tuple(gates), 1), "dangling input reference in3 in g2"),
        (Circuit(3, tuple(gates), 1), "dangling input reference in9 in g3"),  # in9 comes before g7 in g3
        (Circuit(9, tuple(gates), 1), "dangling gate reference g7 in g3"),
        (Circuit(9, tuple(gates[:2] + gates[3:]), 1), "dangling gate reference g5 in g3"),
        (Circuit(9, tuple(gates[:2]) + (NotGate(GateRef(4)), NotGate(GateRef(3))), 1), "cyclic circuit"),
        (Circuit(1, (OrGate(GateRef(0), InputRef(2)),), 1), "dangling gate reference g0 in g1"),
    ]
    for circuit, message in cases:
        for f in (topological_gate_order, compile_circuit, reference_topological_gate_order):
            assert _first_error(f, circuit) == message


def test_circuit_errors_match_the_reference_on_corrupted_circuits():
    rng = random.Random(137)
    for _ in range(300):
        circuit = _renumbered(rng, gen_circuit(rng, 4, 20))
        gates = list(circuit.gates)
        m = len(gates)
        for _ in range(rng.randint(1, 3)):  # dangling references and cycles, in random gates
            k = rng.randint(1, m)
            bad = rng.choice((GateRef(rng.choice((0, m + 1, m + 5))), InputRef(circuit.num_inputs + 1), GateRef(k)))
            good = rng.choice((InputRef(1), GateRef(rng.randint(1, m))))
            gates[k - 1] = rng.choice((OrGate(bad, good), AndGate(good, bad), NotGate(bad)))
        circuit = Circuit(circuit.num_inputs, tuple(gates), circuit.output_gate)
        try:
            expected = reference_compile_circuit(circuit).items
        except ValueError as exc:
            assert _first_error(compile_circuit, circuit) == str(exc)
        else:
            assert compile_circuit(circuit).items == expected


def test_compile_circuit_matches_oracle():
    rng = random.Random(79)
    for _ in range(150):
        circuit = gen_circuit(rng, 3, 6)
        compiled = compile_circuit(circuit)
        oracle = TruthTable.tabulate(circuit.num_inputs, lambda v: eval_formula(circuit, v))
        assert truth_table(compiled, circuit.num_inputs) == oracle, render_netlist(
            circuit
        )
        assert psize(compiled) == circuit_compiled_size(circuit)
        assert not classify(compiled).has_out_set_false


def test_dimacs_round_trip():
    text = "c comment\np cnf 2 2\n1 -2 0\n2 0"
    phi = parse_dimacs(text)
    assert phi == EXAMPLE_CNF
    assert parse_dimacs(render_dimacs(phi)) == phi


def test_dimacs_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 2\n1 0")


def test_formula_sexpr_round_trip():
    phi = parse_formula("(and (or v1 (not v2)) v2)")
    assert phi == And(Or(FVar(1), Not(FVar(2))), FVar(2))
    assert parse_formula(render_formula(phi)) == phi


def recursive_render_formula(phi) -> str:
    """render_formula by recursion: the reference for the explicit-stack one."""
    if isinstance(phi, FVar):
        return f"v{phi.index}"
    if isinstance(phi, Not):
        return f"(not {recursive_render_formula(phi.operand)})"
    op = "or" if isinstance(phi, Or) else "and"
    return f"({op} {recursive_render_formula(phi.left)} {recursive_render_formula(phi.right)})"


def test_render_formula_matches_recursive_reference():
    rng = random.Random(331)
    for _ in range(300):
        phi = gen_formula(rng, 4, rng.randint(1, 12))
        assert render_formula(phi) == recursive_render_formula(phi)
        assert parse_formula(render_formula(phi)) == phi


def test_render_formula_deep_nesting():
    phi = FVar(1)
    for index in range(2, 5002):
        phi = And(Not(phi), FVar(index))
    text = render_formula(phi)
    assert text.startswith("(and (not (and (not ") and text.endswith("v5000)) v5001)")
    assert text.count("(") == text.count(")") == 10000
    assert parse_formula(text) == phi


DEPTH = 10_000


@pytest.mark.parametrize(
    "text",
    [
        "(not " * DEPTH + "v1" + ")" * DEPTH,
        "(and " + " ".join(f"v{i % 3 + 1}" for i in range(DEPTH)) + ")",
        "(or " + " ".join(f"v{i % 3 + 1}" for i in range(DEPTH)) + ")",
        "(and (or v1 (not v2)) (not (and v3 (or v2 v1))) (or v3 v1 v2))",
    ],
    ids=["nested-not", "and", "or", "shallow"],
)
def test_parse_and_compile_deep_formulas(text):
    # Nesting far past the interpreter's recursion limit parses and compiles.
    phi = parse_formula(text)
    compiled = compile_formula(phi)
    assert psize(compiled) == formula_block_size(phi) + 2
    assert truth_table(compiled, 3) == TruthTable.tabulate(3, lambda v: eval_formula(phi, v))


def test_parse_deep_nesting_round_trips():
    text = "(not " * DEPTH + "(and v1 (or v2 (not v3)))" + ")" * DEPTH
    phi = And(FVar(1), Or(FVar(2), Not(FVar(3))))
    for _ in range(DEPTH):
        phi = Not(phi)
    assert parse_formula(text) == phi
    assert render_formula(phi) == text


# Formulas far deeper than the recursion limit compare, hash and print.
DEEPEST = 10**5


def nested_not(depth: int, leaf) -> Not:
    phi = leaf
    for _ in range(depth):
        phi = Not(phi)
    return phi


def test_eq_hash_and_repr_of_deeply_nested_not():
    phi = parse_formula("(not " * DEEPEST + "v1" + ")" * DEEPEST)
    same = nested_not(DEEPEST, FVar(1))
    assert phi == same and not phi != same
    assert hash(phi) == hash(same) == hash((phi.operand,))
    for other in (nested_not(DEEPEST, FVar(2)), nested_not(DEEPEST - 1, FVar(1)), nested_not(DEEPEST - 1, Or(FVar(1), FVar(1)))):
        assert phi != other and other != phi
    assert repr(phi) == "Not(operand=" * DEEPEST + "FVar(index=1)" + ")" * DEEPEST


def test_eq_hash_and_repr_of_a_long_and_chain():
    indices = [i % 3 + 1 for i in range(DEEPEST)]
    phi = parse_formula("(and " + " ".join(f"v{i}" for i in indices) + ")")
    same = FVar(indices[-1])
    for i in reversed(indices[:-1]):
        same = And(FVar(i), same)
    assert phi == same and hash(phi) == hash(same) == hash((phi.left, phi.right))
    # The same chain with its last operator an ``or``, and with its last operand changed.
    for last in (Or(FVar(indices[-2]), FVar(indices[-1])), And(FVar(indices[-2]), FVar(4))):
        other = last
        for i in reversed(indices[:-2]):
            other = And(FVar(i), other)
        assert phi != other and other != phi
    assert hash(phi) != hash(other)
    head = "".join(f"And(left=FVar(index={i}), right=" for i in indices[:-1])
    assert repr(phi) == head + f"FVar(index={indices[-1]})" + ")" * (DEEPEST - 1)


def test_formula_sexpr_nary_folds_right():
    assert parse_formula("(or v1 v2 v3)") == Or(FVar(1), Or(FVar(2), FVar(3)))


def test_formula_sexpr_errors():
    for bad in ("", "(and v1)", "(xor v1 v2)", "(or v1 v2", "v1 v2", "w3"):
        with pytest.raises(ValueError):
            parse_formula(bad)


def test_netlist_round_trip():
    text = "g1 = NOT in1\ng2 = OR g1 in2\noutput g2"
    circuit = parse_netlist(text)
    assert circuit == Circuit(2, (NotGate(InputRef(1)), OrGate(GateRef(1), InputRef(2))), 2)
    assert parse_netlist(render_netlist(circuit)) == circuit


def test_input_reference_index_must_be_positive():
    with pytest.raises(ValueError, match="input reference index must be >= 1, got in0"):
        InputRef(0)
    with pytest.raises(ValueError, match="got in0"):
        parse_netlist("g1 = NOT in0\noutput g1")
    with pytest.raises(ValueError, match="got in-1"):
        Circuit(1, (NotGate(InputRef(-1)),), 1)


def test_netlist_errors():
    with pytest.raises(ValueError):
        parse_netlist("g1 = NOT in1")  # missing output
    with pytest.raises(ValueError):
        parse_netlist("g1 = NOT in1 in2\noutput g1")
    with pytest.raises(ValueError):
        parse_netlist("g2 = NOT in1\noutput g2")  # gap in numbering


# --- text-format round trips --------------------------------------------------------


def formulas():
    return st.recursive(
        st.integers(1, 40).map(FVar),
        lambda sub: st.one_of(sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
        max_leaves=20,
    )


@settings(max_examples=300, deadline=None)
@given(phi=formulas())
def test_property_formula_round_trip(phi):
    assert parse_formula(render_formula(phi)) == phi


@st.composite
def cnfs(draw):
    num_vars = draw(st.integers(0, 30))
    if not num_vars:
        return Cnf(0, ())
    literal = st.builds(Literal, st.integers(1, num_vars), st.booleans())
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4).map(tuple), max_size=8))
    return Cnf(num_vars, tuple(clauses))


@settings(max_examples=300, deadline=None)
@given(phi=cnfs())
def test_property_dimacs_round_trip(phi):
    assert parse_dimacs(render_dimacs(phi)) == phi


@st.composite
def circuits(draw):
    """Circuits whose largest referenced input is ``num_inputs``: the netlist has no input-count line."""
    m = draw(st.integers(1, 8))
    node = st.one_of(st.integers(1, 6).map(InputRef), st.integers(0, m + 1).map(GateRef))
    gates = draw(
        st.lists(
            st.one_of(st.builds(NotGate, node), st.builds(OrGate, node, node), st.builds(AndGate, node, node)),
            min_size=m,
            max_size=m,
        )
    )
    fields = [getattr(gate, name) for gate in gates for name in gate.__match_args__]
    inputs = [ref.index for ref in fields if isinstance(ref, InputRef)]
    return Circuit(max(inputs, default=0), tuple(gates), draw(st.integers(1, m)))


@settings(max_examples=300, deadline=None)
@given(circuit=circuits())
def test_property_netlist_round_trip(circuit):
    assert parse_netlist(render_netlist(circuit)) == circuit
