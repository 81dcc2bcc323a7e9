"""Boolean sources (CNF, formulas, circuits) and their sequence compilers.

Each source kind induces an n-ary Boolean function.  The truth-functional
oracles evaluate a source at an assignment, whose entry k - 1 is the value
of variable or input k, taken for its truth.  They are the reference the
compiled sequences are checked against, so they share no code with the
executors; each call evaluates afresh, caching nothing.  An error is
raised only for the part of the source that evaluation reaches:

* ``eval_cnf`` visits the clauses in order and each clause's literals in
  order up to its first true one, and returns ``False`` at the first clause
  with none, else ``True``: always a ``bool``.  A reached literal past the
  assignment raises ``ValueError("unbound variable v<k>")``.
* ``eval_formula`` on a not/or/and formula visits it left to right, and
  ``or``/``and`` skip their right operand when the left one decides.  A
  reached variable past the assignment raises ``ValueError("unbound
  variable v<k>")``.  The result is what Python's ``not``/``or``/``and``
  give: a ``bool`` on a ``bool`` assignment, else the deciding entry itself
  unless a ``not`` is applied last.
* ``eval_circuit`` first raises ``ValueError("assignment shorter than the
  circuit's input count")``, then visits the gates the output gate reaches,
  each at most once, a gate's first operand first, as for formulas.  A
  reached gate number out of range raises ``ValueError("dangling gate
  reference g<k>")``, a gate reached again while it is under way raises
  ``ValueError("cyclic circuit")``, and a reached input past the
  assignment raises ``ValueError("unbound input in<k>")``.  The result is
  as for formulas.
* ``eval_formula`` on a CNF or a circuit is ``eval_cnf`` or ``eval_circuit``.

The compilers emit register-only instruction sequences that compute the
same function:

* ``compile_cnf``: clause-by-clause chains using only ``#2`` jumps;
* ``compile_cnf_jumpfree``: the same shape with every jump replaced by an
  always-skipping write, so no jump instructions occur at all;
* ``compile_formula``: structural compilation of not/or/and with
  short-circuit jumps, never writing ``out.set:F``;
* ``compile_circuit``: one auxiliary register per gate, gates emitted in
  topological order.
"""

from __future__ import annotations

import re
from heapq import heappop, heappush
from typing import Callable, Iterator, Sequence, Union

from .instr import (
    GET,
    SET_FALSE,
    SET_TRUE,
    AuxReg,
    BasicInstruction,
    InReg,
    InstructionSequence,
    Jump,
    NegTest,
    OUT,
    PosTest,
    PrimitiveInstruction,
    RegisterOp,
    TERM,
    _set,
    _Tree,
    _Value,
)

# --- source ASTs -------------------------------------------------------------


class Literal(_Value):
    """A propositional variable or its negation."""

    __slots__ = __match_args__ = ("var", "negated")

    def __init__(self, var: int, negated: bool = False):
        if var < 1:
            raise ValueError(f"literal variable must be >= 1, got {var}")
        _set(self, "var", var)
        _set(self, "negated", negated)


class Cnf(_Value):
    """Conjunction of disjunctions of literals; zero clauses means constant True."""

    __slots__ = __match_args__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple[tuple[Literal, ...], ...]):
        if num_vars < 0:
            raise ValueError(f"CNF num_vars must be >= 0, got {num_vars}")
        for clause in clauses:
            if not clause:
                raise ValueError("CNF clause must be nonempty")
            for lit in clause:
                if lit.var > num_vars:
                    raise ValueError(f"literal v{lit.var} exceeds num_vars={num_vars}")
        _set(self, "num_vars", num_vars)
        _set(self, "clauses", clauses)


class FVar(_Value):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError("formula variable index must be >= 1")
        _set_fvar_index(self, index)


# The connectives nest to any depth: ``_Tree`` compares, hashes and writes
# them out without recursion.


class Not(_Tree):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: "BoolFormula"):
        _set_operand(self, operand)


class Or(_Tree):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "BoolFormula", right: "BoolFormula"):
        _set_or_left(self, left)
        _set_or_right(self, right)


class And(_Tree):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "BoolFormula", right: "BoolFormula"):
        _set_and_left(self, left)
        _set_and_right(self, right)


# Each field is filled through its slot's setter, as in the thread nodes.
_set_fvar_index, _set_operand = FVar.index.__set__, Not.operand.__set__
_set_or_left, _set_or_right, _set_and_left, _set_and_right = Or.left.__set__, Or.right.__set__, And.left.__set__, And.right.__set__

BoolFormula = Union[FVar, Not, Or, And]


class InputRef(_Value):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError(f"input reference index must be >= 1, got in{index}")
        _set(self, "index", index)


class GateRef(_Value):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


Node = Union[InputRef, GateRef]


class NotGate(_Value):
    __slots__ = __match_args__ = ("pred",)

    def __init__(self, pred: Node):
        _set(self, "pred", pred)


class OrGate(_Value):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _set(self, "left", left)
        _set(self, "right", right)


class AndGate(_Value):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _set(self, "left", left)
        _set(self, "right", right)


Gate = Union[NotGate, OrGate, AndGate]


class Circuit(_Value):
    """Gates numbered from 1; predecessors are inputs or other gates."""

    __slots__ = __match_args__ = ("num_inputs", "gates", "output_gate")

    def __init__(self, num_inputs: int, gates: tuple[Gate, ...], output_gate: int):
        if not gates:
            raise ValueError("circuit must have at least one gate")
        if not 1 <= output_gate <= len(gates):
            raise ValueError(f"output gate g{output_gate} does not exist")
        _set(self, "num_inputs", num_inputs)
        _set(self, "gates", gates)
        _set(self, "output_gate", output_gate)


# --- evaluation oracles -------------------------------------------------------


def eval_cnf(phi: Cnf, assignment: Sequence[bool]) -> bool:
    bound = len(assignment)
    for clause in phi.clauses:
        for lit in clause:
            var = lit.var
            if var > bound:
                raise ValueError(f"unbound variable v{var}")
            if assignment[var - 1]:
                if not lit.negated:
                    break
            elif lit.negated:
                break
        else:
            return False
    return True


def _eval_bform(phi: BoolFormula, assignment: Sequence[bool]) -> bool:
    # By an explicit stack of the operators awaiting their first operand.  Like
    # ``or``/``and``, a decided left operand skips the right one and its errors.
    bound = len(assignment)
    pending: list[BoolFormula] = []
    node = phi
    while True:
        while (kind := type(node)) is not FVar:
            pending.append(node)
            node = node.operand if kind is Not else node.left
        if node.index > bound:
            raise ValueError(f"unbound variable v{node.index}")
        value = assignment[node.index - 1]
        while pending:
            op = pending.pop()
            kind = type(op)
            if kind is Not:
                value = not value
            elif value if kind is And else not value:
                node = op.right  # undecided: the operator's value is the right operand's
                break
        else:
            return value


# What ``eval_circuit`` holds for a gate under way: no value a gate can take,
# as an assignment's entries, ``None`` included, can be gate values.
_UNDER_WAY = object()


def eval_circuit(circuit: Circuit, assignment: Sequence[bool]) -> bool:
    # As ``_eval_bform``, evaluating each gate reachable from the output at most once.
    bound = len(assignment)
    if circuit.num_inputs > bound:
        raise ValueError("assignment shorter than the circuit's input count")
    gates = circuit.gates
    size = len(gates)
    cache: dict[int, object] = {}  # _UNDER_WAY while the gate is under way
    pending: list[tuple[int, bool]] = []  # gates under way, and whether on their right operand
    k = circuit.output_gate
    while True:
        # Enter gate k, then the first operands below it, down to a node with a value.
        while True:
            if not 1 <= k <= size:
                raise ValueError(f"dangling gate reference g{k}")
            if k in cache:
                raise ValueError("cyclic circuit")
            cache[k] = _UNDER_WAY
            pending.append((k, False))
            gate = gates[k - 1]
            node = gate.pred if type(gate) is NotGate else gate.left
            if type(node) is not GateRef:
                if node.index > bound:
                    raise ValueError(f"unbound input in{node.index}")
                value = assignment[node.index - 1]
                break
            k = node.index
            if (value := cache.get(k, _UNDER_WAY)) is not _UNDER_WAY:
                break
        # Leave the gates that value decides, up to one that needs its right operand.
        while pending:
            k, right = pending.pop()
            gate = gates[k - 1]
            if type(gate) is NotGate:
                value = not value
            elif not right and (value if type(gate) is AndGate else not value):
                pending.append((k, True))
                node = gate.right
                if type(node) is not GateRef:
                    if node.index > bound:
                        raise ValueError(f"unbound input in{node.index}")
                    value = assignment[node.index - 1]
                    continue
                k = node.index
                if (value := cache.get(k, _UNDER_WAY)) is _UNDER_WAY:
                    break  # enter gate k
                continue
            cache[k] = value
        else:
            return value


def eval_formula(phi: Union[BoolFormula, Cnf, Circuit], assignment: Sequence[bool]) -> bool:
    """Truth-functional evaluation of any source kind; the compiler oracle."""
    if isinstance(phi, Cnf):
        return eval_cnf(phi, assignment)
    if isinstance(phi, Circuit):
        return eval_circuit(phi, assignment)
    return _eval_bform(phi, assignment)


def _occurrences(phi: BoolFormula) -> Iterator[BoolFormula]:
    """Every subformula occurrence of ``phi``, by an explicit stack."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.operand)
        elif not isinstance(node, FVar):
            stack += (node.right, node.left)


# --- CNF compilers ------------------------------------------------------------


def _clause_chains(phi: Cnf, link: PrimitiveInstruction, reject: tuple) -> InstructionSequence:
    """Per clause, each literal's test followed by ``link``, then ``reject``;
    then ``+out.set:T ; !``.  Each literal's test is made once per call."""
    items: list[PrimitiveInstruction] = []
    append = items.append
    tests: dict[tuple, PrimitiveInstruction] = {}  # (var, negated) -> the literal's test
    for clause in phi.clauses:
        for lit in clause:
            test = tests.get(key := (lit.var, lit.negated))
            if test is None:
                op = RegisterOp(InReg(lit.var), GET)
                test = tests[key] = NegTest(op) if lit.negated else PosTest(op)
            append(test)
            append(link)
        items += reject
    items += (PosTest(RegisterOp(OUT, SET_TRUE)), TERM)
    return InstructionSequence(tuple(items))


def compile_cnf(phi: Cnf) -> InstructionSequence:
    """Sequence computing a CNF, using no jump other than ``#2``.

    Per clause: each literal's test followed by ``#2``, then the block
    ``+out.set:F ; #2 ; !``.  A satisfied literal enters a chain of ``#2``
    hops that lands on the start of the next clause; an unsatisfied clause
    falls through, writes False, and terminates.  A trailing
    ``+out.set:T ; !`` accepts.  Each literal's test is made once per call.
    """
    return _clause_chains(phi, Jump(2), (PosTest(RegisterOp(OUT, SET_FALSE)), Jump(2), TERM))


def compile_cnf_jumpfree(phi: Cnf) -> InstructionSequence:
    """CNF compilation with zero jump instructions.

    Every ``#2`` of ``compile_cnf`` is replaced by ``+out.set:F`` (which
    always skips, and whose spurious write is overwritten by the accepting
    tail) and each clause-final reject block shrinks to a bare ``!`` (the
    output register is still False when it is reached by falling through).
    Each literal's test is made once per call.
    """
    return _clause_chains(phi, PosTest(RegisterOp(OUT, SET_FALSE)), (TERM,))


def cnf_compiled_size(phi: Cnf) -> int:
    """Exact length of ``compile_cnf(phi)``."""
    return sum(2 * len(clause) + 3 for clause in phi.clauses) + 2


# --- formula compiler -----------------------------------------------------------


def _compile_formula_block(
    phi: BoolFormula, leaf: Callable[[int], BasicInstruction]
) -> list[PrimitiveInstruction]:
    """Test block: control leaves one past the end when the formula holds,
    two past the end when it does not.

    A variable's block is its test; ``not`` appends ``#2`` to its operand's,
    ``or`` puts ``#(r + 1)`` and ``and`` puts ``#2 ; #(r + 2)`` between its
    operands' blocks, r being the right one's length.  The block is emitted
    back to front from one explicit stack, so the right operand's block is
    complete, and r known, when the jump before it is emitted.  Each
    variable's test is made once and shared by its occurrences, so ``leaf``
    is called once per distinct variable.  Nodes are dispatched on their
    exact class.
    """
    items: list[PrimitiveInstruction] = []  # the block, back to front
    append = items.append
    hop = Jump(2)
    tests: dict[int, PosTest] = {}  # variable index -> its test, made at its first occurrence
    # A pair (start, gap) stands for the jump before a right operand whose block began at ``start``.
    stack: list[BoolFormula | tuple[int, int]] = [phi]
    pop = stack.pop
    while stack:
        node = pop()
        kind = type(node)
        if kind is FVar:
            test = tests.get(node.index)
            if test is None:
                test = tests[node.index] = PosTest(leaf(node.index))
            append(test)
        elif kind is tuple:
            start, gap = node
            append(Jump(len(items) - start + gap))
            if gap == 2:
                append(hop)
        elif kind is Not:
            append(hop)
            stack.append(node.operand)
        else:
            stack += (node.left, (len(items), 2 if kind is And else 1), node.right)
    items.reverse()
    return items


def compile_formula(
    phi: BoolFormula, leaf: Callable[[int], BasicInstruction] | None = None
) -> InstructionSequence:
    """Sequence computing a not/or/and formula, never writing ``out.set:F``.

    ``leaf`` maps a variable index to the basic instruction that tests it
    (default: read the input register of the same index); the true path
    falls into ``+out.set:T ; !`` and the false path skips straight to the
    final ``!``.  ``leaf`` is called once per distinct variable: every
    occurrence of a variable shares its one test.
    """
    if leaf is None:
        leaf = lambda k: RegisterOp(InReg(k), GET)
    items = _compile_formula_block(phi, leaf)
    items.append(PosTest(RegisterOp(OUT, SET_TRUE)))
    items.append(TERM)
    return InstructionSequence(tuple(items))


def formula_block_size(phi: BoolFormula) -> int:
    """Exact length of the test block: var 1, not +1, or +1, and +2."""
    return sum(2 if isinstance(node, And) else 1 for node in _occurrences(phi))


def formula_size(phi: BoolFormula) -> int:
    """Number of variable occurrences and connectives."""
    return sum(1 for _ in _occurrences(phi))


# --- circuit compiler -----------------------------------------------------------


def _gate_preds(gate: Gate) -> tuple[Node, ...]:
    if isinstance(gate, NotGate):
        return (gate.pred,)
    return (gate.left, gate.right)


def topological_gate_order(circuit: Circuit) -> list[int]:
    """Stable topological order of gate indices (lowest ready index first); one pass checks and counts the references."""
    m = len(circuit.gates)
    # Kahn's algorithm; a min-heap of the ready gates keeps the lowest first.
    waiting = [0] * (m + 1)  # per gate, the references to gates not yet placed
    users: list[list[int]] = [[] for _ in range(m + 1)]
    for k, gate in enumerate(circuit.gates, start=1):
        for node in _gate_preds(gate):
            if isinstance(node, GateRef):
                if not 1 <= node.index <= m:
                    raise ValueError(f"dangling gate reference g{node.index} in g{k}")
                waiting[k] += 1
                users[node.index].append(k)
            elif isinstance(node, InputRef) and node.index > circuit.num_inputs:
                raise ValueError(f"dangling input reference in{node.index} in g{k}")
    ready = [k for k in range(1, m + 1) if not waiting[k]]
    order: list[int] = []
    while ready:
        k = heappop(ready)
        order.append(k)
        for user in users[k]:
            waiting[user] -= 1
            if not waiting[user]:
                heappush(ready, user)
    if len(order) < m:
        raise ValueError("cyclic circuit")
    return order


def compile_circuit(circuit: Circuit) -> InstructionSequence:
    """Sequence computing a circuit, one auxiliary register per gate.

    Gate k's block evaluates its predecessors and conditionally executes
    ``+aux:k.set:T`` (3 instructions for not, 4 for or, 5 for and); the
    tail reads the output gate's register into ``out``.  Gates are emitted
    in topological order but keep their own register numbers, so shared
    fan-out is compiled once.  Gates are dispatched on their exact class,
    and each node's test is made once per call.
    """
    items: list[PrimitiveInstruction] = []
    hop, skip = Jump(2), Jump(3)
    tests: dict[tuple, PrimitiveInstruction] = {}  # (class, index) -> the node's test

    def test(node: Node) -> PrimitiveInstruction:
        found = tests.get(key := (type(node), node.index))
        if found is None:
            reg = InReg(node.index) if isinstance(node, InputRef) else AuxReg(node.index)
            found = tests[key] = PosTest(RegisterOp(reg, GET))
        return found

    for k in topological_gate_order(circuit):
        gate = circuit.gates[k - 1]
        set_gate = PosTest(RegisterOp(AuxReg(k), SET_TRUE))
        kind = type(gate)
        if kind is NotGate:
            items += (test(gate.pred), hop, set_gate)
        elif kind is OrGate:
            items += (test(gate.left), hop, test(gate.right), set_gate)
        else:
            items += (test(gate.left), hop, skip, test(gate.right), set_gate)
    items += (PosTest(RegisterOp(AuxReg(circuit.output_gate), GET)), PosTest(RegisterOp(OUT, SET_TRUE)), TERM)
    return InstructionSequence(tuple(items))


def circuit_compiled_size(circuit: Circuit) -> int:
    """Exact length of ``compile_circuit``: 3/4/5 per not/or/and gate, plus 3."""
    total = 3
    for gate in circuit.gates:
        total += 3 if isinstance(gate, NotGate) else 4 if isinstance(gate, OrGate) else 5
    return total


# --- text formats ----------------------------------------------------------------


def parse_dimacs(text: str) -> Cnf:
    """DIMACS-style CNF: ``p cnf <vars> <clauses>`` then 0-terminated clauses."""
    num_vars = None
    expected_clauses = None
    clauses: list[tuple[Literal, ...]] = []
    current: list[Literal] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            num_vars = int(fields[2])
            expected_clauses = int(fields[3])
            continue
        if num_vars is None:
            raise ValueError("DIMACS clause before header")
        for token in line.split():
            value = int(token)
            if value == 0:
                if not current:
                    raise ValueError("empty DIMACS clause")
                clauses.append(tuple(current))
                current = []
            else:
                current.append(Literal(abs(value), negated=value < 0))
    if current:
        raise ValueError("unterminated DIMACS clause")
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if expected_clauses != len(clauses):
        raise ValueError(f"header declares {expected_clauses} clauses, found {len(clauses)}")
    return Cnf(num_vars, tuple(clauses))


def render_dimacs(phi: Cnf) -> str:
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(-lit.var if lit.negated else lit.var) for lit in clause) + " 0")
    return "\n".join(lines)


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_formula(text: str) -> BoolFormula:
    """S-expression formulas: ``(and (or v1 (not v2)) v2)``.

    ``and``/``or`` accept two or more operands and fold to the right.
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ValueError("empty formula")
    # An explicit stack: the heads of the open operators, and the operands
    # parsed so far of each, the whole formula's at the bottom.
    heads: list[str] = []
    operands: list[list[BoolFormula]] = [[]]
    pos = 0
    while not operands[0]:
        token = tokens[pos]
        pos += 1
        if token == "(":
            if pos >= len(tokens):
                raise ValueError("unexpected end of formula")
            heads.append(tokens[pos])
            operands.append([])
            pos += 1
        elif token == ")":
            raise ValueError("unexpected )")
        else:
            m = re.fullmatch(r"v(\d+)", token)
            if not m:
                raise ValueError(f"bad atom {token!r} (expected v<k>)")
            operands[-1].append(FVar(int(m.group(1))))
        while heads:  # close every operator whose operands are complete
            if pos >= len(tokens):
                raise ValueError("missing )")
            if tokens[pos] != ")":
                break
            pos += 1
            head, args = heads.pop(), operands.pop()
            if head == "not":
                if len(args) != 1:
                    raise ValueError("not takes exactly one operand")
                node: BoolFormula = Not(args[0])
            elif head in ("and", "or"):
                if len(args) < 2:
                    raise ValueError(f"{head} takes at least two operands")
                ctor = And if head == "and" else Or
                node = args[-1]
                for arg in reversed(args[:-1]):
                    node = ctor(arg, node)
            else:
                raise ValueError(f"unknown operator {head!r}")
            operands[-1].append(node)
    if pos != len(tokens):
        raise ValueError("trailing tokens after formula")
    return operands[0][0]


def render_formula(phi: BoolFormula) -> str:
    """Prefix form, e.g. ``(and v1 (not v2))``; an explicit stack, so any depth renders."""
    parts: list[str] = []
    stack: list[BoolFormula | str] = [phi]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, FVar):
            parts.append(f"v{item.index}")
        elif isinstance(item, Not):
            parts.append("(not ")
            stack += [")", item.operand]
        else:
            parts.append("(or " if isinstance(item, Or) else "(and ")
            stack += [")", item.right, " ", item.left]
    return "".join(parts)


_NETLIST_GATE_RE = re.compile(
    r"^g(\d+)\s*=\s*(NOT|OR|AND)\s+(in\d+|g\d+)(?:\s+(in\d+|g\d+))?$"
)


def parse_netlist(text: str) -> Circuit:
    """Gate netlists: lines ``g<k> = NOT|OR|AND <node> [<node>]``, then ``output g<m>``."""

    def node_of(token: str) -> Node:
        if token.startswith("in"):
            return InputRef(int(token[2:]))
        return GateRef(int(token[1:]))

    gates: dict[int, Gate] = {}
    output: int | None = None
    max_input = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.fullmatch(r"output\s+g(\d+)", line)
        if m:
            output = int(m.group(1))
            continue
        m = _NETLIST_GATE_RE.fullmatch(line)
        if not m:
            raise ValueError(f"malformed netlist line: {line!r}")
        index = int(m.group(1))
        kind = m.group(2)
        first = node_of(m.group(3))
        second = node_of(m.group(4)) if m.group(4) else None
        if kind == "NOT":
            if second is not None:
                raise ValueError(f"NOT gate g{index} takes one predecessor")
            gates[index] = NotGate(first)
        else:
            if second is None:
                raise ValueError(f"{kind} gate g{index} takes two predecessors")
            gates[index] = OrGate(first, second) if kind == "OR" else AndGate(first, second)
        for node in _gate_preds(gates[index]):
            if isinstance(node, InputRef):
                max_input = max(max_input, node.index)
    if output is None:
        raise ValueError("netlist is missing the output line")
    if not gates:
        raise ValueError("netlist has no gates")
    if sorted(gates) != list(range(1, len(gates) + 1)):
        raise ValueError("gate numbers must be 1..m without gaps")
    return Circuit(max_input, tuple(gates[k] for k in sorted(gates)), output)


def render_netlist(circuit: Circuit) -> str:
    def node_str(node: Node) -> str:
        return f"in{node.index}" if isinstance(node, InputRef) else f"g{node.index}"

    lines = []
    for k, gate in enumerate(circuit.gates, start=1):
        if isinstance(gate, NotGate):
            lines.append(f"g{k} = NOT {node_str(gate.pred)}")
        elif isinstance(gate, OrGate):
            lines.append(f"g{k} = OR {node_str(gate.left)} {node_str(gate.right)}")
        else:
            lines.append(f"g{k} = AND {node_str(gate.left)} {node_str(gate.right)}")
    lines.append(f"output g{circuit.output_gate}")
    return "\n".join(lines)
