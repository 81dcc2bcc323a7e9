"""The frozen value classes on ``instr._Value``: one instance of each, as a value."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from boolseq.compilers import And, AndGate, Circuit, Cnf, FVar, GateRef, InputRef, Literal, Not, NotGate, Or, OrGate
from boolseq.instr import ClassProfile, InReg, InstructionSequence, Jump, _Tree, _Value, classify, parse
from boolseq.lab import SearchSpec, TruthTable
from boolseq.satc import LiteralSet, SatcInstance
from boolseq.services import BoolRegister, Deadlocked, Divergent, RegisterFile, RegState, Terminated
from boolseq.threads import Stop
from boolseq.transforms import RewriteReport

X = parse("+in:1.get ; #2 ; split:1 ; +reply:1 ; out.set:T ; !")

# Each value with its ``repr``, the text a frozen dataclass of the same
# fields gives.
VALUES = [
    (Literal(2, negated=True), "Literal(var=2, negated=True)"),
    (
        Cnf(2, ((Literal(1), Literal(2, True)), (Literal(2),))),
        "Cnf(num_vars=2, clauses=((Literal(var=1, negated=False), Literal(var=2, negated=True)), "
        "(Literal(var=2, negated=False),)))",
    ),
    (FVar(3), "FVar(index=3)"),
    (Not(FVar(1)), "Not(operand=FVar(index=1))"),
    (Or(FVar(1), Not(FVar(2))), "Or(left=FVar(index=1), right=Not(operand=FVar(index=2)))"),
    (
        And(Or(FVar(1), FVar(2)), Not(FVar(3))),
        "And(left=Or(left=FVar(index=1), right=FVar(index=2)), right=Not(operand=FVar(index=3)))",
    ),
    (InputRef(2), "InputRef(index=2)"),
    (GateRef(1), "GateRef(index=1)"),
    (NotGate(InputRef(1)), "NotGate(pred=InputRef(index=1))"),
    (OrGate(GateRef(1), InputRef(2)), "OrGate(left=GateRef(index=1), right=InputRef(index=2))"),
    (AndGate(InputRef(1), GateRef(2)), "AndGate(left=InputRef(index=1), right=GateRef(index=2))"),
    (
        Circuit(2, (NotGate(InputRef(1)), AndGate(GateRef(1), InputRef(2))), 2),
        "Circuit(num_inputs=2, gates=(NotGate(pred=InputRef(index=1)), "
        "AndGate(left=GateRef(index=1), right=InputRef(index=2))), output_gate=2)",
    ),
    (BoolRegister(RegState.TRUE), "BoolRegister(state=<RegState.TRUE: 'T'>)"),
    (RegisterFile((True, False), {1: True, 3: False}, True), "RegisterFile(inputs=(True, False), aux={1: True, 3: False}, out=True)"),
    (Terminated(RegisterFile((False,))), "Terminated(registers=RegisterFile(inputs=(False,), aux={}, out=False))"),
    (Deadlocked(), "Deadlocked()"),
    (Divergent("unserved focus in:3"), "Divergent(reason='unserved focus in:3')"),
    (
        X,
        "InstructionSequence(items=(PosTest(basic=RegisterOp(focus=InReg(index=1), method='get')), "
        "Jump(distance=2), Plain(basic=SplitOp(param=1)), PosTest(basic=ReplyOp(param=1)), "
        "Plain(basic=RegisterOp(focus=OutReg(), method='set:T')), Term()))",
    ),
    (
        classify(X),
        "ClassProfile(is_isbr=False, is_isbrna=False, is_sisbr=True, max_jump=2, max_aux_index=0, "
        "max_input_index=1, max_param_index=1, term_count=1, has_out_set_false=False, last_param_use={1: 4})",
    ),
    (TruthTable(2, (False, True, None, True)), "TruthTable(arity=2, values=(False, True, None, True))"),
    (
        SearchSpec(TruthTable(2, (False, True, True, True)), 6, allow_jumps=True, max_jump=2),
        "SearchSpec(target=TruthTable(arity=2, values=(False, True, True, True)), max_length=6, "
        "allow_jumps=True, max_jump=2, allow_aux=False, allow_out_set_false=False, "
        "allow_multiple_term=True, splitting_mode=False)",
    ),
    (
        LiteralSet(frozenset({Literal(1), Literal(3, True)})),
        "LiteralSet(literals=frozenset({Literal(var=1, negated=False), Literal(var=3, negated=True)}))",
    ),
    (SatcInstance((True, False, True, True)), "SatcInstance(bits=(True, False, True, True))"),
    (
        RewriteReport(parse("out.set:F ; !"), parse("!"), 1, (("drop-set-false", 1),)),
        "RewriteReport(input=InstructionSequence(items=(Plain(basic=RegisterOp(focus=OutReg(), method='set:F')), "
        "Term())), output=InstructionSequence(items=(Term(),)), steps=1, rule_trace=(('drop-set-false', 1),))",
    ),
]

IDS = [type(v).__name__ for v, _ in VALUES]


def fields(v) -> tuple:
    return tuple(getattr(v, name) for name in type(v).__match_args__)


def hashed_fields(v) -> tuple:
    # A profile's ``last_param_use``, a dict, takes no part in its hash; a
    # truth table hashes its masks, not its entries.
    if isinstance(v, TruthTable):
        return v.arity, v.out, v.dead
    return fields(v)[:-1] if isinstance(v, ClassProfile) else fields(v)


def test_one_instance_of_each_value_class():
    assert len(VALUES) == len(set(IDS)) == 24


@pytest.mark.parametrize("v, text", VALUES, ids=IDS)
def test_repr_is_the_dataclass_text(v, text):
    assert repr(v) == text


@pytest.mark.parametrize("v, text", VALUES, ids=IDS)
def test_copy_and_pickle_round_trip(v, text):
    copies = [copy.copy(v), copy.deepcopy(v)]
    copies += [pickle.loads(pickle.dumps(v, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(v)
        assert other == v and fields(other) == fields(v)
        assert repr(other) == text


@pytest.mark.parametrize("v, text", VALUES, ids=IDS)
def test_values_are_frozen(v, text):
    for name in (*type(v).__match_args__, "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(v, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(v, name)
    assert repr(v) == text


@pytest.mark.parametrize("v, text", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(v, text):
    key = hashed_fields(v)
    if isinstance(v, (RegisterFile, Terminated)):  # a dict field makes them unhashable
        for value in (v, key):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)
    else:
        assert hash(v) == hash(key)
        assert hash(copy.deepcopy(v)) == hash(v)


@pytest.mark.parametrize("v, text", VALUES, ids=IDS)
def test_values_compare_by_class_and_fields(v, text):
    assert v._fields() == fields(v)
    assert v == type(v)(*fields(v))
    assert (v == object()) is False and v != object()
    match v:
        case Literal(var, negated):
            assert (var, negated) == (2, True)
        case InstructionSequence(items):
            assert items == X.items


def test_classes_with_equal_fields_differ():
    assert InputRef(1) != GateRef(1) and hash(InputRef(1)) == hash(GateRef(1))
    assert Or(FVar(1), FVar(2)) != And(FVar(1), FVar(2))
    assert NotGate(InputRef(1)) != Not(InputRef(1))
    assert RegisterFile(()) == RegisterFile((), {}, False) != RegisterFile((), {1: False})
    assert classify(X) != classify(X)._replace(last_param_use={1: 3})
    assert hash(classify(X)) == hash(classify(X)._replace(last_param_use={1: 3}))
    assert len({Not(FVar(1)), Not(FVar(1)), FVar(1), Literal(1), Literal(1, False)}) == 3


def test_trees_instructions_and_profiles_keep_their_own_eq_and_hash():
    assert (Not.__eq__, Not.__hash__, Stop.__hash__) == (_Tree.__eq__, _Tree.__hash__, _Tree.__hash__)
    assert InReg.__eq__ is Jump.__eq__ is object.__eq__ and InReg.__hash__ is object.__hash__
    assert ClassProfile.__hash__ is vars(ClassProfile)["__hash__"] and ClassProfile.__eq__ is not _Value.__eq__


def test_replace_changes_fields_and_checks_them():
    spec = SearchSpec(TruthTable(1, (False, True)), 6)
    assert spec._replace(max_length=3, allow_jumps=True) == SearchSpec(TruthTable(1, (False, True)), 3, allow_jumps=True)
    assert spec._replace() == spec and spec.max_length == 6
    with pytest.raises(ValueError, match="max_length must be >= 1"):
        spec._replace(max_length=0)
    with pytest.raises(TypeError):
        spec._replace(colour="red")
    table = TruthTable(2, (False, True, None, True))
    assert table._replace() == table and table._replace(values=(True,) * 4) == TruthTable(2, (True,) * 4)
