"""Single-pass instruction sequences over Boolean registers.

Parsing and execution of register-only and fork/reply sequences, behaviour
trees with linear-size extraction, compilers from CNFs, formulas, and
circuits, function-preserving rewrites, the bit-encoded 3-CNF family, and
brute-force verification tools.
"""

from .instr import (
    AuxReg,
    ClassProfile,
    InReg,
    InstructionSequence,
    Jump,
    NegTest,
    OUT,
    OutReg,
    Plain,
    PosTest,
    RegisterOp,
    ReplyOp,
    ResourceBoundError,
    SplitOp,
    TERM,
    Term,
    classify,
    parse,
    psize,
    render,
)
from .lab import SearchSpec, TruthTable, shortest_sequence_search, truth_table
from .services import (
    Deadlocked,
    Divergent,
    RegisterFile,
    Terminated,
    apply,
    check_computes,
    register_step,
    run,
    use,
)
from .splitting import check_splitting_computes, csi, instantiate, run_splitting
from .threads import Thread, XThread, eval_xthread, extract, extract_compact, tsize

__all__ = [name for name in dir() if not name.startswith("_")]
