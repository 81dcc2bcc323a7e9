"""Single-pass instruction sequences over Boolean registers.

Parsing and execution of register-only and fork/reply sequences, behaviour
trees with linear-size extraction, compilers from CNFs, formulas, and
circuits, function-preserving rewrites, the bit-encoded 3-CNF family, and
brute-force verification tools.

``import boolseq`` imports no submodule: each public name is looked up in
its home module on first access (PEP 562), so a CLI call pays only for the
modules its subcommand runs.  Nothing is cached here, so ``boolseq.X`` is
always the home module's current ``X``.
"""

from importlib import import_module as _import_module

# Public name -> home module.  A name that is its own home is a submodule.
_HOME = {
    **dict.fromkeys(
        (
            "AuxReg", "ClassProfile", "InReg", "InstructionSequence", "Jump", "NegTest",
            "OUT", "OutReg", "Plain", "PosTest", "RegisterOp", "ReplyOp",
            "ResourceBoundError", "SplitOp", "TERM", "Term", "classify", "parse",
            "psize", "render",
        ),
        "instr",
    ),
    **dict.fromkeys(("SearchSpec", "TruthTable", "shortest_sequence_search", "truth_table"), "lab"),
    **dict.fromkeys(
        (
            "Deadlocked", "Divergent", "RegisterFile", "Terminated", "apply",
            "check_computes", "register_step", "run", "use",
        ),
        "services",
    ),
    **dict.fromkeys(("check_splitting_computes", "csi", "instantiate", "run_splitting"), "splitting"),
    **dict.fromkeys(("Thread", "XThread", "eval_xthread", "extract", "extract_compact", "tsize"), "threads"),
    **{module: module for module in ("instr", "lab", "services", "splitting", "threads")},
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
