"""The lazy package: its public names, and which modules each entry point loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boolseq

SRC = Path(__file__).resolve().parent.parent / "src"

# Every public name of ``boolseq`` and the module that defines it; a name
# that is its own home is a submodule.
PUBLIC = {
    **dict.fromkeys(
        [
            "AuxReg", "ClassProfile", "InReg", "InstructionSequence", "Jump", "NegTest", "OUT",
            "OutReg", "Plain", "PosTest", "RegisterOp", "ReplyOp", "ResourceBoundError", "SplitOp",
            "TERM", "Term", "classify", "parse", "psize", "render",
        ],
        "instr",
    ),
    **dict.fromkeys(["SearchSpec", "TruthTable", "shortest_sequence_search", "truth_table"], "lab"),
    **dict.fromkeys(
        [
            "Deadlocked", "Divergent", "RegisterFile", "Terminated", "apply", "check_computes",
            "register_step", "run", "use",
        ],
        "services",
    ),
    **dict.fromkeys(["check_splitting_computes", "csi", "instantiate", "run_splitting"], "splitting"),
    **dict.fromkeys(["Thread", "XThread", "eval_xthread", "extract", "extract_compact", "tsize"], "threads"),
    "instr": "instr",
    "lab": "lab",
    "services": "services",
    "splitting": "splitting",
    "threads": "threads",
}


def loaded_after(code: str) -> set[str]:
    """The ``boolseq`` submodules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('boolseq.')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True
    )
    return {name.removeprefix("boolseq.") for name in done.stdout.splitlines()[-1].split()}


def cli_loads(*argv: str) -> set[str]:
    return loaded_after(f"from boolseq import cli\nassert cli.main({list(argv)!r}) == 0") - {"cli"}


def test_public_names_are_the_golden_list():
    assert len(PUBLIC) == 48
    assert sorted(boolseq.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"boolseq.{PUBLIC[name]}")
    expected = home if PUBLIC[name] == name else getattr(home, name)
    assert getattr(boolseq, name) is expected
    assert name in dir(boolseq)


def test_resolved_names_are_not_cached(monkeypatch):
    from boolseq import services

    assert boolseq.run is services.run
    assert "run" not in vars(boolseq)
    monkeypatch.setattr(services, "run", len)
    assert boolseq.run is len


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'boolseq' has no attribute 'nope'"):
        boolseq.nope  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from boolseq import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {name: getattr(boolseq, name) for name in PUBLIC}


def test_import_boolseq_loads_no_submodule():
    assert loaded_after("import boolseq") == set()


def test_import_cli_loads_only_instr():
    assert loaded_after("import boolseq.cli") == {"cli", "instr"}


@pytest.mark.parametrize(
    "argv",
    [
        ("elim-setfalse", "+in:1.get ; out.set:F ; !"),
        ("to-split", "+in:1.get ; out.set:T ; !"),
    ],
)
def test_rewrite_subcommands_load_only_instr_and_transforms(argv):
    assert cli_loads(*argv) == {"instr", "transforms"}


def test_truthtable_loads_no_compiler_rewrite_or_splitter():
    loaded = cli_loads("truthtable", "+in:1.get ; out.set:T ; !", "--n", "1")
    assert "lab" in loaded
    assert not loaded & {"compilers", "satc", "transforms", "splitting"}


def test_oracle_loads_only_compilers_and_instr():
    # The evaluators check the executors' results, so they run without them.
    code = (
        "from boolseq.compilers import eval_formula, parse_dimacs, parse_formula, parse_netlist\n"
        "assert eval_formula(parse_dimacs('p cnf 2 2\\n1 -2 0\\n2 0'), [True, True]) is True\n"
        "assert eval_formula(parse_formula('(and v1 (not v2))'), [True, False]) is True\n"
        "assert eval_formula(parse_netlist('g1 = NOT in1\\ng2 = OR g1 in2\\noutput g2'), [True, False]) is False"
    )
    assert loaded_after(code) == {"compilers", "instr"}


# One call of every subcommand.
CNF = "p cnf 2 2\n1 -2 0\n2 0"
EVERY_SUBCOMMAND = [
    ("parse", "!"),
    ("run", "+in:1.get ; out.set:T ; !", "--inputs", "T", "--format", "json"),
    ("run-split", "+split:1 ; ! ; out.set:T ; !"),
    ("extract", "+in:1.get ; !"),
    ("extract-compact", "#5 ; +in:1.get ; !"),
    ("truthtable", "split:1 ; +in:1.get ; #2 ; +reply:1 ; out.set:T ; !", "--n", "1", "--split"),
    ("classify", "+in:1.get ; #2 ; split:1 ; +reply:1 ; out.set:T ; !"),
    ("compile-cnf", CNF),
    ("compile-cnf-jumpfree", CNF),
    ("compile-formula", "(and v1 (or v2 (not v3)))"),
    ("compile-circuit", "g1 = NOT in1\ng2 = OR g1 in2\noutput g2"),
    ("elim-setfalse", "+in:1.get ; out.set:F ; !"),
    ("normalize-set-tests", "-aux:1.set:T ; aux:1.set:T ; +aux:1.get ; out.set:T ; !"),
    ("to-split", "aux:1.set:T ; +aux:1.get ; out.set:T ; !", "--trace"),
    ("collapse-jumps", "#1 ; #1 ; out.set:T ; !"),
    ("behav-normalize", "+out.set:T ; !"),
    ("satc-eval", "11010001000101"),
    ("satc-decode", "11010001000101"),
    ("satc-encode", CNF),
    ("satc-build", "14"),
    ("reduce-plsis", "split:1 ; +reply:1 ; out.set:T ; !"),
    ("search", "FTTT", "--max-length", "7", "--allow-aux"),
]

HEAVY = ("dataclasses", "inspect")


def heavy_modules_after(code: str) -> set[str]:
    """Which of ``HEAVY`` a fresh interpreter holds after running ``code``."""
    probe = code + f"\nimport sys\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True
    )
    return set(done.stdout.splitlines()[-1].split())


def test_every_subcommand_is_probed():
    from boolseq import cli

    (commands,) = [action.choices for action in cli.build_parser()._actions if action.dest == "command"]
    assert sorted(argv[0] for argv in EVERY_SUBCOMMAND) == sorted(commands)


def test_no_subcommand_loads_dataclasses_or_inspect():
    # The value classes need neither; the frozen error path imports its class itself.
    calls = "".join(f"assert cli.main({list(argv)!r}) == 0\n" for argv in EVERY_SUBCOMMAND)
    assert heavy_modules_after("from boolseq import cli\n" + calls) <= heavy_modules_after("pass")
