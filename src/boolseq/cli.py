"""Command-line driver.

Sequences, formulas, CNFs, and netlists are passed inline or as ``@path``
to read from a file.  Run outcomes print a TERMINATED/DEADLOCK/DIVERGENT
header followed by a register dump; deadlock and divergence are semantic
results, not tool failures, and exit 0.  Domain errors exit 1, usage
errors exit 2.
"""

from __future__ import annotations

import argparse
import sys

# Every subcommand parses; each handler imports the rest of what it runs, so
# a call loads only its own modules.
from . import instr


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return text


def _sequence(text: str) -> instr.InstructionSequence:
    return instr.parse(_read_arg(text))


def _outcome_text(outcome) -> str:
    from .services import Deadlocked, Terminated, render_input_bits

    if isinstance(outcome, Terminated):
        regs = outcome.registers
        lines = [f"TERMINATED out={'T' if regs.out else 'F'}"]
        if regs.inputs:
            lines.append(f"in={render_input_bits(regs.inputs)}")
        for j in sorted(regs.aux):
            lines.append(f"aux:{j}={'T' if regs.aux[j] else 'F'}")
        return "\n".join(lines)
    if isinstance(outcome, Deadlocked):
        return "DEADLOCK"
    return f"DIVERGENT {outcome.reason}"


def _outcome_json(outcome, steps: int) -> str:
    import json

    from .services import Deadlocked, Terminated

    if isinstance(outcome, Terminated):
        regs = outcome.registers
        record = {
            "outcome": "terminated",
            "out": regs.out,
            "registers": {
                "in": list(regs.inputs),
                "aux": {str(j): v for j, v in sorted(regs.aux.items())},
                "out": regs.out,
            },
            "steps": steps,
        }
    elif isinstance(outcome, Deadlocked):
        record = {"outcome": "deadlock", "out": None, "registers": None, "steps": steps}
    else:
        record = {
            "outcome": "divergent",
            "out": None,
            "registers": None,
            "steps": steps,
            "reason": outcome.reason,
        }
    return json.dumps(record)


def _print_report(report) -> None:
    print(instr.render(report.output))
    print(f"steps: {report.steps}", file=sys.stderr)
    for rule, pos in report.rule_trace:
        print(f"  {rule} @ {pos}", file=sys.stderr)


def _cmd_parse(args) -> int:
    print(instr.render(_sequence(args.sequence)))
    return 0


def _cmd_run(args) -> int:
    from . import services

    x = _sequence(args.sequence)
    inputs = services.parse_input_bits(args.inputs)
    outcome, steps = services.run_with_steps(x, inputs)
    print(_outcome_json(outcome, steps) if args.format == "json" else _outcome_text(outcome))
    return 0


def _cmd_run_split(args) -> int:
    from . import services, splitting

    x = _sequence(args.sequence)
    inputs = services.parse_input_bits(args.inputs)
    outcome, steps = splitting.run_splitting_with_steps(x, inputs)
    print(_outcome_json(outcome, steps) if args.format == "json" else _outcome_text(outcome))
    return 0


def _cmd_extract(args) -> int:
    from . import threads

    print(threads.render_thread(threads.extract(_sequence(args.sequence))))
    return 0


def _cmd_extract_compact(args) -> int:
    from . import threads

    print(threads.render_thread(threads.extract_compact(_sequence(args.sequence))))
    return 0


def _cmd_truthtable(args) -> int:
    from . import lab

    x = _sequence(args.sequence)
    print(lab.truth_table(x, args.n, splitting=args.split).render())
    return 0


def _cmd_classify(args) -> int:
    profile = instr.classify(_sequence(args.sequence))
    flags = {
        "isbr": profile.is_isbr,
        "isbrna": profile.is_isbrna,
        "sisbr": profile.is_sisbr,
        "out_set_false": profile.has_out_set_false,
    }
    parts = [f"{name}={'T' if value else 'F'}" for name, value in flags.items()]
    parts += [
        f"max_jump={profile.max_jump}",
        f"max_aux={profile.max_aux_index}",
        f"max_input={profile.max_input_index}",
        f"max_param={profile.max_param_index}",
        f"terms={profile.term_count}",
    ]
    print(" ".join(parts))
    return 0


def _cmd_compile_cnf(args) -> int:
    from . import compilers

    phi = compilers.parse_dimacs(_read_arg(args.cnf))
    print(instr.render(compilers.compile_cnf(phi)))
    return 0


def _cmd_compile_cnf_jumpfree(args) -> int:
    from . import compilers

    phi = compilers.parse_dimacs(_read_arg(args.cnf))
    print(instr.render(compilers.compile_cnf_jumpfree(phi)))
    return 0


def _cmd_compile_formula(args) -> int:
    from . import compilers

    phi = compilers.parse_formula(_read_arg(args.formula))
    print(instr.render(compilers.compile_formula(phi)))
    return 0


def _cmd_compile_circuit(args) -> int:
    from . import compilers

    circuit = compilers.parse_netlist(_read_arg(args.netlist))
    print(instr.render(compilers.compile_circuit(circuit)))
    return 0


def _transform_command(report_name: str):
    def handler(args) -> int:
        from . import transforms

        report = getattr(transforms, report_name)(_sequence(args.sequence))
        if args.trace:
            _print_report(report)
        else:
            print(instr.render(report.output))
        return 0

    return handler


def _cmd_satc_eval(args) -> int:
    from . import satc, services

    bits = services.parse_input_bits(args.bits)
    print("T" if satc.satc_eval(satc.SatcInstance(bits)) else "F")
    return 0


def _cmd_satc_decode(args) -> int:
    from . import compilers, satc, services

    bits = services.parse_input_bits(args.bits)
    print(compilers.render_dimacs(satc.decode_to_cnf(bits)))
    return 0


def _cmd_satc_encode(args) -> int:
    from . import compilers, satc, services

    phi = compilers.parse_dimacs(_read_arg(args.cnf))
    print(services.render_input_bits(satc.encode_cnf(phi)))
    return 0


def _cmd_satc_build(args) -> int:
    from . import satc

    print(instr.render(satc.build_satc_splitter(args.n)))
    return 0


def _cmd_reduce_plsis(args) -> int:
    from . import compilers, satc, services

    x = _sequence(args.sequence)
    inputs = services.parse_input_bits(args.inputs)
    print(compilers.render_formula(satc.reachability_formula(x, inputs)))
    return 0


def _cmd_search(args) -> int:
    from . import lab, services

    values = services.parse_input_bits(args.target)
    size = len(values)
    arity = size.bit_length() - 1
    if 2**arity != size:
        raise ValueError("target table length must be a power of two")
    spec = lab.SearchSpec(
        target=lab.TruthTable(arity, values),
        max_length=args.max_length,
        allow_jumps=args.allow_jumps,
        max_jump=args.max_jump,
        allow_aux=args.allow_aux,
        allow_out_set_false=args.allow_set_false,
        allow_multiple_term=not args.single_term,
        splitting_mode=args.split,
    )
    result = lab.shortest_sequence_search(spec)
    print("none" if result is None else instr.render(result))
    return 0


# A sequence text that starts with a negative test begins like an option.
_NEGATIVE_TESTS = ("-in:", "-aux:", "-out.", "-split:", "-reply:")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-in:1.get;!`` and the like as positionals."""

    def _parse_optional(self, arg_string):
        # No option starts like an instruction, so such text is never an option.
        if arg_string.startswith(_NEGATIVE_TESTS):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boolseq",
        description="Single-pass instruction sequences over Boolean registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("parse", _cmd_parse, "parse a sequence and print its canonical text")
    p.add_argument("sequence")

    for name, handler in (("run", _cmd_run), ("run-split", _cmd_run_split)):
        p = add(name, handler, f"execute a sequence ({'forking' if name == 'run-split' else 'register-only'})")
        p.add_argument("sequence")
        p.add_argument("--inputs", default="", help="input bits, e.g. TFT or 101")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("extract", _cmd_extract, "print the behaviour tree of a sequence")
    p.add_argument("sequence")
    p = add("extract-compact", _cmd_extract_compact, "print the linear-size behaviour term")
    p.add_argument("sequence")

    p = add("truthtable", _cmd_truthtable, "tabulate a sequence over all input vectors")
    p.add_argument("sequence")
    p.add_argument("--n", type=int, required=True, help="input arity")
    p.add_argument("--split", action="store_true", help="use the forking executor")

    p = add("classify", _cmd_classify, "print the syntactic class profile")
    p.add_argument("sequence")

    p = add("compile-cnf", _cmd_compile_cnf, "compile a DIMACS CNF")
    p.add_argument("cnf")
    p = add("compile-cnf-jumpfree", _cmd_compile_cnf_jumpfree, "compile a DIMACS CNF without jumps")
    p.add_argument("cnf")
    p = add("compile-formula", _cmd_compile_formula, "compile an s-expression formula")
    p.add_argument("formula")
    p = add("compile-circuit", _cmd_compile_circuit, "compile a gate netlist")
    p.add_argument("netlist")

    for name, report_name in (
        ("elim-setfalse", "eliminate_output_false_report"),
        ("normalize-set-tests", "normalize_set_tests_report"),
        ("to-split", "to_splitting_report"),
        ("collapse-jumps", "collapse_jump_chains_report"),
        ("behav-normalize", "behavioural_normalize_report"),
    ):
        p = add(name, _transform_command(report_name), f"apply the {name} rewrite")
        p.add_argument("sequence")
        p.add_argument("--trace", action="store_true", help="print the rule trace to stderr")

    p = add("satc-eval", _cmd_satc_eval, "evaluate the encoded-3CNF family at a bit vector")
    p.add_argument("bits")
    p = add("satc-decode", _cmd_satc_decode, "decode a bit vector to its DIMACS CNF")
    p.add_argument("bits")
    p = add("satc-encode", _cmd_satc_encode, "encode a 3-CNF as its shortest bit vector")
    p.add_argument("cnf")
    p = add("satc-build", _cmd_satc_build, "build the forking sequence for arity n")
    p.add_argument("n", type=int)

    p = add("reduce-plsis", _cmd_reduce_plsis, "reachability formula of a forking sequence")
    p.add_argument("sequence")
    p.add_argument("--inputs", default="")

    p = add("search", _cmd_search, "shortest sequence matching a truth table")
    p.add_argument("target", help="table as T/F string of length 2^n")
    p.add_argument("--max-length", type=int, default=8)
    p.add_argument("--allow-jumps", action="store_true")
    p.add_argument("--max-jump", type=int, default=3)
    p.add_argument("--allow-aux", action="store_true")
    p.add_argument("--allow-set-false", action="store_true")
    p.add_argument("--single-term", action="store_true")
    p.add_argument("--split", action="store_true", help="search fork/reply sequences")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
