"""CLI dispatch: byte-exact output against the library and exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from boolseq import cli, compilers, instr, satc, services, splitting, threads, transforms
from boolseq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_canonicalizes(capsys):
    code, out, _ = run_cli(capsys, "parse", " +in:1 .get ;#2;! ")
    assert code == 0
    assert out == "+in:1.get ; #2 ; !\n"


def test_run_terminated(capsys):
    code, out, _ = run_cli(capsys, "run", "out.set:T ; !", "--inputs", "")
    assert code == 0
    assert out.splitlines()[0] == "TERMINATED out=T"


def test_run_deadlock_is_success(capsys):
    code, out, _ = run_cli(capsys, "run", "#0", "--inputs", "")
    assert code == 0
    assert out == "DEADLOCK\n"


def test_run_divergent(capsys):
    code, out, _ = run_cli(capsys, "run", "+in:2.get ; !", "--inputs", "T")
    assert code == 0
    assert out.startswith("DIVERGENT")


def test_run_json_record(capsys):
    code, out, _ = run_cli(capsys, "run", "out.set:T ; !", "--inputs", "", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["outcome"] == "terminated"
    assert record["out"] is True
    assert record["registers"]["out"] is True
    assert record["steps"] == 2


def test_run_split(capsys):
    code, out, _ = run_cli(capsys, "run-split", "+split:1 ; ! ; out.set:T ; !", "--inputs", "")
    assert code == 0
    assert out.splitlines()[0] == "TERMINATED out=T"


def test_extract_matches_library(capsys):
    text = "+in:1.get ; !"
    code, out, _ = run_cli(capsys, "extract", text)
    assert code == 0
    assert out == threads.render_thread(threads.extract(instr.parse(text))) + "\n"


def test_extract_compact_matches_library(capsys):
    text = "+in:1.get ; !"
    code, out, _ = run_cli(capsys, "extract-compact", text)
    assert code == 0
    assert out == threads.render_thread(threads.extract_compact(instr.parse(text))) + "\n"


def test_extract_compact_past_the_recursion_limit(capsys):
    text = " ; ".join(["+in:1.get"] * 1199 + ["!"])
    code, out, _ = run_cli(capsys, "extract-compact", text)
    assert code == 0
    assert out == threads.render_thread(threads.extract_compact(instr.parse(text))) + "\n"


@pytest.mark.parametrize("k", [60, 1200])
def test_extract_past_the_render_bound_exits_one(capsys, k):
    code, out, err = run_cli(capsys, "extract", " ; ".join(["+in:1.get"] * (k - 1) + ["!"]))
    assert code == 1
    assert out == ""
    assert err == f"error: resource bound exceeded: the thread has more than {threads.MAX_RENDER_NODES} nodes to render\n"


def test_truthtable(capsys):
    code, out, _ = run_cli(capsys, "truthtable", "+in:1.get ; out.set:T ; !", "--n", "1")
    assert code == 0
    assert out == "FT\n"


def test_truthtable_split(capsys):
    code, out, _ = run_cli(capsys, "truthtable", "+split:1 ; ! ; out.set:T ; !", "--n", "0", "--split")
    assert code == 0
    assert out == "T\n"


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "aux:1.set:T ; !")
    assert code == 0
    assert "isbr=T" in out and "isbrna=F" in out and "max_aux=1" in out


def test_compile_cnf_from_file(capsys, tmp_path):
    path = tmp_path / "phi.cnf"
    path.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    code, out, _ = run_cli(capsys, "compile-cnf", f"@{path}")
    assert code == 0
    phi = compilers.parse_dimacs(path.read_text())
    assert out == instr.render(compilers.compile_cnf(phi)) + "\n"


def test_compile_cnf_jumpfree(capsys):
    code, out, _ = run_cli(capsys, "compile-cnf-jumpfree", "p cnf 1 1\n1 0")
    assert code == 0
    assert out == "+in:1.get ; +out.set:F ; ! ; +out.set:T ; !\n"


def test_compile_formula(capsys):
    code, out, _ = run_cli(capsys, "compile-formula", "(and v1 v2)")
    assert code == 0
    assert out == "+in:1.get ; #2 ; #3 ; +in:2.get ; +out.set:T ; !\n"


def test_compile_circuit(capsys):
    code, out, _ = run_cli(capsys, "compile-circuit", "g1 = NOT in1\noutput g1")
    assert code == 0
    assert out == "+in:1.get ; #2 ; +aux:1.set:T ; +aux:1.get ; +out.set:T ; !\n"


def test_transform_commands(capsys):
    text = "+in:1.get ; out.set:T ; !"
    code, out, _ = run_cli(capsys, "elim-setfalse", text)
    assert code == 0
    assert out == instr.render(transforms.eliminate_output_false(instr.parse(text))) + "\n"

    code, out, _ = run_cli(capsys, "collapse-jumps", "#1 ; #2 ; ! ; out.set:T ; !")
    assert out == "#3 ; #2 ; ! ; out.set:T ; !\n"

    code, out, _ = run_cli(capsys, "behav-normalize", "+out.set:T ; !")
    assert out == "out.set:T ; !\n"

    code, out, _ = run_cli(capsys, "normalize-set-tests", "-aux:1.set:T ; ! ; out.set:T ; !")
    assert out == "+aux:1.set:T ; #2 ; ! ; out.set:T ; !\n"

    code, out, _ = run_cli(capsys, "to-split", "aux:1.set:T ; +aux:1.get ; out.set:T ; !")
    assert out == "-split:1 ; ! ; +reply:1 ; out.set:T ; !\n"


def test_transform_trace_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "elim-setfalse", "+in:1.get ; out.set:T ; !", "--trace")
    assert code == 0
    assert "steps:" in err
    assert "insert-readback" in err


def test_satc_eval_golden(capsys):
    code, out, _ = run_cli(capsys, "satc-eval", "TTF")
    assert code == 0
    assert out == "F\n"


def test_satc_decode(capsys):
    code, out, _ = run_cli(capsys, "satc-decode", "TTF")
    assert code == 0
    assert out == "p cnf 1 2\n1 0\n-1 0\n"


def test_satc_encode(capsys):
    code, out, _ = run_cli(capsys, "satc-encode", "p cnf 1 2\n1 0\n-1 0")
    assert code == 0
    assert out == "TTF\n"


def test_satc_build(capsys):
    code, out, _ = run_cli(capsys, "satc-build", "0")
    assert code == 0
    assert out == "+out.set:T ; !\n"


@pytest.mark.parametrize("bits, sat", [("FTFFTFFFFF", True), ("TTFFFFFFFF", False)])
def test_run_split_family_splitter(capsys, bits, sat):
    code, text, _ = run_cli(capsys, "satc-build", "10")
    assert code == 0
    code, out, _ = run_cli(capsys, "run-split", text.strip(), "--inputs", bits, "--format", "json")
    assert code == 0
    record = json.loads(out)
    inputs = services.parse_input_bits(bits)
    outcome, steps = splitting.queue_runner(instr.parse(text), inputs)
    assert record["steps"] == steps
    assert record["out"] == outcome.registers.out == satc.satc_eval(satc.SatcInstance(inputs)) == sat


def test_reduce_plsis(capsys):
    text = "out.set:T ; !"
    code, out, _ = run_cli(capsys, "reduce-plsis", text, "--inputs", "")
    assert code == 0
    expected = compilers.render_formula(satc.reachability_formula(instr.parse(text), ()))
    assert out == expected + "\n"


def test_reduce_plsis_long_jump_chain(capsys):
    # 1500 nested conjunctions; rendering must not recurse per level.
    text = " ; ".join(["split:1"] + ["#1"] * 1500 + ["out.set:T", "!"])
    code, out, err = run_cli(capsys, "reduce-plsis", text)
    assert code == 0 and err == ""
    assert out == compilers.render_formula(satc.reachability_formula(instr.parse(text), ())) + "\n"
    assert out.startswith("(and v1 (and v1502 (and (and (or v2 (not v1)) (or (not v2) v1))")


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, "search", "T", "--max-length", "3")
    assert code == 0
    assert out == "out.set:T ; !\n"


def test_search_none(capsys):
    code, out, _ = run_cli(capsys, "search", "FT", "--max-length", "1")
    assert code == 0
    assert out == "none\n"


def test_search_rejects_bad_target_bit(capsys):
    code, out, err = run_cli(capsys, "search", "TXTF", "--max-length", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid input bit 'X'")


def test_search_rejects_register_flags_in_splitting_mode(capsys):
    code, out, err = run_cli(capsys, "search", "FTTF", "--split", "--allow-aux", "--allow-set-false")
    assert code == 1
    assert out == ""
    assert err.startswith("error: splitting mode allows neither")


def test_search_rejects_negative_max_jump(capsys):
    code, out, err = run_cli(capsys, "search", "TF", "--allow-jumps", "--max-jump", "-3")
    assert code == 1
    assert out == ""
    assert err == "error: max_jump must be >= 0\n"


def test_truthtable_rejects_negative_arity(capsys):
    code, out, err = run_cli(capsys, "truthtable", "out.set:T ; !", "--n", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: arity must be >= 0")


def test_truthtable_rejects_arity_above_bound(capsys):
    code, out, err = run_cli(capsys, "truthtable", "out.set:T ; !", "--n", str(services.MAX_TABLE_ARITY + 1))
    assert code == 1
    assert out == ""
    assert err.startswith("error: resource bound exceeded")


def test_compile_formula_at_depth_ten_thousand(capsys):
    depth = 10_000
    code, out, _ = run_cli(capsys, "compile-formula", "(not " * depth + "v1" + ")" * depth)
    assert code == 0
    assert instr.psize(instr.parse(out)) == depth + 3  # the test, one #2 per not, the accepting tail


def test_satc_build_past_the_recursion_limit(capsys):
    code, out, _ = run_cli(capsys, "satc-build", "1350")
    assert code == 0
    assert instr.parse(out) == satc.build_satc_splitter(1350)


def test_domain_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "+split:1 ; !", "--inputs", "")
    assert code == 1
    assert err.startswith("error:")


def test_syntax_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "parse", "bogus")
    assert code == 1
    assert "error:" in err


def test_crash_is_not_a_domain_error(monkeypatch):
    def crash(args):
        raise RuntimeError("crash")

    monkeypatch.setattr(cli, "_cmd_parse", crash)
    with pytest.raises(RuntimeError, match="crash"):
        main(["parse", "!"])


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_run_aux_index_past_the_bound_exits_one(capsys):
    code, out, err = run_cli(capsys, "run", "aux:99999999999999999999.get ; !")
    assert (code, out) == (1, "")
    assert err.startswith("error: resource bound exceeded: aux:99999999999999999999 is past the")


# --- every subcommand on generated argument text ------------------------------------

# Small sizes throughout: large arities, lengths and search bounds are slow,
# not wrong.  Indices and numbers also come huge, where only bounds apply.
NUMBERS = st.one_of(st.integers(-2, 4), st.integers(10**6, 10**22)).map(str)
INDEX = st.one_of(st.integers(0, 3), st.integers(10**6, 10**22)).map(str)
JUNK = st.text(alphabet="TF01 ;:#!+-.()@\nxgpcinoutaux", max_size=8)


def instruction_text():
    focus = st.one_of(INDEX.map(lambda i: f"in:{i}"), INDEX.map(lambda i: f"aux:{i}"), st.just("out"))
    basic = st.one_of(
        st.tuples(focus, st.sampled_from(("get", "set:T", "set:F"))).map(".".join),
        INDEX.map(lambda i: f"split:{i}"),
        INDEX.map(lambda i: f"reply:{i}"),
    )
    return st.one_of(
        st.just("!"),
        INDEX.map(lambda i: f"#{i}"),
        st.tuples(st.sampled_from(("", "+", "-")), basic).map("".join),
        JUNK,
    )


SEQUENCE = st.one_of(st.lists(instruction_text(), min_size=1, max_size=6).map(" ; ".join), JUNK)
BITS = st.text(alphabet="TF10x", max_size=10)
DIMACS = st.one_of(
    st.tuples(NUMBERS, NUMBERS, st.lists(st.lists(NUMBERS, max_size=3).map(" ".join), max_size=4)).map(
        lambda t: "\n".join([f"p cnf {t[0]} {t[1]}", *(f"{c} 0" for c in t[2])])
    ),
    JUNK,
)
NODE = st.one_of(INDEX.map(lambda i: f"in{i}"), INDEX.map(lambda i: f"g{i}"))
NETLIST = st.one_of(
    st.tuples(
        st.lists(
            st.tuples(INDEX, st.sampled_from(("NOT", "OR", "AND")), st.lists(NODE, min_size=1, max_size=2)).map(
                lambda t: f"g{t[0]} = {t[1]} {' '.join(t[2])}"
            ),
            max_size=4,
        ),
        INDEX,
    ).map(lambda t: "\n".join([*t[0], f"output g{t[1]}"])),
    JUNK,
)
FORMULA = st.one_of(
    st.recursive(
        INDEX.map(lambda i: f"v{i}"),
        lambda sub: st.one_of(
            sub.map(lambda a: f"(not {a})"),
            st.tuples(st.sampled_from(("and", "or", "xor")), st.lists(sub, max_size=3)).map(
                lambda t: f"({t[0]} {' '.join(t[1])})"
            ),
        ),
        max_leaves=6,
    ),
    JUNK,
)
SEARCH_FLAGS = ("--allow-jumps", "--allow-aux", "--allow-set-false", "--single-term", "--split")

COMMANDS = {
    "parse": st.tuples(SEQUENCE),
    "classify": st.tuples(SEQUENCE),
    "extract": st.tuples(SEQUENCE),
    "extract-compact": st.tuples(SEQUENCE),
    "run": st.tuples(SEQUENCE, st.just("--inputs"), BITS, st.just("--format"), st.sampled_from(("text", "json"))),
    "run-split": st.tuples(SEQUENCE, st.just("--inputs"), BITS, st.just("--format"), st.sampled_from(("text", "json"))),
    "truthtable": st.tuples(SEQUENCE, st.just("--n"), NUMBERS).flatmap(
        lambda t: st.sampled_from((t, (*t, "--split")))
    ),
    "compile-cnf": st.tuples(DIMACS),
    "compile-cnf-jumpfree": st.tuples(DIMACS),
    "compile-formula": st.tuples(FORMULA),
    "compile-circuit": st.tuples(NETLIST),
    **{
        name: st.tuples(SEQUENCE).flatmap(lambda t: st.sampled_from((t, (*t, "--trace"))))
        for name in ("elim-setfalse", "normalize-set-tests", "to-split", "collapse-jumps", "behav-normalize")
    },
    "satc-eval": st.tuples(BITS),
    "satc-decode": st.tuples(BITS),
    "satc-encode": st.tuples(DIMACS),
    "satc-build": st.tuples(st.one_of(st.integers(-2, 100).map(str), NUMBERS)),
    "reduce-plsis": st.tuples(SEQUENCE, st.just("--inputs"), BITS),
    "search": st.tuples(
        st.text(alphabet="TF", max_size=8),
        st.just("--max-length"),
        st.one_of(st.integers(-1, 4).map(str), NUMBERS),
        st.just("--max-jump"),
        NUMBERS,
        st.lists(st.sampled_from(SEARCH_FLAGS), unique=True),
    ).map(lambda t: (*t[:5], *t[5])),
}


@settings(max_examples=600, deadline=None)
@given(
    argv=st.sampled_from(sorted(COMMANDS)).flatmap(lambda name: COMMANDS[name].map(lambda args: [name, *args])),
    extra=st.lists(JUNK, max_size=1),
)
def test_property_every_subcommand_exits_cleanly(argv, extra):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + extra)
        except SystemExit as exc:  # argparse: usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv + extra, code, err.getvalue())
