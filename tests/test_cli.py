"""Tests for the command-line interface: subcommands, formats, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from tlh.algebra import AlgebraElement, ClosureViolation, evaluate_word
from tlh.cellular import IndependenceViolation, RingMatrix
from tlh.cli import DEFAULT_SEED, _build_parser, main
from tlh.diagram import Diagram, generator_U
from tlh.factor import FactorizationError
from tlh.ring import GoldenScalar, LaurentPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines()]


def test_dims_frozen_totals(capsys):
    for n, total in ((2, 9), (4, 195), (6, 3185)):
        code, out, _ = run(capsys, "dims", "--n", str(n))
        assert code == 0
        assert f"closed form = {total}" in out and "pass" in out


def test_dims_structured_is_deterministic(capsys):
    code, first, _ = run(capsys, "dims", "--n", "3", "--format", "structured")
    assert code == 0
    code, second, _ = run(capsys, "dims", "--n", "3", "--format", "structured")
    assert first == second
    recs = records(first)
    assert recs[-1] == {
        "kind": "total",
        "sum_of_squares": 44,
        "formula": 44,
        "enumerated": 44,
        "verdict": "pass",
    }
    assert {r["label"]: r["dim"] for r in recs[:-1]} == {"0": 1, "1": 3, "1b": 3, "mid": 5}


def test_multiply_words(capsys):
    code, out, _ = run(capsys, "multiply", "--n", "2", "--format", "structured", "epsilon", "beta")
    assert code == 0
    product = AlgebraElement.from_json(records(out)[0])
    assert product == AlgebraElement.from_diagram(generator_U(1, 3))

    code, out, _ = run(capsys, "multiply", "--n", "2", "--format", "structured", "U1", "U1")
    assert AlgebraElement.from_json(records(out)[0]) == AlgebraElement.from_diagram(
        generator_U(1, 3)
    ).scale(LaurentPoly.delta())

    code, out, _ = run(capsys, "multiply", "--n", "3", "--format", "structured", "1", "U2 U3")
    assert AlgebraElement.from_json(records(out)[0]) == evaluate_word(["U2", "U3"], 4)


def test_multiply_files(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(AlgebraElement.from_diagram(generator_U(1, 3)).to_json()))
    right.write_text(json.dumps(AlgebraElement.from_diagram(generator_U(2, 3)).to_json()))
    code, out, _ = run(capsys, "multiply", "--format", "structured", str(left), str(right))
    assert code == 0
    assert AlgebraElement.from_json(records(out)[0]) == evaluate_word(["U1", "U2"], 3)

    other = tmp_path / "other.json"
    other.write_text(json.dumps(AlgebraElement.from_diagram(generator_U(1, 4)).to_json()))
    code, _, err = run(capsys, "multiply", str(left), str(other))
    assert code == 2 and "strands" in err


def test_zero_denominator_operand_exits_two(tmp_path, capsys):
    u1 = AlgebraElement.from_diagram(generator_U(1, 3)).to_json()
    bad = dict(u1, terms=[dict(u1["terms"][0], coeff=[[0, "1/0", 0]])])
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    (tmp_path / "u1.json").write_text(json.dumps(u1))
    code, out, err = run(capsys, "multiply", str(tmp_path / "bad.json"), str(tmp_path / "u1.json"))
    assert code == 2
    assert err.startswith("error:") and "zero denominator" in err
    assert out == ""


def test_malformed_operand_json_exits_two(tmp_path, capsys):
    def element(coeff, dec="1"):  # U1 on three strands, with the given coefficient and cap decoration
        arcs = f'{{"from": "N1", "to": "N2", "dec": {dec}}}, {{"from": "N3", "to": "S3", "dec": 0}}, '
        arcs += f'{{"from": "S2", "to": "S1", "dec": {dec}}}'
        return f'{{"m": 3, "terms": [{{"coeff": {coeff}, "diagram": {{"n_top": 3, "n_bottom": 3, "arcs": [{arcs}]}}}}]}}'

    u1 = tmp_path / "u1.json"
    u1.write_text(json.dumps(AlgebraElement.from_diagram(generator_U(1, 3)).to_json()))
    malformed = {
        "syntax": "{",
        "no_diagram": '{"m": 3, "terms": [{"coeff": []}]}',
        "terms": '{"m": 3, "terms": 5}',
        "m_string": '{"m": "x"}',
        "m_negative": '{"m": -4}',
        "m_bool": '{"m": true}',
        "exponent_bool": element("[[true, 1, 0]]"),
        "coordinate_bool": element("[[0, true, 0]]"),
        "dec_bool": element("[[0, 1, 0]]", dec="true"),
        "widths_bool": '{"m": 1, "terms": [{"coeff": [[0, 1, 0]], "diagram": '
        '{"n_top": true, "n_bottom": true, "arcs": [{"from": "N1", "to": "S1", "dec": 0}]}}]}',
    }
    # an arc listed twice was merged into one
    malformed["arc_twice"] = element("[[0, 1, 0]]").replace('"arcs": [', '"arcs": [{"from": "N1", "to": "N2", "dec": 1}, ')
    for name, text in malformed.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(text)
        code, out, err = run(capsys, "multiply", str(bad), str(u1))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: ")
    code, out, err = run(capsys, "multiply", str(tmp_path / "arc_twice.json"), str(tmp_path / "arc_twice.json"))
    assert code == 2 and out == "" and err.endswith(": nodes on more than one arc: N1, N2\n")


def test_multiply_usage_errors(capsys):
    code, _, err = run(capsys, "multiply", "epsilon", "beta")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "multiply", "--n", "2", "bogus", "beta")
    assert code == 2
    code, _, err = run(capsys, "multiply", "--n", "2", "U1", "U5")
    assert code == 2


def test_factorize_single_element(capsys):
    code, out, _ = run(capsys, "factorize", "--n", "2", "--format", "structured", "U1 U2")
    assert code == 0
    rec = records(out)[0]
    assert rec["word"] == ["U1", "U2"]
    d = Diagram.from_json(rec["diagram"])
    assert evaluate_word(rec["word"], 3) == AlgebraElement.from_diagram(d)


def test_factorize_rejects_non_basis_elements(capsys):
    code, _, err = run(capsys, "factorize", "--n", "2", "U1*U1")
    assert code == 2 and "basis diagram" in err


def test_factorize_table(capsys):
    code, out, _ = run(capsys, "factorize", "--n", "2", "--format", "structured")
    assert code == 0
    recs = records(out)
    assert len(recs) == 9
    for rec in recs:
        d = Diagram.from_json(rec["diagram"])
        assert evaluate_word(rec["word"], 3) == AlgebraElement.from_diagram(d)
    assert [] in [rec["word"] for rec in recs]


def test_gram_single_label_structured(capsys):
    code, out, _ = run(capsys, "gram", "--n", "2", "--lambda", "1", "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert (rec["label"], rec["dim"], rec["verdict"]) == ("1", 2, "nondegenerate")
    expected = LaurentPoly.const(GoldenScalar(5)) * LaurentPoly.delta() ** 2 - LaurentPoly.const(
        GoldenScalar(10, -5)
    )
    assert LaurentPoly.from_json(rec["gram_det"]) == expected
    assert len(rec["matrix"]) == 2 and len(rec["matrix"][0]) == 2


def test_gram_all_labels(capsys):
    code, out, _ = run(capsys, "gram", "--n", "3", "--format", "structured")
    assert code == 0
    recs = records(out)
    assert [r["label"] for r in recs] == ["0", "1", "1b", "mid"]
    assert all(r["verdict"] == "nondegenerate" for r in recs)
    assert all("matrix" not in r for r in recs)


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0 and len(out.splitlines()) == 9
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--lambda", "1")
    assert out.splitlines() == ["1-2*", "2-3"]
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--lambda", "mid")
    assert len(out.splitlines()) == 5
    code, _, err = run(capsys, "enumerate", "--n", "2", "--lambda", "mid")
    assert code == 2


def test_verify_all_n3_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "3")
    assert code == 0
    for suite in ("presentation", "associativity", "positivity", "cellular", "semisimplicity", "branching"):
        assert f"PASS {suite}" in out


def test_verify_all_n2_skips_branching(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "2")
    assert code == 0
    assert "branching" not in out


def test_verify_structured_report(capsys):
    code, out, _ = run(capsys, "verify", "positivity", "--n", "2", "--format", "structured")
    assert code == 0
    recs = records(out)
    assert recs[0]["kind"] == "suite" and recs[0]["suite"] == "positivity"
    assert recs[-1] == {"kind": "result", "suite": "positivity", "verdict": "pass", "failures": 0}


def test_verify_fault_injection_exits_one(capsys, monkeypatch):
    import tlh.cli

    monkeypatch.setattr(tlh.cli, "verify_presentation", lambda m: ["U1^2 = [2]U1: injected"])
    code, out, _ = run(capsys, "verify", "presentation", "--n", "2")
    assert code == 1
    assert "FAIL U1^2 = [2]U1: injected" in out


@pytest.mark.parametrize("error", [ClosureViolation, IndependenceViolation, FactorizationError])
def test_library_failures_exit_one(capsys, monkeypatch, error):
    import tlh.cli

    def fail(d):
        raise error("injected")

    monkeypatch.setattr(tlh.cli, "factorize", fail)
    code, out, err = run(capsys, "factorize", "U1 U2", "--n", "2", "--format", "structured")
    assert code == 1 and err == ""
    assert records(out) == [{"kind": "failure", "error": error.__name__, "detail": "injected"}]
    code, out, err = run(capsys, "factorize", "U1 U2", "--n", "2")
    assert code == 1 and err == ""
    assert out == f"FAIL {error.__name__}: injected\n"


def test_factorize_table_reports_a_failed_diagram_and_goes_on(capsys, monkeypatch):
    import tlh.cli

    real, u1 = tlh.cli.factorize, generator_U(1, 3)

    def factorize(d):
        if d == u1:
            raise FactorizationError("injected")
        return real(d)

    monkeypatch.setattr(tlh.cli, "factorize", factorize)
    code, out, err = run(capsys, "factorize", "--n", "2", "--format", "structured")
    assert code == 1 and err == ""
    recs = records(out)
    assert len(recs) == 9
    assert [r for r in recs if "verdict" in r] == [
        {"kind": "factorization", "diagram": u1.to_json(), "verdict": "fail", "detail": "injected"}
    ]


def test_library_fault_in_a_suite_exits_one(capsys, monkeypatch):
    import tlh.cli

    def fault(m):
        raise KeyError("missing")

    monkeypatch.setattr(tlh.cli, "verify_presentation", fault)
    code, out, err = run(capsys, "verify", "presentation", "--n", "2", "--format", "structured")
    assert code == 1 and err == ""
    assert records(out)[-1] == {"kind": "failure", "error": "KeyError", "detail": "'missing'"}


def test_inexact_division_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(LaurentPoly, "exact_div", lambda self, other: None)
    code, out, err = run(capsys, "gram", "--n", "2", "--format", "structured")
    assert code == 1 and err == ""
    failure = records(out)[-1]
    assert failure["kind"] == "failure" and failure["error"] == "ArithmeticError"
    assert "remainder" in failure["detail"]


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("dims_n3", ["dims", "--n", "3"]),
        ("multiply_epsilon_beta_n2", ["multiply", "epsilon", "beta", "--n", "2"]),
        ("factorize_u1_u2_n2", ["factorize", "U1 U2", "--n", "2"]),
        ("gram_n2_lambda1", ["gram", "--n", "2", "--lambda", "1"]),
        ("enumerate_n3", ["enumerate", "--n", "3"]),
        ("gram_n4", ["gram", "--n", "4"]),
        ("verify_all_n3", ["verify", "all", "--n", "3"]),
        ("gram_n3_lambda1b", ["gram", "--n", "3", "--lambda", "1b"]),
    ],
)
def test_structured_output_matches_golden(capsys, name, argv):
    code, out, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / f"{name}.jsonl").read_text()


def test_verify_under_python_O_matches_golden():
    # every check must still run when python -O strips assert statements
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-m", "tlh.cli", "verify", "all", "--n", "3", "--format", "structured"],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="1"),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "verify_all_n3.jsonl").read_text()


def test_gram_n5_matches_the_benchmark_reference(capsys):
    code, out, _ = run(capsys, "gram", "--n", "5", "--format", "structured")
    assert code == 0
    assert out == (pathlib.Path(__file__).parent.parent / "perfbench" / "ref" / "gram_n5.jsonl").read_text()


def test_asymmetric_form_entry_exits_one(capsys, monkeypatch):
    import tlh.cli

    monkeypatch.setattr(tlh.cli, "gram_matrix", lambda label, n, **options: RingMatrix(((LaurentPoly.v_pow(1),),)))
    code, out, err = run(capsys, "gram", "--n", "2", "--format", "structured")
    assert code == 1 and err == ""
    failure = {"kind": "failure", "error": "ValueError", "detail": "v is not symmetric under v -> 1/v"}
    assert records(out) == [failure]


def test_a_zero_gram_determinant_is_degenerate_and_exits_one(capsys, monkeypatch):
    import tlh.cli

    monkeypatch.setattr(tlh.cli, "gram_det", lambda form: LaurentPoly.zero())
    code, out, err = run(capsys, "gram", "--n", "2", "--format", "structured")
    assert code == 1 and err == ""
    assert [(r["label"], r["gram_det"], r["verdict"]) for r in records(out)] == [
        (label, [], "degenerate") for label in ("0", "1", "1b")
    ]


COMMON_OPTIONS = ("--n", "--cap", "--format", "--out")
READ_OPTIONS = {
    "dims": COMMON_OPTIONS,
    "enumerate": (*COMMON_OPTIONS, "--lambda"),
    "multiply": COMMON_OPTIONS,
    "factorize": COMMON_OPTIONS,
    "gram": (*COMMON_OPTIONS, "--lambda"),
    "verify": (*COMMON_OPTIONS, "--seed"),
}
UNREAD_OPTIONS = [
    (command, option)
    for command, read in READ_OPTIONS.items()
    for option in ("--lambda", "--seed")
    if option not in read
]
OPERANDS = {"multiply": ["U1", "U2"], "verify": ["presentation"]}


def test_each_subcommand_parses_the_options_it_reads():
    values = {"--n": "2", "--cap": "3", "--format": "structured", "--out": "x", "--lambda": "1", "--seed": "7"}
    assert len(UNREAD_OPTIONS) == 9
    for command, read in READ_OPTIONS.items():
        argv = [command, *OPERANDS.get(command, [])]
        for option in read:
            argv += [option, values[option]]
        args = _build_parser().parse_args(argv)
        assert args.n == 2 and args.cap == 3 and args.format == "structured" and args.out == "x"
        assert (getattr(args, "selector", None) == "1") == ("--lambda" in read)
        assert (getattr(args, "seed", None) == 7) == ("--seed" in read)
    assert _build_parser().parse_args(["verify", "all"]).seed == DEFAULT_SEED


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_unread_options_exit_two(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, *OPERANDS.get(command, []), "--n", "2", option, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["\u0663", "3_0", " 3"], ids=["arabic-indic-three", "underscore", "space"])
def test_integer_options_take_ascii_digits_only(capsys, value):
    # int() takes all three; each must be a usage error on every integer option
    for argv in (["dims", "--n", value], ["dims", "--n", "3", "--cap", value], ["verify", "presentation", "--n", "2", "--seed", value]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid int value: {value!r}" in capsys.readouterr().err
    assert _build_parser().parse_args(["verify", "all", "--n", "12", "--cap", "30", "--seed", "-7"]).seed == -7


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "verify", "positivity", "--n", "5")
    assert code == 2 and "--cap" in err
    code, _, err = run(capsys, "verify", "branching", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "factorize", "--n", "7")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "dims", "--n", "1")
    assert code == 2
    code, _, err = run(capsys, "dims")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "dims", "--n", "3", "--cap", "0")
    assert code == 2
    with pytest.raises(SystemExit):
        main(["verify", "nope", "--n", "2"])
    with pytest.raises(SystemExit):
        main(["unknown"])


#: One operand check for multiply and factorize: (argv, start of the error).
#: {on3} and {on12} are JSON files holding U1 on 3 and on 12 strands.
OPERAND_ERRORS = {
    "factorize_word_over_cap": (["factorize", "U1", "--n", "9"], "factorize is capped at n <= 6 (got n = 9)"),
    "factorize_word_n0": (["factorize", "U1", "--n", "0"], "--n must be at least 2, got 0"),
    "factorize_word_n1": (["factorize", "U1", "--n", "1"], "--n must be at least 2, got 1"),
    "factorize_word_own_cap": (["factorize", "U1 U5", "--n", "12", "--cap", "1"], "factorize is capped at n <= 1"),
    "factorize_file_wrong_n": (["factorize", "{on3}", "--n", "5"], "--n 5 means 6 strands, but operands have 3"),
    "multiply_file_wrong_n": (["multiply", "{on3}", "{on3}", "--n", "5"], "--n 5 means 6 strands, but operands have 3"),
    "factorize_file_over_cap": (["factorize", "{on12}"], "factorize is capped at n <= 6 (got n = 11)"),
    "multiply_file_over_cap": (["multiply", "{on12}", "{on12}"], "multiply is capped at n <= 8 (got n = 11)"),
    "factorize_file_zero_cap": (["factorize", "{on3}", "--cap", "0"], "--cap must be positive, got 0"),
    "multiply_empty_word": (["multiply", "U1", "", "--n", "2"], "empty operand"),
    "factorize_empty_word": (["factorize", "--n", "2", ""], "empty operand"),
}


@pytest.fixture
def u1_files(tmp_path):
    files = {}
    for m in (3, 12):
        files[f"on{m}"] = path = tmp_path / f"u1_on_{m}.json"
        path.write_text(json.dumps(AlgebraElement.from_diagram(generator_U(1, m)).to_json()))
    return files


@pytest.mark.parametrize("argv, message", OPERAND_ERRORS.values(), ids=OPERAND_ERRORS)
def test_operands_are_checked_once_for_both_commands(capsys, u1_files, argv, message):
    code, out, err = run(capsys, *(arg.format(**u1_files) for arg in argv))
    assert code == 2 and out == "" and err.startswith(f"error: {message}")


def test_a_directory_operand_is_read_as_a_word(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src").mkdir()
    code, out, err = run(capsys, "multiply", "U1", "src", "--n", "2")
    assert code == 2 and out == "" and err == "error: unknown generator token 'src'\n"


def test_file_operands_run_within_an_explicit_cap(capsys, u1_files):
    code, out, _ = run(capsys, "multiply", str(u1_files["on12"]), str(u1_files["on12"]), "--cap", "11")
    assert code == 0 and out


def test_dims_beyond_the_default_enumeration_size(capsys):
    code, out, _ = run(capsys, "dims", "--n", "9", "--cap", "9")
    assert code == 0
    assert out.splitlines()[-1].endswith(": pass")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "dims", "--n", "2", "--out", str(target))
    assert code == 0 and out == ""
    code, expected, _ = run(capsys, "dims", "--n", "2")
    assert target.read_text() == expected

def test_out_flag_reports_unwritable_paths(tmp_path, capsys):
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        code, out, err = run(capsys, "dims", "--n", "2", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_unwritable_out_is_checked_before_computing(tmp_path, capsys, monkeypatch):
    import tlh.cli

    calls = []
    monkeypatch.setattr(tlh.cli, "gram_matrix", lambda *args: calls.append(args))
    code, out, err = run(capsys, "gram", "--n", "4", "--out", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert calls == []


def test_usage_error_keeps_an_existing_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("kept\n")
    code, _, err = run(capsys, "dims", "--n", "1", "--out", str(target))
    assert code == 2 and err.startswith("error: ")
    assert target.read_text() == "kept\n"
