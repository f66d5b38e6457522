"""End-to-end CLI tests driven through run(argv)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kernel_reference as ref
import prodrule.cli as cli
import prodrule.seqengine as seqengine
import prodrule.veritool as veritool
from prodrule.classifier import ConstraintRecord
from prodrule.cli import run
from prodrule.exactalg import Poly
from prodrule.seqengine import FamilyId, SymbolicTable, derive_d
from prodrule.veritool import CheckFailure, VerifyReport

# exit code, stdout, stderr and the `--out` file keyed by argv, each generated
# by the code before a change to that command: the grid verifier and the
# family tables before the streaming verifier, eval before evaluation moved to
# integers, derive-d, classify and constraints before d was derived in
# integers and the parser was shared, and the single-family verify cases,
# stderr and `--out` files before text became a view of the JSON document;
# "corrupt" cases set the ceilhalf T(6) to 7/2
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_stdout.json").read_text())

D_STR = "(3c^3 + c)/(c^2 + 2c - 1)"


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_derive_d_text(capsys):
    assert run(["derive-d"]) == 0
    assert out_lines(capsys) == [D_STR]


def test_derive_d_json(capsys):
    assert run(["derive-d", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"d": D_STR}


def test_eval_at_three_gives_triangular(capsys):
    assert run(["eval", "--c", "3", "--n", "20"]) == 0
    assert out_lines(capsys) == ["210"]


def test_eval_fractional_c(capsys):
    assert run(["eval", "--c", "1/2", "--n", "3"]) == 0
    assert out_lines(capsys) == ["7/2"]


def test_eval_rejects_zero_denominator(capsys):
    assert run(["eval", "--c", "1/0", "--n", "3"]) == 2


def test_eval_rejects_negative_index(capsys):
    assert run(["eval", "--c", "3", "--n", "-1"]) == 2


def test_eval_walks_to_any_index_and_refuses_what_it_cannot_reach(capsys):
    n = 2**1100
    assert run(["eval", "--c", "3", "--n", str(n)]) == 0
    assert out_lines(capsys) == [str(n * (n + 1) // 2)]
    # past the walk's 2^16-bit bound, and a triangular number of 8,598 digits
    for argv in (["--c=-7/5", "--n", str(2**8192)], ["--c", "3", "--n", "9" * 4299]):
        assert run(["eval", *argv, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: T(n) is out of reach: ") and err.count("\n") == 1


def test_verify_one_family_text(capsys):
    assert run(["verify", "--family", "triangular", "--max", "50"]) == 0
    assert out_lines(capsys) == [
        "family:triangular: range 50, checked 2500, failures: 0"
    ]


def test_verify_all_json(capsys):
    assert run(["verify", "--family", "all", "--max", "12", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["subject"] for r in doc["reports"]] == [
        "family:zero",
        "family:half",
        "family:ceilhalf",
        "family:period3",
        "family:triangular",
    ]
    assert all(r["failures"] == [] for r in doc["reports"])
    assert all(r["checked"] == 144 for r in doc["reports"])


def test_verify_rejects_zero_max(capsys):
    assert run(["verify", "--family", "zero", "--max", "0"]) == 2


def _failing_report(fam, max_mn):
    return VerifyReport(
        subject=f"family:{fam.value}",
        range=max_mn,
        checked=max_mn * max_mn,
        failures=[CheckFailure(2, 2, Fraction(1), Fraction(2))],
    )


def test_verify_text_mode_stops_at_first_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_family", _failing_report)
    assert run(["verify", "--family", "all", "--max", "5"]) == 1
    lines = out_lines(capsys)
    # one summary line plus one failure detail, then the loop stops
    assert lines == [
        "family:zero: range 5, checked 25, failures: 1",
        "  (2, 2): lhs 1, rhs 2",
    ]


def test_verify_json_mode_aggregates_all_failures(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_family", _failing_report)
    assert run(["verify", "--family", "all", "--max", "5", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"]) == 5
    assert all(len(r["failures"]) == 1 for r in doc["reports"])


def _assert_golden_output(capsys, case):
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (GOLDEN[case]["stdout"], GOLDEN[case]["stderr"])


@pytest.mark.parametrize("case", [k for k in GOLDEN if not k.startswith("corrupt ")])
def test_stdout_matches_golden(capsys, case):
    assert run(case.split()) == GOLDEN[case]["exit"]
    _assert_golden_output(capsys, case)


def _golden_argv(case, monkeypatch):
    """The argv of a golden case, corrupting ceilhalf for a "corrupt" case.

    The corrupted ceilhalf is data: one constant piece per index up to N^2,
    the largest index an N x N grid reads.
    """
    argv = case.split()
    if argv[0] == "corrupt":
        argv = argv[1:]
        grid = int(argv[argv.index("--max") + 1])
        u = ref.doubled_form(FamilyId.CEIL_HALF)
        pieces = ref.constant_pieces(lambda n: 7 if n == 6 else u(n), grid * grid)
        monkeypatch.setitem(seqengine.FAMILY_PIECES, FamilyId.CEIL_HALF, pieces)
    return argv


@pytest.mark.parametrize("case", [k for k in GOLDEN if k.startswith("corrupt ")])
def test_failing_verify_stdout_matches_golden(capsys, monkeypatch, case):
    assert run(_golden_argv(case, monkeypatch)) == GOLDEN[case]["exit"] == 1
    _assert_golden_output(capsys, case)


@pytest.mark.parametrize("case", list(GOLDEN))
def test_out_file_matches_golden(capsys, monkeypatch, tmp_path, case):
    # in text mode a failing `verify --family all` writes the reports up to
    # the one that stopped it, exactly as it prints them
    target = tmp_path / "report.json"
    argv = _golden_argv(case, monkeypatch) + ["--out", str(target)]
    assert run(argv) == GOLDEN[case]["exit"]
    _assert_golden_output(capsys, case)
    assert target.read_text() == GOLDEN[case]["out"]


def _twin(argv):
    """The same call in the other output format."""
    return argv[:-2] if argv[-2:] == ["--format", "json"] else argv + ["--format", "json"]


@pytest.mark.parametrize("case", list(GOLDEN) + ["table --family ceilhalf --max 30 --format json"])
def test_the_writer_matches_json_dumps_on_every_command_document(monkeypatch, case):
    args = cli.parse_args(_golden_argv(case, monkeypatch))
    _, doc, _ = cli._COMMANDS[args.command][0](args)
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


_json_documents = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


@given(doc=_json_documents)
@example(doc={"": [], "k": {}, "é\u2603\U0001f600": "\"\\/\x00\x1f\x7f\t\n\u2028é\U0001f600"})
@example(doc=[[[], {}], {"a": {"b": [{}]}}, 10**400, -(2**127), 0, -1, True, False, None])
def test_the_writer_matches_json_dumps_on_any_document(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, [0.0], {"rows": [1, 2.5]}, {1: "one"}, {"a": {None: 1}}])
def test_the_writer_refuses_floats_and_keys_that_are_not_str(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc)


@pytest.mark.parametrize("case", list(GOLDEN))
def test_only_the_printed_output_is_rendered(capsys, monkeypatch, case):
    # JSON mode runs no text view, and text mode renders no polynomial the
    # JSON document does not: the text view only reads the document's strings
    def refuse(doc):
        raise AssertionError("rendered a text view that is not printed")

    render = Poly.to_str
    argv = _golden_argv(case, monkeypatch)
    rendered = {}
    for call in (argv, _twin(argv)):
        polys = []
        with monkeypatch.context() as patch:
            patch.setattr(Poly, "to_str", lambda poly: polys.append(poly) or render(poly))
            if "json" in call:
                patch.setattr(cli, "_COMMANDS", {name: (handler, refuse, options)
                                                 for name, (handler, _, options) in cli._COMMANDS.items()})
            assert run(call) == GOLDEN[case]["exit"]
        if call is argv:
            assert capsys.readouterr().out == GOLDEN[case]["stdout"]
        rendered["json" in call] = len(polys)
    assert rendered[True] == rendered[False]


def test_classify_text_report(capsys):
    assert run(["classify"]) == 0
    lines = out_lines(capsys)
    assert lines[0] == f"d = {D_STR}"
    assert lines[1].startswith("branch a_nonzero:")
    assert lines[2].startswith("branch a0_b0:")
    assert lines[3].startswith("branch a0_b1:")
    assert "constraint (3,3): 2c^7 - 6c^6 - c^5 + 2c^4 + 2c^3 + 4c^2 - 3c" in lines
    assert "  factors: c + 1, c, c - 1, c - 3" in lines
    assert "  cofactor: 2c^3 + c - 1" in lines
    assert "surviving c: 0, 1, 3" in lines
    assert "family map: 0 -> period3, 1 -> ceilhalf, 3 -> triangular" in lines
    assert "residual cofactor check: pass" in lines
    assert "cofactor gcd check: pass" in lines
    assert "notes:" in lines


def test_classify_json_is_byte_stable(capsys):
    assert run(["classify", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["classify", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["surviving_c"] == ["0", "1", "3"]
    assert doc["cofactor_check"] is True
    assert doc["cofactor_gcd_check"] is True


def test_classify_single_probe_exits_one(capsys):
    assert run(["classify", "--probes", "3,3"]) == 1
    lines = out_lines(capsys)
    assert "surviving c: -1, 0, 1, 3" in lines
    assert "residual cofactor check: FAIL" in lines


def test_classify_degenerate_probes_exit_one(capsys):
    assert run(["classify", "--probes", "2,2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_classify_vanishing_probes_name_the_power_of_two_rule(capsys):
    # every component is >= 3, yet 4 and 8 are powers of 2
    assert run(["classify", "--probes", "4,7;4,4;3,8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: every probe residual is identically zero; add a pair with "
        "neither component a power of 2, such as 3,3"
    ]


def test_classify_probe_beyond_range_is_usage_error(capsys):
    assert run(["classify", "--probes", "3,5", "--range", "10"]) == 2
    assert "beyond --range" in capsys.readouterr().err
    # constraints takes the same --range, with the default reach when it is not given
    assert run(["constraints", "--pairs", "33,33"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: pair (33, 33) needs index 1089, beyond 1024"]


def test_constraints_reach_past_1024_with_range(capsys):
    assert run(["constraints", "--pairs", "3,3;33,33", "--range", "1089", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["constraints"]
    table = SymbolicTable(1089)
    assert got == [ConstraintRecord.probe(m, n, table).to_dict() for m, n in ((3, 3), (33, 33))]
    assert [rec["factors"] for rec in got] == [["c + 1", "c", "c - 1", "c - 3"], ["c", "c - 1", "c - 3"]]


def test_constraints_refuses_a_pair_past_its_range(capsys):
    assert run(["constraints", "--pairs", "3,5;32,32", "--range", "1023"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: pair (32, 32) needs index 1024, beyond 1023"]


def test_classify_single_probe_in_small_range_fails_cleanly(capsys):
    # the certificate uses only the probes given, so nothing needs T(15)
    assert run(["classify", "--range", "10", "--probes", "3,3"]) == 1
    captured = capsys.readouterr()
    assert "cofactor gcd check: FAIL" in captured.out.splitlines()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_classify_rejects_malformed_probes(capsys):
    assert run(["classify", "--probes", "3;5"]) == 2
    assert run(["classify", "--probes", "1,5"]) == 2


def test_constraints_default_pairs_text(capsys):
    assert run(["constraints"]) == 0
    assert out_lines(capsys) == [
        "constraint (3,3): 2c^7 - 6c^6 - c^5 + 2c^4 + 2c^3 + 4c^2 - 3c",
        "  factors: c + 1, c, c - 1, c - 3",
        "  cofactor: 2c^3 + c - 1",
        "constraint (3,5): 8c^9 - 33c^8 + 35c^7 - 35c^6 + 41c^5 - 31c^4"
        " + 25c^3 - 13c^2 + 3c",
        "  factors: c, c - 1, c - 3",
        "  cofactor: 8c^6 - c^5 + 7c^4 - 4c^3 + 4c^2 - 3c + 1",
    ]


def test_constraints_trivial_pair(capsys):
    assert run(["constraints", "--pairs", "2,7"]) == 0
    assert out_lines(capsys) == [
        "constraint (2,7): 0",
        "  identically zero",
    ]


def test_constraints_trivial_pair_json(capsys):
    assert run(["constraints", "--pairs", "2,5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "constraints": [
            {"m": 2, "n": 5, "numerator": "0", "roots": [], "factors": [], "cofactor": "0"}
        ]
    }


def test_constraints_and_classify_render_records_alike(capsys):
    assert run(["constraints", "--format", "json"]) == 0
    constraints = json.loads(capsys.readouterr().out)["constraints"]
    assert run(["classify", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["constraints"] == constraints


def test_constraints_json(capsys):
    assert run(["constraints", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    recs = doc["constraints"]
    assert [(r["m"], r["n"]) for r in recs] == [(3, 3), (3, 5)]
    assert recs[0]["roots"] == [["-1", 1], ["0", 1], ["1", 1], ["3", 1]]
    assert recs[0]["cofactor"] == "2c^3 + c - 1"


def test_table_text(capsys):
    assert run(["table", "--family", "triangular", "--max", "5"]) == 0
    assert out_lines(capsys) == [
        "0\t0",
        "1\t1",
        "2\t3",
        "3\t6",
        "4\t10",
        "5\t15",
    ]


def test_table_json(capsys):
    assert run(["table", "--family", "half", "--max", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "family": "half",
        "max": 2,
        "rows": [[0, "1/2"], [1, "1/2"], [2, "1/2"]],
    }


def test_verify_and_table_refuse_a_max_past_the_cap_before_any_allocation(capsys, monkeypatch, tmp_path):
    assert cli.MAX_CAP == 10**6
    calls = []
    monkeypatch.setattr(cli, "doubled_values", lambda family, top: calls.append(top) or [])
    assert run(["table", "--family", "zero", "--max", str(cli.MAX_CAP)]) == 0   # the cap itself passes
    assert calls == [cli.MAX_CAP]
    capsys.readouterr()
    never = lambda *args: pytest.fail("doubled_values called")   # noqa: E731
    for module in (cli, seqengine, veritool):
        monkeypatch.setattr(module, "doubled_values", never)
    target = tmp_path / "report.json"
    for command in (["verify", "--family", "all"], ["table", "--family", "zero"]):
        for fmt in ("text", "json"):
            argv = [*command, "--max", "100000000", "--format", fmt, "--out", str(target)]
            assert run(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: --max 100000000 is beyond the cap 1000000\n"
    assert not target.exists()


def test_out_writes_json_document(capsys, tmp_path):
    target = tmp_path / "report.json"
    assert run(["derive-d", "--out", str(target)]) == 0
    assert out_lines(capsys) == [D_STR]
    assert json.loads(target.read_text()) == {"d": D_STR}


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    # a trailing slash names a directory, as open() reads the path
    slashed = str(tmp_path / "report.json") + "/"
    for target in (str(tmp_path / "missing" / "report.json"), str(tmp_path), "a\x00b", slashed):
        assert run(["derive-d", "--out", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write --out: ")
    assert list(tmp_path.iterdir()) == []


def test_text_and_json_agree(capsys):
    assert run(["eval", "--c", "1/2", "--n", "9"]) == 0
    text_value = capsys.readouterr().out.strip()
    assert run(["eval", "--c", "1/2", "--n", "9", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == text_value


REFUSALS = {
    "below-the-least": ("verify --family triangular --max 0", "argument --max: must be at least 1"),
    "format-choice": ("verify --family triangular --max 3 --format xml",
                      "argument --format: invalid choice 'xml', choose from text, json"),
    "family-choice": ("verify --family triangle --max 3", "argument --family: invalid choice 'triangle', "
                      "choose from zero, half, ceilhalf, period3, triangular, all"),
    "ambiguous-prefix": ("verify --f zero --max 3", "ambiguous option: '--f' could match --format, --family"),
    "dash-value": ("eval --c -7/5 --n 3", "argument --c: expected one value"),
    "required": ("table --family zero", "the following arguments are required: --max"),
    "stray-value": ("table --family zero --max 3 4", "unrecognized arguments: '4'"),
    "help-value": ("derive-d --help=x", "argument --help: takes no value"),
    "command": ("frobnicate", "expected a command, one of derive-d, classify, verify, eval, table, constraints"),
    # the former parser stored [] for a value written =--, and `run` raised TypeError on it
    "equals-dashes": ("verify --family zero --max=--",
                      "argument --max: invalid literal for int() with base 10: '--'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refusal_prints_one_error_line(capsys, case):
    argv, err = REFUSALS[case]
    assert run(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_a_failing_classify_with_an_unwritable_out_prints_one_line(capsys, tmp_path):
    # the note on the failed checks comes after the output, so a failed write replaces it
    assert run(["classify", "--probes", "3,3", "--out", str(tmp_path / "missing" / "out.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write --out: ") and err.count("\n") == 1


def test_options_take_prefixes_equals_forms_and_the_last_repeated_value(capsys):
    assert run(["table", "--fam=zero", "--max", "5", "--ma", "1"]) == 0
    assert out_lines(capsys) == ["0\t0", "1\t0"]
    assert run(["eval", "--c=-7/5", "--n", "2", "--c", "-1"]) == 0
    assert out_lines(capsys) == ["-1"]


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_lists_the_table_and_exits_0(capsys, command):
    for flag in ("-h", "--help", "--he"):
        assert run([command, flag] if command else [flag]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out == cli._help_text(command) + "\n"
        names = cli._COMMANDS[command][2] if command else cli._COMMANDS
        assert all(f"\n  {name} " in out for name in names)


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_arguments(capsys):
    assert run(["verify"]) == 2
    assert run(["table", "--family", "zero"]) == 2


# one process, calls of every kind interleaved, each checked against its
# golden entry and against the same call repeated after the whole sequence
REUSE_SEQUENCE = (
    ("classify --probes 3,3;4,7 --format json", 1),
    ("classify", 0),
    ("classify --probes 3;5", 2),              # usage error
    ("classify --probes 4,7;4,4;3,8", 1),      # WeakProbesError
    ("derive-d", 0),
    ("verify --family all --max 50", 0),
)


def _call(capsys, case):
    code = run(case.split())
    return code, capsys.readouterr().out


def test_interleaved_calls_carry_nothing_over(capsys):
    shared = [_call(capsys, case) for case, _ in REUSE_SEQUENCE]
    assert [code for code, _ in shared] == [code for _, code in REUSE_SEQUENCE]
    # the default probes and format do not leak from the call before
    default_classify = shared[1][1].splitlines()
    assert [line for line in default_classify if line.startswith("constraint (")] == [
        "constraint (3,3): 2c^7 - 6c^6 - c^5 + 2c^4 + 2c^3 + 4c^2 - 3c",
        "constraint (3,5): 8c^9 - 33c^8 + 35c^7 - 35c^6 + 41c^5 - 31c^4"
        " + 25c^3 - 13c^2 + 3c",
    ]
    assert derive_d() is derive_d()

    for (case, _), got in zip(REUSE_SEQUENCE, shared):
        if case in GOLDEN:
            assert got == (GOLDEN[case]["exit"], GOLDEN[case]["stdout"]), case
        assert got == _call(capsys, case), case


def test_a_closed_stdout_exits_2_with_one_line():
    # a fresh interpreter through main, read as `prodrule table ... | head -1`
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["table", "--family", "triangular", "--max", "200000"]
    with subprocess.Popen([sys.executable, "-m", "prodrule.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "0\t0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: cannot write stdout: ")
    assert "Traceback" not in err
