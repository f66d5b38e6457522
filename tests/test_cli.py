"""End-to-end CLI tests driven through run(argv)."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import prodrule.cli as cli
import prodrule.veritool as veritool
from prodrule.classifier import ClassificationReport, ConstraintRecord
from prodrule.cli import run
from prodrule.seqengine import FamilyId, derive_d, doubled_form
from prodrule.veritool import CheckFailure, VerifyReport

# stdout and exit code keyed by argv, each generated by the code before a
# change to that command: the grid verifier and the family tables before the
# streaming verifier, eval before evaluation moved to integers, and derive-d,
# classify and constraints before d was derived in integers and the parser
# was shared; "corrupt" cases set the ceilhalf T(6) to 7/2
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


@pytest.mark.parametrize("case", [k for k in GOLDEN if not k.startswith("corrupt ")])
def test_stdout_matches_golden(capsys, case):
    assert run(case.split()) == GOLDEN[case]["exit"]
    assert capsys.readouterr().out == GOLDEN[case]["stdout"]


def _corrupt(family):
    u = doubled_form(family)
    if family is FamilyId.CEIL_HALF:
        return lambda n: 7 if n == 6 else u(n)
    return u


@pytest.mark.parametrize("case", [k for k in GOLDEN if k.startswith("corrupt ")])
def test_failing_verify_stdout_matches_golden(capsys, monkeypatch, case):
    monkeypatch.setattr(veritool, "doubled_form", _corrupt)
    assert run(case.split()[1:]) == GOLDEN[case]["exit"] == 1
    assert capsys.readouterr().out == GOLDEN[case]["stdout"]


# what renders the text lines and what renders the JSON document
TEXT_RENDERERS = ((cli, "_classify_lines"), (cli, "_verify_lines"), (ConstraintRecord, "lines"))
JSON_RENDERERS = (
    (ClassificationReport, "to_dict"),
    (ConstraintRecord, "to_dict"),
    (VerifyReport, "to_dict"),
)


@pytest.mark.parametrize("case", list(GOLDEN))
def test_only_the_printed_output_is_rendered(capsys, monkeypatch, case):
    def refuse(*args):
        raise AssertionError("rendered output that is not printed")

    argv = case.split()
    if argv[0] == "corrupt":
        monkeypatch.setattr(veritool, "doubled_form", _corrupt)
        argv = argv[1:]
    for owner, name in TEXT_RENDERERS if "json" in argv else JSON_RENDERERS:
        monkeypatch.setattr(owner, name, refuse)
    assert run(argv) == GOLDEN[case]["exit"]
    assert capsys.readouterr().out == GOLDEN[case]["stdout"]


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


def test_out_writes_json_document(capsys, tmp_path):
    target = tmp_path / "report.json"
    assert run(["derive-d", "--out", str(target)]) == 0
    assert out_lines(capsys) == [D_STR]
    assert json.loads(target.read_text()) == {"d": D_STR}


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    for target in (str(tmp_path / "missing" / "report.json"), str(tmp_path), "a\x00b"):
        assert run(["derive-d", "--out", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write --out: ")


def test_text_and_json_agree(capsys):
    assert run(["eval", "--c", "1/2", "--n", "9"]) == 0
    text_value = capsys.readouterr().out.strip()
    assert run(["eval", "--c", "1/2", "--n", "9", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == text_value


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_arguments(capsys):
    assert run(["verify"]) == 2
    assert run(["table", "--family", "zero"]) == 2


# one process, one parser: calls of every kind interleaved, each checked
# against its golden entry or against the same call through a fresh parser
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


def test_shared_parser_serves_interleaved_calls(capsys, monkeypatch):
    shared = [_call(capsys, case) for case, _ in REUSE_SEQUENCE]
    assert cli._shared_parser() is cli._shared_parser()
    assert [code for code, _ in shared] == [code for _, code in REUSE_SEQUENCE]
    # the default probes and format do not leak from the call before
    default_classify = shared[1][1].splitlines()
    assert [line for line in default_classify if line.startswith("constraint (")] == [
        "constraint (3,3): 2c^7 - 6c^6 - c^5 + 2c^4 + 2c^3 + 4c^2 - 3c",
        "constraint (3,5): 8c^9 - 33c^8 + 35c^7 - 35c^6 + 41c^5 - 31c^4"
        " + 25c^3 - 13c^2 + 3c",
    ]
    assert derive_d() is derive_d()

    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    for (case, _), got in zip(REUSE_SEQUENCE, shared):
        if case in GOLDEN:
            assert got == (GOLDEN[case]["exit"], GOLDEN[case]["stdout"]), case
        assert got == _call(capsys, case), case


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._shared_parser()
