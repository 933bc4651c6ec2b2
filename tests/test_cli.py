"""Command-line interface: output formats, exit codes, determinism."""

import csv
import io
import json

import pytest

from charperm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_trace(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "1:2", "--op", "trace",
                           "--elem", "2")
    assert code == 0
    assert out == "1\n"


def test_eval_charsum(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "1:2", "--op", "charsum",
                           "--poly", "1:2")
    assert code == 0
    assert out == "-2\n"


def test_eval_permtest(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "1:2", "--op", "permtest",
                           "--monomials", "3:1")
    assert code == 0
    rep = json.loads(out)
    assert rep["is_permutation"] is False
    assert rep["witness"] == ["1", "2"]


def test_eval_arithmetic(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "2:3", "--op", "mul",
                           "--elems", "3a,3b")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "eval", "--field", "2:3", "--op", "pow",
                           "--elem", "2", "--exp", "-3")
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", "--field", "2:3", "--op", "frobenius",
                           "--elem", "2", "--k", "2")
    assert (code, out) == (0, "10\n")


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--field", "2:3")
    assert code == 0
    info = json.loads(out)
    assert info["q"] == 4
    assert info["order"] == 64
    assert info["modulus"] == "0x43"
    assert len(info["fq_basis"]) == 3


def test_charsum_methods_agree(capsys):
    outs = {}
    for method in ("brute", "fast", "classify"):
        code, out, _ = run_cli(capsys, "charsum", "--field", "1:3", "--poly",
                               "0:3,1:5", "--method", method)
        assert code == 0
        outs[method] = json.loads(out)
    assert outs["brute"]["s"] == outs["fast"]["s"] == outs["classify"]["s"]
    assert outs["brute"]["kernel_dim_fq"] is None
    assert set(outs["fast"]) == {"s", "kernel_dim_fq", "vanishes", "type"}


def test_classify_has_extras(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "1:3", "--poly", "0:1")
    assert code == 0
    rep = json.loads(out)
    assert "rank" in rep and "sign_known" in rep


def test_permtest_structured_family(capsys):
    code, out, _ = run_cli(capsys, "permtest", "--field", "1:3", "--form",
                           "family", "--poly", "tu;a=1", "--method", "structured")
    assert code == 0
    assert json.loads(out)["is_permutation"] is True


def test_permtest_quadspec_methods(capsys):
    for method in ("brute", "charsum", "structured"):
        code, out, _ = run_cli(capsys, "permtest", "--field", "1:3", "--form",
                               "quadspec", "--poly", "|0:1|", "--method", method)
        assert code == 0
        assert json.loads(out)["is_permutation"] is True


def test_permtest_structured_monomials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["permtest", "--field", "1:2", "--poly", "3:1",
              "--method", "structured"])
    assert exc.value.code == 2


def test_exit_code_math_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "1:2:0x6", "--op", "chi",
                           "--elem", "1")
    assert code == 1
    assert "error" in err


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "1:2", "--op", "mul",
                           "--elems", "zz,1")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--campaign", "thm4",
                             "--fields", "1:2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --jobs must be at least 1, got {jobs}\n"


def test_search_csv_header_always(capsys):
    code, out, _ = run_cli(capsys, "search", "--field", "1:3", "--template",
                           "tu", "--coeffs", "", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,is_permutation,matched_criteria"]


def test_search_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "search", "--field", "1:2", "--template",
                           "binomial", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[0]["matched_criteria"] == "thm6"


def test_verify_json_and_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--campaign", "thm4",
                             "--fields", "1:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["campaigns"][0]["cases_total"] == 16
    assert doc["campaigns"][0]["mismatches"] == []
    assert "campaign thm4" in err and "wall=" in err
    assert "wall" not in out


def test_verify_csv_mismatch_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--campaign", "thm5", "--fields",
                           "1:4", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    summary = [r for r in rows if r["row_type"] == "summary"]
    mism = [r for r in rows if r["row_type"] == "mismatch"]
    assert len(summary) == 1
    assert summary[0]["cases_total"] == "256"
    assert len(mism) == 150
    assert all(r["replay"].startswith("charperm eval") for r in mism)


def test_verify_stdout_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--campaign", "prop3", "--fields",
                         "1:3", "--sample", "100", "--seed", "9")
    _, out2, _ = run_cli(capsys, "verify", "--campaign", "prop3", "--fields",
                         "1:3", "--sample", "100", "--seed", "9", "--jobs", "2")
    assert out1 == out2


def test_replay_roundtrip(capsys):
    # every reported mismatch replays to a disagreeing check
    code, out, _ = run_cli(capsys, "verify", "--campaign", "thm5", "--fields",
                           "1:4")
    assert code == 0
    mismatches = json.loads(out)["campaigns"][0]["mismatches"]
    argv = mismatches[0]["replay"].split()[1:]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    replay = json.loads(out)
    assert replay["agree"] is False
    assert replay["structured"] != replay["brute"]


def test_eval_check_family(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "1:3", "--op",
                           "check-family:tu", "--args", "a=1")
    assert code == 0
    rep = json.loads(out)
    assert rep == {"structured": True, "brute": True, "agree": True}
