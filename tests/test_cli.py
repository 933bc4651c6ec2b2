"""Command-line interface: output formats, exit codes, determinism."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charperm import build_context, gf2
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


# GF(2^6) has elements 0 .. 3f; 3:2 gives the n = 2 that check-thm4 needs
@pytest.mark.parametrize("field,argv", [
    ("2:3", ("--op", "mul", "--elems=3,-1")),
    ("2:3", ("--op", "inv", "--elem=-1")),
    ("2:3", ("--op", "mul", "--elems", "0x100,0x3")),
    ("2:3", ("--op", "mul", "--elems", "3f,40")),
    ("2:3", ("--op", "trace", "--elem", "0x99")),
    ("2:3", ("--op", "chi", "--elem", "40")),
    ("2:3", ("--op", "pow", "--elem=-40", "--exp", "3")),
    ("3:2", ("--op", "check-thm4", "--args", "a=-1;b=3")),
    ("3:2", ("--op", "check-thm4", "--args", "a=1;b=40")),
    ("2:3", ("--op", "check-family:tu", "--args", "a=1;u=40")),
    ("2:3", ("--op", "check-family:tu", "--args", "a=1;v=-2")),
])
def test_eval_rejects_out_of_field_elements(capsys, field, argv):
    code, out, err = run_cli(capsys, "eval", "--field", field, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field,argv,want", [
    ("2:3", ("--op", "mul", "--elems", "3f,3f"), "2a\n"),
    ("2:3", ("--op", "inv", "--elem", "3f"), "20\n"),
    ("2:3", ("--op", "pow", "--elem", "3f", "--exp", "63"), "1\n"),
    ("3:2", ("--op", "check-thm4", "--args", "a=3f;b=3f"), None),
    ("2:3", ("--op", "check-family:tu", "--args", "a=1;u=3f;v=3f"), None),
])
def test_eval_accepts_largest_element(capsys, field, argv, want):
    code, out, _ = run_cli(capsys, "eval", "--field", field, *argv)
    assert code == 0
    if want is not None:
        assert out == want


def test_eval_missing_operands_are_usage_errors(capsys):
    for argv in (("--op", "chi"), ("--op", "mul"), ("--op", "pow", "--elem", "3")):
        code, out, err = run_cli(capsys, "eval", "--field", "2:3", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1


FUZZ_OPS = ("mul", "inv", "pow", "frobenius", "trace", "chi")


def _parse_hex(text):
    try:
        return int(text, 16)
    except ValueError:
        return None


def test_eval_fuzzed_elements_exit_cleanly():
    contexts = {"2:3": build_context(2, 3), "4:4": build_context(4, 4)}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(sorted(contexts)), op=st.sampled_from(FUZZ_OPS),
           data=st.data())
    def check(field, op, data):
        ctx = contexts[field]
        element = st.one_of(
            st.integers(0, ctx.order - 1).map(lambda v: format(v, "x")),
            st.integers(-ctx.order, 4 * ctx.order - 1).map(lambda v: format(v, "x")),
            st.text(max_size=6))
        x = data.draw(element, label="x")
        argv = ["eval", "--field", field, "--op", op]
        if op == "mul":
            y = data.draw(element, label="y")
            argv.append(f"--elems={x},{y}")
        else:
            argv.append(f"--elem={x}")
        if op == "pow":
            argv.append(f"--exp={data.draw(st.integers(-70000, 70000), label='e')}")
        if op == "frobenius":
            argv.append(f"--k={data.draw(st.integers(-40, 40), label='k')}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        if op == "mul" and "," not in x + y:
            a, b = _parse_hex(x), _parse_hex(y)
            if a is not None and b is not None and 0 <= a < ctx.order and 0 <= b < ctx.order:
                assert code == 0
                assert out.getvalue() == format(gf2.poly_mulmod(a, b, ctx.modulus), "x") + "\n"

    check()


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
