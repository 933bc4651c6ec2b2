"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charperm as cp
from charperm import build_context, gf2, run_search, verify
from charperm import linearized as lin
from charperm.cli import _build_parser, main
from test_permtest import evaluate_poly


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
    # the direct sum is charsum's; eval has no charsum op
    code, out, _ = run_cli(capsys, "charsum", "--field", "1:2", "--poly", "1:2",
                           "--method", "brute")
    assert code == 0
    assert json.loads(out)["s"] == -2
    code, out, err = run_cli(capsys, "eval", "--field", "1:2", "--op", "charsum")
    assert (code, out) == (2, "")
    assert err == "usage error: unknown eval op 'charsum'\n"


def test_eval_permtest(capsys):
    # the occupancy test is permtest's; eval has no permtest op
    code, out, _ = run_cli(capsys, "permtest", "--field", "1:2", "--poly", "3:1")
    assert code == 0
    rep = json.loads(out)
    assert rep["is_permutation"] is False
    assert rep["witness"] == ["1", "2"]
    code, out, err = run_cli(capsys, "eval", "--field", "1:2", "--op", "permtest")
    assert (code, out) == (2, "")
    assert err == "usage error: unknown eval op 'permtest'\n"


@pytest.mark.parametrize("argv", [
    ("eval", "--field", "1:2", "--op", "classify"),
    ("eval", "--field", "1:2", "--op", "charsum", "--poly", "1:2"),
    ("eval", "--field", "1:2", "--op", "permtest", "--monomials", "3:1"),
    ("charsum", "--field", "1:2", "--poly", "1:2", "--method", "classify"),
], ids=["eval-classify", "eval-poly", "eval-monomials", "charsum-classify"])
def test_duplicate_routes_are_usage_errors(capsys, argv):
    # each question has one command: classify, charsum and permtest
    try:
        code = main(list(argv))
    except SystemExit as exc:           # argparse refuses the option or choice
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("field-info", "--field", "12"),
    ("field-info", "--field", "1:2:3:4"),
    ("field-info", "--field", "a:2"),
    ("verify", "--campaign", "thm4", "--fields", "12"),
    ("verify", "--campaign", "thm4", "--fields", "1:2,a:2"),
    ("verify", "--campaign", "thm4", "--fields", "1:2:0xz"),
])
def test_malformed_field_spec_is_usage_error(capsys, argv):
    # --field and --fields read a spec by the one parser, normalize_field
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


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


@pytest.mark.parametrize("argv, code, out, err", [
    (("field-info", "--field", "2:3", "--format", "csv"), 0,
     "m,n,bits,q,order,modulus,generator,fq_basis\n2,3,6,4,64,0x43,2,1 2 4\n", ""),
    (("eval", "--field", "2:3", "--op", "psi", "--elem", "1"), 0, "1\n", ""),
    (("eval", "--field", "2:3", "--op", "psi", "--elem", "9"), 1, "",
     "error: 0x9 is not in GF(2^2)\n"),
    (("eval", "--field", "2:3", "--op", "mul", "--elems", "1,2,3"), 2, "",
     "usage error: --elems needs exactly two comma-separated elements\n"),
    (("eval", "--field", "2:3", "--op", "check-thm_tr", "--args", "l0=1:1;l1=0:1;shift=0"),
     1, "", "error: trace-form parts must be q-linear\n"),
    (("field-info", "--field", "0:3"), 1, "",
     "error: tower degrees must be positive, got m=0 n=3\n"),
    (("field-info", "--field", "1:2:-0x7"), 1, "", "error: modulus -0x7 is negative\n"),
    (("field-info", "--field", "2:2:-0x13"), 1, "", "error: modulus -0x13 is negative\n"),
    (("verify", "--campaign", "thm4", "--fields", "1:2:-0x7"), 1, "",
     "error: modulus -0x7 is negative\n"),
], ids=["field-info-csv", "psi", "psi-outside-fq", "mul-three-elems",
        "thm_tr-not-q-linear", "field-zero-m", "field-negative-modulus",
        "field-negative-modulus-2-2", "verify-negative-modulus"])
def test_input_branches_exit_with_their_one_line(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv) == (code, out, err)


def test_fuzzed_moduli_exit_cleanly():
    # every m:n:MOD with m*n <= 8 and |MOD| <= 2^10 returns (a negative
    # modulus once looped forever), and a failure is one line on stderr
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(0, 8), n=st.integers(0, 8), mod=st.integers(-(1 << 10), 1 << 10))
    def check(m, n, mod):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["field-info", "--field", f"{m}:{n}:{mod:#x}"])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")
        else:
            assert json.loads(out.getvalue())["modulus"] == f"{mod:#x}"

    check()


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
    ("2:3", ("--op", "check-family:abnorm", "--args", "a=1;b=40")),
    ("2:3", ("--op", "check-family:abnorm", "--args", "a=1;b=-2")),
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
    ("2:3", ("--op", "check-family:abnorm", "--args", "a=3f;b=3f"), None),
])
def test_eval_accepts_largest_element(capsys, field, argv, want):
    code, out, _ = run_cli(capsys, "eval", "--field", field, *argv)
    assert code == 0
    if want is not None:
        assert out == want


@pytest.mark.parametrize("op", ["trace", "norm"])
def test_eval_sub_zero_is_not_the_default(capsys, op):
    # --sub 0 names no subfield; only a missing --sub means m
    code, out, err = run_cli(capsys, "eval", "--field", "2:3", "--op", op,
                             "--elem", "2a", "--sub", "0")
    assert (code, out) == (1, "")
    assert err == "error: GF(2^0) is not a subfield of GF(2^6)\n"
    want = run_cli(capsys, "eval", "--field", "2:3", "--op", op, "--elem", "2a",
                   "--sub", "2")
    assert run_cli(capsys, "eval", "--field", "2:3", "--op", op, "--elem", "2a") == want
    assert want[0] == 0


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


def _occupancy_by_scalars(ctx, f):
    """(is_permutation, witness) of f from evaluate_poly on every element,
    the witness as permtest prints it: the first input to repeat a value
    and the first input with that value."""
    first = {}
    for x in range(ctx.order):
        y = evaluate_poly(ctx, f, x)
        if y in first:
            return False, [format(first[y], "x"), format(x, "x")]
        first[y] = x
    return True, None


def test_permtest_fuzzed_monomials_exit_cleanly():
    ctx = build_context(2, 3)
    go = ctx.group_order
    good_exponent = st.one_of(
        st.integers(1, 4 * ctx.order),
        st.integers(1, 40).map(lambda t: t * go),           # x^0 away from zero
        st.sampled_from((ctx.order, 2 * ctx.order)),         # both fold to x
        st.integers(2 ** 64, 2 ** 4000)).map(str)
    exponent = good_exponent | st.integers(-3, 0).map(str) | st.sampled_from(
        ("9" * 5000, "", "0x3", " 5 ", "1_0")) | st.text(max_size=4)
    good_coeff = (st.just(0) | st.integers(1, ctx.order - 1)).map(lambda c: format(c, "x"))
    coeff = good_coeff | st.integers(-ctx.order, 4 * ctx.order).map(
        lambda c: format(c, "x")) | st.text(max_size=3)
    term = st.one_of(
        st.tuples(exponent, coeff).map(":".join),
        exponent,                                             # no coefficient
        st.tuples(exponent, coeff, coeff).map(":".join),     # one colon too many
        st.text(max_size=8))
    # well-formed polynomials, then anything the term strategies give
    poly = (st.lists(st.tuples(good_exponent, good_coeff).map(":".join), max_size=4)
            | st.lists(term, max_size=4)).map(",".join)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=poly)
    def check(text):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["permtest", "--field", "2:3", "--form", "monomials",
                         "--method", "brute", f"--poly={text}"])
        assert code in (0, 1, 2)
        if code == 0:
            rep = json.loads(out.getvalue())
            want = _occupancy_by_scalars(ctx, cp.parse_monomial(ctx, text))
            assert (rep["is_permutation"], rep["witness"]) == want

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
    for method in ("brute", "fast"):
        code, out, _ = run_cli(capsys, "charsum", "--field", "1:3", "--poly",
                               "0:3,1:5", "--method", method)
        assert code == 0
        outs[method] = json.loads(out)
    assert outs["brute"]["s"] == outs["fast"]["s"]
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
    code, out, err = run_cli(capsys, "permtest", "--field", "1:2", "--poly", "3:1",
                             "--method", "structured")
    assert (code, out) == (2, "")
    assert err == ("usage error: --method structured needs a structured form "
                   "(quadspec, traceform or family)\n")


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


@pytest.mark.parametrize("argv", [
    ("charsum", "--field", "1:3", "--poly=--"),
    ("search", "--field", "1:3", "--template", "tu", "--coeffs=--"),
    ("eval", "--field", "1:3", "--op", "inv", "--elem=--")])
def test_option_value_dashes_is_usage_error(capsys, argv):
    # argparse reads --opt=-- as an empty list, not as the text '--'
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--campaign", "thm4",
                             "--fields", "1:2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("max_n", ["-1", "25"])
def test_max_n_outside_the_size_cap_is_usage_error(capsys, max_n):
    code, out, err = run_cli(capsys, "field-info", "--field", "1:2",
                             "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --max-n must lie in 0 .. 24, got {max_n}\n"


def test_max_n_at_the_size_cap_runs(capsys):
    # one cap: the character-sum test runs wherever the field can be built,
    # and --max-n refuses a larger field when it is built
    code, out, _ = run_cli(capsys, "permtest", "--field", "4:4", "--poly", "1:1",
                           "--method", "charsum")
    assert code == 0
    assert json.loads(out)["is_permutation"] is True
    code, out, err = run_cli(capsys, "permtest", "--field", "4:4", "--poly", "1:1",
                             "--method", "charsum", "--max-n", "12")
    assert (code, out) == (1, "")
    assert err == "error: m*n = 16 exceeds the size cap 12\n"


@pytest.mark.parametrize("cid", sorted(cp.SWEEPS))
def test_negative_sample_is_refused(capsys, cid):
    code, out, err = run_cli(capsys, "verify", "--campaign", cid, "--sample", "-1")
    assert (code, out) == (2, "")
    assert err == "usage error: --sample must be nonnegative, got -1\n"
    with pytest.raises(cp.BadParameters):
        cp.run_verify(cp.VerifyCampaign(cid, sample_budget=-5))


@pytest.mark.parametrize("cid", ["thm6", "prop3", "thm1"])
def test_huge_sample_is_refused_before_any_grid(capsys, cid):
    # 10^8 draws would overflow getrandbits (thm6), or allocate gigabytes
    # (prop3, thm1) before the first verdict
    code, out, err = run_cli(capsys, "verify", "--campaign", cid, "--fields", "1:2",
                             "--sample", str(10 ** 8))
    assert (code, out) == (1, "")
    assert err == f"error: sample budget 100000000 exceeds {verify.MAX_SAMPLE_BUDGET}\n"


def test_sample_budget_ceiling_is_inclusive():
    # prop2 draws no sample, so the ceiling itself runs at once
    top = verify.MAX_SAMPLE_BUDGET
    rep = cp.run_verify(cp.VerifyCampaign("prop2", ("1:1",), sample_budget=top))
    assert rep.cases_total == rep.cases_agreeing == 4
    with pytest.raises(cp.SizeGuard):
        cp.run_verify(cp.VerifyCampaign("prop2", ("1:1",), sample_budget=top + 1))


# Every option each subcommand takes, besides -h: one field, its size cap,
# and only what its handler reads
SUBCOMMAND_OPTIONS = {
    "field-info": {"--field", "--format", "--max-n"},
    "eval": {"--field", "--max-n", "--op", "--elem", "--elems", "--exp", "--k",
             "--sub", "--args"},
    "charsum": {"--field", "--max-n", "--poly", "--method"},
    "classify": {"--field", "--max-n", "--poly"},
    "permtest": {"--field", "--max-n", "--form", "--poly", "--method"},
    "search": {"--field", "--format", "--max-n", "--template", "--params", "--coeffs"},
    "verify": {"--format", "--max-n", "--seed", "--jobs", "--campaign", "--fields",
               "--sample"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(SUBCOMMAND_OPTIONS)
    for name, sub in subparsers.choices.items():
        options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == SUBCOMMAND_OPTIONS[name], name


@pytest.mark.parametrize("argv", [
    ("classify", "--field", "1:2", "--poly", "0:1", "--format", "csv"),
    ("permtest", "--field", "1:2", "--poly", "1:1", "--seed", "1"),
    ("charsum", "--field", "1:2", "--poly", "0:1", "--jobs", "2"),
], ids=lambda argv: argv[0])
def test_an_option_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_field_reads_as_fields(capsys):
    # verify takes no --field, so argparse reads it as a prefix of --fields
    want = run_cli(capsys, "verify", "--campaign", "thm4", "--fields", "1:2")[:2]
    assert run_cli(capsys, "verify", "--campaign", "thm4", "--field", "1:2")[:2] == want
    assert want[0] == 0 and json.loads(want[1])["campaigns"][0]["cases_total"] == 16


@pytest.mark.parametrize("field", ["1:1", "2:1", "3:1", "4:1"])
def test_corollary_refuses_n_1(capsys, field):
    # there Tr is the identity, so a = 0 gives x^2, a permutation the
    # closed form rejects: the grid refuses the field before any unit
    code, out, err = run_cli(capsys, "verify", "--campaign", "corollary",
                             "--fields", field)
    assert (code, out) == (1, "")
    assert err == "error: the monomial-plus-trace criterion needs n > 1, got n=1\n"
    # the sweep refuses through the closed form's own check, so its replay
    # says the same
    code, out, replay_err = run_cli(capsys, "eval", "--field", field, "--op",
                                    "check-corollary", "--args", "a=0;k=0;l=0")
    assert (code, out, replay_err) == (1, "", err)


@pytest.mark.parametrize("field", ["1:4", "2:4", "1:6"])
def test_thm7_refuses_even_n_as_its_replay_does(capsys, field):
    code, out, err = run_cli(capsys, "verify", "--campaign", "thm7", "--fields", field)
    assert (code, out) == (1, "")
    n = field.split(":")[1]
    assert err == f"error: needs n odd, 0 < 2k < n and gcd(k, n) = 1, got n={n} k=1\n"
    code, out, replay_err = run_cli(capsys, "eval", "--field", field, "--op",
                                    "check-thm7", "--args", "k=1;l0=")
    assert (code, out, replay_err) == (1, "", err)


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


def test_search_params_take_only_the_template_fixed_keys(capsys):
    # a key that the template does not read is a usage error, not ignored
    for params in ("zz=1;j0=5", "j0=5", "k=1", "k"):
        code, out, err = run_cli(capsys, "search", "--field", "1:2", "--template",
                                 "binomial", "--params", params)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("usage error:")
    code, out, _ = run_cli(capsys, "search", "--field", "1:3", "--template",
                           "traceform", "--params", "j0=0;j1=0;l=1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == run_search(build_context(1, 3), "traceform",
                              {"j0": 0, "j1": 0, "l": 1})
    code, _, err = run_cli(capsys, "search", "--field", "1:3", "--template",
                           "trform", "--params", "k=1;j1=0")
    assert code == 2 and "'j1'" in err


# Per search call: sha256 of six stdouts, json then csv for no --coeffs,
# for --coeffs with repeated and unsorted values, and for --coeffs= (nothing
# to scan).  Pinned while search still decided each case by a scalar
# occupancy test and a scalar criterion, so a change of route must move no
# byte.
SEARCH_COEFFS = {"1:2": "3,0,1,3", "2:2": "3,0,1,3"}
SEARCH_PINS = {
    ("1:2", "binomial", ""):
        "2ec6c737418945ca5222bc45d66a4f9edfbb988565d8873bc833b3acd44cd3cd",
    ("1:3", "abnorm", ""):
        "144c597242ad94e5d4bf65478610d3b91a08abe0025450202784820c3dfc3b71",
    ("1:3", "aqk", "k=2"):
        "763c44c8aaa02717cdc4f213adf49cda8e819ddc2c37218faca0d920b722a7a0",
    ("1:3", "binomial", ""):
        "317ba2c694f8c89323ba3adb1fca07a178223cf6a2a312b2caff32bd90643057",
    ("1:3", "traceform", "j0=0;j1=0;l=1"):
        "888785e7e8c988ca2b6e4c88b8858404f27dd02545220300e0dcbfa7e638e7b2",
    ("1:3", "traceform", "j0=1;j1=0;l=0"):
        "888785e7e8c988ca2b6e4c88b8858404f27dd02545220300e0dcbfa7e638e7b2",
    ("1:3", "trform", "k=1"):
        "50ac7345c42e1060565b4aa846f33fc57c2382374b6b16a487ec1f6eb26eeb19",
    ("1:3", "tu", ""):
        "a4806fed009b3708e55df8ccffabf6b2e2c09cec8c6c5b56ca3f42744970d8b5",
    ("2:2", "binomial", ""):
        "30e7d863f2dc18ff84d42306861f1a23fbe4223f6defed7c595ab489357c101f",
    ("2:3", "abnorm", ""):
        "45b594d3f2625febd8f5a665391f439109b70029ee47670b68262569d3b4ae15",
    ("2:3", "aqk", "k=2"):
        "b8bd315366173414f272c2dc35dde27898501641cbcd555f0a825890d4aa8c3f",
    ("2:3", "binomial", ""):
        "77b8cae9a0e12f7f709a8b4faa6d65feb96e021622d5756003859587538517cd",
    ("2:3", "q4", ""):
        "f99afcaef31ecfe8c483c72eb974443bdf9a53105b48b95c6267bc6215fd7d9b",
    ("2:3", "traceform", "j0=0;j1=0;l=1"):
        "0282640d82e51f7bfe00acb43687ed619a62b742e40064fe8a50bbf30dc8c38e",
    ("2:3", "traceform", "j0=1;j1=0;l=0"):
        "ebcc6aa664191981ceab0a35d342f0c72d21e073fe729e6d164a103e60eadc16",
    ("2:3", "trform", "k=1"):
        "bdf6f1b0da9fa0aef70f135f71074ef803409375661bb87db7908b6aed7f7e8e",
    ("2:3", "tu", ""):
        "aae02d07306a054d8460a0eedd988e41202e02634a17e4facbac84cc581efff7",
}


@pytest.mark.parametrize("field,template,params", sorted(SEARCH_PINS))
def test_search_stdout_is_pinned(capsys, field, template, params):
    digest = hashlib.sha256()
    for coeffs in (None, SEARCH_COEFFS.get(field, "5,0,1,5,3"), ""):
        for fmt in ("json", "csv"):
            argv = ["search", "--field", field, "--template", template,
                    "--format", fmt, f"--params={params}"]
            if coeffs is not None:
                argv.append(f"--coeffs={coeffs}")
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == SEARCH_PINS[field, template, params]


@pytest.mark.parametrize("argv", [
    ("--field", "1:4", "--template", "tu"),
    ("--field", "1:4", "--template", "q4"),
    ("--field", "1:3", "--template", "q4"),
    ("--field", "1:4", "--template", "trform", "--params", "k=2")])
def test_search_refusal_does_not_depend_on_coeffs(capsys, argv):
    # the field and fixed-parameter checks run before the scan, so an empty
    # coefficient pool is refused like the whole field
    for coeffs in ((), ("--coeffs=",), ("--coeffs=1",)):
        code, out, err = run_cli(capsys, "search", *argv, *coeffs)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: family")


@pytest.mark.parametrize("family,field,builder", [
    ("tu", "1:12", "_a_grid"), ("abnorm", "1:12", "_ab_grid"),
    ("abnorm", "6:2", "_ab_grid"), ("q4", "1:12", "_a_grid"), ("q4", "2:4", "_a_grid")])
def test_family_campaign_refuses_a_wrong_field_before_its_grid(
        capsys, monkeypatch, family, field, builder):
    # a domain error like thm4's and thm7's refusals: exit 1, one line
    def never(*args, **kwargs):
        raise AssertionError(f"{builder} reached for family:{family} on {field}")

    monkeypatch.setattr(verify, builder, never)
    code, out, err = run_cli(capsys, "verify", "--campaign", f"family:{family}",
                             "--fields", field)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: family {family} needs")


def test_verify_json_and_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--campaign", "thm4",
                             "--fields", "1:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["campaigns"][0]["cases_total"] == 16
    assert doc["campaigns"][0]["mismatches"] == []
    assert "campaign thm4" in err and "wall=" in err
    assert "wall" not in out


def test_verify_field_without_cases_is_an_error(capsys):
    # gold_ks(2) is empty, so thm5 has no case on a degree-2 extension
    code, out, err = run_cli(capsys, "verify", "--campaign", "thm5", "--fields", "2:2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "thm5" in err and "2:2" in err


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


# ---- replaying campaign cases ----------------------------------------------

def _perm(ctx, f):
    return cp.is_perm_bruteforce(ctx, f).is_permutation


def _binomial_sum(ctx, a, b, k):
    return cp.s_bruteforce(ctx, cp.q_linearized(ctx, [(k, a), (0, b)]))


def _traceform(ctx, p):
    return cp.trace_form_spec(ctx, p["l0"], p["l1"], p["shift"])


def _family(name):
    def expect(ctx, p):
        return (cp.family_predicate(ctx, name, p),
                _perm(ctx, cp.family_polynomial(ctx, name, p)), None)
    return expect


# Each campaign's own closed form and oracle, through the public polynomial
# builders: (structured, brute, s or None) for parsed --args values.
REPLAY_EXPECT = {
    "thm4": lambda ctx, p: (cp.s_zero_quadratic_ext(ctx, p["a"], p["b"]),
                            _binomial_sum(ctx, p["a"], p["b"], 1) == 0,
                            _binomial_sum(ctx, p["a"], p["b"], 1)),
    "thm5": lambda ctx, p: (cp.s_zero_binomial(ctx, p["a"], p["b"], p["k"]),
                            _binomial_sum(ctx, p["a"], p["b"], p["k"]) == 0,
                            _binomial_sum(ctx, p["a"], p["b"], p["k"])),
    "thm6": lambda ctx, p: (cp.perm_quad_ext(ctx, p["l0"], p["l1"]),
                            _perm(ctx, cp.expand_quadspec(
                                ctx, cp.quad_family(ctx, [p["l0"], p["l1"]]))),
                            None),
    "thm7": lambda ctx, p: (cp.perm_gold_linearized(ctx, p["k"], p["l0"]),
                            _perm(ctx, cp.gold_poly(ctx, p["k"], p["l0"])), None),
    "thm_tr": lambda ctx, p: (cp.perm_trace_form(ctx, _traceform(ctx, p)),
                              _perm(ctx, cp.expand_traceform(ctx, _traceform(ctx, p))),
                              None),
    "corollary": lambda ctx, p: (
        cp.perm_monomial_trace(ctx, p["a"], p["k"], p["l"]),
        _perm(ctx, cp.monomial_trace_poly(ctx, p["a"], p["k"], p["l"])), None),
    "prop2": lambda ctx, p: (ctx.psi(ctx.mul(p["a"], p["b"])) * ctx.q,
                             cp.bilinear_psi_sum(ctx, p["a"], p["b"]),
                             cp.bilinear_psi_sum(ctx, p["a"], p["b"])),
    "prop3": lambda ctx, p: (cp.s_fast(ctx, p["poly"]).s_value,
                             cp.s_bruteforce(ctx, p["poly"]),
                             cp.s_bruteforce(ctx, p["poly"])),
    "thm1": lambda ctx, p: (cp.is_perm_charsum(ctx, p["monomials"]).is_permutation,
                            _perm(ctx, p["monomials"]), None),
    "family:tu": _family("tu"),
    "family:abnorm": _family("abnorm"),
    "family:q4": _family("q4"),
    "family:trform": _family("trform"),
    "family:aqk": _family("aqk"),
}

# Cases on each campaign's smallest default field, or (field, case) on
# another; with both verdicts of each kind where the field has them.
REPLAY_CASES = {
    "thm4": ["a=1;b=1", "a=0;b=2", "a=2;b=3", "a=3;b=0"],
    "thm5": ["a=1;b=1;k=1", "a=0;b=5;k=1", "a=3;b=0;k=1", "a=6;b=7;k=1"],
    "thm6": ["l0=0:1;l1=", "l0=0:1;l1=0:1", "l0=0:1,1:1;l1=0:2", "l0=1:3;l1=0:1,1:1"],
    "thm7": ["k=1;l0=", "k=1;l0=0:1", "k=1;l0=1:1,2:1", "k=1;l0=0:3,2:5"],
    "thm_tr": ["l0=0:1;l1=;shift=0", "l0=0:1;l1=0:1;shift=1", "l0=;l1=1:1;shift=2",
               "l0=0:2,1:3;l1=1:2;shift=1"],
    "corollary": ["a=1;k=0;l=0", "a=1;k=1;l=2", "a=0;k=0;l=1", "a=5;k=2;l=3"],
    "prop2": ["a=0;b=1", "a=1;b=1"],
    "prop3": ["poly=0:1,1:1", "poly=1:3", "poly=0:2", "poly="],
    "thm1": ["monomials=1:1", "monomials=3:1", "monomials=2:1,1:1", "monomials=4:2",
             "monomials=", "monomials=1:1,1:1", ("1:3", "monomials=9:1")],
    "family:tu": ["a=1", "a=0", "a=3"],
    "family:abnorm": ["a=0;b=0", "a=1;b=1", "a=2;b=5"],
    "family:q4": ["a=1;variant=binomial", "a=5;variant=qk", "a=6;variant=binomial"],
    "family:trform": ["a=1;k=1", "a=3;k=2", "a=6;k=1"],
    "family:aqk": ["a=1;k=1", "a=5;k=2"],
}

SUFFICIENT_ONLY = {"family:tu", "family:q4"}


def _parse_args(ctx, blob):
    out = {}
    for part in blob.split(";"):
        key, value = part.split("=", 1)
        if key in ("a", "b"):
            out[key] = int(value, 16)
        elif key in ("l0", "l1", "poly"):
            out[key] = lin.parse_linearized(ctx, value)
        elif key == "monomials":
            out[key] = cp.parse_monomial(ctx, value)
        elif key == "variant":
            out[key] = value
        else:
            out[key] = int(value)
    return out


def _replay(capsys, field, cid, blob):
    code, out, err = run_cli(capsys, "eval", "--field", field, "--op",
                             f"check-{cid}", "--args", blob)
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("cid", list(cp.SWEEPS))
def test_replay_matches_public_closed_form_and_oracle(capsys, cid):
    m, n = cp.SWEEPS[cid].default_fields[0]
    agreed = 0
    for case in REPLAY_CASES[cid]:
        field, blob = case if isinstance(case, tuple) else (f"{m}:{n}", case)
        ctx = build_context(*map(int, field.split(":")))
        got = _replay(capsys, field, cid, blob)
        structured, brute, s = REPLAY_EXPECT[cid](ctx, _parse_args(ctx, blob))
        assert (got["structured"], got["brute"]) == (structured, brute), blob
        assert set(got) <= {"structured", "brute", "s", "agree"}
        if s is not None:
            assert got.get("s", s) == s
        want = brute or not structured if cid in SUFFICIENT_ONLY else structured == brute
        assert got["agree"] is want
        agreed += want
    assert agreed >= 1


def test_replay_reproduces_a_thm5_mismatch(capsys):
    ctx = build_context(1, 4)
    got = _replay(capsys, "1:4:0x13", "thm5", "a=2;b=1;k=1")
    want = REPLAY_EXPECT["thm5"](ctx, {"a": 2, "b": 1, "k": 1})
    assert (got["structured"], got["brute"], got["s"]) == want == (True, False, 4)
    assert got["agree"] is False


def test_replay_shows_the_sum_its_rows_show(capsys):
    assert _replay(capsys, "1:2", "prop3", "poly=1:3") == {
        "structured": -2, "brute": -2, "s": -2, "agree": True}
    assert set(_replay(capsys, "2:1", "prop2", "a=1;b=1")) == {
        "structured", "brute", "s", "agree"}


def test_replay_rejects_unknown_campaigns_and_missing_keys(capsys):
    # and keys its campaign does not read: another campaign's, or no one's
    for op, blob in (("check-thm99", "a=1"), ("check-thm5", "a=1;b=1"),
                     ("check-family:q4", "a=1"), ("check-thm5", "a=1;b=1;k=1;u=3"),
                     ("check-thm5", "a=1;b=1;k=1;j0=9"), ("check-family:tu", "a=1;b=1"),
                     ("check-family:tu", "a=1;v=3")):
        code, out, err = run_cli(capsys, "eval", "--field", "2:3", "--op", op,
                                 "--args", blob)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,key", [
    (("eval", "--field", "1:2", "--op", "check-thm4", "--args", "a=1;b=1;a=2"), "a"),
    (("permtest", "--field", "1:3", "--form", "family", "--poly", "tu;a=1;a=2"), "a"),
    (("search", "--field", "1:3", "--template", "trform", "--params", "k=1;k=2"), "k"),
], ids=["eval", "permtest", "search"])
def test_repeated_argument_key_is_usage_error(capsys, argv, key):
    # one value per key: a second one is refused, not taken in place of the first
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: argument key {key!r} given twice\n"


def test_permtest_family_takes_only_its_parameters(capsys):
    for poly in ("tu;a=1;e=2", "tu;a=1;b=1"):
        code, out, err = run_cli(capsys, "permtest", "--field", "2:3", "--form",
                                 "family", "--poly", poly)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: unknown argument key") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "permtest", "--field", "2:3", "--form", "family",
                             "--poly", "nope;a=1")
    assert (code, out) == (1, "") and err.startswith("error: unknown family")


_NO_FIELD = "this subcommand needs --field m:n[:0xMOD]"


_MISSING = [
    (("eval", "--field", "1:3", "--op", "check-family:tu"), "missing argument keys ['a']"),
    (("permtest", "--field", "1:3", "--form", "family", "--poly", "tu"),
     "missing argument keys ['a']"),
    (("permtest", "--field", "2:3", "--form", "family", "--poly", "q4;variant=qk"),
     "missing argument keys ['a']"),
    (("search", "--field", "1:3", "--template", "trform"), "missing argument keys ['k']"),
    (("search", "--field", "2:3", "--template", "traceform", "--params", "j0=1"),
     "missing argument keys ['j1', 'l']"),
    (("field-info",), _NO_FIELD),
    (("eval", "--op", "chi", "--elem", "1"), _NO_FIELD),
    (("charsum", "--poly", "0:1"), _NO_FIELD),
    (("classify", "--poly", "0:1"), _NO_FIELD),
    (("permtest", "--form", "family", "--poly", "tu"), _NO_FIELD),
    (("search", "--template", "trform"), _NO_FIELD),
]


@pytest.mark.parametrize("argv,message", [pytest.param(argv, message, id=" ".join(argv))
                                          for argv, message in _MISSING])
def test_missing_key_or_field_is_usage_error(capsys, argv, message):
    # the same refusal through every subcommand that reads the key or field
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


def test_permtest_q4_variant_is_optional(capsys):
    code, out, _ = run_cli(capsys, "permtest", "--field", "2:3", "--form", "family",
                           "--poly", "q4;a=1")
    assert code == 0
    assert (code, out) == run_cli(capsys, "permtest", "--field", "2:3", "--form",
                                  "family", "--poly", "q4;a=1;variant=binomial")[:2]


@pytest.mark.parametrize("field", ["1:3", "2:3"])
def test_huge_exponents_match_their_residues(capsys, field):
    # 2-power exponents act modulo bits (x^(2^bits) = x); 10^12 must not
    # build a 10^12-bit integer on the way
    ctx = build_context(*map(int, field.split(":")))
    big, rest = 10 ** 12, 10 ** 12 % ctx.bits
    for argv, small in (
            (("permtest", "--form", "traceform", "--poly", f"0:1|0:1|{big}"),
             ("permtest", "--form", "traceform", "--poly", f"0:1|0:1|{rest}")),
            (("permtest", "--form", "traceform", "--poly", f"0:1||{big}"),
             ("permtest", "--form", "traceform", "--poly", f"0:1||{rest}")),
            (("eval", "--op", "check-corollary", "--args", f"a=1;k={big};l={big}"),
             ("eval", "--op", "check-corollary", "--args",
              f"a=1;k={big % ctx.n};l={rest}"))):
        got = run_cli(capsys, argv[0], "--field", field, *argv[1:])
        want = run_cli(capsys, small[0], "--field", field, *small[1:])
        assert got == want and got[0] == 0, argv
    assert cp.monomial_trace_poly(ctx, 1, big, big) == cp.monomial_trace_poly(
        ctx, 1, big % ctx.n, rest)
    for a in range(ctx.order):
        assert (cp.perm_monomial_trace(ctx, a, big, big)
                == cp.perm_monomial_trace(ctx, a, big % ctx.n, rest))


# Fields of at most 6 bits for the replay fuzz; each check op meets fields
# it runs on and fields it refuses
REPLAY_FUZZ_FIELDS = ("1:1", "1:2", "2:2", "1:3", "3:2", "2:3", "1:5", "1:6")
_HUGE = 10 ** 12


def _fuzz_value(ctx, key):
    """A strategy for one --args value of key: in range, out of range,
    negative, 10^12 or malformed."""
    malformed = st.sampled_from(("", "x", "1_0", " 3", "0x", "--", ":", ",")) | st.text(
        max_size=4)
    elem = (st.integers(0, ctx.order - 1) | st.integers(ctx.order, 4 * ctx.order)
            | st.integers(-ctx.order, -1) | st.just(_HUGE)).map(lambda v: format(v, "x"))
    if key in ("a", "b"):
        return elem | malformed
    if key in ("k", "l", "shift"):
        return st.integers(-3, 2 * ctx.bits + 2).map(str) | st.just(str(_HUGE)) | malformed
    if key == "variant":
        return st.sampled_from(("binomial", "qk")) | malformed
    first = (st.integers(0, ctx.bits - 1) if key != "monomials" else st.integers(1, ctx.order))
    first = (first | st.integers(-2, 4 * ctx.bits) | st.just(_HUGE)).map(str)
    term = st.tuples(first, elem).map(":".join) | malformed
    return st.lists(term, max_size=3).map(",".join)


def test_replay_fuzzed_args_exit_cleanly():
    contexts = {f: build_context(*map(int, f.split(":"))) for f in REPLAY_FUZZ_FIELDS}
    other_keys = ("u", "v", "e", "j0", "j1", "zz", "a", "b", "k", "l", "shift",
                  "l0", "l1", "poly", "monomials", "variant")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(REPLAY_FUZZ_FIELDS), cid=st.sampled_from(sorted(cp.SWEEPS)),
           data=st.data())
    def check(field, cid, data):
        ctx = contexts[field]
        keys = cp.SWEEPS[cid].keys
        # keys the op does not read come first: they exit 2 before any value
        extra = data.draw(st.lists(st.sampled_from(other_keys).filter(
            lambda k: k not in keys), max_size=2), label="extra keys")
        parts = [f"{key}={data.draw(_fuzz_value(ctx, key), label=key)}"
                 for key in extra + [k for k in keys
                                     if data.draw(st.integers(0, 9), label=f"has {k}")]]
        if data.draw(st.integers(0, 19), label="bare") == 0:
            parts.append(data.draw(st.text(max_size=4), label="bare part"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--field", field, "--op", f"check-{cid}",
                         "--args", ";".join(parts)])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1, err.getvalue()
        else:
            assert set(json.loads(out.getvalue())) <= {"structured", "brute", "s", "agree"}
        if extra:
            assert code == 2

    check()


# Fields of at most 8 bits for the --poly and search fuzz
POLY_FUZZ_FIELDS = ("1:1", "1:2", "2:2", "3:2", "1:3", "2:3", "1:5", "2:4", "4:2", "1:8")


def _exit_cleanly(argv):
    """main's exit code on argv, once checked: 0, 1 or 2, at most one
    stderr line, and no stdout on an error.  An exception that escapes
    main fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    if code:
        assert out.getvalue() == ""
    return code


def _good_value(ctx, key):
    """A strategy for one well-formed value of key: an element, a small
    exponent, a variant, or a list of terms (q-linear, for a linearized
    polynomial, half the time)."""
    elem = st.integers(0, ctx.order - 1).map(lambda v: format(v, "x"))
    if key in ("a", "b"):
        return elem
    if key in ("k", "l", "shift", "j0", "j1"):
        return st.integers(0, ctx.n + 1).map(str)
    if key == "variant":
        return st.sampled_from(("binomial", "qk"))
    first = (st.integers(1, 2 * ctx.order) if key == "monomials"
             else st.integers(0, ctx.n - 1).map(lambda j: ctx.m * j)
             | st.integers(0, ctx.bits - 1))
    return st.lists(st.tuples(first.map(str), elem).map(":".join), max_size=3).map(",".join)


def _value(ctx, key):
    """A well-formed value of key (see _good_value) or a fuzzed one (see
    _fuzz_value)."""
    return _good_value(ctx, key) | _fuzz_value(ctx, key)


def _fuzz_poly(data, ctx, form):
    """A --poly text of form: a linearized polynomial, a monomial list, a
    quadspec 'L|L|...', a traceform 'L0|L1|shift' or a family
    'name;key=value;...', from well-formed and fuzzed parts."""
    if form in ("linear", "monomials"):
        return data.draw(_value(ctx, "l0" if form == "linear" else "monomials"), label="poly")
    if form == "quadspec":
        count = data.draw(st.just(ctx.n) | st.integers(0, ctx.n + 1), label="parts")
        return "|".join(data.draw(_value(ctx, "l0"), label=f"part {i}") for i in range(count))
    if form == "traceform":
        pieces = [data.draw(_value(ctx, key), label=key) for key in ("l0", "l1", "shift")]
        return "|".join(pieces[:data.draw(st.sampled_from((3, 3, 2)), label="pieces")])
    name = data.draw(st.sampled_from(sorted(cp.FAMILIES)) | st.text(max_size=3), label="name")
    keys = list(cp.FAMILIES[name].params) if name in cp.FAMILIES else []
    keys = [k for k in keys if data.draw(st.integers(0, 9), label=f"has {k}")]
    keys += data.draw(st.lists(st.sampled_from(("a", "b", "k", "l", "zz")).filter(
        lambda k: k not in keys), max_size=1), label="extra keys")
    return ";".join([name] + [f"{k}={data.draw(_value(ctx, k), label=k)}"
                              if k != "zz" else "zz=1" for k in keys])


def test_poly_forms_fuzzed_exit_cleanly():
    contexts = {f: build_context(*map(int, f.split(":"))) for f in POLY_FUZZ_FIELDS}
    commands = [("permtest", "--form", form, "--method", method)
                for form in ("monomials", "quadspec", "traceform", "family")
                for method in ("brute", "charsum", "structured")]
    commands += [("charsum", "--method", method) for method in ("brute", "fast")]
    commands += [("classify",)]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(POLY_FUZZ_FIELDS), command=st.sampled_from(commands),
           data=st.data())
    def check(field, command, data):
        ctx = contexts[field]
        form = command[2] if command[0] == "permtest" else "linear"
        poly = _fuzz_poly(data, ctx, form)
        _exit_cleanly([command[0], "--field", field, *command[1:], f"--poly={poly}"])

    check()


def test_search_fuzzed_inputs_exit_cleanly():
    contexts = {f: build_context(*map(int, f.split(":"))) for f in POLY_FUZZ_FIELDS}
    templates = sorted(cp.TEMPLATES) + ["nope", ""]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(POLY_FUZZ_FIELDS), template=st.sampled_from(templates),
           data=st.data())
    def check(field, template, data):
        ctx = contexts[field]
        fixed = cp.TEMPLATES[template].fixed if template in cp.TEMPLATES else ()
        keys = [k for k in fixed if data.draw(st.integers(0, 9), label=f"has {k}")]
        if data.draw(st.integers(0, 4), label="extra key") == 0:
            keys += [data.draw(st.sampled_from(("a", "k", "j0", "zz")).filter(
                lambda k: k not in fixed), label="extra")]
        params = ";".join(f"{k}={data.draw(_value(ctx, k), label=k)}"
                          if k != "zz" else "zz=1" for k in keys)
        argv = ["search", "--field", field, "--template", template, f"--params={params}",
                "--format", data.draw(st.sampled_from(("json", "csv")), label="format")]
        if data.draw(st.integers(0, 9), label="whole field"):
            coeffs = data.draw(st.lists(_good_value(ctx, "a"), max_size=5)
                               | st.lists(_value(ctx, "a"), max_size=3), label="coeffs")
            argv.append(f"--coeffs={','.join(coeffs)}")
        code = _exit_cleanly(argv)
        if template not in cp.TEMPLATES:
            assert code in (1, 2)

    check()


VERIFY_ALL_PINS = {
    ("--seed", "0"): "a75844b0cea89f6f3c43449914bfd6e34c6a8a81a30b8f5eeea145eb2df2ef4b",
    ("--seed", "1"): "77aa08e919a215ccf9f16f52283ef445b2b483c3c9f250e12c27e50fa8111dc7",
    ("--seed", "0", "--jobs", "2"):
        "a75844b0cea89f6f3c43449914bfd6e34c6a8a81a30b8f5eeea145eb2df2ef4b",
    ("--seed", "0", "--format", "csv"):
        "0b5a1a2d30fe14013cccd430996311a0448e9f498447dc6cfb8fb981f9a606fc",
}


def test_verify_all_stdout_is_byte_identical(capsys):
    # changes only when a campaign verdict or the report format changes,
    # and is the same bytes whatever --jobs
    for argv, digest in VERIFY_ALL_PINS.items():
        code, out, _ = run_cli(capsys, "verify", "--campaign", "all", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# ---- golden stdout of the quadratic-form commands ---------------------------

# Per field: the zero map and one more plus form, two minus forms and two
# zero-sum forms (x among them).  Each polynomial gives two lines, from
# charsum --method fast and classify.  Pinned while s_fast still decided
# S(L) by the kernel route, so a change of route must move no byte.
GOLDEN_POLYS = {
    "1:3": ("", "0:4,2:2", "0:3,2:6", "0:4,2:7", "0:1", "2:5"),
    "2:4": ("", "6:75", "0:63,4:f8", "6:40", "0:1", "0:d7"),
    "3:4": ("", "3:ca4,6:24", "6:d51", "0:56,3:36", "0:1", "0:c6e"),
    "6:2": ("", "0:c33,6:fbb", "6:596", "6:8c4", "0:1", "0:f53"),
}
GOLDEN_STDOUT = {
    "1:3": """\
{"s": 8, "kernel_dim_fq": 3, "vanishes": true, "type": "plus"}
{"s": 8, "kernel_dim_fq": 3, "vanishes": true, "type": "plus", "rank": 0, "sign_known": true}
{"s": 4, "kernel_dim_fq": 1, "vanishes": true, "type": "plus"}
{"s": 4, "kernel_dim_fq": 1, "vanishes": true, "type": "plus", "rank": 2, "sign_known": true}
{"s": -4, "kernel_dim_fq": 1, "vanishes": true, "type": "minus"}
{"s": -4, "kernel_dim_fq": 1, "vanishes": true, "type": "minus", "rank": 2, "sign_known": true}
{"s": -4, "kernel_dim_fq": 1, "vanishes": true, "type": "minus"}
{"s": -4, "kernel_dim_fq": 1, "vanishes": true, "type": "minus", "rank": 2, "sign_known": true}
{"s": 0, "kernel_dim_fq": 3, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 3, "vanishes": false, "type": "zero-sum", "rank": 1, "sign_known": true}
{"s": 0, "kernel_dim_fq": 1, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 1, "vanishes": false, "type": "zero-sum", "rank": 3, "sign_known": true}
""",
    "2:4": """\
{"s": 256, "kernel_dim_fq": 4, "vanishes": true, "type": "plus"}
{"s": 256, "kernel_dim_fq": 4, "vanishes": true, "type": "plus", "rank": 0, "sign_known": true}
{"s": 16, "kernel_dim_fq": 0, "vanishes": true, "type": "plus"}
{"s": 16, "kernel_dim_fq": 0, "vanishes": true, "type": "plus", "rank": 4, "sign_known": true}
{"s": -16, "kernel_dim_fq": 0, "vanishes": true, "type": "minus"}
{"s": -16, "kernel_dim_fq": 0, "vanishes": true, "type": "minus", "rank": 4, "sign_known": true}
{"s": -64, "kernel_dim_fq": 2, "vanishes": true, "type": "minus"}
{"s": -64, "kernel_dim_fq": 2, "vanishes": true, "type": "minus", "rank": 2, "sign_known": true}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum", "rank": 1, "sign_known": true}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum", "rank": 1, "sign_known": true}
""",
    "3:4": """\
{"s": 4096, "kernel_dim_fq": 4, "vanishes": true, "type": "plus"}
{"s": 4096, "kernel_dim_fq": 4, "vanishes": true, "type": "plus", "rank": 0, "sign_known": true}
{"s": 64, "kernel_dim_fq": 0, "vanishes": true, "type": "plus"}
{"s": 64, "kernel_dim_fq": 0, "vanishes": true, "type": "plus", "rank": 4, "sign_known": true}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus"}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus", "rank": 4, "sign_known": true}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus"}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus", "rank": 4, "sign_known": true}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum", "rank": 1, "sign_known": true}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 4, "vanishes": false, "type": "zero-sum", "rank": 1, "sign_known": true}
""",
    "6:2": """\
{"s": 4096, "kernel_dim_fq": 2, "vanishes": true, "type": "plus"}
{"s": 4096, "kernel_dim_fq": 2, "vanishes": true, "type": "plus", "rank": 0, "sign_known": true}
{"s": 64, "kernel_dim_fq": 0, "vanishes": true, "type": "plus"}
{"s": 64, "kernel_dim_fq": 0, "vanishes": true, "type": "plus", "rank": 2, "sign_known": true}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus"}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus", "rank": 2, "sign_known": true}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus"}
{"s": -64, "kernel_dim_fq": 0, "vanishes": true, "type": "minus", "rank": 2, "sign_known": true}
{"s": 0, "kernel_dim_fq": 2, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 2, "vanishes": false, "type": "zero-sum", "rank": 1, "sign_known": true}
{"s": 0, "kernel_dim_fq": 2, "vanishes": false, "type": "zero-sum"}
{"s": 0, "kernel_dim_fq": 2, "vanishes": false, "type": "zero-sum", "rank": 1, "sign_known": true}
""",
}


@pytest.mark.parametrize("field", sorted(GOLDEN_POLYS))
def test_quadratic_form_commands_golden_stdout(capsys, field):
    out = []
    for poly in GOLDEN_POLYS[field]:
        for argv in (("charsum", "--method", "fast"), ("classify",)):
            code, text, _ = run_cli(capsys, *argv, "--field", field, "--poly", poly)
            assert code == 0
            out.append(text)
    assert "".join(out) == GOLDEN_STDOUT[field]
