"""Command-line front end: one subcommand per question.

field-info (the tower), eval (one field operation, or check-<id>: one
campaign case replayed), charsum (S(L) of a linearized polynomial),
classify (the type of its quadratic form), permtest (does a polynomial
permute), search (a template's permutations) and verify (the campaigns).

Field elements are lowercase hex on input and output; linearized polynomials
are comma-separated "index:hexcoeff" terms and plain polynomials are
"exponent:hexcoeff" terms.  Each input syntax has one parser: a field spec
verify.normalize_field, a key=value list _parse_blob, typed by
verify.PARAM_KINDS.  Identical invocations produce byte-identical stdout;
timing goes to stderr.

Exit codes: 0 success, 1 mathematical failure (bad modulus, bad parameters,
division by zero, size guard), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Collection, Dict, List, Optional, Sequence

from . import linearized as lin
from . import permtest as pt
from .charsum import classify_form, s_bruteforce, s_fast
from .errors import CharpermError, UnknownTheorem
from .field import DEFAULT_SIZE_CAP, FieldContext, build_context
from .verify import (
    PARAM_KINDS,
    SWEEPS,
    TEMPLATES,
    VerifyCampaign,
    field_label,
    normalize_field,
    replay_case,
    run_search,
    run_verify,
)


def _elem(ctx: FieldContext, s: Optional[str]) -> int:
    """A field element from hex text; it must lie in 0 .. order - 1."""
    if s is None:
        raise ValueError("missing field element")
    v = int(s, 16)
    if not 0 <= v < ctx.order:
        raise ValueError(f"{s!r} is not an element of GF(2^{ctx.bits})")
    return v


def _hex(x: int) -> str:
    return format(x, "x")


def _context_from(args) -> FieldContext:
    if not args.field:
        raise ValueError("this subcommand needs --field m:n[:0xMOD]")
    m, n, modulus = normalize_field(args.field)
    return build_context(m, n, modulus, size_cap=args.max_n or DEFAULT_SIZE_CAP)


def _emit(obj) -> None:
    print(json.dumps(obj))


# ---- argument blob parsing -------------------------------------------------

# one parser per kind of verify.PARAM_KINDS
_PARSERS = {
    "elem": _elem,
    "int": lambda ctx, s: int(s, 10),
    "lin": lin.parse_linearized,
    "mono": pt.parse_monomial,
    "str": lambda ctx, s: s,
}


def _parse_blob(ctx: FieldContext, blob: str, keys: Sequence[str],
                optional: Collection[str] = ()) -> Dict[str, object]:
    """Parse 'key=value' pairs separated by ';', each value by its key's
    kind; keys are the ones the op reads, each one needed unless optional,
    and a missing key, any other key, or one given twice is a usage
    error."""
    out: Dict[str, object] = {}
    for part in blob.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad argument {part!r}, expected key=value")
        key, value = part.split("=", 1)
        if key not in keys:
            raise ValueError(f"unknown argument key {key!r}, expected {list(keys)}")
        if key in out:
            raise ValueError(f"argument key {key!r} given twice")
        out[key] = _PARSERS[PARAM_KINDS[key]](ctx, value)
    missing = [k for k in keys if k not in out and k not in optional]
    if missing:
        raise ValueError(f"missing argument keys {missing}")
    return out


# ---- subcommand handlers ---------------------------------------------------

def _cmd_field_info(args) -> int:
    ctx = _context_from(args)
    info = {
        "m": ctx.m,
        "n": ctx.n,
        "bits": ctx.bits,
        "q": ctx.q,
        "order": ctx.order,
        "modulus": f"0x{ctx.modulus:x}",
        "generator": _hex(ctx.generator),
        "fq_basis": [_hex(b) for b in ctx.fq_basis],
    }
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(info.keys())
        w.writerow([info[k] if not isinstance(info[k], list) else " ".join(info[k])
                    for k in info])
    else:
        _emit(info)
    return 0


def _cmd_eval(args) -> int:
    ctx = _context_from(args)
    op = args.op
    if op in ("add", "mul"):
        xs = [_elem(ctx, s) for s in (args.elems or "").split(",")]
        if len(xs) != 2:
            raise ValueError("--elems needs exactly two comma-separated elements")
        r = ctx.add(*xs) if op == "add" else ctx.mul(*xs)
        print(_hex(r))
    elif op == "inv":
        print(_hex(ctx.inv(_elem(ctx, args.elem))))
    elif op == "pow":
        if args.exp is None:
            raise ValueError("--op pow needs --exp")
        print(_hex(ctx.pow(_elem(ctx, args.elem), args.exp)))
    elif op == "frobenius":
        print(_hex(ctx.frobenius(_elem(ctx, args.elem), args.k)))
    elif op in ("trace", "norm"):
        sub = args.sub if args.sub is not None else ctx.m
        fn = ctx.trace_to if op == "trace" else ctx.norm_to
        print(_hex(fn(_elem(ctx, args.elem), sub)))
    elif op == "chi":
        print(ctx.chi(_elem(ctx, args.elem)))
    elif op == "psi":
        print(ctx.psi(_elem(ctx, args.elem)))
    elif op.startswith("check-"):
        sweep = SWEEPS.get(op[len("check-"):])
        if sweep is None:
            raise ValueError(f"unknown check op {op!r}")
        params = _parse_blob(ctx, args.args or "", sweep.keys)
        _emit(replay_case(ctx, sweep.campaign_id, params))
    else:
        raise ValueError(f"unknown eval op {op!r}")
    return 0


def _cmd_charsum(args) -> int:
    ctx = _context_from(args)
    poly = lin.parse_linearized(ctx, args.poly)
    if args.method == "brute":      # the direct sum: no kernel, no type
        _emit({"s": s_bruteforce(ctx, poly), "kernel_dim_fq": None,
               "vanishes": None, "type": None})
        return 0
    rep = s_fast(ctx, poly)
    _emit({"s": rep.s_value, "kernel_dim_fq": rep.kernel_dim_fq,
           "vanishes": rep.vanishes_on_kernel, "type": rep.form_type})
    return 0


def _cmd_classify(args) -> int:
    ctx = _context_from(args)
    rep = classify_form(ctx, lin.parse_linearized(ctx, args.poly))
    _emit({"s": rep.s_value, "kernel_dim_fq": rep.kernel_dim_fq,
           "vanishes": rep.vanishes_on_kernel, "type": rep.form_type,
           "rank": rep.rank, "sign_known": True})   # classify_form resolves the sign
    return 0


def _report_json(rep: pt.PermReport) -> dict:
    witness = rep.witness
    if isinstance(witness, tuple):
        witness = [_hex(witness[0]), _hex(witness[1])]
    elif witness is not None:
        witness = _hex(witness)
    return {"is_permutation": rep.is_permutation, "method": rep.method,
            "witness": witness}


def _cmd_permtest(args) -> int:
    ctx = _context_from(args)
    form = args.form
    method = args.method
    if form == "monomials":
        if method == "structured":
            raise ValueError("--method structured needs a structured form "
                             "(quadspec, traceform or family)")
        f = pt.parse_monomial(ctx, args.poly)
    elif form == "quadspec":
        parts = [lin.parse_linearized(ctx, p) for p in args.poly.split("|")]
        spec = pt.quad_family(ctx, parts)
        if method == "structured":
            rep = pt.is_perm_quadspec(ctx, spec)
        else:
            f = pt.expand_quadspec(ctx, spec)
    elif form == "traceform":
        pieces = args.poly.split("|")
        if len(pieces) != 3:
            raise ValueError("traceform spec is 'L0|L1|shift'")
        spec = pt.trace_form_spec(ctx, lin.parse_linearized(ctx, pieces[0]),
                                  lin.parse_linearized(ctx, pieces[1]),
                                  int(pieces[2], 10))
        if method == "structured":
            rep = pt.PermReport(pt.perm_trace_form(ctx, spec), "structured")
        else:
            f = pt.expand_traceform(ctx, spec)
    else:                                   # family
        name, _, rest = args.poly.partition(";")
        if name not in pt.FAMILIES:
            raise UnknownTheorem(f"unknown family {name!r}")
        params = _parse_blob(ctx, rest, pt.FAMILIES[name].params,
                             pt._OPTIONAL_PARAMS)
        if method == "structured":
            rep = pt.PermReport(pt.family_predicate(ctx, name, params),
                                "structured")
        else:
            f = pt.family_polynomial(ctx, name, params)
    if method != "structured":
        rep = (pt.is_perm_charsum(ctx, f) if method == "charsum"
               else pt.is_perm_bruteforce(ctx, f))
    _emit(_report_json(rep))
    return 0


def _cmd_search(args) -> int:
    ctx = _context_from(args)
    tpl = TEMPLATES.get(args.template)
    fixed = _parse_blob(ctx, args.params or "", tpl.fixed) if tpl else {}
    coeffs: Optional[List[int]] = None
    if args.coeffs is not None:
        coeffs = [_elem(ctx, c) for c in args.coeffs.split(",") if c.strip()]
    rows = run_search(ctx, args.template, fixed, coeffs)
    axes = list(tpl.axes) if tpl else []
    header = axes + ["is_permutation", "matched_criteria"]
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([row[k] for k in axes]
                       + [row["is_permutation"], row["matched_criteria"]])
    else:
        _emit({"field": field_label(ctx), "template": args.template,
               "rows": rows})
    return 0


_MISMATCH_CSV = ["row_type", "campaign", "field", "cases_total",
                 "cases_agreeing", "params", "structured", "brute", "s",
                 "replay"]


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.sample is not None and args.sample < 0:
        raise ValueError(f"--sample must be nonnegative, got {args.sample}")
    ids = list(SWEEPS) if args.campaign == "all" else [args.campaign]
    fields = tuple(f for f in (args.fields or "").split(",") if f)
    reports = []
    for cid in ids:
        campaign = VerifyCampaign(cid, field_ranges=fields,
                                  sample_budget=args.sample, seed=args.seed)
        rep = run_verify(campaign, jobs=args.jobs, size_cap=args.max_n or DEFAULT_SIZE_CAP)
        print(f"campaign {cid}: total={rep.cases_total} "
              f"agree={rep.cases_agreeing} wall={rep.wall_time:.2f}s",
              file=sys.stderr)
        reports.append((cid, rep))
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(_MISMATCH_CSV)
        for cid, rep in reports:
            w.writerow(["summary", cid, "", rep.cases_total,
                        rep.cases_agreeing, "", "", "", "", ""])
            for mm in rep.mismatches:
                params = " ".join(f"{k}={v}" for k, v in mm["params"].items())
                w.writerow(["mismatch", mm["campaign"], mm["field"], "", "",
                            params, mm["structured"], mm["brute"],
                            mm.get("s", ""), mm["replay"]])
            for label, count in rep.mismatches_omitted.items():
                w.writerow(["omitted", cid, label, count, "", "", "", "", "", ""])
    else:
        _emit({"seed": args.seed,
               "campaigns": [_campaign_json(cid, rep) for cid, rep in reports]})
    return 0


def _campaign_json(cid: str, rep) -> dict:
    """A campaign's report; mismatches_omitted only where a field has some."""
    out = {"id": cid, "cases_total": rep.cases_total,
           "cases_agreeing": rep.cases_agreeing, "mismatches": rep.mismatches}
    if rep.mismatches_omitted:
        out["mismatches_omitted"] = rep.mismatches_omitted
    return out


# ---- parser wiring ---------------------------------------------------------

def _option(name: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that adds the one option name."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(name, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    field = _option("--field", help="field spec m:n[:0xMOD]")
    fmt = _option("--format", choices=("csv", "json"), default="json")
    max_n = _option("--max-n", type=int, default=0,
                    help=f"the size cap in bits, at most {DEFAULT_SIZE_CAP}: a "
                         "larger field is refused when it is built (0 keeps "
                         f"{DEFAULT_SIZE_CAP})")

    parser = argparse.ArgumentParser(
        prog="charperm",
        description="Character sums and permutation tests over GF(2^(m*n))")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *parents) -> argparse.ArgumentParser:
        # each subcommand takes only the options it reads, and names its handler
        p = sub.add_parser(name, parents=list(parents))
        p.set_defaults(run=run)
        return p

    command("field-info", _cmd_field_info, field, fmt, max_n)

    p = command("eval", _cmd_eval, field, max_n)
    p.add_argument("--op", required=True)
    p.add_argument("--elem")
    p.add_argument("--elems")
    p.add_argument("--exp", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--sub", type=int)
    p.add_argument("--args")

    p = command("charsum", _cmd_charsum, field, max_n)
    p.add_argument("--poly", required=True)
    p.add_argument("--method", choices=("brute", "fast"), default="fast")

    p = command("classify", _cmd_classify, field, max_n)
    p.add_argument("--poly", required=True)

    p = command("permtest", _cmd_permtest, field, max_n)
    p.add_argument("--form", choices=("monomials", "quadspec", "traceform",
                                       "family"), default="monomials")
    p.add_argument("--poly", required=True)
    p.add_argument("--method", choices=("brute", "charsum", "structured"),
                   default="brute")

    p = command("search", _cmd_search, field, fmt, max_n)
    p.add_argument("--template", required=True)
    p.add_argument("--params", help="fixed parameters, e.g. 'k=1;l=0'")
    p.add_argument("--coeffs", help="restrict scanned coefficients "
                                    "(comma-separated hex; empty for none)")

    p = command("verify", _cmd_verify, fmt, max_n)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--campaign", required=True,
                   help="campaign id or 'all'")
    p.add_argument("--fields", help="override field list, e.g. '1:2,2:2'")
    p.add_argument("--sample", type=int, default=None,
                   help="override the seeded sample budget")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if [] in vars(args).values():       # argparse reads --opt=-- as []
            raise ValueError("an option value cannot be '--'")
        if not 0 <= args.max_n <= DEFAULT_SIZE_CAP:
            raise ValueError(f"--max-n must lie in 0 .. {DEFAULT_SIZE_CAP}, "
                             f"got {args.max_n}")
        return args.run(args)
    except CharpermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
