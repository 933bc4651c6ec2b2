"""Command-line front end.

Subcommands: field-info, eval, charsum, classify, permtest, search, verify.
Field elements are lowercase hex on input and output; linearized polynomials
are comma-separated "index:hexcoeff" terms and plain polynomials are
"exponent:hexcoeff" terms.  Identical invocations produce byte-identical
stdout; timing goes to stderr.

Exit codes: 0 success, 1 mathematical failure (bad modulus, bad parameters,
division by zero), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Dict, List, Optional, Sequence

from . import linearized as lin
from . import permtest as pt
from .charsum import classify_form, s_bruteforce, s_fast
from .errors import BadParameters, CharpermError, UnknownTheorem
from .field import DEFAULT_SIZE_CAP, FieldContext, build_context
from .verify import (
    SWEEPS,
    TEMPLATES,
    VerifyCampaign,
    field_label,
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
        raise BadParameters("this subcommand needs --field m:n[:0xMOD]")
    parts = args.field.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad field spec {args.field!r}, expected m:n[:0xMOD]")
    m, n = int(parts[0]), int(parts[1])
    modulus = int(parts[2], 0) if len(parts) == 3 else None
    return build_context(m, n, modulus, size_cap=args.max_n or DEFAULT_SIZE_CAP)


def _emit(obj) -> None:
    print(json.dumps(obj))


# ---- argument blob parsing -------------------------------------------------

_ARG_KINDS = {
    "a": "elem", "b": "elem",
    "k": "int", "l": "int", "shift": "int", "j0": "int", "j1": "int",
    "l0": "lin", "l1": "lin", "poly": "lin",
    "monomials": "mono",
    "variant": "str",
}


def _parse_blob(ctx: FieldContext, blob: str,
                keys: Sequence[str]) -> Dict[str, object]:
    """Parse 'key=value' pairs separated by ';', typed by key name; keys
    are the ones the op reads, and any other key is a usage error."""
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
        kind = _ARG_KINDS[key]
        if kind == "elem":
            out[key] = _elem(ctx, value)
        elif kind == "int":
            out[key] = int(value, 10)
        elif kind == "lin":
            out[key] = lin.parse_linearized(ctx, value)
        elif kind == "mono":
            out[key] = pt.parse_monomial(ctx, value)
        else:
            out[key] = value
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
        sub = args.sub if args.sub else ctx.m
        fn = ctx.trace_to if op == "trace" else ctx.norm_to
        print(_hex(fn(_elem(ctx, args.elem), sub)))
    elif op == "chi":
        print(ctx.chi(_elem(ctx, args.elem)))
    elif op == "psi":
        print(ctx.psi(_elem(ctx, args.elem)))
    elif op == "charsum":
        poly = lin.parse_linearized(ctx, args.poly)
        print(s_bruteforce(ctx, poly))
    elif op == "classify":
        poly = lin.parse_linearized(ctx, args.poly)
        _emit(_classify_json(ctx, poly))
    elif op == "permtest":
        f = pt.parse_monomial(ctx, args.monomials)
        _emit(_report_json(pt.is_perm_bruteforce(ctx, f)))
    elif op.startswith("check-"):
        sweep = SWEEPS.get(op[len("check-"):])
        if sweep is None:
            raise ValueError(f"unknown check op {op!r}")
        params = _parse_blob(ctx, args.args or "", sweep.keys)
        missing = [k for k in sweep.keys if k not in params]
        if missing:
            raise ValueError(f"missing argument keys {missing}")
        _emit(replay_case(ctx, sweep.campaign_id, params))
    else:
        raise ValueError(f"unknown eval op {op!r}")
    return 0


def _classify_json(ctx, poly, extras: bool = True) -> dict:
    rep = classify_form(ctx, poly)
    out = {
        "s": rep.s_value,
        "kernel_dim_fq": rep.kernel_dim_fq,
        "vanishes": rep.vanishes_on_kernel,
        "type": rep.form_type,
    }
    if extras:
        out["rank"] = rep.rank
        out["sign_known"] = True      # classify_form always resolves the sign
    return out


def _cmd_charsum(args) -> int:
    ctx = _context_from(args)
    poly = lin.parse_linearized(ctx, args.poly)
    if args.method == "brute":
        out = {"s": s_bruteforce(ctx, poly), "kernel_dim_fq": None,
               "vanishes": None, "type": None}
    elif args.method == "fast":
        rep = s_fast(ctx, poly)
        out = {"s": rep.s_value, "kernel_dim_fq": rep.kernel_dim_fq,
               "vanishes": rep.vanishes_on_kernel, "type": rep.form_type}
    else:
        out = _classify_json(ctx, poly, extras=False)
    _emit(out)
    return 0


def _cmd_classify(args) -> int:
    ctx = _context_from(args)
    _emit(_classify_json(ctx, lin.parse_linearized(ctx, args.poly)))
    return 0


def _report_json(rep: pt.PermReport) -> dict:
    witness = rep.witness
    if isinstance(witness, tuple):
        witness = [_hex(witness[0]), _hex(witness[1])]
    elif witness is not None:
        witness = _hex(witness)
    return {"is_permutation": rep.is_permutation, "method": rep.method,
            "witness": witness}


def _cmd_permtest(args, parser) -> int:
    ctx = _context_from(args)
    form = args.form
    method = args.method
    if form == "monomials":
        f = pt.parse_monomial(ctx, args.poly)
        if method == "structured":
            parser.error("--method structured needs a structured form "
                         "(quadspec, traceform or family)")
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
    elif form == "family":
        name, _, rest = args.poly.partition(";")
        if name not in pt.FAMILIES:
            raise UnknownTheorem(f"unknown family {name!r}")
        params = _parse_blob(ctx, rest, pt.FAMILIES[name].params)
        if method == "structured":
            rep = pt.PermReport(pt.family_predicate(ctx, name, params),
                                "structured")
        else:
            f = pt.family_polynomial(ctx, name, params)
    else:
        raise ValueError(f"unknown form {form!r}")
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
    else:
        _emit({"seed": args.seed,
               "campaigns": [{"id": cid,
                              "cases_total": rep.cases_total,
                              "cases_agreeing": rep.cases_agreeing,
                              "mismatches": rep.mismatches}
                             for cid, rep in reports]})
    return 0


# ---- parser wiring ---------------------------------------------------------

def _option(name: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that adds the one option name."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(name, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads
    field = _option("--field", help="field spec m:n[:0xMOD]")
    fmt = _option("--format", choices=("csv", "json"), default="json")
    max_n = _option("--max-n", type=int, default=0,
                    help=f"the size cap in bits, at most {DEFAULT_SIZE_CAP}: a "
                         "larger field is refused when it is built (0 keeps "
                         f"{DEFAULT_SIZE_CAP})")
    one_field = [field, max_n]

    parser = argparse.ArgumentParser(
        prog="charperm",
        description="Character sums and permutation tests over GF(2^(m*n))")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("field-info", parents=[field, fmt, max_n])

    p = sub.add_parser("eval", parents=one_field)
    p.add_argument("--op", required=True)
    p.add_argument("--elem")
    p.add_argument("--elems")
    p.add_argument("--exp", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--sub", type=int)
    p.add_argument("--poly")
    p.add_argument("--monomials")
    p.add_argument("--args")

    p = sub.add_parser("charsum", parents=one_field)
    p.add_argument("--poly", required=True)
    p.add_argument("--method", choices=("brute", "fast", "classify"),
                   default="fast")

    p = sub.add_parser("classify", parents=one_field)
    p.add_argument("--poly", required=True)

    p = sub.add_parser("permtest", parents=one_field)
    p.add_argument("--form", choices=("monomials", "quadspec", "traceform",
                                       "family"), default="monomials")
    p.add_argument("--poly", required=True)
    p.add_argument("--method", choices=("brute", "charsum", "structured"),
                   default="brute")

    p = sub.add_parser("search", parents=[field, fmt, max_n])
    p.add_argument("--template", required=True)
    p.add_argument("--params", help="fixed parameters, e.g. 'k=1;l=0'")
    p.add_argument("--coeffs", help="restrict scanned coefficients "
                                    "(comma-separated hex; empty for none)")

    p = sub.add_parser("verify", parents=[fmt, max_n])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--campaign", required=True,
                   help="campaign id or 'all'")
    p.add_argument("--fields", help="override field list, e.g. '1:2,2:2'")
    p.add_argument("--sample", type=int, default=None,
                   help="override the seeded sample budget")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if [] in vars(args).values():       # argparse reads --opt=-- as []
            raise ValueError("an option value cannot be '--'")
        if not 0 <= args.max_n <= DEFAULT_SIZE_CAP:
            raise ValueError(f"--max-n must lie in 0 .. {DEFAULT_SIZE_CAP}, "
                             f"got {args.max_n}")
        if args.command == "field-info":
            return _cmd_field_info(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "charsum":
            return _cmd_charsum(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "permtest":
            return _cmd_permtest(args, parser)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "verify":
            return _cmd_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except CharpermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
