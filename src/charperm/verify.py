"""Oracle-equivalence campaigns and coefficient-space searches.

Each campaign sweeps a parameter grid, computes a structured verdict (a
closed-form predicate or fast character-sum route) and an independent
brute-force verdict for every case, and reports agreement.  For campaigns
whose printed condition is only sufficient, agreement means the condition
never claims a non-permutation; for equivalences it means exact match.

Grids are split into units along an outer axis so work can be partitioned
across processes; unit results are merged in index order, so reports are
byte-identical no matter how many jobs run.  Seeded sampling regenerates
the same case list in every partition layout.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import linearized as lin
from . import permtest as pt
from .charsum import (
    bilinear_psi_sum,
    s_bruteforce,
    s_fast,
    s_zero_binomial,
    s_zero_quadratic_ext,
)
from .errors import BadParameters, UnknownTheorem, WrongDegree
from .field import (
    DEFAULT_CHARSUM_CAP,
    DEFAULT_SIZE_CAP,
    FieldContext,
    build_context,
)

FieldTriple = Tuple[int, int, Optional[int]]
BlockResult = Tuple[int, int, List[dict]]


@dataclass(frozen=True)
class VerifyCampaign:
    """A named sweep over fields and parameters.

    field_ranges entries are (m, n) or (m, n, modulus); empty means the
    campaign's default field list.  sample_budget of None means the
    campaign's default; the budget applies per field (and per exponent
    parameter where the sweep has one).
    """

    theorem_id: str
    field_ranges: Tuple = ()
    sample_budget: Optional[int] = None
    seed: int = 0


@dataclass
class CampaignReport:
    cases_total: int
    cases_agreeing: int
    mismatches: List[dict]
    wall_time: float


@dataclass(frozen=True)
class SweepDef:
    campaign_id: str
    default_fields: Tuple[Tuple[int, int], ...]
    default_budget: int
    units: Callable[[FieldContext, int], int]
    run_units: Callable[[FieldContext, int, int, int, int], BlockResult]
    summary: str


def field_label(ctx: FieldContext) -> str:
    return f"{ctx.m}:{ctx.n}:0x{ctx.modulus:x}"


def _mismatch(campaign_id: str, ctx: FieldContext, params: Mapping[str, str],
              structured, brute, s: Optional[int] = None) -> dict:
    args = ";".join(f"{k}={v}" for k, v in params.items())
    row = {
        "campaign": campaign_id,
        "field": field_label(ctx),
        "params": dict(params),
        "structured": structured,
        "brute": brute,
    }
    if s is not None:
        row["s"] = int(s)
    row["replay"] = (f"charperm eval --field {field_label(ctx)} "
                     f"--op check-{campaign_id} --args {args}")
    return row


def _bij_rows(values: np.ndarray) -> np.ndarray:
    """Per-row bijectivity of (..., order) value tables via sorting."""
    order = values.shape[-1]
    s = np.sort(values, axis=-1)
    return np.all(s == np.arange(order, dtype=s.dtype), axis=-1)


def _rng(seed: int, campaign_id: str, ctx: FieldContext, extra: str = "") -> random.Random:
    tag = f"{seed}:{campaign_id}:{field_label(ctx)}"
    if extra:
        tag += f":{extra}"
    return random.Random(tag)


def gold_ks(n: int) -> Tuple[int, ...]:
    """Exponents k with 0 < 2k < n and gcd(k, n) = 1."""
    return tuple(k for k in range(1, (n + 1) // 2)
                 if 2 * k < n and math.gcd(k, n) == 1)


def coprime_ks(n: int) -> Tuple[int, ...]:
    """Exponents k with 0 < k < n and gcd(k, n) = 1."""
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


_tables: Dict[Tuple, dict] = {}


def _cache(ctx: FieldContext) -> dict:
    return _tables.setdefault((ctx.m, ctx.n, ctx.modulus), {})


def _bx2_table(ctx: FieldContext) -> np.ndarray:
    """Tensor T[b, v] = b * v^2."""
    c = _cache(ctx)
    if "bx2" not in c:
        c["bx2"] = ctx.mul_elementwise(ctx.elements[:, None],
                                        ctx.frob_table(1)[None, :])
    return c["bx2"]


def _x_trace_table(ctx: FieldContext) -> np.ndarray:
    """Vector t[v] = v * Tr(v)."""
    c = _cache(ctx)
    if "xtr" not in c:
        c["xtr"] = ctx.mul_elementwise(ctx.elements, ctx.trace_table(ctx.m))
    return c["xtr"]


# ---- S = 0 criteria for binomial quadratic forms ---------------------------

def _sums_against_bx2(ctx: FieldContext, fixed: np.ndarray) -> np.ndarray:
    """Character sums over v of chi(fixed[v] + b*v^2), one entry per b."""
    tensor = fixed[None, :] ^ _bx2_table(ctx)
    return ctx.chi_table[tensor].sum(axis=1, dtype=np.int64)


def _units_thm4(ctx: FieldContext, budget: int) -> int:
    return ctx.order


def _run_thm4(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    total = agree = 0
    mismatches = []
    for a in range(lo, hi):
        fixed = ctx.mul_vec(a, ctx.pow_vec(ctx.elements, ctx.q + 1))
        sums = _sums_against_bx2(ctx, fixed)
        brute_zero = sums == 0
        pred_a = ctx.frobenius(a, ctx.m) ^ a == 0
        for b in range(ctx.order):
            structured = pred_a and b != 0
            brute = bool(brute_zero[b])
            total += 1
            if structured == brute:
                agree += 1
            else:
                mismatches.append(_mismatch(
                    "thm4", ctx, {"a": f"{a:x}", "b": f"{b:x}"},
                    structured, brute, s=int(sums[b])))
    return total, agree, mismatches


def _units_thm5(ctx: FieldContext, budget: int) -> int:
    return len(gold_ks(ctx.n)) * ctx.order


def _run_thm5(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    ks = gold_ks(ctx.n)
    total = agree = 0
    mismatches = []
    for u in range(lo, hi):
        k = ks[u // ctx.order]
        a = u % ctx.order
        fixed = ctx.mul_vec(a, ctx.pow_vec(ctx.elements, (1 << (ctx.m * k)) + 1))
        sums = _sums_against_bx2(ctx, fixed)
        for b in range(ctx.order):
            structured = s_zero_binomial(ctx, a, b, k)
            brute = bool(sums[b] == 0)
            total += 1
            if structured == brute:
                agree += 1
            else:
                mismatches.append(_mismatch(
                    "thm5", ctx, {"a": f"{a:x}", "b": f"{b:x}", "k": str(k)},
                    structured, brute, s=int(sums[b])))
    return total, agree, mismatches


# ---- quadratic-extension criterion -----------------------------------------

def _support2_polys(ctx: FieldContext) -> Tuple[List[Tuple[Tuple[int, int], ...]], np.ndarray]:
    """All 2-linear polynomials with at most two nonzero coefficients.

    Returns (pair list, value table); pairs are ((index, coeff), ...) and
    row p of the table is the value map of poly p.
    """
    c = _cache(ctx)
    if "support2" not in c:
        polys: List[Tuple[Tuple[int, int], ...]] = [()]
        for i in range(ctx.bits):
            for a in range(1, ctx.order):
                polys.append(((i, a),))
        for i in range(ctx.bits):
            for j in range(i + 1, ctx.bits):
                for a in range(1, ctx.order):
                    for b in range(1, ctx.order):
                        polys.append(((i, a), (j, b)))
        table = np.zeros((len(polys), ctx.order), dtype=np.int64)
        for p, pairs in enumerate(polys):
            row = np.zeros(ctx.order, dtype=np.int64)
            for i, a in pairs:
                row ^= ctx.mul_vec(a, ctx.frob_table(i))
            table[p] = row
        c["support2"] = (polys, table)
    return c["support2"]


def _thm6_tables(ctx: FieldContext):
    c = _cache(ctx)
    if "thm6" not in c:
        polys, table = _support2_polys(ctx)
        tq1 = ctx.mul_elementwise(ctx.frob_table(ctx.m), ctx.elements)
        img = np.unique(ctx.frob_table(ctx.m) ^ ctx.elements)
        l1_ok = np.all(table[:, img] == 0, axis=1)
        l0_ok = np.count_nonzero(table, axis=1) == ctx.order - 1
        table_sq = table[:, ctx.frob_table(1)]
        c["thm6"] = (polys, table, tq1, l1_ok, l0_ok, table_sq)
    return c["thm6"]


def _pair_text(pairs: Sequence[Tuple[int, int]]) -> str:
    return ",".join(f"{i}:{a:x}" for i, a in pairs)


def _units_thm6(ctx: FieldContext, budget: int) -> int:
    if ctx.n != 2:
        raise WrongDegree(f"thm6 sweep needs n = 2, got n={ctx.n}")
    polys, _ = _support2_polys(ctx)
    return len(polys) + budget


def _thm6_samples(ctx: FieldContext, seed: int, budget: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    rng = _rng(seed, "thm6", ctx)
    return [(tuple(rng.randrange(ctx.order) for _ in range(ctx.bits)),
             tuple(rng.randrange(ctx.order) for _ in range(ctx.bits)))
            for _ in range(budget)]


def _run_thm6(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    polys, table, tq1, l1_ok, l0_ok, table_sq = _thm6_tables(ctx)
    exhaustive = len(polys)
    total = agree = 0
    mismatches = []
    samples = None
    for u in range(lo, hi):
        if u < exhaustive:
            # one row of the (L1, L0) grid: this L1 against every L0
            vals = table[u][tq1][None, :] ^ table_sq
            brute = _bij_rows(vals)
            structured = l1_ok[u] & l0_ok
            total += structured.size
            bad = np.nonzero(structured != brute)[0]
            agree += structured.size - bad.size
            for j in bad:
                mismatches.append(_mismatch(
                    "thm6", ctx,
                    {"l0": _pair_text(polys[j]), "l1": _pair_text(polys[u])},
                    bool(structured[j]), bool(brute[j])))
        else:
            if samples is None:
                samples = _thm6_samples(ctx, seed, budget)
            c0, c1 = samples[u - exhaustive]
            l0 = lin.linearized(ctx, list(enumerate(c0)))
            l1 = lin.linearized(ctx, list(enumerate(c1)))
            structured_s = pt.perm_quad_ext(ctx, l0, l1)
            v0 = lin.evaluate_all(ctx, l0)
            v1 = lin.evaluate_all(ctx, l1)
            brute_s = bool(_bij_rows(v1[tq1] ^ v0[ctx.frob_table(1)]))
            total += 1
            if structured_s == brute_s:
                agree += 1
            else:
                mismatches.append(_mismatch(
                    "thm6", ctx,
                    {"l0": lin.format_linearized(l0),
                     "l1": lin.format_linearized(l1)},
                    structured_s, brute_s))
    return total, agree, mismatches


# ---- odd-degree x^(q^k+1) + L0(x^2) criterion ------------------------------

def _units_thm7(ctx: FieldContext, budget: int) -> int:
    if ctx.n % 2 == 0:
        raise BadParameters(f"thm7 sweep needs odd n, got n={ctx.n}")
    return len(gold_ks(ctx.n)) * (ctx.n + budget)


def _thm7_samples(ctx: FieldContext, seed: int, budget: int, k: int) -> List[Tuple[int, ...]]:
    rng = _rng(seed, "thm7", ctx, extra=str(k))
    return [tuple(rng.randrange(ctx.order) for _ in range(ctx.n))
            for _ in range(budget)]


def _run_thm7(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    ks = gold_ks(ctx.n)
    per_k = ctx.n + budget
    trm = ctx.trace_table(ctx.m)
    total = agree = 0
    mismatches = []
    sample_lists: Dict[int, List[Tuple[int, ...]]] = {}
    for u in range(lo, hi):
        k = ks[u // per_k]
        slot = u % per_k
        e_gold = (1 << (ctx.m * k)) + 1
        base = ctx.pow_vec(ctx.elements, e_gold)
        if slot < ctx.n:
            # all monomial parts a * x^(q^slot) at once
            j = slot
            s = (-ctx.m * j) % ctx.bits
            # row a is the adjoint of a*x^(q^j): conj(a) * u^(2^s)
            adj_all = ctx.mul_elementwise(ctx.frob_table(s)[:, None],
                                          ctx.frob_table(s)[None, :])
            nz = ctx.elements[1:]
            t = adj_all[:, base[1:]]
            prod = ctx.mul_elementwise(t, ctx.pow_vec(nz, -2)[None, :])
            structured = np.all(trm[prod] != 1, axis=1)
            vals = (base[None, :]
                    ^ ctx.mul_elementwise(ctx.elements[:, None],
                                          ctx.frob_table((ctx.m * j + 1) % ctx.bits)[None, :]))
            brute = _bij_rows(vals)
            total += ctx.order
            bad = np.nonzero(structured != brute)[0]
            agree += ctx.order - bad.size
            for a in bad:
                mismatches.append(_mismatch(
                    "thm7", ctx,
                    {"k": str(k), "l0": _pair_text(((ctx.m * j, int(a)),))},
                    bool(structured[a]), bool(brute[a])))
        else:
            if k not in sample_lists:
                sample_lists[k] = _thm7_samples(ctx, seed, budget, k)
            coeffs = sample_lists[k][slot - ctx.n]
            l0 = lin.q_linearized(ctx, list(enumerate(coeffs)))
            structured_s = pt.perm_gold_linearized(ctx, k, l0)
            vals_s = base ^ lin.evaluate_all(ctx, l0)[ctx.frob_table(1)]
            brute_s = bool(_bij_rows(vals_s))
            total += 1
            if structured_s == brute_s:
                agree += 1
            else:
                mismatches.append(_mismatch(
                    "thm7", ctx,
                    {"k": str(k), "l0": lin.format_linearized(l0)},
                    structured_s, brute_s))
    return total, agree, mismatches


# ---- trace-form criterion --------------------------------------------------

_TRACEFORM_SHIFTS = (0, 1, 2)


def _units_thm_tr(ctx: FieldContext, budget: int) -> int:
    return len(_TRACEFORM_SHIFTS) * ctx.n * ctx.n


def _run_thm_tr(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    in_fq = ctx.subfield_mask(ctx.m)
    trm = ctx.trace_table(ctx.m)
    total = agree = 0
    mismatches = []
    for u in range(lo, hi):
        l = _TRACEFORM_SHIFTS[u // (ctx.n * ctx.n)]
        j0 = (u // ctx.n) % ctx.n
        j1 = u % ctx.n
        s0 = (-ctx.m * j0) % ctx.bits
        s1 = (-ctx.m * j1) % ctx.bits
        # adjoint value tables for every coefficient at once: row a is
        # the map u -> conj(a) * u^(2^s)
        y_tab = ctx.mul_elementwise(ctx.frob_table(s0)[:, None],
                                    ctx.frob_table(s0)[None, :])
        x_tab = ctx.mul_elementwise(ctx.frob_table(s1)[:, None],
                                    ctx.frob_table(s1)[None, :])
        xl = ctx.frob_table(l)[x_tab]
        sq_y = ctx.frob_table(1)[y_tab]
        branch1 = in_fq[x_tab][None, :, :] & ((sq_y[:, None, :] ^ xl[None, :, :]) != 0)
        dep = np.zeros((ctx.order, ctx.order, ctx.order), dtype=bool)
        for cc in ctx.subfield_elements(ctx.m):
            dep |= in_fq[y_tab[:, None, :] ^ ctx.mul_vec(cc, xl)[None, :, :]]
        dep |= in_fq[xl][None, :, :]
        structured = np.all((branch1 | ~dep)[:, :, 1:], axis=2)

        part0 = ctx.mul_elementwise(
            ctx.elements[:, None],
            ctx.frob_table((ctx.m * j0 + l) % ctx.bits)[None, :])
        t1 = ctx.mul_elementwise(ctx.frob_table(ctx.m * j1), trm)
        part1 = ctx.mul_elementwise(ctx.elements[:, None], t1[None, :])
        brute = _bij_rows(part0[:, None, :] ^ part1[None, :, :])

        total += structured.size
        bad = np.argwhere(structured != brute)
        agree += structured.size - len(bad)
        for a0, a1 in bad:
            mismatches.append(_mismatch(
                "thm_tr", ctx,
                {"l0": _pair_text(((ctx.m * j0, int(a0)),)),
                 "l1": _pair_text(((ctx.m * j1, int(a1)),)),
                 "shift": str(l)},
                bool(structured[a0, a1]), bool(brute[a0, a1])))
    return total, agree, mismatches


# ---- monomial-plus-trace corollary -----------------------------------------

_COROLLARY_SHIFTS = (0, 1, 2, 3)


def _units_corollary(ctx: FieldContext, budget: int) -> int:
    return ctx.n * len(_COROLLARY_SHIFTS)


def _run_corollary(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    xtr = _x_trace_table(ctx)
    total = agree = 0
    mismatches = []
    for u in range(lo, hi):
        k = u // len(_COROLLARY_SHIFTS)
        l = _COROLLARY_SHIFTS[u % len(_COROLLARY_SHIFTS)]
        vals = (ctx.mul_elementwise(
            ctx.elements[:, None],
            ctx.frob_table((l + ctx.m * k) % ctx.bits)[None, :])
            ^ xtr[None, :])
        brute = _bij_rows(vals)
        for a in range(ctx.order):
            structured = pt.perm_monomial_trace(ctx, a, k, l)
            total += 1
            if structured == bool(brute[a]):
                agree += 1
            else:
                mismatches.append(_mismatch(
                    "corollary", ctx,
                    {"a": f"{a:x}", "k": str(k), "l": str(l)},
                    structured, bool(brute[a])))
    return total, agree, mismatches


# ---- bilinear character sum ------------------------------------------------

def _units_prop2(ctx: FieldContext, budget: int) -> int:
    return len(ctx.subfield_elements(ctx.m))


def _run_prop2(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    sub = ctx.subfield_elements(ctx.m)
    total = agree = 0
    mismatches = []
    for u in range(lo, hi):
        a = sub[u]
        for b in sub:
            brute = bilinear_psi_sum(ctx, a, b)
            structured = ctx.psi(ctx.mul(a, b)) * ctx.q
            total += 1
            if brute == structured:
                agree += 1
            else:
                mismatches.append(_mismatch(
                    "prop2", ctx, {"a": f"{a:x}", "b": f"{b:x}"},
                    structured, brute, s=brute))
    return total, agree, mismatches


# ---- fast vs brute character sums ------------------------------------------

def _units_prop3(ctx: FieldContext, budget: int) -> int:
    return max(ctx.n - 1, 1) * ctx.order + budget


def _prop3_samples(ctx: FieldContext, seed: int, budget: int) -> List[Tuple[int, ...]]:
    rng = _rng(seed, "prop3", ctx)
    return [tuple(rng.randrange(ctx.order) for _ in range(ctx.n))
            for _ in range(budget)]


def _prop3_case(ctx: FieldContext, poly: lin.LinearizedPoly) -> Tuple[int, int]:
    rep = s_fast(ctx, poly)
    brute = s_bruteforce(ctx, poly)
    return rep.s_value, brute


def _run_prop3(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    ks = list(range(1, ctx.n)) or [0]
    exhaustive = len(ks) * ctx.order
    total = agree = 0
    mismatches = []
    samples = None
    for u in range(lo, hi):
        if u < exhaustive:
            k = ks[u // ctx.order]
            a = u % ctx.order
            for b in range(ctx.order):
                poly = lin.q_linearized(ctx, [(k, a), (0, b)])
                fast, brute = _prop3_case(ctx, poly)
                total += 1
                if fast == brute:
                    agree += 1
                else:
                    mismatches.append(_mismatch(
                        "prop3", ctx,
                        {"poly": lin.format_linearized(poly)},
                        fast, brute, s=brute))
        else:
            if samples is None:
                samples = _prop3_samples(ctx, seed, budget)
            coeffs = samples[u - exhaustive]
            poly = lin.q_linearized(ctx, list(enumerate(coeffs)))
            fast, brute = _prop3_case(ctx, poly)
            total += 1
            if fast == brute:
                agree += 1
            else:
                mismatches.append(_mismatch(
                    "prop3", ctx,
                    {"poly": lin.format_linearized(poly)},
                    fast, brute, s=brute))
    return total, agree, mismatches


# ---- character-sum permutation test vs occupancy ---------------------------

def _units_thm1(ctx: FieldContext, budget: int) -> int:
    return ctx.group_order + budget


def _thm1_samples(ctx: FieldContext, seed: int, budget: int) -> List[Tuple[Tuple[int, int], ...]]:
    rng = _rng(seed, "thm1", ctx)
    out = []
    for _ in range(budget):
        out.append(tuple((rng.randrange(1, ctx.order),
                          rng.randrange(1, ctx.order + ctx.group_order))
                         for _ in range(3)))
    return out


def _run_thm1(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    total = agree = 0
    mismatches = []
    samples = None
    for u in range(lo, hi):
        if u < ctx.group_order:
            f = pt.monomial(ctx, [(1, u + 1)])
        else:
            if samples is None:
                samples = _thm1_samples(ctx, seed, budget)
            f = pt.monomial(ctx, samples[u - ctx.group_order])
        by_charsum = pt.is_perm_charsum(ctx, f).is_permutation
        by_brute = pt.is_perm_bruteforce(ctx, f).is_permutation
        total += 1
        if by_charsum == by_brute:
            agree += 1
        else:
            mismatches.append(_mismatch(
                "thm1", ctx, {"monomials": pt.format_monomial(f)},
                by_charsum, by_brute))
    return total, agree, mismatches


# ---- named families --------------------------------------------------------

def family_agreement(exact: bool, structured: bool, brute: bool) -> bool:
    """Did a family case agree with the oracle?

    Exact families must match the brute verdict; sufficient-only families
    fail only by claiming a non-permutation.
    """
    if exact:
        return structured == brute
    return brute or not structured


def _run_family_cases(ctx: FieldContext, name: str,
                      cases: Sequence[Mapping[str, int]],
                      brute_flags: Sequence[bool]) -> BlockResult:
    fam = pt.FAMILIES[name]
    total = agree = 0
    mismatches = []
    for params, brute in zip(cases, brute_flags):
        structured = fam.predicate(ctx, params)
        total += 1
        if family_agreement(fam.exact, structured, bool(brute)):
            agree += 1
        else:
            shown = {k: (f"{v:x}" if k in ("a", "b") else str(v))
                     for k, v in params.items()}
            mismatches.append(_mismatch(
                f"family:{name}", ctx, shown, structured, bool(brute)))
    return total, agree, mismatches


def _units_tu(ctx: FieldContext, budget: int) -> int:
    return ctx.order


def _run_tu(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    c = _cache(ctx)
    if "tu_base" not in c:
        q = ctx.q
        c["tu_base"] = (ctx.pow_vec(ctx.elements, q * q + 1)
                        ^ ctx.pow_vec(ctx.elements, q + 1))
    base = c["tu_base"]
    cases = [{"a": a} for a in range(lo, hi)]
    brute = [bool(_bij_rows(base ^ ctx.mul_vec(a, ctx.elements)))
             for a in range(lo, hi)]
    return _run_family_cases(ctx, "tu", cases, brute)


def _units_abnorm(ctx: FieldContext, budget: int) -> int:
    return ctx.order


def _run_abnorm(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    c = _cache(ctx)
    if "abnorm" not in c:
        q = ctx.q
        base = ctx.pow_vec(ctx.elements, q + 1)
        x2q = ctx.frob_table((ctx.m + 1) % ctx.bits)
        c["abnorm"] = (base, x2q)
    base, x2q = c["abnorm"]
    bx2 = _bx2_table(ctx)
    total = agree = 0
    mismatches = []
    for a in range(lo, hi):
        vals = (base ^ ctx.mul_vec(a, x2q))[None, :] ^ bx2
        brute = _bij_rows(vals)
        cases = [{"a": a, "b": b} for b in range(ctx.order)]
        t, g, mm = _run_family_cases(ctx, "abnorm", cases, brute)
        total += t
        agree += g
        mismatches.extend(mm)
    return total, agree, mismatches


_Q4_VARIANTS = ("binomial", "qk")


def _units_q4(ctx: FieldContext, budget: int) -> int:
    return len(_Q4_VARIANTS) * ctx.order


def _run_q4(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    total = agree = 0
    mismatches = []
    for u in range(lo, hi):
        variant = _Q4_VARIANTS[u // ctx.order]
        a = u % ctx.order
        params = {"a": a, "variant": variant}
        f = pt.family_polynomial(ctx, "q4", params)
        brute = bool(_bij_rows(pt.evaluate_poly_all(ctx, f)))
        t, g, mm = _run_family_cases(ctx, "q4", [params], [brute])
        total += t
        agree += g
        mismatches.extend(mm)
    return total, agree, mismatches


def _units_trform(ctx: FieldContext, budget: int) -> int:
    return len(coprime_ks(ctx.n)) * (ctx.order - 1)


def _run_trform(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    ks = coprime_ks(ctx.n)
    span = ctx.order - 1
    total = agree = 0
    mismatches = []
    for u in range(lo, hi):
        k = ks[u // span]
        a = 1 + u % span
        params = {"a": a, "k": k}
        f = pt.family_polynomial(ctx, "trform", params)
        brute = bool(_bij_rows(pt.evaluate_poly_all(ctx, f)))
        t, g, mm = _run_family_cases(ctx, "trform", [params], [brute])
        total += t
        agree += g
        mismatches.extend(mm)
    return total, agree, mismatches


def _units_aqk(ctx: FieldContext, budget: int) -> int:
    return len(coprime_ks(ctx.n)) * (ctx.order - 1)


def _run_aqk(ctx: FieldContext, seed: int, budget: int, lo: int, hi: int) -> BlockResult:
    ks = coprime_ks(ctx.n)
    span = ctx.order - 1
    xtr = _x_trace_table(ctx)
    total = agree = 0
    mismatches = []
    for u in range(lo, hi):
        k = ks[u // span]
        a = 1 + u % span
        tk = ctx.frob_table(ctx.m * k) ^ ctx.elements
        brute = bool(_bij_rows(ctx.mul_vec(a, tk) ^ xtr))
        t, g, mm = _run_family_cases(ctx, "aqk", [{"a": a, "k": k}], [brute])
        total += t
        agree += g
        mismatches.extend(mm)
    return total, agree, mismatches


SWEEPS: Dict[str, SweepDef] = {
    "thm4": SweepDef(
        "thm4", ((1, 2), (2, 2), (3, 2)), 0, _units_thm4, _run_thm4,
        "zero test for S of a*x^q + b*x on quadratic extensions vs direct sums"),
    "thm5": SweepDef(
        "thm5", ((1, 3), (1, 4), (1, 5), (2, 3)), 0, _units_thm5, _run_thm5,
        "zero test for S of a*x^(q^k) + b*x vs direct sums"),
    "thm6": SweepDef(
        "thm6", ((1, 2), (2, 2)), 10000, _units_thm6, _run_thm6,
        "n=2 permutation criterion for L1(x^(q+1)) + L0(x^2) vs occupancy"),
    "thm7": SweepDef(
        "thm7", ((1, 3), (1, 5), (2, 3)), 1000, _units_thm7, _run_thm7,
        "odd-n permutation criterion for x^(q^k+1) + L0(x^2) vs occupancy"),
    "thm_tr": SweepDef(
        "thm_tr", ((1, 2), (1, 3), (2, 2), (2, 3)), 0, _units_thm_tr, _run_thm_tr,
        "trace-form permutation criterion vs occupancy, monomial parts"),
    "corollary": SweepDef(
        "corollary", ((1, 3), (1, 5), (2, 3)), 0, _units_corollary, _run_corollary,
        "closed form for a*x^(2^l*q^k) + x*Tr(x) vs occupancy"),
    "prop2": SweepDef(
        "prop2", ((1, 1), (2, 1), (3, 1)), 0, _units_prop2, _run_prop2,
        "bilinear character sum vs its closed form psi(ab)*q"),
    "prop3": SweepDef(
        "prop3", ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)), 1000,
        _units_prop3, _run_prop3,
        "kernel-criterion S values vs direct sums on q-linear polynomials"),
    "thm1": SweepDef(
        "thm1", ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8)), 0,
        _units_thm1, _run_thm1,
        "character-sum permutation test vs occupancy on sparse polynomials"),
    "family:tu": SweepDef(
        "family:tu", ((1, 3), (2, 3), (3, 3)), 0, _units_tu, _run_tu,
        "x^(q^2+1) + x^(q+1) + a*x sufficiency sweep"),
    "family:abnorm": SweepDef(
        "family:abnorm", ((1, 3), (2, 3)), 0, _units_abnorm, _run_abnorm,
        "x^(q+1) + a*x^(2q) + b*x^2 norm-condition equivalence sweep"),
    "family:q4": SweepDef(
        "family:q4", ((2, 3),), 0, _units_q4, _run_q4,
        "F_4-tower binomial sufficiency sweep"),
    "family:trform": SweepDef(
        "family:trform", ((1, 3), (2, 3)), 0, _units_trform, _run_trform,
        "(a*x)^(q^(n-k)) + a*x + x*Tr(x) equivalence sweep"),
    "family:aqk": SweepDef(
        "family:aqk", ((1, 3), (2, 3), (2, 5)), 0, _units_aqk, _run_aqk,
        "a*x^(q^k) + a*x + x*Tr(x) equivalence sweep"),
}


def normalize_field(entry) -> FieldTriple:
    if isinstance(entry, str):
        parts = entry.split(":")
        if len(parts) == 2:
            return int(parts[0]), int(parts[1]), None
        if len(parts) == 3:
            return int(parts[0]), int(parts[1]), int(parts[2], 0)
        raise BadParameters(f"bad field spec {entry!r}")
    entry = tuple(entry)
    if len(entry) == 2:
        return entry[0], entry[1], None
    if len(entry) == 3:
        return entry
    raise BadParameters(f"bad field spec {entry!r}")


@lru_cache(maxsize=None)
def _worker_context(m: int, n: int, modulus: Optional[int],
                    size_cap: int, charsum_cap: int) -> FieldContext:
    return build_context(m, n, modulus, size_cap=size_cap, charsum_cap=charsum_cap)


def _run_block(campaign_id: str, m: int, n: int, modulus: Optional[int],
               size_cap: int, charsum_cap: int, seed: int, budget: int,
               lo: int, hi: int) -> BlockResult:
    ctx = _worker_context(m, n, modulus, size_cap, charsum_cap)
    return SWEEPS[campaign_id].run_units(ctx, seed, budget, lo, hi)


def _pool_workers(jobs: int, tasks: int) -> int:
    """Worker processes for run_verify: the requested jobs, but never more
    than there are tasks or CPUs, and at least one."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def run_verify(campaign: VerifyCampaign, *, jobs: int = 1,
               size_cap: Optional[int] = None,
               charsum_cap: Optional[int] = None) -> CampaignReport:
    """Run a campaign and report exact case counts and mismatches.

    Deterministic for a fixed campaign and seed regardless of jobs; the
    wall_time field is the only part that varies between runs.
    """
    sweep = SWEEPS.get(campaign.theorem_id)
    if sweep is None:
        raise UnknownTheorem(f"unknown campaign {campaign.theorem_id!r}")
    fields = campaign.field_ranges or sweep.default_fields
    budget = (campaign.sample_budget if campaign.sample_budget is not None
              else sweep.default_budget)
    started = time.perf_counter()
    total = agree = 0
    mismatches: List[dict] = []
    tasks = []
    for entry in fields:
        m, n, modulus = normalize_field(entry)
        ctx = _worker_context(m, n, modulus,
                              size_cap if size_cap is not None else DEFAULT_SIZE_CAP,
                              charsum_cap if charsum_cap is not None else DEFAULT_CHARSUM_CAP)
        units = sweep.units(ctx, budget)
        if units == 0:
            continue
        chunks = min(max(jobs, 1), units)
        bounds = [(units * i // chunks, units * (i + 1) // chunks)
                  for i in range(chunks)]
        for lo, hi in bounds:
            tasks.append((campaign.theorem_id, ctx.m, ctx.n, ctx.modulus,
                          ctx.size_cap, ctx.charsum_cap,
                          campaign.seed, budget, lo, hi))
    workers = _pool_workers(jobs, len(tasks))
    if workers == 1:
        results = [_run_block(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, *t) for t in tasks]
            results = [f.result() for f in futures]
    for t, g, mm in results:
        total += t
        agree += g
        mismatches.extend(mm)
    return CampaignReport(total, agree, mismatches,
                          time.perf_counter() - started)


# ---- coefficient-space search ----------------------------------------------

@dataclass(frozen=True)
class SearchTemplate:
    """A polynomial shape scanned over one or two coefficient axes."""

    name: str
    axes: Tuple[str, ...]
    nonzero: bool
    fixed: Tuple[str, ...]
    build: Callable[[FieldContext, Mapping[str, int]], pt.MonomialPoly]
    criteria: Callable[[FieldContext, Mapping[str, int]], List[str]]


def _binomial_build(ctx, params):
    return pt.monomial(ctx, [(params["a"], ctx.q + 1), (params["b"], 2)])


def _binomial_criteria(ctx, params):
    out = []
    a, b = params["a"], params["b"]
    if ctx.n == 2:
        l0 = lin.linearized(ctx, [(0, b)])
        l1 = lin.linearized(ctx, [(0, a)])
        if pt.perm_quad_ext(ctx, l0, l1):
            out.append("thm6")
    if a == 1 and gold_ks(ctx.n):
        if 1 in gold_ks(ctx.n) and pt.perm_gold_linearized(
                ctx, 1, lin.linearized(ctx, [(0, b)])):
            out.append("thm7")
    return out


def _family_template(name: str, axes, nonzero=False, fixed=()):
    def build(ctx, params):
        return pt.family_polynomial(ctx, name, params)

    def criteria(ctx, params):
        return [f"family:{name}"] if pt.family_predicate(ctx, name, params) else []

    return SearchTemplate(name, tuple(axes), nonzero, tuple(fixed), build, criteria)


def _traceform_build(ctx, params):
    l0 = lin.q_linearized(ctx, [(params["j0"], params["a"])])
    l1 = lin.q_linearized(ctx, [(params["j1"], params["b"])])
    spec = pt.trace_form_spec(ctx, l0, l1, params["l"])
    return pt.expand_traceform(ctx, spec)


def _traceform_criteria(ctx, params):
    l0 = lin.q_linearized(ctx, [(params["j0"], params["a"])])
    l1 = lin.q_linearized(ctx, [(params["j1"], params["b"])])
    spec = pt.trace_form_spec(ctx, l0, l1, params["l"])
    return ["thm_tr"] if pt.perm_trace_form(ctx, spec) else []


TEMPLATES: Dict[str, SearchTemplate] = {
    "binomial": SearchTemplate("binomial", ("a", "b"), False, (),
                               _binomial_build, _binomial_criteria),
    "tu": _family_template("tu", ("a",)),
    "abnorm": _family_template("abnorm", ("a", "b")),
    "q4": _family_template("q4", ("a",)),
    "trform": _family_template("trform", ("a",), nonzero=True, fixed=("k",)),
    "aqk": _family_template("aqk", ("a",), nonzero=True, fixed=("k",)),
    "traceform": SearchTemplate("traceform", ("a", "b"), False,
                                ("j0", "j1", "l"),
                                _traceform_build, _traceform_criteria),
}


def run_search(ctx: FieldContext, template: str,
               fixed_params: Optional[Mapping[str, int]] = None,
               coeff_values: Optional[Sequence[int]] = None) -> List[dict]:
    """Scan a template's coefficient space and return permutation rows.

    Each row lists the coefficients (hex), is_permutation (always true: only
    permutations are emitted) and which closed-form criteria certify it.
    Rows are ordered by coefficient encoding.
    """
    tpl = TEMPLATES.get(template)
    if tpl is None:
        raise UnknownTheorem(f"unknown search template {template!r}")
    fixed_params = dict(fixed_params or {})
    missing = [k for k in tpl.fixed if k not in fixed_params]
    if missing:
        raise BadParameters(f"template {template} needs parameters {missing}")
    if coeff_values is None:
        start = 1 if tpl.nonzero else 0
        axis = range(start, ctx.order)
    else:
        axis = sorted(set(coeff_values))
        if tpl.nonzero:
            axis = [v for v in axis if v != 0]
    rows = []
    grids = [axis] * len(tpl.axes)
    for combo in itertools.product(*grids):
        params = dict(fixed_params)
        params.update(zip(tpl.axes, combo))
        f = tpl.build(ctx, params)
        if not bool(_bij_rows(pt.evaluate_poly_all(ctx, f))):
            continue
        certified = []
        try:
            certified = tpl.criteria(ctx, params)
        except (BadParameters, WrongDegree):
            certified = []
        row = {name: f"{params[name]:x}" for name in tpl.axes}
        row["is_permutation"] = True
        row["matched_criteria"] = "+".join(certified)
        rows.append(row)
    return rows
