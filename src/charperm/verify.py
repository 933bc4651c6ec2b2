"""Oracle-equivalence campaigns and coefficient-space searches.

A campaign is one SweepDef in SWEEPS.  Its grid is a list of units, each a
batch of parameters keyed by the names `charperm eval --args` uses, whose
values (scalars or arrays) broadcast against each other; a linearized
polynomial is a coefficient row, so it carries one extra last axis, and a
sparse polynomial (thm1) is its (coefficient, exponent) terms, two.  Its
verdicts map a batch to the structured verdict (a closed form from permtest
or charsum), the brute-force verdict and, where rows show it, the sum S.

A grid may also build tables once per field that many units read (thm6's
per-row conditions and value tables, thm_tr's adjoint tables and the value
tables of each part of its map), and give each unit its slices of them as
`tables`.  A batch without them (a replay, a search) gets them from its own
rows, by the same functions.

One runner counts every campaign's cases, compares the verdicts by the
campaign's agreement kind (exact match, or for a sufficient criterion: it
never claims a non-permutation) and formats mismatch rows with replay
strings.  `charperm eval --op check-<id>` re-runs the same verdicts on a
batch of one (replay_case).  Units are split across processes in grid order
and merged in that order, so reports are byte-identical for any --jobs.

A search (run_search) runs a template's campaign verdicts on the blocks of
_a_grid or _ab_grid over its coefficients: it lists each case whose brute
verdict is True, labelled by the campaigns whose structured verdict is.
"""

from __future__ import annotations

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
    bilinear_psi_closed,
    bilinear_psi_sum,
    s_bruteforce,
    s_fast,
    s_zero_binomial,
    s_zero_quadratic_ext,
)
from .errors import BadParameters, UnknownTheorem
from .field import DEFAULT_SIZE_CAP, FieldContext, build_context

FieldTriple = Tuple[int, int, Optional[int]]
BlockResult = Tuple[int, int, List[dict]]
Params = Dict[str, object]


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
    """One campaign.

    exact: the criterion is an equivalence, not only sufficient (see
    family_agreement).  keys: the parameters a mismatch row shows and a
    replay needs, in row order.  grid(ctx, seed, budget): the units; a
    unit may carry "tables", its slices of tables the grid builds once per
    field or block.  verdicts(ctx, params): (structured, brute, s) for one
    unit, broadcast over its batch, with the same function building the
    tables from the unit's parameters where it carries none; s is None
    where rows show no sum.
    """

    campaign_id: str
    summary: str
    default_fields: Tuple[Tuple[int, int], ...]
    default_budget: int
    exact: bool
    keys: Tuple[str, ...]
    grid: Callable[[FieldContext, int, int], List[Params]]
    verdicts: Callable[[FieldContext, Params], tuple]


def field_label(ctx: FieldContext) -> str:
    return f"{ctx.m}:{ctx.n}:0x{ctx.modulus:x}"


def family_agreement(exact: bool, structured, brute):
    """Did a case agree with the oracle?  Elementwise on arrays.

    Exact criteria must match the brute verdict.  A sufficient criterion
    fails only by calling a non-permutation a permutation: structured True
    where brute is False.
    """
    if exact:
        return np.equal(structured, brute)
    return np.logical_or(brute, np.logical_not(structured))


def gold_ks(n: int) -> Tuple[int, ...]:
    """Exponents k with 0 < 2k < n and gcd(k, n) = 1."""
    return tuple(k for k in range(1, (n + 1) // 2)
                 if 2 * k < n and math.gcd(k, n) == 1)


def coprime_ks(n: int) -> Tuple[int, ...]:
    """Exponents k with 0 < k < n and gcd(k, n) = 1."""
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


# ---- grid and verdict helpers ----------------------------------------------

# Built grids by (campaign, m, n, modulus, seed, budget); see _grid.
# run_verify empties it when its report is done, so a process holds the
# grids (and their tables) of one campaign at a time.
_tables: Dict[Tuple, List[Params]] = {}


# Value-table entries per unit where a grid cuts a batch into blocks (of at
# least one row), along one axis or, for thm6's pairs, two: about 1 MB per
# int64 tensor, which bounds sweep memory.
_CELLS = 1 << 17


def _blocks(count: int, size: int) -> List[slice]:
    size = max(size, 1)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _rng(seed: int, campaign_id: str, ctx: FieldContext, *extra) -> random.Random:
    return random.Random(":".join(map(str, (seed, campaign_id, field_label(ctx)) + extra)))


def _draws(rng: random.Random, ctx: FieldContext, count: int, width: int) -> np.ndarray:
    """count rows of width seeded elements, drawn row by row.

    The values, and the state rng is left in, are those of one
    rng.randrange(ctx.order) per element: randrange keeps the top
    order.bit_length() bits of one 32-bit Mersenne Twister word and draws
    again when they reach order, and getrandbits(32 * k) is k such words,
    least significant first.
    """
    need = count * width
    shift = 32 - ctx.order.bit_length()
    out = []
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"),
                              dtype="<u4")
        values = (words >> shift).astype(np.int64)
        values = values[values < ctx.order]
        out.append(values)
        need -= values.size
    return np.concatenate(out or [np.zeros(0, dtype=np.int64)]).reshape(count, width)


def _q_draws(rng: random.Random, ctx: FieldContext, count: int) -> np.ndarray:
    """count seeded q-linear polynomials (n draws each) as coefficient rows."""
    rows = np.zeros((count, ctx.bits), dtype=np.int64)
    rows[:, ::ctx.m] = _draws(rng, ctx, count, ctx.n)
    return rows


def _a_grid(ctx: FieldContext, values: Optional[np.ndarray] = None, **fixed) -> List[Params]:
    """Every coefficient a of values (by default every element), in blocks,
    with fixed parameters."""
    a = ctx.elements if values is None else values
    return [{"a": a[sl], **fixed} for sl in _blocks(a.size, _CELLS // ctx.order)]


def _ab_grid(ctx: FieldContext, values: Optional[np.ndarray] = None, **fixed) -> List[Params]:
    """Every pair (a, b) of values (by default every element), blocks of a
    against every b, with fixed parameters."""
    e = ctx.elements if values is None else values
    return [{"a": e[sl, None], "b": e, **fixed}
            for sl in _blocks(e.size, _CELLS // (ctx.order * max(e.size, 1)))]


# ---- S = 0 criteria for binomial quadratic forms ---------------------------

def _thm4_grid(ctx, seed, budget):
    pt._need_quad_ext(ctx)
    return _ab_grid(ctx)


def _thm4(ctx, p):
    structured = s_zero_quadratic_ext(ctx, p["a"], p["b"])
    s = s_bruteforce(ctx, lin.linearized_rows(ctx, [(ctx.m, p["a"]), (0, p["b"])]))
    return structured, s == 0, s


def _thm5(ctx, p):
    structured = s_zero_binomial(ctx, p["a"], p["b"], p["k"])
    s = s_bruteforce(ctx, lin.linearized_rows(ctx, [(ctx.m * p["k"], p["a"]),
                                                     (0, p["b"])]))
    return structured, s == 0, s


# ---- quadratic-extension criterion -----------------------------------------

def _support2(ctx: FieldContext) -> np.ndarray:
    """Rows of every 2-linear polynomial with at most two nonzero
    coefficients: zero, then one term by (index, coefficient), then two."""
    nz = np.arange(1, ctx.order)
    rows = [np.zeros((1, ctx.bits), dtype=np.int64)]
    rows += [lin.linearized_rows(ctx, [(i, nz)]) for i in range(ctx.bits)]
    rows += [lin.linearized_rows(ctx, [(i, nz[:, None]), (j, nz)])
             .reshape(-1, ctx.bits)
             for i in range(ctx.bits) for j in range(i + 1, ctx.bits)]
    return np.concatenate(rows)


def _thm6_tables(ctx: FieldContext, l0: np.ndarray, l1: np.ndarray) -> tuple:
    """What thm6's verdicts read of coefficient rows l0 and l1, per row of
    each: whether L1 vanishes on F_q and whether L0 vanishes only at 0 (see
    permtest._quad_ext_conditions), and the value tables of x -> L1(x^(q+1))
    and x -> L0(x^2), both in the narrowest unsigned dtype that holds an
    element.  The map L1(x^(q+1)) + L0(x^2) of a pair is the xor of its
    rows' tables, so a block of rows pairs with another at the cost of one
    xor per case."""
    v0, v1 = lin.evaluate_all(ctx, l0), lin.evaluate_all(ctx, l1)
    vanishes, injective = pt._quad_ext_conditions(ctx, v0, v1)
    dtype = np.min_scalar_type(ctx.order - 1)
    return (vanishes, injective, v1.astype(dtype)[..., ctx.monomial_vec(1, ctx.q + 1)],
            v0.astype(dtype)[..., ctx.frob_table(1)])


def _thm6_grid(ctx, seed, budget):
    # every L1 of support <= 2 against every such L0, in square blocks of
    # side rows of each, whose tables are built once per block of rows and
    # paired by slices; then seeded dense pairs, which hold about four
    # value tables per case, with tables per block
    pt._need_quad_ext(ctx)
    polys = _support2(ctx)
    blocks = _blocks(len(polys), math.isqrt(_CELLS // ctx.order))
    tables = [_thm6_tables(ctx, polys[sl], polys[sl]) for sl in blocks]
    units = [{"l0": polys[s0], "l1": polys[s1, None],
              "tables": (t1[0][:, None], t0[1], t1[2][:, None], t0[3])}
             for s1, t1 in zip(blocks, tables) for s0, t0 in zip(blocks, tables)]
    draws = _draws(_rng(seed, "thm6", ctx), ctx, budget, 2 * ctx.bits)
    for sl in _blocks(budget, _CELLS // (4 * ctx.order)):
        l0, l1 = draws[sl, :ctx.bits], draws[sl, ctx.bits:]
        units.append({"l0": l0, "l1": l1, "tables": _thm6_tables(ctx, l0, l1)})
    return units


def _thm6(ctx, p):
    # The one occupancy oracle not built from a term list (see
    # permtest.evaluate_poly_all): it xors the value tables of
    # L1(x^(q+1)) and L0(x^2) that _thm6_tables gives each row, where the
    # terms of a pair would cost bits lookups per case over about 2M cases.
    vanishes, injective, l1_q1, l0_sq = (p["tables"] if "tables" in p
                                         else _thm6_tables(ctx, p["l0"], p["l1"]))
    return vanishes & injective, pt._bijective_rows(l1_q1 ^ l0_sq), None


# ---- odd-degree x^(q^k+1) + L0(x^2) criterion ------------------------------

def _thm7_grid(ctx, seed, budget):
    # per k: every monomial a * x^(q^j), then seeded dense q-linear L0
    if ctx.n % 2 == 0:
        raise BadParameters(f"thm7 sweep needs odd n, got n={ctx.n}")
    units = []
    for k in gold_ks(ctx.n):
        units += [{"k": k, "l0": lin.linearized_rows(ctx, [(ctx.m * j, ctx.elements)])}
                  for j in range(ctx.n)]
        rows = _q_draws(_rng(seed, "thm7", ctx, k), ctx, budget)
        units += [{"k": k, "l0": rows[sl]} for sl in _blocks(budget, _CELLS // ctx.order)]
    return units


def _thm7(ctx, p):
    k, l0 = p["k"], p["l0"]
    structured = pt._gold_ok(ctx, k, lin.evaluate_blocks(ctx, lin.adjoint(ctx, l0)))
    values = pt.evaluate_poly_all(ctx, pt.gold_terms(ctx, k, lin.pairs(ctx, l0)))
    return structured, pt._bijective_rows(values), None


# ---- trace-form criterion --------------------------------------------------

_TRACEFORM_SHIFTS = (0, 1, 2)


def _adjoint_values(ctx: FieldContext, rows: np.ndarray) -> np.ndarray:
    """Value tables of the adjoints of coefficient rows, what thm_tr's
    structured side reads (see permtest._trace_form_ok)."""
    return lin.evaluate_all(ctx, lin.adjoint(ctx, rows))


def _traceform_values(ctx: FieldContext, l0, l1, shift: int) -> np.ndarray:
    """Values of the terms of L0(x^(2^shift)) + L1(x) * Tr(x) (see
    permtest.traceform_terms), L0 and L1 given by their pairs, in the
    narrowest unsigned dtype that holds an element.  The values of a map
    are the xor of its L0 part's and its L1 part's."""
    values = pt.evaluate_poly_all(ctx, pt.traceform_terms(ctx, l0, l1, shift))
    return values.astype(np.min_scalar_type(ctx.order - 1))


def _thm_tr_tables(ctx: FieldContext, l0: np.ndarray, l1: np.ndarray, shift: int) -> tuple:
    """What thm_tr's verdicts read of coefficient rows l0 and l1: the
    adjoint values of L1 and of L0, and the values of the L1 part and of
    the L0 part of the map.  The grid builds each at its own granularity."""
    return (_adjoint_values(ctx, l1), _adjoint_values(ctx, l0),
            _traceform_values(ctx, [], lin.pairs(ctx, l1), 0),
            _traceform_values(ctx, lin.pairs(ctx, l0), [], shift))


def _thm_tr_grid(ctx, seed, budget):
    # monomial parts a0 * x^(q^j0) and a1 * x^(q^j1): blocks of a0 against
    # every a1, each case an order-entry value table.  The tables of
    # _thm_tr_tables are built once per j1, once per j0 and a0 block, and
    # (the L0 part's values) once per shift, j0 and a0 block; every unit
    # that pairs them reads them
    e = ctx.elements
    blocks = _blocks(ctx.order, _CELLS // ctx.order ** 2)
    l1 = [lin.linearized_rows(ctx, [(ctx.m * j1, e)]) for j1 in range(ctx.n)]
    l0 = [[lin.linearized_rows(ctx, [(ctx.m * j0, e[sl, None])]) for sl in blocks]
          for j0 in range(ctx.n)]
    x_tabs = [_adjoint_values(ctx, rows) for rows in l1]
    y_tabs = [[_adjoint_values(ctx, rows) for rows in row] for row in l0]
    v1 = [_traceform_values(ctx, [], lin.pairs(ctx, rows), 0) for rows in l1]
    v0 = {(shift, j0, b): _traceform_values(ctx, lin.pairs(ctx, rows), [], shift)
          for shift in _TRACEFORM_SHIFTS for j0, row in enumerate(l0)
          for b, rows in enumerate(row)}
    return [{"l0": l0[j0][b], "l1": l1[j1], "shift": shift,
             "tables": (x_tabs[j1], y_tabs[j0][b], v1[j1], v0[shift, j0, b])}
            for shift in _TRACEFORM_SHIFTS
            for j0 in range(ctx.n) for j1 in range(ctx.n)
            for b in range(len(blocks))]


def _thm_tr(ctx, p):
    l0, l1, shift = p["l0"], p["l1"], p["shift"]
    if shift < 0 or not (lin._q_linear_rows(ctx, l0).all()
                         and lin._q_linear_rows(ctx, l1).all()):
        raise BadParameters("thm_tr needs q-linear L0 and L1 and shift >= 0")
    x_tab, y_tab, v1, v0 = (p["tables"] if "tables" in p
                            else _thm_tr_tables(ctx, l0, l1, shift))
    return pt._trace_form_ok(ctx, x_tab, y_tab, shift), pt._bijective_rows(v1 ^ v0), None


# ---- monomial-plus-trace corollary -----------------------------------------

_COROLLARY_SHIFTS = (0, 1, 2, 3)


def _corollary_grid(ctx, seed, budget):
    # every a for each k and shift l; the closed form needs n > 1
    if ctx.n == 1:
        raise BadParameters(f"corollary sweep needs n > 1, got n={ctx.n}")
    return [unit for k in range(ctx.n) for l in _COROLLARY_SHIFTS
            for unit in _a_grid(ctx, k=k, l=l)]


def _corollary(ctx, p):
    a, k, l = p["a"], p["k"], p["l"]
    structured = pt.perm_monomial_trace(ctx, a, k, l)
    values = pt.evaluate_poly_all(ctx, pt.monomial_trace_terms(ctx, a, k, l))
    return structured, pt._bijective_rows(values), None


# ---- bilinear character sum ------------------------------------------------

def _prop2(ctx, p):
    brute = bilinear_psi_sum(ctx, p["a"], p["b"])
    return bilinear_psi_closed(ctx, p["a"], p["b"]), brute, brute


# ---- fast vs brute character sums ------------------------------------------

def _prop3_grid(ctx, seed, budget):
    # a * x^(q^k) + b * x for every k, a and b, then seeded dense
    # polynomials: one stack of rows in that order, cut into blocks
    e = ctx.elements
    rows = [lin.linearized_rows(ctx, [(ctx.m * k, e[:, None]), (0, e)])
            .reshape(-1, ctx.bits) for k in (range(1, ctx.n) or [0])]
    rows = np.concatenate(rows + [_q_draws(_rng(seed, "prop3", ctx), ctx, budget)])
    return [{"poly": rows[sl]} for sl in _blocks(len(rows), _CELLS // ctx.order)]


def _prop3(ctx, p):
    brute = s_bruteforce(ctx, p["poly"])
    return s_fast(ctx, p["poly"]).s_value, brute, brute


# ---- character-sum permutation test vs occupancy ---------------------------

def _packed(polys: Sequence[pt.MonomialPoly]) -> np.ndarray:
    """Polynomials as one (len(polys), terms, 2) array of their
    (coefficient, exponent) terms, each padded to the longest (and to at
    least one term) with zero terms 0 * x^1."""
    out = np.zeros((len(polys), max([len(f.terms) for f in polys] + [1]), 2),
                   dtype=np.int64)
    out[..., 1] = 1
    for row, f in zip(out, polys):
        if f.terms:
            row[:len(f.terms)] = f.terms
    return out


def _thm1_grid(ctx, seed, budget):
    # every monomial x^e, then seeded trinomials, each folded: one stack of
    # their terms, in blocks
    rng, go = _rng(seed, "thm1", ctx), ctx.group_order
    samples = [[(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order + go))
                for _ in range(3)] for _ in range(budget)]
    terms = _packed([pt.monomial(ctx, f)
                     for f in [[(1, e)] for e in range(1, ctx.order)] + samples])
    return [{"monomials": terms[sl]} for sl in _blocks(len(terms), _CELLS // ctx.order)]


def _thm1(ctx, p):
    # one value table per polynomial of the stack: the xor of its terms
    terms = p["monomials"]
    values = np.bitwise_xor.reduce(
        ctx.monomial_vec(terms[..., 0, None], terms[..., 1, None]), axis=-2)
    return (~pt._charsum_failures(ctx, values).any(axis=-1),
            pt._bijective_rows(values), None)


# ---- named families --------------------------------------------------------

def _family_sweep(name: str, fields, grid) -> SweepDef:
    """A named family's campaign: family_predicate on a whole batch against
    the occupancy of the family's terms, the ones family_polynomial folds.
    The family's field check runs before grid builds a unit."""
    fam = pt.FAMILIES[name]

    def checked_grid(ctx, seed, budget):
        fam.check(ctx)
        return grid(ctx, seed, budget)

    def verdicts(ctx, p):
        structured = pt.family_predicate(ctx, name, p)
        brute = pt._bijective_rows(pt.evaluate_poly_all(ctx, fam.terms(ctx, p)))
        return structured, brute, None

    return SweepDef(f"family:{name}", fam.summary, fields, 0, fam.exact,
                    fam.params, checked_grid, verdicts)


SWEEPS: Dict[str, SweepDef] = {sweep.campaign_id: sweep for sweep in (
    SweepDef(
        "thm4", "zero test for S of a*x^q + b*x on quadratic extensions vs direct sums",
        ((1, 2), (2, 2), (3, 2)), 0, True, ("a", "b"),
        _thm4_grid, _thm4),
    SweepDef(
        "thm5", "zero test for S of a*x^(q^k) + b*x vs direct sums",
        ((1, 3), (1, 4), (1, 5), (2, 3)), 0, True, ("a", "b", "k"),
        lambda ctx, seed, budget: [unit for k in gold_ks(ctx.n)
                                   for unit in _ab_grid(ctx, k=k)],
        _thm5),
    SweepDef(
        "thm6", "n=2 permutation criterion for L1(x^(q+1)) + L0(x^2) vs occupancy",
        ((1, 2), (2, 2)), 10000, True, ("l0", "l1"), _thm6_grid, _thm6),
    SweepDef(
        "thm7", "odd-n permutation criterion for x^(q^k+1) + L0(x^2) vs occupancy",
        ((1, 3), (1, 5), (2, 3)), 1000, True, ("k", "l0"), _thm7_grid, _thm7),
    SweepDef(
        "thm_tr", "trace-form permutation criterion vs occupancy, monomial parts",
        ((1, 2), (1, 3), (2, 2), (2, 3)), 0, True, ("l0", "l1", "shift"),
        _thm_tr_grid, _thm_tr),
    SweepDef(
        "corollary", "closed form for a*x^(2^l*q^k) + x*Tr(x) vs occupancy",
        ((1, 3), (1, 5), (2, 3)), 0, True, ("a", "k", "l"),
        _corollary_grid, _corollary),
    SweepDef(
        "prop2", "bilinear character sum vs its closed form psi(ab)*q",
        ((1, 1), (2, 1), (3, 1)), 0, True, ("a", "b"),
        lambda ctx, seed, budget: [{"a": np.array(ctx.subfield_elements(ctx.m))[:, None],
                                    "b": np.array(ctx.subfield_elements(ctx.m))}],
        _prop2),
    SweepDef(
        "prop3", "kernel-criterion S values vs direct sums on q-linear polynomials",
        ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)), 1000, True, ("poly",),
        _prop3_grid, _prop3),
    SweepDef(
        "thm1", "character-sum permutation test vs occupancy on sparse polynomials",
        ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8)), 0, True,
        ("monomials",), _thm1_grid, _thm1),
    _family_sweep(
        "tu", ((1, 3), (2, 3), (3, 3)),
        lambda ctx, seed, budget: _a_grid(ctx)),
    _family_sweep(
        "abnorm", ((1, 3), (2, 3)),
        lambda ctx, seed, budget: _ab_grid(ctx)),
    _family_sweep(
        "q4", ((2, 3),),
        lambda ctx, seed, budget: [unit for v in ("binomial", "qk")
                                   for unit in _a_grid(ctx, variant=v)]),
    _family_sweep(
        "trform", ((1, 3), (2, 3)),
        lambda ctx, seed, budget: [unit for k in coprime_ks(ctx.n)
                                   for unit in _a_grid(ctx, ctx.elements[1:], k=k)]),
    _family_sweep(
        "aqk", ((1, 3), (2, 3), (2, 5)),
        lambda ctx, seed, budget: [unit for k in coprime_ks(ctx.n)
                                   for unit in _a_grid(ctx, ctx.elements[1:], k=k)]),
)}


# ---- the runner ------------------------------------------------------------

def _shown(ctx: FieldContext, key: str, value, shape, idx) -> str:
    """One case's parameter as a mismatch row and its replay string show it."""
    if key == "monomials":
        terms = np.broadcast_to(value, tuple(shape) + value.shape[-2:])[idx]
        return pt.format_monomial(pt.MonomialPoly(tuple((c, e) for c, e in terms.tolist() if c)))
    if key in ("l0", "l1", "poly"):
        row = np.broadcast_to(value, tuple(shape) + (ctx.bits,))[idx]
        return lin.format_linearized(lin.linearized(ctx, enumerate(row.tolist())))
    value = np.broadcast_to(value, shape)[idx].item()
    return f"{value:x}" if key in ("a", "b") else str(value)


def _verdict_fields(shape, idx, structured, brute, s) -> dict:
    """One case's structured, brute and (unless s is None) s."""
    named = {"structured": structured, "brute": brute, "s": s}
    return {k: np.broadcast_to(v, shape)[idx].item()
            for k, v in named.items() if v is not None}


def _grid(sweep: SweepDef, ctx: FieldContext, seed: int, budget: int) -> List[Params]:
    """The campaign's units on ctx, built once per run_verify call (and
    once per worker process): its unit count and its blocks share them."""
    key = (sweep.campaign_id, ctx.m, ctx.n, ctx.modulus, seed, budget)
    if key not in _tables:
        _tables[key] = sweep.grid(ctx, seed, budget)
    return _tables[key]


def replay_case(ctx: FieldContext, campaign_id: str,
                params: Mapping[str, object]) -> dict:
    """One case through its campaign's own verdicts, as a batch of one.

    params are parsed `--args` values (linearized polynomials as
    LinearizedPoly, sparse ones as MonomialPoly), which become the rows a
    grid's units hold.  Returns the row's structured, brute, s and agree.
    """
    sweep = SWEEPS[campaign_id]
    batch = {k: np.array(v.coeffs, dtype=np.int64) if isinstance(v, lin.LinearizedPoly)
             else _packed([v])[0] if isinstance(v, pt.MonomialPoly) else v
             for k, v in params.items()}
    structured, brute, s = sweep.verdicts(ctx, batch)
    out = _verdict_fields((), (), structured, brute, s)
    out["agree"] = bool(family_agreement(sweep.exact, structured, brute))
    return out


def normalize_field(entry) -> FieldTriple:
    parts = entry.split(":") if isinstance(entry, str) else list(entry)
    if len(parts) not in (2, 3):
        raise BadParameters(f"bad field spec {entry!r}")
    if isinstance(entry, str):
        parts = [int(parts[0]), int(parts[1])] + [int(p, 0) for p in parts[2:]]
    return parts[0], parts[1], parts[2] if len(parts) == 3 else None


@lru_cache(maxsize=None)
def _worker_context(m: int, n: int, modulus: Optional[int], size_cap: int) -> FieldContext:
    return build_context(m, n, modulus, size_cap=size_cap)


def _run_block(campaign_id: str, m: int, n: int, modulus: Optional[int],
               size_cap: int, seed: int, budget: int,
               lo: int, hi: int) -> BlockResult:
    """Count, compare and format units lo .. hi - 1 of one campaign field."""
    ctx = _worker_context(m, n, modulus, size_cap)
    sweep = SWEEPS[campaign_id]
    total = agree = 0
    rows: List[dict] = []
    for params in _grid(sweep, ctx, seed, budget)[lo:hi]:
        structured, brute, s = sweep.verdicts(ctx, params)
        ok = family_agreement(sweep.exact, structured, brute)
        bad = np.flatnonzero(~ok)
        total += ok.size
        agree += ok.size - bad.size
        for i in bad.tolist():
            idx = np.unravel_index(i, ok.shape)
            shown = {key: _shown(ctx, key, params[key], ok.shape, idx)
                     for key in sweep.keys}
            args = ";".join(f"{k}={v}" for k, v in shown.items())
            rows.append({"campaign": campaign_id, "field": field_label(ctx),
                         "params": shown,
                         **_verdict_fields(ok.shape, idx, structured, brute, s),
                         "replay": f"charperm eval --field {field_label(ctx)} "
                                   f"--op check-{campaign_id} --args {args}"})
    return total, agree, rows


def _pool_workers(jobs: int, tasks: int) -> int:
    """Worker processes for run_verify: the requested jobs, but never more
    than there are tasks or CPUs, and at least one."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def run_verify(campaign: VerifyCampaign, *, jobs: int = 1,
               size_cap: int = DEFAULT_SIZE_CAP) -> CampaignReport:
    """Run a campaign and report exact case counts and mismatches.

    Deterministic for a fixed campaign and seed regardless of jobs; the
    wall_time field is the only part that varies between runs.  A negative
    sample budget raises BadParameters.
    """
    sweep = SWEEPS.get(campaign.theorem_id)
    if sweep is None:
        raise UnknownTheorem(f"unknown campaign {campaign.theorem_id!r}")
    fields = campaign.field_ranges or sweep.default_fields
    budget = (campaign.sample_budget if campaign.sample_budget is not None
              else sweep.default_budget)
    if budget < 0:
        raise BadParameters(f"sample budget must be nonnegative, got {budget}")
    started = time.perf_counter()
    tasks = []
    for entry in fields:
        m, n, modulus = normalize_field(entry)
        ctx = _worker_context(m, n, modulus, size_cap)
        units = len(_grid(sweep, ctx, campaign.seed, budget))
        if units == 0:
            raise BadParameters(f"campaign {campaign.theorem_id} has no cases "
                                f"on field {field_label(ctx)}")
        chunks = min(max(jobs, 1), units)
        bounds = [(units * i // chunks, units * (i + 1) // chunks)
                  for i in range(chunks)]
        for lo, hi in bounds:
            tasks.append((campaign.theorem_id, ctx.m, ctx.n, ctx.modulus,
                          ctx.size_cap, campaign.seed, budget, lo, hi))
    workers = _pool_workers(jobs, len(tasks))
    if workers == 1:
        results = [_run_block(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, *t) for t in tasks]
            results = [f.result() for f in futures]
    _tables.clear()
    return CampaignReport(sum(r[0] for r in results), sum(r[1] for r in results),
                          [row for r in results for row in r[2]],
                          time.perf_counter() - started)


# ---- coefficient-space search ----------------------------------------------

@dataclass(frozen=True)
class SearchTemplate:
    """A polynomial shape scanned over one or two coefficient axes.

    verdicts(ctx, unit): ({campaign id: structured}, brute) for a unit of
    _a_grid (one axis) or _ab_grid (two) that holds the fixed parameters."""

    name: str
    axes: Tuple[str, ...]
    nonzero: bool
    fixed: Tuple[str, ...]
    verdicts: Callable[[FieldContext, Params], Tuple[Dict[str, object], object]]


def _campaign(campaign_id: str, params=lambda ctx, p: p):
    """A template's verdicts: its campaign's, on the parameters that params
    maps a unit to, the structured one labelled by the campaign id."""
    def verdicts(ctx, p):
        structured, brute, _ = SWEEPS[campaign_id].verdicts(ctx, params(ctx, p))
        return {campaign_id: structured}, brute
    return verdicts


def _traceform_params(ctx, p):
    """thm_tr's L0 = a*x^(q^j0), L1 = b*x^(q^j1) and shift l."""
    return {"l0": lin.linearized_rows(ctx, [(ctx.m * p["j0"], p["a"])]),
            "l1": lin.linearized_rows(ctx, [(ctx.m * p["j1"], p["b"])]),
            "shift": p["l"]}


def _binomial(ctx, p):
    """a*x^(q+1) + b*x^2: L1(x^(q+1)) + L0(x^2) with L1 = a*x and L0 = b*x,
    labelled thm6 by the n = 2 criterion, and on its a = 1 row, the map
    x^(q+1) + L0(x^2), thm7 by the odd-n criterion with k = 1."""
    a, b = p["a"], p["b"]
    l0 = lin.linearized_rows(ctx, [(0, b)])
    brute = pt._bijective_rows(pt.evaluate_poly_all(ctx, [(a, ctx.q + 1), (b, 2)]))
    labels = {}
    if ctx.n == 2:
        vanishes, injective = _thm6_tables(ctx, l0, lin.linearized_rows(ctx, [(0, a)]))[:2]
        labels["thm6"] = vanishes & injective
    if ctx.n % 2 and 1 in gold_ks(ctx.n):
        labels["thm7"] = (a == 1) & pt._gold_ok(
            ctx, 1, lin.evaluate_blocks(ctx, lin.adjoint(ctx, l0)))
    return labels, brute


TEMPLATES: Dict[str, SearchTemplate] = {
    "binomial": SearchTemplate("binomial", ("a", "b"), False, (), _binomial),
    "tu": SearchTemplate("tu", ("a",), False, (), _campaign("family:tu")),
    "abnorm": SearchTemplate("abnorm", ("a", "b"), False, (), _campaign("family:abnorm")),
    "q4": SearchTemplate("q4", ("a",), False, (), _campaign("family:q4")),
    "trform": SearchTemplate("trform", ("a",), True, ("k",), _campaign("family:trform")),
    "aqk": SearchTemplate("aqk", ("a",), True, ("k",), _campaign("family:aqk")),
    "traceform": SearchTemplate("traceform", ("a", "b"), False, ("j0", "j1", "l"),
                                _campaign("thm_tr", _traceform_params)),
}


def run_search(ctx: FieldContext, template: str,
               fixed_params: Optional[Mapping[str, int]] = None,
               coeff_values: Optional[Sequence[int]] = None) -> List[dict]:
    """Scan a template's coefficient space and return permutation rows.

    Each row lists the coefficients (hex), is_permutation (always true: only
    permutations are emitted) and which closed-form criteria certify it.
    Rows are ordered by coefficient encoding.  The field and the fixed
    parameters are checked before the scan, whatever coeff_values holds.
    """
    tpl = TEMPLATES.get(template)
    if tpl is None:
        raise UnknownTheorem(f"unknown search template {template!r}")
    fixed_params = dict(fixed_params or {})
    missing = [k for k in tpl.fixed if k not in fixed_params]
    if missing:
        raise BadParameters(f"template {template} needs parameters {missing}")
    grid = _a_grid if len(tpl.axes) == 1 else _ab_grid
    # the whole field's first case: refused like the scan, whatever coeff_values
    tpl.verdicts(ctx, grid(ctx, ctx.elements[int(tpl.nonzero):][:1], **fixed_params)[0])
    axis = ctx.elements if coeff_values is None else np.unique(np.array(coeff_values, np.int64))
    if tpl.nonzero:
        axis = axis[axis != 0]
    rows = []
    for unit in grid(ctx, axis, **fixed_params):
        labels, brute = tpl.verdicts(ctx, unit)
        coeffs = np.broadcast_arrays(*(unit[name] for name in tpl.axes))
        for idx in zip(*np.nonzero(brute)):
            row = {name: f"{c[idx]:x}" for name, c in zip(tpl.axes, coeffs)}
            row["is_permutation"] = True
            row["matched_criteria"] = "+".join(k for k, v in labels.items() if v[idx])
            rows.append(row)
    return rows
