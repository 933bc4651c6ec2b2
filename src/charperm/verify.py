"""Oracle-equivalence campaigns and coefficient-space searches.

A campaign is one SweepDef in SWEEPS.  Its grid is a list of units, each a
batch of parameters keyed by the names of PARAM_KINDS, whose values
(scalars or arrays) broadcast against each other; a linearized polynomial
is a coefficient row, so it carries one extra last axis, and a sparse
polynomial (thm1) is its (coefficient, exponent) terms, two.

A unit is a block of its campaign's parameter space, in grid order: the
units' cases, each unit's in flat (C) order, one unit after another, are
the grid's cases in the order its mismatch rows list them.  A block holds
at most _CELLS value-table entries and at least one row.  corollary's
blocks cut its whole (k, l, a) space and thm7's the rows of each k; thm5,
thm_tr and the per-k or per-variant families cut per scalar parameter
first.

A campaign's verdicts map a batch to the structured verdict (a closed form
from permtest or charsum), the brute-force verdict and, where rows show it,
the sum S.

A grid may also build tables once per field that many units read (thm6's
per-row conditions and value tables, thm_tr's adjoint tables and the value
tables of each part of its map), and give each unit its slices of them as
`tables`.  A batch without them (a replay, a search) gets them from its own
rows, by the same functions.

One runner counts every campaign's cases, compares the verdicts by the
campaign's agreement kind (exact match, or for a sufficient criterion: it
never claims a non-permutation) and formats mismatch rows with replay
strings: the first MAX_ROWS per field in grid order, each parameter and
verdict of a unit gathered at once, and the rest only counted, exactly
(CampaignReport.mismatches_omitted).  `charperm eval --op check-<id>`
re-runs the same verdicts on a batch of one (replay_case).  Units are split
across processes in grid order, each part formatting at most MAX_ROWS rows
of its field, and merged in that order, keeping the first MAX_ROWS of each
field, so reports are byte-identical for any --jobs.  A campaign that runs
out of memory raises SizeGuard naming the campaign and the field.

A search (run_search) runs a template's campaign verdicts on the blocks of
_a_grid or _ab_grid over its coefficients: it lists each case whose brute
verdict is True, labelled by the campaigns whose structured verdict is.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import linearized as lin
from . import permtest as pt
from .charsum import (
    _need_quad_ext,
    bilinear_psi_closed,
    bilinear_psi_sum,
    gold_ks,        # re-exported: callers outside the library import it from here
    s_bruteforce,
    s_fast,
    s_zero_binomial,
    s_zero_quadratic_ext,
)
from .errors import BadParameters, SizeGuard, UnknownTheorem
from .field import DEFAULT_SIZE_CAP, FieldContext, build_context

FieldTriple = Tuple[int, int, Optional[int]]
BlockResult = Tuple[int, int, List[dict], int]
Params = Dict[str, object]

# The kind of each case parameter, by its name in units, rows and `--args`:
# an element, an integer, a linearized or a sparse polynomial, or a word.
PARAM_KINDS: Dict[str, str] = {
    "a": "elem", "b": "elem",
    "k": "int", "l": "int", "shift": "int", "j0": "int", "j1": "int",
    "l0": "lin", "l1": "lin", "poly": "lin",
    "monomials": "mono",
    "variant": "str",
}

# The largest sample budget run_verify takes: a grid holds its draws before
# the first verdict.  Every default budget is at most 10^4.
MAX_SAMPLE_BUDGET = 1 << 20


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
    """Exact case counts of a campaign, its first MAX_ROWS mismatch rows
    per field in grid order, and by field label the count of mismatching
    cases past them (only fields with some)."""

    cases_total: int
    cases_agreeing: int
    mismatches: List[dict]
    mismatches_omitted: Dict[str, int]
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


def coprime_ks(n: int) -> Tuple[int, ...]:
    """Exponents k with 0 < k < n and gcd(k, n) = 1."""
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


# ---- grid and verdict helpers ----------------------------------------------

# Built grids by (campaign, m, n, modulus, seed, budget); see _grid.
# run_verify empties it when its report is done or its campaign raises, so
# a process holds the grids (and their tables) of one campaign at a time.
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


def _monomial_rows(ctx: FieldContext) -> List[np.ndarray]:
    """For each j < n, the coefficient rows of a * x^(q^j) for every a."""
    return [lin.linearized_rows(ctx, [(ctx.m * j, ctx.elements)]) for j in range(ctx.n)]


# ---- S = 0 criteria for binomial quadratic forms ---------------------------

def _thm4_grid(ctx, seed, budget):
    _need_quad_ext(ctx)
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
    xor per case.  The same array for both (a grid's block of rows) is
    evaluated once."""
    v0 = lin.evaluate_all(ctx, l0)
    v1 = v0 if l1 is l0 else lin.evaluate_all(ctx, l1)
    vanishes, injective = pt._quad_ext_conditions(ctx, v0, v1)
    dtype = np.min_scalar_type(ctx.order - 1)
    return (vanishes, injective, v1.astype(dtype)[..., ctx.monomial_vec(1, ctx.q + 1)],
            v0.astype(dtype)[..., ctx.frob_table(1)])


def _thm6_grid(ctx, seed, budget):
    # every L1 of support <= 2 against every such L0, in square blocks of
    # side rows of each, whose tables are built once per block of rows and
    # paired by slices; then seeded dense pairs, which hold about four
    # value tables per case, with tables per block
    _need_quad_ext(ctx)
    polys = _support2(ctx)
    blocks = _blocks(len(polys), math.isqrt(_CELLS // ctx.order))
    tables = [_thm6_tables(ctx, rows, rows) for rows in (polys[sl] for sl in blocks)]
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
    # per k, each checked first by the criterion's own domain check (an even
    # n fails there): one stack of rows, every monomial a * x^(q^j) by j,
    # which every k shares, then seeded dense q-linear L0, cut into blocks
    ks = gold_ks(ctx.n)
    for k in ks:
        pt._need_gold(ctx, k)
    monomials = np.concatenate(_monomial_rows(ctx))
    units = []
    for k in ks:
        rows = np.concatenate([monomials, _q_draws(_rng(seed, "thm7", ctx, k), ctx, budget)])
        units += [{"k": k, "l0": rows[sl]} for sl in _blocks(len(rows), _CELLS // ctx.order)]
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
    the L0 part of the map."""
    return (_adjoint_values(ctx, l1), _adjoint_values(ctx, l0),
            _traceform_values(ctx, [], lin.pairs(ctx, l1), 0),
            _traceform_values(ctx, lin.pairs(ctx, l0), [], shift))


def _thm_tr_grid(ctx, seed, budget):
    # monomial parts a0 * x^(q^j0) and a1 * x^(q^j1): blocks of a0 against
    # every a1, each case an order-entry value table.  The rows of every
    # a * x^(q^j), their adjoint values and their L1 part's values are built
    # once per j, and their L0 part's values once per shift and j; a unit
    # reads them whole as L1 and a block of their rows as L0
    blocks = _blocks(ctx.order, _CELLS // ctx.order ** 2)
    rows = _monomial_rows(ctx)
    adj = [_adjoint_values(ctx, r) for r in rows]
    v1 = [_traceform_values(ctx, [], lin.pairs(ctx, r), 0) for r in rows]
    v0 = {(shift, j): _traceform_values(ctx, lin.pairs(ctx, r), [], shift)
          for shift in _TRACEFORM_SHIFTS for j, r in enumerate(rows)}
    return [{"l0": rows[j0][sl, None], "l1": rows[j1], "shift": shift,
             "tables": (adj[j1], adj[j0][sl, None], v1[j1], v0[shift, j0][sl, None])}
            for shift in _TRACEFORM_SHIFTS
            for j0 in range(ctx.n) for j1 in range(ctx.n)
            for sl in blocks]


def _thm_tr(ctx, p):
    l0, l1, shift = p["l0"], p["l1"], p["shift"]
    pt._need_trace_form(shift, lin._all_q_linear(ctx, l0) and lin._all_q_linear(ctx, l1))
    x_tab, y_tab, v1, v0 = (p["tables"] if "tables" in p
                            else _thm_tr_tables(ctx, l0, l1, shift))
    return pt._trace_form_ok(ctx, x_tab, y_tab, shift), pt._bijective_rows(v1 ^ v0), None


# ---- monomial-plus-trace corollary -----------------------------------------

_COROLLARY_SHIFTS = 4     # the shifts l = 0 .. 3


def _corollary_grid(ctx, seed, budget):
    # every (k, shift l, a), in that order, as one flat batch cut into
    # blocks; k, l and the element a are each their own index
    pt._need_monomial_trace(ctx)
    shape = (ctx.n, _COROLLARY_SHIFTS, ctx.order)
    k, l, a = np.unravel_index(np.arange(math.prod(shape)), shape)
    return [{"a": a[sl], "k": k[sl], "l": l[sl]}
            for sl in _blocks(a.size, _CELLS // ctx.order)]


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

# Mismatch rows formatted per (campaign, field), the first in grid order;
# the rest are counted exactly, as CampaignReport.mismatches_omitted.
MAX_ROWS = 1000


def _shown(ctx: FieldContext, key: str, value, shape, idx) -> list:
    """The cases at idx (index arrays into shape, as np.unravel_index gives
    them) of one parameter, as mismatch rows and replay strings show it: one
    gather, then one text per case."""
    kind = PARAM_KINDS[key]
    if kind == "mono":
        terms = np.broadcast_to(value, shape + value.shape[-2:])[idx].tolist()
        return [pt.format_monomial(pt.MonomialPoly(tuple((c, e) for c, e in t if c)))
                for t in terms]
    if kind == "lin":
        rows = np.broadcast_to(value, shape + (ctx.bits,))[idx].tolist()
        return [lin.format_linearized(lin.linearized(ctx, enumerate(row))) for row in rows]
    values = np.broadcast_to(value, shape)[idx].tolist()
    return [f"{v:x}" for v in values] if kind == "elem" else [str(v) for v in values]


def _verdict_fields(shape, idx, structured, brute, s) -> dict:
    """The structured, brute and (unless s is None) s of the cases at idx,
    one gather each: lists for index arrays, one value for idx ()."""
    named = {"structured": structured, "brute": brute, "s": s}
    return {k: np.broadcast_to(v, shape)[idx].tolist()
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
    """(m, n, modulus or None) of a field spec, the text m:n[:0xMOD] or a
    tuple (m, n) or (m, n, modulus).  A malformed spec raises ValueError."""
    parts = entry.split(":") if isinstance(entry, str) else list(entry)
    if len(parts) not in (2, 3):
        raise ValueError(f"bad field spec {entry!r}, expected m:n[:0xMOD]")
    if isinstance(entry, str):
        parts = [int(parts[0]), int(parts[1])] + [int(p, 0) for p in parts[2:]]
    return parts[0], parts[1], parts[2] if len(parts) == 3 else None


@lru_cache(maxsize=None)
def _worker_context(m: int, n: int, modulus: Optional[int], size_cap: int) -> FieldContext:
    """The context of a field spec as given (modulus None for the default).
    run_verify and _run_block look it up by the same spec, so a run builds
    one context per field, and the units a grid built on it read its tables;
    forked workers inherit it."""
    return build_context(m, n, modulus, size_cap=size_cap)


def _mismatch_rows(ctx: FieldContext, sweep: SweepDef, params: Params, ok: np.ndarray,
                   count: int, verdicts: tuple) -> List[dict]:
    """The first count mismatching cases of one unit, in grid order, as rows
    with replay strings: each parameter and verdict gathered at once, then
    the text of each case."""
    shape = ok.shape
    idx = np.unravel_index(np.flatnonzero(~ok)[:count], shape)
    shown = {key: _shown(ctx, key, params[key], shape, idx) for key in sweep.keys}
    fields = _verdict_fields(shape, idx, *verdicts)
    label = field_label(ctx)
    rows = []
    for i in range(count):
        case = {key: texts[i] for key, texts in shown.items()}
        args = ";".join(f"{k}={v}" for k, v in case.items())
        rows.append({"campaign": sweep.campaign_id, "field": label, "params": case,
                     **{k: v[i] for k, v in fields.items()},
                     "replay": f"charperm eval --field {label} "
                               f"--op check-{sweep.campaign_id} --args {args}"})
    return rows


def _run_block(campaign_id: str, m: int, n: int, modulus: Optional[int],
               size_cap: int, seed: int, budget: int,
               lo: int, hi: int) -> BlockResult:
    """Count and compare units lo .. hi - 1 of one campaign field, and
    format the first MAX_ROWS mismatches; the rest are only counted."""
    ctx = _worker_context(m, n, modulus, size_cap)
    sweep = SWEEPS[campaign_id]
    total = agree = omitted = 0
    rows: List[dict] = []
    for params in _grid(sweep, ctx, seed, budget)[lo:hi]:
        verdicts = sweep.verdicts(ctx, params)
        ok = family_agreement(sweep.exact, *verdicts[:2])
        good = int(np.count_nonzero(ok))
        total += ok.size
        agree += good
        count = min(ok.size - good, MAX_ROWS - len(rows))
        if count:
            rows += _mismatch_rows(ctx, sweep, params, ok, count, verdicts)
        omitted += ok.size - good - count
    return total, agree, rows, omitted


def _pool_workers(jobs: int, tasks: int) -> int:
    """Worker processes for run_verify: the requested jobs, but never more
    than there are tasks or CPUs, and at least one."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def run_verify(campaign: VerifyCampaign, *, jobs: int = 1,
               size_cap: int = DEFAULT_SIZE_CAP) -> CampaignReport:
    """Run a campaign and report exact case counts and its first MAX_ROWS
    mismatch rows per field, with the count of the rest.

    Deterministic for a fixed campaign and seed regardless of jobs; the
    wall_time field is the only part that varies between runs.  A negative
    sample budget raises BadParameters, and one above MAX_SAMPLE_BUDGET
    SizeGuard, before any grid is built.
    """
    sweep = SWEEPS.get(campaign.theorem_id)
    if sweep is None:
        raise UnknownTheorem(f"unknown campaign {campaign.theorem_id!r}")
    fields = campaign.field_ranges or sweep.default_fields
    budget = (campaign.sample_budget if campaign.sample_budget is not None
              else sweep.default_budget)
    if budget < 0:
        raise BadParameters(f"sample budget must be nonnegative, got {budget}")
    if budget > MAX_SAMPLE_BUDGET:
        raise SizeGuard(f"sample budget {budget} exceeds {MAX_SAMPLE_BUDGET}")
    started = time.perf_counter()
    label = ""
    try:
        tasks, labels = [], []
        for entry in fields:
            m, n, modulus = normalize_field(entry)
            label = f"{m}:{n}"
            ctx = _worker_context(m, n, modulus, size_cap)
            label = field_label(ctx)
            units = len(_grid(sweep, ctx, campaign.seed, budget))
            if units == 0:
                raise BadParameters(f"campaign {campaign.theorem_id} has no cases "
                                    f"on field {label}")
            chunks = min(max(jobs, 1), units)
            tasks += [(campaign.theorem_id, m, n, modulus, size_cap,
                       campaign.seed, budget, units * i // chunks, units * (i + 1) // chunks)
                      for i in range(chunks)]
            labels += [label] * chunks
        results = []
        workers = _pool_workers(jobs, len(tasks))
        if workers == 1:
            for label, task in zip(labels, tasks):
                results.append(_run_block(*task))
        else:
            # only a pool needs these modules, about 20 ms of imports
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_block, *t) for t in tasks]
                for label, future in zip(labels, futures):
                    results.append(future.result())
    except MemoryError as exc:
        raise SizeGuard(f"campaign {campaign.theorem_id} ran out of memory "
                        f"on field {label}") from exc
    finally:
        _tables.clear()
    # each task formatted at most MAX_ROWS rows of its field; keep the first
    # MAX_ROWS of each field in grid order and count the rest
    rows: List[dict] = []
    shown: Dict[str, int] = {}
    omitted: Dict[str, int] = {}
    for label, (_, _, block_rows, rest) in zip(labels, results):
        kept = block_rows[:MAX_ROWS - shown.get(label, 0)]
        rows += kept
        shown[label] = shown.get(label, 0) + len(kept)
        omitted[label] = omitted.get(label, 0) + rest + len(block_rows) - len(kept)
    return CampaignReport(sum(r[0] for r in results), sum(r[1] for r in results), rows,
                          {k: v for k, v in omitted.items() if v},
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
    """a*x^(q+1) + b*x^2, L1(x^(q+1)) + L0(x^2) with L1 = a*x, L0 = b*x: on
    n = 2 thm6's own verdicts, else occupancy, with its a = 1 row (the map
    x^(q+1) + L0(x^2)) labelled thm7 by the odd-n criterion with k = 1."""
    a, b = p["a"], p["b"]
    l0 = lin.linearized_rows(ctx, [(0, b)])
    if ctx.n == 2:
        structured, brute, _ = _thm6(ctx, {"l0": l0, "l1": lin.linearized_rows(ctx, [(0, a)])})
        return {"thm6": structured}, brute
    brute = pt._bijective_rows(pt.evaluate_poly_all(ctx, [(a, ctx.q + 1), (b, 2)]))
    labels = {}
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
