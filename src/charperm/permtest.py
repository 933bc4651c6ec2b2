"""Permutation tests over GF(2^(m*n)).

Three independent routes decide whether a polynomial map permutes the field:
occupancy of the full value table, vanishing of every nontrivial character
sum (all shifts at once via a Walsh-Hadamard transform), and closed-form
criteria for maps assembled from 2-linear or q-linear parts and the relative
trace.  The closed-form tests never fall back to brute force; agreement
between routes is asserted in the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import elementwise as ew
from . import linearized as lin
from .charsum import s_fast
from .errors import BadParameters, InvariantViolation, NotQLinear, UnknownTheorem, WrongDegree
from .field import FieldContext, walsh_hadamard

Witness = Union[int, Tuple[int, int]]


# ---- sparse polynomials ----------------------------------------------------

@dataclass(frozen=True)
class MonomialPoly:
    """Sum of coeff * x^exp terms, exponents folded into 1..2^bits-1.

    Terms are (coeff, exp) pairs sorted by exponent.  Constant terms are not
    representable; every map here fixes 0 anyway.
    """

    terms: Tuple[Tuple[int, int], ...]

    def is_zero(self) -> bool:
        return not self.terms


def monomial(ctx: FieldContext, terms: Iterable[Tuple[int, int]]) -> MonomialPoly:
    """Build a MonomialPoly from (coeff, exponent) pairs.

    Exponents are reduced by x^(2^bits) = x on every element: e maps to
    ((e-1) mod (2^bits-1)) + 1.  Duplicate exponents merge by xor; zero
    coefficients drop out.
    """
    folded: Dict[int, int] = {}
    for c, e in terms:
        if e <= 0:
            raise BadParameters(f"exponent {e} must be positive")
        if not 0 <= c < ctx.order:
            raise ValueError(f"coefficient 0x{c:x} is not a {ctx.bits}-bit element")
        if ctx.group_order > 1:
            e = (e - 1) % ctx.group_order + 1
        else:
            e = 1
        folded[e] = folded.get(e, 0) ^ c
    kept = sorted((e, c) for e, c in folded.items() if c)
    return MonomialPoly(tuple((c, e) for e, c in kept))


def parse_monomial(ctx: FieldContext, text: str) -> MonomialPoly:
    """Parse 'exp:hexcoeff' terms, comma separated.  '' is the zero polynomial."""
    terms = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            exp_s, coeff_s = part.split(":")
            e = int(exp_s, 10)
            c = int(coeff_s, 16)
        except ValueError as exc:
            raise ValueError(f"bad monomial term {part!r}") from exc
        terms.append((c, e))
    return monomial(ctx, terms)


def format_monomial(poly: MonomialPoly) -> str:
    return ",".join(f"{e}:{c:x}" for c, e in poly.terms)


# ---- permutation reports ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class PermReport:
    """Outcome of a permutation test.

    witness is a colliding input pair for the occupancy route and the first
    shift u (by integer encoding) with a nonzero character sum otherwise;
    it is present only when is_permutation is false.
    """

    is_permutation: bool
    method: str
    witness: Optional[Witness] = None


def _bijective_rows(values: np.ndarray) -> np.ndarray:
    """Whether each last-axis row of values permutes 0 .. size - 1, where
    size is the row length.

    Rows of at most 64 entries: the OR of 1 << v over a row is 2^size - 1
    exactly when its size entries cover 0 .. size - 1.  The shifts are made
    in the narrowest unsigned dtype of at least size bits, or in uint64 if
    an entry lies outside 0 .. size - 1 (it could wrap into range in a
    narrower one).  Longer rows are sorted and compared with 0 .. size - 1,
    which holds for any entries, negative or past size.
    """
    size = values.shape[-1]
    if size <= 64:
        in_range = not values.size or 0 <= values.min() <= values.max() < size
        dt = np.dtype(f"uint{max(8, 1 << (size - 1).bit_length()) if in_range else 64}")
        seen = np.left_shift(dt.type(1), values, dtype=dt, casting="unsafe")
        return np.bitwise_or.reduce(seen, axis=-1) == dt.type((1 << size) - 1)
    return (np.sort(values, axis=-1) == np.arange(size)).all(axis=-1)


# The occupancy scan reads the prefixes _FIRST_BLOCK, 4 * _FIRST_BLOCK, ...
# of the inputs, one block of new inputs each, while a prefix is at most
# 1 / _PREFIX_SHARE of the field; the next block is then the rest.  A map
# that does not permute repeats a value early (a random map within about
# sqrt(order) inputs), and a prefix costs a sort of its own size, so only a
# permutation, or a repeat past the share, pays for the whole field.
_FIRST_BLOCK = 1024
_PREFIX_SHARE = 64


def _first_repeat(prefix: np.ndarray) -> Optional[Tuple[int, int]]:
    """(v1, v2) for the first input v2 of prefix that repeats a value and
    the first input v1 with that value, or None if prefix has no repeat.
    A sort of the values tells whether there is a repeat (so on a whole
    table of elements, None means a permutation); a sort of value * size +
    input then puts equal values next to each other, their inputs
    ascending, so v2 is the least input that follows an equal value."""
    ordered = np.sort(prefix)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    size = prefix.size
    keys = prefix.astype(np.int64) * size + np.arange(size)
    keys.sort()
    again = keys[1:] // size == keys[:-1] // size
    v2 = int((keys[1:][again] % size).min())
    return int(np.argmax(prefix == prefix[v2])), v2


def _occupancy(ctx: FieldContext, values: Callable[[slice], np.ndarray],
               method: str) -> PermReport:
    """The occupancy test of a map given by its block evaluator: values(block)
    are its values on the inputs of block, a slice of element order, each
    input asked for once.  Each growing prefix (see _PREFIX_SHARE) is
    searched for a repeat by _first_repeat; the last prefix is the whole
    table, whose order entries are elements, so no repeat there means a
    permutation.  Witness = first collision (v1, v2): v2 is the least input
    that repeats an earlier value, so the first prefix that holds it gives
    the same pair as the whole table."""
    blocks, lo, hi = [], 0, _FIRST_BLOCK
    while True:
        if hi > ctx.order // _PREFIX_SHARE:
            hi = ctx.order
        blocks.append(values(slice(lo, hi)))
        witness = _first_repeat(np.concatenate(blocks))
        if witness is not None or hi == ctx.order:
            return PermReport(witness is None, method, witness)
        lo, hi = hi, 4 * hi


def report_from_values(ctx: FieldContext, values: np.ndarray) -> PermReport:
    """Occupancy check of a full value table, by the scan of _occupancy
    over its prefixes; witness = first collision (v1, v2): v2 is the first
    input to repeat a value, v1 the first with it.  An entry outside
    0 .. order - 1 is not an element and raises BadParameters."""
    values = np.asarray(values)
    if values.ndim != 1 or values.size != ctx.order:
        raise BadParameters(
            f"value table has shape {values.shape}, expected ({ctx.order},)")
    if not 0 <= values.min() <= values.max() < ctx.order:
        raise BadParameters(f"value table has entries outside 0..{ctx.order - 1}")
    return _occupancy(ctx, values.__getitem__, "bruteforce")


def _values_in(ctx: FieldContext, f) -> Callable[[slice], np.ndarray]:
    """Block evaluator of f: values(block) are the values of f on the
    inputs of block, a slice of element order.  f is a LinearizedPoly, a
    MonomialPoly or a list of (c, e) terms c * x^e, each c an element or an
    array of them (a batch: the coefficients broadcast against each other,
    and the values carry their shape before the input axis).  The 2-linear
    part (a LinearizedPoly, or the terms c * x^(2^j)) is one table per
    coefficient shape, built by linearity only as far as the blocks read
    (see linearized.evaluate_blocks), so that a batch of one shape does not
    widen to the product of all of them before the values do; each other
    term is one exp_table lookup over the block (see
    FieldContext.monomial_vec)."""
    if isinstance(f, lin.LinearizedPoly):
        tables, powers = [lin.evaluate_blocks(ctx, f)], []
    else:
        linear: Dict[tuple, list] = {}
        powers = []
        for c, e in f.terms if isinstance(f, MonomialPoly) else f:
            batch = not isinstance(c, int)
            if e & (e - 1):
                powers.append((np.asarray(c)[..., None] if batch else c, e))
            else:
                linear.setdefault(np.shape(c) if batch else (), []).append(
                    (e.bit_length() - 1, c))
        groups = [pairs for shape, pairs in linear.items() if shape] or [[]]
        groups[0] += linear.get((), [])     # scalar terms ride along with a batch
        tables = [lin.evaluate_blocks(ctx, lin.linearized_rows(ctx, pairs))
                  for pairs in groups if pairs]

    def values(block: slice) -> np.ndarray:
        acc = None
        for c, e in powers:
            term = ctx.monomial_vec(c, e, block)
            acc = term if acc is None else _xor(acc, term)
        for table in tables:
            acc = table(block) if acc is None else _xor(acc, table(block))
        return acc if acc is not None else np.zeros_like(ctx.log_table[block])
    return values


def _xor(acc: np.ndarray, part: np.ndarray) -> np.ndarray:
    """acc ^ part, written into acc when acc is a fresh term (never a view
    of a table) that already has the shape of the sum."""
    own = acc.flags.owndata and np.broadcast(acc, part).shape == acc.shape
    return np.bitwise_xor(acc, part, out=acc if own else None)


def evaluate_poly_all(ctx: FieldContext, f) -> np.ndarray:
    """Value table of f (see _values_in) on every field element, in element
    order along the last axis: _values_in on the whole field."""
    return _values_in(ctx, f)(slice(None))


def is_perm_bruteforce(ctx: FieldContext, f) -> PermReport:
    """Ground truth: evaluate f and check that its image is everything.

    Accepts a MonomialPoly or a LinearizedPoly.  Its inputs are evaluated
    block by block, and the scan stops at the first prefix of the inputs
    that repeats a value (see _occupancy): only a permutation, or a map
    whose first repeat comes late, is evaluated on the whole field.  Same
    report and witness as report_from_values on the whole value table.
    """
    return _occupancy(ctx, _values_in(ctx, f), "bruteforce")


def is_perm_charsum(ctx: FieldContext, f) -> PermReport:
    """Character-sum permutation test.

    f permutes the field iff sum_v chi(u*f(v)) = 0 for every u != 0; the
    sums come from _charsum_failures on f's value table, a batch of one.
    Witness = the first shift u (by integer encoding) with a nonzero sum.
    It runs on every field a context admits (see size_cap): a first call
    on the map x took about 2.6 ms on 4:4, 79 ms on 4:5 and 2.1 s on 4:6
    (peak RSS 865 MB), on a 2-core machine with numpy 2.4.
    """
    bad = _charsum_failures(ctx, evaluate_poly_all(ctx, f))
    if not bad.any():
        return PermReport(True, "charsum")
    return PermReport(False, "charsum", int(np.argmax(bad)))


def _charsum_failures(ctx: FieldContext, values: np.ndarray) -> np.ndarray:
    """Per row of values (..., order), the value tables of maps f (their
    entries elements), which shifts u != 0 have sum_v chi(u*f(v)) != 0.

    One histogram of values per row, by a bincount of the rows offset by
    order each, is Walsh-Hadamard transformed along its last axis, and the
    sum for shift u is the spectrum entry at the functional index of u
    under the trace pairing.  O(N log N) per row for a field of N elements,
    and no cap but the context's own size_cap.
    """
    rows = values.reshape(-1, ctx.order)
    offsets = ctx.order * np.arange(len(rows))[:, None]
    hist = np.bincount((rows + offsets).ravel(), minlength=rows.size).reshape(rows.shape)
    bad = (walsh_hadamard(hist) != 0)[:, ctx.chi_index_table]
    bad[:, 0] = False  # u = 0 always sums to the field order
    return bad.reshape(values.shape)


# ---- quadratic family: f(x) = sum_i L_i(x^(q^i+1)) -------------------------

@dataclass(frozen=True)
class QuadFamilySpec:
    """Map x -> sum over i of L_i(x^(q^i+1)) with 2-linear parts L_i.

    parts has exactly n entries; entry i multiplies the power x^(q^i+1).
    """

    parts: Tuple[lin.LinearizedPoly, ...]


def quad_family(ctx: FieldContext,
                parts: Union[Mapping[int, lin.LinearizedPoly],
                             Sequence[lin.LinearizedPoly]]) -> QuadFamilySpec:
    """Normalize parts (sequence of n polys, or index -> poly) to a spec."""
    if isinstance(parts, Mapping):
        filled = [lin.zero(ctx)] * ctx.n
        for i, p in parts.items():
            if not 0 <= i < ctx.n:
                raise BadParameters(f"part index {i} outside 0..{ctx.n - 1}")
            filled[i] = p
        parts = filled
    parts = tuple(parts)
    if len(parts) != ctx.n:
        raise BadParameters(f"expected {ctx.n} parts, got {len(parts)}")
    for p in parts:
        if len(p.coeffs) != ctx.bits:
            raise BadParameters("part does not match this field")
    return QuadFamilySpec(parts)


def expand_quadspec(ctx: FieldContext, spec: QuadFamilySpec) -> MonomialPoly:
    """spec as a plain polynomial: L_i contributes c_j * x^(2^j*(q^i+1))."""
    terms = []
    for i, part in enumerate(spec.parts):
        base = (1 << (ctx.m * i)) + 1
        for j in part.support():
            terms.append((part.coeffs[j], (1 << j) * base))
    return monomial(ctx, terms)


# Shifts per s_fast call in is_perm_quadspec: the first block, doubling up
# to the largest.  A failing shift is usually small, and a one-row stack
# costs about as much as 64 rows (about 0.1 ms against 0.15 ms at 12 and 16
# bits on a 2-core machine, 1024 rows about 0.6-0.7 ms); blocks past 1024
# rows scan no faster but hold larger temporaries.
_FIRST_SHIFTS = 64
_MAX_SHIFTS = 1024


def is_perm_quadspec(ctx: FieldContext, spec: QuadFamilySpec) -> PermReport:
    """Decide permutation status via the reduction to quadratic-form sums.

    For each shift u != 0 the character sum of u*f equals S of a q-linear
    polynomial with coefficients adjoint(L_i)(u); f permutes the field iff
    that S vanishes for every such u.  The polynomials of consecutive
    shifts go to s_fast in blocks, one stack each, and the scan stops at
    the first block with a nonzero S.  Witness = first u with S != 0.
    """
    adj_tables = [lin.evaluate_all(ctx, lin.adjoint(ctx, part))
                  for part in spec.parts]
    lo, size = 1, _FIRST_SHIFTS
    while lo < ctx.order:
        shifts = slice(lo, lo + size)
        rows = lin.linearized_rows(ctx, [(ctx.m * i, t[shifts])
                                         for i, t in enumerate(adj_tables)])
        bad = np.flatnonzero(s_fast(ctx, rows).s_value)
        if bad.size:
            return PermReport(False, "quadspec", lo + int(bad[0]))
        lo, size = lo + size, min(2 * size, _MAX_SHIFTS)
    return PermReport(True, "quadspec")


# ---- closed-form criteria --------------------------------------------------

def perm_quad_ext(ctx: FieldContext, l0: lin.LinearizedPoly,
                  l1: lin.LinearizedPoly) -> bool:
    """Quadratic extension case: is L1(x^(q+1)) + L0(x^2) a permutation?

    Requires n = 2.  Holds iff L1 composed with x^q + x is the zero map and
    L0 has trivial kernel.  Both are read off value tables of L0 and L1 on
    the whole field, so time and memory grow as 2^bits (the context's size
    cap bounds them).
    """
    _need_quad_ext(ctx)
    vanishes, injective = _quad_ext_conditions(ctx, lin.evaluate_all(ctx, l0),
                                               lin.evaluate_all(ctx, l1))
    return bool(vanishes & injective)


def _need_quad_ext(ctx: FieldContext) -> None:
    """Refuse a field that is not a quadratic extension (n != 2)."""
    if ctx.n != 2:
        raise WrongDegree(f"needs a degree-2 extension, got n={ctx.n}")


def _quad_ext_conditions(ctx: FieldContext, v0: np.ndarray, v1: np.ndarray):
    """The two conditions of perm_quad_ext on value tables (..., order) of
    L0 and L1, each decided per row of its own table: whether L1 vanishes
    on the image of x^q + x, which is F_q for n = 2, and whether L0
    vanishes only at 0."""
    _need_quad_ext(ctx)
    fq = np.array(ctx.subfield_elements(ctx.m))
    return (np.all(v1[..., fq] == 0, axis=-1),
            np.count_nonzero(v0, axis=-1) == ctx.order - 1)


def gold_terms(ctx: FieldContext, k: int, l0) -> list:
    """Terms of x^(q^k+1) + L0(x^2), L0 given by its (index, coefficient)
    pairs (see linearized.pairs), each coefficient an element or a batch."""
    return [(1, (1 << (ctx.m * k)) + 1)] + [(c, 1 << (j + 1)) for j, c in l0]


def gold_poly(ctx: FieldContext, k: int, l0: lin.LinearizedPoly) -> MonomialPoly:
    """x^(q^k+1) + L0(x^2) as a plain polynomial."""
    return monomial(ctx, gold_terms(ctx, k, lin.pairs(ctx, l0)))


def perm_gold_linearized(ctx: FieldContext, k: int,
                         l0: lin.LinearizedPoly) -> bool:
    """Odd-degree case: is x^(q^k+1) + L0(x^2) a permutation?

    Requires n odd, 0 < 2k < n, gcd(k, n) = 1; L0 may be any 2-linear
    polynomial.  Holds iff the relative trace of adjoint(L0)(u^(q^k+1)) *
    u^-2 avoids 1 for every u != 0 (tested by substitution, see _gold_ok,
    in blocks that stop at the first u that fails, so only a permutation
    pays for the whole field, and the table of adjoint(L0) is built only
    as far as the blocks read).
    """
    return bool(_gold_ok(ctx, k, lin.evaluate_blocks(ctx, lin.adjoint(ctx, l0))))


def _gold_ok(ctx: FieldContext, k: int,
             adj: Callable[[slice], np.ndarray]) -> np.ndarray:
    """perm_gold_linearized on the block evaluator adj of adjoint(L0) (see
    linearized.evaluate_blocks), decided per row of its values (..., block).
    As gcd(q^k+1, q^n-1) divides gcd(q^2k-1, q^n-1) = q-1 (n odd, gcd(k, n) = 1)
    and q^k+1 = 2 mod the odd q-1, it is 1: w = u^(q^k+1) runs over F* once, and
    with u^-2 = w^c, c = -2/(q^k+1) mod q^n-1, the test is Tr(adj(w) w^c) != 1.
    It is made on the blocks of w of the occupancy scan, [1, _FIRST_BLOCK),
    then up to 4 times the last bound, and stops, reading no further, once
    every row has failed; a field of at most _FIRST_BLOCK elements is one
    block."""
    if ctx.n % 2 == 0 or not 0 < 2 * k < ctx.n or math.gcd(k, ctx.n) != 1:
        raise BadParameters(
            f"needs n odd, 0 < 2k < n and gcd(k, n) = 1, got n={ctx.n} k={k}")
    go, gold = ctx.group_order, (1 << (ctx.m * k)) + 1
    if math.gcd(gold, go) != 1:
        raise InvariantViolation(f"gcd(q^k+1, q^n-1) != 1 for n={ctx.n} k={k}")
    c = -2 * pow(gold, -1, go) % go
    trace = ctx.trace_table(ctx.m)
    ok, lo, hi = True, 1, _FIRST_BLOCK
    while lo < ctx.order and np.any(ok):
        block = slice(lo, hi)
        ok = ok & np.all(trace[ctx.monomial_vec(adj(block), c, block)] != 1, axis=-1)
        lo, hi = hi, 4 * hi
    return ok


@dataclass(frozen=True)
class TraceFormSpec:
    """Map x -> L0(x^(2^shift)) + L1(x) * Tr(x) with q-linear L0, L1.

    Tr is the relative trace onto F_q; shift is a nonnegative integer.
    """

    l0: lin.LinearizedPoly
    l1: lin.LinearizedPoly
    shift: int


def trace_form_spec(ctx: FieldContext, l0: lin.LinearizedPoly,
                    l1: lin.LinearizedPoly, shift: int) -> TraceFormSpec:
    if shift < 0:
        raise BadParameters(f"shift must be nonnegative, got {shift}")
    for p in (l0, l1):
        if not p.q_linear:
            raise NotQLinear("trace-form parts must be q-linear")
    return TraceFormSpec(l0, l1, shift)


def traceform_terms(ctx: FieldContext, l0, l1, shift: int) -> list:
    """Terms of L0(x^(2^shift)) + L1(x) * Tr(x), L0 and L1 given by their
    (index, coefficient) pairs (see linearized.pairs), each coefficient an
    element or a batch.  L0(x^(2^shift)) shifts each 2-power exponent, taken
    modulo bits as x^(2^bits) = x; the product L1(x)*Tr(x) multiplies out to
    exponents 2^j + q^i."""
    terms = [(c, 1 << ((i + shift) % ctx.bits)) for i, c in l0]
    return terms + [(c, (1 << j) + (1 << (ctx.m * i))) for j, c in l1 for i in range(ctx.n)]


def expand_traceform(ctx: FieldContext, spec: TraceFormSpec) -> MonomialPoly:
    """spec as a plain polynomial (see traceform_terms)."""
    return monomial(ctx, traceform_terms(ctx, lin.pairs(ctx, spec.l0),
                                         lin.pairs(ctx, spec.l1), spec.shift))


def perm_trace_form(ctx: FieldContext, spec: TraceFormSpec) -> bool:
    """Does L0(x^(2^shift)) + L1(x)*Tr(x) permute the field?

    Holds iff for every u != 0, with X = adjoint(L1)(u) and Y = adjoint(L0)(u):
    either X lies in F_q and Y^2 + X^(2^shift) != 0, or {1, Y, X^(2^shift)}
    is linearly independent over F_q.
    """
    return bool(_trace_form_ok(
        ctx, lin.evaluate_all(ctx, lin.adjoint(ctx, spec.l1)),
        lin.evaluate_all(ctx, lin.adjoint(ctx, spec.l0)), spec.shift))


def _trace_form_ok(ctx: FieldContext, x_tab: np.ndarray, y_tab: np.ndarray,
                   shift: int) -> np.ndarray:
    """perm_trace_form on value tables (..., order) of adjoint(L1) and
    adjoint(L0), broadcast over their leading axes.

    With XL = X^(2^shift): X lies in F_q iff XL does, and then u passes iff
    Y^2 != XL, which needs Y in F_q to fail.  Otherwise u passes iff {1, Y,
    XL} is F_q-independent.  t(v) = v^q + v is F_q-linear with kernel F_q,
    so that holds iff t(Y) and t(XL) are: both nonzero, in different
    classes of F^* / F_q^*, that is log t mod M = (q^n - 1) / (q - 1).  Each
    side gets a key per u, from one table over the field: the class, or M
    plus the F_q value (Y^2 or XL) where the value is in F_q, so the ranges
    do not meet.  u fails iff the keys are equal or Y is in F_q and X is
    not; only that test is made on the broadcast shape.
    """
    classes = ctx.group_order // (ctx.q - 1)
    in_fq = ctx.subfield_mask(ctx.m)
    cls = ctx.log_table[ctx.frob_table(ctx.m) ^ ctx.elements] % classes
    dtype = np.min_scalar_type(classes + ctx.order)
    key_xl = np.where(in_fq, classes + ctx.elements, cls).astype(dtype)
    key_y = np.where(in_fq, classes + ctx.frob_table(1), cls).astype(dtype)
    kx = key_xl[ctx.frob_table(shift)].take(x_tab[..., 1:])
    ky = key_y.take(y_tab[..., 1:])
    fails = kx == ky
    fails |= (ky >= classes) & (kx < classes)
    return ~np.any(fails, axis=-1)


def monomial_trace_terms(ctx: FieldContext, a, k: int, shift: int) -> list:
    """Terms of a * x^(2^shift * q^k) + x * Tr(x), a an element or a batch:
    the trace form with L0 = a * x^(q^k) and L1 = x (see traceform_terms)."""
    return traceform_terms(ctx, [(ctx.m * k, a)], [(0, 1)], shift)


def monomial_trace_poly(ctx: FieldContext, a: int, k: int,
                        shift: int) -> MonomialPoly:
    """a * x^(2^shift * q^k) + x * Tr(x) as a plain polynomial; the
    exponent of 2 is taken modulo bits, as x^(2^bits) = x."""
    return monomial(ctx, monomial_trace_terms(ctx, a, k, shift))


def perm_monomial_trace(ctx: FieldContext, a, k: int, shift: int):
    """Does a * x^(2^shift * q^k) + x * Tr(x) permute the field?

    Closed form: n odd, gcd(2^(shift + m*k) - 1, (q^n-1)/(q-1)) = 1, and a
    a nonzero subfield element with a^((q-1)/(2^d-1)) != 1 for
    d = gcd(|shift - 1|, m).  (q^n-1)/(q-1) divides 2^bits - 1, so the gcd
    is taken with shift + m*k reduced modulo bits (a residue of 0 gives
    2^0 - 1 = 0, whose gcd is (q^n-1)/(q-1), as for any multiple of bits).
    a is an element or an array of them (see elementwise).

    n = 1 raises BadParameters: there Tr is the identity, so a = 0 gives
    x^2, a permutation that the condition a != 0 rejects.  PAPER.md holds
    only the abstract, so this domain is not checked against the paper's
    text.
    """
    if ctx.n == 1:
        raise BadParameters(f"the monomial-plus-trace criterion needs n > 1, got n={ctx.n}")
    if k < 0 or shift < 0:
        raise BadParameters(f"k and shift must be nonnegative, got k={k} shift={shift}")
    a, = ew.elements(ctx, a)
    if ctx.n % 2 == 0 or math.gcd((1 << ((shift + ctx.m * k) % ctx.bits)) - 1,
                                  ctx.group_order // (ctx.q - 1)) != 1:
        return ew.result(False, a)
    d = math.gcd(abs(shift - 1), ctx.m)
    return ew.result((a != 0) & ew.in_subfield(ctx, a, ctx.m)
                     & (ew.power(ctx, a, (ctx.q - 1) // ((1 << d) - 1)) != 1), a)


# ---- named families --------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A named coefficient family with a printed permutation condition.

    exact means the condition is equivalent to permutation status; otherwise
    it is sufficient only.  check(ctx) refuses a field the family is not
    defined on; family_predicate, family_polynomial and the family's verify
    campaign make it first.  predicate(ctx, params) is the condition and
    terms(ctx, params) are the map's (c, e) terms; in both a parameter may
    be a batch (an array), and so may a coefficient: family_polynomial
    folds the terms into a MonomialPoly, and the family's verify campaign
    decides a whole batch by the predicate and by the occupancy of the terms
    (see evaluate_poly_all).
    """

    name: str
    exact: bool
    params: Tuple[str, ...]
    summary: str
    check: Callable[[FieldContext], None]
    predicate: Callable[[FieldContext, Mapping[str, object]], object]
    terms: Callable[[FieldContext, Mapping[str, object]], list]


def _need_n(n: int, family: str) -> Callable[[FieldContext], None]:
    def check(ctx: FieldContext):
        if ctx.n != n:
            raise BadParameters(f"family {family} needs n = {n}, got n={ctx.n}")
    return check


def _norm(ctx: FieldContext, a):
    """Relative norm onto F_q, a^((q^n-1)/(q-1)), of an element or array."""
    return ew.power(ctx, a, ctx.group_order // (ctx.q - 1))


def _tu_predicate(ctx, params):
    a, = ew.elements(ctx, params["a"])
    return ew.result((a != 0) & ew.in_subfield(ctx, a, ctx.m), a)


def _tu_terms(ctx, params):
    q = ctx.q
    return [(1, q * q + 1), (1, q + 1), (params["a"], 1)]


def _abnorm_predicate(ctx, params):
    a, b = ew.elements(ctx, params["a"], params["b"])
    return ew.result(_norm(ctx, a) ^ _norm(ctx, b) == ew.mul(ctx, a, b), a, b)


def _abnorm_terms(ctx, params):
    q = ctx.q
    return [(1, q + 1), (params["a"], 2 * q), (params["b"], 2)]


def _q4_check(ctx: FieldContext):
    if ctx.m != 2:
        raise BadParameters(f"family q4 needs m = 2, got m={ctx.m}")
    if ctx.n % 2 == 0 or ctx.n < 3:
        raise BadParameters(f"family q4 needs odd n >= 3, got n={ctx.n}")


def _q4_variant(params) -> str:
    variant = params.get("variant", "binomial")
    if variant not in ("binomial", "qk"):
        raise BadParameters(f"unknown q4 variant {variant!r}")
    return variant


def _q4_predicate(ctx, params):
    _q4_variant(params)
    a, = ew.elements(ctx, params["a"])
    t = ew.power(ctx, a, (1 << ctx.n) - 1)
    return ew.result(ew.in_subfield(ctx, t, 2) & (t > 1), a)


def _q4_terms(ctx, params):
    a = params["a"]
    if _q4_variant(params) == "binomial":
        return [(1, (1 << ctx.n) + 2), (a, 1)]
    k = (ctx.n - 1) // 2
    q = ctx.q
    return [(1, q ** k + 1), (a, 2 * q ** (ctx.n - 1))]


def _no_check(ctx: FieldContext):
    """trform and aqk take any field; their k is checked per case."""


def _coprime_k_check(ctx: FieldContext, params, family: str):
    """(a, k) of the trform and aqk families: a != 0 (every a of a batch),
    0 < k < n and gcd(k, n) = 1."""
    a, k = params["a"], params["k"]
    zero = a == 0 if isinstance(a, int) else not np.all(a)
    if zero:
        raise BadParameters(f"family {family} needs a != 0")
    if not 0 < k < ctx.n or math.gcd(k, ctx.n) != 1:
        raise BadParameters(
            f"family {family} needs 0 < k < n with gcd(k, n) = 1, got k={k} n={ctx.n}")
    return a, k


def _trform_predicate(ctx, params):
    a, = ew.elements(ctx, _coprime_k_check(ctx, params, "trform")[0])
    na = _norm(ctx, a)
    ok = ew.trace_to(ctx, ew.power(ctx, a, -1), ctx.m) != 0
    for c in ctx.subfield_elements(ctx.m)[1:]:
        ok = ok & (_norm(ctx, a ^ c) != na)
    return ew.result(ok, a)


def _trform_terms(ctx, params):
    a, k = _coprime_k_check(ctx, params, "trform")
    j = ctx.m * (ctx.n - k)
    aq = ctx.frobenius(a, j) if isinstance(a, int) else ctx.frob_table(j)[a]
    return traceform_terms(ctx, [(j, aq), (0, a)], [(0, 1)], 0)


def _aqk_predicate(ctx, params):
    a, = ew.elements(ctx, _coprime_k_check(ctx, params, "aqk")[0])
    field_ok = ctx.n % 2 == 1 and math.gcd(ctx.n, ctx.q - 1) == 1
    return ew.result(ew.in_subfield(ctx, a, ctx.m) & field_ok, a)


def _aqk_terms(ctx, params):
    a, k = _coprime_k_check(ctx, params, "aqk")
    return traceform_terms(ctx, [(ctx.m * k, a), (0, a)], [(0, 1)], 0)


FAMILIES: Dict[str, Family] = {
    "tu": Family(
        "tu", False, ("a",),
        "x^(q^2+1) + x^(q+1) + a*x over a cubic extension; permutes for "
        "nonzero a in F_q",
        _need_n(3, "tu"), _tu_predicate, _tu_terms),
    "abnorm": Family(
        "abnorm", True, ("a", "b"),
        "x^(q+1) + a*x^(2q) + b*x^2 over a cubic extension; permutes iff "
        "N(a) + N(b) = a*b",
        _need_n(3, "abnorm"), _abnorm_predicate, _abnorm_terms),
    "q4": Family(
        "q4", False, ("a", "variant"),
        "x^(2^n+2) + a*x (or x^(q^k+1) + a*x^(2q^(n-1))) over F_4 towers of "
        "odd degree; permutes when a^(2^n-1) lies in F_4 but not F_2",
        _q4_check, _q4_predicate, _q4_terms),
    "trform": Family(
        "trform", True, ("a", "k"),
        "(a*x)^(q^(n-k)) + a*x + x*Tr(x); permutes iff Tr(1/a) != 0 and "
        "N(a+c) != N(a) for every nonzero c in F_q",
        _no_check, _trform_predicate, _trform_terms),
    "aqk": Family(
        "aqk", True, ("a", "k"),
        "a*x^(q^k) + a*x + x*Tr(x); permutes iff a is a nonzero subfield "
        "element, n is odd and gcd(n, q-1) = 1",
        _no_check, _aqk_predicate, _aqk_terms),
}


_OPTIONAL_PARAMS = frozenset({"variant"})


def _get_family(ctx: FieldContext, family: str, params: Mapping[str, object]) -> Family:
    """The family, once its parameters are all given and its check passes."""
    info = FAMILIES.get(family)
    if info is None:
        raise UnknownTheorem(f"unknown family {family!r}")
    missing = [p for p in info.params
               if p not in params and p not in _OPTIONAL_PARAMS]
    if missing:
        raise BadParameters(f"family {family} needs parameters {missing}")
    info.check(ctx)
    return info


def family_predicate(ctx: FieldContext, family: str, params: Mapping[str, object]):
    """Evaluate the printed permutation condition for a named family: a
    bool, or an array of them where a parameter is a batch."""
    return _get_family(ctx, family, params).predicate(ctx, params)


def family_polynomial(ctx: FieldContext, family: str,
                      params: Mapping[str, int]) -> MonomialPoly:
    """The actual polynomial a named family describes: its terms, folded."""
    return monomial(ctx, _get_family(ctx, family, params).terms(ctx, params))
