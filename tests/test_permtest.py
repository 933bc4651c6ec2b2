"""Permutation tests: brute force, all-shift character sums, closed forms."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charperm import (
    FAMILIES,
    build_context,
    evaluate_poly_all,
    expand_quadspec,
    expand_traceform,
    family_polynomial,
    family_predicate,
    format_monomial,
    gold_poly,
    is_perm_bruteforce,
    is_perm_charsum,
    is_perm_quadspec,
    monomial,
    monomial_trace_poly,
    parse_monomial,
    perm_gold_linearized,
    perm_monomial_trace,
    perm_quad_ext,
    perm_trace_form,
    quad_family,
    s_bruteforce,
    trace_form_spec,
)
from charperm import linearized as lin
from charperm import permtest as pt
from charperm.field import FieldContext
from charperm.permtest import _bijective_rows, report_from_values
from charperm.verify import gold_ks
from charperm.errors import (
    BadParameters,
    InvariantViolation,
    NotQLinear,
    UnknownTheorem,
    WrongDegree,
)

OMEGA = 0b10


# ---- sparse polynomials ----------------------------------------------------

def evaluate_poly(ctx, poly, x):
    """The reference value of a MonomialPoly at one x: each term by scalar
    mul and pow."""
    r = 0
    for c, e in poly.terms:
        r ^= ctx.mul(c, ctx.pow(x, e))
    return r


def test_monomial_folds_exponents(gf4):
    # exponents act modulo the multiplicative order away from zero
    p = monomial(gf4, [(1, 4)])
    assert p.terms == ((1, 1),)
    q = monomial(gf4, [(1, 4), (1, 1)])
    assert q.is_zero()


def test_monomial_rejects(gf4):
    with pytest.raises(BadParameters):
        monomial(gf4, [(1, 0)])
    with pytest.raises(BadParameters):
        monomial(gf4, [(1, -2)])
    with pytest.raises(ValueError):
        monomial(gf4, [(4, 1)])


def test_evaluate_poly_matches_table(gf64_tower):
    ctx = gf64_tower
    rng = random.Random(0)
    for _ in range(10):
        p = monomial(ctx, [(rng.randrange(1, 64), rng.randrange(1, 100))
                           for _ in range(3)])
        table = evaluate_poly_all(ctx, p)
        for x in (0, 1, 17, 0x3f):
            assert int(table[x]) == evaluate_poly(ctx, p, x)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 4), (4, 5)], ids=lambda v: str(v))
def test_evaluate_poly_all_mixes_linear_and_other_terms(m, n):
    # 2-power terms go through one linearized table, the rest through
    # pow_vec and mul_vec; every split must give the scalar values
    ctx = build_context(m, n)
    rng = random.Random(ctx.bits)
    points = sorted({0, 1, ctx.order - 1} | {rng.randrange(ctx.order) for _ in range(30)})
    bits = ctx.bits
    polys = [
        monomial(ctx, []),
        monomial(ctx, [(rng.randrange(1, ctx.order), 1 << j) for j in range(0, bits, 2)]),
        monomial(ctx, [(rng.randrange(1, ctx.order), rng.randrange(3, 4 * ctx.order))
                       for _ in range(3)]),
        monomial(ctx, [(rng.randrange(1, ctx.order), 1 << (bits - 1)),
                       (rng.randrange(1, ctx.order), 1 << bits),     # folds onto x
                       (rng.randrange(1, ctx.order), 3),
                       (rng.randrange(1, ctx.order), ctx.group_order)]),
    ]
    for p in polys:
        table = evaluate_poly_all(ctx, p)
        assert table.shape == (ctx.order,)
        assert [int(table[x]) for x in points] == [evaluate_poly(ctx, p, x) for x in points]


FIELDS_TO_8_BITS = [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 8]


def test_parse_format_roundtrip(gf64_tower):
    # drawn terms with exponents up to 3 * order, folded and merged by the
    # parser as monomial folds them; formatting then parsing gives the
    # polynomial back, and a nonpositive exponent is refused
    contexts = {}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(FIELDS_TO_8_BITS), data=st.data())
    def check(field, data):
        if field not in contexts:
            contexts[field] = build_context(*field)
        ctx = contexts[field]
        elem = st.integers(0, ctx.order - 1)
        terms = data.draw(st.lists(st.tuples(elem, st.integers(1, 3 * ctx.order)),
                                   max_size=8), label="terms")
        text = ",".join(f"{e}:{c:x}" for c, e in terms)
        p = parse_monomial(ctx, text)
        assert p == monomial(ctx, terms)
        assert parse_monomial(ctx, format_monomial(p)) == p
        bad = data.draw(st.integers(-3 * ctx.order, 0), label="nonpositive")
        with pytest.raises(BadParameters):
            parse_monomial(ctx, f"{text},{bad}:1")

    check()
    with pytest.raises(ValueError):
        parse_monomial(gf64_tower, "oops")


# ---- generic permutation checks --------------------------------------------

def test_bijective_rows_match_report_from_values():
    # permutations mixed with near-permutations that repeat one value
    rng = np.random.default_rng(7)
    for m, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        ctx = build_context(m, n)
        stack = np.array([rng.permutation(ctx.order) for _ in range(24)])
        for row in stack[::2]:
            i, j = rng.choice(ctx.order, size=2, replace=False)
            row[i] = row[j]
        stack = stack.reshape(2, 3, 4, ctx.order)
        got = _bijective_rows(stack)
        assert got.shape == (2, 3, 4) and 0 < got.sum() < got.size
        want = [report_from_values(ctx, row).is_permutation
                for row in stack.reshape(-1, ctx.order)]
        assert got.ravel().tolist() == want
        assert bool(_bijective_rows(stack[0, 0, 0])) == want[0]


def _small_rows(size, dtype):
    """Rows of size entries for _bijective_rows: a permutation, a repeat,
    and entries outside 0 .. size - 1 (size itself, the bit widths of the
    shift dtypes, and values that wrap onto the missing entry modulo 2^8,
    2^16 or 2^32, from above or below zero)."""
    rng = np.random.default_rng(size)
    perm = rng.permutation(size)
    rows = [perm]
    if size == 0:
        return rows
    limits = np.iinfo(dtype)
    k = int(perm[-1])
    for entry in (int(perm[0]), size, 8, 16, 32, 64, 255, k + 256, k + (1 << 16),
                  k + (1 << 32), -1, k - 256, k - (1 << 16)):
        if entry != k and limits.min <= entry <= limits.max:
            row = perm.copy()
            row[-1] = entry
            rows.append(row)
    return rows


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.uint16])
def test_bijective_rows_small_rows_match_sorting(dtype):
    # every row length of the shift path and past it, up to 130, and 1024
    # (as far as dtype holds a permutation): single rows and (2, 3, size)
    # stacks
    for size in [s for s in list(range(131)) + [1024] if s <= np.iinfo(dtype).max + 1]:
        rows = [np.asarray(r).astype(dtype) for r in _small_rows(size, dtype)]
        want = [np.array_equal(np.sort(r), np.arange(size)) for r in rows]
        assert want[0] and not any(want[1:])
        for row, w in zip(rows, want):
            assert bool(_bijective_rows(row)) == w, (size, row)
        picks = [(i * 5 + 1) % len(rows) for i in range(6)]
        stack = np.stack([rows[i] for i in picks]).reshape(2, 3, size)
        got = _bijective_rows(stack)
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == [want[i] for i in picks], size


def _unique_witness(ctx, values):
    """The first-collision witness built with np.unique, kept as the oracle."""
    first_idx = np.full(ctx.order, -1, dtype=np.int64)
    uniq, idx = np.unique(values, return_index=True)
    first_idx[uniq] = idx
    v2 = int(np.argmax(first_idx[values] != np.arange(ctx.order)))
    return int(first_idx[values[v2]]), v2


def test_collision_witness_matches_the_unique_construction():
    rng = np.random.default_rng(11)
    for m, n in ((1, 1), (1, 3), (2, 3), (4, 4)):
        ctx = build_context(m, n)
        last = rng.permutation(ctx.order)
        last[-1] = last[rng.integers(ctx.order - 1)]   # only the last input collides
        tables = [np.zeros(ctx.order, dtype=np.int64),   # a constant table
                  np.full(ctx.order, ctx.order - 1), last,
                  rng.integers(0, ctx.order, ctx.order)]
        tables[-1][-1] = tables[-1][0]
        for values in tables:
            report = report_from_values(ctx, values)
            assert not report.is_permutation
            assert report.witness == _unique_witness(ctx, values)
            v1, v2 = report.witness
            assert v1 < v2 and values[v1] == values[v2]
        assert report_from_values(ctx, last).witness[1] == ctx.order - 1


def test_report_from_values_rejects_other_shapes(gf4):
    with pytest.raises(BadParameters):
        report_from_values(gf4, np.arange(3))
    with pytest.raises(BadParameters):
        report_from_values(gf4, np.arange(4).reshape(2, 2))


@pytest.mark.parametrize("field,bad", [((1, 3), -1), ((1, 3), 8),
                                       ((2, 6), -1), ((2, 6), 4096)])
def test_report_from_values_rejects_non_elements(field, bad):
    # 0 .. order - 2 and one entry that is not an element: before the
    # check, -1 wrapped to a witness (0, 0) on 8 elements, 8 raised a bare
    # IndexError, and on 4096 elements bincount or reshape a ValueError
    ctx = build_context(*field)
    values = np.arange(ctx.order)
    values[-1] = bad
    with pytest.raises(BadParameters):
        report_from_values(ctx, values)


def _whole_table_report(ctx, values):
    """report_from_values as it was before the blocked scan, kept as the
    reference: the verdict on the whole table, then the first collision by
    np.minimum.at over the prefixes 1024, 4096, ... of the whole table."""
    values = np.asarray(values)
    if np.array_equal(np.sort(values), ctx.elements):
        return True, None
    inputs = ctx.elements
    first = np.full(ctx.order, ctx.order)
    lo, hi = 0, 1024
    while True:
        np.minimum.at(first, values[lo:hi], inputs[lo:hi])
        repeat = first[values[lo:hi]] != inputs[lo:hi]
        if repeat.any() or hi >= ctx.order:
            break
        lo, hi = hi, 4 * hi
    v2 = lo + int(np.argmax(repeat))
    return False, (int(first[values[v2]]), v2)


def _pair(report):
    return report.is_permutation, report.witness


@pytest.fixture(scope="module")
def gf_20():
    return build_context(4, 5)


def _gold_l0(ctx, rng):
    """A two-term L0 as the bigfield benchmark draws them."""
    return lin.linearized(ctx, [(i, rng.randrange(1, ctx.order))
                                for i in rng.sample(range(ctx.bits), 2)])


@pytest.mark.parametrize("field", [(6, 2), (4, 4), (4, 5)], ids=str)
def test_blocked_scan_witness_matches_the_whole_table_report(field, gf_20):
    ctx = gf_20 if field == (4, 5) else build_context(*field)
    rng = random.Random(f"scan:{field}")
    polys = []
    while len(polys) < 4:       # monomials a * x^e with gcd(e, order - 1) > 1
        e = rng.randrange(2, ctx.group_order)
        if math.gcd(e, ctx.group_order) > 1:
            polys.append(monomial(ctx, [(rng.randrange(1, ctx.order), e)]))
    polys += [monomial(ctx, [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order))
                             for _ in range(3)]) for _ in range(2)]
    polys += [gold_poly(ctx, gold_ks(ctx.n)[0], _gold_l0(ctx, rng))
              for _ in range(8 if ctx.n % 2 else 0)]
    late = 0
    for f in polys:
        values = evaluate_poly_all(ctx, f)
        want = _whole_table_report(ctx, values)
        assert not want[0]
        assert _pair(is_perm_bruteforce(ctx, f)) == want
        assert _pair(report_from_values(ctx, values)) == want
        late = max(late, want[1][1])
    if ctx.n % 2:
        assert late >= 1024     # a witness past the first block of inputs


@pytest.mark.parametrize("field", [(3, 4), (4, 4), (4, 5)], ids=str)
def test_blocked_scan_finds_a_single_late_repeat(field, gf_20):
    # a permutation with one value repeated at input v2, first held at v1:
    # v2 at the ends of the first blocks, past the scanned share, and last
    ctx = gf_20 if field == (4, 5) else build_context(*field)
    rng = np.random.default_rng(ctx.bits)
    perm = rng.permutation(ctx.order)
    assert _pair(report_from_values(ctx, perm)) == (True, None)
    spots = [v for v in (1, 1023, 1024, 4095, 4096, 16383, 16384, 65536, ctx.order - 1)
             if v < ctx.order]
    for v2 in spots:
        v1 = int(rng.integers(v2))
        values = perm.copy()
        values[v2] = values[v1]
        assert _pair(report_from_values(ctx, values)) == (False, (v1, v2))
        assert _whole_table_report(ctx, values) == (False, (v1, v2))


def test_blocked_scan_keeps_permutations_and_linear_maps(gf_20):
    assert _pair(is_perm_bruteforce(gf_20, gold_poly(gf_20, 1, lin.zero(gf_20)))) == (True, None)
    for ctx, e in ((gf_20, 7), (build_context(4, 4), 7), (build_context(3, 4), 11)):
        assert _pair(is_perm_bruteforce(ctx, monomial(ctx, [(3, e)]))) == (True, None)
    # the LinearizedPoly branch: x^2 + a*x has kernel {0, a}, so its first
    # repeat is at the least input with the top bit of a, past every block
    # for a large a
    for ctx in (build_context(6, 2), build_context(4, 4), gf_20):
        rng = random.Random(ctx.bits)
        polys = [lin.linearized(ctx, [(1, 1), (0, a)])
                 for a in (1, 3, ctx.order - 1, ctx.order // 2 + 5)]
        polys += [lin.linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(3)])
                  for _ in range(3)]
        polys.append(lin.identity(ctx))
        verdicts = set()
        for poly in polys:
            want = _whole_table_report(ctx, lin.evaluate_all(ctx, poly))
            assert _pair(is_perm_bruteforce(ctx, poly)) == want
            verdicts.add(want[0])
        assert verdicts == {True, False}
        assert is_perm_bruteforce(ctx, polys[3]).witness[1] == ctx.order // 2


def test_identity_is_permutation(gf4):
    p = monomial(gf4, [(1, 1)])
    assert is_perm_bruteforce(gf4, p).is_permutation
    assert is_perm_charsum(gf4, p).is_permutation


def test_cube_on_gf4_and_gf8(gf4, gf8):
    cube4 = monomial(gf4, [(1, 3)])
    rep = is_perm_bruteforce(gf4, cube4)
    assert not rep.is_permutation
    v1, v2 = rep.witness
    assert evaluate_poly(gf4, cube4, v1) == evaluate_poly(gf4, cube4, v2)
    assert v1 != v2
    cube8 = monomial(gf8, [(1, 3)])
    assert is_perm_bruteforce(gf8, cube8).is_permutation
    assert is_perm_charsum(gf8, cube8).is_permutation


def _charsum_for_shift(ctx, f, u):
    """Direct sum of chi(u * f(v)) over all v; the per-shift re-check."""
    values = evaluate_poly_all(ctx, f)
    return int(ctx.chi_table[ctx.mul_vec(u, values)].sum(dtype=np.int64))


def test_charsum_witness_is_failing_shift(gf4):
    p = monomial(gf4, [(1, 2), (1, 1)])  # x^2 + x kills {0, 1}
    rep = is_perm_charsum(gf4, p)
    assert not rep.is_permutation
    assert rep.method == "charsum"
    u = rep.witness
    assert u != 0
    assert _charsum_for_shift(gf4, p, u) != 0


def test_two_routes_agree_on_seeded_polys(gf16):
    rng = random.Random(1)
    for _ in range(200):
        p = monomial(gf16, [(rng.randrange(1, 16), rng.randrange(1, 30))
                            for _ in range(rng.randrange(1, 4))])
        assert (is_perm_bruteforce(gf16, p).is_permutation
                == is_perm_charsum(gf16, p).is_permutation)


def test_checks_accept_linearized(gf16):
    L = lin.q_linearized(gf16, [(0, 2)])
    assert is_perm_bruteforce(gf16, L).is_permutation
    assert is_perm_charsum(gf16, L).is_permutation


def test_charsum_cap():
    # the character-sum test has no cap of its own: it runs on 4:4 at the
    # default size cap and agrees with the occupancy test
    ctx = build_context(4, 4)
    verdicts = []
    for terms in ([(1, 1)], [(1, 3)], [(1, 7)], [(1, 2), (1, 17)]):
        f = monomial(ctx, terms)
        verdicts.append(is_perm_charsum(ctx, f).is_permutation)
        assert verdicts[-1] == is_perm_bruteforce(ctx, f).is_permutation
    assert verdicts == [True, False, True, False]


# ---- quadratic part families ----------------------------------------------

def _evaluate_quadspec(ctx, spec, x):
    """sum_i L_i(x^(q^i+1)), one scalar term at a time."""
    r = 0
    for i, part in enumerate(spec.parts):
        r ^= lin.evaluate(ctx, part, ctx.pow(x, (1 << (ctx.m * i)) + 1))
    return r


def _reduction_at_shift(ctx, spec, u):
    """The q-linear polynomial whose character sum is sum_v chi(u*f(v)):
    its coefficient at x^(q^i) is the adjoint of L_i evaluated at u."""
    pairs = [(i, lin.evaluate(ctx, lin.adjoint(ctx, part), u))
             for i, part in enumerate(spec.parts)]
    return lin.q_linearized(ctx, pairs)


def test_quad_family_shapes(gf8):
    spec = quad_family(gf8, {1: lin.identity(gf8)})
    assert len(spec.parts) == 3
    with pytest.raises(BadParameters):
        quad_family(gf8, {3: lin.identity(gf8)})
    with pytest.raises(BadParameters):
        quad_family(gf8, [lin.identity(gf8)])


def test_expand_quadspec_exponents(gf4):
    # L1 = x picks up exponent q + 1 = 3; 2-linear parts multiply in 2^j
    spec = quad_family(gf4, {1: lin.identity(gf4)})
    assert expand_quadspec(gf4, spec).terms == ((1, 3),)
    spec2 = quad_family(gf4, {1: lin.linearized(gf4, [(1, 1)])})
    # x^2 substituted into x^{q+1} gives exponent 2 * 3 = 6, folded mod 3
    f = expand_quadspec(gf4, spec2)
    for x in range(4):
        assert evaluate_poly(gf4, f, x) == _evaluate_quadspec(gf4, spec2, x)


def test_quadspec_expansion_matches_direct(gf64_tower):
    ctx = gf64_tower
    rng = random.Random(2)
    for _ in range(10):
        parts = {i: lin.linearized(ctx, [(j, rng.randrange(64))
                                         for j in range(0, 6, 2)])
                 for i in range(3)}
        spec = quad_family(ctx, parts)
        f = expand_quadspec(ctx, spec)
        for x in range(64):
            assert evaluate_poly(ctx, f, x) == _evaluate_quadspec(ctx, spec, x)


def test_reduction_at_shift_is_adjoint_row(gf16_tower):
    ctx = gf16_tower
    rng = random.Random(3)
    parts = [lin.linearized(ctx, [(j, rng.randrange(16)) for j in range(4)])
             for _ in range(2)]
    spec = quad_family(ctx, parts)
    for u in range(1, 16):
        ell = _reduction_at_shift(ctx, spec, u)
        assert ell.q_linear
        for i, part in enumerate(spec.parts):
            expected = lin.evaluate(ctx, lin.adjoint(ctx, part), u)
            assert ell.coeffs[2 * i] == expected


def test_quadspec_permtest_vs_bruteforce(gf16_tower):
    ctx = gf16_tower
    rng = random.Random(4)
    for _ in range(60):
        parts = [lin.linearized(ctx, [(j, rng.randrange(16)) for j in range(4)])
                 for _ in range(2)]
        spec = quad_family(ctx, parts)
        fast = is_perm_quadspec(ctx, spec)
        brute = is_perm_bruteforce(ctx, expand_quadspec(ctx, spec))
        assert fast.is_permutation == brute.is_permutation
        if not fast.is_permutation:
            ell = _reduction_at_shift(ctx, spec, fast.witness)
            assert s_bruteforce(ctx, ell) != 0


def _first_failing_shift(ctx, spec):
    """is_perm_quadspec's witness, one shift at a time by the full sum."""
    for u in range(1, ctx.order):
        if s_bruteforce(ctx, _reduction_at_shift(ctx, spec, u)) != 0:
            return u
    return None


def _query_spec(ctx, rng, permuting):
    """A sparse spec as one-off queries draw them.  A permuting one has a
    bijective monomial as part 0 and, for even n, c*(x^(q^(n/2)) + x) as
    part n/2, which changes no value but gives every shift a nontrivial
    form; otherwise two or three random terms land in random parts."""
    parts = [lin.zero(ctx)] * ctx.n
    if permuting:
        parts[0] = lin.linearized(ctx, [(rng.randrange(ctx.bits),
                                         rng.randrange(1, ctx.order))])
        c = rng.randrange(1, ctx.order)
        parts[ctx.n // 2] = lin.linearized(ctx, [(ctx.m * ctx.n // 2, c), (0, c)])
        return quad_family(ctx, parts)
    for _ in range(rng.randrange(2, 4)):
        i = rng.randrange(ctx.n)
        parts[i] = lin.add(ctx, parts[i], lin.linearized(
            ctx, [(rng.randrange(ctx.bits), rng.randrange(1, ctx.order))]))
    return quad_family(ctx, parts)


@pytest.mark.parametrize("field", [(6, 2), (3, 4), (2, 6)])
def test_quadspec_at_query_sizes(field):
    # 12-bit fields, where one-off queries run full quadspec scans
    ctx = build_context(*field)
    rng = random.Random(f"quadspec:{field}")
    verdicts = set()
    for k in range(12):
        spec = _query_spec(ctx, rng, permuting=k % 3 == 0)
        got = is_perm_quadspec(ctx, spec)
        brute = is_perm_bruteforce(ctx, expand_quadspec(ctx, spec))
        assert got.is_permutation == brute.is_permutation
        if not got.is_permutation:
            assert got.witness == _first_failing_shift(ctx, spec)
        verdicts.add(got.is_permutation)
    assert verdicts == {True, False}


@pytest.mark.parametrize("blocks", [(pt._FIRST_SHIFTS, pt._MAX_SHIFTS), (2, 4), (1, 1)])
def test_quadspec_blocks_keep_the_smallest_witness(blocks, monkeypatch):
    # two-part specs on 64 elements fail first anywhere from u = 1 to past 10;
    # small blocks put those shifts in the second, third and later blocks
    monkeypatch.setattr(pt, "_FIRST_SHIFTS", blocks[0])
    monkeypatch.setattr(pt, "_MAX_SHIFTS", blocks[1])
    witnesses = set()
    for field in ((2, 3), (1, 6)):
        ctx = build_context(*field)
        rng = random.Random(5)
        for _ in range(40):
            parts = [lin.zero(ctx)] * ctx.n
            parts[0] = lin.linearized(ctx, [(rng.randrange(ctx.bits),
                                             rng.randrange(1, ctx.order))])
            parts[rng.randrange(1, ctx.n)] = lin.linearized(
                ctx, [(rng.randrange(ctx.bits), rng.randrange(1, ctx.order))])
            spec = quad_family(ctx, parts)
            want = _first_failing_shift(ctx, spec)
            got = is_perm_quadspec(ctx, spec)
            assert got.is_permutation == (want is None)
            assert got.witness == want
            witnesses.add(want)
    assert None in witnesses and 1 in witnesses and max(witnesses - {None}) >= 10


def test_quadspec_x_q_plus_1_not_perm(gf4):
    spec = quad_family(gf4, {1: lin.identity(gf4)})
    assert not is_perm_quadspec(gf4, spec).is_permutation


def test_only_l0_reduces_to_kernel(gf64_tower):
    ctx = gf64_tower
    rng = random.Random(5)
    for _ in range(20):
        l0 = lin.linearized(ctx, [(j, rng.randrange(64)) for j in range(6)])
        spec = quad_family(ctx, {0: l0})
        assert (is_perm_quadspec(ctx, spec).is_permutation
                == (lin.kernel(ctx, l0).dim2 == 0))


# ---- quadratic extensions (n = 2) ------------------------------------------

def test_perm_quad_ext_frozen(gf4):
    # L1 = 0: f = L0(x^2) permutes iff L0 is invertible
    assert perm_quad_ext(gf4, lin.identity(gf4), lin.zero(gf4))
    assert not perm_quad_ext(gf4, lin.zero(gf4), lin.zero(gf4))
    # L1 = x never kills x^q + x on GF(4)
    assert not perm_quad_ext(gf4, lin.identity(gf4), lin.identity(gf4))
    # L1 = x^2 + x vanishes on the image of x^q + x over q = 2
    l1 = lin.linearized(gf4, [(1, 1), (0, 1)])
    assert perm_quad_ext(gf4, lin.identity(gf4), l1)


def test_perm_quad_ext_wrong_degree(gf8, monkeypatch):
    # refused before any value table is built
    monkeypatch.setattr(lin, "evaluate_all", None)
    with pytest.raises(WrongDegree):
        perm_quad_ext(gf8, lin.identity(gf8), lin.zero(gf8))


def test_perm_quad_ext_vs_bruteforce(gf16_tower):
    ctx = gf16_tower
    rng = random.Random(6)
    for _ in range(60):
        l0 = lin.linearized(ctx, [(j, rng.randrange(16)) for j in range(4)])
        l1 = lin.linearized(ctx, [(j, rng.randrange(16)) for j in range(4)])
        spec = quad_family(ctx, [l0, l1])
        brute = is_perm_bruteforce(ctx, expand_quadspec(ctx, spec))
        assert perm_quad_ext(ctx, l0, l1) == brute.is_permutation


# ---- odd-degree gold exponent criterion ------------------------------------

def test_gold_frozen(gf8):
    assert perm_gold_linearized(gf8, 1, lin.zero(gf8))       # plain x^3
    assert not perm_gold_linearized(gf8, 1, lin.identity(gf8))


def test_gold_vs_bruteforce(gf8):
    rng = random.Random(7)
    for _ in range(100):
        l0 = lin.linearized(gf8, [(j, rng.randrange(8)) for j in range(3)])
        pred = perm_gold_linearized(gf8, 1, l0)
        brute = is_perm_bruteforce(gf8, gold_poly(gf8, 1, l0))
        assert pred == brute.is_permutation


def test_gold_rejects(gf8, gf16):
    with pytest.raises(BadParameters):
        perm_gold_linearized(gf8, 2, lin.zero(gf8))    # 2k = 4 > n = 3
    with pytest.raises(BadParameters):
        perm_gold_linearized(gf16, 1, lin.zero(gf16))  # n even


def _reads(table):
    """A value table (..., order) as the block evaluator that _gold_ok reads."""
    return lambda block: table[..., block]


def _gold_ok_by_gather(ctx, k, adj):
    """The Gold criterion as first written, the oracle of the substitution
    in _gold_ok: adjoint(L0) read at u^(q^k+1), times u^-2, for every u != 0."""
    u = ctx.elements[1:]
    t = adj[..., ctx.pow_vec(u, (1 << (ctx.m * k)) + 1)]
    prod = ctx.mul_elementwise(t, ctx.pow_vec(u, -2))
    return np.all(ctx.trace_table(ctx.m)[prod] != 1, axis=-1)


GOLD_FIELDS = [(m, n) for n in range(3, 13, 2) for m in range(1, 5) if m * n <= 12]

# (m, n, k) on which some a * x^(q^(n-1)) with a != 0 makes the Gold
# polynomial permute, so both verdicts occur
GOLD_BOTH_VERDICTS = {(2, 3, 1), (4, 3, 1), (2, 5, 2)}


@pytest.mark.parametrize("m,n", GOLD_FIELDS, ids=lambda v: str(v))
def test_gold_substitution_matches_the_gather(m, n):
    ctx = build_context(m, n)
    rng = np.random.default_rng(ctx.bits)
    a = ctx.elements if ctx.order <= 256 else rng.integers(0, ctx.order, 256)
    sparse = [(int(j), rng.integers(0, ctx.order, 32))
              for j in rng.choice(ctx.bits, 2, replace=False)]
    rows = np.concatenate([lin.linearized_rows(ctx, [(m * (n - 1), a)]),
                           lin.linearized_rows(ctx, sparse)])
    tables = np.concatenate([lin.evaluate_all(ctx, lin.adjoint(ctx, rows)),
                             rng.integers(0, ctx.order, (4, ctx.order))])
    for k in gold_ks(n):
        got = pt._gold_ok(ctx, k, _reads(tables))
        assert got.tolist() == _gold_ok_by_gather(ctx, k, tables).tolist()
        # a (2, 3, order) stack and single tables, passing ones first
        pick = np.resize(np.concatenate([np.flatnonzero(got)[:3],
                                         np.flatnonzero(~got)[:3]]), 6)
        stack = tables[pick].reshape(2, 3, ctx.order)
        assert pt._gold_ok(ctx, k, _reads(stack)).tolist() == got[pick].reshape(2, 3).tolist()
        for i in pick:
            assert pt._gold_ok(ctx, k, _reads(tables[i])) == _gold_ok_by_gather(ctx, k, tables[i])
        if (m, n, k) in GOLD_BOTH_VERDICTS:
            assert got[:len(a)][a != 0].any() and not got.all()


def test_gold_substitution_against_bruteforce_at_20_bits():
    # L0 = 0 is the permuting case: for L0 = a * x^(2^j), a != 0, the
    # products adj(w) * w^c run through a coset of a subgroup of F*, and on
    # 4:5 every such coset holds an element of relative trace 1
    ctx = build_context(4, 5)
    rng = random.Random(45)
    l0s = [lin.zero(ctx)] + [
        lin.linearized(ctx, [(i, rng.randrange(1, ctx.order))
                             for i in rng.sample(range(ctx.bits), 2)])
        for _ in range(2)]
    verdicts = set()
    for k in gold_ks(ctx.n):
        for l0 in l0s:
            want = bool(_gold_ok_by_gather(ctx, k, lin.evaluate_all(ctx, lin.adjoint(ctx, l0))))
            assert perm_gold_linearized(ctx, k, l0) == want
            assert is_perm_bruteforce(ctx, gold_poly(ctx, k, l0)).is_permutation == want
            verdicts.add(want)
    assert verdicts == {True, False}


def _gold_ok_whole_field(ctx, k, adj):
    """_gold_ok as it was before the blocked scan, kept as the reference:
    Tr(adj(w) * w^c) != 1 on one product table over every w."""
    go = ctx.group_order
    c = -2 * pow((1 << (ctx.m * k)) + 1, -1, go) % go
    prod = ctx.monomial_vec(adj, c)
    return np.all(ctx.trace_table(ctx.m)[prod[..., 1:]] != 1, axis=-1)


def _single_trace_one(ctx, k, w):
    """An adj table, zero but at w, where adj(w) * w^c = 1, of relative
    trace n = 1 (n odd): the Gold criterion fails at w and nowhere else."""
    go = ctx.group_order
    table = np.zeros(ctx.order, dtype=np.int32)
    table[w] = ctx.pow(w, 2 * pow((1 << (ctx.m * k)) + 1, -1, go))
    return table


BLOCK_EDGES = (1, 1023, 1024, 4095, 4096, 16383, 16384, 65535, 65536, 262143, 262144)


@pytest.mark.parametrize("field", [(1, 7), (3, 5), (4, 5)], ids=str)
def test_blocked_gold_matches_the_whole_field(field, gf_20):
    ctx = gf_20 if field == (4, 5) else build_context(*field)
    rng = random.Random(f"gold:{field}")
    k = gold_ks(ctx.n)[-1]
    zero = np.zeros(ctx.order, dtype=np.int32)
    assert pt._gold_ok(ctx, k, _reads(zero))
    assert perm_gold_linearized(ctx, k, lin.zero(ctx))
    edges = [w for w in BLOCK_EDGES if w < ctx.order] + [ctx.order - 1]
    singles = [_single_trace_one(ctx, k, w) for w in edges]
    for table in singles:
        assert not pt._gold_ok(ctx, k, _reads(table))
    # trace 1 at w = 0 only: w = 0 is no u^(q^k+1), so the criterion holds
    at_zero = zero.copy()
    at_zero[0] = 1
    drawn = [lin.evaluate_all(ctx, lin.adjoint(ctx, _gold_l0(ctx, rng))) for _ in range(3)]
    tables = np.stack([zero, at_zero, singles[0], singles[-1]] + drawn)
    want = _gold_ok_whole_field(ctx, k, tables)
    assert want[:4].tolist() == [True, True, False, False]
    assert pt._gold_ok(ctx, k, _reads(tables)).tolist() == want.tolist()
    for i in range(len(tables)):
        assert pt._gold_ok(ctx, k, _reads(tables[i])) == want[i]
    # stacks that pass, fail only on the last w, or fail early, in one scan
    pick = [0, len(tables) - 1, 3, 1, 2, 0]
    stack = tables[pick].reshape(2, 3, ctx.order)
    assert pt._gold_ok(ctx, k, _reads(stack)).tolist() == want[pick].reshape(2, 3).tolist()


def test_whole_field_checks_stop_at_the_first_failing_block(monkeypatch, gf_20):
    # counts, not timings: a non-permuting 20-bit Gold map reads at most
    # 4096 inputs in the occupancy scan and 1024 w in the Gold criterion,
    # and its linear tables (L0(x^2), adjoint(L0)) are written no further
    # than the 4096-entry prefix; a permuting one reads every input exactly
    # once and writes each of its tables whole, once
    ctx = gf_20
    rng = random.Random(20)
    seen = []       # the input range (lo, hi) of every monomial_vec call
    written = []    # entries written by every call of the linear-table builder
    inner, build = FieldContext.monomial_vec, lin._linear_table

    def counted(self, c, e, block=slice(None)):
        seen.append(block.indices(self.order)[:2])
        return inner(self, c, e, block)

    def counted_build(images, out=None, filled=0):
        table = build(images) if out is None else build(images, out, filled)
        written.append(table[..., 0].size * (table.shape[-1] - filled))
        return table
    monkeypatch.setattr(FieldContext, "monomial_vec", counted)
    monkeypatch.setattr(lin, "_linear_table", counted_build)
    for k in gold_ks(ctx.n):
        for _ in range(3):
            l0 = _gold_l0(ctx, rng)
            seen.clear()
            written.clear()
            assert not is_perm_bruteforce(ctx, gold_poly(ctx, k, l0)).is_permutation
            assert sum(hi - lo for lo, hi in seen) <= 4096
            assert 0 < sum(written) <= 4096
            seen.clear()
            written.clear()
            assert not perm_gold_linearized(ctx, k, l0)
            assert sum(hi - lo for lo, hi in seen) <= 1024
            assert 0 < sum(written) <= 4096
        seen.clear()
        written.clear()
        assert is_perm_bruteforce(ctx, gold_poly(ctx, k, lin.zero(ctx))).is_permutation
        assert _tile(seen) == (0, ctx.order)
        assert sum(written) == 0      # x^(q^k+1) has no linear term
        seen.clear()
        assert perm_gold_linearized(ctx, k, lin.zero(ctx))
        assert _tile(seen) == (1, ctx.order)
        assert sum(written) == ctx.order
    written.clear()
    assert is_perm_bruteforce(ctx, lin.linearized(ctx, [(3, 5)])).is_permutation
    assert sum(written) == ctx.order


def _tile(ranges):
    """(start, end) if the ranges (lo, hi) cover start .. end - 1 once each."""
    ranges = sorted(ranges)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    return ranges[0][0], ranges[-1][1]


def test_gold_exponent_is_prime_to_the_group_order():
    # the substitution w = u^(q^k+1) in _gold_ok rests on this for odd n;
    # for even n it fails, and perm_gold_linearized refuses even n
    for m in range(1, 9):
        for n in range(3, 26, 2):
            for k in gold_ks(n):
                assert math.gcd((1 << (m * k)) + 1, (1 << (m * n)) - 1) == 1
    assert math.gcd((1 << 1) + 1, (1 << 4) - 1) == 3


def test_gold_substitution_guard_is_a_typed_error():
    # a stand-in context whose group order shares the factor 3 with q^k+1 = 3
    ctx = SimpleNamespace(m=1, n=3, group_order=9)
    with pytest.raises(InvariantViolation):
        pt._gold_ok(ctx, 1, _reads(np.zeros(10, dtype=np.int64)))


# ---- trace-assembled forms -------------------------------------------------

def _evaluate_traceform(ctx, spec, x):
    """L0(x^(2^shift)) + L1(x) * Tr(x) at one x."""
    r = lin.evaluate(ctx, spec.l0, ctx.frobenius(x, spec.shift))
    return r ^ ctx.mul(lin.evaluate(ctx, spec.l1, x), ctx.trace_to(x, ctx.m))


def test_traceform_expansion_matches_direct(gf64_tower):
    ctx = gf64_tower
    rng = random.Random(8)
    for shift in (0, 1, 2):
        for _ in range(8):
            l0 = lin.q_linearized(ctx, [(j, rng.randrange(64)) for j in range(3)])
            l1 = lin.q_linearized(ctx, [(j, rng.randrange(64)) for j in range(3)])
            spec = trace_form_spec(ctx, l0, l1, shift)
            f = expand_traceform(ctx, spec)
            for x in range(0, 64, 5):
                assert evaluate_poly(ctx, f, x) == _evaluate_traceform(ctx, spec, x)


def test_traceform_requires_q_linear(gf64_tower):
    ctx = gf64_tower
    bad = lin.linearized(ctx, [(1, 1)])
    with pytest.raises(NotQLinear):
        trace_form_spec(ctx, bad, lin.identity(ctx), 0)
    with pytest.raises(BadParameters):
        trace_form_spec(ctx, lin.identity(ctx), lin.identity(ctx), -1)


def test_perm_trace_form_frozen(gf64_tower):
    ctx = gf64_tower
    w = ctx.subfield_elements(2)[2]
    good = trace_form_spec(ctx, lin.q_linearized(ctx, [(0, w)]),
                           lin.identity(ctx), 1)
    assert perm_trace_form(ctx, good)
    bad = trace_form_spec(ctx, lin.identity(ctx), lin.identity(ctx), 1)
    assert not perm_trace_form(ctx, bad)


def test_perm_trace_form_vs_bruteforce(gf64_tower):
    ctx = gf64_tower
    rng = random.Random(9)
    for _ in range(40):
        l0 = lin.q_linearized(ctx, [(j, rng.randrange(64)) for j in range(3)])
        l1 = lin.q_linearized(ctx, [(j, rng.randrange(64)) for j in range(3)])
        shift = rng.randrange(3)
        spec = trace_form_spec(ctx, l0, l1, shift)
        pred = perm_trace_form(ctx, spec)
        brute = is_perm_bruteforce(ctx, expand_traceform(ctx, spec))
        assert pred == brute.is_permutation, (l0, l1, shift)


def _trace_form_gather(ctx, x_tab, y_tab, shift):
    """_trace_form_ok by F_q-membership of XOR sums, kept as the oracle."""
    xl = ctx.frob_table(shift)[x_tab]
    in_fq = ctx.subfield_mask(ctx.m)
    branch1 = in_fq[x_tab] & ((ctx.frob_table(1)[y_tab] ^ xl) != 0)
    dep = in_fq[xl] | in_fq[y_tab]
    for c in ctx.subfield_elements(ctx.m)[1:]:
        dep |= in_fq[y_tab ^ ctx.mul_vec(c, xl)]
    return np.all((branch1 | ~dep)[..., 1:], axis=-1)


def test_trace_form_ok_matches_gather_construction():
    # every field of at most 8 bits; tables of two entries decide one u each,
    # so both verdicts occur there, and full tables check the broadcasting
    rng = np.random.default_rng(12)
    for m, n in [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 8]:
        ctx = build_context(m, n)
        for shift in range(4):
            pairs = rng.integers(0, ctx.order, (2, 400, 2))
            got = pt._trace_form_ok(ctx, pairs[0], pairs[1], shift)
            want = _trace_form_gather(ctx, pairs[0], pairs[1], shift)
            assert got.tolist() == want.tolist(), (m, n, shift)
            if n > 1:                 # at n = 1 nearly every u passes
                assert 0 < want.sum() < want.size, (m, n, shift)
            x, y = rng.integers(0, ctx.order, (2, 2, 3, ctx.order))
            for args in ((x[0, 0], y[0, 0]), (x, y), (x[:, :1], y[:1])):
                got = pt._trace_form_ok(ctx, *args, shift)
                assert np.array_equal(got, _trace_form_gather(ctx, *args, shift))
    # past 8 bits, q >= 8: the F_q* loop of the oracle has 7 or 15 classes,
    # and random pairs rarely fail, so a third of the sampled u are
    # made dependent (Y = c * XL + f, c and f in F_q) and a third have X and
    # Y in F_q, half of them with Y^2 = XL, the branch's only failure
    for m, n in [(3, 3), (4, 2), (3, 4)]:
        ctx = build_context(m, n)
        fq = np.array(ctx.subfield_elements(m))
        for shift in range(4):
            x, y = rng.integers(0, ctx.order, (2, 3, 400, 2))
            xl = ctx.frob_table(shift)[x[1]]
            c, f = rng.choice(fq, (2, 400, 2))
            y[1] = ctx.mul_elementwise(c, xl) ^ f
            x[2], y[2] = rng.choice(fq, (2, 400, 2))
            y[2, :200] = ctx.frob_table(-1)[ctx.frob_table(shift)[x[2, :200]]]
            got = pt._trace_form_ok(ctx, x, y, shift)
            want = _trace_form_gather(ctx, x, y, shift)
            assert got.tolist() == want.tolist(), (m, n, shift)
            assert want[0].any() and not want[1].all(), (m, n, shift)
            assert 0 < want[2].sum() < want[2].size, (m, n, shift)
            x, y = rng.integers(0, ctx.order, (2, 2, 2, ctx.order))
            for args in ((x, y), (x[:, :1], y[:1])):
                got = pt._trace_form_ok(ctx, *args, shift)
                assert np.array_equal(got, _trace_form_gather(ctx, *args, shift))


@pytest.mark.parametrize("m,n", [(2, 3), (1, 5)])
def test_perm_trace_form_vs_bruteforce_on_monomial_parts(m, n):
    ctx = build_context(m, n)
    rng = random.Random(f"traceform:{m}:{n}")
    seen = set()
    for _ in range(200):
        l0 = lin.q_linearized(ctx, [(rng.randrange(n), rng.randrange(1, ctx.order))])
        l1 = lin.q_linearized(ctx, [(rng.randrange(n), rng.randrange(ctx.order))])
        spec = trace_form_spec(ctx, l0, l1, rng.randrange(4))
        pred = perm_trace_form(ctx, spec)
        assert pred == is_perm_bruteforce(ctx, expand_traceform(ctx, spec)).is_permutation
        seen.add(pred)
    assert seen == {True, False}


# ---- shifted monomial plus x Tr(x) -----------------------------------------

def test_blokhuis_instance(gf64_tower):
    ctx = gf64_tower
    w = ctx.subfield_elements(2)[2]
    w2 = ctx.subfield_elements(2)[3]
    passing = {a for a in range(1, 64) if perm_monomial_trace(ctx, a, 0, 1)}
    assert passing == {w, w2}
    for a in (1, w, w2):
        brute = is_perm_bruteforce(ctx, monomial_trace_poly(ctx, a, 0, 1))
        assert brute.is_permutation == (a != 1)


def test_monomial_trace_even_n_false(gf16_tower):
    for a in range(1, 16):
        assert not perm_monomial_trace(gf16_tower, a, 0, 1)


def test_monomial_trace_rejects(gf8):
    with pytest.raises(BadParameters):
        perm_monomial_trace(gf8, 1, -1, 0)
    with pytest.raises(BadParameters):
        perm_monomial_trace(gf8, 1, 0, -1)
    # n = 1: Tr is the identity and a = 0 gives the permutation x^2
    ctx = build_context(3, 1)
    assert is_perm_bruteforce(ctx, monomial_trace_poly(ctx, 0, 0, 0)).is_permutation
    with pytest.raises(BadParameters):
        perm_monomial_trace(ctx, 0, 0, 0)


def test_monomial_trace_vs_bruteforce(gf8):
    for k in range(3):
        for shift in range(4):
            for a in range(1, 8):
                pred = perm_monomial_trace(gf8, a, k, shift)
                brute = is_perm_bruteforce(gf8, monomial_trace_poly(gf8, a, k, shift))
                assert pred == brute.is_permutation


# ---- named families --------------------------------------------------------

def test_family_registry():
    assert set(FAMILIES) == {"tu", "abnorm", "q4", "trform", "aqk"}
    assert FAMILIES["abnorm"].exact
    assert FAMILIES["trform"].exact
    assert FAMILIES["aqk"].exact
    assert not FAMILIES["tu"].exact
    assert not FAMILIES["q4"].exact
    for fam in FAMILIES.values():
        assert fam.summary


def test_family_unknown(gf8):
    with pytest.raises(UnknownTheorem):
        family_predicate(gf8, "nope", {})


def test_tu_family(gf8):
    # only a = 1 lies in F_2^*, and the map is a permutation there
    assert family_predicate(gf8, "tu", {"a": 1})
    assert not family_predicate(gf8, "tu", {"a": 0})
    assert not family_predicate(gf8, "tu", {"a": 3})
    f = family_polynomial(gf8, "tu", {"a": 1})
    assert format_monomial(f) == "1:1,3:1,5:1"
    assert is_perm_bruteforce(gf8, f).is_permutation


def test_tu_family_subfield_coeffs(gf64_tower):
    ctx = gf64_tower
    for a in ctx.subfield_elements(2):
        pred = family_predicate(ctx, "tu", {"a": a})
        assert pred == (a != 0)
        if pred:
            f = family_polynomial(ctx, "tu", {"a": a})
            assert is_perm_bruteforce(ctx, f).is_permutation


def test_abnorm_exact_on_gf8(gf8):
    # with q = 2 every nonzero norm is 1, so only (0, 0) satisfies the balance
    sols = {(a, b) for a in range(8) for b in range(8)
            if family_predicate(gf8, "abnorm", {"a": a, "b": b})}
    assert sols == {(0, 0)}
    f = family_polynomial(gf8, "abnorm", {"a": 0, "b": 0})
    assert is_perm_bruteforce(gf8, f).is_permutation


def test_abnorm_exact_on_gf64(gf64_tower):
    ctx = gf64_tower
    for a in range(0, 64, 7):
        for b in range(64):
            pred = family_predicate(ctx, "abnorm", {"a": a, "b": b})
            f = family_polynomial(ctx, "abnorm", {"a": a, "b": b})
            assert pred == is_perm_bruteforce(ctx, f).is_permutation


def test_q4_variants(gf64_tower):
    ctx = gf64_tower
    for variant in ("binomial", "qk"):
        hits = 0
        for a in range(1, 64):
            if family_predicate(ctx, "q4", {"a": a, "variant": variant}):
                hits += 1
                f = family_polynomial(ctx, "q4", {"a": a, "variant": variant})
                assert is_perm_bruteforce(ctx, f).is_permutation
        assert hits == 14
    with pytest.raises(BadParameters):
        family_predicate(ctx, "q4", {"a": 1, "variant": "cubic"})


def test_q4_needs_q4(gf8):
    with pytest.raises(BadParameters):
        family_predicate(gf8, "q4", {"a": 1, "variant": "binomial"})


def test_trform_exact(gf64_tower):
    ctx = gf64_tower
    for k in (1, 2):
        for a in range(1, 64, 3):
            pred = family_predicate(ctx, "trform", {"a": a, "k": k})
            f = family_polynomial(ctx, "trform", {"a": a, "k": k})
            assert pred == is_perm_bruteforce(ctx, f).is_permutation


def test_aqk_exact_and_matches_tu_shape(gf8):
    for a in range(1, 8):
        pred = family_predicate(gf8, "aqk", {"a": a, "k": 1})
        f = family_polynomial(gf8, "aqk", {"a": a, "k": 1})
        assert pred == is_perm_bruteforce(gf8, f).is_permutation
    # a = 1, k = 1 expands to the same polynomial as the tu family at a = 1
    f = family_polynomial(gf8, "aqk", {"a": 1, "k": 1})
    assert format_monomial(f) == "1:1,3:1,5:1"


def test_aqk_never_permutes_at_q4(gf64_tower):
    # gcd(n, q - 1) = 3 blocks every coefficient
    ctx = gf64_tower
    for a in range(1, 64, 5):
        assert not family_predicate(ctx, "aqk", {"a": a, "k": 1})


def test_family_missing_params(gf8):
    with pytest.raises(BadParameters):
        family_predicate(gf8, "tu", {})
    with pytest.raises(BadParameters):
        family_predicate(gf8, "trform", {"a": 1})


# ---- term lists: batched terms against the plain polynomials ---------------

SMALL_FIELDS = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2)]


def _rows_of(ctx, rng, count, q_linear=False):
    """count seeded coefficient rows, at multiples of m only if q_linear."""
    rows = rng.integers(0, ctx.order, size=(count, ctx.bits))
    if q_linear:
        rows[:, np.arange(ctx.bits) % ctx.m != 0] = 0
    return rows


def _lin(ctx, row):
    return lin.linearized(ctx, enumerate(row.tolist()))


def _assert_rows_match(ctx, terms, polys):
    """Row r of the batched values of terms is the value table of polys[r]
    (polys may be nested lists, one level per batch axis)."""
    values = pt.evaluate_poly_all(ctx, terms)
    want = np.array([[evaluate_poly_all(ctx, f) for f in row] if isinstance(row, list)
                     else evaluate_poly_all(ctx, row) for row in polys])
    assert values.shape == want.shape
    assert np.array_equal(values, want)


def _family_extras(fam, n):
    """The scalar parameters of a family's campaign units."""
    if "k" in fam.params:
        return [{"k": k} for k in range(1, n)]
    if "variant" in fam.params:
        return [{"variant": v} for v in ("binomial", "qk")]
    return [{}]


@pytest.mark.parametrize("m,n", SMALL_FIELDS, ids=lambda v: str(v))
def test_family_terms_match_family_polynomial(m, n):
    ctx = build_context(m, n)
    rng = np.random.default_rng(ctx.bits * 8 + n)
    a, b = rng.integers(1, ctx.order, size=(2, 12))
    checked = 0
    for name, fam in FAMILIES.items():
        for extra in _family_extras(fam, n):
            try:
                fam.check(ctx)
                terms = fam.terms(ctx, {"a": a, "b": b, **extra})
            except BadParameters:       # the family does not live on this field
                continue
            polys = [family_polynomial(ctx, name, {**extra, "a": int(x), "b": int(y)})
                     for x, y in zip(a, b)]
            _assert_rows_match(ctx, terms, polys)
            checked += 1
    # on 2:3 every family applies: tu, abnorm, q4 twice, trform and aqk for k = 1, 2
    assert checked == 8 if (m, n) == (2, 3) else checked >= 1


@pytest.mark.parametrize("m,n", SMALL_FIELDS, ids=lambda v: str(v))
def test_gold_and_monomial_trace_terms_match_their_polynomials(m, n):
    ctx = build_context(m, n)
    rng = np.random.default_rng(ctx.bits * 8 + n)
    rows = _rows_of(ctx, rng, 10)
    for k in gold_ks(n):
        _assert_rows_match(ctx, pt.gold_terms(ctx, k, lin.pairs(ctx, rows)),
                           [gold_poly(ctx, k, _lin(ctx, row)) for row in rows])
    a = rng.integers(0, ctx.order, size=10)
    for k in range(n + 1):
        for shift in range(4):
            _assert_rows_match(ctx, pt.monomial_trace_terms(ctx, a, k, shift),
                               [monomial_trace_poly(ctx, int(x), k, shift) for x in a])


@pytest.mark.parametrize("m,n", SMALL_FIELDS, ids=lambda v: str(v))
def test_traceform_terms_match_expand_traceform(m, n):
    # L0 rows along one batch axis and L1 rows along another, as thm_tr
    # pairs them: the values have both axes
    ctx = build_context(m, n)
    rng = np.random.default_rng(ctx.bits * 8 + n)
    l0, l1 = _rows_of(ctx, rng, 4, True), _rows_of(ctx, rng, 5, True)
    for shift in range(3):
        terms = pt.traceform_terms(ctx, lin.pairs(ctx, l0[:, None]), lin.pairs(ctx, l1),
                                   shift)
        _assert_rows_match(ctx, terms, [
            [expand_traceform(ctx, trace_form_spec(ctx, _lin(ctx, r0), _lin(ctx, r1), shift))
             for r1 in l1] for r0 in l0])
