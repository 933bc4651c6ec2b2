"""Character sums S(L) = sum chi(v L(v)) and quadratic form classification."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from charperm import (
    bilinear_psi_sum,
    build_context,
    classify_form,
    polar_poly,
    quad_value,
    s_bruteforce,
    s_fast,
    s_zero_binomial,
    s_zero_quadratic_ext,
)
from charperm import charsum
from charperm import linearized as lin
from charperm.errors import (
    BadParameters,
    NotInSubfield,
    NotQLinear,
    WrongDegree,
)

OMEGA = 0b10


def test_frozen_sums_gf4(gf4):
    # S(x) = 0: the polar form vanishes but v^2 has nonzero trace somewhere
    assert s_bruteforce(gf4, lin.identity(gf4)) == 0
    # S(w x^2) = -2 and S(x^2) = +4
    assert s_bruteforce(gf4, lin.linearized(gf4, [(1, OMEGA)])) == -2
    assert s_bruteforce(gf4, lin.linearized(gf4, [(1, 1)])) == 4


def test_s_fast_matches_frozen(gf4):
    rep = s_fast(gf4, lin.linearized(gf4, [(1, OMEGA)]))
    assert rep.s_value == -2
    assert rep.form_type == "minus"
    rep = s_fast(gf4, lin.linearized(gf4, [(1, 1)]))
    assert rep.s_value == 4
    assert rep.form_type == "plus"
    assert rep.vanishes_on_kernel
    rep = s_fast(gf4, lin.identity(gf4))
    assert rep.s_value == 0
    assert rep.form_type == "zero-sum"
    assert not rep.vanishes_on_kernel


def test_zero_poly_sum_is_order(gf8):
    rep = s_fast(gf8, lin.zero(gf8))
    assert rep.s_value == 8
    assert rep.form_type == "plus"
    assert rep.kernel_dim_fq == 3
    assert s_bruteforce(gf8, lin.zero(gf8)) == 8


def test_s_fast_requires_q_linear(gf64_tower):
    with pytest.raises(NotQLinear):
        s_fast(gf64_tower, lin.linearized(gf64_tower, [(1, 1)]))


def test_s_fast_vs_bruteforce_exhaustive_binomials(gf16_tower):
    ctx = gf16_tower
    for a in range(16):
        for b in range(16):
            poly = lin.q_linearized(ctx, [(1, a), (0, b)])
            assert s_fast(ctx, poly).s_value == s_bruteforce(ctx, poly)


def test_s_values_are_constrained(gf16):
    # S = 0 or S^2 = 2^N * |kernel of the polar form|
    rng = random.Random(1)
    for _ in range(60):
        poly = lin.q_linearized(gf16, [(i, rng.randrange(16)) for i in range(4)])
        rep = s_fast(gf16, poly)
        if rep.s_value:
            assert rep.s_value * rep.s_value == 16 << rep.kernel_dim_fq


def test_quad_value_and_polar(gf16):
    rng = random.Random(2)
    poly = lin.linearized(gf16, [(i, rng.randrange(16)) for i in range(4)])
    polar = polar_poly(gf16, poly)
    for u in range(16):
        for v in range(16):
            bil = (quad_value(gf16, poly, u ^ v)
                   ^ quad_value(gf16, poly, u) ^ quad_value(gf16, poly, v))
            direct = gf16.trace_to(gf16.mul(u, lin.evaluate(gf16, polar, v)), 1)
            assert bil == direct


def test_classify_cross_check(gf16):
    rng = random.Random(4)
    for _ in range(25):
        poly = lin.q_linearized(gf16, [(i, rng.randrange(16)) for i in range(4)])
        assert classify_form(gf16, poly).s_value == s_bruteforce(gf16, poly)


def test_classify_rank_and_type(gf4):
    rep = classify_form(gf4, lin.linearized(gf4, [(1, 1)]))
    assert rep.rank == 0          # Tr(v * v^2) = Tr(N(v)) = 0 identically on GF(4)
    rep = classify_form(gf4, lin.identity(gf4))
    assert rep.rank % 2 == 1      # defective forms have odd rank
    assert rep.form_type == "zero-sum"


def test_quadratic_ext_criterion_exhaustive():
    for m in (1, 2, 3):
        ctx = build_context(m, 2)
        for a in range(ctx.order):
            for b in range(ctx.order):
                poly = lin.q_linearized(ctx, [(1, a), (0, b)])
                assert s_zero_quadratic_ext(ctx, a, b) == (
                    s_bruteforce(ctx, poly) == 0)


def test_quadratic_ext_wrong_degree(gf8):
    with pytest.raises(WrongDegree):
        s_zero_quadratic_ext(gf8, 1, 1)


def test_binomial_criterion_odd_n():
    for (m, n) in ((1, 3), (1, 5), (2, 3)):
        ctx = build_context(m, n)
        ks = [k for k in range(1, n) if 2 * k < n and math.gcd(k, n) == 1]
        for k in ks:
            for a in range(0, ctx.order, max(ctx.order // 16, 1)):
                for b in range(0, ctx.order, max(ctx.order // 16, 1)):
                    poly = lin.q_linearized(ctx, [(k, a), (0, b)])
                    assert s_zero_binomial(ctx, a, b, k) == (
                        s_bruteforce(ctx, poly) == 0), (m, n, k, a, b)


def test_binomial_criterion_frozen(gf8):
    assert s_zero_binomial(gf8, 1, 0, 1)          # S(v -> v * v^2) = 0 on GF(8)
    assert s_zero_binomial(gf8, 0, 5, 1)          # pure b-part, b != 0
    assert not s_zero_binomial(gf8, 0, 0, 1)      # zero poly sums to the order


def test_binomial_criterion_rejects_bad_k(gf8):
    with pytest.raises(BadParameters):
        s_zero_binomial(gf8, 1, 1, 0)
    with pytest.raises(BadParameters):
        s_zero_binomial(gf8, 1, 1, 2)             # 2k = 4 > n = 3
    ctx = build_context(1, 4)
    with pytest.raises(BadParameters):
        s_zero_binomial(ctx, 1, 1, 2)             # gcd(2, 4) != 1


def test_binomial_even_n_gap_documented():
    # the stated even-n criterion diverges from the true sum on a known set
    ctx = build_context(1, 4)
    divergent = set()
    for a in range(16):
        for b in range(16):
            poly = lin.q_linearized(ctx, [(1, a), (0, b)])
            if s_zero_binomial(ctx, a, b, 1) != (s_bruteforce(ctx, poly) == 0):
                divergent.add((a, b))
    predicted = {
        (a, b)
        for a in range(1, 16)
        if ctx.pow(a, 5) != 1
        for b in range(16)
        if b ^ ctx.mul(ctx.pow(b, 4), ctx.pow(a, -2)) != 0
    }
    assert divergent == predicted
    assert len(divergent) == 150


def test_bilinear_psi_sum_frozen():
    ctx = build_context(1, 1)
    assert bilinear_psi_sum(ctx, 0, 0) == 2
    assert bilinear_psi_sum(ctx, 1, 1) == -2
    assert bilinear_psi_sum(ctx, 1, 0) == 2


def test_bilinear_psi_sum_identity():
    for m in (1, 2, 3):
        ctx = build_context(m, 1)
        for a in ctx.subfield_elements(m):
            for b in ctx.subfield_elements(m):
                assert bilinear_psi_sum(ctx, a, b) == ctx.psi(ctx.mul(a, b)) * ctx.q


def test_bilinear_psi_sum_rejects_big_field(gf64_tower):
    with pytest.raises(NotInSubfield):
        bilinear_psi_sum(gf64_tower, gf64_tower.generator, 0)


# ---- s_bruteforce against the literal sum ----------------------------------

def _literal_sum(ctx, poly):
    """sum of chi(v * L(v)) over every element, one scalar term at a time."""
    return sum(ctx.chi(ctx.mul(v, lin.evaluate(ctx, poly, v))) for v in range(ctx.order))


def _gather_sum(ctx, poly):
    """The full sum by lookups: chi_table at the products v * L(v)."""
    prods = ctx.mul_elementwise(ctx.elements, lin.evaluate_all(ctx, poly))
    return int(ctx.chi_table[prods].sum(dtype=np.int64))


FIELDS_TO_8_BITS = [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 8]


# (m, n, block bits): every field at the default block size, and the fields
# up to 8 bits again in blocks of 2 and 8 inputs, so that they run through
# many blocks of s_bruteforce
BRUTE_CASES = [pytest.param(m, n, None, id=f"{m}-{n}")
               for m, n in FIELDS_TO_8_BITS + [(3, 4), (6, 2), (4, 4), (4, 5)]] + [
    pytest.param(m, n, b, id=f"{m}-{n}-B{b}")
    for b in (1, 3) for m, n in FIELDS_TO_8_BITS]


@pytest.mark.parametrize("m,n,block_bits", BRUTE_CASES)
def test_s_bruteforce_matches_reference_sum(monkeypatch, m, n, block_bits):
    """Against the scalar sum up to 8 bits, the chi_table gather above; on
    q-linear polynomials, 2-linear ones off the q-power support (m > 1) and
    a (2, 3, bits) stack."""
    if block_bits is not None:
        monkeypatch.setattr(charsum, "_BLOCK_BITS", block_bits)
    ctx = build_context(m, n)
    reference = _literal_sum if ctx.bits <= 8 else _gather_sum
    rng = random.Random(f"{m}:{n}")
    polys = [lin.zero(ctx), lin.identity(ctx)] + [
        lin.q_linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(ctx.n)])
        for _ in range(2)]
    if m > 1:
        polys += [lin.linearized(ctx, [(i, rng.randrange(1, ctx.order))
                                       for i in rng.sample(range(ctx.bits), 2)])
                  for _ in range(2)]
        assert not all(p.q_linear for p in polys)
    for poly in polys:
        got = s_bruteforce(ctx, poly)
        assert type(got) is int and got == reference(ctx, poly)
    rows = np.array([[rng.randrange(ctx.order) for _ in range(ctx.bits)]
                     for _ in range(6)], dtype=np.int64).reshape(2, 3, ctx.bits)
    got = s_bruteforce(ctx, rows)
    assert got.dtype == np.int64 and got.shape == (2, 3)
    assert got.tolist() == [[reference(ctx, lin.linearized(ctx, enumerate(r)))
                             for r in block] for block in rows.tolist()]


def test_s_fast_reaches_kernel_check_on_20_bits(monkeypatch):
    """On 4:5 the forms with S != 0 go through the kernel criterion: the
    zero form, whose kernel is the whole field, and seeded q-linear forms."""
    ctx = build_context(4, 5)
    rng = random.Random(20)
    polys = [lin.zero(ctx)]
    while len(polys) < 4:
        poly = lin.q_linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(ctx.n)])
        if s_bruteforce(ctx, poly):
            polys.append(poly)
    calls = []
    real_kernel = lin.kernel

    def counting_kernel(ctx, poly, **kw):
        calls.append(poly)
        return real_kernel(ctx, poly, **kw)

    monkeypatch.setattr(lin, "kernel", counting_kernel)
    for poly in polys:
        assert s_fast(ctx, poly).s_value == s_bruteforce(ctx, poly) != 0
    assert len(calls) == len(polys)
    rows = np.array([p.coeffs for p in polys], dtype=np.int64)
    assert s_fast(ctx, rows).s_value.tolist() == s_bruteforce(ctx, rows).tolist()
    assert len(calls) == len(polys) + 1


def test_s_bruteforce_holds_no_whole_field_table():
    """A warm call on 4:5 peaks under 2 MB of traced allocation, for one
    form and for a 4-row stack: a single 2^20-entry int32 value table is
    4 MB."""
    ctx = build_context(4, 5)
    ctx.chi_index_table
    rng = random.Random(22)
    poly = lin.q_linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(ctx.n)])
    rows = np.zeros((4, ctx.bits), dtype=np.int64)
    rows[:, ::ctx.m] = [[rng.randrange(ctx.order) for _ in range(ctx.n)] for _ in range(4)]
    for arg in (poly, rows):
        want = s_bruteforce(ctx, arg)
        tracemalloc.start()
        try:
            got = s_bruteforce(ctx, arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 2 << 20, peak


# ---- the scalar route against stacks, and its evaluation count -------------

def _report(rep):
    return (rep.kernel_dim_fq, rep.vanishes_on_kernel, rep.s_value,
            rep.form_type, rep.rank)


def _scalar_reports(ctx, polys):
    return [(_report(classify_form(ctx, p)), _report(s_fast(ctx, p))) for p in polys]


def _assert_scalar_route_matches_stacks(ctx, polys):
    """Scalar classify_form and s_fast equal each other, the reports of
    the one stack of all polys row by row, and s_bruteforce, on one
    polynomial and on the stack."""
    rows = np.array([p.coeffs for p in polys], dtype=np.int64)
    full_rows, fast_rows = (
        list(zip(*(np.asarray(f, dtype=object).tolist() for f in _report(rep))))
        for rep in (classify_form(ctx, rows), s_fast(ctx, rows)))
    brute = s_bruteforce(ctx, rows).tolist()
    for r, (full, fast) in enumerate(_scalar_reports(ctx, polys)):
        assert full == fast == full_rows[r] == fast_rows[r]
        assert full[2] == brute[r] == s_bruteforce(ctx, polys[r])


@pytest.mark.parametrize("m,n", [(2, 2), (1, 3), (3, 2)], ids=lambda v: str(v))
def test_scalar_route_matches_stacks_on_every_q_linear_form(m, n):
    ctx = build_context(m, n)
    polys = [lin.q_linearized(ctx, enumerate(coeffs))
             for coeffs in itertools.product(range(ctx.order), repeat=n)]
    _assert_scalar_route_matches_stacks(ctx, polys)


@pytest.mark.parametrize("m,n,count", [(2, 8, 24), (4, 5, 6)], ids=["2:8", "4:5"])
def test_scalar_route_matches_stacks_on_seeded_forms(m, n, count):
    """Seeded forms and the zero form, whose S != 0 reaches the kernel
    check.  On 4:5 the scalar route runs twice: bit-serially on a fresh
    context, which builds no exp/log table, and by lookups on one that
    holds them and whose bit-serial multiply raises."""
    ctx = build_context(m, n)
    rng = random.Random(f"scalar:{m}:{n}")
    polys = [lin.zero(ctx)] + [
        lin.q_linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(n)])
        for _ in range(count)]
    if ctx.bits > 16:
        serial = build_context(m, n)
        bit_serial = _scalar_reports(serial, polys)
        assert ("log_table",) not in serial._caches
        ctx.log_table
        ctx._mul_serial = _bit_serial_disabled
        assert _scalar_reports(ctx, polys) == bit_serial
    _assert_scalar_route_matches_stacks(ctx, polys)


def _bit_serial_disabled(*_):
    raise AssertionError("a scalar operation took the bit-serial route")


def test_classify_form_evaluates_each_map_once_per_basis_vector(monkeypatch):
    # L and its polar map at each of the n F_q-basis vectors, 2n calls in
    # all, however many hyperbolic planes the reduction splits off; s_fast
    # takes the kernel of its polar map from the same images (the zero form
    # and x^(q^4) have S != 0)
    ctx = build_context(2, 8)
    rng = random.Random(28)
    polys = [lin.zero(ctx), lin.q_linearized(ctx, [(4, 1)])] + [
        lin.q_linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(ctx.n)])
        for _ in range(6)]
    want = [s_bruteforce(ctx, p) for p in polys]
    calls = []
    evaluate = lin.evaluate

    def counted(ctx, poly, x):
        calls.append(x)
        return evaluate(ctx, poly, x)

    monkeypatch.setattr(lin, "evaluate", counted)
    for poly, s_value in zip(polys, want):
        for fn in (classify_form, s_fast):
            calls.clear()
            assert fn(ctx, poly).s_value == s_value
            assert len(calls) == 2 * ctx.n
