"""Field contexts: scalar arithmetic, subfields, characters, tables."""

import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charperm import (
    BadParameters,
    DivisionByZero,
    InvalidModulus,
    InvalidSubfield,
    NotInSubfield,
    SizeGuard,
    build_context,
    classify_form,
    gf2,
    quad_value,
    s_fast,
    walsh_hadamard,
)
from charperm import linearized as lin

OMEGA = 0b10  # generator of GF(4) with modulus x^2 + x + 1


def test_default_moduli():
    assert build_context(1, 2).modulus == 0b111
    assert build_context(1, 3).modulus == 0b1011
    assert build_context(1, 4).modulus == 0b10011
    assert build_context(2, 3).modulus == 0x43


def test_bad_modulus():
    with pytest.raises(InvalidModulus):
        build_context(1, 2, 0b110)       # reducible
    with pytest.raises(InvalidModulus):
        build_context(1, 2, 0b1011)      # wrong degree
    with pytest.raises(InvalidModulus):
        build_context(1, 3, 0b111)


def test_size_guard_on_build():
    with pytest.raises(SizeGuard):
        build_context(1, 30)
    # raising the cap admits the field; scalar arithmetic needs no tables
    ctx = build_context(1, 30, size_cap=30)
    assert ctx.bits == 30
    a = 3
    assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.frobenius(ctx.frobenius(a, 15), 15) == a


def test_gf4_frozen_values(gf4):
    w = OMEGA
    assert gf4.mul(w, w) == 0b11            # w^2 = w + 1
    assert gf4.pow(w, 3) == 1
    assert gf4.inv(w) == 0b11
    assert gf4.trace_to(w, 1) == 1
    assert gf4.norm_to(w, 1) == 1
    assert gf4.chi(0) == 1
    assert gf4.chi(1) == 1
    assert gf4.chi(w) == -1
    assert gf4.chi(0b11) == -1


def test_add_is_xor(gf8):
    for a in range(8):
        for b in range(8):
            assert gf8.add(a, b) == a ^ b


def test_mul_group(gf8):
    # nonzero elements form a cyclic group of order 7
    for a in range(1, 8):
        assert gf8.pow(a, 7) == 1
        assert gf8.mul(a, gf8.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        gf8.inv(0)
    with pytest.raises(DivisionByZero):
        gf8.pow(0, -1)
    assert gf8.pow(0, 5) == 0
    assert gf8.pow(3, 0) == 1


def test_frobenius_is_field_automorphism(gf64_tower):
    ctx = gf64_tower
    for a in (0, 1, 5, 0x3a, 0x21):
        for b in (1, 2, 0x3b, 0x1f):
            assert ctx.frobenius(ctx.mul(a, b), 2) == ctx.mul(
                ctx.frobenius(a, 2), ctx.frobenius(b, 2))
            assert ctx.frobenius(a ^ b, 3) == ctx.frobenius(a, 3) ^ ctx.frobenius(b, 3)
    # order of Frobenius divides the extension degree
    for a in range(64):
        assert ctx.frobenius(a, 6) == a


def test_trace_norm_land_in_subfield(gf64_tower):
    ctx = gf64_tower
    for a in range(64):
        assert ctx.in_subfield(ctx.trace_to(a, 2), 2)
        assert ctx.in_subfield(ctx.norm_to(a, 2), 2)
    # trace is F_q-linear, norm is multiplicative
    for a in (3, 0x17, 0x3a):
        for b in (1, 9, 0x2c):
            assert ctx.trace_to(a ^ b, 2) == ctx.trace_to(a, 2) ^ ctx.trace_to(b, 2)
            assert ctx.norm_to(ctx.mul(a, b), 2) == ctx.mul(
                ctx.norm_to(a, 2), ctx.norm_to(b, 2))


def test_trace_transitivity(gf64_tower):
    # Tr to GF(2) factors through Tr to GF(4)
    ctx = gf64_tower
    for a in range(64):
        inner = ctx.trace_to(a, 2)
        assert ctx.trace_to(a, 1) == ctx.subfield_abs_trace(inner, 2)


def test_subfield_structure(gf64_tower):
    ctx = gf64_tower
    sub = ctx.subfield_elements(2)
    assert len(sub) == 4
    assert 0 in sub and 1 in sub
    for a in sub:
        for b in sub:
            assert ctx.mul(a, b) in sub
            assert (a ^ b) in sub
    with pytest.raises(InvalidSubfield):
        ctx.subfield_elements(4)


@pytest.mark.parametrize("m,n", [(2, 3), (1, 6)])
def test_subfield_mask_only_for_subfields(m, n):
    # sub_m is read modulo bits, 0 standing for the whole field; a residue
    # that does not divide bits is no subfield, as for trace_table (on 2:3,
    # subfield_mask(4) used to return the mask of GF(4))
    ctx = build_context(m, n)
    for sub_m in (1, 2, 3, 6, 0, 2 + ctx.bits, -4):
        mask = ctx.subfield_mask(sub_m)
        size = 1 << ((sub_m % ctx.bits) or ctx.bits)
        assert mask.tolist() == [ctx.frobenius(v, sub_m) == v for v in range(ctx.order)]
        assert int(mask.sum()) == size
        if size < ctx.order:
            assert np.flatnonzero(mask).tolist() == list(ctx.subfield_elements(sub_m % ctx.bits))
    for sub_m in (4, 5, 4 + ctx.bits, -1):
        with pytest.raises(InvalidSubfield):
            ctx.subfield_mask(sub_m)
        with pytest.raises(InvalidSubfield):
            ctx.trace_table(sub_m)


def test_subfield_basis_and_coordinates(gf64_tower):
    # 1, x, x^2 is an F_q-basis: the combinations with coordinates in F_q
    # give every element exactly once
    ctx = gf64_tower
    basis = ctx.fq_basis
    assert basis == (1, 2, 4)
    sums = []
    for coords in itertools.product(ctx.subfield_elements(2), repeat=3):
        acc = 0
        for c, b in zip(coords, basis):
            acc ^= ctx.mul(c, b)
        sums.append(acc)
    assert sorted(sums) == list(range(ctx.order))


def test_fq_linear_independence(gf64_tower):
    ctx = gf64_tower
    assert ctx.fq_linearly_independent([1, ctx.generator])
    w = ctx.subfield_elements(2)[2]
    assert not ctx.fq_linearly_independent([1, w])


def test_psi_and_subfield_trace(gf64_tower):
    ctx = gf64_tower
    for a in ctx.subfield_elements(2):
        assert ctx.psi(a) in (-1, 1)
        assert ctx.psi(a) == (-1) ** ctx.subfield_abs_trace(a, 2)
    with pytest.raises(NotInSubfield):
        ctx.psi(ctx.generator)


def test_chi_sums_to_zero(gf16):
    # a nontrivial character sums to zero over the group
    assert sum(gf16.chi(a) for a in range(16)) == 0
    assert int(gf16.chi_table.sum()) == 0


def test_tables_match_scalars(gf64_tower):
    ctx = gf64_tower
    els = ctx.elements
    assert els.shape == (64,)
    for a in (0, 1, 7, 0x3a):
        np.testing.assert_array_equal(
            ctx.mul_vec(a, els), np.array([ctx.mul(a, v) for v in range(64)]))
    np.testing.assert_array_equal(
        ctx.frob_table(2), np.array([ctx.frobenius(v, 2) for v in range(64)]))
    np.testing.assert_array_equal(
        ctx.trace_table(2), np.array([ctx.trace_to(v, 2) for v in range(64)]))
    np.testing.assert_array_equal(
        ctx.chi_table, np.array([ctx.chi(v) for v in range(64)]))
    np.testing.assert_array_equal(
        ctx.frob_table(1), np.array([ctx.mul(v, v) for v in range(64)]))


def test_pow_vec(gf16):
    ctx = gf16
    els = ctx.elements
    np.testing.assert_array_equal(
        ctx.pow_vec(els, 3), np.array([ctx.pow(v, 3) for v in range(16)]))
    np.testing.assert_array_equal(ctx.pow_vec(els, 0), np.ones(16, dtype=els.dtype))
    with pytest.raises(DivisionByZero):
        ctx.pow_vec(els, -2)
    nz = els[1:]
    np.testing.assert_array_equal(
        ctx.pow_vec(nz, -2), np.array([ctx.pow(v, -2) for v in range(1, 16)]))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3), (4, 4)], ids=lambda v: str(v))
def test_vector_ops_with_zero_operands(m, n):
    # log_table[0] is a sentinel into the zero tail of exp_table: every
    # product with a zero factor must come out 0, in every shape
    ctx = build_context(m, n)
    rng = np.random.default_rng(ctx.bits)
    x = rng.integers(0, ctx.order, 40)
    x[:5] = 0
    x[5] = ctx.order - 1
    want = np.array([[ctx.mul(a, b) for b in x] for a in x])
    np.testing.assert_array_equal(ctx.mul_elementwise(x[:, None], x), want)
    np.testing.assert_array_equal(ctx.mul_elementwise(x, x[:, None]), want.T)
    np.testing.assert_array_equal(ctx.mul_elementwise(x, x), np.diag(want))
    np.testing.assert_array_equal(ctx.mul_elementwise(np.zeros_like(x), x), 0 * x)
    assert int(ctx.mul_elementwise(np.array(0), np.array(0))) == 0
    for a in (0, 1, int(x[6])):
        row = [ctx.mul(a, v) for v in x]
        np.testing.assert_array_equal(ctx.mul_vec(a, x), row)
        np.testing.assert_array_equal(ctx.mul_vec(a, x.reshape(5, 8)), np.reshape(row, (5, 8)))
    for e in (0, 1, 2, 3, ctx.group_order, ctx.group_order + 1, 7 * ctx.order):
        np.testing.assert_array_equal(ctx.pow_vec(x, e), [ctx.pow(v, e) for v in x])
    assert ctx.pow_vec(np.zeros(3, dtype=np.int64), 0).tolist() == [1, 1, 1]
    assert ctx.pow_vec(np.zeros(3, dtype=np.int64), 5).tolist() == [0, 0, 0]
    for e in (-1, -2, -ctx.order):
        with pytest.raises(DivisionByZero):
            ctx.pow_vec(x, e)
        nz = x[x != 0]
        np.testing.assert_array_equal(ctx.pow_vec(nz, e), [ctx.pow(v, e) for v in nz])


def test_exp_log_consistency(gf8):
    ctx = gf8
    g = ctx.generator
    for e in range(7):
        v = ctx.pow(g, e)
        assert ctx.log_table[v] == e
    assert ctx.exp_table[3] == ctx.pow(g, 3)


def test_generator_has_full_order(gf64_tower):
    ctx = gf64_tower
    g = ctx.generator
    seen = set()
    x = 1
    for _ in range(63):
        seen.add(x)
        x = ctx.mul(x, g)
    assert len(seen) == 63


def test_walsh_hadamard_matches_direct():
    rng = np.random.default_rng(5)
    vec = rng.integers(-3, 4, size=16)
    out = walsh_hadamard(vec)
    for s in range(16):
        direct = sum(
            int(vec[w]) * ((-1) ** bin(s & w).count("1")) for w in range(16))
        assert out[s] == direct


def test_walsh_hadamard_rejects_length_not_power_of_two():
    with pytest.raises(BadParameters):
        walsh_hadamard([1, 2, 3])
    with pytest.raises(BadParameters):
        walsh_hadamard(np.zeros((4, 6), dtype=np.int64))


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 3, 8), (5, 64), (1, 4096)])
def test_walsh_hadamard_of_a_stack_is_each_row_transformed(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    stack = rng.integers(-50, 50, size=shape)
    before = stack.copy()
    out = walsh_hadamard(stack)
    assert out.shape == shape and out.dtype == np.int64
    rows = stack.reshape(-1, shape[-1])
    want = np.array([walsh_hadamard(row) for row in rows]).reshape(shape)
    assert np.array_equal(out, want)
    assert np.array_equal(stack, before)        # the input is not written


def test_chi_index_table_routes_sums(gf8):
    # row u of the transformed histogram equals sum_v chi(u * f(v))
    ctx = gf8
    values = ctx.pow_vec(ctx.elements, 6)  # f(v) = v^6, not a permutation
    hist = np.bincount(values, minlength=ctx.order)
    spectrum = walsh_hadamard(hist)
    sums = spectrum[ctx.chi_index_table]
    for u in range(8):
        direct = sum(ctx.chi(ctx.mul(u, int(values[v]))) for v in range(8))
        assert sums[u] == direct


# ---- an oracle independent of the context's tables --------------------------

def oracle_mul(ctx, a, b):
    return gf2.poly_mulmod(a, b, ctx.modulus)


def oracle_pow(ctx, a, e):
    """a^e for a != 0 by square-and-multiply on gf2.poly_mulmod."""
    e %= ctx.group_order
    r = 1
    while e:
        if e & 1:
            r = oracle_mul(ctx, r, a)
        a = oracle_mul(ctx, a, a)
        e >>= 1
    return r


def oracle_frobenius(ctx, a, k):
    for _ in range(k % ctx.bits):
        a = oracle_mul(ctx, a, a)
    return a


def oracle_trace(ctx, a, d):
    r = 0
    for _ in range(ctx.bits // d):
        r ^= a
        a = oracle_frobenius(ctx, a, d)
    return r


def oracle_chi(ctx, a):
    return 1 - 2 * oracle_trace(ctx, a, 1)


# ---- every table against its scalar definition -----------------------------

SMALL_FIELDS = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


def _assert_table(table, expected, length):
    assert table.dtype == np.int32 and table.shape == (length,)
    np.testing.assert_array_equal(table, np.array(expected, dtype=np.int64))


@pytest.mark.parametrize("m,n", SMALL_FIELDS, ids=lambda v: str(v))
def test_every_table_matches_scalars_exhaustively(m, n):
    ctx = build_context(m, n)
    order, go, bits = ctx.order, max(ctx.group_order, 1), ctx.bits
    # frobs[k][v] = v^(2^k) by k oracle squarings
    frobs = [list(range(order))]
    for _ in range(bits - 1):
        frobs.append([oracle_mul(ctx, v, v) for v in frobs[-1]])
    for k in range(bits):
        _assert_table(ctx.frob_table(k), frobs[k], order)
    for d in range(1, bits + 1):
        if bits % d == 0:
            expected = [0] * order
            for i in range(bits // d):
                expected = [t ^ f for t, f in zip(expected, frobs[d * i])]
            _assert_table(ctx.trace_table(d), expected, order)
    powers, t = [], 1
    for _ in range(go):
        powers.append(t)
        t = oracle_mul(ctx, t, ctx.generator)
    assert t == 1 and len(set(powers)) == go
    _assert_table(ctx.exp_table, powers + powers + [0] * (2 * go + 1), 4 * go + 1)
    logs = [2 * go] * order
    for i, p in enumerate(powers):
        logs[p] = i
    _assert_table(ctx.log_table, logs, order)
    # chis[v] = (-1)^(absolute trace of v), the trace summed from frobs
    chis = [1] * order
    for k in range(bits):
        chis = [c * (1 - 2 * (f & 1)) for c, f in zip(chis, frobs[k])]
    np.testing.assert_array_equal(ctx.chi_table, chis)
    assert [ctx.chi(v) for v in range(order)] == chis
    # chi(u * w) = (-1)^popcount(s_u & w): both sides are characters in w,
    # so the unit vectors w = 1 << i decide it
    idx = ctx.chi_index_table
    assert idx.dtype == np.int32 and idx.shape == (order,)
    for u in range(order):
        s = int(idx[u])
        for i in range(bits):
            assert chis[oracle_mul(ctx, u, 1 << i)] == 1 - 2 * ((s >> i) & 1)
            assert ctx.chi(ctx.mul(u, 1 << i)) == 1 - 2 * ((s >> i) & 1)


MID_FIELDS = [(13, 1), (7, 2), (5, 3), (4, 4), (1, 17), (6, 3), (19, 1), (4, 5)]


def test_tables_match_scalars_on_random_elements_13_to_20_bits():
    contexts = {}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(MID_FIELDS), data=st.data())
    def check(field, data):
        if field not in contexts:
            contexts[field] = build_context(*field)
        ctx = contexts[field]
        v = data.draw(st.integers(0, ctx.order - 1), label="v")
        w = data.draw(st.integers(0, ctx.order - 1), label="w")
        i = data.draw(st.integers(0, ctx.group_order - 1), label="i")
        k = data.draw(st.sampled_from((1, ctx.m, ctx.bits - 1)), label="k")
        assert ctx.frob_table(k)[v] == ctx.frobenius(v, k) == oracle_frobenius(ctx, v, k)
        for d in (1, ctx.m):
            assert ctx.trace_table(d)[v] == ctx.trace_to(v, d) == oracle_trace(ctx, v, d)
        g_i = oracle_pow(ctx, ctx.generator, i)
        assert ctx.pow(ctx.generator, i) == g_i
        assert ctx.exp_table[i] == ctx.exp_table[i + ctx.group_order] == g_i
        assert ctx.log_table[g_i] == i
        assert ctx.chi_table[v] == ctx.chi(v) == oracle_chi(ctx, v)
        s = int(ctx.chi_index_table[v])
        vw = oracle_mul(ctx, v, w)
        assert ctx.mul(v, w) == vw
        assert ctx.chi(vw) == oracle_chi(ctx, vw) == 1 - 2 * ((s & w).bit_count() & 1)

    check()


def test_24_bit_tables_smoke():
    ctx = build_context(8, 3)
    sqr, tr = ctx.frob_table(1), ctx.trace_table(8)
    for table in (sqr, tr):
        assert table.dtype == np.int32 and table.shape == (1 << 24,)
    rng = random.Random(24)
    for v in [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(197)]:
        assert sqr[v] == ctx.mul(v, v)
        assert tr[v] == ctx.trace_to(v, 8)
    # the scalar calls above are bit-serial: no exp/log table was built, and
    # the one cache holds the two tables and the basis the constructor used
    assert set(ctx._caches) == {("frob_table", 1), ("trace_table", 8),
                                ("subfield_basis", 8)}


def _every_accessor(ctx):
    """Each cached accessor of ctx once."""
    return [ctx.trace_mask, ctx.generator, ctx.elements, ctx.exp_table,
            ctx.log_table, ctx.chi_table, ctx.chi_index_table, ctx.frob_table(1),
            ctx.trace_table(ctx.m), ctx.subfield_mask(ctx.m),
            ctx.subfield_basis(ctx.m), ctx.subfield_elements(ctx.m)]


def test_one_cache_returns_the_same_objects():
    ctx = build_context(4, 4)
    first = _every_accessor(ctx)
    cached = dict(ctx._caches)
    again = _every_accessor(ctx)
    assert all(a is b for a, b in zip(first, again))
    assert set(ctx._caches) == set(cached)
    assert all(ctx._caches[key] is value for key, value in cached.items())


def test_frobenius_tables_share_one_entry_per_k_mod_bits():
    ctx = build_context(2, 3)
    assert ctx.frob_table(2) is ctx.frob_table(2 + ctx.bits) is ctx.frob_table(2 - ctx.bits)
    assert ctx.subfield_mask(2) is ctx.subfield_mask(2 + ctx.bits)
    assert [key for key in ctx._caches if key[0] == "frob_table"] == [("frob_table", 2)]


# ---- scalar operations against the oracle, both sides of the 16-bit line ---

def _same_bits_contexts(bits):
    """Every tower m:n with m*n = bits; they share the default modulus."""
    ctxs = [build_context(m, bits // m) for m in range(1, bits + 1) if bits % m == 0]
    assert len({ctx.modulus for ctx in ctxs}) == 1
    return ctxs


@pytest.mark.parametrize("bits", range(1, 9))
def test_mul_matches_oracle_on_every_pair(bits):
    ctxs = _same_bits_contexts(bits)
    order = 1 << bits
    expected = [oracle_mul(ctxs[0], a, b) for a in range(order) for b in range(order)]
    for ctx in ctxs:
        assert [ctx.mul(a, b) for a in range(order) for b in range(order)] == expected


@pytest.mark.parametrize("bits", range(1, 13))
def test_scalar_ops_match_oracle_on_every_element(bits):
    # bits = 1 is the field 1:1, whose multiplicative group has order 1
    ctxs = _same_bits_contexts(bits)
    ref = ctxs[0]
    order, go = 1 << bits, (1 << bits) - 1
    nonzero = range(1, order)
    frobs = [list(range(order))]
    for _ in range(bits - 1):
        frobs.append([oracle_mul(ref, v, v) for v in frobs[-1]])
    exponents = (0, 1, 3, -1, go + 2)
    pows = {e: [oracle_pow(ref, a, e) for a in nonzero] for e in exponents}
    for ctx in ctxs:
        for k in range(-1, bits + 1):
            assert [ctx.frobenius(v, k) for v in range(order)] == frobs[k % bits]
        for d in range(1, bits + 1):
            if bits % d == 0:
                expected = [0] * order
                for i in range(bits // d):
                    expected = [t ^ f for t, f in zip(expected, frobs[d * i])]
                assert [ctx.trace_to(v, d) for v in range(order)] == expected
        for e in exponents:
            assert [ctx.pow(a, e) for a in nonzero] == pows[e]
        assert [ctx.inv(a) for a in nonzero] == pows[-1]
        assert (ctx.pow(0, 0), ctx.pow(0, 3)) == (1, 0)
        with pytest.raises(DivisionByZero):
            ctx.inv(0)
        with pytest.raises(DivisionByZero):
            ctx.pow(0, -1)


WIDE_FIELDS = [(3, 3), (5, 2), (11, 1), (2, 6), (13, 1), (7, 2), (5, 3), (4, 4),
               (1, 17), (6, 3), (19, 1), (4, 5), (3, 7), (11, 2), (8, 3), (2, 12)]


def _check_scalar_ops(fields, make_context, max_examples):
    """Scalar mul, frobenius, trace_to, pow and inv against the oracle on
    drawn elements of the given fields, one context per field."""
    contexts = {}

    @settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(fields), data=st.data())
    def check(field, data):
        if field not in contexts:
            contexts[field] = make_context(*field)
        ctx = contexts[field]
        a = data.draw(st.integers(0, ctx.order - 1), label="a")
        b = data.draw(st.integers(0, ctx.order - 1), label="b")
        e = data.draw(st.integers(-2 * ctx.order, 2 * ctx.order), label="e")
        k = data.draw(st.integers(-ctx.bits, 2 * ctx.bits), label="k")
        assert ctx.mul(a, b) == oracle_mul(ctx, a, b)
        assert ctx.frobenius(a, k) == oracle_frobenius(ctx, a, k)
        for d in (1, ctx.m):
            assert ctx.trace_to(a, d) == oracle_trace(ctx, a, d)
        if a:
            assert ctx.pow(a, e) == oracle_pow(ctx, a, e)
            inv = ctx.inv(a)
            assert inv == oracle_pow(ctx, a, -1) and oracle_mul(ctx, a, inv) == 1
        else:
            assert ctx.pow(a, abs(e)) == (0 if e else 1)

    check()


def test_scalar_ops_match_oracle_9_to_24_bits():
    _check_scalar_ops(WIDE_FIELDS, build_context, 160)


def _check_field_axioms(fields, max_examples):
    """The field axioms on drawn elements of the given fields: mul is
    associative and distributes over xor, mul_elementwise is mul, x^(order-1)
    is 1 for x != 0 both by pow and as the product of the conjugates
    x^(2^i), inv inverts, and frobenius is additive."""
    contexts = {}

    @settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(fields), data=st.data())
    def check(field, data):
        if field not in contexts:
            contexts[field] = build_context(*field)
        ctx = contexts[field]
        a, b, c = (data.draw(st.integers(0, ctx.order - 1), label=v) for v in "abc")
        k = data.draw(st.integers(-ctx.bits, 2 * ctx.bits), label="k")
        mul = ctx.mul
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
        assert ctx.mul_elementwise(np.array([a, b, c]), np.array([b, c, a])).tolist() \
            == [mul(a, b), mul(b, c), mul(c, a)]
        assert ctx.frobenius(a ^ b, k) == ctx.frobenius(a, k) ^ ctx.frobenius(b, k)
        if a:
            assert ctx.pow(a, ctx.order - 1) == 1
            norm = 1
            for i in range(ctx.bits):
                norm = mul(norm, ctx.frobenius(a, i))
            assert norm == 1
            assert mul(a, ctx.inv(a)) == 1

    check()


def test_field_axioms_to_8_bits_and_on_4_5():
    _check_field_axioms([(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 8], 300)
    _check_field_axioms([(4, 5)], 20)


def _bit_serial_disabled(*_):
    raise AssertionError("a scalar operation took the bit-serial route")


def _context_with_tables(m, n):
    """A context whose exp/log tables were built before any scalar call,
    and whose bit-serial multiply raises if a scalar operation reaches it."""
    ctx = build_context(m, n)
    ctx.log_table
    ctx._mul_serial = _bit_serial_disabled
    return ctx


def test_scalar_ops_match_oracle_with_tables_above_16_bits():
    # above 16 bits the scalar operations read exp/log once they are built
    _check_scalar_ops([(1, 17), (6, 3), (19, 1), (4, 5)], _context_with_tables, 80)


def test_context_pickles_after_scalar_lookups(gf64_tower):
    gf64_tower.mul(3, 5)
    copy = pickle.loads(pickle.dumps(gf64_tower))
    assert copy == gf64_tower
    assert [copy.mul(a, 0x2b) for a in range(64)] == [
        gf64_tower.mul(a, 0x2b) for a in range(64)]


def test_scalar_ops_build_exp_log_only_up_to_16_bits():
    big = build_context(4, 5)
    a, b = 0x12345, 0xabcde
    big.mul(a, b)
    big.pow(a, 1000)
    big.inv(b)
    big.frobenius(a, 3)
    big.trace_to(b, 4)
    big.trace_to(b, 1)
    # the single-polynomial route of linearized and charsum, the kernel
    # check of s_fast included (the zero form has S != 0)
    poly = lin.q_linearized(big, [(0, a), (1, b), (3, 0x5a5a5)])
    lin.evaluate(big, poly, a)
    lin.to_matrix(big, poly)
    quad_value(big, poly, b)
    for form in (poly, lin.zero(big)):
        classify_form(big, form)
        s_fast(big, form)
    pair = {("exp_table",), ("log_table",)}
    assert not pair & set(big._caches)
    small = build_context(4, 4)
    small.mul(0x1234, 0xabcd)
    assert pair <= set(small._caches)


@pytest.mark.parametrize("m,n,tables", [(2, 3, False), (4, 5, False), (4, 5, True)],
                         ids=["table", "bit-serial", "table above 16 bits"])
def test_scalar_ops_reject_non_elements(m, n, tables):
    ctx = _context_with_tables(m, n) if tables else build_context(m, n)
    for bad in (-1, -ctx.order, ctx.order, ctx.order + 3, 1 << 25):
        for call in (lambda: ctx.mul(bad, 3), lambda: ctx.mul(3, bad),
                     lambda: ctx.mul(bad, 0), lambda: ctx.pow(bad, 2),
                     lambda: ctx.pow(bad, 0), lambda: ctx.inv(bad),
                     lambda: ctx.frobenius(bad, 1), lambda: ctx.frobenius(bad, 0)):
            with pytest.raises(BadParameters):
                call()
    top = ctx.order - 1
    assert ctx.mul(top, 1) == top and ctx.frobenius(top, 0) == top
    assert ctx.mul(ctx.inv(top), top) == 1


def test_trace_to_rejects_non_elements(gf64_tower):
    # onto every subfield, the field itself (a trace of one term) included
    ctx = gf64_tower
    for sub_m in (1, 2, 6):
        for bad in (-1, ctx.order, ctx.order + 3):
            with pytest.raises(BadParameters):
                ctx.trace_to(bad, sub_m)
    assert ctx.trace_to(ctx.order - 1, 6) == ctx.order - 1


def test_mul_elementwise_equal_and_broadcast_shapes(gf64_tower):
    ctx = gf64_tower
    col = ctx.elements[:, None]
    table = ctx.mul_elementwise(col, ctx.elements)
    assert table.shape == (ctx.order, ctx.order)
    assert table.tolist() == [[ctx.mul(a, b) for b in range(ctx.order)]
                              for a in range(ctx.order)]
    same = ctx.mul_elementwise(ctx.elements, ctx.elements[::-1].copy())
    assert same.tolist() == [ctx.mul(a, ctx.order - 1 - a) for a in range(ctx.order)]
    assert ctx.mul_elementwise(np.array(5), ctx.elements).tolist() == table[5].tolist()


# ---- whole-field monomials -------------------------------------------------

def _monomial_exponents(ctx, rng):
    """0, 1, a 2-power, a Gold exponent q^k+1, exponents at and past the
    group order, and a random one."""
    go = ctx.group_order
    gold = (1 << (ctx.m * rng.randrange(ctx.n))) + 1
    return sorted({0, 1, 1 << rng.randrange(ctx.bits), gold, go, go + 1,
                   2 * go + 3, rng.randrange(4 * ctx.order)})


@pytest.mark.parametrize("m,n", SMALL_FIELDS, ids=lambda v: str(v))
def test_monomial_vec_matches_scalars_exhaustively(m, n):
    ctx = build_context(m, n)
    rng = random.Random(f"monomial:{m}:{n}")
    xs = range(ctx.order)
    coeffs = [0, 1, rng.randrange(ctx.order)]
    stack = np.array([[rng.randrange(ctx.order) for _ in xs] for _ in range(2)])
    for e in _monomial_exponents(ctx, rng):
        powers = [ctx.pow(x, e) for x in xs]
        want = [[ctx.mul(c, p) for p in powers] for c in coeffs]
        for c, row in zip(coeffs, want):
            got = ctx.monomial_vec(c, e)
            assert got.shape == (ctx.order,) and got.tolist() == row, (c, e)
        # a column of coefficients gives one row per c; a table one c per x
        assert ctx.monomial_vec(np.array(coeffs)[:, None], e).tolist() == want
        per_x = [[ctx.mul(c, p) for c, p in zip(row, powers)] for row in stack.tolist()]
        assert ctx.monomial_vec(stack, e).tolist() == per_x
        assert ctx.monomial_vec(stack[1], e).tolist() == per_x[1]
    for e in (-1, -2, -ctx.order):
        with pytest.raises(DivisionByZero):
            ctx.monomial_vec(1, e)
    for c in (-1, ctx.order):
        with pytest.raises(BadParameters):
            ctx.monomial_vec(c, 3)


@pytest.mark.parametrize("m,n", SMALL_FIELDS, ids=lambda v: str(v))
def test_monomial_vec_takes_a_stack_of_exponents(m, n):
    # c[..., None], e[..., None]: one row per (c, e), as the scalar calls
    # give it, on the whole field and on blocks
    ctx = build_context(m, n)
    rng = random.Random(f"exponents:{m}:{n}")
    es = np.array(_monomial_exponents(ctx, rng))
    cs = np.array([0, 1, ctx.order - 1, rng.randrange(ctx.order)])
    c, e = np.broadcast_arrays(cs[:, None], es)          # (4, len(es))
    want = np.array([[ctx.monomial_vec(int(ci), int(ei)) for ci, ei in zip(*row)]
                     for row in zip(c, e)])
    assert ctx.monomial_vec(c[..., None], e[..., None]).tolist() == want.tolist()
    assert ctx.monomial_vec(1, es[:, None]).tolist() == want[1].tolist()
    block = slice(0, max(1, ctx.order // 2))
    assert (ctx.monomial_vec(c[..., None], e[..., None], block).tolist()
            == want[..., block].tolist())
    with pytest.raises(DivisionByZero):
        ctx.monomial_vec(1, np.array([[1], [-1]]))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 4)])
def test_monomial_vec_blocks_are_slices_of_the_whole_table(m, n):
    # a block reads log_table[lo:hi]; x = 0 is set only in a block holding it
    ctx = build_context(m, n)
    rng = np.random.default_rng(ctx.bits)
    cuts = sorted({0, 1, ctx.order // 3, ctx.order - 1, ctx.order})
    blocks = [slice(lo, hi) for lo in cuts for hi in cuts if lo <= hi]
    blocks += [slice(None), slice(1, None), slice(None, 1), slice(-2, None)]
    stack = rng.integers(0, ctx.order, (2, ctx.order))
    for e in _monomial_exponents(ctx, random.Random(ctx.bits)):
        for c in (0, 1, ctx.order - 1):
            whole = ctx.monomial_vec(c, e)
            for block in blocks:
                assert ctx.monomial_vec(c, e, block).tolist() == whole[block].tolist()
        whole = ctx.monomial_vec(stack, e)
        for block in blocks:
            got = ctx.monomial_vec(stack[..., block], e, block)
            assert got.tolist() == whole[..., block].tolist()
            assert ctx.monomial_vec(stack[1, block], e, block).tolist() == whole[1, block].tolist()
    with pytest.raises(BadParameters):
        ctx.monomial_vec(1, 3, slice(0, ctx.order, 2))


def test_monomial_vec_matches_oracle_13_to_20_bits():
    contexts = {}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(MID_FIELDS), data=st.data())
    def check(field, data):
        if field not in contexts:
            contexts[field] = build_context(*field)
        ctx = contexts[field]
        go = ctx.group_order
        c = data.draw(st.sampled_from((0, 1)) | st.integers(0, ctx.order - 1), label="c")
        e = data.draw(st.sampled_from((0, 1, 1 << (ctx.bits - 1), ctx.q + 1, go, go + 1,
                                       2 * go + 3)) | st.integers(0, 4 * ctx.order),
                      label="e")
        xs = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=12), label="xs")
        table = ctx.monomial_vec(c, e)
        for x in xs + [0, 1, ctx.order - 1]:
            power = oracle_pow(ctx, x, e) if x else int(e == 0)
            assert table[x] == ctx.mul(c, ctx.pow(x, e)) == oracle_mul(ctx, c, power)

    check()
