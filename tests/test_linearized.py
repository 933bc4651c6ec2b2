"""Linearized polynomials: evaluation, adjoint, composition, kernels."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charperm import BadParameters, build_context, gf2
from charperm import linearized as lin


def _random_poly(ctx, rng, step=1):
    pairs = [(i, rng.randrange(ctx.order)) for i in range(0, ctx.bits, step)]
    return lin.linearized(ctx, pairs)


def _compose(ctx, outer, inner):
    """outer(inner(x)) with exponents folded modulo x^(2^bits) = x."""
    pairs = []
    for i in outer.support():
        for j in inner.support():
            pairs.append(((i + j) % ctx.bits,
                          ctx.mul(outer.coeffs[i], ctx.frobenius(inner.coeffs[j], i))))
    return lin.linearized(ctx, pairs)


def test_factory_validates_coefficients(gf8):
    with pytest.raises(ValueError):
        lin.linearized(gf8, [(0, 8)])
    with pytest.raises(ValueError):
        lin.linearized(gf8, [(0, -1)])


def test_factory_folds_indices(gf8):
    # x^(2^3) = x on GF(8), so index 3 folds onto index 0
    p = lin.linearized(gf8, [(3, 5)])
    assert p.coeffs[0] == 5
    q = lin.linearized(gf8, [(0, 5), (3, 5)])
    assert q.is_zero()


def test_q_linear_flag_detection(gf64_tower):
    ctx = gf64_tower
    assert lin.linearized(ctx, [(0, 3), (2, 1)]).q_linear
    assert not lin.linearized(ctx, [(1, 1)]).q_linear
    assert lin.q_linearized(ctx, [(1, 7)]).coeffs[2] == 7


def test_evaluate_is_additive(gf16):
    rng = random.Random(3)
    p = _random_poly(gf16, rng)
    for x in range(16):
        for y in range(16):
            assert lin.evaluate(gf16, p, x ^ y) == (
                lin.evaluate(gf16, p, x) ^ lin.evaluate(gf16, p, y))


def test_evaluate_all_matches_scalar(gf64_tower):
    rng = random.Random(4)
    for _ in range(10):
        p = _random_poly(gf64_tower, rng)
        table = lin.evaluate_all(gf64_tower, p)
        for x in (0, 1, 9, 0x3f):
            assert int(table[x]) == lin.evaluate(gf64_tower, p, x)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 4), (1, 13), (4, 4), (6, 3), (4, 5)],
                         ids=lambda v: str(v))
def test_evaluate_all_matches_scalar_at_seeded_points_8_to_20_bits(m, n):
    # the table is built from the images of the unit vectors by linearity,
    # so a wrong image or doubling step shows at the points drawn here
    ctx = build_context(m, n)
    rng = random.Random(ctx.bits)
    points = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(21)]
    single = _random_poly(ctx, rng, step=2)
    table = lin.evaluate_all(ctx, single)
    assert table.shape == (ctx.order,)
    assert [int(table[x]) for x in points] == [lin.evaluate(ctx, single, x) for x in points]
    stack = np.array([[_random_poly(ctx, rng, step=3).coeffs for _ in range(3)]
                      for _ in range(2)], dtype=np.int64)
    stack[0, 1] = 0
    stack[1, 2] = 0
    tables = lin.evaluate_all(ctx, stack)
    assert tables.shape == (2, 3, ctx.order)
    assert not tables[0, 1].any() and not tables[1, 2].any()
    for r in np.ndindex(2, 3):
        poly = lin.linearized(ctx, enumerate(stack[r].tolist()))
        assert tables[r][points].tolist() == [lin.evaluate(ctx, poly, x) for x in points]


def test_evaluate_lookup_and_bit_serial_routes_agree_on_20_bits():
    # a fresh 4:5 context evaluates bit-serially (it builds no exp/log table
    # from scalar calls); once it holds the tables, one lookup per term
    serial, tables = build_context(4, 5), build_context(4, 5)
    tables.log_table
    rng = random.Random(45)
    points = [0, 1, tables.order - 1] + [rng.randrange(tables.order) for _ in range(12)]
    polys = [lin.zero(tables), lin.identity(tables), _random_poly(tables, rng),
             _random_poly(tables, rng, step=4), _random_poly(tables, rng, step=7)]
    for poly in polys:
        assert lin.to_matrix(serial, poly) == lin.to_matrix(tables, poly)
        assert [lin.evaluate(serial, poly, x) for x in points] == [
            lin.evaluate(tables, poly, x) for x in points]
    assert ("log_table",) not in serial._caches
    for ctx in (serial, tables, build_context(2, 3)):
        for bad in (-1, ctx.order, 1 << 30):
            for poly in (lin.zero(ctx), lin.identity(ctx)):
                with pytest.raises(BadParameters):
                    lin.evaluate(ctx, poly, bad)


def test_q_linearized_commutes_with_subfield_scalars(gf64_tower):
    ctx = gf64_tower
    rng = random.Random(5)
    p = lin.q_linearized(ctx, [(i, rng.randrange(64)) for i in range(3)])
    for c in ctx.subfield_elements(2):
        for x in (1, 5, 0x2a):
            assert lin.evaluate(ctx, p, ctx.mul(c, x)) == ctx.mul(
                c, lin.evaluate(ctx, p, x))


def test_adjoint_duality_exhaustive(gf16_tower):
    # Tr2(u L(v)) == Tr2(L'(u) v) for all u, v
    ctx = gf16_tower
    rng = random.Random(6)
    for _ in range(12):
        p = _random_poly(ctx, rng)
        adj = lin.adjoint(ctx, p)
        for u in range(16):
            for v in range(16):
                lhs = ctx.trace_to(ctx.mul(u, lin.evaluate(ctx, p, v)), 1)
                rhs = ctx.trace_to(ctx.mul(lin.evaluate(ctx, adj, u), v), 1)
                assert lhs == rhs


# 8 to 20 bits, several tower shapes per size
ADJOINT_FIELDS = [(8, 1), (2, 4), (4, 2), (3, 3), (5, 2), (2, 6), (13, 1), (7, 2),
                  (4, 4), (1, 17), (6, 3), (19, 1), (4, 5), (2, 10)]


def test_adjoint_identity_8_to_20_bits():
    # Tr(u * L(v)) == Tr(adjoint(L)(u) * v), absolute trace, for a single
    # polynomial (scalar adjoint) and for each row of a (2, 3) stack (the
    # stack route through Frobenius tables)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(ADJOINT_FIELDS), stacked=st.booleans(), data=st.data())
    def check(field, stacked, data):
        ctx = build_context(*field)
        elem = st.integers(0, ctx.order - 1)
        count = 6 * ctx.bits if stacked else ctx.bits
        coeffs = data.draw(st.lists(st.sampled_from((0, 1)) | elem,
                                    min_size=count, max_size=count), label="coeffs")
        if stacked:
            rows = np.array(coeffs).reshape(2, 3, ctx.bits)
            adj_rows = lin.adjoint(ctx, rows)
            assert adj_rows.shape == rows.shape
            pairs = [(lin.linearized(ctx, list(enumerate(r))),
                      lin.linearized(ctx, list(enumerate(a))))
                     for r, a in zip(rows.reshape(6, -1).tolist(),
                                     adj_rows.reshape(6, -1).tolist())]
        else:
            p = lin.linearized(ctx, list(enumerate(coeffs)))
            pairs = [(p, lin.adjoint(ctx, p))]
        points = data.draw(st.lists(st.tuples(elem, elem), min_size=1, max_size=6),
                           label="points")
        for p, adj in pairs:
            for u, v in points:
                lhs = ctx.trace_to(ctx.mul(u, lin.evaluate(ctx, p, v)), 1)
                rhs = ctx.trace_to(ctx.mul(lin.evaluate(ctx, adj, u), v), 1)
                assert lhs == rhs

    check()


def test_adjoint_involution(gf16):
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(gf16, rng)
        assert lin.adjoint(gf16, lin.adjoint(gf16, p)) == p


def test_adjoint_preserves_q_linearity(gf64_tower):
    p = lin.q_linearized(gf64_tower, [(1, 0x21), (2, 3)])
    assert lin.adjoint(gf64_tower, p).q_linear


def test_adjoint_antihomomorphism(gf16):
    # (f o g)' = g' o f'
    rng = random.Random(8)
    for _ in range(10):
        f = _random_poly(gf16, rng)
        g = _random_poly(gf16, rng)
        left = lin.adjoint(gf16, _compose(gf16, f, g))
        right = _compose(gf16, lin.adjoint(gf16, g), lin.adjoint(gf16, f))
        assert left == right


def test_compose_matches_pointwise(gf16):
    rng = random.Random(9)
    for _ in range(10):
        f = _random_poly(gf16, rng)
        g = _random_poly(gf16, rng)
        h = _compose(gf16, f, g)
        for x in range(16):
            assert lin.evaluate(gf16, h, x) == lin.evaluate(
                gf16, f, lin.evaluate(gf16, g, x))


def test_to_matrix_matches_evaluate(gf16):
    rng = random.Random(10)
    from charperm import gf2
    for _ in range(10):
        p = _random_poly(gf16, rng)
        cols = lin.to_matrix(gf16, p)
        for x in range(16):
            assert gf2.mat_apply(cols, x) == lin.evaluate(gf16, p, x)


def test_kernel_identity_and_zero(gf16):
    assert lin.kernel(gf16, lin.identity(gf16)).dim2 == 0
    k = lin.kernel(gf16, lin.zero(gf16))
    assert k.dim2 == 4
    assert len(k.basis) == 4


def test_kernel_members_and_dimension(gf16):
    rng = random.Random(11)
    for _ in range(20):
        p = _random_poly(gf16, rng)
        k = lin.kernel(gf16, p)
        hit = sum(1 for x in range(16) if lin.evaluate(gf16, p, x) == 0)
        assert hit == 1 << k.dim2
        for b in k.basis:
            assert lin.evaluate(gf16, p, b) == 0


def test_trace_poly_kernel(gf64_tower):
    # the relative trace maps onto F_q, so its kernel has F_2-dimension m(n-1)
    ctx = gf64_tower
    t = lin.q_linearized(ctx, [(i, 1) for i in range(ctx.n)])
    assert t.q_linear
    k = lin.kernel(ctx, t)
    assert k.dim2 == 2 * (3 - 1)
    for x in range(64):
        assert lin.evaluate(ctx, t, x) == ctx.trace_to(x, 2)


def test_q_kernel_dimension_multiple_of_m(gf64_tower):
    # kernel of an F_q-linear map is an F_q-subspace
    ctx = gf64_tower
    rng = random.Random(12)
    for _ in range(20):
        p = lin.q_linearized(ctx, [(i, rng.randrange(64)) for i in range(3)])
        assert lin.kernel(ctx, p).dim2 % 2 == 0


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 5)], ids=lambda v: str(v))
def test_kernel_from_fq_basis_images_spans_the_kernel(m, n):
    # bit-vectors over the basis s_k * b_i that pick kernel elements, as many
    # as the evaluated route finds, GF(2)-independent, every element mapped to 0
    ctx = build_context(m, n)
    rng = random.Random(m * n)
    points = ctx.fq_columns(ctx.fq_basis)
    assert gf2.mat_rank(points) == ctx.bits
    polys = [lin.zero(ctx), lin.q_linearized(ctx, [(1, 1), (0, 1)])] + [
        lin.q_linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(2)])
        for _ in range(6)]
    for poly in polys:
        images = [lin.evaluate(ctx, poly, b) for b in ctx.fq_basis]
        ker = lin.kernel(ctx, poly, images=images)
        assert ker.dim2 == lin.kernel(ctx, poly).dim2 == len(ker.basis)
        elems = [gf2.mat_apply(points, x) for x in ker.basis]
        assert gf2.mat_rank(elems) == ker.dim2
        assert all(lin.evaluate(ctx, poly, v) == 0 for v in elems)


@pytest.mark.parametrize("count,value", [(128, 0x200), (1024, 0x40)])
def test_stack_columns_see_sums_that_wrap_the_stack_dtype(count, value):
    # count uint16 entries of value sum to 2^16, 0 in uint16 arithmetic
    ctx = build_context(2, 6)
    rows = np.zeros((count, ctx.bits), dtype=np.uint16)
    rows[:, 2] = value
    rows[-1, 6] = 1
    assert lin.adjoint(ctx, rows).tolist() == lin.adjoint(ctx, rows.astype(np.int64)).tolist()
    assert [i for i, _ in lin.pairs(ctx, rows)] == [2, 6]


def test_add(gf16):
    rng = random.Random(13)
    f = _random_poly(gf16, rng)
    g = _random_poly(gf16, rng)
    s = lin.add(gf16, f, g)
    for x in range(16):
        assert lin.evaluate(gf16, s, x) == (
            lin.evaluate(gf16, f, x) ^ lin.evaluate(gf16, g, x))


FIELDS_TO_8_BITS = [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 8]


def test_parse_format_roundtrip():
    # drawn supports, indices taken past bits (and below 0) to be folded;
    # a parsed text is the polynomial its pairs build, and formatting then
    # parsing gives it back
    contexts = {}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(FIELDS_TO_8_BITS), data=st.data())
    def check(field, data):
        if field not in contexts:
            contexts[field] = build_context(*field)
        ctx = contexts[field]
        pairs = data.draw(st.lists(st.tuples(st.integers(-ctx.bits, 3 * ctx.bits),
                                             st.integers(0, ctx.order - 1)), max_size=8),
                          label="pairs")
        p = lin.parse_linearized(ctx, ",".join(f"{i}:{c:x}" for i, c in pairs))
        assert p == lin.linearized(ctx, pairs)
        assert lin.parse_linearized(ctx, lin.format_linearized(p)) == p

    check()


def test_parse_rejects_garbage(gf64_tower):
    for bad in ("0", "0:zz", "x:1", "0:1:2"):
        with pytest.raises(ValueError):
            lin.parse_linearized(gf64_tower, bad)


def test_support_and_is_zero(gf8):
    p = lin.linearized(gf8, [(0, 1), (2, 3)])
    assert p.support() == [0, 2]
    assert not p.is_zero()
    assert lin.zero(gf8).is_zero()


def test_evaluate_all_only_zero_map_vanishes(gf16):
    # folded coefficients mean the zero value table forces the zero poly
    rng = random.Random(14)
    for _ in range(30):
        p = _random_poly(gf16, rng)
        table = lin.evaluate_all(gf16, p)
        if not np.any(table):
            assert p.is_zero()


def test_row_stacks_match_single_polynomials(gf64_tower):
    ctx = gf64_tower
    rng = random.Random(3)
    polys = [_random_poly(ctx, rng) for _ in range(6)] + [lin.zero(ctx)]
    rows = np.array([p.coeffs for p in polys]).reshape(7, 1, ctx.bits)
    values = lin.evaluate_all(ctx, rows)
    adjoints = lin.adjoint(ctx, rows)
    assert values.shape == (7, 1, ctx.order) and adjoints.shape == rows.shape
    for p, v, a in zip(polys, values[:, 0], adjoints[:, 0]):
        assert v.tolist() == lin.evaluate_all(ctx, p).tolist()
        assert tuple(a.tolist()) == lin.adjoint(ctx, p).coeffs
    built = lin.linearized_rows(ctx, [(1, ctx.elements[:, None]), (7, 5), (1, 2)])
    assert built.shape == (ctx.order, 1, ctx.bits)
    assert built[9, 0].tolist() == list(lin.linearized(ctx, [(1, 9), (7, 5), (1, 2)]).coeffs)
    one_row = np.array(polys[0].coeffs)
    assert lin.evaluate_all(ctx, one_row).tolist() == values[0, 0].tolist()
    assert lin.adjoint(ctx, one_row).tolist() == adjoints[0, 0].tolist()
