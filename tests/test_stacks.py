"""Stacks of coefficient rows through kernel, s_fast, classify_form and
s_bruteforce: every row must give what the polynomial gives alone."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charperm import build_context, classify_form, s_bruteforce, s_fast
from charperm import charsum
from charperm import linearized as lin
from charperm.errors import InvariantViolation, NotQLinear

# every (m, n) with 2 <= m*n <= 16 and n <= 8 (the scalar classify_form
# slows down quickly with n)
STACK_FIELDS = [(m, n) for n in range(1, 9) for m in range(1, 17)
                if 2 <= m * n <= 16]
_contexts = {}


def _ctx(m, n):
    if (m, n) not in _contexts:
        _contexts[(m, n)] = build_context(m, n)
    return _contexts[(m, n)]


def _row(ctx, kind, draw):
    """One q-linear coefficient row of the given kind."""
    row = np.zeros(ctx.bits, dtype=np.int64)
    elem = st.integers(0, ctx.order - 1)
    if kind == "dense":
        row[::ctx.m] = [draw(elem) for _ in range(ctx.n)]
    elif kind == "sparse":
        row[ctx.m * draw(st.integers(0, ctx.n - 1))] = draw(elem)
        row[ctx.m * draw(st.integers(0, ctx.n - 1))] ^= draw(elem)
    elif kind == "kernel" and ctx.n % 2 == 0:
        # c * x^(q^(n/2)) with c in GF(q^(n/2)) has a zero polar form and Q
        # vanishes everywhere; one more term leaves kernels of every size
        half = ctx.subfield_elements(ctx.m * ctx.n // 2)
        row[ctx.m * ctx.n // 2] = half[draw(st.integers(0, len(half) - 1))]
        row[ctx.m * draw(st.integers(0, ctx.n - 1))] ^= draw(elem) * draw(st.booleans())
    elif kind == "kernel":
        row[0] = draw(elem)
    return row


def _report_row(rep, idx):
    fields = (rep.kernel_dim_fq, rep.vanishes_on_kernel, rep.s_value,
              rep.form_type, rep.rank)
    return tuple(np.asarray(f, dtype=object)[idx] for f in fields)


def _report(rep):
    return (rep.kernel_dim_fq, rep.vanishes_on_kernel, rep.s_value,
            rep.form_type, rep.rank)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(STACK_FIELDS), data=st.data())
def test_stack_routes_match_single_polynomials(field, data):
    ctx = _ctx(*field)
    rows_n = data.draw(st.integers(1, 5 if ctx.bits > 12 else 9))
    kinds = st.sampled_from(("dense", "sparse", "kernel", "zero"))
    rows = np.array([_row(ctx, data.draw(kinds), data.draw) for _ in range(rows_n)])
    if data.draw(st.booleans()):
        rows = rows.reshape(1, rows_n, ctx.bits)
    shape = rows.shape[:-1]
    ker = lin.kernel(ctx, rows)
    fast = s_fast(ctx, rows)
    full = classify_form(ctx, rows)
    brute = s_bruteforce(ctx, rows)
    assert ker.basis.shape == rows.shape and ker.dim2.shape == shape
    assert fast.s_value.shape == shape and brute.shape == shape
    for idx in np.ndindex(shape):
        poly = lin.linearized(ctx, enumerate(rows[idx].tolist()))
        one = lin.kernel(ctx, poly)
        assert ker.dim2[idx] == one.dim2
        assert ker.basis[idx].tolist() == list(one.basis) + [0] * (ctx.bits - one.dim2)
        assert _report_row(fast, idx) == _report(s_fast(ctx, poly))
        assert _report_row(full, idx) == _report(classify_form(ctx, poly))
        assert brute[idx] == s_bruteforce(ctx, poly) == fast.s_value[idx]


def test_stacks_cover_vanishing_kernels_and_both_signs():
    # the "kernel" rows of the property give every outcome on 2:4
    ctx = _ctx(2, 4)
    rng = random.Random(0)
    half = ctx.subfield_elements(4)
    rows = np.zeros((200, ctx.bits), dtype=np.int64)
    for row in rows:
        row[4] = rng.choice(half)
        row[2 * rng.randrange(4)] ^= rng.randrange(ctx.order) * rng.randrange(2)
    rep = s_fast(ctx, rows)
    assert set(rep.form_type.tolist()) == {"plus", "minus", "zero-sum"}
    dims = rep.kernel_dim_fq[rep.vanishes_on_kernel]
    assert (dims == 4).any() and ((dims > 0) & (dims < 4)).any()
    assert (rep.s_value == s_bruteforce(ctx, rows)).all()


@pytest.mark.parametrize("fn", [classify_form, s_fast], ids=["classify_form", "s_fast"])
def test_stacked_reports_ignore_layout_and_leading_shape(fn):
    # 12 forms of 2:4 with both signs, zero sums and S != 0 (so s_fast
    # reaches its kernel check): each layout and leading shape gives the
    # report of the C-order stack, field for field, dtypes and shapes too
    ctx = _ctx(2, 4)
    rng = random.Random(4)
    half = ctx.subfield_elements(4)
    rows = np.zeros((12, ctx.bits), dtype=np.int64)
    for row in rows[1:]:
        row[4] = rng.choice(half)
        row[2 * rng.randrange(4)] ^= rng.randrange(ctx.order) * rng.randrange(2)
    want = fn(ctx, rows)
    assert set(want.form_type.tolist()) == {"plus", "minus", "zero-sum"}

    def same(rep, index=slice(None), shape=None):
        for got, ref in zip(_report(rep), _report(want)):
            ref = ref[index] if shape is None else ref.reshape(shape)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tolist() == ref.tolist()

    transposed = np.ascontiguousarray(rows.T).T
    assert not transposed.flags.c_contiguous
    same(fn(ctx, transposed))
    same(fn(ctx, rows.reshape(3, 4, ctx.bits)), shape=(3, 4))
    same(fn(ctx, rows[::-1]), slice(None, None, -1))
    same(fn(ctx, rows[:0]), slice(0, 0))
    for r in range(len(rows)):
        same(fn(ctx, rows[r:r + 1]), slice(r, r + 1))


def _doubled(real):
    """classify_form with every S doubled."""
    def doubled(ctx, poly, **kw):
        rep = real(ctx, poly, **kw)
        return rep.__class__(rep.kernel_dim_fq, rep.vanishes_on_kernel,
                             2 * rep.s_value, rep.form_type, rep.rank)
    return doubled


def test_s_fast_checks_the_sign_route_on_a_stack(gf16_tower, monkeypatch):
    rows = np.array([[1, 0, 1, 0], [0, 0, 1, 0]])
    monkeypatch.setattr(charsum, "classify_form", _doubled(charsum.classify_form))
    with pytest.raises(InvariantViolation):
        s_fast(gf16_tower, rows)


def test_s_fast_checks_the_sign_route_on_a_polynomial(gf16_tower, monkeypatch):
    poly = lin.linearized(gf16_tower, [(2, 1)])
    assert s_fast(gf16_tower, poly).s_value == 16
    monkeypatch.setattr(charsum, "classify_form", _doubled(charsum.classify_form))
    with pytest.raises(InvariantViolation):
        s_fast(gf16_tower, poly)


@pytest.mark.parametrize("field", [(1, 4), (2, 2), (2, 3)])
@pytest.mark.parametrize("stacked", [False, True])
def test_s_fast_checks_the_kernel(field, stacked, monkeypatch):
    # a kernel that loses its last basis vector (zeroed, one fewer counted)
    # breaks S^2 = q^n * |kernel| on every form with S != 0
    ctx = _ctx(*field)
    rows = np.zeros((3, ctx.bits), dtype=np.int64)
    rows[1, 0] = 1                                  # x: S = 0
    rows[2, ctx.m * (ctx.n // 2)] = 1               # x^(q^(n/2))
    real = lin.kernel

    def short(ctx, poly, **kw):
        ker = real(ctx, poly, **kw)
        if isinstance(poly, lin.LinearizedPoly):
            return lin.Kernel(ker.basis[:-1] + (0,), ker.dim2 - 1)
        basis = ker.basis.copy()
        np.put_along_axis(basis, (ker.dim2 - 1)[..., None], 0, axis=-1)
        return lin.Kernel(basis, np.count_nonzero(basis, axis=-1))

    polys = [rows] if stacked else [
        lin.linearized(ctx, enumerate(row.tolist())) for row in rows]
    for poly in polys:
        rep = s_fast(ctx, poly)
        assert np.all(s_bruteforce(ctx, poly) == rep.s_value)
        with monkeypatch.context() as patch:
            patch.setattr(lin, "kernel", short)
            if not np.any(rep.s_value):
                s_fast(ctx, poly)           # S = 0: the kernel is not computed
                continue
            with pytest.raises(InvariantViolation):
                s_fast(ctx, poly)


def test_stacks_must_be_q_linear(gf16_tower):
    rows = np.array([[1, 1, 0, 0], [0, 1, 0, 0]])    # x^2 + x and x^2
    for fn in (s_fast, classify_form):
        with pytest.raises(NotQLinear):
            fn(gf16_tower, rows)
    # the kernel and the full sum take any 2-linear rows
    assert lin.kernel(gf16_tower, rows).dim2.tolist() == [1, 0]
    assert s_bruteforce(gf16_tower, rows).tolist() == [
        s_bruteforce(gf16_tower, lin.linearized(gf16_tower, enumerate(r)))
        for r in rows.tolist()]
