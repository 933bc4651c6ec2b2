"""Character sums S(L) of the quadratic forms Q(v) = Tr(v * L(v)).

S(L) is the sum of chi(v * L(v)) over the whole field.  For q-linear L the
form Q takes values in F_q and S(L) is controlled by the kernel of
adjoint(L) + L, the radical of Q's polar form: either Q vanishes on that
kernel and S(L)^2 = q^n * |kernel|, or S(L) = 0.  classify_form is the one
route that decides S(L): it finds the radical and the sign together by
reducing the form to its canonical shape.  s_fast is that decision checked
by the kernel criterion, which it computes only on the forms with S != 0.

s_fast, classify_form and s_bruteforce (with linearized.kernel) take a
single LinearizedPoly or a stack of coefficient rows (..., bits), as
linearized.evaluate_all does.  A stack is decided at once with numpy: the
sign by a symplectic reduction of the GF(2) form Tr(v * L(v)) over every
row, the kernel by one GF(2) elimination, and the reports hold arrays over
the stack.  A single polynomial keeps the scalar route, which is cheaper for
one form than a stack of one: 0.07-0.1 ms against 0.4-0.7 ms at 20 bits
once the context holds its exp/log tables (see field.FieldContext.mul).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters,
    InvariantViolation,
    NotInSubfield,
    NotQLinear,
    WrongDegree,
)
from .field import FieldContext
from . import elementwise as ew
from . import linearized as lin
from .linearized import LinearizedPoly


@dataclass(frozen=True, slots=True)
class QuadraticFormReport:
    kernel_dim_fq: int            # F_q-dimension of ker(adjoint(L) + L)
    vanishes_on_kernel: bool
    s_value: int                  # exact signed S(L)
    form_type: str                # "zero-sum" | "plus" | "minus"
    rank: int                     # canonical rank of the form over F_q


def quad_value(ctx: FieldContext, poly: LinearizedPoly, v: int) -> int:
    """Q(v) = trace onto F_q of v * L(v)."""
    return ctx.trace_to(ctx.mul(v, lin.evaluate(ctx, poly, v)), ctx.m)


def polar_poly(ctx: FieldContext, poly):
    """adjoint(L) + L, whose kernel is the radical of the polar form of Q.
    For a stack of coefficient rows, the stack of polar rows."""
    if isinstance(poly, LinearizedPoly):
        return lin.add(ctx, lin.adjoint(ctx, poly), poly)
    return lin.adjoint(ctx, poly) ^ poly


def s_bruteforce(ctx: FieldContext, poly):
    """S(L) summed literally over every field element.

    chi_index_table[v] is the GF(2) functional of v: the absolute trace of
    v * w is the bit parity of chi_index_table[v] & w.  So chi(v * L(v))
    is read off the value table by an AND and a popcount, in element order
    with no lookup per element, and S(L) is order minus twice the number
    of odd parities, counted by a popcount of the parities packed 8 to a
    byte (a sum over the parities would widen each to int64).

    For a stack of coefficient rows (..., bits) it is the int64 array of
    the rows' sums, one value table per row; for one polynomial an int.
    """
    values = lin.evaluate_all(ctx, poly)
    np.bitwise_and(values, ctx.chi_index_table, out=values)
    odd = np.bitwise_count(values)
    odd &= 1
    packed = np.packbits(odd, axis=-1)
    total = ctx.order - 2 * np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)
    return int(total) if isinstance(poly, LinearizedPoly) else total


def s_fast(ctx: FieldContext, poly) -> QuadraticFormReport:
    """S(L) from classify_form, checked by the kernel criterion, for q-linear L.

    The criterion: S(L) != 0 exactly when Q vanishes on the kernel of
    adjoint(L) + L, and then S(L)^2 = q^n * |kernel|.  On every form that
    classify_form finds with S != 0 the kernel is computed anew and Q is
    evaluated on a GF(2)-basis of it; Q is additive there, so vanishing on
    the basis gives vanishing on the kernel.  A disagreement raises
    InvariantViolation.  A stack tests vanishing with the absolute trace of
    b * L(b): the kernel is an F_q-space and Q(c*v) = c^2 * Q(v), so
    Tr(c^2 * Q(v)) = 0 for every c in F_q exactly when Q(v) = 0.

    poly may also be a stack of coefficient rows (..., bits); every field
    of the report is then an array over the stack, row r equal to the
    report of row r alone.
    """
    rep = classify_form(ctx, poly)
    if isinstance(poly, LinearizedPoly):
        if rep.vanishes_on_kernel:
            ker = lin.kernel(ctx, polar_poly(ctx, poly))
            _check_kernel(ctx, rep.s_value, ker.dim2,
                          all(quad_value(ctx, poly, b) == 0 for b in ker.basis))
        return rep
    live = rep.vanishes_on_kernel
    if live.any():
        rows = np.asarray(poly, dtype=np.int64)[live]
        ker = lin.kernel(ctx, polar_poly(ctx, rows))
        values = lin._evaluate_at(ctx, rows, ker.basis)
        _check_kernel(ctx, rep.s_value[live], ker.dim2,
                      (ctx.chi_table[ctx.mul_elementwise(ker.basis, values)] > 0).all())
    return rep


def _check_kernel(ctx: FieldContext, s_value, dim2, vanishes: bool) -> None:
    """Raise unless Q vanishes on the kernel and S^2 = q^n * 2^dim2."""
    two_exp = ctx.bits + np.asarray(dim2)
    if not (vanishes and (two_exp % 2 == 0).all()
            and (np.abs(s_value) == np.left_shift(1, two_exp // 2)).all()):
        raise InvariantViolation(
            "classify_form and the kernel criterion give different S(L)")


def classify_form(ctx: FieldContext, poly) -> QuadraticFormReport:
    """Canonical type and exact signed S(L) via symplectic reduction.

    Splits off hyperbolic planes of the polar form greedily, accumulating the
    Arf-style invariant sum of Q(u_i) * Q(w_i) over the normalized pairs; the
    residual radical either kills S (form not identically zero there) or
    contributes a factor q per dimension.

    poly may also be a stack of coefficient rows (..., bits); the report's
    fields are then arrays over the stack (see _classify_rows).
    """
    if not isinstance(poly, LinearizedPoly):
        rows = np.asarray(poly, dtype=np.int64)
        if not lin._q_linear_rows(ctx, rows).all():
            raise NotQLinear("classify_form needs q-linear polynomials")
        return _classify_rows(ctx, rows)
    if not poly.q_linear:
        raise NotQLinear("classify_form needs a q-linear polynomial")
    # each vector v is carried as (v, P(v), L(v)), P the polar map: P and L
    # are q-linear and every update coefficient lies in F_q, so the images
    # follow the vectors exactly, and L and P are evaluated once per
    # F_q-basis vector; B(u, v) and Q(v) are then one mul and one trace each
    polar = polar_poly(ctx, poly)
    mul, m = ctx.mul, ctx.m

    def bform(u: tuple, v: tuple) -> int:
        return ctx.trace_to(mul(u[0], v[1]), m)

    def qform(v: tuple) -> int:
        return ctx.trace_to(mul(v[0], v[2]), m)

    def combine(v: tuple, a: int, u: tuple, b: int, w: tuple) -> tuple:
        """v + a*u + b*w, triple by triple."""
        return (v[0] ^ mul(a, u[0]) ^ mul(b, w[0]),
                v[1] ^ mul(a, u[1]) ^ mul(b, w[1]),
                v[2] ^ mul(a, u[2]) ^ mul(b, w[2]))

    work = [(b, lin.evaluate(ctx, polar, b), lin.evaluate(ctx, poly, b))
            for b in ctx.fq_basis]
    planes = 0
    arf = 0
    while True:
        pair = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if bform(work[i], work[j]) != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        u = work[i]
        c = ctx.inv(bform(u, work[j]))
        w = tuple(mul(c, x) for x in work[j])
        rest = [v for k, v in enumerate(work) if k not in (i, j)]
        work = [combine(v, bform(v, w), u, bform(v, u), w) for v in rest]
        arf ^= mul(qform(u), qform(w))
        planes += 1

    # remaining vectors span the radical of the polar form
    radical_dim = len(work)
    if radical_dim != ctx.n - 2 * planes:
        raise InvariantViolation(
            f"radical dimension {radical_dim} != n - 2 * {planes} hyperbolic planes")
    if any(qform(v) != 0 for v in work):
        report = QuadraticFormReport(radical_dim, False, 0, "zero-sum",
                                     rank=2 * planes + 1)
    else:
        sign = -1 if ctx.subfield_abs_trace(arf, ctx.m) else 1
        s_value = sign * ctx.q ** (planes + radical_dim)
        form_type = "minus" if sign < 0 else "plus"
        report = QuadraticFormReport(radical_dim, True, s_value, form_type,
                                     rank=2 * planes)
    return report


def _classify_rows(ctx: FieldContext, rows: np.ndarray) -> QuadraticFormReport:
    """classify_form on a stack of q-linear rows, over GF(2).

    The form q2(v) = Tr(v * L(v)) has the polar form Tr(u * P(v)), P =
    adjoint(L) + L, with the same radical as the F_q polar form, and S(L)
    is the sum of (-1)^q2(v).  Row j of a form's Gram matrix is the packed
    bits k of Tr(e_k * P(e_j)), which chi_index_table reads off P(e_j).
    Each step splits off one hyperbolic plane (u, w) = (e_p, e_s) of every
    row that has one: the other vectors v become v + b(v, w) u + b(v, u) w,
    q2 follows them, and the Arf bit gains q2(u) q2(w).  After at most
    bits / 2 steps the vectors left span the radical, where q2 is linear:
    S = 0 unless it vanishes there, else S = (-1)^Arf * 2^((bits + r) / 2).
    """
    bits, m = ctx.bits, ctx.m
    flat = rows.reshape(-1, bits)
    units = 1 << np.arange(bits)
    shifts = np.arange(bits)
    index = ctx.chi_index_table
    gram = index[lin._evaluate_at(ctx, polar_poly(ctx, flat), units)]
    q2 = (index[lin._evaluate_at(ctx, flat, units)] >> shifts) & 1
    at = np.arange(len(flat))
    arf = np.zeros(len(flat), dtype=np.int64)
    planes = np.zeros(len(flat), dtype=np.int64)
    for _ in range(bits // 2):
        live = gram.any(axis=1)
        if not live.any():
            break
        p = np.argmax(gram != 0, axis=1)
        row_u = gram[at, p]
        s = np.where(live, np.frexp((row_u & -row_u).astype(np.float64))[1] - 1, 0)
        row_w = gram[at, s]
        alpha = (gram >> s[:, None]) & 1        # b(v, w)
        beta = (gram >> p[:, None]) & 1         # b(v, u)
        q_u, q_w = q2[at, p], q2[at, s]
        arf ^= q_u & q_w & live
        planes += live
        q2 ^= (alpha & q_u[:, None]) ^ (beta & q_w[:, None]) ^ (alpha & beta)
        gram ^= (-alpha & row_u[:, None]) ^ (-beta & row_w[:, None])
        gram ^= (-((gram >> p[:, None]) & 1) & row_w[:, None]) ^ (
            -((gram >> s[:, None]) & 1) & row_u[:, None])
    if gram.any() or (planes % m).any():
        raise InvariantViolation(
            "symplectic reduction left a radical that is not an F_q-space")
    radical = bits - 2 * planes
    vanishes = ~q2.any(axis=1)
    sign = 1 - 2 * arf
    s_value = np.where(vanishes, sign << ((bits + radical) // 2), 0)
    form_type = np.where(vanishes, np.where(arf == 1, "minus", "plus"),
                         "zero-sum").astype(object)
    dim_fq = radical // m
    shape = rows.shape[:-1]
    return QuadraticFormReport(
        dim_fq.reshape(shape), vanishes.reshape(shape), s_value.reshape(shape),
        form_type.reshape(shape), (ctx.n - dim_fq + ~vanishes).reshape(shape))


def s_zero_quadratic_ext(ctx: FieldContext, a, b):
    """Closed-form test for S(a*x^q + b*x) = 0 on a degree-2 extension.

    Holds exactly when a^q + a = 0 and b != 0.  a and b are elements or
    arrays of them (see elementwise).
    """
    if ctx.n != 2:
        raise WrongDegree(f"criterion needs n = 2, got n = {ctx.n}")
    a, b = ew.elements(ctx, a, b)
    return ew.result((ew.frobenius(ctx, a, ctx.m) == a) & (b != 0), a, b)


def s_zero_binomial(ctx: FieldContext, a, b, k: int):
    """Closed-form test for S(a*x^(q^k) + b*x) = 0 with 0 < 2k < n, gcd(k,n)=1.

    Three branches: a = 0 with b != 0; n odd with the trace condition on
    b * a^(-(q^(kn)+1)/(q^k+1)); n even with a nonzero twisted power sum.
    The even branch is evaluated exactly as written; exhaustive verification
    against s_bruteforce is the arbiter of its reach.  a and b are elements
    or arrays of them (see elementwise).
    """
    n, q = ctx.n, ctx.q
    if not (0 < 2 * k < n) or math.gcd(k, n) != 1:
        raise BadParameters(f"need 0 < 2k < n and gcd(k, n) = 1, got k={k} n={n}")
    a, b = ew.elements(ctx, a, b)
    unit = a | (a == 0)             # a, and 1 where a = 0, whose branch is b != 0
    if n % 2 == 1:
        e, rem = divmod(q ** (k * n) + 1, q ** k + 1)
        if rem:
            raise InvariantViolation(f"q^k + 1 does not divide q^(kn) + 1 (k={k} n={n})")
        t = ew.trace_to(ctx, ew.mul(ctx, b, ew.power(ctx, unit, -e)), ctx.m)
        nonzero = t != 1
    else:
        total = 0
        for i in range(n // 2):
            e, rem = divmod(2 * (q ** (2 * k * i) - 1), q ** k + 1)
            if rem:
                raise InvariantViolation(
                    f"q^k + 1 does not divide 2(q^(2ki) - 1) (k={k} i={i})")
            total ^= ew.mul(ctx, ew.frobenius(ctx, b, (ctx.m * 2 * k * i) % ctx.bits),
                            ew.power(ctx, unit, -e))
        nonzero = total != 0
    return ew.result(np.where(a == 0, b != 0, nonzero), a, b)


def _in_fq(ctx: FieldContext, a, b) -> list:
    """a and b as elements (see elementwise), NotInSubfield unless both
    lie in F_q."""
    a, b = ew.elements(ctx, a, b)
    for name, val in (("a", a), ("b", b)):
        outside = np.logical_not(ew.in_subfield(ctx, val, ctx.m))
        if np.any(outside):
            val = val if isinstance(val, int) else int(val[outside].flat[0])
            raise NotInSubfield(f"{name} = 0x{val:x} is not in F_q")
    return [a, b]


def bilinear_psi_sum(ctx: FieldContext, a, b):
    """Sum of psi(v1*v2 + a*v1 + b*v2) over all v1, v2 in F_q.

    Equals psi(a*b) * q (bilinear_psi_closed); both a and b must lie in
    F_q.  a and b are elements or arrays of them, the sum is taken literally
    for every broadcast pair (see elementwise).
    """
    a, b = _in_fq(ctx, a, b)
    fq = ctx.subfield_elements(ctx.m)
    b_v2 = [ew.mul(ctx, b, v2) for v2 in fq]
    total = 0
    for v1 in fq:
        a_v1 = ew.mul(ctx, a, v1)
        for v2, b_term in zip(fq, b_v2):
            total = total + ew.psi(ctx, ew.mul(ctx, v1, v2) ^ a_v1 ^ b_term)
    return ew.result(total, a, b)


def bilinear_psi_closed(ctx: FieldContext, a, b):
    """psi(a*b) * q, the closed form of bilinear_psi_sum, on the same
    arguments."""
    a, b = _in_fq(ctx, a, b)
    return ew.result(ew.psi(ctx, ew.mul(ctx, a, b)) * ctx.q, a, b)
