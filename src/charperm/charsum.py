"""Character sums S(L) of the quadratic forms Q(v) = Tr(v * L(v)).

S(L) is the sum of chi(v * L(v)) over the whole field.  For q-linear L the
form Q takes values in F_q and S(L) is controlled by the kernel of
adjoint(L) + L: either Q vanishes on that kernel and S(L)^2 = q^n * |kernel|,
or S(L) = 0.  classify_form resolves the sign constructively by reducing the
form to its canonical shape over F_q.

s_fast, classify_form and s_bruteforce (with linearized.kernel) take a
single LinearizedPoly or a stack of coefficient rows (..., bits), as
linearized.evaluate_all does.  A stack is decided at once with numpy: the
kernel by one GF(2) elimination over every row, the sign by a symplectic
reduction of the GF(2) form Tr(v * L(v)), and the reports hold arrays over
the stack.  A single polynomial keeps the scalar route, which is cheaper for
one form than a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    BadParameters,
    InvariantViolation,
    NotInSubfield,
    NotQLinear,
    SizeGuard,
    WrongDegree,
)
from .field import FieldContext
from . import linearized as lin
from .linearized import LinearizedPoly


@dataclass(frozen=True)
class QuadraticFormReport:
    kernel_dim_fq: int            # F_q-dimension of ker(adjoint(L) + L)
    vanishes_on_kernel: bool
    s_value: int                  # exact signed S(L); magnitude only if sign unknown
    form_type: Optional[str]      # "zero-sum" | "plus" | "minus" | None
    rank: int                     # canonical rank of the form over F_q
    sign_known: bool = True


@dataclass(frozen=True)
class GramMatrix:
    entries: Tuple[Tuple[int, ...], ...]  # n x n subfield elements


def quad_value(ctx: FieldContext, poly: LinearizedPoly, v: int) -> int:
    """Q(v) = trace onto F_q of v * L(v)."""
    return ctx.trace_to(ctx.mul(v, lin.evaluate(ctx, poly, v)), ctx.m)


def polar_poly(ctx: FieldContext, poly):
    """adjoint(L) + L, whose kernel is the radical of the polar form of Q.
    For a stack of coefficient rows, the stack of polar rows."""
    if isinstance(poly, LinearizedPoly):
        return lin.add(ctx, lin.adjoint(ctx, poly), poly)
    return lin.adjoint(ctx, poly) ^ poly


def _stack(ctx: FieldContext, poly, name: str) -> np.ndarray:
    """poly as coefficient rows (..., bits), every row q-linear."""
    rows = np.asarray(poly, dtype=np.int64)
    if not lin._q_linear_rows(ctx, rows).all():
        raise NotQLinear(f"{name} needs q-linear polynomials")
    return rows


def s_bruteforce(ctx: FieldContext, poly):
    """S(L) summed literally over every field element.

    For a stack of coefficient rows (..., bits) it is the array of the
    rows' sums, one value table per row.
    """
    if ctx.bits > ctx.size_cap:
        raise SizeGuard(f"full-field sum needs 2^{ctx.bits} > 2^{ctx.size_cap} terms")
    values = lin.evaluate_all(ctx, poly)
    prods = ctx.mul_elementwise(ctx.elements, values)
    if isinstance(poly, LinearizedPoly):
        return int(ctx.chi_table[prods].sum(dtype=np.int64))
    return ctx.chi_table[prods].sum(axis=-1, dtype=np.int64)


def s_fast(ctx: FieldContext, poly, *,
           resolve_sign: bool = True) -> QuadraticFormReport:
    """S(L) via the kernel of adjoint(L) + L, for q-linear L.

    Evaluates Q on a GF(2)-basis of the kernel; Q is additive there, so
    vanishing on the basis gives vanishing on the kernel.  A nonzero basis
    value forces S(L) = 0, otherwise |S(L)| = sqrt(q^n * |kernel|) and the
    sign comes from classify_form.

    poly may also be a stack of coefficient rows (..., bits); every field
    of the report is then an array over the stack, row r equal to the
    report of row r alone (see _s_fast_rows).  A single polynomial stays on
    the scalar route, which is faster for one form.
    """
    if not isinstance(poly, LinearizedPoly):
        return _s_fast_rows(ctx, _stack(ctx, poly, "s_fast"), resolve_sign)
    if not poly.q_linear:
        raise NotQLinear("s_fast needs a q-linear polynomial")
    ker = lin.kernel(ctx, polar_poly(ctx, poly))
    dim_fq = ker.dim2 // ctx.m
    vanishes = all(quad_value(ctx, poly, b) == 0 for b in ker.basis)
    if not vanishes:
        return QuadraticFormReport(dim_fq, False, 0, "zero-sum",
                                   rank=ctx.n - dim_fq + 1)
    two_exp = ctx.m * ctx.n + ker.dim2
    if two_exp % 2:
        raise InvariantViolation("S^2 = q^n * |kernel| must be an even power of 2")
    magnitude = 1 << (two_exp // 2)
    rank = ctx.n - dim_fq
    if not resolve_sign:
        return QuadraticFormReport(dim_fq, True, magnitude, None, rank,
                                   sign_known=False)
    full = classify_form(ctx, poly)
    if abs(full.s_value) != magnitude:
        raise InvariantViolation(
            f"classify_form gives |S| = {abs(full.s_value)}, the kernel gives {magnitude}")
    return QuadraticFormReport(dim_fq, True, full.s_value, full.form_type, rank)


def _s_fast_rows(ctx: FieldContext, rows: np.ndarray,
                 resolve_sign: bool) -> QuadraticFormReport:
    """s_fast on a stack of q-linear rows.

    One kernel call gives every row's kernel.  Vanishing is tested with the
    absolute trace of b * L(b) on the GF(2) basis: the kernel is an
    F_q-space and Q(c*v) = c^2 * Q(v), so Tr(c^2 * Q(v)) = 0 for every c in
    F_q exactly when Q(v) = 0.  Only the vanishing rows go to classify_form.
    """
    shape = rows.shape[:-1]
    rows = rows.reshape(-1, ctx.bits)
    ker = lin.kernel(ctx, polar_poly(ctx, rows))
    values = lin._evaluate_at(ctx, rows, ker.basis)
    vanishes = (ctx.chi_table[ctx.mul_elementwise(ker.basis, values)] > 0).all(axis=1)
    two_exp = ctx.bits + ker.dim2
    if (two_exp % 2).any():
        raise InvariantViolation("S^2 = q^n * |kernel| must be an even power of 2")
    magnitude = np.left_shift(1, two_exp // 2, dtype=np.int64)
    dim_fq = ker.dim2 // ctx.m
    s_value = np.where(vanishes, magnitude, 0)
    form_type = np.where(vanishes, None, "zero-sum").astype(object)
    sign_known = ~vanishes
    if resolve_sign and vanishes.any():
        full = classify_form(ctx, rows[vanishes])
        if (np.abs(full.s_value) != magnitude[vanishes]).any():
            raise InvariantViolation(
                "classify_form and the kernel give different |S| on a stack")
        s_value[vanishes] = full.s_value
        form_type[vanishes] = full.form_type
        sign_known[vanishes] = True
    return QuadraticFormReport(
        dim_fq.reshape(shape), vanishes.reshape(shape), s_value.reshape(shape),
        form_type.reshape(shape), (ctx.n - dim_fq + ~vanishes).reshape(shape),
        sign_known.reshape(shape))


def classify_form(ctx: FieldContext, poly, *,
                  cross_check: bool = False) -> QuadraticFormReport:
    """Canonical type and exact signed S(L) via symplectic reduction.

    Splits off hyperbolic planes of the polar form greedily, accumulating the
    Arf-style invariant sum of Q(u_i) * Q(w_i) over the normalized pairs; the
    residual radical either kills S (form not identically zero there) or
    contributes a factor q per dimension.  With cross_check=True the result
    is also compared against s_bruteforce.

    poly may also be a stack of coefficient rows (..., bits); the report's
    fields are then arrays over the stack (see _classify_rows).
    """
    if not isinstance(poly, LinearizedPoly):
        return _classify_rows(ctx, _stack(ctx, poly, "classify_form"), cross_check)
    if not poly.q_linear:
        raise NotQLinear("classify_form needs a q-linear polynomial")
    polar = polar_poly(ctx, poly)

    def bform(u: int, v: int) -> int:
        return ctx.trace_to(ctx.mul(u, lin.evaluate(ctx, polar, v)), ctx.m)

    work: List[int] = list(ctx.fq_basis)
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
        w = ctx.mul(work[j], ctx.inv(bform(u, work[j])))
        rest = [v for k, v in enumerate(work) if k not in (i, j)]
        work = [v ^ ctx.mul(bform(v, w), u) ^ ctx.mul(bform(v, u), w)
                for v in rest]
        arf ^= ctx.mul(quad_value(ctx, poly, u), quad_value(ctx, poly, w))
        planes += 1

    # remaining vectors span the radical of the polar form
    radical_dim = len(work)
    if radical_dim != ctx.n - 2 * planes:
        raise InvariantViolation(
            f"radical dimension {radical_dim} != n - 2 * {planes} hyperbolic planes")
    if any(quad_value(ctx, poly, v) != 0 for v in work):
        report = QuadraticFormReport(radical_dim, False, 0, "zero-sum",
                                     rank=2 * planes + 1)
    else:
        sign = -1 if ctx.subfield_abs_trace(arf, ctx.m) else 1
        s_value = sign * ctx.q ** (planes + radical_dim)
        form_type = "minus" if sign < 0 else "plus"
        report = QuadraticFormReport(radical_dim, True, s_value, form_type,
                                     rank=2 * planes)
    if cross_check:
        if ctx.bits > ctx.size_cap:
            raise SizeGuard("cross check needs a full-field sum")
        brute = s_bruteforce(ctx, poly)
        if brute != report.s_value:
            raise InvariantViolation(
                f"classify_form gives S = {report.s_value}, the full sum gives {brute}")
    return report


def _classify_rows(ctx: FieldContext, rows: np.ndarray,
                   cross_check: bool) -> QuadraticFormReport:
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
    report = QuadraticFormReport(
        dim_fq.reshape(shape), vanishes.reshape(shape), s_value.reshape(shape),
        form_type.reshape(shape), (ctx.n - dim_fq + ~vanishes).reshape(shape),
        np.ones(shape, dtype=bool))
    if cross_check and (s_bruteforce(ctx, rows) != report.s_value).any():
        raise InvariantViolation("classify_form and the full sum differ on a stack")
    return report


def gram_matrix(ctx: FieldContext, poly: LinearizedPoly) -> GramMatrix:
    """Entries trace_to(basis_i * L(basis_j), m) over the F_q-basis."""
    if not poly.q_linear:
        raise NotQLinear("gram_matrix needs a q-linear polynomial")
    images = [lin.evaluate(ctx, poly, b) for b in ctx.fq_basis]
    rows = []
    for bi in ctx.fq_basis:
        rows.append(tuple(ctx.trace_to(ctx.mul(bi, img), ctx.m) for img in images))
    return GramMatrix(tuple(rows))


def evaluate_gram(ctx: FieldContext, gram: GramMatrix, coords: Tuple[int, ...]) -> int:
    """Q(v) from coordinates: sum of v_i * v_j * entries[i][j] over F_q."""
    r = 0
    for i, vi in enumerate(coords):
        for j, vj in enumerate(coords):
            r ^= ctx.mul(ctx.mul(vi, vj), gram.entries[i][j])
    return r


def s_zero_quadratic_ext(ctx: FieldContext, a: int, b: int) -> bool:
    """Closed-form test for S(a*x^q + b*x) = 0 on a degree-2 extension.

    Holds exactly when a^q + a = 0 and b != 0.
    """
    if ctx.n != 2:
        raise WrongDegree(f"criterion needs n = 2, got n = {ctx.n}")
    return ctx.frobenius(a, ctx.m) ^ a == 0 and b != 0


def s_zero_binomial(ctx: FieldContext, a: int, b: int, k: int) -> bool:
    """Closed-form test for S(a*x^(q^k) + b*x) = 0 with 0 < 2k < n, gcd(k,n)=1.

    Three branches: a = 0 with b != 0; n odd with the trace condition on
    b * a^(-(q^(kn)+1)/(q^k+1)); n even with a nonzero twisted power sum.
    The even branch is evaluated exactly as written; exhaustive verification
    against s_bruteforce is the arbiter of its reach.
    """
    n, q = ctx.n, ctx.q
    if not (0 < 2 * k < n) or math.gcd(k, n) != 1:
        raise BadParameters(f"need 0 < 2k < n and gcd(k, n) = 1, got k={k} n={n}")
    if a == 0:
        return b != 0
    if n % 2 == 1:
        e, rem = divmod(q ** (k * n) + 1, q ** k + 1)
        if rem:
            raise InvariantViolation(f"q^k + 1 does not divide q^(kn) + 1 (k={k} n={n})")
        t = ctx.trace_to(ctx.mul(b, ctx.pow(a, -e)), ctx.m)
        return t != 1
    total = 0
    for i in range(n // 2):
        e, rem = divmod(2 * (q ** (2 * k * i) - 1), q ** k + 1)
        if rem:
            raise InvariantViolation(
                f"q^k + 1 does not divide 2(q^(2ki) - 1) (k={k} i={i})")
        term = ctx.mul(ctx.frobenius(b, (ctx.m * 2 * k * i) % ctx.bits),
                       ctx.pow(a, -e))
        total ^= term
    return total != 0


def bilinear_psi_sum(ctx: FieldContext, a: int, b: int) -> int:
    """Sum of psi(v1*v2 + a*v1 + b*v2) over all v1, v2 in F_q.

    Equals psi(a*b) * q; both a and b must lie in F_q.
    """
    for name, val in (("a", a), ("b", b)):
        if not ctx.in_subfield(val, ctx.m):
            raise NotInSubfield(f"{name} = 0x{val:x} is not in F_q")
    total = 0
    for v1 in ctx.subfield_elements(ctx.m):
        for v2 in ctx.subfield_elements(ctx.m):
            arg = ctx.mul(v1, v2) ^ ctx.mul(a, v1) ^ ctx.mul(b, v2)
            total += ctx.psi(arg)
    return total
