"""Field operations on one element or on an array of elements.

The closed-form criteria (charsum's S = 0 tests and bilinear sums,
permtest's monomial-trace and family conditions) take each element
parameter as an int or as an array, and are written once for both.  On ints
these helpers are the context's scalar operations, which build no table
above field._TABLE_BITS, and a criterion returns a plain bool or int; as
soon as an operand is an array they read the context's tables (exp/log,
frob_table, trace_table, subfield_mask) over the broadcast operands, and a
criterion returns an array of the broadcast shape (see result).  An integer
parameter (an exponent or a shift) may be an array in the same way (see
integers): perm_monomial_trace takes k and shift as ints or as arrays.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NotInSubfield
from .field import FieldContext


def elements(ctx: FieldContext, *values) -> list:
    """values as a criterion reads them: a 0-d value as an int, anything
    else as an array; BadParameters for an entry outside 0 .. order - 1."""
    out = [int(v) if np.ndim(v) == 0 else np.asarray(v) for v in values]
    for v in out:
        outside = np.ravel((v < 0) | (v >= ctx.order))
        if outside.any():
            ctx._reject(int(np.ravel(v)[outside][0]))
    return out


def integers(*values) -> list:
    """Integer parameters as a criterion reads them: a 0-d value as an int,
    anything else as an int64 array (TypeError for a value that is not an
    integer); the criterion checks their range."""
    return [operator.index(v) if np.ndim(v) == 0
            else np.asarray(v).astype(np.int64, casting="same_kind") for v in values]


def result(value, *values):
    """A criterion's value: a plain bool or int when every one of values is
    an int, else an array of their broadcast shape."""
    if all(isinstance(v, int) for v in values):
        return value.item() if isinstance(value, (np.generic, np.ndarray)) else value
    shape = np.broadcast_shapes(*(np.shape(v) for v in values))
    return value if np.shape(value) == shape else np.broadcast_to(value, shape).copy()


def mul(ctx: FieldContext, a, b):
    if isinstance(a, int) and isinstance(b, int):
        return ctx.mul(a, b)
    return ctx.mul_elementwise(a, b)


def power(ctx: FieldContext, a, e):
    if isinstance(a, int) and isinstance(e, int):
        return ctx.pow(a, e)
    return ctx.pow_vec(a, e)


def gcd(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return math.gcd(a, b)
    return np.gcd(a, b)


def frobenius(ctx: FieldContext, a, k: int):
    return ctx.frobenius(a, k) if isinstance(a, int) else ctx.frob_table(k)[a]


def trace_to(ctx: FieldContext, a, sub_m: int):
    return ctx.trace_to(a, sub_m) if isinstance(a, int) else ctx.trace_table(sub_m)[a]


def in_subfield(ctx: FieldContext, a, sub_m: int):
    if isinstance(a, int):
        return ctx.in_subfield(a, sub_m)
    ctx._check_subfield_degree(sub_m)
    return ctx.subfield_mask(sub_m)[a]


def psi(ctx: FieldContext, a):
    """ctx.psi: (-1)^(absolute trace of F_q) at a in F_q, NotInSubfield
    otherwise.  On an array the trace is the sum of a^(2^i), i < m."""
    if isinstance(a, int):
        return ctx.psi(a)
    outside = ~ctx.subfield_mask(ctx.m)[a]
    if outside.any():
        raise NotInSubfield(f"0x{int(a[outside].flat[0]):x} is not in GF(2^{ctx.m})")
    trace = a
    for i in range(1, ctx.m):
        trace = trace ^ ctx.frob_table(i)[a]
    return 1 - 2 * (trace & 1)
