"""Linearized (2-linear) polynomials L(x) = sum of a_i * x^(2^i).

Coefficients are stored densely at all bit positions 0..bits-1, with the
exponent convention x^(2^bits) = x.  A polynomial is q-linear exactly when
its support sits at indices divisible by m; the q_linear flag always reflects
that condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Tuple

import numpy as np

from . import gf2
from .errors import InvariantViolation
from .field import FieldContext, _linear_table


@dataclass(frozen=True)
class LinearizedPoly:
    coeffs: Tuple[int, ...]  # coeffs[i] multiplies x^(2^i)
    q_linear: bool

    def support(self) -> List[int]:
        return [i for i, c in enumerate(self.coeffs) if c]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def linearized(ctx: FieldContext, pairs: Iterable[Tuple[int, int]] = ()) -> LinearizedPoly:
    """Build a polynomial from (index, coefficient) pairs.

    Indices are folded modulo bits (x^(2^bits) = x) and coefficients at the
    same index are added.
    """
    coeffs = [0] * ctx.bits
    for i, c in pairs:
        if not 0 <= c < ctx.order:
            raise ValueError(f"coefficient 0x{c:x} is not a {ctx.bits}-bit element")
        coeffs[i % ctx.bits] ^= c
    return LinearizedPoly(tuple(coeffs),
                          all(i % ctx.m == 0 for i, c in enumerate(coeffs) if c))


def q_linearized(ctx: FieldContext, qpairs: Iterable[Tuple[int, int]] = ()) -> LinearizedPoly:
    """Build sum of c_j * x^(q^j) from (j, c_j) pairs."""
    return linearized(ctx, [((ctx.m * j) % ctx.bits, c) for j, c in qpairs])


def linearized_rows(ctx: FieldContext, pairs) -> np.ndarray:
    """linearized for a stack of polynomials, as coefficient rows: each
    coefficient is a scalar or an array, and the stack has their broadcast
    shape, with one last axis of length bits (see evaluate_all).  The
    coefficients are not checked."""
    shape = np.broadcast_shapes(*(np.shape(c) for _, c in pairs if not isinstance(c, int)))
    rows = np.zeros(shape + (ctx.bits,), dtype=np.int64)
    for i, c in pairs:
        rows[..., i % ctx.bits] ^= c
    return rows


def zero(ctx: FieldContext) -> LinearizedPoly:
    return linearized(ctx)


def identity(ctx: FieldContext) -> LinearizedPoly:
    return linearized(ctx, [(0, 1)])


def add(ctx: FieldContext, l1: LinearizedPoly, l2: LinearizedPoly) -> LinearizedPoly:
    return linearized(ctx, [(i, a ^ b) for i, (a, b) in
                            enumerate(zip(l1.coeffs, l2.coeffs))])


def evaluate(ctx: FieldContext, poly: LinearizedPoly, x: int) -> int:
    """L(x): one lookup exp[log c_i + (log x << i) mod (order - 1)] per
    nonzero term where the context gives its exp/log views (see
    FieldContext._load_views), else a walk along the Frobenius orbit of x,
    one frobenius step from each nonzero term to the next.  BadParameters
    unless x is an element."""
    if not 0 <= x < ctx.order:
        ctx._reject(x)
    views = ctx._views or ctx._load_views()
    r = 0
    if views is None:
        t = x
        at = 0
        for i, c in enumerate(poly.coeffs):
            if c:
                t = ctx.frobenius(t, i - at)
                at = i
                r ^= ctx.mul(c, t)
        return r
    if not x:
        return 0
    exp, log = views
    lx, go = log[x], ctx.group_order
    for i, c in enumerate(poly.coeffs):
        if c:
            r ^= exp[log[c] + (lx << i) % go]
    return r


def _columns(ctx: FieldContext, rows: np.ndarray) -> np.ndarray:
    """Indices i at which some row has a nonzero coefficient.  any(axis=0)
    pays per row: from 128 rows on, einsum's column sums are faster (17
    against 43 us on 1024 rows of 12 bits; level at 64-128 rows of 12-20
    bits, 2 cores).  They add in int64, so sums of field elements, which
    are not negative, cannot wrap to 0 whatever the stack's dtype."""
    flat = rows.reshape(-1, ctx.bits)
    if len(flat) < 128:
        return np.flatnonzero(flat.any(axis=0))
    return np.flatnonzero(np.einsum("ij->j", flat, dtype=np.int64, casting="unsafe"))


def pairs(ctx: FieldContext, poly) -> List[Tuple[int, object]]:
    """The (index, coefficient) pairs of poly's nonzero terms, the inverse
    of linearized and linearized_rows: ints for a LinearizedPoly, and for a
    stack of coefficient rows each nonzero column, an array over the stack;
    a stack of zero rows only keeps its column 0, so that the terms of a
    map built from them still carry the stack's shape."""
    if isinstance(poly, LinearizedPoly):
        return [(i, poly.coeffs[i]) for i in poly.support()]
    columns = _columns(ctx, poly)
    return [(int(i), poly[..., i]) for i in (columns if columns.size else [0])]


def _q_linear_rows(ctx: FieldContext, rows: np.ndarray) -> np.ndarray:
    """Which rows of a stack are q-linear: support at multiples of m only."""
    return ~rows[..., np.arange(ctx.bits) % ctx.m != 0].any(axis=-1)


def _all_q_linear(ctx: FieldContext, rows: np.ndarray) -> bool:
    """Is every row of a stack q-linear?  One flat any() of the columns off
    the multiples of m, of which there are none for m = 1."""
    return ctx.m == 1 or not rows[..., np.arange(ctx.bits) % ctx.m != 0].any()


def _evaluate_at(ctx: FieldContext, rows: np.ndarray, points) -> np.ndarray:
    """Every row of a stack evaluated at points, an int array that
    broadcasts against rows[..., :1], one value per point along a new last
    axis."""
    out = np.zeros(np.broadcast_shapes(rows.shape[:-1] + (1,), np.shape(points)),
                   dtype=np.int32)
    for i in _columns(ctx, rows):
        out ^= ctx.mul_elementwise(rows[..., i, None], ctx.frob_table(i)[points])
    return out


def unit_images(ctx: FieldContext, poly) -> np.ndarray:
    """L at the unit vectors 1 << j, as int32 along the last axis: the
    images that determine the GF(2)-linear map (to_matrix for one
    polynomial, _evaluate_at for a stack of coefficient rows)."""
    if isinstance(poly, LinearizedPoly):
        return np.array(to_matrix(ctx, poly), dtype=np.int32)
    return _evaluate_at(ctx, np.asarray(poly, dtype=np.int64), 1 << np.arange(ctx.bits))


def evaluate_blocks(ctx: FieldContext, poly) -> Callable[[slice], np.ndarray]:
    """Block evaluator of L: values(block) are L(v) for the inputs v of
    block, a slice of element order, as int32 along the last axis; for a
    stack of coefficient rows (see evaluate_all), one row of values per
    polynomial.  The values are views of one value table, which later
    reads return again, so they are not to be written.

    L is GF(2)-linear, so the table is built from its bits values at the
    unit vectors (see unit_images) by doubling (see field._linear_table),
    and only as far as the reads need: up to the least power of two past
    the highest input read so far, continued from there by a later read.
    A scan that stops at its first failing block of a 2^20-element field
    then writes a few thousand entries, not 2^20.
    """
    images = unit_images(ctx, poly)
    table = np.empty(images.shape[:-1] + (ctx.order,), dtype=np.int32)
    filled = 0

    def values(block: slice) -> np.ndarray:
        nonlocal filled
        inputs = range(*block.indices(ctx.order))
        size = 1 << max(inputs[0], inputs[-1]).bit_length() if inputs else 0
        if size > filled:
            _linear_table(images, table[..., :size], filled)
            filled = size
        return table[..., block]
    return values


def evaluate_all(ctx: FieldContext, poly) -> np.ndarray:
    """L(v) for every field element v, as an int32 array indexed by v: the
    block evaluator of L (see evaluate_blocks) read on the whole field.

    poly may also be a stack of coefficient rows (..., bits), rows[..., i]
    multiplying x^(2^i); the result then has one value table per row, along
    a new last axis.
    """
    return evaluate_blocks(ctx, poly)(slice(None))


def adjoint(ctx: FieldContext, poly):
    """The trace-dual polynomial: sum of (a_i x)^(2^-i).

    Its coefficient at index (bits - i) mod bits is frobenius(a_i, bits - i),
    and the absolute trace of u * L(v) equals that of adjoint(L)(u) * v.
    For a stack of coefficient rows (see evaluate_all) it is the stack of
    adjoint rows, whose Frobenius steps go through tables.  A single
    polynomial takes scalar steps and builds no table (classify_form takes
    one per call).
    """
    if isinstance(poly, LinearizedPoly):
        return linearized(ctx, [(-i % ctx.bits, ctx.frobenius(c, -i % ctx.bits))
                                for i, c in enumerate(poly.coeffs) if c])
    out = np.zeros_like(poly)
    for i in _columns(ctx, poly):
        out[..., -i % ctx.bits] = ctx.frob_table(-i % ctx.bits)[poly[..., i]]
    return out


def to_matrix(ctx: FieldContext, poly: LinearizedPoly) -> List[int]:
    """The induced GF(2)-linear map as matrix columns; column j is the
    bit-expansion of L(x^j-basis element)."""
    return [evaluate(ctx, poly, 1 << j) for j in range(ctx.bits)]


class Kernel(NamedTuple):
    basis: Tuple[int, ...]  # GF(2)-basis of the kernel, ascending
    dim2: int               # GF(2)-dimension


def kernel(ctx: FieldContext, poly, *, images=None) -> Kernel:
    """Kernel of the induced map.  Basis vectors are field elements.

    For q-linear input the kernel is an F_q-space, so dim2 must be a
    multiple of m; a violation signals an arithmetic bug.

    images, for one q-linear polynomial, are its values at ctx.fq_basis when
    the caller holds them: the matrix is then ctx.fq_columns(images), with
    no evaluation, and basis vectors are bit-vectors over the GF(2)-basis
    ctx.fq_columns(ctx.fq_basis) of the field.

    poly may also be a stack of coefficient rows (see evaluate_all).  Then
    dim2 is an array over the stack and basis has one row of bits entries
    per polynomial: its dim2 basis vectors, ascending, then zeros.  They
    are the vectors the single-polynomial route gives (see _kernel_rows).
    """
    if isinstance(poly, LinearizedPoly):
        basis = gf2.mat_kernel(to_matrix(ctx, poly) if images is None
                               else ctx.fq_columns(images))
        if poly.q_linear and len(basis) % ctx.m:
            raise InvariantViolation(
                f"q-linear kernel dimension {len(basis)} is not a multiple of m = {ctx.m}")
        return Kernel(tuple(basis), len(basis))
    rows = np.asarray(poly, dtype=np.int64)
    basis = _kernel_rows(ctx, rows.reshape(-1, ctx.bits))
    dim2 = np.count_nonzero(basis, axis=-1)
    if (_q_linear_rows(ctx, rows).ravel() & (dim2 % ctx.m != 0)).any():
        raise InvariantViolation(
            f"a q-linear kernel dimension is not a multiple of m = {ctx.m}")
    return Kernel(basis.reshape(rows.shape), dim2.reshape(rows.shape[:-1]))


def _kernel_rows(ctx: FieldContext, rows: np.ndarray) -> np.ndarray:
    """gf2.mat_kernel on the matrix of every row of a (B, bits) stack.

    Column L(e_j) is packed with e_j above it (bit bits + j; 2 * bits bits
    fit an int64 up to 31-bit fields, and contexts stop at 24), so one xor
    moves a vector and its combination together.  Columns enter in the order j,
    as in mat_kernel, but against pivots kept fully reduced (no pivot has
    another's leading bit), so a column reduces in one step.  A column that
    reduces to zero gives the kernel vector e_j plus earlier pivot columns;
    that vector is unique, so it is the one mat_kernel finds, and its top
    bit is j, so the vectors come out ascending.
    """
    bits = ctx.bits
    shifts = np.arange(bits)
    work = _evaluate_at(ctx, rows, 1 << shifts) | (1 << (bits + shifts))
    low = (1 << bits) - 1
    piv = np.zeros((len(rows), bits), dtype=np.int64)   # pivot by leading bit
    basis = np.zeros((len(rows), bits), dtype=np.int64)
    for j in range(bits):
        x = work[:, j]
        x = x ^ np.bitwise_xor.reduce(piv * ((x[:, None] >> shifts) & 1), axis=1)
        zero = (x & low) == 0
        basis[zero, j] = x[zero] >> bits
        new = np.flatnonzero(~zero)
        if new.size:
            x = x[new]
            lead = np.frexp((x & low).astype(np.float64))[1] - 1
            sub = piv[new]
            sub ^= ((sub >> lead[:, None]) & 1) * x[:, None]
            sub[np.arange(new.size), lead] = x
            piv[new] = sub
    order = np.argsort(basis == 0, axis=1, kind="stable")
    return np.take_along_axis(basis, order, axis=1)


def parse_linearized(ctx: FieldContext, text: str) -> LinearizedPoly:
    """Parse 'index:hexcoeff' pairs separated by commas; '' is the zero map."""
    pairs = []
    text = text.strip()
    if text:
        for part in text.split(","):
            try:
                idx, coeff = part.split(":")
                pairs.append((int(idx), int(coeff, 16)))
            except ValueError:
                raise ValueError(f"bad linearized term {part!r}, expected index:hexcoeff")
    return linearized(ctx, pairs)


def format_linearized(poly: LinearizedPoly) -> str:
    return ",".join(f"{i}:{c:x}" for i, c in enumerate(poly.coeffs) if c)
