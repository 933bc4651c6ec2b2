"""Arithmetic for the tower GF(2) <= GF(q) <= GF(q^n) with q = 2^m.

Field elements are plain ints: bit i holds the coefficient of x^i in the
residue class modulo the field modulus, so addition is xor and there are no
per-element wrapper objects.  A FieldContext fixes m, n, the modulus and the
chosen F_q-basis, and provides both scalar operations and numpy lookup tables
for whole-field sweeps.  Every table is built from GF(2)-linearity (see
_linear_table): a few scalar calls per bit, not one per element.  Element
and log tables are int32; log_table[0] is a sentinel into a zero-filled tail
of exp_table, so a vector product is one lookup exp[log x + log y], no masks.
So is a power map c * x^e on a block of inputs (monomial_vec): there log x is
log_table itself, sliced to the block.

One cache, one memo: every table and constant a context derives is kept in
its one dict _caches, keyed by the accessor's name and normalized argument,
and only _memo reads or writes it.

The scalar mul, pow, inv and frobenius, and each term of trace_to and of
linearized.evaluate, are one lookup each in the context's own
exp_table/log_table up to _TABLE_BITS = 16 bits, where they build the pair
on first use, and above that once the context holds the pair already.
Otherwise they are bit-serial, so a large context builds no table it was
not asked for.  On both routes they raise BadParameters for an
operand outside 0 .. order - 1.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from . import gf2
from .errors import (
    BadParameters,
    DivisionByZero,
    InvalidModulus,
    InvalidSubfield,
    InvariantViolation,
    NotInSubfield,
    SizeGuard,
)

DEFAULT_SIZE_CAP = 24


class FieldContext:
    """GF(2^bits) = GF(q^n), q = 2^m, with a distinguished F_q-basis.

    Attributes
    ----------
    m, n : tower parameters; bits = m*n
    q : 2^m
    order : 2^bits, number of field elements
    group_order : 2^bits - 1
    modulus : irreducible GF(2) polynomial of degree bits (int encoding)
    fq_basis : tuple of n elements forming an F_q-basis of the field
    size_cap : the one size limit: construction refuses bits beyond it,
        so every full-field routine runs on any context that exists
    """

    # Nothing in src/ reads this; perfbench's force_tables does.
    charsum_cap = 12

    def __init__(self, m: int, n: int, modulus: int | None = None, *,
                 size_cap: int = DEFAULT_SIZE_CAP):
        if m < 1 or n < 1:
            raise InvalidModulus(f"tower degrees must be positive, got m={m} n={n}")
        bits = m * n
        if bits > size_cap:
            raise SizeGuard(f"m*n = {bits} exceeds the size cap {size_cap}")
        if modulus is None:
            modulus = gf2.irreducible_poly(bits)
        else:
            if modulus < 0:
                raise InvalidModulus(f"modulus {modulus:#x} is negative")
            if gf2.poly_degree(modulus) != bits:
                raise InvalidModulus(
                    f"modulus 0x{modulus:x} has degree {gf2.poly_degree(modulus)}, expected {bits}")
            if not gf2.is_irreducible(modulus):
                raise InvalidModulus(f"modulus 0x{modulus:x} is reducible")
        self.m = m
        self.n = n
        self.bits = bits
        self.q = 1 << m
        self.order = 1 << bits
        self.group_order = self.order - 1
        self.modulus = modulus
        self.size_cap = size_cap
        self._caches: dict[tuple, object] = {}    # see _memo
        self._views: tuple | None = None     # see _load_views
        self.fq_basis = self._build_fq_basis()

    def __repr__(self):
        return f"FieldContext(m={self.m}, n={self.n}, modulus=0x{self.modulus:x})"

    def __eq__(self, other):
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (self.m, self.n, self.modulus) == (other.m, other.n, other.modulus)

    def __hash__(self):
        return hash((self.m, self.n, self.modulus))

    def __getstate__(self):
        # memoryviews do not pickle; _load_views makes them again on demand
        return {**self.__dict__, "_views": None}

    # ---- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Product in GF(2^bits): exp[log a + log b] where _load_views gives
        the tables, the bit-serial multiply otherwise."""
        if not 0 <= a | b < self.order:
            self._reject(a, b)
        if not (a and b):
            return 0
        views = self._views or self._load_views()
        if views is None:
            return self._mul_serial(a, b)
        exp, log = views
        return exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        """a^e with exponents reduced modulo the group order for a != 0:
        exp[(log a * e) mod group_order] where _load_views gives the tables,
        square-and-multiply otherwise.

        0^0 = 1; 0^e = 0 for e > 0; negative e with a = 0 raises.
        """
        if not 0 <= a < self.order:
            self._reject(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("inverse of zero")
            return 0
        views = self._views or self._load_views()
        if views is None:
            return self._pow_serial(a, e)
        exp, log = views
        return exp[log[a] * e % self.group_order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.pow(a, -1)

    def frobenius(self, a: int, k: int) -> int:
        """a^(2^k), k taken modulo bits (so negative k works):
        exp[(log a * 2^k) mod group_order] where _load_views gives the
        tables, k bit-serial squarings otherwise."""
        if not 0 <= a < self.order:
            self._reject(a)
        k %= self.bits
        if not (a and k):
            return a
        views = self._views or self._load_views()
        if views is None:
            for _ in range(k):
                a = self._mul_serial(a, a)
            return a
        exp, log = views
        return exp[(log[a] << k) % self.group_order]

    def trace_to(self, a: int, sub_m: int) -> int:
        """Relative trace onto GF(2^sub_m): sum of a^(2^(sub_m * i)), one
        lookup per term where _load_views gives the tables (see
        _orbit_sum)."""
        self._check_subfield_degree(sub_m)
        return self._orbit_sum(a, sub_m, self.bits // sub_m)

    def norm_to(self, a: int, sub_m: int) -> int:
        """Relative norm onto GF(2^sub_m): a^((2^bits-1)/(2^sub_m-1))."""
        self._check_subfield_degree(sub_m)
        e, rem = divmod(self.group_order, (1 << sub_m) - 1)
        if rem:
            raise InvariantViolation(
                f"2^{sub_m} - 1 does not divide the group order {self.group_order}")
        return self.pow(a, e)

    def chi(self, a: int) -> int:
        """Canonical additive character: (-1)^(absolute trace of a)."""
        return 1 - 2 * ((a & self.trace_mask).bit_count() & 1)

    def subfield_abs_trace(self, a: int, sub_m: int) -> int:
        """Absolute trace of GF(2^sub_m) evaluated at a subfield element a."""
        self._check_subfield_degree(sub_m)
        if self.frobenius(a, sub_m) != a:
            raise NotInSubfield(f"0x{a:x} is not in GF(2^{sub_m})")
        return self._orbit_sum(a, 1, sub_m)

    def psi(self, a: int) -> int:
        """Canonical additive character of the subfield F_q, at a in F_q."""
        return 1 - 2 * (self.subfield_abs_trace(a, self.m) & 1)

    def in_subfield(self, a: int, sub_m: int) -> bool:
        self._check_subfield_degree(sub_m)
        return self.frobenius(a, sub_m) == a

    def _orbit_sum(self, a: int, step: int, terms: int) -> int:
        """Sum of a^(2^(step * i)) for 0 <= i < terms: one lookup
        exp[(log a << step * i) mod group_order] per term where _load_views
        gives the tables, frobenius(t, step) steps otherwise."""
        if not 0 <= a < self.order:
            self._reject(a)
        if terms == 1 or not a:
            return a
        views = self._views or self._load_views()
        if views is None:
            r = t = a
            for _ in range(terms - 1):
                t = self.frobenius(t, step)
                r ^= t
            return r
        exp, log = views
        la, go = log[a], self.group_order
        r = 0
        for i in range(0, step * terms, step):
            r ^= exp[(la << i) % go]
        return r

    def _reject(self, *operands: int):
        """Raise for the operands outside 0 .. order - 1.  mul tests both
        at once: a | b lies in that range exactly when a and b do."""
        bad = ", ".join(hex(x) for x in operands if not 0 <= x < self.order)
        raise BadParameters(f"{bad} is not an element of GF(2^{self.bits})")

    def _mul_serial(self, a: int, b: int) -> int:
        """Carry-less multiply reduced by the modulus, one bit of b at a time."""
        r = 0
        mod = self.modulus
        top = 1 << self.bits
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def _pow_serial(self, a: int, e: int) -> int:
        """Square-and-multiply through _mul_serial, for a != 0."""
        e %= self.group_order
        r = 1
        while e:
            if e & 1:
                r = self._mul_serial(r, a)
            a = self._mul_serial(a, a)
            e >>= 1
        return r

    def _load_views(self) -> tuple | None:
        """(exp, log) memoryviews over exp_table and log_table for the
        scalar operations to read: up to _TABLE_BITS bits, building the
        tables on first use, and above that once log_table (and with it
        exp_table) is built.  None otherwise: a large context builds no
        table from scalar calls, and stays bit-serial until it has one."""
        if self.bits > _TABLE_BITS and ("log_table",) not in self._caches:
            return None
        self._views = (memoryview(self.exp_table), memoryview(self.log_table))
        return self._views

    def _memo(self, key: tuple, build):
        """The value cached under key, from build() on the first request."""
        if key not in self._caches:
            self._caches[key] = build()
        return self._caches[key]

    def _check_subfield_degree(self, sub_m: int):
        if sub_m < 1 or self.bits % sub_m != 0:
            raise InvalidSubfield(f"GF(2^{sub_m}) is not a subfield of GF(2^{self.bits})")

    # ---- F_q structure ----------------------------------------------------

    def subfield_basis(self, sub_m: int) -> Tuple[int, ...]:
        """GF(2)-basis of the subfield GF(2^sub_m) inside this field."""
        self._check_subfield_degree(sub_m)
        def build():
            # kernel of a |-> a^(2^sub_m) + a
            cols = [self.frobenius(1 << j, sub_m) ^ (1 << j) for j in range(self.bits)]
            basis = gf2.mat_kernel(cols)
            if len(basis) != sub_m:
                raise InvariantViolation(
                    f"fixed space of x^(2^{sub_m}) has dimension {len(basis)}, "
                    f"expected {sub_m}")
            return tuple(basis)
        return self._memo(("subfield_basis", sub_m), build)

    def subfield_elements(self, sub_m: int) -> Tuple[int, ...]:
        """All elements of GF(2^sub_m) inside this field, sorted ascending."""
        return self._memo(("subfield_elements", sub_m), lambda: tuple(sorted(
            _linear_table(self.subfield_basis(sub_m)).tolist())))

    def fq_linearly_independent(self, elems: Sequence[int]) -> bool:
        """True iff the elements are linearly independent over F_q.

        The t*m vectors s_j * e_i, where the s_j run over a GF(2)-basis of
        F_q, have no GF(2) relation.
        """
        return not gf2.mat_kernel(self.fq_columns(elems))

    def fq_columns(self, elems: Sequence[int]) -> List[int]:
        """s_j * e_i over a GF(2)-basis s_j of F_q, entry i * m + j.  For
        an F_q-basis e_i these span the field over GF(2), and a q-linear L
        takes them to fq_columns of the values L(e_i)."""
        sub = self.subfield_basis(self.m)
        return [self.mul(s, e) for e in elems for s in sub]

    def _build_fq_basis(self) -> Tuple[int, ...]:
        """1, x, ..., x^(n-1): the residue of x generates the field over
        GF(2), so its degree over F_q is n and its first n powers are an
        F_q-basis."""
        if self.n == 1:
            return (1,)
        basis = tuple(1 << i for i in range(self.n))
        if not self.fq_linearly_independent(basis):
            raise InvariantViolation(f"1, x, ..., x^{self.n - 1} are not an F_q-basis")
        return basis

    # ---- lookup tables and vector ops ------------------------------------

    @property
    def trace_mask(self) -> int:
        return self._memo(("trace_mask",), lambda: sum(
            1 << i for i in range(self.bits) if self.trace_to(1 << i, 1) & 1))

    @property
    def generator(self) -> int:
        """Smallest generator of the multiplicative group."""
        def build():
            go = self.group_order
            if go == 1:
                return 1
            primes = gf2._prime_factors(go)
            g = 2
            while any(self._pow_serial(g, go // p) == 1 for p in primes):
                g += 1
            return g
        return self._memo(("generator",), build)

    @property
    def elements(self) -> np.ndarray:
        return self._memo(("elements",), lambda: np.arange(self.order, dtype=np.int64))

    @property
    def exp_table(self) -> np.ndarray:
        """int32 power table: exp_table[i] = g^(i mod (order-1)) for
        0 <= i < 2*(order-1), then zeros up to index 4*(order-1).

        The zero tail is where log_table's sentinel for 0 points, so
        exp_table[log x + log y] is x*y for every x and y, zeros included.
        Built by exponent doubling: with g^0 .. g^(L-1) in place, the next
        block g^L .. g^(2L-1) is that prefix times the constant g^L, a
        GF(2)-linear map applied through 8-bit slice tables.
        """
        def build():
            go = max(self.group_order, 1)
            arr = np.zeros(4 * go + 1, dtype=np.int32)
            arr[0] = 1
            filled, c = 1, self.generator        # c = g^filled
            while filled < go:
                count = min(filled, go - filled)
                cols = [self._mul_serial(c, 1 << j) for j in range(self.bits)]
                slices = [_linear_table(cols[lo:lo + 8])
                          for lo in range(0, self.bits, 8)]
                for start in range(0, count, _CHUNK):
                    src = arr[start:min(start + _CHUNK, count)]
                    dst = arr[filled + start:filled + start + src.size]
                    dst[:] = slices[0][src & 0xFF]
                    for i, table in enumerate(slices[1:], 1):
                        dst ^= table[(src >> (8 * i)) & 0xFF]
                filled += count
                c = self._mul_serial(c, c)
            arr[go:2 * go] = arr[:go]
            return arr
        return self._memo(("exp_table",), build)

    @property
    def log_table(self) -> np.ndarray:
        """int32 discrete logs to the base generator, and at 0 the sentinel
        2*(order-1): added to any log (or to itself) it indexes the zero
        tail of exp_table."""
        def build():
            go = max(self.group_order, 1)
            arr = np.empty(self.order, dtype=np.int32)
            arr[0] = 2 * go
            arr[self.exp_table[:go]] = np.arange(go, dtype=np.int32)
            return arr
        return self._memo(("log_table",), build)

    @property
    def chi_table(self) -> np.ndarray:
        def build():
            # the absolute trace bit is linear: parity of v & trace_mask
            mask = self.trace_mask
            t = _linear_table([(mask >> j) & 1 for j in range(self.bits)])
            return (1 - 2 * t).astype(np.int8)
        return self._memo(("chi_table",), build)

    def frob_table(self, k: int) -> np.ndarray:
        """Permutation array v |-> v^(2^k) over all elements, k modulo bits.

        Frobenius is GF(2)-linear, so the table is built from the images of
        the bits unit vectors alone (see _linear_table).
        """
        k %= self.bits
        return self._memo(("frob_table", k), lambda: _linear_table(
            [self.frobenius(1 << j, k) for j in range(self.bits)]))

    def trace_table(self, sub_m: int) -> np.ndarray:
        """trace_to(v, sub_m) for every element v, built from the traces of
        the unit vectors by linearity (see _linear_table)."""
        self._check_subfield_degree(sub_m)
        return self._memo(("trace_table", sub_m), lambda: _linear_table(
            [self.trace_to(1 << j, sub_m) for j in range(self.bits)]))

    def subfield_mask(self, sub_m: int) -> np.ndarray:
        """Boolean array: which elements lie in GF(2^sub_m).  sub_m is taken
        modulo bits, and a residue of 0 stands for bits, the whole field;
        InvalidSubfield unless the residue divides bits."""
        sub_m %= self.bits
        self._check_subfield_degree(sub_m or self.bits)
        return self._memo(("subfield_mask", sub_m),
                          lambda: self.frob_table(sub_m) == self.elements)

    def mul_vec(self, a: int, arr: np.ndarray) -> np.ndarray:
        """Scalar times vector, elementwise over field elements."""
        return self.mul_elementwise(a, arr)

    def mul_elementwise(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise product of two arrays that broadcast against each
        other.  The logs are looked up before broadcasting (a column of
        coefficients against a table, say); the sentinel log of 0 makes
        every product with a zero factor land on a zero of exp_table."""
        log = self.log_table
        return self.exp_table.take(log.take(x) + log.take(y))

    def pow_vec(self, arr: np.ndarray, e) -> np.ndarray:
        """Elementwise arr^e with the same conventions as pow(); e is an int
        or an array of them that broadcasts against arr."""
        if np.ndim(e) == 0 and e == 0:
            return np.ones_like(arr)
        arr = np.asarray(arr)
        zero = arr == 0
        if not isinstance(e, int):
            e = np.asarray(e, dtype=np.int64)
            zero = zero & (e != 0)      # 0^0 = 1
        if np.any(e < 0) and np.any(zero & (e < 0)):
            raise DivisionByZero("inverse of zero")
        go = max(self.group_order, 1)
        # log * e needs int64; the sentinel of 0 is no log, so zeros are cleared after
        logs = self.log_table.take(arr).astype(np.int64)
        out = self.exp_table.take(logs * (e % go) % go)
        out[zero] = 0
        return out

    def monomial_vec(self, c, e, block: slice = slice(None)) -> np.ndarray:
        """c * x^e for the elements x of block, a slice of element order
        (every element by default), as in pow() (e < 0 raises: 0 is an
        element); c and e are each an int or an array broadcasting against
        the block's axis (a stack of monomials: c[..., None], e[..., None]).
        As log x is log_table[block], this is one lookup
        exp[log c + (e * log x mod (order-1))], with x = 0 set after when the
        block holds it."""
        scalar = isinstance(e, int)
        if e < 0 if scalar else (np.asarray(e) < 0).any():
            raise DivisionByZero("inverse of zero")
        if isinstance(c, int) and not 0 <= c < self.order:
            self._reject(c)
        lo, hi, step = block.indices(self.order)
        if step != 1:
            raise BadParameters(f"input block {block} is not contiguous")
        go = self.group_order
        # needs int64; an int e may be far past int64, so it is reduced first
        logs = self.log_table[lo:hi] * (np.int64(e % go) if scalar
                                        else np.asarray(e, np.int64) % go)
        # mod go by a floor division: numpy divides by a scalar without a
        # hardware division per entry, and takes % at full cost (about 2x)
        quotient = logs // go
        quotient *= go
        logs -= quotient
        # in place unless c widens the shape: a fresh 2^20 array costs as much as a step
        own = (np.ndim(c) <= 1 if scalar
               else np.broadcast_shapes(logs.shape, np.shape(c)) == logs.shape)
        logs = np.add(logs, self.log_table.take(c), out=logs if own else None)
        out = self.exp_table.take(logs)
        if lo == 0 < hi:        # 0^e = 0 for e > 0; c * 0^0 = c stays
            if not scalar:
                out[..., :1] *= e == 0
            elif e:
                out[..., 0] = 0
        return out

    @property
    def chi_index_table(self) -> np.ndarray:
        """For each u, the GF(2) functional index s such that the absolute
        trace of u*w equals the bit parity of s & w for all w.  The map
        u |-> s is GF(2)-linear, so only the unit vectors' indices are
        computed directly."""
        def build():
            mask = self.trace_mask
            basis_masks = []
            for j in range(self.bits):
                s = 0
                for i in range(self.bits):
                    if (self.mul(1 << j, 1 << i) & mask).bit_count() & 1:
                        s |= 1 << i
                basis_masks.append(s)
            return _linear_table(basis_masks)
        return self._memo(("chi_index_table",), build)


# Elements per block when exp_table applies a linear map, which bounds the
# temporaries of that step to a few MB whatever the field size.
_CHUNK = 1 << 16

# Largest field (in bits) whose scalar operations build exp_table and
# log_table on first use: the pair takes 1.3 MB at 16 bits, 21 MB at 20 and
# 336 MB at 24 (exp_table's zero tail is half of it), so larger fields keep
# the bit-serial multiply until something else has built the pair.
_TABLE_BITS = 16


def _linear_table(images, out: np.ndarray | None = None, filled: int = 0) -> np.ndarray:
    """Table of the GF(2)-linear map sending unit vector 1 << j to images[j].

    Entry v is the xor of images[j] over the set bits j of v.  Built by
    doubling into one int32 array: out[L:2L] = out[:L] ^ images[j] for
    L = 2^j, so the cost is one vector xor per image and no scalar call per
    element, and the prefix out[:2^j] is complete after j steps.  images
    may also be an array (..., k); the result then has one table of 2^k
    entries per row, along the last axis.

    out, when given, is the prefix to complete, out[..., :2^b] of such a
    table (a view into it), whose first filled entries (0 or a power of
    two at most 2^b) are in place: the doubling resumes there, so a reader
    can build a table in steps, each as far as it reads.
    """
    images = np.asarray(images, dtype=np.int32)
    if out is None:
        out = np.empty(images.shape[:-1] + (1 << images.shape[-1],), dtype=np.int32)
    if not filled:
        out[..., 0] = 0
        filled = 1
    while filled < out.shape[-1]:
        np.bitwise_xor(out[..., :filled], images[..., filled.bit_length() - 1, None],
                       out=out[..., filled:2 * filled])
        filled *= 2
    return out


def build_context(m: int, n: int, modulus: int | None = None, *,
                  size_cap: int = DEFAULT_SIZE_CAP) -> FieldContext:
    """Construct the field GF((2^m)^n) with a validated or default modulus."""
    return FieldContext(m, n, modulus, size_cap=size_cap)


def walsh_hadamard(vec: Iterable[int] | np.ndarray) -> np.ndarray:
    """In-order Walsh-Hadamard transform of a length-2^k integer vector, or
    of each row of a stack (..., 2^k) along its last axis."""
    v = np.array(vec, dtype=np.int64)
    shape = v.shape
    size = shape[-1] if shape else v.size
    if size & (size - 1):
        raise BadParameters(f"Walsh-Hadamard input length {size} is not a power of two")
    h = 1
    while h < size:
        w = v.reshape(shape[:-1] + (-1, 2, h))
        a = w[..., 0, :].copy()
        b = w[..., 1, :].copy()
        np.add(a, b, out=w[..., 0, :])
        np.subtract(a, b, out=w[..., 1, :])
        h *= 2
    return v
