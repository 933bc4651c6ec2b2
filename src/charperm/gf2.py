"""Polynomials and matrices over GF(2), packed into Python ints.

A polynomial is an int whose bit i is the coefficient of x^i.  A matrix is a
list of column ints; bit i of column j is the entry in row i.  Both encodings
follow the usual bitset idiom: addition is xor, no wrapper objects.
"""

from __future__ import annotations

from typing import List

from .errors import DivisionByZero, InvariantViolation


def poly_degree(p: int) -> int:
    """Degree of p, with degree(0) = -1."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def poly_mod(a: int, mod: int) -> int:
    """Remainder of a modulo mod; DivisionByZero for mod = 0."""
    if mod == 0:
        raise DivisionByZero("polynomial modulo zero")
    dm = poly_degree(mod)
    da = poly_degree(a)
    while da >= dm:
        a ^= mod << (da - dm)
        da = poly_degree(a)
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_mulmod(a: int, b: int, mod: int) -> int:
    return poly_mod(poly_mul(a, b), mod)


def is_irreducible(p: int) -> bool:
    """Irreducibility test for a GF(2) polynomial.

    Uses the Frobenius criterion: p of degree d is irreducible iff
    x^(2^d) = x mod p and gcd(x^(2^(d/r)) - x, p) = 1 for every prime r | d.
    """
    d = poly_degree(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if p & 1 == 0:  # divisible by x
        return False
    # frob[k] = x^(2^k) mod p, built by repeated squaring
    t = 0b10
    frob = [t]
    for _ in range(d):
        t = poly_mulmod(t, t, p)
        frob.append(t)
    if frob[d] != 0b10:
        return False
    for r in _prime_factors(d):
        if poly_gcd(frob[d // r] ^ 0b10, p) != 1:
            return False
    return True


def irreducible_poly(degree: int) -> int:
    """Smallest (as an integer) irreducible GF(2) polynomial of the degree."""
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    for p in range(1 << degree, 1 << (degree + 1)):
        if is_irreducible(p):
            return p
    raise InvariantViolation(f"no irreducible polynomial of degree {degree} found")


def _prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n, ascending.  Trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mat_apply(cols: List[int], x: int) -> int:
    """Multiply the matrix by the bit-vector x (bit j selects column j)."""
    r = 0
    j = 0
    while x:
        if x & 1:
            r ^= cols[j]
        x >>= 1
        j += 1
    return r


def mat_rank(vecs: List[int]) -> int:
    """Rank of the span of the given bit-vectors."""
    pivots: List[int] = []
    for v in vecs:
        for p in pivots:
            if v ^ p < v:
                v ^= p
        if v:
            pivots.append(v)
    return len(pivots)


def mat_kernel(cols: List[int]) -> List[int]:
    """Basis of {x : sum of cols[j] over bits j of x is 0}, sorted ascending.

    Augmented elimination: each row carries the combination that produced it.
    """
    rows = [(c, 1 << j) for j, c in enumerate(cols)]
    pivots: List[tuple] = []
    kernel: List[int] = []
    for v, combo in rows:
        for pv, pc in pivots:
            if v ^ pv < v:
                v ^= pv
                combo ^= pc
        if v:
            pivots.append((v, combo))
        else:
            kernel.append(combo)
    return sorted(kernel)
