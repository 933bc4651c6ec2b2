"""Bit-packed GF(2) polynomial and matrix primitives."""

import random

import pytest

from charperm import gf2
from charperm.errors import DivisionByZero


def test_poly_degree():
    assert gf2.poly_degree(0) == -1
    assert gf2.poly_degree(1) == 0
    assert gf2.poly_degree(0b1011) == 3


def test_poly_mul_known():
    # (x + 1)^2 = x^2 + 1 in characteristic 2
    assert gf2.poly_mul(0b11, 0b11) == 0b101
    assert gf2.poly_mul(0, 0b1101) == 0
    assert gf2.poly_mul(1, 0b1101) == 0b1101


def test_poly_mod():
    # x^2 mod (x^2 + x + 1) = x + 1
    assert gf2.poly_mod(0b100, 0b111) == 0b11
    assert gf2.poly_mod(0b11, 0b111) == 0b11


def test_poly_mod_by_zero_is_typed():
    # a CharpermError that still is the ZeroDivisionError it was
    with pytest.raises(DivisionByZero):
        gf2.poly_mod(0b101, 0)
    assert issubclass(DivisionByZero, ZeroDivisionError)


def test_poly_gcd():
    # gcd(x^2 + 1, x + 1) = x + 1 since x^2 + 1 = (x+1)^2
    assert gf2.poly_gcd(0b101, 0b11) == 0b11
    assert gf2.poly_gcd(0b111, 0b11) == 1


def test_irreducible_counts(irreducibles):
    # number of monic irreducible binary polynomials by degree
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
    for degree, count in expected.items():
        polys = irreducibles(degree, count + 5)
        assert len(polys) == count
        for p in polys:
            assert gf2.poly_degree(p) == degree
            assert gf2.is_irreducible(p)


def test_irreducible_poly_smallest():
    assert gf2.irreducible_poly(2) == 0b111
    assert gf2.irreducible_poly(3) == 0b1011
    assert gf2.irreducible_poly(4) == 0b10011


def test_is_irreducible_rejects():
    assert not gf2.is_irreducible(0b110)      # x^2 + x = x(x+1)
    assert not gf2.is_irreducible(0b101)      # (x+1)^2
    assert not gf2.is_irreducible(0b10101)    # (x^2+x+1)^2


def _random_cols(rng, n):
    return [rng.randrange(1 << n) for _ in range(n)]


def test_mat_apply_and_mul():
    rng = random.Random(0)
    n = 6
    for _ in range(50):
        a = _random_cols(rng, n)
        b = _random_cols(rng, n)
        ab = [gf2.mat_apply(a, c) for c in b]
        for x in range(1 << n):
            assert gf2.mat_apply(ab, x) == gf2.mat_apply(a, gf2.mat_apply(b, x))


def test_mat_rank_kernel_dimension():
    rng = random.Random(1)
    n = 7
    for _ in range(50):
        cols = _random_cols(rng, n)
        rank = gf2.mat_rank(list(cols))
        ker = gf2.mat_kernel(list(cols))
        assert rank + len(ker) == n
        for v in ker:
            assert gf2.mat_apply(cols, v) == 0
        # kernel basis is independent
        assert gf2.mat_rank(list(ker)) == len(ker)


def test_mat_kernel_sorted():
    cols = [0b01, 0b01]  # both columns equal: kernel spanned by (1,1)
    ker = gf2.mat_kernel(cols)
    assert ker == sorted(ker)
    assert ker == [0b11]
