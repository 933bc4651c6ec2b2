"""Closed forms on an element and on an array: the same verdict at every entry.

Each closed form takes its element parameters as ints or as arrays (see
charperm.elementwise).  On every (a, b) of six small fields the array call
must equal the scalar call entry by entry, a scalar call must return a plain
bool or int, and a bad parameter must raise the same typed error either way.
The integer parameters k and shift of the monomial-plus-trace criterion, and
an exponent of a power or a term, may be arrays as well.
"""

import numpy as np
import pytest

from charperm import (
    FAMILIES,
    evaluate_poly_all,
    bilinear_psi_closed,
    bilinear_psi_sum,
    build_context,
    family_predicate,
    perm_monomial_trace,
    s_zero_binomial,
    s_zero_quadratic_ext,
)
from charperm import elementwise as ew
from charperm import permtest
from charperm.errors import BadParameters, DivisionByZero, NotInSubfield, WrongDegree
from charperm.verify import coprime_ks, gold_ks

PARITY_FIELDS = [(2, 2), (3, 2), (1, 3), (1, 4), (1, 5), (2, 3)]


def _family_cases(ctx):
    """(label, fn, parameters read, a domain or None, scalar type) for each
    family defined on ctx (see _closed_forms)."""
    out = []
    nonzero = np.arange(1, ctx.order)
    for name, fam in FAMILIES.items():
        try:
            fam.check(ctx)
        except BadParameters:
            continue
        if "k" in fam.params:
            extras, domain = [{"k": k} for k in coprime_ks(ctx.n)], nonzero
        elif "variant" in fam.params:
            extras, domain = [{"variant": "binomial"}, {"variant": "qk"}], None
        else:
            extras, domain = [{}], None
        reads = ("a", "b") if "b" in fam.params else ("a",)
        for extra in extras:
            def fn(a, b=None, name=name, extra=extra):
                return family_predicate(ctx, name, {"a": a, "b": b, **extra})
            out.append((f"family:{name} {extra}", fn, reads, domain, bool))
    return out


def _closed_forms(ctx):
    """(label, fn, parameters read, a domain or None for every element,
    scalar type) for every closed form that applies on ctx."""
    fq = np.array(ctx.subfield_elements(ctx.m))
    forms = []
    if ctx.n == 2:
        forms.append(("s_zero_quadratic_ext",
                      lambda a, b: s_zero_quadratic_ext(ctx, a, b), ("a", "b"), None, bool))
    for k in gold_ks(ctx.n):
        forms.append((f"s_zero_binomial k={k}",
                      lambda a, b, k=k: s_zero_binomial(ctx, a, b, k),
                      ("a", "b"), None, bool))
    forms.append(("bilinear_psi_sum", lambda a, b: bilinear_psi_sum(ctx, a, b),
                  ("a", "b"), fq, int))
    forms.append(("bilinear_psi_closed", lambda a, b: bilinear_psi_closed(ctx, a, b),
                  ("a", "b"), fq, int))
    for k in range(ctx.n):
        for shift in range(4):
            forms.append((f"perm_monomial_trace k={k} shift={shift}",
                          lambda a, k=k, shift=shift: perm_monomial_trace(ctx, a, k, shift),
                          ("a",), None, bool))
    return forms + _family_cases(ctx)


@pytest.mark.parametrize("m,n", PARITY_FIELDS, ids=lambda v: str(v))
def test_array_call_equals_scalar_call_at_every_entry(m, n):
    ctx = build_context(m, n)
    labels = set()
    for label, fn, reads, domain, kind in _closed_forms(ctx):
        domain = ctx.elements if domain is None else domain
        if reads == ("a",):
            got = fn(domain)
            want = [fn(a) for a in domain.tolist()]
        else:
            got = fn(domain[:, None], domain)
            want = [[fn(a, b) for b in domain.tolist()] for a in domain.tolist()]
        assert isinstance(got, np.ndarray), label
        assert got.tolist() == want, label
        assert {type(v) for v in np.ravel(np.array(want, dtype=object))} <= {kind}, label
        labels.add(label.split()[0])
    # the thm5 even branch (1:4) is among the forms compared
    assert ("s_zero_binomial" in labels) == bool(gold_ks(n))
    if n == 3:
        assert {"family:tu", "family:abnorm", "family:trform", "family:aqk"} <= labels


def _raises_alike(error, fn, scalar, batch):
    with pytest.raises(error):
        fn(*scalar)
    with pytest.raises(error):
        fn(*batch)


def test_bad_parameters_raise_the_same_error_on_both_paths():
    gf8, gf16_tower, gf64_tower = (build_context(1, 3), build_context(2, 2),
                                   build_context(2, 3))
    arr = np.array([1, 2, 3])
    # a bad k for the binomial test: 2k >= n, k = 0, gcd(k, n) != 1
    for ctx, k in ((gf8, 2), (gf8, 0), (build_context(1, 4), 2)):
        _raises_alike(BadParameters, lambda a, b: s_zero_binomial(ctx, a, b, k),
                      (1, 1), (arr, arr))
    _raises_alike(WrongDegree, lambda a, b: s_zero_quadratic_ext(gf8, a, b),
                  (1, 1), (arr, arr))
    # negative k or shift
    for k, shift in ((-1, 0), (0, -1)):
        _raises_alike(BadParameters, lambda a: perm_monomial_trace(gf8, a, k, shift),
                      (1,), (arr,))
    # a = 0 where the family needs a != 0, and a bad k
    for name in ("trform", "aqk"):
        for a, batch, k in ((0, np.array([1, 0, 2]), 1), (1, arr, 3)):
            _raises_alike(BadParameters,
                          lambda a: family_predicate(gf64_tower, name, {"a": a, "k": k}),
                          (a,), (batch,))
    # a family on a field it is not defined on
    _raises_alike(BadParameters, lambda a: family_predicate(gf16_tower, "tu", {"a": a}),
                  (1,), (arr,))
    # a or b outside F_q
    outside = gf16_tower.generator
    for fn in (bilinear_psi_sum, bilinear_psi_closed):
        _raises_alike(NotInSubfield, lambda a, b: fn(gf16_tower, a, b),
                      (outside, 1), (np.array([1, outside]), np.array([1, 1])))
        _raises_alike(NotInSubfield, lambda a, b: fn(gf16_tower, a, b),
                      (0, outside), (np.array([0, 0]), np.array([outside, 1])))
    # an entry that is not an element
    for bad in (-1, gf8.order):
        for fn in (lambda a, b: s_zero_binomial(gf8, a, b, 1),
                   lambda a, b: family_predicate(gf8, "abnorm", {"a": a, "b": b})):
            _raises_alike(BadParameters, fn, (1, bad), (arr, np.array([1, bad, 2])))
            _raises_alike(BadParameters, fn, (bad, 1), (np.array([bad, 1]), arr[:2]))
        _raises_alike(BadParameters, lambda a: perm_monomial_trace(gf8, a, 0, 1),
                      (bad,), (np.array([1, bad]),))


INTEGER_FIELDS = [(1, 3), (2, 3), (1, 5), (3, 3)]


def _monomial_trace_space(ctx):
    """Every (k, shift, a) with k < n and shift < 4, flat, in that order."""
    return [axis.ravel() for axis in np.meshgrid(np.arange(ctx.n), np.arange(4), ctx.elements,
                                                 indexing="ij")]


@pytest.mark.parametrize("m,n", INTEGER_FIELDS, ids=lambda v: str(v))
def test_integer_array_parameters_equal_the_scalar_calls(m, n):
    ctx = build_context(m, n)
    k, shift, a = _monomial_trace_space(ctx)
    cases = list(zip(a.tolist(), k.tolist(), shift.tolist()))
    want = [perm_monomial_trace(ctx, *case) for case in cases]
    assert {type(v) for v in want} == {bool}
    got = perm_monomial_trace(ctx, a, k, shift)
    assert got.dtype == bool and got.tolist() == want
    # k, shift and a as broadcasting axes give the same cases in that order
    grid = perm_monomial_trace(ctx, ctx.elements, np.arange(n)[:, None, None],
                               np.arange(4)[:, None])
    assert grid.shape == (n, 4, ctx.order) and grid.ravel().tolist() == want
    # a scalar a against arrays of k and shift
    assert perm_monomial_trace(ctx, 1, k, shift).tolist() == [
        perm_monomial_trace(ctx, 1, *case[1:]) for case in cases]
    values = evaluate_poly_all(ctx, permtest.monomial_trace_terms(ctx, a, k, shift))
    assert values.shape == (len(cases), ctx.order)
    for row, case in zip(values, cases):
        one = evaluate_poly_all(ctx, permtest.monomial_trace_terms(ctx, *case))
        assert row.dtype == one.dtype and np.array_equal(row, one)


def test_a_negative_integer_entry_raises_as_the_scalar_call_does():
    gf8 = build_context(1, 3)
    arr = np.array([1, 2, 3])
    def fn(a, k, shift):
        return perm_monomial_trace(gf8, a, k, shift)

    for k, shift in ((-1, 0), (0, -1)):
        ks, shifts = np.array([0, k, 1]), np.array([1, shift, 0])
        for batch in ((arr, ks, shifts), (1, ks, shift), (1, k, shifts)):
            _raises_alike(BadParameters, fn, (1, k, shift), batch)
    # the scalar message is the one it always was
    with pytest.raises(BadParameters, match="got k=-1 shift=0$"):
        perm_monomial_trace(gf8, 1, -1, 0)


def test_values_in_with_an_array_exponent_equals_the_tables_per_case():
    # 2-powers (a scalar call's linear tables) and other exponents, with a
    # batch of coefficients and with one coefficient, in whole and in blocks
    ctx = build_context(2, 3)
    e = np.array([1, 2, 8, 3, ctx.q + 1, 1 + ctx.q ** 2, ctx.group_order, 5 * ctx.order])
    c = np.arange(3, 3 + e.size)
    for coeff in (c, 7):
        f = [(coeff, e), (5, 2), (1, ctx.q + 1)]
        values = permtest._values_in(ctx, f)
        for block in (slice(None), slice(0, 10), slice(10, ctx.order)):
            got = values(block)
            assert got.shape == (e.size, block.indices(ctx.order)[1] - (block.start or 0))
            for i in range(e.size):
                ci = int(coeff[i]) if isinstance(coeff, np.ndarray) else coeff
                one = permtest._values_in(ctx, [(ci, int(e[i])), (5, 2), (1, ctx.q + 1)])(block)
                assert np.array_equal(got[i], one)


def test_power_with_an_array_exponent_equals_pow_per_case():
    ctx = build_context(2, 3)
    a = ctx.elements[:, None]
    e = np.array([0, 1, 2, 3, ctx.group_order, 7 * ctx.order + 3])
    got = ew.power(ctx, a, e)
    assert got.tolist() == [[ctx.pow(x, y) for y in e.tolist()] for x in range(ctx.order)]
    assert ew.power(ctx, 5, e).tolist() == [ctx.pow(5, y) for y in e.tolist()]
    # 0^0 = 1, and 0 to a negative power raises on both paths
    assert ew.power(ctx, np.array([0]), np.array([0, 1])).tolist() == [1, 0]
    _raises_alike(DivisionByZero, lambda a, e: ew.power(ctx, a, e), (0, -1),
                  (np.array([0, 1]), np.array([-1, -1])))
