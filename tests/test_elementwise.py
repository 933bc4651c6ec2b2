"""Closed forms on an element and on an array: the same verdict at every entry.

Each closed form takes its element parameters as ints or as arrays (see
charperm.elementwise).  On every (a, b) of six small fields the array call
must equal the scalar call entry by entry, a scalar call must return a plain
bool or int, and a bad parameter must raise the same typed error either way.
"""

import numpy as np
import pytest

from charperm import (
    FAMILIES,
    bilinear_psi_closed,
    bilinear_psi_sum,
    build_context,
    family_predicate,
    perm_monomial_trace,
    s_zero_binomial,
    s_zero_quadratic_ext,
)
from charperm.errors import BadParameters, NotInSubfield, WrongDegree
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
