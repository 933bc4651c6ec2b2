"""End-to-end acceptance runs: every closed form against an oracle.

Each criterion prints one PASS/FAIL line on the real stdout (bypassing
capture) and enforces its wall-clock budget.  Fixed case counts double as
regression pins: a silent change in sweep coverage fails loudly here.
"""

import random
import time

import numpy as np
import pytest

from charperm import (
    VerifyCampaign,
    build_context,
    family_predicate,
    gf2,
    perm_monomial_trace,
    run_verify,
)
from charperm import linearized as lin


@pytest.fixture
def emit(request):
    """Print one line on the real terminal, past pytest's fd capture."""
    cm = request.config.pluginmanager.getplugin("capturemanager")

    def _print(line: str) -> None:
        if cm is None:
            print(line, flush=True)
        else:
            with cm.global_and_fixture_disabled():
                print(line, flush=True)

    return _print


def _finish(emit, num: int, desc: str, ok: bool, elapsed: float,
            budget: float, detail: str = "") -> None:
    stamp = f"{elapsed:.2f}s < {budget:.0f}s"
    tail = f"{detail}, {stamp}" if detail else stamp
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    emit(f"[criterion {num:2d}] {verdict} {desc} [{tail}]")
    assert ok
    assert elapsed < budget


# ---- 1: adjoint duality ----------------------------------------------------

def _duality_grid_ok(ctx, poly) -> bool:
    els = ctx.elements
    tr_bit = (ctx.chi_table < 0)
    fwd = lin.evaluate_all(ctx, poly)
    adj = lin.evaluate_all(ctx, lin.adjoint(ctx, poly))
    lhs = tr_bit[ctx.mul_elementwise(els[:, None], fwd[None, :])]
    rhs = tr_bit[ctx.mul_elementwise(adj[:, None], els[None, :])]
    return bool(np.array_equal(lhs, rhs))


def test_criterion_01_adjoint_duality(emit):
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    small = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
             (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
    for m, n in small:
        ctx = build_context(m, n)
        polys = []
        for j in range(ctx.bits):
            coeffs = {1, ctx.generator}
            while len(coeffs) < min(5, ctx.order - 1):
                coeffs.add(rng.randrange(1, ctx.order))
            polys.extend(lin.linearized(ctx, [(j, c)]) for c in coeffs)
        for _ in range(10):
            polys.append(lin.linearized(
                ctx, [(j, rng.randrange(ctx.order)) for j in range(ctx.bits)]))
        failures += sum(not _duality_grid_ok(ctx, p) for p in polys)
    # sampled triples on a 20-bit field, scalar arithmetic only
    big = build_context(2, 10)
    triples = 0
    for _ in range(100):
        poly = lin.linearized(
            big, [(j, rng.randrange(big.order)) for j in range(big.bits)])
        cols = lin.to_matrix(big, poly)
        adj_cols = lin.to_matrix(big, lin.adjoint(big, poly))
        for _ in range(100):
            u = rng.randrange(big.order)
            v = rng.randrange(big.order)
            lhs = big.chi(big.mul(u, gf2.mat_apply(cols, v)))
            rhs = big.chi(big.mul(gf2.mat_apply(adj_cols, u), v))
            failures += lhs != rhs
            triples += 1
    elapsed = time.perf_counter() - t0
    _finish(emit, 1, "adjoint pairing identity on full grids and sampled triples",
            failures == 0, elapsed, 5.0, f"12 small fields + {triples} triples")


# ---- 2: fast character sums vs direct sums ---------------------------------

def test_criterion_02_fast_charsum_oracle(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("prop3"))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.cases_total == 14360
    _finish(emit, 2, "kernel-route S(L) equals the direct sum on binomials and "
            "dense samples", ok, elapsed, 30.0, f"{rep.cases_total} cases")


# ---- 3: quadratic extension criterion --------------------------------------

def test_criterion_03_quadratic_extension(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("thm4"))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.cases_total == 16 + 256 + 4096
    _finish(emit, 3, "degree-2 zero-sum criterion matches brute force", ok,
            elapsed, 10.0, f"{rep.cases_total} cases")


# ---- 4: binomial criterion with documented even-degree gap -----------------

def test_criterion_04_binomial_criterion(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("thm5"))
    elapsed = time.perf_counter() - t0
    gap = {(int(mm["params"]["a"], 16), int(mm["params"]["b"], 16))
           for mm in rep.mismatches}
    fields = {mm["field"] for mm in rep.mismatches}
    ctx = build_context(1, 4)
    predicted = {
        (a, b)
        for a in range(1, 16) if ctx.pow(a, 5) != 1
        for b in range(16) if b ^ ctx.mul(ctx.pow(b, 4), ctx.pow(a, -2)) != 0
    }
    ok = (rep.cases_total == 6464
          and fields == {"1:4:0x13"}
          and gap == predicted
          and all(set(mm["params"]) == {"a", "b", "k"} and mm["replay"]
                  for mm in rep.mismatches)
          and rep.cases_total - rep.cases_agreeing == 150)
    _finish(emit, 4, "q-binomial zero-sum criterion; even-degree divergences "
            "reported verbatim", ok, elapsed, 30.0,
            f"{len(gap)} documented divergences at 16 elements")


# ---- 5: all-shifts permutation test ----------------------------------------

def test_criterion_05_charsum_permutation_test(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("thm1", sample_budget=1000))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.cases_total == 501 + 7 * 1000
    _finish(emit, 5, "all-shifts character test equals occupancy on monomials and "
            "3-term samples", ok, elapsed, 60.0, f"{rep.cases_total} cases")


# ---- 6: quadratic extension permutation criterion --------------------------

def test_criterion_06_quad_ext_permutations(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("thm6"))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.cases_total == 2011177
    _finish(emit, 6, "degree-2 closed-form permutation test vs value tables", ok,
            elapsed, 60.0, f"{rep.cases_total} cases")


# ---- 7: gold-exponent criterion --------------------------------------------

def test_criterion_07_gold_exponent(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("thm7"))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.cases_total == 4536
    _finish(emit, 7, "x^(q^k+1) + L0(x) closed form vs brute force at odd degree",
            ok, elapsed, 60.0, f"{rep.cases_total} cases")


# ---- 8: trace-assembled forms ----------------------------------------------

def test_criterion_08_trace_forms(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("thm_tr"))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.cases_total == 115584
    _finish(emit, 8, "L0(x^(2^l)) + L1(x)Tr(x) closed form vs brute force", ok,
            elapsed, 60.0, f"{rep.cases_total} cases")


# ---- 9: shifted monomial plus x Tr(x) --------------------------------------

def test_criterion_09_monomial_trace(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("corollary"))
    ctx = build_context(2, 3)
    w, w2 = ctx.subfield_elements(2)[2:]
    special = {a for a in range(1, 64) if perm_monomial_trace(ctx, a, 0, 1)}
    elapsed = time.perf_counter() - t0
    ok = (rep.mismatches == [] and rep.cases_total == 1504
          and special == {w, w2})
    _finish(emit, 9, "a*x^(2^l q^k) + x Tr(x) characterization, including the "
            "quadratic-coefficient instance", ok, elapsed, 60.0,
            f"{rep.cases_total} cases; special instance passes exactly 2 of 63")


# ---- 10: named families ----------------------------------------------------

def test_criterion_10_families(emit):
    t0 = time.perf_counter()
    reports = {}
    for cid in ("family:tu", "family:abnorm", "family:q4", "family:trform",
                "family:aqk"):
        reports[cid] = run_verify(VerifyCampaign(cid))
    counts_ok = all(rep.mismatches == [] for rep in reports.values())
    totals = {cid: rep.cases_total for cid, rep in reports.items()}
    sizes_ok = totals == {"family:tu": 584, "family:abnorm": 4160,
                          "family:q4": 128, "family:trform": 140,
                          "family:aqk": 4232}
    # sufficiency families: the predicate-true sets have their closed sizes
    structural_ok = True
    for m in (1, 2, 3):
        ctx = build_context(m, 3)
        hits = sum(family_predicate(ctx, "tu", {"a": a})
                   for a in range(ctx.order))
        structural_ok &= hits == ctx.q - 1
    ctx = build_context(2, 3)
    for variant in ("binomial", "qk"):
        hits = sum(family_predicate(ctx, "q4", {"a": a, "variant": variant})
                   for a in range(1, 64))
        structural_ok &= hits == 14
    elapsed = time.perf_counter() - t0
    _finish(emit, 10, "five named coefficient families vs brute force",
            counts_ok and sizes_ok and structural_ok, elapsed, 120.0,
            f"{sum(totals.values())} cases")


# ---- 11: bilinear character identity ---------------------------------------

def test_criterion_11_bilinear_identity(emit):
    t0 = time.perf_counter()
    rep = run_verify(VerifyCampaign("prop2"))
    elapsed = time.perf_counter() - t0
    ok = rep.mismatches == [] and rep.cases_total == 84
    _finish(emit, 11, "double character sum equals psi(ab)*q on three subfields",
            ok, elapsed, 1.0, f"{rep.cases_total} cases")


# ---- 12: basis independence ------------------------------------------------

def _verdict(cid, field):
    rep = run_verify(VerifyCampaign(cid, field_ranges=(field,),
                                    sample_budget=0))
    return rep.cases_total, rep.cases_agreeing, len(rep.mismatches)


def test_criterion_12_basis_independence(emit, irreducibles):
    t0 = time.perf_counter()
    plans = {
        (1, 3): ("thm5", "thm1", "thm7", "thm_tr", "corollary", "family:tu",
                 "family:abnorm", "family:trform", "family:aqk"),
        (2, 2): ("thm4", "thm6", "thm_tr", "corollary", "family:trform",
                 "family:aqk"),
    }
    ok = True
    checked = 0
    for (m, n), cids in plans.items():
        moduli = irreducibles(m * n, 8)
        assert len(moduli) >= 2
        for cid in cids:
            verdicts = {_verdict(cid, f"{m}:{n}:0x{mod:x}") for mod in moduli}
            ok &= len(verdicts) == 1
            checked += len(moduli)
        # closed-form hit counts are coordinate-free as well
        counts = set()
        for mod in moduli:
            ctx = build_context(m, n, mod)
            counts.add(sum(
                perm_monomial_trace(ctx, a, k, l)
                for k in range(n) for l in range(4)
                for a in range(1, ctx.order)))
        ok &= len(counts) == 1
    elapsed = time.perf_counter() - t0
    _finish(emit, 12, "all campaign verdicts unchanged under every alternative "
            "modulus", ok, elapsed, 120.0, f"{checked} reruns")
