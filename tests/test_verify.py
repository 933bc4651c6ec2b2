"""Oracle-equivalence campaigns, coefficient searches, determinism."""

import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from charperm import (
    SWEEPS,
    TEMPLATES,
    VerifyCampaign,
    build_context,
    family_agreement,
    family_predicate,
    run_search,
    run_verify,
    trace_form_spec,
)
import charperm
from charperm import linearized as lin
from charperm import permtest, verify
from charperm.errors import BadParameters, NotQLinear, UnknownTheorem, WrongDegree
from charperm.verify import _pool_workers, normalize_field


def _run(cid, **kw):
    return run_verify(VerifyCampaign(cid, **kw))


def test_registry_contents():
    expected = {
        "thm4", "thm5", "thm6", "thm7", "thm_tr", "corollary", "prop2",
        "prop3", "thm1", "family:tu", "family:abnorm", "family:q4",
        "family:trform", "family:aqk",
    }
    assert set(SWEEPS) == expected
    for sweep in SWEEPS.values():
        assert sweep.summary


def test_unknown_campaign():
    with pytest.raises(UnknownTheorem):
        run_verify(VerifyCampaign("thm99"))


def test_normalize_field():
    assert normalize_field("1:2") == (1, 2, None)
    assert normalize_field("2:3:0x43") == (2, 3, 0x43)
    assert normalize_field((1, 2)) == (1, 2, None)
    assert normalize_field((1, 2, 7)) == (1, 2, 7)
    # a malformed spec is a usage error, whether text or tuple
    for spec in ("12", "1:2:3:4", "a:2", "1:2:0xz", (1,)):
        with pytest.raises(ValueError):
            normalize_field(spec)


def test_thm4_single_field():
    rep = _run("thm4", field_ranges=("1:2",))
    assert rep.cases_total == 16
    assert rep.cases_agreeing == 16
    assert rep.mismatches == []
    assert rep.wall_time >= 0


def test_thm4_default_fields():
    rep = _run("thm4")
    assert rep.cases_total == 16 + 256 + 4096
    assert rep.cases_agreeing == rep.cases_total


def test_thm5_reports_even_branch_gap():
    rep = _run("thm5")
    assert rep.cases_total - rep.cases_agreeing == 150
    fields = {mm["field"] for mm in rep.mismatches}
    assert fields == {"1:4:0x13"}
    sample = rep.mismatches[0]
    assert sample["structured"] is True
    assert sample["brute"] is False
    assert sample["replay"].startswith("charperm eval --field 1:4:0x13")
    assert set(sample["params"]) == {"a", "b", "k"}


def test_thm5_odd_fields_clean():
    rep = _run("thm5", field_ranges=("1:3", "1:5", "2:3"))
    assert rep.mismatches == []


def test_thm1_exponent_sweep():
    rep = _run("thm1", field_ranges=("1:3",))
    assert rep.cases_total == 7
    assert rep.cases_agreeing == 7


def test_thm1_with_samples():
    rep = _run("thm1", field_ranges=("1:4",), sample_budget=50)
    assert rep.cases_total == 15 + 50
    assert rep.cases_agreeing == rep.cases_total


@pytest.mark.parametrize("field", [(1, 2), (2, 2)])
def test_thm6_square_blocks_pair_every_support2_row_once(field):
    # the oracle is the earlier grid: each block of L1 rows against all L0
    ctx = build_context(*field)
    polys = verify._support2(ctx)

    def codes(rows):
        return rows @ (ctx.order ** np.arange(ctx.bits))

    units = [p for p in verify._thm6_grid(ctx, 0, 10) if p["l1"].ndim == 3]
    got, old = [], []
    for p in units:
        assert len(p["l0"]) * len(p["l1"]) * ctx.order <= verify._CELLS
        got.append(np.add.outer(codes(p["l1"][:, 0]) * ctx.order ** ctx.bits,
                                codes(p["l0"])).ravel())
    block = verify._CELLS // (len(polys) * ctx.order)
    for sl in verify._blocks(len(polys), block):
        old.append(np.add.outer(codes(polys[sl]) * ctx.order ** ctx.bits,
                                codes(polys)).ravel())
    got, old = np.concatenate(got), np.concatenate(old)
    assert got.size == len(polys) ** 2
    assert np.array_equal(np.sort(got), np.sort(old))


@pytest.mark.parametrize("field", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_thm_tr_grid_blocks_stay_within_cells(field):
    # each case is an order-entry value table; a unit holds blocks of a0
    # against every a1, at least one a0, so at most max(_CELLS, order^2)
    # entries, and the units together hold every (shift, j0, j1, a0, a1)
    ctx = build_context(*field)
    units = verify._thm_tr_grid(ctx, 0, 0)
    cases = 0
    for p in units:
        shape = np.broadcast_shapes(p["l0"].shape[:-1], p["l1"].shape[:-1])
        assert math.prod(shape) * ctx.order <= max(verify._CELLS, ctx.order ** 2)
        cases += math.prod(shape)
    assert cases == len(verify._TRACEFORM_SHIFTS) * ctx.n ** 2 * ctx.order ** 2


def test_thm6_wrong_degree():
    with pytest.raises(WrongDegree):
        _run("thm6", field_ranges=("1:3",))


@pytest.mark.parametrize("cid,builder", [("thm4", "_ab_grid"), ("thm6", "_support2")])
def test_quadratic_extension_sweeps_refuse_other_degrees_up_front(
        monkeypatch, cid, builder):
    # a 12-bit cubic extension would otherwise build its whole grid first
    # (thm6: every support-2 pair, about 1e9 rows) before the first verdict
    def never(*args, **kwargs):
        raise AssertionError(f"{builder} built a grid for n != 2")

    monkeypatch.setattr(verify, builder, never)
    for field in ("1:3", "4:3"):
        with pytest.raises(WrongDegree):
            _run(cid, field_ranges=(field,))


def test_thm7_needs_odd_degree():
    with pytest.raises(BadParameters):
        _run("thm7", field_ranges=("1:4",))


def test_corollary_even_degree_runs_all_false():
    # every closed-form verdict is false at even n, and brute force agrees
    rep = _run("corollary", field_ranges=("2:2",))
    assert rep.mismatches == []
    ctx = build_context(2, 2)
    assert not any(family_predicate(ctx, "aqk", {"a": a, "k": 1})
                   for a in range(1, 16))


def test_campaign_samples_change_totals():
    base = _run("prop3", field_ranges=("1:3",), sample_budget=0)
    more = _run("prop3", field_ranges=("1:3",), sample_budget=40)
    assert more.cases_total == base.cases_total + 40
    assert more.cases_agreeing == more.cases_total


def test_jobs_do_not_change_reports():
    for cid, kw in (("thm5", {}), ("thm6", {"sample_budget": 500}),
                    ("prop3", {"field_ranges": ("2:2",), "sample_budget": 200})):
        a = run_verify(VerifyCampaign(cid, seed=11, **kw), jobs=1)
        b = run_verify(VerifyCampaign(cid, seed=11, **kw), jobs=3)
        assert a.cases_total == b.cases_total
        assert a.cases_agreeing == b.cases_agreeing
        assert a.mismatches == b.mismatches


def test_one_process_run_loads_no_pool():
    # the pool's modules are imported only where a pool starts (jobs > 1)
    code = ("import contextlib, io, sys\n"
            "import charperm\n"
            "import charperm.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['verify', '--campaign', 'thm4', '--jobs', '1'])\n"
            "print(rc, [m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(charperm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "0 []\n"


def test_prop3_blocks_do_not_change_reports():
    # the default fields cut into several stacked blocks each on 2:3
    ctx = build_context(2, 3)
    assert len(verify._prop3_grid(ctx, 0, 1000)) > 2
    a = run_verify(VerifyCampaign("prop3"), jobs=1)
    b = run_verify(VerifyCampaign("prop3"), jobs=2)
    assert (a.cases_total, a.cases_agreeing, a.mismatches) == (
        b.cases_total, b.cases_agreeing, b.mismatches)
    assert a.cases_total == a.cases_agreeing == 14360


def test_blocks_below_one_row_keep_every_case(monkeypatch):
    # with _CELLS smaller than one value table every block still holds one
    # row, so each campaign's total on its first field does not move
    def totals():
        return {cid: _run(cid, field_ranges=sweep.default_fields[:1],
                          sample_budget=min(sweep.default_budget, 40)).cases_total
                for cid, sweep in SWEEPS.items()}

    want = totals()
    monkeypatch.setattr(verify, "_CELLS", 8)
    monkeypatch.setattr(verify, "_tables", {})
    assert totals() == want
    assert min(want.values()) > 0


def test_run_verify_keeps_no_grid_after_its_report():
    # the grids and their tables live while their campaign runs
    rep = _run("thm6", field_ranges=("1:2",))
    assert rep.cases_total == 927 + 9329
    assert verify._tables == {}


def test_run_verify_keeps_no_grid_when_its_campaign_raises():
    # 1:3's grid is built before 1:2 is refused, and goes with the error
    with pytest.raises(BadParameters, match="no cases on field 1:2:0x7"):
        run_verify(VerifyCampaign("thm5", field_ranges=("1:3", "1:2")))
    assert verify._tables == {}


@pytest.mark.parametrize("seed", [0, 1, "prop3", 2 ** 40])
def test_draws_match_one_randrange_per_element(seed):
    for bits in range(1, 21):
        ctx = SimpleNamespace(order=1 << bits)
        for count, width in ((0, 3), (1, 1), (7, 3), (50, 2)):
            fast, loop = random.Random(seed), random.Random(seed)
            rows = verify._draws(fast, ctx, count, width)
            want = [loop.randrange(ctx.order) for _ in range(count * width)]
            assert rows.shape == (count, width)
            assert rows.ravel().tolist() == want
            assert fast.random() == loop.random()


def test_pool_workers_clamped_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _pool_workers(2, 10) == 2
    assert _pool_workers(10 ** 6, 10) == 4
    assert _pool_workers(8, 3) == 3
    assert _pool_workers(8, 0) == 1
    assert _pool_workers(0, 5) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_workers(8, 5) == 1


def test_same_seed_same_report():
    a = _run("prop3", field_ranges=("1:3",), sample_budget=100, seed=5)
    b = _run("prop3", field_ranges=("1:3",), sample_budget=100, seed=5)
    assert a.mismatches == b.mismatches
    assert a.cases_total == b.cases_total


def test_family_agreement_semantics():
    assert family_agreement(True, True, True)
    assert family_agreement(True, False, False)
    assert not family_agreement(True, True, False)
    assert not family_agreement(True, False, True)
    # sufficient-only: a false condition proves nothing
    assert family_agreement(False, False, True)
    assert not family_agreement(False, True, False)


def test_family_campaigns_clean():
    for cid in ("family:tu", "family:abnorm", "family:q4", "family:trform",
                "family:aqk"):
        rep = _run(cid)
        assert rep.mismatches == [], cid
        assert rep.cases_total == rep.cases_agreeing


@pytest.mark.parametrize("cid", sorted(SWEEPS))
def test_every_campaign_can_fail(cid):
    # a structured side that is a constant disagrees with the oracle on some
    # case of the default fields, so a broken criterion cannot pass; a
    # sufficient-only criterion is never wrong to say False.  Counted
    # straight from grid and verdicts: run_verify would format millions of
    # mismatch rows.  prop2 and prop3 compare sums, so q is tried too
    sweep = SWEEPS[cid]
    wrong = {}
    for m, n in sweep.default_fields:
        ctx = build_context(m, n)
        constants = {"True": True, "False": False, "q": ctx.q}
        for unit in sweep.grid(ctx, 0, sweep.default_budget):
            brute = sweep.verdicts(ctx, unit)[1]
            for label, c in constants.items():
                bad = np.count_nonzero(~family_agreement(sweep.exact, c, brute))
                wrong[label] = wrong.get(label, 0) + int(bad)
    assert wrong["True"] > 0
    assert (wrong["False"] > 0) == sweep.exact
    if cid in ("prop2", "prop3"):
        assert wrong["q"] > 0


# ---- coefficient searches --------------------------------------------------

def test_search_abnorm_gf8():
    ctx = build_context(1, 3)
    rows = run_search(ctx, "abnorm")
    assert rows == [{"a": "0", "b": "0", "is_permutation": True,
                     "matched_criteria": "family:abnorm"}]


def test_search_abnorm_gf64_matches_norm_condition():
    ctx = build_context(2, 3)
    rows = run_search(ctx, "abnorm")
    got = {(int(r["a"], 16), int(r["b"], 16)) for r in rows}
    expected = {
        (a, b)
        for a in range(64) for b in range(64)
        if ctx.norm_to(a, 2) ^ ctx.norm_to(b, 2) == ctx.mul(a, b)
    }
    assert got == expected
    assert all(r["matched_criteria"] == "family:abnorm" for r in rows)


def test_search_binomial_gf4():
    ctx = build_context(1, 2)
    rows = run_search(ctx, "binomial")
    assert [(r["a"], r["b"]) for r in rows] == [("0", "1"), ("0", "2"), ("0", "3")]
    assert all(r["matched_criteria"] == "thm6" for r in rows)


def test_search_restricted_coeffs():
    ctx = build_context(1, 2)
    rows = run_search(ctx, "binomial", coeff_values=[0, 1])
    assert [(r["a"], r["b"]) for r in rows] == [("0", "1")]
    assert run_search(ctx, "binomial", coeff_values=[]) == []


def test_search_fixed_params_required():
    ctx = build_context(1, 3)
    with pytest.raises(BadParameters):
        run_search(ctx, "trform")
    rows = run_search(ctx, "trform", {"k": 1})
    got = {int(r["a"], 16) for r in rows}
    expected = {a for a in range(1, 8)
                if family_predicate(ctx, "trform", {"a": a, "k": 1})}
    # the search reports permutations; trform is exact so the sets coincide
    assert got == expected


def test_search_unknown_template():
    ctx = build_context(1, 2)
    with pytest.raises(UnknownTheorem):
        run_search(ctx, "nope")
    assert "binomial" in TEMPLATES and "traceform" in TEMPLATES


def _count_value_tables(monkeypatch):
    """Entries of every value table the occupancy oracle builds, in order."""
    sizes = []
    evaluate = permtest.evaluate_poly_all

    def counted(ctx, f):
        values = evaluate(ctx, f)
        sizes.append(values.size)
        return values

    monkeypatch.setattr(permtest, "evaluate_poly_all", counted)
    return sizes


def test_search_units_stay_bounded(monkeypatch):
    # a unit holds at most max(_CELLS, axis length * order) entries, the
    # bound _ab_grid gives the campaigns; after the check of one case, the
    # units cover each case once
    sizes = _count_value_tables(monkeypatch)
    ctx = build_context(2, 4)
    rows = run_search(ctx, "binomial")
    assert sizes[0] == ctx.order and len(sizes) > 2
    assert max(sizes[1:]) <= max(verify._CELLS, ctx.order ** 2)
    assert sum(sizes[1:]) == ctx.order ** 3
    assert {r["matched_criteria"] for r in rows} == {""}
    got = {(int(r["a"], 16), int(r["b"], 16)) for r in rows}
    rng = random.Random(4)
    sample = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(200)]
    for a, b in sample + rng.sample(sorted(got), 20):
        f = permtest.monomial(ctx, [(a, ctx.q + 1), (b, 2)])
        assert ((a, b) in got) == permtest.is_perm_bruteforce(ctx, f).is_permutation

    sizes.clear()
    ctx = build_context(3, 3)
    pool = random.Random(5).sample(range(ctx.order), 100)
    rows = run_search(ctx, "abnorm", coeff_values=pool)
    assert len(sizes) > 2
    assert max(sizes[1:]) <= max(verify._CELLS, len(pool) * ctx.order)
    assert sum(sizes[1:]) == len(pool) ** 2 * ctx.order
    got = [(int(r["a"], 16), int(r["b"], 16)) for r in rows]
    assert got == [(a, b) for a in sorted(pool) for b in sorted(pool)
                   if ctx.norm_to(a, 3) ^ ctx.norm_to(b, 3) == ctx.mul(a, b)]


@pytest.mark.parametrize("cid", ["corollary", "thm7"])
def test_corollary_and_thm7_units_stay_bounded(monkeypatch, cid):
    # each grid is one parameter space (thm7's per k) cut into blocks of at
    # least one row: a unit holds at most max(_CELLS, order) value-table
    # entries, and the units hold every case once; on 1:7 the space is cut
    sizes = _count_value_tables(monkeypatch)
    sweep = SWEEPS[cid]
    for field in sweep.default_fields + ((1, 7),):
        ctx = build_context(*field)
        units = sweep.grid(ctx, 0, sweep.default_budget)
        cases = [len(p["a" if cid == "corollary" else "l0"]) for p in units]
        assert max(cases) * ctx.order <= max(verify._CELLS, ctx.order)
        sizes.clear()
        rep = _run(cid, field_ranges=(field,))
        assert rep.cases_total == sum(cases)
        assert len(sizes) == len(units)
        assert max(sizes) <= max(verify._CELLS, ctx.order)
        assert sum(sizes) == rep.cases_total * ctx.order
        # one block per space on the default fields, more on 1:7
        spaces = len(verify.gold_ks(ctx.n)) if cid == "thm7" else 1
        assert (len(units) > spaces) == (field == (1, 7))


def test_thm_tr_verdicts_keep_the_shape_of_a_zero_batch():
    # lin.pairs keeps a zero column of an all-zero stack, so the occupancy
    # oracle's terms carry the batch shape as the structured side does
    ctx = build_context(1, 3)
    for l0, l1 in ((np.zeros((1, 1, 3), np.int64), np.zeros((1, 3), np.int64)),
                   (np.zeros((2, 1, 3), np.int64), np.zeros((4, 3), np.int64))):
        structured, brute, s = SWEEPS["thm_tr"].verdicts(ctx, {"l0": l0, "l1": l1, "shift": 0})
        shape = np.broadcast_shapes(l0.shape[:-1], l1.shape[:-1])
        assert np.shape(structured) == np.shape(brute) == shape
        assert not brute.any() and not structured.any() and s is None


def test_search_traceform_rows_tagged():
    ctx = build_context(1, 3)
    rows = run_search(ctx, "traceform", {"j0": 0, "j1": 0, "l": 1})
    assert rows  # some coefficient pair permutes
    for r in rows:
        assert r["is_permutation"] is True
        assert r["matched_criteria"] == "thm_tr"


def test_thm_tr_replay_of_a_part_that_is_not_q_linear_raises_not_q_linear(gf64_tower):
    # the trace-form domain is trace_form_spec's, on the sweep and its replay alike
    ctx = gf64_tower
    with pytest.raises(NotQLinear):
        verify.replay_case(ctx, "thm_tr", {"l0": lin.linearized(ctx, [(1, 1)]),
                                           "l1": lin.identity(ctx), "shift": 0})
    with pytest.raises(NotQLinear):
        trace_form_spec(ctx, lin.linearized(ctx, [(1, 1)]), lin.identity(ctx), 0)
