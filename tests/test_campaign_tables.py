"""What the table-sharing campaigns (thm6, thm1, thm_tr) decide, pinned per
field, and the per-field tables their grids share against the tables a
replay builds from a unit's own rows."""

import contextlib
import dataclasses
import io
import json
import math
import random

import numpy as np
import pytest

from charperm import SWEEPS, VerifyCampaign, build_context, run_verify, verify
from charperm import linearized as lin
from charperm.cli import main

# (brute True, brute False, structured True) per field at seed 0 and the
# default budget
COUNTS = {
    ("thm6", (1, 2)): (927, 9329, 927),
    ("thm6", (2, 2)): (11169, 1989752, 11169),
    ("thm1", (1, 2)): (2, 1, 2),
    ("thm1", (1, 3)): (6, 1, 6),
    ("thm1", (1, 4)): (8, 7, 8),
    ("thm1", (1, 5)): (30, 1, 30),
    ("thm1", (1, 6)): (36, 27, 36),
    ("thm1", (1, 7)): (126, 1, 126),
    ("thm1", (1, 8)): (128, 127, 128),
    ("thm_tr", (1, 2)): (36, 156, 36),
    ("thm_tr", (1, 3)): (189, 1539, 189),
    ("thm_tr", (2, 2)): (180, 2892, 180),
    ("thm_tr", (2, 3)): (2457, 108135, 2457),
}
CAMPAIGNS = ("thm6", "thm1", "thm_tr")


def _verdicts(sweep, ctx, unit):
    """A unit's structured and brute verdicts, both of the unit's shape."""
    structured, brute, _ = sweep.verdicts(ctx, unit)
    shape = np.broadcast_shapes(np.shape(structured), np.shape(brute))
    return np.broadcast_to(structured, shape), np.broadcast_to(brute, shape)


def test_every_default_field_is_pinned():
    assert sorted(COUNTS) == sorted((cid, field) for cid in CAMPAIGNS
                                    for field in SWEEPS[cid].default_fields)


@pytest.mark.parametrize("cid,field", sorted(COUNTS))
def test_campaign_counts_are_pinned(cid, field):
    sweep, ctx = SWEEPS[cid], build_context(*field)
    brute_true = brute_false = structured_true = 0
    for unit in sweep.grid(ctx, 0, sweep.default_budget):
        structured, brute = _verdicts(sweep, ctx, unit)
        brute_true += int(np.count_nonzero(brute))
        brute_false += brute.size - int(np.count_nonzero(brute))
        structured_true += int(np.count_nonzero(structured))
    assert (brute_true, brute_false, structured_true) == COUNTS[cid, field]


def _replay(replay: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(replay.split()[1:])
    assert code == 0, replay
    return json.loads(out.getvalue())


@pytest.mark.parametrize("cid", CAMPAIGNS)
def test_negated_structured_verdicts_mismatch_every_case(monkeypatch, cid):
    # every case of an exact campaign that agrees then disagrees, and the
    # replay of a row (through the same negated verdicts) gives it back
    sweep = SWEEPS[cid]

    def negated(ctx, p):
        structured, brute, s = sweep.verdicts(ctx, p)
        return np.logical_not(structured), brute, s

    monkeypatch.setitem(SWEEPS, cid, dataclasses.replace(sweep, verdicts=negated))
    field = sweep.default_fields[0]
    rep = run_verify(VerifyCampaign(cid, field_ranges=(field,)))
    assert rep.cases_total > 0 and rep.cases_agreeing == 0
    # thm6 on 1:2 has 10,256 cases: rows past MAX_ROWS per field are counted
    assert len(rep.mismatches) + sum(rep.mismatches_omitted.values()) == rep.cases_total
    assert len(rep.mismatches) == min(rep.cases_total, verify.MAX_ROWS)
    rows = random.Random(0).sample(rep.mismatches, min(25, len(rep.mismatches)))
    for row in rows:
        got = _replay(row["replay"])
        assert (got["structured"], got["brute"]) == (row["structured"], row["brute"])
        assert got["agree"] is False


def _without_tables(unit):
    return {k: v for k, v in unit.items() if k != "tables"}


def _assert_same_verdicts(sweep, ctx, unit):
    assert "tables" in unit
    shared = _verdicts(sweep, ctx, unit)
    rebuilt = _verdicts(sweep, ctx, _without_tables(unit))
    for a, b in zip(shared, rebuilt):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("field", SWEEPS["thm_tr"].default_fields + ((3, 2), (1, 6)))
def test_thm_tr_tables_match_the_rows(field):
    # each unit's slices of the per-j tables hold what _adjoint_values and
    # _traceform_values build from the unit's own rows, as a replay builds
    # them: same shapes, dtypes and entries
    sweep, ctx = SWEEPS["thm_tr"], build_context(*field)
    for unit in sweep.grid(ctx, 0, sweep.default_budget):
        _assert_same_verdicts(sweep, ctx, unit)
        l0, l1 = unit["l0"], unit["l1"]
        rebuilt = (verify._adjoint_values(ctx, l1), verify._adjoint_values(ctx, l0),
                   verify._traceform_values(ctx, [], lin.pairs(ctx, l1), 0),
                   verify._traceform_values(ctx, lin.pairs(ctx, l0), [], unit["shift"]))
        for shared, own in zip(unit["tables"], rebuilt, strict=True):
            assert shared.dtype == own.dtype and shared.shape == own.shape
            assert np.array_equal(shared, own)


def test_thm_tr_builds_each_table_once_per_j(monkeypatch):
    # on 2:3 (two a0 blocks): one adjoint table per j, and one L1 part per j
    # and one L0 part per shift and j, not one per j and a0 block
    ctx = build_context(2, 3)
    assert len(verify._blocks(ctx.order, verify._CELLS // ctx.order ** 2)) == 2
    calls = {"_adjoint_values": 0, "_traceform_values": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(verify, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(verify, name, counted)
    monkeypatch.setattr(verify, "_tables", {})
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--campaign", "thm_tr", "--fields", "2:3"]) == 0
    assert calls == {"_adjoint_values": ctx.n,
                     "_traceform_values": ctx.n + len(verify._TRACEFORM_SHIFTS) * ctx.n}
    assert out.getvalue() == (
        '{"seed": 0, "campaigns": [{"id": "thm_tr", "cases_total": 110592, '
        '"cases_agreeing": 110592, "mismatches": []}]}\n')


@pytest.mark.parametrize("field", SWEEPS["thm6"].default_fields)
def test_thm6_tables_match_the_rows(field):
    # a seeded sample of units, always the first pairing and a draw block
    sweep, ctx = SWEEPS["thm6"], build_context(*field)
    units = sweep.grid(ctx, 0, sweep.default_budget)
    rng = random.Random(6)
    picked = {0, len(units) - 1} | set(rng.sample(range(len(units)), min(12, len(units))))
    for i in sorted(picked):
        _assert_same_verdicts(sweep, ctx, units[i])


def test_thm6_evaluates_each_block_of_rows_once(monkeypatch):
    # one value table for every support-2 row (its L0 and its L1), which
    # every block of rows slices, and two per draw block, not two per unit
    ctx, budget = build_context(2, 2), SWEEPS["thm6"].default_budget
    side = math.isqrt(verify._CELLS // ctx.order)
    support2 = len(verify._support2(ctx))
    assert len(verify._blocks(support2, side)) == 16
    draw_blocks = len(verify._blocks(budget, verify._CELLS // (4 * ctx.order)))
    units = len(verify._thm6_grid(ctx, 0, budget))
    calls = []
    evaluate_all = lin.evaluate_all

    def counted(ctx, poly):
        calls.append(np.shape(poly))
        return evaluate_all(ctx, poly)

    monkeypatch.setattr(lin, "evaluate_all", counted)
    monkeypatch.setattr(verify, "_tables", {})
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--campaign", "thm6", "--fields", "2:2"]) == 0
    assert json.loads(out.getvalue())["campaigns"][0]["cases_total"] == 11169 + 1989752
    assert len(calls) == 1 + 2 * draw_blocks < 2 * units
    assert calls[0] == (support2, ctx.bits)


def test_a_run_builds_one_context_per_field(monkeypatch):
    # one FieldContext per distinct default field over every campaign, and
    # every unit's verdicts read the context its grid was built on
    built, grid_ctx, same = [], {}, []

    def counted(*args, _build=verify.build_context, **kw):
        built.append(_build(*args, **kw))
        return built[-1]

    for cid, sweep in SWEEPS.items():
        def grid(ctx, seed, budget, _grid=sweep.grid):
            units = _grid(ctx, seed, budget)
            grid_ctx.update((id(unit), ctx) for unit in units)
            return units

        def verdicts(ctx, params, _verdicts=sweep.verdicts):
            same.append(grid_ctx[id(params)] is ctx)
            return _verdicts(ctx, params)

        monkeypatch.setitem(SWEEPS, cid, dataclasses.replace(sweep, grid=grid,
                                                             verdicts=verdicts))
    monkeypatch.setattr(verify, "build_context", counted)
    monkeypatch.setattr(verify, "_tables", {})
    verify._worker_context.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--campaign", "all", "--jobs", "1"]) == 0
    verify._worker_context.cache_clear()
    fields = {field for sweep in SWEEPS.values() for field in sweep.default_fields}
    assert len(fields) == 15
    assert sorted((ctx.m, ctx.n) for ctx in built) == sorted(fields)
    assert same and all(same)
