"""Mismatch rows: formatted in bulk, at most MAX_ROWS per (campaign, field)
in grid order with the rest counted exactly, the same under every --jobs
and process start method; a campaign that runs out of memory exits 1 with
one line."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import charperm
from charperm import SWEEPS, VerifyCampaign, run_verify, verify
from charperm.cli import main


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def test_thm5_on_2_4_keeps_the_first_1000_rows_and_counts_the_rest():
    rep = run_verify(VerifyCampaign("thm5", field_ranges=("2:4",)))
    assert (rep.cases_total, rep.cases_agreeing) == (65536, 13516)
    assert verify.MAX_ROWS == len(rep.mismatches) == 1000
    assert rep.mismatches_omitted == {"2:4:0x11b": 51020}
    # the first 1000 of the 52,020 rows an uncapped report lists
    digest = hashlib.sha256(json.dumps(rep.mismatches).encode()).hexdigest()
    assert digest == "25ea3de59c6a53466b0a178d7a7645c443b61636424fe435bb5e6c7bcb33ee68"
    assert rep.mismatches[999] == {
        "campaign": "thm5", "field": "2:4:0x11b",
        "params": {"a": "7", "b": "eb", "k": "1"},
        "structured": True, "brute": False, "s": -16,
        "replay": "charperm eval --field 2:4:0x11b --op check-thm5 --args a=7;b=eb;k=1"}


def test_a_divergent_report_holds_its_rows_not_its_mismatches():
    # tracemalloc sees numpy's buffers: formatting all 52,020 rows of thm5
    # on 2:4 would take about 43 MB, the 1000 kept ones far less
    tracemalloc.start()
    try:
        rep = run_verify(VerifyCampaign("thm5", field_ranges=("2:4",)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.mismatches) == 1000 and rep.mismatches_omitted == {"2:4:0x11b": 51020}
    assert peak < 8 << 20


def test_negated_thm5_counts_the_other_mismatches_as_omitted(monkeypatch):
    # the omitted count is the field's mismatches less its rows, on the
    # other split of the same cases
    sweep = SWEEPS["thm5"]

    def negated(ctx, p):
        structured, brute, s = sweep.verdicts(ctx, p)
        return np.logical_not(structured), brute, s

    monkeypatch.setitem(SWEEPS, "thm5", dataclasses.replace(sweep, verdicts=negated))
    monkeypatch.setattr(verify, "_pool_workers", lambda jobs, tasks: 1)
    for jobs in (1, 2, 7):
        rep = run_verify(VerifyCampaign("thm5", field_ranges=("2:4",)), jobs=jobs)
        assert (rep.cases_total, rep.cases_agreeing) == (65536, 52020)
        assert len(rep.mismatches) == 1000
        assert rep.mismatches_omitted == {"2:4:0x11b": 12516}


def test_the_cap_holds_per_field_whatever_the_chunks(monkeypatch):
    # 1:4 has 150 mismatches and 1:6 2,646; every chunking of the units
    # (run in-process here) keeps the first rows of each field in grid order
    fields = ("1:4", "1:6")
    monkeypatch.setattr(verify, "MAX_ROWS", 10 ** 4)
    full = run_verify(VerifyCampaign("thm5", field_ranges=fields))
    assert len(full.mismatches) == 150 + 2646 and full.mismatches_omitted == {}
    first = {label: [r for r in full.mismatches if r["field"] == label][:40]
             for label in ("1:4:0x13", "1:6:0x43")}
    monkeypatch.setattr(verify, "MAX_ROWS", 40)
    monkeypatch.setattr(verify, "_pool_workers", lambda jobs, tasks: 1)
    for jobs in (1, 2, 7):
        rep = run_verify(VerifyCampaign("thm5", field_ranges=fields), jobs=jobs)
        assert (rep.cases_total, rep.cases_agreeing) == (full.cases_total,
                                                         full.cases_agreeing)
        assert rep.mismatches == first["1:4:0x13"] + first["1:6:0x43"]
        assert rep.mismatches_omitted == {"1:4:0x13": 110, "1:6:0x43": 2606}


def test_json_and_csv_name_the_omitted_count():
    code, out = _cli("verify", "--campaign", "thm5", "--fields", "2:4")
    campaign = json.loads(out)["campaigns"][0]
    assert code == 0 and len(campaign["mismatches"]) == 1000
    assert campaign["mismatches_omitted"] == {"2:4:0x11b": 51020}
    code, out = _cli("verify", "--campaign", "thm5", "--fields", "2:4", "--format", "csv")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + 1 + 1000 + 1
    assert lines[-1] == "omitted,thm5,2:4:0x11b,51020,,,,,,"
    # a report under the cap has no such key or row
    code, out = _cli("verify", "--campaign", "thm5")
    assert "mismatches_omitted" not in json.loads(out)["campaigns"][0]
    code, out = _cli("verify", "--campaign", "thm5", "--format", "csv")
    assert not any(line.startswith("omitted") for line in out.splitlines())


@pytest.mark.parametrize("part", ["grid", "verdicts"])
def test_running_out_of_memory_exits_1_with_one_line(monkeypatch, capsys, part):
    # numpy's allocation failure subclasses MemoryError
    def out_of_memory(*args):
        raise np._core._exceptions._ArrayMemoryError((1 << 40,), np.dtype(np.int64))

    monkeypatch.setitem(SWEEPS, "thm5",
                        dataclasses.replace(SWEEPS["thm5"], **{part: out_of_memory}))
    assert main(["verify", "--campaign", "thm5", "--fields", "1:3,1:4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: campaign thm5 ran out of memory on field 1:3:0xb\n"
    assert verify._tables == {}


def test_any_subcommand_that_runs_out_of_memory_exits_1(monkeypatch, capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr("charperm.cli.run_search", out_of_memory)
    assert main(["search", "--field", "1:3", "--template", "tu"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_reports_match_in_process_under_every_start_method(method):
    # workers that rebuild every context and grid, and format thm5's rows,
    # print what one process does
    code = ("import multiprocessing, sys\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "from charperm.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(charperm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["verify", "--campaign", "thm5"]
    out = subprocess.run([sys.executable, "-c", code, *argv, "--jobs", "2"], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    code, want = _cli(*argv, "--jobs", "1")
    assert code == 0 and len(json.loads(want)["campaigns"][0]["mismatches"]) == 150
    assert out.stdout == want
