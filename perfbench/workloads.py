"""The workloads: seeded inputs, set-up, one timed pass, and checks.

Every workload is a closed loop with one client in one process: the next
call starts when the previous one returns.

A pass is a fixed list of operations, so its wall time is throughput at a
stated size and its latency percentiles always come from the same N.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from charperm import charsum as cs
from charperm import cli
from charperm import linearized as lin
from charperm import permtest as pt
from charperm import verify
from charperm.field import build_context
from charperm.verify import SWEEPS, gold_ks


@dataclass
class PassResult:
    wall: float                # seconds for the whole pass
    latencies: List[float]     # seconds per operation
    marks: List[int]           # latest speed sample before each operation
    outcomes: object           # what the checks need


def no_speed() -> int:
    """The speed mark of an unscaled pass (traced runs)."""
    return -1


def force_tables(ctx) -> None:
    """Build every table the query kinds below may look up."""
    for k in range(ctx.bits):
        ctx.frob_table(k)
    for table in ("exp_table", "log_table", "chi_table"):
        getattr(ctx, table)
    ctx.trace_table(ctx.m)
    if ctx.bits <= ctx.charsum_cap:
        getattr(ctx, "chi_index_table")


# ---- verify sweeps ---------------------------------------------------------

class Sweep:
    """``charperm verify --campaign all`` in-process; one operation per
    campaign, timed around ``cli.run_verify``.

    Every pass starts cold, as a CLI run does: verify's cached contexts and
    tables are dropped first, so their builds count in the campaigns' times.
    """

    setup_trials = 15          # set-up is the import alone, about 0.2 s
    # Traced metrics that are zero only if a wrapper was never reached.
    traced_nonzero = ("field.mul_calls", "linearized.kernel_calls",
                      "charsum.s_fast_calls", "charsum.classify_form_calls",
                      "charsum.s_bruteforce_calls", "verify.thm6_cases",
                      "verify.prop3_cases", "verify.thm5_mismatches",
                      "field.vec_s", "cli.report_s")

    def __init__(self, seed: int):
        self.argv = ["verify", "--campaign", "all", "--seed", str(seed),
                     "--jobs", "1"]

    def build(self):
        return None

    def prepare(self, state):
        return None

    def size(self) -> str:
        return f"{len(SWEEPS)} campaigns, {' '.join(self.argv)}"

    def run_pass(self, inputs, tracer=None, speed=no_speed) -> PassResult:
        verify._worker_context.cache_clear()
        verify._tables.clear()
        latencies: List[float] = []
        marks: List[int] = []
        inner = cli.run_verify

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.op = len(latencies)
            marks.append(speed())
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - t0)

        out = io.StringIO()
        cli.run_verify = timed
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(self.argv)
        except Exception as exc:  # a raising campaign is a failed operation
            rc = exc
        finally:
            wall = time.perf_counter() - t0
            cli.run_verify = inner
        return PassResult(wall, latencies, marks, (rc, out.getvalue()))

    def check(self, passes: List[PassResult]) -> Tuple[int, int, dict]:
        per_pass = len(SWEEPS)
        digests = [hashlib.sha256(p.outcomes[1].encode()).hexdigest()
                   for p in passes]
        failed = 0
        bad_replays: Dict[str, List[str]] = {}
        checked: Dict[str, int] = {}
        for p, digest in zip(passes, digests):
            rc, stdout = p.outcomes
            if rc != 0 or digest != digests[0]:
                failed += per_pass
                continue
            if digest not in checked:
                try:
                    report = json.loads(stdout)
                except ValueError:
                    checked[digest] = per_pass
                else:
                    checked[digest] = _replay_failures(report, bad_replays)
            failed += checked[digest]
        info = {"verify_sha256": digests[0], "verify_sha256_all_equal":
                len(set(digests)) == 1, "bad_replays": bad_replays}
        return per_pass * len(passes), failed, info


def _replay_failures(report: dict, bad: Dict[str, List[str]]) -> int:
    """Replay every mismatch row; count campaigns with a row that does not
    reproduce its structured and brute values."""
    failed = 0
    for campaign in report["campaigns"]:
        for row in campaign["mismatches"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(row["replay"].split()[1:])
            got = json.loads(out.getvalue()) if rc == 0 else {}
            if (got.get("structured"), got.get("brute")) != \
                    (row["structured"], row["brute"]):
                bad.setdefault(campaign["id"], []).append(row["replay"])
        failed += campaign["id"] in bad
    return failed


# ---- streams of single library queries -------------------------------------

def _late(module, name: str, *args) -> Callable[[], object]:
    """Call module.name when the query runs, so a traced run sees the
    wrapper the tracer installed there."""
    return lambda: getattr(module, name)(*args)


@dataclass
class Group:
    """Calls on one input; agree() is the second-route check on their results."""

    calls: Dict[str, Callable[[], object]]
    agree: Callable[[Dict[str, object]], bool]


def _poly_group(ctx, rng) -> Group:
    poly = lin.q_linearized(ctx, [(j, rng.randrange(ctx.order)) for j in range(ctx.n)])
    return Group(
        {"s_fast": _late(cs, "s_fast", ctx, poly),
         "classify_form": _late(cs, "classify_form", ctx, poly),
         "s_bruteforce": _late(cs, "s_bruteforce", ctx, poly)},
        lambda r: r["s_fast"].s_value == r["classify_form"].s_value
        == r["s_bruteforce"])


def _power_group(ctx, rng) -> Group:
    a = rng.randrange(1, ctx.order)
    e = rng.randrange(1, ctx.group_order)
    want = math.gcd(e, ctx.group_order) == 1
    f = pt.monomial(ctx, [(a, e)])
    return Group({"is_perm_bruteforce": _late(pt, "is_perm_bruteforce", ctx, f)},
                 lambda r: r["is_perm_bruteforce"].is_permutation == want)


def _perm_spec_group(ctx, rng) -> Group:
    """A quadratic-family spec that permutes by construction.

    Part 0 is a bijective monomial a*x^(2^j).  For even n, part n/2 is
    c*(x^(q^(n/2)) + x), which vanishes on the subfield GF(q^(n/2)) that
    x^(q^(n/2)+1) maps into, so it changes no value but gives every shift of
    is_perm_quadspec a nontrivial form.  All three routes must say True.
    """
    parts = [lin.zero(ctx)] * ctx.n
    j, a = rng.randrange(ctx.bits), rng.randrange(1, ctx.order)
    parts[0] = lin.linearized(ctx, [(j, a)])
    if ctx.n % 2 == 0:
        c = rng.randrange(1, ctx.order)
        parts[ctx.n // 2] = lin.linearized(ctx, [(ctx.m * ctx.n // 2, c), (0, c)])
    spec = pt.quad_family(ctx, parts)
    f = pt.expand_quadspec(ctx, spec)
    return Group(
        {"is_perm_charsum": _late(pt, "is_perm_charsum", ctx, f),
         "is_perm_bruteforce": _late(pt, "is_perm_bruteforce", ctx, f),
         "is_perm_quadspec": _late(pt, "is_perm_quadspec", ctx, spec)},
        lambda r: all(rep.is_permutation for rep in r.values()))


def _gold_group(ctx, rng, k: int) -> Group:
    l0 = lin.linearized(ctx, [(i, rng.randrange(1, ctx.order))
                              for i in rng.sample(range(ctx.bits), 2)])
    f = pt.gold_poly(ctx, k, l0)
    return Group(
        {"perm_gold_linearized": _late(pt, "perm_gold_linearized", ctx, k, l0),
         "is_perm_bruteforce": _late(pt, "is_perm_bruteforce", ctx, f)},
        lambda r: r["perm_gold_linearized"] == r["is_perm_bruteforce"].is_permutation)


class QueryStream:
    """A shuffled stream of single queries over prebuilt contexts.

    fields maps (m, n) to group counts {"poly": .., "power": .., "spec": ..,
    "gold": ..}; every count is fixed, only the sampled inputs follow the seed.
    """

    setup_trials = 9
    fields: Dict[Tuple[int, int], Dict[str, int]] = {}
    traced_nonzero: Tuple[str, ...] = ()

    def __init__(self, seed: int, name: str):
        self.rng = random.Random(f"{name}:{seed}")
        self.groups: List[Group] = []

    def build(self):
        ctxs = {}
        for m, n in self.fields:
            ctx = build_context(m, n)
            force_tables(ctx)
            ctxs[m, n] = ctx
        return ctxs

    def prepare(self, ctxs) -> List[Tuple[int, str, Callable]]:
        rng = self.rng
        self.groups = []
        for key, counts in self.fields.items():
            ctx = ctxs[key]
            self.groups += [_poly_group(ctx, rng) for _ in range(counts.get("poly", 0))]
            self.groups += [_power_group(ctx, rng) for _ in range(counts.get("power", 0))]
            self.groups += [_perm_spec_group(ctx, rng)
                            for _ in range(counts.get("spec", 0))]
            ks = gold_ks(ctx.n)
            self.groups += [_gold_group(ctx, rng, ks[i % len(ks)])
                            for i in range(counts.get("gold", 0))]
        ops = [(gi, kind, call) for gi, g in enumerate(self.groups)
               for kind, call in g.calls.items()]
        rng.shuffle(ops)
        return ops

    def size(self) -> str:
        kinds: Dict[str, int] = {}
        for g in self.groups:
            for kind in g.calls:
                kinds[kind] = kinds.get(kind, 0) + 1
        fields = ",".join(f"{m}:{n}" for m, n in self.fields)
        return (f"{sum(kinds.values())} queries over {fields}: "
                + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))

    def run_pass(self, ops, tracer=None, speed=no_speed) -> PassResult:
        latencies: List[float] = []
        marks: List[int] = []
        results: List[object] = []
        start = time.perf_counter()
        for i, (_, _, call) in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            marks.append(speed())
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a raising query is a failed operation
                result = exc
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        return PassResult(time.perf_counter() - start, latencies, marks,
                          (ops, results))

    def check(self, passes: List[PassResult]) -> Tuple[int, int, dict]:
        attempted = failed = 0
        failures: Dict[str, int] = {}
        for p in passes:
            ops, results = p.outcomes
            by_group: Dict[int, Dict[str, object]] = {}
            for (gi, kind, _), result in zip(ops, results):
                by_group.setdefault(gi, {})[kind] = result
            for gi, got in by_group.items():
                attempted += len(got)
                ok = (not any(isinstance(r, Exception) for r in got.values())
                      and self.groups[gi].agree(got))
                if not ok:
                    failed += len(got)
                    label = "+".join(sorted(got))
                    failures[label] = failures.get(label, 0) + 1
        return attempted, failed, {"failed_groups": failures}


class Query(QueryStream):
    """Researcher's one-off questions at 12 and 16 bits (default moduli).

    The character-sum test and the quadspec route only run at 12 bits, the
    default character-sum cap.  Twelve full quadspec scans per pass put the
    tail percentile (10 samples beyond it) on a quadspec call.
    """

    fields = {(6, 2): {"poly": 80, "power": 40, "spec": 6},
              (3, 4): {"poly": 80, "power": 40, "spec": 6},
              (4, 4): {"poly": 40, "power": 30},
              (2, 8): {"poly": 40, "power": 30}}
    traced_nonzero = ("field.mul_calls", "field.table_bytes", "gf2.calls",
                      "linearized.kernel_calls", "charsum.s_fast_calls",
                      "charsum.classify_form_calls", "charsum.s_bruteforce_calls",
                      "permtest.quadspec_shifts", "permtest.occupancy_s",
                      "permtest.wht_s")

    def __init__(self, seed: int):
        super().__init__(seed, "query")


class BigField(QueryStream):
    """Full-field oracle calls on one 20-bit field after a heavy table build."""

    setup_trials = 3           # each build takes seconds

    fields = {(4, 5): {"poly": 8, "gold": 8}}
    traced_nonzero = ("field.mul_calls", "field.table_build_s",
                      "field.table_bytes", "charsum.s_fast_calls",
                      "charsum.s_bruteforce_calls", "permtest.occupancy_s",
                      "permtest.closed_form_s")

    def __init__(self, seed: int):
        super().__init__(seed, "bigfield")


WORKLOADS: Dict[str, Callable[[int], object]] = {
    "sweep": Sweep,
    "query": Query,
    "bigfield": BigField,
}
