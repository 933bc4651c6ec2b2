"""What the sweep can catch: one-line mutants of the closed forms.

Each row is (file, old text, new text, campaign).  The old text occurs once
in its file under src/charperm; the test applies the row to a copy of the
source and runs `charperm verify --campaign <id>` on the campaign's default
fields in a fresh process.  A mutant is caught when its mismatch count
differs from that of the unmutated campaign.  A mutant that the default
fields cannot catch is listed in SURVIVORS with the reason, not run.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from charperm import VerifyCampaign, run_verify

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "charperm"

MUTANTS = {
    "thm5-odd-trace-not-0": (
        "charsum.py", "nonzero = t != 1", "nonzero = t != 0", "thm5"),
    "thm5-even-drops-i-0": (
        "charsum.py", "for i in range(n // 2):", "for i in range(1, n // 2):", "thm5"),
    "thm4-drops-b-nonzero": (
        "charsum.py", "(ew.frobenius(ctx, a, ctx.m) == a) & (b != 0)",
        "(ew.frobenius(ctx, a, ctx.m) == a)", "thm4"),
    "corollary-gcd-of-shift": (
        "permtest.py", "d = ew.gcd(abs(shift - 1), ctx.m)", "d = ew.gcd(shift, ctx.m)",
        "corollary"),
    "corollary-drops-power-test": (
        "permtest.py",
        "\n                     & (ew.power(ctx, a, (ctx.q - 1) // ((1 << d) - 1)) != 1), a, k, shift)",
        ", a, k, shift)", "corollary"),
    "aqk-drops-gcd-n-q-1": (
        "permtest.py", "field_ok = ctx.n % 2 == 1 and math.gcd(ctx.n, ctx.q - 1) == 1",
        "field_ok = ctx.n % 2 == 1", "family:aqk"),
    "trform-trace-not-1": (
        "permtest.py", "ok = ew.trace_to(ctx, ew.power(ctx, a, -1), ctx.m) != 0",
        "ok = ew.trace_to(ctx, ew.power(ctx, a, -1), ctx.m) != 1", "family:trform"),
    "trform-norm-loop-skips-1": (
        "permtest.py", "for c in ctx.subfield_elements(ctx.m)[1:]:",
        "for c in ctx.subfield_elements(ctx.m)[2:]:", "family:trform"),
    "q4-t-above-0": (
        "permtest.py", "ew.in_subfield(ctx, t, 2) & (t > 1)", "ew.in_subfield(ctx, t, 2) & (t > 0)",
        "family:q4"),
    "abnorm-a-times-b-to-q": (
        "permtest.py", "_norm(ctx, b) == ew.mul(ctx, a, b)",
        "_norm(ctx, b) == ew.mul(ctx, a, ew.frobenius(ctx, b, ctx.m))", "family:abnorm"),
    "tu-drops-subfield-test": (
        "permtest.py", "ew.result((a != 0) & ew.in_subfield(ctx, a, ctx.m), a)",
        "ew.result((a != 0), a)", "family:tu"),
    "thm7-gold-trace-not-0": (
        "permtest.py", "c, block)] != 1, axis=-1)", "c, block)] != 0, axis=-1)", "thm7"),
    "thm7-exponent-sign": (
        "permtest.py", "c = -2 * pow(gold, -1, go) % go", "c = 2 * pow(gold, -1, go) % go", "thm7"),
    "thm_tr-drops-fq-asymmetry": (
        "permtest.py", "    fails |= (ky >= classes) & (kx < classes)\n", "", "thm_tr"),
    "thm6-l0-kernel-loosened": (
        "permtest.py", "np.count_nonzero(v0, axis=-1) == ctx.order - 1)",
        "np.count_nonzero(v0, axis=-1) >= ctx.order - 2)", "thm6"),
    "thm6-l1-vanishes-on-part-of-fq": (
        "permtest.py", "np.all(v1[..., fq] == 0, axis=-1)",
        "np.all(v1[..., fq[:2]] == 0, axis=-1)", "thm6"),
    "prop2-psi-of-a-plus-b": (
        "charsum.py", "ew.psi(ctx, ew.mul(ctx, a, b)) * ctx.q", "ew.psi(ctx, a ^ b) * ctx.q",
        "prop2"),
    "prop3-arf-sign-flipped": (
        "charsum.py", "(1 - 2 * arf)", "(2 * arf - 1)", "prop3"),
    "thm1-counts-the-zero-shift": (
        "permtest.py", "    bad[:, 0] = False  # u = 0 always sums to the field order\n", "",
        "thm1"),
}

# Mutants the default fields do not catch, with the reason; each row as in
# MUTANTS.  Only a field with m = 6 (or another m with two coprime divisors
# above 1) separates this one: with m <= 3 every shift where the two gcds
# differ also fails the power test.  On 6:3 the two closed forms differ on
# 84 of the 768 cases (a in F_q, k < 3, l < 4), so the mutant is not
# equivalent.
SURVIVORS = {
    "corollary-gcd-with-group-order": (
        "permtest.py", "ctx.group_order // (ctx.q - 1)) == 1)", "ctx.group_order) == 1)",
        "corollary"),
}


@pytest.fixture(scope="module")
def baseline():
    """Mismatch count of each unmutated campaign on its default fields."""
    counts = {}

    def count(campaign):
        if campaign not in counts:
            rep = run_verify(VerifyCampaign(campaign))
            counts[campaign] = rep.cases_total - rep.cases_agreeing
        return counts[campaign]
    return count


@pytest.mark.parametrize("row", [*MUTANTS.values(), *SURVIVORS.values()],
                         ids=[*MUTANTS, *SURVIVORS])
def test_every_mutant_applies_to_exactly_one_place(row):
    path, old, new, _ = row
    assert (SRC / path).read_text().count(old) == 1 and old != new


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught_on_the_default_fields(name, tmp_path, baseline):
    path, old, new, campaign = MUTANTS[name]
    copy = tmp_path / "charperm"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / path
    target.write_text(target.read_text().replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "charperm.cli", "verify",
                          "--campaign", campaign, "--format", "json"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    report, = json.loads(run.stdout)["campaigns"]
    mismatches = report["cases_total"] - report["cases_agreeing"]
    assert mismatches != baseline(campaign), f"{name} survives {campaign}"
