"""Repeat benchmark runs and check their spread or their exact counts.

    python3 perfbench/check.py spread --workload all --seeds 0-9
    python3 perfbench/check.py counts --workload sweep --seed 0
    python3 perfbench/check.py compare perfbench/out/a.json perfbench/out/b.json

``spread`` runs each workload once per seed (untraced), prints every
end-to-end metric's median, quartiles and quartile spread as a share of the
median next to its bound, writes the table to perfbench/out/spread.json (or
``--out``), and fails when any spread, setup_s too, is above its bound.
``compare`` reads two such tables of the same code and fails when a median
of the second is worse than the first's by more than the metric's bound.
``counts`` makes two traced runs of one seed and one of the next seed: the
exact counts must repeat for the same seed; it lists those the seed moves.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that are exact counts rather than timings.
EXACT_SUFFIXES = ("calls", "_cases", "quadspec_shifts", "thm5_mismatches",
                  "table_bytes")


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(workloads, seeds, out_name: str) -> int:
    table = {}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        table[workload] = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            table[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": share, "bound": metric["bound"],
                                     "values": values}
            worst = max(worst, share / metric["bound"])
    print(f"\n{'workload':<10} {'metric':<12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, metrics in table.items():
        for name, row in metrics.items():
            print(f"{workload:<10} {name:<12} {row['median']:>12.6g} "
                  f"{row['q1']:>12.6g} {row['q3']:>12.6g} "
                  f"{row['spread']:>8.3f} {row['bound']:>6.2f}")
    print(f"\nlargest spread over bound: {worst:.2f} (target below 0.33)")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / out_name).write_text(json.dumps(
        {"seeds": seeds, "run_seconds": SPEC["run_seconds"], "table": table},
        indent=1))
    return 0 if worst <= 1.0 else 1


def compare(first: str, second: str) -> int:
    """Second set's median over the first's, per workload and metric; a
    metric fails when it is worse by more than its bound."""
    a, b = (json.loads(Path(f).read_text())["table"] for f in (first, second))
    status = 0
    for workload in a.keys() & b.keys():
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            ratio = b[workload][name]["median"] / a[workload][name]["median"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            bad = worse > metric["bound"]
            status |= bad
            print(f"{workload:<10} {name:<12} {ratio:>8.3f} "
                  f"bound {metric['bound']:.2f}{'  WORSE' if bad else ''}")
    return status


def counts(workloads, seed: int) -> int:
    status = 0
    for workload in workloads:
        first, again, other = (run(workload, s, 1) for s in (seed, seed, seed + 1))
        exact = sorted(k for k in first if k.endswith(EXACT_SUFFIXES))
        differ = [k for k in exact if first[k] != again[k]]
        moved = [k for k in exact if first[k] != other[k]]
        print(f"{workload}: {len(exact)} exact counts; "
              f"repeat for seed {seed}: {'yes' if not differ else differ}; "
              f"moved by seed {seed + 1}: {moved or 'none'}")
        status |= bool(differ)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("spread", "counts", "compare"))
    ap.add_argument("files", nargs="*", help="compare: two spread tables")
    ap.add_argument("--out", default="spread.json",
                    help="spread: table name under perfbench/out/")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="0-9", help="spread: seed range a-b")
    ap.add_argument("--seed", type=int, default=0, help="counts: first seed")
    args = ap.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    workloads = names if args.workload == "all" else args.workload.split(",")
    if args.mode == "spread":
        return spread(workloads, seeds_of(args.seeds), args.out)
    if args.mode == "compare":
        if len(args.files) != 2:
            ap.error("compare takes two spread tables")
        return compare(*args.files)
    return counts(workloads, args.seed)


if __name__ == "__main__":
    sys.exit(main())
