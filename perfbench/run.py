"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload query --seed 3 --seconds 30 --trace 0

Run from the repository root; charperm is imported from ``src/``.  With
``--trace 0`` the workload is set up several times (median reported as
``setup_s``), then passes over its fixed operation list repeat while
``--seconds`` last; the timings come from each operation's median latency
over those passes (see pass_metrics).  Every timing of an untraced run is
quoted at a fixed machine speed: it is scaled by a factor read from a
reference kernel timed between operations (see speed.py).  With ``--trace 1``
set-up and the first pass run under the span tracer (see tracer.py) and the
per-layer metrics come from them, unscaled; untraced passes follow, and
``trace.overhead_s`` is the traced pass minus their median.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  A run record with
machine facts, per-pass figures and the verify digest is written to
``perfbench/out/``, and in traced runs the spans as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Import time of the library in a fresh interpreter, the part of set-up
# that a separate process measures best, with a kernel sample taken in that
# interpreter just before and just after it.
_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; "
                 "k0 = speed.kernel_seconds(); t = time.perf_counter(); "
                 "import charperm.cli; dt = time.perf_counter() - t; "
                 "print(dt, k0, speed.kernel_seconds())")


def import_seconds() -> float:
    """Import time at the reference speed, scaled by the probe's own
    kernel samples."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                         capture_output=True, text=True, check=True, timeout=120)
    dt, k0, k1 = map(float, out.stdout.split()[-3:])
    return dt * REFERENCE_S * 2 / (k0 + k1)


def tail(latencies):
    """(percentile label, value): the highest percentile with at least ten
    samples beyond it.  Up to 21 samples that would not lie above the
    median, so the maximum is used."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 21:
        return 100.0 * (n - 10) / n, xs[n - 11]
    return 100.0, xs[-1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def machine_facts() -> dict:
    import numpy
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "l2": caches.get("l2", "unknown"),
            "l3": caches.get("l3", "unknown")}


def timed_passes(workload, inputs, seconds: float, speed):
    """Repeat the pass while another one fits in the time left (three at
    least, so that every operation has a median of three)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 3 or (time.perf_counter() - start) * (len(passes) + 1) \
            <= seconds * len(passes):
        passes.append(workload.run_pass(inputs, speed=speed))
    return passes


def pass_metrics(passes, speed):
    """End-to-end timings from each operation's median scaled latency over
    the passes.

    run_s is the pass rebuilt from those medians, and the percentiles are
    taken over them.  The median sets aside the rest of a slow period that
    the speed factor missed, and a fast reading of the kernel as well;
    a minimum would keep the latter.
    """
    scaled = [[t * speed.factor(m) for t, m in zip(p.latencies, p.marks)]
              for p in passes]
    typical = [statistics.median(col) for col in zip(*scaled)]
    pct, tail_s = tail(typical)
    return ({"run_s": sum(typical),
             "op_p50_ms": statistics.median(typical) * 1e3,
             "op_tail_ms": tail_s * 1e3},
            {"tail_percentile": pct, "ops_per_pass": len(typical),
             "passes": len(passes), "pass_walls_s": [p.wall for p in passes],
             "pass_unscaled_s": [sum(p.latencies) for p in passes],
             "latencies_s": [p.latencies for p in passes],
             "marks": [p.marks for p in passes]})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "charperm" / "__init__.py").is_file():
        print(f"error: no charperm sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, no_speed
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts()}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = Tracer()
        with tracer.active():
            state = workload.build()
        inputs = workload.prepare(state)
        with tracer.active():
            traced = workload.run_pass(inputs, tracer)
        passes = timed_passes(workload, inputs, args.seconds, no_speed)
        metrics = tracer.layer_metrics()
        record["traced_run_s"] = traced.wall
        record["untraced_run_s"] = statistics.median(p.wall for p in passes)
        metrics["trace.overhead_s"] = traced.wall - record["untraced_run_s"]
        tracer.save(f"{stem}.spans.npz")
        record["spans"] = len(tracer.span_start)
        checked = [traced] + passes
        wanted = spec["per_layer"]
    else:
        speed = Speed()
        setups = []
        for _ in range(workload.setup_trials):
            state = None        # drop the previous tables before rebuilding
            imported = import_seconds()
            mark = speed(force=True)
            t0 = time.perf_counter()
            state = workload.build()
            setups.append((imported, time.perf_counter() - t0, mark))
        inputs = workload.prepare(state)
        passes = timed_passes(workload, inputs, args.seconds, speed)
        speed(force=True)       # a sample after the last operation
        metrics, record["passes"] = pass_metrics(passes, speed)
        metrics["setup_s"] = statistics.median(i + t * speed.factor(m)
                                               for i, t, m in setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
        record["setup_import_s"] = [i for i, _, _ in setups]
        record["setup_build_s"] = [t for _, t, _ in setups]
        record["setup_marks"] = [m for _, _, m in setups]
        record["reference_kernel_s"] = speed.kernel_s
        checked = passes
        wanted = spec["end_to_end"]

    attempted, failed, record["checks"] = workload.check(checked)
    record["size"] = workload.size()
    record["metrics"] = metrics
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    if args.trace:
        idle = [name for name in workload.traced_nonzero if not metrics[name]]
        if idle:
            print(f"error: layers this workload runs read zero: {idle}",
                  file=sys.stderr)
            return 1
    record["failed_frac"] = failed / attempted
    (stem.parent / f"{stem.name}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {record['size']}")
    if not args.trace:
        info = record["passes"]
        print(f"  {info['passes']} passes of {info['ops_per_pass']} operations; "
              f"tail = p{info['tail_percentile']:.1f} of N={info['ops_per_pass']}")
        kernel = statistics.median(record["reference_kernel_s"])
        print(f"  timings at the reference speed ({REFERENCE_S * 1e3:g} ms kernel; "
              f"it took {kernel * 1e3:.2f} ms, median of "
              f"{len(record['reference_kernel_s'])}); unscaled passes "
              + " ".join(f"{w:.3f}" for w in info["pass_unscaled_s"]) + " s")
    for m in wanted:
        print(f"  {m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<32} {record['failed_frac']:>14.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
