"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload hier-sim --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 3 --seconds 15

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--all`` runs every workload untraced, each in a fresh interpreter, and
prints one table.  ``serve-litmus`` runs here but is not in
``BENCHMARK.json`` while the program fails on it; see
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
PINNED_UNSET = ("REPRO_JOBS", "REPRO_KERNEL")
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
#: Every workload ``workloads.WORKLOADS`` defines, named here so the
#: arguments parse before the program is importable.
WORKLOAD_NAMES = ("reproduce", "hier-sim", "serve-unique", "serve-litmus")


def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics, with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail(values: list[float], min_items: int) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at
    least ten samples beyond it in a run of ``min_items`` items (the
    run's guaranteed size, so the choice is the same on every run), by
    nearest rank; the maximum (``100``) when no ladder step qualifies."""
    ordered = sorted(values)
    for q in TAIL_LADDER:
        if min_items - math.ceil(q / 100 * min_items) >= 10:
            return q, ordered[math.ceil(q / 100 * len(ordered)) - 1]
    return 100.0, ordered[-1]


def measure_setup(workload: str, samples: int, warm_up: bool) -> list[dict]:
    """Set-up times from fresh interpreters: ``{"setup_s", "t0", "t1"}``
    each (see ``setup_probe.py``).  A warm-up probe, which may also
    compile bytecode, runs first and is discarded."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload]
    out = []
    for i in range(samples + warm_up):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT
        )
        if i or not warm_up:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.speed import Speedometer
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    declared = spec()

    with Speedometer() as meter:
        # Half the set-up probes run before the items and half after,
        # so the median spans the run's whole window of machine load.
        setup = [] if trace else measure_setup(workload, SETUP_SAMPLES // 2, warm_up=True)
        tracer = Tracer() if trace else None
        outcome = WORKLOADS[workload](seed, seconds, tracer)
        if not trace:
            setup += measure_setup(workload, SETUP_SAMPLES - len(setup), warm_up=False)
    outcome.scale(meter)
    lat = outcome.latencies_ms
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(f"  pinned unset: {', '.join(PINNED_UNSET)}")
    print(f"  items {len(lat)} in {outcome.measured_s:.3f} s measured")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  "
          f"failed_share {outcome.failed / outcome.attempted:.4f}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    if trace:
        assert tracer is not None
        spans = ROOT / ".bench_build" / "perfbench" / f"trace-{workload}-{seed}.json"
        tracer.write(str(spans))
        print(f"  spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        metrics = {
            m["name"]: _metric(float(outcome.layers.get(m["name"], 0.0)), m["unit"])
            for m in declared["per_layer"]
        }
    else:
        q, tail_ms = tail(lat, outcome.min_items)
        raw = outcome.raw_latencies_ms
        raw_setup = [p["setup_s"] for p in setup]
        print(f"  setup samples, raw (s): {' '.join(f'{s:.4f}' for s in raw_setup)}")
        print(f"  raw setup_s {statistics.median(raw_setup):.4f}  "
              f"raw item_p50_ms {statistics.median(raw):.4f}  "
              f"raw item_tail_ms {tail(raw, outcome.min_items)[1]:.4f}")
        print(f"  item_tail_ms is p{q:g} of {len(lat)} items")
        values = {
            "setup_s": statistics.median(
                p["setup_s"] * meter.scale(p["t0"], p["t1"]) for p in setup
            ),
            "items_per_s": len(lat) / outcome.measured_s,
            "item_p50_ms": statistics.median(lat),
            "item_tail_ms": tail_ms,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        if workload == "hier-sim":
            print(f"  sim_events_per_s {outcome.events / outcome.measured_s:.1f} (reference speed)")
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in declared["end_to_end"]}
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in its own interpreter, one table."""
    ok = True
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        ok &= result["correct"]
        print(f"{workload}  correct {result['correct']}  attempted {result['attempted']}  "
              f"failed {result['failed']}  failed_share {share:.4f}")
        for name, m in result["metrics"].items():
            print(f"  {name:14s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    for name in PINNED_UNSET:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.all:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
