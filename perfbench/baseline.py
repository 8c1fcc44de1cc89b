"""Record the traced baseline of every workload in perfbench/baseline.json.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json this runs ``run.py --trace 1`` for
the benchmark's ``run_seconds`` at seeds 0 to 4, and keeps: why the
workload was chosen, the verdict count it must pass, each layer's busy
and self time as a share of the traced ``cli.run`` wall time and the
functions that lead by busy time (seed 0), and the tracing overhead.
One run holds only one or two traced/untraced pairs on the slower
workloads, so the overhead is the median of the five runs' overheads,
and null (unresolved) when it is no larger than their spread, the
distance between their quartiles. It also records the environment the
numbers were taken in.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import yaml

from run import ROOT, WORKLOADS
from tracer import LABELS, LAYERS

HERE = Path(__file__).resolve().parent
SEEDS = (0, 1, 2, 3, 4)  # the split is taken from the first


def traced_run(name: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pyyaml": yaml.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "note": "shared 2-CPU virtual machine: wall clock and CPU time of the benchmark's own "
                    "processes only, no machine-wide tracing and no hardware counters; the "
                    "host's speed swings by up to 2x within minutes (see perfbench/README.md)",
        },
        "seeds": list(SEEDS),
        "seconds": bench["run_seconds"],
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        outs = [traced_run(name, seed, bench["run_seconds"]) for seed in SEEDS]
        m = {k: v["value"] for k, v in outs[0]["metrics"].items()}
        overheads = [out["metrics"]["trace.overhead_share"]["value"] for out in outs]
        overhead = statistics.median(overheads)
        q1, _, q3 = statistics.quantiles(overheads, n=4)
        spread = q3 - q1
        wall = m["trace.wall_s"]
        busy = {f: m[f"{f}.busy_s"] for f in LABELS if f != "cli.run" and m[f"{f}.calls"]}
        record["workloads"][name] = {
            "why": w["why"],
            "verdicts_expected": WORKLOADS[name].verdicts,
            "correct": all(out["correct"] for out in outs),
            "traced_wall_s": wall,
            "untraced_wall_s": m["trace.untraced_wall_s"],
            "tracing_overhead_share": overhead if abs(overhead) > spread else None,
            "tracing_overhead_shares": overheads,
            "tracing_overhead_spread": spread,
            "layer_busy_share": {k: round(m[f"{k}.busy_s"] / wall, 4) for k in LAYERS},
            "layer_self_share": {k: round(m[f"{k}.self_s"] / wall, 4) for k in LAYERS},
            "top_busy_share": {
                f: round(t / wall, 4) for f, t in sorted(busy.items(), key=lambda kv: -kv[1])[:6]
            },
            "zero_call_functions": [f for f in LABELS if not m[f"{f}.calls"]],
        }
        print(f"{name}: traced {wall:.3f} s, overhead {overhead:+.3f}, spread {spread:.3f}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
