"""adpricing benchmark: runs the adpricing CLI on a named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each workload is a closed loop of one client: the next invocation
starts when the previous one has ended, for S seconds. An invocation is
a fresh process (perfbench/child.py) that runs the CLI once per study of
the workload, and every CLI run is checked: exit code 0, every manifest
verdict true and as many as expected, every file hash in the manifest
equal to the sha256 of the bytes on disk, and for reproduce_t2 the
manifest's files map equal to that of a --threads 1 run at the same
seed.

--trace 0 prints the end-to-end metrics: medians over the loop, with
times scaled to a nominal host speed (SpeedProbe) and the measured
seconds printed beside them. --trace 1 alternates untraced and traced
invocations and prints the per-layer metrics of tracer.py plus the
tracing overhead.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

from tracer import LABELS, LAYERS, STUDIES

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_DEADLINE_S = 170  # a whole run, set-up included, ends within this
SETUP_ONLY_RUNS = 3  # set-up-only invocations after each timed invocation
SIMULATE_ROUNDS = 40_000
QUIET_S = 0.5  # probe-only window before and after a multi-thread invocation


@dataclass(frozen=True)
class Workload:
    config: str  # path relative to the root of the checkout
    studies: tuple[str, ...]  # one CLI run each, in this order, in one process
    threads: int
    verdicts: int
    must_call: tuple[str, ...]  # traced functions this workload must reach
    same_as_t1: bool = False  # files must equal those of a --threads 1 run


# the studies of --study reproduce-all whose verdicts hold on every seed.
# Left out: collapse, whose collapsed_utilities verdict (a 3-SE test over
# every post-collapse round and advertiser) fails on about 6.5% of seeds,
# and lemmas, whose decomposition_consistent verdict (a 3-SE test that the
# residual of each advertiser's decomposition is zero) fails on about 0.5%.
REPRODUCE = ("simulate", "dominance", "sweep", "cpsc")
_BATCHED = (
    "distributions.sample", "sampling.batch_rng", "sampling.run_batched", "kernel.batch",
    "strategy.best_response_scan", "strategy.equilibrium_fixture_bids",
    "payoffs.estimate_equilibrium_payoffs", "equilibrium.sweep_outside_option",
    "sampling.draw_rates", "sampling.tie_uniforms", "sampling.winner_tiebreak",
)
_ALL_STUDIES = _BATCHED + (
    "config.load_config", "cli.run", "cli.write_csv", "cli.hashes",
    "engine.run_repeated", "engine.run_auction",
    "payoffs.exact_equilibrium_payoffs", "equilibrium.cpsc_comparison",
)
_NPROC = len(os.sched_getaffinity(0))

WORKLOADS = {
    "reproduce_t1": Workload("configs/default.yaml", REPRODUCE, 1, 10, _ALL_STUDIES),
    "reproduce_t2": Workload("configs/default.yaml", REPRODUCE, min(2, _NPROC), 10, _ALL_STUDIES,
                             same_as_t1=True),
    "simulate_realized": Workload(
        ".perfbench/inputs/simulate_realized.yaml", ("simulate",), 1, 1,
        ("config.load_config", "cli.run", "cli.write_csv", "cli.hashes",
         "engine.run_repeated", "engine.run_auction", "sampling.batch_rng",
         "distributions.sample")),
    "three_player": Workload(
        "configs/three_player.yaml", ("dominance", "sweep"), 1, 6,
        _BATCHED + ("config.load_config", "cli.run", "cli.write_csv", "cli.hashes")),
}

# wall_norm_s and cpu_norm_s: wall and CPU time of cli.run at the nominal
# host speed (SpeedProbe)
END_TO_END = {
    "wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "verdicts_passed": "count",
}


def per_layer_units() -> dict[str, str]:
    names = [f"{label}.{k}" for label in LABELS for k in ("calls", "busy_s", "self_s")]
    names += [
        "sampling.run_batched.replications", "sampling.run_batched.batches",
        "sampling.run_batched.pool_busy_share", "sampling.run_batched.wait_s",
        "cli.write_csv.bytes",
    ]
    names += [f"cli.study.{s}.s" for s in STUDIES]
    names += [f"{layer}.{k}" for layer in LAYERS for k in ("busy_s", "self_s")]
    names += ["trace.spans", "trace.wall_s", "trace.untraced_wall_s",
              "trace.overhead_s", "trace.overhead_share"]
    units = {}
    for name in names:
        last = name.rsplit(".", 1)[1]
        if last == "s" or last.endswith("_s"):
            units[name] = "s"
        elif last.endswith("share"):
            units[name] = "share"
        elif last == "bytes":
            units[name] = "B"
        else:
            units[name] = "count"
    return units


def generate_inputs() -> None:
    """Write the configs the benchmark derives from the shipped ones."""
    with open(ROOT / "configs" / "default.yaml", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["study"] = "simulate"
    raw.setdefault("study_params", {})["simulate"] = {"rounds": SIMULATE_ROUNDS, "mode": "realized"}
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "simulate_realized.yaml").write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")


class Runner:
    """Launches child invocations into one temporary directory."""

    def __init__(self, tmp: Path, seed: int):
        self.tmp, self.seed = tmp, seed
        self.count = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")

    def invoke(self, work: Workload, threads: int, setup_only=False, trace: Path | None = None):
        """One child process; returns (result dict or None, out dir, error)."""
        self.count += 1
        out = self.tmp / f"run{self.count}"
        out.mkdir()
        result_path = out / "result.json"
        cmd = [sys.executable, str(CHILD), "--src", str(ROOT / "src"), "--result", str(result_path),
               "--out", str(out)]
        for study in work.studies:
            cmd += ["--study", study]
        if setup_only:
            cmd.append("--setup-only")
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if threads == 1:
            cmd += ["--cpu", str(SpeedProbe.CPU)]
        cmd += ["--", "--config", str(ROOT / work.config), "--threads", str(threads),
                "--seed", str(self.seed)]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, out, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.exists():
            return None, out, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return json.loads(result_path.read_text()), out, None


def check(rc: int, out: Path, study: str, threads: int, seed: int) -> tuple[list[str], dict]:
    """Correctness gate for one CLI run; returns (problems, manifest)."""
    problems = [] if rc == 0 else [f"{study}: exit code {rc}"]
    if rc not in (0, 1):  # 1: a verdict failed, the manifest is still written
        return problems, {}
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest["study"] != study or manifest["seed"] != seed or manifest["threads"] != threads:
        problems.append(f"{study}: manifest study/seed/threads "
                        f"{manifest['study']}/{manifest['seed']}/{manifest['threads']}")
    failed = [k for k, ok in manifest["verdicts"].items() if not ok]
    if failed:
        problems.append(f"{study}: verdicts failed: {failed}")
    for rel, digest in manifest["files"].items():
        if hashlib.sha256((out / rel).read_bytes()).hexdigest() != digest:
            problems.append(f"{study}: hash mismatch for {rel}")
    return problems, manifest


def iteration(runner: Runner, work: Workload, threads: int, trace: Path | None = None) -> dict:
    """One invocation of the workload (one closed-loop request), checked.
    With trace, its spans go to that file."""
    it = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "verdicts": 0,
          "problems": [], "files": [], "studies": {}, "trace": None}
    result, out, err = runner.invoke(work, threads, trace=trace)
    if err:
        it["problems"].append(err)
        return it
    for study in work.studies:
        problems, manifest = check(result["rc"][study], out / study, study, threads, runner.seed)
        it["problems"] += problems
        it["verdicts"] += sum(bool(v) for v in manifest.get("verdicts", {}).values())
        it["files"].append(manifest.get("files"))
        if study in manifest.get("wall_time_s", {}):
            it["studies"][study] = manifest["wall_time_s"][study]
    it["wall_s"], it["cpu_s"], it["peak_rss_mb"] = result["wall_s"], result["cpu_s"], result["peak_rss_mb"]
    it["trace"] = result.get("trace")
    shutil.rmtree(out)
    if it["verdicts"] != work.verdicts and not it["problems"]:
        it["problems"].append(f"{it['verdicts']} verdicts passed, expected {work.verdicts}")
    return it


def traced_metrics(it: dict) -> dict[str, float]:
    """The trace summary of one traced iteration, with the derived metrics."""
    total = dict(it["trace"])
    busy, wait = total["kernel.batch.busy_s"], total["sampling.run_batched.wait_s"]
    total["sampling.run_batched.pool_busy_share"] = busy / (busy + wait) if busy + wait > 0 else 0.0
    for s in STUDIES:
        total[f"cli.study.{s}.s"] = it["studies"].get(s, 0.0)
    return total


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class SpeedProbe:
    """Samples the host's speed while invocations run.

    The host is shared and its speed swings by up to 2x within minutes
    (see README.md). A thread of this otherwise idle process, pinned to
    one CPU, times a fixed unit of interpreter work every 50 ms;
    single-thread invocations are pinned to the same CPU. A normalized
    time is a measured time times UNIT_NOMINAL_S over the median unit
    time in some windows: seconds at the host speed that gives
    UNIT_NOMINAL_S. For a single-thread invocation the window is the
    invocation itself. An invocation with more threads runs on every
    CPU, so a probe sample taken during it would also measure the
    program's own load on that CPU; for such a workload one probe thread
    runs on each CPU, and an invocation's windows are quiet ones just
    before and after it, with no child running. The unit and the constant
    must never change, or every recorded baseline is void."""

    UNIT_NOMINAL_S = 0.0012
    PERIOD_S = 0.05
    CPU = max(os.sched_getaffinity(0))

    def __init__(self, cpus: set[int]):
        self.samples: list[tuple[float, float]] = []  # (start, unit time)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,), daemon=True) for cpu in cpus]

    @staticmethod
    def _unit() -> int:
        acc = 0
        for i in range(20_000):
            acc += i * i
        return acc

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while not self._stop.is_set():
            t0 = time.perf_counter()
            self._unit()
            self.samples.append((t0, time.perf_counter() - t0))
            self._stop.wait(self.PERIOD_S)

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def quiet(self, seconds: float) -> tuple[float, float]:
        """Let only the probe run for `seconds`; returns the window."""
        start = time.perf_counter()
        time.sleep(seconds)
        return start, time.perf_counter()

    def scale(self, windows: list[tuple[float, float]]) -> float:
        """Factor turning a time measured at the host speed of these
        (start, end) windows into seconds at the nominal host speed."""
        units = [d for t, d in self.samples if any(a <= t <= b for a, b in windows)]
        return self.UNIT_NOMINAL_S / statistics.median(units) if units else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the closed loop for `seconds`, then the result object."""
    work = WORKLOADS[name]
    generate_inputs()
    problems: list[str] = []
    samples: list[dict] = []  # untraced iterations
    traced: list[dict] = []
    setup: list[float] = []
    setup_windows: list[tuple[float, float]] = []
    pinned = work.threads == 1
    trace_dir = WORK / "traces" / name  # holds the spans of this workload's last traced run
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name, SpeedProbe(
            {SpeedProbe.CPU} if pinned else os.sched_getaffinity(0)) as probe:
        runner = Runner(Path(tmp_name), seed)
        # warm-up: compiles bytecode into the cache and loads shared libraries
        runner.invoke(work, 1, setup_only=True)
        t1_files = None
        if work.same_as_t1:
            t1 = iteration(runner, work, 1)
            problems += [f"--threads 1 run: {p}" for p in t1["problems"]]
            t1_files = t1["files"]

        def one(with_trace=False):
            # the run id: workload, seed, pid of this process, invocation number
            run_id = f"{name}-s{seed}-p{os.getpid()}-i{runner.count + 1}"
            spans = trace_dir / f"{run_id}.json" if with_trace else None
            windows = [] if pinned else [probe.quiet(QUIET_S)]
            t0 = time.perf_counter()
            it = iteration(runner, work, work.threads, spans)
            windows += [(t0, time.perf_counter())] if pinned else [probe.quiet(QUIET_S)]
            it["scale"] = probe.scale(windows)
            if t1_files is not None and it["files"] != t1_files:
                it["problems"].append("files differ from the --threads 1 run at the same seed")
            problems.extend(it["problems"])
            return it

        def time_setup_only():
            t0 = time.perf_counter()
            result, _, err = runner.invoke(work, 1, setup_only=True)
            setup_windows.append((t0, time.perf_counter()))
            if err:
                problems.append(f"set-up-only invocation: {err}")
            else:
                setup.append(result["setup_s"])

        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if trace:
                samples.append(one())
                traced.append(one(with_trace=True))
            else:
                samples.append(one())
                for _ in range(SETUP_ONLY_RUNS):
                    time_setup_only()
            now = time.perf_counter()
            if now - start + (now - t0) / 2 > seconds:  # overshoot at most half a cycle
                break
        # one set-up invocation is too short to carry enough probe samples
        # of its own, so all of them take the host speed during all of them
        setup_scale = probe.scale(setup_windows)

    runs = samples + traced
    failed = sum(1 for it in runs if it["problems"])
    if trace:
        per = [traced_metrics(it) for it in traced if it["trace"]]
        metrics = {k: statistics.median(p[k] for p in per) for k in per[0]} if per else {}
        missing = [f for f in work.must_call if metrics.get(f"{f}.calls", 0) == 0]
        if missing:
            problems.append(f"coverage: traced functions recorded no calls: {missing}")
            failed += 1
        metrics["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(it["wall_s"] for it in samples)
        # the overhead compares times at the nominal host speed, like wall_norm_s
        base = statistics.median(it["wall_s"] * it["scale"] for it in samples)
        metrics["trace.overhead_s"] = statistics.median(it["wall_s"] * it["scale"] for it in traced) - base
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / base if base else 0.0
        units = per_layer_units()
        series = {k: [metrics.get(k, 0.0)] for k in units}
    else:
        units = END_TO_END
        series = {
            "wall_norm_s": [it["wall_s"] * it["scale"] for it in runs],
            "cpu_norm_s": [it["cpu_s"] * it["scale"] for it in runs],
            "setup_s": [x * setup_scale for x in setup],
            "peak_rss_mb": [it["peak_rss_mb"] for it in runs],
            # measured seconds, printed but not gated: they carry the host's swings
            "wall_s": [it["wall_s"] for it in runs],
            "cpu_s": [it["cpu_s"] for it in runs],
            "setup_measured_s": setup,
        }
    for p in dict.fromkeys(problems):
        print(f"{name}: FAILED {p}", file=sys.stderr)
    print(f"{name}: seed {seed}, {len(runs)} runs, {failed} failed, "
          f"failed_share {failed / len(runs):.3f}")
    out = {}
    printed = {**units, **({k: "s" for k in ("wall_s", "cpu_s", "setup_measured_s")} if not trace else {})}
    for metric, unit in printed.items():
        if metric == "verdicts_passed":
            value = min(it["verdicts"] for it in runs)
            print(f"{name}: verdicts_passed = {value} {unit} (expected {work.verdicts})")
        elif metric == "peak_rss_mb":
            # the largest peak: under --threads 2 the peak of one invocation
            # depends on how the pool's batches happen to overlap
            values = series[metric]
            value = max(values)
            print(f"{name}: peak_rss_mb = {value:.6g} {unit}  [min {min(values):.6g}, n={len(values)}]")
        else:
            q1, value, q3 = quartiles(series[metric])
            if unit == "count":
                value = round(value)
            spread = f"  [q1 {q1:.4g}, q3 {q3:.4g}, n={len(series[metric])}]" if not trace else ""
            shown = value if unit == "count" else f"{value:.6g}"
            print(f"{name}: {metric} = {shown} {unit}{spread}")
        if metric in units:
            out[metric] = {"value": value, "unit": unit}
    return {"correct": failed == 0 and not problems, "attempted": len(runs),
            "failed": failed, "metrics": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    needed = [ROOT / "src" / "adpricing" / "cli.py", ROOT / "configs" / "default.yaml",
              ROOT / "configs" / "three_player.yaml"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: the adpricing sources are missing: {absent}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
