"""The benchmark's --trace 1 coverage check, shrunk to tier-1 size.

perfbench/tracer.py binds adpricing functions by name, and each
workload of perfbench/run.py lists the traced functions it must reach.
A rename, a removed parameter the tracer binds or a function no longer
called would fail only a benchmark run; this test runs each distinct
(config, studies) pair of the workloads once under the tracer, with few
replications and rounds, and reads nothing of perfbench but its files."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_run(monkeypatch):
    """perfbench/run.py as a module; it imports tracer from its own folder.
    No bytecode cache is written into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look it up
    spec.loader.exec_module(run)
    return run


def test_traced_workloads_reach_every_must_call(tmp_path, monkeypatch):
    run = _load_run(monkeypatch)
    # the configs the benchmark derives go to tmp_path, with 200 rounds
    work = run.WORK
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SIMULATE_ROUNDS", 200)
    run.generate_inputs()

    must_call: dict[tuple, set] = {}
    for w in run.WORKLOADS.values():
        must_call.setdefault((w.config, w.studies), set()).update(w.must_call)
    assert len(must_call) >= 3

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for k, ((config, studies), labels) in enumerate(must_call.items()):
        path = ROOT / config
        if path.is_relative_to(work):
            path = run.WORK / path.relative_to(work)
        out = tmp_path / f"run{k}"
        out.mkdir()
        result, spans = out / "result.json", out / "spans.json"
        cmd = [sys.executable, str(run.CHILD), "--src", str(ROOT / "src"),
               "--result", str(result), "--out", str(out), "--trace", str(spans)]
        for study in studies:
            cmd += ["--study", study]
        cmd += ["--", "--config", str(path), "--replications", "2000"]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (config, proc.stderr[-2000:])
        res = json.loads(result.read_text())
        assert res["rc"] == {s: 0 for s in studies}, (config, res["rc"])
        missing = sorted(f for f in labels if res["trace"].get(f"{f}.calls", 0) == 0)
        assert not missing, (config, missing)
